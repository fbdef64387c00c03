//! Layer probes that belong to no single op loop: `pagestore` calls on
//! stores shaped like the workloads', and the `net` codec on the
//! workloads' real request and image sizes. Each times one public call
//! many times and reports the median.

use worlds_net::{Frame, Request};
use worlds_pagestore::{checkpoint, restore, PageStore, WorldId};

use crate::metrics::Metrics;
use crate::rfork_ship::RforkShip;
use crate::rng::Rng;
use crate::session_storm::{Gen as StormGen, SessionStorm};
use crate::spec_blocks::SpecBlocks;
use crate::stats::Samples;
use crate::trace::now_ns;
use crate::{fill_page, PAGE};

/// Timed calls per probe.
pub const PROBE_ITERS: usize = 2_000;

fn timed<R>(out: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
    let s = now_ns();
    let r = f();
    out.push(now_ns() - s);
    r
}

fn store_with(pages: u64, seed: u64) -> Result<(PageStore, WorldId), String> {
    let store = PageStore::new(PAGE);
    let root = store.create_world();
    let mut rng = Rng::new(seed, 400);
    let mut buf = vec![0u8; PAGE];
    for vpn in 0..pages {
        fill_page(rng.next_u64(), &mut buf);
        store.write(root, vpn, 0, &buf).map_err(|e| e.to_string())?;
    }
    Ok((store, root))
}

/// `fork_world`, a CoW write, `adopt` and `drop_worlds` on a root shaped
/// like `spec_blocks`'s: each round forks one world per alternative,
/// writes one page into each, adopts the first and drops the rest.
pub fn pagestore(seed: u64, m: &mut Metrics) -> Result<(), String> {
    let params = SpecBlocks::default();
    let (store, root) = store_with(params.root_pages, seed)?;
    let mut rng = Rng::new(seed, 401);
    let (mut fork, mut cow, mut adopt, mut drop) = (vec![], vec![], vec![], vec![]);
    let mut buf = vec![0u8; PAGE];
    for _ in 0..PROBE_ITERS / params.alts {
        let mut kids = Vec::with_capacity(params.alts);
        for _ in 0..params.alts {
            let w = timed(&mut fork, || store.fork_world(root)).map_err(|e| e.to_string())?;
            fill_page(rng.next_u64(), &mut buf);
            let vpn = rng.range(0, params.root_pages - 1);
            timed(&mut cow, || store.write(w, vpn, 0, &buf)).map_err(|e| e.to_string())?;
            kids.push(w);
        }
        timed(&mut adopt, || store.adopt(root, kids[0])).map_err(|e| e.to_string())?;
        timed(&mut drop, || store.drop_worlds(&kids[1..]));
    }
    store.verify_refcounts()?;
    m.set(
        "pagestore.fork_world_us_p50",
        Samples::new(fork).us(50.0, "fork_world")?,
    );
    m.set(
        "pagestore.cow_write_us_p50",
        Samples::new(cow).us(50.0, "cow_write")?,
    );
    m.set(
        "pagestore.adopt_us_p50",
        Samples::new(adopt).us(50.0, "adopt")?,
    );
    m.set(
        "pagestore.drop_worlds_us_p50",
        Samples::new(drop).us(50.0, "drop_worlds")?,
    );
    Ok(())
}

/// `checkpoint` and `restore` of an origin shaped like `rfork_ship`'s.
pub fn checkpoint_restore(seed: u64, m: &mut Metrics) -> Result<(), String> {
    let (store, origin) = store_with(RforkShip::default().origin_pages, seed)?;
    let dst = PageStore::new(PAGE);
    let (mut ck, mut rs) = (vec![], vec![]);
    for _ in 0..PROBE_ITERS {
        let image = timed(&mut ck, || checkpoint(&store, origin)).map_err(|e| e.to_string())?;
        let w = timed(&mut rs, || restore(&dst, &image)).map_err(|e| e.to_string())?;
        dst.drop_world(w).map_err(|e| e.to_string())?;
    }
    m.set(
        "pagestore.checkpoint_us_p50",
        Samples::new(ck).us(50.0, "checkpoint")?,
    );
    m.set(
        "pagestore.restore_us_p50",
        Samples::new(rs).us(50.0, "restore")?,
    );
    Ok(())
}

/// Request encode + frame encode + frame decode + request decode.
fn round_trip(req: &Request) -> Result<Request, String> {
    let frame = Frame::new(req.kind(), 1, req.encode_payload());
    let wire = frame.encode();
    let back = Frame::decode(&wire).map_err(|e| e.to_string())?;
    Request::decode(back.kind, &back.payload).map_err(|e| e.to_string())
}

/// The wire codec on `session_storm`'s spawn requests (small frames)
/// and on `rfork_ship`'s rfork image (large frames).
pub fn codec(seed: u64, m: &mut Metrics) -> Result<(), String> {
    let mut gen = StormGen::new(&SessionStorm::default(), seed, 0);
    let mut small = Vec::with_capacity(PROBE_ITERS);
    while small.len() < PROBE_ITERS {
        for spawn in gen.next_cycle().spawns {
            let writes = spawn
                .iter()
                .map(|&(vpn, tag)| {
                    let mut buf = vec![0u8; PAGE];
                    fill_page(tag, &mut buf);
                    (vpn, buf)
                })
                .collect();
            let req = Request::SessionSpawn {
                session: 1,
                spin_ns: 0,
                writes,
            };
            let back = timed(&mut small, || round_trip(&req))?;
            if back != req {
                return Err("spawn request changed in a codec round trip".into());
            }
        }
    }
    let (store, origin) = store_with(RforkShip::default().origin_pages, seed)?;
    let req = Request::Rfork {
        image: checkpoint(&store, origin).map_err(|e| e.to_string())?,
    };
    let mut large = Vec::with_capacity(PROBE_ITERS);
    for _ in 0..PROBE_ITERS {
        let back = timed(&mut large, || round_trip(&req))?;
        if back != req {
            return Err("rfork request changed in a codec round trip".into());
        }
    }
    m.set(
        "net.codec_small_us_p50",
        Samples::new(small).us(50.0, "codec_small")?,
    );
    m.set(
        "net.codec_large_us_p50",
        Samples::new(large).us(50.0, "codec_large")?,
    );
    Ok(())
}
