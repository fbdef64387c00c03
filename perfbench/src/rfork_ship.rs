//! `rfork_ship`: one caller drives `Cluster::tcp` with 2 nodes against
//! an origin world of 18 pages — the paper's §3.4 70 KB process.
//!
//! Each block rforks the origin twice to node 1, writes a seeded 1–4
//! pages into each replica, commits the winner back and discards the
//! loser. `net` carries large frames instead of small ones and
//! `pagestore` does checkpoint/restore instead of CoW; this is where the
//! in-process → loopback rfork gap lives. op = one distributed block.

use worlds_obs::Registry;
use worlds_pagestore::StoreStats;
use worlds_remote::{Cluster, NetModel, NodeId, RemoteWorld};

use crate::rng::Rng;
use crate::run::{LoopSpec, Phase, Workload};
use crate::stats::Samples;
use crate::trace::now_ns;
use crate::{fill_page, page_matches, PAGE};

/// Blocks run during set-up, so connections exist before timing.
const WARMUP_BLOCKS: u64 = 20;

#[derive(Debug, Clone)]
pub struct RforkShip {
    pub origin_pages: u64,
    pub replicas: usize,
    pub pages_per_replica: (u64, u64),
}

impl Default for RforkShip {
    fn default() -> RforkShip {
        RforkShip {
            origin_pages: 18,
            replicas: 2,
            pages_per_replica: (1, 4),
        }
    }
}

/// One distributed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPlan {
    /// Per replica: (vpn, content tag) per written page.
    pub writes: Vec<Vec<(u64, u64)>>,
    pub winner: usize,
}

#[derive(Debug, Clone)]
pub struct Gen {
    rng: Rng,
    params: RforkShip,
}

impl Gen {
    pub fn new(params: &RforkShip, seed: u64) -> Gen {
        Gen {
            rng: Rng::new(seed, 300),
            params: params.clone(),
        }
    }

    pub fn next_block(&mut self) -> BlockPlan {
        let p = &self.params;
        let writes = (0..p.replicas)
            .map(|_| {
                let n = self.rng.range(p.pages_per_replica.0, p.pages_per_replica.1) as usize;
                self.rng
                    .distinct(n, p.origin_pages)
                    .into_iter()
                    .map(|v| (v, self.rng.next_u64()))
                    .collect()
            })
            .collect();
        BlockPlan {
            writes,
            winner: self.rng.range(0, p.replicas as u64 - 1) as usize,
        }
    }
}

pub struct Fixture {
    cluster: Cluster,
    origin: RemoteWorld,
    /// Content tag of every origin page, as committed so far.
    shadow: Vec<u64>,
    gen: Gen,
}

impl Fixture {
    fn stats(&self) -> StoreStats {
        let a = self.cluster.node(NodeId(0)).store().stats();
        let b = self.cluster.node(NodeId(1)).store().stats();
        StoreStats {
            forks: a.forks + b.forks,
            cow_faults: a.cow_faults + b.cow_faults,
            zero_fills: a.zero_fills + b.zero_fills,
            bytes_copied: a.bytes_copied + b.bytes_copied,
            recycler_locks: a.recycler_locks + b.recycler_locks,
            dedupe_hits: a.dedupe_hits + b.dedupe_hits,
            ..StoreStats::default()
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.cluster.node(NodeId(0)).bytes_sent() + self.cluster.node(NodeId(1)).bytes_sent()
    }
}

/// Timings of one block: op start/end and (name, start, end) per call.
struct BlockTimes {
    t0: u64,
    t1: u64,
    calls: Vec<(&'static str, u64, u64)>,
    pages_shipped: u64,
}

fn one_block(fx: &mut Fixture) -> (BlockTimes, Result<(), String>) {
    let plan = fx.gen.next_block();
    let mut calls = Vec::with_capacity(plan.writes.len() + 3);
    let mut shipped = 0u64;
    let t0 = now_ns();
    let result = (|| {
        let mut replicas = Vec::with_capacity(plan.writes.len());
        for _ in &plan.writes {
            let s = now_ns();
            let pages = fx
                .cluster
                .node(NodeId(0))
                .store()
                .mapped_pages(fx.origin.world)
                .map_err(|e| e.to_string())? as u64;
            let (r, _) = fx
                .cluster
                .rfork(fx.origin, NodeId(1))
                .map_err(|e| e.to_string())?;
            calls.push(("remote.rfork", s, now_ns()));
            shipped += pages;
            replicas.push(r);
        }
        let s = now_ns();
        let mut buf = vec![0u8; PAGE];
        for (r, writes) in replicas.iter().zip(&plan.writes) {
            for &(vpn, tag) in writes {
                fill_page(tag, &mut buf);
                fx.cluster.write(*r, vpn, &buf).map_err(|e| e.to_string())?;
            }
        }
        calls.push(("pagestore.replica_write", s, now_ns()));
        let s = now_ns();
        let (_, moved) = fx
            .cluster
            .commit_back(fx.origin, replicas[plan.winner])
            .map_err(|e| e.to_string())?;
        calls.push(("remote.commit_back", s, now_ns()));
        shipped += moved as u64;
        for (i, r) in replicas
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != plan.winner)
        {
            let s = now_ns();
            fx.cluster
                .discard(*r)
                .map_err(|e| format!("discard {i}: {e}"))?;
            calls.push(("remote.discard", s, now_ns()));
        }
        Ok(())
    })();
    let t1 = now_ns();
    // The origin reads back the winner's bytes and none of the loser's.
    let checked = result.and_then(|()| {
        for &(vpn, tag) in &plan.writes[plan.winner] {
            fx.shadow[vpn as usize] = tag;
        }
        for (vpn, &tag) in fx.shadow.iter().enumerate() {
            let page = fx
                .cluster
                .read(fx.origin, vpn as u64, PAGE)
                .map_err(|e| e.to_string())?;
            if !page_matches(tag, &page) {
                return Err(format!(
                    "origin page {vpn} differs from the committed state"
                ));
            }
        }
        Ok(())
    });
    let times = BlockTimes {
        t0,
        t1,
        calls,
        pages_shipped: shipped,
    };
    (times, checked)
}

impl Workload for RforkShip {
    type Fixture = Fixture;

    fn name(&self) -> &'static str {
        "rfork_ship"
    }

    fn op_span(&self) -> &'static str {
        "remote.block"
    }

    fn params_json(&self) -> String {
        format!(
            "{{\"nodes\": 2, \"origin_pages\": {}, \"rforks_per_block\": {}, \"pages_per_replica\": [{}, {}], \"caller_threads\": 1, \"warmup_blocks\": {WARMUP_BLOCKS}}}",
            self.origin_pages, self.replicas, self.pages_per_replica.0, self.pages_per_replica.1
        )
    }

    fn setup(&self, seed: u64) -> Result<Fixture, String> {
        let mut cluster = Cluster::tcp(2, PAGE, NetModel::datacenter(), Registry::disabled())
            .map_err(|e| format!("bind cluster: {e}"))?;
        let origin = cluster.create_world(NodeId(0));
        let mut init = Rng::new(seed, 301);
        let shadow: Vec<u64> = (0..self.origin_pages).map(|_| init.next_u64()).collect();
        let mut buf = vec![0u8; PAGE];
        for (vpn, &tag) in shadow.iter().enumerate() {
            fill_page(tag, &mut buf);
            cluster
                .write(origin, vpn as u64, &buf)
                .map_err(|e| e.to_string())?;
        }
        let mut fx = Fixture {
            cluster,
            origin,
            shadow,
            gen: Gen::new(self, seed),
        };
        for _ in 0..WARMUP_BLOCKS {
            one_block(&mut fx).1?;
        }
        Ok(fx)
    }

    fn measure(&self, fx: &mut Fixture, spec: LoopSpec) -> Phase {
        let mut phase = Phase::default();
        let (before, sent_before) = (fx.stats(), fx.bytes_sent());
        let mut shipped = 0u64;
        let (mut rfork, mut commit_back, mut discard) = (vec![], vec![], vec![]);
        let started = now_ns();
        while !spec.done(started, phase.attempted) {
            let (t, checked) = one_block(fx);
            let op = phase.attempted;
            phase.attempted += 1;
            phase.record(t.t0, t.t1);
            shipped += t.pages_shipped;
            if let Err(e) = checked {
                phase.fail(e);
            }
            if spec.traced {
                let id = phase.trace.push("remote.block", t.t0, t.t1, None, op);
                for &(name, s, e) in &t.calls {
                    phase.trace.push(name, s, e, Some(id), op);
                    match name {
                        "remote.rfork" => rfork.push(e - s),
                        "remote.commit_back" => commit_back.push(e - s),
                        "remote.discard" => discard.push(e - s),
                        _ => {}
                    }
                }
            }
        }
        phase.started_ns = started;
        let after = fx.stats();
        phase.store_delta = StoreStats {
            forks: after.forks - before.forks,
            cow_faults: after.cow_faults - before.cow_faults,
            zero_fills: after.zero_fills - before.zero_fills,
            bytes_copied: after.bytes_copied - before.bytes_copied,
            recycler_locks: after.recycler_locks - before.recycler_locks,
            dedupe_hits: after.dedupe_hits - before.dedupe_hits,
            ..StoreStats::default()
        };
        phase.frames_resident_end = fx.cluster.node(NodeId(0)).store().live_frames()
            + fx.cluster.node(NodeId(1)).store().live_frames();
        if spec.traced {
            let ops = phase.attempted.max(1) as f64;
            let (rfork, commit_back, discard) = (
                Samples::new(rfork),
                Samples::new(commit_back),
                Samples::new(discard),
            );
            phase.layer.push((
                "remote.bytes_sent_per_op",
                (fx.bytes_sent() - sent_before) as f64 / ops,
            ));
            phase
                .layer
                .push(("remote.pages_shipped_per_op", shipped as f64 / ops));
            for (name, v) in [
                ("remote.rfork_us_p50", rfork.us(50.0, "remote.rfork")),
                ("remote.rfork_us_p99", rfork.us(99.0, "remote.rfork")),
                (
                    "remote.commit_back_us_p50",
                    commit_back.us(50.0, "remote.commit_back"),
                ),
                ("remote.discard_us_p50", discard.us(50.0, "remote.discard")),
            ] {
                match v {
                    Ok(v) => phase.layer.push((name, v)),
                    Err(e) => phase.fail(e),
                }
            }
        }
        phase
    }

    fn finish(&self, fx: Fixture) -> Result<(), String> {
        for node in [NodeId(0), NodeId(1)] {
            let store = fx.cluster.node(node).store();
            store
                .verify_refcounts()
                .map_err(|e| format!("node {}: {e}", node.0))?;
        }
        let worlds = (
            fx.cluster.node(NodeId(0)).store().world_count(),
            fx.cluster.node(NodeId(1)).store().world_count(),
        );
        if worlds != (1, 0) {
            return Err(format!(
                "nodes hold {worlds:?} worlds; only the origin should remain"
            ));
        }
        Ok(())
    }
}
