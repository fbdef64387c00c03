//! The repository's benchmark: three seeded, closed-loop workloads
//! driven through the public API of the crates their users call, each
//! measured end to end and — in a separate traced run — layer by layer.
//!
//! * [`spec_blocks`] — `Speculation::run` on the global pool
//!   (`core`, `exec`, `pagestore` fork/CoW).
//! * [`session_storm`] — a `FrontDoor` on loopback TCP
//!   (`net`, `server`, `exec`).
//! * [`rfork_ship`] — `Cluster::tcp` rfork/commit_back/discard
//!   (`remote`, `net` with large frames, `pagestore` checkpoint/restore).
//!
//! Every workload runs on default configuration only; see
//! [`host::refuse_behaviour_env`]. The layer probes that do not belong to
//! one workload live in [`probes`]. `README.md` beside this crate explains
//! why each workload was chosen and which end-to-end metric each layer
//! metric should move.

pub mod host;
pub mod metrics;
pub mod probes;
pub mod rfork_ship;
pub mod rng;
pub mod run;
pub mod session_storm;
pub mod spec_blocks;
pub mod stats;
pub mod trace;

use rfork_ship::RforkShip;
use run::{end_to_end, traced_main, traced_probe, Outcome, Workload};
use session_storm::SessionStorm;
use spec_blocks::SpecBlocks;

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["spec_blocks", "session_storm", "rfork_ship"];

/// Ops of each other workload a traced run measures for the layer
/// metrics only that workload can give.
pub const PROBE_OPS: u64 = 1_500;

/// Run `workload` for `seconds`: the end-to-end metrics, or with
/// `trace` the per-layer ones.
pub fn execute(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if trace {
        traced(workload, seed, seconds)
    } else {
        untraced(workload, seed, seconds)
    }
}

fn untraced(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    match workload {
        "spec_blocks" => end_to_end(&SpecBlocks::default(), seed, seconds),
        "session_storm" => end_to_end(&SessionStorm::default(), seed, seconds),
        _ => end_to_end(&RforkShip::default(), seed, seconds),
    }
}

/// The traced run: the named workload half untraced, half traced; a
/// fixed-size traced probe of each other workload; the layer probes;
/// the direct `SessionManager` replay; and the metrics derived from
/// differences between them.
fn traced(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (spec, storm, rfork) = (
        SpecBlocks::default(),
        SessionStorm::default(),
        RforkShip::default(),
    );
    let mut out = match workload {
        "spec_blocks" => traced_main(&spec, seed, seconds)?,
        "session_storm" => traced_main(&storm, seed, seconds)?,
        _ => traced_main(&rfork, seed, seconds)?,
    };
    if workload != spec.name() {
        traced_probe(&spec, seed, PROBE_OPS, &mut out)?;
    }
    if workload != storm.name() {
        traced_probe(&storm, seed, PROBE_OPS, &mut out)?;
    }
    if workload != rfork.name() {
        traced_probe(&rfork, seed, PROBE_OPS, &mut out)?;
    }
    let m = &mut out.metrics;
    probes::pagestore(seed, m)?;
    probes::checkpoint_restore(seed, m)?;
    probes::codec(seed, m)?;
    let direct = storm.direct_replay(seed, PROBE_OPS)?;
    for &(name, v) in &direct.layer {
        m.set(name, v);
    }
    let get = |name: &str| m.get(name).ok_or(format!("{name} missing"));
    let overhead = get("net.spawn_rpc_us_p50")? - get("server.spawn_us_p50")?;
    let wire = get("remote.rfork_us_p50")?
        - get("pagestore.checkpoint_us_p50")?
        - get("pagestore.restore_us_p50")?
        - get("net.codec_large_us_p50")?;
    m.set("net.spawn_overhead_us_p50", overhead);
    m.set("remote.wire_us_p50", wire);
    out.attempted += direct.attempted;
    out.failed += direct.failed;
    out.violations.extend(direct.violations);
    out.failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    Ok(out)
}

pub fn params_json(workload: &str) -> String {
    match workload {
        "spec_blocks" => SpecBlocks::default().params_json(),
        "session_storm" => SessionStorm::default().params_json(),
        _ => RforkShip::default().params_json(),
    }
}

/// Page size of every store the benchmark builds (the library default).
pub const PAGE: usize = 4096;

/// Fill `buf` with the page image named by `tag`: distinct tags give
/// distinct pages, equal tags equal ones, so checks can recompute the
/// expected bytes instead of storing them.
pub fn fill_page(tag: u64, buf: &mut [u8]) {
    for (i, word) in buf.chunks_exact_mut(8).enumerate() {
        let v = tag ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        word.copy_from_slice(&v.to_le_bytes());
    }
}

/// Whether `page` is exactly the image [`fill_page`] makes for `tag`.
pub fn page_matches(tag: u64, page: &[u8]) -> bool {
    page.chunks_exact(8).enumerate().all(|(i, word)| {
        let v = tag ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        word == v.to_le_bytes()
    })
}
