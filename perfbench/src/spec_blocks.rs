//! `spec_blocks`: one caller runs `Speculation::run` on the global pool.
//!
//! Each block forks 4 alternatives from a 256-page root. Each dirties a
//! seeded 1–8 pages with unique content and burns a seeded 5–45 µs of
//! CPU; its guard passes with probability ½ and the last alternative
//! always passes. `core`, `exec` and `pagestore` fork/CoW do nearly all
//! the work — no `net`, no `server`. The spread of alternative times
//! gives `Rμ > 1`, so `Ro` and `PI` mean something. op = one block.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use worlds::{AltBlock, AltError, RunOutcome, Speculation, WorldCtx};
use worlds_exec::Reaper;
use worlds_pagestore::{PageStore, WorldId};

use crate::rng::Rng;
use crate::run::{wait_until, LoopSpec, Phase, Workload};
use crate::stats::Samples;
use crate::trace::now_ns;
use crate::{fill_page, page_matches, PAGE};

/// Blocks run during set-up, before the first timed op.
const WARMUP_BLOCKS: u64 = 50;

#[derive(Debug, Clone)]
pub struct SpecBlocks {
    pub root_pages: u64,
    pub alts: usize,
    pub dirty_pages: (u64, u64),
    pub burn_us: (u64, u64),
}

impl Default for SpecBlocks {
    fn default() -> SpecBlocks {
        SpecBlocks {
            root_pages: 256,
            alts: 4,
            dirty_pages: (1, 8),
            burn_us: (5, 45),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AltPlan {
    pub burn_ns: u64,
    /// (vpn, content tag) per dirtied page; vpns are distinct.
    pub pages: Vec<(u64, u64)>,
    pub pass: bool,
}

/// The seeded op sequence.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: Rng,
    params: SpecBlocks,
}

impl Gen {
    pub fn new(params: &SpecBlocks, seed: u64) -> Gen {
        Gen {
            rng: Rng::new(seed, 0),
            params: params.clone(),
        }
    }

    pub fn next_block(&mut self) -> Vec<AltPlan> {
        let p = &self.params;
        (0..p.alts)
            .map(|i| {
                let n = self.rng.range(p.dirty_pages.0, p.dirty_pages.1) as usize;
                let vpns = self.rng.distinct(n, p.root_pages);
                AltPlan {
                    burn_ns: self.rng.range(p.burn_us.0, p.burn_us.1) * 1_000,
                    pages: vpns.into_iter().map(|v| (v, self.rng.next_u64())).collect(),
                    pass: i + 1 == p.alts || self.rng.chance(1, 2),
                }
            })
            .collect()
    }
}

pub struct Fixture {
    spec: Speculation,
    root: WorldId,
    /// Content tag of every root page, as committed so far.
    shadow: Vec<u64>,
    gen: Gen,
}

/// Timestamps the alternatives' bodies take, one slot per alternative.
/// 0 = not yet recorded.
struct BlockRec {
    entry: Vec<AtomicU64>,
    exit: Vec<AtomicU64>,
    /// Whether the body ran to the end rather than observing cancellation.
    completed: Vec<AtomicU64>,
}

impl BlockRec {
    fn new(n: usize) -> BlockRec {
        let zeros = || (0..n).map(|_| AtomicU64::new(0)).collect();
        BlockRec {
            entry: zeros(),
            exit: zeros(),
            completed: zeros(),
        }
    }

    fn all_exited(&self) -> bool {
        self.exit.iter().all(|e| e.load(Ordering::Acquire) != 0)
    }
}

fn burn(ns: u64) {
    let until = Instant::now() + Duration::from_nanos(ns);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

fn block(store: &PageStore, plans: &[AltPlan], rec: Option<&Arc<BlockRec>>) -> AltBlock<usize> {
    let mut block = AltBlock::new();
    for (i, plan) in plans.iter().enumerate() {
        let store = store.clone();
        let plan = plan.clone();
        let rec = rec.cloned();
        block = block.alt(format!("alt{i}"), move |ctx: &mut WorldCtx| {
            if let Some(r) = &rec {
                r.entry[i].store(now_ns().max(1), Ordering::Release);
            }
            let result = (|| {
                ctx.checkpoint()?;
                let world = ctx.world_id();
                let mut buf = vec![0u8; PAGE];
                for &(vpn, tag) in &plan.pages {
                    fill_page(tag, &mut buf);
                    store.write(world, vpn, 0, &buf)?;
                }
                burn(plan.burn_ns);
                if plan.pass {
                    Ok(i)
                } else {
                    Err(AltError::GuardFailed(String::new()))
                }
            })();
            if let Some(r) = &rec {
                if !matches!(result, Err(AltError::Cancelled)) {
                    r.completed[i].store(1, Ordering::Relaxed);
                }
                r.exit[i].store(now_ns().max(1), Ordering::Release);
            }
            result
        });
    }
    block
}

/// The root holds exactly the winner's pages and none of a loser's.
fn verify(
    store: &PageStore,
    root: WorldId,
    plans: &[AltPlan],
    winner: usize,
    shadow: &mut [u64],
) -> Result<(), String> {
    let won = &plans[winner];
    if !won.pass {
        return Err(format!(
            "alternative {winner} committed though its guard failed"
        ));
    }
    let mut buf = vec![0u8; PAGE];
    for &(vpn, tag) in &won.pages {
        store
            .read(root, vpn, 0, &mut buf)
            .map_err(|e| e.to_string())?;
        if !page_matches(tag, &buf) {
            return Err(format!("root page {vpn} lacks the winner's bytes"));
        }
    }
    for (i, plan) in plans.iter().enumerate().filter(|&(i, _)| i != winner) {
        for &(vpn, _) in &plan.pages {
            if won.pages.iter().any(|&(v, _)| v == vpn) {
                continue;
            }
            store
                .read(root, vpn, 0, &mut buf)
                .map_err(|e| e.to_string())?;
            if !page_matches(shadow[vpn as usize], &buf) {
                return Err(format!("root page {vpn} holds loser {i}'s write"));
            }
        }
    }
    for &(vpn, tag) in &won.pages {
        shadow[vpn as usize] = tag;
    }
    Ok(())
}

/// One block: run it, check the root. Returns the op latency.
fn one_block(fx: &mut Fixture, rec: Option<&Arc<BlockRec>>) -> (u64, u64, Result<usize, String>) {
    let plans = fx.gen.next_block();
    let b = block(fx.spec.store(), &plans, rec);
    let t0 = now_ns();
    let report = fx.spec.run(b);
    let t1 = now_ns();
    let checked = match report.outcome {
        RunOutcome::Winner { index, .. } => {
            verify(fx.spec.store(), fx.root, &plans, index, &mut fx.shadow).map(|()| index)
        }
        other => Err(format!(
            "block ended {other:?} though its last alternative passes"
        )),
    };
    (t0, t1, checked)
}

impl Workload for SpecBlocks {
    type Fixture = Fixture;

    fn name(&self) -> &'static str {
        "spec_blocks"
    }

    fn op_span(&self) -> &'static str {
        "core.block"
    }

    fn params_json(&self) -> String {
        format!(
            "{{\"root_pages\": {}, \"alts\": {}, \"dirty_pages\": [{}, {}], \"burn_us\": [{}, {}], \"guard_pass\": \"1/2, last always\", \"caller_threads\": 1, \"warmup_blocks\": {WARMUP_BLOCKS}}}",
            self.root_pages,
            self.alts,
            self.dirty_pages.0,
            self.dirty_pages.1,
            self.burn_us.0,
            self.burn_us.1
        )
    }

    fn setup(&self, seed: u64) -> Result<Fixture, String> {
        let spec = Speculation::new();
        let root = spec.root_world();
        let mut init = Rng::new(seed, 1);
        let shadow: Vec<u64> = (0..self.root_pages).map(|_| init.next_u64()).collect();
        let mut buf = vec![0u8; PAGE];
        for (vpn, &tag) in shadow.iter().enumerate() {
            fill_page(tag, &mut buf);
            spec.store()
                .write(root, vpn as u64, 0, &buf)
                .map_err(|e| e.to_string())?;
        }
        let mut fx = Fixture {
            spec,
            root,
            shadow,
            gen: Gen::new(self, seed),
        };
        for _ in 0..WARMUP_BLOCKS {
            one_block(&mut fx, None).2?;
        }
        Ok(fx)
    }

    fn measure(&self, fx: &mut Fixture, spec: LoopSpec) -> Phase {
        let mut phase = Phase::default();
        let store = fx.spec.store().clone();
        let before = store.stats();
        let mut recs: Vec<(u64, u64, Arc<BlockRec>, usize)> = Vec::new();
        let started = now_ns();
        while !spec.done(started, phase.attempted) {
            let rec = spec.traced.then(|| Arc::new(BlockRec::new(self.alts)));
            let (t0, t1, checked) = one_block(fx, rec.as_ref());
            phase.attempted += 1;
            phase.record(t0, t1);
            match checked {
                Ok(winner) => {
                    if let Some(rec) = rec {
                        recs.push((t0, t1, rec, winner));
                    }
                }
                Err(e) => phase.fail(e),
            }
        }
        phase.started_ns = started;
        phase.store_delta = store.stats().delta_since(&before);
        phase.frames_resident_end = store.live_frames();
        if spec.traced {
            // Losers may still be running; their bodies end on the pool.
            let settled = wait_until(Duration::from_secs(10), || {
                recs.iter().all(|r| r.2.all_exited())
            });
            if !settled {
                phase.fail("alternatives still running 10 s after the last block".into());
            }
            self.derive_layers(&mut phase, &recs);
        }
        phase
    }

    fn finish(&self, fx: Fixture) -> Result<(), String> {
        let store = fx.spec.store().clone();
        // Losers of the last blocks finish on the pool and queue
        // themselves on the reaper; only the root may remain.
        let drained = wait_until(Duration::from_secs(10), || {
            Reaper::global().drain();
            store.world_count() == 1
        });
        if !drained {
            return Err(format!(
                "{} worlds remain after the run; only the root should",
                store.world_count()
            ));
        }
        store.verify_refcounts().map(|_| ())
    }
}

impl SpecBlocks {
    /// Spans and the paper's ratios from the body timestamps.
    fn derive_layers(&self, phase: &mut Phase, recs: &[(u64, u64, Arc<BlockRec>, usize)]) {
        let (mut dispatch, mut alt, mut commit, mut lag) = (vec![], vec![], vec![], vec![]);
        let (mut sum_block, mut sum_alt, mut sum_mean, mut sum_bodies) = (0f64, 0f64, 0f64, 0f64);
        for (op, (t0, t1, rec, w)) in recs.iter().enumerate() {
            let load = |v: &AtomicU64| v.load(Ordering::Acquire);
            let (entry, exit) = (load(&rec.entry[*w]), load(&rec.exit[*w]));
            let op = op as u64;
            let id = phase.trace.push("core.block", *t0, *t1, None, op);
            phase.trace.push("core.dispatch", *t0, entry, Some(id), op);
            phase.trace.push("core.alt", entry, exit, Some(id), op);
            phase.trace.push("core.commit", exit, *t1, Some(id), op);
            let last_entry = rec.entry.iter().map(load).max().unwrap_or(entry);
            phase
                .trace
                .push("exec.start_lag", *t0, last_entry, None, op);
            dispatch.push(entry - t0);
            alt.push(exit - entry);
            commit.push(t1 - exit);
            lag.push(last_entry - t0);
            sum_block += (t1 - t0) as f64;
            sum_alt += (exit - entry) as f64;
            let bodies: Vec<f64> = (0..self.alts)
                .map(|i| load(&rec.exit[i]).saturating_sub(load(&rec.entry[i])) as f64)
                .collect();
            sum_bodies += bodies.iter().sum::<f64>();
            let done: Vec<f64> = (0..self.alts)
                .filter(|&i| load(&rec.completed[i]) == 1)
                .map(|i| bodies[i])
                .collect();
            sum_mean += done.iter().sum::<f64>() / done.len().max(1) as f64;
        }
        let n = recs.len().max(1) as f64;
        let (dispatch, alt, commit, lag) = (
            Samples::new(dispatch),
            Samples::new(alt),
            Samples::new(commit),
            Samples::new(lag),
        );
        let mut put = |name: &'static str, v: Result<f64, String>| match v {
            Ok(v) => phase.layer.push((name, v)),
            Err(e) => phase.fail(e),
        };
        put("core.block_us_mean", Ok(sum_block / n / 1e3));
        put("core.dispatch_us_mean", Ok(dispatch.mean_ns() / 1e3));
        put("core.alt_us_mean", Ok(alt.mean_ns() / 1e3));
        put("core.commit_us_mean", Ok(commit.mean_ns() / 1e3));
        put("core.dispatch_us_p50", dispatch.us(50.0, "core.dispatch"));
        put("core.dispatch_us_p99", dispatch.us(99.0, "core.dispatch"));
        put("core.alt_us_p50", alt.us(50.0, "core.alt"));
        put("core.commit_us_p50", commit.us(50.0, "core.commit"));
        put("core.commit_us_p99", commit.us(99.0, "core.commit"));
        put("exec.start_lag_us_p50", lag.us(50.0, "exec.start_lag"));
        put("exec.start_lag_us_p99", lag.us(99.0, "exec.start_lag"));
        // The paper's model over the whole loop: C_best is the committed
        // body, C_mean the mean of the bodies that ran to the end, and
        // the overhead everything else the block took.
        let r_mu = sum_mean / sum_alt.max(1.0);
        let ro = (sum_block - sum_alt) / sum_alt.max(1.0);
        put("core.r_mu", Ok(r_mu));
        put("core.ro", Ok(ro));
        put("core.pi", Ok(r_mu / (1.0 + ro)));
        put("core.useful_share", Ok(sum_alt / sum_bodies.max(1.0)));
    }
}
