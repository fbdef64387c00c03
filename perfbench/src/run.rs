//! The runner every workload shares: repeated set-up, a timed closed
//! loop, the end-to-end metrics, and the traced run's layer metrics.

use std::time::Duration;

use worlds_pagestore::StoreStats;

use crate::host;
use crate::metrics::Metrics;
use crate::stats::{median, Samples};
use crate::trace::{now_ns, Trace};

/// Most windows a timed loop's end-to-end metrics are taken over.
pub const WINDOWS: usize = 50;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// A timed op loop stops once it has run `seconds` *and* completed
/// `min_ops` ops (so a short run still has a p99), or at `max_ops`.
#[derive(Debug, Clone, Copy)]
pub struct LoopSpec {
    pub seconds: f64,
    pub min_ops: u64,
    pub max_ops: u64,
    pub traced: bool,
}

impl LoopSpec {
    /// Ops needed before p99 has ten samples beyond it.
    pub const MIN_OPS: u64 = 1_100;

    pub fn timed(seconds: f64, traced: bool) -> LoopSpec {
        LoopSpec {
            seconds,
            min_ops: Self::MIN_OPS,
            max_ops: u64::MAX,
            traced,
        }
    }

    /// A fixed-size traced probe of `ops` ops.
    pub fn probe(ops: u64) -> LoopSpec {
        LoopSpec {
            seconds: 0.0,
            min_ops: ops,
            max_ops: ops,
            traced: true,
        }
    }

    pub fn done(&self, started_ns: u64, ops: u64) -> bool {
        ops >= self.max_ops
            || (ops >= self.min_ops && (now_ns() - started_ns) as f64 >= self.seconds * 1e9)
    }
}

/// What one timed loop measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// (end, latency) of every op, ns.
    pub ops: Vec<(u64, u64)>,
    pub started_ns: u64,
    pub attempted: u64,
    /// Ops that errored or failed a correctness check.
    pub failed: u64,
    /// The first few violations, for the log.
    pub violations: Vec<String>,
    pub trace: Trace,
    /// Store counters over the loop (summed over every store involved).
    pub store_delta: StoreStats,
    pub frames_resident_end: usize,
    /// Layer metrics the workload derives itself (traced loops only).
    pub layer: Vec<(&'static str, f64)>,
}

impl Phase {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.violations.len() < 8 {
            self.violations.push(why);
        }
    }

    pub fn record(&mut self, t0: u64, t1: u64) {
        self.ops.push((t1, t1 - t0));
    }

    pub fn samples(&self) -> Samples {
        Samples::new(self.ops.iter().map(|&(_, lat)| lat).collect())
    }

    /// `op_ms_p50`, `op_ms_p90`, `op_ms_p99` and `ops_per_s`, each the
    /// median over up to [`WINDOWS`] consecutive windows of equal op
    /// count, so a burst of host noise moves one window, not the result.
    /// Every window holds at least [`LoopSpec::MIN_OPS`] ops, so its p99
    /// has ten samples beyond it.
    pub fn windowed(&self, m: &mut Metrics) -> Result<(), String> {
        let mut ops = self.ops.clone();
        ops.sort_unstable();
        let windows = (ops.len() / LoopSpec::MIN_OPS as usize).clamp(1, WINDOWS);
        let per = ops.len() / windows;
        let (mut p50, mut p90, mut p99, mut rate) = (vec![], vec![], vec![], vec![]);
        let mut from = self.started_ns;
        for w in ops.chunks_exact(per).take(windows) {
            let s = Samples::new(w.iter().map(|&(_, lat)| lat).collect());
            p50.push(s.us(50.0, "op_ms_p50")? / 1e3);
            p90.push(s.us(90.0, "op_ms_p90")? / 1e3);
            p99.push(s.us(99.0, "op_ms_p99")? / 1e3);
            let to = w[w.len() - 1].0;
            rate.push(w.len() as f64 / ((to - from) as f64 / 1e9));
            from = to;
        }
        m.set("op_ms_p50", median(&p50));
        m.set("op_ms_p90", median(&p90));
        m.set("op_ms_p99", median(&p99));
        m.set("ops_per_s", median(&rate));
        Ok(())
    }
}

/// One workload: its fixture, its op loop, its final checks.
pub trait Workload {
    type Fixture;

    fn name(&self) -> &'static str;
    /// The workload's parameters as a JSON object.
    fn params_json(&self) -> String;
    /// Build the fixture: everything before the first timed op.
    fn setup(&self, seed: u64) -> Result<Self::Fixture, String>;
    /// Run the closed loop on `fx` per `spec`.
    fn measure(&self, fx: &mut Self::Fixture, spec: LoopSpec) -> Phase;
    /// End-of-run invariants; consumes the fixture.
    fn finish(&self, fx: Self::Fixture) -> Result<(), String>;
    /// Name of the span each op is recorded under.
    fn op_span(&self) -> &'static str;
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Metrics,
    pub samples: usize,
    pub failed_share: f64,
    pub trace: Trace,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Set the fixture up [`SETUP_REPS`] times (the first timed from
/// process start, which `now_ns` counts from), keep the last, and
/// report the median as `setup_s`.
pub fn repeated_setup<W: Workload>(
    w: &W,
    seed: u64,
    metrics: &mut Metrics,
) -> Result<W::Fixture, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 { 0 } else { now_ns() };
        let fx = w.setup(seed)?;
        times.push((now_ns() - t0) as f64 / 1e9);
        if let Some(old) = kept.replace(fx) {
            w.finish(old)?;
        }
    }
    metrics.set("setup_s", median(&times));
    kept.ok_or_else(|| "no set-up ran".to_string())
}

/// The end-to-end run: set up, measure `seconds`, check, report.
pub fn end_to_end<W: Workload>(w: &W, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut fx = repeated_setup(w, seed, &mut out.metrics)?;
    let phase = w.measure(&mut fx, LoopSpec::timed(seconds, false));
    phase.windowed(&mut out.metrics)?;
    absorb(&mut out, phase);
    if let Err(e) = w.finish(fx) {
        out.failed += 1;
        out.violations.push(e);
    }
    out.failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    out.metrics.set("ok_share", 1.0 - out.failed_share);
    out.metrics.set(
        "peak_rss_mb",
        host::peak_rss_mb().ok_or("VmHWM unreadable")?,
    );
    Ok(out)
}

fn absorb(out: &mut Outcome, phase: Phase) {
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    out.samples += phase.ops.len();
    out.violations.extend(phase.violations);
    out.trace.absorb(phase.trace);
}

/// The traced run of `w`: half the time untraced, half traced (their
/// p50 difference is the tracing overhead), then the store counters and
/// span accounting of the traced half.
pub fn traced_main<W: Workload>(w: &W, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut fx = repeated_setup(w, seed, &mut out.metrics)?;
    let plain = w.measure(&mut fx, LoopSpec::timed(seconds / 2.0, false));
    let traced = w.measure(&mut fx, LoopSpec::timed(seconds / 2.0, true));
    let m = &mut out.metrics;
    m.set(
        "trace.overhead_us_p50",
        traced.samples().us(50.0, "traced p50")? - plain.samples().us(50.0, "untraced p50")?,
    );
    let ops = traced.attempted.max(1) as f64;
    let d = traced.store_delta;
    m.set("pagestore.forks_per_op", d.forks as f64 / ops);
    m.set("pagestore.cow_faults_per_op", d.cow_faults as f64 / ops);
    m.set("pagestore.zero_fills_per_op", d.zero_fills as f64 / ops);
    m.set("pagestore.bytes_copied_per_op", d.bytes_copied as f64 / ops);
    m.set(
        "pagestore.recycler_locks_per_op",
        d.recycler_locks as f64 / ops,
    );
    m.set("pagestore.dedupe_hits_per_op", d.dedupe_hits as f64 / ops);
    m.set(
        "pagestore.frames_resident_end",
        traced.frames_resident_end as f64,
    );
    m.set(
        "trace.unattributed_share",
        traced.trace.unattributed_share(w.op_span()),
    );
    for &(name, v) in &traced.layer {
        m.set(name, v);
    }
    absorb(&mut out, plain);
    absorb(&mut out, traced);
    if let Err(e) = w.finish(fx) {
        out.failed += 1;
        out.violations.push(e);
    }
    out.failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    Ok(out)
}

/// A fixed-size traced probe of another workload, for the layer
/// metrics only it can measure. Its ops and failures count in `out`.
pub fn traced_probe<W: Workload>(
    w: &W,
    seed: u64,
    ops: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut fx = w.setup(seed)?;
    let phase = w.measure(&mut fx, LoopSpec::probe(ops));
    for &(name, v) in &phase.layer {
        out.metrics.set(name, v);
    }
    absorb(out, phase);
    if let Err(e) = w.finish(fx) {
        out.failed += 1;
        out.violations.push(e);
    }
    Ok(())
}

/// Poll `cond` every millisecond for up to `limit`.
pub fn wait_until(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + limit;
    loop {
        if cond() {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
