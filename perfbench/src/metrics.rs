//! The named metrics, their units, and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names; the
//! crate's tests keep the two lists equal.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    // 1 − failed_share: a regression bound is a share of a median, so a
    // gated metric must never be 0 on a clean run.
    ("ok_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Tail latency, reported with the end-to-end metrics but carrying no
/// regression bound. On a shared VM, host preemption stalls single ops
/// for 4–12 ms, and the share of millisecond-scale ops it hits swings
/// from about 1% to over 10% between runs, so these percentiles land on
/// either side of that cliff from run to run (see README.md).
pub const UNGATED: &[(&str, &str)] = &[("op_ms_p90", "ms"), ("op_ms_p99", "ms")];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.block_us_mean", "us"),
    ("core.dispatch_us_mean", "us"),
    ("core.alt_us_mean", "us"),
    ("core.commit_us_mean", "us"),
    ("core.dispatch_us_p50", "us"),
    ("core.dispatch_us_p99", "us"),
    ("core.alt_us_p50", "us"),
    ("core.commit_us_p50", "us"),
    ("core.commit_us_p99", "us"),
    ("core.ro", "ratio"),
    ("core.r_mu", "ratio"),
    ("core.pi", "ratio"),
    ("core.useful_share", "ratio"),
    ("exec.start_lag_us_p50", "us"),
    ("exec.start_lag_us_p99", "us"),
    ("pagestore.fork_world_us_p50", "us"),
    ("pagestore.cow_write_us_p50", "us"),
    ("pagestore.adopt_us_p50", "us"),
    ("pagestore.drop_worlds_us_p50", "us"),
    ("pagestore.checkpoint_us_p50", "us"),
    ("pagestore.restore_us_p50", "us"),
    ("pagestore.forks_per_op", "count"),
    ("pagestore.cow_faults_per_op", "count"),
    ("pagestore.zero_fills_per_op", "count"),
    ("pagestore.bytes_copied_per_op", "B"),
    ("pagestore.recycler_locks_per_op", "count"),
    ("pagestore.dedupe_hits_per_op", "count"),
    ("pagestore.frames_resident_end", "count"),
    ("net.spawn_rpc_us_p50", "us"),
    ("net.spawn_rpc_us_p99", "us"),
    ("net.commit_rpc_us_p50", "us"),
    ("net.spawn_overhead_us_p50", "us"),
    ("net.codec_small_us_p50", "us"),
    ("net.codec_large_us_p50", "us"),
    ("server.spawn_us_p50", "us"),
    ("server.spawn_us_p99", "us"),
    ("server.commit_us_p50", "us"),
    ("server.rejected_per_op", "count"),
    ("remote.rfork_us_p50", "us"),
    ("remote.rfork_us_p99", "us"),
    ("remote.commit_back_us_p50", "us"),
    ("remote.discard_us_p50", "us"),
    ("remote.wire_us_p50", "us"),
    ("remote.bytes_sent_per_op", "B"),
    ("remote.pages_shipped_per_op", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_us_p50", "us"),
];

/// Measured values by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `name`, which must be one of the declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(UNGATED)
                .chain(PER_LAYER)
                .any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object for `defs`, failing if any is missing.
    pub fn json(&self, defs: &[(&str, &str)]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, unit)) in defs.iter().enumerate() {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            )
            .expect("write to String");
        }
        out.push('}');
        Ok(out)
    }
}

/// A JSON number with every digit the f64 holds.
pub fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Escape `s` as a JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
