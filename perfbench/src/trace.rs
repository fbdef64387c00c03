//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing inside the program is traced: a span's start and end
//! are timestamps the benchmark takes on its side of a public call (or
//! inside the closures it hands to `Speculation::run`).

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::Samples;

/// Nanoseconds since the first call in this process — one clock for
/// every thread, so spans from the caller and from pool workers compare.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Index of a span within its [`Trace`].
pub type SpanId = usize;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The op (block, session cycle, distributed block) the span serves.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus what child spans cover).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace::default()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        op: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Append another thread's trace, re-basing its parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Samples {
        Samples::new(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::dur_ns)
                .collect(),
        )
    }

    /// Self time per span name: each span's duration minus the union of
    /// its children's intervals, clipped to the span.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered_ns(s.start_ns, s.end_ns, &mut children[i]);
            let lt = out.entry(s.name).or_default();
            lt.count += 1;
            lt.total_ns += s.dur_ns();
            lt.self_ns += s.dur_ns() - covered;
        }
        out
    }

    /// Share of the time of spans called `op_name` that no child span
    /// covers.
    pub fn unattributed_share(&self, op_name: &str) -> f64 {
        let lt = self.layer_times();
        match lt.get(op_name) {
            Some(op) if op.total_ns > 0 => op.self_ns as f64 / op.total_ns as f64,
            _ => 0.0,
        }
    }

    /// Write the spans as tab-separated lines
    /// (`op id parent name start_ns end_ns`), at most `limit` of them,
    /// followed by the per-name self-time table.
    pub fn write_tsv(&self, w: &mut impl Write, limit: usize) -> std::io::Result<()> {
        writeln!(w, "# op\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        if self.spans.len() > limit {
            writeln!(w, "# {} more spans not written", self.spans.len() - limit)?;
        }
        writeln!(w, "# name\tcount\ttotal_ns\tself_ns")?;
        for (name, lt) in self.layer_times() {
            writeln!(w, "# {name}\t{}\t{}\t{}", lt.count, lt.total_ns, lt.self_ns)?;
        }
        Ok(())
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new();
        let op = t.push("op", 0, 100, None, 0);
        t.push("a", 10, 40, Some(op), 0);
        t.push("b", 30, 60, Some(op), 0); // overlaps a
        t.push("c", 90, 150, Some(op), 0); // runs past the op
        let lt = t.layer_times();
        assert_eq!(lt["op"].self_ns, 100 - 50 - 10);
        assert!((t.unattributed_share("op") - 0.4).abs() < 1e-12);
    }
}
