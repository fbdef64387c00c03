//! Percentiles that refuse to be reported on too few samples.

/// How many samples must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Durations in nanoseconds, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    pub fn new(mut ns: Vec<u64>) -> Samples {
        ns.sort_unstable();
        Samples { sorted: ns }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The nearest-rank `p`-th percentile (0 < p < 100), or `None` when
    /// fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let idx = rank.clamp(1, n) - 1;
        if n - 1 - idx < MIN_BEYOND {
            return None;
        }
        Some(self.sorted[idx])
    }

    /// Like [`Samples::percentile`], in microseconds; a refusal is an
    /// error naming the metric, since every named metric must be reported.
    pub fn us(&self, p: f64, metric: &str) -> Result<f64, String> {
        self.percentile(p).map(|ns| ns as f64 / 1e3).ok_or_else(|| {
            format!(
                "{metric}: {} samples leave fewer than {MIN_BEYOND} beyond p{p}",
                self.len()
            )
        })
    }

    pub fn mean_ns(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().map(|&v| v as f64).sum::<f64>() / self.sorted.len() as f64
    }
}

/// Median of a small set of floats (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
