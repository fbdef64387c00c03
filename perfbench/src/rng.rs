//! The benchmark's only source of randomness: a SplitMix64 stream per
//! (seed, stream) pair, so the same seed yields the same op sequence.

/// A deterministic 64-bit generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `stream` of `seed` (client threads take one each).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// `k` distinct values from `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.next_u64() % n;
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}
