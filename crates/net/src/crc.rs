//! CRC-32 (IEEE 802.3 polynomial): a carry-less-multiply folding kernel
//! with a table-driven fallback.
//!
//! Every frame carries a trailing checksum so a truncated or bit-flipped
//! frame is rejected at the codec layer instead of surfacing as a corrupt
//! checkpoint image or a garbled page. The polynomial is the ubiquitous
//! reflected `0xEDB88320` — the same CRC Ethernet, gzip and PNG use — so
//! captures can be cross-checked with any standard tool.
//!
//! ## Kernel selection
//!
//! On x86_64 CPUs with `PCLMULQDQ` and SSE4.1 (checked once per call with
//! `is_x86_feature_detected!`, which caches the CPUID answer), inputs of
//! 128 bytes or more go through [`fold_pclmul`]: four 128-bit lanes folded
//! 64 bytes per step with carry-less multiplies, reduced to 32 bits with a
//! Barrett step (the scheme of Intel's "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ"). Shorter inputs, the fold's sub-16-byte
//! tail, and every input on other CPUs take the byte-at-a-time table loop
//! ([`update_table`]). The two paths compute the same CRC-32/ISO-HDLC
//! value — the table loop is the reference the tests hold the kernel to —
//! so the choice never changes a byte on the wire. There is no switch to
//! force either path.
//!
//! ## Incremental form
//!
//! [`crc32_update`] continues a CRC over more bytes:
//! `crc32_update(crc32(a), b) == crc32(a ++ b)`. The frame codec uses it
//! to check and write header, payload and trailer where they lie, without
//! joining them into one buffer first.

/// 256-entry lookup table for the reflected IEEE polynomial, built at
/// compile time so the codec has no lazy-init state.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Inputs shorter than this take the table loop even when the folding
/// kernel is available: the kernel needs four 16-byte lanes to start.
const FOLD_MIN: usize = 128;

/// CRC-32 of `bytes` (initial value `!0`, final complement — the standard
/// "CRC-32/ISO-HDLC" parameters).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continue `crc` (the CRC-32 of the bytes seen so far; 0 for none) over
/// `bytes`, so `crc32_update(crc32(a), b) == crc32(a ++ b)`.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `fold_pclmul` is compiled for `pclmulqdq` and `sse4.1`,
        // and both features were detected on this CPU just above.
        return unsafe { fold_pclmul(crc, bytes) };
    }
    update_table(crc, bytes)
}

/// The byte-at-a-time table loop: the only path on CPUs without the
/// folding kernel, the path for short inputs and the fold's tail, and the
/// reference the kernel is tested against.
fn update_table(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Carry-less-multiply folding kernel for `bytes.len() >= FOLD_MIN`.
///
/// The fold constants are `x^n mod P(x)` in the bit-reflected domain,
/// shifted left by one: `K1`/`K2` fold a lane 512 bits forward (four
/// lanes at a time), `K3`/`K4` fold 128 bits forward, `K5` reduces 96
/// bits to 64, and `P_X`/`MU` are the polynomial and its Barrett
/// quotient `floor(x^64 / P(x))`, both reflected.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
unsafe fn fold_pclmul(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    debug_assert!(bytes.len() >= FOLD_MIN);
    let mut chunks = bytes.chunks_exact(16);
    let tail = chunks.remainder();
    // `chunks_exact(16)` yields exactly 16-byte slices, so every load
    // reads in bounds; `loadu` has no alignment requirement.
    let mut load = || _mm_loadu_si128(chunks.next().expect("16-byte lane").as_ptr().cast());
    // Fold `a` forward by the distance `k` encodes and add `b`.
    let fold = |a: __m128i, b: __m128i, k: __m128i| {
        _mm_xor_si128(
            _mm_xor_si128(b, _mm_clmulepi64_si128(a, k, 0x00)),
            _mm_clmulepi64_si128(a, k, 0x11),
        )
    };

    let mut lanes = bytes.len() / 16;
    let mut x3 = _mm_xor_si128(load(), _mm_cvtsi32_si128(!crc as i32));
    let mut x2 = load();
    let mut x1 = load();
    let mut x0 = load();
    lanes -= 4;

    let k1k2 = _mm_set_epi64x(K2, K1);
    while lanes >= 4 {
        x3 = fold(x3, load(), k1k2);
        x2 = fold(x2, load(), k1k2);
        x1 = fold(x1, load(), k1k2);
        x0 = fold(x0, load(), k1k2);
        lanes -= 4;
    }

    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold(x3, x2, k3k4);
    x = fold(x, x1, k3k4);
    x = fold(x, x0, k3k4);
    while lanes > 0 {
        x = fold(x, load(), k3k4);
        lanes -= 1;
    }

    // 128 → 96 → 64 bits.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );

    // Barrett reduction, 64 → 32 bits (reflected variant: the result is
    // the upper half of the low 64-bit word).
    let pu = _mm_set_epi64x(MU, P_X);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
    let folded = !(_mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32);

    update_table(folded, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic, non-repeating test bytes.
    fn bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = b"multiple worlds".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() * 8 {
            data[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&data), clean, "bit {i} undetected");
            data[i / 8] ^= 1 << (i % 8);
        }
    }

    #[test]
    fn kernel_matches_table_loop_at_every_length() {
        let data = bytes(4096, 7);
        for len in 0..=data.len() {
            let slice = &data[..len];
            assert_eq!(crc32(slice), update_table(0, slice), "length {len}");
        }
        // Unaligned starts exercise the unaligned lane loads.
        for start in 1..16 {
            let slice = &data[start..];
            assert_eq!(crc32(slice), update_table(0, slice), "start {start}");
        }
    }

    #[test]
    fn kernel_matches_table_loop_on_an_rfork_sized_image() {
        // 18 pages of 4 KiB plus a header: the paper's 70 KB process.
        let data = bytes(18 * 4096 + 77, 11);
        assert_eq!(crc32(&data), update_table(0, &data));
        for crc in [0, 1, 0xDEAD_BEEF, !0] {
            assert_eq!(crc32_update(crc, &data), update_table(crc, &data));
        }
    }

    #[test]
    fn update_over_every_split_equals_one_shot() {
        let data = bytes(300, 3);
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), whole, "split at {split}");
        }
        // Three-way splits straddling the kernel's 128-byte threshold.
        for cut in [1, 17, 127, 128, 129, 200] {
            let (a, rest) = data.split_at(cut);
            let (b, c) = rest.split_at(rest.len() / 2);
            assert_eq!(crc32_update(crc32_update(crc32(a), b), c), whole);
        }
    }
}
