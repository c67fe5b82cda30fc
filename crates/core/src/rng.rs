//! A small, fast, dependency-free seeded PRNG (SplitMix64).
//!
//! The workspace must build and test in fully offline environments, so the
//! simulator's jitter/hiccup draws and the randomized tests use this
//! in-repo generator instead of an external `rand` dependency. SplitMix64
//! (Steele, Lea & Flood, *Fast splittable pseudorandom number generators*,
//! OOPSLA 2014) passes BigCrush, has a full 2^64 period over its state,
//! and is two multiplies and three xor-shifts per draw — more than enough
//! statistical quality for simulation noise and test-case generation, and
//! trivially reproducible from a `u64` seed.
//!
//! Not cryptographically secure; do not use for anything security-related.

/// A SplitMix64 pseudorandom number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Every seed (including 0) yields a
    /// usable, distinct stream.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits / 2^53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[lo, hi)` (`lo` when the range is empty).
    pub fn frange(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            lo
        } else {
            lo + self.next_f64() * (hi - lo)
        }
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniform draw from `[0, n)` via Lemire's multiply-shift reduction
    /// (returns 0 when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // The tiny modulo bias (< 2^-64 * n) is irrelevant for simulation
        // and test-generation purposes.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniform `u64` in the inclusive range `[lo, hi]` (`lo` when
    /// `hi < lo`).
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// A uniform `usize` in the inclusive range `[lo, hi]`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A uniform `u32` in the inclusive range `[lo, hi]`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(u64::from(lo), u64::from(hi)) as u32
    }

    /// Derives an independent child generator (for giving each component
    /// of a test case its own reproducible stream).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn known_reference_values() {
        // Reference outputs for seed 1234567 from the public-domain
        // SplitMix64 reference implementation (Vigna).
        let mut r = SplitMix64::new(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(r.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = SplitMix64::new(7);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SplitMix64::new(99);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1_000 {
            let v = r.range_u64(3, 7);
            assert!((3..=7).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 7;
            let f = r.frange(-2.0, 2.0);
            assert!((-2.0..2.0).contains(&f));
        }
        assert!(seen_lo && seen_hi, "inclusive endpoints never drawn");
        assert_eq!(r.range_u64(5, 5), 5);
        assert_eq!(r.range_u64(9, 2), 9);
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn chance_tracks_probability() {
        let mut r = SplitMix64::new(1);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "got {hits}");
    }

    #[test]
    fn forks_diverge() {
        let mut parent = SplitMix64::new(5);
        let mut a = parent.fork();
        let mut b = parent.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
