//! A tiny, dependency-free, deterministic pseudo-random number generator.
//!
//! The workspace must build with no network access, so it cannot pull in
//! the `rand` crate. The seeded generators (`segbus-apps::generators`),
//! the simulated-annealing placement solver (`segbus-place`) and the
//! seeded-loop property tests only need a small, fast, *reproducible*
//! stream — not cryptographic quality — which an xorshift64* generator
//! seeded through SplitMix64 provides (Vigna, "An experimental exploration
//! of Marsaglia's xorshift generators, scrambled").
//!
//! The stream is part of the workspace's determinism contract: tests
//! assert exact outputs of seeded runs, so changing the algorithm is a
//! breaking change to every seeded experiment.

/// A small deterministic PRNG: xorshift64* seeded via SplitMix64.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// Create a generator from a 64-bit seed. Any seed is fine, including
    /// zero (SplitMix64 whitening guarantees a non-zero xorshift state).
    pub fn seed_from_u64(seed: u64) -> SmallRng {
        // One SplitMix64 step spreads low-entropy seeds over the state
        // space and maps seed 0 away from the xorshift fixed point.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        SmallRng {
            state: if z == 0 { 0x9e37_79b9_7f4a_7c15 } else { z },
        }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, n)` without modulo bias (rejection sampling).
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        // Reject the final partial block so every residue is equally
        // likely: `v` is kept when its whole block `[v - r, v - r + n)`
        // fits in `u64`. Same stream as comparing against the zone
        // `u64::MAX - u64::MAX % n`, with one division per draw, not two.
        loop {
            let v = self.next_u64();
            let r = v % n;
            if (v - r).checked_add(n - 1).is_some() {
                return r;
            }
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64: {lo} > {hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Uniform `usize` in the inclusive range `[lo, hi]`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A biased coin: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        // 53 uniform mantissa bits, the standard float-in-[0,1) recipe.
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(SmallRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = SmallRng::seed_from_u64(0);
        let v: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
        assert_ne!(v[0], v[1]);
    }

    /// The block test in `below` accepts exactly the draws below the
    /// zone `u64::MAX - u64::MAX % n`, so the stream is unchanged.
    #[test]
    fn below_block_test_equals_zone_test() {
        let mut r = SmallRng::seed_from_u64(11);
        let edges = [3, 5, 6, 7, 400, (1 << 63) + 1, u64::MAX - 1, u64::MAX];
        for i in 0..20_000u64 {
            let n = match i % 3 {
                0 => edges[(i / 3) as usize % edges.len()],
                1 => r.next_u64() | 1,
                _ => r.next_u64() >> (i % 64),
            };
            if n == 0 || n.is_power_of_two() {
                continue;
            }
            let zone = u64::MAX - (u64::MAX % n);
            for v in [r.next_u64(), zone - 1, zone, u64::MAX, u64::MAX - n, 0] {
                let block = (v - v % n).checked_add(n - 1).is_some();
                assert_eq!(block, v < zone, "v {v} n {n}");
            }
        }
    }

    #[test]
    fn below_stays_in_range_and_hits_everything() {
        let mut r = SmallRng::seed_from_u64(7);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    fn range_is_inclusive() {
        let mut r = SmallRng::seed_from_u64(9);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..400 {
            let v = r.range_u64(3, 6);
            assert!((3..=6).contains(&v));
            lo_seen |= v == 3;
            hi_seen |= v == 6;
        }
        assert!(lo_seen && hi_seen);
        assert_eq!(r.range_u64(5, 5), 5, "degenerate range");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SmallRng::seed_from_u64(11);
        let hits = (0..2000).filter(|_| r.gen_bool(0.25)).count();
        assert!((350..650).contains(&hits), "~500 expected, got {hits}");
        assert!(!SmallRng::seed_from_u64(1).gen_bool(0.0));
        assert!(SmallRng::seed_from_u64(1).gen_bool(1.0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_rejected() {
        let _ = SmallRng::seed_from_u64(1).below(0);
    }
}
