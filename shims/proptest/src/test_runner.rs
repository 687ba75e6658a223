//! Deterministic RNG for case generation (splitmix64).

/// A small deterministic generator; one instance per (test, case).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for case `case` of a test with per-test `seed`.
    pub fn for_case(seed: u64, case: u64) -> Self {
        // Decorrelate neighbouring cases with a multiplicative bump.
        TestRng {
            state: seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1),
        }
    }

    /// Next 64 random bits (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Modulo bias is irrelevant for test-case generation.
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = TestRng::for_case(7, 3);
        let mut b = TestRng::for_case(7, 3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn cases_decorrelated() {
        let mut a = TestRng::for_case(7, 0);
        let mut b = TestRng::for_case(7, 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_in_range() {
        let mut r = TestRng::for_case(1, 1);
        for _ in 0..1000 {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
