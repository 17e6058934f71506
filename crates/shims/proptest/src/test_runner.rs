//! Deterministic PRNG and run configuration for the shim.

/// Run configuration, mirroring `proptest::test_runner::Config`.
///
/// As in the real crate, the default case count is 32 unless the
/// `PROPTEST_CASES` environment variable names another.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Accepted for API compatibility; the shim never shrinks.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(32);
        ProptestConfig {
            cases,
            max_shrink_iters: 0,
        }
    }
}

/// A small, fast xorshift64* generator seeded per test name, so every
/// run of a property sees the same value sequence.
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds the generator deterministically from the test's name.
    pub fn for_test(name: &str) -> TestRng {
        // FNV-1a over the name, mixed so a zero hash cannot occur.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng(h | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, n)`; returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::for_test("t");
        let mut b = TestRng::for_test("t");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_test("other");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_bounds() {
        let mut r = TestRng::for_test("below");
        for _ in 0..100 {
            assert!(r.below(7) < 7);
        }
        assert_eq!(r.below(0), 0);
    }
}
