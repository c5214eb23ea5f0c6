//! Deterministic test data generator shared by the integration tests
//! (and, through a `#[path]` include, the engines' unit tests).

// Each test binary uses a different subset of the helpers.
#![allow(dead_code)]

/// 64-bit linear congruential generator (Knuth's MMIX constants); the
/// outputs are the top 31 bits of the state.
pub struct Lcg(pub u64);

impl Lcg {
    /// Advances the state and returns it whole.
    pub fn next_state(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// The top 31 bits of the next state.
    pub fn next_u31(&mut self) -> u64 {
        self.next_state() >> 33
    }

    /// A uniform draw in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.next_u31() as f64 / (1u64 << 31) as f64
    }

    /// A draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u31() % n
    }

    /// A uniform draw in `[lo, hi)`.
    pub fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }
}
