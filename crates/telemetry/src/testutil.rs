//! Test helpers: a deterministic RNG and exact quantiles, so the
//! estimator tests need no external crate.

/// Deterministic xorshift64* generator.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        let v = x.wrapping_mul(0x2545F4914F6CDD1D);
        (v >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean, via inverse transform.
    pub(crate) fn next_exp(&mut self, mean: f64) -> f64 {
        let u = self.next_f64().max(1e-16);
        -mean * u.ln()
    }
}

/// The exact quantile `p` of sorted samples, interpolating linearly
/// between ranks.
pub(crate) fn exact_quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let i = pos.floor() as usize;
    let frac = pos - i as f64;
    let hi = sorted[(i + 1).min(sorted.len() - 1)];
    sorted[i] * (1.0 - frac) + hi * frac
}
