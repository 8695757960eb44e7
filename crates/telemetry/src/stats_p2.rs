//! The P² (piecewise-parabolic) streaming quantile estimator of Jain &
//! Chlamtac (1985): tracks a single quantile in O(1) memory without storing
//! observations. [`crate::StreamingQuantiles`] is three of them.

/// Streaming estimator of one quantile.
///
/// ```
/// use cbp_telemetry::P2Quantile;
/// let mut q = P2Quantile::new(0.5);
/// for i in 1..=1001 {
///     q.observe(i as f64);
/// }
/// let median = q.estimate().unwrap();
/// assert!((median - 501.0).abs() < 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (the running order statistics).
    heights: [f64; 5],
    /// Marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    increments: [f64; 5],
    count: usize,
}

impl P2Quantile {
    /// Creates an estimator for quantile `p` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1)");
        P2Quantile {
            p,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            increments: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The tracked quantile.
    pub fn quantile(&self) -> f64 {
        self.p
    }

    /// Number of observations so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feeds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn observe(&mut self, x: f64) {
        assert!(!x.is_nan(), "observations must not be NaN");
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            }
            return;
        }
        self.count += 1;

        // Find the cell k such that heights[k] <= x < heights[k+1], adjusting
        // the extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.heights[i] <= x && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        // Shift positions of markers above the cell.
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // Adjust the three middle markers if they drifted.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                let new_height =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.heights[i] = new_height;
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current quantile estimate (`None` until any observation; exact
    /// for fewer than five: the order statistic at rank `ceil(p·n)`).
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n if n < 5 => {
                let mut sorted = self.heights;
                let slice = &mut sorted[..n];
                slice.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
                let idx = ((self.p * n as f64).ceil() as usize).clamp(1, n) - 1;
                Some(slice[idx])
            }
            _ => Some(self.heights[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{exact_quantile, Rng};

    #[test]
    fn exact_for_small_counts() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.estimate(), None);
        q.observe(10.0);
        assert_eq!(q.estimate(), Some(10.0));
        q.observe(20.0);
        q.observe(30.0);
        // Median of {10, 20, 30}.
        assert_eq!(q.estimate(), Some(20.0));
    }

    /// The n<5 fallback is the exact order statistic at rank
    /// `ceil(p·n)` (1-clamped) for *every* tracked quantile, unsorted
    /// input, and every sample count on the exact path.
    #[test]
    fn small_sample_fallback_is_exact_order_statistic() {
        // Deliberately unsorted; duplicates included.
        let xs = [40.0, 10.0, 40.0, 20.0];
        for (p, expected_by_n) in [
            // p95: ceil(0.95 n) = n -> always the running max.
            (0.95, [40.0, 40.0, 40.0, 40.0]),
            // p50: ranks 1, 1, 2, 2 of the sorted prefixes
            // [40], [10,40], [10,40,40], [10,20,40,40].
            (0.50, [40.0, 10.0, 40.0, 20.0]),
            // p05: ceil is 1 for n<=4 -> always the running min.
            (0.05, [40.0, 10.0, 10.0, 10.0]),
        ] {
            let mut q = P2Quantile::new(p);
            assert_eq!(q.estimate(), None, "empty estimator has no estimate");
            for (i, x) in xs.iter().enumerate() {
                q.observe(*x);
                assert_eq!(
                    q.estimate(),
                    Some(expected_by_n[i]),
                    "p{p} after {} observations",
                    i + 1
                );
            }
        }
    }

    /// `estimate()` must not disturb the estimator: the heights buffer
    /// is insertion-ordered below five observations, and the mid-stream
    /// sort in `estimate` works on a copy. An interleaved
    /// observe/estimate sequence must end at the same estimate as a
    /// pure observe sequence.
    #[test]
    fn small_sample_estimate_is_side_effect_free() {
        let xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0];
        let mut interleaved = P2Quantile::new(0.5);
        let mut pure = P2Quantile::new(0.5);
        for x in xs {
            interleaved.observe(x);
            let _ = interleaved.estimate();
            pure.observe(x);
        }
        assert_eq!(interleaved.estimate(), pure.estimate());
        assert_eq!(interleaved.count(), xs.len());
    }

    /// Crossing the five-observation threshold hands over from exact
    /// order statistics to the marker machinery without a glitch: at
    /// exactly n=5 the middle marker *is* the exact median.
    #[test]
    fn transition_to_marker_estimate_at_five() {
        let mut q = P2Quantile::new(0.5);
        for x in [50.0, 10.0, 40.0, 20.0, 30.0] {
            q.observe(x);
        }
        assert_eq!(q.count(), 5);
        assert_eq!(q.estimate(), Some(30.0), "exact median of 10..50 at n=5");
    }

    #[test]
    fn median_of_uniform_stream() {
        let mut q = P2Quantile::new(0.5);
        let mut rng = Rng(1);
        for _ in 0..50_000 {
            q.observe(rng.next_f64() * 100.0);
        }
        let m = q.estimate().unwrap();
        assert!((m - 50.0).abs() < 2.0, "median estimate {m}");
        assert_eq!(q.count(), 50_000);
    }

    #[test]
    fn p90_of_exponential_stream() {
        let mut q = P2Quantile::new(0.9);
        let mut rng = Rng(2);
        for _ in 0..100_000 {
            q.observe(rng.next_exp(10.0));
        }
        // True p90 of Exp(mean 10) = -10 ln(0.1) ≈ 23.03.
        let p90 = q.estimate().unwrap();
        assert!((p90 - 23.03).abs() < 1.5, "p90 estimate {p90}");
    }

    #[test]
    fn agrees_with_exact_samples() {
        let mut rng = Rng(3);
        let mut p2 = P2Quantile::new(0.75);
        let mut exact = Vec::new();
        for _ in 0..30_000 {
            let x = rng.next_exp(100.0);
            p2.observe(x);
            exact.push(x);
        }
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let approx = p2.estimate().unwrap();
        let truth = exact_quantile(&exact, 0.75);
        let rel = (approx - truth).abs() / truth;
        assert!(rel < 0.05, "p75 approx {approx} vs exact {truth}");
    }

    #[test]
    fn monotone_inputs() {
        let mut q = P2Quantile::new(0.25);
        for i in 0..10_000 {
            q.observe(i as f64);
        }
        let est = q.estimate().unwrap();
        assert!((est - 2_500.0).abs() < 150.0, "p25 of 0..10000 was {est}");
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn rejects_bad_quantile() {
        P2Quantile::new(1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        P2Quantile::new(0.5).observe(f64::NAN);
    }
}
