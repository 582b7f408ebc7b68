//! Exact integer-valued histograms with exact on-demand summary statistics.

use crate::Json;

/// A histogram over small non-negative integer observations (window access
/// counts, per-cycle occupancies).
///
/// All state is exact integer accumulators — bin counts plus a running
/// total — and the summary statistics (mean, population stddev) are
/// computed on demand from exact integer sums. That makes every recording
/// order-independent: [`Histogram::record_n`] of `n` identical samples is
/// bit-identical to `n` sequential [`Histogram::record`] calls, which the
/// event-driven timing core relies on when it replays a fast-forwarded
/// span of identical cycles in one bulk update.
#[derive(Clone, Default, Debug)]
pub struct Histogram {
    bins: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: usize) {
        self.record_n(value, 1);
    }

    /// Records `count` identical observations in one exact bulk update —
    /// bit-identical to calling [`Histogram::record`] `count` times.
    pub fn record_n(&mut self, value: usize, count: u64) {
        if count == 0 {
            return;
        }
        if value >= self.bins.len() {
            self.bins.resize(value + 1, 0);
        }
        self.bins[value] += count;
        self.total += count;
    }

    /// Count in bin `value`.
    pub fn count(&self, value: usize) -> u64 {
        self.bins.get(value).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact sums `(Σ value·count, Σ value²·count)` over all bins.
    fn sums(&self) -> (u128, u128) {
        let mut sum = 0u128;
        let mut sum_sq = 0u128;
        for (v, &c) in self.bins.iter().enumerate() {
            if c > 0 {
                let v = v as u128;
                let c = u128::from(c);
                sum += v * c;
                sum_sq += v * v * c;
            }
        }
        (sum, sum_sq)
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let (sum, _) = self.sums();
        sum as f64 / self.total as f64
    }

    /// Population standard deviation of the observations (0 when empty).
    pub(crate) fn population_stddev(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let (sum, sum_sq) = self.sums();
        let n = self.total as f64;
        let mean = sum as f64 / n;
        let variance = (sum_sq as f64 / n - mean * mean).max(0.0);
        variance.sqrt()
    }

    /// The largest value observed, or `None` when empty.
    pub(crate) fn max_value(&self) -> Option<usize> {
        if self.bins.is_empty() {
            None
        } else {
            Some(self.bins.len() - 1)
        }
    }

    /// Iterates `(value, count)` pairs for non-empty bins.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v, c))
    }

    /// Folds another histogram into this one, bin by bin.
    pub fn merge(&mut self, other: &Histogram) {
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (bin, &count) in self.bins.iter_mut().zip(&other.bins) {
            *bin += count;
        }
        self.total += other.total;
    }

    /// Renders the histogram as a JSON object:
    /// `{"total", "mean", "stddev", "max", "bins": [[value, count], ...]}`
    /// with only non-empty bins listed.
    pub fn to_json(&self) -> Json {
        let bins: Vec<Json> = self
            .iter()
            .map(|(v, c)| Json::Arr(vec![v.into(), c.into()]))
            .collect();
        Json::obj([
            ("total", Json::from(self.total())),
            ("mean", Json::from(self.mean())),
            ("stddev", Json::from(self.population_stddev())),
            ("max", Json::from(self.max_value().unwrap_or(0))),
            ("bins", Json::Arr(bins)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_moments_agree() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 3, 3, 3] {
            h.record(v);
        }
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(2), 0);
        assert_eq!(h.count(3), 3);
        assert_eq!(h.total(), 6);
        assert_eq!(h.max_value(), Some(3));
        assert!((h.mean() - 11.0 / 6.0).abs() < 1e-12);
        let pairs: Vec<(usize, u64)> = h.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (1, 2), (3, 3)]);
    }

    #[test]
    fn record_n_is_bit_identical_to_sequential_records() {
        let mut bulk = Histogram::new();
        let mut sequential = Histogram::new();
        for (v, n) in [(3, 1000), (0, 7), (12, 1), (3, 0)] {
            bulk.record_n(v, n);
            for _ in 0..n {
                sequential.record(v);
            }
        }
        assert_eq!(bulk.total(), sequential.total());
        let lhs: Vec<(usize, u64)> = bulk.iter().collect();
        let rhs: Vec<(usize, u64)> = sequential.iter().collect();
        assert_eq!(lhs, rhs);
        // Exact accumulators: the rendered floats are bit-identical too.
        assert_eq!(bulk.to_json().render(), sequential.to_json().render());
        assert_eq!(bulk.mean().to_bits(), sequential.mean().to_bits());
        assert_eq!(
            bulk.population_stddev().to_bits(),
            sequential.population_stddev().to_bits()
        );
    }

    #[test]
    fn stddev_matches_direct_computation() {
        let mut h = Histogram::new();
        for v in [2, 4, 4, 4, 5, 5, 7, 9] {
            h.record(v);
        }
        assert!((h.mean() - 5.0).abs() < 1e-12);
        assert!((h.population_stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, v) in [5, 0, 2, 2, 9, 1, 0, 4].into_iter().enumerate() {
            whole.record(v);
            if i < 3 {
                left.record(v)
            } else {
                right.record(v)
            }
        }
        left.merge(&right);
        assert_eq!(left.total(), whole.total());
        assert_eq!(left.max_value(), whole.max_value());
        let lhs: Vec<(usize, u64)> = left.iter().collect();
        let rhs: Vec<(usize, u64)> = whole.iter().collect();
        assert_eq!(lhs, rhs);
        assert_eq!(left.mean().to_bits(), whole.mean().to_bits());
    }

    #[test]
    fn json_round_trips() {
        let mut h = Histogram::new();
        for v in [1, 1, 4] {
            h.record(v);
        }
        let rendered = h.to_json().render();
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(parsed.get("total").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed.get("max").and_then(Json::as_u64), Some(4));
        let bins = parsed.get("bins").and_then(Json::as_array).unwrap();
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0].as_array().unwrap()[1].as_u64(), Some(2));
    }

    #[test]
    fn empty_histogram_json() {
        let h = Histogram::new();
        let j = h.to_json();
        assert_eq!(j.get("total").and_then(Json::as_u64), Some(0));
        let bins = j.get("bins").and_then(Json::as_array).unwrap();
        assert!(bins.is_empty());
    }
}
