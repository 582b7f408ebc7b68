//! Streaming moments.

/// Streaming mean and variance via Welford's algorithm.
///
/// Numerically stable for the hundreds of millions of window samples the
/// Table 2 profiler feeds it.
#[derive(Clone, Copy, Default, Debug)]
pub struct Moments {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Moments {
    /// Creates an empty accumulator.
    pub fn new() -> Moments {
        Moments {
            count: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when empty).
    pub(crate) fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation — the paper's Table 2 burstiness metric.
    pub fn population_stddev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// The paper's "strictly bursty" predicate: mean < standard deviation.
    pub fn is_strictly_bursty(&self) -> bool {
        self.mean() < self.population_stddev()
    }
}

impl Extend<f64> for Moments {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Moments {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Moments {
        let mut m = Moments::new();
        m.extend(iter);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_mean_and_stddev() {
        let m: Moments = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.population_stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_moments_are_zero() {
        let m = Moments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.population_stddev(), 0.0);
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn strictly_bursty_predicate() {
        // Clustered: many zeros, a few large values → stddev > mean.
        let bursty: Moments = std::iter::repeat_n(0.0, 95)
            .chain(std::iter::repeat_n(20.0, 5))
            .collect();
        assert!(bursty.is_strictly_bursty());
        // Constant stream → stddev 0 < mean.
        let steady: Moments = std::iter::repeat_n(5.0, 100).collect();
        assert!(!steady.is_strictly_bursty());
    }
}
