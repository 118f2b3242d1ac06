//! Order statistics over one run's samples.

/// Percentiles tried, highest first, when picking a timing's tail.
/// The ladder stops at p99: p99.9 of classify latency under a remine
/// swung by ±20% between runs on a 2-core host.
const TAIL_PERCENTILES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile must leave beyond it to be reported.
const MIN_BEYOND: usize = 10;

/// A sorted sample set.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Dist { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The median (mean of the two middle samples for an even count);
    /// 0 for an empty set.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.sorted[n / 2],
            _ => (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0,
        }
    }

    /// Nearest-rank percentile `p` in `0..=100`; 0 for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        match self.rank(p) {
            Some(i) => self.sorted[i],
            None => 0.0,
        }
    }

    fn rank(&self, p: f64) -> Option<usize> {
        let n = self.sorted.len();
        (n > 0).then(|| (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1)
    }

    /// The highest percentile with at least [`MIN_BEYOND`] samples
    /// beyond it, as `(percentile, value)`. Below p75 that is the sample
    /// with exactly [`MIN_BEYOND`] beyond it; with no more samples than
    /// that, the median.
    pub fn tail(&self) -> (f64, f64) {
        for p in TAIL_PERCENTILES {
            if let Some(i) = self.rank(p) {
                if self.sorted.len() - 1 - i >= MIN_BEYOND {
                    return (p, self.sorted[i]);
                }
            }
        }
        let n = self.sorted.len();
        if n > MIN_BEYOND {
            let i = n - 1 - MIN_BEYOND;
            return (100.0 * (i + 1) as f64 / n as f64, self.sorted[i]);
        }
        (50.0, self.median())
    }

    /// The arithmetic mean; 0 for an empty set.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        let d = Dist::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(d.median(), 50.5);
        assert_eq!(d.percentile(99.0), 99.0);
        assert_eq!(d.percentile(0.0), 1.0);
        assert_eq!(d.percentile(100.0), 100.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let d = Dist::new((1..=100).map(f64::from).collect());
        assert_eq!(d.tail(), (90.0, 90.0));
        let d = Dist::new((1..=2000).map(f64::from).collect());
        assert_eq!(d.tail(), (99.0, 1980.0));
        let d = Dist::new((1..=30).map(f64::from).collect());
        assert_eq!(d.tail(), (200.0 / 3.0, 20.0));
        let d = Dist::new((1..=10).map(f64::from).collect());
        assert_eq!(d.tail(), (50.0, 5.5));
        assert_eq!(d.mean(), 5.5);
    }
}
