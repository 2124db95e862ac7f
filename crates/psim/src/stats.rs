//! Staleness accounting.

/// Histogram of update staleness (server timestamp − worker's model
/// timestamp at gradient arrival), the quantity asynchrony degrades.
#[derive(Debug, Clone, Default)]
pub struct StalenessStats {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl StalenessStats {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        StalenessStats::default()
    }

    /// Records one observed staleness value.
    pub fn record(&mut self, staleness: u64) {
        let idx = staleness as usize;
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += staleness;
        self.max = self.max.max(staleness);
    }

    /// Mean staleness (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Maximum observed staleness.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Raw histogram buckets (index = staleness value).
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_histogram() {
        let mut st = StalenessStats::new();
        for v in [0u64, 0, 1, 3, 3, 3] {
            st.record(v);
        }
        assert_eq!(st.count(), 6);
        assert_eq!(st.max(), 3);
        assert!((st.mean() - 10.0 / 6.0).abs() < 1e-9);
        assert_eq!(st.buckets(), &[2, 1, 0, 3]);
    }

    #[test]
    fn staleness_empty() {
        let st = StalenessStats::new();
        assert_eq!(st.mean(), 0.0);
        assert_eq!(st.max(), 0);
    }
}
