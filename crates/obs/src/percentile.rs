//! The single nearest-rank percentile implementation.
//!
//! Both the offline figure harnesses ([`Percentiles`], re-exported by
//! `lepton_cluster::metrics`) and the runtime histograms
//! ([`crate::Histogram`]) defer to [`nearest_rank_index`], so a p99
//! printed by `fig10_replay` and a p99 served by `Op::StatsV2` mean
//! the same thing.

/// Index of the nearest-rank percentile `p` (0..=100) in a sorted
/// sequence of `len` samples. Returns 0 for the empty sequence.
///
/// The formula is `round(p/100 · (len-1))`, clamped — the historical
/// semantics of `cluster::metrics::Percentiles`, now pinned here.
pub fn nearest_rank_index(len: usize, p: f64) -> usize {
    if len == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * (len as f64 - 1.0)).round() as usize;
    rank.min(len - 1)
}

/// Nearest-rank percentile of an already-sorted slice; 0.0 when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank_index(sorted.len(), p)]
}

/// Exact percentile computation over collected samples (the paper
/// reports p50/p75/p95/p99 everywhere).
///
/// This is the offline accumulator used by the figure harnesses; the
/// runtime side approximates the same statistic from
/// [`crate::Histogram`] buckets without keeping samples.
#[derive(Clone, Debug, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// New, empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
    }

    /// Percentile `p` in 0..=100 (nearest-rank).
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.ensure_sorted();
        nearest_rank(&self.samples, p)
    }

    /// The (p50, p75, p95, p99) quadruple the paper's figures use.
    pub fn quad(&mut self) -> (f64, f64, f64, f64) {
        (
            self.percentile(50.0),
            self.percentile(75.0),
            self.percentile(95.0),
            self.percentile(99.0),
        )
    }

    /// Mean of samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.samples.iter().map(|v| (v - m) * (v - m)).sum::<f64>()
            / (self.samples.len() - 1) as f64;
        var.sqrt()
    }

    /// Maximum sample.
    pub fn max(&mut self) -> f64 {
        self.percentile(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-computed oracle pinning nearest-rank semantics. The same
    /// values drive the histogram agreement test in `hist` and the
    /// `Percentiles` delegation below: all three paths must agree.
    #[test]
    fn nearest_rank_matches_hand_oracle() {
        // 5 samples, ranks 0..=4. rank = round(p/100 * 4).
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        for (p, want) in [
            (0.0, 10.0),   // round(0)   = 0
            (10.0, 10.0),  // round(0.4) = 0
            (12.5, 20.0),  // round(0.5) = 1 (ties round away from zero)
            (50.0, 30.0),  // round(2)   = 2
            (74.9, 40.0),  // round(2.996) = 3
            (87.5, 50.0),  // round(3.5) = 4
            (99.0, 50.0),  // round(3.96) = 4
            (100.0, 50.0), // round(4)   = 4
        ] {
            assert_eq!(nearest_rank(&s, p), want, "p={p}");
        }
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentiles_delegate_to_nearest_rank() {
        let mut acc = Percentiles::new();
        let raw = [50.0, 10.0, 40.0, 20.0, 30.0]; // unsorted on purpose
        for v in raw {
            acc.push(v);
        }
        let mut sorted = raw;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.0, 12.5, 50.0, 87.5, 99.0, 100.0] {
            assert_eq!(acc.percentile(p), nearest_rank(&sorted, p));
        }
    }

    #[test]
    fn empty_percentiles_are_zero() {
        let mut p = Percentiles::new();
        assert_eq!(p.percentile(50.0), 0.0);
        assert_eq!(p.mean(), 0.0);
        assert!(p.is_empty());
    }
}
