//! Percentile and time-series accumulators for the figure harnesses.

/// The shared offline percentile accumulator, re-exported from the
/// telemetry crate so figure harnesses and runtime histograms agree
/// on nearest-rank semantics (see `lepton_obs::percentile`).
pub use lepton_obs::Percentiles;

/// Fixed-bucket time series (e.g. hourly percentiles over a simulated
/// day/week/month).
#[derive(Clone, Debug)]
pub struct TimeSeries {
    /// Bucket width in simulated seconds.
    pub bucket_secs: f64,
    buckets: Vec<Percentiles>,
}

impl TimeSeries {
    /// A series covering `horizon_secs` with `bucket_secs` buckets.
    pub fn new(horizon_secs: f64, bucket_secs: f64) -> Self {
        let n = (horizon_secs / bucket_secs).ceil() as usize;
        TimeSeries {
            bucket_secs,
            buckets: vec![Percentiles::new(); n.max(1)],
        }
    }

    /// Record `value` at simulated time `t`.
    pub fn push(&mut self, t: f64, value: f64) {
        let idx = ((t / self.bucket_secs) as usize).min(self.buckets.len() - 1);
        self.buckets[idx].push(value);
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when the series has no buckets (never; kept for API shape).
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Percentile per bucket.
    pub fn percentile_series(&mut self, p: f64) -> Vec<f64> {
        self.buckets.iter_mut().map(|b| b.percentile(p)).collect()
    }

    /// Mean per bucket.
    pub fn mean_series(&self) -> Vec<f64> {
        self.buckets.iter().map(|b| b.mean()).collect()
    }

    /// Sample count per bucket (rates).
    pub fn count_series(&self) -> Vec<usize> {
        self.buckets.iter().map(|b| b.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite oracle: the offline accumulator and the runtime
    /// log-bucketed histogram must both reproduce a hand-computed
    /// nearest-rank table (rank = round(p/100 · (len-1)) over the
    /// sorted samples). Uses values below 16, where histogram buckets
    /// are exact, so agreement is required to be bit-perfect.
    #[test]
    fn offline_and_runtime_percentiles_agree_with_hand_oracle() {
        let samples = [9u64, 1, 4, 15, 2, 11, 6, 3, 12]; // 9 samples
        let mut offline = Percentiles::new();
        let runtime = lepton_obs::Histogram::new();
        for &s in &samples {
            offline.push(s as f64);
            runtime.record(s);
        }
        // sorted: [1,2,3,4,6,9,11,12,15]; rank = round(p/100 * 8).
        for (p, want) in [
            (0.0, 1u64), // rank 0
            (25.0, 3),   // round(2.0) = 2
            (50.0, 6),   // round(4.0) = 4
            (75.0, 11),  // round(6.0) = 6
            (99.0, 15),  // round(7.92) = 8
            (99.9, 15),  // round(7.99) = 8
            (100.0, 15), // rank 8
        ] {
            assert_eq!(offline.percentile(p), want as f64, "offline p={p}");
            assert_eq!(runtime.percentile(p), want, "runtime p={p}");
        }
    }

    #[test]
    fn percentiles_on_known_data() {
        let mut p = Percentiles::new();
        for v in 1..=100 {
            p.push(v as f64);
        }
        assert_eq!(p.percentile(0.0), 1.0);
        assert!((p.percentile(50.0) - 50.0).abs() <= 1.0);
        assert!((p.percentile(99.0) - 99.0).abs() <= 1.0);
        assert_eq!(p.percentile(100.0), 100.0);
        assert!((p.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn quad_is_monotone() {
        let mut p = Percentiles::new();
        let mut x = 5u64;
        for _ in 0..1000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            p.push((x % 1000) as f64);
        }
        let (a, b, c, d) = p.quad();
        assert!(a <= b && b <= c && c <= d);
    }

    #[test]
    fn empty_percentiles_are_zero() {
        let mut p = Percentiles::new();
        assert_eq!(p.percentile(50.0), 0.0);
        assert_eq!(p.mean(), 0.0);
        assert!(p.is_empty());
    }

    #[test]
    fn stddev_sane() {
        let mut p = Percentiles::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            p.push(v);
        }
        assert!((p.stddev() - 2.138).abs() < 0.01);
    }

    #[test]
    fn timeseries_buckets() {
        let mut ts = TimeSeries::new(3600.0, 600.0);
        assert_eq!(ts.len(), 6);
        ts.push(0.0, 1.0);
        ts.push(599.0, 3.0);
        ts.push(600.0, 10.0);
        ts.push(10_000.0, 7.0); // clamps to last bucket
        assert_eq!(ts.count_series(), vec![2, 1, 0, 0, 0, 1]);
        let means = ts.mean_series();
        assert!((means[0] - 2.0).abs() < 1e-9);
        assert!((means[1] - 10.0).abs() < 1e-9);
    }
}
