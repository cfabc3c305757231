//! The benchmark's own arithmetic: nearest-rank percentiles, the
//! ten-samples-beyond rule, medians of rounds and their spread.
//!
//! Owned here, not borrowed from `lepton_obs` or `lepton_bench`, so an
//! edit to the program's telemetry code cannot move a reported number.

/// Percentiles a tail metric may be reported at, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
/// Empty input reads 0.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy ascending (NaN-free input assumed; NaNs sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn reportable(n: usize, p: f64) -> bool {
    let beyond = (n as f64 * (100.0 - p) / 100.0).floor() as usize;
    beyond >= MIN_BEYOND
}

/// The highest percentile of [`TAIL_LADDER`] that `n` samples support,
/// or `None` when even the median has fewer than ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| reportable(n, p))
}

/// Round-to-round spread: interquartile distance over the median, the
/// same statistic the acceptance check applies across runs. Fewer than
/// two rounds, or a zero median, read 0.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let s = sorted(values);
    let med = percentile_sorted(&s, 50.0);
    if med == 0.0 {
        return 0.0;
    }
    (percentile_sorted(&s, 75.0) - percentile_sorted(&s, 25.0)) / med.abs()
}

/// A reported value with the evidence behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Stat {
    /// The value (median round, or pooled percentile).
    pub value: f64,
    /// Samples (ops) or rounds behind the value.
    pub n: usize,
    /// Round-to-round spread (IQR / median) of the per-round values.
    pub spread: f64,
    /// The per-round values themselves, in round order.
    pub rounds: Vec<f64>,
}

impl Stat {
    /// Median of per-round values with their spread.
    pub fn of_rounds(per_round: &[f64]) -> Stat {
        Stat {
            value: median(per_round),
            n: per_round.len(),
            spread: spread(per_round),
            rounds: per_round.to_vec(),
        }
    }

    /// A value with no round structure (exact counts, ratios, RSS).
    pub fn exact(value: f64) -> Stat {
        Stat {
            value,
            n: 1,
            spread: 0.0,
            rounds: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1000 samples, p95 200, p90 100, p75 40, p50 20.
        assert!(!reportable(999, 99.0));
        assert!(reportable(1000, 99.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn median_of_rounds_and_spread() {
        let s = Stat::of_rounds(&[10.0, 12.0, 11.0, 9.0, 50.0]);
        assert_eq!(s.value, 11.0);
        assert_eq!(s.n, 5);
        // sorted 9 10 11 12 50: p25 = 10, p75 = 12 → 2 / 11.
        assert!((s.spread - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
