//! Fixed-size log-bucketed atomic histograms.
//!
//! # Bucket layout
//!
//! Values are `u64` (by convention microseconds for latencies, raw
//! units otherwise). The bucket index is a truncated floating-point
//! representation of the value: 3 mantissa bits per power of two, so
//! every octave splits into 8 linear sub-buckets and the relative
//! quantisation error is bounded by 1/8 = 12.5%. Values below 8 get
//! their own exact buckets. The full `u64` range fits in
//! [`BUCKET_COUNT`] = 496 buckets — 4 KiB of atomics per histogram,
//! no allocation or resizing after construction.
//!
//! Percentiles are computed by walking bucket counts with the shared
//! nearest-rank rule ([`crate::percentile::nearest_rank_index`]), so
//! runtime p50/p99/p999 agree with the offline sample-sorting
//! harnesses up to bucket quantisation — and exactly, for exactly
//! representable values.

use crate::percentile::nearest_rank_index;
use std::sync::atomic::{AtomicU64, Ordering};

/// Mantissa bits per octave: 8 linear sub-buckets per power of two.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;

/// Total number of buckets covering the whole `u64` range.
pub const BUCKET_COUNT: usize = SUB + (64 - SUB_BITS as usize) * SUB; // 496

/// Bucket index for a value. Exact below `SUB` (16); log-linear above.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    SUB + octave * SUB + sub
}

/// Representative value reported for a bucket (its lower bound plus
/// half the bucket width; exact for the exact buckets).
pub fn bucket_value(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let octave = ((idx - SUB) / SUB) as u32;
    let sub = ((idx - SUB) % SUB) as u64;
    let msb = octave + SUB_BITS;
    let width = 1u64 << (msb - SUB_BITS);
    let low = (1u64 << msb) + sub * width;
    low + width / 2
}

/// A lock-free histogram: one atomic counter per log bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New, empty.
    pub fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKET_COUNT],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation. Three relaxed RMWs; no locks, no
    /// allocation. Gated by the global kill switch.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] in microseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Nearest-rank percentile (`p` in 0..=100) from bucket counts.
    pub fn percentile(&self, p: f64) -> u64 {
        self.snapshot().percentile(p)
    }

    /// A point-in-time copy of the non-empty buckets. Not atomic
    /// with respect to concurrent `record`s; each bucket read is.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u16, n));
            }
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// A plain (non-atomic) copy of a histogram: what travels on the
/// `Stats` v2 wire and lands in bench JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Sparse `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u16, u64)>,
}

impl HistogramSnapshot {
    /// Mean of observed values; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile from bucket counts: finds the bucket
    /// holding the sample that sorting would put at the shared
    /// nearest-rank index, and reports its representative value.
    pub fn percentile(&self, p: f64) -> u64 {
        let total: u64 = self.buckets.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return 0;
        }
        let rank = nearest_rank_index(total as usize, p) as u64;
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen > rank {
                return bucket_value(idx as usize);
            }
        }
        bucket_value(self.buckets.last().map(|&(i, _)| i as usize).unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_total() {
        let mut last = 0usize;
        for v in 0..4096u64 {
            let i = bucket_index(v);
            assert!(i >= last, "v={v}");
            assert!(i < BUCKET_COUNT);
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn bucket_value_inverts_exact_range() {
        // Values 0..16 are exactly representable (width-1 buckets).
        for v in 0..16u64 {
            assert_eq!(bucket_value(bucket_index(v)), v);
        }
    }

    #[test]
    fn relative_error_bounded() {
        for v in [100u64, 999, 12_345, 1 << 20, (1 << 40) + 12345] {
            let rep = bucket_value(bucket_index(v));
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err <= 0.125, "v={v} rep={rep} err={err}");
        }
    }

    /// The histogram and the offline sorted-sample path agree exactly
    /// on exactly-representable values — the "one oracle" half that
    /// lives on the runtime side (see `percentile::tests` for the
    /// hand-computed oracle itself).
    #[test]
    fn histogram_matches_sorted_sample_nearest_rank() {
        let samples: Vec<u64> = vec![1, 2, 2, 3, 5, 8, 8, 9, 12, 15];
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(
                h.percentile(p),
                crate::percentile::nearest_rank(&sorted, p) as u64,
                "p={p}"
            );
        }
    }

    #[test]
    fn snapshot_roundtrips_counts() {
        let h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v * 7);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, (0..1000u64).map(|v| v * 7).sum::<u64>());
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 1000);
    }

    // The global kill-switch behavior is pinned in
    // `tests/kill_switch.rs` (own binary: the flag is process-wide
    // and would race with the recording tests here).
}
