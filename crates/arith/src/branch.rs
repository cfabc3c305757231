//! Adaptive statistic bins ("branches").
//!
//! A [`Branch`] is one entry of Lepton's probability model: it counts the
//! zeroes and ones observed in a particular context and converts those
//! counts into the probability fed to the range coder. The paper (§3.2)
//! describes 721,564 such bins, "each initialized to a 50-50 probability
//! of zeros vs. ones" and adapted independently as the file is coded.
//!
//! The coder queries the probability once per coded bit, so that query
//! must not divide: the 16-bit probability is *cached in the bin* and
//! refreshed on [`Branch::record`] via a 4-KiB fixed-point reciprocal
//! table (one multiply + shift, exact). Query = one in-struct load;
//! record = one L1-resident table load plus a store. The 256×256
//! [`PROB_LUT`] pair table remains as the compile-time oracle: both it
//! and the reciprocal path equal the rounded-division formula for
//! every reachable `(false_count, true_count)` pair — enforced
//! exhaustively by the tests below.

/// Rounded-division probability for a `(c0, c1)` count pair, in 16-bit
/// fixed point, clamped to `1..=65535` so neither symbol ever becomes
/// impossible. This is the reference formula; the hot path reads
/// [`PROB_LUT`] instead.
#[inline]
pub const fn prob_from_counts(c0: u8, c1: u8) -> u16 {
    let c0 = c0 as u32;
    let c1 = c1 as u32;
    // Counts are >= 1 in every reachable state, so the denominator is
    // >= 2. (The table contains arbitrary-but-harmless values for the
    // unreachable zero-count rows.)
    let denom = if c0 + c1 == 0 { 1 } else { c0 + c1 };
    let p = (c0 * 65536 + denom / 2) / denom;
    if p < 1 {
        1
    } else if p > 65535 {
        65535
    } else {
        p as u16
    }
}

/// `PROB_LUT[c0 * 256 + c1]` = `prob_from_counts(c0, c1)`: the cached
/// probability for every count pair, computed at compile time.
///
/// Kept as the oracle the tests pin against; the hot path now uses the
/// 4-KiB `RECIP_40` reciprocal table instead — the 128-KiB pair table
/// spills past L1 under real bin-access patterns, while the
/// per-denominator reciprocals stay resident.
pub static PROB_LUT: [u16; 65536] = {
    let mut t = [0u16; 65536];
    let mut c0 = 0usize;
    while c0 < 256 {
        let mut c1 = 0usize;
        while c1 < 256 {
            t[c0 * 256 + c1] = prob_from_counts(c0 as u8, c1 as u8);
            c1 += 1;
        }
        c0 += 1;
    }
    t
};

/// `RECIP_40[d]` = `⌊2^40 / d⌋ + 1`: fixed-point reciprocals turning the
/// probability division into a multiply + shift. Exact for every
/// reachable `(c0, c1)` pair — numerators are below 2^24, far inside
/// the Granlund–Montgomery exactness bound for a 40-bit reciprocal of
/// divisors ≤ 510 — and the [`PROB_LUT`] equivalence test re-proves it
/// exhaustively.
static RECIP_40: [u64; 511] = {
    let mut t = [0u64; 511];
    let mut d = 1usize;
    while d < 511 {
        t[d] = (1u64 << 40) / d as u64 + 1;
        d += 1;
    }
    t
};

/// Rounded-division probability via [`RECIP_40`] — bit-identical to
/// [`prob_from_counts`] for all reachable count pairs (`c0, c1 ≥ 1`).
#[inline]
fn prob_recip(c0: u8, c1: u8) -> u16 {
    let d = c0 as u32 + c1 as u32;
    let n = ((c0 as u32) << 16) + (d >> 1);
    let p = ((n as u64 * RECIP_40[d as usize]) >> 40) as u32;
    // Reachable states never clamp — p ∈ [255, 65280] for all
    // (c0, c1) ≥ 1, re-proven exhaustively by the equivalence test —
    // so the reference formula's clamp reduces to a debug assertion.
    debug_assert!((1..=65535).contains(&p));
    p as u16
}

/// The fresh-bin probability (`prob_from_counts(1, 1)` = exactly 1/2).
const FRESH_PROB: u16 = prob_from_counts(1, 1);

/// One adaptive statistic bin.
///
/// Counts saturate at 255 and are renormalized by halving (keeping each
/// count at least 1), which gives recent history more weight — the same
/// scheme the production Lepton `Branch` uses. The derived probability is
/// 16-bit fixed point: `P(bit == false) ≈ prob_false() / 65536`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Branch {
    /// `counts[0]` tracks `false` bits, `counts[1]` tracks `true` bits.
    counts: [u8; 2],
    /// Cached `prob_from_counts(counts[0], counts[1])`, maintained as an
    /// invariant by [`Branch::record`]. Keeping it inside the bin means
    /// the coder's query hits the same cache line as the counts.
    prob: u16,
}

impl Default for Branch {
    fn default() -> Self {
        Self::new()
    }
}

impl Branch {
    /// A fresh bin with a 50-50 prior (one observation of each symbol).
    #[inline]
    pub const fn new() -> Self {
        Branch {
            counts: [1, 1],
            prob: FRESH_PROB,
        }
    }

    /// Probability that the next bit is `false`, in 16-bit fixed point,
    /// clamped to `1..=65535`. A load, not a division — the value is
    /// maintained by [`Branch::record`].
    #[inline]
    pub fn prob_false(&self) -> u16 {
        self.prob
    }

    /// Record an observed bit and adapt the probability.
    #[inline]
    pub fn record(&mut self, bit: bool) {
        let idx = bit as usize;
        if self.counts[idx] == 255 {
            // Saturated: halve both counts (rounding up, so each stays >= 1)
            // to keep adapting while preserving the learned skew.
            self.counts[0] = (self.counts[0] >> 1) | 1;
            self.counts[1] = (self.counts[1] >> 1) | 1;
        }
        self.counts[idx] += 1;
        self.prob = prob_recip(self.counts[0], self.counts[1]);
    }

    /// Raw `(false_count, true_count)` pair, for tests and debugging.
    #[inline]
    pub fn counts(&self) -> (u8, u8) {
        (self.counts[0], self.counts[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_branch_is_even() {
        let mut b = Branch::new();
        let p = b.prob_false();
        assert!((32700..=32800).contains(&p), "p = {p}");
        assert_eq!(b.counts(), (1, 1));
        // A fresh bin is told apart from a used one by equality.
        b.record(true);
        assert_ne!(b, Branch::new());
    }

    #[test]
    fn skews_toward_observations() {
        let mut b = Branch::new();
        for _ in 0..100 {
            b.record(false);
        }
        assert!(b.prob_false() > 60000, "p = {}", b.prob_false());
        let mut b = Branch::new();
        for _ in 0..100 {
            b.record(true);
        }
        assert!(b.prob_false() < 5000, "p = {}", b.prob_false());
    }

    #[test]
    fn counts_saturate_by_halving() {
        let mut b = Branch::new();
        for _ in 0..10_000 {
            b.record(true);
        }
        let (c0, c1) = b.counts();
        assert!(c1 >= 128, "true count stays near saturation: {c1}");
        assert!(c0 >= 1, "false count never reaches zero: {c0}");
        // Still strongly skewed after many renormalizations.
        assert!(b.prob_false() < 2000);
    }

    #[test]
    fn probability_never_zero_or_one() {
        let mut b = Branch::new();
        for _ in 0..100_000 {
            b.record(true);
        }
        assert!(b.prob_false() >= 1);
        let mut b = Branch::new();
        for _ in 0..100_000 {
            b.record(false);
        }
        assert!(b.prob_false() >= 60000, "skewed toward false");
        assert!(b.prob_false() < u16::MAX, "never a certain prediction");
    }

    #[test]
    fn adaptation_recovers_after_regime_change() {
        let mut b = Branch::new();
        for _ in 0..1000 {
            b.record(false);
        }
        assert!(b.prob_false() > 60000);
        for _ in 0..1000 {
            b.record(true);
        }
        assert!(b.prob_false() < 32768, "renormalization lets it flip");
    }

    /// Reference formula, written independently of `prob_from_counts`
    /// (the exact expression the pre-LUT hot path computed per bit).
    fn reference_prob(c0: u32, c1: u32) -> u16 {
        let p = (c0 * 65536 + (c0 + c1) / 2) / (c0 + c1);
        p.clamp(1, 65535) as u16
    }

    /// The LUT matches the rounded-division formula for every reachable
    /// count pair (both counts >= 1).
    #[test]
    fn lut_matches_division_exhaustively() {
        for c0 in 1..=255u32 {
            for c1 in 1..=255u32 {
                assert_eq!(
                    PROB_LUT[(c0 * 256 + c1) as usize],
                    reference_prob(c0, c1),
                    "counts ({c0}, {c1})"
                );
            }
        }
    }

    /// The reciprocal-multiply hot path is exact — equal to the rounded
    /// division (and hence the LUT) for every reachable count pair.
    #[test]
    fn reciprocal_matches_division_exhaustively() {
        for c0 in 1..=255u8 {
            for c1 in 1..=255u8 {
                assert_eq!(
                    prob_recip(c0, c1),
                    reference_prob(c0 as u32, c1 as u32),
                    "counts ({c0}, {c1})"
                );
            }
        }
    }

    /// `record` keeps the cached probability equal to the formula from
    /// *every* reachable state — including through the saturation /
    /// renormalization path (counts at 255).
    #[test]
    fn record_preserves_cache_from_every_state() {
        for c0 in 1..=255u8 {
            for c1 in 1..=255u8 {
                for bit in [false, true] {
                    let mut b = Branch {
                        counts: [c0, c1],
                        prob: prob_from_counts(c0, c1),
                    };
                    b.record(bit);
                    let (n0, n1) = b.counts();
                    // The cache invariant holds after the update…
                    assert_eq!(
                        b.prob_false(),
                        reference_prob(n0 as u32, n1 as u32),
                        "after record({bit}) from ({c0}, {c1})"
                    );
                    // …and the renormalization arithmetic matches the
                    // documented scheme.
                    let (e0, e1) = if (bit && c1 == 255) || (!bit && c0 == 255) {
                        let h0 = (c0 >> 1) | 1;
                        let h1 = (c1 >> 1) | 1;
                        if bit {
                            (h0, h1 + 1)
                        } else {
                            (h0 + 1, h1)
                        }
                    } else if bit {
                        (c0, c1 + 1)
                    } else {
                        (c0 + 1, c1)
                    };
                    assert_eq!((n0, n1), (e0, e1), "counts after record");
                    assert!(n0 >= 1 && n1 >= 1, "counts never reach zero");
                }
            }
        }
    }
}
