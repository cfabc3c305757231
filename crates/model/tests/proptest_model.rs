//! Property tests for the probability-model substrate: Exp-Golomb
//! binarization, tree-coded small values, and bin-index safety.
//!
//! The bin-index properties are the regression armor for the paper's
//! §6.1 incident: a reversed multidimensional bin index compiled fine
//! and corrupted state only under one compiler. Every grid here is a
//! nested fixed-size array, so each axis is bounds-checked by the
//! language; the bucket properties prove every context value lands
//! inside its axis, and the index tests prove a reversed index panics
//! instead of aliasing another bin.

use lepton_arith::{BoolDecoder, BoolEncoder, Branch, SliceSource};
use lepton_model::bins::{grid, log159_bucket, magnitude_bucket};
use lepton_model::coef_coder::{code_tree, code_value};
use proptest::prelude::*;

const MAX_EXP: usize = 11; // JPEG coefficients fit i16 after dequant bounds

fn fresh_bins(n: usize) -> Vec<Branch> {
    vec![Branch::new(); n]
}

proptest! {
    /// Any sequence of coefficient-range values round-trips through
    /// Exp-Golomb coding with shared adaptive bins.
    #[test]
    fn exp_golomb_roundtrip(values in proptest::collection::vec(-1023i32..=1023, 0..512)) {
        let mut enc = BoolEncoder::new();
        let mut exp = fresh_bins(MAX_EXP);
        let mut sign = Branch::new();
        let mut resid = fresh_bins(MAX_EXP);
        for &v in &values {
            code_value(&mut enc, v, MAX_EXP, &mut exp, &mut sign, &mut resid);
        }
        let bytes = enc.finish();

        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let mut exp = fresh_bins(MAX_EXP);
        let mut sign = Branch::new();
        let mut resid = fresh_bins(MAX_EXP);
        for &v in &values {
            prop_assert_eq!(
                code_value(&mut dec, 0, MAX_EXP, &mut exp, &mut sign, &mut resid),
                v
            );
        }
    }

    /// Encoder and decoder must *adapt identically*: interleaving two
    /// value streams through per-stream bins still round-trips.
    #[test]
    fn exp_golomb_context_separation(
        pairs in proptest::collection::vec((any::<bool>(), -511i32..=511), 0..512)
    ) {
        let mut enc = BoolEncoder::new();
        let mut ctx: [(Vec<Branch>, Branch, Vec<Branch>); 2] = [
            (fresh_bins(MAX_EXP), Branch::new(), fresh_bins(MAX_EXP)),
            (fresh_bins(MAX_EXP), Branch::new(), fresh_bins(MAX_EXP)),
        ];
        for &(which, v) in &pairs {
            let c = &mut ctx[which as usize];
            code_value(&mut enc, v, MAX_EXP, &mut c.0, &mut c.1, &mut c.2);
        }
        let bytes = enc.finish();

        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let mut ctx: [(Vec<Branch>, Branch, Vec<Branch>); 2] = [
            (fresh_bins(MAX_EXP), Branch::new(), fresh_bins(MAX_EXP)),
            (fresh_bins(MAX_EXP), Branch::new(), fresh_bins(MAX_EXP)),
        ];
        for &(which, v) in &pairs {
            let c = &mut ctx[which as usize];
            prop_assert_eq!(code_value(&mut dec, 0, MAX_EXP, &mut c.0, &mut c.1, &mut c.2), v);
        }
    }

    /// Tree-coded small values (the 6-bit non-zero counts of App.
    /// A.2.1) round-trip for every width up to 8 bits.
    #[test]
    fn tree_code_roundtrip(
        vals in proptest::collection::vec(any::<u32>(), 0..256),
        bits in 1usize..=8,
    ) {
        let vals: Vec<u32> = vals.iter().map(|v| v & ((1 << bits) - 1)).collect();
        let mut enc = BoolEncoder::new();
        let mut tree = fresh_bins(1 << bits);
        for &v in &vals {
            code_tree(&mut enc, v, bits, &mut tree);
        }
        let bytes = enc.finish();

        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let mut tree = fresh_bins(1 << bits);
        for &v in &vals {
            prop_assert_eq!(code_tree(&mut dec, 0, bits, &mut tree), v);
        }
    }

    /// `log1.59` bucketing (App. A.2.1's non-zero-count context) maps
    /// every u32 into its 10-bucket range and is monotone.
    #[test]
    fn log159_bucket_in_range_and_monotone(a in any::<u32>(), b in any::<u32>()) {
        let (ba, bb) = (log159_bucket(a), log159_bucket(b));
        prop_assert!(ba <= 9, "bucket {ba} of {a}");
        prop_assert!(bb <= 9);
        if a <= b {
            prop_assert!(ba <= bb, "monotonicity: {a}->{ba}, {b}->{bb}");
        }
    }

    /// Magnitude bucketing never exceeds its (inclusive) cap for any
    /// value/cap, and is exact below the cap.
    #[test]
    fn magnitude_bucket_respects_cap(x in any::<u32>(), max in 1usize..64) {
        let b = magnitude_bucket(x, max);
        prop_assert!(b <= max, "bucket {b} over cap {max}");
        if b < max {
            prop_assert_eq!(b as u32, 32 - x.leading_zeros(), "bit length below cap");
        }
    }
}

/// The 7x7 sign grid's shape: [coefficient 49][sign context 3].
type Sign77 = [[Branch; 3]; 49];

/// Out-of-range indices must panic (bounds checks on by design after
/// §6.1 — "the statistic bin was abstracted with a class that enforced
/// bounds checks on accesses"). An index of the wrong rank is a type
/// error, so only the range needs a run-time check.
#[test]
fn bin_grid_out_of_range_panics() {
    let result = std::panic::catch_unwind(|| {
        let mut sign77: Box<Sign77> = grid();
        sign77[std::hint::black_box(49)][0].record(true); // first axis overflow
    });
    assert!(result.is_err(), "overflow must panic, not alias");

    let result = std::panic::catch_unwind(|| {
        let mut sign77: Box<Sign77> = grid();
        sign77[0][std::hint::black_box(3)].record(true); // last axis overflow
    });
    assert!(result.is_err(), "overflow must panic, not alias");
}

/// Reversing a two-axis index (the exact §6.1 bug) hits the bounds
/// check whenever the axes differ — the failure mode is a crash in
/// every build, not compiler-dependent corruption. As a flat offset,
/// `[2][40]` is bin 46 of 147, inside the allocation.
#[test]
fn reversed_index_cannot_alias() {
    let (ki, sc) = std::hint::black_box((40, 2));
    let mut sign77: Box<Sign77> = grid();
    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sign77[ki][sc].record(true);
    }));
    assert!(ok.is_ok());
    let mut sign77: Box<Sign77> = grid();
    let reversed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sign77[sc][ki].record(true); // the reversed form
    }));
    assert!(reversed.is_err());
}
