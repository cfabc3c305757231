//! Property tests for the probability-model substrate: Exp-Golomb
//! binarization, tree-coded small values, and bin-index safety.
//!
//! The bin-index properties are the regression armor for the paper's
//! §6.1 incident: a reversed multidimensional bin index compiled fine
//! and corrupted state only under one compiler. Our `BinGrid` is
//! bounds-checked; these tests drive arbitrary context values through
//! the index math to prove no input can land outside the grid.

use lepton_arith::{BoolDecoder, BoolEncoder, Branch, SliceSource};
use lepton_model::bins::{log159_bucket, magnitude_bucket, BinGrid};
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

    /// The §6.1 regression: arbitrary (even adversarial) index tuples
    /// into a BinGrid either resolve in-bounds or panic loudly — they
    /// can never silently alias another bin. We prove the in-range
    /// side: every index within declared dims resolves and `touched`
    /// counts it.
    #[test]
    fn bin_grid_indexing_is_total_within_dims(
        dims in proptest::collection::vec(1usize..8, 1..4),
        picks in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let mut grid = BinGrid::new(&dims);
        let expected: usize = dims.iter().product();
        prop_assert_eq!(grid.len(), expected);
        for p in picks {
            let idx: Vec<usize> = dims
                .iter()
                .enumerate()
                .map(|(i, &d)| ((p >> (i * 8)) as usize) % d)
                .collect();
            grid.at(&idx).record(true); // must not panic
        }
        prop_assert!(grid.touched() >= 1);
        prop_assert!(grid.touched() <= grid.len());
    }
}

/// Out-of-range indices must panic (bounds checks on by design after
/// §6.1 — "the statistic bin was abstracted with a class that enforced
/// bounds checks on accesses").
#[test]
fn bin_grid_out_of_range_panics() {
    let result = std::panic::catch_unwind(|| {
        let mut grid = BinGrid::new(&[3, 4]);
        grid.at(&[3, 0]); // first axis overflow
    });
    assert!(result.is_err(), "overflow must panic, not alias");

    let result = std::panic::catch_unwind(|| {
        let mut grid = BinGrid::new(&[3, 4]);
        grid.at(&[0, 0, 0]); // wrong arity
    });
    assert!(result.is_err(), "wrong arity must panic");
}

/// Reversing a two-axis index (the exact §6.1 bug) hits the bounds
/// check whenever the axes differ — the failure mode is a crash in
/// every build, not compiler-dependent corruption.
#[test]
fn reversed_index_cannot_alias() {
    let mut grid = BinGrid::new(&[2, 9]);
    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        grid.at(&[1, 8]);
    }));
    assert!(ok.is_ok());
    let mut grid = BinGrid::new(&[2, 9]);
    let reversed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        grid.at(&[8, 1]); // the reversed form
    }));
    assert!(reversed.is_err());
}
