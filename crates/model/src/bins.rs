//! Statistic bins: the grids the model keeps them in, and the context
//! buckets that index them.
//!
//! After the paper's §6.1 incident — a reversed multidimensional index
//! that compiled fine and silently produced nondeterministic output
//! under one compiler — the authors checked every bin index per axis, at
//! a measured ~10% cost they chose to keep. Here a grid's type is its
//! shape, a nested fixed-size array such as `[[[[Branch; 11]; 10]; 12];
//! 49]`: the language checks each index against its own axis, so a
//! reversed index inside the allocation still panics, and an index of
//! the wrong rank does not compile.

use lepton_arith::Branch;
use std::mem::size_of;

/// Widest Exp-Golomb exponent of an AC coefficient (±1023, headroom to
/// ±2047): the last axis of the AC exponent and residual grids.
pub(crate) const AC_MAX_EXP: usize = 11;
/// Widest exponent of the DC delta (±8191).
pub(crate) const DC_MAX_EXP: usize = 13;

/// A bin, or a nested array of bins, in the state it starts from.
pub trait Fresh: Copy {
    /// The state before any bit is coded. Built at run time, not a
    /// `const`: a constant row would be an image in the binary.
    fn fresh() -> Self;

    /// Back to the fresh state, in place.
    fn refill(&mut self) {
        *self = Self::fresh();
    }
}

impl Fresh for Branch {
    /// The 50-50 prior.
    fn fresh() -> Self {
        Branch::new()
    }
}

impl<T: Fresh, const N: usize> Fresh for [T; N] {
    fn fresh() -> Self {
        [T::fresh(); N]
    }

    /// Bin by bin: no fresh copy of the grid is built on the stack.
    fn refill(&mut self) {
        self.iter_mut().for_each(T::refill);
    }
}

/// A fresh grid of `N` rows on the heap, cloned from one row built at
/// run time: no image of the grid lands in the binary, and only one row
/// passes through the stack.
pub fn grid<T: Fresh, const N: usize>() -> Box<[T; N]> {
    let rows = vec![T::fresh(); N].into_boxed_slice();
    rows.try_into().unwrap_or_else(|_| unreachable!("{N} rows"))
}

/// One edge strip's exponent bins: [edge coef][pred bucket][remaining][pos].
type StripExp = [[[[Branch; AC_MAX_EXP]; 8]; 12]; 7];

/// The statistic bins of one [`ComponentModel`](crate::ComponentModel),
/// one boxed grid per context.
#[derive(PartialEq)]
pub(crate) struct Bins {
    /// 7x7 nonzero count: [neighbor-count bucket][6-bit tree].
    pub nz77: Box<[[Branch; 64]; 10]>,
    /// Edge-strip nonzero count: [row/col][nz77 bucket][3-bit tree].
    pub nz_edge: Box<[[[Branch; 8]; 10]; 2]>,
    /// 7x7 exponent unary bits: [coef][pred bucket][remaining bucket][pos].
    pub exp77: Box<[[[[Branch; AC_MAX_EXP]; 10]; 12]; 49]>,
    /// 7x7 sign: [coef][neighbor sign ctx].
    pub sign77: Box<[[Branch; 3]; 49]>,
    /// 7x7 residual bits: [coef][pos].
    pub resid77: Box<[[Branch; AC_MAX_EXP]; 49]>,
    /// Edge exponent: [row/col][edge coef][pred bucket][remaining][pos].
    /// One box per strip, so the row [`grid`] builds on the stack is one
    /// edge coefficient's (4 KB), not a whole strip's (30 KB).
    pub exp_edge: [Box<StripExp>; 2],
    /// Edge sign: [row/col][edge coef][pred sign ctx].
    pub sign_edge: Box<[[[Branch; 3]; 7]; 2]>,
    /// Edge residual: [row/col][edge coef][pos].
    pub resid_edge: Box<[[[Branch; AC_MAX_EXP]; 7]; 2]>,
    /// DC delta exponent: [confidence bucket][pos].
    pub exp_dc: Box<[[Branch; DC_MAX_EXP]; 13]>,
    /// DC sign: [pred sign ctx].
    pub sign_dc: Box<[Branch; 3]>,
    /// DC residual bits: [pos].
    pub resid_dc: Box<[Branch; DC_MAX_EXP]>,
}

impl Bins {
    /// Heap bytes of all the grids: the size of each field's array type.
    pub const BYTES: usize = size_of::<[[Branch; 64]; 10]>()
        + size_of::<[[[Branch; 8]; 10]; 2]>()
        + size_of::<[[[[Branch; AC_MAX_EXP]; 10]; 12]; 49]>()
        + size_of::<[[Branch; 3]; 49]>()
        + size_of::<[[Branch; AC_MAX_EXP]; 49]>()
        + 2 * size_of::<StripExp>()
        + size_of::<[[[Branch; 3]; 7]; 2]>()
        + size_of::<[[[Branch; AC_MAX_EXP]; 7]; 2]>()
        + size_of::<[[Branch; DC_MAX_EXP]; 13]>()
        + size_of::<[Branch; 3]>()
        + size_of::<[Branch; DC_MAX_EXP]>();

    /// Every bin back at its fresh state, in place: no grid is
    /// reallocated. The destructuring names every field, so a grid added
    /// to the struct and left out here does not compile.
    pub fn reset(&mut self) {
        let Bins {
            nz77,
            nz_edge,
            exp77,
            sign77,
            resid77,
            exp_edge,
            sign_edge,
            resid_edge,
            exp_dc,
            sign_dc,
            resid_dc,
        } = self;
        nz77.refill();
        nz_edge.refill();
        exp77.refill();
        sign77.refill();
        resid77.refill();
        exp_edge.iter_mut().for_each(|strip| strip.refill());
        sign_edge.refill();
        resid_edge.refill();
        exp_dc.refill();
        sign_dc.refill();
        resid_dc.refill();
    }
}

impl Default for Bins {
    /// Every bin at its fresh state.
    fn default() -> Self {
        Bins {
            nz77: grid(),
            nz_edge: grid(),
            exp77: grid(),
            sign77: grid(),
            resid77: grid(),
            exp_edge: [grid(), grid()],
            sign_edge: grid(),
            resid_edge: grid(),
            exp_dc: grid(),
            sign_dc: grid(),
            resid_dc: grid(),
        }
    }
}

/// `⌊log₁.₅₉(x)⌋` bucket clamped to 0..=9, the paper's non-zero-count
/// context (App. A.2.1). `x = 0` maps to bucket 0.
///
/// Called per coded coefficient (the `remaining`-count context), so the
/// threshold walk is flattened into a direct table probe for the 0..=64
/// nonzero-count domain; larger inputs take the arithmetic path.
#[inline]
pub fn log159_bucket(x: u32) -> usize {
    // Thresholds: ⌈1.59^b⌉ for b = 1..=9.
    const THRESH: [u32; 9] = [2, 3, 5, 7, 11, 17, 26, 41, 65];
    const DIRECT: [u8; 66] = {
        let mut t = [0u8; 66];
        let mut x = 0usize;
        while x < 66 {
            let mut b = 0u8;
            while (b as usize) < 9 && x as u32 >= THRESH[b as usize] {
                b += 1;
            }
            t[x] = b;
            x += 1;
        }
        t
    };
    if (x as usize) < DIRECT.len() {
        DIRECT[x as usize] as usize
    } else {
        THRESH.iter().take_while(|&&t| x >= t).count()
    }
}

/// Magnitude bucket: bit length of `x` clamped to `0..=max` (used for
/// the weighted-neighbor-average context).
#[inline]
pub fn magnitude_bucket(x: u32, max: usize) -> usize {
    ((32 - x.leading_zeros()) as usize).min(max)
}

/// Sign context: 0 for negative, 1 for zero, 2 for positive.
#[inline]
pub fn sign_ctx(v: i32) -> usize {
    match v.signum() {
        -1 => 0,
        0 => 1,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn grid_shape_and_independence() {
        assert_eq!(Bins::BYTES, 81_331 * size_of::<Branch>());
        // Recording one bin moves that bin only.
        let mut b = Bins::default();
        b.exp77[48][11][9][10].record(true);
        assert_ne!(b.exp77[48][11][9][10], Branch::new());
        b.exp77[48][11][9][10] = Branch::new();
        assert!(b == Bins::default());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn per_axis_bounds_checked() {
        // The §6.1 bug: swapped indices that still land in the flat
        // allocation (bin 46 of 147). The axis check catches it.
        let (ki, sc) = black_box((40, 2));
        Bins::default().sign77[sc][ki].record(true);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn typed_accessors_keep_per_axis_checks() {
        // The same reversal on the inner axes of a rank-4 grid: the
        // prediction bucket (up to 11) in the remaining-count axis (10).
        let (ki, pb, nzb) = black_box((3, 11, 2));
        Bins::default().exp77[ki][nzb][pb][0].record(true);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn typed_rows_keep_per_axis_checks() {
        // A whole row taken one past the leading axis.
        let _ = &mut Bins::default().resid77[black_box(49)];
    }

    #[test]
    fn rows_cover_exactly_the_last_axis() {
        // What the walk hands `code_value` and `code_tree`: exponent and
        // residual rows of the coded range, and whole trees.
        let b = Bins::default();
        assert_eq!(b.exp77[0][0][0].len(), AC_MAX_EXP);
        assert_eq!(b.resid_edge[1][6].len(), AC_MAX_EXP);
        assert_eq!(b.exp_dc[12].len(), DC_MAX_EXP);
        assert_eq!((b.nz77[9].len(), b.nz_edge[1][9].len()), (1 << 6, 1 << 3));
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut b = Bins::default();
        for strip in &mut b.exp_edge {
            for row in strip.iter_mut().flatten().flatten() {
                row[0].record(true);
            }
        }
        b.resid_dc[12].record(false);
        assert!(b != Bins::default());
        b.reset();
        assert!(b == Bins::default());
    }

    #[test]
    fn log159_buckets() {
        assert_eq!(log159_bucket(0), 0);
        assert_eq!(log159_bucket(1), 0);
        assert_eq!(log159_bucket(2), 1);
        assert_eq!(log159_bucket(3), 2);
        assert_eq!(log159_bucket(4), 2);
        assert_eq!(log159_bucket(5), 3);
        assert_eq!(log159_bucket(10), 4);
        assert_eq!(log159_bucket(11), 5);
        assert_eq!(log159_bucket(49), 8);
        assert_eq!(log159_bucket(65), 9);
        assert_eq!(log159_bucket(1000), 9);
    }

    #[test]
    fn magnitude_buckets() {
        assert_eq!(magnitude_bucket(0, 11), 0);
        assert_eq!(magnitude_bucket(1, 11), 1);
        assert_eq!(magnitude_bucket(2, 11), 2);
        assert_eq!(magnitude_bucket(3, 11), 2);
        assert_eq!(magnitude_bucket(4, 11), 3);
        assert_eq!(magnitude_bucket(1023, 11), 10);
        assert_eq!(magnitude_bucket(u32::MAX, 11), 11);
    }
}
