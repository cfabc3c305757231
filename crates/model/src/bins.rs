//! Bounds-checked statistic-bin storage.
//!
//! The paper's §6.1 incident — a reversed multidimensional index that
//! compiled fine and silently produced nondeterministic output under one
//! compiler — led the authors to wrap every bin array in a class that
//! enforces bounds checks, at a measured ~10% cost they chose to keep.
//! [`BinGrid`] is that abstraction: a flat `Vec<Branch>` with explicit
//! (inline, rank ≤ 4) dimensions, where every lookup asserts each
//! coordinate against its axis (not just the flattened offset, which is
//! what the reversed index defeated).
//!
//! Two generations of accessors coexist:
//!
//! * the original slice-indexed [`BinGrid::at`] / [`BinGrid::row`]
//!   (rank-checked, coordinate slice walked per call) — kept for tests
//!   and generic tooling;
//! * typed fixed-arity accessors ([`BinGrid::at1`]/[`BinGrid::at2`],
//!   [`BinGrid::row0`]–[`BinGrid::row3`]) used by the codec hot path.
//!   They keep the §6.1 *per-axis* bounds checks — that is the check
//!   that caught the reversed index, and the paper's lesson we refuse
//!   to unlearn — but drop what the incident does **not** require: the
//!   runtime rank assert (arity is now in the signature, so a rank
//!   mismatch is a compile-visible bug and only `debug_assert`ed), the
//!   temporary coordinate slice, and the per-call walk over `dims`.
//!   Offsets come from precomputed strides instead.

use lepton_arith::Branch;

/// Highest grid rank the model uses; `dims`/`strides` are stored inline
/// at this length so a hot-path lookup reads them without a pointer
/// chase or a slice bounds check.
const MAX_RANK: usize = 4;

/// A dense N-dimensional grid (N ≤ 4) of adaptive bins with per-axis
/// checking.
#[derive(Clone, Debug)]
pub struct BinGrid {
    rank: usize,
    /// Axis lengths; axes at and beyond `rank` have length 1.
    dims: [usize; MAX_RANK],
    /// `strides[i]` = number of bins spanned by one step along axis `i`
    /// (`strides[rank - 1] == 1`). Precomputed so hot-path offset math
    /// is a few multiplies instead of a walk over `dims`.
    strides: [usize; MAX_RANK],
    bins: Vec<Branch>,
}

impl BinGrid {
    /// Allocate a grid with the given dimensions, all bins fresh (50-50).
    pub fn new(shape: &[usize]) -> Self {
        let rank = shape.len();
        assert!((1..=MAX_RANK).contains(&rank), "bin grid rank {rank}");
        let mut dims = [1usize; MAX_RANK];
        dims[..rank].copy_from_slice(shape);
        let n: usize = dims.iter().product();
        assert!(n > 0, "empty bin grid");
        let mut strides = [1usize; MAX_RANK];
        for i in (0..rank - 1).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        BinGrid {
            rank,
            dims,
            strides,
            bins: vec![Branch::new(); n],
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Always false; grids are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Reset every bin to the fresh 50-50 prior without reallocating —
    /// the arena-reuse path: a pooled model is reset between jobs
    /// instead of being rebuilt allocation by allocation.
    pub fn reset(&mut self) {
        self.bins.fill(Branch::new());
    }

    #[inline]
    fn flatten(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.rank,
            "bin index rank {} != grid rank {}",
            idx.len(),
            self.rank
        );
        let mut off = 0usize;
        for (i, (&x, &d)) in idx.iter().zip(self.dims.iter()).enumerate() {
            assert!(x < d, "bin axis {i} out of bounds: {x} >= {d}");
            off = off * d + x;
        }
        off
    }

    #[inline]
    #[track_caller]
    fn check_axis(&self, axis: usize, x: usize) {
        assert!(
            x < self.dims[axis],
            "bin axis {axis} out of bounds: {x} >= {}",
            self.dims[axis]
        );
    }

    /// Mutable bin at the given coordinates (asserts each axis).
    #[inline]
    pub fn at(&mut self, idx: &[usize]) -> &mut Branch {
        let off = self.flatten(idx);
        &mut self.bins[off]
    }

    /// Read-only bin access (for inspection/tests).
    #[inline]
    pub fn get(&self, idx: &[usize]) -> &Branch {
        let off = self.flatten(idx);
        &self.bins[off]
    }

    /// Mutable bin of a rank-1 grid (per-axis checked, stride-free).
    #[inline]
    pub fn at1(&mut self, a: usize) -> &mut Branch {
        debug_assert_eq!(self.rank, 1, "at1 on rank-{} grid", self.rank);
        self.check_axis(0, a);
        &mut self.bins[a]
    }

    /// Mutable bin of a rank-2 grid (per-axis checked, strided offset).
    #[inline]
    pub fn at2(&mut self, a: usize, b: usize) -> &mut Branch {
        debug_assert_eq!(self.rank, 2, "at2 on rank-{} grid", self.rank);
        self.check_axis(0, a);
        self.check_axis(1, b);
        let off = a * self.strides[0] + b;
        &mut self.bins[off]
    }

    /// The whole bin row of a rank-1 grid.
    #[inline]
    pub fn row0(&mut self) -> &mut [Branch] {
        debug_assert_eq!(self.rank, 1, "row0 on rank-{} grid", self.rank);
        &mut self.bins
    }

    /// Last-axis row of a rank-2 grid with the leading axis fixed
    /// (per-axis checked, strided offset).
    #[inline]
    pub fn row1(&mut self, a: usize) -> &mut [Branch] {
        debug_assert_eq!(self.rank, 2, "row1 on rank-{} grid", self.rank);
        self.check_axis(0, a);
        let start = a * self.strides[0];
        let len = self.strides[0];
        &mut self.bins[start..start + len]
    }

    /// Last-axis row of a rank-3 grid with both leading axes fixed.
    #[inline]
    pub fn row2(&mut self, a: usize, b: usize) -> &mut [Branch] {
        debug_assert_eq!(self.rank, 3, "row2 on rank-{} grid", self.rank);
        self.check_axis(0, a);
        self.check_axis(1, b);
        let start = a * self.strides[0] + b * self.strides[1];
        let len = self.strides[1];
        &mut self.bins[start..start + len]
    }

    /// Last-axis row of a rank-4 grid with the three leading axes fixed.
    #[inline]
    pub fn row3(&mut self, a: usize, b: usize, c: usize) -> &mut [Branch] {
        debug_assert_eq!(self.rank, 4, "row3 on rank-{} grid", self.rank);
        self.check_axis(0, a);
        self.check_axis(1, b);
        self.check_axis(2, c);
        let start = a * self.strides[0] + b * self.strides[1] + c * self.strides[2];
        let len = self.strides[2];
        &mut self.bins[start..start + len]
    }

    /// Mutable slice over the last axis, with all leading axes fixed by
    /// `prefix` (each checked). Generic-rank counterpart of
    /// [`row1`](Self::row1)–[`row3`](Self::row3).
    #[inline]
    pub fn row(&mut self, prefix: &[usize]) -> &mut [Branch] {
        assert_eq!(
            prefix.len() + 1,
            self.rank,
            "row prefix rank {} != grid rank {} - 1",
            prefix.len(),
            self.rank
        );
        let mut off = 0usize;
        for (i, (&x, &d)) in prefix.iter().zip(self.dims.iter()).enumerate() {
            assert!(x < d, "bin axis {i} out of bounds: {x} >= {d}");
            off = off * d + x;
        }
        let last = self.dims[self.rank - 1];
        let start = off * last;
        &mut self.bins[start..start + last]
    }

    /// Count of bins that have adapted away from the 50-50 prior
    /// (instrumentation: how much of the model a file actually touches).
    pub fn touched(&self) -> usize {
        self.bins.iter().filter(|b| !b.is_fresh()).count()
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
    // Thresholds: 1.59^b for b = 1..=9, precomputed and rounded.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_and_independence() {
        let mut g = BinGrid::new(&[3, 4, 5]);
        assert_eq!(g.len(), 60);
        g.at(&[2, 3, 4]).record(true);
        g.at(&[0, 0, 0]).record(false);
        assert_eq!(g.touched(), 2);
        assert!(g.get(&[1, 1, 1]).is_fresh());
    }

    #[test]
    #[should_panic(expected = "axis 1 out of bounds")]
    fn per_axis_bounds_checked() {
        // The §6.1 bug: swapped indices that still land in the flat
        // allocation. Per-axis checks catch it.
        let mut g = BinGrid::new(&[10, 2]);
        let _ = g.at(&[1, 9]);
    }

    #[test]
    #[should_panic(expected = "axis 1 out of bounds")]
    fn typed_accessors_keep_per_axis_checks() {
        // Same reversed-index scenario through the strided fast path:
        // the offset 1*2 + 9 = 11 is inside the 20-bin allocation, so
        // only the per-axis check can catch it.
        let mut g = BinGrid::new(&[10, 2]);
        let _ = g.at2(1, 9);
    }

    #[test]
    #[should_panic(expected = "axis 0 out of bounds")]
    fn typed_rows_keep_per_axis_checks() {
        let mut g = BinGrid::new(&[4, 3, 5]);
        let _ = g.row2(4, 0);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn rank_checked() {
        let mut g = BinGrid::new(&[4, 4]);
        let _ = g.at(&[1]);
    }

    #[test]
    fn typed_accessors_match_generic() {
        let mut g = BinGrid::new(&[3, 4, 5, 6]);
        // Touch through the typed path, observe through the generic one.
        g.row3(2, 3, 4)[5].record(true);
        assert!(!g.get(&[2, 3, 4, 5]).is_fresh());
        assert_eq!(g.touched(), 1);

        let mut g2 = BinGrid::new(&[7, 3]);
        g2.at2(6, 2).record(false);
        assert!(!g2.get(&[6, 2]).is_fresh());
        g2.row1(5)[1].record(true);
        assert!(!g2.get(&[5, 1]).is_fresh());

        let mut g1 = BinGrid::new(&[9]);
        g1.at1(8).record(true);
        assert!(!g1.get(&[8]).is_fresh());
        g1.row0()[0].record(true);
        assert!(!g1.get(&[0]).is_fresh());

        let mut g3 = BinGrid::new(&[2, 5, 4]);
        g3.row2(1, 4)[3].record(true);
        assert!(!g3.get(&[1, 4, 3]).is_fresh());
    }

    #[test]
    fn rows_cover_exactly_the_last_axis() {
        let mut g = BinGrid::new(&[2, 3, 4, 5]);
        assert_eq!(g.row3(1, 2, 3).len(), 5);
        let mut g = BinGrid::new(&[2, 3, 4]);
        assert_eq!(g.row2(1, 2).len(), 4);
        let mut g = BinGrid::new(&[2, 3]);
        assert_eq!(g.row1(1).len(), 3);
        let mut g = BinGrid::new(&[13]);
        assert_eq!(g.row0().len(), 13);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut g = BinGrid::new(&[4, 4]);
        for a in 0..4 {
            for b in 0..4 {
                g.at2(a, b).record(a % 2 == 0);
            }
        }
        assert_eq!(g.touched(), 16);
        g.reset();
        assert_eq!(g.touched(), 0);
        assert_eq!(g.len(), 16);
        assert_eq!(*g.get(&[3, 3]), Branch::new());
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
