//! Neighbor context and the three predictors (App. A.2).
//!
//! All prediction math is integer/fixed-point so encode and decode (and
//! any platform, any thread count) compute bit-identical contexts — the
//! determinism requirement of §5.2 built in by construction.

use crate::bins::sign_ctx;
use lepton_jpeg::dct::{AcBorders, BASIS_FIX, DC_ACC_GAIN, SCALE_BITS};
use lepton_jpeg::CoefBlock;
use lepton_jpeg::ZIGZAG;

/// Raster indices of the 49 interior ("7x7") coefficients in zigzag
/// transmission order.
pub const INTERIOR_ZZ: [usize; 49] = {
    let mut out = [0usize; 49];
    let mut n = 0;
    let mut k = 1;
    while k < 64 {
        let r = ZIGZAG[k];
        if r / 8 != 0 && !r.is_multiple_of(8) {
            out[n] = r;
            n += 1;
        }
        k += 1;
    }
    assert!(n == 49);
    out
};

/// Zigzag-position masks (bit `k` = zigzag position `k`, as in
/// [`CodedBlock::nz_mask`]) of the 7x7 interior, the top edge row
/// `u = 1..=7`, and the left edge column `v = 1..=7`.
const ZZ_MASKS: (u64, u64, u64) = {
    let (mut row, mut col, mut interior) = (0u64, 0u64, 0u64);
    let mut k = 1;
    while k < 64 {
        let r = ZIGZAG[k];
        if r / 8 == 0 {
            row |= 1 << k;
        } else if r.is_multiple_of(8) {
            col |= 1 << k;
        } else {
            interior |= 1 << k;
        }
        k += 1;
    }
    (interior, row, col)
};

/// Non-zero counts `(interior 0..=49, edge row 0..=7, edge column
/// 0..=7)` of a block, from its zigzag nonzero mask.
#[inline]
pub fn nonzero_counts(nz_mask: u64) -> (u32, u32, u32) {
    (
        (nz_mask & ZZ_MASKS.0).count_ones(),
        (nz_mask & ZZ_MASKS.1).count_ones(),
        (nz_mask & ZZ_MASKS.2).count_ones(),
    )
}

/// Pixel rows/columns of a fully decoded block that later neighbors
/// need: rows 6–7 (bottom) and columns 6–7 (right), fixed-point scaled
/// by `2^SCALE_BITS`, no +128 level shift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockEdges {
    /// `rows[0]` = pixel row 6, `rows[1]` = pixel row 7 (x = 0..8).
    pub rows: [[i64; 8]; 2],
    /// `cols[0]` = pixel column 6, `cols[1]` = pixel column 7 (y = 0..8).
    pub cols: [[i64; 8]; 2],
}

impl BlockEdges {
    /// Finish the bottom-right borders of a block from its AC pass and
    /// its (now known) dequantized DC: the DC basis is flat, so it
    /// enters every accumulator as the same term before the shift —
    /// bit-identical to a full inverse DCT of the whole block.
    pub fn finish(ac: &AcBorders, dc_deq: i32) -> Self {
        let dc = DC_ACC_GAIN * dc_deq as i64;
        let line = |acc: &[i64; 8]| acc.map(|a| (a + dc) >> SCALE_BITS);
        BlockEdges {
            rows: [line(&ac.rows[2]), line(&ac.rows[3])],
            cols: [line(&ac.cols[2]), line(&ac.cols[3])],
        }
    }
}

/// Everything later blocks consult about an already-coded block — one
/// slot of the segment driver's neighbour ring, filled in place by
/// [`crate::ComponentModel`] while it codes the block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodedBlock {
    /// Quantized coefficients (raster order, absolute DC).
    pub coefs: CoefBlock,
    /// The same, dequantized (the Lakhani edge predictor works in
    /// dequantized units; the model patches each coefficient in as it
    /// codes it).
    pub deq: [i32; 64],
    /// Bottom-right border pixels.
    pub edges: BlockEdges,
    /// Bit `k` set iff the AC coefficient at zigzag position `k` is
    /// nonzero (what the Huffman re-encode walks).
    pub nz_mask: u64,
    /// Interior nonzero count (0..=49).
    pub nz77: u8,
}

impl CodedBlock {
    /// An all-zero block (ring slots start out as this).
    pub const ZERO: CodedBlock = CodedBlock {
        coefs: [0; 64],
        deq: [0; 64],
        edges: BlockEdges {
            rows: [[0; 8]; 2],
            cols: [[0; 8]; 2],
        },
        nz_mask: 0,
        nz77: 0,
    };
}

/// The already-coded blocks the model may consult for one block, plus
/// the component's quantization table.
pub struct BlockNeighbors<'a> {
    /// The block above, if coded earlier in this thread segment.
    pub above: Option<&'a CodedBlock>,
    /// The block to the left.
    pub left: Option<&'a CodedBlock>,
    /// The block above-left.
    pub above_left: Option<&'a CodedBlock>,
    /// Quantization table for this component (raster order).
    pub quant: &'a [u16; 64],
}

/// All-zero coefficient block standing in for a missing neighbor: the
/// weighted-context formulas treat absent neighbors as zero, so
/// resolving the `Option`s once per block beats three `map_or`
/// branches per coded coefficient.
static ZERO_BLOCK: CoefBlock = [0i16; 64];

impl BlockNeighbors<'_> {
    /// The three neighbor blocks with missing ones resolved to the
    /// all-zero block — hoist this out of per-coefficient loops.
    #[inline]
    pub fn weight_sources(&self) -> (&CoefBlock, &CoefBlock, &CoefBlock) {
        (
            self.above.map_or(&ZERO_BLOCK, |b| &b.coefs),
            self.left.map_or(&ZERO_BLOCK, |b| &b.coefs),
            self.above_left.map_or(&ZERO_BLOCK, |b| &b.coefs),
        )
    }

    /// Neighbor non-zero-count context `(nA + nL) / 2` (App. A.2.1).
    pub fn nz_context(&self) -> u32 {
        match (self.above, self.left) {
            (Some(a), Some(l)) => (a.nz77 as u32 + l.nz77 as u32) / 2,
            (Some(n), None) | (None, Some(n)) => n.nz77 as u32,
            (None, None) => 0,
        }
    }
}

/// The weighted neighbor magnitude `⌊(13|A| + 13|L| + 6|AL|)/32⌋` at
/// `raster`, used as the 7x7 bin context (§3.3), from the neighbors
/// [`BlockNeighbors::weight_sources`] resolved.
#[inline]
pub fn weighted_abs_at(a: &CoefBlock, l: &CoefBlock, al: &CoefBlock, raster: usize) -> u32 {
    let a = a[raster].unsigned_abs() as u32;
    let l = l[raster].unsigned_abs() as u32;
    let al = al[raster].unsigned_abs() as u32;
    (13 * a + 13 * l + 6 * al) / 32
}

/// The signed weighted neighbor average at `raster` (the 7x7 sign
/// context), from the neighbors [`BlockNeighbors::weight_sources`]
/// resolved.
#[inline]
pub fn weighted_signed_at(a: &CoefBlock, l: &CoefBlock, al: &CoefBlock, raster: usize) -> i32 {
    let a = a[raster] as i32;
    let l = l[raster] as i32;
    let al = al[raster] as i32;
    (13 * a + 13 * l + 6 * al) / 32
}

/// Lakhani prediction of a top-row coefficient `F(u,0)` (raster `u`)
/// from the above block and the current interior (App. A.2.2).
///
/// Derived from pixel continuity `P_above(x,7) ≈ P(x,0)`:
/// `F̄(u,0) = (Σ_v M[7][v]·A(u,v) − Σ_{v≥1} M[0][v]·F(u,v)) / M[0][0]`,
/// all in dequantized units. Returns the *quantized* prediction.
pub fn lakhani_row(above_deq: &[i32; 64], cur_deq: &[i32; 64], u: usize, quant: &[u16; 64]) -> i32 {
    debug_assert!((1..8).contains(&u));
    let mut num = 0i64;
    for v in 0..8 {
        num += BASIS_FIX[7][v] as i64 * above_deq[v * 8 + u] as i64;
    }
    for v in 1..8 {
        num -= BASIS_FIX[0][v] as i64 * cur_deq[v * 8 + u] as i64;
    }
    let pred_deq = num / BASIS_FIX[0][0] as i64;
    let q = quant[u] as i64;
    (div_round(pred_deq, q)) as i32
}

/// Lakhani prediction of a left-column coefficient `F(0,v)` (raster
/// `v*8`) from the left block and the current interior.
pub fn lakhani_col(left_deq: &[i32; 64], cur_deq: &[i32; 64], v: usize, quant: &[u16; 64]) -> i32 {
    debug_assert!((1..8).contains(&v));
    let mut num = 0i64;
    for u in 0..8 {
        num += BASIS_FIX[7][u] as i64 * left_deq[v * 8 + u] as i64;
    }
    for u in 1..8 {
        num -= BASIS_FIX[0][u] as i64 * cur_deq[v * 8 + u] as i64;
    }
    let pred_deq = num / BASIS_FIX[0][0] as i64;
    let q = quant[v * 8] as i64;
    (div_round(pred_deq, q)) as i32
}

#[inline]
fn div_round(n: i64, d: i64) -> i64 {
    debug_assert!(d > 0);
    div_trunc(if n >= 0 { n + d / 2 } else { n - d / 2 }, d)
}

/// `n / d` for `d > 0`, divided in 32 bits when both operands fit: the
/// same quotient, from a divide several times cheaper than the 64-bit
/// one on most x86 cores. Real photos always fit; only adversarial
/// quantization tables reach the wide divide.
#[inline]
fn div_trunc(n: i64, d: i64) -> i64 {
    match (i32::try_from(n), i32::try_from(d)) {
        (Ok(n), Ok(d)) => (n / d) as i64,
        _ => n / d,
    }
}

/// Per-pixel DC contribution of one dequantized DC unit in the
/// fixed-point IDCT: `(2896 · 2896) >> 13`.
const DC_PIXEL_GAIN: i64 = DC_ACC_GAIN >> SCALE_BITS;

/// Outcome of DC prediction: the predicted quantized DC value and a
/// confidence bucket derived from prediction spread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DcPrediction {
    /// Predicted quantized DC coefficient.
    pub value: i32,
    /// Spread bucket (0..=12): 0 = no information, higher = predictions
    /// disagree more.
    pub confidence: usize,
    /// Sign context (0 negative, 1 zero, 2 positive).
    pub sign_ctx: usize,
}

/// Gradient-continuation DC prediction (App. A.2.3, Figure 17 right).
///
/// For each of up to 16 border pixel pairs, solve for the DC pixel
/// offset that makes the neighbor's border gradient continue smoothly
/// into the block's own (AC-only) gradient, then average. `ac` is the
/// block's AC pass; only its top-left borders are read.
pub fn predict_dc_gradient(
    ac: &AcBorders,
    above_edges: Option<&BlockEdges>,
    left_edges: Option<&BlockEdges>,
    quant: &[u16; 64],
) -> DcPrediction {
    // Fixed-capacity prediction list: this runs per block on the codec
    // hot path, so no heap allocation.
    let mut preds = [0i64; 16];
    let mut n = 0usize;
    if let Some(a) = above_edges {
        for x in 0..8 {
            let a1 = a.rows[0][x]; // row 6
            let a0 = a.rows[1][x]; // row 7 (adjacent)
            let r0 = ac.rows[0][x] >> SCALE_BITS;
            let r1 = ac.rows[1][x] >> SCALE_BITS;

            // Solve 3(r0+dc) = 3a0 − a1 + (r1+dc) … wait: r1 also shifts
            // by dc, so: 3(r0+dc) = 3a0 − a1 + (r1+dc) ⇒
            // 2dc = 3a0 − a1 + r1 − 3r0.
            preds[n] = (3 * a0 - a1 + r1 - 3 * r0) / 2;
            n += 1;
        }
    }
    if let Some(l) = left_edges {
        for y in 0..8 {
            let l1 = l.cols[0][y]; // col 6
            let l0 = l.cols[1][y]; // col 7 (adjacent)
            let c0 = ac.cols[0][y] >> SCALE_BITS;
            let c1 = ac.cols[1][y] >> SCALE_BITS;
            preds[n] = (3 * l0 - l1 + c1 - 3 * c0) / 2;
            n += 1;
        }
    }
    finish_dc_prediction(&preds[..n], quant)
}

fn finish_dc_prediction(preds: &[i64], quant: &[u16; 64]) -> DcPrediction {
    if preds.is_empty() {
        return DcPrediction {
            value: 0,
            confidence: 0,
            sign_ctx: 1,
        };
    }
    let sum: i64 = preds.iter().sum();
    // One or both neighbors: constant divisors, so no divide at all.
    let avg = match preds.len() {
        8 => sum / 8,
        16 => sum / 16,
        n => sum / n as i64,
    };
    // Convert a scaled pixel offset into a quantized DC value.
    let unit = DC_PIXEL_GAIN * quant[0] as i64;
    let value = div_round(avg, unit) as i32;
    let spread = preds.iter().max().unwrap() - preds.iter().min().unwrap();
    // Bucket the spread in quantized-DC units.
    let spread_q = div_trunc(spread, unit) as u64;
    let confidence = (64 - (spread_q + 1).leading_zeros() as usize).min(12);
    DcPrediction {
        value,
        confidence,
        sign_ctx: sign_ctx(value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lepton_jpeg::dct::idct_ac_borders;
    use lepton_jpeg::scan::nonzero_mask;

    /// Dequantize a block into i32 raster coefficients (what the
    /// model's walk leaves in [`CodedBlock::deq`]).
    fn dequantize(block: &CoefBlock, quant: &[u16; 64], out: &mut [i32; 64]) {
        for i in 0..64 {
            out[i] = block[i] as i32 * quant[i] as i32;
        }
    }

    fn deq(block: &CoefBlock, quant: &[u16; 64]) -> [i32; 64] {
        let mut out = [0; 64];
        dequantize(block, quant, &mut out);
        out
    }

    /// The ring slot the model would leave for `coefs`.
    fn coded(coefs: CoefBlock, quant: &[u16; 64]) -> CodedBlock {
        let deq = deq(&coefs, quant);
        let nz_mask = nonzero_mask(&coefs);
        CodedBlock {
            coefs,
            deq,
            edges: BlockEdges::finish(&idct_ac_borders(&deq), deq[0]),
            nz_mask,
            nz77: nonzero_counts(nz_mask).0 as u8,
        }
    }

    #[test]
    fn interior_tables_are_disjoint_from_edges() {
        for &r in &INTERIOR_ZZ {
            assert!(r / 8 != 0 && r % 8 != 0);
        }
    }

    #[test]
    fn counts() {
        let mut b: CoefBlock = [0; 64];
        b[0] = 100; // DC: not counted anywhere
        b[1] = 5; // row edge
        b[8] = -3; // col edge
        b[9] = 7; // interior
        b[63] = -1; // interior
        assert_eq!(nonzero_counts(nonzero_mask(&b)), (2, 1, 1));
        // Every AC position is counted in exactly one class.
        assert_eq!(nonzero_counts(u64::MAX), (49, 7, 7));
    }

    /// `dequantize` equals widened `i64` arithmetic over extreme
    /// magnitudes (i16::MIN/MAX × u16::MAX), every single-coefficient
    /// placement, and random fills — no product wraps.
    #[test]
    fn dequantize_matches_widened_arithmetic() {
        let mut cases: Vec<(CoefBlock, [u16; 64])> = Vec::new();
        // Extremes in every slot.
        cases.push(([i16::MIN; 64], [u16::MAX; 64]));
        cases.push(([i16::MAX; 64], [u16::MAX; 64]));
        // Each coefficient hot alone.
        for i in 0..64 {
            let mut b = [0i16; 64];
            b[i] = if i % 2 == 0 { i16::MIN } else { i16::MAX };
            let mut q = [1u16; 64];
            q[i] = u16::MAX;
            cases.push((b, q));
        }
        // Pseudo-random fills at varying density.
        let mut x = 0xA076_1D64_78BD_642Fu64;
        for density in 1..=16u64 {
            let mut b = [0i16; 64];
            let mut q = [0u16; 64];
            for i in 0..64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 16 < density {
                    b[i] = x as i16;
                }
                q[i] = ((x >> 24) as u16).max(1);
            }
            cases.push((b, q));
        }
        for (ci, (b, q)) in cases.iter().enumerate() {
            let got = deq(b, q);
            for i in 0..64 {
                assert_eq!(
                    got[i] as i64,
                    b[i] as i64 * q[i] as i64,
                    "case {ci} slot {i}"
                );
            }
        }
    }

    #[test]
    fn weighted_abs_mixes_neighbors() {
        let mut a: CoefBlock = [0; 64];
        let mut l: CoefBlock = [0; 64];
        let mut al: CoefBlock = [0; 64];
        a[9] = 10;
        l[9] = -10;
        al[9] = 16;
        let q = [1u16; 64];
        let (a, l, al) = (coded(a, &q), coded(l, &q), coded(al, &q));
        let nbr = BlockNeighbors {
            above: Some(&a),
            left: Some(&l),
            above_left: Some(&al),
            quant: &q,
        };
        let (a, l, al) = nbr.weight_sources();
        // (13*10 + 13*10 + 6*16)/32 = (130+130+96)/32 = 11
        assert_eq!(weighted_abs_at(a, l, al, 9), 11);
        // signed: (130 - 130 + 96)/32 = 3
        assert_eq!(weighted_signed_at(a, l, al, 9), 3);
    }

    #[test]
    fn lakhani_exact_for_continuous_flat_field() {
        // Two blocks of identical constant brightness: every predicted
        // edge coefficient should be 0 (no variation to continue).
        let q = [4u16; 64];
        let mut above: CoefBlock = [0; 64];
        above[0] = 50;
        let mut cur: CoefBlock = [0; 64];
        cur[0] = 50;
        let a_deq = deq(&above, &q);
        let c_deq = deq(&cur, &q);
        for u in 1..8 {
            assert_eq!(lakhani_row(&a_deq, &c_deq, u, &q), 0, "u={u}");
        }
        for v in 1..8 {
            assert_eq!(lakhani_col(&a_deq, &c_deq, v, &q), 0, "v={v}");
        }
    }

    #[test]
    fn lakhani_predicts_vertical_gradient() {
        // A smooth vertical ramp spanning two vertically adjacent
        // blocks: continuity should predict a nonzero F(0,1) (the first
        // vertical AC) with the right sign for the lower block.
        // Build pixel blocks, FDCT them, quantize with q=1.
        let q = [1u16; 64];
        let mut top_px = [0f32; 64];
        let mut bot_px = [0f32; 64];
        for y in 0..8 {
            for x in 0..8 {
                top_px[y * 8 + x] = (y as f32) * 4.0 - 64.0;
                bot_px[y * 8 + x] = ((y + 8) as f32) * 4.0 - 64.0;
            }
        }
        let to_block = |px: &[f32; 64]| -> CoefBlock {
            let f = lepton_jpeg::dct::fdct_f32(px);
            let mut b = [0i16; 64];
            for i in 0..64 {
                b[i] = f[i].round() as i16;
            }
            b
        };
        let top = to_block(&top_px);
        let bot = to_block(&bot_px);
        let t_deq = deq(&top, &q);
        let mut b_deq = deq(&bot, &q);
        // Zero out the column 0 coefficients being predicted (they are
        // unknown at prediction time); interior stays.
        for v in 1..8 {
            b_deq[v * 8] = 0;
        }
        let pred = lakhani_col; // predicting F(0,v) uses the LEFT block…
        let _ = pred;
        // For a vertical gradient the relevant continuity is top→bottom,
        // i.e. the ROW prediction of the bottom block.
        let mut b_deq2 = deq(&bot, &q);
        for u in 1..8 {
            b_deq2[u] = 0;
        }
        let got = lakhani_row(&t_deq, &b_deq2, 1, &q);
        let actual = bot[1] as i32;
        // Horizontal variation is zero in this image, so row-edge coefs
        // are 0 and prediction should agree.
        assert_eq!(got, actual);
        let _ = b_deq;
    }

    #[test]
    fn gradient_dc_exact_on_linear_ramp() {
        // Pixels follow p(x,y) = 3y; the block below continues it.
        // The gradient predictor should recover the DC (within rounding).
        let q = [2u16; 64];
        let mut top_px = [0f32; 64];
        let mut bot_px = [0f32; 64];
        for y in 0..8 {
            for x in 0..8 {
                top_px[y * 8 + x] = (y as f32) * 3.0;
                bot_px[y * 8 + x] = ((y + 8) as f32) * 3.0;
            }
        }
        let to_block = |px: &[f32; 64], q: &[u16; 64]| -> CoefBlock {
            let f = lepton_jpeg::dct::fdct_f32(px);
            let mut b = [0i16; 64];
            for i in 0..64 {
                b[i] = (f[i] / q[i] as f32).round() as i16;
            }
            b
        };
        let top = to_block(&top_px, &q);
        let bot = to_block(&bot_px, &q);
        let edges = coded(top, &q).edges;
        let ac = idct_ac_borders(&deq(&bot, &q));
        let pred = predict_dc_gradient(&ac, Some(&edges), None, &q);
        let actual = bot[0] as i32;
        assert!(
            (pred.value - actual).abs() <= 1,
            "pred {} vs actual {}",
            pred.value,
            actual
        );
    }

    #[test]
    fn dc_prediction_no_neighbors() {
        let q = [8u16; 64];
        let ac = idct_ac_borders(&[0; 64]);
        let p = predict_dc_gradient(&ac, None, None, &q);
        assert_eq!(p.value, 0);
        assert_eq!(p.confidence, 0);
    }
}
