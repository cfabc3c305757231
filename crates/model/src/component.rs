//! The per-component block codec: ties bins, binarization, and
//! predictors together in the paper's coding order (nonzeros → 7x7 →
//! edges → DC).
//!
//! One [`ComponentModel`] holds the adaptive state for one component
//! class (luma or chroma) of one *thread segment* — the paper's threads
//! each start from fresh 50-50 bins and adapt independently (§3.4),
//! which is why `new()` is cheap and explicit.

use crate::bins::{log159_bucket, magnitude_bucket, BinGrid};
use crate::coef_coder::{code_tree, code_value, fits};
use crate::context::{
    lakhani_col, lakhani_row, nonzero_counts, predict_dc_gradient, weighted_abs_at,
    weighted_signed_at, BlockEdges, BlockNeighbors, CodedBlock, DcPrediction, INTERIOR_ZZ,
};
use lepton_arith::{BoolDecoder, BoolEncoder, Branch, ByteSource, Coder};
use lepton_jpeg::dct::{idct_ac_borders, AcBorders};
use lepton_jpeg::scan::nonzero_mask;
use lepton_jpeg::{CoefBlock, JpegError, ZIGZAG_INV};

/// Maximum Exp-Golomb exponent for AC coefficients (baseline range
/// ±1023, with headroom to ±2047).
const AC_MAX_EXP: usize = 11;
/// Maximum exponent for the DC delta (±8191).
const DC_MAX_EXP: usize = 13;

#[inline]
fn sign_ctx(v: i32) -> usize {
    match v.signum() {
        -1 => 0,
        0 => 1,
        _ => 2,
    }
}

/// Compressed-output attribution by coefficient category (drives the
/// Fig. 4 breakdown). Byte counts are measured from encoder output
/// deltas; per-block boundaries smear by at most the coder's carry lag,
/// which telescopes away in aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CategoryBytes {
    /// Bytes spent on nonzero-count structure.
    pub nz: u64,
    /// Bytes spent on interior 7x7 coefficients.
    pub ac77: u64,
    /// Bytes spent on 7x1/1x7 edge coefficients.
    pub edge: u64,
    /// Bytes spent on DC deltas.
    pub dc: u64,
}

impl CategoryBytes {
    /// Total attributed bytes.
    pub fn total(&self) -> u64 {
        self.nz + self.ac77 + self.edge + self.dc
    }

    /// Accumulate another tally.
    pub fn add(&mut self, other: &CategoryBytes) {
        self.nz += other.nz;
        self.ac77 += other.ac77;
        self.edge += other.edge;
        self.dc += other.dc;
    }
}

/// Adaptive model state for one component class within one thread
/// segment.
pub struct ComponentModel {
    /// Output-byte attribution accumulated across encoded blocks.
    stats: CategoryBytes,
    /// 7x7 nonzero count: [neighbor-count bucket][6-bit tree].
    nz77: BinGrid,
    /// Edge-strip nonzero count: [row/col][nz77 bucket][3-bit tree].
    nz_edge: BinGrid,
    /// 7x7 exponent unary bits: [coef][pred bucket][remaining bucket][pos].
    exp77: BinGrid,
    /// 7x7 sign: [coef][neighbor sign ctx].
    sign77: BinGrid,
    /// 7x7 residual bits: [coef][pos].
    resid77: BinGrid,
    /// Edge exponent: [edge coef 0..14][pred bucket][remaining 0..8][pos].
    exp_edge: BinGrid,
    /// Edge sign: [edge coef][pred sign ctx].
    sign_edge: BinGrid,
    /// Edge residual: [edge coef][pos].
    resid_edge: BinGrid,
    /// DC delta exponent: [confidence bucket][pos].
    exp_dc: BinGrid,
    /// DC sign: [pred sign ctx].
    sign_dc: BinGrid,
    /// DC residual bits: [pos].
    resid_dc: BinGrid,
}

impl Default for ComponentModel {
    fn default() -> Self {
        Self::new()
    }
}

/// Dimensions of every bin grid of a [`ComponentModel`], in field order.
const GRID_DIMS: [&[usize]; 11] = [
    &[10, 64],
    &[2, 10, 8],
    &[49, 12, 10, AC_MAX_EXP],
    &[49, 3],
    &[49, AC_MAX_EXP],
    &[14, 12, 8, AC_MAX_EXP],
    &[14, 3],
    &[14, AC_MAX_EXP],
    &[13, DC_MAX_EXP],
    &[3],
    &[DC_MAX_EXP],
];

impl ComponentModel {
    /// Fresh model, all bins at 50-50 (the per-thread starting state).
    pub fn new() -> Self {
        let [nz77, nz_edge, exp77, sign77, resid77, exp_edge, sign_edge, resid_edge, exp_dc, sign_dc, resid_dc] =
            GRID_DIMS.map(BinGrid::new);
        ComponentModel {
            stats: CategoryBytes::default(),
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
        }
    }

    /// Heap bytes one model's bins occupy — what a job's memory meter
    /// is charged per model it resets, and what sizing plans with.
    pub fn arena_bytes() -> usize {
        let bins: usize = GRID_DIMS.iter().map(|d| d.iter().product::<usize>()).sum();
        bins * std::mem::size_of::<Branch>()
    }

    /// Reset to the per-thread starting state — every bin back at the
    /// 50-50 prior, attribution cleared — while keeping every
    /// allocation. This is the engine's arena-reuse hook (paper §5.1:
    /// pre-allocated memory, pre-spawned threads): a pooled worker
    /// resets its resident model between jobs instead of paying the
    /// ~100k-bin allocation per segment per file. Determinism (§5.2)
    /// requires a reset model to be *indistinguishable* from a fresh
    /// one, which the engine-reuse tests enforce byte-for-byte.
    pub fn reset(&mut self) {
        self.stats = CategoryBytes::default();
        self.nz77.reset();
        self.nz_edge.reset();
        self.exp77.reset();
        self.sign77.reset();
        self.resid77.reset();
        self.exp_edge.reset();
        self.sign_edge.reset();
        self.resid_edge.reset();
        self.exp_dc.reset();
        self.sign_dc.reset();
        self.resid_dc.reset();
    }

    /// Total statistic bins allocated (for the §3.2 comparison: the
    /// paper's model uses 721,564; ours is the same order of magnitude).
    pub fn bin_count(&self) -> usize {
        self.nz77.len()
            + self.nz_edge.len()
            + self.exp77.len()
            + self.sign77.len()
            + self.resid77.len()
            + self.exp_edge.len()
            + self.sign_edge.len()
            + self.resid_edge.len()
            + self.exp_dc.len()
            + self.sign_dc.len()
            + self.resid_dc.len()
    }

    /// Bins that have adapted away from the prior.
    pub fn bins_touched(&self) -> usize {
        self.nz77.touched()
            + self.nz_edge.touched()
            + self.exp77.touched()
            + self.sign77.touched()
            + self.resid77.touched()
            + self.exp_edge.touched()
            + self.sign_edge.touched()
            + self.resid_edge.touched()
            + self.exp_dc.touched()
            + self.sign_dc.touched()
            + self.resid_dc.touched()
    }

    /// Output attribution accumulated so far (encode side only).
    pub fn stats(&self) -> CategoryBytes {
        self.stats
    }

    /// Encode one block (must contain in-range baseline coefficients)
    /// and fill `out` — the driver's ring slot for it — with everything
    /// later blocks will consult. Refuses a DC the prediction cannot
    /// reach within the coder's range ([`JpegError::DcOutOfRange`]).
    pub fn encode_block(
        &mut self,
        enc: &mut BoolEncoder,
        block: &CoefBlock,
        nbr: &BlockNeighbors,
        out: &mut CodedBlock,
    ) -> Result<(), JpegError> {
        out.coefs = *block;
        out.nz_mask = nonzero_mask(block) & !1; // AC positions only
        self.code_block(enc, nbr, out)
    }

    /// Decode one block into `out`, the driver's ring slot for it,
    /// leaving `out` exactly as [`Self::encode_block`] did; adversarial
    /// input produces garbage coefficients but never panics.
    pub fn decode_block<S: ByteSource>(
        &mut self,
        dec: &mut BoolDecoder<S>,
        nbr: &BlockNeighbors,
        out: &mut CodedBlock,
    ) {
        out.coefs = [0; 64];
        out.nz_mask = 0;
        // The decoder's DC placeholder is 0 and the prediction is
        // clamped to ±2047, so its delta is always in range.
        let coded = self.code_block(dec, nbr, out);
        debug_assert!(coded.is_ok());
    }

    /// The one block walk, for both directions. On entry `out.coefs` and
    /// `out.nz_mask` hold the block to encode, or zeros to decode into.
    /// Each coefficient is patched into `coefs` and `deq` as it is
    /// coded, so every context reads the same state either way.
    fn code_block<C: Coder>(
        &mut self,
        c: &mut C,
        nbr: &BlockNeighbors,
        out: &mut CodedBlock,
    ) -> Result<(), JpegError> {
        let (nz77_in, nz_row, nz_col) = nonzero_counts(out.nz_mask);
        out.deq = [0; 64];
        let mut nz_mask = 0u64;
        let mut set = |out: &mut CodedBlock, r: usize, v: i32| {
            out.coefs[r] = v as i16;
            out.deq[r] = v * nbr.quant[r] as i32;
            nz_mask |= 1 << ZIGZAG_INV[r];
        };

        // 1. Interior nonzero count.
        let mark = c.bytes_so_far();
        let nz_bucket = log159_bucket(nbr.nz_context());
        let nz = code_tree(c, nz77_in, 6, self.nz77.row1(nz_bucket)).min(49);
        self.stats.nz += (c.bytes_so_far() - mark) as u64;
        let mark = c.bytes_so_far();

        // 2. Interior coefficients until the count is exhausted.
        // Resolve the three neighbor options once per block; the
        // per-coefficient weighted contexts then index directly.
        let (w_a, w_l, w_al) = nbr.weight_sources();
        let mut remaining = nz;
        for (ki, &r) in INTERIOR_ZZ.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            let pb = magnitude_bucket(weighted_abs_at(w_a, w_l, w_al, r), AC_MAX_EXP);
            let nzb = log159_bucket(remaining);
            let sc = sign_ctx(weighted_signed_at(w_a, w_l, w_al, r));
            let v = code_value(
                c,
                out.coefs[r] as i32,
                AC_MAX_EXP,
                self.exp77.row3(ki, pb, nzb),
                self.sign77.at2(ki, sc),
                self.resid77.row1(ki),
            );
            if v != 0 {
                set(out, r, v);
                remaining -= 1;
            }
        }
        self.stats.ac77 += (c.bytes_so_far() - mark) as u64;
        let mark = c.bytes_so_far();

        // 3. Edge strips (row then column).
        let nz77b = log159_bucket(nz);
        for (strip, count) in [nz_row, nz_col].into_iter().enumerate() {
            let mut rem = code_tree(c, count, 3, self.nz_edge.row2(strip, nz77b)) as usize;
            for i in 1..8usize {
                if rem == 0 {
                    break;
                }
                let r = edge_raster(strip, i);
                let (pb, sc) = edge_ctx(strip, i, &out.deq, nbr);
                let idx = strip * 7 + i - 1;
                let v = code_value(
                    c,
                    out.coefs[r] as i32,
                    AC_MAX_EXP,
                    self.exp_edge.row3(idx, pb, rem),
                    self.sign_edge.at2(idx, sc),
                    self.resid_edge.row1(idx),
                );
                if v != 0 {
                    set(out, r, v);
                    rem -= 1;
                }
            }
        }
        self.stats.edge += (c.bytes_so_far() - mark) as u64;
        let mark = c.bytes_so_far();

        // 4. DC, last, as a delta from the prediction. A legal DC (any
        // i16) can sit further from the prediction than the delta's
        // Exp-Golomb range reaches; such a file is refused.
        let ac = idct_ac_borders(&out.deq);
        let pred = dc_prediction(&ac, nbr);
        let delta = out.coefs[0] as i32 - pred.value;
        if !fits(delta, DC_MAX_EXP) {
            return Err(JpegError::DcOutOfRange);
        }
        let delta = code_value(
            c,
            delta,
            DC_MAX_EXP,
            self.exp_dc.row1(pred.confidence),
            self.sign_dc.at1(pred.sign_ctx),
            self.resid_dc.row0(),
        );
        self.stats.dc += (c.bytes_so_far() - mark) as u64;
        let dc = (pred.value + delta).clamp(i16::MIN as i32, i16::MAX as i32);
        out.coefs[0] = dc as i16;
        out.deq[0] = dc * nbr.quant[0] as i32;
        out.edges = BlockEdges::finish(&ac, out.deq[0]);
        out.nz_mask = nz_mask;
        out.nz77 = nz as u8;
        Ok(())
    }
}

/// The DC prediction (App. A.2.3), clamped to the coder's range.
fn dc_prediction(ac: &AcBorders, nbr: &BlockNeighbors) -> DcPrediction {
    let above = nbr.above.map(|b| &b.edges);
    let left = nbr.left.map(|b| &b.edges);
    let mut pred = predict_dc_gradient(ac, above, left, nbr.quant);
    // Keep the delta within the Exp-Golomb range even for adversarial
    // neighbor content.
    pred.value = pred.value.clamp(-2047, 2047);
    pred
}

/// Context (prediction bucket, sign context) for edge coefficient `i`
/// (1..=7) of the top row (`strip` 0) or the left column (`strip` 1),
/// from the Lakhani prediction (App. A.2.2). The formula only reads
/// interior positions of the current block, all of which the walk has
/// patched into `cur_deq` by the time edges are coded.
fn edge_ctx(strip: usize, i: usize, cur_deq: &[i32; 64], nbr: &BlockNeighbors) -> (usize, usize) {
    let p = match (strip, nbr.above, nbr.left) {
        (0, Some(a), _) => lakhani_row(&a.deq, cur_deq, i, nbr.quant),
        (1, _, Some(l)) => lakhani_col(&l.deq, cur_deq, i, nbr.quant),
        _ => return (0, 1),
    };
    (magnitude_bucket(p.unsigned_abs(), AC_MAX_EXP), sign_ctx(p))
}

/// Raster index of edge coefficient `i` (1..=7) of the top row
/// (`strip` 0) or the left column (`strip` 1).
#[inline]
fn edge_raster(strip: usize, i: usize) -> usize {
    if strip == 0 {
        i
    } else {
        i * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lepton_arith::SliceSource;
    use lepton_jpeg::coeffs::Plane;

    /// The slot to fill for block (`bx`, `by`) of a plane-sized slot
    /// array, with the neighbors the core driver would show it.
    fn open<'a>(
        slots: &'a mut [CodedBlock],
        w: usize,
        (bx, by): (usize, usize),
        quant: &'a [u16; 64],
    ) -> (&'a mut CodedBlock, BlockNeighbors<'a>) {
        let (done, rest) = slots.split_at_mut(by * w + bx);
        let done = &*done;
        let at = |x: Option<usize>, y: Option<usize>| Some(&done[y? * w + x?]);
        let nbr = BlockNeighbors {
            above: at(Some(bx), by.checked_sub(1)),
            left: at(bx.checked_sub(1), Some(by)),
            above_left: at(bx.checked_sub(1), by.checked_sub(1)),
            quant,
        };
        (&mut rest[0], nbr)
    }

    /// Encode an entire plane the way the core codec does; returns the
    /// stream and the slots the encoder left behind.
    fn encode_plane(
        plane: &Plane,
        quant: &[u16; 64],
        model: &mut ComponentModel,
    ) -> (Vec<u8>, Vec<CodedBlock>) {
        let mut enc = BoolEncoder::new();
        let mut slots = vec![CodedBlock::ZERO; plane.blocks_w * plane.blocks_h];
        for by in 0..plane.blocks_h {
            for bx in 0..plane.blocks_w {
                let (out, nbr) = open(&mut slots, plane.blocks_w, (bx, by), quant);
                model
                    .encode_block(&mut enc, plane.block(bx, by), &nbr, out)
                    .expect("in range");
            }
        }
        (enc.finish(), slots)
    }

    /// Encode, decode, compare: the coefficients come back, and the
    /// decoder leaves every ring slot exactly as the encoder did.
    fn roundtrip_plane(plane: &Plane, quant: &[u16; 64]) -> usize {
        let (bytes, encoded) = encode_plane(plane, quant, &mut ComponentModel::new());

        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let mut model = ComponentModel::new();
        let mut decoded = vec![CodedBlock::ZERO; encoded.len()];
        for by in 0..plane.blocks_h {
            for bx in 0..plane.blocks_w {
                let (out, nbr) = open(&mut decoded, plane.blocks_w, (bx, by), quant);
                model.decode_block(&mut dec, &nbr, out);
                assert_eq!(&out.coefs, plane.block(bx, by), "block ({bx}, {by})");
            }
        }
        assert!(decoded == encoded, "encoder and decoder slots differ");
        bytes.len()
    }

    fn synthetic_plane(w: usize, h: usize, seed: u64) -> Plane {
        let mut plane = Plane::new(w, h);
        let mut x = seed.max(1);
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for by in 0..h {
            for bx in 0..w {
                let b = plane.block_mut(bx, by);
                // Smooth DC field plus sparse ACs, like real photos.
                b[0] = (((bx * 13 + by * 7) % 200) as i16) - 100;
                for k in 1..64 {
                    let r = rand();
                    if r % 7 == 0 {
                        let mag = (r >> 8) % 32;
                        let sign = if (r >> 16) & 1 == 1 { -1 } else { 1 };
                        b[k] = (mag as i16 + 1) * sign;
                    }
                }
            }
        }
        plane
    }

    #[test]
    fn roundtrip_default_config() {
        let plane = synthetic_plane(6, 4, 42);
        let quant = [8u16; 64];
        roundtrip_plane(&plane, &quant);
    }

    #[test]
    fn roundtrip_extreme_values() {
        let mut plane = Plane::new(3, 3);
        let quant = [1u16; 64];
        for by in 0..3 {
            for bx in 0..3 {
                let b = plane.block_mut(bx, by);
                for k in 0..64 {
                    b[k] = match (bx + by + k) % 5 {
                        0 => 1023,
                        1 => -1023,
                        2 => 0,
                        3 => 1,
                        _ => -512,
                    };
                }
                b[0] = if (bx + by) % 2 == 0 { 2047 } else { -2047 };
            }
        }
        roundtrip_plane(&plane, &quant);
    }

    #[test]
    fn roundtrip_all_zero_plane() {
        let plane = Plane::new(8, 2);
        let quant = [16u16; 64];
        let bytes = roundtrip_plane(&plane, &quant);
        // 16 all-zero blocks should compress to a handful of bytes.
        assert!(bytes < 64, "got {bytes}");
    }

    #[test]
    fn roundtrip_single_block() {
        let mut plane = Plane::new(1, 1);
        plane.block_mut(0, 0)[0] = -300;
        plane.block_mut(0, 0)[9] = 4;
        plane.block_mut(0, 0)[1] = -2;
        plane.block_mut(0, 0)[8] = 1;
        let quant = [4u16; 64];
        roundtrip_plane(&plane, &quant);
    }

    #[test]
    fn smooth_content_compresses_better_than_noise() {
        let quant = [8u16; 64];
        // Smooth: sparse, correlated coefficients.
        let smooth = synthetic_plane(8, 8, 3);
        // Noisy: dense random coefficients.
        let mut noisy = Plane::new(8, 8);
        let mut x = 99u64;
        for by in 0..8 {
            for bx in 0..8 {
                let b = noisy.block_mut(bx, by);
                for k in 0..64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    b[k] = ((x % 100) as i16) - 50;
                }
            }
        }
        let s = roundtrip_plane(&smooth, &quant);
        let n = roundtrip_plane(&noisy, &quant);
        assert!(s < n, "smooth {s} vs noisy {n}");
    }

    #[test]
    fn model_size_is_paper_order_of_magnitude() {
        let m = ComponentModel::new();
        // Paper: 721,564 bins across the model. One component class
        // should be within (coarsely) the same order.
        assert!(m.bin_count() > 50_000, "bins: {}", m.bin_count());
        assert!(m.bin_count() < 1_000_000, "bins: {}", m.bin_count());
        assert_eq!(m.bins_touched(), 0);
        // What the memory meter charges per model is what `new` allocated.
        assert_eq!(
            ComponentModel::arena_bytes(),
            m.bin_count() * std::mem::size_of::<Branch>()
        );
    }

    #[test]
    fn reset_model_is_indistinguishable_from_fresh() {
        let plane = synthetic_plane(4, 3, 11);
        let quant = [5u16; 64];
        let encode_plane = |model: &mut ComponentModel| encode_plane(&plane, &quant, model).0;
        let mut fresh = ComponentModel::new();
        let reference = encode_plane(&mut fresh);
        assert!(fresh.bins_touched() > 0);

        // Dirty the same model heavily, then reset: output must be
        // byte-identical.
        let _ = encode_plane(&mut fresh);
        fresh.reset();
        assert_eq!(fresh.bins_touched(), 0);
        assert_eq!(fresh.stats(), CategoryBytes::default());
        assert_eq!(encode_plane(&mut fresh), reference);
    }

    #[test]
    fn encode_refuses_a_dc_beyond_the_delta_range() {
        // Any i16 is a legal DC, but the prediction is clamped to ±2047
        // and the delta reaches only ±8191 from it.
        let quant = [1u16; 64];
        let nbr = BlockNeighbors {
            above: None,
            left: None,
            above_left: None,
            quant: &quant,
        };
        let mut model = ComponentModel::new();
        let mut enc = BoolEncoder::new();
        let mut out = CodedBlock::ZERO;
        for dc in [i16::MAX, i16::MIN, 2047 + 8192] {
            let mut block = [0i16; 64];
            block[0] = dc;
            assert_eq!(
                model.encode_block(&mut enc, &block, &nbr, &mut out),
                Err(JpegError::DcOutOfRange),
                "dc {dc}"
            );
        }
        let mut block = [0i16; 64];
        block[0] = 100;
        assert_eq!(model.encode_block(&mut enc, &block, &nbr, &mut out), Ok(()));
    }

    #[test]
    fn decoding_garbage_never_panics() {
        // Adversarial compressed stream: decode must produce *something*
        // for every prefix without panicking (§6.7 fuzzing regression).
        let quant = [3u16; 64];
        let mut x = 0xDEAD_BEEFu64;
        for trial in 0..20 {
            let garbage: Vec<u8> = (0..200)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> (trial % 8)) as u8
                })
                .collect();
            let mut dec = BoolDecoder::new(SliceSource::new(&garbage));
            let mut model = ComponentModel::new();
            let mut slots = vec![CodedBlock::ZERO; 8];
            for bx in 0..8 {
                let (out, nbr) = open(&mut slots, 8, (bx, 0), &quant);
                model.decode_block(&mut dec, &nbr, out);
            }
        }
    }
}
