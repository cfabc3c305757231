//! The per-component block codec: ties bins, binarization, and
//! predictors together in the paper's coding order (nonzeros → 7x7 →
//! edges → DC).
//!
//! One [`ComponentModel`] holds the adaptive state for one component
//! class (luma or chroma) of one *thread segment* — the paper's threads
//! each start from fresh 50-50 bins and adapt independently (§3.4),
//! which is why `new()` is cheap and explicit.

use crate::bins::{log159_bucket, magnitude_bucket, sign_ctx, Bins, AC_MAX_EXP, DC_MAX_EXP};
use crate::coef_coder::{code_tree, code_value, fits};
use crate::context::{
    lakhani_col, lakhani_row, nonzero_counts, predict_dc_gradient, weighted_abs_at,
    weighted_signed_at, BlockEdges, BlockNeighbors, CodedBlock, DcPrediction, INTERIOR_ZZ,
};
use lepton_arith::{BoolDecoder, BoolEncoder, ByteSource, Coder};
use lepton_jpeg::dct::{idct_ac_borders, AcBorders};
use lepton_jpeg::scan::nonzero_mask;
use lepton_jpeg::{CoefBlock, JpegError, ZIGZAG_INV};

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
#[derive(Default, PartialEq)]
pub struct ComponentModel {
    /// Output-byte attribution accumulated across encoded blocks.
    stats: CategoryBytes,
    /// The adaptive statistic bins.
    bins: Bins,
}

impl ComponentModel {
    /// Fresh model, all bins at 50-50 (the per-thread starting state).
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes one model's bins occupy — what a job's memory meter
    /// is charged per model it resets, and what sizing plans with.
    pub fn arena_bytes() -> usize {
        Bins::BYTES
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
        self.bins.reset();
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
        let b = &mut self.bins;
        let nz = code_tree(c, nz77_in, 6, &mut b.nz77[nz_bucket]).min(49);
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
                &mut b.exp77[ki][pb][nzb],
                &mut b.sign77[ki][sc],
                &mut b.resid77[ki],
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
            let mut rem = code_tree(c, count, 3, &mut b.nz_edge[strip][nz77b]) as usize;
            for i in 1..8usize {
                if rem == 0 {
                    break;
                }
                let r = edge_raster(strip, i);
                let (pb, sc) = edge_ctx(strip, i, &out.deq, nbr);
                let v = code_value(
                    c,
                    out.coefs[r] as i32,
                    AC_MAX_EXP,
                    &mut b.exp_edge[strip][i - 1][pb][rem],
                    &mut b.sign_edge[strip][i - 1][sc],
                    &mut b.resid_edge[strip][i - 1],
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
            &mut b.exp_dc[pred.confidence],
            &mut b.sign_dc[pred.sign_ctx],
            &mut *b.resid_dc,
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
        // Paper: 721,564 bins across the model. One component class
        // holds 81 331 4-byte bins, the same order of magnitude, and the
        // memory meter charges that much per model.
        assert_eq!(ComponentModel::arena_bytes(), 325_324);
    }

    #[test]
    fn reset_model_is_indistinguishable_from_fresh() {
        let plane = synthetic_plane(4, 3, 11);
        let quant = [5u16; 64];
        let encode_plane = |model: &mut ComponentModel| encode_plane(&plane, &quant, model).0;
        let mut fresh = ComponentModel::new();
        let reference = encode_plane(&mut fresh);
        assert!(fresh != ComponentModel::new());

        // Dirty the same model heavily, then reset: every bin and the
        // attribution are a fresh model's, and the output is
        // byte-identical.
        let _ = encode_plane(&mut fresh);
        fresh.reset();
        assert!(fresh == ComponentModel::new());
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
