//! PackJPG-class baseline: globally sorted, single-threaded coding.
//!
//! PackJPG's signature technique (§2) "requires re-arranging all of the
//! compressed pixel values in the file in a globally sorted order":
//! coefficients are coded band-major across the whole image, so every
//! band's statistics are maximally coherent — at the cost of needing the
//! entire file in memory, a strictly serial decode, and no streaming.
//! This codec reproduces that structure: DC plane first (neighbor-
//! average predicted), then each zigzag band as one global stream with
//! above/left context. Compression lands near Lepton's while decode has
//! none of Lepton's distribution properties — the paper's Figure 1/2
//! contrast in miniature.

use crate::codec::{decode_carried, encode_carried, Codec, CodecError, OutOfRange};
use lepton_arith::{Branch, Coder};
use lepton_jpeg::{CoefPlanes, ZIGZAG};
use lepton_model::bins::{grid, log159_bucket, magnitude_bucket, sign_ctx, Fresh};
use lepton_model::coef_coder::{code_tree, code_value, fits};

/// The PackJPG-class codec.
#[derive(Clone, Copy, Debug, Default)]
pub struct PackJpgCodec;

const AC_EXP: usize = 11;
const DC_EXP: usize = 13;

/// Per-component-class bins for the band-major model.
struct BandModel {
    /// DC delta exponent: [pred bucket][pos].
    dc_exp: [[Branch; DC_EXP]; 12],
    /// DC sign: [pred sign ctx].
    dc_sign: [Branch; 3],
    dc_resid: [Branch; DC_EXP],
    /// AC exponent: [band][neighbor bucket][pos].
    ac_exp: Box<[[[Branch; AC_EXP]; 12]; 63]>,
    /// AC sign: [band][neighbor sign ctx].
    ac_sign: [[Branch; 3]; 63],
    ac_resid: [Branch; AC_EXP],
    /// Per-block AC nonzero count: [neighbor bucket][6-bit tree].
    nz: [[Branch; 64]; 10],
}

impl BandModel {
    fn new() -> Self {
        BandModel {
            dc_exp: Fresh::fresh(),
            dc_sign: Fresh::fresh(),
            dc_resid: Fresh::fresh(),
            ac_exp: grid(),
            ac_sign: Fresh::fresh(),
            ac_resid: Fresh::fresh(),
            nz: Fresh::fresh(),
        }
    }
}

/// Count nonzero AC coefficients in a block (0..=63).
fn count_ac(block: &[i16; 64]) -> u32 {
    (1..64).filter(|&r| block[r] != 0).count() as u32
}

/// The band-major walk over every plane, for both directions: `planes`
/// holds the coefficients to encode, or zeros to decode into, and each
/// coded value is written back before later contexts read it. A legal
/// DC can sit further from its clamped prediction than the delta's
/// range reaches; the walk refuses such planes.
fn code_global<C: Coder>(c: &mut C, planes: &mut CoefPlanes) -> Result<(), OutOfRange> {
    let mut models = [BandModel::new(), BandModel::new()];
    for (ci, plane) in planes.planes.iter_mut().enumerate() {
        let m = &mut models[usize::from(ci != 0)];
        // Pass 1: the DC plane, neighbor-average predicted.
        for by in 0..plane.blocks_h {
            for bx in 0..plane.blocks_w {
                let above = (by > 0).then(|| plane.block(bx, by - 1)[0] as i32);
                let left = (bx > 0).then(|| plane.block(bx - 1, by)[0] as i32);
                let pred = match (above, left) {
                    (Some(a), Some(l)) => (a + l) / 2,
                    (Some(a), None) => a,
                    (None, Some(l)) => l,
                    (None, None) => 0,
                }
                .clamp(-2047, 2047);
                let pb = magnitude_bucket(pred.unsigned_abs(), 11);
                let dc = &mut plane.block_mut(bx, by)[0];
                let delta = *dc as i32 - pred;
                if !fits(delta, DC_EXP) {
                    return Err(OutOfRange);
                }
                let delta = code_value(
                    c,
                    delta,
                    DC_EXP,
                    &mut m.dc_exp[pb],
                    &mut m.dc_sign[sign_ctx(pred)],
                    &mut m.dc_resid,
                );
                *dc = (pred + delta).clamp(i16::MIN as i32, i16::MAX as i32) as i16;
            }
        }
        // Pass 2: per-block AC nonzero counts ("sorting" equivalent —
        // PackJPG's global reorder clusters trailing zeros; transmitting
        // the count lets band passes skip exhausted blocks).
        // Context must come from *transmitted* counts: the decoder has
        // no coefficients yet during this pass.
        let mut remaining = vec![0u32; plane.blocks_w * plane.blocks_h];
        for by in 0..plane.blocks_h {
            for bx in 0..plane.blocks_w {
                let na = if by > 0 {
                    remaining[(by - 1) * plane.blocks_w + bx]
                } else {
                    0
                };
                let nl = if bx > 0 {
                    remaining[by * plane.blocks_w + bx - 1]
                } else {
                    0
                };
                let ctx = log159_bucket((na + nl) / 2);
                let n = count_ac(plane.block(bx, by));
                let n = code_tree(c, n, 6, &mut m.nz[ctx]);
                remaining[by * plane.blocks_w + bx] = n.min(63);
            }
        }
        // Pass 3..65: each zigzag band, globally, skipping done blocks.
        for k in 1..64usize {
            let r = ZIGZAG[k];
            for by in 0..plane.blocks_h {
                for bx in 0..plane.blocks_w {
                    let rem = &mut remaining[by * plane.blocks_w + bx];
                    if *rem == 0 {
                        continue;
                    }
                    let a = if by > 0 {
                        plane.block(bx, by - 1)[r] as i32
                    } else {
                        0
                    };
                    let l = if bx > 0 {
                        plane.block(bx - 1, by)[r] as i32
                    } else {
                        0
                    };
                    let nb = magnitude_bucket((a.unsigned_abs() + l.unsigned_abs()) / 2, 11);
                    let sctx = sign_ctx((a + l) / 2);
                    let coef = &mut plane.block_mut(bx, by)[r];
                    let v = code_value(
                        c,
                        *coef as i32,
                        AC_EXP,
                        &mut m.ac_exp[k - 1][nb],
                        &mut m.ac_sign[k - 1][sctx],
                        &mut m.ac_resid,
                    );
                    *coef = v.clamp(-2047, 2047) as i16;
                    if v != 0 {
                        *rem -= 1;
                    }
                }
            }
        }
    }
    Ok(())
}

impl Codec for PackJpgCodec {
    fn name(&self) -> &'static str {
        "PackJPG-like"
    }

    fn format_aware(&self) -> bool {
        true
    }

    fn encode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        Ok(encode_carried(data, code_global))
    }

    fn decode(&self, data: &[u8], size_hint: usize) -> Result<Vec<u8>, CodecError> {
        decode_carried(data, size_hint, code_global)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lepton_corpus::builder::{clean_jpeg, CorpusSpec};

    #[test]
    fn roundtrip_and_lepton_class_savings() {
        let spec = CorpusSpec {
            min_dim: 96,
            max_dim: 256,
            ..Default::default()
        };
        let c = PackJpgCodec;
        let mut tin = 0usize;
        let mut tout = 0usize;
        for seed in 0..6u64 {
            let jpg = clean_jpeg(&spec, seed);
            let e = c.encode(&jpg).unwrap();
            assert_eq!(c.decode(&e, jpg.len()).unwrap(), jpg, "seed {seed}");
            tin += jpg.len();
            tout += e.len();
        }
        let savings = 1.0 - tout as f64 / tin as f64;
        // PackJPG-class: close to Lepton's ratio (paper: 23.0% vs 22.4%).
        assert!(savings > 0.12, "savings {savings}");
    }

    #[test]
    fn non_jpeg_falls_back() {
        let c = PackJpgCodec;
        let data = b"zzz".repeat(100);
        let e = c.encode(&data).unwrap();
        assert_eq!(c.decode(&e, data.len()).unwrap(), data);
    }
}
