//! MozJPEG-arithmetic-class baseline: spec-style arithmetic coding.
//!
//! The JPEG specification's arithmetic extension uses ~300 statistic
//! bins (paper §3.2) with contexts limited to the previous DC difference
//! and per-band state — no spatial neighbor modeling. This codec
//! reproduces that class with a deliberately small bin space. DC
//! differences go through Lepton's own Exp-Golomb coder
//! ([`lepton_model::coef_coder::code_value`]); AC values use a
//! spec-class variant whose residual bits are coded at probability 1/2.
//! The ratio gap between this codec and Lepton isolates the value of
//! Lepton's 721k-bin neighbor-indexed model.

use crate::codec::{decode_carried, encode_carried, Codec, CodecError, OutOfRange};
use lepton_arith::{Branch, Coder};
use lepton_jpeg::{CoefPlanes, ZIGZAG};
use lepton_model::bins::Fresh;
use lepton_model::coef_coder::{code_value, fits};

/// The spec-class arithmetic JPEG codec (132 bins per component class).
#[derive(Clone, Copy, Debug, Default)]
pub struct MozArithCodec;

/// Zigzag position → coarse band (4 bands — the spec conditions AC
/// statistics only on a coarse low/high split; we are slightly more
/// generous).
fn band(k: usize) -> usize {
    match k {
        0 => 0,
        1..=5 => 1,
        6..=20 => 2,
        _ => 3,
    }
}
const NBANDS: usize = 4;
/// Exp-Golomb range of a DC difference and of an AC value.
const DC_EXP: usize = 13;
const AC_EXP: usize = 11;

/// Small-model state: 5 DC contexts × (13 exponent + 1 sign) + 13
/// residual bins, and 4 bands × (1 end-of-block + 11 exponent) + 1
/// sign bin: 132 bins, the spec's order of magnitude.
struct SmallModel {
    /// DC difference exponent: [prev-diff ctx][pos].
    dc_exp: [[Branch; DC_EXP]; 5],
    /// DC sign: [prev-diff ctx].
    dc_sign: [Branch; 5],
    dc_resid: [Branch; DC_EXP],
    /// End of block: [band].
    eob: [Branch; NBANDS],
    /// AC exponent: [band][pos].
    exp: [[Branch; AC_EXP]; NBANDS],
    /// Shared: the spec codes AC signs near 50-50.
    sign: Branch,
}

impl SmallModel {
    fn new() -> Self {
        SmallModel {
            dc_exp: Fresh::fresh(),
            dc_sign: Fresh::fresh(),
            dc_resid: Fresh::fresh(),
            eob: Fresh::fresh(),
            exp: Fresh::fresh(),
            sign: Fresh::fresh(),
        }
    }
}

fn dc_ctx(prev_diff: i32) -> usize {
    // The spec conditions DC on the previous difference's class:
    // zero / small± / large±.
    match prev_diff {
        0 => 0,
        1..=2 => 1,
        -2..=-1 => 2,
        3..=i32::MAX => 3,
        _ => 4,
    }
}

/// The spec-class AC value coder: an Exp-Golomb exponent on the band's
/// bins and a shared sign bin, but residual magnitude bits carry no
/// context. Returns the value coded.
fn code_ac<C: Coder>(c: &mut C, v: i32, exp: &mut [Branch], sign: &mut Branch) -> i32 {
    let mag = v.unsigned_abs();
    let len = (32 - mag.leading_zeros()) as usize;
    let mut n = 0usize;
    while n < AC_EXP && c.code(len > n, &mut exp[n]) {
        n += 1;
    }
    if n == 0 {
        return 0;
    }
    let neg = c.code(v < 0, sign);
    let mut out = 1u32 << (n - 1);
    for j in (0..n - 1).rev() {
        if c.code_uniform((mag >> j) & 1 == 1) {
            out |= 1 << j;
        }
    }
    if neg {
        -(out as i32)
    } else {
        out as i32
    }
}

/// One walk over every plane, for both directions: `planes` holds the
/// coefficients to encode, or zeros to decode into. The running DC
/// ignores restarts, which reset the scan's own predictor, so a legal
/// file can ask for a difference past the range; the encoder refuses
/// such planes.
fn code_planes<C: Coder>(c: &mut C, planes: &mut CoefPlanes) -> Result<(), OutOfRange> {
    let mut models = [SmallModel::new(), SmallModel::new()];
    for (ci, plane) in planes.planes.iter_mut().enumerate() {
        let m = &mut models[usize::from(ci != 0)];
        let mut prev_dc = 0i32;
        let mut prev_diff = 0i32;
        for by in 0..plane.blocks_h {
            for bx in 0..plane.blocks_w {
                let block = plane.block_mut(bx, by);
                let ctx = dc_ctx(prev_diff);
                let diff = block[0] as i32 - prev_dc;
                // The decoder's placeholder `0 - prev_dc` may leave the
                // range; only the encoder's input is checked.
                if C::ENCODES && !fits(diff, DC_EXP) {
                    return Err(OutOfRange);
                }
                prev_diff = code_value(
                    c,
                    diff,
                    DC_EXP,
                    &mut m.dc_exp[ctx],
                    &mut m.dc_sign[ctx],
                    &mut m.dc_resid,
                );
                prev_dc += prev_diff;
                block[0] = prev_dc.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
                // AC: per coefficient, an end-of-block flag first (set
                // once the rest of the block is zero).
                let last_nz = (1..64).rev().find(|&k| block[ZIGZAG[k]] != 0).unwrap_or(0);
                for k in 1..64 {
                    let b = band(k);
                    if c.code(k > last_nz, &mut m.eob[b]) {
                        break;
                    }
                    let coef = &mut block[ZIGZAG[k]];
                    let v = code_ac(c, *coef as i32, &mut m.exp[b], &mut m.sign);
                    *coef = v.clamp(-2047, 2047) as i16;
                }
            }
        }
    }
    Ok(())
}

impl Codec for MozArithCodec {
    fn name(&self) -> &'static str {
        "MozJPEG-arith"
    }

    fn format_aware(&self) -> bool {
        true
    }

    fn encode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        Ok(encode_carried(data, code_planes))
    }

    fn decode(&self, data: &[u8], size_hint: usize) -> Result<Vec<u8>, CodecError> {
        decode_carried(data, size_hint, code_planes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lepton_corpus::builder::{clean_jpeg, CorpusSpec};

    #[test]
    fn roundtrip_and_savings_between_rescan_and_lepton() {
        let spec = CorpusSpec {
            min_dim: 96,
            max_dim: 256,
            ..Default::default()
        };
        let c = MozArithCodec;
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
        // Class target: clearly above JPEGrescan, clearly below Lepton.
        // (Paper: 12%; our synthetic corpus favors adaptive coding, so
        // the class lands higher — the ordering is what matters.)
        assert!(savings > 0.05, "savings {savings}");
        assert!(savings < 0.215, "savings {savings}");
    }

    #[test]
    fn non_jpeg_falls_back() {
        let c = MozArithCodec;
        let data = vec![9u8; 400];
        let e = c.encode(&data).unwrap();
        assert_eq!(c.decode(&e, data.len()).unwrap(), data);
    }

    #[test]
    fn a_running_dc_past_the_delta_range_round_trips() {
        // Every difference is +2000, but the DC climbs to 16000: the
        // decoder's placeholder difference (0 minus the running DC)
        // leaves the coder's range, and must be ignored, not checked.
        let jpg = lepton_corpus::hostile::dc_beyond_model_range();
        let c = MozArithCodec;
        let e = c.encode(&jpg).unwrap();
        assert_eq!(e[0], crate::codec::tag::TRANSFORMED);
        assert_eq!(c.decode(&e, jpg.len()).unwrap(), jpg);
    }

    #[test]
    fn model_is_small() {
        let bins = std::mem::size_of::<SmallModel>() / std::mem::size_of::<Branch>();
        assert_eq!(bins, 132);
    }
}
