//! The codec's one border transform against the full inverse DCT.
//!
//! `idct_ac_borders` runs once per coded block and feeds both the DC
//! predictor (top-left borders of the AC-only block) and the edges
//! later neighbours read (bottom-right borders of the whole block, DC
//! added as one term). Both must equal `idct_i32_scalar`, the plain
//! triple-loop oracle, bit for bit — for any coefficients, including
//! the largest dequantized values a baseline file can carry and blocks
//! with whole coefficient rows dead.

use lepton_jpeg::dct::{idct_ac_borders, idct_i32_scalar, DC_ACC_GAIN, SCALE_BITS};
use proptest::prelude::*;

/// Largest dequantized magnitudes: AC ±1023 and DC ±2047, times an
/// 8-bit-precision quantizer of 255.
const AC_MAX: i32 = 1023 * 255;
const DC_MAX: i32 = 2047 * 255;

fn assert_borders_match_oracle(coefs: &[i32; 64]) {
    let full = idct_i32_scalar(coefs);
    let mut ac = *coefs;
    ac[0] = 0;
    let ac_only = idct_i32_scalar(&ac);
    let got = idct_ac_borders(coefs);
    assert_eq!(got, idct_ac_borders(&ac), "the DC slot must be ignored");
    let dc = DC_ACC_GAIN * coefs[0] as i64;
    for (i, edge) in [0usize, 1, 6, 7].into_iter().enumerate() {
        for k in 0..8 {
            for (acc, at) in [
                (got.rows[i][k], edge * 8 + k),
                (got.cols[i][k], k * 8 + edge),
            ] {
                assert_eq!(acc >> SCALE_BITS, ac_only[at], "AC-only pixel {at}");
                assert_eq!((acc + dc) >> SCALE_BITS, full[at], "full pixel {at}");
            }
        }
    }
}

#[test]
fn extremes_in_every_slot() {
    for sign in [1, -1] {
        let mut coefs = [sign * AC_MAX; 64];
        for dc in [0, DC_MAX, -DC_MAX] {
            coefs[0] = dc;
            assert_borders_match_oracle(&coefs);
        }
        // Alternating signs maximise cancellation instead of growth.
        for (i, c) in coefs.iter_mut().enumerate() {
            *c = if i % 2 == 0 {
                sign * AC_MAX
            } else {
                -sign * AC_MAX
            };
        }
        assert_borders_match_oracle(&coefs);
    }
    assert_borders_match_oracle(&[0; 64]);
}

proptest! {
    /// Random blocks: each coefficient row live or dead, live rows
    /// sparse or dense, values anywhere up to the extremes, with and
    /// without a DC.
    #[test]
    fn borders_match_full_idct(
        values in proptest::collection::vec(-AC_MAX..=AC_MAX, 64),
        keep in proptest::collection::vec(0u8..4, 64),
        live_rows in any::<u8>(),
        dc in prop_oneof![Just(0), -DC_MAX..=DC_MAX, Just(DC_MAX), Just(-DC_MAX)],
        extreme in any::<bool>(),
    ) {
        let mut coefs = [0i32; 64];
        for i in 1..64 {
            if live_rows & (1 << (i / 8)) != 0 && keep[i] != 0 {
                coefs[i] = if extreme { values[i].signum() * AC_MAX } else { values[i] };
            }
        }
        coefs[0] = dc;
        assert_borders_match_oracle(&coefs);
    }
}
