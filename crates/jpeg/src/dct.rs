//! 8x8 DCT transforms.
//!
//! Three pieces with different jobs:
//!
//! * [`idct_i32_scalar`] — a fixed-point inverse DCT over `i64`
//!   accumulators with an embedded integer basis table. Lepton's DC
//!   prediction (App. A.2.3) reconstructs block pixels from AC
//!   coefficients *inside the entropy coder*, so this math must be
//!   bit-for-bit deterministic across platforms and thread counts;
//!   integer math guarantees that. It is the oracle the codec's border
//!   transform is tested against.
//! * [`idct_ac_borders`] — what the codec actually runs per block: one
//!   separable pass over the AC coefficients that yields only the 48
//!   border pixels the predictors read, as unshifted accumulators so
//!   the DC term can be added after it has been decoded.
//! * [`fdct_f32`] — a float forward DCT used only by the pixel-level
//!   encoder when synthesizing corpus files (the resulting coefficients
//!   are integers after quantization, so float here is harmless).
//!
//! The fixed-point basis is `BASIS_FIX[x][u] = round(2^13 · C(u)/2 ·
//! cos((2x+1)uπ/16))`, the exact orthonormal basis from T.81 §A.3.3.

/// Fractional bits in [`BASIS_FIX`].
pub const SCALE_BITS: u32 = 13;

/// Fixed-point DCT basis: `BASIS_FIX[x][u]` ≈ `2^13 · C(u)/2 · cos((2x+1)uπ/16)`.
pub const BASIS_FIX: [[i32; 8]; 8] = [
    [2896, 4017, 3784, 3406, 2896, 2276, 1567, 799],
    [2896, 3406, 1567, -799, -2896, -4017, -3784, -2276],
    [2896, 2276, -1567, -4017, -2896, 799, 3784, 3406],
    [2896, 799, -3784, -2276, 2896, 3406, -1567, -4017],
    [2896, -799, -3784, 2276, 2896, -3406, -1567, 4017],
    [2896, -2276, -1567, 4017, -2896, -799, 3784, -3406],
    [2896, -3406, 1567, 799, -2896, 4017, -3784, 2276],
    [2896, -4017, 3784, -3406, 2896, -2276, 1567, -799],
];

/// Inverse DCT, fixed point.
///
/// `coefs` are *dequantized* coefficients in raster order (`coefs[v*8+u]`
/// where `u` is horizontal frequency). The result is pixel values in
/// raster order (`out[y*8+x]`), **without** the +128 level shift, scaled
/// by `2^SCALE_BITS` — callers keep the extra precision (the DC predictor
/// compares sub-pixel gradients).
pub fn idct_i32_scalar(coefs: &[i32; 64]) -> [i64; 64] {
    // tmp[v][x] = Σ_u M[x][u] · F[v][u]
    let mut tmp = [0i64; 64];
    for v in 0..8 {
        for x in 0..8 {
            let mut acc = 0i64;
            for u in 0..8 {
                acc += BASIS_FIX[x][u] as i64 * coefs[v * 8 + u] as i64;
            }
            tmp[v * 8 + x] = acc;
        }
    }
    // out[y][x] = Σ_v M[y][v] · tmp[v][x], renormalizing one scale factor.
    let mut out = [0i64; 64];
    for y in 0..8 {
        for x in 0..8 {
            let mut acc = 0i64;
            for v in 0..8 {
                acc += BASIS_FIX[y][v] as i64 * tmp[v * 8 + x];
            }
            out[y * 8 + x] = acc >> SCALE_BITS;
        }
    }
    out
}

/// What one dequantized DC unit adds to every pixel accumulator of
/// [`idct_i32_scalar`] before the final shift: the DC basis is flat, so
/// `M[x][0] · M[y][0]` is the same `2896²` at every `(x, y)`.
pub const DC_ACC_GAIN: i64 = (BASIS_FIX[0][0] as i64) * (BASIS_FIX[0][0] as i64);

/// Border pixels of a block's AC part, as *unshifted* accumulators.
///
/// For border position `(x, y)` the full transform's pixel is exactly
/// `(acc + DC_ACC_GAIN · dc) >> SCALE_BITS`, and the AC-only pixel the
/// DC predictor reads is `acc >> SCALE_BITS` — one pass serves both the
/// prediction of this block's DC (top-left borders) and the edges later
/// neighbours consult (bottom-right borders, once the DC is known).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AcBorders {
    /// Pixel rows 0, 1, 6, 7 (in that order), all eight `x`.
    pub rows: [[i64; 8]; 4],
    /// Pixel columns 0, 1, 6, 7 (in that order), all eight `y`.
    pub cols: [[i64; 8]; 4],
}

/// The four border rows/columns [`AcBorders`] holds.
const BORDER: [usize; 4] = [0, 1, 6, 7];

/// Separable inverse DCT of the AC coefficients of `deq` (slot 0, the
/// DC, is ignored), evaluated only at the border pixels.
///
/// Sparsity-aware: baseline photo blocks carry a handful of
/// low-frequency coefficients, so zero coefficients and all-zero
/// coefficient rows are skipped (exact — they add nothing). The basis
/// is mirror-symmetric, `M[7-y][v] = (-1)^v · M[y][v]`, so the sums over
/// even and odd coefficient rows are kept apart for `y < 4` and the
/// mirrored half falls out as their difference.
pub fn idct_ac_borders(deq: &[i32; 64]) -> AcBorders {
    // parity[v & 1][y][x] = Σ_{v of that parity} M[y][v] · tmp[v][x],
    // for y in 0..4; rows 2 and 3 are only needed at the border columns.
    let mut parity = [[[0i64; 8]; 4]; 2];
    for v in 0..8 {
        let mut tmp = [0i64; 8];
        let mut live = false;
        for u in (v == 0) as usize..8 {
            let c = deq[v * 8 + u] as i64;
            if c != 0 {
                live = true;
                for x in 0..8 {
                    tmp[x] += BASIS_FIX[x][u] as i64 * c;
                }
            }
        }
        if !live {
            continue;
        }
        let acc = &mut parity[v & 1];
        for y in 0..2 {
            let m = BASIS_FIX[y][v] as i64;
            for x in 0..8 {
                acc[y][x] += m * tmp[x];
            }
        }
        for y in 2..4 {
            let m = BASIS_FIX[y][v] as i64;
            for x in BORDER {
                acc[y][x] += m * tmp[x];
            }
        }
    }
    let [even, odd] = parity;
    let mut out = AcBorders {
        rows: [[0; 8]; 4],
        cols: [[0; 8]; 4],
    };
    for y in 0..2 {
        for x in 0..8 {
            out.rows[y][x] = even[y][x] + odd[y][x];
            out.rows[3 - y][x] = even[y][x] - odd[y][x];
        }
    }
    for (i, x) in BORDER.into_iter().enumerate() {
        for y in 0..4 {
            out.cols[i][y] = even[y][x] + odd[y][x];
            out.cols[i][7 - y] = even[y][x] - odd[y][x];
        }
    }
    out
}

/// 1-D inverse DCT of an 8-vector (fixed point, result scaled by
/// `2^SCALE_BITS`). Used by the Lakhani edge predictor, which works on
/// single rows/columns of coefficients.
pub fn idct1d_i32(coefs: &[i32; 8]) -> [i64; 8] {
    let mut out = [0i64; 8];
    for (x, o) in out.iter_mut().enumerate() {
        let mut acc = 0i64;
        for u in 0..8 {
            acc += BASIS_FIX[x][u] as i64 * coefs[u] as i64;
        }
        *o = acc;
    }
    out
}

/// Forward DCT (float). `pixels` are level-shifted samples (−128..127) in
/// raster order; returns unquantized coefficients in raster order.
pub fn fdct_f32(pixels: &[f32; 64]) -> [f32; 64] {
    // F[v][u] = Σ_y Σ_x M[x][u] M[y][v] p[y][x], with M the orthonormal
    // basis; forward is the transpose pairing of the inverse.
    let mut basis = [[0f32; 8]; 8];
    for x in 0..8 {
        for u in 0..8 {
            basis[x][u] = BASIS_FIX[x][u] as f32 / (1 << SCALE_BITS) as f32;
        }
    }
    let mut tmp = [0f32; 64]; // tmp[y][u] = Σ_x M[x][u] p[y][x]
    for y in 0..8 {
        for u in 0..8 {
            let mut acc = 0f32;
            for x in 0..8 {
                acc += basis[x][u] * pixels[y * 8 + x];
            }
            tmp[y * 8 + u] = acc;
        }
    }
    let mut out = [0f32; 64];
    for v in 0..8 {
        for u in 0..8 {
            let mut acc = 0f32;
            for y in 0..8 {
                acc += basis[y][v] * tmp[y * 8 + u];
            }
            out[v * 8 + u] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_row_norms() {
        // Each basis column u has norm 1/2 in float terms: Σ_x M[x][u]^2 = 1/4·8·(...)
        // With the orthonormal T.81 scaling, Σ_x M[x][u]² == 1.
        for u in 0..8 {
            let s: f64 = (0..8)
                .map(|x| {
                    let m = BASIS_FIX[x][u] as f64 / (1 << SCALE_BITS) as f64;
                    m * m
                })
                .sum();
            assert!((s - 1.0).abs() < 1e-3, "u={u}: {s}");
        }
    }

    #[test]
    fn basis_orthogonality() {
        for u1 in 0..8 {
            for u2 in (u1 + 1)..8 {
                let s: f64 = (0..8)
                    .map(|x| {
                        BASIS_FIX[x][u1] as f64 * BASIS_FIX[x][u2] as f64
                            / ((1u64 << (2 * SCALE_BITS)) as f64)
                    })
                    .sum();
                assert!(s.abs() < 1e-3, "u1={u1} u2={u2}: {s}");
            }
        }
    }

    /// Every border pixel of the oracle, with and without the DC term,
    /// from the one AC pass.
    fn assert_borders_match(coefs: &[i32; 64], what: &str) {
        let full = idct_i32_scalar(coefs);
        let mut ac = *coefs;
        ac[0] = 0;
        let ac_only = idct_i32_scalar(&ac);
        let b = idct_ac_borders(coefs);
        let dc = DC_ACC_GAIN * coefs[0] as i64;
        for (i, edge) in BORDER.into_iter().enumerate() {
            for k in 0..8 {
                for (acc, at) in [(b.rows[i][k], edge * 8 + k), (b.cols[i][k], k * 8 + edge)] {
                    assert_eq!(acc >> SCALE_BITS, ac_only[at], "{what}: AC-only at {at}");
                    assert_eq!(
                        (acc + dc) >> SCALE_BITS,
                        full[at],
                        "{what}: with DC at {at}"
                    );
                }
            }
        }
    }

    /// Exhaustive sparse-pattern equivalence: every 256-way row-liveness
    /// mask (all-dead rows included), with pseudo-random magnitudes up
    /// to the extreme dequantized values (≈ ±2^31).
    #[test]
    fn ac_borders_match_full_idct_for_every_row_mask() {
        const EXTREME: i32 = 2_146_435_072; // > any real dequantized coef
        let mut x = 0xD1B5_4A32_D192_ED03u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for mask in 0..256usize {
            for variant in 0..3 {
                let mut coefs = [0i32; 64];
                for v in (0..8).filter(|v| mask & (1 << v) != 0) {
                    for u in 0..8 {
                        let r = rand();
                        coefs[v * 8 + u] = match variant {
                            // Dense row, moderate magnitudes.
                            0 => ((r >> 8) % 4095) as i32 - 2047,
                            // Sparse within the row (u-holes), extremes.
                            1 if r % 3 == 0 => [EXTREME, -EXTREME][(r & 1) as usize],
                            1 => 0,
                            // Single hot coefficient per live row.
                            _ if u == (r % 8) as usize => ((r >> 20) % 65535) as i32 - 32767,
                            _ => 0,
                        };
                    }
                }
                assert_borders_match(&coefs, &format!("mask={mask:#b} variant={variant}"));
            }
        }
    }

    #[test]
    fn dc_only_block_is_flat() {
        let mut coefs = [0i32; 64];
        coefs[0] = 64; // DC
        let px = idct_i32_scalar(&coefs);
        let expect = px[0];
        assert!(px.iter().all(|&p| (p - expect).abs() <= 1));
        // DC of 64 (dequantized) → pixel value 64/8 = 8 (scaled by 2^13).
        let approx = expect as f64 / (1 << SCALE_BITS) as f64;
        assert!((approx - 8.0).abs() < 0.01, "{approx}");
    }

    #[test]
    fn fdct_idct_roundtrip() {
        // A smooth ramp: fdct then idct recovers pixels closely.
        let mut px = [0f32; 64];
        for y in 0..8 {
            for x in 0..8 {
                px[y * 8 + x] = (x as f32) * 4.0 + (y as f32) * 2.0 - 30.0;
            }
        }
        let f = fdct_f32(&px);
        let mut coefs = [0i32; 64];
        for i in 0..64 {
            coefs[i] = f[i].round() as i32;
        }
        let back = idct_i32_scalar(&coefs);
        for i in 0..64 {
            let b = back[i] as f64 / (1 << SCALE_BITS) as f64;
            assert!((b - px[i] as f64).abs() < 1.0, "i={i} {b} vs {}", px[i]);
        }
    }

    #[test]
    fn idct1d_constant() {
        let mut c = [0i32; 8];
        c[0] = 128;
        let p = idct1d_i32(&c);
        // DC basis value: 128 · 2896 for every x.
        assert!(p.iter().all(|&v| v == 128 * 2896));
    }

    #[test]
    fn idct_linearity() {
        let mut a = [0i32; 64];
        let mut b = [0i32; 64];
        for i in 0..64 {
            a[i] = ((i * 7) % 23) as i32 - 11;
            b[i] = ((i * 13) % 31) as i32 - 15;
        }
        let mut sum = [0i32; 64];
        for i in 0..64 {
            sum[i] = a[i] + b[i];
        }
        let pa = idct_i32_scalar(&a);
        let pb = idct_i32_scalar(&b);
        let ps = idct_i32_scalar(&sum);
        for i in 0..64 {
            // >> truncation makes this off by at most 1 ULP.
            assert!((pa[i] + pb[i] - ps[i]).abs() <= 1);
        }
    }
}
