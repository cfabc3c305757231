//! Exp-Golomb binarization against adaptive bins (App. A.2: "unary
//! exponent, then sign bit, then residual bits").
//!
//! A value `v` is sent as: the bit length of `|v|` in unary (each unary
//! position has its own bin from the caller's context row), then the
//! sign (its own bin), then the `len-1` residual bits below the implicit
//! leading one (per-position bins).
//!
//! Both coders are one walk for both directions ([`Coder`]): each takes
//! the value to encode (ignored when decoding) and returns the value
//! coded.

use lepton_arith::{Branch, Coder};

/// Does `v` lie in the range [`code_value`] codes at `max_exp`, that is
/// `|v| < 2^max_exp`? The one definition of that range: a walk whose
/// input can leave it checks with this before it codes, and refuses.
#[inline(always)]
pub fn fits(v: i32, max_exp: usize) -> bool {
    // The bit length of `|v|`, the expression `code_value` codes.
    (32 - v.unsigned_abs().leading_zeros()) as usize <= max_exp
}

/// Code `v` with `|v| < 2^max_exp` (see [`fits`]); returns the value
/// coded.
///
/// `exp_bins` must hold at least `max_exp` bins, `resid_bins` at least
/// `max_exp - 1`. An encoder's `v` out of range is a caller bug and
/// panics; a decoder ignores `v`, whatever its range, and reads at most
/// `max_exp` unary bits.
// Inlined at every call site so that `max_exp` is a constant there:
// out of line, one copy served all three of the block walk's call
// sites and decode ran about 8 % slower than with a specialised copy.
#[inline(always)]
pub fn code_value<C: Coder>(
    c: &mut C,
    v: i32,
    max_exp: usize,
    exp_bins: &mut [Branch],
    sign_bin: &mut Branch,
    resid_bins: &mut [Branch],
) -> i32 {
    if C::ENCODES {
        assert!(
            fits(v, max_exp),
            "value {v} exceeds Exp-Golomb range 2^{max_exp}"
        );
    }
    let mag = v.unsigned_abs();
    let len = (32 - mag.leading_zeros()) as usize;
    assert!(exp_bins.len() >= max_exp);
    let mut exp = 0usize;
    while exp < max_exp && c.code(len > exp, &mut exp_bins[exp]) {
        exp += 1;
    }
    if exp == 0 {
        return 0;
    }
    let neg = c.code(v < 0, sign_bin);
    let mut out = 1u32 << (exp - 1);
    for j in (0..exp - 1).rev() {
        if c.code((mag >> j) & 1 == 1, &mut resid_bins[j]) {
            out |= 1 << j;
        }
    }
    if neg {
        -(out as i32)
    } else {
        out as i32
    }
}

/// Code a small unsigned value (< 2^bits) through a binary tree of
/// bins: `tree` must hold `2^bits` bins; node 1 is the root. Returns
/// the value coded.
pub fn code_tree<C: Coder>(c: &mut C, v: u32, bits: usize, tree: &mut [Branch]) -> u32 {
    debug_assert!(v < (1 << bits));
    debug_assert!(tree.len() >= (1 << bits));
    let mut node = 1usize;
    for i in (0..bits).rev() {
        let bit = c.code((v >> i) & 1 == 1, &mut tree[node]);
        node = node * 2 + bit as usize;
    }
    // `node` is now `2^bits + value`.
    (node - (1 << bits)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use lepton_arith::{BoolDecoder, BoolEncoder, SliceSource};

    /// `code_value` bins sized for `max_exp`.
    fn bins(max_exp: usize) -> (Vec<Branch>, Branch, Vec<Branch>) {
        (
            vec![Branch::new(); max_exp],
            Branch::new(),
            vec![Branch::new(); max_exp],
        )
    }

    fn roundtrip_values(vals: &[i32], max_exp: usize) {
        let mut enc = BoolEncoder::new();
        let (mut exp, mut sign, mut resid) = bins(max_exp);
        for &v in vals {
            assert_eq!(
                code_value(&mut enc, v, max_exp, &mut exp, &mut sign, &mut resid),
                v
            );
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let (mut exp, mut sign, mut resid) = bins(max_exp);
        for &v in vals {
            assert_eq!(
                code_value(&mut dec, 0, max_exp, &mut exp, &mut sign, &mut resid),
                v
            );
        }
    }

    #[test]
    fn zero_and_small() {
        roundtrip_values(&[0, 1, -1, 2, -2, 3, -3, 0, 0, 7, -8], 11);
    }

    #[test]
    fn full_ac_range() {
        let vals: Vec<i32> = (-1023..=1023).collect();
        roundtrip_values(&vals, 11);
    }

    #[test]
    fn extremes() {
        roundtrip_values(&[2047, -2047, 1024, -1024], 11);
        roundtrip_values(&[4095, -4095, 8191, -8191], 13);
    }

    #[test]
    fn fits_is_the_coded_range() {
        assert!(fits(8191, 13) && fits(-8191, 13) && fits(0, 0));
        assert!(!fits(8192, 13) && !fits(-8192, 13) && !fits(i32::MIN, 13));
    }

    #[test]
    #[should_panic(expected = "exceeds Exp-Golomb range")]
    fn out_of_range_panics() {
        let mut enc = BoolEncoder::new();
        let (mut exp, mut sign, mut resid) = bins(4);
        code_value(&mut enc, 16, 4, &mut exp, &mut sign, &mut resid);
    }

    #[test]
    fn decoder_ignores_an_out_of_range_placeholder() {
        // A walk may form its placeholder from decoded state (a running
        // DC), so a decoder must not range-check what it ignores.
        let mut enc = BoolEncoder::new();
        let (mut exp, mut sign, mut resid) = bins(4);
        code_value(&mut enc, 15, 4, &mut exp, &mut sign, &mut resid);
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let (mut exp, mut sign, mut resid) = bins(4);
        let v = code_value(&mut dec, -1 << 20, 4, &mut exp, &mut sign, &mut resid);
        assert_eq!(v, 15);
    }

    #[test]
    fn skewed_values_compress() {
        // Mostly zeros: adaptive exp bins should drive the cost far
        // below 1 bit per value.
        let mut enc = BoolEncoder::new();
        let (mut exp, mut sign, mut resid) = bins(11);
        for i in 0..10_000 {
            let v = if i % 50 == 0 { 3 } else { 0 };
            code_value(&mut enc, v, 11, &mut exp, &mut sign, &mut resid);
        }
        let bytes = enc.finish();
        assert!(bytes.len() < 10_000 / 8, "got {} bytes", bytes.len());
    }

    fn roundtrip_tree(vals: &[u32], bits: usize) {
        let mut enc = BoolEncoder::new();
        let mut tree = vec![Branch::new(); 1 << bits];
        for &v in vals {
            assert_eq!(code_tree(&mut enc, v, bits, &mut tree), v);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let mut tree = vec![Branch::new(); 1 << bits];
        for &v in vals {
            assert_eq!(code_tree(&mut dec, 0, bits, &mut tree), v);
        }
    }

    #[test]
    fn tree_roundtrip() {
        let vals: Vec<u32> = (0..200).map(|i| (i * 7) % 50).collect();
        roundtrip_tree(&vals, 6);
    }

    #[test]
    fn tree_3bit() {
        roundtrip_tree(&(0..8).collect::<Vec<_>>(), 3);
    }
}
