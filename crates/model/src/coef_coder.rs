//! Exp-Golomb binarization against adaptive bins (App. A.2: "unary
//! exponent, then sign bit, then residual bits").
//!
//! A value `v` is sent as: the bit length of `|v|` in unary (each unary
//! position has its own bin from the caller's context row), then the
//! sign (its own bin), then the `len-1` residual bits below the implicit
//! leading one (per-position bins).

use lepton_arith::{BoolDecoder, BoolEncoder, Branch, ByteSource};

/// Encode `v` with `|v| < 2^max_exp`.
///
/// `exp_bins` must hold at least `max_exp` bins, `resid_bins` at least
/// `max_exp - 1`.
pub fn encode_value(
    enc: &mut BoolEncoder,
    v: i32,
    max_exp: usize,
    exp_bins: &mut [Branch],
    sign_bin: &mut Branch,
    resid_bins: &mut [Branch],
) {
    let mag = v.unsigned_abs();
    let exp = (32 - mag.leading_zeros()) as usize;
    assert!(
        exp <= max_exp,
        "value {v} exceeds Exp-Golomb range 2^{max_exp}"
    );
    assert!(exp_bins.len() >= max_exp);
    for i in 0..max_exp {
        let more = exp > i;
        enc.put(more, &mut exp_bins[i]);
        if !more {
            break;
        }
    }
    if exp == 0 {
        return;
    }
    enc.put(v < 0, sign_bin);
    if exp > 1 {
        let resid = mag - (1 << (exp - 1));
        for j in (0..exp - 1).rev() {
            enc.put((resid >> j) & 1 == 1, &mut resid_bins[j]);
        }
    }
}

/// Decode a value encoded by [`encode_value`] with the same parameters.
pub fn decode_value<S: ByteSource>(
    dec: &mut BoolDecoder<S>,
    max_exp: usize,
    exp_bins: &mut [Branch],
    sign_bin: &mut Branch,
    resid_bins: &mut [Branch],
) -> i32 {
    assert!(exp_bins.len() >= max_exp);
    let mut exp = 0usize;
    for i in 0..max_exp {
        if dec.get(&mut exp_bins[i]) {
            exp = i + 1;
        } else {
            break;
        }
    }
    if exp == 0 {
        return 0;
    }
    let neg = dec.get(sign_bin);
    let mut mag = 1u32 << (exp - 1);
    if exp > 1 {
        for j in (0..exp - 1).rev() {
            if dec.get(&mut resid_bins[j]) {
                mag |= 1 << j;
            }
        }
    }
    if neg {
        -(mag as i32)
    } else {
        mag as i32
    }
}

/// Encode a small unsigned value (< 2^bits) through a binary-tree of
/// bins: `tree` must hold `2^bits` bins; node 1 is the root.
pub fn encode_tree(enc: &mut BoolEncoder, v: u32, bits: usize, tree: &mut [Branch]) {
    debug_assert!(v < (1 << bits));
    debug_assert!(tree.len() >= (1 << bits));
    let mut node = 1usize;
    for i in (0..bits).rev() {
        let bit = (v >> i) & 1 == 1;
        enc.put(bit, &mut tree[node]);
        node = node * 2 + bit as usize;
    }
}

/// Decode a value encoded with [`encode_tree`].
pub fn decode_tree<S: ByteSource>(
    dec: &mut BoolDecoder<S>,
    bits: usize,
    tree: &mut [Branch],
) -> u32 {
    debug_assert!(tree.len() >= (1 << bits));
    let mut node = 1usize;
    let mut v = 0u32;
    for _ in 0..bits {
        let bit = dec.get(&mut tree[node]);
        v = (v << 1) | bit as u32;
        node = node * 2 + bit as usize;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use lepton_arith::SliceSource;

    fn roundtrip_values(vals: &[i32], max_exp: usize) {
        let mut enc = BoolEncoder::new();
        let mut exp = vec![Branch::new(); max_exp];
        let mut sign = Branch::new();
        let mut resid = vec![Branch::new(); max_exp];
        for &v in vals {
            encode_value(&mut enc, v, max_exp, &mut exp, &mut sign, &mut resid);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let mut exp = vec![Branch::new(); max_exp];
        let mut sign = Branch::new();
        let mut resid = vec![Branch::new(); max_exp];
        for &v in vals {
            assert_eq!(
                decode_value(&mut dec, max_exp, &mut exp, &mut sign, &mut resid),
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
    #[should_panic(expected = "exceeds Exp-Golomb range")]
    fn out_of_range_panics() {
        let mut enc = BoolEncoder::new();
        let mut exp = vec![Branch::new(); 4];
        let mut sign = Branch::new();
        let mut resid = vec![Branch::new(); 4];
        encode_value(&mut enc, 16, 4, &mut exp, &mut sign, &mut resid);
    }

    #[test]
    fn skewed_values_compress() {
        // Mostly zeros: adaptive exp bins should drive the cost far
        // below 1 bit per value.
        let vals: Vec<i32> = (0..10_000)
            .map(|i| if i % 50 == 0 { 3 } else { 0 })
            .collect();
        let mut enc = BoolEncoder::new();
        let mut exp = vec![Branch::new(); 11];
        let mut sign = Branch::new();
        let mut resid = vec![Branch::new(); 11];
        for &v in &vals {
            encode_value(&mut enc, v, 11, &mut exp, &mut sign, &mut resid);
        }
        let bytes = enc.finish();
        assert!(bytes.len() < 10_000 / 8, "got {} bytes", bytes.len());
    }

    #[test]
    fn tree_roundtrip() {
        let mut enc = BoolEncoder::new();
        let mut tree = vec![Branch::new(); 64];
        let vals: Vec<u32> = (0..200).map(|i| (i * 7) % 50).collect();
        for &v in &vals {
            encode_tree(&mut enc, v, 6, &mut tree);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let mut tree = vec![Branch::new(); 64];
        for &v in &vals {
            assert_eq!(decode_tree(&mut dec, 6, &mut tree), v);
        }
    }

    #[test]
    fn tree_3bit() {
        let mut enc = BoolEncoder::new();
        let mut tree = vec![Branch::new(); 8];
        for v in 0..8u32 {
            encode_tree(&mut enc, v, 3, &mut tree);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let mut tree = vec![Branch::new(); 8];
        for v in 0..8u32 {
            assert_eq!(decode_tree(&mut dec, 3, &mut tree), v);
        }
    }
}
