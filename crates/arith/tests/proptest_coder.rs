//! Property tests for the range coder: any sequence of (bit, context)
//! pairs must round-trip exactly, under adaptive and fixed probabilities.

use lepton_arith::{BoolDecoder, BoolEncoder, Branch, Coder, SliceSource};
use proptest::prelude::*;

/// The low `n` bits of `v`, most-significant first, each at probability
/// 1/2; returns the value coded.
fn code_bits(c: &mut impl Coder, v: u32, n: u32) -> u32 {
    (0..n).rev().fold(0, |acc, i| {
        acc << 1 | c.code_uniform((v >> i) & 1 == 1) as u32
    })
}

proptest! {
    #[test]
    fn adaptive_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..4096)) {
        let mut enc = BoolEncoder::new();
        let mut b = Branch::new();
        for &bit in &bits {
            enc.put(bit, &mut b);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let mut b = Branch::new();
        for &bit in &bits {
            prop_assert_eq!(dec.get(&mut b), bit);
        }
    }

    #[test]
    fn multi_context_roundtrip(
        items in proptest::collection::vec((any::<bool>(), 0usize..16), 0..2048)
    ) {
        let mut enc = BoolEncoder::new();
        let mut bins = [Branch::new(); 16];
        for &(bit, ctx) in &items {
            enc.put(bit, &mut bins[ctx]);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let mut bins = [Branch::new(); 16];
        for &(bit, ctx) in &items {
            prop_assert_eq!(dec.get(&mut bins[ctx]), bit);
        }
    }

    #[test]
    fn fixed_prob_roundtrip(
        items in proptest::collection::vec((any::<bool>(), 1u16..=65535), 0..2048)
    ) {
        let mut enc = BoolEncoder::new();
        for &(bit, p) in &items {
            enc.put_with_prob(bit, p);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        for &(bit, p) in &items {
            prop_assert_eq!(dec.get_with_prob(p), bit);
        }
    }

    #[test]
    fn uniform_values_roundtrip(
        vals in proptest::collection::vec((any::<u32>(), 1u32..=32), 0..512)
    ) {
        let mut enc = BoolEncoder::new();
        for &(v, n) in &vals {
            let masked = if n == 32 { v } else { v & ((1 << n) - 1) };
            prop_assert_eq!(code_bits(&mut enc, masked, n), masked);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        for &(v, n) in &vals {
            let masked = if n == 32 { v } else { v & ((1 << n) - 1) };
            prop_assert_eq!(code_bits(&mut dec, 0, n), masked);
        }
    }

    #[test]
    fn branch_probability_in_range(obs in proptest::collection::vec(any::<bool>(), 0..10_000)) {
        let mut b = Branch::new();
        for bit in obs {
            b.record(bit);
            let p = b.prob_false();
            prop_assert!((1..=65535).contains(&p));
            let (c0, c1) = b.counts();
            prop_assert!(c0 >= 1 && c1 >= 1);
        }
    }
}
