//! Generic LZ codecs standing in for the Zstandard and LZMA classes.
//!
//! Both reuse the hash-chain matcher from `lepton-deflate`; they differ
//! in the entropy stage, which is exactly the axis the real codecs
//! differ on: Zstandard favors byte-oriented speed, LZMA spends CPU on
//! adaptive range coding for density. On JPEG bodies both achieve ≈0%
//! (Fig. 2's point about generic codecs).

use crate::codec::{varint, Codec, CodecError};
use lepton_arith::{BoolDecoder, BoolEncoder, Branch, Coder, SliceSource};
use lepton_deflate::lz77::{Matcher, MatcherConfig, Token};
use lepton_model::bins::{grid, Fresh};
use lepton_model::coef_coder::code_tree;

/// Fast byte-oriented LZ (Zstandard speed class): tokens are emitted in
/// a simple tagged byte stream with varint lengths — no bit-level
/// entropy stage at all, trading ratio for speed.
#[derive(Clone, Copy, Debug, Default)]
pub struct LzFastCodec;

impl Codec for LzFastCodec {
    fn name(&self) -> &'static str {
        "LZ-Fast (Zstd-class)"
    }

    fn encode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut m = Matcher::new(MatcherConfig::FAST);
        let mut tokens = Vec::new();
        m.tokenize(data, 0, data.len(), &mut tokens);
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        varint::put(&mut out, data.len() as u32);
        // Batch literals: (literal run length, literals, match len, dist).
        let mut i = 0;
        while i < tokens.len() {
            let lit_start = i;
            while i < tokens.len() && matches!(tokens[i], Token::Literal(_)) {
                i += 1;
            }
            let nlits = i - lit_start;
            varint::put(&mut out, nlits as u32);
            for t in &tokens[lit_start..i] {
                if let Token::Literal(b) = t {
                    out.push(*b);
                }
            }
            if i < tokens.len() {
                if let Token::Match { len, dist } = tokens[i] {
                    varint::put(&mut out, len as u32);
                    varint::put(&mut out, dist as u32);
                }
                i += 1;
            } else {
                varint::put(&mut out, 0); // no trailing match
                varint::put(&mut out, 0);
            }
        }
        if tokens.is_empty() {
            varint::put(&mut out, 0);
            varint::put(&mut out, 0);
            varint::put(&mut out, 0);
        }
        Ok(out)
    }

    fn decode(&self, data: &[u8], _size_hint: usize) -> Result<Vec<u8>, CodecError> {
        let mut pos = 0usize;
        let total = varint::get(data, &mut pos)? as usize;
        if total > (1 << 30) {
            return Err(CodecError::Corrupt);
        }
        let mut out = Vec::with_capacity(total);
        while out.len() < total {
            let nlits = varint::get(data, &mut pos)? as usize;
            if pos + nlits > data.len() || out.len() + nlits > total {
                return Err(CodecError::Corrupt);
            }
            out.extend_from_slice(&data[pos..pos + nlits]);
            pos += nlits;
            if out.len() == total {
                break;
            }
            let len = varint::get(data, &mut pos)? as usize;
            let dist = varint::get(data, &mut pos)? as usize;
            if len == 0 {
                continue;
            }
            if dist == 0 || dist > out.len() || out.len() + len > total {
                return Err(CodecError::Corrupt);
            }
            let start = out.len() - dist;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
        Ok(out)
    }
}

/// LZ with adaptive range-coded entropy (LZMA class): literals are coded
/// bit-by-bit under an order-1 context, lengths/distances under their
/// own adaptive trees. Denser and much slower than [`LzFastCodec`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RangeLzCodec;

struct LitModel {
    /// Order-1 bitwise contexts: [prev byte][tree node].
    bins: Box<[[Branch; 256]; 256]>,
}

impl LitModel {
    fn new() -> Self {
        LitModel { bins: grid() }
    }

    /// Code `byte` (ignored when decoding) after `prev`; returns the
    /// byte coded.
    fn code<C: Coder>(&mut self, c: &mut C, prev: u8, byte: u8) -> u8 {
        code_tree(c, byte as u32, 8, &mut self.bins[prev as usize]) as u8
    }
}

/// Adaptive Exp-Golomb-ish coder for lengths/distances.
struct NumModel {
    /// Unary exponent: [pos].
    exp: [Branch; 32],
    /// Bits below the leading one: [pos].
    bits: [Branch; 32],
}

impl NumModel {
    fn new() -> Self {
        NumModel {
            exp: Fresh::fresh(),
            bits: Fresh::fresh(),
        }
    }

    /// Code `v >= 1` (ignored when decoding); returns the value coded,
    /// 0 for a stream no encoder wrote.
    fn code<C: Coder>(&mut self, c: &mut C, v: u32) -> u32 {
        let len = 32 - v.leading_zeros();
        let mut n = 0u32;
        while n < 31 && c.code(len > n, &mut self.exp[n as usize]) {
            n += 1;
        }
        if n == 0 {
            return 0;
        }
        let mut out = 1u32 << (n - 1);
        for j in (0..n - 1).rev() {
            if c.code((v >> j) & 1 == 1, &mut self.bits[j as usize]) {
                out |= 1 << j;
            }
        }
        out
    }
}

impl Codec for RangeLzCodec {
    fn name(&self) -> &'static str {
        "Range-LZ (LZMA-class)"
    }

    fn encode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut m = Matcher::new(MatcherConfig::BEST);
        let mut tokens = Vec::new();
        m.tokenize(data, 0, data.len(), &mut tokens);
        let mut enc = BoolEncoder::new();
        let mut is_match = Branch::new();
        let mut lits = LitModel::new();
        let mut lens = NumModel::new();
        let mut dists = NumModel::new();
        let mut prev = 0u8;
        let mut pos = 0usize;
        for t in &tokens {
            match *t {
                Token::Literal(b) => {
                    enc.put(false, &mut is_match);
                    lits.code(&mut enc, prev, b);
                    prev = b;
                    pos += 1;
                }
                Token::Match { len, dist } => {
                    enc.put(true, &mut is_match);
                    lens.code(&mut enc, len as u32);
                    dists.code(&mut enc, dist as u32);
                    pos += len as usize;
                    prev = data[pos - 1];
                }
            }
        }
        let mut out = Vec::new();
        varint::put(&mut out, data.len() as u32);
        out.extend(enc.finish());
        Ok(out)
    }

    fn decode(&self, data: &[u8], _size_hint: usize) -> Result<Vec<u8>, CodecError> {
        let mut pos = 0usize;
        let total = varint::get(data, &mut pos)? as usize;
        if total > (1 << 30) {
            return Err(CodecError::Corrupt);
        }
        let mut dec = BoolDecoder::new(SliceSource::new(&data[pos..]));
        let mut is_match = Branch::new();
        let mut lits = LitModel::new();
        let mut lens = NumModel::new();
        let mut dists = NumModel::new();
        let mut out = Vec::with_capacity(total);
        let mut prev = 0u8;
        while out.len() < total {
            if dec.get(&mut is_match) {
                let len = lens.code(&mut dec, 0) as usize;
                let dist = dists.code(&mut dec, 0) as usize;
                if len == 0 || dist == 0 || dist > out.len() || out.len() + len > total {
                    return Err(CodecError::Corrupt);
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
                prev = *out.last().expect("nonempty");
            } else {
                let b = lits.code(&mut dec, prev, 0);
                out.push(b);
                prev = b;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_inputs() -> Vec<Vec<u8>> {
        let mut x = 0x243F_6A88u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        };
        vec![
            vec![],
            b"a".to_vec(),
            b"abcabcabcabc".repeat(100),
            (0..10_000).map(|_| rand()).collect(),
            b"the quick brown fox ".repeat(500),
            vec![0u8; 50_000],
        ]
    }

    #[test]
    fn lz_fast_roundtrip() {
        let c = LzFastCodec;
        for data in sample_inputs() {
            let e = c.encode(&data).unwrap();
            assert_eq!(c.decode(&e, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn range_lz_roundtrip() {
        let c = RangeLzCodec;
        for data in sample_inputs() {
            let e = c.encode(&data).unwrap();
            assert_eq!(c.decode(&e, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn range_lz_denser_than_fast_on_text() {
        let data = b"compression ratio comparison text ".repeat(300);
        let fast = LzFastCodec.encode(&data).unwrap();
        let dense = RangeLzCodec.encode(&data).unwrap();
        assert!(
            dense.len() < fast.len(),
            "range {} vs fast {}",
            dense.len(),
            fast.len()
        );
    }

    #[test]
    fn both_near_zero_on_high_entropy() {
        // The Fig. 2 property: generic codecs cannot compress
        // already-compressed (high-entropy) data.
        let mut x = 0x9E37_79B9u64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let fast = LzFastCodec.encode(&data).unwrap();
        let dense = RangeLzCodec.encode(&data).unwrap();
        assert!(fast.len() as f64 > data.len() as f64 * 0.98);
        assert!(dense.len() as f64 > data.len() as f64 * 0.98);
    }

    #[test]
    fn corrupt_streams_rejected() {
        let c = RangeLzCodec;
        let data = b"roundtrip me".repeat(50);
        let mut e = c.encode(&data).unwrap();
        e.truncate(4);
        // Either errors or yields wrong bytes; must not panic.
        let _ = c.decode(&e, data.len());
        assert!(LzFastCodec
            .decode(&[0xFF, 0xFF, 0xFF, 0xFF, 0x7F], 10)
            .is_err());
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u32, 1, 127, 128, 300, 65535, 1 << 20, u32::MAX >> 4] {
            let mut buf = Vec::new();
            varint::put(&mut buf, v);
            let mut pos = 0;
            assert_eq!(varint::get(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }
}
