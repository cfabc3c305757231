//! Bitwise context-mixing byte compressor (the PAQ-class substrate).
//!
//! PAQ8PX (§2) mixes many specialized models; its relevance in the
//! paper's evaluation is (a) best-in-class ratios, (b) extreme slowness,
//! and (c) compressing even the files Lepton rejects. This module is a
//! small, deterministic context mixer over raw bytes: order-0/1/2
//! contexts blended by confidence-weighted averaging. It is used as the
//! [`crate::PaqCodec`] fallback path for non-JPEG data.

use lepton_arith::{BoolDecoder, BoolEncoder, Coder, SliceSource};

/// One counter pair (like `Branch` but exposing confidence).
#[derive(Clone, Copy)]
struct Counter {
    c0: u16,
    c1: u16,
}

impl Counter {
    const fn new() -> Self {
        Counter { c0: 0, c1: 0 }
    }

    fn prob_false_and_weight(&self) -> (u32, u32) {
        let n = (self.c0 + self.c1) as u32;
        if n == 0 {
            return (1 << 15, 0);
        }
        let p = ((self.c0 as u32 * 65536) + n / 2) / (n + 1);
        (p.clamp(1, 65535), n.min(255))
    }

    fn record(&mut self, bit: bool) {
        if bit {
            self.c1 += 1;
            // Non-stationarity: punish the opposite count.
            self.c0 = self.c0 - self.c0 / 4;
        } else {
            self.c0 += 1;
            self.c1 = self.c1 - self.c1 / 4;
        }
        if self.c0 > 60000 || self.c1 > 60000 {
            self.c0 /= 2;
            self.c1 /= 2;
        }
    }
}

const O2_BITS: usize = 16;

/// The mixing model: order-0, order-1, order-2 (hashed) bit predictors.
struct Mixer {
    o0: Vec<Counter>,
    o1: Vec<Counter>,
    o2: Vec<Counter>,
    /// Sliding byte context.
    h1: u8,
    h2: u16,
}

impl Mixer {
    fn new() -> Self {
        Mixer {
            o0: vec![Counter::new(); 256],
            o1: vec![Counter::new(); 256 * 256],
            o2: vec![Counter::new(); (1 << O2_BITS) * 256],
            h1: 0,
            h2: 0,
        }
    }

    fn ctxs(&self, node: usize) -> (usize, usize, usize) {
        let o2h =
            ((self.h2 as usize).wrapping_mul(0x9E3779B1) >> (32 - O2_BITS)) & ((1 << O2_BITS) - 1);
        (node, self.h1 as usize * 256 + node, o2h * 256 + node)
    }

    fn predict(&self, node: usize) -> u16 {
        let (i0, i1, i2) = self.ctxs(node);
        let (p0, w0) = self.o0[i0].prob_false_and_weight();
        let (p1, w1) = self.o1[i1].prob_false_and_weight();
        let (p2, w2) = self.o2[i2].prob_false_and_weight();
        // Confidence-weighted average with a weak uniform prior; higher
        // orders get a 4x voice per observation.
        let num = (1 << 15) as u64
            + (p0 as u64 * w0 as u64)
            + (p1 as u64 * (w1 as u64 * 4))
            + (p2 as u64 * (w2 as u64 * 16));
        let den = 1u64 + w0 as u64 + w1 as u64 * 4 + w2 as u64 * 16;
        ((num / den) as u32).clamp(1, 65535) as u16
    }

    fn update(&mut self, node: usize, bit: bool) {
        let (i0, i1, i2) = self.ctxs(node);
        self.o0[i0].record(bit);
        self.o1[i1].record(bit);
        self.o2[i2].record(bit);
    }

    /// Code one byte (ignored when decoding), most-significant bit
    /// first, and slide it into the context; returns the byte coded.
    fn code_byte<C: Coder>(&mut self, c: &mut C, byte: u8) -> u8 {
        let mut node = 1usize;
        for i in (0..8).rev() {
            let p = self.predict(node);
            let bit = c.code_with_prob((byte >> i) & 1 == 1, p);
            self.update(node, bit);
            node = node * 2 + bit as usize;
        }
        // `node` is now `256 + byte`.
        let byte = node as u8;
        self.h2 = (self.h2 << 8) | self.h1 as u16;
        self.h1 = byte;
        byte
    }
}

/// Compress bytes with the context mixer.
pub fn cm_compress(data: &[u8]) -> Vec<u8> {
    let mut enc = BoolEncoder::new();
    let mut mx = Mixer::new();
    let mut out = Vec::new();
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    for &byte in data {
        mx.code_byte(&mut enc, byte);
    }
    out.extend(enc.finish());
    out
}

/// Decompress [`cm_compress`] output.
pub fn cm_decompress(data: &[u8], max_size: usize) -> Option<Vec<u8>> {
    if data.len() < 4 {
        return None;
    }
    let n = u32::from_le_bytes(data[..4].try_into().expect("4")) as usize;
    if n > max_size {
        return None;
    }
    let mut dec = BoolDecoder::new(SliceSource::new(&data[4..]));
    let mut mx = Mixer::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(mx.code_byte(&mut dec, 0));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various() {
        for data in [
            Vec::new(),
            b"a".to_vec(),
            b"banana banana banana".repeat(50),
            (0u32..5000).map(|i| (i * 37 % 251) as u8).collect(),
        ] {
            let c = cm_compress(&data);
            assert_eq!(cm_decompress(&c, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn beats_nothing_on_text() {
        let data = b"the rain in spain stays mainly in the plain. ".repeat(100);
        let c = cm_compress(&data);
        assert!(
            c.len() * 3 < data.len(),
            "CM should compress text 3x+: {} vs {}",
            c.len(),
            data.len()
        );
    }

    #[test]
    fn respects_size_cap() {
        let data = b"xyz".repeat(100);
        let c = cm_compress(&data);
        assert!(cm_decompress(&c, 10).is_none());
    }

    #[test]
    fn deterministic() {
        let data = b"determinism check".repeat(20);
        assert_eq!(cm_compress(&data), cm_compress(&data));
    }
}
