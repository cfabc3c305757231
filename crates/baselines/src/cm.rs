//! Bitwise context-mixing byte compressor (the PAQ-class substrate).
//!
//! PAQ8PX (§2) mixes many specialized models; its relevance in the
//! paper's evaluation is (a) best-in-class ratios, (b) extreme slowness,
//! and (c) compressing even the files Lepton rejects. This module is a
//! small, deterministic context mixer over raw bytes: order-0/1/2
//! contexts blended by confidence-weighted averaging. It is used as the
//! [`crate::PaqCodec`] fallback path for non-JPEG data.

use lepton_arith::{BoolDecoder, BoolEncoder, Coder, SliceSource};
use lepton_model::bins::{grid, Fresh};

/// One counter pair (like `Branch` but exposing confidence).
#[derive(Clone, Copy)]
struct Counter {
    c0: u16,
    c1: u16,
}

impl Fresh for Counter {
    fn fresh() -> Self {
        Counter { c0: 0, c1: 0 }
    }
}

impl Counter {
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
    /// [tree node].
    o0: [Counter; 256],
    /// [previous byte][tree node].
    o1: Box<[[Counter; 256]; 256]>,
    /// [hash of the two bytes before][tree node].
    o2: Box<[[Counter; 256]; 1 << O2_BITS]>,
    /// Sliding byte context.
    h1: u8,
    h2: u16,
}

impl Mixer {
    fn new() -> Self {
        Mixer {
            o0: Fresh::fresh(),
            o1: grid(),
            o2: grid(),
            h1: 0,
            h2: 0,
        }
    }

    /// The counters of `node` under each order's context.
    fn counters(&mut self, node: usize) -> [&mut Counter; 3] {
        let o2h =
            ((self.h2 as usize).wrapping_mul(0x9E3779B1) >> (32 - O2_BITS)) & ((1 << O2_BITS) - 1);
        [
            &mut self.o0[node],
            &mut self.o1[self.h1 as usize][node],
            &mut self.o2[o2h][node],
        ]
    }

    /// Code one byte (ignored when decoding), most-significant bit
    /// first, and slide it into the context; returns the byte coded.
    fn code_byte<C: Coder>(&mut self, c: &mut C, byte: u8) -> u8 {
        let mut node = 1usize;
        for i in (0..8).rev() {
            let counters = self.counters(node);
            let bit = c.code_with_prob((byte >> i) & 1 == 1, mix(&counters));
            for counter in counters {
                counter.record(bit);
            }
            node = node * 2 + bit as usize;
        }
        // `node` is now `256 + byte`.
        let byte = node as u8;
        self.h2 = (self.h2 << 8) | self.h1 as u16;
        self.h1 = byte;
        byte
    }
}

/// The mixed probability that the next bit is `false`: a
/// confidence-weighted average of the order-0, -1 and -2 counters with a
/// weak uniform prior; higher orders get a 4x voice per observation.
fn mix([o0, o1, o2]: &[&mut Counter; 3]) -> u16 {
    let (p0, w0) = o0.prob_false_and_weight();
    let (p1, w1) = o1.prob_false_and_weight();
    let (p2, w2) = o2.prob_false_and_weight();
    let num = (1 << 15) as u64
        + (p0 as u64 * w0 as u64)
        + (p1 as u64 * (w1 as u64 * 4))
        + (p2 as u64 * (w2 as u64 * 16));
    let den = 1u64 + w0 as u64 + w1 as u64 * 4 + w2 as u64 * 16;
    ((num / den) as u32).clamp(1, 65535) as u16
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
