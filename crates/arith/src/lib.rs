//! Adaptive binary arithmetic (range) coding for the Lepton reproduction.
//!
//! Lepton (NSDI '17, §3.1) replaces baseline JPEG's Huffman entropy layer
//! with "a modified version of a VP8 range coder" driven by adaptive
//! *statistic bins*. This crate provides that layer:
//!
//! * [`Branch`] — one adaptive statistic bin: a pair of saturating
//!   occurrence counters from which a probability is derived, exactly in
//!   the spirit of the paper's §3.2 ("each bin counting the number of
//!   'ones' and 'zeroes' encountered so far").
//! * [`BoolEncoder`] / [`BoolDecoder`] — a carry-correct binary range
//!   coder. We use the LZMA-style normalization (64-bit low, byte-wise
//!   carry propagation) rather than VP8's bit-wise carry loop; the two are
//!   algebraically equivalent binary arithmetic coders, and the byte-wise
//!   form is easier to prove correct. The probability resolution is 16
//!   bits (VP8 uses 8); this only improves coding efficiency.
//! * [`Coder`] — what both directions share. A model is written once,
//!   generic over `C: Coder`: [`Coder::code`] encodes the bit it is
//!   given on a [`BoolEncoder`] and returns the decoded bit on a
//!   [`BoolDecoder`], so encoder and decoder make the same bin choices
//!   by construction (App. A.2). [`Coder::ENCODES`] guards only checks
//!   of the encoder's input, never a bin choice.
//!
//! # Streaming
//!
//! The decoder pulls bytes through the [`ByteSource`] trait so that
//! `lepton-core` can feed it from a channel while earlier bytes of the
//! stream are still in flight — this is what makes Lepton's multithreaded,
//! time-to-first-byte-optimized decode possible (§3.4).
//!
//! # Example
//!
//! One walk, run once per direction: the decoder passes placeholder
//! bits and gets the encoded ones back.
//!
//! ```
//! use lepton_arith::{BoolDecoder, BoolEncoder, Branch, Coder, SliceSource};
//!
//! /// Codes `bits` (ignored when decoding); returns the bits coded.
//! fn walk(c: &mut impl Coder, bits: &[bool]) -> Vec<bool> {
//!     let mut bin = Branch::new();
//!     bits.iter().map(|&b| c.code(b, &mut bin)).collect()
//! }
//!
//! let bits = [true, false, true, true, false, false, true, false];
//! let mut enc = BoolEncoder::new();
//! walk(&mut enc, &bits);
//! let bytes = enc.finish();
//!
//! let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
//! assert_eq!(walk(&mut dec, &[false; 8]), bits);
//! ```

mod bool_coder;
mod branch;

pub use bool_coder::{BoolDecoder, BoolEncoder, ByteSource, Coder, SliceSource, VecSource};
pub use branch::{prob_from_counts, Branch, PROB_LUT};
