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
//! ```
//! use lepton_arith::{BoolEncoder, BoolDecoder, Branch, SliceSource};
//!
//! let bits = [true, false, true, true, false, false, true, false];
//! let mut enc = BoolEncoder::new();
//! let mut bin = Branch::new();
//! for &b in &bits {
//!     enc.put(b, &mut bin);
//! }
//! let bytes = enc.finish();
//!
//! let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
//! let mut bin = Branch::new();
//! for &b in &bits {
//!     assert_eq!(dec.get(&mut bin), b);
//! }
//! ```

mod bool_coder;
mod branch;

pub use bool_coder::{BoolDecoder, BoolEncoder, ByteSource, SliceSource, VecSource};
pub use branch::{prob_from_counts, Branch, PROB_LUT};
