//! Baseline JPEG substrate for the Lepton reproduction.
//!
//! Lepton operates *underneath* JPEG's entropy layer: it decodes the
//! Huffman-coded "scan" of a baseline JPEG into quantized DCT coefficient
//! planes, re-codes those with its own model, and — on the way back —
//! regenerates the original scan **bit-exactly** (paper §3.1, §3.4). This
//! crate is that substrate, written from scratch:
//!
//! * [`parser`] — segment-level parsing of the JPEG container (SOI, APPn,
//!   DQT, DHT, SOF, DRI, SOS), with unsupported shapes (progressive,
//!   CMYK, 12-bit) reported as typed errors matching the paper's §6.2
//!   exit-code taxonomy.
//! * [`huffman`] — JPEG Huffman tables: canonical construction from
//!   DHT payloads, fast decoding, encode tables, and *optimal* table
//!   generation (Annex K style) used by the JPEGrescan-class baseline.
//! * [`bitio`] — the entropy-segment bit reader/writer: `0xFF00` byte
//!   stuffing, restart markers, pad bits, and — crucially for Lepton —
//!   the ability to *suspend and resume mid-byte* via
//!   [`scan::Handover`]-style state ("Huffman handover words").
//! * [`scan`] — scan decode (bytes → [`coeffs::CoefBlock`]s in coding
//!   order via [`scan::ScanDecoder`], or frame-shaped
//!   [`coeffs::CoefPlanes`] via [`scan::decode_scan`]) and its mirror,
//!   the bit-exact [`scan::ScanEncoder`] (blocks in coding order →
//!   bytes), both resumable at arbitrary MCU boundaries with explicit
//!   handover state.
//! * [`dct`] — deterministic fixed-point IDCT (used by Lepton's DC
//!   prediction) and a float FDCT for the pixel-level encoder.
//! * [`encoder`] — a complete pixel-level baseline JPEG encoder
//!   (RGB→YCbCr, subsampling, FDCT, quantization, Huffman coding), used
//!   by `lepton-corpus` to synthesize realistic files.
//!
//! # Supported / rejected (mirrors the production deployment, §6.2)
//!
//! Supported: baseline sequential DCT (SOF0), 8-bit precision, 1 or 3
//! components, sampling factors 1–2, restart intervals, single
//! interleaved scan (or single-component scan), trailing garbage,
//! missing-RST zero-run files (App. A.3).
//!
//! Rejected with typed errors: progressive (SOF2), arithmetic-coded
//! (SOF9+), hierarchical, 4-component/CMYK, 12-bit, fractional sampling,
//! multi-scan sequential, DNL, coefficients out of baseline range.

pub mod bitio;
pub mod coeffs;
pub mod dct;
pub mod encoder;
pub mod error;
pub mod huffman;
pub mod markers;
pub mod parser;
pub mod quant;
pub mod scan;
pub mod types;

pub use coeffs::{CoefBlock, CoefPlanes};
pub use error::JpegError;
pub use parser::{parse, ParsedJpeg};
pub use scan::{decode_scan, encode_scan_whole, Handover, ScanData, ScanDecoder, ScanEncoder};
pub use types::{Component, FrameInfo, ScanInfo, ZIGZAG, ZIGZAG_INV};
