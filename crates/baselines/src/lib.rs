//! Comparison codecs for the paper's evaluation (§2, §4, Figs. 1–3).
//!
//! The originals (PackJPG, PAQ8PX, MozJPEG, JPEGrescan, Brotli, LZham,
//! LZMA, Zstandard) are external C/C++ projects; per DESIGN.md we
//! reimplement the *algorithmic class* of each, because the paper's
//! claims are about classes:
//!
//! | Codec here | Class it stands in for | Key property |
//! |---|---|---|
//! | [`DeflateCodec`] | Deflate/zlib | generic LZ+Huffman, fast, ~1% on JPEGs |
//! | [`LzFastCodec`] | Zstandard speed class | greedy LZ, byte-oriented, very fast |
//! | [`RangeLzCodec`] | LZMA class | LZ + adaptive range-coded entropy, slower, denser |
//! | [`JpegRescanCodec`] | JPEGrescan/jpegtran | optimal Huffman tables, pixel-exact, reversible |
//! | [`MozArithCodec`] | MozJPEG arithmetic | 132-bin spec-style arithmetic JPEG (the spec's ~300-bin order) |
//! | [`PackJpgCodec`] | PackJPG | *global* band-sorted context model, single-threaded, whole-file |
//! | [`PaqCodec`] | PAQ8PX | context-mixing fallback for non-JPEGs + best-ratio JPEG path, very slow |
//! | [`LeptonCodec`] | this paper | local contexts, streaming, multithreaded |
//!
//! All codecs implement [`Codec`]: byte-exact round trips over arbitrary
//! input (format-aware codecs transparently fall back to a generic path
//! for files they cannot transform, exactly like the deployed system
//! falls back to Deflate, §5.7).

pub mod cm;
pub mod codec;
pub mod jpegrescan;
pub mod lepton_codec;
pub mod lz;
pub mod mozarith;
pub mod packjpg;

pub use codec::{Codec, CodecError};
pub use jpegrescan::JpegRescanCodec;
pub use lepton_codec::{LeptonCodec, PaqCodec};
pub use lz::{LzFastCodec, RangeLzCodec};
pub use mozarith::MozArithCodec;
pub use packjpg::PackJpgCodec;

/// The Deflate baseline (wraps `lepton-deflate` behind [`Codec`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct DeflateCodec;

impl Codec for DeflateCodec {
    fn name(&self) -> &'static str {
        "Deflate"
    }

    fn encode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        Ok(lepton_deflate::zlib_compress(
            data,
            lepton_deflate::Level::Default,
        ))
    }

    fn decode(&self, data: &[u8], size_hint: usize) -> Result<Vec<u8>, CodecError> {
        lepton_deflate::zlib_decompress(data, size_hint.max(1 << 16))
            .map_err(|_| CodecError::Corrupt)
    }
}

/// Every evaluation codec, in the paper's Figure 2 order.
pub fn all_codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(LeptonCodec::multithreaded()),
        Box::new(LeptonCodec::one_way()),
        Box::new(PackJpgCodec),
        Box::new(PaqCodec::default()),
        Box::new(JpegRescanCodec),
        Box::new(MozArithCodec),
        Box::new(DeflateCodec),
        Box::new(LzFastCodec),
        Box::new(RangeLzCodec),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_codecs_have_unique_names() {
        let codecs = all_codecs();
        let names: std::collections::HashSet<_> = codecs.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), codecs.len());
    }

    #[test]
    fn deflate_codec_roundtrip() {
        let c = DeflateCodec;
        let data = b"hello deflate baseline".repeat(20);
        let e = c.encode(&data).unwrap();
        assert_eq!(c.decode(&e, data.len()).unwrap(), data);
    }
}
