//! Lepton itself behind the [`Codec`] interface, plus the PAQ-class
//! composite.

use crate::cm::{cm_compress, cm_decompress};
use crate::codec::{decode_with_fallback, encode_with_fallback, tag, Codec, CodecError};
use lepton_core::{compress, decompress, CompressOptions, ThreadPolicy};

/// Lepton (this paper) behind the common codec interface. Non-JPEG
/// inputs fall back to Deflate exactly as production does (§5.7).
#[derive(Clone, Debug)]
pub struct LeptonCodec {
    name: &'static str,
    opts: CompressOptions,
}

impl LeptonCodec {
    /// The deployed configuration: auto thread policy.
    pub fn multithreaded() -> Self {
        LeptonCodec {
            name: "Lepton",
            opts: CompressOptions::default(),
        }
    }

    /// "Lepton 1-way": single segment, maximum ratio (§4.1).
    pub fn one_way() -> Self {
        LeptonCodec {
            name: "Lepton 1-way",
            opts: CompressOptions {
                threads: ThreadPolicy::Fixed(1),
                ..Default::default()
            },
        }
    }
}

impl Codec for LeptonCodec {
    fn name(&self) -> &'static str {
        self.name
    }

    fn format_aware(&self) -> bool {
        true
    }

    fn encode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        Ok(encode_with_fallback(data, || {
            compress(data, &self.opts).ok()
        }))
    }

    fn decode(&self, data: &[u8], size_hint: usize) -> Result<Vec<u8>, CodecError> {
        decode_with_fallback(data, size_hint, |payload| {
            decompress(payload).map_err(|_| CodecError::Corrupt)
        })
    }
}

/// PAQ-class composite: best-ratio JPEG path (Lepton 1-way) plus a
/// context-mixing model for everything Lepton rejects — reproducing why
/// PAQ8PX edges out Lepton 1-way on corpora that include rejects
/// (§4.1), and why it is dramatically slower.
#[derive(Clone, Debug)]
pub struct PaqCodec {
    jpeg_path: LeptonCodec,
}

impl Default for PaqCodec {
    fn default() -> Self {
        PaqCodec {
            jpeg_path: LeptonCodec::one_way(),
        }
    }
}

/// Sub-tags inside the PAQ container's TRANSFORMED payload.
const SUB_JPEG: u8 = 0;
const SUB_CM: u8 = 1;

impl Codec for PaqCodec {
    fn name(&self) -> &'static str {
        "PAQ-like"
    }

    fn format_aware(&self) -> bool {
        true
    }

    fn encode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        // Always "transformed": either Lepton 1-way or CM, never raw.
        let payload = match lepton_core::compress(data, &self.jpeg_path.opts) {
            Ok(lep) => {
                let mut v = vec![SUB_JPEG];
                v.extend(lep);
                v
            }
            Err(_) => {
                let mut v = vec![SUB_CM];
                v.extend(cm_compress(data));
                v
            }
        };
        let mut out = vec![tag::TRANSFORMED];
        out.extend(payload);
        Ok(out)
    }

    fn decode(&self, data: &[u8], size_hint: usize) -> Result<Vec<u8>, CodecError> {
        decode_with_fallback(data, size_hint, |payload| {
            let (&sub, rest) = payload.split_first().ok_or(CodecError::Corrupt)?;
            match sub {
                SUB_JPEG => decompress(rest).map_err(|_| CodecError::Corrupt),
                SUB_CM => cm_decompress(rest, size_hint.max(1 << 24)).ok_or(CodecError::Corrupt),
                _ => Err(CodecError::Corrupt),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lepton_corpus::builder::{clean_jpeg, CorpusSpec};
    use lepton_corpus::corrupt;

    #[test]
    fn lepton_codec_roundtrip() {
        let spec = CorpusSpec {
            min_dim: 64,
            max_dim: 160,
            ..Default::default()
        };
        let jpg = clean_jpeg(&spec, 77);
        for c in [LeptonCodec::multithreaded(), LeptonCodec::one_way()] {
            let e = c.encode(&jpg).unwrap();
            assert_eq!(c.decode(&e, jpg.len()).unwrap(), jpg, "{}", c.name());
            assert!(e.len() < jpg.len());
        }
    }

    #[test]
    fn lepton_codec_fallback_on_non_jpeg() {
        let c = LeptonCodec::multithreaded();
        let data = b"not jpeg".repeat(30);
        let e = c.encode(&data).unwrap();
        assert_eq!(c.decode(&e, data.len()).unwrap(), data);
    }

    #[test]
    fn paq_compresses_rejects_better_than_lepton() {
        // A progressive file: Lepton falls back to Deflate; PAQ uses its
        // CM model. On structured (compressible) data the CM path should
        // not be worse by much, and on JPEGs both use the same ratio.
        let spec = CorpusSpec {
            min_dim: 64,
            max_dim: 128,
            ..Default::default()
        };
        let jpg = clean_jpeg(&spec, 5);
        let prog = corrupt::progressive_lookalike(&jpg);
        let paq = PaqCodec::default();
        let e = paq.encode(&prog).unwrap();
        assert_eq!(paq.decode(&e, prog.len()).unwrap(), prog);
    }

    #[test]
    fn paq_jpeg_matches_one_way_ratio() {
        let spec = CorpusSpec {
            min_dim: 96,
            max_dim: 160,
            ..Default::default()
        };
        let jpg = clean_jpeg(&spec, 9);
        let paq = PaqCodec::default().encode(&jpg).unwrap();
        let one = LeptonCodec::one_way().encode(&jpg).unwrap();
        // Same underlying representation; sizes within a few bytes.
        assert!((paq.len() as i64 - one.len() as i64).abs() < 8);
    }
}
