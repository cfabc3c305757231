//! The common codec interface used by the evaluation harnesses.

use lepton_arith::{BoolDecoder, BoolEncoder, VecSource};
use lepton_jpeg::scan::{decode_scan, encode_scan_whole, EncodeParams};
use lepton_jpeg::CoefPlanes;

/// Errors a codec can report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Compressed input is not decodable by this codec.
    Corrupt,
    /// Internal invariant failure.
    Internal(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Corrupt => write!(f, "corrupt compressed data"),
            CodecError::Internal(w) => write!(f, "internal: {w}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A lossless codec over arbitrary byte strings.
///
/// Implementations must satisfy `decode(encode(x)) == x` for *every*
/// input `x` — format-aware codecs handle non-matching inputs via an
/// internal fallback, mirroring the deployment's Deflate fallback
/// (§5.7). This makes corpus-wide comparisons (Fig. 2 "including chunks
/// that Lepton cannot compress") well-defined for every codec.
pub trait Codec: Send + Sync {
    /// Display name (matches the paper's figure labels).
    fn name(&self) -> &'static str;

    /// Compress.
    fn encode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError>;

    /// Decompress; `size_hint` is the expected output size (codecs may
    /// use it to bound allocation).
    fn decode(&self, data: &[u8], size_hint: usize) -> Result<Vec<u8>, CodecError>;

    /// Is this codec JPEG-format-aware (center group of Fig. 2)?
    fn format_aware(&self) -> bool {
        false
    }
}

/// Tag bytes for format-aware codecs' self-describing containers.
pub mod tag {
    /// Payload is transformed (format-specific representation).
    pub const TRANSFORMED: u8 = 1;
    /// Payload is a raw fallback (Deflate of the original bytes).
    pub const FALLBACK: u8 = 0;
}

/// Wrap a transform attempt in the standard fallback container: if
/// `attempt` fails (unsupported input), store Deflate of the original.
pub fn encode_with_fallback(data: &[u8], attempt: impl FnOnce() -> Option<Vec<u8>>) -> Vec<u8> {
    match attempt() {
        Some(mut payload) => {
            let mut out = vec![tag::TRANSFORMED];
            out.append(&mut payload);
            out
        }
        None => {
            let mut out = vec![tag::FALLBACK];
            out.extend(lepton_deflate::zlib_compress(
                data,
                lepton_deflate::Level::Default,
            ));
            out
        }
    }
}

/// Decode the standard fallback container.
pub fn decode_with_fallback(
    data: &[u8],
    size_hint: usize,
    transform: impl FnOnce(&[u8]) -> Result<Vec<u8>, CodecError>,
) -> Result<Vec<u8>, CodecError> {
    let (&t, payload) = data.split_first().ok_or(CodecError::Corrupt)?;
    match t {
        tag::TRANSFORMED => transform(payload),
        tag::FALLBACK => lepton_deflate::zlib_decompress(payload, size_hint.max(1 << 20))
            .map_err(|_| CodecError::Corrupt),
        _ => Err(CodecError::Corrupt),
    }
}

/// A walk's refusal: the planes hold a value outside the range its
/// model codes (see `lepton_model::coef_coder::fits`).
pub(crate) struct OutOfRange;

/// Encode a JPEG whose scan a stand-in codes as one arithmetic-coded
/// walk over its coefficient planes (PackJPG-like, MozJPEG-arith): the
/// walk codes the planes on an encoder, and the header, pad bit,
/// restart count and trailing bytes ride in a [`JpegCarrier`]. Input
/// that does not parse and scan-decode, or that the walk refuses,
/// falls back to Deflate.
pub(crate) fn encode_carried(
    data: &[u8],
    walk: impl FnOnce(&mut BoolEncoder, &mut CoefPlanes) -> Result<(), OutOfRange>,
) -> Vec<u8> {
    encode_with_fallback(data, || {
        let parsed = lepton_jpeg::parse(data).ok()?;
        let (mut sd, _) = decode_scan(data, &parsed, &[]).ok()?;
        let mut enc = BoolEncoder::new();
        walk(&mut enc, &mut sd.coefs).ok()?;
        Some(
            JpegCarrier {
                header: data[..parsed.header_len].to_vec(),
                pad_bit: sd.pad.bit_or_default() as u8,
                rst_count: sd.rst_count,
                append: data[sd.scan_end..].to_vec(),
                payload: enc.finish(),
            }
            .serialize(),
        )
    })
}

/// Decode [`encode_carried`] output: the same walk, on a decoder, fills
/// zeroed planes, which the original Huffman tables re-encode.
pub(crate) fn decode_carried(
    data: &[u8],
    size_hint: usize,
    walk: impl FnOnce(&mut BoolDecoder<VecSource>, &mut CoefPlanes) -> Result<(), OutOfRange>,
) -> Result<Vec<u8>, CodecError> {
    decode_with_fallback(data, size_hint, |payload| {
        let carrier = JpegCarrier::parse(payload)?;
        let parsed = lepton_jpeg::parse(&carrier.header).map_err(|_| CodecError::Corrupt)?;
        let mut planes = CoefPlanes::for_frame(&parsed.frame);
        walk(
            &mut BoolDecoder::new(VecSource::new(carrier.payload)),
            &mut planes,
        )
        .map_err(|_| CodecError::Corrupt)?;
        let params = EncodeParams {
            pad_bit: carrier.pad_bit != 0,
            rst_limit: carrier.rst_count,
        };
        let scan = encode_scan_whole(&planes, &parsed, &params).map_err(|_| CodecError::Corrupt)?;
        let mut out = carrier.header;
        out.extend(scan);
        out.extend_from_slice(&carrier.append);
        Ok(out)
    })
}

/// Minimal varints shared by the baseline containers.
pub mod varint {
    use super::CodecError;

    /// Append a LEB128 varint.
    pub fn put(out: &mut Vec<u8>, mut v: u32) {
        loop {
            let b = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(b);
                return;
            }
            out.push(b | 0x80);
        }
    }

    /// Read a LEB128 varint.
    pub fn get(data: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
        let mut v = 0u32;
        let mut shift = 0;
        loop {
            let b = *data.get(*pos).ok_or(CodecError::Corrupt)?;
            *pos += 1;
            v |= ((b & 0x7F) as u32) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 28 {
                return Err(CodecError::Corrupt);
            }
        }
    }
}

/// Shared carrier for the JPEG-aware baselines: verbatim header,
/// round-trip metadata, trailing bytes, and a codec-specific payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JpegCarrier {
    /// Verbatim JPEG header (SOI..SOS).
    pub header: Vec<u8>,
    /// Pad bit (0/1; 2 = unobserved).
    pub pad_bit: u8,
    /// Restart markers present in the original.
    pub rst_count: u32,
    /// Verbatim trailing bytes (EOI + garbage).
    pub append: Vec<u8>,
    /// Codec-specific scan representation.
    pub payload: Vec<u8>,
}

impl JpegCarrier {
    /// Serialize (header is Deflate-compressed, like Lepton does).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let zh = lepton_deflate::zlib_compress(&self.header, lepton_deflate::Level::Default);
        varint::put(&mut out, zh.len() as u32);
        out.extend(zh);
        varint::put(&mut out, self.header.len() as u32);
        out.push(self.pad_bit);
        varint::put(&mut out, self.rst_count);
        varint::put(&mut out, self.append.len() as u32);
        out.extend_from_slice(&self.append);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parse back; the remainder of `data` becomes `payload`.
    pub fn parse(data: &[u8]) -> Result<Self, CodecError> {
        let mut pos = 0usize;
        let zlen = varint::get(data, &mut pos)? as usize;
        if pos + zlen > data.len() {
            return Err(CodecError::Corrupt);
        }
        let hlen = {
            let mut p2 = pos + zlen;
            let h = varint::get(data, &mut p2)? as usize;
            (h, p2)
        };
        let header = lepton_deflate::zlib_decompress(&data[pos..pos + zlen], hlen.0.max(16))
            .map_err(|_| CodecError::Corrupt)?;
        if header.len() != hlen.0 {
            return Err(CodecError::Corrupt);
        }
        let mut pos = hlen.1;
        let pad_bit = *data.get(pos).ok_or(CodecError::Corrupt)?;
        pos += 1;
        let rst_count = varint::get(data, &mut pos)?;
        let alen = varint::get(data, &mut pos)? as usize;
        if pos + alen > data.len() {
            return Err(CodecError::Corrupt);
        }
        let append = data[pos..pos + alen].to_vec();
        pos += alen;
        Ok(JpegCarrier {
            header,
            pad_bit,
            rst_count,
            append,
            payload: data[pos..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carrier_roundtrip() {
        let c = JpegCarrier {
            header: vec![0xFF, 0xD8, 1, 2, 3, 4, 5],
            pad_bit: 1,
            rst_count: 3,
            append: vec![0xFF, 0xD9, 9],
            payload: vec![7; 100],
        };
        let s = c.serialize();
        assert_eq!(JpegCarrier::parse(&s).unwrap(), c);
    }

    #[test]
    fn fallback_container_roundtrip() {
        let data = b"some non-jpeg bytes".repeat(10);
        let enc = encode_with_fallback(&data, || None);
        assert_eq!(enc[0], tag::FALLBACK);
        let dec = decode_with_fallback(&enc, data.len(), |_| Err(CodecError::Internal("unused")))
            .unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn transformed_container_roundtrip() {
        let enc = encode_with_fallback(b"x", || Some(vec![42, 43]));
        assert_eq!(enc, vec![tag::TRANSFORMED, 42, 43]);
        let dec = decode_with_fallback(&enc, 1, |p| Ok(p.to_vec())).unwrap();
        assert_eq!(dec, vec![42, 43]);
    }

    #[test]
    fn empty_container_is_corrupt() {
        assert_eq!(
            decode_with_fallback(&[], 0, |p| Ok(p.to_vec())).unwrap_err(),
            CodecError::Corrupt
        );
    }
}
