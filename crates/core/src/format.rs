//! The Lepton container format (paper Appendix A.1).
//!
//! Layout, following the paper's field order:
//!
//! ```text
//! magic (0xCF 0x84)                     2 bytes
//! version (0x01)                        1 byte
//! flags: bit0 = header serialized       1 byte   ("Skip serializing header? Y‖Z")
//! number of thread segments             4 bytes LE
//! truncated build revision              12 bytes
//! output (chunk) size                   4 bytes LE
//! zlib data size                        4 bytes LE
//! zlib data {                                     (Deflate-compressed)
//!   JPEG header size + JPEG header
//!   pad bit (0 ‖ 1 ‖ 2=unknown)
//!   restart-marker count
//!   per-thread-segment info:
//!     MCU range, output size, Huffman handover word, DC per channel,
//!     restarts-so-far
//!   data to prepend to the output
//!   data to append to the output
//! }
//! interleaved arithmetic coding section:
//!   (segment id byte, 3-byte LE length, payload)… , 0xFF terminator
//! ```
//!
//! Deviation from the paper, documented in DESIGN.md: segment boundaries
//! are stored as `u32` MCU indices instead of 2-byte vertical ranges,
//! because the format admits chunks that split a scan anywhere; this
//! build reads them and writes none.

use crate::error::LeptonError;
use lepton_jpeg::Handover;

/// Container magic (the paper's `0xcf 0x84` — "τ" in UTF-8).
pub const MAGIC: [u8; 2] = [0xCF, 0x84];
/// Current format version.
pub const VERSION: u8 = 0x01;
/// Truncated build revision embedded in every file (12 bytes).
pub const REVISION: [u8; 12] = *b"lepton-rs001";

/// Maximum bytes per interleaved arithmetic packet.
pub const PACKET_MAX: usize = 4096;

/// One thread segment's metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// First MCU (inclusive).
    pub mcu_start: u32,
    /// Last MCU (exclusive).
    pub mcu_end: u32,
    /// Exact number of output bytes this segment contributes.
    pub out_bytes: u64,
    /// Huffman handover word at the segment start.
    pub handover: SerializedHandover,
    /// Compressed (arithmetic) byte count for this segment.
    pub arith_bytes: u64,
}

/// The wire form of a Huffman handover word: bit alignment, partial
/// byte, previous DC per channel, restart count (paper App. A.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SerializedHandover {
    /// Bits of the straddling byte already produced (0..=7).
    pub bits_used: u8,
    /// The straddling byte's high bits.
    pub partial: u8,
    /// Previous DC value per channel ("DC per channel (8 bytes)").
    pub prev_dc: [i16; 4],
    /// Restart markers consumed before this segment.
    pub rst_so_far: u32,
}

impl SerializedHandover {
    /// Capture from a scan-codec handover.
    pub fn from_handover(h: &Handover) -> Self {
        SerializedHandover {
            bits_used: h.bits_used,
            partial: h.partial,
            prev_dc: h.prev_dc,
            rst_so_far: h.rst_so_far,
        }
    }

    /// Convert back, attaching the MCU index.
    pub fn to_handover(self, mcu: u32) -> Handover {
        Handover {
            partial: self.partial,
            bits_used: self.bits_used,
            prev_dc: self.prev_dc,
            mcu,
            rst_so_far: self.rst_so_far,
            byte_offset: 0,
        }
    }
}

/// Everything the decoder needs besides the arithmetic streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContainerHeader {
    /// Is the JPEG header emitted as output (true only for the chunk
    /// containing the start of the file)?
    pub emit_header: bool,
    /// The verbatim JPEG header (SOI..SOS), needed for tables even when
    /// not emitted.
    pub jpeg_header: Vec<u8>,
    /// Exact output size of this chunk.
    pub output_size: u32,
    /// Pad bit: 0, 1, or 2 = never observed.
    pub pad_bit: u8,
    /// Total restart markers present in the covered range.
    pub rst_count: u32,
    /// Verbatim bytes before the first whole-MCU boundary.
    pub prepend: Vec<u8>,
    /// Verbatim bytes after the entropy data (EOI, trailing garbage) —
    /// or the whole chunk for chunks past the scan.
    pub append: Vec<u8>,
    /// Thread segments in output order.
    pub segments: Vec<SegmentInfo>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], LeptonError> {
        if self.pos + n > self.data.len() {
            return Err(LeptonError::CorruptContainer("truncated header blob"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, LeptonError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, LeptonError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, LeptonError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn i16(&mut self) -> Result<i16, LeptonError> {
        Ok(i16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    fn bytes_u32(&mut self, cap: usize) -> Result<Vec<u8>, LeptonError> {
        let n = self.u32()? as usize;
        if n > cap {
            return Err(LeptonError::CorruptContainer("length field exceeds cap"));
        }
        Ok(self.take(n)?.to_vec())
    }
}

impl ContainerHeader {
    /// Serialize the zlib-payload portion (uncompressed form).
    pub fn serialize_blob(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.jpeg_header.len() as u32);
        out.extend_from_slice(&self.jpeg_header);
        out.push(self.emit_header as u8);
        out.push(self.pad_bit);
        put_u32(&mut out, self.output_size);
        put_u32(&mut out, self.rst_count);
        put_u32(&mut out, self.segments.len() as u32);
        for s in &self.segments {
            put_u32(&mut out, s.mcu_start);
            put_u32(&mut out, s.mcu_end);
            put_u64(&mut out, s.out_bytes);
            put_u64(&mut out, s.arith_bytes);
            out.push(s.handover.bits_used);
            out.push(s.handover.partial);
            for dc in s.handover.prev_dc {
                out.extend_from_slice(&dc.to_le_bytes());
            }
            put_u32(&mut out, s.handover.rst_so_far);
        }
        put_u32(&mut out, self.prepend.len() as u32);
        out.extend_from_slice(&self.prepend);
        put_u32(&mut out, self.append.len() as u32);
        out.extend_from_slice(&self.append);
        out
    }

    /// Parse the zlib-payload portion.
    pub fn parse_blob(data: &[u8]) -> Result<Self, LeptonError> {
        let mut r = Reader { data, pos: 0 };
        let jpeg_header = r.bytes_u32(1 << 26)?;
        let emit_header = r.u8()? != 0;
        let pad_bit = r.u8()?;
        if pad_bit > 2 {
            return Err(LeptonError::CorruptContainer("bad pad bit"));
        }
        let output_size = r.u32()?;
        let rst_count = r.u32()?;
        let nseg = r.u32()? as usize;
        if nseg > 1 << 16 {
            return Err(LeptonError::CorruptContainer("absurd segment count"));
        }
        let mut segments = Vec::with_capacity(nseg);
        for _ in 0..nseg {
            let mcu_start = r.u32()?;
            let mcu_end = r.u32()?;
            let out_bytes = r.u64()?;
            let arith_bytes = r.u64()?;
            let bits_used = r.u8()?;
            if bits_used > 7 {
                return Err(LeptonError::CorruptContainer("bad handover bit offset"));
            }
            let partial = r.u8()?;
            let mut prev_dc = [0i16; 4];
            for dc in prev_dc.iter_mut() {
                *dc = r.i16()?;
            }
            let rst_so_far = r.u32()?;
            if mcu_end < mcu_start {
                return Err(LeptonError::CorruptContainer("inverted MCU range"));
            }
            segments.push(SegmentInfo {
                mcu_start,
                mcu_end,
                out_bytes,
                arith_bytes,
                handover: SerializedHandover {
                    bits_used,
                    partial,
                    prev_dc,
                    rst_so_far,
                },
            });
        }
        let prepend = r.bytes_u32(1 << 26)?;
        let append = r.bytes_u32(1 << 26)?;
        if r.pos != data.len() {
            return Err(LeptonError::CorruptContainer("trailing bytes in blob"));
        }
        Ok(ContainerHeader {
            emit_header,
            jpeg_header,
            output_size,
            pad_bit,
            rst_count,
            prepend,
            append,
            segments,
        })
    }
}

/// Assemble a full container from a header and per-segment arithmetic
/// streams.
pub fn write_container(header: &ContainerHeader, streams: &[Vec<u8>]) -> Vec<u8> {
    assert_eq!(header.segments.len(), streams.len());
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(header.emit_header as u8);
    put_u32(&mut out, header.segments.len() as u32);
    out.extend_from_slice(&REVISION);
    put_u32(&mut out, header.output_size);
    let blob = header.serialize_blob();
    let zblob = lepton_deflate::zlib_compress(&blob, lepton_deflate::Level::Best);
    put_u32(&mut out, zblob.len() as u32);
    out.extend_from_slice(&zblob);

    // Interleave per-segment streams round-robin in PACKET_MAX slices
    // so a streaming decoder can feed all segment threads concurrently.
    let mut cursors = vec![0usize; streams.len()];
    loop {
        let mut wrote = false;
        for (sid, stream) in streams.iter().enumerate() {
            let c = cursors[sid];
            if c >= stream.len() {
                continue;
            }
            let n = (stream.len() - c).min(PACKET_MAX);
            out.push(sid as u8);
            out.extend_from_slice(&(n as u32).to_le_bytes()[..3]);
            out.extend_from_slice(&stream[c..c + n]);
            cursors[sid] = c + n;
            wrote = true;
        }
        if !wrote {
            break;
        }
    }
    out.push(0xFF); // terminator
    out
}

/// Parsed container envelope; arithmetic packets are exposed for
/// streaming consumption via [`packets`].
#[derive(Clone, Debug)]
pub struct Container<'a> {
    /// Parsed metadata header.
    pub header: ContainerHeader,
    /// Raw bytes of the interleaved arithmetic section.
    pub arith_section: &'a [u8],
}

/// Parse a container's envelope and metadata.
pub fn read_container(data: &[u8]) -> Result<Container<'_>, LeptonError> {
    if data.len() < 2 + 1 + 1 + 4 + 12 + 4 + 4 {
        return Err(LeptonError::BadMagic);
    }
    if data[0..2] != MAGIC {
        return Err(LeptonError::BadMagic);
    }
    if data[2] != VERSION {
        return Err(LeptonError::UnsupportedVersion(data[2]));
    }
    let nseg = u32::from_le_bytes(data[4..8].try_into().expect("4")) as usize;
    // revision: data[8..20] (informational)
    let output_size = u32::from_le_bytes(data[20..24].try_into().expect("4"));
    let zlen = u32::from_le_bytes(data[24..28].try_into().expect("4")) as usize;
    if 28 + zlen > data.len() {
        return Err(LeptonError::CorruptContainer("zlib blob truncated"));
    }
    let blob = lepton_deflate::zlib_decompress(&data[28..28 + zlen], 1 << 27)
        .map_err(|_| LeptonError::CorruptContainer("zlib blob invalid"))?;
    let header = ContainerHeader::parse_blob(&blob)?;
    if header.segments.len() != nseg {
        return Err(LeptonError::CorruptContainer("segment count mismatch"));
    }
    if header.output_size != output_size {
        return Err(LeptonError::CorruptContainer("output size mismatch"));
    }
    Ok(Container {
        header,
        arith_section: &data[28 + zlen..],
    })
}

/// Iterate the interleaved arithmetic packets: yields `(segment id,
/// payload)`; ends at the 0xFF terminator.
pub fn packets(arith_section: &[u8]) -> PacketIter<'_> {
    PacketIter {
        data: arith_section,
        pos: 0,
        done: false,
    }
}

/// Iterator over arithmetic packets.
pub struct PacketIter<'a> {
    data: &'a [u8],
    pos: usize,
    done: bool,
}

impl<'a> Iterator for PacketIter<'a> {
    type Item = Result<(u8, &'a [u8]), LeptonError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let Some(&sid) = self.data.get(self.pos) else {
            self.done = true;
            return Some(Err(LeptonError::CorruptContainer("missing terminator")));
        };
        if sid == 0xFF {
            self.done = true;
            return None;
        }
        if self.pos + 4 > self.data.len() {
            self.done = true;
            return Some(Err(LeptonError::CorruptContainer("truncated packet")));
        }
        let len = u32::from_le_bytes([
            self.data[self.pos + 1],
            self.data[self.pos + 2],
            self.data[self.pos + 3],
            0,
        ]) as usize;
        let start = self.pos + 4;
        if start + len > self.data.len() {
            self.done = true;
            return Some(Err(LeptonError::CorruptContainer("packet overruns input")));
        }
        self.pos = start + len;
        Some(Ok((sid, &self.data[start..start + len])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> ContainerHeader {
        ContainerHeader {
            emit_header: true,
            jpeg_header: vec![0xFF, 0xD8, 1, 2, 3],
            output_size: 12345,
            pad_bit: 1,
            rst_count: 7,
            prepend: vec![9, 9],
            append: vec![0xFF, 0xD9],
            segments: vec![
                SegmentInfo {
                    mcu_start: 0,
                    mcu_end: 100,
                    out_bytes: 5000,
                    arith_bytes: 4000,
                    handover: SerializedHandover {
                        bits_used: 0,
                        partial: 0,
                        prev_dc: [0; 4],
                        rst_so_far: 0,
                    },
                },
                SegmentInfo {
                    mcu_start: 100,
                    mcu_end: 200,
                    out_bytes: 7345,
                    arith_bytes: 6000,
                    handover: SerializedHandover {
                        bits_used: 5,
                        partial: 0b1011_0000,
                        prev_dc: [100, -5, 17, 0],
                        rst_so_far: 3,
                    },
                },
            ],
        }
    }

    #[test]
    fn blob_roundtrip() {
        let h = sample_header();
        let blob = h.serialize_blob();
        let h2 = ContainerHeader::parse_blob(&blob).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn container_roundtrip_with_streams() {
        let h = sample_header();
        let streams = vec![vec![1u8; 10_000], vec![2u8; 3]];
        let c = write_container(&h, &streams);
        assert_eq!(&c[0..2], &MAGIC);
        let parsed = read_container(&c).unwrap();
        assert_eq!(parsed.header, h);
        // Demux packets back into streams.
        let mut rebuilt = vec![Vec::new(), Vec::new()];
        for p in packets(parsed.arith_section) {
            let (sid, payload) = p.unwrap();
            rebuilt[sid as usize].extend_from_slice(payload);
        }
        assert_eq!(rebuilt, streams);
    }

    #[test]
    fn packets_interleaved_for_streaming() {
        let h = sample_header();
        let streams = vec![vec![1u8; PACKET_MAX * 2], vec![2u8; PACKET_MAX * 2]];
        let c = write_container(&h, &streams);
        let parsed = read_container(&c).unwrap();
        let ids: Vec<u8> = packets(parsed.arith_section)
            .map(|p| p.unwrap().0)
            .collect();
        assert_eq!(ids, vec![0, 1, 0, 1], "round-robin interleave");
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(
            read_container(&[0u8; 64]).unwrap_err(),
            LeptonError::BadMagic
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let h = sample_header();
        let mut c = write_container(&h, &[vec![], vec![]]);
        c[2] = 0x7F;
        assert!(matches!(
            read_container(&c).unwrap_err(),
            LeptonError::UnsupportedVersion(0x7F)
        ));
    }

    #[test]
    fn rejects_corrupt_blob() {
        let h = sample_header();
        let mut c = write_container(&h, &[vec![], vec![]]);
        // Flip a byte inside the zlib blob.
        c[40] ^= 0xFF;
        assert!(read_container(&c).is_err());
    }

    #[test]
    fn detects_missing_terminator() {
        let h = sample_header();
        let streams = vec![vec![7u8; 5], vec![]];
        let mut c = write_container(&h, &streams);
        c.pop(); // drop terminator
        let parsed = read_container(&c).unwrap();
        let results: Vec<_> = packets(parsed.arith_section).collect();
        assert!(results.last().unwrap().is_err());
    }

    #[test]
    fn handover_conversion() {
        let sh = SerializedHandover {
            bits_used: 3,
            partial: 0b1010_0000,
            prev_dc: [1, 2, 3, 4],
            rst_so_far: 9,
        };
        let h = sh.to_handover(55);
        assert_eq!(h.mcu, 55);
        assert_eq!(SerializedHandover::from_handover(&h), sh);
    }
}
