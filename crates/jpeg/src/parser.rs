//! Segment-level JPEG container parsing (SOI through SOS).
//!
//! Produces a [`ParsedJpeg`]: frame/scan structure, quantization and
//! Huffman tables, restart interval, and the offset where entropy-coded
//! data begins. Everything before that offset is the "header" that
//! Lepton stores zlib-compressed and byte-verbatim (paper §3.1); nothing
//! in it needs re-deriving on decode.

use crate::error::JpegError;
use crate::huffman::HuffTable;
use crate::markers;
use crate::types::{Component, FrameInfo, ScanComponent, ScanInfo, ZIGZAG};

/// Resource limits applied during parsing, mirroring the deployment's
/// memory discipline (§5.1, §6.2).
#[derive(Clone, Copy, Debug)]
pub struct ParseLimits {
    /// Cap on coefficient-plane storage in bytes
    /// (the production analogue is the 24 MiB decode / 178 MiB encode caps).
    pub max_coef_bytes: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        // Matches the paper's encode-side cap (§6.2 ">178 MiB mem encode").
        ParseLimits {
            max_coef_bytes: 178 << 20,
        }
    }
}

/// A parsed baseline JPEG container, up to and including the SOS header.
#[derive(Clone, Debug)]
pub struct ParsedJpeg {
    /// Frame geometry and components.
    pub frame: FrameInfo,
    /// The single scan's component layout.
    pub scan: ScanInfo,
    /// Quantization tables by id, **raster order** entries.
    pub quant: [Option<[u16; 64]>; 4],
    /// DC Huffman tables by id.
    pub dc_tables: [Option<HuffTable>; 4],
    /// AC Huffman tables by id.
    pub ac_tables: [Option<HuffTable>; 4],
    /// Restart interval in MCUs (0 = none).
    pub restart_interval: u16,
    /// Offset of the first entropy-coded byte (end of the SOS segment).
    /// `data[..header_len]` is the verbatim header.
    pub header_len: usize,
}

impl ParsedJpeg {
    /// Quantization table for frame component `c` (raster order).
    pub fn quant_for(&self, c: usize) -> Result<&[u16; 64], JpegError> {
        let tq = self.frame.components[c].tq as usize;
        self.quant[tq]
            .as_ref()
            .ok_or(JpegError::BadQuant("missing table"))
    }

    /// Blocks one MCU of the scan codes (Σ h·v over the scan
    /// components): the stride of the coding-order block sequence
    /// [`crate::ScanDecoder`] writes and the Lepton segment walk reads.
    pub fn blocks_per_mcu(&self) -> usize {
        self.scan
            .components
            .iter()
            .map(|sc| self.frame.blocks_per_mcu(sc.comp_index))
            .sum()
    }
}

fn read_u16(data: &[u8], pos: usize) -> Result<u16, JpegError> {
    if pos + 2 > data.len() {
        return Err(JpegError::Truncated);
    }
    Ok(u16::from_be_bytes([data[pos], data[pos + 1]]))
}

/// Parse a JPEG container with default limits.
pub fn parse(data: &[u8]) -> Result<ParsedJpeg, JpegError> {
    parse_with_limits(data, &ParseLimits::default())
}

/// Parse a JPEG container, enforcing `limits`.
pub fn parse_with_limits(data: &[u8], limits: &ParseLimits) -> Result<ParsedJpeg, JpegError> {
    if data.len() < 2 || data[0] != 0xFF || data[1] != markers::SOI {
        return Err(JpegError::NotAJpeg);
    }
    let mut pos = 2usize;
    let mut quant: [Option<[u16; 64]>; 4] = [None, None, None, None];
    let mut dc_tables: [Option<HuffTable>; 4] = [None, None, None, None];
    let mut ac_tables: [Option<HuffTable>; 4] = [None, None, None, None];
    let mut restart_interval = 0u16;
    let mut frame: Option<FrameInfo> = None;

    loop {
        // Find the next marker: skip fill bytes (0xFF may repeat).
        if pos >= data.len() {
            return Err(JpegError::Truncated);
        }
        if data[pos] != 0xFF {
            return Err(JpegError::Malformed("expected marker"));
        }
        while pos < data.len() && data[pos] == 0xFF {
            pos += 1;
        }
        if pos >= data.len() {
            return Err(JpegError::Truncated);
        }
        let marker = data[pos];
        pos += 1;

        match marker {
            0x00 => return Err(JpegError::Malformed("stuffed byte outside scan")),
            markers::EOI => return Err(JpegError::Malformed("EOI before scan")),
            m if markers::is_rst(m) => {
                return Err(JpegError::Malformed("restart marker outside scan"))
            }
            m if markers::is_sof(m) => {
                if frame.is_some() {
                    return Err(JpegError::Malformed("multiple frames"));
                }
                match m {
                    markers::SOF0 | markers::SOF1 => {}
                    markers::SOF2 => return Err(JpegError::Progressive),
                    other => return Err(JpegError::UnsupportedFrame(other)),
                }
                let len = read_u16(data, pos)? as usize;
                if len < 8 || pos + len > data.len() {
                    return Err(JpegError::Truncated);
                }
                let body = &data[pos + 2..pos + len];
                let precision = body[0];
                if precision != 8 {
                    return Err(JpegError::UnsupportedPrecision(precision));
                }
                let height = u16::from_be_bytes([body[1], body[2]]);
                let width = u16::from_be_bytes([body[3], body[4]]);
                if width == 0 || height == 0 {
                    // Height 0 could legally be fixed by DNL; we do not
                    // support DNL (production Lepton doesn't either).
                    return Err(JpegError::ZeroDimension);
                }
                let ncomp = body[5] as usize;
                match ncomp {
                    1 | 3 => {}
                    4 => return Err(JpegError::FourColor),
                    _ => return Err(JpegError::Malformed("bad component count")),
                }
                if body.len() < 6 + ncomp * 3 {
                    return Err(JpegError::Truncated);
                }
                let mut components = Vec::with_capacity(ncomp);
                for c in 0..ncomp {
                    let id = body[6 + c * 3];
                    let hv = body[7 + c * 3];
                    let (h, v) = (hv >> 4, hv & 0x0F);
                    if !(1..=2).contains(&h) || !(1..=2).contains(&v) {
                        return Err(JpegError::UnsupportedSampling);
                    }
                    let tq = body[8 + c * 3];
                    if tq > 3 {
                        return Err(JpegError::BadQuant("table id > 3"));
                    }
                    components.push(Component {
                        id,
                        h,
                        v,
                        tq,
                        blocks_w: 0,
                        blocks_h: 0,
                    });
                }
                let hmax = components.iter().map(|c| c.h).max().expect("nonempty");
                let vmax = components.iter().map(|c| c.v).max().expect("nonempty");
                // Chroma planes larger than luma are pathological.
                if ncomp == 3 && (components[0].h < hmax || components[0].v < vmax) {
                    return Err(JpegError::UnsupportedSampling);
                }
                let mcus_x = (width as usize).div_ceil(8 * hmax as usize);
                let mcus_y = (height as usize).div_ceil(8 * vmax as usize);
                for c in components.iter_mut() {
                    c.blocks_w = mcus_x * c.h as usize;
                    c.blocks_h = mcus_y * c.v as usize;
                }
                let total_coef_bytes: usize = components
                    .iter()
                    .map(|c| c.blocks_w * c.blocks_h * 64 * 2)
                    .sum();
                if total_coef_bytes > limits.max_coef_bytes {
                    return Err(JpegError::TooLarge {
                        required: total_coef_bytes,
                        limit: limits.max_coef_bytes,
                    });
                }
                frame = Some(FrameInfo {
                    precision,
                    width,
                    height,
                    components,
                    mcus_x,
                    mcus_y,
                    hmax,
                    vmax,
                });
                pos += len;
            }
            markers::DQT => {
                let len = read_u16(data, pos)? as usize;
                if len < 2 || pos + len > data.len() {
                    return Err(JpegError::Truncated);
                }
                let mut q = pos + 2;
                let end = pos + len;
                while q < end {
                    let pq_tq = data[q];
                    let (pq, tq) = (pq_tq >> 4, (pq_tq & 0x0F) as usize);
                    if tq > 3 || pq > 1 {
                        return Err(JpegError::BadQuant("bad Pq/Tq"));
                    }
                    let entry_size = if pq == 0 { 1 } else { 2 };
                    if q + 1 + 64 * entry_size > end {
                        return Err(JpegError::BadQuant("short table"));
                    }
                    let mut table = [0u16; 64];
                    for k in 0..64 {
                        let v = if pq == 0 {
                            data[q + 1 + k] as u16
                        } else {
                            u16::from_be_bytes([data[q + 1 + 2 * k], data[q + 2 + 2 * k]])
                        };
                        if v == 0 {
                            return Err(JpegError::BadQuant("zero divisor"));
                        }
                        // DQT entries are in zigzag order; store raster.
                        table[ZIGZAG[k]] = v;
                    }
                    quant[tq] = Some(table);
                    q += 1 + 64 * entry_size;
                }
                pos += len;
            }
            markers::DHT => {
                let len = read_u16(data, pos)? as usize;
                if len < 2 || pos + len > data.len() {
                    return Err(JpegError::Truncated);
                }
                let mut q = pos + 2;
                let end = pos + len;
                while q < end {
                    if q + 17 > end {
                        return Err(JpegError::BadHuffman("short DHT"));
                    }
                    let tc_th = data[q];
                    let (tc, th) = (tc_th >> 4, (tc_th & 0x0F) as usize);
                    if tc > 1 || th > 3 {
                        return Err(JpegError::BadHuffman("bad Tc/Th"));
                    }
                    let mut bits = [0u8; 17];
                    bits[1..17].copy_from_slice(&data[q + 1..q + 17]);
                    let count: usize = bits[1..].iter().map(|&b| b as usize).sum();
                    if q + 17 + count > end {
                        return Err(JpegError::BadHuffman("short values"));
                    }
                    let values = data[q + 17..q + 17 + count].to_vec();
                    let table = HuffTable::new(bits, values)?;
                    if tc == 0 {
                        dc_tables[th] = Some(table);
                    } else {
                        ac_tables[th] = Some(table);
                    }
                    q += 17 + count;
                }
                pos += len;
            }
            markers::DRI => {
                let len = read_u16(data, pos)? as usize;
                if len != 4 || pos + len > data.len() {
                    return Err(JpegError::Malformed("bad DRI length"));
                }
                restart_interval = read_u16(data, pos + 2)?;
                pos += len;
            }
            markers::DAC => return Err(JpegError::UnsupportedFrame(markers::DAC)),
            markers::DNL => return Err(JpegError::UnsupportedScan),
            markers::SOS => {
                let frame = frame.ok_or(JpegError::Malformed("SOS before SOF"))?;
                let len = read_u16(data, pos)? as usize;
                if len < 6 || pos + len > data.len() {
                    return Err(JpegError::Truncated);
                }
                let body = &data[pos + 2..pos + len];
                let ns = body[0] as usize;
                if ns != frame.components.len() {
                    // Multi-scan sequential files are not supported
                    // (mirrors the production deployment).
                    return Err(JpegError::UnsupportedScan);
                }
                if body.len() < 1 + ns * 2 + 3 {
                    return Err(JpegError::Truncated);
                }
                let mut scan_components = Vec::with_capacity(ns);
                for s in 0..ns {
                    let cs = body[1 + s * 2];
                    let td_ta = body[2 + s * 2];
                    let comp_index = frame
                        .components
                        .iter()
                        .position(|c| c.id == cs)
                        .ok_or(JpegError::Malformed("scan references unknown component"))?;
                    let (td, ta) = (td_ta >> 4, td_ta & 0x0F);
                    if td > 3 || ta > 3 {
                        return Err(JpegError::BadHuffman("bad table selector"));
                    }
                    if dc_tables[td as usize].is_none() || ac_tables[ta as usize].is_none() {
                        return Err(JpegError::BadHuffman("scan references missing table"));
                    }
                    scan_components.push(ScanComponent {
                        comp_index,
                        dc_table: td,
                        ac_table: ta,
                    });
                }
                let (ss, se, ahal) = (body[1 + ns * 2], body[2 + ns * 2], body[3 + ns * 2]);
                if ss != 0 || se != 63 || ahal != 0 {
                    // Spectral selection / successive approximation are
                    // progressive features.
                    return Err(JpegError::UnsupportedScan);
                }
                // Every scan component needs its quantization table.
                for sc in &scan_components {
                    let tq = frame.components[sc.comp_index].tq as usize;
                    if quant[tq].is_none() {
                        return Err(JpegError::BadQuant("missing table"));
                    }
                }
                return Ok(ParsedJpeg {
                    frame,
                    scan: ScanInfo {
                        components: scan_components,
                    },
                    quant,
                    dc_tables,
                    ac_tables,
                    restart_interval,
                    header_len: pos + len,
                });
            }
            // APPn, COM, and anything else with a length: skip.
            _ => {
                let len = read_u16(data, pos)? as usize;
                if len < 2 || pos + len > data.len() {
                    return Err(JpegError::Truncated);
                }
                pos += len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal 1-component 8x8 baseline JPEG header for tests.
    pub(crate) fn tiny_gray_header() -> Vec<u8> {
        let mut v = vec![0xFF, 0xD8]; // SOI

        // DQT: all-16 table, id 0.
        v.extend_from_slice(&[0xFF, 0xDB, 0x00, 0x43, 0x00]);
        v.extend(std::iter::repeat_n(16u8, 64));
        // DHT DC0: the standard luma DC table.
        let t = crate::huffman::std_dc_luma();
        let frag = t.to_dht_fragment();
        v.extend_from_slice(&[0xFF, 0xC4]);
        v.extend_from_slice(&((3 + frag.len()) as u16).to_be_bytes());
        v.push(0x00);
        v.extend_from_slice(&frag);
        // DHT AC0: standard luma AC.
        let t = crate::huffman::std_ac_luma();
        let frag = t.to_dht_fragment();
        v.extend_from_slice(&[0xFF, 0xC4]);
        v.extend_from_slice(&((3 + frag.len()) as u16).to_be_bytes());
        v.push(0x10);
        v.extend_from_slice(&frag);
        // SOF0: 8x8, 1 component, h=v=1, tq=0.
        v.extend_from_slice(&[
            0xFF, 0xC0, 0x00, 0x0B, 0x08, 0x00, 0x08, 0x00, 0x08, 0x01, 0x01, 0x11, 0x00,
        ]);
        // SOS: 1 component, tables 0/0, Ss=0 Se=63 AhAl=0.
        v.extend_from_slice(&[0xFF, 0xDA, 0x00, 0x08, 0x01, 0x01, 0x00, 0x00, 0x3F, 0x00]);
        v
    }

    #[test]
    fn parses_tiny_header() {
        let mut data = tiny_gray_header();
        let hlen = data.len();
        data.extend_from_slice(&[0x00, 0xFF, 0xD9]); // fake scan + EOI
        let p = parse(&data).unwrap();
        assert_eq!(p.header_len, hlen);
        assert_eq!(p.frame.width, 8);
        assert_eq!(p.frame.height, 8);
        assert_eq!(p.frame.components.len(), 1);
        assert_eq!(p.frame.mcus_x, 1);
        assert_eq!(p.frame.mcu_count(), 1);
        assert!(p.quant[0].is_some());
        assert_eq!(p.quant[0].unwrap()[0], 16);
        assert_eq!(p.restart_interval, 0);
    }

    #[test]
    fn rejects_non_jpeg() {
        assert_eq!(parse(b"PNG...").unwrap_err(), JpegError::NotAJpeg);
        assert_eq!(parse(b"").unwrap_err(), JpegError::NotAJpeg);
        assert_eq!(parse(&[0xFF]).unwrap_err(), JpegError::NotAJpeg);
    }

    #[test]
    fn rejects_progressive() {
        let mut data = tiny_gray_header();
        // Flip SOF0 marker to SOF2.
        let sof = data
            .windows(2)
            .position(|w| w == [0xFF, 0xC0])
            .expect("has SOF");
        data[sof + 1] = 0xC2;
        assert_eq!(parse(&data).unwrap_err(), JpegError::Progressive);
    }

    #[test]
    fn rejects_cmyk() {
        // SOF with 4 components.
        let mut v = vec![0xFF, 0xD8];
        v.extend_from_slice(&[
            0xFF, 0xC0, 0x00, 0x14, 0x08, 0x00, 0x08, 0x00, 0x08, 0x04, 0x01, 0x11, 0x00, 0x02,
            0x11, 0x00, 0x03, 0x11, 0x00, 0x04, 0x11, 0x00,
        ]);
        assert_eq!(parse(&v).unwrap_err(), JpegError::FourColor);
    }

    #[test]
    fn rejects_12bit() {
        let mut data = tiny_gray_header();
        let sof = data.windows(2).position(|w| w == [0xFF, 0xC0]).unwrap();
        data[sof + 4] = 12; // precision byte
        assert_eq!(
            parse(&data).unwrap_err(),
            JpegError::UnsupportedPrecision(12)
        );
    }

    #[test]
    fn rejects_big_sampling() {
        let mut data = tiny_gray_header();
        let sof = data.windows(2).position(|w| w == [0xFF, 0xC0]).unwrap();
        data[sof + 11] = 0x31; // h=3
        assert_eq!(parse(&data).unwrap_err(), JpegError::UnsupportedSampling);
    }

    #[test]
    fn rejects_truncated_segment() {
        let data = tiny_gray_header();
        assert_eq!(parse(&data[..10]).unwrap_err(), JpegError::Truncated);
    }

    #[test]
    fn rejects_oversize_image() {
        let mut data = tiny_gray_header();
        let sof = data.windows(2).position(|w| w == [0xFF, 0xC0]).unwrap();
        // height/width = 0xFFFF.
        data[sof + 5] = 0xFF;
        data[sof + 6] = 0xFF;
        data[sof + 7] = 0xFF;
        data[sof + 8] = 0xFF;
        let limits = ParseLimits {
            max_coef_bytes: 1 << 20,
        };
        assert!(matches!(
            parse_with_limits(&data, &limits).unwrap_err(),
            JpegError::TooLarge { .. }
        ));
    }

    #[test]
    fn rejects_zero_quant_divisor() {
        let mut data = tiny_gray_header();
        // First DQT entry byte (after Pq/Tq) → 0.
        let dqt = data.windows(2).position(|w| w == [0xFF, 0xDB]).unwrap();
        data[dqt + 5] = 0;
        assert!(matches!(parse(&data).unwrap_err(), JpegError::BadQuant(_)));
    }

    #[test]
    fn rejects_missing_huffman_table() {
        let data = tiny_gray_header();
        // Remove the AC DHT segment: find second DHT and splice it out.
        let mut idx = Vec::new();
        let mut i = 0;
        while i + 1 < data.len() {
            if data[i] == 0xFF && data[i + 1] == 0xC4 {
                idx.push(i);
            }
            i += 1;
        }
        assert_eq!(idx.len(), 2);
        let len = u16::from_be_bytes([data[idx[1] + 2], data[idx[1] + 3]]) as usize;
        let mut cut = data[..idx[1]].to_vec();
        cut.extend_from_slice(&data[idx[1] + 2 + len..]);
        assert!(matches!(parse(&cut).unwrap_err(), JpegError::BadHuffman(_)));
    }

    #[test]
    fn dqt_zigzag_to_raster() {
        // A DQT whose zigzag entry 2 (raster (1,0)=index 8) is distinct.
        let mut data = tiny_gray_header();
        let dqt = data.windows(2).position(|w| w == [0xFF, 0xDB]).unwrap();
        // zigzag index 2 is the third payload byte.
        data[dqt + 5 + 2] = 99;
        data.extend_from_slice(&[0x00, 0xFF, 0xD9]);
        let p = parse(&data).unwrap();
        assert_eq!(p.quant[0].unwrap()[8], 99);
    }

    #[test]
    fn parses_dri() {
        let data = tiny_gray_header();
        // Insert DRI before SOS.
        let sos = data.windows(2).position(|w| w == [0xFF, 0xDA]).unwrap();
        let mut v = data[..sos].to_vec();
        v.extend_from_slice(&[0xFF, 0xDD, 0x00, 0x04, 0x00, 0x07]);
        v.extend_from_slice(&data[sos..]);
        v.extend_from_slice(&[0x00, 0xFF, 0xD9]);
        let p = parse(&v).unwrap();
        assert_eq!(p.restart_interval, 7);
    }

    #[test]
    fn skips_appn_and_com() {
        let mut v = vec![0xFF, 0xD8];
        v.extend_from_slice(&[0xFF, 0xE0, 0x00, 0x04, b'J', b'F']); // APP0
        v.extend_from_slice(&[0xFF, 0xFE, 0x00, 0x05, b'h', b'i', b'!']); // COM
        v.extend_from_slice(&tiny_gray_header()[2..]);
        v.extend_from_slice(&[0x00, 0xFF, 0xD9]);
        assert!(parse(&v).is_ok());
    }
}
