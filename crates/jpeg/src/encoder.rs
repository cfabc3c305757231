//! Pixel-level baseline JPEG encoder.
//!
//! Produces complete, standards-conformant baseline JPEG files from raw
//! pixels: color conversion, chroma subsampling, forward DCT,
//! quantization (IJG quality scaling), and Huffman coding with either the
//! Annex K standard tables or per-image optimal tables.
//!
//! The Lepton paper evaluates on files "encoded by fixed-function
//! compression chips" and consumer libraries; this encoder stands in for
//! those sources when synthesizing the evaluation corpus
//! (`lepton-corpus`). It intentionally exposes the knobs that vary in
//! the wild — quality, subsampling, restart intervals, optimized vs.
//! standard tables, pad-bit convention — because Lepton must round-trip
//! all of them.

use crate::coeffs::CoefPlanes;
use crate::dct::fdct_f32;
use crate::error::JpegError;
use crate::huffman::{std_ac_chroma, std_ac_luma, std_dc_chroma, std_dc_luma, HuffTable};
use crate::parser::parse;
use crate::quant::{chroma_table, luma_table};
use crate::scan::{encode_scan_whole, EncodeParams};
use crate::types::{ZIGZAG, ZIGZAG_INV};

/// Raw image pixel data.
#[derive(Clone, Debug)]
pub enum PixelData {
    /// 8-bit grayscale, row-major.
    Gray(Vec<u8>),
    /// 8-bit RGB interleaved, row-major.
    Rgb(Vec<u8>),
}

/// A raw image to encode.
#[derive(Clone, Debug)]
pub struct Image {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Pixel payload; length must match `width * height * channels`.
    pub data: PixelData,
}

/// Chroma subsampling mode for color images.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subsampling {
    /// No subsampling (1x1,1x1,1x1).
    S444,
    /// Horizontal 2:1 (2x1,1x1,1x1).
    S422,
    /// Horizontal and vertical 2:1 (2x2,1x1,1x1).
    S420,
}

impl Subsampling {
    fn luma_factors(self) -> (u8, u8) {
        match self {
            Subsampling::S444 => (1, 1),
            Subsampling::S422 => (2, 1),
            Subsampling::S420 => (2, 2),
        }
    }
}

/// Encoder options.
#[derive(Clone, Debug)]
pub struct EncodeOptions {
    /// IJG quality factor, 1..=100.
    pub quality: u8,
    /// Chroma subsampling (ignored for grayscale input).
    pub subsampling: Subsampling,
    /// Restart interval in MCUs (0 = no restarts).
    pub restart_interval: u16,
    /// Build per-image optimal Huffman tables instead of Annex K.
    pub optimize_tables: bool,
    /// Pad bit used at byte-alignment points (encoders in the wild use
    /// both conventions; Lepton must preserve either).
    pub pad_bit: bool,
    /// Optional COM segment payload.
    pub comment: Option<Vec<u8>>,
    /// Emit a JFIF APP0 segment.
    pub app0: bool,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions {
            quality: 85,
            subsampling: Subsampling::S420,
            restart_interval: 0,
            optimize_tables: false,
            pad_bit: true,
            comment: None,
            app0: true,
        }
    }
}

fn clamp_u8(v: f32) -> u8 {
    v.round().clamp(0.0, 255.0) as u8
}

/// One padded component plane of samples.
struct SamplePlane {
    w: usize,
    h: usize,
    data: Vec<u8>,
}

impl SamplePlane {
    fn get(&self, x: usize, y: usize) -> u8 {
        self.data[y.min(self.h - 1) * self.w + x.min(self.w - 1)]
    }
}

/// Convert + subsample into per-component planes at natural size.
fn make_planes(img: &Image, sub: Subsampling) -> Vec<SamplePlane> {
    match &img.data {
        PixelData::Gray(g) => {
            assert_eq!(g.len(), img.width * img.height, "gray payload size");
            vec![SamplePlane {
                w: img.width,
                h: img.height,
                data: g.clone(),
            }]
        }
        PixelData::Rgb(rgb) => {
            assert_eq!(rgb.len(), img.width * img.height * 3, "rgb payload size");
            let (w, h) = (img.width, img.height);
            let mut y = vec![0u8; w * h];
            let mut cb = vec![0u8; w * h];
            let mut cr = vec![0u8; w * h];
            for i in 0..w * h {
                let (r, g, b) = (
                    rgb[i * 3] as f32,
                    rgb[i * 3 + 1] as f32,
                    rgb[i * 3 + 2] as f32,
                );
                y[i] = clamp_u8(0.299 * r + 0.587 * g + 0.114 * b);
                cb[i] = clamp_u8(-0.168736 * r - 0.331264 * g + 0.5 * b + 128.0);
                cr[i] = clamp_u8(0.5 * r - 0.418688 * g - 0.081312 * b + 128.0);
            }
            let (sh, sv) = match sub {
                Subsampling::S444 => (1usize, 1usize),
                Subsampling::S422 => (2, 1),
                Subsampling::S420 => (2, 2),
            };
            let (cw, ch) = (w.div_ceil(sh), h.div_ceil(sv));
            let subsample = |src: &[u8]| -> Vec<u8> {
                let mut out = vec![0u8; cw * ch];
                for oy in 0..ch {
                    for ox in 0..cw {
                        let mut acc = 0u32;
                        let mut n = 0u32;
                        for dy in 0..sv {
                            for dx in 0..sh {
                                let (sx, sy) = (ox * sh + dx, oy * sv + dy);
                                if sx < w && sy < h {
                                    acc += src[sy * w + sx] as u32;
                                    n += 1;
                                }
                            }
                        }
                        out[oy * cw + ox] = ((acc + n / 2) / n) as u8;
                    }
                }
                out
            };
            vec![
                SamplePlane { w, h, data: y },
                SamplePlane {
                    w: cw,
                    h: ch,
                    data: subsample(&cb),
                },
                SamplePlane {
                    w: cw,
                    h: ch,
                    data: subsample(&cr),
                },
            ]
        }
    }
}

/// FDCT + quantize a sample plane into a coefficient plane.
fn transform_plane(
    plane: &SamplePlane,
    quant: &[u16; 64],
    blocks_w: usize,
    blocks_h: usize,
) -> Vec<i16> {
    let mut out = vec![0i16; blocks_w * blocks_h * 64];
    for by in 0..blocks_h {
        for bx in 0..blocks_w {
            let mut px = [0f32; 64];
            for yy in 0..8 {
                for xx in 0..8 {
                    // Edge-replicate padding beyond the natural size.
                    px[yy * 8 + xx] = plane.get(bx * 8 + xx, by * 8 + yy) as f32 - 128.0;
                }
            }
            let f = fdct_f32(&px);
            let off = (by * blocks_w + bx) * 64;
            for i in 0..64 {
                let q = quant[i] as f32;
                out[off + i] = (f[i] / q).round() as i16;
            }
        }
    }
    out
}

fn push_segment(out: &mut Vec<u8>, marker: u8, payload: &[u8]) {
    out.push(0xFF);
    out.push(marker);
    out.extend_from_slice(&((payload.len() + 2) as u16).to_be_bytes());
    out.extend_from_slice(payload);
}

/// Tally Huffman symbol frequencies for optimal-table construction.
#[allow(clippy::too_many_arguments)] // one-shot table-builder helper; a params struct would be used once
fn tally_symbols(
    planes: &CoefPlanes,
    comp_of_plane: &[usize],
    dc_freq: &mut [[u32; 256]; 2],
    ac_freq: &mut [[u32; 256]; 2],
    interval_reset: impl Fn(u32) -> bool,
    mcu_layout: &[(usize, usize, usize)], // (plane, blocks_w multiplier h, v)
    mcus_x: usize,
    mcu_count: u32,
) {
    let mut prev_dc = [0i16; 4];
    for mcu in 0..mcu_count {
        if interval_reset(mcu) {
            prev_dc = [0; 4];
        }
        let (mx, my) = ((mcu as usize) % mcus_x, (mcu as usize) / mcus_x);
        for &(pi, ch, cv) in mcu_layout {
            let class = if comp_of_plane[pi] == 0 { 0 } else { 1 };
            for by in 0..cv {
                for bx in 0..ch {
                    let block = planes.planes[pi].block(mx * ch + bx, my * cv + by);
                    let diff = block[0] as i32 - prev_dc[pi] as i32;
                    prev_dc[pi] = block[0];
                    let s = (32 - diff.unsigned_abs().leading_zeros()) as u8;
                    dc_freq[class][s as usize] += 1;
                    let mut run = 0usize;
                    for k in 1..=63usize {
                        let v = block[ZIGZAG[k]] as i32;
                        if v == 0 {
                            run += 1;
                            continue;
                        }
                        while run > 15 {
                            ac_freq[class][0xF0] += 1;
                            run -= 16;
                        }
                        let s = (32 - v.unsigned_abs().leading_zeros()) as u8;
                        ac_freq[class][((run as u8) << 4 | s) as usize] += 1;
                        run = 0;
                    }
                    if run > 0 {
                        ac_freq[class][0x00] += 1;
                    }
                }
            }
        }
    }
}

/// Encode `img` as a complete baseline JPEG file.
pub fn encode_jpeg(img: &Image, opts: &EncodeOptions) -> Result<Vec<u8>, JpegError> {
    if img.width == 0 || img.height == 0 {
        return Err(JpegError::ZeroDimension);
    }
    if img.width > 65535 || img.height > 65535 {
        return Err(JpegError::Malformed("dimensions exceed 16 bits"));
    }
    let is_gray = matches!(img.data, PixelData::Gray(_));
    let sample_planes = make_planes(img, opts.subsampling);

    let (lh, lv) = if is_gray {
        (1, 1)
    } else {
        opts.subsampling.luma_factors()
    };
    let (hmax, vmax) = (lh as usize, lv as usize);
    let mcus_x = img.width.div_ceil(8 * hmax);
    let mcus_y = img.height.div_ceil(8 * vmax);
    let mcu_count = (mcus_x * mcus_y) as u32;

    // Quantization tables.
    let qy = luma_table(opts.quality);
    let qc = chroma_table(opts.quality);

    // Transform each plane.
    let mut coef_data: Vec<Vec<i16>> = Vec::new();
    let mut dims: Vec<(usize, usize)> = Vec::new();
    for (pi, sp) in sample_planes.iter().enumerate() {
        let (h, v) = if pi == 0 { (lh, lv) } else { (1, 1) };
        let (bw, bh) = (mcus_x * h as usize, mcus_y * v as usize);
        let q = if pi == 0 { &qy } else { &qc };
        coef_data.push(transform_plane(sp, q, bw, bh));
        dims.push((bw, bh));
    }

    // Assemble the header.
    let mut out = vec![0xFF, 0xD8];
    if opts.app0 {
        push_segment(
            &mut out,
            0xE0,
            &[b'J', b'F', b'I', b'F', 0, 1, 1, 0, 0, 1, 0, 1, 0, 0],
        );
    }
    if let Some(c) = &opts.comment {
        push_segment(&mut out, 0xFE, c);
    }
    // DQT (zigzag order on the wire).
    let mut dqt = vec![0x00u8];
    for k in 0..64 {
        dqt.push(qy[ZIGZAG[k]] as u8);
    }
    if !is_gray {
        dqt.push(0x01);
        for k in 0..64 {
            dqt.push(qc[ZIGZAG[k]] as u8);
        }
    }
    push_segment(&mut out, 0xDB, &dqt);

    // SOF0.
    let ncomp = if is_gray { 1 } else { 3 };
    let mut sof = vec![8u8];
    sof.extend_from_slice(&(img.height as u16).to_be_bytes());
    sof.extend_from_slice(&(img.width as u16).to_be_bytes());
    sof.push(ncomp);
    sof.extend_from_slice(&[1, (lh << 4) | lv, 0]);
    if !is_gray {
        sof.extend_from_slice(&[2, 0x11, 1]);
        sof.extend_from_slice(&[3, 0x11, 1]);
    }
    push_segment(&mut out, 0xC0, &sof);

    // Build coefficient planes in the shape the scan encoder expects.
    // (Assemble a CoefPlanes by hand; parse() will produce matching dims.)
    let mut planes = Vec::new();
    for (pi, data) in coef_data.iter().enumerate() {
        let (bw, bh) = dims[pi];
        let mut plane = crate::coeffs::Plane::new(bw, bh);
        plane.raw_mut().copy_from_slice(data);
        planes.push(plane);
    }
    let coefs = CoefPlanes { planes };

    // Huffman tables: standard or optimal.
    let (dc0, ac0, dc1, ac1): (HuffTable, HuffTable, HuffTable, HuffTable) = if opts.optimize_tables
    {
        let mut dc_freq = [[0u32; 256]; 2];
        let mut ac_freq = [[0u32; 256]; 2];
        let layout: Vec<(usize, usize, usize)> = (0..coefs.planes.len())
            .map(|pi| {
                if pi == 0 {
                    (pi, lh as usize, lv as usize)
                } else {
                    (pi, 1, 1)
                }
            })
            .collect();
        let interval = opts.restart_interval as u32;
        tally_symbols(
            &coefs,
            &(0..coefs.planes.len()).collect::<Vec<_>>(),
            &mut dc_freq,
            &mut ac_freq,
            |mcu| interval > 0 && mcu > 0 && mcu % interval == 0,
            &layout,
            mcus_x,
            mcu_count,
        );
        let dc0 = HuffTable::optimal(&dc_freq[0])?;
        let ac0 = HuffTable::optimal(&ac_freq[0])?;
        let (dc1, ac1) = if is_gray {
            (std_dc_chroma(), std_ac_chroma())
        } else {
            (
                HuffTable::optimal(&dc_freq[1])?,
                HuffTable::optimal(&ac_freq[1])?,
            )
        };
        (dc0, ac0, dc1, ac1)
    } else {
        (
            std_dc_luma(),
            std_ac_luma(),
            std_dc_chroma(),
            std_ac_chroma(),
        )
    };

    // DHT segment(s).
    let mut dht = Vec::new();
    dht.push(0x00);
    dht.extend_from_slice(&dc0.to_dht_fragment());
    dht.push(0x10);
    dht.extend_from_slice(&ac0.to_dht_fragment());
    if !is_gray {
        dht.push(0x01);
        dht.extend_from_slice(&dc1.to_dht_fragment());
        dht.push(0x11);
        dht.extend_from_slice(&ac1.to_dht_fragment());
    }
    push_segment(&mut out, 0xC4, &dht);

    if opts.restart_interval > 0 {
        push_segment(&mut out, 0xDD, &opts.restart_interval.to_be_bytes());
    }

    // SOS.
    let mut sos = vec![ncomp];
    sos.extend_from_slice(&[1, 0x00]);
    if !is_gray {
        sos.extend_from_slice(&[2, 0x11]);
        sos.extend_from_slice(&[3, 0x11]);
    }
    sos.extend_from_slice(&[0, 63, 0]);
    push_segment(&mut out, 0xDA, &sos);

    // Parse our own header to obtain a ParsedJpeg (also validates it),
    // then entropy-code the scan.
    let parsed = parse(&out)?;
    debug_assert_eq!(parsed.frame.mcu_count() as u32, mcu_count);
    let rst_limit = if opts.restart_interval > 0 {
        (mcu_count.saturating_sub(1)) / opts.restart_interval as u32
    } else {
        0
    };
    let params = EncodeParams {
        pad_bit: opts.pad_bit,
        rst_limit,
    };
    let scan = encode_scan_whole(&coefs, &parsed, &params)?;
    out.extend_from_slice(&scan);
    out.extend_from_slice(&[0xFF, 0xD9]); // EOI
    Ok(out)
}

/// Decode helper used in tests and the corpus: reconstruct approximate
/// pixels of the *luma* plane from a parsed file (inverse of the encode
/// pipeline, without upsampling chroma). Returns (width, height, pixels).
pub fn decode_luma_approx(data: &[u8]) -> Result<(usize, usize, Vec<u8>), JpegError> {
    let parsed = parse(data)?;
    let (scan_data, _) = crate::scan::decode_scan(data, &parsed, &[])?;
    let comp = &parsed.frame.components[0];
    let quant = parsed.quant_for(0)?;
    let (w, h) = (parsed.frame.width as usize, parsed.frame.height as usize);
    let mut px = vec![0u8; w * h];
    let plane = &scan_data.coefs.planes[0];
    for by in 0..comp.blocks_h {
        for bx in 0..comp.blocks_w {
            let block = plane.block(bx, by);
            let mut deq = [0i32; 64];
            for i in 0..64 {
                deq[i] = block[i] as i32 * quant[i] as i32;
            }
            let idct = crate::dct::idct_i32_scalar(&deq);
            for yy in 0..8 {
                for xx in 0..8 {
                    let (x, y) = (bx * 8 + xx, by * 8 + yy);
                    if x < w && y < h {
                        let v = (idct[yy * 8 + xx] >> crate::dct::SCALE_BITS) + 128;
                        px[y * w + x] = v.clamp(0, 255) as u8;
                    }
                }
            }
        }
    }
    let _ = ZIGZAG_INV; // re-exported for downstream users
    Ok((w, h, px))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_gray(w: usize, h: usize) -> Image {
        let data = (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                ((x * 2 + y * 3) % 256) as u8
            })
            .collect();
        Image {
            width: w,
            height: h,
            data: PixelData::Gray(data),
        }
    }

    fn gradient_rgb(w: usize, h: usize) -> Image {
        let mut data = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                data.push((x * 255 / w.max(1)) as u8);
                data.push((y * 255 / h.max(1)) as u8);
                data.push(((x + y) % 256) as u8);
            }
        }
        Image {
            width: w,
            height: h,
            data: PixelData::Rgb(data),
        }
    }

    #[test]
    fn encodes_valid_gray() {
        let img = gradient_gray(16, 16);
        let jpg = encode_jpeg(&img, &EncodeOptions::default()).unwrap();
        assert_eq!(&jpg[..2], &[0xFF, 0xD8]);
        assert_eq!(&jpg[jpg.len() - 2..], &[0xFF, 0xD9]);
        let parsed = parse(&jpg).unwrap();
        assert_eq!(parsed.frame.components.len(), 1);
    }

    #[test]
    fn encodes_valid_color_all_subsamplings() {
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            let img = gradient_rgb(33, 17); // odd sizes exercise padding
            let opts = EncodeOptions {
                subsampling: sub,
                ..Default::default()
            };
            let jpg = encode_jpeg(&img, &opts).unwrap();
            let parsed = parse(&jpg).unwrap();
            assert_eq!(parsed.frame.components.len(), 3, "{sub:?}");
            let (_, snapshots) = crate::scan::decode_scan(&jpg, &parsed, &[]).unwrap();
            assert!(snapshots.is_empty());
        }
    }

    #[test]
    fn decoded_luma_is_close() {
        // Quality 95: decoded pixels should be near the original for a
        // smooth gradient.
        let w = 32;
        let img = Image {
            width: w,
            height: w,
            data: PixelData::Gray((0..w * w).map(|i| (i % w * 8) as u8).collect()),
        };
        let opts = EncodeOptions {
            quality: 95,
            ..Default::default()
        };
        let jpg = encode_jpeg(&img, &opts).unwrap();
        let (dw, dh, px) = decode_luma_approx(&jpg).unwrap();
        assert_eq!((dw, dh), (w, w));
        let orig = match &img.data {
            PixelData::Gray(g) => g.clone(),
            _ => unreachable!(),
        };
        let mut err = 0i64;
        for i in 0..px.len() {
            err += (px[i] as i64 - orig[i] as i64).abs();
        }
        let mae = err as f64 / px.len() as f64;
        assert!(mae < 4.0, "mean abs error {mae}");
    }

    #[test]
    fn restart_markers_emitted() {
        let img = gradient_gray(64, 16); // 8x2 = 16 MCUs
        let opts = EncodeOptions {
            restart_interval: 3,
            ..Default::default()
        };
        let jpg = encode_jpeg(&img, &opts).unwrap();
        // Count RST markers in the scan.
        let rsts = jpg
            .windows(2)
            .filter(|w| w[0] == 0xFF && (0xD0..=0xD7).contains(&w[1]))
            .count();
        assert_eq!(rsts, (16 - 1) / 3);
        // And the file still parses + decodes.
        let parsed = parse(&jpg).unwrap();
        let (sd, _) = crate::scan::decode_scan(&jpg, &parsed, &[]).unwrap();
        assert_eq!(sd.rst_count, 5);
    }

    #[test]
    fn optimized_tables_smaller_or_equal() {
        let img = gradient_rgb(64, 64);
        let std = encode_jpeg(&img, &EncodeOptions::default()).unwrap();
        let opt = encode_jpeg(
            &img,
            &EncodeOptions {
                optimize_tables: true,
                ..Default::default()
            },
        )
        .unwrap();
        // Optimized entropy coding shrinks the scan; headers differ a bit
        // but overall the file should not grow meaningfully.
        assert!(
            opt.len() <= std.len() + 64,
            "optimized {} vs standard {}",
            opt.len(),
            std.len()
        );
        assert!(parse(&opt).is_ok());
    }

    #[test]
    fn one_pixel_image() {
        let img = gradient_gray(1, 1);
        let jpg = encode_jpeg(&img, &EncodeOptions::default()).unwrap();
        let parsed = parse(&jpg).unwrap();
        assert_eq!(parsed.frame.mcu_count(), 1);
        crate::scan::decode_scan(&jpg, &parsed, &[]).unwrap();
    }

    #[test]
    fn pad_bit_zero_supported() {
        let img = gradient_gray(24, 24);
        let opts = EncodeOptions {
            pad_bit: false,
            restart_interval: 2,
            ..Default::default()
        };
        let jpg = encode_jpeg(&img, &opts).unwrap();
        let parsed = parse(&jpg).unwrap();
        let (sd, _) = crate::scan::decode_scan(&jpg, &parsed, &[]).unwrap();
        use crate::bitio::PadState;
        assert!(matches!(sd.pad, PadState::Seen(false) | PadState::Unknown));
    }

    #[test]
    fn rejects_zero_size() {
        let img = Image {
            width: 0,
            height: 8,
            data: PixelData::Gray(vec![]),
        };
        assert!(encode_jpeg(&img, &EncodeOptions::default()).is_err());
    }
}
