//! The invariant Lepton is built on: scan decode → re-encode is
//! byte-exact, for whole scans and for any segmentation into MCU ranges
//! via handover states (paper §3.4).

use lepton_jpeg::encoder::{encode_jpeg, EncodeOptions, Image, PixelData, Subsampling};
use lepton_jpeg::parser::parse;
use lepton_jpeg::scan::{
    decode_scan, encode_scan_whole, nonzero_mask, EncodeParams, ScanDecoder, ScanEncoder,
};

/// Deterministic pseudo-random bytes (xorshift64*).
fn prng_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut x = seed.max(1);
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

fn photo_like_gray(w: usize, h: usize, seed: u64) -> Image {
    // Smooth base + structured noise: produces realistic coefficient
    // distributions (not all-zero, not max-entropy).
    let noise = prng_bytes(seed, w * h);
    let data = (0..w * h)
        .map(|i| {
            let (x, y) = ((i % w) as f32, (i / w) as f32);
            let base = 128.0
                + 60.0 * ((x / 17.0).sin() * (y / 23.0).cos())
                + 30.0 * ((x + y) / 31.0).sin();
            (base + (noise[i] as f32 - 128.0) * 0.15).clamp(0.0, 255.0) as u8
        })
        .collect();
    Image {
        width: w,
        height: h,
        data: PixelData::Gray(data),
    }
}

fn photo_like_rgb(w: usize, h: usize, seed: u64) -> Image {
    let noise = prng_bytes(seed, w * h * 3);
    let mut data = Vec::with_capacity(w * h * 3);
    for y in 0..h {
        for x in 0..w {
            let i = (y * w + x) * 3;
            let r = 128.0 + 80.0 * ((x as f32) / 19.0).sin() + (noise[i] as f32 - 128.0) * 0.1;
            let g = 100.0 + 70.0 * ((y as f32) / 13.0).cos() + (noise[i + 1] as f32 - 128.0) * 0.1;
            let b =
                90.0 + 60.0 * (((x + y) as f32) / 29.0).sin() + (noise[i + 2] as f32 - 128.0) * 0.1;
            data.push(r.clamp(0.0, 255.0) as u8);
            data.push(g.clamp(0.0, 255.0) as u8);
            data.push(b.clamp(0.0, 255.0) as u8);
        }
    }
    Image {
        width: w,
        height: h,
        data: PixelData::Rgb(data),
    }
}

/// Decode the scan and re-encode it in one piece; assert byte equality
/// with the original file.
fn assert_whole_roundtrip(jpg: &[u8]) {
    let parsed = parse(jpg).expect("parse");
    let (sd, _) = decode_scan(jpg, &parsed, &[]).expect("decode scan");
    let params = EncodeParams {
        pad_bit: sd.pad.bit_or_default(),
        rst_limit: sd.rst_count,
    };
    let scan = encode_scan_whole(&sd.coefs, &parsed, &params).expect("encode scan");
    let original_scan = &jpg[parsed.header_len..sd.scan_end];
    assert_eq!(
        scan.len(),
        original_scan.len(),
        "scan length mismatch (orig {} vs re-encoded {})",
        original_scan.len(),
        scan.len()
    );
    assert_eq!(scan, original_scan, "scan bytes differ");
    // Full file = header + scan + trailing.
    let mut rebuilt = jpg[..parsed.header_len].to_vec();
    rebuilt.extend_from_slice(&scan);
    rebuilt.extend_from_slice(&jpg[sd.scan_end..]);
    assert_eq!(rebuilt, jpg, "full file differs");
}

/// Re-encode the scan in `nseg` MCU segments via handovers and assert
/// the concatenation is byte-exact.
fn assert_segmented_roundtrip(jpg: &[u8], nseg: u32) {
    let parsed = parse(jpg).expect("parse");
    let mcus = parsed.frame.mcu_count() as u32;
    let nseg = nseg.min(mcus.max(1));
    let bounds: Vec<u32> = (0..=nseg).map(|i| i * mcus / nseg).collect();
    assert_split_roundtrip(jpg, &bounds);
}

/// Decode the scan into coding-order blocks with a handover at each of
/// `bounds` (ascending, from 0 to the MCU count), re-encode each range
/// `[bounds[i], bounds[i + 1])` from its handover, and assert the
/// concatenation is the original scan.
fn assert_split_roundtrip(jpg: &[u8], bounds: &[u32]) {
    let parsed = parse(jpg).expect("parse");
    let bpm = parsed.blocks_per_mcu();
    let nseg = bounds.len() - 1;
    let mut blocks = vec![[0i16; 64]; parsed.frame.mcu_count() * bpm];
    let mut dec = ScanDecoder::new(jpg, &parsed).expect("decoder");
    let mut handovers = Vec::with_capacity(nseg);
    for &to in &bounds[1..] {
        handovers.push(dec.handover());
        let at = handovers.last().unwrap().mcu as usize * bpm;
        dec.decode_to(to, &mut blocks[at..]).expect("decode");
    }
    let end = dec.finish().expect("finish");
    let params = EncodeParams {
        pad_bit: end.pad.bit_or_default(),
        rst_limit: end.rst_count,
    };

    let mut cat = Vec::new();
    for i in 0..nseg {
        let mut enc = ScanEncoder::resume(&parsed, params, &handovers[i]).expect("encoder");
        let range = bounds[i] as usize * bpm..bounds[i + 1] as usize * bpm;
        for block in &blocks[range] {
            enc.push(block, nonzero_mask(block)).expect("encode block");
        }
        if i + 1 < nseg {
            // Cross-check the decoder's snapshot against the encoder's
            // handover chain; the straddling byte stays with the next
            // segment.
            let (end, next) = (enc.handover(), &handovers[i + 1]);
            assert_eq!(end.prev_dc, next.prev_dc, "segment {i} DC chain");
            assert_eq!(end.mcu, next.mcu);
            assert_eq!(end.rst_so_far, next.rst_so_far, "segment {i} RST chain");
            assert_eq!(end.partial, next.partial, "segment {i} partial byte");
            assert_eq!(end.bits_used, next.bits_used, "segment {i} bit offset");
        } else {
            enc.align();
        }
        cat.extend(enc.take_bytes());
    }
    let original_scan = &jpg[parsed.header_len..end.scan_end];
    assert_eq!(cat, original_scan, "scan differs split at {bounds:?}");
}

#[test]
fn gray_default_roundtrip() {
    let jpg = encode_jpeg(&photo_like_gray(40, 24, 1), &EncodeOptions::default()).unwrap();
    assert_whole_roundtrip(&jpg);
}

#[test]
fn color_420_roundtrip() {
    let jpg = encode_jpeg(&photo_like_rgb(48, 32, 2), &EncodeOptions::default()).unwrap();
    assert_whole_roundtrip(&jpg);
}

#[test]
fn color_444_roundtrip() {
    let opts = EncodeOptions {
        subsampling: Subsampling::S444,
        ..Default::default()
    };
    let jpg = encode_jpeg(&photo_like_rgb(31, 25, 3), &opts).unwrap();
    assert_whole_roundtrip(&jpg);
}

#[test]
fn color_422_roundtrip() {
    let opts = EncodeOptions {
        subsampling: Subsampling::S422,
        ..Default::default()
    };
    let jpg = encode_jpeg(&photo_like_rgb(50, 21, 4), &opts).unwrap();
    assert_whole_roundtrip(&jpg);
}

#[test]
fn quality_sweep_roundtrip() {
    for q in [10, 35, 50, 75, 92, 100] {
        let opts = EncodeOptions {
            quality: q,
            ..Default::default()
        };
        let jpg = encode_jpeg(&photo_like_rgb(32, 32, q as u64), &opts).unwrap();
        assert_whole_roundtrip(&jpg);
    }
}

#[test]
fn restart_interval_roundtrip() {
    for interval in [1u16, 2, 3, 7, 16] {
        let opts = EncodeOptions {
            restart_interval: interval,
            ..Default::default()
        };
        let jpg = encode_jpeg(&photo_like_gray(64, 40, interval as u64), &opts).unwrap();
        assert_whole_roundtrip(&jpg);
    }
}

#[test]
fn pad_bit_zero_roundtrip() {
    let opts = EncodeOptions {
        pad_bit: false,
        restart_interval: 4,
        ..Default::default()
    };
    let jpg = encode_jpeg(&photo_like_gray(48, 48, 9), &opts).unwrap();
    assert_whole_roundtrip(&jpg);
}

#[test]
fn optimized_tables_roundtrip() {
    let opts = EncodeOptions {
        optimize_tables: true,
        ..Default::default()
    };
    let jpg = encode_jpeg(&photo_like_rgb(40, 40, 11), &opts).unwrap();
    assert_whole_roundtrip(&jpg);
}

#[test]
fn trailing_garbage_preserved() {
    let mut jpg = encode_jpeg(&photo_like_gray(16, 16, 5), &EncodeOptions::default()).unwrap();
    jpg.extend_from_slice(b"CAMERA-TV-PREVIEW-DATA\x00\x01\x02");
    assert_whole_roundtrip(&jpg);
}

#[test]
fn segmented_gray() {
    let jpg = encode_jpeg(&photo_like_gray(80, 56, 21), &EncodeOptions::default()).unwrap();
    for nseg in [1, 2, 3, 5, 8] {
        assert_segmented_roundtrip(&jpg, nseg);
    }
}

#[test]
fn segmented_color_420() {
    let jpg = encode_jpeg(&photo_like_rgb(64, 48, 22), &EncodeOptions::default()).unwrap();
    for nseg in [2, 4, 7] {
        assert_segmented_roundtrip(&jpg, nseg);
    }
}

#[test]
fn segmented_with_restarts() {
    let opts = EncodeOptions {
        restart_interval: 3,
        ..Default::default()
    };
    let jpg = encode_jpeg(&photo_like_gray(72, 48, 23), &opts).unwrap();
    for nseg in [2, 3, 6] {
        assert_segmented_roundtrip(&jpg, nseg);
    }
}

#[test]
fn segmented_every_mcu() {
    // Pathological: one segment per MCU. Exercises every possible
    // handover position.
    let jpg = encode_jpeg(&photo_like_gray(32, 16, 24), &EncodeOptions::default()).unwrap();
    let parsed = parse(&jpg).unwrap();
    let mcus = parsed.frame.mcu_count() as u32;
    assert_segmented_roundtrip(&jpg, mcus);
}

/// `jpg` with its scan re-encoded so that only the first `kept` restart
/// markers are written: what a file looks like whose tail was zero-run
/// corrupted and still decodes (App. A.3).
fn with_restarts_stopping_after(jpg: &[u8], kept: u32) -> Vec<u8> {
    let parsed = parse(jpg).expect("parse");
    let (sd, _) = decode_scan(jpg, &parsed, &[]).expect("decode scan");
    assert!(sd.rst_count > kept, "the file has more markers to drop");
    let params = EncodeParams {
        pad_bit: sd.pad.bit_or_default(),
        rst_limit: kept,
    };
    let scan = encode_scan_whole(&sd.coefs, &parsed, &params).expect("encode scan");
    [&jpg[..parsed.header_len], &scan, &jpg[sd.scan_end..]].concat()
}

#[test]
fn zero_run_missing_rst_roundtrip() {
    // Appendix A.3: a file whose restart markers stop before the
    // interval says they should. The decoder counts the markers that
    // are there, and the re-encode stops inserting them at that count,
    // whole and split at MCUs past the last one.
    let opts = EncodeOptions {
        restart_interval: 2,
        ..Default::default()
    };
    let jpg = encode_jpeg(&photo_like_gray(128, 64, 31), &opts).unwrap();
    let parsed = parse(&jpg).unwrap();
    let mcus = parsed.frame.mcu_count() as u32;
    assert_eq!((mcus - 1) / 2, 63, "markers the interval implies");
    let file = with_restarts_stopping_after(&jpg, 21);
    let (sd, _) = decode_scan(&file, &parse(&file).unwrap(), &[]).expect("decodes");
    assert_eq!(sd.rst_count, 21);
    assert_whole_roundtrip(&file);
    // Marker 21 precedes MCU 42: split before and after it, at interval
    // starts that lost their marker, and mid-interval.
    assert_split_roundtrip(&file, &[0, 42, 43, 44, 90, 101, mcus]);
}

#[test]
fn all_flat_image_roundtrip() {
    // All-gray image: maximal EOB usage.
    let img = Image {
        width: 64,
        height: 64,
        data: PixelData::Gray(vec![128; 64 * 64]),
    };
    let jpg = encode_jpeg(&img, &EncodeOptions::default()).unwrap();
    assert_whole_roundtrip(&jpg);
    assert_segmented_roundtrip(&jpg, 4);
}

#[test]
fn high_detail_image_roundtrip() {
    // Max-entropy noise at quality 100: stresses long symbols and
    // 0xFF-stuffing density.
    let noise = prng_bytes(77, 48 * 48);
    let img = Image {
        width: 48,
        height: 48,
        data: PixelData::Gray(noise),
    };
    let opts = EncodeOptions {
        quality: 100,
        ..Default::default()
    };
    let jpg = encode_jpeg(&img, &opts).unwrap();
    assert_whole_roundtrip(&jpg);
    assert_segmented_roundtrip(&jpg, 5);
}

#[test]
fn wide_and_tall_images() {
    for (w, h) in [(8, 256), (256, 8), (1, 64), (64, 1), (9, 9)] {
        let jpg = encode_jpeg(
            &photo_like_gray(w, h, (w * h) as u64),
            &EncodeOptions::default(),
        )
        .unwrap();
        assert_whole_roundtrip(&jpg);
    }
}

#[test]
fn stats_account_for_scan_bits() {
    let jpg = encode_jpeg(&photo_like_rgb(64, 64, 55), &EncodeOptions::default()).unwrap();
    let parsed = parse(&jpg).unwrap();
    let (sd, _) = decode_scan(&jpg, &parsed, &[]).unwrap();
    let scan_bytes = (sd.scan_end - parsed.header_len) as u64;
    let accounted = sd.stats.total_bits() / 8;
    // Stats skip 0xFF stuffing bytes; allow a small gap.
    assert!(
        accounted <= scan_bytes && accounted + scan_bytes / 8 + 8 >= scan_bytes,
        "accounted {accounted} vs scan {scan_bytes}"
    );
    // In photo-like content the 7x7 region dominates (paper Fig. 4).
    assert!(sd.stats.ac77_bits > sd.stats.dc_bits);
}
