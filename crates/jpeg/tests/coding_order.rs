//! The scan decoder writes blocks in coding order — per MCU, per scan
//! component, `v` rows of `h` blocks — and `decode_scan` lays the same
//! blocks out as frame-shaped planes. For every golden JPEG (4:4:4 /
//! 4:2:0 / 4:2:2 / gray, restart intervals, trailing bytes), placing
//! the coding-order blocks at their plane positions must give exactly
//! `decode_scan`'s planes, however the decode is split into MCU ranges;
//! and those planes must re-encode to the original scan bytes, which
//! pins them independently of either placement.

use lepton_jpeg::scan::{decode_scan, encode_scan_whole, EncodeParams};
use lepton_jpeg::{parse, CoefBlock, CoefPlanes, ParsedJpeg, ScanDecoder};
use std::path::Path;

/// Every committed golden JPEG, by file name, in name order.
fn golden_jpegs() -> Vec<(String, Vec<u8>)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/golden");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("golden directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "jpg"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&p).expect("read golden JPEG"))
        })
        .collect()
}

/// The test's own placement of a whole scan's coding-order blocks.
fn scatter(parsed: &ParsedJpeg, blocks: &[CoefBlock]) -> CoefPlanes {
    let frame = &parsed.frame;
    let mut planes = CoefPlanes::for_frame(frame);
    let mut next = blocks.iter();
    for my in 0..frame.mcus_y {
        for mx in 0..frame.mcus_x {
            for sc in &parsed.scan.components {
                let c = &frame.components[sc.comp_index];
                let (h, v) = (c.h as usize, c.v as usize);
                for by in 0..v {
                    for bx in 0..h {
                        *planes.planes[sc.comp_index].block_mut(mx * h + bx, my * v + by) =
                            *next.next().expect("a block for every position");
                    }
                }
            }
        }
    }
    assert!(next.next().is_none(), "no block left over");
    planes
}

#[test]
fn scattered_coding_order_blocks_are_decode_scans_planes() {
    let files = golden_jpegs();
    assert_eq!(files.len(), 12, "the golden set");
    for (name, jpg) in &files {
        let parsed = parse(jpg).expect(name);
        let mcus = parsed.frame.mcu_count() as u32;
        let bpm = parsed.blocks_per_mcu();
        // Uneven MCU ranges whose bounds land mid-row, decoded into
        // disjoint slices of one buffer the way the encoder does.
        let mut cuts = vec![0, 1, mcus / 3 + 1, mcus / 2, mcus - 1, mcus];
        cuts.sort_unstable();
        cuts.dedup();
        let mut blocks = vec![[0i16; 64]; mcus as usize * bpm];
        let mut dec = ScanDecoder::new(jpg, &parsed).expect(name);
        let mut handovers = Vec::new();
        let mut rest = &mut blocks[..];
        for w in cuts.windows(2) {
            handovers.push(dec.handover());
            let len = (w[1] - w[0]) as usize * bpm;
            let (seg, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            dec.decode_to(w[1], seg).expect(name);
        }
        assert!(rest.is_empty(), "{name}: the ranges cover the scan");
        let end = dec.finish().expect(name);

        let (sd, snapshots) = decode_scan(jpg, &parsed, &cuts[..cuts.len() - 1]).expect(name);
        assert_eq!(handovers, snapshots, "{name}: handovers");
        assert!(scatter(&parsed, &blocks) == sd.coefs, "{name}: planes");
        assert_eq!(end.stats, sd.stats, "{name}: stats");
        assert_eq!(end.scan_end, sd.scan_end, "{name}: scan end");
        assert_eq!(end.rst_count, sd.rst_count, "{name}: restarts");
        assert_eq!(end.pad, sd.pad, "{name}: pad bits");

        let params = EncodeParams {
            pad_bit: sd.pad.bit_or_default(),
            rst_limit: sd.rst_count,
        };
        let scan = encode_scan_whole(&sd.coefs, &parsed, &params).expect(name);
        assert!(
            scan == jpg[parsed.header_len..sd.scan_end],
            "{name}: planes re-encode to the original scan"
        );
    }
}
