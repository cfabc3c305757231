//! Windowed-vs-per-bit equivalence: the bulk window refill (destuff /
//! marker scan) and the table-driven Huffman decode running on it must
//! be *indistinguishable* from the per-bit Annex F reference — same
//! values, same consumed positions, same statistics, same errors — over
//! adversarial stuffing placement, every window alignment, and the
//! random-table corpus.

use lepton_jpeg::bitio::ScanReader;
use lepton_jpeg::error::JpegError;
use lepton_jpeg::huffman::{std_ac_luma, std_dc_luma, HuffTable};
use lepton_jpeg::scan::{decode_block_for_tests, ScanStats};
use proptest::prelude::*;

/// Drain `data` through the windowed read path (odd 19-bit peeks so
/// transactions shear across byte and stuffing boundaries), then the
/// per-bit tail to exhaustion, in lockstep with a fresh reader driven by
/// `read_bit` alone — which never fills the window, so it is the per-bit
/// oracle. Every bit, every normalized position and the final error
/// must agree. (Raw `bit_offset` is not compared: it is unnormalized,
/// and the two paths skip a stuffed byte at different moments.)
fn assert_window_matches_per_bit(data: &[u8], start: usize, ctx: &str) {
    let mut windowed = ScanReader::new(data, start);
    let mut per_bit = ScanReader::new(data, start);
    let mut txn = 0usize;
    while windowed.ensure_bits(19) {
        let got = windowed.peek_bits(19);
        windowed.consume_bits(19);
        let mut want = 0u32;
        for _ in 0..19 {
            let bit = per_bit
                .read_bit()
                .unwrap_or_else(|e| panic!("oracle ended inside txn {txn}: {e:?} ({ctx})"));
            want = (want << 1) | bit as u32;
        }
        assert_eq!(got, want, "txn {txn} value diverged ({ctx})");
        assert_eq!(
            windowed.position(),
            per_bit.position(),
            "txn {txn} position diverged ({ctx})"
        );
        txn += 1;
    }
    loop {
        let (got, want) = (windowed.read_bit(), per_bit.read_bit());
        assert_eq!(got, want, "tail bit diverged after txn {txn} ({ctx})");
        assert_eq!(
            windowed.position(),
            per_bit.position(),
            "tail position diverged after txn {txn} ({ctx})"
        );
        if got.is_err() {
            break;
        }
    }
    assert_eq!(per_bit.window_len(), 0, "the oracle never used the window");
}

/// Every starting alignment × every 0xFF placement in a 64-byte window,
/// for stuffing (`FF 00`), a hard marker (`FF D9`), and doubled
/// stuffing — the zero-byte-trick bulk splice and its bytewise fallback
/// must hand out exactly the per-bit reader's bits in all of them.
#[test]
fn destuff_scan_alignment_matrix_equivalent() {
    for start in 0..8usize {
        for ff_pos in 0..64usize {
            for (kind, tail_byte) in [(0u8, 0x00u8), (1, 0xD9), (2, 0x00)] {
                let mut data = vec![0x5Au8; start + 80];
                let p = start + ff_pos;
                data[p] = 0xFF;
                data[p + 1] = tail_byte;
                if kind == 2 {
                    // Doubled stuffing: FF 00 FF 00 back to back.
                    data[p + 2] = 0xFF;
                    data[p + 3] = 0x00;
                }
                assert_window_matches_per_bit(
                    &data,
                    start,
                    &format!("start={start} ff={ff_pos} kind={kind}"),
                );
            }
        }
    }
}

/// Short buffers (every length 0..=24 with stuffing at every offset):
/// the end-of-data interaction with the eight-byte bulk load.
#[test]
fn destuff_scan_truncation_equivalent() {
    for len in 0..=24usize {
        for ff_pos in 0..len {
            let mut data = vec![0xA7u8; len];
            data[ff_pos] = 0xFF;
            if ff_pos + 1 < len {
                data[ff_pos + 1] = 0x00;
            }
            assert_window_matches_per_bit(&data, 0, &format!("len={len} ff={ff_pos}"));
        }
    }
}

/// One block decoded through `path` from a fresh reader; returns every
/// observable: result, coefficients, position, bit
/// offset, statistics, and the DC predictor.
#[allow(clippy::type_complexity)]
fn block_trace(
    dc: &HuffTable,
    ac: &HuffTable,
    data: &[u8],
    path: u8,
) -> (
    Result<(), JpegError>,
    [i16; 64],
    (usize, u8),
    usize,
    ScanStats,
    i16,
) {
    let mut r = ScanReader::new(data, 0);
    let mut out = [0i16; 64];
    let mut stats = ScanStats::default();
    let mut prev = 3i16;
    let res = decode_block_for_tests(dc, ac, &mut r, &mut prev, &mut out, &mut stats, path);
    let p = r.position();
    (res, out, (p.byte, p.bits_used), r.bit_offset(), stats, prev)
}

/// Reference (path 0) vs windowed (path 1): all observables equal.
fn assert_block_paths_agree(dc: &HuffTable, ac: &HuffTable, data: &[u8], ctx: &str) {
    let reference = block_trace(dc, ac, data, 0);
    let windowed = block_trace(dc, ac, data, 1);
    assert_eq!(reference, windowed, "windowed decode diverged ({ctx})");
}

/// Standard-table blocks with dense coefficient runs, plus
/// stuffing-heavy magnitudes.
#[test]
fn windowed_decode_standard_tables_equivalent() {
    let dc = std_dc_luma();
    let ac = std_ac_luma();
    // Craft blocks from (run, size) sequences with varied magnitudes;
    // 0xFFFF-ish magnitude patterns force stuffed bytes mid-symbol.
    let patterns: &[&[(u8, u8)]] = &[
        &[(0, 1); 63],                // fully dense, shortest codes
        &[(1, 2), (0, 3), (2, 1)],    // mixed runs then EOB
        &[(15, 0), (15, 0), (0, 4)],  // ZRL pairs
        &[(0, 10), (0, 10), (0, 10)], // max size, long magnitudes
        &[(4, 6), (3, 5), (7, 2)],    // interior scatter
        &[(0, 1), (15, 0), (0, 1)],   // plain, special, plain
        &[(11, 1), (11, 1), (11, 1)], // run overflow mid-block
        &[],                          // immediate EOB
    ];
    for (pi, pat) in patterns.iter().enumerate() {
        for seed in 0..8u64 {
            let mut w = lepton_jpeg::bitio::ScanWriter::new();
            // DC: size 3, magnitude chosen from the seed.
            let (c, l) = dc.encode(3).expect("dc code");
            w.put_bits(c as u32, l);
            w.put_bits((seed & 7) as u32, 3);
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for &(run, size) in pat.iter() {
                let sym = (run << 4) | size;
                if let Some((c, l)) = ac.encode(sym) {
                    w.put_bits(c as u32, l);
                    if size > 0 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        w.put_bits((x as u32) & ((1 << size) - 1), size);
                    }
                }
            }
            if let Some((c, l)) = ac.encode(0x00) {
                w.put_bits(c as u32, l); // EOB
            }
            let data = w.finish_scan(seed % 2 == 0);
            assert_block_paths_agree(&dc, &ac, &data, &format!("pattern {pi} seed {seed}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Marker-dense random streams: arbitrary 0xFF placement at every
    /// density, drained through the windowed path beside the oracle.
    #[test]
    fn destuff_scan_random_marker_dense_equivalent(
        picks in proptest::collection::vec(0u8..=4, 0..160),
        start in 0usize..4,
        seed in any::<u64>(),
    ) {
            let mut x = seed | 1;
        let data: Vec<u8> = picks
            .iter()
            .map(|&p| match p {
                0 => 0xFF,
                1 => 0x00,
                2 => 0xD0, // RST0 when it follows 0xFF
                _ => {
                    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                    x as u8
                }
            })
            .collect();
        if start <= data.len() {
            assert_window_matches_per_bit(&data, start, "proptest");
        }
    }

    /// The PR-5 random-table corpus, replayed against the windowed
    /// decode: random optimal AC tables, random symbol/magnitude
    /// streams (valid prefixes, possibly dying into pad bits) — same
    /// symbols, same positions, same errors as the reference.
    #[test]
    fn windowed_decode_random_tables_equivalent(
        seed_freqs in proptest::collection::vec(0u32..1000, 40),
        picks in proptest::collection::vec(any::<u16>(), 0..120),
        dc_mag in any::<u32>(),
        pad in any::<bool>(),
    ) {
            let mut freqs = [0u32; 256];
        for (i, &f) in seed_freqs.iter().enumerate() {
            freqs[(i * 6 + 1) % 256] = f;
        }
        freqs[0] = freqs[0].max(1);
        let Ok(ac) = HuffTable::optimal(&freqs) else {
            return Ok(());
        };
        let dc = std_dc_luma();
        let mut w = lepton_jpeg::bitio::ScanWriter::new();
        let (c, l) = dc.encode(4).expect("dc code");
        w.put_bits(c as u32, l);
        w.put_bits(dc_mag & 0xF, 4);
        for &p in &picks {
            let sym = ac.values[p as usize % ac.values.len()];
            let (c, l) = ac.encode(sym).expect("in table");
            w.put_bits(c as u32, l);
            let size = sym & 0x0F;
            if (1..=10).contains(&size) {
                w.put_bits(p as u32 & ((1 << size) - 1), size);
            }
        }
        let data = w.finish_scan(pad);
        assert_block_paths_agree(&dc, &ac, &data, "random corpus");
    }

    /// Random garbage through both block-decode paths: agreement
    /// on the first error is required even when nothing is valid.
    #[test]
    fn windowed_decode_garbage_equivalent(
        data in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
            let dc = std_dc_luma();
        let ac = std_ac_luma();
        assert_block_paths_agree(&dc, &ac, &data, "garbage");
    }
}
