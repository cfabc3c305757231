//! Equivalence harness: the windowed lookahead Huffman decode vs the
//! Annex F per-bit reference decoder.
//!
//! The fast path (8-bit first-level LUT + `maxcode` walk on a peeked
//! window, bulk destuffed refills) must be *indistinguishable* from the
//! reference `HuffTable::decode` driven by `ScanReader::read_bit`:
//! same symbols, same consumed positions, and — on adversarial streams
//! (invalid codes, truncation mid-code, stuffing at refill boundaries)
//! — the same errors. These tests pin that over (a) every code of the
//! four standard tables, (b) random optimal tables fed random valid
//! bitstreams, and (c) crafted hostile streams.
//!
//! The encode side has the same shape: the mask-driven block encoder
//! (visit only the nonzero positions, one write per symbol) against
//! the 63-position loop it replaced.

use lepton_jpeg::bitio::{ScanReader, ScanWriter};
use lepton_jpeg::error::JpegError;
use lepton_jpeg::huffman::{std_ac_chroma, std_ac_luma, std_dc_chroma, std_dc_luma, HuffTable};
use lepton_jpeg::scan::{nonzero_mask, BlockHuffEncoder};
use lepton_jpeg::ZIGZAG;
use proptest::prelude::*;

/// Reference decode of one symbol: Annex F DECODE over per-bit reads.
fn decode_reference(table: &HuffTable, r: &mut ScanReader) -> Result<u8, JpegError> {
    table.decode(|| r.read_bit())?
}

/// Decode `n` symbols through both paths from identical readers and
/// assert lock-step agreement on symbols, positions, and errors.
fn assert_equivalent(table: &HuffTable, data: &[u8], n: usize) {
    let mut fast = ScanReader::new(data, 0);
    let mut reference = ScanReader::new(data, 0);
    for i in 0..n {
        let f = table.decode_symbol(&mut fast);
        let r = decode_reference(table, &mut reference);
        assert_eq!(f, r, "symbol {i} diverged");
        if f.is_err() {
            return; // both failed identically; stream is dead
        }
        assert_eq!(
            fast.position(),
            reference.position(),
            "position diverged after symbol {i}"
        );
        assert_eq!(
            fast.bit_offset(),
            reference.bit_offset(),
            "bit offset diverged after symbol {i}"
        );
    }
}

/// Every code word of each standard table, one per stream, padded with
/// ones (and with zeros) past the code.
#[test]
fn std_tables_every_code_equivalent() {
    for table in [
        std_dc_luma(),
        std_dc_chroma(),
        std_ac_luma(),
        std_ac_chroma(),
    ] {
        for &sym in &table.values {
            let (code, len) = table.encode(sym).expect("symbol in table");
            for pad_ones in [false, true] {
                let mut w = ScanWriter::new();
                w.put_bits(code as u32, len);
                // Enough trailing bits that the decode never truncates.
                for _ in 0..4 {
                    w.put_bits(if pad_ones { 0xAA } else { 0x55 }, 8);
                }
                let bytes = w.finish_scan(pad_ones);
                let mut r = ScanReader::new(&bytes, 0);
                assert_eq!(table.decode_symbol(&mut r), Ok(sym));
                assert_equivalent(&table, &bytes, 1);
            }
        }
    }
}

/// A table whose symbols encode to long runs of ones produces `0xFF`
/// scan bytes, forcing `0xFF 0x00` stuffing at refill boundaries.
#[test]
fn stuffing_heavy_streams_equivalent() {
    // Skew frequencies so one symbol gets a very short code and others
    // long (near-all-ones) codes.
    let mut freqs = [0u32; 256];
    freqs[0] = 1_000_000;
    for (i, f) in (1..32u32).enumerate() {
        freqs[i + 1] = 32 - f;
    }
    let table = HuffTable::optimal(&freqs).expect("optimal table");
    // Encode a symbol sequence dominated by the long codes.
    let mut w = ScanWriter::new();
    let syms: Vec<u8> = (0..400).map(|i| ((i % 31) + 1) as u8).collect();
    for &s in &syms {
        let (code, len) = table.encode(s).expect("in table");
        w.put_bits(code as u32, len);
    }
    let bytes = w.finish_scan(true);
    assert!(
        bytes.windows(2).any(|p| p == [0xFF, 0x00]),
        "stream must exercise stuffing"
    );
    let mut fast = ScanReader::new(&bytes, 0);
    for (i, &s) in syms.iter().enumerate() {
        assert_eq!(table.decode_symbol(&mut fast), Ok(s), "symbol {i}");
    }
    assert_equivalent(&table, &bytes, syms.len());
}

/// All-ones streams: invalid in tables that reserve the all-ones code
/// (every standard table). Both paths must report `BadScanCode` — or,
/// if the stream dies first, `Truncated` — identically.
#[test]
fn all_ones_stream_equivalent() {
    for table in [std_dc_luma(), std_ac_luma(), std_ac_chroma()] {
        for len in [1usize, 2, 3, 5, 8] {
            let data = vec![[0xFF, 0x00]; len].concat();
            assert_equivalent(&table, &data, 4);
        }
    }
}

/// Truncation mid-code: cut a valid stream at every byte boundary and
/// decode to exhaustion — errors must match bit-for-bit.
#[test]
fn truncation_mid_code_equivalent() {
    let table = std_ac_luma();
    let mut w = ScanWriter::new();
    for i in 0..64u32 {
        let sym = table.values[(i as usize * 7) % table.values.len()];
        let (code, len) = table.encode(sym).expect("in table");
        w.put_bits(code as u32, len);
    }
    let bytes = w.finish_scan(true);
    for cut in 0..bytes.len() {
        assert_equivalent(&table, &bytes[..cut], 80);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random optimal tables fed random *valid* bitstreams: the fast
    /// path must reproduce every symbol and every reader position.
    #[test]
    fn random_tables_valid_streams_equivalent(
        seed_freqs in proptest::collection::vec(0u32..1000, 40),
        picks in proptest::collection::vec(any::<u16>(), 1..300),
        pad in any::<bool>(),
    ) {
        let mut freqs = [0u32; 256];
        for (i, &f) in seed_freqs.iter().enumerate() {
            // Spread the symbols over the byte range; keep at least one.
            freqs[(i * 6 + 1) % 256] = f;
        }
        freqs[0] = freqs[0].max(1);
        let Ok(table) = HuffTable::optimal(&freqs) else {
            return Ok(());
        };
        let syms: Vec<u8> = picks
            .iter()
            .map(|&p| table.values[p as usize % table.values.len()])
            .collect();
        let mut w = ScanWriter::new();
        for &s in &syms {
            let (code, len) = table.encode(s).expect("in table");
            w.put_bits(code as u32, len);
        }
        let bytes = w.finish_scan(pad);

        let mut fast = ScanReader::new(&bytes, 0);
        let mut reference = ScanReader::new(&bytes, 0);
        for (i, &s) in syms.iter().enumerate() {
            let f = table.decode_symbol(&mut fast);
            let r = decode_reference(&table, &mut reference);
            prop_assert_eq!(f, r, "path divergence at symbol {}", i);
            // Decoding can legitimately fail near the end: the final
            // code may be completed by pad bits into another valid
            // (or invalid) code. Agreement is required; success only
            // while the writer's bits are unambiguous.
            if let Ok(v) = f {
                prop_assert_eq!(v, s, "wrong symbol at {}", i);
            } else {
                break;
            }
            prop_assert_eq!(fast.position(), reference.position());
        }
    }

    /// Random garbage bytes (arbitrary stuffing/marker placement): both
    /// paths must agree symbol-for-symbol until the first error, and on
    /// the error itself.
    #[test]
    fn random_garbage_equivalent(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        for table in [std_dc_luma(), std_ac_luma()] {
            // Clone the buffer so marker bytes stay wherever they fall.
            assert_equivalent(&table, &data, 64);
        }
    }
}

/// The block encoder [`BlockHuffEncoder::encode_masked`] replaced: test
/// all 63 zigzag positions, write code and magnitude separately.
fn encode_block_reference(
    dc: &HuffTable,
    ac: &HuffTable,
    w: &mut ScanWriter,
    block: &[i16; 64],
    prev_dc: &mut i16,
) -> Result<(), JpegError> {
    let category = |v: i32| (32 - v.unsigned_abs().leading_zeros()) as u8;
    let magnitude = |v: i32, s: u8| if v < 0 { v + (1 << s) - 1 } else { v } as u32;
    let diff = block[0] as i32 - *prev_dc as i32;
    *prev_dc = block[0];
    let s = category(diff);
    if s > 11 {
        return Err(JpegError::DcOutOfRange);
    }
    let (code, len) = dc.encode(s).expect("std DC table");
    w.put_bits(code as u32, len);
    w.put_bits(magnitude(diff, s), s);
    let mut run = 0u8;
    for k in 1..=63 {
        let v = block[ZIGZAG[k]] as i32;
        if v == 0 {
            run += 1;
            continue;
        }
        while run > 15 {
            let (code, len) = ac.encode(0xF0).expect("std AC table");
            w.put_bits(code as u32, len);
            run -= 16;
        }
        let s = category(v);
        if s > 10 {
            return Err(JpegError::AcOutOfRange);
        }
        let (code, len) = ac.encode((run << 4) | s).expect("std AC table");
        w.put_bits(code as u32, len);
        w.put_bits(magnitude(v, s), s);
        run = 0;
    }
    if run > 0 {
        let (code, len) = ac.encode(0x00).expect("std AC table");
        w.put_bits(code as u32, len);
    }
    Ok(())
}

/// Encode `blocks` back to back through the reference and through the
/// mask-driven encoder (mask given, and mask computed): same result per
/// block, same bytes.
fn assert_block_encoders_agree(blocks: &[[i16; 64]]) {
    let (dc, ac) = (std_dc_luma(), std_ac_luma());
    let enc = BlockHuffEncoder::new(&dc, &ac);
    let mut writers = [ScanWriter::new(), ScanWriter::new(), ScanWriter::new()];
    let mut prev = [0i16; 3];
    for (i, block) in blocks.iter().enumerate() {
        let [wr, wm, we] = &mut writers;
        let want = encode_block_reference(&dc, &ac, wr, block, &mut prev[0]);
        let masked = enc.encode_masked(wm, block, nonzero_mask(block), &mut prev[1]);
        assert_eq!(masked, want, "block {i}: {block:?}");
        assert_eq!(enc.encode(we, block, &mut prev[2]), want, "block {i}");
        if want.is_err() {
            break;
        }
    }
    let [wr, wm, we] = writers.map(|w| w.finish_scan(true));
    assert_eq!(wm, wr, "masked encode bytes");
    assert_eq!(we, wr, "self-masking encode bytes");
}

/// The shapes the mask walk has to get right, one by one.
#[test]
fn masked_block_encode_corner_cases() {
    let at = |pairs: &[(usize, i16)]| {
        let mut b = [0i16; 64];
        for &(k, v) in pairs {
            b[ZIGZAG[k]] = v;
        }
        b
    };
    assert_block_encoders_agree(&[
        [0; 64],                               // all zero: DC size 0, EOB
        at(&[(0, -37)]),                       // DC only
        at(&[(63, 1)]),                        // three ZRLs, no EOB
        at(&[(1, -1), (63, 1023)]),            // run of 61 between them
        at(&[(17, 5)]),                        // run of exactly 16 → one ZRL, run 0
        at(&[(16, -5), (33, 2), (50, -1023)]), // runs of 15 / 16 / 16
        at(&[(0, 2047), (62, -7)]),            // ends one short of 63: EOB
        [1; 64],                               // dense: no runs, no EOB
        [-1023; 64],                           // dense, longest magnitudes
    ]);
    // Out-of-range values: the same error, after the same bytes.
    assert_block_encoders_agree(&[at(&[(2, 3), (5, 1024)])]);
    assert_block_encoders_agree(&[at(&[(0, -2048), (3, 9)])]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random block sequences at every density, from nearly empty
    /// (long runs, ZRLs) to fully dense.
    #[test]
    fn masked_block_encode_equals_reference(
        cells in proptest::collection::vec((any::<u16>(), -1023i16..=1023), 64..640),
        density in 0u16..=64,
    ) {
        let blocks: Vec<[i16; 64]> = cells
            .chunks_exact(64)
            .map(|chunk| {
                let mut b = [0i16; 64];
                for (slot, &(dice, v)) in b.iter_mut().zip(chunk) {
                    if dice % 64 < density {
                        *slot = v;
                    }
                }
                b
            })
            .collect();
        assert_block_encoders_agree(&blocks);
    }
}
