//! Handcrafted hostile JPEGs: one constructor per taxonomy error.
//!
//! The torture rig's reachability gate needs a *constructed input* for
//! every error the codec can report (§6.2's exit-code table). Random
//! mutation finds the structural errors easily but almost never the
//! scan-level ones (a random byte string rarely decodes to an
//! out-of-range DC difference through a valid Huffman table), so those
//! are built bit-by-bit here: custom single-code DHT tables give full
//! control over what each scan bit decodes to.
//!
//! Every function is deterministic and allocation-bounded; none of
//! these inputs can be larger than a few hundred bytes.

/// A DHT segment for one table: `class_id` packs Tc (high nibble) and
/// Th (low nibble), `bits` are the 16 code-length counts, `values` the
/// symbol list.
fn dht_segment(class_id: u8, bits: [u8; 16], values: &[u8]) -> Vec<u8> {
    let mut v = vec![0xFF, 0xC4];
    let len = 2 + 1 + 16 + values.len();
    v.extend_from_slice(&(len as u16).to_be_bytes());
    v.push(class_id);
    v.extend_from_slice(&bits);
    v.extend_from_slice(values);
    v
}

/// A single-code table: the 1-bit code `0` maps to `value`; the bit `1`
/// matches nothing (16 consumed bits then an invalid-code error).
fn single_code_dht(class_id: u8, value: u8) -> Vec<u8> {
    let mut bits = [0u8; 16];
    bits[0] = 1; // one code of length 1
    dht_segment(class_id, bits, &[value])
}

/// DQT segment: all-16 8-bit table, id 0.
fn dqt_all16() -> Vec<u8> {
    let mut v = vec![0xFF, 0xDB, 0x00, 0x43, 0x00];
    v.extend(std::iter::repeat_n(16u8, 64));
    v
}

/// SOF0 for a `width`x`height` single-component (grayscale) frame.
fn sof0_gray(width: u16, height: u16) -> Vec<u8> {
    let mut v = vec![0xFF, 0xC0, 0x00, 0x0B, 0x08];
    v.extend_from_slice(&height.to_be_bytes());
    v.extend_from_slice(&width.to_be_bytes());
    v.extend_from_slice(&[0x01, 0x01, 0x11, 0x00]);
    v
}

/// SOS header for the single grayscale component, tables 0/0.
fn sos_gray() -> Vec<u8> {
    vec![0xFF, 0xDA, 0x00, 0x08, 0x01, 0x01, 0x00, 0x00, 0x3F, 0x00]
}

/// Header (SOI..SOS) of an 8x8 grayscale file whose DC table decodes
/// the bit `0` to `dc_value` and whose AC table decodes `0` to
/// `ac_value`.
fn single_code_header(dc_value: u8, ac_value: u8, width: u16, height: u16) -> Vec<u8> {
    let mut v = vec![0xFF, 0xD8];
    v.extend_from_slice(&dqt_all16());
    v.extend_from_slice(&single_code_dht(0x00, dc_value));
    v.extend_from_slice(&single_code_dht(0x10, ac_value));
    v.extend_from_slice(&sof0_gray(width, height));
    v
}

/// "DC values out of range": the first scan bit decodes to DC size
/// category 12 — past the baseline maximum of 11.
pub fn dc_out_of_range() -> Vec<u8> {
    let mut v = single_code_header(0x0C, 0x00, 8, 8);
    v.extend_from_slice(&sos_gray());
    v.extend_from_slice(&[0x00, 0xFF, 0xD9]);
    v
}

/// "DC values out of range", past the scan: every DC difference is a
/// legal category-11 value (+2000), so the scan decodes to a DC ramp
/// 2000, 4000, …, 16000 that fits an i16. The model codes DC as a delta
/// from a prediction clamped to ±2047, and a delta of 8192 or more is
/// beyond its Exp-Golomb range, so the encoder must refuse the file.
pub fn dc_beyond_model_range() -> Vec<u8> {
    let mut v = single_code_header(0x0B, 0x00, 64, 8);
    v.extend_from_slice(&sos_gray());
    // Per block: DC code `0`, the 11 bits of +2000, then AC code `0`
    // (EOB) — 13 bits, 8 blocks, 13 whole bytes. The longest run of
    // `1` bits is 5, so no byte needs 0xFF stuffing.
    let mut bits = 0u128;
    for _ in 0..8 {
        bits = (bits << 13) | (2000 << 1);
    }
    v.extend_from_slice(&bits.to_be_bytes()[3..]);
    v.extend_from_slice(&[0xFF, 0xD9]);
    v
}

/// A legal file whose DC differences swing across a restart: a 64x8
/// grayscale frame with `DRI 5` whose differences are +2000 five times,
/// then `RST0`, then -2000 three times. The restart resets the scan's
/// DC predictor, so the DCs run 2000 … 10000, then -2000 … -6000. A
/// coder that carries its own predictor across the restart sees a
/// difference of -12000. Lepton encodes this file, so it is not one of
/// [`crate::hostile_cases`], which must all be refused.
pub fn dc_swing_across_restart() -> Vec<u8> {
    let mut v = single_code_header(0x0B, 0x00, 64, 8);
    v.extend_from_slice(&[0xFF, 0xDD, 0x00, 0x04, 0x00, 0x05]); // DRI = 5
    v.extend_from_slice(&sos_gray());
    // Per block: DC code `0`, the 11 magnitude bits (+2000 is 2000,
    // -2000 is 2047 - 2000 = 47), then AC code `0` (EOB) — 13 bits.
    // Each interval pads with `1` bits to a byte; no run of `1` bits
    // reaches 8, so no byte needs 0xFF stuffing.
    let interval = |bits: u128, blocks: usize| {
        let mut acc = 0u128;
        for _ in 0..blocks {
            acc = (acc << 13) | (bits << 1);
        }
        let len = 13 * blocks;
        let padded = len.div_ceil(8) * 8;
        acc = (acc << (padded - len)) | ((1 << (padded - len)) - 1);
        acc.to_be_bytes()[16 - padded / 8..].to_vec()
    };
    v.extend(interval(2000, 5));
    v.extend_from_slice(&[0xFF, 0xD0]);
    v.extend(interval(47, 3));
    v.extend_from_slice(&[0xFF, 0xD9]);
    v
}

/// "AC values out of range": DC decodes cleanly to size 0, then the
/// first AC symbol is run 0 / size 11 — past the baseline 10.
pub fn ac_out_of_range() -> Vec<u8> {
    let mut v = single_code_header(0x00, 0x0B, 8, 8);
    v.extend_from_slice(&sos_gray());
    v.extend_from_slice(&[0x00, 0xFF, 0xD9]);
    v
}

/// Invalid Huffman code in the scan: the single-code tables only define
/// the code `0`, and the scan opens with `1` bits.
pub fn bad_scan_code() -> Vec<u8> {
    let mut v = single_code_header(0x00, 0x00, 8, 8);
    v.extend_from_slice(&sos_gray());
    v.extend_from_slice(&[0xAA, 0xAA, 0xAA, 0xFF, 0xD9]);
    v
}

/// Inconsistent pad bits: a 2-MCU file with restart interval 1 whose
/// first MCU pads with `0` bits and second with `1` bits — it cannot
/// round-trip with a single stored pad-bit convention.
pub fn mixed_pad_bits() -> Vec<u8> {
    let mut v = single_code_header(0x00, 0x00, 16, 8);
    v.extend_from_slice(&[0xFF, 0xDD, 0x00, 0x04, 0x00, 0x01]); // DRI = 1
    v.extend_from_slice(&sos_gray());
    // MCU 0: bits "00" (DC sym 0, AC EOB), padded with 000000.
    // RST0, then MCU 1: bits "00" padded with 111111.
    v.extend_from_slice(&[0x00, 0xFF, 0xD0, 0x3F, 0xFF, 0xD9]);
    v
}

/// A DNL (Define Number of Lines) segment before the scan — a scan
/// structure the codec intentionally refuses.
pub fn dnl_scan() -> Vec<u8> {
    let mut v = single_code_header(0x00, 0x00, 8, 8);
    v.extend_from_slice(&[0xFF, 0xDC, 0x00, 0x04, 0x00, 0x08]); // DNL
    v.extend_from_slice(&sos_gray());
    v.extend_from_slice(&[0x00, 0xFF, 0xD9]);
    v
}

/// 0xFFFF x 0xFFFF dimensions: structurally valid, but the coefficient
/// planes would need ~8 GiB (the ">{limit} mem" rejection class).
pub fn huge_dims() -> Vec<u8> {
    let mut v = single_code_header(0x00, 0x00, 0xFFFF, 0xFFFF);
    v.extend_from_slice(&sos_gray());
    v.extend_from_slice(&[0x00, 0xFF, 0xD9]);
    v
}

/// Zero width: dimensions of zero are not meaningful.
pub fn zero_dimension() -> Vec<u8> {
    let mut v = single_code_header(0x00, 0x00, 0, 8);
    v.extend_from_slice(&sos_gray());
    v.extend_from_slice(&[0x00, 0xFF, 0xD9]);
    v
}

/// 12-bit sample precision (baseline is 8).
pub fn precision_12() -> Vec<u8> {
    let mut v = dc_out_of_range();
    let sof = find_marker(&v, 0xC0).expect("has SOF");
    v[sof + 4] = 12;
    v
}

/// Lossless-JPEG frame marker (SOF3): an unsupported frame type that is
/// neither baseline nor progressive.
pub fn lossless_frame() -> Vec<u8> {
    let mut v = dc_out_of_range();
    let sof = find_marker(&v, 0xC0).expect("has SOF");
    v[sof + 1] = 0xC3;
    v
}

/// Progressive frame marker (SOF2).
pub fn progressive_frame() -> Vec<u8> {
    let mut v = dc_out_of_range();
    let sof = find_marker(&v, 0xC0).expect("has SOF");
    v[sof + 1] = 0xC2;
    v
}

/// Sampling factor h=3: outside the supported 1..=2 range.
pub fn bad_sampling() -> Vec<u8> {
    let mut v = dc_out_of_range();
    let sof = find_marker(&v, 0xC0).expect("has SOF");
    v[sof + 11] = 0x31;
    v
}

/// DQT with table id 5 (only 0..=3 exist).
pub fn bad_quant() -> Vec<u8> {
    let mut v = dc_out_of_range();
    let dqt = find_marker(&v, 0xDB).expect("has DQT");
    v[dqt + 4] = 0x05; // Pq=0, Tq=5
    v
}

/// DHT with table class 2 (only DC=0 / AC=1 exist).
pub fn bad_huffman() -> Vec<u8> {
    let mut v = dc_out_of_range();
    let dht = find_marker(&v, 0xC4).expect("has DHT");
    v[dht + 4] = 0x20; // Tc=2
    v
}

/// Four-component (CMYK-style) frame.
pub fn four_color() -> Vec<u8> {
    let mut v = vec![0xFF, 0xD8];
    v.extend_from_slice(&[
        0xFF, 0xC0, 0x00, 0x14, 0x08, 0x00, 0x08, 0x00, 0x08, 0x04, 0x01, 0x11, 0x00, 0x02, 0x11,
        0x00, 0x03, 0x11, 0x00, 0x04, 0x11, 0x00,
    ]);
    v
}

/// A header cut mid-segment.
pub fn truncated_header() -> Vec<u8> {
    let v = dc_out_of_range();
    v[..10.min(v.len())].to_vec()
}

/// Not a JPEG at all.
pub fn not_a_jpeg() -> Vec<u8> {
    b"\x89PNG\r\n\x1a\n not an image".to_vec()
}

/// An EOI marker before any scan: structurally malformed.
pub fn eoi_before_scan() -> Vec<u8> {
    let mut v = vec![0xFF, 0xD8];
    v.extend_from_slice(&dqt_all16());
    v.extend_from_slice(&[0xFF, 0xD9]);
    v
}

/// Offset of the first `FF marker` occurrence, scanning from byte 2.
fn find_marker(data: &[u8], marker: u8) -> Option<usize> {
    (2..data.len().saturating_sub(1)).find(|&i| data[i] == 0xFF && data[i + 1] == marker)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_are_deterministic_and_small() {
        let all: Vec<(&str, Vec<u8>)> = vec![
            ("dc", dc_out_of_range()),
            ("ac", ac_out_of_range()),
            ("scan", bad_scan_code()),
            ("pads", mixed_pad_bits()),
            ("dnl", dnl_scan()),
            ("huge", huge_dims()),
            ("zero", zero_dimension()),
            ("prec", precision_12()),
            ("lossless", lossless_frame()),
            ("prog", progressive_frame()),
            ("sampling", bad_sampling()),
            ("dqt", bad_quant()),
            ("dht", bad_huffman()),
            ("cmyk", four_color()),
            ("trunc", truncated_header()),
            ("png", not_a_jpeg()),
            ("eoi", eoi_before_scan()),
            ("swing", dc_swing_across_restart()),
        ];
        for (name, bytes) in &all {
            assert!(!bytes.is_empty(), "{name}");
            assert!(bytes.len() < 1024, "{name} stays tiny");
        }
        // All begin with SOI except the deliberate non-JPEG.
        for (name, bytes) in &all {
            if *name != "png" {
                assert_eq!(&bytes[..2], &[0xFF, 0xD8], "{name}");
            }
        }
    }
}
