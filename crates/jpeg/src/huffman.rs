//! JPEG Huffman tables (ITU-T T.81 Annex C/F).
//!
//! A table is defined by `bits[1..=16]` (count of codes per length) and
//! the `values` list. This module builds encode tables (code/size per
//! symbol), decode tables (the `MINCODE`/`MAXCODE`/`VALPTR` scheme from
//! Annex F.2.2.3), and *optimal* tables from symbol frequencies (Annex K
//! flavor, via length-limited package-merge with the reserved all-ones
//! code point), used by the JPEGrescan-class baseline and the pixel
//! encoder's optimized mode.

use crate::bitio::ScanReader;
use crate::error::JpegError;

/// Codes of at most this length resolve in one first-level LUT probe.
pub const LOOKAHEAD_BITS: u8 = 8;

/// A JPEG Huffman table with encode and decode structures built.
#[derive(Clone, Debug)]
pub struct HuffTable {
    /// `bits[l]` = number of codes of length `l` (index 0 unused).
    pub bits: [u8; 17],
    /// Symbol values in code order.
    pub values: Vec<u8>,
    /// Encode: code word per symbol (valid for `code_size[sym] > 0`).
    code: [u16; 256],
    /// Encode: code length per symbol (0 = symbol not in table).
    code_size: [u8; 256],
    /// Decode: smallest code value of each length.
    mincode: [i32; 17],
    /// Decode: largest code value of each length (-1 = none).
    maxcode: [i32; 17],
    /// Decode: index into `values` of first code of each length.
    valptr: [usize; 17],
    /// Decode: first-level lookahead LUT indexed by the next
    /// [`LOOKAHEAD_BITS`] peeked bits. Entry `(len << 8) | symbol` for
    /// codes of `len ≤ LOOKAHEAD_BITS`; `0` = longer code (or invalid
    /// prefix), resolved by the Annex F `maxcode` walk.
    lookup: [u16; 1 << LOOKAHEAD_BITS],
}

impl HuffTable {
    /// Build a table from the DHT `bits` counts and `values` list.
    pub fn new(bits: [u8; 17], values: Vec<u8>) -> Result<Self, JpegError> {
        let total: usize = bits[1..].iter().map(|&b| b as usize).sum();
        if total != values.len() {
            return Err(JpegError::BadHuffman("BITS sum != value count"));
        }
        if total == 0 {
            return Err(JpegError::BadHuffman("empty table"));
        }
        if total > 256 {
            return Err(JpegError::BadHuffman("more than 256 codes"));
        }

        // Generate canonical code values (Annex C.2).
        let mut code = [0u16; 256];
        let mut code_size = [0u8; 256];
        let mut mincode = [0i32; 17];
        let mut maxcode = [-1i32; 17];
        let mut valptr = [0usize; 17];

        let mut lookup = [0u16; 1 << LOOKAHEAD_BITS];
        let mut k = 0usize; // index into values
        let mut next_code = 0u32;
        for l in 1..=16usize {
            valptr[l] = k;
            mincode[l] = next_code as i32;
            for _ in 0..bits[l] {
                if next_code >= (1 << l) {
                    return Err(JpegError::BadHuffman("code space overflow"));
                }
                let sym = values[k] as usize;
                if code_size[sym] != 0 {
                    return Err(JpegError::BadHuffman("duplicate symbol"));
                }
                code[sym] = next_code as u16;
                code_size[sym] = l as u8;
                if l <= LOOKAHEAD_BITS as usize {
                    // Every LOOKAHEAD_BITS-wide window starting with
                    // this code resolves to (symbol, length) directly.
                    let pad = LOOKAHEAD_BITS as usize - l;
                    let base = (next_code as usize) << pad;
                    let entry = ((l as u16) << 8) | sym as u16;
                    lookup[base..base + (1 << pad)].fill(entry);
                }
                next_code += 1;
                k += 1;
            }
            maxcode[l] = next_code as i32 - 1;
            if bits[l] == 0 {
                maxcode[l] = -1;
            }
            next_code <<= 1;
        }

        Ok(HuffTable {
            bits,
            values,
            code,
            code_size,
            mincode,
            maxcode,
            valptr,
            lookup,
        })
    }

    /// Encode lookup: `(code, length)` for `symbol`, or `None` if the
    /// symbol has no code in this table.
    #[inline]
    pub fn encode(&self, symbol: u8) -> Option<(u16, u8)> {
        let s = self.code_size[symbol as usize];
        if s == 0 {
            None
        } else {
            Some((self.code[symbol as usize], s))
        }
    }

    /// Decode one symbol by pulling bits MSB-first from `next_bit`
    /// (Annex F.2.2.3 DECODE procedure).
    #[inline]
    pub fn decode<E, F: FnMut() -> Result<bool, E>>(
        &self,
        mut next_bit: F,
    ) -> Result<Result<u8, JpegError>, E> {
        let mut code = 0i32;
        for l in 1..=16usize {
            code = (code << 1) | next_bit()? as i32;
            if self.maxcode[l] >= 0 && code <= self.maxcode[l] {
                let idx = self.valptr[l] + (code - self.mincode[l]) as usize;
                return Ok(Ok(self.values[idx]));
            }
        }
        Ok(Err(JpegError::BadScanCode))
    }

    /// Decode one symbol from `r` using the lookahead tables: one
    /// first-level LUT probe resolves codes of ≤ [`LOOKAHEAD_BITS`]
    /// bits; longer codes fall through to the Annex F `maxcode` walk on
    /// the same 16-bit peek. Near the end of the scan (fewer than 16
    /// peekable bits) the reference per-bit DECODE runs instead, so
    /// truncation errors are bit-for-bit those of [`Self::decode`].
    #[inline]
    pub fn decode_symbol(&self, r: &mut ScanReader) -> Result<u8, JpegError> {
        if r.ensure_bits(16) {
            match self.peek_decode(r.peek_bits(16)) {
                Some((sym, len)) => {
                    r.consume_bits(len);
                    Ok(sym)
                }
                None => {
                    // Not a code at any length — the reference path
                    // consumes all 16 bits before reporting this.
                    r.consume_bits(16);
                    Err(JpegError::BadScanCode)
                }
            }
        } else {
            self.decode(|| r.read_bit())?
        }
    }

    /// Resolve the code at the head of `peek16` (the next 16 peeked
    /// bits) to `(symbol, code_length)` without consuming anything —
    /// `None` when no code of any length matches. Pure function: the
    /// caller fuses this with the magnitude-bits read so one bit-window
    /// transaction covers the whole coefficient.
    #[inline]
    pub fn peek_decode(&self, peek16: u32) -> Option<(u8, u8)> {
        let entry = self.lookup[(peek16 >> (16 - LOOKAHEAD_BITS as u32)) as usize];
        if entry != 0 {
            return Some((entry as u8, (entry >> 8) as u8));
        }
        for l in (LOOKAHEAD_BITS as usize + 1)..=16 {
            let code = (peek16 >> (16 - l)) as i32;
            if self.maxcode[l] >= 0 && code <= self.maxcode[l] {
                let idx = self.valptr[l] + (code - self.mincode[l]) as usize;
                return Some((self.values[idx], l as u8));
            }
        }
        None
    }

    /// Serialize as a DHT payload fragment: 16 `bits` bytes then values
    /// (without the table-class/id byte).
    pub fn to_dht_fragment(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.values.len());
        out.extend_from_slice(&self.bits[1..=16]);
        out.extend_from_slice(&self.values);
        out
    }

    /// Build an *optimal* table for the given symbol frequencies.
    ///
    /// Follows JPEG's constraints: max length 16, and the all-ones code
    /// of the longest length is reserved (T.81 K.2 reserves it by adding
    /// a pseudo-symbol with frequency 1). Symbols with zero frequency
    /// are omitted.
    pub fn optimal(freqs: &[u32; 256]) -> Result<Self, JpegError> {
        // Pseudo-symbol 256 reserves the all-ones code.
        let mut f = [0u32; 257];
        f[..256].copy_from_slice(freqs);
        f[256] = 1;
        let lengths = package_merge(&f, 16);

        // Sort real symbols by (length, symbol) into canonical order.
        let mut order: Vec<usize> = (0..256).filter(|&s| lengths[s] > 0).collect();
        order.sort_by_key(|&s| (lengths[s], s));

        let mut bits = [0u8; 17];
        let mut values = Vec::with_capacity(order.len());
        for &s in &order {
            bits[lengths[s] as usize] += 1;
            values.push(s as u8);
        }
        if values.is_empty() {
            return Err(JpegError::BadHuffman("no symbols"));
        }
        HuffTable::new(bits, values)
    }
}

/// Length-limited Huffman code lengths via package-merge.
fn package_merge(freqs: &[u32], max_bits: usize) -> Vec<u8> {
    let active: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u8; freqs.len()];
    match active.len() {
        0 => return lengths,
        1 => {
            lengths[active[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    assert!((1usize << max_bits) >= active.len());

    #[derive(Clone)]
    struct Coin {
        weight: u64,
        symbols: Vec<u16>,
    }
    let mut prev: Vec<Coin> = Vec::new();
    for _ in 0..max_bits {
        let mut row: Vec<Coin> = active
            .iter()
            .enumerate()
            .map(|(k, &s)| Coin {
                weight: freqs[s] as u64,
                symbols: vec![k as u16],
            })
            .collect();
        let mut packages: Vec<Coin> = prev
            .chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| {
                let mut symbols = c[0].symbols.clone();
                symbols.extend_from_slice(&c[1].symbols);
                Coin {
                    weight: c[0].weight + c[1].weight,
                    symbols,
                }
            })
            .collect();
        row.append(&mut packages);
        row.sort_by_key(|c| c.weight);
        prev = row;
    }
    let take = 2 * (active.len() - 1);
    let mut depth = vec![0u32; active.len()];
    for coin in prev.into_iter().take(take) {
        for &k in &coin.symbols {
            depth[k as usize] += 1;
        }
    }
    for (k, &s) in active.iter().enumerate() {
        lengths[s] = depth[k] as u8;
    }
    lengths
}

/// The standard luminance DC table from T.81 Annex K.3.
pub fn std_dc_luma() -> HuffTable {
    let mut bits = [0u8; 17];
    bits[1..17].copy_from_slice(&[0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]);
    HuffTable::new(bits, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]).expect("valid standard table")
}

/// The standard chrominance DC table (Annex K.3).
pub fn std_dc_chroma() -> HuffTable {
    let mut bits = [0u8; 17];
    bits[1..17].copy_from_slice(&[0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]);
    HuffTable::new(bits, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]).expect("valid standard table")
}

/// The standard luminance AC table (Annex K.3).
pub fn std_ac_luma() -> HuffTable {
    let mut bits = [0u8; 17];
    bits[1..17].copy_from_slice(&[0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125]);
    let values = vec![
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61,
        0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08, 0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52,
        0xd1, 0xf0, 0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0a, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x25,
        0x26, 0x27, 0x28, 0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44, 0x45,
        0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63, 0x64,
        0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7a, 0x83,
        0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99,
        0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6,
        0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2, 0xd3,
        0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1, 0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8,
        0xe9, 0xea, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa,
    ];
    HuffTable::new(bits, values).expect("valid standard table")
}

/// The standard chrominance AC table (Annex K.3).
pub fn std_ac_chroma() -> HuffTable {
    let mut bits = [0u8; 17];
    bits[1..17].copy_from_slice(&[0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119]);
    let values = vec![
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61,
        0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91, 0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33,
        0x52, 0xf0, 0x15, 0x62, 0x72, 0xd1, 0x0a, 0x16, 0x24, 0x34, 0xe1, 0x25, 0xf1, 0x17, 0x18,
        0x19, 0x1a, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44,
        0x45, 0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63,
        0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7a,
        0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97,
        0x98, 0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4,
        0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca,
        0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7,
        0xe8, 0xe9, 0xea, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa,
    ];
    HuffTable::new(bits, values).expect("valid standard table")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_with_bits(table: &HuffTable, bits: &[u8]) -> Result<u8, JpegError> {
        let mut it = bits.iter();
        table
            .decode(|| -> Result<bool, ()> { Ok(*it.next().unwrap() == 1) })
            .unwrap()
    }

    #[test]
    fn standard_tables_build() {
        for t in [
            std_dc_luma(),
            std_dc_chroma(),
            std_ac_luma(),
            std_ac_chroma(),
        ] {
            assert!(!t.values.is_empty());
        }
    }

    #[test]
    fn dc_luma_known_codes() {
        // Annex K.3.1: category 0 → code 00 (2 bits), category 2 → 011.
        let t = std_dc_luma();
        assert_eq!(t.encode(0), Some((0b00, 2)));
        assert_eq!(t.encode(1), Some((0b010, 3)));
        assert_eq!(t.encode(2), Some((0b011, 3)));
        assert_eq!(t.encode(5), Some((0b110, 3)));
        assert_eq!(t.encode(6), Some((0b1110, 4)));
        assert_eq!(t.encode(11), Some((0b111111110, 9)));
    }

    #[test]
    fn ac_luma_known_codes() {
        // Annex K.3.2: EOB (0x00) → 1010 (4 bits), ZRL (0xF0) → 11111111001.
        let t = std_ac_luma();
        assert_eq!(t.encode(0x00), Some((0b1010, 4)));
        assert_eq!(t.encode(0x01), Some((0b00, 2)));
        assert_eq!(t.encode(0xF0), Some((0b11111111001, 11)));
    }

    #[test]
    fn encode_decode_all_symbols() {
        for t in [std_dc_luma(), std_ac_luma(), std_ac_chroma()] {
            for &sym in &t.values {
                let (code, len) = t.encode(sym).unwrap();
                let bits: Vec<u8> = (0..len).rev().map(|i| ((code >> i) & 1) as u8).collect();
                assert_eq!(decode_with_bits(&t, &bits).unwrap(), sym);
            }
        }
    }

    #[test]
    fn invalid_code_detected() {
        let t = std_dc_luma();
        // 16 one-bits is not a valid code in the DC luma table.
        let bits = [1u8; 16];
        assert_eq!(
            decode_with_bits(&t, &bits).unwrap_err(),
            JpegError::BadScanCode
        );
    }

    #[test]
    fn rejects_bad_tables() {
        // Count mismatch.
        let mut bits = [0u8; 17];
        bits[1] = 2;
        assert!(HuffTable::new(bits, vec![0]).is_err());
        // Code-space overflow: 3 codes of length 1.
        let mut bits = [0u8; 17];
        bits[1] = 3;
        assert!(HuffTable::new(bits, vec![0, 1, 2]).is_err());
        // Duplicate symbol.
        let mut bits = [0u8; 17];
        bits[2] = 2;
        assert!(HuffTable::new(bits, vec![7, 7]).is_err());
    }

    #[test]
    fn optimal_tables_roundtrip_and_beat_uniform() {
        let mut freqs = [0u32; 256];
        freqs[0] = 10_000;
        freqs[1] = 1_000;
        freqs[0xF0] = 100;
        freqs[0x21] = 10;
        freqs[0xA3] = 1;
        let t = HuffTable::optimal(&freqs).unwrap();
        // Most frequent symbol gets the shortest code.
        let (_, l0) = t.encode(0).unwrap();
        let (_, l1) = t.encode(0xA3).unwrap();
        assert!(l0 <= l1);
        for sym in [0u8, 1, 0xF0, 0x21, 0xA3] {
            let (code, len) = t.encode(sym).unwrap();
            let bits: Vec<u8> = (0..len).rev().map(|i| ((code >> i) & 1) as u8).collect();
            assert_eq!(decode_with_bits(&t, &bits).unwrap(), sym);
        }
        // Zero-frequency symbols are absent.
        assert_eq!(t.encode(42), None);
    }

    #[test]
    fn optimal_reserves_all_ones() {
        // With 2 symbols the naive code would be {0, 1}; the reserved
        // all-ones pseudo-symbol forces lengths so that no real symbol
        // is all 1s at the maximum assigned length.
        let mut freqs = [0u32; 256];
        freqs[3] = 5;
        freqs[9] = 5;
        let t = HuffTable::optimal(&freqs).unwrap();
        let max_len = t
            .values
            .iter()
            .map(|&s| t.encode(s).unwrap().1)
            .max()
            .unwrap();
        for &s in &t.values {
            let (code, len) = t.encode(s).unwrap();
            if len == max_len {
                assert_ne!(code, (1u16 << len) - 1, "all-ones code must stay reserved");
            }
        }
    }

    #[test]
    fn optimal_single_symbol() {
        let mut freqs = [0u32; 256];
        freqs[5] = 100;
        let t = HuffTable::optimal(&freqs).unwrap();
        let (_, len) = t.encode(5).unwrap();
        assert!(len >= 1);
    }

    #[test]
    fn dht_fragment_roundtrips() {
        let t = std_ac_luma();
        let frag = t.to_dht_fragment();
        let mut bits = [0u8; 17];
        bits[1..17].copy_from_slice(&frag[..16]);
        let t2 = HuffTable::new(bits, frag[16..].to_vec()).unwrap();
        for &sym in &t.values {
            assert_eq!(t.encode(sym), t2.encode(sym));
        }
    }
}
