//! Property tests for the JPEG bit layer and Huffman substrate.
//!
//! These are the invariants byte-exact round trips stand on: the scan
//! writer must invert the scan reader for *any* bit sequence (including
//! 0xFF stuffing and either pad-bit convention), resumable writers must
//! concatenate seamlessly at arbitrary split points (the Huffman
//! handover mechanism, §3.4), and Huffman tables built from arbitrary
//! frequencies must stay prefix-free and invertible.

use lepton_jpeg::bitio::{ScanReader, ScanWriter};
use lepton_jpeg::huffman::HuffTable;
use proptest::prelude::*;

/// Arbitrary (value, bit-count) items, 1..=16 bits each.
fn bit_items() -> impl Strategy<Value = Vec<(u32, u8)>> {
    proptest::collection::vec(
        (any::<u32>(), 1u8..=16).prop_map(|(v, n)| (v & ((1u32 << n) - 1), n)),
        0..2000,
    )
}

/// One call on a [`ScanWriter`].
#[derive(Clone, Copy, Debug)]
enum WriterOp {
    Bits(u32, u8),
    Align(bool),
    /// Pad to a byte boundary, then RSTn.
    Restart(u8),
    Take,
}

/// Mostly `put_bits` of 0..=32 bits — half of them all-ones, so `0xFF`
/// bytes land on every side of the four-byte flush — with the other
/// operations sprinkled in.
fn writer_ops() -> impl Strategy<Value = Vec<WriterOp>> {
    let op =
        (0u8..16, any::<u32>(), 0u8..=32, any::<bool>()).prop_map(
            |(kind, v, n, flag)| match kind {
                0 => WriterOp::Align(flag),
                1 => WriterOp::Restart((v % 8) as u8),
                2 => WriterOp::Take,
                _ if flag => WriterOp::Bits(u32::MAX, n),
                _ => WriterOp::Bits(v, n),
            },
        );
    proptest::collection::vec(op, 0..400)
}

/// The writer [`ScanWriter`] used to be: one bit at a time into a
/// one-byte accumulator, stuffing as each byte completes.
struct BitOracle {
    out: Vec<u8>,
    acc: u8,
    nbits: u8,
    drained: usize,
}

impl BitOracle {
    fn resume(partial: u8, bits_used: u8) -> Self {
        BitOracle {
            out: Vec::new(),
            acc: partial,
            nbits: bits_used,
            drained: 0,
        }
    }

    fn put_bit(&mut self, bit: bool) {
        if bit {
            self.acc |= 0x80 >> self.nbits;
        }
        self.nbits += 1;
        if self.nbits == 8 {
            self.out.push(self.acc);
            if self.acc == 0xFF {
                self.out.push(0x00);
            }
            (self.acc, self.nbits) = (0, 0);
        }
    }

    fn put_bits(&mut self, v: u32, n: u8) {
        for i in (0..n).rev() {
            self.put_bit((v >> i) & 1 == 1);
        }
    }

    fn align(&mut self, pad_bit: bool) {
        while self.nbits != 0 {
            self.put_bit(pad_bit);
        }
    }
}

proptest! {
    #[test]
    fn scan_writer_reader_roundtrip(items in bit_items(), pad in any::<bool>()) {
        let mut w = ScanWriter::new();
        for &(v, n) in &items {
            w.put_bits(v, n);
        }
        let bytes = w.finish_scan(pad);

        let mut r = ScanReader::new(&bytes, 0);
        for &(v, n) in &items {
            prop_assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }

    /// 0xFF bytes in the scan must always be stuffed with 0x00 so they
    /// can never alias a marker, no matter the bit pattern.
    #[test]
    fn stuffing_leaves_no_bare_markers(items in bit_items(), pad in any::<bool>()) {
        let mut w = ScanWriter::new();
        for &(v, n) in &items {
            w.put_bits(v, n);
        }
        let bytes = w.finish_scan(pad);
        for pair in bytes.windows(2) {
            if pair[0] == 0xFF {
                prop_assert_eq!(pair[1], 0x00, "unstuffed 0xFF inside scan data");
            }
        }
        // A trailing 0xFF would be ambiguous with a following marker.
        if let Some(&last) = bytes.last() {
            prop_assert_ne!(last, 0xFF);
        }
    }

    /// Splitting the bit stream at any item boundary and resuming a
    /// second writer from the partial-byte state must reproduce the
    /// unsplit encoding byte-for-byte — the handover-word property that
    /// lets chunks and threads write independently (§3.4).
    #[test]
    fn resumed_writer_concatenates_exactly(
        items in bit_items(),
        split_frac in 0.0f64..1.0,
        pad in any::<bool>(),
    ) {
        let split = ((items.len() as f64) * split_frac) as usize;

        // Whole-stream reference.
        let mut whole = ScanWriter::new();
        for &(v, n) in &items {
            whole.put_bits(v, n);
        }
        let reference = whole.finish_scan(pad);

        // First half: emit whole bytes, capture the straddling state.
        let mut first = ScanWriter::new();
        for &(v, n) in &items[..split] {
            first.put_bits(v, n);
        }
        let (partial, bits_used) = first.partial_state();
        let mut out = first.finish_segment();

        // Second half resumes mid-byte: `finish_segment` withheld the
        // straddling byte, so the resumed writer owns and emits it.
        let mut second = ScanWriter::resume(partial, bits_used);
        for &(v, n) in &items[split..] {
            second.put_bits(v, n);
        }
        out.extend(second.finish_scan(pad));

        prop_assert_eq!(out, reference);
    }

    /// The word-at-a-time writer is observationally the bit-at-a-time
    /// one: same bytes out of every drain, same lengths, same handover
    /// state after every operation — from every resume offset, with
    /// `0xFF` runs that straddle the four-byte flush, mid-stream
    /// `take_bytes`, `align` and restart markers.
    #[test]
    fn scan_writer_equals_bit_at_a_time_oracle(ops in writer_ops(), pad in any::<bool>()) {
        for used in 0..8u8 {
            let partial = 0xA5u8 & !(0xFF >> used);
            let mut w = ScanWriter::resume(partial, used);
            let mut o = BitOracle::resume(partial, used);
            for &op in &ops {
                match op {
                    WriterOp::Bits(v, n) => {
                        w.put_bits(v, n);
                        o.put_bits(v, n);
                    }
                    WriterOp::Align(bit) => {
                        w.align(bit);
                        o.align(bit);
                    }
                    WriterOp::Restart(idx) => {
                        w.align(pad);
                        w.write_rst(idx);
                        o.align(pad);
                        o.out.extend([0xFF, 0xD0 + idx]);
                    }
                    WriterOp::Take => {
                        let taken = std::mem::take(&mut o.out);
                        o.drained += taken.len();
                        prop_assert_eq!(w.take_bytes(), taken);
                    }
                }
                prop_assert_eq!(w.pending_len(), o.out.len(), "after {:?} from {}", op, used);
                prop_assert_eq!(w.byte_len(), o.drained + o.out.len());
                prop_assert_eq!(w.partial_state(), (o.acc, o.nbits));
            }
            // Both ways a segment can end.
            prop_assert_eq!(w.clone().finish_segment(), o.out.clone());
            o.align(pad);
            prop_assert_eq!(w.finish_scan(pad), o.out);
        }
    }

    /// Tables built from arbitrary frequency histograms must encode
    /// every present symbol, decode it back, and keep all code lengths
    /// within JPEG's 16-bit limit.
    #[test]
    fn optimal_huffman_is_invertible(
        freqs_sparse in proptest::collection::btree_map(any::<u8>(), 1u32..100_000, 1..64)
    ) {
        let mut freqs = [0u32; 256];
        for (&sym, &f) in &freqs_sparse {
            freqs[sym as usize] = f;
        }
        let table = HuffTable::optimal(&freqs).expect("non-empty histogram builds");

        for &sym in freqs_sparse.keys() {
            let (code, len) = table.encode(sym).expect("present symbol has a code");
            prop_assert!((1..=16).contains(&len), "len {len}");

            // Feed the code back bit-by-bit; it must decode to `sym`.
            let mut bits: Vec<bool> =
                (0..len).rev().map(|i| (code >> i) & 1 == 1).collect();
            bits.reverse(); // pop from the back
            let decoded = table
                .decode(|| -> Result<bool, ()> { Ok(bits.pop().expect("enough bits")) })
                .unwrap()
                .expect("valid code decodes");
            prop_assert_eq!(decoded, sym);
            prop_assert!(bits.is_empty(), "decode consumed exactly the code");
        }
    }

    /// DHT round trip: serializing a table and re-parsing its (bits,
    /// values) arrays reproduces the same codes.
    #[test]
    fn dht_fragment_reproduces_table(
        freqs_sparse in proptest::collection::btree_map(any::<u8>(), 1u32..10_000, 1..32)
    ) {
        let mut freqs = [0u32; 256];
        for (&sym, &f) in &freqs_sparse {
            freqs[sym as usize] = f;
        }
        let table = HuffTable::optimal(&freqs).unwrap();
        let frag = table.to_dht_fragment();
        // Fragment layout: 16 length counts then the values.
        prop_assert!(frag.len() >= 16);
        let mut bits = [0u8; 17];
        bits[1..17].copy_from_slice(&frag[..16]);
        let values = frag[16..].to_vec();
        let reparsed = HuffTable::new(bits, values).expect("fragment is valid");
        for &sym in freqs_sparse.keys() {
            prop_assert_eq!(reparsed.encode(sym), table.encode(sym));
        }
    }

    /// The marker parser must never panic on arbitrary bytes — the
    /// §6.7 "fuzzing found bugs in parser handling of corrupt input"
    /// lesson, kept fixed forever.
    #[test]
    fn parser_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = lepton_jpeg::parser::parse(&data);
    }

    /// Same, but starting from valid-looking SOI/marker scaffolding,
    /// which reaches deeper parser states than pure noise.
    #[test]
    fn parser_never_panics_on_marker_soup(
        body in proptest::collection::vec(any::<u8>(), 0..2048),
        markers in proptest::collection::vec(0xC0u8..=0xFE, 1..8),
    ) {
        let mut data = vec![0xFF, 0xD8];
        for (i, m) in markers.iter().enumerate() {
            data.push(0xFF);
            data.push(*m);
            let take = body.len() * (i + 1) / (markers.len() + 1);
            data.extend_from_slice(&body[..take.min(body.len())]);
        }
        let _ = lepton_jpeg::parser::parse(&data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// read_bits/position agree with bit-at-a-time reads across stuffed
    /// bytes and arbitrary starting offsets.
    #[test]
    fn read_bits_equals_bit_loop(items in bit_items(), pad in any::<bool>()) {
        let mut w = ScanWriter::new();
        for &(v, n) in &items {
            w.put_bits(v, n);
        }
        let bytes = w.finish_scan(pad);

        let mut a = ScanReader::new(&bytes, 0);
        let mut b = ScanReader::new(&bytes, 0);
        for &(_, n) in &items {
            let fast = a.read_bits(n).unwrap();
            let mut slow = 0u32;
            for _ in 0..n {
                slow = (slow << 1) | b.read_bit().unwrap() as u32;
            }
            prop_assert_eq!(fast, slow);
            prop_assert_eq!(a.position().byte, b.position().byte);
            prop_assert_eq!(a.position().bits_used, b.position().bits_used);
        }
    }
}
