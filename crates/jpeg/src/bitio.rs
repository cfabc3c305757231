//! Entropy-coded-segment bit I/O with `0xFF00` stuffing, restart
//! markers, pad bits, and mid-byte suspend/resume.
//!
//! This is where the paper's "Huffman handover words" (§3.4) become
//! concrete. The reader can report its exact position — file byte offset
//! plus bits consumed of the current byte — before any MCU; the writer
//! can *start* from such a position (partial byte included) and emit
//! exactly the bytes from that point on. Concatenating per-segment writer
//! outputs reproduces the original scan byte-for-byte.

use crate::error::JpegError;

/// Consistency tracker for pad bits (the filler bits written before
/// byte-aligned restart markers and at the end of the scan).
///
/// JPEG does not specify the pad value; encoders pick 0 or 1 and (almost
/// always) use it throughout. Lepton stores a single pad bit in its
/// header (App. A.1), so files that mix pad values cannot round-trip and
/// are rejected (they fall back to Deflate in production).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PadState {
    /// No padding observed yet.
    #[default]
    Unknown,
    /// All padding so far used this bit.
    Seen(bool),
    /// Contradictory pad bits observed.
    Mixed,
}

impl PadState {
    /// Record an observed pad bit.
    pub fn record(&mut self, bit: bool) {
        *self = match *self {
            PadState::Unknown => PadState::Seen(bit),
            PadState::Seen(b) if b == bit => PadState::Seen(b),
            _ => PadState::Mixed,
        };
    }

    /// The pad bit to use when re-encoding (1 is the de-facto default).
    pub fn bit_or_default(&self) -> bool {
        match self {
            PadState::Seen(b) => *b,
            _ => true,
        }
    }
}

/// Exact bit position inside the entropy-coded segment.
///
/// `byte` is an offset into the *containing buffer* (so stuffed `0x00`
/// bytes and restart markers are counted); `bits_used` is how many bits
/// of that byte are already consumed (0..=7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitPos {
    /// Byte offset of the current (partially consumed) byte.
    pub byte: usize,
    /// Bits of that byte already consumed (0..=7).
    pub bits_used: u8,
    /// The consumed high bits of the current byte (low bits zero).
    pub partial: u8,
}

/// Bit reader over an entropy-coded segment.
///
/// `data` is the whole buffer; reading starts at `start` and stops when a
/// non-stuffing marker is reached or `data` ends.
///
/// Two read paths share one consumed-position state:
///
/// * the **reference path** ([`Self::read_bit`]/[`Self::read_bits`]) pays
///   a bounds check and a marker check per bit — it is the Annex F
///   semantics oracle and the only path that runs near the end of the
///   scan, where truncation errors must be exact;
/// * the **windowed path** ([`Self::ensure_bits`]/[`Self::peek_bits`]/
///   [`Self::consume_bits`]) prefetches up to 64 destuffed entropy bits
///   into a bit window refilled in bulk (eight bytes at a time when no
///   `0xFF` is near), which is what the table-driven Huffman decode runs
///   on.
///
/// The window only ever holds bits that the reference path would also
/// return, so the two paths can be mixed freely; `pos`/`bits_used`
/// remain the authority for [`Self::position`] snapshots either way.
#[derive(Clone, Debug)]
pub struct ScanReader<'a> {
    data: &'a [u8],
    /// Offset of the byte currently being consumed.
    pos: usize,
    /// Bits consumed of `data[pos]` (0..=8; 8 means "advance before next
    /// read").
    bits_used: u8,
    /// Prefetched entropy bits, left-justified (bit 63 is next).
    win: u64,
    /// Valid bits in `win`. Invariant: `(bits_used + win_len) % 8 == 0`
    /// whenever `win_len > 0` (the window always ends on a byte
    /// boundary), so an empty window implies `bits_used % 8 == 0`.
    win_len: u8,
    /// Byte offset where the next window refill continues (meaningful
    /// only while `win_len > 0`; re-anchored from `pos` otherwise).
    fetch_pos: usize,
    /// Pad-bit consistency across align events.
    pub pads: PadState,
}

/// True if any byte of `x` is `0xFF` (zero-byte trick on `!x`).
#[inline]
fn contains_ff(x: u64) -> bool {
    let y = !x;
    y.wrapping_sub(0x0101_0101_0101_0101) & !y & 0x8080_8080_8080_8080 != 0
}

impl<'a> ScanReader<'a> {
    /// Start reading entropy data at byte offset `start`.
    pub fn new(data: &'a [u8], start: usize) -> Self {
        ScanReader {
            data,
            pos: start,
            bits_used: 0,
            win: 0,
            win_len: 0,
            fetch_pos: start,
            pads: PadState::Unknown,
        }
    }

    /// Is the byte at `off` the start of a marker (0xFF followed by
    /// something other than stuffing 0x00)?
    fn is_marker_at(&self, off: usize) -> bool {
        self.data.get(off) == Some(&0xFF) && self.data.get(off + 1) != Some(&0x00)
    }

    /// Advance to the next entropy byte, skipping stuffing.
    fn advance(&mut self) -> Result<(), JpegError> {
        let cur = *self.data.get(self.pos).ok_or(JpegError::Truncated)?;
        self.pos += if cur == 0xFF { 2 } else { 1 };
        self.bits_used = 0;
        Ok(())
    }

    /// Discard prefetched window bits (they can be refetched). Called
    /// before any operation that repositions the reader directly.
    #[inline]
    fn drop_window(&mut self) {
        // Refill ORs bytes in below `win_len`, so the invalidated bits
        // must be cleared, not just marked invalid.
        self.win = 0;
        self.win_len = 0;
    }

    /// Refill the bit window as far as the stream allows. Never errors:
    /// a marker or end-of-data simply stops the fill, and the caller
    /// falls back to the reference path for exact error semantics.
    fn refill(&mut self) {
        if self.win_len == 0 {
            // Re-anchor the fetch cursor at the (normalized) consumed
            // position and load the rest of the current partial byte.
            let mut p = self.pos;
            let mut used = self.bits_used;
            if used == 8 {
                let Some(&b) = self.data.get(p) else { return };
                p += if b == 0xFF { 2 } else { 1 };
                used = 0;
            }
            if used > 0 {
                let Some(&b) = self.data.get(p) else { return };
                if b == 0xFF && self.data.get(p + 1) != Some(&0x00) {
                    // Partially consumed marker byte: unreachable via
                    // the read paths, but never serve marker bits.
                    return;
                }
                self.win = (((b as u64) << used) & 0xFF) << 56;
                self.win_len = 8 - used;
                self.fetch_pos = p + if b == 0xFF { 2 } else { 1 };
            } else {
                self.fetch_pos = p;
            }
        }
        while self.win_len <= 56 {
            let fp = self.fetch_pos;
            if fp + 8 <= self.data.len() {
                // Bulk path: when the next eight bytes are plain entropy
                // data (no 0xFF anywhere), splice whole bytes.
                let chunk = u64::from_be_bytes(self.data[fp..fp + 8].try_into().expect("8 bytes"));
                if !contains_ff(chunk) {
                    let take = (64 - self.win_len as usize) / 8;
                    let bits = (take * 8) as u32;
                    self.win |= (chunk >> (64 - bits)) << (64 - bits - self.win_len as u32);
                    self.win_len += bits as u8;
                    self.fetch_pos = fp + take;
                    continue;
                }
            }
            // Bytewise path: stuffing and marker detection.
            let Some(&b) = self.data.get(fp) else { break };
            if b == 0xFF {
                if self.data.get(fp + 1) == Some(&0x00) {
                    self.win |= 0xFFu64 << (56 - self.win_len);
                    self.win_len += 8;
                    self.fetch_pos = fp + 2;
                } else {
                    break; // marker: no more entropy data
                }
            } else {
                self.win |= (b as u64) << (56 - self.win_len);
                self.win_len += 8;
                self.fetch_pos = fp + 1;
            }
        }
    }

    /// Make at least `n` bits (n ≤ 57) peekable. Returns `false` when
    /// the scan is too close to a marker or the end of the buffer — the
    /// caller must then use the reference per-bit path, whose truncation
    /// errors are the specified behavior.
    #[inline]
    pub fn ensure_bits(&mut self, n: u8) -> bool {
        debug_assert!(n <= 57);
        if self.win_len >= n {
            return true;
        }
        self.refill();
        self.win_len >= n
    }

    /// The next `n` bits (1 ≤ n ≤ 32), MSB-first, without consuming.
    /// Requires `ensure_bits(n)` to have returned `true`.
    #[inline]
    pub fn peek_bits(&self, n: u8) -> u32 {
        debug_assert!((1..=32).contains(&n) && n <= self.win_len);
        (self.win >> (64 - n as u32)) as u32
    }

    /// Consume `n` previously peeked bits, keeping the exact consumed
    /// position (`pos`/`bits_used`) in sync across stuffing bytes.
    #[inline]
    pub fn consume_bits(&mut self, n: u8) {
        debug_assert!(n <= self.win_len);
        self.win <<= n as u32;
        self.win_len -= n;
        self.bits_used += n;
        while self.bits_used >= 8 {
            let b = self.data[self.pos];
            self.pos += if b == 0xFF { 2 } else { 1 };
            self.bits_used -= 8;
        }
    }

    /// Valid bits currently in the window (for instrumentation/tests).
    pub fn window_len(&self) -> u8 {
        self.win_len
    }

    /// Read `n` bits MSB-first through the window when possible, with
    /// the reference per-bit path as the near-end fallback (identical
    /// values and identical errors).
    #[inline]
    pub fn read_bits_fast(&mut self, n: u8) -> Result<u32, JpegError> {
        // Same contract as the `read_bits` fallback (n ≤ 16): keeping
        // the two limits equal means the permitted range cannot depend
        // on how close the reader is to the end of the scan.
        debug_assert!(n <= 16);
        if n == 0 {
            return Ok(0);
        }
        if self.ensure_bits(n) {
            let v = self.peek_bits(n);
            self.consume_bits(n);
            Ok(v)
        } else {
            self.read_bits(n)
        }
    }

    /// Read one bit of entropy data.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, JpegError> {
        if self.win_len > 0 {
            let bit = self.win >> 63 == 1;
            self.consume_bits(1);
            return Ok(bit);
        }
        if self.bits_used == 8 {
            self.advance()?;
        }
        let cur = *self.data.get(self.pos).ok_or(JpegError::Truncated)?;
        if cur == 0xFF && self.is_marker_at(self.pos) {
            // A marker where entropy data was expected: truncated scan.
            return Err(JpegError::Truncated);
        }
        let bit = (cur >> (7 - self.bits_used)) & 1 == 1;
        self.bits_used += 1;
        Ok(bit)
    }

    /// Read `n` bits MSB-first.
    pub fn read_bits(&mut self, n: u8) -> Result<u32, JpegError> {
        debug_assert!(n <= 16);
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | self.read_bit()? as u32;
        }
        Ok(v)
    }

    /// Current position, normalized so `bits_used < 8`.
    pub fn position(&self) -> BitPos {
        let (byte, bits_used) = if self.bits_used == 8 {
            let cur = self.data.get(self.pos).copied().unwrap_or(0);
            (self.pos + if cur == 0xFF { 2 } else { 1 }, 0)
        } else {
            (self.pos, self.bits_used)
        };
        let partial = if bits_used == 0 {
            0
        } else {
            let cur = self.data.get(byte).copied().unwrap_or(0);
            cur & !(0xFFu8 >> bits_used)
        };
        BitPos {
            byte,
            bits_used,
            partial,
        }
    }

    /// Consume padding up to the next byte boundary, recording pad bits.
    pub fn align(&mut self) -> Result<(), JpegError> {
        // Byte-boundary bookkeeping below relies on `bits_used` reaching
        // 8, which the windowed path never lets happen — shed prefetch.
        self.drop_window();
        if self.bits_used == 8 {
            self.advance()?;
            return Ok(());
        }
        if self.bits_used == 0 {
            return Ok(());
        }
        while self.bits_used != 8 {
            let bit = self.read_bit()?;
            self.pads.record(bit);
        }
        self.advance()
    }

    /// If a restart marker with index `idx` (0..=7) sits at the next
    /// byte-aligned position — with valid (self-consistent) padding in
    /// between — consume padding and marker and return `true`. Otherwise
    /// leave the reader untouched and return `false`.
    ///
    /// The non-consuming "missing RST" path is what lets zero-run
    /// corrupted files round-trip (paper App. A.3).
    pub fn try_restart(&mut self, idx: u8) -> Result<bool, JpegError> {
        debug_assert!(idx < 8);
        // The commit path repositions `pos` directly; prefetched bits
        // would go stale. Dropping them loses nothing.
        self.drop_window();
        let p = self.position();
        // Check pad bits of the current partial byte are all identical.
        if p.bits_used > 0 {
            let cur = *self.data.get(p.byte).ok_or(JpegError::Truncated)?;
            let padlen = 8 - p.bits_used;
            let padmask = 0xFFu8 >> p.bits_used;
            let pad = cur & padmask;
            let pad_bit = if pad == padmask {
                true
            } else if pad == 0 {
                false
            } else {
                return Ok(false); // mixed bits: not padding
            };
            let next = p.byte + if cur == 0xFF { 2 } else { 1 };
            if self.data.get(next) == Some(&0xFF) && self.data.get(next + 1) == Some(&(0xD0 + idx))
            {
                // Commit: consume padding and the marker.
                for _ in 0..padlen {
                    let b = self.read_bit()?;
                    debug_assert_eq!(b, pad_bit);
                    self.pads.record(b);
                }
                self.advance()?;
                debug_assert_eq!(self.pos, next);
                self.pos = next + 2;
                self.bits_used = 0;
                Ok(true)
            } else {
                Ok(false)
            }
        } else {
            let at = p.byte;
            if self.data.get(at) == Some(&0xFF) && self.data.get(at + 1) == Some(&(0xD0 + idx)) {
                self.pos = at + 2;
                self.bits_used = 0;
                Ok(true)
            } else {
                Ok(false)
            }
        }
    }

    /// Bit offset from the start of the buffer (stuffing included), for
    /// instrumentation.
    pub fn bit_offset(&self) -> usize {
        self.pos * 8 + self.bits_used as usize
    }

    /// Byte offset where the scan ended (call after the final align).
    pub fn end_offset(&self) -> usize {
        debug_assert_eq!(self.bits_used % 8, 0);
        if self.bits_used == 8 {
            let cur = self.data.get(self.pos).copied().unwrap_or(0);
            self.pos + if cur == 0xFF { 2 } else { 1 }
        } else {
            self.pos
        }
    }
}

/// Bit writer for entropy-coded segments: inserts `0xFF00` stuffing and
/// supports starting from a mid-byte handover position.
///
/// Pending bits wait in a 64-bit accumulator and leave four bytes at a
/// time: a word without a `0xFF` byte (nearly all of them) is appended
/// whole, one with is stuffed bytewise. Everything that observes bytes
/// — lengths, drains, the handover state — accounts for the up to three
/// whole bytes still in the accumulator, so callers see exactly what a
/// byte-at-a-time writer would show them.
#[derive(Clone, Debug)]
pub struct ScanWriter {
    out: Vec<u8>,
    /// The low `nbits` bits are pending output, oldest bit highest;
    /// bits above them are stale.
    acc: u64,
    /// Pending bits in `acc`; below 32 between calls.
    nbits: u32,
    /// Bytes already handed out via [`ScanWriter::take_bytes`].
    drained: usize,
}

impl ScanWriter {
    /// Fresh writer starting at a byte boundary.
    pub fn new() -> Self {
        Self::resume(0, 0)
    }

    /// Writer resuming mid-byte: `partial`'s high `bits_used` bits were
    /// already produced by the previous segment (they will be included in
    /// this writer's first output byte).
    pub fn resume(partial: u8, bits_used: u8) -> Self {
        debug_assert!(bits_used < 8);
        debug_assert_eq!(partial & (0xFF >> bits_used), 0, "low bits must be zero");
        ScanWriter {
            out: Vec::new(),
            acc: partial as u64 >> (8 - bits_used),
            nbits: bits_used as u32,
            drained: 0,
        }
    }

    #[inline]
    fn push_byte(&mut self, b: u8) {
        self.out.push(b);
        if b == 0xFF {
            self.out.push(0x00); // byte stuffing
        }
    }

    /// Move the whole bytes waiting in the accumulator to `out`.
    fn flush_bytes(&mut self) {
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.push_byte((self.acc >> self.nbits) as u8);
        }
    }

    /// Output bytes (stuffing included) the accumulator's whole bytes
    /// will become.
    fn acc_bytes(&self) -> usize {
        (1..=self.nbits / 8)
            .map(|i| 1 + ((self.acc >> (self.nbits - 8 * i)) as u8 == 0xFF) as usize)
            .sum()
    }

    /// Write one bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(bit as u32, 1);
    }

    /// Write the low `n` bits of `v` (n ≤ 32), MSB-first. This is the
    /// Huffman re-encode's inner loop: one shift-or, and every fourth
    /// byte or so one four-byte append.
    #[inline]
    pub fn put_bits(&mut self, v: u32, n: u8) {
        debug_assert!(n <= 32);
        self.acc = (self.acc << n) | (v as u64 & ((1u64 << n) - 1));
        self.nbits += n as u32;
        if self.nbits >= 32 {
            self.nbits -= 32;
            let word = (self.acc >> self.nbits) as u32;
            // Zero high bytes never read as `0xFF`.
            if contains_ff(word as u64) {
                for b in word.to_be_bytes() {
                    self.push_byte(b);
                }
            } else {
                self.out.extend_from_slice(&word.to_be_bytes());
            }
        }
    }

    /// Pad with `pad_bit` to the next byte boundary.
    pub fn align(&mut self, pad_bit: bool) {
        let pad = (8 - self.nbits % 8) % 8;
        self.put_bits(if pad_bit { 0xFF } else { 0 }, pad as u8);
    }

    /// Write a restart marker (must be byte-aligned).
    pub fn write_rst(&mut self, idx: u8) {
        debug_assert!(idx < 8);
        debug_assert_eq!(self.nbits % 8, 0);
        self.flush_bytes();
        // Raw marker bytes, no stuffing.
        self.out.push(0xFF);
        self.out.push(0xD0 + idx);
    }

    /// Completed bytes so far (stuffing and markers included; drained
    /// bytes are counted).
    pub fn byte_len(&self) -> usize {
        self.drained + self.pending_len()
    }

    /// Drain the completed bytes accumulated so far, leaving the partial
    /// byte intact. Lets a streaming decoder emit output while the scan
    /// is still being written (time-to-first-byte, §3.4).
    pub fn take_bytes(&mut self) -> Vec<u8> {
        self.flush_bytes();
        self.drained += self.out.len();
        std::mem::take(&mut self.out)
    }

    /// Completed bytes currently buffered (not yet drained).
    pub fn pending_len(&self) -> usize {
        self.out.len() + self.acc_bytes()
    }

    /// Current partial-byte state `(partial, bits_used)` for handover to
    /// the next segment.
    pub fn partial_state(&self) -> (u8, u8) {
        let used = self.nbits % 8;
        // With `used == 0` the shift leaves no pending bit in the byte.
        ((self.acc << (8 - used)) as u8, used as u8)
    }

    /// Finish the segment *without* flushing the partial byte (the next
    /// segment owns it); returns completed bytes.
    pub fn finish_segment(mut self) -> Vec<u8> {
        self.flush_bytes();
        self.out
    }

    /// Finish the scan: pad the final partial byte with `pad_bit` and
    /// return all bytes.
    pub fn finish_scan(mut self, pad_bit: bool) -> Vec<u8> {
        self.align(pad_bit);
        self.finish_segment()
    }
}

impl Default for ScanWriter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_simple_bits() {
        let data = [0b1010_1100u8, 0b0111_0001];
        let mut r = ScanReader::new(&data, 0);
        assert_eq!(r.read_bits(4).unwrap(), 0b1010);
        assert_eq!(r.read_bits(8).unwrap(), 0b1100_0111);
        assert_eq!(r.read_bits(4).unwrap(), 0b0001);
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn stuffing_skipped() {
        let data = [0xFF, 0x00, 0xAB];
        let mut r = ScanReader::new(&data, 0);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
    }

    #[test]
    fn marker_stops_reading() {
        let data = [0xAB, 0xFF, 0xD9];
        let mut r = ScanReader::new(&data, 0);
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn writer_stuffs_ff() {
        let mut w = ScanWriter::new();
        w.put_bits(0xFF, 8);
        w.put_bits(0xAB, 8);
        assert_eq!(w.finish_scan(true), vec![0xFF, 0x00, 0xAB]);
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = ScanWriter::new();
        let vals = [(0x5u32, 3u8), (0xFFFF, 16), (0x0, 7), (0x1234, 13)];
        for &(v, n) in &vals {
            w.put_bits(v, n);
        }
        let bytes = w.finish_scan(false);
        let mut r = ScanReader::new(&bytes, 0);
        for &(v, n) in &vals {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }

    #[test]
    fn pad_state_tracking() {
        let mut p = PadState::Unknown;
        assert!(p.bit_or_default());
        p.record(false);
        assert_eq!(p, PadState::Seen(false));
        assert!(!p.bit_or_default());
        p.record(false);
        assert_eq!(p, PadState::Seen(false));
        p.record(true);
        assert_eq!(p, PadState::Mixed);
    }

    #[test]
    fn align_records_pads() {
        // 3 data bits then 5 one-pad bits, then another byte.
        let data = [0b1011_1111u8, 0xAA];
        let mut r = ScanReader::new(&data, 0);
        r.read_bits(3).unwrap();
        r.align().unwrap();
        assert_eq!(r.pads, PadState::Seen(true));
        assert_eq!(r.read_bits(8).unwrap(), 0xAA);
    }

    #[test]
    fn resume_mid_byte_concatenates_exactly() {
        // Segment 1 writes 11 bits; segment 2 resumes and writes 13 more.
        // Concatenation must equal a single 24-bit write.
        let all: u32 = 0b1011_0111_0001_1010_0110_1101;
        let mut w_full = ScanWriter::new();
        w_full.put_bits(all, 24);
        let expect = w_full.finish_scan(true);

        let mut w1 = ScanWriter::new();
        w1.put_bits(all >> 13, 11);
        let (partial, used) = w1.partial_state();
        let seg1 = w1.finish_segment();
        let mut w2 = ScanWriter::resume(partial, used);
        w2.put_bits(all & 0x1FFF, 13);
        let seg2 = w2.finish_scan(true);

        let mut cat = seg1;
        cat.extend(seg2);
        assert_eq!(cat, expect);
    }

    #[test]
    fn resume_handles_stuffing_across_boundary() {
        // The byte straddling the handover completes to 0xFF: the second
        // segment must emit the stuffed 0x00.
        let mut w1 = ScanWriter::new();
        w1.put_bits(0b1111, 4);
        let (partial, used) = w1.partial_state();
        assert_eq!(partial, 0xF0);
        let seg1 = w1.finish_segment();
        assert!(seg1.is_empty());
        let mut w2 = ScanWriter::resume(partial, used);
        w2.put_bits(0b1111, 4); // completes 0xFF
        w2.put_bits(0x12, 8);
        let seg2 = w2.finish_scan(true);
        assert_eq!(seg2, vec![0xFF, 0x00, 0x12]);
    }

    #[test]
    fn reader_position_reports_partial() {
        let data = [0b1100_0000u8, 0x55];
        let mut r = ScanReader::new(&data, 0);
        r.read_bits(2).unwrap();
        let p = r.position();
        assert_eq!(p.byte, 0);
        assert_eq!(p.bits_used, 2);
        assert_eq!(p.partial, 0b1100_0000);
    }

    #[test]
    fn position_normalizes_full_byte() {
        let data = [0xFF, 0x00, 0x55];
        let mut r = ScanReader::new(&data, 0);
        r.read_bits(8).unwrap(); // consumed the 0xFF fully
        let p = r.position();
        assert_eq!(p.byte, 2, "skips the stuffed zero");
        assert_eq!(p.bits_used, 0);
    }

    #[test]
    fn try_restart_present() {
        // 4 data bits, 4 one-pads, RST3, one more byte.
        let data = [0b1010_1111u8, 0xFF, 0xD3, 0x42];
        let mut r = ScanReader::new(&data, 0);
        r.read_bits(4).unwrap();
        assert!(r.try_restart(3).unwrap());
        assert_eq!(r.read_bits(8).unwrap(), 0x42);
        assert_eq!(r.pads, PadState::Seen(true));
    }

    #[test]
    fn try_restart_absent_leaves_state() {
        let data = [0b1010_0000u8, 0x42];
        let mut r = ScanReader::new(&data, 0);
        r.read_bits(4).unwrap();
        let before = r.position();
        assert!(!r.try_restart(0).unwrap());
        assert_eq!(r.position(), before);
        // Data continues to decode as if no restart existed.
        assert_eq!(r.read_bits(4).unwrap(), 0);
    }

    #[test]
    fn try_restart_wrong_index_not_consumed() {
        let data = [0xFF, 0xD3, 0x42];
        let mut r = ScanReader::new(&data, 0);
        assert!(!r.try_restart(1).unwrap());
        assert!(r.try_restart(3).unwrap());
    }

    #[test]
    fn rst_written_without_stuffing() {
        let mut w = ScanWriter::new();
        w.put_bits(0xAB, 8);
        w.write_rst(5);
        w.put_bits(0x11, 8);
        assert_eq!(w.finish_scan(true), vec![0xAB, 0xFF, 0xD5, 0x11]);
    }

    #[test]
    fn window_peek_consume_matches_read_bits() {
        // Mixed stuffing and plain bytes: the windowed primitives must
        // return the same bit values as the per-bit reference, at the
        // same positions.
        let data = [0xAB, 0xFF, 0x00, 0x12, 0xFF, 0x00, 0x34, 0x56, 0x77, 0x99];
        let mut fast = ScanReader::new(&data, 0);
        let mut reference = ScanReader::new(&data, 0);
        for &n in &[3u8, 8, 13, 1, 16, 7, 9] {
            assert!(fast.ensure_bits(n));
            let peeked = fast.peek_bits(n);
            fast.consume_bits(n);
            assert_eq!(peeked, reference.read_bits(n).unwrap(), "n={n}");
            assert_eq!(fast.position(), reference.position(), "n={n}");
            assert_eq!(fast.bit_offset(), reference.bit_offset(), "n={n}");
        }
    }

    #[test]
    fn window_stops_at_marker_and_end() {
        // Marker two bytes in: at most 16 bits are ever available.
        let data = [0xAB, 0xCD, 0xFF, 0xD9];
        let mut r = ScanReader::new(&data, 0);
        assert!(r.ensure_bits(16));
        assert!(!r.ensure_bits(17));
        assert_eq!(r.window_len(), 16);
        r.consume_bits(16);
        assert!(!r.ensure_bits(1));
        assert!(
            r.read_bit().is_err(),
            "marker = truncated, like the reference"
        );
    }

    #[test]
    fn read_bit_drains_window_first() {
        let data = [0b1010_0101u8, 0x3C];
        let mut r = ScanReader::new(&data, 0);
        assert!(r.ensure_bits(16));
        // Interleave windowed and per-bit reads.
        assert_eq!(r.peek_bits(2), 0b10);
        r.consume_bits(2);
        assert!(r.read_bit().unwrap());
        assert!(!r.read_bit().unwrap());
        assert_eq!(r.read_bits_fast(4).unwrap(), 0b0101);
        assert_eq!(r.read_bits(8).unwrap(), 0x3C);
    }

    #[test]
    fn writer_byte_len_counts_stuffing() {
        let mut w = ScanWriter::new();
        w.put_bits(0xFF, 8);
        assert_eq!(w.byte_len(), 2);
    }
}
