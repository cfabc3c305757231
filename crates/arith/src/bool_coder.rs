//! Carry-correct binary range coder.
//!
//! Encoder and decoder for a binary arithmetic code with 16-bit
//! probabilities. The normalization follows the classic LZMA scheme:
//! a 64-bit `low` accumulator whose overflow bit is the carry, a 32-bit
//! `range`, and byte-at-a-time renormalization once `range` drops below
//! 2^24. This is algebraically the same family as the VP8 bool coder the
//! paper modified (RFC 6386 §13.2); see the crate docs for why we prefer
//! the byte-wise carry formulation.

use crate::Branch;

const TOP: u32 = 1 << 24;

/// Source of compressed bytes for [`BoolDecoder`].
///
/// Returns `0` once exhausted: a range decoder that knows how many symbols
/// to decode never reads meaningfully past the end, and zero-fill is the
/// conventional way to let the final symbols resolve.
pub trait ByteSource {
    /// Produce the next byte of the compressed stream (0 past the end).
    fn next_byte(&mut self) -> u8;

    /// Fill `out` with the next bytes of the stream, zero-filling past
    /// the end. The decoder calls this once per refill window instead of
    /// once per byte, so a boxed/dyn source pays one indirect call per
    /// block rather than per byte. Implementors with contiguous backing
    /// should override with a bulk copy.
    #[inline]
    fn read_block(&mut self, out: &mut [u8]) {
        for b in out.iter_mut() {
            *b = self.next_byte();
        }
    }
}

impl<S: ByteSource + ?Sized> ByteSource for &mut S {
    #[inline]
    fn next_byte(&mut self) -> u8 {
        (**self).next_byte()
    }

    #[inline]
    fn read_block(&mut self, out: &mut [u8]) {
        (**self).read_block(out)
    }
}

impl ByteSource for Box<dyn ByteSource + '_> {
    #[inline]
    fn next_byte(&mut self) -> u8 {
        (**self).next_byte()
    }

    #[inline]
    fn read_block(&mut self, out: &mut [u8]) {
        (**self).read_block(out)
    }
}

/// Shared bulk-copy implementation for slice-backed sources. Advances
/// `pos` only to `data.len()`: zero-fill reads never move the cursor, so
/// the consumption counter stays exact and cannot grow without bound on
/// adversarial streams that drain far past the end.
#[inline]
fn read_block_from_slice(data: &[u8], pos: &mut usize, out: &mut [u8]) {
    let avail = data.len() - *pos;
    let n = avail.min(out.len());
    out[..n].copy_from_slice(&data[*pos..*pos + n]);
    out[n..].fill(0);
    *pos += n;
}

/// A [`ByteSource`] over an in-memory slice.
#[derive(Clone, Debug)]
pub struct SliceSource<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Wrap `data`, starting at its first byte.
    pub fn new(data: &'a [u8]) -> Self {
        SliceSource { data, pos: 0 }
    }

    /// Number of bytes consumed so far. Zero-fill reads past the end do
    /// not advance the cursor, so this is always `<= data.len()`.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

impl ByteSource for SliceSource<'_> {
    #[inline]
    fn next_byte(&mut self) -> u8 {
        match self.data.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                b
            }
            None => 0,
        }
    }

    #[inline]
    fn read_block(&mut self, out: &mut [u8]) {
        read_block_from_slice(self.data, &mut self.pos, out);
    }
}

/// An owned [`ByteSource`] over a `Vec<u8>`.
#[derive(Clone, Debug)]
pub struct VecSource {
    data: Vec<u8>,
    pos: usize,
}

impl VecSource {
    /// Wrap an owned buffer.
    pub fn new(data: Vec<u8>) -> Self {
        VecSource { data, pos: 0 }
    }

    /// Number of bytes consumed so far. Zero-fill reads past the end do
    /// not advance the cursor, so this is always `<= data.len()`.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Recover the backing buffer (e.g. to recycle its allocation).
    pub fn into_inner(self) -> Vec<u8> {
        self.data
    }
}

impl ByteSource for VecSource {
    #[inline]
    fn next_byte(&mut self) -> u8 {
        match self.data.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                b
            }
            None => 0,
        }
    }

    #[inline]
    fn read_block(&mut self, out: &mut [u8]) {
        read_block_from_slice(&self.data, &mut self.pos, out);
    }
}

/// Binary range encoder.
///
/// Bits are coded against a probability, either adaptively via a
/// [`Branch`] ([`BoolEncoder::put`]) or with a fixed probability
/// ([`BoolEncoder::put_with_prob`]). Call [`BoolEncoder::finish`] to flush
/// and take the output.
#[derive(Clone, Debug)]
pub struct BoolEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for BoolEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl BoolEncoder {
    /// New encoder with an empty output buffer.
    pub fn new() -> Self {
        Self::with_buffer(Vec::new())
    }

    /// New encoder writing into `buf` (cleared, capacity retained). This
    /// is the arena-reuse entry point: a pooled worker hands the same
    /// buffer to every job it runs, so steady-state encoding does no
    /// output-buffer reallocation at all.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        BoolEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: buf,
        }
    }

    /// Encode `bit` with the probability stored in `branch`, then adapt
    /// the branch. This is the only call the hot path of the model uses.
    #[inline]
    pub fn put(&mut self, bit: bool, branch: &mut Branch) {
        self.put_with_prob(bit, branch.prob_false());
        branch.record(bit);
    }

    /// Encode `bit` given `prob_false`, the 16-bit fixed-point probability
    /// that `bit` is `false`. The probability must lie in `1..=65535`.
    #[inline]
    pub fn put_with_prob(&mut self, bit: bool, prob_false: u16) {
        debug_assert!(prob_false >= 1);
        let bound = (self.range >> 16) * prob_false as u32;
        // Branchless select: the bit values of real coefficient streams
        // are poorly predicted, and a mispredict costs more than the
        // extra ALU ops. `mask` is all-ones when `bit` is set.
        let mask = (bit as u32).wrapping_neg();
        self.low += (bound & mask) as u64;
        self.range = bound ^ ((bound ^ (self.range - bound)) & mask);
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    /// Encode a bit with probability 1/2 (no adaptation). Used for
    /// residual bits the model deems incompressible.
    #[inline]
    pub fn put_uniform(&mut self, bit: bool) {
        self.put_with_prob(bit, 1 << 15);
    }

    /// Encode the low `n` bits of `v`, most-significant first, each at
    /// probability 1/2.
    pub fn put_uniform_bits(&mut self, v: u32, n: u32) {
        debug_assert!(n <= 32);
        for i in (0..n).rev() {
            self.put_uniform((v >> i) & 1 == 1);
        }
    }

    #[inline]
    fn shift_low(&mut self) {
        if (self.low as u32 as u64) < 0xFF00_0000 || self.low >= (1 << 32) {
            let carry = (self.low >> 32) as u8;
            let mut first = true;
            while self.cache_size > 0 {
                let b = if first {
                    self.cache.wrapping_add(carry)
                } else {
                    0xFFu8.wrapping_add(carry)
                };
                self.out.push(b);
                first = false;
                self.cache_size -= 1;
            }
            self.cache = (self.low >> 24) as u8;
        }
        self.cache_size += 1;
        // Shift within 32 bits: the byte shifted out is exactly the one we
        // just wrote (or deferred into `cache_size`).
        self.low = ((self.low as u32) << 8) as u64;
    }

    /// Flush the coder and return the compressed bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }

    /// Bytes emitted so far (the final size will include up to 5 more
    /// flush bytes). Useful for instrumentation (Fig. 4 component sizes).
    pub fn bytes_so_far(&self) -> usize {
        self.out.len()
    }

    /// The emitted bytes, which are final: a carry resolves into the
    /// cached byte and its pending `0xFF` run *before* they are pushed,
    /// so nothing already here changes again. They are a prefix of
    /// [`finish`](Self::finish)'s output, readable while encoding goes
    /// on — a decoder can consume a stream as it is written.
    pub fn settled(&self) -> &[u8] {
        &self.out
    }
}

/// Refill-window size for [`BoolDecoder`]'s internal byte buffer. One
/// [`ByteSource::read_block`] call per window keeps the per-byte cost of
/// renormalization at an array load — no per-byte trait hop even for
/// boxed sources.
const REFILL: usize = 64;

/// Binary range decoder, mirroring [`BoolEncoder`].
///
/// Input bytes are pulled through a 64-byte window filled by
/// [`ByteSource::read_block`], so the source (and up to one window of
/// prefetch) may run ahead of the bytes the coder has actually folded
/// into `code`.
#[derive(Clone, Debug)]
pub struct BoolDecoder<S: ByteSource> {
    code: u32,
    range: u32,
    buf: [u8; REFILL],
    buf_pos: usize,
    src: S,
}

impl<S: ByteSource> BoolDecoder<S> {
    /// Initialize from a byte source (consumes the 5-byte preamble the
    /// encoder's flush produced).
    pub fn new(src: S) -> Self {
        let mut dec = BoolDecoder {
            code: 0,
            range: u32::MAX,
            buf: [0; REFILL],
            buf_pos: REFILL,
            src,
        };
        // The first emitted byte is always the initial cache (0); skip it
        // and load the next four, exactly inverse to the encoder flush.
        dec.next_byte();
        for _ in 0..4 {
            dec.code = (dec.code << 8) | dec.next_byte() as u32;
        }
        dec
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        if self.buf_pos == REFILL {
            self.src.read_block(&mut self.buf);
            self.buf_pos = 0;
        }
        let b = self.buf[self.buf_pos];
        self.buf_pos += 1;
        b
    }

    /// Decode one bit with the probability in `branch`, then adapt it.
    #[inline]
    pub fn get(&mut self, branch: &mut Branch) -> bool {
        let bit = self.get_with_prob(branch.prob_false());
        branch.record(bit);
        bit
    }

    /// Decode one bit given the 16-bit probability that it is `false`.
    #[inline]
    pub fn get_with_prob(&mut self, prob_false: u16) -> bool {
        let bound = (self.range >> 16) * prob_false as u32;
        let bit = self.code >= bound;
        // Branchless select (mirrors the encoder): decoded bit values
        // are data-dependent and mispredict badly.
        let mask = (bit as u32).wrapping_neg();
        self.code -= bound & mask;
        self.range = bound ^ ((bound ^ (self.range - bound)) & mask);
        while self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | self.next_byte() as u32;
        }
        bit
    }

    /// Decode a probability-1/2 bit.
    #[inline]
    pub fn get_uniform(&mut self) -> bool {
        self.get_with_prob(1 << 15)
    }

    /// Decode `n` probability-1/2 bits, most-significant first.
    pub fn get_uniform_bits(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 32);
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | self.get_uniform() as u32;
        }
        v
    }

    /// Access the underlying source. Note the decoder prefetches up to
    /// one refill window, so a consumption counter on the source runs
    /// ahead of the bytes actually folded into the coder state.
    pub fn source(&self) -> &S {
        &self.src
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_adaptive(bits: &[bool]) {
        let mut enc = BoolEncoder::new();
        let mut b = Branch::new();
        for &bit in bits {
            enc.put(bit, &mut b);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let mut b = Branch::new();
        for (i, &bit) in bits.iter().enumerate() {
            assert_eq!(dec.get(&mut b), bit, "bit {i}");
        }
    }

    #[test]
    fn empty_stream() {
        let enc = BoolEncoder::new();
        let bytes = enc.finish();
        assert_eq!(bytes.len(), 5);
        let _dec = BoolDecoder::new(SliceSource::new(&bytes));
    }

    #[test]
    fn single_bits() {
        roundtrip_adaptive(&[true]);
        roundtrip_adaptive(&[false]);
    }

    #[test]
    fn alternating() {
        let bits: Vec<bool> = (0..1000).map(|i| i % 2 == 0).collect();
        roundtrip_adaptive(&bits);
    }

    #[test]
    fn all_ones_compresses() {
        let bits = vec![true; 10_000];
        let mut enc = BoolEncoder::new();
        let mut b = Branch::new();
        for &bit in &bits {
            enc.put(bit, &mut b);
        }
        let bytes = enc.finish();
        // 10k skewed bits should collapse to a few dozen bytes.
        assert!(bytes.len() < 200, "got {} bytes", bytes.len());
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let mut b = Branch::new();
        for &bit in &bits {
            assert_eq!(dec.get(&mut b), bit);
        }
    }

    #[test]
    fn skewed_random_roundtrip() {
        // Deterministic LCG so the test is reproducible without rand.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let bits: Vec<bool> = (0..50_000).map(|_| next() % 10 == 0).collect();
        roundtrip_adaptive(&bits);
    }

    #[test]
    fn uniform_bits_roundtrip() {
        let mut enc = BoolEncoder::new();
        enc.put_uniform_bits(0xDEAD_BEEF, 32);
        enc.put_uniform_bits(0x5, 3);
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        assert_eq!(dec.get_uniform_bits(32), 0xDEAD_BEEF);
        assert_eq!(dec.get_uniform_bits(3), 0x5);
    }

    #[test]
    fn extreme_probabilities() {
        let mut enc = BoolEncoder::new();
        for _ in 0..1000 {
            enc.put_with_prob(false, 65535);
            enc.put_with_prob(true, 1);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        for _ in 0..1000 {
            assert!(!dec.get_with_prob(65535));
            assert!(dec.get_with_prob(1));
        }
    }

    #[test]
    fn unlikely_symbols_still_roundtrip() {
        // Encode the *improbable* symbol repeatedly: stresses carry logic.
        let mut enc = BoolEncoder::new();
        for _ in 0..500 {
            enc.put_with_prob(true, 65535);
            enc.put_with_prob(false, 1);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        for _ in 0..500 {
            assert!(dec.get_with_prob(65535));
            assert!(!dec.get_with_prob(1));
        }
    }

    #[test]
    fn mixed_adaptive_and_fixed() {
        let mut enc = BoolEncoder::new();
        let mut b1 = Branch::new();
        let mut b2 = Branch::new();
        let pattern: Vec<(bool, u8)> = (0..5000)
            .map(|i| ((i * 7) % 3 == 0, (i % 3) as u8))
            .collect();
        for &(bit, which) in &pattern {
            match which {
                0 => enc.put(bit, &mut b1),
                1 => enc.put(bit, &mut b2),
                _ => enc.put_uniform(bit),
            }
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let mut b1 = Branch::new();
        let mut b2 = Branch::new();
        for &(bit, which) in &pattern {
            let got = match which {
                0 => dec.get(&mut b1),
                1 => dec.get(&mut b2),
                _ => dec.get_uniform(),
            };
            assert_eq!(got, bit);
        }
    }

    #[test]
    fn settled_bytes_are_a_prefix_of_the_finished_stream() {
        // Improbable symbols force long 0xFF runs and carries into them:
        // every snapshot taken mid-stream must survive into the output.
        let mut enc = BoolEncoder::new();
        let mut snapshots = Vec::new();
        for i in 0..20_000u32 {
            enc.put_with_prob(i % 3 != 0, 65535 - (i % 7) as u16);
            if i % 97 == 0 {
                snapshots.push(enc.settled().to_vec());
            }
        }
        let bytes = enc.finish();
        for s in snapshots {
            assert!(bytes.starts_with(&s), "a settled byte changed");
        }
    }

    #[test]
    fn vec_source_matches_slice_source() {
        let mut enc = BoolEncoder::new();
        let mut b = Branch::new();
        for i in 0..256 {
            enc.put(i % 5 == 0, &mut b);
        }
        let bytes = enc.finish();
        let mut d1 = BoolDecoder::new(SliceSource::new(&bytes));
        let mut d2 = BoolDecoder::new(VecSource::new(bytes.clone()));
        let mut b1 = Branch::new();
        let mut b2 = Branch::new();
        for _ in 0..256 {
            assert_eq!(d1.get(&mut b1), d2.get(&mut b2));
        }
    }
}
