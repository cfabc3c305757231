//! Scan decode and bit-exact scan re-encode, resumable at MCU
//! boundaries.
//!
//! [`ScanDecoder`] turns the entropy-coded segment into coefficient
//! blocks in coding order ([`decode_scan`] lays them out as planes) and
//! can snapshot [`Handover`] state before any MCU — the
//! "Huffman handover words" of paper §3.4. [`ScanEncoder`] is its
//! mirror: from such a snapshot it takes blocks in coding order and
//! writes the scan bytes, restart markers and pad bits included
//! ([`encode_scan_whole`] drives it over frame-shaped planes). The
//! invariant the Lepton codec is built on:
//!
//! > decoding a scan, then re-encoding every MCU range [mᵢ, mᵢ₊₁) from
//! > its snapshot and concatenating the outputs, reproduces the original
//! > entropy-coded bytes exactly.

use crate::bitio::{PadState, ScanReader, ScanWriter};
use crate::coeffs::{CoefBlock, CoefPlanes};
use crate::error::JpegError;
use crate::huffman::HuffTable;
use crate::parser::ParsedJpeg;
use crate::types::ZIGZAG;

/// Resume state at an MCU boundary ("Huffman handover word", App. A.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Handover {
    /// High bits of the byte straddling the boundary (low bits zero).
    pub partial: u8,
    /// How many bits of that byte were produced by earlier MCUs (0..=7).
    pub bits_used: u8,
    /// Previous DC value per frame component (JPEG codes DC as deltas).
    pub prev_dc: [i16; 4],
    /// Index of the next MCU to code.
    pub mcu: u32,
    /// Restart markers consumed/emitted before this MCU.
    pub rst_so_far: u32,
    /// Decode-side only: file offset of the straddling byte.
    pub byte_offset: usize,
}

impl Handover {
    /// The state at the very start of a scan.
    pub fn start_of_scan(scan_offset: usize) -> Self {
        Handover {
            partial: 0,
            bits_used: 0,
            prev_dc: [0; 4],
            mcu: 0,
            rst_so_far: 0,
            byte_offset: scan_offset,
        }
    }
}

/// Per-category bit counts observed while decoding (drives the Fig. 4
/// component-breakdown experiment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Bits spent on DC codes + magnitudes.
    pub dc_bits: u64,
    /// Bits spent on 7x1/1x7 edge AC coefficients.
    pub edge_bits: u64,
    /// Bits spent on interior 7x7 AC coefficients.
    pub ac77_bits: u64,
    /// Bits spent on EOB and ZRL symbols — the zero-run *structure* of
    /// the AC coefficients. Attributed explicitly: these symbols sit at
    /// a zigzag position but describe a run, so folding them into the
    /// positional edge/7x7 buckets misclassified them (the old
    /// `is_edge_zigzag(k.min(63))` clamp was papering over exactly
    /// that). On the Lepton output side this category corresponds to
    /// the model's nonzero-structure bytes.
    pub zero_run_bits: u64,
    /// Pad bits, restart markers, stuffing overhead.
    pub other_bits: u64,
}

impl ScanStats {
    /// Total accounted bits. Invariant (pinned by a regression test):
    /// after a full scan decode this equals the scan's exact bit length,
    /// `(scan_end - header_len) * 8`, stuffing and markers included.
    pub fn total_bits(&self) -> u64 {
        self.dc_bits + self.edge_bits + self.ac77_bits + self.zero_run_bits + self.other_bits
    }
}

/// Result of decoding a scan.
#[derive(Clone, Debug)]
pub struct ScanData {
    /// Quantized coefficients per component (DC stored absolute).
    pub coefs: CoefPlanes,
    /// Observed pad-bit convention.
    pub pad: PadState,
    /// Restart markers actually present in the file (App. A.3: may be
    /// fewer than the restart interval implies).
    pub rst_count: u32,
    /// Offset just past the last entropy-coded byte; `data[scan_end..]`
    /// is the trailing section (EOI and any garbage) stored verbatim.
    pub scan_end: usize,
    /// Per-category bit statistics.
    pub stats: ScanStats,
}

#[inline]
fn extend(v: u32, s: u8) -> i32 {
    // T.81 F.2.2.1 EXTEND: map magnitude bits to a signed value.
    if s == 0 {
        0
    } else if (v as i32) < (1 << (s - 1)) {
        v as i32 - (1 << s) + 1
    } else {
        v as i32
    }
}

/// Magnitude category: number of bits needed for |v| (T.81 F.1.2.1.2).
#[inline]
fn category(v: i32) -> u8 {
    (32 - v.unsigned_abs().leading_zeros()) as u8
}

#[inline]
fn is_edge_zigzag(k: usize) -> bool {
    // Zigzag index k maps to raster r; row 0 or column 0 (excluding DC)
    // are the 7x1/1x7 "edge" coefficients. Flattened to a const table —
    // this classifies every nonzero AC coefficient on the hot path.
    const EDGE: [bool; 64] = {
        let mut t = [false; 64];
        let mut k = 0;
        while k < 64 {
            let r = ZIGZAG[k];
            t[k] = r / 8 == 0 || r.is_multiple_of(8);
            k += 1;
        }
        t
    };
    EDGE[k]
}

/// One scan component's binding, the same in both directions: its
/// Huffman tables, its DC predictor slot and its blocks per MCU.
#[derive(Clone, Copy)]
struct ScanComp<'t> {
    dc: &'t HuffTable,
    ac: &'t HuffTable,
    /// The scan component's frame index (its DC predictor slot).
    comp: usize,
    /// Blocks it contributes to each MCU (h·v).
    blocks: usize,
}

/// Resolve every scan component's tables — once per [`ScanDecoder`] or
/// [`ScanEncoder`], not per block.
fn scan_comps(parsed: &ParsedJpeg) -> Result<Vec<ScanComp<'_>>, JpegError> {
    parsed
        .scan
        .components
        .iter()
        .map(|sc| {
            Ok(ScanComp {
                dc: parsed.dc_tables[sc.dc_table as usize]
                    .as_ref()
                    .ok_or(JpegError::BadHuffman("missing DC table"))?,
                ac: parsed.ac_tables[sc.ac_table as usize]
                    .as_ref()
                    .ok_or(JpegError::BadHuffman("missing AC table"))?,
                comp: sc.comp_index,
                blocks: parsed.frame.blocks_per_mcu(sc.comp_index),
            })
        })
        .collect()
}

impl ScanComp<'_> {
    /// Decode one block into `out` (raster order, absolute DC) — the
    /// Annex F reference path, one bounds/marker-checked bit at a time.
    ///
    /// `out` must arrive zeroed: only the DC value and nonzero AC
    /// coefficients are written, which is what lets the scan decoder
    /// target pre-zeroed plane storage directly instead of staging
    /// through a per-block temporary.
    fn decode_ref(
        &self,
        r: &mut ScanReader,
        prev_dc: &mut i16,
        out: &mut CoefBlock,
        stats: &mut ScanStats,
    ) -> Result<(), JpegError> {
        let start_bits = r.bit_offset();
        let s = self.dc.decode(|| r.read_bit())??;
        if s > 11 {
            return Err(JpegError::DcOutOfRange);
        }
        let bits = r.read_bits(s)?;
        let diff = extend(bits, s);
        let dc = *prev_dc as i32 + diff;
        if !(-32768..=32767).contains(&dc) {
            return Err(JpegError::DcOutOfRange);
        }
        *prev_dc = dc as i16;
        out[0] = dc as i16;
        stats.dc_bits += (r.bit_offset() - start_bits) as u64;

        let mut k = 1usize;
        while k <= 63 {
            let sym_start = r.bit_offset();
            let sym = self.ac.decode(|| r.read_bit())??;
            let run = (sym >> 4) as usize;
            let size = sym & 0x0F;
            if size == 0 {
                stats.zero_run_bits += (r.bit_offset() - sym_start) as u64;
                if run == 15 {
                    k += 16; // ZRL
                    continue;
                }
                if run != 0 {
                    // EOBn only exists in progressive mode.
                    return Err(JpegError::BadScanCode);
                }
                break; // EOB
            }
            k += run;
            if k > 63 {
                return Err(JpegError::AcOutOfRange);
            }
            if size > 10 {
                return Err(JpegError::AcOutOfRange);
            }
            let bits = r.read_bits(size)?;
            out[ZIGZAG[k]] = extend(bits, size) as i16;
            let spent = (r.bit_offset() - sym_start) as u64;
            if is_edge_zigzag(k) {
                stats.edge_bits += spent;
            } else {
                stats.ac77_bits += spent;
            }
            k += 1;
        }
        Ok(())
    }

    /// [`Self::decode_ref`] on the windowed lookahead path: each
    /// coefficient is one bit-window transaction — a 27-bit peek covers
    /// the longest code (16) plus the widest magnitude (11), so symbol
    /// and magnitude resolve from one refill check and one consume.
    /// Whenever the window cannot cover a step (end of scan, restart
    /// padding ahead), the per-bit primitives take over, so values,
    /// positions, statistics, and errors match the reference exactly.
    fn decode_fast(
        &self,
        r: &mut ScanReader,
        prev_dc: &mut i16,
        out: &mut CoefBlock,
        stats: &mut ScanStats,
    ) -> Result<(), JpegError> {
        let start_bits = r.bit_offset();
        // DC: code ≤ 16 bits + magnitude ≤ 11 bits.
        let (s, bits) = if r.ensure_bits(27) {
            let w = r.peek_bits(27);
            match self.dc.peek_decode(w >> 11) {
                Some((sym, len)) => {
                    if sym > 11 {
                        r.consume_bits(len);
                        return Err(JpegError::DcOutOfRange);
                    }
                    let bits = (w >> (27 - len as u32 - sym as u32)) & ((1u32 << sym) - 1);
                    r.consume_bits(len + sym);
                    (sym, bits)
                }
                None => {
                    r.consume_bits(16); // the reference consumes 16 bits
                    return Err(JpegError::BadScanCode);
                }
            }
        } else {
            let s = self.dc.decode_symbol(r)?;
            if s > 11 {
                return Err(JpegError::DcOutOfRange);
            }
            (s, r.read_bits_fast(s)?)
        };
        let diff = extend(bits, s);
        let dc = *prev_dc as i32 + diff;
        if !(-32768..=32767).contains(&dc) {
            return Err(JpegError::DcOutOfRange);
        }
        *prev_dc = dc as i16;
        out[0] = dc as i16;
        stats.dc_bits += (r.bit_offset() - start_bits) as u64;

        let mut k = 1usize;
        while k <= 63 {
            let sym_start = r.bit_offset();
            // AC: code ≤ 16 bits + magnitude ≤ 10 bits.
            let (sym, prefetched) = if r.ensure_bits(26) {
                let w = r.peek_bits(26);
                match self.ac.peek_decode(w >> 10) {
                    Some((sym, len)) => (sym, Some((w, len))),
                    None => {
                        r.consume_bits(16);
                        return Err(JpegError::BadScanCode);
                    }
                }
            } else {
                (self.ac.decode_symbol(r)?, None)
            };
            let run = (sym >> 4) as usize;
            let size = sym & 0x0F;
            if size == 0 {
                if let Some((_, len)) = prefetched {
                    r.consume_bits(len);
                }
                stats.zero_run_bits += (r.bit_offset() - sym_start) as u64;
                if run == 15 {
                    k += 16; // ZRL
                    continue;
                }
                if run != 0 {
                    // EOBn only exists in progressive mode.
                    return Err(JpegError::BadScanCode);
                }
                break; // EOB
            }
            k += run;
            if k > 63 {
                if let Some((_, len)) = prefetched {
                    r.consume_bits(len);
                }
                return Err(JpegError::AcOutOfRange);
            }
            if size > 10 {
                if let Some((_, len)) = prefetched {
                    r.consume_bits(len);
                }
                return Err(JpegError::AcOutOfRange);
            }
            let bits = match prefetched {
                Some((w, len)) => {
                    let bits = (w >> (26 - len as u32 - size as u32)) & ((1u32 << size) - 1);
                    r.consume_bits(len + size);
                    bits
                }
                None => r.read_bits_fast(size)?,
            };
            out[ZIGZAG[k]] = extend(bits, size) as i16;
            let spent = (r.bit_offset() - sym_start) as u64;
            if is_edge_zigzag(k) {
                stats.edge_bits += spent;
            } else {
                stats.ac77_bits += spent;
            }
            k += 1;
        }
        Ok(())
    }
}

/// Decode one block through the selected implementation — equivalence
/// harness entry point, not part of the codec API.
///
/// `path` selects the implementation: `0` = Annex F reference (per-bit),
/// anything else = the windowed fast decoder. All four outputs —
/// coefficients, reader position, statistics, and the error — must be
/// identical across every path.
#[doc(hidden)]
pub fn decode_block_for_tests(
    dc: &HuffTable,
    ac: &HuffTable,
    r: &mut ScanReader,
    prev_dc: &mut i16,
    out: &mut CoefBlock,
    stats: &mut ScanStats,
    path: u8,
) -> Result<(), JpegError> {
    let d = ScanComp {
        dc,
        ac,
        comp: 0,
        blocks: 1,
    };
    if path == 0 {
        d.decode_ref(r, prev_dc, out, stats)
    } else {
        d.decode_fast(r, prev_dc, out, stats)
    }
}

/// End-of-scan summary returned by [`ScanDecoder::finish`].
#[derive(Clone, Copy, Debug)]
pub struct ScanEnd {
    /// Observed pad-bit convention.
    pub pad: PadState,
    /// Restart markers actually present in the file.
    pub rst_count: u32,
    /// Offset just past the last entropy-coded byte.
    pub scan_end: usize,
    /// Per-category bit statistics for the whole scan.
    pub stats: ScanStats,
}

/// Stepwise scan decoder: decode MCU ranges on demand, snapshot
/// [`Handover`] state at any boundary in between.
///
/// Blocks come out in **coding order** — per MCU, per scan component,
/// `v` rows of `h` blocks — which is exactly the order the Lepton
/// segment walk visits them, so a thread segment (an MCU range) is one
/// contiguous run of blocks. The Lepton encoder drives this type over
/// disjoint `split_at_mut` slices of one block buffer: it decodes
/// segment *i*'s slice, takes the end snapshot, hands the slice to
/// segment *i*'s arithmetic-encode job, and keeps decoding segment
/// *i+1* into the rest while that job runs. [`decode_scan`] is a thin
/// driver over it that lays the blocks out as frame-shaped planes.
pub struct ScanDecoder<'a> {
    reader: ScanReader<'a>,
    comps: Vec<ScanComp<'a>>,
    /// Blocks per MCU ([`ParsedJpeg::blocks_per_mcu`]).
    bpm: usize,
    prev_dc: [i16; 4],
    rst_count: u32,
    stats: ScanStats,
    /// Next MCU to decode.
    mcu: u32,
    interval: u32,
    fast: bool,
}

impl<'a> ScanDecoder<'a> {
    /// Start decoding the entropy-coded scan of `parsed` (from `data`).
    pub fn new(data: &'a [u8], parsed: &'a ParsedJpeg) -> Result<Self, JpegError> {
        Ok(ScanDecoder {
            reader: ScanReader::new(data, parsed.header_len),
            comps: scan_comps(parsed)?,
            bpm: parsed.blocks_per_mcu(),
            prev_dc: [0; 4],
            rst_count: 0,
            stats: ScanStats::default(),
            mcu: 0,
            interval: parsed.restart_interval as u32,
            fast: true,
        })
    }

    /// [`Self::new`] pinned to the Annex F per-bit block decoder — the
    /// oracle the equivalence suites step beside the windowed decoder.
    /// Not part of the codec API.
    #[doc(hidden)]
    pub fn new_reference(data: &'a [u8], parsed: &'a ParsedJpeg) -> Result<Self, JpegError> {
        Ok(ScanDecoder {
            fast: false,
            ..Self::new(data, parsed)?
        })
    }

    /// Handover snapshot at the current MCU boundary. Taken *before*
    /// any restart handling at this MCU: a segment resuming here is
    /// responsible for emitting the restart marker itself.
    pub fn handover(&self) -> Handover {
        let p = self.reader.position();
        Handover {
            partial: p.partial,
            bits_used: p.bits_used,
            prev_dc: self.prev_dc,
            mcu: self.mcu,
            rst_so_far: self.rst_count,
            byte_offset: p.byte,
        }
    }

    /// Decode MCUs `[m, to_mcu)` into `blocks` in coding order, where `m`
    /// is where the previous call stopped (0 at first). `blocks[0]` is
    /// the first block of MCU `m`; the first
    /// `(to_mcu - m) ·` [`ParsedJpeg::blocks_per_mcu`] blocks
    /// must arrive zeroed (only the DC and nonzero AC coefficients are
    /// written) and any beyond them are left alone. Panics if `blocks`
    /// is shorter than that. A no-op when `to_mcu` is not ahead of the
    /// current position.
    pub fn decode_to(&mut self, to_mcu: u32, blocks: &mut [CoefBlock]) -> Result<(), JpegError> {
        let n = to_mcu.saturating_sub(self.mcu) as usize;
        for mcu_blocks in blocks[..n * self.bpm].chunks_exact_mut(self.bpm) {
            let mcu = self.mcu;
            if self.interval > 0 && mcu > 0 && mcu.is_multiple_of(self.interval) {
                let before = self.reader.bit_offset();
                if self.reader.try_restart((self.rst_count % 8) as u8)? {
                    self.rst_count += 1;
                    self.prev_dc = [0; 4];
                    self.stats.other_bits += (self.reader.bit_offset() - before) as u64;
                }
                // Missing restart: zero-run corruption (App. A.3) —
                // continue decoding without reset; the stored RST count
                // reproduces this on re-encode.
            }
            let mut out = mcu_blocks.iter_mut();
            for d in &self.comps {
                let prev_dc = &mut self.prev_dc[d.comp];
                for block in out.by_ref().take(d.blocks) {
                    if self.fast {
                        d.decode_fast(&mut self.reader, prev_dc, block, &mut self.stats)?;
                    } else {
                        d.decode_ref(&mut self.reader, prev_dc, block, &mut self.stats)?;
                    }
                }
            }
            self.mcu += 1;
        }
        Ok(())
    }

    /// Consume the final padding, validate pad-bit consistency, and
    /// report where the scan ended. Call after decoding every MCU.
    pub fn finish(mut self) -> Result<ScanEnd, JpegError> {
        let before = self.reader.bit_offset();
        self.reader.align()?;
        self.stats.other_bits += (self.reader.bit_offset() - before) as u64;
        if self.reader.pads == PadState::Mixed {
            return Err(JpegError::MixedPadBits);
        }
        Ok(ScanEnd {
            pad: self.reader.pads,
            rst_count: self.rst_count,
            scan_end: self.reader.end_offset(),
            stats: self.stats,
        })
    }
}

/// Decode the entropy-coded scan of `parsed` (from `data`), snapshotting
/// [`Handover`] state before each MCU index listed in `snapshot_at`
/// (which must be sorted ascending, values ≤ MCU count).
///
/// The [`ScanDecoder`] writes each MCU's coding-order blocks into a
/// one-MCU staging buffer, and they are copied to their plane positions
/// from there — the planes are the only frame-sized storage.
pub fn decode_scan(
    data: &[u8],
    parsed: &ParsedJpeg,
    snapshot_at: &[u32],
) -> Result<(ScanData, Vec<Handover>), JpegError> {
    debug_assert!(snapshot_at.windows(2).all(|w| w[0] <= w[1]));
    let mcu_count = parsed.frame.mcu_count() as u32;
    let mut coefs = CoefPlanes::for_frame(&parsed.frame);
    let mut staged = vec![[0i16; 64]; parsed.blocks_per_mcu()];

    let mut dec = ScanDecoder::new(data, parsed)?;
    let mut snapshots = Vec::with_capacity(snapshot_at.len());
    let mut targets = snapshot_at.iter().map(|&t| t.min(mcu_count)).peekable();
    for mcu in 0..mcu_count {
        // Snapshot before restart handling at the boundary: a segment
        // starting there is responsible for emitting the restart
        // marker itself (duplicate targets re-snapshot the same state).
        while targets.next_if_eq(&mcu).is_some() {
            snapshots.push(dec.handover());
        }
        staged.fill([0; 64]);
        dec.decode_to(mcu + 1, &mut staged)?;
        scatter_mcu(parsed, mcu, &staged, &mut coefs);
    }
    snapshots.extend(targets.map(|_| dec.handover()));
    let end = dec.finish()?;
    Ok((
        ScanData {
            coefs,
            pad: end.pad,
            rst_count: end.rst_count,
            scan_end: end.scan_end,
            stats: end.stats,
        },
        snapshots,
    ))
}

/// Plane positions `(frame component, bx, by)` of MCU `mcu`'s blocks,
/// in coding order.
fn mcu_blocks(parsed: &ParsedJpeg, mcu: u32) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    let frame = &parsed.frame;
    let (mx, my) = (mcu as usize % frame.mcus_x, mcu as usize / frame.mcus_x);
    parsed.scan.components.iter().flat_map(move |sc| {
        let comp = &frame.components[sc.comp_index];
        let (ch, cv) = (comp.h as usize, comp.v as usize);
        (0..cv)
            .flat_map(move |by| (0..ch).map(move |bx| (sc.comp_index, mx * ch + bx, my * cv + by)))
    })
}

/// Copy MCU `mcu`'s coding-order blocks to their plane positions.
fn scatter_mcu(parsed: &ParsedJpeg, mcu: u32, blocks: &[CoefBlock], coefs: &mut CoefPlanes) {
    for ((c, bx, by), block) in mcu_blocks(parsed, mcu).zip(blocks) {
        *coefs.planes[c].block_mut(bx, by) = *block;
    }
}

impl ScanComp<'_> {
    /// Huffman-encode one block (raster order, absolute DC) against
    /// `prev_dc`. `nz_mask` is the block's [`nonzero_mask`] (the Lepton
    /// decoder builds it while decoding): the AC loop visits only the
    /// set bits instead of testing all 63 positions, and each symbol's
    /// code and magnitude bits leave in one write.
    fn encode(
        &self,
        w: &mut ScanWriter,
        block: &CoefBlock,
        nz_mask: u64,
        prev_dc: &mut i16,
    ) -> Result<(), JpegError> {
        debug_assert_eq!(nz_mask >> 1, nonzero_mask(block) >> 1);
        let diff = block[0] as i32 - *prev_dc as i32;
        *prev_dc = block[0];
        let s = category(diff);
        if s > 11 {
            return Err(JpegError::DcOutOfRange);
        }
        let (code, len) = self
            .dc
            .encode(s)
            .ok_or(JpegError::BadHuffman("DC symbol uncodable"))?;
        w.put_bits(((code as u32) << s) | magnitude_bits(diff, s), len + s);

        let mut todo = nz_mask & !1;
        let mut next = 1u32; // first zigzag position not yet coded
        while todo != 0 {
            let k = todo.trailing_zeros();
            todo &= todo - 1;
            let mut run = k - next;
            next = k + 1;
            while run > 15 {
                let (code, len) = self
                    .ac
                    .encode(0xF0)
                    .ok_or(JpegError::BadHuffman("ZRL uncodable"))?;
                w.put_bits(code as u32, len);
                run -= 16;
            }
            let v = block[ZIGZAG[k as usize]] as i32;
            let s = category(v);
            if s > 10 {
                return Err(JpegError::AcOutOfRange);
            }
            let (code, len) = self
                .ac
                .encode(((run as u8) << 4) | s)
                .ok_or(JpegError::BadHuffman("AC symbol uncodable"))?;
            w.put_bits(((code as u32) << s) | magnitude_bits(v, s), len + s);
        }
        if next <= 63 {
            let (code, len) = self
                .ac
                .encode(0x00)
                .ok_or(JpegError::BadHuffman("EOB uncodable"))?;
            w.put_bits(code as u32, len);
        }
        Ok(())
    }
}

/// Encode one block the way [`ScanEncoder::push`] does — the
/// equivalence harness entry point for the block encoder, not part of
/// the codec API.
#[doc(hidden)]
pub fn encode_block_for_tests(
    dc: &HuffTable,
    ac: &HuffTable,
    w: &mut ScanWriter,
    block: &CoefBlock,
    nz_mask: u64,
    prev_dc: &mut i16,
) -> Result<(), JpegError> {
    let e = ScanComp {
        dc,
        ac,
        comp: 0,
        blocks: 1,
    };
    e.encode(w, block, nz_mask, prev_dc)
}

/// Bit `k` set iff the coefficient at zigzag position `k` is nonzero
/// (bit 0 is the DC).
pub fn nonzero_mask(block: &CoefBlock) -> u64 {
    (0..64).fold(0, |m, k| m | (((block[ZIGZAG[k]] != 0) as u64) << k))
}

/// The `s` magnitude bits T.81 F.1.2.1 appends for a value of category
/// `s` (negative values are sent as `v - 1` in `s`-bit two's complement).
#[inline]
fn magnitude_bits(v: i32, s: u8) -> u32 {
    (v + (v >> 31)) as u32 & ((1u32 << s) - 1)
}

/// Parameters for scan re-encoding.
#[derive(Clone, Copy, Debug)]
pub struct EncodeParams {
    /// Pad bit to use at byte-alignment points.
    pub pad_bit: bool,
    /// Total restart markers present in the original file; insertion
    /// stops after this many (App. A.3 zero-run fix).
    pub rst_limit: u32,
}

/// Stepwise scan encoder, the mirror of [`ScanDecoder`]: resumes from a
/// [`Handover`] and takes blocks in coding order — per MCU, per scan
/// component, `v` rows of `h` blocks.
///
/// It is the only code that writes restart markers: before the first
/// block of each restart interval it pads with the scan's pad bit,
/// writes the next marker and resets the DC predictors — until
/// [`EncodeParams::rst_limit`] markers are out (App. A.3: a file whose
/// markers stop early re-encodes with them stopping at the same MCU).
/// The Lepton decoder drives one per thread segment, pushing each block
/// as the model decodes it and draining the completed bytes as they
/// accumulate; [`encode_scan_whole`] is a thin driver over it.
pub struct ScanEncoder<'a> {
    writer: ScanWriter,
    /// The binding of each block of an MCU, in coding order.
    slots: Vec<ScanComp<'a>>,
    /// Position of the next block within its MCU.
    at: usize,
    params: EncodeParams,
    interval: u32,
    prev_dc: [i16; 4],
    rst_so_far: u32,
    /// MCU of the next block.
    mcu: u32,
}

impl<'a> ScanEncoder<'a> {
    /// Encode the scan of `parsed` from `from` (the MCU it names, its
    /// partial byte, DC predictors and restart count).
    pub fn resume(
        parsed: &'a ParsedJpeg,
        params: EncodeParams,
        from: &Handover,
    ) -> Result<Self, JpegError> {
        let slots = scan_comps(parsed)?
            .into_iter()
            .flat_map(|c| std::iter::repeat_n(c, c.blocks))
            .collect();
        Ok(ScanEncoder {
            writer: ScanWriter::resume(from.partial, from.bits_used),
            slots,
            at: 0,
            params,
            interval: parsed.restart_interval as u32,
            prev_dc: from.prev_dc,
            rst_so_far: from.rst_so_far,
            mcu: from.mcu,
        })
    }

    /// Encode the next block in coding order (raster order, absolute
    /// DC), given its [`nonzero_mask`].
    #[inline]
    pub fn push(&mut self, block: &CoefBlock, nz_mask: u64) -> Result<(), JpegError> {
        if self.at == 0 {
            self.restart();
        }
        let c = &self.slots[self.at];
        c.encode(&mut self.writer, block, nz_mask, &mut self.prev_dc[c.comp])?;
        self.at += 1;
        if self.at == self.slots.len() {
            self.at = 0;
            self.mcu += 1;
        }
        Ok(())
    }

    /// Before MCU `self.mcu`'s first block: the restart marker, if an
    /// interval starts here and the file still had markers.
    fn restart(&mut self) {
        let m = self.mcu;
        if self.interval > 0
            && m > 0
            && m.is_multiple_of(self.interval)
            && self.rst_so_far < self.params.rst_limit
        {
            self.writer.align(self.params.pad_bit);
            self.writer.write_rst((self.rst_so_far % 8) as u8);
            self.rst_so_far += 1;
            self.prev_dc = [0; 4];
        }
    }

    /// Completed bytes not yet taken.
    pub fn pending_len(&self) -> usize {
        self.writer.pending_len()
    }

    /// Take the completed bytes, leaving the partial byte in place.
    pub fn take_bytes(&mut self) -> Vec<u8> {
        self.writer.take_bytes()
    }

    /// Pad the partial byte with the scan's pad bit, completing it —
    /// the end of the scan, or of a thread segment whose last byte the
    /// next segment also writes.
    pub fn align(&mut self) {
        self.writer.align(self.params.pad_bit);
    }

    /// The state at the current MCU boundary, before any restart marker
    /// there: what the segment that resumes here starts from.
    pub fn handover(&self) -> Handover {
        debug_assert_eq!(self.at, 0, "handover inside an MCU");
        let (partial, bits_used) = self.writer.partial_state();
        Handover {
            partial,
            bits_used,
            prev_dc: self.prev_dc,
            mcu: self.mcu,
            rst_so_far: self.rst_so_far,
            byte_offset: 0,
        }
    }
}

/// Re-encode the whole scan from frame-shaped planes.
pub fn encode_scan_whole(
    coefs: &CoefPlanes,
    parsed: &ParsedJpeg,
    params: &EncodeParams,
) -> Result<Vec<u8>, JpegError> {
    let start = Handover::start_of_scan(parsed.header_len);
    let mut enc = ScanEncoder::resume(parsed, *params, &start)?;
    for mcu in 0..parsed.frame.mcu_count() as u32 {
        for (c, bx, by) in mcu_blocks(parsed, mcu) {
            let block = coefs.planes[c].block(bx, by);
            enc.push(block, nonzero_mask(block))?;
        }
    }
    enc.align();
    Ok(enc.take_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_matches_spec() {
        // T.81 Table F.1 examples.
        assert_eq!(extend(0, 0), 0);
        assert_eq!(extend(0, 1), -1);
        assert_eq!(extend(1, 1), 1);
        assert_eq!(extend(0b00, 2), -3);
        assert_eq!(extend(0b01, 2), -2);
        assert_eq!(extend(0b10, 2), 2);
        assert_eq!(extend(0b11, 2), 3);
        assert_eq!(extend(0, 10), -1023);
        assert_eq!(extend(1023, 10), 1023);
    }

    #[test]
    fn category_matches_spec() {
        assert_eq!(category(0), 0);
        assert_eq!(category(1), 1);
        assert_eq!(category(-1), 1);
        assert_eq!(category(2), 2);
        assert_eq!(category(-3), 2);
        assert_eq!(category(4), 3);
        assert_eq!(category(-1023), 10);
        assert_eq!(category(1024), 11);
        assert_eq!(category(-2047), 11);
    }

    #[test]
    fn extend_category_inverse() {
        for v in -2047i32..=2047 {
            let s = category(v);
            let bits = if v < 0 { v + (1 << s) - 1 } else { v } as u32;
            assert_eq!(extend(bits, s), v, "v={v}");
        }
    }

    #[test]
    fn edge_zigzag_classification() {
        // Zigzag 1 is raster 1 (row 0) → edge; zigzag 4 is raster 9 → 7x7.
        assert!(is_edge_zigzag(1));
        assert!(is_edge_zigzag(2)); // raster 8, column 0
        assert!(!is_edge_zigzag(4)); // raster 9

        // Count: 14 edge positions among 1..=63.
        let edges = (1..64).filter(|&k| is_edge_zigzag(k)).count();
        assert_eq!(edges, 14);
    }
}

#[cfg(test)]
mod path_equivalence_tests {
    use super::*;
    use crate::encoder::{encode_jpeg, EncodeOptions, Image, PixelData};

    fn gray_jpeg(w: usize, h: usize, restart_interval: u16) -> Vec<u8> {
        let data: Vec<u8> = (0..w * h)
            .map(|i| (((i % w) * 2 + (i / w) * 3) % 256) as u8)
            .collect();
        let img = Image {
            width: w,
            height: h,
            data: PixelData::Gray(data),
        };
        encode_jpeg(
            &img,
            &EncodeOptions {
                restart_interval,
                ..Default::default()
            },
        )
        .expect("encode")
    }

    /// The windowed decoder must track the reference decoder's exact
    /// handover state across every MCU boundary — including restart
    /// markers, where the prefetch window is dropped and re-anchored
    /// (a stale-window bit leaking through here once decoded garbage
    /// right after the first RST).
    #[test]
    fn fast_and_reference_agree_at_every_boundary() {
        for interval in [0u16, 3] {
            let jpg = gray_jpeg(64, 16, interval);
            let parsed = crate::parse(&jpg).expect("parse");
            let mcus = parsed.frame.mcu_count() as u32;
            let bpm = parsed.blocks_per_mcu();
            let mut cref = vec![[0i16; 64]; mcus as usize * bpm];
            let mut cfast = cref.clone();
            let mut dref = ScanDecoder::new_reference(&jpg, &parsed).unwrap();
            let mut dfast = ScanDecoder::new(&jpg, &parsed).unwrap();
            for m in 1..=mcus {
                let at = (m as usize - 1) * bpm;
                dref.decode_to(m, &mut cref[at..])
                    .expect("reference decode");
                dfast.decode_to(m, &mut cfast[at..]).expect("fast decode");
                assert_eq!(
                    dref.handover(),
                    dfast.handover(),
                    "diverged at mcu {m} (interval {interval})"
                );
            }
            assert_eq!(cref, cfast);
            let eref = dref.finish().unwrap();
            let efast = dfast.finish().unwrap();
            assert_eq!(eref.pad, efast.pad);
            assert_eq!(eref.rst_count, efast.rst_count);
            assert_eq!(eref.scan_end, efast.scan_end);
            assert_eq!(eref.stats, efast.stats);
        }
    }

    /// `total_bits` must pin to the scan's actual bit length — every
    /// consumed bit is attributed to exactly one category (the EOB/ZRL
    /// bits now explicitly, not folded into a positional bucket).
    #[test]
    fn stats_total_bits_pin_scan_length() {
        for interval in [0u16, 4] {
            let jpg = gray_jpeg(96, 32, interval);
            let parsed = crate::parse(&jpg).expect("parse");
            let (sd, _) = decode_scan(&jpg, &parsed, &[]).expect("decode");
            assert_eq!(
                sd.stats.total_bits(),
                ((sd.scan_end - parsed.header_len) * 8) as u64,
                "stats must account for every scan bit (interval {interval})"
            );
            assert!(sd.stats.zero_run_bits > 0, "EOB bits must be attributed");
        }
    }
}
