//! JPEG → Lepton compression.
//!
//! The encoder (paper §3.4) is serial on the JPEG side — "the Lepton
//! encoder must decode the original JPEG serially" — and parallel on the
//! arithmetic side: each thread segment is arithmetically encoded with
//! its own fresh model, independently of the others.
//!
//! The scan decoder writes the file's quantized coefficients into one
//! flat block buffer in **coding order** — per MCU, per scan component,
//! `v` rows of `h` blocks — which is exactly the order the segment walk
//! visits them. A thread segment (an MCU range) is therefore one
//! contiguous run of blocks, `bounds[i]·bpm .. bounds[i+1]·bpm` with
//! `bpm` blocks per MCU. The whole-file driver splits the buffer with
//! `split_at_mut` as the serial decode advances: segment *i*'s slice is
//! decoded, then handed to its encode job as `&[CoefBlock]` while the
//! decoder moves on into the rest, so the borrow checker — not an
//! argument in a comment — proves that the decoder and the jobs touch
//! disjoint memory.
//!
//! Parallelism and scratch memory come from the pre-spawned
//! [`Engine`](crate::Engine) pool (§5.1): segment jobs are queued to
//! resident workers whose model arenas and output buffers are reset —
//! not reallocated — between jobs, the block buffer comes from the
//! engine's pool, and a single-segment chunk runs inline on the calling
//! thread. There are two dispatch shapes: the whole-file driver (any
//! segment count, each job pushed the moment its slice is final) and
//! [`compress_chunked`] (decode everything, then fan out per chunk over
//! shared slices).

use crate::driver::{walk_segment, BlockOp};
use crate::engine::{BatchGuard, Engine, Scratch};
use crate::error::LeptonError;
use crate::format::{write_container, ContainerHeader, SegmentInfo, SerializedHandover};
use crate::security::{JobMeter, ResourceBudget};
use lepton_arith::BoolEncoder;
use lepton_jpeg::bitio::PadState;
use lepton_jpeg::parser::{parse_with_limits, ParseLimits, ParsedJpeg};
use lepton_jpeg::scan::{Handover, ScanDecoder, ScanEnd, ScanStats};
use lepton_jpeg::{CoefBlock, JpegError};
use lepton_model::component::CategoryBytes;
use lepton_model::context::{BlockNeighbors, CodedBlock};
use lepton_model::{ComponentModel, ModelConfig};

/// Thread-segment selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadPolicy {
    /// Pick segment count from input size with the paper's empirically
    /// chosen cutoffs (Fig. 7/8 show the resulting steps).
    Auto,
    /// Fixed segment count (1 = the paper's "Lepton 1-way").
    Fixed(usize),
}

impl ThreadPolicy {
    /// Segment count for an input of `bytes` bytes, capped at `mcus`.
    pub fn segments(&self, bytes: usize, mcus: u32) -> u32 {
        let n = match self {
            ThreadPolicy::Fixed(n) => (*n).max(1) as u32,
            ThreadPolicy::Auto => {
                // Empirical cutoffs in the spirit of §5.4: small images
                // get fewer threads so each bin sees more data.
                if bytes < 128 << 10 {
                    1
                } else if bytes < 512 << 10 {
                    2
                } else if bytes < (2 << 20) {
                    4
                } else {
                    8
                }
            }
        };
        n.min(mcus.max(1)).min(255)
    }
}

/// Compression options.
#[derive(Clone, Debug)]
pub struct CompressOptions {
    /// Thread-segment policy.
    pub threads: ThreadPolicy,
    /// Probability-model configuration (ablations).
    pub model: ModelConfig,
    /// Memory budget for parsing/decoding the JPEG.
    pub limits: ParseLimits,
    /// Verify a full round-trip before returning (production always
    /// does; §5.7 "blockservers never admit chunks that fail to
    /// round-trip").
    pub verify: bool,
    /// Memory budgets the job is metered against: the encode side
    /// (§6.2, coefficient blocks + per-segment models + arithmetic
    /// streams) for compression itself, and the decode side (§4.2) for
    /// the verification decode — so a file that could not be *served*
    /// within budget is already refused at admission.
    pub budget: ResourceBudget,
}

impl Default for CompressOptions {
    fn default() -> Self {
        CompressOptions {
            threads: ThreadPolicy::Auto,
            model: ModelConfig::default(),
            limits: ParseLimits::default(),
            verify: true,
            budget: ResourceBudget::default(),
        }
    }
}

/// Instrumentation from one compression run (drives Figs. 4 and 6).
#[derive(Clone, Debug, Default)]
pub struct CompressStats {
    /// Input bytes.
    pub input_bytes: usize,
    /// Output (Lepton) bytes.
    pub output_bytes: usize,
    /// Verbatim JPEG header size.
    pub header_in: usize,
    /// Compressed header size (zlib blob, metadata included).
    pub header_out: usize,
    /// Input scan bit breakdown from the Huffman decode.
    pub scan_in: ScanStats,
    /// Output byte attribution from the model.
    pub scan_out: CategoryBytes,
    /// Thread segments used.
    pub segments: u32,
}

/// The arithmetic-encoding side of one thread segment: its blocks, in
/// coding order, are consumed in exactly the order the walk visits
/// them. The model pair is borrowed from the executing worker's arena.
struct SegEncoder<'a> {
    blocks: std::slice::Iter<'a, CoefBlock>,
    enc: BoolEncoder,
    models: &'a mut [ComponentModel; 2],
}

impl BlockOp for SegEncoder<'_> {
    type Error = LeptonError;

    fn block(
        &mut self,
        _scan_idx: usize,
        class: usize,
        _bx: usize,
        _gy: usize,
        nbr: &BlockNeighbors<'_>,
        out: &mut CodedBlock,
    ) -> Result<(), LeptonError> {
        let block = self.blocks.next().expect("one block per visit");
        self.models[class].encode_block(&mut self.enc, block, nbr, out);
        Ok(())
    }
}

/// Compress a whole JPEG file into a single Lepton container (on the
/// shared [`Engine::global`] pool).
pub fn compress(jpeg: &[u8], opts: &CompressOptions) -> Result<Vec<u8>, LeptonError> {
    Engine::global().compress(jpeg, opts)
}

/// Compress and report instrumentation (on the shared engine).
pub fn compress_with_stats(
    jpeg: &[u8],
    opts: &CompressOptions,
) -> Result<(Vec<u8>, CompressStats), LeptonError> {
    compress_on(Engine::global(), jpeg, opts)
}

/// Engine-backed compression pipeline shared by the free functions and
/// [`Engine::compress`].
pub(crate) fn compress_on(
    engine: &Engine,
    jpeg: &[u8],
    opts: &CompressOptions,
) -> Result<(Vec<u8>, CompressStats), LeptonError> {
    // Stage trace for the whole conversion. If a caller (e.g. the
    // blockstore's `put` admission gate running under the server's
    // `block_put` span) already holds a span on this thread, this
    // guard disarms and the stage marks below land on that outer span.
    let span = lepton_obs::span_enter("compress");
    let r = compress_traced(engine, jpeg, opts);
    match &r {
        Ok((bytes, _)) => span.finish("ok", jpeg.len() as u64, bytes.len() as u64),
        Err(e) => span.finish(
            crate::error::ExitCode::classify(e).label(),
            jpeg.len() as u64,
            0,
        ),
    }
    r
}

fn compress_traced(
    engine: &Engine,
    jpeg: &[u8],
    opts: &CompressOptions,
) -> Result<(Vec<u8>, CompressStats), LeptonError> {
    let parsed = parse_with_limits(jpeg, &opts.limits)?;
    lepton_obs::mark_stage("header_parse");
    if parsed.header_len > jpeg.len() {
        return Err(LeptonError::Jpeg(JpegError::Truncated));
    }
    let mcus = parsed.frame.mcu_count() as u32;
    let nseg = opts.threads.segments(jpeg.len(), mcus);
    let bounds = segment_bounds(&parsed, 0, mcus, nseg);

    // Open the encode meter and charge the block buffer — the encoder's
    // one frame-sized arena (§3.4: "the Lepton encoder must decode the
    // original JPEG serially") — before the scan decode touches it.
    let meter = opts.budget.encode_meter();
    meter.charge(block_bytes(&parsed))?;

    let (bytes, scan_in, scan_out, header_out) =
        compress_file(engine, jpeg, &parsed, &bounds, opts, &meter)?;
    lepton_obs::mark_stage("arith_encode");

    let stats = CompressStats {
        input_bytes: jpeg.len(),
        output_bytes: bytes.len(),
        header_in: parsed.header_len,
        header_out,
        scan_in,
        scan_out,
        segments: nseg,
    };

    if opts.verify {
        // The verification decode runs under the *decode* budget: a
        // file that cannot be served within §4.2 limits is refused at
        // admission time, which is exactly the paper's ">24 MiB mem
        // decode" encode-side rejection class.
        let round = lepton_obs::unmarked(|| {
            crate::decoder::decompress_on(
                engine,
                &bytes,
                &crate::decoder::DecompressOptions {
                    model: opts.model,
                    budget: opts.budget,
                },
            )
        })?;
        lepton_obs::mark_stage("verify");
        if round != jpeg {
            return Err(LeptonError::RoundtripFailed);
        }
    }
    Ok((bytes, stats))
}

/// Bytes the coding-order block buffer for `parsed` occupies (128 bytes
/// per block: 64 × i16 coefficients). When the scan codes each frame
/// component once — every real file — this is also what frame-shaped
/// planes would take: `blocks_w = mcus_x·h`, so a component's plane
/// holds exactly its `h·v` blocks of every MCU.
fn block_bytes(parsed: &ParsedJpeg) -> usize {
    parsed
        .frame
        .mcu_count()
        .saturating_mul(parsed.blocks_per_mcu())
        .saturating_mul(std::mem::size_of::<CoefBlock>())
}

/// Whole-file compression, for any segment count: the serial Huffman
/// decode fills the coding-order block buffer one segment slice at a
/// time, and the moment segment *i*'s slice and end snapshot are final
/// its encode job is dispatched ([`dispatch`]) while the decoder moves
/// on into the rest of the buffer — with several segments the decode of
/// segment *i+1* overlaps the arithmetic encoding of segment *i* (the
/// encode-side analogue of the paper's decode pipeline, §3.4); a single
/// segment is encoded inline once the whole scan is decoded. FIFO
/// collection of the segment streams keeps the container identical
/// however the jobs were scheduled.
fn compress_file(
    engine: &Engine,
    jpeg: &[u8],
    parsed: &ParsedJpeg,
    bounds: &[u32],
    opts: &CompressOptions,
    meter: &JobMeter,
) -> Result<(Vec<u8>, ScanStats, CategoryBytes, usize), LeptonError> {
    let nseg = bounds.len() - 1;
    let bpm = parsed.blocks_per_mcu();
    let model_cfg = opts.model;
    let mut blocks = engine.checkout_blocks(parsed.frame.mcu_count() * bpm);
    let mut results: Vec<Option<SegmentResult>> = (0..nseg).map(|_| None).collect();
    let mut handovers: Vec<Handover> = Vec::with_capacity(nseg + 1);

    // Jobs borrow their block slice and result slot for the whole
    // scope, so both are split off outside it.
    let mut rest = &mut blocks[..];
    let slots = results.iter_mut();
    let end = engine.scope(|batch| {
        let run = (|| -> Result<ScanEnd, LeptonError> {
            let mut dec = ScanDecoder::new(jpeg, parsed)?;
            for (i, slot) in slots.enumerate() {
                let (start, end) = (bounds[i], bounds[i + 1]);
                handovers.push(dec.handover());
                let len = (end - start) as usize * bpm;
                let (seg, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                dec.decode_to(end, seg)?;
                if nseg == 1 {
                    // The one segment is the whole scan: charge its
                    // decode to its own stage, as the inline job follows.
                    lepton_obs::mark_stage("scan_decode");
                }
                let seg: &[CoefBlock] = seg;
                dispatch(engine, batch, nseg, move |scratch| {
                    encode_segment_job(scratch, seg, parsed, start, end, model_cfg, slot, meter);
                });
            }
            handovers.push(dec.handover());
            Ok(dec.finish()?)
        })();
        // Decode finished (or failed): help drain the remaining encode
        // jobs; the scope waits for stragglers on other workers.
        batch.participate();
        run
    });
    engine.checkin_blocks(blocks);
    let end = end?;

    let (streams, cat_total) = collect_segment_results(results)?;
    let (bytes, scan_out, header_out) = assemble_container(
        jpeg,
        parsed,
        &ChunkSpec {
            byte_start: 0,
            byte_end: jpeg.len(),
            emit_header: true,
            bounds,
            handovers: &handovers,
            final_chunk: true,
            scan_end: end.scan_end,
            pad: end.pad,
            rst_count: end.rst_count,
        },
        streams,
        cat_total,
    )?;
    Ok((bytes, end.stats, scan_out, header_out))
}

/// Run one segment's encode `job`: inline on the caller when it is its
/// chunk's only segment (no queue handoff — the common small-file
/// path), otherwise queued on `batch`, whose scope waits for it.
fn dispatch<'env>(
    engine: &Engine,
    batch: &BatchGuard<'_, 'env>,
    nseg: usize,
    job: impl FnOnce(&mut Scratch) + Send + 'env,
) {
    if nseg == 1 {
        engine.run_inline(job);
    } else {
        batch.push(Box::new(job));
    }
}

/// Compress a JPEG into independent per-chunk containers of at most
/// `chunk_size` original bytes each (the paper's 4-MiB blocks, §3.4).
/// Each container decompresses independently to its exact byte range.
pub fn compress_chunked(
    jpeg: &[u8],
    chunk_size: usize,
    opts: &CompressOptions,
) -> Result<Vec<Vec<u8>>, LeptonError> {
    compress_chunked_on(Engine::global(), jpeg, chunk_size, opts)
}

/// Engine-backed chunked compression, shared by [`compress_chunked`]
/// and [`Engine::compress_chunked`].
pub(crate) fn compress_chunked_on(
    engine: &Engine,
    jpeg: &[u8],
    chunk_size: usize,
    opts: &CompressOptions,
) -> Result<Vec<Vec<u8>>, LeptonError> {
    assert!(chunk_size > 0);
    let parsed = parse_with_limits(jpeg, &opts.limits)?;
    if parsed.header_len >= chunk_size {
        // A header spanning chunks is not supported (production rejects
        // such pathological files too).
        return Err(LeptonError::Jpeg(JpegError::UnsupportedScan));
    }
    let mcus = parsed.frame.mcu_count() as u32;

    // Charge the block buffer plus the per-MCU snapshot table this mode
    // keeps (chunk boundaries resolve to MCU indices by byte offset, so
    // the table is frame-sized, not segment-sized).
    let meter = opts.budget.encode_meter();
    meter.charge(block_bytes(&parsed))?;
    meter.charge((mcus as usize + 1).saturating_mul(std::mem::size_of::<Handover>()))?;

    // Decode the whole scan, snapshotting every MCU so chunk boundaries
    // can be resolved to MCU indices by byte offset.
    let bpm = parsed.blocks_per_mcu();
    let mut blocks = engine.checkout_blocks(mcus as usize * bpm);
    let mut snapshots = Vec::with_capacity(mcus as usize + 1);
    let mut dec = ScanDecoder::new(jpeg, &parsed)?;
    for mcu_blocks in blocks.chunks_exact_mut(bpm) {
        snapshots.push(dec.handover());
        dec.decode_to(dec.mcu() + 1, mcu_blocks)?;
    }
    snapshots.push(dec.handover());
    let end = dec.finish()?;

    let n_chunks = jpeg.len().div_ceil(chunk_size).max(1);
    let mut out = Vec::with_capacity(n_chunks);
    for k in 0..n_chunks {
        let byte_start = k * chunk_size;
        let byte_end = ((k + 1) * chunk_size).min(jpeg.len());
        let final_chunk = k == n_chunks - 1;

        // First MCU whose coding starts at byte >= byte_start.
        let m_start = snapshots.partition_point(|h| h.byte_offset < byte_start) as u32;
        let m_end = snapshots.partition_point(|h| h.byte_offset < byte_end) as u32;
        let (m_start, m_end) = (m_start.min(mcus), m_end.min(mcus));

        let nseg = opts
            .threads
            .segments(byte_end - byte_start, (m_end - m_start).max(1));
        let bounds = segment_bounds(&parsed, m_start, m_end, nseg);
        let handovers: Vec<Handover> = bounds.iter().map(|&m| snapshots[m as usize]).collect();

        let (bytes, _, _) = build_container(
            engine,
            jpeg,
            &parsed,
            &blocks,
            &ChunkSpec {
                byte_start,
                byte_end,
                emit_header: k == 0,
                bounds: &bounds,
                handovers: &handovers,
                final_chunk,
                scan_end: end.scan_end,
                pad: end.pad,
                rst_count: end.rst_count,
            },
            opts,
            &meter,
        )?;
        if opts.verify {
            let round = crate::decoder::decompress_on(
                engine,
                &bytes,
                &crate::decoder::DecompressOptions {
                    model: opts.model,
                    budget: opts.budget,
                },
            )?;
            if round != jpeg[byte_start..byte_end] {
                return Err(LeptonError::RoundtripFailed);
            }
        }
        out.push(bytes);
    }
    engine.checkin_blocks(blocks);
    Ok(out)
}

/// Segment boundaries: `nseg+1` MCU indices in `[from, to]`, equally
/// split and snapped to MCU-row starts where possible (paper: "Thread
/// Segment Vertical Range").
fn segment_bounds(parsed: &ParsedJpeg, from: u32, to: u32, nseg: u32) -> Vec<u32> {
    let mcus_x = parsed.frame.mcus_x as u32;
    let span = to - from;
    let nseg = nseg.min(span.max(1));
    let mut bounds = Vec::with_capacity(nseg as usize + 1);
    bounds.push(from);
    for i in 1..nseg {
        let raw = from + span * i / nseg;
        // Snap up to the next row start if that stays in range.
        let snapped = raw.div_ceil(mcus_x) * mcus_x;
        let b = if snapped > from && snapped < to {
            snapped
        } else {
            raw
        };
        let b = b.clamp(from, to);
        if *bounds.last().expect("nonempty") < b {
            bounds.push(b);
        }
    }
    if *bounds.last().expect("nonempty") != to {
        bounds.push(to);
    }
    bounds
}

struct ChunkSpec<'a> {
    byte_start: usize,
    byte_end: usize,
    emit_header: bool,
    /// Segment boundary MCUs (len = nseg + 1).
    bounds: &'a [u32],
    /// Handover at each boundary (len = nseg + 1).
    handovers: &'a [Handover],
    final_chunk: bool,
    scan_end: usize,
    pad: PadState,
    rst_count: u32,
}

/// Outcome of one segment-encoding job.
type SegmentResult = Result<(Vec<u8>, CategoryBytes), LeptonError>;

/// Arithmetic-encode the thread segment of MCUs `[start, end)`, whose
/// coding-order blocks are `blocks`, using the executor's arena: the
/// model pair is reset (not reallocated) and the output stream is built
/// in the arena's resident buffer, with only an exact-size copy escaping
/// the job.
#[allow(clippy::too_many_arguments)]
fn encode_segment_job(
    scratch: &mut Scratch,
    blocks: &[CoefBlock],
    parsed: &ParsedJpeg,
    start: u32,
    end: u32,
    model_cfg: ModelConfig,
    slot: &mut Option<SegmentResult>,
    meter: &JobMeter,
) {
    // This segment's share of the working set: a model pair (the
    // figure `decode_working_set` plans with — arenas are pooled but
    // still resident for the job's duration).
    if let Err(e) = meter.charge(crate::security::model_pair_bytes()) {
        *slot = Some(Err(e));
        return;
    }
    let enc = BoolEncoder::with_buffer(std::mem::take(&mut scratch.arith_buf));
    let (models, rings) = scratch.walk_arenas(model_cfg);
    let mut op = SegEncoder {
        blocks: blocks.iter(),
        enc,
        models,
    };
    let r = walk_segment(parsed, start, end, rings, &mut op);
    let mut cat = op.models[0].stats();
    cat.add(&op.models[1].stats());
    let SegEncoder { enc, .. } = op; // release the arena borrow
    let stream = enc.finish();
    // The produced arithmetic stream escapes the job (it is copied into
    // the container), so it counts too.
    let charged = meter.charge(stream.len());
    *slot = Some(match (r, charged) {
        (Err(e), _) | (Ok(()), Err(e)) => Err(e),
        (Ok(()), Ok(())) => Ok((stream.clone(), cat)),
    });
    scratch.arith_buf = stream; // hand the capacity back to the arena
}

/// Encode all segments of one chunk from the file's coding-order
/// `blocks` (each segment reads its own slice) and assemble the chunk's
/// container. Returns (container bytes, model output attribution,
/// header blob size).
fn build_container(
    engine: &Engine,
    jpeg: &[u8],
    parsed: &ParsedJpeg,
    blocks: &[CoefBlock],
    spec: &ChunkSpec<'_>,
    opts: &CompressOptions,
    meter: &JobMeter,
) -> Result<(Vec<u8>, CategoryBytes, usize), LeptonError> {
    let nseg = spec.bounds.len() - 1;
    let bpm = parsed.blocks_per_mcu();
    let model_cfg = opts.model;
    let mut results: Vec<Option<SegmentResult>> = (0..nseg).map(|_| None).collect();
    let slots = results.iter_mut();
    engine.scope(|batch| {
        for (i, slot) in slots.enumerate() {
            let (start, end) = (spec.bounds[i], spec.bounds[i + 1]);
            let seg = &blocks[start as usize * bpm..end as usize * bpm];
            dispatch(engine, batch, nseg, move |scratch| {
                encode_segment_job(scratch, seg, parsed, start, end, model_cfg, slot, meter);
            });
        }
        batch.participate();
    });

    let (streams, cat_total) = collect_segment_results(results)?;
    assemble_container(jpeg, parsed, spec, streams, cat_total)
}

/// Drain per-segment result slots into FIFO stream order, surfacing the
/// first segment error.
fn collect_segment_results(
    results: Vec<Option<SegmentResult>>,
) -> Result<(Vec<Vec<u8>>, CategoryBytes), LeptonError> {
    let mut streams = Vec::with_capacity(results.len());
    let mut cat_total = CategoryBytes::default();
    for slot in results {
        let (stream, cat) = slot.expect("filled")?;
        cat_total.add(&cat);
        streams.push(stream);
    }
    Ok((streams, cat_total))
}

/// Assemble one chunk's container from already-encoded segment streams.
/// Streams arrive in segment (FIFO) order, which is what keeps the
/// container byte-identical no matter how the segment jobs were
/// scheduled — batched up front or pipelined behind the scan decode.
fn assemble_container(
    jpeg: &[u8],
    parsed: &ParsedJpeg,
    spec: &ChunkSpec<'_>,
    streams: Vec<Vec<u8>>,
    cat_total: CategoryBytes,
) -> Result<(Vec<u8>, CategoryBytes, usize), LeptonError> {
    let nseg = spec.bounds.len() - 1;
    debug_assert_eq!(spec.handovers.len(), spec.bounds.len());
    debug_assert_eq!(streams.len(), nseg);

    // Byte-range bookkeeping.
    let first_mcu_byte = spec.handovers[0].byte_offset.max(spec.byte_start);
    let scan_part_end = spec.scan_end.clamp(spec.byte_start, spec.byte_end);

    // Covered-by-segments region: [handover[0].byte_offset,
    // handover[last].byte_offset) — or up to scan_end for final chunks.
    let prepend = if spec.bounds[0] == spec.bounds[nseg] {
        // No MCUs in this chunk: everything before the scan tail is
        // verbatim prefix.
        jpeg[spec.byte_start..scan_part_end.max(spec.byte_start)].to_vec()
    } else {
        jpeg[spec.byte_start..first_mcu_byte].to_vec()
    };
    let prepend = if spec.emit_header {
        // The header is emitted separately; strip it from the prefix.
        prepend[parsed
            .header_len
            .saturating_sub(spec.byte_start)
            .min(prepend.len())..]
            .to_vec()
    } else {
        prepend
    };

    // Trailing bytes: for the final chunk, everything after the scan.
    let append = if scan_part_end < spec.byte_end {
        jpeg[scan_part_end..spec.byte_end].to_vec()
    } else {
        Vec::new()
    };

    // Per-segment output byte counts.
    let mut segments = Vec::with_capacity(nseg);
    for i in 0..nseg {
        let seg_start_byte = spec.handovers[i].byte_offset;
        let out_bytes = if i + 1 < nseg {
            (spec.handovers[i + 1].byte_offset - seg_start_byte) as u64
        } else {
            // Last segment: up to the chunk end (non-final chunks
            // truncate; final chunks run to the scan end).
            let end = if spec.final_chunk {
                scan_part_end
            } else {
                spec.byte_end
            };
            end.saturating_sub(seg_start_byte) as u64
        };
        segments.push(SegmentInfo {
            mcu_start: spec.bounds[i],
            mcu_end: spec.bounds[i + 1],
            out_bytes,
            arith_bytes: streams[i].len() as u64,
            handover: SerializedHandover::from_handover(&spec.handovers[i]),
        });
    }

    let header = ContainerHeader {
        emit_header: spec.emit_header,
        jpeg_header: jpeg[..parsed.header_len].to_vec(),
        output_size: (spec.byte_end - spec.byte_start) as u32,
        pad_bit: match spec.pad {
            PadState::Seen(true) => 1,
            PadState::Seen(false) => 0,
            _ => 2,
        },
        rst_count: spec.rst_count,
        prepend,
        append,
        segments,
    };
    let blob_len = header.serialize_blob().len();
    let bytes = write_container(&header, &streams);
    Ok((bytes, cat_total, blob_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_policy_cutoffs() {
        let p = ThreadPolicy::Auto;
        assert_eq!(p.segments(10 << 10, 1000), 1);
        assert_eq!(p.segments(256 << 10, 1000), 2);
        assert_eq!(p.segments(1 << 20, 1000), 4);
        assert_eq!(p.segments(4 << 20, 1000), 8);
        // Capped by MCU count.
        assert_eq!(p.segments(4 << 20, 3), 3);
        assert_eq!(ThreadPolicy::Fixed(5).segments(1, 1000), 5);
        assert_eq!(ThreadPolicy::Fixed(0).segments(1, 1000), 1);
    }
}
