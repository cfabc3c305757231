//! Lepton → JPEG decompression: multithreaded, streaming, chunk-
//! independent.
//!
//! Each thread segment runs the full §3.4 pipeline concurrently:
//! arithmetic-decode a block with the model, immediately Huffman-encode
//! it into that segment's output stream (resumed mid-byte from the
//! segment's Huffman handover word). Segment outputs are forwarded to
//! the caller's sink in order as they are produced, so the first bytes
//! of the file leave the decoder long before the last segment finishes
//! (time-to-first-byte, §1).
//!
//! Segment jobs run on the pre-spawned [`Engine`] pool with per-worker
//! model arenas (reset, not reallocated, between jobs). The
//! single-segment case — most small files — runs inline on the calling
//! thread and pushes bytes straight into the sink: no queue handoff, no
//! channel, and streaming latency identical to the multithreaded path.

use crate::driver::{walk_segment, BlockOp};
use crate::engine::{Engine, EnvJob, Scratch};
use crate::error::LeptonError;
use crate::format::{packets, read_container, ContainerHeader, SegmentInfo};
use crate::security::{JobMeter, ResourceBudget};
use lepton_arith::{BoolDecoder, VecSource};
use lepton_jpeg::bitio::ScanWriter;
use lepton_jpeg::parser::{parse_with_limits, ParseLimits, ParsedJpeg};
use lepton_jpeg::scan::ScanEncoders;
use lepton_model::context::{BlockNeighbors, CodedBlock};
use lepton_model::{ComponentModel, ModelConfig};
use std::sync::mpsc::Sender;

/// Drain threshold: how many completed bytes accumulate before a chunk
/// is forwarded to the output channel.
const DRAIN_BYTES: usize = 32 << 10;

/// Where one segment's produced bytes go. Pooled segments send through
/// an *unbounded* channel to the in-order drain — a producer job must
/// never block holding a shared pool worker (a stalled consumer would
/// then starve unrelated codec calls), so buffering is bounded by the
/// in-flight file's output instead of a channel cap. The inline
/// single-segment path writes straight into the caller's sink.
trait SegSink {
    /// Forward `bytes`; `false` means the consumer is gone and the
    /// producer should finish quietly without sending more.
    fn send(&mut self, bytes: Vec<u8>) -> bool;
}

impl SegSink for Sender<Vec<u8>> {
    fn send(&mut self, bytes: Vec<u8>) -> bool {
        Sender::send(self, bytes).is_ok()
    }
}

/// Inline path: no channel, no buffering beyond the scan writer.
struct DirectSink<'s> {
    sink: &'s mut dyn FnMut(&[u8]),
}

impl SegSink for DirectSink<'_> {
    fn send(&mut self, bytes: Vec<u8>) -> bool {
        (self.sink)(&bytes);
        true
    }
}

/// Decode one thread segment: model-decode each block and Huffman-encode
/// it into the resumable scan writer, draining output incrementally.
/// The model pair is borrowed from the executing worker's arena.
struct SegDecoder<'a, T: SegSink> {
    parsed: &'a ParsedJpeg,
    /// Per-component Huffman encoders, resolved once per container
    /// (not per segment job) and shared by every segment.
    huff: &'a ScanEncoders<'a>,
    dec: BoolDecoder<VecSource>,
    models: &'a mut [ComponentModel; 2],
    writer: ScanWriter,
    prev_dc: [i16; 4],
    rst_emitted: u32,
    rst_limit: u32,
    pad_bit: bool,
    interval: u32,
    /// Output budget (exact bytes this segment owes).
    budget: usize,
    sent: usize,
    tx: T,
    /// Receiver disappeared; stop sending but finish quietly.
    receiver_gone: bool,
}

impl<T: SegSink> SegDecoder<'_, T> {
    fn drain(&mut self, force: bool) {
        if self.receiver_gone || (!force && self.writer.pending_len() < DRAIN_BYTES) {
            return;
        }
        let mut bytes = self.writer.take_bytes();
        if self.sent + bytes.len() > self.budget {
            bytes.truncate(self.budget - self.sent);
        }
        if bytes.is_empty() {
            return;
        }
        self.sent += bytes.len();
        if !self.tx.send(bytes) {
            self.receiver_gone = true;
        }
    }
}

impl<T: SegSink> BlockOp for SegDecoder<'_, T> {
    type Error = LeptonError;

    fn mcu_start(&mut self, mcu: u32) -> Result<(), LeptonError> {
        if self.interval > 0
            && mcu > 0
            && mcu.is_multiple_of(self.interval)
            && self.rst_emitted < self.rst_limit
        {
            self.writer.align(self.pad_bit);
            self.writer.write_rst((self.rst_emitted % 8) as u8);
            self.rst_emitted += 1;
            self.prev_dc = [0; 4];
        }
        Ok(())
    }

    fn block(
        &mut self,
        scan_idx: usize,
        class: usize,
        _bx: usize,
        _gy: usize,
        nbr: &BlockNeighbors<'_>,
        out: &mut CodedBlock,
    ) -> Result<(), LeptonError> {
        self.models[class].decode_block(&mut self.dec, nbr, out);
        let comp_index = self.parsed.scan.components[scan_idx].comp_index;
        self.huff
            .component(scan_idx)
            .encode_masked(
                &mut self.writer,
                &out.coefs,
                out.nz_mask,
                &mut self.prev_dc[comp_index],
            )
            .map_err(LeptonError::Jpeg)
    }

    fn mcu_end(&mut self, _mcu: u32) -> Result<(), LeptonError> {
        self.drain(false);
        Ok(())
    }
}

/// Decompression options.
#[derive(Clone, Copy, Debug, Default)]
pub struct DecompressOptions {
    /// Model configuration — must match the encoder's (the format does
    /// not negotiate this; like the paper, model changes are version
    /// bumps, see §6.7).
    pub model: ModelConfig,
    /// Memory budget the decode job is metered against (§4.2). Every
    /// sizable arena — output buffer, demuxed arithmetic streams, model
    /// pairs, driver row rings — charges a [`JobMeter`] opened on this
    /// budget; a breach returns [`crate::LeptonError::BudgetExceeded`] instead
    /// of allocating.
    pub budget: ResourceBudget,
}

/// Decompress a Lepton container into the exact original bytes of the
/// chunk it covers (on the shared [`Engine::global`] pool).
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, LeptonError> {
    decompress_on(Engine::global(), data, &DecompressOptions::default())
}

/// Decompress with explicit options.
pub fn decompress_opts(data: &[u8], opts: &DecompressOptions) -> Result<Vec<u8>, LeptonError> {
    decompress_on(Engine::global(), data, opts)
}

/// Engine-backed decompression, shared by the free functions and
/// [`Engine::decompress`].
pub(crate) fn decompress_on(
    engine: &Engine,
    data: &[u8],
    opts: &DecompressOptions,
) -> Result<Vec<u8>, LeptonError> {
    let container = read_container(data)?;
    // The declared output size is untrusted: cap the pre-allocation
    // hint at the budget. The real charge happens inside the streaming
    // decode (against the job meter) before any byte is produced.
    let hint = (container.header.output_size as usize).min(opts.budget.decode_bytes);
    let mut out = Vec::with_capacity(hint);
    decompress_streaming_on(engine, data, opts, &mut |bytes: &[u8]| {
        out.extend_from_slice(bytes)
    })?;
    Ok(out)
}

/// Streaming decompression: `sink` receives output fragments strictly in
/// file order, starting before the whole container is decoded.
pub fn decompress_streaming(
    data: &[u8],
    opts: &DecompressOptions,
    sink: &mut dyn FnMut(&[u8]),
) -> Result<(), LeptonError> {
    decompress_streaming_on(Engine::global(), data, opts, sink)
}

/// Engine-backed streaming decompression.
pub(crate) fn decompress_streaming_on(
    engine: &Engine,
    data: &[u8],
    opts: &DecompressOptions,
    sink: &mut dyn FnMut(&[u8]),
) -> Result<(), LeptonError> {
    // Stage trace for the whole decode; disarms under an outer span
    // (e.g. a blockstore read already being traced), whose stages the
    // marks below then feed.
    let span = lepton_obs::span_enter("decompress");
    let mut produced_total = 0u64;
    let r = decompress_streaming_traced(engine, data, opts, &mut |bytes: &[u8]| {
        produced_total += bytes.len() as u64;
        sink(bytes)
    });
    match &r {
        Ok(()) => span.finish("ok", data.len() as u64, produced_total),
        Err(e) => span.finish(
            crate::error::ExitCode::classify(e).label(),
            data.len() as u64,
            produced_total,
        ),
    }
    r
}

fn decompress_streaming_traced(
    engine: &Engine,
    data: &[u8],
    opts: &DecompressOptions,
    sink: &mut dyn FnMut(&[u8]),
) -> Result<(), LeptonError> {
    let container = read_container(data)?;
    let header = &container.header;

    // Open the job's meter. The container's declared output size and
    // the header blob parts (already decompressed by `read_container`
    // under its own hard caps) are the first charges: a container that
    // *claims* an output beyond the budget is refused here, before any
    // decode work or output allocation.
    let meter = opts.budget.decode_meter();
    meter.charge(header.output_size as usize)?;
    meter.charge(
        header
            .jpeg_header
            .len()
            .saturating_add(header.prepend.len())
            .saturating_add(header.append.len()),
    )?;

    // Tables and geometry come from the (possibly non-emitted) header.
    // The decoder streams row-by-row, so no plane-size budget applies.
    let parsed = parse_with_limits(
        &header.jpeg_header,
        &ParseLimits {
            max_coef_bytes: usize::MAX,
        },
    )?;
    if parsed.header_len != header.jpeg_header.len() {
        return Err(LeptonError::CorruptContainer("header length mismatch"));
    }
    for seg in &header.segments {
        if seg.mcu_end > parsed.frame.mcu_count() as u32 {
            return Err(LeptonError::CorruptContainer("segment beyond image"));
        }
    }

    // Reconcile the segment table with the declared total *before*
    // decoding. Per-segment `out_bytes` are attacker-declared and cap
    // each segment's emission; without this check a forged table could
    // emit (and the whole-buffer path accumulate) far more than the
    // `output_size` charged against the meter, with the mismatch only
    // caught after the fact. Honest containers always satisfy the
    // equality — it is exactly what the final `produced` check demands.
    let declared_out = if header.emit_header {
        header.jpeg_header.len()
    } else {
        0
    }
    .saturating_add(header.prepend.len())
    .saturating_add(header.append.len())
    .saturating_add(
        header
            .segments
            .iter()
            .map(|s| usize::try_from(s.out_bytes).unwrap_or(usize::MAX))
            .fold(0usize, usize::saturating_add),
    );
    if declared_out != header.output_size as usize {
        return Err(LeptonError::CorruptContainer(
            "segment output sizes disagree with declared total",
        ));
    }
    lepton_obs::mark_stage("container_parse");

    let mut produced = 0usize;
    if header.emit_header {
        produced += header.jpeg_header.len();
        sink(&header.jpeg_header);
    }
    produced += header.prepend.len();
    sink(&header.prepend);

    // Demux the interleaved arithmetic section. The per-segment
    // `arith_bytes` fields are attacker-declared u64s feeding
    // `Vec::with_capacity`: charge the meter with the declared total
    // *before* allocating, so a length-field lie aborts with a typed
    // budget error instead of an allocation.
    let nseg = header.segments.len();
    let declared: usize = header
        .segments
        .iter()
        .map(|s| usize::try_from(s.arith_bytes).unwrap_or(usize::MAX))
        .fold(0usize, usize::saturating_add);
    meter.charge(declared)?;
    let mut streams: Vec<Vec<u8>> = (0..nseg)
        .map(|i| Vec::with_capacity(header.segments[i].arith_bytes as usize))
        .collect();
    for p in packets(container.arith_section) {
        let (sid, payload) = p?;
        let sid = sid as usize;
        if sid >= nseg {
            return Err(LeptonError::CorruptContainer("packet for unknown segment"));
        }
        streams[sid].extend_from_slice(payload);
    }
    // Segments may ship more bytes than they declared (the declaration
    // sized the pre-allocation; the packets are bounded by the input
    // itself). Charge any excess so the running total stays honest.
    let actual: usize = streams.iter().map(Vec::len).sum();
    meter.charge(actual.saturating_sub(declared))?;

    produced += decode_segments(engine, &parsed, header, streams, opts, sink, &meter)?;
    // Covers the overlapped arithmetic decode + Huffman re-encode
    // drain (they pipeline; wall time is not separable per sub-stage).
    lepton_obs::mark_stage("arith_decode");

    produced += header.append.len();
    sink(&header.append);
    if produced != header.output_size as usize {
        return Err(LeptonError::CorruptContainer("output size mismatch"));
    }
    Ok(())
}

/// Decode one segment with the executor's arena, forwarding produced
/// bytes through `tx`. Returns the bytes sent.
#[allow(clippy::too_many_arguments)]
fn decode_segment_job<T: SegSink>(
    scratch: &mut Scratch,
    parsed: &ParsedJpeg,
    huff: &ScanEncoders<'_>,
    header: &ContainerHeader,
    seg: &SegmentInfo,
    stream: Vec<u8>,
    model_cfg: ModelConfig,
    tx: T,
    meter: &JobMeter,
) -> Result<usize, LeptonError> {
    // The per-segment arenas this job is about to touch: a model pair
    // (reset, not reallocated, but still part of the job's working set
    // — the figure `decode_working_set` plans with) and the walk's row
    // rings.
    meter.charge(crate::security::model_pair_bytes() + crate::driver::ring_bytes(parsed))?;
    let pad_bit = header.pad_bit != 0; // "unknown" defaults to 1s
    let handover = seg.handover.to_handover(seg.mcu_start);
    let (models, rings) = scratch.walk_arenas(model_cfg);
    let mut op = SegDecoder {
        parsed,
        huff,
        dec: BoolDecoder::new(VecSource::new(stream)),
        models,
        writer: ScanWriter::resume(handover.partial, handover.bits_used),
        prev_dc: handover.prev_dc,
        rst_emitted: handover.rst_so_far,
        rst_limit: header.rst_count,
        pad_bit,
        interval: parsed.restart_interval as u32,
        budget: seg.out_bytes as usize,
        sent: 0,
        tx,
        receiver_gone: false,
    };
    walk_segment(parsed, seg.mcu_start, seg.mcu_end, rings, &mut op)?;
    // Final flush with padding; truncation caps the tail
    // spill-over of non-final chunks.
    op.writer.align(pad_bit);
    op.drain(true);
    if !op.receiver_gone && op.sent != op.budget {
        return Err(LeptonError::CorruptContainer(
            "segment produced wrong byte count",
        ));
    }
    Ok(op.sent)
}

/// Run all segment decoders on the engine; forward their outputs to
/// `sink` in segment order. Returns bytes forwarded.
fn decode_segments(
    engine: &Engine,
    parsed: &ParsedJpeg,
    header: &ContainerHeader,
    streams: Vec<Vec<u8>>,
    opts: &DecompressOptions,
    sink: &mut dyn FnMut(&[u8]),
    meter: &JobMeter,
) -> Result<usize, LeptonError> {
    let nseg = header.segments.len();
    if nseg == 0 {
        return Ok(0);
    }
    let model_cfg = opts.model;
    // Huffman table refs resolve once per container; every segment job
    // shares them instead of rebuilding the per-component Vec.
    let huff = ScanEncoders::resolve(parsed).map_err(LeptonError::Jpeg)?;

    if nseg == 1 {
        // Inline fast path: decode on the calling thread with a pooled
        // arena, pushing bytes straight into the sink.
        let stream = streams.into_iter().next().expect("one segment");
        let seg = &header.segments[0];
        return engine.run_inline(|scratch| {
            decode_segment_job(
                scratch,
                parsed,
                &huff,
                header,
                seg,
                stream,
                model_cfg,
                DirectSink { sink },
                meter,
            )
        });
    }

    // Multi-segment: queue jobs to the pool and drain the channels in
    // segment order. Channels are unbounded so producer jobs finish
    // regardless of how fast the caller's sink consumes — a job
    // blocked on a send would sit on a shared global-engine worker and
    // starve unrelated codec calls. The engine still starts jobs in
    // submission (= segment) order, so the segment the drain waits on
    // is always running or finished and out-of-order buffering stays
    // within the in-flight output.
    let mut results: Vec<Option<Result<usize, LeptonError>>> = (0..nseg).map(|_| None).collect();
    let mut receivers = Vec::with_capacity(nseg);
    let mut jobs: Vec<EnvJob<'_>> = Vec::with_capacity(nseg);
    for ((i, stream), slot) in streams.into_iter().enumerate().zip(results.iter_mut()) {
        let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
        receivers.push(rx);
        let seg: &SegmentInfo = &header.segments[i];
        let huff = &huff;
        jobs.push(Box::new(move |scratch: &mut Scratch| {
            *slot = Some(decode_segment_job(
                scratch, parsed, huff, header, seg, stream, model_cfg, tx, meter,
            ));
        }));
    }

    let guard = engine.submit(jobs);
    let mut forwarded = 0usize;
    for rx in receivers {
        for chunk in rx {
            forwarded += chunk.len();
            sink(&chunk);
        }
    }
    guard.join();
    for slot in results {
        slot.expect("filled")?;
    }
    Ok(forwarded)
}
