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
//! model arenas (reset, not reallocated, between jobs). The segment
//! job is generic over its byte source and its sink, so the encoder's
//! admission verify runs this same loop on a stream still being
//! written, into a sink that compares instead of storing. The
//! single-segment case — most small files — runs inline on the calling
//! thread and pushes bytes straight into the sink: no queue handoff, no
//! channel, and streaming latency identical to the multithreaded path.

use crate::driver::{walk_segment, BlockOp};
use crate::engine::{Engine, Scratch};
use crate::error::LeptonError;
use crate::format::{packets, read_container, Container, ContainerHeader, SegmentInfo};
use crate::security::{JobMeter, ResourceBudget};
use lepton_arith::{BoolDecoder, ByteSource, VecSource};
use lepton_jpeg::bitio::ScanWriter;
use lepton_jpeg::parser::{parse_with_limits, ParseLimits, ParsedJpeg};
use lepton_jpeg::scan::ScanEncoders;
use lepton_model::context::{BlockNeighbors, CodedBlock};
use lepton_model::{ComponentModel, ModelConfig};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;

/// Drain threshold: how many completed bytes accumulate before a chunk
/// is forwarded to the output channel.
const DRAIN_BYTES: usize = 32 << 10;

/// Drain threshold for a segment's *first* fragment: the first decoded
/// rows leave as soon as this much is pending, so time to first byte is
/// a few MCU rows rather than a [`DRAIN_BYTES`] batch.
const FIRST_DRAIN_BYTES: usize = 4 << 10;

/// Where a decode's output goes, in file order, while later thread
/// segments are still decoding.
pub trait DecodeSink {
    /// Called once, after every check that can refuse the container
    /// without producing output (container and header parse, budget
    /// charges, segment-table reconciliation, arithmetic-section
    /// demux) and before the first [`write`](DecodeSink::write): the
    /// decode will produce exactly `output_size` bytes or fail.
    fn begin(&mut self, output_size: usize) -> io::Result<()> {
        let _ = output_size;
        Ok(())
    }

    /// The next fragment of the output. An error cancels the decode:
    /// segment walks stop at their next MCU, unstarted segment jobs are
    /// skipped, and the call returns [`DecodeError::Sink`].
    fn write(&mut self, bytes: &[u8]) -> io::Result<()>;
}

/// Collects the output; `begin` sizes the buffer from the validated
/// (budget-charged) length, so nothing is allocated for a container
/// that is refused.
impl DecodeSink for Vec<u8> {
    fn begin(&mut self, output_size: usize) -> io::Result<()> {
        self.reserve(output_size);
        Ok(())
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.extend_from_slice(bytes);
        Ok(())
    }
}

/// The infallible closure sink of [`decompress_streaming`].
struct FnSink<'s>(&'s mut dyn FnMut(&[u8]));

impl DecodeSink for FnSink<'_> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        (self.0)(bytes);
        Ok(())
    }
}

/// Why [`decompress_into`] stopped.
#[derive(Debug)]
pub enum DecodeError {
    /// The container was refused or failed to decode.
    Codec(LeptonError),
    /// The sink refused a fragment and the decode was cancelled.
    Sink(io::Error),
}

impl From<LeptonError> for DecodeError {
    fn from(e: LeptonError) -> Self {
        DecodeError::Codec(e)
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Codec(e) => e.fmt(f),
            DecodeError::Sink(e) => write!(f, "output sink refused: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Where one segment's produced bytes go. Pooled segments send through
/// an *unbounded* channel to the in-order drain — a producer job must
/// never block holding a shared pool worker (a stalled consumer would
/// then starve unrelated codec calls), so buffering is bounded by the
/// in-flight file's output instead of a channel cap. The inline
/// single-segment path writes straight into the caller's sink, and the
/// encoder's admission verify compares against its input.
pub(crate) trait SegSink {
    /// Forward `bytes`; an error means the consumer refused them and
    /// the walk must stop.
    fn send(&mut self, bytes: Vec<u8>) -> io::Result<()>;

    /// Has the consumer refused a fragment of *another* segment since
    /// the last `send`? Polled once per MCU.
    fn cancelled(&self) -> bool;
}

/// Pooled path: fragments queue for the in-order drain, which raises
/// `cancel` when the caller's sink refuses one.
struct PoolSink<'a> {
    tx: Sender<Vec<u8>>,
    cancel: &'a AtomicBool,
}

fn consumer_gone() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "decode cancelled")
}

impl SegSink for PoolSink<'_> {
    fn send(&mut self, bytes: Vec<u8>) -> io::Result<()> {
        self.tx.send(bytes).map_err(|_| consumer_gone())
    }

    fn cancelled(&self) -> bool {
        // Publishes nothing: the flag only tells the walk to stop.
        self.cancel.load(Ordering::Relaxed)
    }
}

/// Inline path: no channel, no buffering beyond the scan writer, and a
/// refusal comes straight back from `send`.
struct DirectSink<'s> {
    sink: &'s mut dyn DecodeSink,
}

impl SegSink for DirectSink<'_> {
    fn send(&mut self, bytes: Vec<u8>) -> io::Result<()> {
        self.sink.write(&bytes)
    }

    fn cancelled(&self) -> bool {
        false
    }
}

/// Decode one thread segment: model-decode each block and Huffman-encode
/// it into the resumable scan writer, draining output incrementally.
/// The model pair is borrowed from the executing worker's arena.
struct SegDecoder<'a, S: ByteSource, T: SegSink> {
    parsed: &'a ParsedJpeg,
    /// Per-component Huffman encoders, resolved once per container
    /// (not per segment job) and shared by every segment.
    huff: &'a ScanEncoders<'a>,
    dec: BoolDecoder<S>,
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
}

impl<S: ByteSource, T: SegSink> SegDecoder<'_, S, T> {
    /// Forward the writer's completed bytes once enough are pending
    /// (`force`: whatever is pending). A refusal — of this fragment, or
    /// of another segment's — is the error that stops the walk.
    fn drain(&mut self, force: bool) -> Result<(), DecodeError> {
        if self.tx.cancelled() {
            return Err(DecodeError::Sink(consumer_gone()));
        }
        let threshold = if self.sent == 0 {
            FIRST_DRAIN_BYTES
        } else {
            DRAIN_BYTES
        };
        if !force && self.writer.pending_len() < threshold {
            return Ok(());
        }
        let mut bytes = self.writer.take_bytes();
        if self.sent + bytes.len() > self.budget {
            bytes.truncate(self.budget - self.sent);
        }
        if bytes.is_empty() {
            return Ok(());
        }
        self.sent += bytes.len();
        self.tx.send(bytes).map_err(DecodeError::Sink)
    }
}

impl<S: ByteSource, T: SegSink> BlockOp for SegDecoder<'_, S, T> {
    type Error = DecodeError;

    fn mcu_start(&mut self, mcu: u32) -> Result<(), DecodeError> {
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
    ) -> Result<(), DecodeError> {
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
            .map_err(|e| LeptonError::Jpeg(e).into())
    }

    fn mcu_end(&mut self, _mcu: u32) -> Result<(), DecodeError> {
        self.drain(false)
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

/// Streaming decompression: `sink` receives output fragments strictly in
/// file order, starting before the whole container is decoded.
pub fn decompress_streaming(
    data: &[u8],
    opts: &DecompressOptions,
    sink: &mut dyn FnMut(&[u8]),
) -> Result<(), LeptonError> {
    decompress_streaming_on(Engine::global(), data, opts, sink)
}

/// The decode entry every other one adapts: `sink` is told the output
/// size once the container has passed every pre-output check, then
/// receives the output in file order as segments decode, and may refuse
/// a fragment to cancel the rest (see [`DecodeSink`]).
pub fn decompress_into(
    data: &[u8],
    opts: &DecompressOptions,
    sink: &mut dyn DecodeSink,
) -> Result<(), DecodeError> {
    decompress_into_on(Engine::global(), data, opts, sink)
}

/// A sink that cannot refuse leaves only the codec's own errors.
fn never_refused(r: Result<(), DecodeError>) -> Result<(), LeptonError> {
    r.map_err(|e| match e {
        DecodeError::Codec(e) => e,
        DecodeError::Sink(_) => LeptonError::Internal("infallible sink refused"),
    })
}

/// Whole-buffer adapter, shared by the free functions and
/// [`Engine::decompress`].
pub(crate) fn decompress_on(
    engine: &Engine,
    data: &[u8],
    opts: &DecompressOptions,
) -> Result<Vec<u8>, LeptonError> {
    let mut out = Vec::new();
    never_refused(decompress_into_on(engine, data, opts, &mut out))?;
    Ok(out)
}

/// Closure-sink adapter behind [`decompress_streaming`].
pub(crate) fn decompress_streaming_on(
    engine: &Engine,
    data: &[u8],
    opts: &DecompressOptions,
    sink: &mut dyn FnMut(&[u8]),
) -> Result<(), LeptonError> {
    never_refused(decompress_into_on(engine, data, opts, &mut FnSink(sink)))
}

/// Counts what the caller's sink accepted (for the job trace) and drops
/// the empty fragments an absent prepend/append would otherwise be.
struct Counted<'s> {
    sink: &'s mut dyn DecodeSink,
    produced: u64,
}

impl DecodeSink for Counted<'_> {
    fn begin(&mut self, output_size: usize) -> io::Result<()> {
        self.sink.begin(output_size)
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.sink.write(bytes)?;
        self.produced += bytes.len() as u64;
        Ok(())
    }
}

/// Engine-backed [`decompress_into`].
pub(crate) fn decompress_into_on(
    engine: &Engine,
    data: &[u8],
    opts: &DecompressOptions,
    sink: &mut dyn DecodeSink,
) -> Result<(), DecodeError> {
    // Stage trace for the whole decode; disarms under an outer span
    // (e.g. a blockstore read already being traced), whose stages the
    // marks below then feed.
    let span = lepton_obs::span_enter("decompress");
    let mut sink = Counted { sink, produced: 0 };
    let r = decompress_traced(engine, data, opts, &mut sink);
    let outcome = match &r {
        Ok(()) => "ok",
        Err(DecodeError::Codec(e)) => crate::error::ExitCode::classify(e).label(),
        Err(DecodeError::Sink(_)) => "cancelled",
    };
    span.finish(outcome, data.len() as u64, sink.produced);
    r
}

/// Every check that refuses a container *before* any output exists:
/// budget charges for what the header declares, the JPEG header parse,
/// and the segment table's agreement with the image and with the
/// declared total. Returns the parsed header and the job's open meter.
pub(crate) fn admit(
    header: &ContainerHeader,
    opts: &DecompressOptions,
) -> Result<(ParsedJpeg, JobMeter), LeptonError> {
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
    Ok((parsed, meter))
}

/// Split the interleaved arithmetic section into per-segment streams,
/// charged to the job's meter.
pub(crate) fn demux(
    container: &Container<'_>,
    meter: &JobMeter,
) -> Result<Vec<Vec<u8>>, LeptonError> {
    // The per-segment `arith_bytes` fields are attacker-declared u64s
    // feeding `Vec::with_capacity`: charge the meter with the declared
    // total *before* allocating, so a length-field lie aborts with a
    // typed budget error instead of an allocation.
    let header = &container.header;
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
    Ok(streams)
}

fn decompress_traced(
    engine: &Engine,
    data: &[u8],
    opts: &DecompressOptions,
    sink: &mut dyn DecodeSink,
) -> Result<(), DecodeError> {
    let container = read_container(data)?;
    let header = &container.header;
    let (parsed, meter) = admit(header, opts)?;
    lepton_obs::mark_stage("container_parse");
    let streams = demux(&container, &meter)?;

    // Everything above refuses without output; from here on the sink
    // is owed exactly `output_size` bytes.
    sink.begin(header.output_size as usize)
        .map_err(DecodeError::Sink)?;
    let mut produced = 0usize;
    if header.emit_header {
        produced += header.jpeg_header.len();
        sink.write(&header.jpeg_header).map_err(DecodeError::Sink)?;
    }
    produced += header.prepend.len();
    sink.write(&header.prepend).map_err(DecodeError::Sink)?;

    produced += decode_segments(engine, &parsed, header, streams, opts, sink, &meter)?;
    // Covers the overlapped arithmetic decode + Huffman re-encode
    // drain (they pipeline; wall time is not separable per sub-stage).
    lepton_obs::mark_stage("arith_decode");

    produced += header.append.len();
    sink.write(&header.append).map_err(DecodeError::Sink)?;
    if produced != header.output_size as usize {
        return Err(LeptonError::CorruptContainer("output size mismatch").into());
    }
    Ok(())
}

/// Decode one segment with the executor's arena from the arithmetic
/// stream `src` — a demuxed buffer, or (admission verify) a stream its
/// encoder is still writing — forwarding produced bytes through `tx`.
/// Returns the bytes sent.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decode_segment_job<S: ByteSource, T: SegSink>(
    scratch: &mut Scratch,
    parsed: &ParsedJpeg,
    huff: &ScanEncoders<'_>,
    header: &ContainerHeader,
    seg: &SegmentInfo,
    src: S,
    model_cfg: ModelConfig,
    tx: T,
    meter: &JobMeter,
) -> Result<usize, DecodeError> {
    // Queued behind a refusal: nobody wants this segment.
    if tx.cancelled() {
        return Err(DecodeError::Sink(consumer_gone()));
    }
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
        dec: BoolDecoder::new(src),
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
    };
    walk_segment(parsed, seg.mcu_start, seg.mcu_end, rings, &mut op)?;
    // Final flush with padding; truncation caps the tail
    // spill-over of non-final chunks.
    op.writer.align(pad_bit);
    op.drain(true)?;
    if op.sent != op.budget {
        return Err(LeptonError::CorruptContainer("segment produced wrong byte count").into());
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
    sink: &mut dyn DecodeSink,
    meter: &JobMeter,
) -> Result<usize, DecodeError> {
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
                VecSource::new(stream),
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
    let cancel = AtomicBool::new(false);
    let mut results: Vec<Option<Result<usize, DecodeError>>> = (0..nseg).map(|_| None).collect();
    let slots = results.iter_mut();
    let (huff, cancel) = (&huff, &cancel);
    let (forwarded, refused) = engine.scope(|batch| {
        let mut receivers = Vec::with_capacity(nseg);
        for ((stream, seg), slot) in streams.into_iter().zip(&header.segments).zip(slots) {
            let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
            receivers.push(rx);
            batch.push(Box::new(move |scratch: &mut Scratch| {
                let tx = PoolSink { tx, cancel };
                let src = VecSource::new(stream);
                *slot = Some(decode_segment_job(
                    scratch, parsed, huff, header, seg, src, model_cfg, tx, meter,
                ));
            }));
        }

        let mut forwarded = 0usize;
        let mut refused = None;
        'drain: for (rx, seg) in receivers.into_iter().zip(&header.segments) {
            let before = forwarded;
            for chunk in rx {
                if let Err(e) = sink.write(&chunk) {
                    refused = Some(e);
                    break 'drain;
                }
                forwarded += chunk.len();
            }
            // A short segment means its job failed (the error is in its
            // result slot): what follows it would land at wrong offsets.
            if (forwarded - before) as u64 != seg.out_bytes {
                break 'drain;
            }
        }
        // Either everything was forwarded and the jobs are done, or the
        // rest is unwanted: running walks stop at their next MCU and
        // queued jobs return on entry, so the scope's wait is prompt.
        cancel.store(true, Ordering::Relaxed);
        (forwarded, refused)
    });
    if let Some(e) = refused {
        return Err(DecodeError::Sink(e));
    }
    for slot in results {
        slot.expect("filled")?;
    }
    Ok(forwarded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lepton_jpeg::encoder::{encode_jpeg, EncodeOptions, Image, PixelData};
    use std::cell::Cell;

    /// A consumer that takes one fragment and is then gone. `cancelled`
    /// is polled once per MCU, so its call count is how far a walk got.
    struct GoneAfterOne {
        taken: usize,
        polls: Cell<u32>,
    }

    impl SegSink for &mut GoneAfterOne {
        fn send(&mut self, bytes: Vec<u8>) -> io::Result<()> {
            assert_eq!(self.taken, 0, "sent to a consumer that had gone");
            self.taken = bytes.len();
            Ok(())
        }

        fn cancelled(&self) -> bool {
            self.polls.set(self.polls.get() + 1);
            self.taken > 0
        }
    }

    /// The pooled path's cancel signal stops a running walk at its next
    /// MCU — it does not decode the rest of its segment for nobody —
    /// and a job that starts after the signal does no work at all.
    #[test]
    fn cancel_stops_a_walk_at_the_next_mcu() {
        let (w, h) = (512, 384);
        let pixels = (0..w * h * 3).map(|i| (i * 2654435761) as u8).collect();
        let img = Image {
            width: w,
            height: h,
            data: PixelData::Rgb(pixels),
        };
        let jpeg = encode_jpeg(&img, &EncodeOptions::default()).unwrap();
        let opts = crate::CompressOptions {
            threads: crate::ThreadPolicy::Fixed(1),
            ..Default::default()
        };
        let lep = crate::compress(&jpeg, &opts).unwrap();

        let container = read_container(&lep).unwrap();
        let header = &container.header;
        let (parsed, meter) = admit(header, &DecompressOptions::default()).unwrap();
        let huff = ScanEncoders::resolve(&parsed).unwrap();
        let seg = &header.segments[0];
        let mcus = seg.mcu_end - seg.mcu_start;
        let mut scratch = Scratch::default();
        let mut run = |consumer: &mut GoneAfterOne| {
            let stream = VecSource::new(demux(&container, &meter).unwrap().remove(0));
            let cfg = ModelConfig::default();
            decode_segment_job(
                &mut scratch,
                &parsed,
                &huff,
                header,
                seg,
                stream,
                cfg,
                consumer,
                &meter,
            )
        };

        let mut consumer = GoneAfterOne {
            taken: 0,
            polls: Cell::new(0),
        };
        assert!(matches!(run(&mut consumer), Err(DecodeError::Sink(_))));
        assert!(consumer.taken >= FIRST_DRAIN_BYTES);
        assert!((seg.out_bytes as usize) > 8 * consumer.taken);
        // One poll on entry, one per MCU walked: the walk stopped at
        // the MCU after the one that filled the first fragment.
        let walked = consumer.polls.get() - 1;
        assert!(
            walked < mcus / 4,
            "cancelled walk decoded {walked} of {mcus} MCUs"
        );

        // Already gone when the job starts: not one MCU.
        consumer.polls.set(0);
        assert!(matches!(run(&mut consumer), Err(DecodeError::Sink(_))));
        assert_eq!(consumer.polls.get(), 1);
    }
}
