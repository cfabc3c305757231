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
//! **Admission verify (§5.7), streamed.** A container is returned only
//! once it is proven to decode to its input, and the proof costs no
//! second serial pass. Once the scan is decoded the container header is
//! built — every field but the stream lengths, which no decode step
//! reads — and admitted by the decoder's own `admit`, which opens the
//! decode meter. One verify job per segment is then queued behind that
//! segment's encode job. The encode job publishes its settled
//! arithmetic bytes ([`BoolEncoder::settled`]) as it goes; the verify
//! job runs the decoder's segment loop on them while they are being
//! written and compares every decoded fragment with the input at the
//! segment's offset, holding no output. After assembly a composition
//! check runs the decoder's pre-output path on the stored bytes: the
//! header must equal the one the verify jobs decoded with, every
//! demuxed stream the bytes its verify job read, and the verbatim parts
//! the input. So `decompress` of the stored container replays exactly
//! the decodes that were checked.
//!
//! Parallelism and scratch memory come from the pre-spawned
//! [`Engine`](crate::Engine) pool (§5.1): segment jobs are queued to
//! resident workers whose model arenas and output buffers are reset —
//! not reallocated — between jobs, and the block buffer comes from the
//! engine's pool. A single-segment file is encoded inline on the
//! calling thread after its verify job is queued, so an idle worker
//! verifies while the caller encodes. There is one dispatch shape, the
//! whole-file driver: any segment count, each encode job pushed the
//! moment its slice is final. The decoder still reads the chunk
//! containers the format admits (a byte range of a file, header
//! skipped); this build writes none.

use crate::decoder::{admit, decode_segment_job, demux, DecodeError, DecompressOptions, SegSink};
use crate::driver::{walk_segment, BlockOp};
use crate::engine::{BatchGuard, Engine, Scratch};
use crate::error::LeptonError;
use crate::format::{
    read_container, write_container, ContainerHeader, SegmentInfo, SerializedHandover,
};
use crate::security::{JobMeter, ResourceBudget};
use lepton_arith::{BoolEncoder, ByteSource};
use lepton_jpeg::bitio::PadState;
use lepton_jpeg::parser::{parse, ParsedJpeg};
use lepton_jpeg::scan::{Handover, ScanDecoder, ScanEnd, ScanStats};
use lepton_jpeg::{CoefBlock, JpegError};
use lepton_model::component::CategoryBytes;
use lepton_model::context::{BlockNeighbors, CodedBlock};
use lepton_model::ComponentModel;
use std::cell::OnceCell;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

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
    /// Prove the container decodes back to the input before returning
    /// it (production always does; §5.7 "blockservers never admit chunks
    /// that fail to round-trip"). The proof is the decoder's own segment
    /// loop, run on each segment's stream while it is encoded, plus a
    /// check that the stored bytes carry exactly what was decoded; a
    /// failure is [`LeptonError::RoundtripFailed`] (or the decode's own
    /// error), never a returned container.
    pub verify: bool,
    /// Memory budgets the job is metered against: the encode side
    /// (§6.2, coefficient blocks + per-segment models + arithmetic
    /// streams) for compression itself, and the decode side (§4.2) for
    /// the verification decode — so a file that could not be *served*
    /// within budget is already refused at admission. Parsing applies
    /// its own fixed 178 MiB coefficient cap first
    /// ([`JpegError::TooLarge`]), whatever the budget.
    pub budget: ResourceBudget,
}

impl Default for CompressOptions {
    fn default() -> Self {
        CompressOptions {
            threads: ThreadPolicy::Auto,
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
struct SegEncoder<'a, 's> {
    blocks: std::slice::Iter<'a, CoefBlock>,
    enc: BoolEncoder,
    models: &'a mut [ComponentModel; 2],
    out: Publisher<'s>,
}

impl BlockOp for SegEncoder<'_, '_> {
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
        Ok(self.models[class].encode_block(&mut self.enc, block, nbr, out)?)
    }

    fn mcu_end(&mut self, _mcu: u32) -> Result<(), LeptonError> {
        self.out.offer(self.enc.settled());
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
    let parsed = parse(jpeg)?;
    lepton_obs::mark_stage("header_parse");
    if parsed.header_len > jpeg.len() {
        return Err(LeptonError::Jpeg(JpegError::Truncated));
    }
    let mcus = parsed.frame.mcu_count() as u32;
    let nseg = opts.threads.segments(jpeg.len(), mcus);
    let bounds = segment_bounds(&parsed, mcus, nseg);

    // Open the encode meter and charge the block buffer — the encoder's
    // one frame-sized arena (§3.4: "the Lepton encoder must decode the
    // original JPEG serially") — before the scan decode touches it.
    let meter = opts.budget.encode_meter();
    meter.charge(block_bytes(&parsed))?;

    let (bytes, scan_in, scan_out, header_out) =
        compress_file(engine, jpeg, &parsed, &bounds, opts, &meter)?;
    if opts.verify {
        // The caller's wait for trailing verify jobs and the
        // composition check (the verify decodes overlap the encode).
        lepton_obs::mark_stage("verify");
    }

    let stats = CompressStats {
        input_bytes: jpeg.len(),
        output_bytes: bytes.len(),
        header_in: parsed.header_len,
        header_out,
        scan_in,
        scan_out,
        segments: nseg,
    };
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
/// its encode job is queued while the decoder moves on into the rest of
/// the buffer — with several segments the decode of segment *i+1*
/// overlaps the arithmetic encoding of segment *i* (the encode-side
/// analogue of the paper's decode pipeline, §3.4). Once the scan is
/// decoded the verify jobs are queued behind the encode jobs; a single
/// segment is then encoded inline. FIFO collection of the segment
/// streams keeps the container identical however the jobs were
/// scheduled.
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
    let mut blocks = engine.checkout_blocks(parsed.frame.mcu_count() * bpm);
    let slots: Vec<SegSlot> = (0..nseg).map(|_| SegSlot::new(opts.verify)).collect();
    let plan = OnceCell::new();

    // Jobs borrow their block slice, slot and the verify plan for the
    // whole scope, so all three live outside it.
    let mut rest = &mut blocks[..];
    let (slots_ref, plan_ref) = (&slots[..], &plan);
    let done = engine.scope(|batch| {
        let run = (|| -> Result<_, LeptonError> {
            let mut handovers: Vec<Handover> = Vec::with_capacity(nseg);
            let mut dec = ScanDecoder::new(jpeg, parsed)?;
            let mut inline = None;
            for (i, slot) in slots_ref.iter().enumerate() {
                let (start, end) = (bounds[i], bounds[i + 1]);
                handovers.push(dec.handover());
                let len = (end - start) as usize * bpm;
                let (seg, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                dec.decode_to(end, seg)?;
                let seg: &[CoefBlock] = seg;
                let out = Publisher::new(slot);
                let job = move |scratch: &mut Scratch| {
                    encode_segment_job(scratch, seg, parsed, start, end, out, meter);
                };
                if nseg == 1 {
                    // The one segment is the whole scan: charge its
                    // decode to its own stage, and encode it inline on
                    // the caller once its verify job is queued (no queue
                    // handoff, and an idle worker verifies meanwhile).
                    lepton_obs::mark_stage("scan_decode");
                    inline = Some(job);
                } else {
                    batch.push(Box::new(job));
                }
            }
            let end = dec.finish()?;
            let header = build_header(jpeg, parsed, bounds, &handovers, &end);
            queue_verify(batch, plan_ref, &header, jpeg, opts, slots_ref);
            match inline {
                Some(job) => engine.run_inline(job),
                None => batch.participate(),
            }
            let assembled = assemble_container(header, slots_ref)?;
            lepton_obs::mark_stage("arith_encode");
            Ok((end.stats, assembled))
        })();
        // Help drain what is still queued — on error, the encode jobs
        // already pushed; on success, verify jobs no worker has started.
        // The scope waits for stragglers on other workers.
        batch.participate();
        run
    });
    engine.checkin_blocks(blocks);
    let (scan_in, (bytes, scan_out, header_out)) = done?;
    conclude(plan, slots, &bytes)?;
    Ok((bytes, scan_in, scan_out, header_out))
}

/// Segment boundaries: `nseg+1` MCU indices from 0 to `mcus`, equally
/// split and snapped to MCU-row starts where possible (paper: "Thread
/// Segment Vertical Range").
fn segment_bounds(parsed: &ParsedJpeg, mcus: u32, nseg: u32) -> Vec<u32> {
    let mcus_x = parsed.frame.mcus_x as u32;
    let nseg = nseg.min(mcus.max(1));
    let mut bounds = Vec::with_capacity(nseg as usize + 1);
    bounds.push(0);
    for i in 1..nseg {
        let raw = mcus * i / nseg;
        // Snap up to the next row start if that stays in range.
        let snapped = raw.div_ceil(mcus_x) * mcus_x;
        let b = if snapped > 0 && snapped < mcus {
            snapped
        } else {
            raw
        };
        if *bounds.last().expect("nonempty") < b {
            bounds.push(b);
        }
    }
    if *bounds.last().expect("nonempty") != mcus {
        bounds.push(mcus);
    }
    bounds
}

/// Outcome of one segment-encoding job.
type SegmentResult = Result<(Vec<u8>, CategoryBytes), LeptonError>;

/// Arithmetic-encode the thread segment of MCUs `[start, end)`, whose
/// coding-order blocks are `blocks`, using the executor's arena: the
/// model pair is reset (not reallocated) and the output stream is built
/// in the arena's resident buffer, with only an exact-size copy escaping
/// the job. The stream and the outcome go to `out`'s slot, settled
/// bytes as they accrue when a verify job reads them.
fn encode_segment_job(
    scratch: &mut Scratch,
    blocks: &[CoefBlock],
    parsed: &ParsedJpeg,
    start: u32,
    end: u32,
    out: Publisher<'_>,
    meter: &JobMeter,
) {
    // This segment's share of the working set: a model pair (the
    // figure `decode_working_set` plans with — arenas are pooled but
    // still resident for the job's duration).
    if let Err(e) = meter.charge(crate::security::model_pair_bytes()) {
        out.finish(&[], Err(e));
        return;
    }
    let enc = BoolEncoder::with_buffer(std::mem::take(&mut scratch.arith_buf));
    let (models, rings) = scratch.walk_arenas();
    let mut op = SegEncoder {
        blocks: blocks.iter(),
        enc,
        models,
        out,
    };
    let r = walk_segment(parsed, start, end, rings, &mut op);
    let mut cat = op.models[0].stats();
    cat.add(&op.models[1].stats());
    let SegEncoder { enc, out, .. } = op; // release the arena borrow
    let stream = enc.finish();
    // The produced arithmetic stream escapes the job (it is copied into
    // the container), so it counts too.
    let charged = meter.charge(stream.len());
    let result = match (r, charged) {
        (Err(e), _) | (Ok(()), Err(e)) => Err(e),
        (Ok(()), Ok(())) => Ok((stream.clone(), cat)),
    };
    out.finish(&stream, result);
    scratch.arith_buf = stream; // hand the capacity back to the arena
}

/// Collect the segment streams in FIFO order — waiting for each encode
/// job to end — and write the container. Streams arrive in segment
/// order, which is what keeps the container byte-identical no matter
/// how the segment jobs were scheduled — batched up front or pipelined
/// behind the scan decode.
fn assemble_container(
    mut header: ContainerHeader,
    slots: &[SegSlot],
) -> Result<(Vec<u8>, CategoryBytes, usize), LeptonError> {
    let mut streams = Vec::with_capacity(slots.len());
    let mut cat_total = CategoryBytes::default();
    for (seg, slot) in header.segments.iter_mut().zip(slots) {
        let (stream, cat) = slot.take_encoded()?;
        seg.arith_bytes = stream.len() as u64;
        cat_total.add(&cat);
        streams.push(stream);
    }
    let blob_len = header.serialize_blob().len();
    let bytes = write_container(&header, &streams);
    Ok((bytes, cat_total, blob_len))
}

/// Build the file's container header from its scan geometry — every
/// field but the segments' `arith_bytes`, which assembly fills in once
/// the streams exist. `handovers` holds the snapshot at each segment's
/// first MCU; the last segment runs to the scan's end, and everything
/// after it is the verbatim `append`.
fn build_header(
    jpeg: &[u8],
    parsed: &ParsedJpeg,
    bounds: &[u32],
    handovers: &[Handover],
    end: &ScanEnd,
) -> ContainerHeader {
    debug_assert_eq!(handovers.len() + 1, bounds.len());
    let nseg = bounds.len() - 1;
    let scan_end = end.scan_end.min(jpeg.len());
    let first_mcu_byte = handovers[0].byte_offset;
    let seg_ends = handovers[1..nseg].iter().map(|h| h.byte_offset);
    let segments = (0..nseg)
        .zip(seg_ends.chain([scan_end]))
        .map(|(i, seg_end)| SegmentInfo {
            mcu_start: bounds[i],
            mcu_end: bounds[i + 1],
            out_bytes: seg_end.saturating_sub(handovers[i].byte_offset) as u64,
            arith_bytes: 0,
            handover: SerializedHandover::from_handover(&handovers[i]),
        })
        .collect();
    ContainerHeader {
        emit_header: true,
        jpeg_header: jpeg[..parsed.header_len].to_vec(),
        output_size: jpeg.len() as u32,
        pad_bit: match end.pad {
            PadState::Seen(true) => 1,
            PadState::Seen(false) => 0,
            _ => 2,
        },
        rst_count: end.rst_count,
        prepend: jpeg[parsed.header_len.min(first_mcu_byte)..first_mcu_byte].to_vec(),
        append: jpeg[scan_end..].to_vec(),
        segments,
    }
}

/// Settled arithmetic bytes an encode job lets pile up before it
/// publishes them to its verify job (checked at MCU ends). Smaller
/// keeps the verify closer behind the encoder — its tail after the
/// encoder ends — at one lock and wake-up per publish.
const PUBLISH_BYTES: usize = 2 << 10;

/// What one segment's encode job, its verify job and the caller share:
/// the arithmetic stream as it is published, and both jobs' outcomes.
///
/// The stream is an *unbounded* byte channel: the encode job appends
/// and never waits, whatever the verify job's pace.
struct SegSlot {
    /// Publish while encoding (a verify job reads the stream).
    live: bool,
    state: Mutex<SlotState>,
    /// Signalled on every publish and when the encode job ends.
    cv: Condvar,
    /// Raised when the encode job ends without a stream, so the verify
    /// walk stops at its next MCU instead of decoding zero-fill.
    failed: AtomicBool,
}

#[derive(Default)]
struct SlotState {
    /// Settled stream bytes published so far (all of them once `ended`).
    published: Vec<u8>,
    ended: bool,
    /// The encode job's outcome, until the caller takes it.
    encoded: Option<SegmentResult>,
    /// The verify job's outcome.
    verified: Option<Result<(), LeptonError>>,
}

impl SegSlot {
    fn new(live: bool) -> Self {
        SegSlot {
            live,
            state: Mutex::default(),
            cv: Condvar::new(),
            failed: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().expect("segment slot")
    }

    /// The encode job's last act: publish the stream's `tail`, record
    /// its outcome and wake everyone waiting on either.
    fn end(&self, tail: &[u8], result: SegmentResult) {
        if result.is_err() {
            self.failed.store(true, Ordering::Relaxed);
        }
        {
            let mut st = self.lock();
            st.published.extend_from_slice(tail);
            st.ended = true;
            st.encoded = Some(result);
        }
        self.cv.notify_all();
    }

    /// Wait for the encode job's outcome. The job must have started:
    /// the caller asks only once it has no queued job left to help with.
    fn take_encoded(&self) -> SegmentResult {
        let mut st = self.lock();
        while !st.ended {
            st = self.cv.wait(st).expect("segment slot");
        }
        st.encoded
            .take()
            .unwrap_or(Err(LeptonError::Internal("segment result taken twice")))
    }
}

/// The encode job's end of a [`SegSlot`], owned by the job from its
/// creation. Dropped without [`finish`](Self::finish) — the job
/// panicked, or never ran — it still ends the stream, so no verify job
/// or caller waits on it forever.
struct Publisher<'a> {
    slot: &'a SegSlot,
    /// Stream bytes published so far.
    sent: usize,
    done: bool,
}

impl<'a> Publisher<'a> {
    fn new(slot: &'a SegSlot) -> Self {
        Publisher {
            slot,
            sent: 0,
            done: false,
        }
    }

    /// Publish the encoder's settled bytes once enough are new.
    fn offer(&mut self, settled: &[u8]) {
        if self.slot.live && settled.len() - self.sent >= PUBLISH_BYTES {
            self.slot
                .lock()
                .published
                .extend_from_slice(&settled[self.sent..]);
            self.sent = settled.len();
            self.slot.cv.notify_all();
        }
    }

    /// End the stream: `stream` is the finished output, of which the
    /// first `sent` bytes are already published.
    fn finish(mut self, stream: &[u8], result: SegmentResult) {
        let tail = match self.slot.live {
            true => stream.get(self.sent..).unwrap_or_default(),
            false => &[],
        };
        self.slot.end(tail, result);
        self.done = true;
    }
}

impl Drop for Publisher<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.slot.end(
                &[],
                Err(LeptonError::Internal("segment encode did not finish")),
            );
        }
    }
}

/// The verify job's input: its segment's stream as the encode job
/// publishes it. A refill waits until the whole window is published or
/// the encoder has ended; past the end it zero-fills, as `VecSource`
/// does, so the decode sees exactly what a demuxed stream would give.
struct StreamSource<'a> {
    slot: &'a SegSlot,
    pos: usize,
}

impl ByteSource for StreamSource<'_> {
    fn next_byte(&mut self) -> u8 {
        let mut b = [0];
        self.read_block(&mut b);
        b[0]
    }

    fn read_block(&mut self, out: &mut [u8]) {
        let mut st = self.slot.lock();
        while !st.ended && st.published.len() < self.pos + out.len() {
            st = self.slot.cv.wait(st).expect("segment slot");
        }
        let avail = &st.published[self.pos..];
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        out[n..].fill(0);
        self.pos += n;
    }
}

/// The verify job's output: each decoded fragment must equal the input
/// at its offset. It holds no output; the first difference refuses the
/// fragment, which stops the walk.
struct CompareSink<'a> {
    /// The input bytes this segment has still to reproduce.
    expected: &'a [u8],
    slot: &'a SegSlot,
}

impl SegSink for CompareSink<'_> {
    fn send(&mut self, bytes: Vec<u8>) -> io::Result<()> {
        match self.expected.strip_prefix(bytes.as_slice()) {
            Some(rest) => {
                self.expected = rest;
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "decoded bytes differ from the input",
            )),
        }
    }

    fn cancelled(&self) -> bool {
        self.slot.failed.load(Ordering::Relaxed)
    }
}

/// What the verify jobs decode with: exactly the fields the container
/// will carry, admitted by the decoder's own `admit`.
struct VerifyPlan<'j> {
    /// The container header, but for `arith_bytes` (0 until assembly:
    /// the streams do not exist yet, and no decode step reads it).
    header: ContainerHeader,
    /// The header's JPEG header as `admit` parsed it.
    parsed: ParsedJpeg,
    /// The decode meter `admit` opened and charged.
    meter: JobMeter,
    /// The input file.
    jpeg: &'j [u8],
}

impl<'j> VerifyPlan<'j> {
    /// The input bytes segment `k` must decode to.
    fn expected(&self, k: usize) -> &'j [u8] {
        let h = &self.header;
        let lead = h.jpeg_header.len() + h.prepend.len();
        let len = |s: &SegmentInfo| usize::try_from(s.out_bytes).unwrap_or(usize::MAX);
        let start = h.segments[..k]
            .iter()
            .map(len)
            .fold(lead, usize::saturating_add);
        let end = start.saturating_add(len(&h.segments[k]));
        self.jpeg.get(start..end).unwrap_or_default()
    }

    /// After every job has ended: the verify verdicts, then the
    /// composition check of the stored `container`.
    fn conclude(self, container: &[u8], slots: Vec<SegSlot>) -> Result<(), LeptonError> {
        let mut header = self.header;
        let mut read = Vec::with_capacity(slots.len());
        for (seg, slot) in header.segments.iter_mut().zip(slots) {
            let st = slot.state.into_inner().expect("segment slot");
            st.verified
                .unwrap_or(Err(LeptonError::Internal("verify job did not run")))?;
            seg.arith_bytes = st.published.len() as u64;
            read.push(st.published);
        }
        check_composition(container, &header, &read, self.jpeg, &self.meter)
    }
}

/// Segment `k`'s verify job: decode its stream while the encoder is
/// still writing it — through the decoder's own segment loop, with the
/// stored header's fields — and compare every fragment with the input.
fn verify_segment_job(
    scratch: &mut Scratch,
    plan: &VerifyPlan<'_>,
    k: usize,
    slot: &SegSlot,
) -> Result<(), LeptonError> {
    let sink = CompareSink {
        expected: plan.expected(k),
        slot,
    };
    let src = StreamSource { slot, pos: 0 };
    let seg = &plan.header.segments[k];
    decode_segment_job(
        scratch,
        &plan.parsed,
        &plan.header,
        seg,
        src,
        sink,
        &plan.meter,
    )
    .map(|_| ())
    .map_err(|e| match e {
        DecodeError::Codec(e) => e,
        DecodeError::Sink(_) => LeptonError::RoundtripFailed,
    })
}

/// The proof composes: the stored bytes pass the decoder's pre-output
/// path (`read_container`, `demux`) to exactly the header and streams
/// the verify jobs decoded, and the verbatim parts — JPEG header,
/// prepend, append — equal the input at their offsets. `admit` has already reconciled the segment outputs
/// with the declared total, so `decompress(container)` replays the
/// verified decodes byte for byte. The demux charges the streams to the
/// decode meter, as it does in `decompress`.
fn check_composition(
    container: &[u8],
    verified: &ContainerHeader,
    streams: &[Vec<u8>],
    jpeg: &[u8],
    meter: &JobMeter,
) -> Result<(), LeptonError> {
    let refused = |e: LeptonError| match e {
        LeptonError::BudgetExceeded { .. } => e,
        _ => LeptonError::RoundtripFailed,
    };
    let stored = read_container(container).map_err(refused)?;
    if stored.header != *verified || demux(&stored, meter).map_err(refused)? != streams {
        return Err(LeptonError::RoundtripFailed);
    }
    let h = verified;
    let verbatim = h.emit_header
        && h.output_size as usize == jpeg.len()
        && jpeg.starts_with(&h.jpeg_header)
        && jpeg[h.jpeg_header.len()..].starts_with(&h.prepend)
        && jpeg.ends_with(&h.append);
    if !verbatim {
        return Err(LeptonError::RoundtripFailed);
    }
    Ok(())
}

/// Admit `header` exactly as `decompress` will admit the stored
/// container — the decoder's own `admit`, which opens and charges the
/// decode meter — and queue each segment's verify job behind its
/// encode job. A refusal is kept in `plan` and reported once the
/// encode side is known to have succeeded.
///
/// No verify job can hold a worker forever: it waits only on its own
/// segment's encode job, which FIFO order has already started (or
/// which the caller runs inline right after this, for one segment);
/// encode jobs never wait; and the byte channel is unbounded.
fn queue_verify<'env, 'j: 'env>(
    batch: &BatchGuard<'_, 'env>,
    plan: &'env OnceCell<Result<VerifyPlan<'j>, LeptonError>>,
    header: &ContainerHeader,
    jpeg: &'j [u8],
    opts: &CompressOptions,
    slots: &'env [SegSlot],
) {
    if !opts.verify {
        return;
    }
    let dopts = DecompressOptions {
        budget: opts.budget,
    };
    let admitted = admit(header, &dopts).map(|(parsed, meter)| VerifyPlan {
        header: header.clone(),
        parsed,
        meter,
        jpeg,
    });
    if let Ok(plan) = plan.get_or_init(|| admitted) {
        for (k, slot) in slots.iter().enumerate() {
            batch.push(Box::new(move |scratch: &mut Scratch| {
                let verdict = verify_segment_job(scratch, plan, k, slot);
                slot.lock().verified = Some(verdict);
            }));
        }
    }
}

/// The verify outcome of a conversion whose jobs have all ended.
fn conclude(
    plan: OnceCell<Result<VerifyPlan<'_>, LeptonError>>,
    slots: Vec<SegSlot>,
    container: &[u8],
) -> Result<(), LeptonError> {
    match plan.into_inner() {
        Some(plan) => plan?.conclude(container, slots),
        None => Ok(()),
    }
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

    const JPEG: &[u8] = include_bytes!("../tests/golden/landscape-422-trailing.jpg");

    fn fixed(segments: usize, verify: bool) -> CompressOptions {
        CompressOptions {
            threads: ThreadPolicy::Fixed(segments),
            verify,
            ..Default::default()
        }
    }

    /// A verify job waits only on its own segment's encode job, which
    /// FIFO order has already started (or which the caller runs inline
    /// right after queueing it); encode jobs never wait; the byte
    /// channel is unbounded. So a conversion finishes on its caller
    /// alone while every pool worker is held by someone else's job.
    #[test]
    fn verify_finishes_while_the_only_worker_is_held() {
        use std::sync::mpsc;
        use std::time::Duration;
        let engine = &Engine::new(1);
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                engine.scope(|batch| {
                    batch.push(Box::new(move |_: &mut Scratch| {
                        held_tx.send(()).expect("test waits");
                        release_rx.recv().expect("test releases");
                    }))
                })
            });
            held_rx.recv().expect("the worker took the blocking job");
            s.spawn(move || {
                for n in [1, 4] {
                    let r = engine.compress(JPEG, &fixed(n, true));
                    done_tx.send((n, r)).expect("test listens");
                }
            });
            let results: Vec<_> = (0..2)
                .map(|_| done_rx.recv_timeout(Duration::from_secs(60)))
                .collect();
            release_tx.send(()).expect("worker listens");
            for r in results {
                let (n, r) = r.expect("compress returned while the worker was held");
                assert_eq!(r.unwrap(), compress(JPEG, &fixed(n, false)).unwrap());
            }
        });
    }

    /// The honest pieces of a 4-segment conversion: its container, the
    /// header and streams a verify would have decoded, and a meter.
    fn honest() -> (Vec<u8>, ContainerHeader, Vec<Vec<u8>>, JobMeter) {
        let container = compress(JPEG, &fixed(4, false)).unwrap();
        let stored = read_container(&container).unwrap();
        let meter = ResourceBudget::default().decode_meter();
        let streams = demux(&stored, &meter).unwrap();
        assert_eq!(streams.len(), 4);
        let header = stored.header;
        (container, header, streams, meter)
    }

    #[test]
    fn composition_check_refuses_a_sabotaged_assembly() {
        let (container, header, streams, meter) = honest();
        let check = |bytes: &[u8], built: &ContainerHeader| {
            check_composition(bytes, built, &streams, JPEG, &meter)
        };
        assert!(check(&container, &header).is_ok());

        let mut swapped = streams.clone();
        swapped.swap(1, 2);
        let mut flipped = container.clone();
        flipped[28 + 5] ^= 0x10; // inside the zlib-compressed header blob
        let mut handover = header.clone();
        handover.segments[2].handover.prev_dc[0] ^= 1;
        let mut short_append = header.clone();
        short_append.append.remove(0);
        short_append.output_size -= 1;
        let mut short_stream = streams.clone();
        short_stream[3].pop();
        let cases = [
            (
                "streams swapped",
                write_container(&header, &swapped),
                &header,
            ),
            ("header blob byte flipped", flipped, &header),
            (
                "handover field changed",
                write_container(&handover, &streams),
                &header,
            ),
            (
                "append truncated",
                write_container(&short_append, &streams),
                &header,
            ),
            // Self-consistent header and streams: only the verbatim
            // comparison with the input can notice.
            (
                "append truncated, header agrees",
                write_container(&short_append, &streams),
                &short_append,
            ),
            (
                "stream one byte short",
                write_container(&header, &short_stream),
                &header,
            ),
        ];
        for (what, bytes, built) in cases {
            assert!(
                matches!(check(&bytes, built), Err(LeptonError::RoundtripFailed)),
                "{what}"
            );
        }
    }

    #[test]
    fn comparing_sink_refuses_a_flipped_scan_byte() {
        let (_, header, streams, _) = honest();
        let dopts = DecompressOptions::default();
        let parsed_len = header.jpeg_header.len();
        let mut input = JPEG.to_vec();
        input[parsed_len + (JPEG.len() - parsed_len) / 2] ^= 0x04;
        let (parsed, meter) = admit(&header, &dopts).unwrap();
        let plan = VerifyPlan {
            header,
            parsed,
            meter,
            jpeg: &input,
        };
        let mut verdicts = Vec::new();
        for (k, stream) in streams.iter().enumerate() {
            let slot = SegSlot::new(true);
            slot.end(stream, Ok((Vec::new(), CategoryBytes::default())));
            verdicts.push(verify_segment_job(&mut Scratch::default(), &plan, k, &slot));
        }
        let refused = verdicts
            .iter()
            .filter(|v| matches!(v, Err(LeptonError::RoundtripFailed)))
            .count();
        assert_eq!(refused, 1, "{verdicts:?}");
        assert_eq!(verdicts.iter().filter(|v| v.is_ok()).count(), 3);
    }
}
