//! The four workloads and what they share.

pub mod codec_photo;
pub mod fleet_mixed;
pub mod serve_chunk;
pub mod serve_hot;

use crate::countvfs::VfsCounters;
use crate::layers::Layers;
use crate::measure::{AcrossRounds, CallerLog, Limits};
use crate::trace::SpanBuf;
use lepton_storage::sha256::Sha256;
use lepton_storage::vfs::Vfs;
use std::sync::Arc;
use std::time::Instant;

/// What every workload is handed. The process's working directory is
/// its scratch directory: sockets and stores go under relative paths.
#[derive(Debug)]
pub struct Ctx {
    /// `--seed`.
    pub seed: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Closed-loop caller threads.
    pub clients: usize,
    /// Time zero for span timestamps.
    pub epoch: Instant,
    /// Filesystem handed to every store the workload opens: the real
    /// one, wrapped in a counter on the traced run.
    pub vfs: Arc<dyn Vfs>,
    /// What the counting wrapper has seen (all zero when untraced).
    pub vfs_counters: Arc<VfsCounters>,
}

impl Ctx {
    /// A span buffer for caller `caller` (records only when tracing
    /// *and* `traced` — untraced rounds of the traced run are the
    /// overhead baseline).
    pub fn spans(&self, caller: usize, traced: bool) -> SpanBuf {
        SpanBuf::new(self.trace && traced, self.epoch, caller)
    }
}

/// What set-up produced besides the workload itself.
#[derive(Debug, Default)]
pub struct SetupReport {
    /// Seconds spent generating the corpus (part of set-up).
    pub corpus_gen_s: f64,
    /// Operations attempted / failed during set-up's own byte checks.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
}

/// What the post-run check found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Bytes at rest for the workload's stored originals.
    pub stored_bytes: u64,
    /// The originals' bytes.
    pub original_bytes: u64,
    /// Extra operations the final check attempted.
    pub attempted: u64,
    /// Of which wrong, refused or failed.
    pub failed: u64,
    /// Conditions that invalidate the run (non-zero fleet repair
    /// counters and the like), empty when valid.
    pub invalid: Vec<String>,
}

/// At-rest accounting for a workload whose stored form is the
/// containers of its latest round: container bytes over the bytes of
/// the files that produced them.
pub fn containers_at_rest(files: &[Vec<u8>], containers: &[Option<Vec<u8>>]) -> Outcome {
    let mut out = Outcome::default();
    for (file, container) in files.iter().zip(containers) {
        if let Some(container) = container {
            out.stored_bytes += container.len() as u64;
            out.original_bytes += file.len() as u64;
        }
    }
    out
}

/// Length of a JPEG's verbatim header (SOI up to and including SOS):
/// output past it is the first that had to be decoded.
pub fn header_len(jpeg: &[u8]) -> usize {
    lepton_jpeg::parse(jpeg).map_or(0, |p| p.header_len)
}

/// SHA-256 over a workload's inputs: every corpus file, then the
/// request sequence.
#[derive(Default)]
pub struct InputHasher(Sha256);

impl InputHasher {
    /// Fold one length-prefixed item in.
    pub fn item(&mut self, bytes: &[u8]) {
        self.0.update(&(bytes.len() as u64).to_le_bytes());
        self.0.update(bytes);
    }

    /// Fold a request sequence in.
    pub fn sequence(&mut self, seq: &[u32]) {
        let bytes: Vec<u8> = seq.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.item(&bytes);
    }

    /// Hex digest.
    pub fn finish(self) -> String {
        lepton_storage::sha256::hex(&self.0.finish())
    }
}

/// One workload: build inputs and services, run rounds over a fixed
/// request sequence, check, and expose layer probes.
pub trait Workload: Sized {
    /// Name, as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Latency limits for `ontime_share`.
    const LIMITS: Limits;
    /// Which of a request's rounds is its typical cost.
    const ACROSS_ROUNDS: AcrossRounds;

    /// Corpus generation + service spawn + preload. `rep` numbers the
    /// repetition (set-up is timed several times per run).
    fn setup(ctx: &Ctx, rep: u32) -> (Self, SetupReport);

    /// Hash and size of the generated inputs.
    fn inputs(&self) -> (String, u64);

    /// One pass over the request sequence by every caller.
    fn round(&mut self, ctx: &Ctx, round: u32, traced: bool) -> Vec<CallerLog>;

    /// Post-run check and at-rest accounting (untimed).
    fn finish(&mut self, ctx: &Ctx) -> Outcome;

    /// Microseconds the workload's services report having spent
    /// executing ops, from their own histograms (0 without a service).
    fn service_us(&self) -> u64 {
        0
    }

    /// Per-layer probes and counters for the traced run.
    fn layers(&mut self, ctx: &Ctx, out: &mut Layers);

    /// Stop services and delete scratch files.
    fn teardown(self);
}
