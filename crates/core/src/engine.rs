//! The reusable codec engine: pre-spawned workers, per-worker arenas.
//!
//! The paper's production story (§5.1) is that time-to-first-byte was
//! won by *not doing work per request*: Lepton pre-allocates a ~200-MiB
//! arena and pre-spawns its threads, so a request only resets state
//! that already exists. This module is that discipline for the
//! reproduction:
//!
//! * [`Engine`] owns a pool of pre-spawned workers. Each worker holds a
//!   private scratch arena — a resident [`ComponentModel`] pair
//!   (~100k statistic bins each) and a segment output buffer — that is
//!   **reset, never reallocated** between jobs. Determinism (§5.2)
//!   requires a reset arena to be indistinguishable from a fresh one;
//!   `core/tests/engine_reuse.rs` enforces that byte-for-byte.
//! * Segment jobs from `compress`/`decompress` are queued to the pool
//!   instead of spawning `std::thread::scope` threads per call, through
//!   one enqueue path shaped like it: `Engine::scope` opens a batch and
//!   its closure pushes jobs as they become ready (`BatchGuard::push`);
//!   the scope returns only after every job has finished. Batches are
//!   FIFO: segment jobs start in segment order, which is what lets the
//!   decode path bound its in-order drain buffers.
//! * Single-segment work runs inline on the calling thread with a
//!   checked-out arena — the common small-file path pays no handoff.
//!   A compression queues its segments' verify jobs first, so idle
//!   workers verify while the caller encodes, and the caller
//!   participates afterwards to run any verify job no worker took.
//! * The encoder's coding-order block buffer (the whole file's
//!   quantized coefficients, [`CoefBlock`]s in the order the scan codes
//!   them) comes from a bounded pool rather than a fresh multi-megabyte
//!   allocation per file.
//!
//! The module-level entry points `lepton_core::compress` /
//! `lepton_core::decompress` route through [`Engine::global`], so every
//! caller in the tree — the request server, the blockstore commit gate,
//! the fleet's replicated blockservers — shares one engine and its warm
//! arenas.

use crate::driver::RingArena;
use crate::error::LeptonError;
use lepton_jpeg::CoefBlock;
use lepton_model::{ComponentModel, ModelConfig};
use lepton_obs::{Counter, Gauge, Registry};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Live engine telemetry: pool load and arena-reuse counters.
///
/// Every cell is a `lepton_obs` atomic, so the global engine can hand
/// the *same* cells to [`Registry::global`] (see [`Engine::global`])
/// and `Stats` snapshots read the live values — there is no separate
/// "export" copy to fall out of date.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Unstarted jobs in the queue (refreshed by
    /// [`Engine::refresh_gauges`]; the high water is updated on every
    /// refresh, so it undercounts bursts between snapshots).
    pub queue_depth: Arc<Gauge>,
    /// Pre-spawned worker threads (constant per engine).
    pub workers: Arc<Gauge>,
    /// Total wall time workers (and participating/inline callers)
    /// spent executing jobs, in microseconds.
    pub busy_us: Arc<Counter>,
    /// Pooled jobs executed to completion (panic or not).
    pub jobs_completed: Arc<Counter>,
    /// Jobs that panicked (also re-raised by their batch's scope).
    pub jobs_panicked: Arc<Counter>,
    /// Single-segment fast-path closures run inline on caller threads.
    pub inline_jobs: Arc<Counter>,
    /// Times a scratch arena was handed to a job — each handoff resets
    /// (never reallocates) the arena, which is the §5.1 discipline this
    /// counter lets operators confirm is actually engaged.
    pub arena_resets: Arc<Counter>,
}

impl EngineMetrics {
    /// Account one executed pool job.
    fn record_job(&self, elapsed: Duration, panicked: bool) {
        self.busy_us.add(elapsed.as_micros() as u64);
        self.jobs_completed.inc();
        self.arena_resets.inc();
        if panicked {
            self.jobs_panicked.inc();
        }
    }

    /// Publish these cells on `registry` under `<prefix>.*` names.
    pub fn bind_registry(&self, registry: &Registry, prefix: &str) {
        registry.adopt_gauge(&format!("{prefix}.queue_depth"), &self.queue_depth);
        registry.adopt_gauge(&format!("{prefix}.workers"), &self.workers);
        for (name, c) in [
            ("busy_us", &self.busy_us),
            ("jobs.completed", &self.jobs_completed),
            ("jobs.panicked", &self.jobs_panicked),
            ("inline_jobs", &self.inline_jobs),
            ("arena_resets", &self.arena_resets),
        ] {
            registry.adopt_counter(&format!("{prefix}.{name}"), c);
        }
    }
}

/// A lifetime-erased job: runs on some executor with that executor's
/// scratch arena. See the safety argument in [`BatchGuard::push`].
type Job = Box<dyn FnOnce(&mut Scratch) + Send + 'static>;

/// A borrowed-environment job as pushed by the encoder/decoder (erased
/// to [`Job`] inside [`BatchGuard::push`]).
pub(crate) type EnvJob<'env> = Box<dyn FnOnce(&mut Scratch) + Send + 'env>;

/// Per-executor scratch arena. Workers own one for their lifetime;
/// calling threads check one out of a small shared pool for inline
/// execution. Everything here is reset between jobs, not reallocated.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Resident per-class model pair (luma, chroma), reset per job.
    models: Option<[ComponentModel; 2]>,
    /// Resident neighbour-ring storage for the segment walk.
    rings: RingArena,
    /// Resident arithmetic output buffer (encode side). Jobs take it,
    /// encode into it, and put it back so its capacity survives.
    pub(crate) arith_buf: Vec<u8>,
}

impl Scratch {
    /// What a segment walk codes with: the model pair, reset to the
    /// fresh 50-50 state under `cfg`, and the ring storage. First use
    /// allocates; every later job reuses the arena.
    pub(crate) fn walk_arenas(
        &mut self,
        cfg: ModelConfig,
    ) -> (&mut [ComponentModel; 2], &mut RingArena) {
        if let Some(pair) = &mut self.models {
            pair[0].reset(cfg);
            pair[1].reset(cfg);
        } else {
            self.models = Some([ComponentModel::new(cfg), ComponentModel::new(cfg)]);
        }
        (self.models.as_mut().expect("just ensured"), &mut self.rings)
    }
}

/// One batch of jobs and its completion bookkeeping.
#[derive(Default)]
struct Batch {
    /// Jobs not yet started, in push (= segment) order.
    jobs: Mutex<VecDeque<Job>>,
    /// Jobs not yet *finished* (started or not).
    pending: Mutex<usize>,
    done_cv: Condvar,
    panicked: AtomicBool,
}

impl Batch {
    /// Run one job and account for its completion, panic or not.
    /// Returns whether the job panicked (for executor-side metrics).
    fn execute(&self, job: Job, scratch: &mut Scratch) -> bool {
        let r = catch_unwind(AssertUnwindSafe(|| job(scratch)));
        if r.is_err() {
            self.panicked.store(true, Ordering::Relaxed);
        }
        let mut p = self.pending.lock().expect("batch lock");
        *p -= 1;
        if *p == 0 {
            self.done_cv.notify_all();
        }
        r.is_err()
    }

    /// Block until every job has finished.
    fn wait(&self) {
        let mut p = self.pending.lock().expect("batch lock");
        while *p > 0 {
            p = self.done_cv.wait(p).expect("batch lock");
        }
    }
}

/// The handle jobs are pushed through inside [`Engine::scope`], in the
/// shape of [`std::thread::Scope`]: `'e` is the engine borrow and
/// `'env` the environment jobs may borrow from — data that outlives
/// the `scope` call. The guard is invariant in `'env`, so it cannot be
/// coerced to accept jobs that borrow anything shorter-lived.
pub(crate) struct BatchGuard<'e, 'env> {
    batch: Arc<Batch>,
    engine: &'e Engine,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'env> BatchGuard<'_, 'env> {
    /// Queue one job on the pool — the engine's only enqueue path. Jobs
    /// start in push (= segment) order.
    #[allow(unsafe_code)]
    pub(crate) fn push(&self, job: EnvJob<'env>) {
        // SAFETY: the job only runs before its batch's `pending` count
        // reaches zero, and `Engine::scope` — the only constructor of
        // this guard (its fields are private to this module), which
        // owns it and hands out only a borrow — waits for exactly that
        // before it returns or resumes an unwind. `'env` is a lifetime
        // parameter of `scope`, so everything the job borrows outlives
        // that wait, and the guard's invariance keeps `'env` from being
        // shortened. `Batch::execute` catches job panics, so `pending`
        // always falls.
        let job = unsafe { std::mem::transmute::<EnvJob<'env>, Job>(job) };
        {
            // Account the job before making it runnable so `pending`
            // can never underflow.
            let mut p = self.batch.pending.lock().expect("batch lock");
            *p += 1;
        }
        self.batch.jobs.lock().expect("batch lock").push_back(job);
        let wake = {
            let mut q = self.engine.shared.queue.lock().expect("engine queue");
            q.entries.push_back(Arc::clone(&self.batch));
            q.idle > 0
        };
        // No lost wakeup: a worker only waits after re-checking the
        // queue under the same lock this push held.
        if wake {
            self.engine.shared.work_cv.notify_one();
        }
    }

    /// Help execute this batch's jobs on the calling thread (with a
    /// checked-out arena) until none remain unstarted. Used by the
    /// encode path, for its encode and verify jobs; the decode path
    /// does *not* participate — its caller is the in-order drain, and
    /// running a producer inline would stall the drain and buffer whole
    /// segment outputs needlessly.
    pub(crate) fn participate(&self) {
        loop {
            let job = self.batch.jobs.lock().expect("batch lock").pop_front();
            match job {
                Some(job) => {
                    let mut scratch = self.engine.checkout_scratch();
                    let start = Instant::now();
                    let panicked = self.batch.execute(job, &mut scratch);
                    self.engine
                        .shared
                        .metrics
                        .record_job(start.elapsed(), panicked);
                    self.engine.checkin_scratch(scratch);
                }
                None => break,
            }
        }
    }
}

struct QueueState {
    /// One entry per unstarted job; entries of one batch are adjacent
    /// and FIFO, so workers start segment 0 before segment 1.
    entries: VecDeque<Arc<Batch>>,
    /// Workers currently blocked in `work_cv.wait`. Producers skip the
    /// condvar notification entirely when this is zero — under load
    /// every worker is busy draining, and the per-push futex wake was
    /// measurable contention in the multicore scaling study.
    idle: usize,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    work_cv: Condvar,
    /// Spare arenas for calling threads (inline fast path and encode
    /// participation). Workers keep their own arena thread-locally and
    /// never touch this.
    scratch_pool: Mutex<Vec<Scratch>>,
    /// Recycled coding-order block buffers for the encoder's serial
    /// scan decode (multi-MiB per file; §5.1 pre-allocation in spirit).
    block_pool: Mutex<Vec<Vec<CoefBlock>>>,
    /// Pool load/reuse counters (see [`EngineMetrics`]).
    metrics: EngineMetrics,
}

/// A pre-spawned codec worker pool with reusable arenas.
///
/// Most callers want [`Engine::global`]; dedicated engines are for
/// tests and for embedders that need isolated thread budgets.
pub struct Engine {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    scratch_cap: usize,
}

/// Upper bound on pooled block buffers (largest-file bytes are
/// retained, so keep the pool shallow).
const BLOCK_POOL_CAP: usize = 4;

/// Ceiling [`Engine::global`] applies to detected parallelism when
/// sizing the shared pool; `LEPTON_ENGINE_THREADS` bypasses it.
const GLOBAL_WORKER_CAP: usize = 16;

impl Engine {
    /// Spawn an engine with `workers` pre-started worker threads
    /// (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                entries: VecDeque::new(),
                idle: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            scratch_pool: Mutex::new(Vec::new()),
            block_pool: Mutex::new(Vec::new()),
            metrics: EngineMetrics::default(),
        });
        shared.metrics.workers.set(workers as i64);
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lepton-engine-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn engine worker")
            })
            .collect();
        Engine {
            shared,
            handles,
            workers,
            scratch_cap: workers * 2 + 2,
        }
    }

    /// The process-wide shared engine. Sized from available parallelism
    /// (capped at 16; `LEPTON_ENGINE_THREADS`, the one deployment
    /// setting, overrides), spawned on first use, and kept warm for
    /// the life of the process — the server, blockstore, and fleet paths
    /// all compress and decompress through this one pool.
    pub fn global() -> &'static Engine {
        static GLOBAL: OnceLock<Engine> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let workers = std::env::var("LEPTON_ENGINE_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                        .min(GLOBAL_WORKER_CAP)
                });
            let engine = Engine::new(workers);
            // The shared engine exports its live cells process-wide;
            // dedicated (test/embedder) engines stay unregistered.
            engine.metrics().bind_registry(Registry::global(), "engine");
            engine
        })
    }

    /// Live pool telemetry (queue depth, busy time, arena reuse).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.shared.metrics
    }

    /// Re-sample the point-in-time gauges (queue depth) from the live
    /// structures. Called by snapshot paths just before reading the
    /// registry, so exported gauges are current without a poller.
    pub fn refresh_gauges(&self) {
        self.shared
            .metrics
            .queue_depth
            .set(self.queue_depth() as i64);
    }

    /// Number of pre-spawned workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Unstarted jobs sitting in the engine's queue right now.
    ///
    /// This is the backlog signal the serving layer's admission
    /// control sheds on: a deep queue means conversions are already
    /// waiting for workers, so accepting more work would only grow
    /// latency, not throughput. The number is instantaneously stale by
    /// construction — callers must treat it as a load gauge, never as
    /// a capacity reservation.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("engine queue")
            .entries
            .len()
    }

    /// Compress a whole JPEG file into a single Lepton container using
    /// this engine's pool.
    pub fn compress(
        &self,
        jpeg: &[u8],
        opts: &crate::encoder::CompressOptions,
    ) -> Result<Vec<u8>, LeptonError> {
        crate::encoder::compress_on(self, jpeg, opts).map(|(bytes, _)| bytes)
    }

    /// Compress and report instrumentation.
    pub fn compress_with_stats(
        &self,
        jpeg: &[u8],
        opts: &crate::encoder::CompressOptions,
    ) -> Result<(Vec<u8>, crate::encoder::CompressStats), LeptonError> {
        crate::encoder::compress_on(self, jpeg, opts)
    }

    /// Decompress a Lepton container using this engine's pool.
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, LeptonError> {
        crate::decoder::decompress_on(self, data, &crate::decoder::DecompressOptions::default())
    }

    /// Decompress with explicit options.
    pub fn decompress_opts(
        &self,
        data: &[u8],
        opts: &crate::decoder::DecompressOptions,
    ) -> Result<Vec<u8>, LeptonError> {
        crate::decoder::decompress_on(self, data, opts)
    }

    /// Streaming decompression in file order (see
    /// [`crate::decompress_streaming`]).
    pub fn decompress_streaming(
        &self,
        data: &[u8],
        opts: &crate::decoder::DecompressOptions,
        sink: &mut dyn FnMut(&[u8]),
    ) -> Result<(), LeptonError> {
        crate::decoder::decompress_streaming_on(self, data, opts, sink)
    }

    /// Decompress into a sink that learns the output size up front and
    /// may cancel the decode (see [`crate::decompress_into`]); the
    /// other decode entries are adapters over this one.
    pub fn decompress_into(
        &self,
        data: &[u8],
        opts: &crate::decoder::DecompressOptions,
        sink: &mut dyn crate::decoder::DecodeSink,
    ) -> Result<(), crate::decoder::DecodeError> {
        crate::decoder::decompress_into_on(self, data, opts, sink)
    }

    /// Run `f` with a fresh batch, in the shape of
    /// [`std::thread::scope`]: `f` pushes jobs as they become ready, and
    /// jobs may borrow anything that outlives this call. Returns only
    /// once every pushed job has finished, also when `f` unwinds; then
    /// re-raises `f`'s panic or a job's.
    pub(crate) fn scope<'env, R>(&self, f: impl FnOnce(&BatchGuard<'_, 'env>) -> R) -> R {
        let guard = BatchGuard {
            batch: Arc::default(),
            engine: self,
            env: PhantomData,
        };
        let r = catch_unwind(AssertUnwindSafe(|| f(&guard)));
        // Jobs may still be running against borrowed data. If `f`
        // unwound, receivers it dropped fail the producer jobs' next
        // send, which stops their walks, so this terminates.
        guard.batch.wait();
        let r = r.unwrap_or_else(|payload| resume_unwind(payload));
        assert!(
            !guard.batch.panicked.load(Ordering::Relaxed),
            "codec engine job panicked"
        );
        r
    }

    /// Run one closure inline on the calling thread with a pooled
    /// arena — the single-segment fast path (no queueing, no handoff).
    pub(crate) fn run_inline<R>(&self, f: impl FnOnce(&mut Scratch) -> R) -> R {
        let mut scratch = self.checkout_scratch();
        let start = Instant::now();
        let r = f(&mut scratch);
        self.shared
            .metrics
            .busy_us
            .add(start.elapsed().as_micros() as u64);
        self.shared.metrics.inline_jobs.inc();
        self.shared.metrics.arena_resets.inc();
        self.checkin_scratch(scratch);
        r
    }

    fn checkout_scratch(&self) -> Scratch {
        self.shared
            .scratch_pool
            .lock()
            .expect("scratch pool")
            .pop()
            .unwrap_or_default()
    }

    fn checkin_scratch(&self, scratch: Scratch) {
        let mut pool = self.shared.scratch_pool.lock().expect("scratch pool");
        if pool.len() < self.scratch_cap {
            pool.push(scratch);
        }
    }

    /// A zeroed coding-order block buffer of `len` blocks for the next
    /// file: recycled storage when the pool has some, fresh otherwise.
    pub(crate) fn checkout_blocks(&self, len: usize) -> Vec<CoefBlock> {
        // Pop first: zeroing happens after the pool lock is released.
        let pooled = self.shared.block_pool.lock().expect("block pool").pop();
        match pooled {
            Some(mut blocks) => {
                blocks.clear();
                blocks.resize(len, [0; 64]);
                blocks
            }
            None => vec![[0; 64]; len],
        }
    }

    /// Return a block buffer to the pool for the next file.
    pub(crate) fn checkin_blocks(&self, blocks: Vec<CoefBlock>) {
        let mut pool = self.shared.block_pool.lock().expect("block pool");
        if pool.len() < BLOCK_POOL_CAP {
            pool.push(blocks);
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("engine queue");
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    // The per-worker arena: lives as long as the worker, reset per job.
    let mut scratch = Scratch::default();
    loop {
        let batch = {
            let mut q = shared.queue.lock().expect("engine queue");
            loop {
                if let Some(b) = q.entries.pop_front() {
                    break b;
                }
                if q.shutdown {
                    return;
                }
                q.idle += 1;
                q = shared.work_cv.wait(q).expect("engine queue");
                q.idle -= 1;
            }
        };
        // Each queue entry is a token for at most one job; a caller
        // participating in its own batch may have emptied it already.
        let job = batch.jobs.lock().expect("batch lock").pop_front();
        if let Some(job) = job {
            let start = Instant::now();
            let panicked = batch.execute(job, &mut scratch);
            shared.metrics.record_job(start.elapsed(), panicked);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Push `n` jobs that each bump `counter`.
    fn push_counting<'env>(batch: &BatchGuard<'_, 'env>, counter: &'env AtomicUsize, n: usize) {
        for _ in 0..n {
            batch.push(Box::new(|_: &mut Scratch| {
                counter.fetch_add(1, Ordering::Relaxed);
            }));
        }
    }

    #[test]
    fn batch_runs_all_jobs_and_joins() {
        let engine = Engine::new(3);
        let counter = AtomicUsize::new(0);
        engine.scope(|batch| {
            push_counting(batch, &counter, 16);
            batch.participate();
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn inline_fast_path_reuses_scratch() {
        let engine = Engine::new(1);
        let cap = engine.run_inline(|s| {
            s.arith_buf.reserve(4096);
            s.arith_buf.capacity()
        });
        // The same arena comes back out of the pool.
        let cap2 = engine.run_inline(|s| s.arith_buf.capacity());
        assert_eq!(cap, cap2);
    }

    #[test]
    fn scope_runs_incremental_pushes_in_order() {
        let engine = Engine::new(2);
        let log = Mutex::new(Vec::new());
        engine.scope(|batch| {
            for i in 0..12 {
                let log = &log;
                batch.push(Box::new(move |_: &mut Scratch| {
                    log.lock().expect("log").push(i);
                }));
            }
            batch.participate();
        });
        let mut got = log.into_inner().expect("log");
        // All jobs ran exactly once (start order is FIFO; completion
        // order may interleave across workers).
        got.sort_unstable();
        assert_eq!(got, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn scope_on_empty_batch_returns() {
        let engine = Engine::new(1);
        engine.scope(|_| {}); // must not hang
    }

    #[test]
    #[should_panic(expected = "codec engine job panicked")]
    fn job_panic_propagates_to_join() {
        let engine = Engine::new(2);
        engine.scope(|batch| {
            batch.push(Box::new(|_: &mut Scratch| {}));
            batch.push(Box::new(|_: &mut Scratch| panic!("boom")));
        });
    }

    #[test]
    fn workers_drain_without_participation() {
        let engine = Engine::new(2);
        let counter = AtomicUsize::new(0);
        engine.scope(|batch| push_counting(batch, &counter, 8));
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    /// A caller that unwinds mid-batch still waits for every job it
    /// pushed: the jobs borrow `counter`, which the unwind would
    /// otherwise free under them. (`resume_unwind` skips the panic hook,
    /// whose backtrace printing could outlast the jobs' sleeps.)
    #[test]
    fn scope_waits_for_jobs_when_the_caller_unwinds() {
        let engine = Engine::new(2);
        let counter = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            engine.scope(|batch| {
                for _ in 0..6 {
                    batch.push(Box::new(|_: &mut Scratch| {
                        std::thread::sleep(Duration::from_millis(5));
                        counter.fetch_add(1, Ordering::Relaxed);
                    }));
                }
                resume_unwind(Box::new("caller unwinds"))
            })
        }));
        assert!(r.is_err());
        assert_eq!(counter.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn drop_shuts_workers_down() {
        let engine = Engine::new(4);
        drop(engine); // must not hang
    }
}
