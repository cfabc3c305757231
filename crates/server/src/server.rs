//! The conversion service: a worker-pooled multiplexing core.
//!
//! Mirrors the production deployment's shape (§5.5) and adds the
//! serving discipline a tail-latency SLO demands. Two wire modes share
//! every handler:
//!
//! * **Legacy mode** — one conversion per connection (op byte,
//!   payload, half-close), exactly as the paper's blockservers spoke.
//!   A connection that opens with any legacy op byte is served
//!   entirely by its driver thread, byte-for-byte compatible with
//!   every pre-existing client.
//! * **Framed (multiplexed) mode** — a connection that opens with
//!   [`MUX_MAGIC`] carries pipelined frames: the driver thread keeps
//!   *decoding the next request frame while previous conversions are
//!   still running* on the shared worker pool, and responses complete
//!   out of order, correlated by frame id. A `Decompress` response is
//!   *streamed*: the same frame, written as the decoder produces it
//!   (see `FrameSink`), so its first decoded byte leaves at first-row
//!   time, not after the whole file.
//!
//! The resource discipline (§5.1: bound everything *before* it becomes
//! memory or threads):
//!
//! * **Connections** are capped by a permit semaphore; past the cap,
//!   clients wait in the accept backlog. Driver threads therefore
//!   never exceed `max_connections` — overload cannot stack threads.
//! * **Pipelined bytes** are capped per connection: a framed
//!   connection may have at most `MAX_INFLIGHT_BYTES` of request
//!   payload admitted-but-unanswered; past that the driver stops
//!   reading, which turns into TCP backpressure on the sender.
//! * **Conversion jobs** from framed connections flow through one
//!   bounded job queue into a fixed worker pool.
//! * **Admission control** sheds compress-side work (`Compress`,
//!   `BlockPut`) with a fast typed [`Status::Overloaded`] when the job
//!   queue is full or the codec engine's own queue is already deep —
//!   the caller falls back (Deflate, another replica) exactly as it
//!   does for the §5.7 shutoff switch. Decode-side work is **never
//!   shed**: reads trump everything, so a full queue blocks the driver
//!   (backpressure) instead of refusing the read.
//!
//! The shutoff switch is a file whose existence is checked before
//! compressing anything new (§5.7); decodes are never refused. Load
//! probes (`Ping`/`Stats`) are answered inline by the driver, never
//! queued behind conversions.

use crate::endpoint::{Conn, Endpoint, Listener};
use crate::gauge::ConcurrencyGauge;
use crate::protocol::{
    frame_header, read_bounded, read_frame, write_all_vectored, write_frame, write_response,
    BlockStatReply, Op, StatsReply, Status, MUX_MAGIC,
};
use lepton_core::{CompressOptions, DecodeError, DecodeSink, ExitCode};
use lepton_obs::{Counter, Gauge, Histogram, Registry, Snapshot, Watchdog, WatchdogConfig};
use lepton_storage::blockstore::{ShardedStore, StoreError};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Lepton compression options (verification stays on: the
    /// admission rule is not negotiable, §5.7).
    pub compress: CompressOptions,
    /// Maximum simultaneous connections; beyond this, clients wait in
    /// the accept backlog. Conversions are allowed to oversubscribe
    /// the CPU — the paper's blockservers routinely ran 15 at once at
    /// peak (§5.5) — but never unboundedly.
    pub max_connections: usize,
    /// Advertised busy threshold: a router outsources when `active >
    /// busy_threshold` (the paper deployed 3 and 4).
    pub busy_threshold: u32,
    /// Per-connection socket IO timeout.
    pub io_timeout: Duration,
    /// Largest accepted request payload. Conversions are per-chunk, so
    /// the default is comfortably above 4 MiB.
    pub max_request_bytes: usize,
    /// Shutoff-switch file (§5.7): when this path exists, compression
    /// requests are refused with [`Status::Shutdown`] within one
    /// request of the file appearing. Decompression continues.
    pub shutoff_file: Option<PathBuf>,
    /// Blockstore served by the `BlockPut`/`BlockGet`/`BlockStat` ops;
    /// when absent those ops answer [`Status::BadRequest`]. Shared so
    /// the process hosting the service can also touch the store
    /// directly (e.g. a backfill worker).
    pub blockstore: Option<Arc<ShardedStore>>,
    /// Worker threads executing framed-mode conversion jobs. `0`
    /// (default) sizes the pool from available parallelism, capped at
    /// 8 — conversions may oversubscribe the codec engine, which is
    /// what makes outsourcing worthwhile (Fig. 9), but never grow with
    /// connection count.
    pub conversion_workers: usize,
    /// Capacity of the bounded framed-mode job queue. A full queue
    /// sheds compress-side work ([`Status::Overloaded`]) and
    /// backpressures decode-side work.
    pub job_queue_depth: usize,
    /// Anomaly-watchdog thresholds (§6 monitoring): window size and
    /// the shed/error-rate and compression-ratio-shift alarms that
    /// latch the degraded-health flag `Stats` v2 reports.
    pub watchdog: WatchdogConfig,
}

/// Admission control: shed compress-side work while the codec engine's
/// own queue is deeper than this many unstarted jobs.
const SHED_ENGINE_QUEUE: usize = 512;

/// Per-connection cap on pipelined request bytes that are admitted but
/// not yet answered; past it the driver stops reading frames (TCP
/// backpressure), bounding what one connection can pin.
const MAX_INFLIGHT_BYTES: usize = 64 << 20;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            compress: CompressOptions::default(),
            max_connections: 64,
            busy_threshold: 3,
            io_timeout: Duration::from_secs(30),
            max_request_bytes: 24 << 20,
            shutoff_file: None,
            blockstore: None,
            conversion_workers: 0,
            job_queue_depth: 128,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// Counters exported by [`ServiceHandle::stats`] and the `Stats` op.
///
/// Since the telemetry unification these are views onto the service's
/// [`Registry`] (`server.served` etc.), so the v1 24-byte reply, the
/// v2 snapshot and these handles always agree.
#[derive(Debug)]
pub struct ServiceMetrics {
    /// Successful conversions (compress + decompress).
    pub served: Arc<Counter>,
    /// Failed or rejected conversions.
    pub failed: Arc<Counter>,
    /// Compression requests refused because the shutoff switch was on.
    pub shutoff_refusals: Arc<Counter>,
    /// Requests shed by admission control ([`Status::Overloaded`]) —
    /// also counted in `failed`.
    pub shed: Arc<Counter>,
    /// Framed `Decompress` responses cut short after their first body
    /// byte (the decode failed mid-stream, or the peer hung up) and
    /// ended by closing the connection — also counted in `failed`.
    pub stream_aborts: Arc<Counter>,
}

impl ServiceMetrics {
    fn on_registry(reg: &Registry) -> Self {
        ServiceMetrics {
            served: reg.counter("server.served"),
            failed: reg.counter("server.failed"),
            shutoff_refusals: reg.counter("server.shutoff_refusals"),
            shed: reg.counter("server.shed"),
            stream_aborts: reg.counter("server.stream_aborts"),
        }
    }
}

/// One framed-mode conversion job, queued to the worker pool.
struct MuxJob {
    conn: Arc<MuxConn>,
    id: u32,
    op: Op,
    payload: Vec<u8>,
}

/// The shared half of one framed connection: workers write response
/// frames through `writer` (one at a time — frames must not
/// interleave) and return in-flight bytes so the driver can resume
/// reading.
struct MuxConn {
    writer: Mutex<Conn>,
    inflight_bytes: Mutex<usize>,
    drained: Condvar,
    /// Service-wide admitted-but-unanswered bytes gauge
    /// (`server.inflight_bytes`), shared across connections.
    inflight_gauge: Arc<Gauge>,
}

impl MuxConn {
    fn respond(&self, id: u32, status: Status, payload: &[u8]) {
        let mut w = self.writer.lock().expect("mux writer");
        let _ = write_frame(&mut *w, id, status.to_wire(), payload);
    }

    fn release(&self, bytes: usize) {
        let mut inflight = self.inflight_bytes.lock().expect("mux inflight");
        *inflight -= bytes;
        self.inflight_gauge.sub(bytes as i64);
        self.drained.notify_all();
    }
}

/// Everything the acceptor, drivers, and workers share.
struct Shared {
    cfg: ServiceConfig,
    /// This service instance's unified metric registry. Per-instance
    /// (not process-global) so in-process fleets keep per-node stats.
    registry: Arc<Registry>,
    /// The §6 anomaly watchdog latching the degraded-health flag.
    watchdog: Arc<Watchdog>,
    /// Per-op request latency histograms, indexed by [`Op::index`].
    op_latency: Vec<Arc<Histogram>>,
    /// Admitted-but-unanswered framed request bytes, service-wide.
    inflight_bytes: Arc<Gauge>,
    gauge: Arc<ConcurrencyGauge>,
    conns: Arc<ConcurrencyGauge>,
    metrics: Arc<ServiceMetrics>,
    stop: AtomicBool,
    /// Injected per-conversion delay in ms (0 = none): a test/bench
    /// hook that makes this node serve slowly, standing in for the
    /// degraded-host regimes of §6.3/§6.6 without real damage.
    delay_ms: AtomicU64,
    /// The single producer handle onto the bounded job queue; taken
    /// (set to `None`) at shutdown so the worker pool drains and
    /// exits.
    job_tx: Mutex<Option<crossbeam::channel::Sender<MuxJob>>>,
    /// One reader handle per live connection, registered by the
    /// acceptor. Shutdown closes every read side so idle drivers
    /// (a mux connection waiting for its next frame can wait forever)
    /// unblock immediately instead of running out their io timeout;
    /// write sides stay open, so in-flight responses still land.
    readers: Mutex<HashMap<u64, Conn>>,
    next_conn_id: AtomicU64,
}

/// A running conversion service. Dropping the handle shuts it down.
pub struct ServiceHandle {
    endpoint: Endpoint,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Start a conversion service on `endpoint`.
///
/// Binds the listener and returns once the service is accepting. TCP
/// endpoints may use port 0; the handle reports the actual bound
/// endpoint.
pub fn serve(endpoint: &Endpoint, cfg: ServiceConfig) -> std::io::Result<ServiceHandle> {
    let listener = Listener::bind(endpoint)?;
    let bound = listener.endpoint()?;

    let worker_count = if cfg.conversion_workers > 0 {
        cfg.conversion_workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    };
    let (job_tx, job_rx) = crossbeam::channel::bounded::<MuxJob>(cfg.job_queue_depth.max(1));

    // The unified telemetry registry: every counter the service
    // updates lives here under a stable dotted name, so the v2 Stats
    // snapshot is a read, not a collection effort.
    let registry = Arc::new(Registry::new());
    let metrics = Arc::new(ServiceMetrics::on_registry(&registry));
    let op_latency = Op::ALL
        .iter()
        .map(|op| registry.histogram(&format!("server.op.{}.latency_us", op.name())))
        .collect();
    if let Some(store) = cfg.blockstore.as_deref() {
        store.bind_registry(&registry, "store");
    }
    let watchdog = Arc::new(Watchdog::new(cfg.watchdog));

    let shared = Arc::new(Shared {
        gauge: ConcurrencyGauge::on_registry(&registry, "server.conversions"),
        conns: ConcurrencyGauge::on_registry(&registry, "server.conns"),
        inflight_bytes: registry.gauge("server.inflight_bytes"),
        op_latency,
        watchdog,
        registry,
        metrics,
        cfg,
        stop: AtomicBool::new(false),
        delay_ms: AtomicU64::new(0),
        job_tx: Mutex::new(Some(job_tx)),
        readers: Mutex::new(HashMap::new()),
        next_conn_id: AtomicU64::new(0),
    });

    let workers = (0..worker_count)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let job_rx = job_rx.clone();
            std::thread::Builder::new()
                .name(format!("lepton-serve-{i}"))
                .spawn(move || worker_loop(&shared, &job_rx))
                .expect("spawn service worker")
        })
        .collect();

    // Connection permits: a bounded channel used as a semaphore. The
    // acceptor blocks pushing a token at the cap, which turns overload
    // into accept-backlog backpressure instead of unbounded threads.
    let cap = shared.cfg.max_connections.max(1);
    let (permit_tx, permit_rx) = crossbeam::channel::bounded::<()>(cap);

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            // Driver threads signal completion through this guard so
            // shutdown can drain them all.
            let wg = crossbeam::sync::WaitGroup::new();
            loop {
                match listener.accept() {
                    Ok(conn) => {
                        if shared.stop.load(Ordering::SeqCst) {
                            break; // the wake-up connection from shutdown()
                        }
                        let _ = conn.set_io_timeout(Some(shared.cfg.io_timeout));
                        if permit_tx.send(()).is_err() {
                            break;
                        }
                        let permit_rx = permit_rx.clone();
                        let shared = Arc::clone(&shared);
                        let guard = wg.clone();
                        // Register the reader before the driver exists
                        // so a shutdown sweep can never miss a live
                        // connection.
                        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                        if let Ok(reader) = conn.try_clone() {
                            shared
                                .readers
                                .lock()
                                .expect("reader registry")
                                .insert(conn_id, reader);
                        }
                        std::thread::spawn(move || {
                            let _conn_lease = shared.conns.acquire();
                            drive_connection(conn, &shared);
                            shared
                                .readers
                                .lock()
                                .expect("reader registry")
                                .remove(&conn_id);
                            let _ = permit_rx.try_recv(); // release the permit
                            drop(guard);
                        });
                    }
                    Err(_) => {
                        if shared.stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                }
            }
            // Drain: every in-flight driver completes before the
            // acceptor thread (and with it `shutdown()`) returns.
            wg.wait();
        })
    };

    Ok(ServiceHandle {
        endpoint: bound,
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}

impl ServiceHandle {
    /// The endpoint the service is bound to (real port for TCP :0).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Live conversion-concurrency gauge (what the outsourcing router
    /// and the `Stats` op read).
    pub fn gauge(&self) -> &Arc<ConcurrencyGauge> {
        &self.shared.gauge
    }

    /// Live connection gauge: one lease per driver thread. Its
    /// high-water mark can never exceed
    /// [`ServiceConfig::max_connections`] — the overload tests assert
    /// exactly that.
    pub fn connections(&self) -> &Arc<ConcurrencyGauge> {
        &self.shared.conns
    }

    /// The same snapshot the wire `Stats` op returns.
    pub fn stats(&self) -> StatsReply {
        stats_reply(&self.shared)
    }

    /// Raw metric counters.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.shared.metrics
    }

    /// The service's unified telemetry registry (per-op latency
    /// histograms, connection lifecycle, storage counters).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// The same versioned snapshot the wire `Stats` v2 op returns:
    /// this service's registry merged with the process-global one
    /// (engine, job traces), plus watchdog health gauges.
    pub fn snapshot(&self) -> Snapshot {
        stats_snapshot(&self.shared)
    }

    /// True while the anomaly watchdog's degraded-health flag is
    /// latched (shed/error storm or compression-ratio shift) or the
    /// blockstore is latched read-only (ENOSPC / failed fsync).
    pub fn degraded(&self) -> bool {
        self.shared.watchdog.degraded() || store_read_only(&self.shared)
    }

    /// Make every conversion and block op on this service sleep `d`
    /// before running (0 disables). A test/bench hook: `fig10_replay`
    /// uses it to turn one fleet node into the slow replica whose tail
    /// the hedged-read path must hide, without damaging any data.
    pub fn inject_delay(&self, d: Duration) {
        self.shared
            .delay_ms
            .store(d.as_millis() as u64, Ordering::SeqCst);
    }

    /// Stop accepting, drain in-flight conversions, and join.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a wake-up connection.
        let _ = self.endpoint.connect(Some(Duration::from_millis(200)));
        // Unblock idle drivers: close every live connection's read
        // side. Writes stay open, so responses for work already
        // admitted still go out before the drain below completes.
        for (_, reader) in self.shared.readers.lock().expect("reader registry").iter() {
            let _ = reader.shutdown_read();
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // All drivers are gone; close the job queue. Workers finish
        // whatever is already queued, then exit.
        *self.shared.job_tx.lock().expect("job queue") = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop_threads();
        }
    }
}

fn stats_reply(shared: &Shared) -> StatsReply {
    StatsReply {
        active: shared.gauge.active(),
        high_water: shared.gauge.high_water(),
        busy_threshold: shared.cfg.busy_threshold,
        total_served: shared.metrics.served.get(),
        total_failed: shared.metrics.failed.get() as u32,
    }
}

/// Build the v2 stats snapshot: refresh the computed gauges, then
/// merge this service's registry with the process-global registry
/// (codec engine counters, `trace.*` stage histograms).
fn stats_snapshot(shared: &Shared) -> Snapshot {
    let engine = lepton_core::Engine::global();
    engine.refresh_gauges();
    shared.watchdog.publish(&shared.registry);
    // A read-only storage latch is degraded health even when the
    // watchdog's shed/error alarms are quiet: this replica cannot
    // accept writes until an operator runs recovery and it reopens.
    if store_read_only(shared) {
        shared.registry.gauge("health.degraded").set(1);
    }
    shared
        .registry
        .gauge("server.busy_threshold")
        .set(i64::from(shared.cfg.busy_threshold));
    let mut snap = shared.registry.snapshot();
    snap.merge(Registry::global().snapshot());
    snap
}

/// Is the configured blockstore (if any) latched read-only?
fn store_read_only(shared: &Shared) -> bool {
    shared
        .cfg
        .blockstore
        .as_deref()
        .is_some_and(|s| s.is_read_only())
}

fn shutoff_engaged(cfg: &ServiceConfig) -> bool {
    cfg.shutoff_file.as_deref().is_some_and(|p| p.exists())
}

/// Should compress-side work be shed right now? The signal is the
/// codec engine's own backlog: unstarted jobs already waiting for
/// workers mean added work buys latency, not throughput.
fn engine_overloaded() -> bool {
    lepton_core::Engine::global().queue_depth() > SHED_ENGINE_QUEUE
}

/// Drive one accepted connection: sniff the first byte, then speak
/// whichever protocol the client opened with.
fn drive_connection(mut conn: Conn, shared: &Arc<Shared>) {
    let mut first = [0u8; 1];
    let mut got = 0;
    while got < 1 {
        match conn.read(&mut first) {
            Ok(0) => return, // peer hung up before sending anything
            Ok(n) => got += n,
            Err(_) => {
                shared.metrics.failed.inc();
                let _ = write_response(&mut conn, Status::Timeout, &[]);
                return;
            }
        }
    }
    if first[0] == MUX_MAGIC {
        drive_mux(conn, shared);
    } else {
        drive_legacy(conn, first[0], shared);
    }
}

use std::io::Read;

/// The legacy one-conversion-per-connection protocol, unchanged on the
/// wire: the op byte has been consumed; the payload runs to half-close.
fn drive_legacy(mut conn: Conn, op_byte: u8, shared: &Arc<Shared>) {
    let payload = match read_bounded(&mut conn, shared.cfg.max_request_bytes) {
        Ok(p) => p,
        Err(e) => {
            let status = if e.kind() == std::io::ErrorKind::InvalidData {
                Status::TooLarge
            } else {
                // Socket timeout mid-request: the §6.6 regime (and the
                // slow-loris defense). The peer may already be gone;
                // best-effort response.
                Status::Timeout
            };
            shared.metrics.failed.inc();
            let _ = write_response(&mut conn, status, &[]);
            return;
        }
    };
    let Some(op) = Op::from_wire(op_byte) else {
        shared.metrics.failed.inc();
        let _ = write_response(&mut conn, Status::BadRequest, &[]);
        return;
    };
    if sheds(op) && engine_overloaded() {
        shed(shared);
        let _ = write_response(&mut conn, Status::Overloaded, &[]);
        return;
    }
    let (status, body) = execute_op(shared, op, &payload);
    let _ = write_response(&mut conn, status, &body);
}

/// The framed multiplexed protocol: pipelined requests, out-of-order
/// responses, bounded in-flight bytes.
fn drive_mux(conn: Conn, shared: &Arc<Shared>) {
    let Ok(writer) = conn.try_clone() else {
        return;
    };
    let mux = Arc::new(MuxConn {
        writer: Mutex::new(writer),
        inflight_bytes: Mutex::new(0),
        drained: Condvar::new(),
        inflight_gauge: Arc::clone(&shared.inflight_bytes),
    });
    let mut reader = conn;
    loop {
        let frame = match read_frame(&mut reader, shared.cfg.max_request_bytes) {
            Ok(Some(f)) => f,
            Ok(None) => return, // clean close at a frame boundary
            Err(e) => {
                // The frame id is unrecoverable; answer on the
                // reserved id and close. A well-behaved client treats
                // a `u32::MAX` response as fatal to the connection.
                let status = if e.kind() == std::io::ErrorKind::InvalidData {
                    Status::TooLarge
                } else {
                    Status::Timeout
                };
                shared.metrics.failed.inc();
                mux.respond(u32::MAX, status, &[]);
                return;
            }
        };
        let Some(op) = Op::from_wire(frame.byte) else {
            shared.metrics.failed.inc();
            mux.respond(frame.id, Status::BadRequest, &[]);
            continue;
        };
        // Probes are answered inline — they must never queue behind
        // conversions (that is what makes them useful under load).
        if matches!(op, Op::Ping | Op::Stats | Op::StatsV2) {
            let (status, body) = execute_op(shared, op, &frame.payload);
            mux.respond(frame.id, status, &body);
            continue;
        }
        // Bounded in-flight bytes: stop reading (TCP backpressure)
        // until enough responses have drained. A payload alone bigger
        // than the budget still passes when nothing else is in flight,
        // so the budget can never deadlock a connection.
        let bytes = frame.payload.len();
        {
            let mut inflight = mux.inflight_bytes.lock().expect("mux inflight");
            while *inflight > 0 && *inflight + bytes > MAX_INFLIGHT_BYTES {
                inflight = mux.drained.wait(inflight).expect("mux inflight");
            }
            *inflight += bytes;
            shared.inflight_bytes.add(bytes as i64);
        }
        if sheds(op) && engine_overloaded() {
            shed(shared);
            mux.respond(frame.id, Status::Overloaded, &[]);
            mux.release(bytes);
            continue;
        }
        let job = MuxJob {
            conn: Arc::clone(&mux),
            id: frame.id,
            op,
            payload: frame.payload,
        };
        let tx = shared.job_tx.lock().expect("job queue").clone();
        let Some(tx) = tx else {
            mux.respond(frame.id, Status::Shutdown, &[]);
            mux.release(bytes);
            return;
        };
        if sheds(op) {
            // Compress-side work never waits on a full queue: shed
            // fast, the caller has a fallback.
            if let Err(crossbeam::channel::TrySendError::Full(job)) = tx.try_send(job) {
                shed(shared);
                mux.respond(frame.id, Status::Overloaded, &[]);
                mux.release(job.payload.len());
            }
        } else {
            // Decode-side work is never shed (reads trump everything,
            // §5.7): a full queue blocks the driver instead, which is
            // backpressure the client can feel.
            if tx.send(job).is_err() {
                mux.respond(frame.id, Status::Shutdown, &[]);
                mux.release(bytes);
                return;
            }
        }
    }
}

/// Is `op` compress-side work that admission control may shed? The
/// §5.7 asymmetry: refused writes have a fallback (Deflate, raw, a
/// different replica), refused reads are user-visible data loss.
fn sheds(op: Op) -> bool {
    matches!(op, Op::Compress | Op::BlockPut)
}

fn shed(shared: &Shared) {
    shared.metrics.shed.inc();
    shared.metrics.failed.inc();
    shared.watchdog.record_event(true, false);
}

/// The framed-mode worker loop: execute conversion jobs, write the
/// response frame, release the connection's in-flight budget.
fn worker_loop(shared: &Arc<Shared>, rx: &crossbeam::channel::Receiver<MuxJob>) {
    while let Ok(job) = rx.recv() {
        if job.op == Op::Decompress {
            stream_decompress(shared, &job.conn, job.id, &job.payload);
        } else {
            let (status, body) = execute_op(shared, job.op, &job.payload);
            job.conn.respond(job.id, status, &body);
        }
        job.conn.release(job.payload.len());
    }
}

/// One framed `Decompress` response, written as it decodes: the frame
/// header (`id · Ok · len`) leaves with the first fragment, each later
/// fragment as it arrives. The connection's writer mutex is held from
/// the first body byte to the last — a frame is indivisible.
struct FrameSink<'a> {
    conn: &'a MuxConn,
    id: u32,
    /// Body length the header will declare (set by `begin`).
    len: u32,
    /// `Some` once the header is on the wire: from then on the response
    /// can only be completed or aborted, never re-typed.
    writer: Option<MutexGuard<'a, Conn>>,
}

impl DecodeSink for FrameSink<'_> {
    fn begin(&mut self, output_size: usize) -> std::io::Result<()> {
        self.len = u32::try_from(output_size)
            .map_err(|_| std::io::Error::from(std::io::ErrorKind::InvalidData))?;
        Ok(())
    }

    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        use std::io::Write;
        match &mut self.writer {
            Some(w) => w.write_all(bytes),
            None => {
                let w = self
                    .writer
                    .insert(self.conn.writer.lock().expect("mux writer"));
                let header = frame_header(self.id, Status::Ok.to_wire(), self.len);
                write_all_vectored(&mut **w, &header, bytes)
            }
        }
    }
}

/// Serve one framed `Decompress` with the connection as the decoder's
/// sink. Until the first body byte every failure is the same typed
/// status the materialised path gives; after it, the connection is
/// aborted so the peer reads a short frame, never a complete wrong body.
fn stream_decompress(shared: &Arc<Shared>, conn: &MuxConn, id: u32, payload: &[u8]) {
    let sink = FrameSink {
        conn,
        id,
        len: 0,
        writer: None,
    };
    let (result, sink) = timed_op(shared, Op::Decompress, || {
        decompress_op(shared, payload, sink)
    });
    match (result, sink.writer) {
        (Ok(()), Some(_complete)) => {}
        // A zero-length output never met the sink's `write`.
        (Ok(()), None) => conn.respond(id, Status::Ok, &[]),
        (Err(e), None) => conn.respond(id, refusal(&e), &[]),
        // Stuck mid-frame: the only honest end is to close both ways,
        // so the peer reads a short frame now instead of waiting out
        // its timeout. The driver's next read sees the same EOF and
        // retires the connection.
        (Err(_), Some(stuck)) => {
            shared.metrics.stream_aborts.inc();
            let _ = stuck.shutdown_both();
        }
    }
}

/// Passes a `Decompress` to `inner` and settles what the request owes
/// exactly once, however it ends: its conversion lease back, served or
/// failed counted, the watchdog told. A completed body is settled just
/// *before* the fragment that completes it is handed over — a client
/// that has read a whole response then also reads a service that has
/// counted it, as when responses were written only after the
/// conversion had returned.
struct Settling<'a, S> {
    inner: S,
    /// Body bytes `inner` has not been handed yet.
    owed: usize,
    shared: &'a Shared,
    /// `None` once settled.
    lease: Option<crate::gauge::Lease>,
}

impl<S> Settling<'_, S> {
    fn settle(&mut self, ok: bool) {
        if self.lease.take().is_none() {
            return;
        }
        let metrics = &self.shared.metrics;
        if ok {
            metrics.served.inc();
        } else {
            metrics.failed.inc();
        }
        self.shared.watchdog.record_event(false, !ok);
    }
}

impl<S: DecodeSink> DecodeSink for Settling<'_, S> {
    fn begin(&mut self, output_size: usize) -> std::io::Result<()> {
        self.owed = output_size;
        self.inner.begin(output_size)
    }

    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.owed = self.owed.saturating_sub(bytes.len());
        if self.owed == 0 {
            self.settle(true);
        }
        self.inner.write(bytes)
    }
}

/// Run one `Decompress` request into `sink` and hand the sink back.
/// Both wire modes call this, so they share one decode and one account.
fn decompress_op<S: DecodeSink>(
    shared: &Shared,
    payload: &[u8],
    sink: S,
) -> (Result<(), DecodeError>, S) {
    // No shutoff check: reads must keep working (§5.7).
    let mut sink = Settling {
        inner: sink,
        owed: 0,
        shared,
        lease: Some(shared.gauge.acquire()),
    };
    let cfg = &shared.cfg;
    let dec_opts = lepton_core::DecompressOptions {
        model: cfg.compress.model,
        budget: cfg.compress.budget,
    };
    let result = lepton_core::Engine::global().decompress_into(payload, &dec_opts, &mut sink);
    // Anything but a completed body is still unsettled here.
    sink.settle(result.is_ok());
    (result, sink.inner)
}

/// The typed status for a decode that failed before any body byte.
fn refusal(e: &DecodeError) -> Status {
    match e {
        DecodeError::Codec(e) => Status::Rejected(ExitCode::classify(e)),
        // Only `FrameSink::begin` refuses that early: the output does
        // not fit a frame's length field.
        DecodeError::Sink(_) => Status::TooLarge,
    }
}

/// Run `f` as one request of `op`: the injected test delay first, then
/// its wall time into the registry's per-op latency histogram.
fn timed_op<R>(shared: &Shared, op: Op, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    if !matches!(op, Op::Ping | Op::Stats | Op::StatsV2) {
        let delay = shared.delay_ms.load(Ordering::SeqCst);
        if delay > 0 {
            std::thread::sleep(Duration::from_millis(delay));
        }
    }
    let result = f();
    shared.op_latency[op.index()].record_duration(start.elapsed());
    result
}

/// Execute one request and produce its response. Shared by both wire
/// modes, so legacy and framed clients see identical semantics.
fn execute_op(shared: &Arc<Shared>, op: Op, payload: &[u8]) -> (Status, Vec<u8>) {
    timed_op(shared, op, || execute_op_inner(shared, op, payload))
}

fn execute_op_inner(shared: &Arc<Shared>, op: Op, payload: &[u8]) -> (Status, Vec<u8>) {
    let cfg = &shared.cfg;
    let metrics = &shared.metrics;
    let watchdog = &shared.watchdog;
    match op {
        Op::Ping => (Status::Ok, Vec::new()),
        Op::Stats => (Status::Ok, stats_reply(shared).to_wire().to_vec()),
        Op::StatsV2 => (Status::Ok, stats_snapshot(shared).to_wire()),
        Op::Compress => {
            if shutoff_engaged(cfg) {
                metrics.shutoff_refusals.inc();
                return (Status::Shutdown, Vec::new());
            }
            let _lease = shared.gauge.acquire();
            match lepton_core::Engine::global().compress(payload, &cfg.compress) {
                Ok(lepton) => {
                    metrics.served.inc();
                    // Feed the §6 ratio series: a fleet-wide drift here
                    // (corpus change, model regression) trips the
                    // watchdog even when nothing errors.
                    if !payload.is_empty() {
                        watchdog.record_ratio(lepton.len() as f64 / payload.len() as f64);
                    }
                    watchdog.record_event(false, false);
                    (Status::Ok, lepton)
                }
                Err(e) => {
                    metrics.failed.inc();
                    watchdog.record_event(false, true);
                    (Status::Rejected(ExitCode::classify(&e)), Vec::new())
                }
            }
        }
        // One-shot connections answer from a buffer: their body has no
        // length prefix, so a stream cut short would read as complete.
        Op::Decompress => match decompress_op(shared, payload, Vec::new()) {
            (Ok(()), jpeg) => (Status::Ok, jpeg),
            (Err(e), _) => (refusal(&e), Vec::new()),
        },
        Op::BlockPut | Op::BlockGet | Op::BlockStat | Op::BlockList => {
            let Some(store) = cfg.blockstore.as_deref() else {
                metrics.failed.inc();
                return (Status::BadRequest, Vec::new());
            };
            execute_block_op(shared, op, store, payload)
        }
    }
}

/// The blockstore ops. Put and get count against the conversion gauge
/// — they may run the codec — and their failures against the same
/// metrics the conversion path uses.
fn execute_block_op(
    shared: &Arc<Shared>,
    op: Op,
    store: &ShardedStore,
    payload: &[u8],
) -> (Status, Vec<u8>) {
    let cfg = &shared.cfg;
    let metrics = &shared.metrics;
    match op {
        Op::BlockPut => {
            let _lease = shared.gauge.acquire();
            // A job trace for the storage leg: the codec stages inside
            // `store.put` run on engine workers under their own spans;
            // this span owns the `store` stage of the canonical
            // parse → decode → code → verify → store chain.
            let span = lepton_obs::span_enter("block_put");
            // The §5.7 shutoff switch gates the codec here too — but
            // blockstore writes are never *refused*: the block lands
            // raw and a later backfill converts it. Durability first.
            let result = if shutoff_engaged(cfg) {
                metrics.shutoff_refusals.inc();
                store.put_raw(payload)
            } else {
                store.put(payload)
            };
            lepton_obs::mark_stage("store");
            match result {
                Ok(key) => {
                    metrics.served.inc();
                    shared.watchdog.record_event(false, false);
                    span.finish("ok", payload.len() as u64, 32);
                    (Status::Ok, key.to_vec())
                }
                // A read-only latch sheds the write with a typed
                // transient status: the bytes are fine, this replica's
                // disk is not. Counts as a shed, not a failure — the
                // watchdog's error-storm alarm stays quiet while the
                // degraded flag (wired via `stats_snapshot`) carries
                // the signal instead.
                Err(StoreError::ReadOnly(_)) => {
                    metrics.shed.inc();
                    span.finish("read_only", payload.len() as u64, 0);
                    (Status::ReadOnly, Vec::new())
                }
                Err(_) => {
                    metrics.failed.inc();
                    shared.watchdog.record_event(false, true);
                    span.finish("storage_failed", payload.len() as u64, 0);
                    (Status::StorageFailed, Vec::new())
                }
            }
        }
        Op::BlockGet => {
            let Ok(key) = <[u8; 32]>::try_from(payload) else {
                metrics.failed.inc();
                return (Status::BadRequest, Vec::new());
            };
            let _lease = shared.gauge.acquire();
            match store.get(&key) {
                Ok(Some(bytes)) => {
                    metrics.served.inc();
                    (Status::Ok, bytes)
                }
                Ok(None) => (Status::NotFound, Vec::new()),
                // A damaged record is refused, never served — and
                // quarantined, so a replica's read-repair `put` of the
                // true content can land instead of deduping against
                // the bad file.
                Err(StoreError::Corrupt(_)) => {
                    metrics.failed.inc();
                    shared.watchdog.record_event(false, true);
                    let _ = store.quarantine(&key);
                    (Status::StorageFailed, Vec::new())
                }
                // I/O failures are never dressed up as data either.
                Err(StoreError::Io(_)) => {
                    metrics.failed.inc();
                    shared.watchdog.record_event(false, true);
                    (Status::StorageFailed, Vec::new())
                }
                // A budget refusal is a typed rejection, not damage:
                // no quarantine, and the client learns the taxonomy
                // row instead of a storage failure.
                Err(StoreError::Budget { .. }) => {
                    metrics.failed.inc();
                    (Status::Rejected(ExitCode::MemDecodeLimit), Vec::new())
                }
                // Reads are allowed through the read-only latch; this
                // arm is unreachable from `get` but the type demands
                // honesty about it.
                Err(StoreError::ReadOnly(_)) => {
                    metrics.shed.inc();
                    (Status::ReadOnly, Vec::new())
                }
            }
        }
        Op::BlockList => match store.keys() {
            Ok(keys) => {
                let mut body = Vec::with_capacity(keys.len() * 32);
                for k in &keys {
                    body.extend_from_slice(k);
                }
                (Status::Ok, body)
            }
            Err(_) => {
                metrics.failed.inc();
                (Status::StorageFailed, Vec::new())
            }
        },
        Op::BlockStat => match store.stat() {
            Ok(stats) => {
                let reply = BlockStatReply {
                    blocks: stats.blocks,
                    lepton_blocks: stats.lepton_blocks,
                    raw_blocks: stats.raw_blocks,
                    logical_bytes: stats.logical_bytes,
                    stored_bytes: stats.stored_bytes,
                    cache_hits: stats.cache_hits,
                    cache_misses: stats.cache_misses,
                };
                (Status::Ok, reply.to_wire().to_vec())
            }
            Err(_) => {
                metrics.failed.inc();
                (Status::StorageFailed, Vec::new())
            }
        },
        _ => unreachable!("only block ops are routed here"),
    }
}
