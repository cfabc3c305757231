//! Overload behavior of the multiplexed serving core: pipelining,
//! slow-loris defense, and admission-control shedding. The common
//! thread: a hostile or overloaded moment produces a *typed* answer
//! within a deadline, never an unbounded thread count or a silent
//! hang — the §5.1 bounded-resources discipline, observed from the
//! outside.

use lepton_corpus::builder::{clean_jpeg, CorpusSpec};
use lepton_server::client::MuxClient;
use lepton_server::{client, serve, Endpoint, Op, ServiceConfig, Status};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

fn spec() -> CorpusSpec {
    CorpusSpec {
        min_dim: 64,
        max_dim: 160,
        ..Default::default()
    }
}

fn tcp_any() -> Endpoint {
    Endpoint::tcp("127.0.0.1:0").unwrap()
}

/// The framed mode's reason to exist: many requests down one
/// connection, answered out of order. A ping pipelined *behind* two
/// compressions must not wait for them.
#[test]
fn mux_pipelines_requests_and_answers_out_of_order() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let jpeg = clean_jpeg(&spec(), 40);

    let mut mux = MuxClient::connect(handle.endpoint(), TIMEOUT).unwrap();
    let c1 = mux.send(Op::Compress, &jpeg).unwrap();
    let c2 = mux.send(Op::Compress, &jpeg).unwrap();
    let ping = mux.send(Op::Ping, &[]).unwrap();

    // Collect in an order unrelated to submission: the ids, not the
    // arrival order, correlate responses.
    let (ps, _) = mux.recv(ping).unwrap();
    assert_eq!(ps, Status::Ok);
    let (s2, lepton2) = mux.recv(c2).unwrap();
    let (s1, lepton1) = mux.recv(c1).unwrap();
    assert_eq!((s1, s2), (Status::Ok, Status::Ok));
    assert_eq!(lepton1, lepton2, "same input, same container");
    assert!(lepton1.len() < jpeg.len());

    // The decode side runs through the same pipe.
    let (ds, back) = mux.call(Op::Decompress, &lepton1).unwrap();
    assert_eq!(ds, Status::Ok);
    assert_eq!(back, jpeg);

    assert_eq!(handle.metrics().served.get(), 3);
    assert_eq!(handle.metrics().failed.get(), 0);
    handle.shutdown();
}

/// A mux connection and a legacy connection are the same service:
/// blobs compressed on one mode decompress on the other, and the
/// legacy protocol is untouched by the mux machinery.
#[test]
fn mux_and_legacy_modes_interoperate() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let jpeg = clean_jpeg(&spec(), 41);

    let lepton = client::compress(handle.endpoint(), &jpeg, TIMEOUT).unwrap();
    let mut mux = MuxClient::connect(handle.endpoint(), TIMEOUT).unwrap();
    let (s, back) = mux.call(Op::Decompress, &lepton).unwrap();
    assert_eq!(s, Status::Ok);
    assert_eq!(back, jpeg);
    handle.shutdown();
}

/// Slow loris: a connection that sends an op byte and then dribbles
/// (or stops) without ever half-closing. It must get a typed
/// `Timeout` within the io deadline — and while it camps, healthy
/// connections keep converting, because the loris pins only its own
/// driver thread, never a shared resource.
#[test]
fn slow_loris_is_timed_out_while_healthy_connections_convert() {
    let cfg = ServiceConfig {
        io_timeout: Duration::from_millis(300),
        ..Default::default()
    };
    let max_connections = cfg.max_connections;
    let handle = serve(&tcp_any(), cfg).unwrap();

    // The loris: op byte, a few payload bytes, then silence.
    let mut loris = handle
        .endpoint()
        .connect(Some(Duration::from_secs(10)))
        .unwrap();
    loris.write_all(b"Cabc").unwrap();
    loris.flush().unwrap();

    // A healthy conversion proceeds underneath it.
    let jpeg = clean_jpeg(&spec(), 42);
    let lepton = client::compress(handle.endpoint(), &jpeg, TIMEOUT).unwrap();
    assert!(lepton.len() < jpeg.len());

    // The loris gets its answer: one status byte, Timeout, within the
    // deadline (with slack for a loaded CI box).
    let t0 = Instant::now();
    let mut status = [0u8; 1];
    loris.read_exact(&mut status).unwrap();
    assert_eq!(Status::from_wire(status[0]), Some(Status::Timeout));
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "typed rejection must arrive promptly, took {:?}",
        t0.elapsed()
    );

    // Thread growth is bounded by the connection cap, loris or not.
    assert!(handle.connections().high_water() <= max_connections as u32);
    handle.shutdown();
}

/// Burst past the admission limit: with one worker (stalled by an
/// injected delay) and a one-slot job queue, a pipelined burst of
/// compressions must shed the overflow with `Overloaded` *immediately*
/// — not after the queue drains — while the admitted requests and
/// other connections complete normally.
#[test]
fn burst_past_admission_limit_is_shed_with_typed_rejections() {
    let cfg = ServiceConfig {
        conversion_workers: 1,
        job_queue_depth: 1,
        ..Default::default()
    };
    let max_connections = cfg.max_connections;
    let handle = serve(&tcp_any(), cfg).unwrap();
    let jpeg = clean_jpeg(&spec(), 43);
    // Stall the single worker so the burst piles onto the queue.
    handle.inject_delay(Duration::from_millis(300));

    let mut mux = MuxClient::connect(handle.endpoint(), TIMEOUT).unwrap();
    const BURST: usize = 6;
    let ids: Vec<u32> = (0..BURST)
        .map(|_| mux.send(Op::Compress, &jpeg).unwrap())
        .collect();

    // Sheds are answered while the worker is still sleeping on the
    // first job: they must not queue behind it.
    let t0 = Instant::now();
    let mut statuses = Vec::new();
    for &id in &ids {
        let (status, _) = mux.recv(id).unwrap();
        statuses.push(status);
    }
    let elapsed = t0.elapsed();

    let ok = statuses.iter().filter(|s| **s == Status::Ok).count();
    let shed = statuses
        .iter()
        .filter(|s| **s == Status::Overloaded)
        .count();
    assert_eq!(
        ok + shed,
        BURST,
        "every frame answered, typed: {statuses:?}"
    );
    // Worker capacity one + queue capacity one: at most 2 admitted
    // jobs can exist at any instant. Frames past that are shed (the
    // driver may race the worker's dequeue, so 2 or 3 can be admitted
    // across the burst, never all).
    assert!(
        shed >= BURST - 3,
        "expected real shedding, got {statuses:?}"
    );
    assert!(ok >= 1, "admitted work completes: {statuses:?}");
    assert!(
        elapsed < Duration::from_secs(10),
        "shed answers must not stack behind the stalled worker: {elapsed:?}"
    );
    assert_eq!(handle.metrics().shed.get(), shed as u64);

    // The service is not wedged: probes answer instantly and a legacy
    // connection's conversion still completes (slowly — the injected
    // delay applies — but typed Ok).
    client::ping(handle.endpoint(), TIMEOUT).unwrap();
    let lepton = client::compress(handle.endpoint(), &jpeg, TIMEOUT).unwrap();
    assert!(lepton.len() < jpeg.len());

    assert!(handle.connections().high_water() <= max_connections as u32);
    handle.shutdown();
}

/// An oversized frame is policed before allocation and answered with
/// a typed `TooLarge` on the reserved id; the connection then closes
/// instead of trying to resynchronize mid-stream.
#[test]
fn oversized_mux_frame_is_rejected_before_allocation() {
    let cfg = ServiceConfig {
        max_request_bytes: 64 << 10,
        ..Default::default()
    };
    let handle = serve(&tcp_any(), cfg).unwrap();

    let mut conn = handle
        .endpoint()
        .connect(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(&[lepton_server::MUX_MAGIC]).unwrap();
    // Frame header claiming a 1 GiB payload.
    let mut header = Vec::new();
    header.extend_from_slice(&7u32.to_le_bytes());
    header.push(b'C');
    header.extend_from_slice(&(1u32 << 30).to_le_bytes());
    conn.write_all(&header).unwrap();
    conn.flush().unwrap();

    let frame = lepton_server::protocol::read_frame(&mut conn, usize::MAX)
        .unwrap()
        .expect("a response frame");
    assert_eq!(
        frame.id,
        u32::MAX,
        "protocol failures answer on the reserved id"
    );
    assert_eq!(Status::from_wire(frame.byte), Some(Status::TooLarge));
    handle.shutdown();
}

/// A framed call over TCP costs a round trip, not a delayed-ACK timer:
/// `write_frame` issues header and payload as two writes, so without
/// `TCP_NODELAY` on both ends every payload-carrying frame stalls
/// ≈ 44 ms (Nagle × delayed ACK; 50 calls ≈ 2.2 s). No blockstore is
/// configured, so each `BlockGet` is answered `BadRequest` at once —
/// what is timed is the wire.
#[test]
fn framed_tcp_calls_with_payload_do_not_wait_on_delayed_ack() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let mut mux = MuxClient::connect(handle.endpoint(), TIMEOUT).unwrap();
    mux.call(Op::Ping, &[]).unwrap(); // connection warm before the clock starts

    let started = Instant::now();
    for _ in 0..50 {
        let (status, _) = mux.call(Op::BlockGet, &[7; 32]).unwrap();
        assert_eq!(status, Status::BadRequest);
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "50 framed calls with a 32-byte payload took {took:?}"
    );
    handle.shutdown();
}

/// Shutdown at the connection cap is prompt: a connection waiting in
/// the backlog behind the one live slot is never served, so no driver
/// starts after the sweep only to wait out its first read's
/// `io_timeout`.
#[test]
fn shutdown_at_the_connection_cap_is_prompt() {
    let cfg = ServiceConfig {
        max_connections: 1,
        io_timeout: Duration::from_secs(30),
        ..Default::default()
    };
    let handle = serve(&tcp_any(), cfg).unwrap();
    // An idle framed client holds the only slot.
    let mut idle = MuxClient::connect(handle.endpoint(), TIMEOUT).unwrap();
    let (status, _) = idle.call(Op::Ping, &[]).unwrap();
    assert_eq!(status, Status::Ok);
    // A second connection waits behind it and never sends a byte.
    let _waiting = handle
        .endpoint()
        .connect(Some(Duration::from_secs(10)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let t0 = Instant::now();
    handle.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "shutdown at the cap took {:?}",
        t0.elapsed()
    );
}
