//! End-to-end tests of the conversion service over real sockets:
//! Unix-domain and TCP transports, concurrent load, outsourcing
//! policy, shutoff switch, and malformed traffic.

use lepton_corpus::builder::{clean_jpeg, CorpusSpec};
use lepton_server::{
    client, serve, ClientError, Destination, Endpoint, MuxClient, Op, Router, ServiceConfig,
    Status, Strategy,
};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

fn spec() -> CorpusSpec {
    CorpusSpec {
        min_dim: 64,
        max_dim: 160,
        ..Default::default()
    }
}

fn temp_sock(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lepton-test-{}-{tag}.sock", std::process::id()));
    p
}

fn tcp_any() -> Endpoint {
    Endpoint::tcp("127.0.0.1:0").unwrap()
}

#[test]
fn uds_compress_decompress_roundtrip() {
    let handle = serve(&Endpoint::uds(temp_sock("rt")), ServiceConfig::default()).unwrap();
    let jpeg = clean_jpeg(&spec(), 1);

    let lepton = client::compress(handle.endpoint(), &jpeg, TIMEOUT).unwrap();
    assert!(lepton.len() < jpeg.len(), "service must actually compress");
    let back = client::decompress(handle.endpoint(), &lepton, TIMEOUT).unwrap();
    assert_eq!(back, jpeg, "byte-exact through the socket");

    let stats = handle.stats();
    assert_eq!(stats.total_served, 2);
    assert_eq!(stats.total_failed, 0);
    handle.shutdown();
}

#[test]
fn tcp_transport_carries_same_protocol() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let jpeg = clean_jpeg(&spec(), 2);
    let lepton = client::compress(handle.endpoint(), &jpeg, TIMEOUT).unwrap();
    assert_eq!(
        client::decompress(handle.endpoint(), &lepton, TIMEOUT).unwrap(),
        jpeg
    );
    handle.shutdown();
}

#[test]
fn ping_and_stats_ops() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    client::ping(handle.endpoint(), TIMEOUT).unwrap();
    let stats = client::probe(handle.endpoint(), TIMEOUT).unwrap();
    assert_eq!(stats.active, 0);
    assert_eq!(stats.busy_threshold, 3, "default matches the paper");
    handle.shutdown();
}

#[test]
fn rejections_carry_exit_codes() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    // Not a JPEG at all.
    let err = client::compress(handle.endpoint(), b"plain text, no SOI", TIMEOUT).unwrap_err();
    match err {
        ClientError::Refused(Status::Rejected(code)) => {
            assert_eq!(code.label(), "Not an image");
        }
        other => panic!("expected NotAnImage rejection, got {other:?}"),
    }
    // Garbage with a Lepton decompress op: bad magic.
    let err = client::decompress(handle.endpoint(), b"not a container", TIMEOUT).unwrap_err();
    assert!(matches!(
        err,
        ClientError::Refused(Status::Rejected(_)) | ClientError::Refused(Status::BadRequest)
    ));
    assert!(handle.stats().total_failed >= 2);
    handle.shutdown();
}

#[test]
fn unknown_op_is_bad_request() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let mut conn = handle.endpoint().connect(Some(TIMEOUT)).unwrap();
    conn.write_all(b"Zwhatever").unwrap();
    conn.shutdown_write().unwrap();
    let mut resp = Vec::new();
    conn.read_to_end(&mut resp).unwrap();
    assert_eq!(Status::from_wire(resp[0]), Some(Status::BadRequest));
    handle.shutdown();
}

#[test]
fn oversized_request_is_refused_not_buffered() {
    let cfg = ServiceConfig {
        max_request_bytes: 4096,
        ..Default::default()
    };
    let handle = serve(&tcp_any(), cfg).unwrap();
    let big = vec![0u8; 64 << 10];
    let err = client::compress(handle.endpoint(), &big, TIMEOUT).unwrap_err();
    match err {
        ClientError::Refused(Status::TooLarge) => {}
        // The server may reset the connection as it refuses; both are
        // acceptable refusals of an over-budget payload.
        ClientError::Io(_) => {}
        other => panic!("expected TooLarge/io, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn shutoff_switch_refuses_compress_but_serves_decompress() {
    let switch = {
        let mut p = std::env::temp_dir();
        p.push(format!("lepton-test-{}-shutoff", std::process::id()));
        p
    };
    let _ = std::fs::remove_file(&switch);
    let cfg = ServiceConfig {
        shutoff_file: Some(switch.clone()),
        ..Default::default()
    };
    let handle = serve(&tcp_any(), cfg).unwrap();
    let jpeg = clean_jpeg(&spec(), 3);

    // Switch off: normal service.
    let lepton = client::compress(handle.endpoint(), &jpeg, TIMEOUT).unwrap();

    // Engage the switch (the paper: a file lands in /dev/shm and takes
    // effect within seconds, §5.7).
    std::fs::write(&switch, b"on").unwrap();
    let err = client::compress(handle.endpoint(), &jpeg, TIMEOUT).unwrap_err();
    assert!(matches!(err, ClientError::Refused(Status::Shutdown)));
    // Decodes keep working: reads are never sacrificed.
    assert_eq!(
        client::decompress(handle.endpoint(), &lepton, TIMEOUT).unwrap(),
        jpeg
    );
    assert_eq!(handle.metrics().shutoff_refusals.get(), 1);

    // Disengage: service resumes within one request.
    std::fs::remove_file(&switch).unwrap();
    client::compress(handle.endpoint(), &jpeg, TIMEOUT).unwrap();
    handle.shutdown();
}

#[test]
fn concurrent_clients_all_roundtrip() {
    let handle = Arc::new(serve(&tcp_any(), ServiceConfig::default()).unwrap());
    let jpegs: Vec<Vec<u8>> = (0..8).map(|s| clean_jpeg(&spec(), 100 + s)).collect();
    let mut threads = Vec::new();
    for jpeg in jpegs {
        let ep = handle.endpoint().clone();
        threads.push(std::thread::spawn(move || {
            let lepton = client::compress(&ep, &jpeg, TIMEOUT).unwrap();
            let back = client::decompress(&ep, &lepton, TIMEOUT).unwrap();
            assert_eq!(back, jpeg);
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let stats = handle.stats();
    assert_eq!(stats.total_served, 16);
    assert!(stats.high_water >= 1);
    Arc::try_unwrap(handle).ok().unwrap().shutdown();
}

#[test]
fn graceful_shutdown_then_connection_refused() {
    let path = temp_sock("gs");
    let handle = serve(&Endpoint::uds(&path), ServiceConfig::default()).unwrap();
    let ep = handle.endpoint().clone();
    client::ping(&ep, TIMEOUT).unwrap();
    handle.shutdown();
    // Socket file is gone; connecting must fail.
    assert!(client::ping(&ep, Duration::from_millis(200)).is_err());
    assert!(!path.exists());
}

#[test]
fn router_stays_local_under_light_load() {
    let local = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let remote = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let router = Router::new(
        local.endpoint().clone(),
        vec![remote.endpoint().clone()],
        vec![],
        Strategy::ToSelf,
        3,
        TIMEOUT,
    );
    let jpeg = clean_jpeg(&spec(), 4);
    let (lepton, dest) = router.compress(&jpeg).unwrap();
    assert_eq!(dest, Destination::Local, "idle machine keeps its work");
    assert_eq!(lepton_core::decompress(&lepton).unwrap(), jpeg);
    assert_eq!(remote.stats().total_served, 0);
    local.shutdown();
    remote.shutdown();
}

/// Keeps conversions running on `ep` until [`BusyLoad::join`]. The
/// gauge only counts running conversions, so the load is real work:
/// `n` framed connections, each compressing a large input over and
/// over, always with its next request already queued at the service —
/// a worker that finishes one picks up another at once, so the gauge
/// does not dip between them for a probe to catch.
struct BusyLoad {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl BusyLoad {
    fn start(ep: &Endpoint, n: usize) -> BusyLoad {
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        for s in 0..n {
            let (ep, stop) = (ep.clone(), Arc::clone(&stop));
            threads.push(std::thread::spawn(move || {
                let big = CorpusSpec {
                    min_dim: 640,
                    max_dim: 900,
                    ..Default::default()
                };
                let jpeg = clean_jpeg(&big, 7000 + s as u64);
                let mut mux = MuxClient::connect(&ep, TIMEOUT).unwrap();
                let mut running = mux.send(Op::Compress, &jpeg).unwrap();
                while !stop.load(Ordering::SeqCst) {
                    let queued = mux.send(Op::Compress, &jpeg).unwrap();
                    let _ = mux.recv(running);
                    running = queued;
                }
                let _ = mux.recv(running);
            }));
        }
        BusyLoad { stop, threads }
    }

    /// Release the load and wait for its last conversions.
    fn join(self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads {
            t.join().unwrap();
        }
    }
}

#[test]
fn router_outsources_when_local_is_saturated() {
    // Local server with enough workers that the gauge can exceed the
    // threshold of 0 the moment any conversion is in flight.
    let local = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let dedicated = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let router = Router::new(
        local.endpoint().clone(),
        vec![],
        vec![dedicated.endpoint().clone()],
        Strategy::ToDedicated,
        0, // outsource the moment anything is running locally
        TIMEOUT,
    );

    // Saturate local, then route while it is busy.
    let load = BusyLoad::start(local.endpoint(), 2);
    // Wait until the gauge actually shows in-flight work.
    let deadline = std::time::Instant::now() + TIMEOUT;
    while local.gauge().active() == 0 {
        assert!(std::time::Instant::now() < deadline, "load never arrived");
        std::thread::yield_now();
    }

    let jpeg = clean_jpeg(&spec(), 5);
    let (lepton, dest) = router.compress(&jpeg).unwrap();
    assert!(
        matches!(dest, Destination::Outsourced(_)),
        "busy local machine must outsource (got {dest:?})"
    );
    assert_eq!(lepton_core::decompress(&lepton).unwrap(), jpeg);
    assert!(dedicated.stats().total_served >= 1);
    assert_eq!(
        router
            .metrics
            .outsourced
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    load.join();
    local.shutdown();
    dedicated.shutdown();
}

#[test]
fn router_two_choices_picks_lighter_remote() {
    // Remote A is saturated by held conversions; remote B idle. The
    // two-choice probe must pick B.
    let local = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let remote_a = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let remote_b = serve(&tcp_any(), ServiceConfig::default()).unwrap();

    let load_local = BusyLoad::start(local.endpoint(), 2);
    let load_a = BusyLoad::start(remote_a.endpoint(), 3);
    let deadline = std::time::Instant::now() + TIMEOUT;
    while local.gauge().active() == 0 || remote_a.gauge().active() == 0 {
        assert!(std::time::Instant::now() < deadline, "load never arrived");
        std::thread::yield_now();
    }

    let router = Router::new(
        local.endpoint().clone(),
        vec![remote_a.endpoint().clone(), remote_b.endpoint().clone()],
        vec![],
        Strategy::ToSelf,
        0,
        TIMEOUT,
    );
    let jpeg = clean_jpeg(&spec(), 6);
    let (_, dest) = router.compress(&jpeg).unwrap();
    assert_eq!(
        dest,
        Destination::Outsourced(remote_b.endpoint().clone()),
        "power of two choices must prefer the idle machine"
    );

    load_local.join();
    load_a.join();
    local.shutdown();
    remote_a.shutdown();
    remote_b.shutdown();
}

#[test]
fn router_falls_back_to_local_when_remotes_are_dead() {
    let local = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    // A dead endpoint: bind then immediately shut down to free the port.
    let dead = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let dead_ep = dead.endpoint().clone();
    dead.shutdown();

    let load = BusyLoad::start(local.endpoint(), 2);
    let deadline = std::time::Instant::now() + TIMEOUT;
    while local.gauge().active() == 0 {
        assert!(std::time::Instant::now() < deadline, "load never arrived");
        std::thread::yield_now();
    }

    let router = Router::new(
        local.endpoint().clone(),
        vec![dead_ep],
        vec![],
        Strategy::ToSelf,
        0,
        Duration::from_secs(5),
    );
    let jpeg = clean_jpeg(&spec(), 7);
    let (lepton, dest) = router.compress(&jpeg).unwrap();
    assert_eq!(dest, Destination::Local, "no remote ⇒ run it here");
    assert_eq!(lepton_core::decompress(&lepton).unwrap(), jpeg);

    load.join();
    local.shutdown();
}

#[test]
fn queued_conversions_drain_on_shutdown() {
    // One worker, several queued conversions: shutdown must complete
    // them all rather than dropping the queue.
    let cfg = ServiceConfig {
        max_connections: 1,
        ..Default::default()
    };
    let handle = serve(&tcp_any(), cfg).unwrap();
    let ep = handle.endpoint().clone();
    let mut threads = Vec::new();
    for s in 0..4 {
        let ep = ep.clone();
        threads.push(std::thread::spawn(move || {
            let jpeg = clean_jpeg(&spec(), 200 + s);
            let lepton = client::compress(&ep, &jpeg, TIMEOUT).unwrap();
            assert_eq!(lepton_core::decompress(&lepton).unwrap(), jpeg);
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(handle.stats().total_served, 4);
    handle.shutdown();
}

#[test]
fn blockstore_ops_over_the_socket() {
    use lepton_storage::blockstore::{ShardedStore, StoreConfig};

    let root = std::env::temp_dir().join(format!("lepton-svc-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Arc::new(ShardedStore::open(&root, StoreConfig::default()).unwrap());
    let cfg = ServiceConfig {
        blockstore: Some(Arc::clone(&store)),
        ..Default::default()
    };
    let handle = serve(&Endpoint::uds(temp_sock("bs")), cfg).unwrap();
    let ep = handle.endpoint();

    // JPEG block: stored transparently, address is the content hash.
    let jpeg = clean_jpeg(&spec(), 31);
    let key = client::block_put(ep, &jpeg, TIMEOUT).unwrap();
    assert_eq!(client::block_get(ep, &key, TIMEOUT).unwrap().unwrap(), jpeg);

    // Non-JPEG block round-trips too.
    let blob = b"opaque user bytes".repeat(100);
    let bkey = client::block_put(ep, &blob, TIMEOUT).unwrap();
    assert_eq!(
        client::block_get(ep, &bkey, TIMEOUT).unwrap().unwrap(),
        blob
    );

    // Missing address is NotFound, surfaced as Ok(None).
    assert_eq!(client::block_get(ep, &[0u8; 32], TIMEOUT).unwrap(), None);

    // Stat reflects both blocks and the compression that happened.
    let stat = client::block_stat(ep, TIMEOUT).unwrap();
    assert_eq!(stat.blocks, 2);
    assert_eq!(stat.lepton_blocks, 1);
    assert!(stat.stored_bytes < stat.logical_bytes, "{stat:?}");

    // The service shares the store with its host process.
    assert!(store.contains(&key));

    // Malformed get (wrong key size) is a BadRequest, not a hang. The
    // typed client cannot send one, so speak wire bytes directly.
    let mut conn = ep.connect(Some(TIMEOUT)).unwrap();
    conn.write_all(b"Gshort").unwrap();
    conn.shutdown_write().unwrap();
    let mut resp = Vec::new();
    conn.read_to_end(&mut resp).unwrap();
    assert_eq!(Status::from_wire(resp[0]), Some(Status::BadRequest));
    handle.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn shutoff_switch_lands_block_puts_raw() {
    use lepton_storage::blockstore::{ShardedStore, StoreConfig};
    use lepton_storage::StoredFormat;

    let root = std::env::temp_dir().join(format!("lepton-svc-shutoff-bs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let switch = std::env::temp_dir().join(format!("lepton-svc-bs-switch-{}", std::process::id()));
    let _ = std::fs::remove_file(&switch);
    let store = Arc::new(ShardedStore::open(&root, StoreConfig::default()).unwrap());
    let cfg = ServiceConfig {
        blockstore: Some(Arc::clone(&store)),
        shutoff_file: Some(switch.clone()),
        ..Default::default()
    };
    let handle = serve(&Endpoint::uds(temp_sock("bs-off")), cfg).unwrap();
    let ep = handle.endpoint();
    let jpeg = clean_jpeg(&spec(), 41);

    // Switch engaged: the put is accepted (durability first) but the
    // codec must not run — the block lands raw.
    std::fs::write(&switch, b"on").unwrap();
    let key = client::block_put(ep, &jpeg, TIMEOUT).unwrap();
    assert_eq!(store.format_of(&key).unwrap(), Some(StoredFormat::Raw));
    assert_eq!(client::block_get(ep, &key, TIMEOUT).unwrap().unwrap(), jpeg);

    // Switch released: backfill converts the stranded block in place.
    std::fs::remove_file(&switch).unwrap();
    let report = store.backfill(2).unwrap();
    assert_eq!(report.converted, 1);
    assert_eq!(store.format_of(&key).unwrap(), Some(StoredFormat::Lepton));
    assert_eq!(client::block_get(ep, &key, TIMEOUT).unwrap().unwrap(), jpeg);
    handle.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn block_ops_without_store_are_bad_requests() {
    let handle = serve(
        &Endpoint::uds(temp_sock("nostore")),
        ServiceConfig::default(),
    )
    .unwrap();
    match client::block_put(handle.endpoint(), b"data", TIMEOUT) {
        Err(ClientError::Refused(Status::BadRequest)) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
    match client::block_stat(handle.endpoint(), TIMEOUT) {
        Err(ClientError::Refused(Status::BadRequest)) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
    handle.shutdown();
}
