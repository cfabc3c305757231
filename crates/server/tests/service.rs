//! End-to-end tests of the conversion service over real sockets:
//! Unix-domain and TCP transports, concurrent load, shutoff switch,
//! and malformed traffic.

use lepton_corpus::builder::{clean_jpeg, CorpusSpec};
use lepton_server::protocol::{read_frame, write_frame};
use lepton_server::{client, serve, ClientError, Endpoint, Op, ServiceConfig, Status, MUX_MAGIC};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

    assert_eq!(handle.metrics().served.get(), 2);
    assert_eq!(handle.metrics().failed.get(), 0);
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
    let snap = client::probe_snapshot(handle.endpoint(), TIMEOUT).unwrap();
    assert!(snap.get("server.conversions.active").is_some());
    assert_eq!(snap.gauge("server.conversions.active"), 0);
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
    assert!(handle.metrics().failed.get() >= 2);
    handle.shutdown();
}

/// `S` was the v1 stats op; it is an unknown op now, like `Z`.
#[test]
fn unknown_op_is_bad_request() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    for op in [b'Z', b'S'] {
        let mut conn = handle.endpoint().connect(Some(TIMEOUT)).unwrap();
        conn.write_all(&[op]).unwrap();
        conn.write_all(b"whatever").unwrap();
        conn.shutdown_write().unwrap();
        let mut resp = Vec::new();
        conn.read_to_end(&mut resp).unwrap();
        assert_eq!(
            Status::from_wire(resp[0]),
            Some(Status::BadRequest),
            "op {:?}",
            op as char
        );
    }
    handle.shutdown();
}

/// In framed mode an unknown op is refused under its own frame id and
/// the connection stays usable.
#[test]
fn unknown_op_is_bad_request_in_framed_mode() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let mut conn = handle.endpoint().connect(Some(TIMEOUT)).unwrap();
    conn.write_all(&[MUX_MAGIC]).unwrap();
    write_frame(&mut conn, 7, b'S', &[]).unwrap();
    let refused = read_frame(&mut conn, 1 << 20)
        .unwrap()
        .expect("a reply frame");
    assert_eq!(refused.id, 7);
    assert_eq!(Status::from_wire(refused.byte), Some(Status::BadRequest));
    write_frame(&mut conn, 8, Op::Ping.to_wire(), &[]).unwrap();
    let pong = read_frame(&mut conn, 1 << 20)
        .unwrap()
        .expect("a reply frame");
    assert_eq!(pong.id, 8);
    assert_eq!(Status::from_wire(pong.byte), Some(Status::Ok));
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
    assert_eq!(handle.metrics().served.get(), 16);
    assert!(handle.gauge().high_water() >= 1);
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
fn connection_cap_recycles_slots() {
    // One connection slot, four clients at once: each waits in the
    // accept backlog until the previous driver gives its slot back,
    // and every one is served.
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
    assert_eq!(handle.metrics().served.get(), 4);
    assert_eq!(handle.connections().high_water(), 1);
    handle.shutdown();
}

#[test]
fn queued_conversions_drain_on_shutdown() {
    // One slow worker, four pipelined conversions admitted before
    // shutdown starts: shutdown must complete them all rather than
    // dropping the queue, and every answer must reach the client.
    let cfg = ServiceConfig {
        conversion_workers: 1,
        ..Default::default()
    };
    let handle = serve(&tcp_any(), cfg).unwrap();
    handle.inject_delay(Duration::from_millis(100));
    let jpeg = clean_jpeg(&spec(), 204);
    let mut mux = client::MuxClient::connect(handle.endpoint(), TIMEOUT).unwrap();
    let ids: Vec<u32> = (0..4)
        .map(|_| mux.send(Op::Compress, &jpeg).unwrap())
        .collect();

    // All four frames are admitted once their bytes count in flight.
    let inflight = handle.registry().gauge("server.inflight_bytes");
    let deadline = Instant::now() + TIMEOUT;
    while inflight.value() < 4 * jpeg.len() as i64 {
        assert!(Instant::now() < deadline, "frames never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stopper = std::thread::spawn(move || handle.shutdown());

    for id in ids {
        let (status, lepton) = mux.recv(id).unwrap();
        assert_eq!(status, Status::Ok);
        assert_eq!(lepton_core::decompress(&lepton).unwrap(), jpeg);
    }
    stopper.join().unwrap();
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
