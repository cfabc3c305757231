//! Framed `Decompress` bodies leave the server as they decode. Seen
//! from the socket: the same frame as ever, byte for byte; its first
//! decoded byte readable while the conversion is still running; a
//! decode that fails mid-body ends the connection (short frame), never
//! the frame with wrong bytes; and a client that hangs up mid-body
//! cancels the decode and frees everything it held.
//!
//! The big fixtures travel over a Unix-domain socket on purpose: their
//! body is several times the socket buffer, so the server *cannot*
//! finish a response the client is not reading — which turns "still
//! running" and "was cancelled" into facts rather than races.

use lepton_core::format::{packets, read_container};
use lepton_core::{CompressOptions, ThreadPolicy};
use lepton_corpus::builder::{clean_jpeg, CorpusSpec};
use lepton_obs::TraceRing;
use lepton_server::protocol::{read_frame_header, write_frame};
use lepton_server::{
    serve, ClientError, Endpoint, MuxClient, Op, ServiceConfig, ServiceHandle, Status, MUX_MAGIC,
};
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

fn uds(tag: &str) -> Endpoint {
    let mut p = std::env::temp_dir();
    p.push(format!("lepton-stream-{}-{tag}.sock", std::process::id()));
    Endpoint::uds(p)
}

fn compress(jpeg: &[u8], threads: ThreadPolicy) -> Vec<u8> {
    let opts = CompressOptions {
        threads,
        ..Default::default()
    };
    lepton_core::compress(jpeg, &opts).unwrap()
}

/// A JPEG several times any socket buffer, and its one-segment and
/// `Auto` (multi-segment) containers.
fn big() -> &'static (Vec<u8>, Vec<u8>, Vec<u8>) {
    static BIG: OnceLock<(Vec<u8>, Vec<u8>, Vec<u8>)> = OnceLock::new();
    BIG.get_or_init(|| {
        let spec = CorpusSpec {
            min_dim: 1900,
            max_dim: 2000,
            ..Default::default()
        };
        let jpeg = clean_jpeg(&spec, 0);
        assert!(jpeg.len() > 1 << 20, "fixture shrank to {}", jpeg.len());
        let one = compress(&jpeg, ThreadPolicy::Fixed(1));
        let many = compress(&jpeg, ThreadPolicy::Auto);
        assert!(read_container(&many).unwrap().header.segments.len() >= 4);
        (jpeg, one, many)
    })
}

/// Spin (no sleeps) until `done`, failing after [`TIMEOUT`].
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + TIMEOUT;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

fn inflight_bytes(handle: &ServiceHandle) -> i64 {
    handle.registry().gauge("server.inflight_bytes").value()
}

#[test]
fn golden_containers_stream_byte_exact() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../core/tests/golden");
    let handle = serve(&uds("golden"), ServiceConfig::default()).unwrap();
    let mut mux = MuxClient::connect(handle.endpoint(), TIMEOUT).unwrap();
    let mut served = 0;
    for entry in std::fs::read_dir(&golden).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap();
        let Some(stem) = name
            .strip_suffix(".t1.lep")
            .or_else(|| name.strip_suffix(".t4.lep"))
        else {
            continue;
        };
        let jpeg = std::fs::read(golden.join(format!("{stem}.jpg"))).unwrap();
        let mut body = Vec::new();
        let status = mux
            .call_into(Op::Decompress, &std::fs::read(&path).unwrap(), &mut body)
            .unwrap();
        assert_eq!(status, Status::Ok, "{name}");
        assert!(body == jpeg, "{name}: wrong bytes through the stream");
        served += 1;
    }
    assert!(served >= 2, "golden set missing");
    assert_eq!(handle.stats().total_served, served);
    assert_eq!(handle.metrics().stream_aborts.get(), 0);
    handle.shutdown();
}

/// Samples the service's conversion gauge at the moment the byte at
/// `at` (the first one that had to be decoded) has been read.
struct FirstByteProbe<'a> {
    body: Vec<u8>,
    at: usize,
    handle: &'a ServiceHandle,
    active_at_first_byte: Option<u32>,
}

impl Write for FirstByteProbe<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.body.extend_from_slice(buf);
        if self.body.len() > self.at && self.active_at_first_byte.is_none() {
            self.active_at_first_byte = Some(self.handle.gauge().active());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn first_decoded_byte_arrives_while_the_conversion_runs() {
    let (jpeg, _, many) = big();
    let header_len = read_container(many).unwrap().header.jpeg_header.len();
    let handle = serve(&uds("early"), ServiceConfig::default()).unwrap();
    let mut mux = MuxClient::connect(handle.endpoint(), TIMEOUT).unwrap();
    let mut probe = FirstByteProbe {
        body: Vec::new(),
        at: header_len,
        handle: &handle,
        active_at_first_byte: None,
    };
    let status = mux.call_into(Op::Decompress, many, &mut probe).unwrap();
    assert_eq!(status, Status::Ok);
    assert!(probe.body == *jpeg);
    assert_eq!(
        probe.active_at_first_byte,
        Some(1),
        "the first decoded byte must be readable before the decode is done"
    );
    assert_eq!(handle.gauge().active(), 0);
    handle.shutdown();
}

/// `container` with the back half of its arithmetic packets dropped
/// (terminator kept): it parses, demuxes and starts decoding like the
/// original, then runs out of coded data mid-scan.
fn starved_mid_scan(container: &[u8]) -> Vec<u8> {
    let section = read_container(container).unwrap().arith_section;
    let sizes: Vec<usize> = packets(section).map(|p| 4 + p.unwrap().1.len()).collect();
    let kept: usize = sizes[..sizes.len() / 2].iter().sum();
    let mut bad = container[..container.len() - section.len() + kept].to_vec();
    bad.push(0xFF);
    bad
}

#[test]
fn mid_body_failure_aborts_the_connection_not_the_service() {
    let spec = CorpusSpec {
        min_dim: 600,
        max_dim: 700,
        ..Default::default()
    };
    let jpeg = clean_jpeg(&spec, 4);
    let good = compress(&jpeg, ThreadPolicy::Fixed(2));
    let bad = starved_mid_scan(&good);
    assert!(
        lepton_core::decompress(&bad).is_err(),
        "fixture must fail to decode"
    );

    let handle = serve(&uds("abort"), ServiceConfig::default()).unwrap();
    let mut mux = MuxClient::connect(handle.endpoint(), TIMEOUT).unwrap();
    let mut body = Vec::new();
    match mux.call_into(Op::Decompress, &bad, &mut body) {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
        other => panic!("expected a short frame, got {other:?}"),
    }
    assert!(
        !body.is_empty() && body.len() < jpeg.len(),
        "failure must land mid-body ({} of {})",
        body.len(),
        jpeg.len()
    );
    // The aborted connection is dead, the service is not.
    assert!(mux.call(Op::Ping, &[]).is_err());
    assert_eq!(handle.metrics().stream_aborts.get(), 1);
    assert_eq!(handle.stats().total_failed, 1);
    let mut mux = MuxClient::connect(handle.endpoint(), TIMEOUT).unwrap();
    let (status, back) = mux.call(Op::Decompress, &good).unwrap();
    assert_eq!(status, Status::Ok);
    assert!(back == jpeg);
    assert_eq!(handle.metrics().stream_aborts.get(), 1);
    handle.shutdown();
}

#[test]
fn client_hang_up_cancels_the_decode_and_frees_the_worker() {
    let (jpeg, one, many) = big();
    // One worker: if the cancelled job kept it, nothing else is served.
    let cfg = ServiceConfig {
        conversion_workers: 1,
        ..Default::default()
    };
    let handle = serve(&uds("hangup"), cfg).unwrap();
    for (n, container) in [one, many].into_iter().enumerate() {
        let mut conn = handle.endpoint().connect(Some(TIMEOUT)).unwrap();
        conn.write_all(&[MUX_MAGIC]).unwrap();
        write_frame(&mut conn, 7, Op::Decompress.to_wire(), container).unwrap();
        let (id, status, len) = read_frame_header(&mut conn).unwrap().unwrap();
        assert_eq!((id, status, len), (7, Status::Ok.to_wire(), jpeg.len()));
        let mut first = [0u8; 1];
        conn.read_exact(&mut first).unwrap();
        assert_eq!(first[0], jpeg[0]);
        drop(conn); // hang up with a megabyte still owed

        wait_until(
            "the conversion lease and in-flight budget to return",
            || handle.gauge().active() == 0 && inflight_bytes(&handle) == 0,
        );
        wait_until("the engine queue to empty", || {
            lepton_core::Engine::global().queue_depth() == 0
        });
        assert_eq!(handle.metrics().stream_aborts.get(), n as u64 + 1);

        // The decode was cut short, not finished for nobody: its trace
        // closed as cancelled having emitted a fraction of the output.
        // (For the one-segment container the walk runs on the worker
        // itself, in step with the socket: bytes not emitted are MCUs
        // not decoded.)
        let trace = TraceRing::global()
            .recent(usize::MAX)
            .into_iter()
            .rev()
            .find(|t| t.op == "decompress" && t.bytes_in == container.len() as u64)
            .expect("decode traced");
        assert_eq!(trace.outcome, "cancelled");
        assert!(
            trace.bytes_out < jpeg.len() as u64 / 2,
            "cancelled decode still emitted {} of {}",
            trace.bytes_out,
            jpeg.len()
        );

        // The only worker is free again.
        let mut mux = MuxClient::connect(handle.endpoint(), TIMEOUT).unwrap();
        let (status, back) = mux.call(Op::Decompress, container).unwrap();
        assert_eq!(status, Status::Ok);
        assert!(back == *jpeg);
    }
    handle.shutdown();
}
