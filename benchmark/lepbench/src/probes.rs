//! Isolated replays of the `storage` and `server` layers, shared by
//! the workloads that have those layers on their path.

use crate::countvfs::VfsSnapshot;
use crate::layers::{timed, us, Layers};
use crate::stats::median;
use crate::wire::FramedConn;
use lepton_server::{client, Endpoint, Op, ServiceHandle};
use lepton_storage::blockstore::{ShardedStore, StoreConfig};
use lepton_storage::sha256::sha256;
use std::path::Path;
use std::time::Duration;

/// Socket timeout for every benchmark connection.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Direct `ShardedStore` calls on a private store: put, cold get,
/// cached get (p50 each), and the content hash's cost per byte.
pub fn storage_probes(blocks: &[&[u8]], out: &mut Layers) {
    let root = Path::new("probe-store");
    let _ = std::fs::remove_dir_all(root);
    let store = ShardedStore::open(root, StoreConfig::default()).expect("open probe store");
    let (mut put, mut miss, mut hit) = (Vec::new(), Vec::new(), Vec::new());
    for block in blocks {
        let (key, d) = timed(|| store.put(block).expect("probe put"));
        put.push(us(d));
        let (got, d) = timed(|| store.get(&key));
        miss.push(us(d));
        assert!(crate::check::served(&got, block), "probe store read");
        let (_, d) = timed(|| store.get(&key));
        hit.push(us(d));
    }
    drop(store);
    let _ = std::fs::remove_dir_all(root);
    out.set("storage.put_us", median(&put));
    out.set("storage.get_miss_us", median(&miss));
    out.set("storage.get_hit_us", median(&hit));

    let buf = crate::gen::Rng::new(0x5A, 0).bytes(1 << 20);
    let rounds = 8;
    let (_, d) = timed(|| {
        for _ in 0..rounds {
            std::hint::black_box(sha256(std::hint::black_box(&buf)));
        }
    });
    out.set(
        "storage.sha256_ns_per_byte",
        d.as_nanos() as f64 / (rounds * buf.len()) as f64,
    );
}

/// What the workload's own stores did at the filesystem boundary
/// since `base`: `records` block records written carrying
/// `logical_bytes` of originals as `stored_bytes` of payload.
pub fn vfs_report(
    base: &VfsSnapshot,
    now: &VfsSnapshot,
    records: u64,
    logical_bytes: u64,
    stored_bytes: u64,
    out: &mut Layers,
) {
    let fsyncs = now.fsyncs - base.fsyncs;
    let written = now.bytes_written - base.bytes_written;
    let opens = now.opens - base.opens;
    if records > 0 {
        out.set("storage.fsyncs_per_put", fsyncs as f64 / records as f64);
        out.set(
            "storage.record_overhead_bytes",
            written.saturating_sub(stored_bytes) as f64 / records as f64,
        );
    }
    if logical_bytes > 0 {
        out.set("storage.write_amp", written as f64 / logical_bytes as f64);
    }
    if fsyncs > 0 {
        out.set(
            "storage.fsync_us",
            (now.fsync_ns - base.fsync_ns) as f64 / 1e3 / fsyncs as f64,
        );
    }
    if opens > 0 {
        out.set(
            "storage.read_us",
            (now.read_ns - base.read_ns) as f64 / 1e3 / opens as f64,
        );
    }
}

/// p50 round trip of `op` over an open framed connection.
pub fn rtt_us(conn: &mut FramedConn, op: Op, payload: &[u8], reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| us(conn.call(op, payload, 0).expect("probe call").total))
        .collect();
    median(&samples)
}

/// Liveness round trip over the mux, and what a legacy one-shot
/// connection adds to it (connect + accept + teardown).
pub fn server_probes(ep: &Endpoint, out: &mut Layers) {
    let mut conn = FramedConn::connect(ep, IO_TIMEOUT).expect("probe connect");
    let ping = rtt_us(&mut conn, Op::Ping, &[], 1000);
    out.set("server.ping_rtt_us", ping);
    let oneshot: Vec<f64> = (0..200)
        .map(|_| us(timed(|| client::ping(ep, IO_TIMEOUT).expect("probe ping")).1))
        .collect();
    out.set("server.connect_us", (median(&oneshot) - ping).max(0.0));
}

/// Server-side p50 service time of `op`, and the shed / failed counts,
/// summed over `handles`.
pub fn service_report<'a>(
    handles: impl Iterator<Item = &'a ServiceHandle>,
    op: Op,
    out: &mut Layers,
) {
    let (mut shed, mut failed) = (0, 0);
    let mut p50 = Vec::new();
    for h in handles {
        shed += h.metrics().shed.get();
        failed += h.metrics().failed.get();
        let hist = h
            .registry()
            .histogram(&format!("server.op.{}.latency_us", op.name()));
        if hist.count() > 0 {
            p50.push(hist.percentile(50.0) as f64);
        }
    }
    out.set("server.op_service_us", median(&p50));
    out.set("server.shed", shed as f64);
    out.set("server.failed", failed as f64);
}

/// Microseconds every op of a service has spent in service, from its
/// own per-op latency histograms.
pub fn service_us(handle: &ServiceHandle) -> u64 {
    Op::ALL
        .iter()
        .map(|op| {
            handle
                .registry()
                .histogram(&format!("server.op.{}.latency_us", op.name()))
                .sum()
        })
        .sum()
}
