//! Live `StatsV2` integration: a served workload must show up in the
//! wire snapshot — per-op latency histograms, engine gauges, job
//! traces — and an overload storm must flip the degraded-health flag
//! that the snapshot carries.

use lepton_corpus::builder::{clean_jpeg, CorpusSpec};
use lepton_obs::WatchdogConfig;
use lepton_server::client::MuxClient;
use lepton_server::{client, serve, Endpoint, Op, ServiceConfig, Status};
use std::time::Duration;

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

/// One conversion, then a snapshot over the wire: the op latency
/// histogram, the engine gauges, and the codec's own stage traces are
/// all present and current.
#[test]
fn stats_v2_live_snapshot_reflects_served_work() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let jpeg = clean_jpeg(&spec(), 90);

    let lepton = client::compress(handle.endpoint(), &jpeg, TIMEOUT).unwrap();
    assert!(lepton.len() < jpeg.len());

    let snap = client::probe_snapshot(handle.endpoint(), TIMEOUT).unwrap();

    // Per-op latency: the compression we just ran is in its histogram.
    let lat = snap
        .histogram("server.op.compress.latency_us")
        .expect("compress latency histogram present");
    assert!(lat.count >= 1, "served compress not recorded: {lat:?}");
    assert!(lat.percentile(0.99) >= lat.percentile(0.50));

    // Engine telemetry rides along from the process-global registry.
    assert!(
        snap.get("engine.queue_depth").is_some(),
        "engine gauge missing from merged snapshot"
    );
    // Small inputs may run inline instead of on the worker pool;
    // either way the engine accounted the job.
    assert!(snap.counter("engine.jobs.completed") + snap.counter("engine.inline_jobs") >= 1);

    // The codec recorded a per-job trace with stage breakdown.
    let job = snap
        .histogram("trace.job.compress_us")
        .expect("job trace histogram present");
    assert!(job.count >= 1);
    assert!(
        snap.histogram("trace.stage.arith_encode_us").is_some(),
        "stage histograms missing"
    );

    // Server counters agree with the work done, and health is good.
    assert!(snap.counter("server.served") >= 1);
    assert_eq!(snap.counter("server.failed"), 0);
    assert!(!snap.degraded());
    handle.shutdown();
}

/// A shed storm past the admission limit must latch the watchdog's
/// degraded-health flag within one evaluation window, and the flag
/// must travel the wire in the v2 snapshot header.
#[test]
fn shed_storm_latches_degraded_flag() {
    let cfg = ServiceConfig {
        conversion_workers: 1,
        job_queue_depth: 1,
        watchdog: WatchdogConfig {
            window: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let handle = serve(&tcp_any(), cfg).unwrap();
    let jpeg = clean_jpeg(&spec(), 91);
    // Stall the single worker so the burst piles up and sheds.
    handle.inject_delay(Duration::from_millis(300));

    let mut mux = MuxClient::connect(handle.endpoint(), TIMEOUT).unwrap();
    const BURST: usize = 16;
    let ids: Vec<u32> = (0..BURST)
        .map(|_| mux.send(Op::Compress, &jpeg).unwrap())
        .collect();
    let mut shed = 0;
    for &id in &ids {
        let (status, _) = mux.recv(id).unwrap();
        if status == Status::Overloaded {
            shed += 1;
        }
    }
    // Capacity is worker(1) + queue(1); the rest of the burst shed,
    // comfortably filling one 8-event watchdog window with anomalies.
    assert!(shed >= 8, "expected a real storm, got {shed} sheds");

    assert!(
        handle.degraded(),
        "watchdog must latch degraded within one window of a shed storm"
    );
    let snap = client::probe_snapshot(handle.endpoint(), TIMEOUT).unwrap();
    assert!(snap.degraded(), "degraded flag must travel the v2 wire");
    assert_eq!(snap.gauge("health.degraded"), 1);
    assert!(snap.gauge("watchdog.trips") >= 1);
    handle.shutdown();
}
