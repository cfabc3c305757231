//! Fleet harness: the consistent-hash gateway over live blockserver
//! nodes, measured end to end over real sockets (§5.5/§5.6 as a
//! *fleet*, not a machine).
//!
//! Reports, in both human and JSON form:
//! * replicated put/get throughput as the node count grows,
//! * failover read latency: healthy reads vs the first read after a
//!   node dies (pays the discovery cost) vs reads after ejection
//!   (dead node skipped entirely),
//! * rebalance movement when a node joins — blocks moved should be
//!   ~K·R/N, not a reshuffle,
//! * the measured rates projected onto larger fleets and priced in
//!   the §5.6.1 economics units via `cluster::fleet`.
//!
//! Quick mode (`LEPTON_BENCH_FILES`, CI smoke sets 3) bounds the
//! corpus; node counts stay ≤3 so the harness is laptop- and
//! CI-friendly either way.

use lepton_bench::json::{emit, Json};
use lepton_bench::{bench_file_count, header, mbps, timed};
use lepton_cluster::fleet::MeasuredFleet;
use lepton_corpus::builder::{clean_jpeg, CorpusSpec};
use lepton_fleet::{rebalance, FleetConfig, FleetGateway, HealthPolicy, LocalFleet};
use lepton_obs::nearest_rank;
use lepton_server::client::RetryPolicy;
use lepton_server::ServiceConfig;
use lepton_storage::blockstore::StoreConfig;
use lepton_storage::sha256::Digest;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Replication factor under test.
const REPLICAS: usize = 2;
/// Node counts for the throughput sweep (quick mode and CI cap at 3
/// nodes; a single process hosts them all, so bigger sweeps measure
/// scheduler contention, not fleet behavior).
const NODE_COUNTS: [usize; 3] = [1, 2, 3];

fn temp_root(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("lepton-fig15-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("mkdir");
    p
}

fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        replicas: REPLICAS,
        timeout: Duration::from_secs(30),
        retry: RetryPolicy {
            attempts: 2,
            initial_backoff: Duration::from_millis(5),
            multiplier: 2,
            max_backoff: Duration::from_millis(20),
            jitter: Some(0xF15),
        },
        health: HealthPolicy {
            eject_after: 2,
            probation: Duration::from_secs(300),
        },
        ..Default::default()
    }
}

/// JPEG blocks sized like user photo chunks (scaled down for CI).
fn corpus(n: usize) -> Vec<Vec<u8>> {
    (0..n as u64)
        .map(|seed| {
            let dim = 80 + (seed as usize * 37) % 160;
            let spec = CorpusSpec {
                min_dim: dim,
                max_dim: dim + 32,
                ..Default::default()
            };
            clean_jpeg(&spec, seed)
        })
        .collect()
}

fn spawn(tag: &str, nodes: usize) -> (PathBuf, LocalFleet) {
    let root = temp_root(tag);
    let fleet = LocalFleet::spawn(
        &root,
        nodes,
        &StoreConfig {
            shards: 4,
            ..Default::default()
        },
        &ServiceConfig::default(),
    )
    .expect("spawn fleet");
    (root, fleet)
}

fn main() {
    header(
        "Fleet",
        "consistent-hash gateway over live nodes: throughput, failover, rebalance",
    );
    let n = bench_file_count(16);
    let blocks = corpus(n);
    let total_bytes: usize = blocks.iter().map(|b| b.len()).sum();
    println!(
        "corpus: {} blocks, {} bytes; R={REPLICAS}\n",
        blocks.len(),
        total_bytes
    );

    // ---- Throughput vs node count -----------------------------------
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10}",
        "nodes", "puts/s", "put Mb/s", "gets/s", "get Mb/s"
    );
    let mut scaling = Vec::new();
    let mut last_rates = (0.0f64, 0.0f64, 0.0f64); // puts/s, put secs, get secs
    let mut measured_savings = 0.0f64;
    for &nodes in &NODE_COUNTS {
        let (root, fleet) = spawn(&format!("tp{nodes}"), nodes);
        let gw = FleetGateway::new(fleet.members().to_vec(), fleet_cfg());
        let (keys, put_secs) = timed(|| {
            blocks
                .iter()
                .map(|b| gw.put(b).expect("put"))
                .collect::<Vec<Digest>>()
        });
        let (_, get_secs) = timed(|| {
            for k in &keys {
                let out = gw.get(k).expect("get").expect("present");
                std::hint::black_box(out.len());
            }
        });
        let puts_per_sec = blocks.len() as f64 / put_secs.max(1e-9);
        let gets_per_sec = keys.len() as f64 / get_secs.max(1e-9);
        println!(
            "{:>6} {:>10.1} {:>10.0} {:>10.1} {:>10.0}",
            nodes,
            puts_per_sec,
            mbps(total_bytes, put_secs),
            gets_per_sec,
            mbps(total_bytes, get_secs)
        );
        scaling.push(Json::obj([
            ("nodes", Json::from(nodes)),
            ("puts_per_sec", Json::from(puts_per_sec)),
            ("put_mbps", Json::from(mbps(total_bytes, put_secs))),
            ("gets_per_sec", Json::from(gets_per_sec)),
            ("get_mbps", Json::from(mbps(total_bytes, get_secs))),
        ]));
        last_rates = (puts_per_sec, put_secs, get_secs);
        // At-rest savings actually achieved by this fleet on this
        // corpus — what the economics stage prices.
        measured_savings = gw.stat().savings();
        let _ = std::fs::remove_dir_all(&root);
    }

    // ---- Failover latency -------------------------------------------
    // 3 nodes, R=2: measure per-get latency healthy, then kill a node
    // and measure the first pass (pays connect errors + read-repair)
    // and a second pass (dead node ejected, reads go straight to the
    // survivor).
    let (root, mut fleet) = spawn("failover", 3);
    let gw = FleetGateway::new(fleet.members().to_vec(), fleet_cfg());
    let keys: Vec<Digest> = blocks.iter().map(|b| gw.put(b).expect("put")).collect();

    let lat_ms = |gw: &FleetGateway, keys: &[Digest]| -> Vec<f64> {
        keys.iter()
            .map(|k| {
                let t0 = Instant::now();
                let out = gw.get(k).expect("get").expect("present");
                std::hint::black_box(out.len());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    };
    // Warm every node's decoded-block cache first so the phases
    // compare routing cost, not the server's cold-decode cost.
    let _ = lat_ms(&gw, &keys);
    let mut healthy = lat_ms(&gw, &keys);
    // Kill the node that is primary for the most keys, so the corpus
    // (which may be tiny in quick mode) is guaranteed to exercise the
    // failover path.
    let victim = (0..3usize)
        .max_by_key(|&i| keys.iter().filter(|k| gw.replica_set(k)[0] == i).count())
        .expect("three nodes");
    let victim_primaries = keys
        .iter()
        .filter(|k| gw.replica_set(k)[0] == victim)
        .count();
    fleet.kill(victim);
    let mut first = lat_ms(&gw, &keys); // discovery + ejection + repair
    let mut after = lat_ms(&gw, &keys); // dead node skipped

    let p50_p99 = |samples: &mut Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        (nearest_rank(samples, 50.0), nearest_rank(samples, 99.0))
    };
    let (h50, h99) = p50_p99(&mut healthy);
    let (f50, f99) = p50_p99(&mut first);
    let (a50, a99) = p50_p99(&mut after);
    println!(
        "\nfailover read latency (3 nodes, kill node {victim} — primary for \
         {victim_primaries} of {} keys):",
        keys.len()
    );
    println!("{:>22} {:>9} {:>9}", "phase", "p50 ms", "p99 ms");
    println!("{:>22} {:>9.2} {:>9.2}", "healthy", h50, h99);
    println!("{:>22} {:>9.2} {:>9.2}", "first pass after kill", f50, f99);
    println!("{:>22} {:>9.2} {:>9.2}", "after ejection", a50, a99);
    println!(
        "failovers {}, read repairs {}, ejections {}",
        gw.metrics.failovers.get(),
        gw.metrics.read_repairs.get(),
        gw.metrics.ejections.get(),
    );
    let failover = Json::obj([
        ("healthy_p50_ms", Json::from(h50)),
        ("healthy_p99_ms", Json::from(h99)),
        ("first_pass_p50_ms", Json::from(f50)),
        ("first_pass_p99_ms", Json::from(f99)),
        ("after_eject_p50_ms", Json::from(a50)),
        ("after_eject_p99_ms", Json::from(a99)),
        ("failovers", Json::from(gw.metrics.failovers.get())),
        ("read_repairs", Json::from(gw.metrics.read_repairs.get())),
    ]);
    let _ = std::fs::remove_dir_all(&root);

    // ---- Rebalance movement on a node join --------------------------
    // K blocks on 2 nodes at R=2 (every node holds everything); add a
    // third and rebalance: ideal movement is K·R/3 copies.
    let (root, fleet) = spawn("join", 3);
    let two: Vec<_> = fleet.members()[..2].to_vec();
    let gw2 = FleetGateway::new(two, fleet_cfg());
    for b in &blocks {
        gw2.put(b).expect("put");
    }
    let gw3 = FleetGateway::new(fleet.members().to_vec(), fleet_cfg());
    let report = rebalance(&gw3);
    let ideal = blocks.len() as f64 * REPLICAS as f64 / 3.0;
    println!(
        "\nrebalance after 2->3 join: moved {} of {} ideal ({} keys, {} bytes, {:.2}s)",
        report.blocks_moved, ideal as u64, report.keys, report.bytes_moved, report.secs
    );
    let second = rebalance(&gw3);
    println!("second pass moves {} (idempotent)", second.blocks_moved);
    let rebalance_json = Json::obj([
        ("keys", Json::from(report.keys)),
        ("blocks_moved", Json::from(report.blocks_moved)),
        ("ideal_moved", Json::from(ideal)),
        ("bytes_moved", Json::from(report.bytes_moved)),
        ("secs", Json::from(report.secs)),
        ("second_pass_moved", Json::from(second.blocks_moved)),
    ]);
    let _ = std::fs::remove_dir_all(&root);

    // ---- Fleet economics from measured rates ------------------------
    let (puts_per_sec, put_secs, get_secs) = last_rates;
    let measured = MeasuredFleet::from_run(
        blocks.len() as u64,
        put_secs,
        blocks.len() as u64,
        get_secs,
        *NODE_COUNTS.last().expect("non-empty"),
        REPLICAS,
        total_bytes as u64,
        measured_savings,
    );
    let eco = measured.economics(288.0);
    let projected = measured.capacity(100);
    println!(
        "\ncluster model, measured rates: {:.0} ingests/kWh, {:.2} GiB saved/kWh, \
         {:.2} bytes stored per logical byte",
        eco.conversions_per_kwh,
        eco.gib_saved_per_kwh(),
        measured.stored_per_logical_byte()
    );
    println!(
        "projected 100-node fleet: {:.0} puts/s, {:.0} gets/s, {:.0} Mbit/s ingest",
        projected.puts_per_sec,
        projected.gets_per_sec,
        projected.logical_bytes_per_sec * 8.0 / 1e6
    );

    emit(
        "fig15_fleet",
        [
            ("blocks", Json::from(blocks.len())),
            ("bytes", Json::from(total_bytes)),
            ("replicas", Json::from(REPLICAS)),
            ("scaling", Json::Arr(scaling)),
            ("failover", failover),
            ("rebalance", rebalance_json),
            (
                "economics_measured",
                Json::obj([
                    ("puts_per_sec_3_nodes", Json::from(puts_per_sec)),
                    ("ingests_per_kwh", Json::from(eco.conversions_per_kwh)),
                    ("gib_saved_per_kwh", Json::from(eco.gib_saved_per_kwh())),
                    (
                        "stored_per_logical_byte",
                        Json::from(measured.stored_per_logical_byte()),
                    ),
                ]),
            ),
        ],
    );
}
