//! Trace replay against the live serving core (DESIGN §3.4): the
//! Fig. 10 question — what happens to read tails when one machine goes
//! slow — answered with real sockets instead of the simulator.
//!
//! A zipf/diurnal week with the Fig. 14 stored-fraction ramp
//! (`cluster::workload`) runs against a 3-node `LocalFleet` behind a
//! `FleetGateway` in three phases: **healthy** (the whole trace, the
//! baseline); **incident, serial reads** (the busiest primary slowed
//! for the §6.5 failover-to-diagnosis window of a read segment); and
//! **incident, hedged reads** (the same, with a hedge to the next
//! replica after a small budget). The claim under test: hedging keeps
//! the incident p99 within 5x the healthy baseline, serial reads do
//! not. Quick mode (`LEPTON_BENCH_FILES`) replays files x 1000
//! requests; the full run replays 100,000.

use super::{busiest_primary, gateway, get_ms, spawn_fleet, REPLICAS};
use crate::json::{Fields, Json};
use crate::{bench_file_count, clean_jpeg_near, ranks};
use lepton_cluster::incident::SafetyNetScenario;
use lepton_cluster::workload::WEEK;
use lepton_cluster::{WorkloadConfig, WorkloadPhase, Zipf};
use lepton_fleet::{FleetGateway, LocalFleet};
use lepton_storage::sha256::Digest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const NODES: usize = 3;
const SEED: u64 = 10;

/// One request in the replay trace.
struct Request {
    /// Read (block get) or write (block put)?
    read: bool,
    /// Catalog index of the block touched.
    key: usize,
}

/// Generate the replay trace: Poisson arrivals under the diurnal/weekly
/// curve, decode:encode mix per §5.4 with the Fig. 14 stored-fraction
/// ramp (0.25 -> 1.0 across the simulated week), keys zipf-popular.
fn build_trace(requests: usize, catalog: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let zipf = Zipf::new(catalog, 1.0);
    let mut w = WorkloadConfig {
        phase: WorkloadPhase::EarlyRollout,
        lepton_stored_fraction: 0.25,
        // Scale the arrival rate so ~`requests` arrivals span the week
        // (mean diurnal factor ~1.55, mean decode:encode ~0.85).
        base_encode_rate: requests as f64 / (WEEK * 2.9),
    };
    let mut t = 0.0f64;
    let mut trace = Vec::with_capacity(requests);
    for _ in 0..requests {
        // Fig. 14 ramp: the Lepton-stored fraction grows linearly over
        // the trace, pulling the decode share up with it.
        w.lepton_stored_fraction = 0.25 + 0.75 * (t / WEEK).min(1.0);
        let encodes = w.encode_rate(t);
        let decodes = w.decode_rate(t);
        t += WorkloadConfig::next_gap(&mut rng, encodes + decodes);
        let read = rng.gen_range(0.0..1.0) < decodes / (encodes + decodes);
        trace.push(Request {
            read,
            key: zipf.sample(&mut rng),
        });
    }
    trace
}

/// Replay a read-only segment, slowing `victim` for the incident window
/// (a fraction of the segment, timed like the §6.5 outage: slowness
/// starts at the failover and lasts through diagnosis). Returns per-read
/// latency in ms.
fn replay_reads(
    gw: &FleetGateway,
    fleet: &LocalFleet,
    keys: &[Digest],
    segment: &[usize],
    victim: usize,
    delay: Duration,
    window: (f64, f64),
) -> Vec<f64> {
    let n = segment.len();
    let start = (window.0 * n as f64) as usize;
    let end = (window.1 * n as f64) as usize;
    let mut out = Vec::with_capacity(n);
    for (i, &ki) in segment.iter().enumerate() {
        if i == start {
            fleet.inject_delay(victim, delay);
        }
        if i == end {
            fleet.inject_delay(victim, Duration::ZERO);
        }
        out.push(get_ms(gw, &keys[ki]));
    }
    fleet.inject_delay(victim, Duration::ZERO);
    out
}

/// Flatten a registry snapshot into a JSON object: counters as
/// numbers, gauges as `{value, high_water}`, histograms as their
/// count/mean/tail summary — the full telemetry record of the replay.
fn snapshot_json(snap: &lepton_obs::Snapshot) -> Json {
    Json::obj(snap.entries.iter().map(|(name, v)| {
        let value = match v {
            lepton_obs::MetricValue::Counter(c) => Json::from(*c),
            lepton_obs::MetricValue::Gauge { value, high_water } => Json::obj([
                ("value", Json::from(*value)),
                ("high_water", Json::from(*high_water)),
            ]),
            lepton_obs::MetricValue::Histogram(h) => Json::obj([
                ("count", Json::from(h.count)),
                ("mean", Json::from(h.mean())),
                ("p50", Json::from(h.percentile(0.50))),
                ("p99", Json::from(h.percentile(0.99))),
                ("p999", Json::from(h.percentile(0.999))),
            ]),
        };
        (name.clone(), value)
    }))
}

/// The read percentiles each phase reports.
const P3: [f64; 3] = [50.0, 99.0, 99.9];

pub(crate) fn fig10_replay() -> Option<Fields> {
    let files = bench_file_count(100);
    let requests = files * 1000;
    let catalog = (files / 2).clamp(8, 64);
    let trace = build_trace(requests, catalog);
    let reads_total = trace.iter().filter(|r| r.read).count();
    println!(
        "trace: {requests} requests over a simulated week ({reads_total} reads, {} writes), \
         {catalog}-block zipf catalog, {NODES} nodes, R={REPLICAS}\n",
        requests - reads_total
    );

    let (root, fleet) = spawn_fleet("fig10", NODES);
    let gw = gateway(fleet.members(), 0xF10, None);

    // Photo-chunk-sized JPEGs (tens to hundreds of KB): big enough that
    // a healthy read costs what production reads cost — hashing and
    // moving real bytes — so the 5x-tail comparison is made against an
    // honest baseline, small enough that decodes stay in the low
    // milliseconds and the 64 MiB decoded-block cache holds the whole
    // catalog.
    let blocks: Vec<Vec<u8>> = (0..catalog as u64)
        .map(|seed| clean_jpeg_near(192 + (seed as usize * 53) % 288, 32, seed))
        .collect();
    let keys: Vec<Digest> = blocks.iter().map(|b| gw.put(b).expect("put")).collect();
    // Warm every node's decoded-block cache so the healthy baseline
    // measures serving cost, not first-touch decode cost.
    for k in &keys {
        std::hint::black_box(gw.get(k).expect("get").expect("present"));
    }

    // ---- Phase 1: healthy, full trace --------------------------------
    let mut read_ms = Vec::with_capacity(reads_total);
    let mut write_ms = Vec::with_capacity(requests - reads_total);
    for req in &trace {
        if req.read {
            read_ms.push(get_ms(&gw, &keys[req.key]));
        } else {
            let t0 = Instant::now();
            // Re-uploads of popular content: the stores dedup them, as
            // production does.
            std::hint::black_box(gw.put(&blocks[req.key]).expect("put"));
            write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let [h50, h99, h999] = ranks(&mut read_ms, P3);
    let [w50, w99] = ranks(&mut write_ms, [50.0, 99.0]);

    // ---- The incident -------------------------------------------------
    // Degraded phases replay a steady-state read segment (the tail of
    // the trace's reads) so the three phases compare like with like.
    let all_reads: Vec<usize> = trace.iter().filter(|r| r.read).map(|r| r.key).collect();
    let seg_len = (requests / 25).clamp(400, 4000).min(all_reads.len());
    let segment = &all_reads[all_reads.len() - seg_len..];

    // The slow node: whichever carries the most primary read traffic in
    // the segment (zipf-weighted, so the head keys decide).
    let (victim, primaries) = busiest_primary(&gw, NODES, segment.iter().map(|&ki| &keys[ki]));
    let victim_share = primaries as f64 / seg_len as f64;

    // Slowness and window sized off the measured baseline: the delay is
    // unmistakably pathological (>= 10x healthy p99), the window covers
    // the §6.5 failover-to-diagnosis span of the segment.
    let delay = Duration::from_secs_f64((h99 * 10.0 / 1e3).clamp(0.025, 0.25));
    let scenario = SafetyNetScenario::default();
    let window = (
        scenario.failover_minute as f64 / scenario.horizon_minutes as f64,
        (scenario.failover_minute + scenario.diagnosis_minutes) as f64
            / scenario.horizon_minutes as f64,
    );

    // ---- Phase 2: incident, serial reads ------------------------------
    let mut serial_ms = replay_reads(&gw, &fleet, &keys, segment, victim, delay, window);
    let [s50, s99, s999] = ranks(&mut serial_ms, P3);

    // ---- Phase 3: incident, hedged reads ------------------------------
    // Budget: twice the healthy p99 — late enough that healthy reads
    // almost never hedge, early enough that a stuck read barely waits.
    let budget = Duration::from_secs_f64((h99 * 2.0 / 1e3).clamp(0.0005, 0.010));
    let gw_hedged = gateway(fleet.members(), 0xF10, Some(budget));
    let mut hedged_ms = replay_reads(&gw_hedged, &fleet, &keys, segment, victim, delay, window);
    let [g50, g99, g999] = ranks(&mut hedged_ms, P3);

    let shed_total: u64 = (0..NODES)
        .filter_map(|i| fleet.handle(i))
        .map(|h| h.metrics().shed.get())
        .sum();
    let hedged_reads = gw_hedged.metrics.hedged_reads.get();
    let hedge_wins = gw_hedged.metrics.hedge_wins.get();
    let hedge_cancels = gw_hedged.metrics.hedge_cancellations.get();

    println!(
        "incident: node {victim} (primary for {:.0}% of segment reads) slowed by {:?} \
         for {:.0}%..{:.0}% of a {seg_len}-read segment; hedge budget {:?}",
        victim_share * 100.0,
        delay,
        window.0 * 100.0,
        window.1 * 100.0,
        budget
    );
    println!(
        "\n{:>24} {:>9} {:>9} {:>9}",
        "phase", "p50 ms", "p99 ms", "p999 ms"
    );
    println!("{:>24} {:>9.2} {:>9.2} {:>9.2}", "healthy", h50, h99, h999);
    println!(
        "{:>24} {:>9.2} {:>9.2} {:>9.2}",
        "incident, serial", s50, s99, s999
    );
    println!(
        "{:>24} {:>9.2} {:>9.2} {:>9.2}",
        "incident, hedged", g50, g99, g999
    );
    println!(
        "\nwrites healthy p50 {w50:.2} ms, p99 {w99:.2} ms; shed {shed_total}; \
         hedged {hedged_reads} reads, {hedge_wins} wins, {hedge_cancels} cancelled losers, \
         {} failovers",
        gw_hedged.metrics.failovers.get()
    );
    // The §6 health view of the same incident: report each gateway's
    // watchdog verdict and carry both full telemetry registries into
    // the JSON record (kept separate — same metric names, two rigs).
    println!(
        "health: serial gateway degraded={}, hedged gateway degraded={} \
         ({} watchdog windows evaluated)",
        gw.degraded(),
        gw_hedged.degraded(),
        gw.watchdog().evaluations() + gw_hedged.watchdog().evaluations()
    );

    let serial_ratio = s99 / h99.max(1e-9);
    let hedged_ratio = g99 / h99.max(1e-9);
    println!(
        "incident p99 vs healthy: serial {serial_ratio:.1}x, hedged {hedged_ratio:.1}x \
         (hedging holds the tail within 5x: {})",
        if hedged_ratio < 5.0 && serial_ratio >= 5.0 {
            "yes"
        } else {
            "NO"
        }
    );

    let record = vec![
        ("requests", Json::from(requests)),
        ("reads", Json::from(reads_total)),
        ("catalog", Json::from(catalog)),
        ("replicas", Json::from(REPLICAS)),
        ("segment_reads", Json::from(seg_len)),
        ("victim_primary_share", Json::from(victim_share)),
        ("injected_delay_ms", Json::from(delay.as_secs_f64() * 1e3)),
        ("hedge_budget_ms", Json::from(budget.as_secs_f64() * 1e3)),
        (
            "healthy",
            Json::obj([
                ("read_p50_ms", Json::from(h50)),
                ("read_p99_ms", Json::from(h99)),
                ("read_p999_ms", Json::from(h999)),
                ("write_p50_ms", Json::from(w50)),
                ("write_p99_ms", Json::from(w99)),
            ]),
        ),
        (
            "incident_serial",
            Json::obj([
                ("read_p50_ms", Json::from(s50)),
                ("read_p99_ms", Json::from(s99)),
                ("read_p999_ms", Json::from(s999)),
            ]),
        ),
        (
            "incident_hedged",
            Json::obj([
                ("read_p50_ms", Json::from(g50)),
                ("read_p99_ms", Json::from(g99)),
                ("read_p999_ms", Json::from(g999)),
                ("hedged_reads", Json::from(hedged_reads)),
                ("hedge_wins", Json::from(hedge_wins)),
                ("hedge_cancellations", Json::from(hedge_cancels)),
            ]),
        ),
        ("shed", Json::from(shed_total)),
        ("serial_p99_over_healthy", Json::from(serial_ratio)),
        ("hedged_p99_over_healthy", Json::from(hedged_ratio)),
        (
            "degraded",
            Json::from(gw.degraded() || gw_hedged.degraded()),
        ),
        ("telemetry_serial", snapshot_json(&gw.snapshot())),
        ("telemetry_hedged", snapshot_json(&gw_hedged.snapshot())),
    ];

    drop(gw);
    drop(gw_hedged);
    drop(fleet);
    let _ = std::fs::remove_dir_all(&root);
    Some(record)
}
