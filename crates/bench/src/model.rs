//! The model figures: the `lepton_cluster` simulator and analytic
//! models of the deployment (§5.4–§7). They are deterministic; no
//! figure here runs the codec.

use crate::bar;
use crate::json::{Fields, Json};
use lepton_cluster::anomaly::AnomalyConfig;
use lepton_cluster::backfill::{simulate_backfill, BackfillConfig, Economics};
use lepton_cluster::bandwidth::{Placement, PlacementModel};
use lepton_cluster::incident::SafetyNetScenario;
use lepton_cluster::workload::{WorkloadConfig, WorkloadPhase, DAY, WEEK};
use lepton_cluster::{ClusterConfig, ClusterSim, OutsourcePolicy, TimeSeries};

/// Figure 5: weekday vs weekend encode/decode rates over a simulated
/// week (coding events vs weekly minimum).
pub(crate) fn fig5_weekly() -> Option<Fields> {
    let cfg = ClusterConfig {
        horizon: WEEK,
        blockservers: 40,
        ..Default::default()
    };
    let r = ClusterSim::new(cfg).run();
    // Daily totals.
    println!(
        "{:<10} {:>9} {:>9} {:>7}",
        "day", "encodes", "decodes", "ratio"
    );
    let days = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
    for d in 0..7usize {
        let e: usize = r.encodes[d * 24..(d + 1) * 24].iter().sum();
        let dec: usize = r.decodes[d * 24..(d + 1) * 24].iter().sum();
        let ratio = dec as f64 / e.max(1) as f64;
        println!("{:<10} {e:>9} {dec:>9} {ratio:>7.2}", days[d]);
    }
    println!("\npaper shape: weekday decode:encode ≈ 1.5, weekend ≈ 1.0;");
    println!("overall ratio here: {:.2}", r.decode_encode_ratio());
    None
}

/// The outsourcing day of Figs. 9 and 10: 24 blockservers and 10
/// dedicated machines under the peak-day load.
fn outsourcing_day(policy: OutsourcePolicy, threshold: u32) -> ClusterConfig {
    ClusterConfig {
        policy,
        outsource_threshold: threshold,
        horizon: DAY,
        blockservers: 24,
        dedicated: 10,
        workload: WorkloadConfig {
            base_encode_rate: 13.0,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Figure 9: p99 concurrent Lepton processes over a day, per
/// outsourcing strategy (threshold 4, like the paper's Sept. 15 plot).
pub(crate) fn fig9_outsourcing() -> Option<Fields> {
    let mut results = Vec::new();
    for (name, policy) in [
        ("Control", OutsourcePolicy::None),
        ("To self", OutsourcePolicy::ToSelf),
        ("To dedicated", OutsourcePolicy::ToDedicated),
    ] {
        let mut r = ClusterSim::new(outsourcing_day(policy, 4)).run();
        let series = r.concurrency.percentile_series(99.0);
        results.push((name, series, r.outsourced));
    }
    println!(
        "{:<6} {:>9} {:>9} {:>13}",
        "hour", "control", "to self", "to dedicated"
    );
    for h in 0..24 {
        let [control, to_self, dedicated] = [0, 1, 2].map(|i| results[i].1[h]);
        let plot = bar(control, 16.0, 24);
        println!("{h:<6} {control:>9.1} {to_self:>9.1} {dedicated:>13.1}  {plot}");
    }
    for (name, series, outsourced) in &results {
        let peak = series.iter().cloned().fold(0.0, f64::max);
        println!("{name:<14} peak p99 concurrency {peak:>5.1}, outsourced {outsourced}");
    }
    println!("\npaper shape: control spikes well above the threshold at peak;");
    println!("outsourcing flattens the hot machines.");
    None
}

/// Figure 10: conversion-latency percentiles near peak and at peak, for
/// both outsourcing strategies and thresholds 3 and 4.
pub(crate) fn fig10_latency() -> Option<Fields> {
    println!(
        "{:<14} {:>4} | {:>24} | {:>24}",
        "strategy", "thr", "near peak p50/p95/p99 (s)", "peak p50/p95/p99 (s)"
    );
    for (name, policy) in [
        ("To dedicated", OutsourcePolicy::ToDedicated),
        ("To self", OutsourcePolicy::ToSelf),
        ("Control", OutsourcePolicy::None),
    ] {
        for threshold in [3u32, 4] {
            if policy == OutsourcePolicy::None && threshold == 4 {
                continue; // control has no threshold
            }
            let mut r = ClusterSim::new(outsourcing_day(policy, threshold)).run();
            let [n50, n95, n99] = [50.0, 95.0, 99.0].map(|p| r.latency_near_peak.percentile(p));
            let [p50, p95, p99] = [50.0, 95.0, 99.0].map(|p| r.latency_peak.percentile(p));
            println!(
                "{name:<14} {threshold:>4} | {n50:>7.2} {n95:>7.2} {n99:>8.2} | \
                 {p50:>7.2} {p95:>7.2} {p99:>8.2}"
            );
        }
    }
    println!("\npaper shape: outsourcing halves the p99 at peak (1.63s -> 1.08s);");
    println!("'to self' also lowers the p50 via load spreading.");
    None
}

/// Figure 11: backfill fleet power and conversion rate across an
/// outage, plus the §5.6.1 economics.
pub(crate) fn fig11_backfill() -> Option<Fields> {
    let cfg = BackfillConfig::default();
    let samples = simulate_backfill(&cfg, 30.0, 20.0, 23.0);
    println!("{:>6} {:>10} {:>12}", "hour", "power kW", "conv/s");
    for s in samples.iter().step_by(4) {
        println!(
            "{:>6.1} {:>10.0} {:>12.0}  {}",
            s.hour,
            s.power_kw,
            s.conversions_per_sec,
            bar(s.power_kw, 300.0, 30)
        );
    }
    let peak = samples.iter().map(|s| s.power_kw).fold(0.0, f64::max);
    let during = samples
        .iter()
        .filter(|s| s.hour >= 20.5 && s.hour < 23.0)
        .map(|s| s.power_kw)
        .fold(0.0, f64::max);
    println!("\npeak power {peak:.0} kW; during outage {during:.0} kW (paper: ~121 kW drop)");

    let eco = Economics::from_config(&cfg);
    let (per_kwh, gib_per_kwh) = (eco.conversions_per_kwh, eco.gib_saved_per_kwh());
    let (images, tib) = eco.per_machine_year(&cfg);
    println!("\n§5.6.1 economics:");
    println!("  conversions per kWh:     {per_kwh:>10.0} (paper: 72,300)");
    println!("  GiB saved per kWh:       {gib_per_kwh:>10.1} (paper: 24)");
    println!("  images per machine-year: {images:>10.2e} (paper: 1.815e8)");
    println!("  TiB saved per machine-yr:{tib:>10.1} (paper: 58.8)");
    Some(vec![
        ("peak_power_kw", Json::from(peak)),
        ("outage_power_kw", Json::from(during)),
        ("conversions_per_kwh", Json::from(per_kwh)),
        ("gib_saved_per_kwh", Json::from(gib_per_kwh)),
        ("images_per_machine_year", Json::from(images)),
        ("tib_saved_per_machine_year", Json::from(tib)),
    ])
}

/// Figure 12: hourly decode-latency percentiles with transparent huge
/// pages enabled, then disabled mid-run.
pub(crate) fn fig12_thp() -> Option<Fields> {
    let mk = |thp: f64| ClusterConfig {
        horizon: DAY / 2.0,
        blockservers: 24,
        anomaly: AnomalyConfig {
            thp_fraction: thp,
            thp_stall_prob: 0.08,
            thp_stall_max: 12.0,
        },
        workload: WorkloadConfig {
            base_encode_rate: 10.0,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut on = ClusterSim::new(mk(0.4)).run();
    let mut off = ClusterSim::new(mk(0.0)).run();
    println!(
        "{:<6} {:>22} {:>22}",
        "hour", "THP on p50/p95/p99", "THP off p50/p95/p99"
    );
    for h in 0..12usize {
        let q = |r: &mut TimeSeries, p: f64| r.percentile_series(p)[h];
        println!(
            "{:<6} {:>6.2} {:>6.2} {:>7.2} {:>7.2} {:>6.2} {:>7.2}",
            h,
            q(&mut on.decode_latency, 50.0),
            q(&mut on.decode_latency, 95.0),
            q(&mut on.decode_latency, 99.0),
            q(&mut off.decode_latency, 50.0),
            q(&mut off.decode_latency, 95.0),
            q(&mut off.decode_latency, 99.0),
        );
    }
    println!(
        "\noverall p99: THP on {:.2}s vs off {:.2}s (paper: 2-3x tail inflation, medians barely move)",
        on.latency.percentile(99.0),
        off.latency.percentile(99.0)
    );
    println!(
        "overall p50: THP on {:.2}s vs off {:.2}s",
        on.latency.percentile(50.0),
        off.latency.percentile(50.0)
    );
    None
}

/// A day of the early rollout on `blockservers` machines: `rate` base
/// encodes/s, with `stored` of the photos already kept as Lepton.
fn rollout_day(blockservers: usize, rate: f64, stored: f64) -> ClusterConfig {
    ClusterConfig {
        horizon: DAY,
        blockservers,
        workload: WorkloadConfig {
            base_encode_rate: rate,
            phase: WorkloadPhase::EarlyRollout,
            lepton_stored_fraction: stored,
        },
        ..Default::default()
    }
}

/// Figure 13: decode:encode ratio over the rollout, as the stored-
/// Lepton fraction grows ("boiling the frog", §6.4).
pub(crate) fn fig13_ratio() -> Option<Fields> {
    println!("{:>12} {:>16} {:>8}", "week", "stored fraction", "ratio");
    for week in 0..10u32 {
        // Stored-Lepton fraction grows as uploads accumulate.
        let frac = (week as f64 / 9.0).powf(0.7).min(1.0);
        let r = ClusterSim::new(rollout_day(24, 10.0, frac)).run();
        let (pct, ratio) = (frac * 100.0, r.decode_encode_ratio());
        let plot = bar(ratio, 2.0, 30);
        println!("{week:>12} {pct:>15.0}% {ratio:>8.2}  {plot}");
    }
    println!("\npaper shape: ratio starts near 0 (only new photos need Lepton");
    println!("decodes) and climbs toward the steady-state 1.0-1.5 band.");
    None
}

/// Figure 14: decode latency percentiles over months of ramp-up,
/// before the outsourcing system existed.
pub(crate) fn fig14_rampup() -> Option<Fields> {
    println!(
        "{:>7} {:>8} {:>8} {:>8} {:>8}",
        "month", "p50", "p75", "p95", "p99 (s)"
    );
    for month in 0..5u32 {
        // Decode volume grows with the stored fraction; no outsourcing.
        let frac = ((month as f64 + 0.5) / 4.0).min(1.0);
        let cfg = ClusterConfig {
            policy: OutsourcePolicy::None,
            ..rollout_day(20, 7.0 + 1.6 * month as f64, frac)
        };
        let mut r = ClusterSim::new(cfg).run();
        let (a, b, c, d) = r.latency.quad();
        println!("{:>7} {:>8.2} {:>8.2} {:>8.2} {:>8.2}", month, a, b, c, d);
    }
    println!("\npaper shape: p99 grows into multi-second territory as decode demand");
    println!("builds, while the median stays low — the pressure that motivated §5.5.");
    None
}

/// §7 (future work): what moving the codec into client software buys.
///
/// "In the future, we intend to move the compression and decompression
/// to client software, which will save 23% in network bandwidth when
/// uploading or downloading JPEG images."
pub(crate) fn tab_client_side() -> Option<Fields> {
    let gib_per_day = |bytes_per_sec: f64| bytes_per_sec * 86_400.0 / (1u64 << 30) as f64;
    for (label, ratio) in [
        ("weekend (1.0)", 1.0),
        ("weekday (1.5)", 1.5),
        ("peak (2.0)", 2.0),
    ] {
        let model = PlacementModel {
            download_ratio: ratio,
            ..Default::default()
        };
        let server = model.cost(Placement::ServerSide);
        let client = model.cost(Placement::ClientSide);
        println!("\ndecode:encode {label}");
        println!(
            "  {:<12} {:>14} {:>16} {:>16}",
            "placement", "wire GiB/day", "backend conv/s", "client conv/s"
        );
        for (name, c) in [("server-side", server), ("client-side", client)] {
            println!(
                "  {:<12} {:>14.1} {:>16.0} {:>16.0}",
                name,
                gib_per_day(c.wire_bytes),
                c.backend_conversions,
                c.client_conversions
            );
        }
        println!(
            "  wire saving: {:.1}% (paper: ~23%); storage unchanged at {:.1} GiB/day",
            100.0 * model.wire_saving(),
            gib_per_day(server.stored_bytes)
        );
    }
    None
}

/// §6.5: the safety-net overload incident, minute by minute — the
/// datacenter failover saturates the S3 proxies with safety-net
/// double-writes, camera uploads degrade disproportionately, and the
/// shutoff switch ends the incident.
pub(crate) fn tab_incident() -> Option<Fields> {
    let report = SafetyNetScenario::default().run();
    println!(
        "{:<7} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "minute", "offered", "capacity", "upload%", "camera%", "shutoff"
    );
    for m in report.timeline.iter().step_by(2) {
        println!(
            "{:<7} {:>9.0} {:>9.0} {:>8.1} {:>8.1} {:>8}",
            m.minute,
            m.offered,
            m.capacity,
            100.0 * m.upload_availability,
            100.0 * m.camera_availability,
            if m.shutoff { "on" } else { "-" }
        );
    }
    println!(
        "\nworst upload availability: {:.1}% (paper: 94%)",
        100.0 * report.worst_upload_availability
    );
    println!(
        "worst camera availability: {:.1}% (paper: 82%)",
        100.0 * report.worst_camera_availability
    );
    println!(
        "degraded minutes: {} (paper: 9 minutes to diagnose; shutoff in 29 s)",
        report.degraded_minutes
    );

    // The counterfactual the paper drew the lesson from: no safety
    // net, no incident.
    let without = SafetyNetScenario {
        safety_net_load: 0.0,
        ..Default::default()
    }
    .run();
    println!(
        "without the safety net, same failover: worst availability {:.1}%",
        100.0 * without.worst_upload_availability
    );
    None
}
