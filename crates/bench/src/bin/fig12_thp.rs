//! Figure 12: hourly decode-latency percentiles with transparent huge
//! pages enabled, then disabled mid-run.

use lepton_bench::header;
use lepton_cluster::anomaly::AnomalyConfig;
use lepton_cluster::workload::DAY;
use lepton_cluster::{ClusterConfig, ClusterSim};

fn main() {
    header("Figure 12", "decode latency percentiles, THP on -> off");
    let mk = |thp: f64| ClusterConfig {
        horizon: DAY / 2.0,
        blockservers: 24,
        anomaly: AnomalyConfig {
            thp_fraction: thp,
            thp_stall_prob: 0.08,
            thp_stall_max: 12.0,
        },
        workload: lepton_cluster::WorkloadConfig {
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
        let q = |r: &mut lepton_cluster::TimeSeries, p: f64| r.percentile_series(p)[h];
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
}
