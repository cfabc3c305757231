//! The fleet simulator: blockservers, load balancing, outsourcing.
//!
//! Models §5.5's problem precisely: load balancers assign requests to
//! blockservers uniformly at random; each blockserver has 16 cores and a
//! Lepton conversion wants 8, so "a blockserver can become oversubscribed
//! … if it is randomly assigned 3 or more Lepton conversions at once."
//! Outsourcing moves conversions off overloaded machines, either to the
//! least-loaded machine of a dedicated cluster or to one randomly chosen
//! blockserver, with no load probe. This simulator is the repo's one
//! implementation of §5.5's outsourcing decision.

use crate::anomaly::AnomalyConfig;
use crate::metrics::{Percentiles, TimeSeries};
use crate::workload::{WorkloadConfig, DAY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a job is (service-time class).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Lepton compression (upload path).
    LeptonEncode,
    /// Lepton decompression (download path).
    LeptonDecode,
    /// Everything else a blockserver does (cheap).
    Other,
}

/// Outsourcing strategy (§5.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutsourcePolicy {
    /// No outsourcing (the paper's "Control").
    None,
    /// Send overflow to another random blockserver ("To Self").
    ToSelf,
    /// Send overflow to a dedicated Lepton cluster ("To Dedicated").
    ToDedicated,
}

/// Calibrated service-time model. Defaults reflect this workspace's
/// codec measured on the synthetic corpus; the bench harness overwrites
/// them with live measurements.
#[derive(Clone, Copy, Debug)]
pub struct ServiceModel {
    /// Encode throughput, input bytes per second (one job, 8 cores).
    pub encode_bps: f64,
    /// Decode throughput, output bytes per second (one job, 8 cores).
    pub decode_bps: f64,
    /// Mean service time of non-Lepton requests, seconds.
    pub other_secs: f64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel {
            encode_bps: 2.5e6,
            decode_bps: 5.0e6,
            other_secs: 0.003,
        }
    }
}

/// Fleet configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of blockservers.
    pub blockservers: usize,
    /// Dedicated Lepton machines (only used by `ToDedicated`).
    pub dedicated: usize,
    /// Cores per machine (paper: 16).
    pub cores: u32,
    /// Cores one Lepton conversion wants (paper: 8).
    pub cores_per_lepton: u32,
    /// Outsource an arrival whose home server already runs this many
    /// conversions, so no server takes on more than this many by
    /// itself (§5.5: "more than three … at a time"; Fig. 10 sweeps 3
    /// and 4).
    pub outsource_threshold: u32,
    /// Outsourcing strategy.
    pub policy: OutsourcePolicy,
    /// TCP-vs-unix-socket overhead on outsourced jobs (paper: 7.9%).
    pub outsource_overhead: f64,
    /// Service model (calibrate from real codec).
    pub service: ServiceModel,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// Anomaly injection.
    pub anomaly: AnomalyConfig,
    /// Simulation horizon, seconds.
    pub horizon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            blockservers: 60,
            dedicated: 8,
            cores: 16,
            cores_per_lepton: 8,
            outsource_threshold: 3,
            policy: OutsourcePolicy::None,
            outsource_overhead: 0.079,
            service: ServiceModel::default(),
            workload: WorkloadConfig::default(),
            anomaly: AnomalyConfig::default(),
            horizon: DAY,
            seed: 0xD20B_B0C5,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Job {
    kind: JobKind,
    bytes: usize,
    arrival: f64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Event {
    Arrival(JobKind),
    Finish { server: usize, lepton: bool },
    Sample,
}

#[derive(Clone, Debug, Default)]
struct Server {
    lepton_active: u32,
}

/// Results of one simulated run.
#[derive(Debug)]
pub struct SimReport {
    /// Latency of every Lepton conversion, seconds.
    pub latency: Percentiles,
    /// Latency restricted to the near-peak window (±3h around peak).
    pub latency_near_peak: Percentiles,
    /// Latency restricted to the peak hour.
    pub latency_peak: Percentiles,
    /// Hourly p99 of concurrent conversions per (sampled) machine.
    pub concurrency: TimeSeries,
    /// Hourly decode latency percentiles (Fig. 12/14 shape).
    pub decode_latency: TimeSeries,
    /// Encodes per hourly bucket.
    pub encodes: Vec<usize>,
    /// Decodes per hourly bucket.
    pub decodes: Vec<usize>,
    /// Jobs outsourced.
    pub outsourced: u64,
    /// Total conversions completed.
    pub completed: u64,
}

impl SimReport {
    /// Overall decode:encode ratio.
    pub fn decode_encode_ratio(&self) -> f64 {
        let e: usize = self.encodes.iter().sum();
        let d: usize = self.decodes.iter().sum();
        if e == 0 {
            0.0
        } else {
            d as f64 / e as f64
        }
    }
}

/// The discrete-event cluster simulator.
pub struct ClusterSim {
    cfg: ClusterConfig,
}

impl ClusterSim {
    /// New simulator for `cfg`.
    pub fn new(cfg: ClusterConfig) -> Self {
        ClusterSim { cfg }
    }

    /// Run the simulation and report.
    pub fn run(&self) -> SimReport {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut servers = vec![Server::default(); cfg.blockservers];
        let mut dedicated = vec![Server::default(); cfg.dedicated];

        // Event queue keyed by f64 time encoded as ordered bits.
        let mut queue: BinaryHeap<Reverse<(u64, u64, EventBox)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let push = |q: &mut BinaryHeap<Reverse<(u64, u64, EventBox)>>,
                    seq: &mut u64,
                    t: f64,
                    e: Event,
                    job: Option<Job>| {
            *seq += 1;
            q.push(Reverse((time_key(t), *seq, EventBox { t, e, job })));
        };

        push(
            &mut queue,
            &mut seq,
            0.0,
            Event::Arrival(JobKind::LeptonEncode),
            None,
        );
        push(
            &mut queue,
            &mut seq,
            0.3,
            Event::Arrival(JobKind::LeptonDecode),
            None,
        );
        push(&mut queue, &mut seq, 1.0, Event::Sample, None);

        let hours = (cfg.horizon / 3600.0).ceil() as usize;
        let mut report = SimReport {
            latency: Percentiles::new(),
            latency_near_peak: Percentiles::new(),
            latency_peak: Percentiles::new(),
            concurrency: TimeSeries::new(cfg.horizon, 3600.0),
            decode_latency: TimeSeries::new(cfg.horizon, 3600.0),
            encodes: vec![0; hours],
            decodes: vec![0; hours],
            outsourced: 0,
            completed: 0,
        };

        // Peak hour: diurnal hump at 0.65 of day.
        let peak_t = |t: f64| -> f64 { (t % DAY) / DAY };

        while let Some(Reverse((_, _, ev))) = queue.pop() {
            let now = ev.t;
            if now > cfg.horizon {
                break;
            }
            match ev.e {
                Event::Sample => {
                    // Sample concurrency of a few random machines, like
                    // fleet telemetry would.
                    for _ in 0..8 {
                        let s = rng.gen_range(0..servers.len());
                        report
                            .concurrency
                            .push(now, servers[s].lepton_active as f64);
                    }
                    push(&mut queue, &mut seq, now + 10.0, Event::Sample, None);
                }
                Event::Arrival(kind) => {
                    // Schedule the next arrival of this kind.
                    let rate = match kind {
                        JobKind::LeptonEncode => cfg.workload.encode_rate(now),
                        JobKind::LeptonDecode => cfg.workload.decode_rate(now),
                        JobKind::Other => 0.0,
                    };
                    let gap = WorkloadConfig::next_gap(&mut rng, rate.max(0.01));
                    push(&mut queue, &mut seq, now + gap, Event::Arrival(kind), None);

                    let job = Job {
                        kind,
                        bytes: WorkloadConfig::sample_chunk_bytes(&mut rng),
                        arrival: now,
                    };

                    // Load balancer: uniform random blockserver.
                    let home = rng.gen_range(0..servers.len());
                    let mut overhead = 1.0;
                    let (pool_is_dedicated, target) =
                        if servers[home].lepton_active >= cfg.outsource_threshold {
                            match cfg.policy {
                                OutsourcePolicy::None => (false, home),
                                OutsourcePolicy::ToSelf => {
                                    report.outsourced += 1;
                                    overhead += cfg.outsource_overhead;
                                    // Random other blockserver (the paper's
                                    // two-random-choices intuition).
                                    let alt = rng.gen_range(0..servers.len());
                                    (false, alt)
                                }
                                OutsourcePolicy::ToDedicated => {
                                    report.outsourced += 1;
                                    overhead += cfg.outsource_overhead;
                                    // Least-loaded dedicated machine.
                                    let alt = (0..dedicated.len())
                                        .min_by_key(|&i| dedicated[i].lepton_active)
                                        .unwrap_or(0);
                                    (true, alt)
                                }
                            }
                        } else {
                            (false, home)
                        };

                    let server = if pool_is_dedicated {
                        &mut dedicated[target]
                    } else {
                        &mut servers[target]
                    };
                    server.lepton_active += 1;

                    // Processor sharing: slowdown by core oversubscription.
                    let demand = server.lepton_active * cfg.cores_per_lepton;
                    let slowdown = (demand as f64 / cfg.cores as f64).max(1.0);
                    let base = match job.kind {
                        JobKind::LeptonEncode => job.bytes as f64 / cfg.service.encode_bps,
                        JobKind::LeptonDecode => job.bytes as f64 / cfg.service.decode_bps,
                        JobKind::Other => cfg.service.other_secs,
                    };
                    let stall = cfg.anomaly.sample_stall(&mut rng, target);
                    let service = base * slowdown * overhead + stall;
                    push(
                        &mut queue,
                        &mut seq,
                        now + service,
                        Event::Finish {
                            server: if pool_is_dedicated {
                                servers.len() + target
                            } else {
                                target
                            },
                            lepton: true,
                        },
                        Some(job),
                    );
                }
                Event::Finish { server, lepton } => {
                    if lepton {
                        let s = if server >= servers.len() {
                            &mut dedicated[server - servers.len()]
                        } else {
                            &mut servers[server]
                        };
                        s.lepton_active = s.lepton_active.saturating_sub(1);
                    }
                    if let Some(job) = ev.job {
                        let latency = now - job.arrival;
                        report.latency.push(latency);
                        let tod = peak_t(now);
                        if (tod - 0.65).abs() < 0.125 {
                            report.latency_near_peak.push(latency);
                        }
                        if (tod - 0.65).abs() < 0.03 {
                            report.latency_peak.push(latency);
                        }
                        let hour = ((now / 3600.0) as usize).min(hours - 1);
                        match job.kind {
                            JobKind::LeptonEncode => report.encodes[hour] += 1,
                            JobKind::LeptonDecode => {
                                report.decodes[hour] += 1;
                                report.decode_latency.push(now, latency);
                            }
                            JobKind::Other => {}
                        }
                        report.completed += 1;
                    }
                }
            }
        }
        report
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct EventBox {
    t: f64,
    e: Event,
    job: Option<Job>,
}

impl Eq for EventBox {}
impl PartialOrd for EventBox {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventBox {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal // ordering handled by (time_key, seq)
    }
}

/// Order-preserving integer key for non-negative finite f64 times.
fn time_key(t: f64) -> u64 {
    debug_assert!(t >= 0.0 && t.is_finite());
    t.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(policy: OutsourcePolicy) -> ClusterConfig {
        ClusterConfig {
            blockservers: 24,
            dedicated: 8,
            policy,
            horizon: DAY / 4.0,
            workload: WorkloadConfig {
                base_encode_rate: 14.0,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn simulation_completes_jobs() {
        let r = ClusterSim::new(quick_cfg(OutsourcePolicy::None)).run();
        assert!(r.completed > 1000, "completed {}", r.completed);
        assert!(r.latency.len() > 1000);
        assert!(r.decode_encode_ratio() > 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ClusterSim::new(quick_cfg(OutsourcePolicy::ToSelf)).run();
        let b = ClusterSim::new(quick_cfg(OutsourcePolicy::ToSelf)).run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.outsourced, b.outsourced);
    }

    #[test]
    fn outsourcing_reduces_tail_latency() {
        let mut control = ClusterSim::new(quick_cfg(OutsourcePolicy::None)).run();
        let mut dedicated = ClusterSim::new(quick_cfg(OutsourcePolicy::ToDedicated)).run();
        let c99 = control.latency.percentile(99.0);
        let d99 = dedicated.latency.percentile(99.0);
        assert!(
            d99 < c99,
            "dedicated p99 {d99} should beat control p99 {c99}"
        );
        assert!(dedicated.outsourced > 0);
    }

    #[test]
    fn to_self_reduces_median_too() {
        // §5.5.1: rebalancing within the fleet also helps the p50.
        let mut control = ClusterSim::new(quick_cfg(OutsourcePolicy::None)).run();
        let mut to_self = ClusterSim::new(quick_cfg(OutsourcePolicy::ToSelf)).run();
        let c50 = control.latency.percentile(50.0);
        let s50 = to_self.latency.percentile(50.0);
        assert!(s50 <= c50 * 1.05, "to-self p50 {s50} vs control {c50}");
    }

    #[test]
    fn concurrency_spikes_without_outsourcing() {
        let mut r = ClusterSim::new(quick_cfg(OutsourcePolicy::None)).run();
        let p99: Vec<f64> = r.concurrency.percentile_series(99.0);
        let max = p99.iter().cloned().fold(0.0, f64::max);
        assert!(max >= 2.0, "expect oversubscription spikes, got {max}");
    }
}
