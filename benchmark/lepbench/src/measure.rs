//! Per-operation samples and the end-to-end metrics derived from them.
//!
//! Every workload reduces to two timed operation classes — a *write*
//! (compress / `Compress` / `BlockPut` / gateway `put`) and a *read*
//! (decompress / `Decompress` / `BlockGet` / gateway `get`) — plus
//! untimed-for-metrics fillers (`Ping`). The same arithmetic then
//! yields every end-to-end metric on every workload; the README's
//! table says which program operation stands behind each name.

use crate::stats::{self, Stat};
use crate::trace::SpanBuf;
use std::time::Duration;

/// Operation class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Encode-side operation.
    Write,
    /// Decode-side operation.
    Read,
    /// Neither (liveness probes mixed into the traffic).
    Other,
}

/// One timed operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Operation class.
    pub class: Class,
    /// Round (or set-up repetition) the operation ran in.
    pub group: u32,
    /// Wall time of the call.
    pub total: Duration,
    /// Time to the first result byte (equals `total` when the entry
    /// point hands back only whole results).
    pub first_byte: Duration,
    /// Original (JPEG / block) bytes the operation moved.
    pub bytes: u64,
    /// Whether the result was byte-checked correct.
    pub ok: bool,
}

/// What one caller thread recorded.
#[derive(Debug)]
pub struct CallerLog {
    /// Timed operations, in issue order.
    pub samples: Vec<Sample>,
    /// Spans (empty unless tracing).
    pub spans: SpanBuf,
}

impl CallerLog {
    /// Empty log writing spans into `spans`.
    pub fn new(spans: SpanBuf) -> CallerLog {
        CallerLog {
            samples: Vec::new(),
            spans,
        }
    }

    /// Record one operation.
    pub fn push(
        &mut self,
        class: Class,
        group: u32,
        total: Duration,
        first_byte: Duration,
        bytes: usize,
        ok: bool,
    ) {
        self.samples.push(Sample {
            class,
            group,
            total,
            first_byte,
            bytes: bytes as u64,
            ok,
        });
    }
}

/// Latency limits: an operation over its class limit — or a failed
/// one — counts as late.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Limit for reads.
    pub read: Duration,
    /// Limit for writes.
    pub write: Duration,
}

/// Limits for block operations (serve_hot, fleet_mixed).
pub const BLOCK_LIMITS: Limits = Limits {
    read: Duration::from_millis(250),
    write: Duration::from_secs(1),
};

/// Limits for whole-file conversions of up to 4 MiB (codec_photo,
/// serve_chunk), which legitimately take longer than a block read.
pub const CONVERSION_LIMITS: Limits = Limits {
    read: Duration::from_secs(1),
    write: Duration::from_secs(2),
};

/// Which of a request's samples — it has one per round — stands for it
/// in the typical round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcrossRounds {
    /// The median: for a workload that leaves a core free (a neighbour's
    /// burst then costs it little), and for microsecond operations
    /// whose time is wake-ups and queueing between callers — that
    /// distribution is the program's own, and its low end is a lucky
    /// path (a worker still spinning), not the typical one.
    Median,
    /// The least: for a workload that fills every core with
    /// computation, so that a neighbour's burst on any core lengthens
    /// the operation in flight, and whose rounds are seconds long, so
    /// that a run holds few of them. A neighbour busy half the time
    /// takes the median of six rounds with it, but almost never all
    /// six; and interference can only add to computation, so the least
    /// sample is the one nearest the program's own cost.
    Quietest,
}

impl AcrossRounds {
    /// Name in the record.
    pub fn name(self) -> &'static str {
        match self {
            AcrossRounds::Median => "median",
            AcrossRounds::Quietest => "quietest",
        }
    }
}

/// One caller's *typical round*: every round replays the same request
/// sequence, so request `i` has one sample per round; `across` says
/// which of them is its typical cost. Interference on a shared host is
/// bursty and one-sided — it slows a few requests of a few rounds — and
/// a choice per request discards it where a per-round mean would absorb
/// it.
///
/// Falls back to the samples as they are when rounds differ in length
/// (an operation failed and its follow-ups were skipped; the run is
/// reported incorrect anyway).
pub fn typical_round(samples: &[Sample], across: AcrossRounds) -> Vec<Sample> {
    let mut rounds: std::collections::BTreeMap<u32, Vec<&Sample>> = Default::default();
    for s in samples {
        rounds.entry(s.group).or_default().push(s);
    }
    let rounds: Vec<Vec<&Sample>> = rounds.into_values().collect();
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    if rounds.iter().any(|r| r.len() != first.len()) {
        return samples.to_vec();
    }
    let typical_of = |i: usize, pick: fn(&Sample) -> Duration| {
        let mut v: Vec<Duration> = rounds.iter().map(|r| pick(r[i])).collect();
        v.sort_unstable();
        match across {
            AcrossRounds::Median => v[(v.len() - 1) / 2],
            AcrossRounds::Quietest => v[0],
        }
    };
    (0..first.len())
        .map(|i| Sample {
            group: 0,
            total: typical_of(i, |s| s.total),
            first_byte: typical_of(i, |s| s.first_byte),
            ok: rounds.iter().all(|r| r[i].ok),
            ..*first[i]
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn of_class(samples: &[Sample], class: Class) -> impl Iterator<Item = &Sample> {
    samples.iter().filter(move |s| s.class == class)
}

/// `(bytes, seconds)` moved by operations of `class`, per group.
fn volume_by_group(
    samples: &[Sample],
    class: Class,
) -> std::collections::BTreeMap<u32, (u64, f64)> {
    let mut groups: std::collections::BTreeMap<u32, (u64, f64)> = Default::default();
    for s in of_class(samples, class) {
        let g = groups.entry(s.group).or_default();
        g.0 += s.bytes;
        g.1 += s.total.as_secs_f64();
    }
    groups
}

/// Mbit/s of original bytes: bytes moved over caller time spent inside
/// calls of `class`. The value is the typical round's (`typical` holds
/// one typical round per caller); `raw` gives the per-round values and
/// their spread.
pub fn mbps(typical: &[Sample], raw: &[Sample], class: Class) -> Stat {
    let rate = |(bytes, secs): (u64, f64)| bytes as f64 * 8.0 / 1e6 / secs;
    let per_round: Vec<f64> = volume_by_group(raw, class)
        .into_values()
        .filter(|g| g.1 > 0.0)
        .map(rate)
        .collect();
    let value = volume_by_group(typical, class)
        .into_values()
        .fold((0, 0.0), |acc, g| (acc.0 + g.0, acc.1 + g.1));
    Stat {
        value: if value.1 > 0.0 { rate(value) } else { 0.0 },
        n: of_class(raw, class).count(),
        ..Stat::of_rounds(&per_round)
    }
}

/// Latency percentile in ms over `of` (the typical rounds for a median,
/// every raw sample for a tail), with the per-round values of the same
/// percentile from `raw`.
pub fn latency_ms(
    of: &[Sample],
    raw: &[Sample],
    class: Class,
    p: f64,
    pick: fn(&Sample) -> Duration,
) -> Stat {
    let percentile = |samples: &mut dyn Iterator<Item = &Sample>| {
        stats::percentile_sorted(
            &stats::sorted(&samples.map(|s| ms(pick(s))).collect::<Vec<_>>()),
            p,
        )
    };
    let mut groups: std::collections::BTreeMap<u32, Vec<&Sample>> = Default::default();
    for s in of_class(raw, class) {
        groups.entry(s.group).or_default().push(s);
    }
    let per_round: Vec<f64> = groups
        .values()
        .map(|g| percentile(&mut g.iter().copied()))
        .collect();
    Stat {
        value: percentile(&mut of_class(of, class)),
        n: of_class(raw, class).count(),
        ..Stat::of_rounds(&per_round)
    }
}

/// Operations per second per group of one caller: count over time
/// spent inside calls.
fn rate_by_group(samples: &[Sample]) -> std::collections::BTreeMap<u32, f64> {
    let mut per: std::collections::BTreeMap<u32, (usize, f64)> = Default::default();
    for s in samples {
        let g = per.entry(s.group).or_default();
        g.0 += 1;
        g.1 += s.total.as_secs_f64();
    }
    per.into_iter()
        .filter(|(_, (_, busy))| *busy > 0.0)
        .map(|(group, (ops, busy))| (group, ops as f64 / busy))
        .collect()
}

/// Closed-loop operations per second: each caller's operation count
/// over the time it spent inside calls, summed over callers (the byte
/// check between calls is think time, not load). Value from the
/// typical rounds, per-round values from `raw`.
pub fn ops_per_s(typical: &[Vec<Sample>], raw: &[Vec<Sample>]) -> Stat {
    let summed = |callers: &[Vec<Sample>]| {
        let mut groups: std::collections::BTreeMap<u32, f64> = Default::default();
        for samples in callers {
            for (group, rate) in rate_by_group(samples) {
                *groups.entry(group).or_default() += rate;
            }
        }
        groups.into_values().collect::<Vec<f64>>()
    };
    Stat {
        value: summed(typical).iter().sum(),
        n: raw.iter().map(Vec::len).sum(),
        ..Stat::of_rounds(&summed(raw))
    }
}

/// `(attempted, failed, late)` over all samples.
pub fn tally(samples: &[Sample], limits: Limits) -> (u64, u64, u64) {
    let mut failed = 0;
    let mut late = 0;
    for s in samples {
        let limit = match s.class {
            Class::Write => limits.write,
            Class::Read | Class::Other => limits.read,
        };
        if !s.ok {
            failed += 1;
        }
        if !s.ok || s.total > limit {
            late += 1;
        }
    }
    (samples.len() as u64, failed, late)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(class: Class, group: u32, millis: u64, bytes: u64, ok: bool) -> Sample {
        Sample {
            class,
            group,
            total: Duration::from_millis(millis),
            first_byte: Duration::from_millis(millis / 2),
            bytes,
            ok,
        }
    }

    #[test]
    fn throughput_is_the_typical_round() {
        // One request, 1 MB: rounds at 8, 16 and 4 Mbit/s; its median
        // time is 1 s.
        let s = [
            sample(Class::Read, 0, 1000, 1_000_000, true),
            sample(Class::Read, 1, 500, 1_000_000, true),
            sample(Class::Read, 2, 2000, 1_000_000, true),
        ];
        let m = mbps(&typical_round(&s, AcrossRounds::Median), &s, Class::Read);
        assert!((m.value - 8.0).abs() < 1e-9);
        assert_eq!((m.n, m.rounds.len()), (3, 3));
    }

    #[test]
    fn ops_rate_sums_callers_and_excludes_think_time() {
        // Two callers, each 10 ops in 1 s of call time → 20 ops/s,
        // however long they paused between calls.
        let caller: Vec<Sample> = (0..10)
            .map(|_| sample(Class::Read, 0, 100, 1, true))
            .collect();
        let callers = [caller.clone(), caller];
        let r = ops_per_s(&callers, &callers);
        assert!((r.value - 20.0).abs() < 1e-9);
    }

    #[test]
    fn failed_operations_count_as_late() {
        let s = [
            sample(Class::Read, 0, 10, 1, true),
            sample(Class::Read, 0, 300, 1, true),
            sample(Class::Write, 0, 300, 1, true),
            sample(Class::Write, 0, 10, 1, false),
        ];
        assert_eq!(tally(&s, BLOCK_LIMITS), (4, 1, 2));
    }

    #[test]
    fn typical_round_takes_the_median_per_request() {
        // Three rounds of two requests; round 1 hit a burst on request
        // 0, round 2 on request 1. The typical round sees neither.
        let s = [
            sample(Class::Write, 0, 10, 100, true),
            sample(Class::Read, 0, 20, 100, true),
            sample(Class::Write, 1, 90, 100, true),
            sample(Class::Read, 1, 21, 100, true),
            sample(Class::Write, 2, 11, 100, true),
            sample(Class::Read, 2, 80, 100, false),
        ];
        let t = typical_round(&s, AcrossRounds::Median);
        assert_eq!(t.len(), 2);
        assert_eq!(
            (t[0].class, t[0].total.as_millis(), t[0].ok),
            (Class::Write, 11, true)
        );
        assert_eq!(
            (t[1].class, t[1].total.as_millis(), t[1].ok),
            (Class::Read, 21, false)
        );
        // Where interference only ever adds, the quietest round is the
        // request's cost.
        let q = typical_round(&s, AcrossRounds::Quietest);
        assert_eq!(
            (q[0].total.as_millis(), q[1].total.as_millis(), q[1].ok),
            (10, 20, false)
        );
        // Ragged rounds fall back to the raw samples.
        assert_eq!(typical_round(&s[..5], AcrossRounds::Median).len(), 5);
    }

    #[test]
    fn latency_pools_groups() {
        let s: Vec<Sample> = (1..=40)
            .map(|i: u32| sample(Class::Read, i % 2, u64::from(i), 1, true))
            .collect();
        let p50 = latency_ms(&s, &s, Class::Read, 50.0, |s| s.total);
        assert_eq!(p50.value, 20.0);
        assert_eq!(p50.n, 40);
        let fb = latency_ms(&s, &s, Class::Read, 50.0, |s| s.first_byte);
        assert_eq!(fb.value, 10.0);
    }
}
