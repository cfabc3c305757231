//! Per-job stage traces: where did this conversion's wall time go?
//!
//! A job (one compress/decompress/store operation) opens a span with
//! [`span_enter`]; the stages it passes through — header parse, scan
//! decode, arithmetic code, verify, store — call [`mark_stage`] at
//! their boundaries. Marks find the active span through a thread
//! local, so deep codec internals never thread a trace handle through
//! their signatures; in the pipelined encoder, stages that fan out to
//! other workers simply don't mark (their cost shows up in the
//! caller's wait stage). Closing the span pushes a [`JobTrace`] into
//! a bounded ring of recent jobs and folds each stage duration into
//! `trace.stage.*` histograms on the global registry, so `StatsV2`
//! exposes stage-level p50/p99/p999 fleet-wide.
//!
//! The ring holds [`DEFAULT_RING_CAP`] entries behind a mutex touched
//! once per job (jobs are milliseconds; the push is nanoseconds).

use crate::registry::Registry;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Completed jobs retained by the global ring.
pub const DEFAULT_RING_CAP: usize = 256;

/// Stages a single trace will record before dropping further marks
/// (defensive bound; real jobs have ~5).
const MAX_STAGES: usize = 16;

/// One finished job's stage breakdown.
#[derive(Clone, Debug)]
pub struct JobTrace {
    /// Ring-assigned job id (monotonic per process).
    pub id: u64,
    /// Operation label (`"compress"`, `"decompress"`, ...).
    pub op: &'static str,
    /// Outcome label (`"ok"` or an error taxonomy row label).
    pub outcome: &'static str,
    /// Input bytes.
    pub bytes_in: u64,
    /// Output bytes.
    pub bytes_out: u64,
    /// End-to-end wall time.
    pub total: Duration,
    /// `(stage, wall time)` in execution order.
    pub stages: Vec<(&'static str, Duration)>,
}

struct ActiveSpan {
    id: u64,
    op: &'static str,
    started: Instant,
    last_mark: Instant,
    stages: Vec<(&'static str, Duration)>,
}

thread_local! {
    static CURRENT: RefCell<Option<ActiveSpan>> = const { RefCell::new(None) };
}

/// Bounded ring of recent [`JobTrace`]s.
pub struct TraceRing {
    cap: usize,
    next_id: AtomicU64,
    ring: Mutex<VecDeque<JobTrace>>,
}

impl TraceRing {
    /// New ring retaining at most `cap` recent jobs.
    pub fn new(cap: usize) -> Self {
        TraceRing {
            cap: cap.max(1),
            next_id: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The process-wide ring fed by [`span_enter`].
    pub fn global() -> &'static TraceRing {
        static GLOBAL: OnceLock<TraceRing> = OnceLock::new();
        GLOBAL.get_or_init(|| TraceRing::new(DEFAULT_RING_CAP))
    }

    fn push(&self, t: JobTrace) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(t);
    }

    /// Jobs currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").len()
    }

    /// True when no jobs have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent `n` traces, newest last.
    pub fn recent(&self, n: usize) -> Vec<JobTrace> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        ring.iter().rev().take(n).rev().cloned().collect()
    }
}

/// RAII guard for a job span. Obtain via [`span_enter`]; close with
/// [`SpanGuard::finish`]. Dropping without finishing records the job
/// with outcome `"abandoned"`.
#[must_use = "hold the guard for the span's lifetime and call finish()"]
pub struct SpanGuard {
    armed: bool,
}

/// Open a job span on this thread. Returns a disarmed no-op guard if
/// recording is disabled or a span is already active (nested jobs —
/// e.g. engine-inline sub-work — fold into their parent).
pub fn span_enter(op: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { armed: false };
    }
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        if cur.is_some() {
            return SpanGuard { armed: false };
        }
        let now = Instant::now();
        *cur = Some(ActiveSpan {
            id: TraceRing::global().next_id.fetch_add(1, Ordering::Relaxed),
            op,
            started: now,
            last_mark: now,
            stages: Vec::with_capacity(8),
        });
        SpanGuard { armed: true }
    })
}

/// Record the time since the previous mark (or span start) as stage
/// `name` on the active span, if any. Cheap no-op otherwise.
pub fn mark_stage(name: &'static str) {
    CURRENT.with(|c| {
        if let Some(span) = c.borrow_mut().as_mut() {
            if span.stages.len() < MAX_STAGES {
                let now = Instant::now();
                span.stages.push((name, now - span.last_mark));
                span.last_mark = now;
            }
        }
    });
}

impl SpanGuard {
    /// Close the span: push the [`JobTrace`] into the global ring and
    /// fold stage durations into `trace.stage.*` histograms.
    pub fn finish(mut self, outcome: &'static str, bytes_in: u64, bytes_out: u64) {
        self.close(outcome, bytes_in, bytes_out);
    }

    fn close(&mut self, outcome: &'static str, bytes_in: u64, bytes_out: u64) {
        if !self.armed {
            return;
        }
        self.armed = false;
        let Some(span) = CURRENT.with(|c| c.borrow_mut().take()) else {
            return;
        };
        let reg = Registry::global();
        for &(stage, d) in &span.stages {
            // Stage names are a small static set; the format+lock here
            // runs once per multi-millisecond job, off the hot loops.
            reg.histogram(&format!("trace.stage.{stage}_us"))
                .record_duration(d);
        }
        let total = span.started.elapsed();
        reg.histogram(&format!("trace.job.{}_us", span.op))
            .record_duration(total);
        TraceRing::global().push(JobTrace {
            id: span.id,
            op: span.op,
            outcome,
            bytes_in,
            bytes_out,
            total,
            stages: span.stages,
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            self.close("abandoned", 0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests share the process-global ring and TLS slot; each
    // runs on its own test thread, so TLS spans never collide, and
    // assertions only inspect traces they created (by op name).

    #[test]
    fn span_records_stages_in_order() {
        let g = span_enter("test_op_a");
        mark_stage("parse");
        mark_stage("decode");
        g.finish("ok", 10, 4);
        let t = TraceRing::global()
            .recent(DEFAULT_RING_CAP)
            .into_iter()
            .rev()
            .find(|t| t.op == "test_op_a")
            .expect("trace recorded");
        let names: Vec<_> = t.stages.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ["parse", "decode"]);
        assert_eq!((t.outcome, t.bytes_in, t.bytes_out), ("ok", 10, 4));
        assert!(Registry::global().histogram("trace.stage.parse_us").count() >= 1);
    }

    #[test]
    fn nested_span_is_noop_and_drop_abandons() {
        let outer = span_enter("test_op_b");
        {
            let inner = span_enter("test_op_b_inner");
            mark_stage("inner_stage");
            inner.finish("ok", 0, 0); // disarmed: outer span continues
        }
        drop(outer); // abandoned
        let ring = TraceRing::global().recent(DEFAULT_RING_CAP);
        assert!(!ring.iter().any(|t| t.op == "test_op_b_inner"));
        let t = ring
            .iter()
            .rev()
            .find(|t| t.op == "test_op_b")
            .expect("outer recorded");
        assert_eq!(t.outcome, "abandoned");
        // The inner mark landed on the outer span.
        assert!(t.stages.iter().any(|&(n, _)| n == "inner_stage"));
    }

    #[test]
    fn ring_is_bounded() {
        let ring = TraceRing::new(4);
        for i in 0..10 {
            ring.push(JobTrace {
                id: i,
                op: "x",
                outcome: "ok",
                bytes_in: 0,
                bytes_out: 0,
                total: Duration::ZERO,
                stages: Vec::new(),
            });
        }
        assert_eq!(ring.len(), 4);
        let ids: Vec<u64> = ring.recent(10).iter().map(|t| t.id).collect();
        assert_eq!(ids, [6, 7, 8, 9]);
    }
}
