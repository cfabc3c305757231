//! Dependency-light, lock-free runtime telemetry for the Lepton stack.
//!
//! The paper's deployment story (§6) leans on fleet-wide monitoring:
//! an 18-row exit-code taxonomy, compression-ratio time series, and
//! anomaly alarms gating rollout. This crate is the in-process half of
//! that loop, shared by every serving crate:
//!
//! - [`Counter`] / [`Gauge`]: plain atomics, `Relaxed` on the hot
//!   path — telemetry never synchronises program data.
//! - [`Histogram`]: fixed-size log-bucketed atomic histogram; p50,
//!   p99 and p999 come from bucket counts, never from sorting sample
//!   vectors.
//! - [`Registry`]: named metric directory. Registration and snapshot
//!   take a mutex; recording touches only pre-resolved `Arc` handles,
//!   so the request path stays lock-free.
//! - [`trace`]: a `JobTrace` span API recording per-stage wall time
//!   (header parse → scan decode → arithmetic code → verify → store)
//!   into a bounded ring of recent jobs.
//! - [`Watchdog`]: feeds compression-ratio and shed/error-rate series
//!   into the same detectors the offline cluster harnesses use, and
//!   flips a degraded-health flag servers and gateways report.
//! - [`Percentiles`] / [`nearest_rank_index`]: the single nearest-rank
//!   implementation the offline harnesses and the runtime histograms
//!   both defer to.
//!
//! Snapshots serialise to a versioned length-prefixed wire format
//! ([`Snapshot::to_wire`]) served by the server's `StatsV2` op.
//!
//! [`set_enabled`] switches histogram and trace recording off at
//! runtime for A/B overhead measurements.

pub mod hist;
pub mod metric;
pub mod percentile;
pub mod registry;
pub mod snapshot;
pub mod trace;
pub mod watchdog;

pub use hist::{Histogram, HistogramSnapshot};
pub use metric::{Counter, Gauge};
pub use percentile::{nearest_rank, nearest_rank_index, Percentiles};
pub use registry::Registry;
pub use snapshot::{MetricValue, Snapshot, SnapshotWireError};
pub use trace::{mark_stage, span_enter, JobTrace, SpanGuard, TraceRing};
pub use watchdog::{MeanShiftDetector, RateDetector, Watchdog, WatchdogConfig};

use std::sync::atomic::{AtomicBool, Ordering};

/// Global runtime kill switch for the *expensive* recording paths
/// (histograms and job traces). Counters and gauges always record:
/// they are load-bearing (admission accounting, lease balancing) and
/// cost a single relaxed RMW. `Relaxed` is enough — the flag gates
/// statistics, not program order.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable histogram and trace recording at runtime.
///
/// Used by lepbench's `obs.overhead_pct` to measure telemetry cost
/// without rebuilding.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when histogram and trace recording is live.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
