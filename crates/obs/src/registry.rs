//! The named metric directory.
//!
//! A [`Registry`] maps stable dotted names (`server.op.compress.latency_us`)
//! to shared metric handles. The map itself sits behind a mutex, but
//! only registration and snapshotting take it: callers resolve their
//! handles once at construction time and then record through plain
//! `Arc`s, so the request path never contends on the registry.
//!
//! Processes usually hold several registries: one global one
//! ([`Registry::global`]) for process-wide singletons (the codec
//! engine, job traces), and one per service/gateway instance so
//! in-process fleets (e.g. `LocalFleet`) keep per-node statistics.

use crate::hist::Histogram;
use crate::metric::{Counter, Gauge};
use crate::snapshot::{MetricValue, Snapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

#[derive(Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

/// A directory of named counters, gauges and histograms.
#[derive(Default)]
pub struct Registry {
    // BTreeMap so snapshots come out name-sorted and deterministic.
    inner: Mutex<BTreeMap<String, Handle>>,
}

impl Registry {
    /// New, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry for singleton subsystems.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind —
    /// that is a naming bug, not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.lock().expect("registry poisoned");
        let h = map
            .entry(name.to_owned())
            .or_insert_with(|| Handle::Counter(Arc::new(Counter::new())));
        match h {
            Handle::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Get or create the gauge `name` (panics on kind mismatch).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.lock().expect("registry poisoned");
        let h = map
            .entry(name.to_owned())
            .or_insert_with(|| Handle::Gauge(Arc::new(Gauge::new())));
        match h {
            Handle::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or create the histogram `name` (panics on kind mismatch).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.inner.lock().expect("registry poisoned");
        let h = map
            .entry(name.to_owned())
            .or_insert_with(|| Handle::Histogram(Arc::new(Histogram::new())));
        match h {
            Handle::Histogram(hi) => Arc::clone(hi),
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Register an externally owned counter under `name`, replacing
    /// any previous entry. Lets subsystems that already embed their
    /// counters (e.g. the sharded blockstore) surface them without
    /// rerouting their hot paths.
    pub fn adopt_counter(&self, name: &str, c: &Arc<Counter>) {
        let mut map = self.inner.lock().expect("registry poisoned");
        map.insert(name.to_owned(), Handle::Counter(Arc::clone(c)));
    }

    /// Register an externally owned gauge under `name` (see
    /// [`Registry::adopt_counter`]).
    pub fn adopt_gauge(&self, name: &str, g: &Arc<Gauge>) {
        let mut map = self.inner.lock().expect("registry poisoned");
        map.insert(name.to_owned(), Handle::Gauge(Arc::clone(g)));
    }

    /// Point-in-time copy of every registered metric, name-sorted.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.inner.lock().expect("registry poisoned");
        let entries = map
            .iter()
            .map(|(name, h)| {
                let v = match h {
                    Handle::Counter(c) => MetricValue::Counter(c.get()),
                    Handle::Gauge(g) => MetricValue::Gauge {
                        value: g.value(),
                        high_water: g.high_water(),
                    },
                    Handle::Histogram(hi) => MetricValue::Histogram(hi.snapshot()),
                };
                (name.clone(), v)
            })
            .collect();
        Snapshot { entries }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.inner.lock().expect("registry poisoned");
        f.debug_struct("Registry").field("len", &map.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b.count").add(3);
        r.gauge("a.depth").set(5);
        r.histogram("c.lat_us").record(100);
        let s = r.snapshot();
        let names: Vec<&str> = s.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.depth", "b.count", "c.lat_us"]);
        assert_eq!(s.get("b.count"), Some(&MetricValue::Counter(3)));
    }

    #[test]
    fn adopted_counter_is_live() {
        let r = Registry::new();
        let c = Arc::new(Counter::new());
        r.adopt_counter("ext.hits", &c);
        c.add(9);
        match r.snapshot().get("ext.hits") {
            Some(&MetricValue::Counter(9)) => {}
            other => panic!("{other:?}"),
        }
    }
}
