//! Concurrency accounting for the service.
//!
//! [`ConcurrencyGauge`] counts work in flight with an RAII lease, plus
//! a high-water mark and a running total. The service keeps two:
//! `server.conversions` (Lepton conversions running right now, the
//! number §5.5's outsourcing rule is stated in, which
//! `lepton_cluster::sim` models) and `server.conns` (live
//! connections, whose high water the connection-cap tests read).
//!
//! Each gauge is a thin facade over a [`lepton_obs::Gauge`] (active +
//! high water) and a [`lepton_obs::Counter`] (total leases) on the
//! service's registry, so the `StatsV2` snapshot exports the same
//! atomics the service updates, with no parallel bookkeeping.
//!
//! # Why this no longer uses `SeqCst`
//!
//! The original implementation did every RMW and load with `SeqCst`.
//! That bought nothing: the three cells are independent statistics —
//! no other memory is published *through* them — so the only ordering
//! that matters is (a) per-atomic modification order, which any RMW
//! ordering provides (increments are never lost, `fetch_max` converges
//! to the true maximum), and (b) the lease-release edge: a thread that
//! observes `active() == 0` must also observe the finished jobs'
//! writes. The RAII lease makes the decrement the job's last action,
//! so a `Release` decrement paired with an `Acquire` read of the
//! active count — implemented in `lepton_obs::Gauge::sub`/`value` —
//! preserves exactly that guarantee while everything else runs
//! `Relaxed`. The cross-atomic total order `SeqCst` added was paying
//! for a full fence per request on weakly-ordered targets with no
//! observable difference. The `lease_raii_tracks_active` /
//! `high_water_is_monotonic_under_threads` tests below pin the
//! behavior contract unchanged across the downgrade.

use lepton_obs::{Counter, Gauge, Registry};
use std::sync::Arc;

/// Live counter of in-flight conversions with a high-water mark.
#[derive(Debug)]
pub struct ConcurrencyGauge {
    active: Arc<Gauge>,
    total: Arc<Counter>,
}

impl Default for ConcurrencyGauge {
    fn default() -> Self {
        ConcurrencyGauge {
            active: Arc::new(Gauge::new()),
            total: Arc::new(Counter::new()),
        }
    }
}

impl ConcurrencyGauge {
    /// New detached gauge at zero.
    pub fn new() -> Arc<ConcurrencyGauge> {
        Arc::new(ConcurrencyGauge::default())
    }

    /// New gauge whose cells live on `registry` as
    /// `<prefix>.active` (gauge + high water) and `<prefix>.total`
    /// (counter) — the same atomics the admission path updates, so
    /// snapshots are always live.
    pub fn on_registry(registry: &Registry, prefix: &str) -> Arc<ConcurrencyGauge> {
        Arc::new(ConcurrencyGauge {
            active: registry.gauge(&format!("{prefix}.active")),
            total: registry.counter(&format!("{prefix}.total")),
        })
    }

    /// Begin a conversion; the returned lease decrements on drop.
    pub fn acquire(self: &Arc<Self>) -> Lease {
        self.active.add(1);
        self.total.inc();
        Lease {
            gauge: Arc::clone(self),
        }
    }

    /// Conversions in flight right now (`Acquire`; see module docs).
    pub fn active(&self) -> u32 {
        self.active.value().max(0) as u32
    }

    /// Most conversions ever in flight at once.
    pub fn high_water(&self) -> u32 {
        self.active.high_water().max(0) as u32
    }

    /// Conversions started since creation.
    pub fn total(&self) -> u64 {
        self.total.get()
    }
}

/// RAII lease on the gauge; dropping it ends the conversion.
#[derive(Debug)]
pub struct Lease {
    gauge: Arc<ConcurrencyGauge>,
}

impl Drop for Lease {
    fn drop(&mut self) {
        // Release: pairs with the Acquire in `active()` (module docs).
        self.gauge.active.sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unchanged-behavior contract across the SeqCst→Relaxed/AcqRel
    /// downgrade: same-thread RAII accounting is exact.
    #[test]
    fn lease_raii_tracks_active() {
        let g = ConcurrencyGauge::new();
        assert_eq!(g.active(), 0);
        {
            let _a = g.acquire();
            let _b = g.acquire();
            assert_eq!(g.active(), 2);
            assert_eq!(g.high_water(), 2);
        }
        assert_eq!(g.active(), 0);
        assert_eq!(g.high_water(), 2, "high water survives drops");
        assert_eq!(g.total(), 2);
    }

    /// Unchanged-behavior contract under contention: totals exact,
    /// high water within [1, threads], gauge drains to zero — the
    /// per-atomic modification order guarantees these regardless of
    /// the weaker orderings.
    #[test]
    fn high_water_is_monotonic_under_threads() {
        let g = ConcurrencyGauge::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let _l = g.acquire();
                    std::hint::black_box(&g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.active(), 0);
        assert!(g.high_water() >= 1 && g.high_water() <= 8);
        assert_eq!(g.total(), 800);
    }
}
