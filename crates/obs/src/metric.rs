//! Scalar metrics: monotonic counters and up/down gauges.
//!
//! # Memory-ordering rationale (the `SeqCst` downgrade)
//!
//! Every operation here is `Relaxed` except the gauge decrement /
//! read pair, and that is deliberate:
//!
//! - Counters and high-water marks are *pure statistics*: no other
//!   memory location is published or consumed through them, so there
//!   is nothing for an `Acquire`/`Release` edge to order. Atomicity
//!   alone (the total modification order every atomic has) guarantees
//!   increments are never lost and `fetch_max` converges to the true
//!   maximum.
//! - The gauge's `sub` (the lease-release path) uses `Release`, and
//!   `value()` uses `Acquire`. This preserves the one cross-thread
//!   guarantee callers of the old `SeqCst` code actually relied on:
//!   an observer that reads `active == 0` also observes every write
//!   the finished jobs made before releasing their leases. The RAII
//!   lease makes the decrement the *last* action of a job, so the
//!   Release/Acquire pair on that single atomic is exactly the edge
//!   needed — `SeqCst`'s global ordering across unrelated atomics
//!   bought nothing.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonic event counter.
///
/// Cache-line aligned: registry cells are allocated independently but
/// hot ones (the engine's `busy_us`, the server's request counters) are
/// bumped from every worker thread, and two cells sharing a line turn
/// unrelated counters into a coherence ping-pong. One line per cell
/// costs bytes, not time.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // Relaxed: statistics only; see module docs.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An up/down gauge with a monotonic high-water mark.
///
/// Backs concurrency/inflight accounting, so like [`Counter`] it is
/// never gated by [`crate::set_enabled`] — a gauge that stops moving
/// would unbalance RAII leases.
// Cache-line aligned for the same false-sharing reason as [`Counter`];
// `value` and `high_water` deliberately share the line (they are always
// written together).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct Gauge {
    value: AtomicI64,
    high_water: AtomicI64,
}

impl Gauge {
    /// New gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
            high_water: AtomicI64::new(0),
        }
    }

    /// Increment by `n`, returning the post-increment value, and fold
    /// it into the high-water mark.
    #[inline]
    pub fn add(&self, n: i64) -> i64 {
        // Relaxed RMW: the RMW itself is atomic, and the returned
        // `now` is this thread's own edge. fetch_max is monotonic
        // regardless of ordering. See module docs.
        let now = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.high_water.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Decrement by `n`. `Release` so an observer that sees the
    /// gauge drained also sees the releasing thread's prior writes
    /// (module docs).
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Release);
    }

    /// Overwrite the value (sampled gauges, e.g. queue depth) and
    /// fold it into the high-water mark.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value. `Acquire` pairs with [`Gauge::sub`].
    #[inline]
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Acquire)
    }

    /// Highest value ever observed by [`Gauge::add`] / [`Gauge::set`].
    #[inline]
    pub fn high_water(&self) -> i64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_tracks_value_and_high_water() {
        let g = Gauge::new();
        assert_eq!(g.add(1), 1);
        assert_eq!(g.add(2), 3);
        g.sub(3);
        assert_eq!(g.value(), 0);
        assert_eq!(g.high_water(), 3);
        g.set(2);
        assert_eq!(g.high_water(), 3);
        g.set(7);
        assert_eq!(g.high_water(), 7);
    }

    /// The relaxed orderings still yield an exact max and a balanced
    /// count under contention (per-atomic modification order).
    #[test]
    fn gauge_is_exact_under_threads() {
        let g = Arc::new(Gauge::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    g.add(1);
                    g.sub(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.value(), 0);
        let hw = g.high_water();
        assert!((1..=8).contains(&hw), "high water {hw}");
    }
}
