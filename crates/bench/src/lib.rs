//! Shared measurement machinery for the per-figure harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (see DESIGN.md §3 for the index). This library
//! provides what they share: a peak-tracking global allocator (Fig. 3),
//! corpus construction at benchmark scale, timing helpers, and simple
//! text "plots".

pub mod json;

use lepton_corpus::{Corpus, CorpusSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A `System`-backed allocator that tracks live and peak bytes, used to
/// reproduce Fig. 3's max-resident-memory comparison. Install in a
/// binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: lepton_bench::TrackingAlloc = lepton_bench::TrackingAlloc::new();
/// ```
pub struct TrackingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl TrackingAlloc {
    /// Const-initializable.
    pub const fn new() -> Self {
        TrackingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Reset the peak to the current live size.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Peak bytes since the last reset.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Live bytes now.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }
}

impl Default for TrackingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates to `System`; the bookkeeping uses only atomics.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc` contract (a non-zero-size
        // `layout`) is exactly `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = self.live.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `dealloc` contract (`ptr` came from this
        // allocator's `alloc` with `layout`) is exactly `System`'s, and
        // `alloc` only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) };
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

/// Iteration budget for harness runs, overridable via
/// `LEPTON_BENCH_FILES`. Most harnesses spend it as a corpus file
/// count; `fig7`/`fig8` spend it as a bound on how many size points
/// run — either way, a small value (say 3) means a quick
/// pass and the unset default means the full run.
pub fn bench_file_count(default: usize) -> usize {
    std::env::var("LEPTON_BENCH_FILES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The standard benchmark corpus (clean JPEGs only).
pub fn bench_corpus(count: usize, max_dim: usize, seed: u64) -> Vec<Vec<u8>> {
    let spec = CorpusSpec {
        count,
        min_dim: 96,
        max_dim,
        clean_fraction: 1.0,
        seed,
    };
    Corpus::generate(&spec)
        .files
        .into_iter()
        .map(|f| f.data)
        .collect()
}

/// The §4 population: includes rejects and corruption.
pub fn mixed_corpus(count: usize, seed: u64) -> Corpus {
    Corpus::generate(&CorpusSpec {
        count,
        min_dim: 64,
        max_dim: 384,
        clean_fraction: 0.94,
        seed,
    })
}

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Mbit/s for `bytes` processed in `secs`.
pub fn mbps(bytes: usize, secs: f64) -> f64 {
    (bytes as f64 * 8.0) / (secs.max(1e-9) * 1e6)
}

/// Render a crude horizontal bar for terminal "figures".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round() as usize
    };
    "#".repeat(n.min(width))
}

/// Print a standard harness header naming the figure being reproduced.
pub fn header(id: &str, caption: &str) {
    println!("==============================================================");
    println!("{id}: {caption}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The harnesses' percentiles are `lepton_obs::nearest_rank` over
    /// sorted samples.
    #[test]
    fn percentile_and_bar() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        v.sort_by(f64::total_cmp);
        assert_eq!(lepton_obs::nearest_rank(&v, 50.0), 3.0);
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
    }

    #[test]
    fn corpus_helpers() {
        let c = bench_corpus(3, 128, 1);
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|f| f.starts_with(&[0xFF, 0xD8])));
    }

    #[test]
    fn mbps_math() {
        assert!((mbps(1_000_000, 1.0) - 8.0).abs() < 1e-9);
    }
}
