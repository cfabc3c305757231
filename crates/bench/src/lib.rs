//! Shared measurement machinery for the per-figure harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (see DESIGN.md §3 for the index). This library
//! provides what they share: a reader of the process's peak resident
//! memory (Fig. 3), corpus construction at benchmark scale, timing
//! helpers, and simple text "plots".

pub mod json;

use lepton_corpus::{Corpus, CorpusSpec};
use std::time::Instant;

/// This process's peak resident set (`VmHWM`) in KiB, or `None` where
/// `/proc/self/status` is absent or has no such line. Fig. 3 reads it
/// before and after one operation in a fresh process.
pub fn vm_hwm_kib() -> Option<u64> {
    parse_vm_hwm_kib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The `VmHWM:` value of a `/proc/<pid>/status` text, in KiB.
fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
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
    fn vm_hwm_parses_proc_status() {
        let sample =
            "Name:\tfig3_memory\nVmPeak:\t   20480 kB\nVmHWM:\t    6144 kB\nVmRSS:\t    5120 kB\n";
        assert_eq!(parse_vm_hwm_kib(sample), Some(6144));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t    5120 kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn vm_hwm_is_live_on_linux() {
        assert!(vm_hwm_kib().is_some_and(|kib| kib > 0));
    }

    #[test]
    fn mbps_math() {
        assert!((mbps(1_000_000, 1.0) - 8.0).abs() < 1e-9);
    }
}
