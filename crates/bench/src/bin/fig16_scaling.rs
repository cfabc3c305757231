//! Figure 16 (beyond the paper): engine throughput vs worker-pool size.
//!
//! The paper's multicore claim (§5.1, Fig. 16 analogue) is that Lepton's
//! thread-segment design scales near-linearly until the pool runs out
//! of cores. This harness measures that directly: dedicated
//! `Engine::new(n)` pools for n = 1/2/4/8 workers, each fed the same
//! stream of multi-segment decompression jobs from concurrent client
//! threads (decode is the pure pool path — the drain thread never
//! participates, so every segment job crosses the queue).
//!
//! Per point it records throughput, the pool busy ratio (engine
//! `busy_us` over `workers × wall`), and the queue-depth high water.
//! The record is tagged with the honest host core count: scaling
//! curves from different core counts are not comparable.

use lepton_bench::json::{emit, Json};
use lepton_bench::{bench_file_count, header, mbps, timed};
use lepton_core::{CompressOptions, Engine, ThreadPolicy};
use lepton_corpus::builder::{clean_jpeg, CorpusSpec};

/// Thread segments per container: every job must be multi-segment so it
/// exercises the queue instead of the inline fast path.
const SEGMENTS: usize = 4;

/// Client threads submitting jobs concurrently (the paper's
/// blockservers ran many conversions at once, §5.5).
const CLIENTS: usize = 4;

fn main() {
    header(
        "Figure 16",
        "multicore scaling: decode throughput vs engine workers",
    );
    let quick = bench_file_count(4);
    // Corpus: mid-size files so each segment is substantial.
    let spec = CorpusSpec {
        min_dim: 448,
        max_dim: 480,
        ..Default::default()
    };
    let files: Vec<Vec<u8>> = (0..quick.min(4) as u64)
        .map(|s| clean_jpeg(&spec, 0xF16_5CA1E ^ s))
        .collect();
    let opts = CompressOptions {
        threads: ThreadPolicy::Fixed(SEGMENTS),
        verify: false,
        ..Default::default()
    };
    // Encode once on a throwaway pool; the sweep measures decode.
    let setup = Engine::new(2);
    let encs: Vec<Vec<u8>> = files
        .iter()
        .map(|f| setup.compress(f, &opts).expect("encode"))
        .collect();
    drop(setup);
    let jpeg_bytes: usize = files.iter().map(|f| f.len()).sum();
    let reps_per_client = if quick < 4 { 2 } else { 6 };

    println!(
        "{:>8} | {:>9} {:>10} {:>9} {:>9}",
        "workers", "MB/s", "speedup", "busy", "queue hw"
    );
    let mut rows = Vec::new();
    let mut base_mbps = 0.0f64;
    for workers in [1usize, 2, 4, 8] {
        let engine = Engine::new(workers);
        // Warm every worker arena once.
        for e in &encs {
            let out = engine.decompress(e).expect("warm decode");
            std::hint::black_box(out);
        }
        let (_, secs) = timed(|| {
            std::thread::scope(|s| {
                for c in 0..CLIENTS {
                    let engine = &engine;
                    let encs = &encs;
                    s.spawn(move || {
                        for r in 0..reps_per_client {
                            for e in encs {
                                let out = engine.decompress(e).expect("decode");
                                std::hint::black_box(out);
                            }
                            // Sample the queue gauge between jobs so the
                            // high-water mark sees mid-run backlog.
                            let _ = (c, r);
                            engine.refresh_gauges();
                        }
                    });
                }
            });
        });
        let m = engine.metrics();
        let total_bytes = jpeg_bytes * CLIENTS * reps_per_client;
        let rate = mbps(total_bytes, secs);
        if workers == 1 {
            base_mbps = rate;
        }
        let busy_ratio = m.busy_us.get() as f64 / (workers as f64 * secs * 1e6);
        let queue_hw = m.queue_depth.high_water();
        let speedup = if base_mbps > 0.0 {
            rate / base_mbps
        } else {
            0.0
        };
        println!("{workers:>8} | {rate:>9.0} {speedup:>9.2}x {busy_ratio:>8.2} {queue_hw:>9}",);
        rows.push(Json::obj([
            ("workers", Json::from(workers)),
            ("mbps", Json::from(rate)),
            ("speedup_vs_1", Json::from(speedup)),
            ("busy_ratio", Json::from(busy_ratio)),
            ("queue_high_water", Json::from(queue_hw)),
        ]));
    }
    println!("\npaper shape: near-linear until workers exceed physical cores;");
    println!("busy ratio falls and the queue high-water grows past that knee.");
    emit(
        "fig16_scaling",
        [
            ("segments_per_job", Json::from(SEGMENTS)),
            ("client_threads", Json::from(CLIENTS)),
            ("rows", Json::Arr(rows)),
        ],
    );
}
