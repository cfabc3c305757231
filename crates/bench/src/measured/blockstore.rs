//! The sharded, compress-on-write block store (§5.6/§5.7 as a storage
//! system, not a codec): write throughput and at-rest savings, cold vs
//! cached reads, concurrent reads by shard count, savings by block size
//! (Fig. 6 on the store), and a real backfill priced by the Fig. 11
//! model via [`MeasuredBackfill`].

use crate::json::{Fields, Json};
use crate::{bench_file_count, clean_jpeg_near, mbps, temp_root, timed};
use lepton_cluster::backfill::{BackfillConfig, Economics, MeasuredBackfill};
use lepton_storage::blockstore::{ShardedStore, StoreConfig};
use lepton_storage::sha256::Digest;

/// Threads driving the concurrent-read stage.
const READ_THREADS: usize = 8;
/// Hot-read rounds over the whole corpus (keeps timings measurable).
const HOT_ROUNDS: usize = 20;

/// `len` incompressible bytes from the xorshift state `x`.
fn noise(x: &mut u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            (*x >> 32) as u8
        })
        .collect()
}

/// A size-spread corpus: JPEG blocks plus some incompressible blobs,
/// like real blockserver traffic.
fn corpus(n: usize) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..n as u64)
        .map(|seed| clean_jpeg_near(96 + (seed as usize * 53) % 420, 48, seed))
        .collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    out.extend((0..n / 4).map(|i| noise(&mut x, 20_000 + i * 1000)));
    out
}

fn read_all(store: &ShardedStore, keys: &[Digest]) {
    for k in keys {
        let out = store.get(k).expect("readable").expect("present");
        std::hint::black_box(out.len());
    }
}

/// Reads/s with `READ_THREADS` threads hammering a warm store.
fn concurrent_reads_per_sec(store: &ShardedStore, keys: &[Digest], rounds: usize) -> f64 {
    read_all(store, keys); // warm the cache
    let (_, secs) = timed(|| {
        std::thread::scope(|scope| {
            for t in 0..READ_THREADS {
                scope.spawn(move || {
                    for r in 0..rounds {
                        // Offset per thread so threads do not march in
                        // lockstep over the same shard.
                        for i in 0..keys.len() {
                            let k = &keys[(i + t * 7 + r) % keys.len()];
                            let out = store.get(k).expect("readable").expect("present");
                            std::hint::black_box(out.len());
                        }
                    }
                });
            }
        });
    });
    (READ_THREADS * rounds * keys.len()) as f64 / secs.max(1e-9)
}

pub(crate) fn fig13_blockstore() -> Option<Fields> {
    let n = bench_file_count(24);
    let blocks = corpus(n);
    let total_bytes: usize = blocks.iter().map(|b| b.len()).sum();
    println!("corpus: {} blocks, {} bytes\n", blocks.len(), total_bytes);

    // ---- Write path --------------------------------------------------
    let write_root = temp_root("fig13bs-write");
    let store = ShardedStore::open(&write_root, StoreConfig::default()).expect("open");
    let (keys, write_secs) = timed(|| {
        blocks
            .iter()
            .map(|b| store.put(b).expect("put"))
            .collect::<Vec<Digest>>()
    });
    let stats = store.stat().expect("stat");
    println!(
        "write: {:.1} puts/s, {:.0} Mbit/s in, {:.1}% saved at rest",
        blocks.len() as f64 / write_secs,
        mbps(total_bytes, write_secs),
        100.0 * stats.savings()
    );

    // ---- Savings by size (Fig. 6 shape, on the store) ---------------
    let mut sized: Vec<(usize, f64)> = keys
        .iter()
        .zip(&blocks)
        .filter(|(k, b)| {
            store.format_of(k).expect("format").expect("present")
                == lepton_storage::StoredFormat::Lepton
                && !b.is_empty()
        })
        .map(|(k, b)| {
            let at_rest = store.stored_size(k).expect("size").expect("present");
            (b.len(), 100.0 * (1.0 - at_rest as f64 / b.len() as f64))
        })
        .collect();
    sized.sort_by_key(|p| p.0);
    let mut savings_by_size = Vec::new();
    println!("\n{:>14} {:>7} {:>9}", "size bucket", "blocks", "savings");
    for chunk in sized.chunks(sized.len().div_ceil(6).max(1)) {
        let lo = chunk.first().expect("nonempty").0;
        let hi = chunk.last().expect("nonempty").0;
        let mean: f64 = chunk.iter().map(|p| p.1).sum::<f64>() / chunk.len() as f64;
        println!("{:>6}-{:<7}B {:>7} {:>8.1}%", lo, hi, chunk.len(), mean);
        savings_by_size.push(Json::obj([
            ("lo_bytes", Json::from(lo)),
            ("hi_bytes", Json::from(hi)),
            ("blocks", Json::from(chunk.len())),
            ("savings_pct", Json::from(mean)),
        ]));
    }

    // ---- Cold decode vs cached-hot reads ----------------------------
    // A fresh handle on the same directory starts with an empty cache:
    // the first pass decodes every block, later passes are pure cache.
    drop(store);
    let store = ShardedStore::open(&write_root, StoreConfig::default()).expect("reopen");
    let (_, cold_secs) = timed(|| read_all(&store, &keys));
    let (_, hot_secs) = timed(|| {
        for _ in 0..HOT_ROUNDS {
            read_all(&store, &keys);
        }
    });
    let hot_secs = hot_secs / HOT_ROUNDS as f64;
    let speedup = cold_secs / hot_secs.max(1e-9);
    println!(
        "\nreads: cold {:.0} Mbit/s, hot {:.0} Mbit/s — {:.1}x speedup from the cache",
        mbps(total_bytes, cold_secs),
        mbps(total_bytes, hot_secs),
        speedup
    );

    // ---- Concurrent-read scaling by shard count ---------------------
    // Warm-cache reads of small blocks are lock-bound, so the shard
    // count is what limits concurrency: one shard means every reader
    // fights one mutex, N shards spread them N ways. (On a single
    // hardware thread the win is smaller — it comes from avoiding
    // contended-lock overhead rather than true parallelism.)
    // Many small incompressible blocks, so warm reads are dominated by
    // the per-shard lock rather than by copying payload bytes.
    let mut x = 0xA076_1D64_78BD_642Fu64;
    let small: Vec<Vec<u8>> = (0..192).map(|_| noise(&mut x, 4096)).collect();
    let mut shard_scaling = Vec::new();
    let mut scale_rps = Vec::new();
    println!("\nconcurrent reads, {READ_THREADS} threads, 192 x 4 KiB blocks:");
    println!("{:>7} {:>13}", "shards", "reads/s");
    for shards in [1usize, 4, 16] {
        let root = temp_root(&format!("fig13bs-shards{shards}"));
        let cfg = StoreConfig {
            shards,
            compress_on_write: false,
            ..Default::default()
        };
        let s = ShardedStore::open(&root, cfg).expect("open");
        let ks: Vec<Digest> = small.iter().map(|b| s.put(b).expect("put")).collect();
        let rps = concurrent_reads_per_sec(&s, &ks, 60);
        println!("{shards:>7} {rps:>13.0}");
        scale_rps.push(rps);
        shard_scaling.push(Json::obj([
            ("shards", Json::from(shards)),
            ("reads_per_sec", Json::from(rps)),
        ]));
        let _ = std::fs::remove_dir_all(&root);
    }
    let shard_speedup = scale_rps.last().expect("ran") / scale_rps.first().expect("ran").max(1e-9);
    println!("sharding speedup (16 vs 1): {shard_speedup:.2}x");

    // ---- Backfill, feeding the Fig. 11 model ------------------------
    let backfill_root = temp_root("fig13bs-backfill");
    let raw_cfg = StoreConfig {
        compress_on_write: false,
        ..Default::default()
    };
    let raw_store = ShardedStore::open(&backfill_root, raw_cfg).expect("open");
    for b in &blocks {
        raw_store.put(b).expect("put");
    }
    let parallelism = 4;
    let report = raw_store.backfill(parallelism).expect("backfill");
    let measured = MeasuredBackfill::from_run(
        report.converted,
        report.bytes_before,
        report.bytes_after,
        report.secs,
        parallelism,
    );
    let fleet = BackfillConfig::default().with_measured(&measured, 8);
    let eco = Economics::from_config(&fleet);
    println!(
        "\nbackfill: {} of {} converted in {:.2}s ({:.1} conv/s, {:.1}% saved)",
        report.converted,
        report.scanned,
        report.secs,
        report.conversions_per_sec(),
        100.0 * report.savings()
    );
    println!(
        "fig11 model, measured rates: {:.0} conversions/kWh, {:.1} GiB saved/kWh",
        eco.conversions_per_kwh,
        eco.gib_saved_per_kwh()
    );

    let record = vec![
        ("blocks", Json::from(blocks.len())),
        ("bytes", Json::from(total_bytes)),
        ("shards", Json::from(store.shard_count())),
        (
            "write_puts_per_sec",
            Json::from(blocks.len() as f64 / write_secs),
        ),
        ("write_mbps", Json::from(mbps(total_bytes, write_secs))),
        ("store_savings_pct", Json::from(100.0 * stats.savings())),
        ("read_cold_mbps", Json::from(mbps(total_bytes, cold_secs))),
        ("read_hot_mbps", Json::from(mbps(total_bytes, hot_secs))),
        ("cache_speedup", Json::from(speedup)),
        ("shard_scaling", Json::Arr(shard_scaling)),
        ("shard_speedup_16_vs_1", Json::from(shard_speedup)),
        ("savings_by_size", Json::Arr(savings_by_size)),
        (
            "backfill",
            Json::obj([
                ("converted", Json::from(report.converted)),
                (
                    "conversions_per_sec",
                    Json::from(report.conversions_per_sec()),
                ),
                ("savings_pct", Json::from(100.0 * report.savings())),
                ("parallelism", Json::from(parallelism)),
            ]),
        ),
        (
            "economics_measured",
            Json::obj([
                ("conversions_per_kwh", Json::from(eco.conversions_per_kwh)),
                ("gib_saved_per_kwh", Json::from(eco.gib_saved_per_kwh())),
            ]),
        ),
    ];

    let _ = std::fs::remove_dir_all(&write_root);
    let _ = std::fs::remove_dir_all(&backfill_root);
    Some(record)
}
