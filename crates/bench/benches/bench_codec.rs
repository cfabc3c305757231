//! Codec hot-path benchmarks: engine-backed encode/decode throughput
//! plus a bare range-coder bit pump.
//!
//! This is the regression harness for the pooled-engine / reusable-
//! arena / branch-free-inner-loop work: `lepton/decode/1` is the fig7
//! single-thread decode number in criterion form, and `coder/bits`
//! isolates the per-bit cost of the `Branch` + `BoolCoder` pair (the
//! probability query must stay a load, not a division).
//!
//! Quick mode: `LEPTON_BENCH_FILES` bounds the corpus (CI smoke uses
//! 3); `LEPTON_BENCH_JSON` additionally appends one machine-readable
//! record (median throughputs) for the perf-trajectory artifact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lepton_arith::{BoolDecoder, BoolEncoder, Branch, SliceSource};
use lepton_bench::json::{emit, Json};
use lepton_bench::{bench_corpus, bench_file_count, mbps, timed};
use lepton_core::{CompressOptions, Engine, ThreadPolicy};
use lepton_corpus::builder::{clean_jpeg, CorpusSpec};
use lepton_jpeg::scan::decode_scan;

/// Median of repeated timings of `f`, in seconds.
fn median_secs(samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm up (fills engine arenas, touches the LUT)
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let (_, secs) = timed(&mut f);
            secs
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    times[times.len() / 2]
}

fn bench_codec(c: &mut Criterion) {
    let quick = bench_file_count(6);
    let files = bench_corpus(quick.clamp(1, 12), 384, 0xC0DE);
    let bytes: usize = files.iter().map(|f| f.len()).sum();
    let samples = if quick <= 3 { 3 } else { 10 };
    let engine = Engine::global();
    let mut record: Vec<(&str, Json)> = Vec::new();

    let mut g = c.benchmark_group("lepton");
    g.sample_size(samples);
    g.throughput(Throughput::Bytes(bytes as u64));
    for threads in [1usize, 8] {
        let opts = CompressOptions {
            threads: ThreadPolicy::Fixed(threads),
            verify: false,
            ..Default::default()
        };
        g.bench_with_input(BenchmarkId::new("encode", threads), &threads, |b, _| {
            b.iter(|| {
                for f in &files {
                    std::hint::black_box(engine.compress(f, &opts).expect("enc"));
                }
            })
        });
        let encs: Vec<Vec<u8>> = files
            .iter()
            .map(|f| engine.compress(f, &opts).expect("enc"))
            .collect();
        g.bench_with_input(BenchmarkId::new("decode", threads), &threads, |b, _| {
            b.iter(|| {
                for e in &encs {
                    std::hint::black_box(engine.decompress(e).expect("dec"));
                }
            })
        });

        // Median throughputs for the JSON trajectory record.
        let enc_secs = median_secs(samples, || {
            for f in &files {
                std::hint::black_box(engine.compress(f, &opts).expect("enc"));
            }
        });
        let dec_secs = median_secs(samples, || {
            for e in &encs {
                std::hint::black_box(engine.decompress(e).expect("dec"));
            }
        });
        record.push((
            if threads == 1 {
                "encode_1thr_mbps"
            } else {
                "encode_8thr_mbps"
            },
            Json::from(mbps(bytes, enc_secs)),
        ));
        record.push((
            if threads == 1 {
                "decode_1thr_mbps"
            } else {
                "decode_8thr_mbps"
            },
            Json::from(mbps(bytes, dec_secs)),
        ));
    }
    g.finish();

    // Serial Huffman scan decode in isolation — the encode-side
    // bottleneck of Fig. 8. Same size points as the fig8 harness
    // (2/28/96 KB means), so the two trajectories line up: when this
    // number moves and fig8 encode doesn't, the bottleneck has shifted
    // to the arithmetic side.
    let mut g = c.benchmark_group("scan_decode");
    g.sample_size(samples);
    for &dim in &[128usize, 256, 448] {
        let spec = CorpusSpec {
            min_dim: dim,
            max_dim: dim + 32,
            ..Default::default()
        };
        let sfiles: Vec<Vec<u8>> = (0..3u64)
            .map(|s| clean_jpeg(&spec, s + dim as u64))
            .collect();
        let sbytes: usize = sfiles.iter().map(|f| f.len()).sum();
        let parsed: Vec<_> = sfiles
            .iter()
            .map(|f| lepton_jpeg::parse(f).expect("parse"))
            .collect();
        let kb = sbytes / 1024 / sfiles.len();
        g.throughput(Throughput::Bytes(sbytes as u64));
        g.bench_with_input(BenchmarkId::new("decode", kb), &kb, |b, _| {
            b.iter(|| {
                for (f, p) in sfiles.iter().zip(&parsed) {
                    std::hint::black_box(decode_scan(f, p, &[]).expect("scan decode"));
                }
            })
        });
        let secs = median_secs(samples, || {
            for (f, p) in sfiles.iter().zip(&parsed) {
                std::hint::black_box(decode_scan(f, p, &[]).expect("scan decode"));
            }
        });
        record.push((
            match dim {
                128 => "scan_decode_2kb_mbps",
                256 => "scan_decode_28kb_mbps",
                _ => "scan_decode_96kb_mbps",
            },
            Json::from(mbps(sbytes, secs)),
        ));
    }
    g.finish();

    // Per-kernel microbenches for the four SIMD'd hot loops, one
    // representative number each. These sit below the end-to-end
    // groups so a kernel-level regression (or a dispatch mishap — run
    // with LEPTON_FORCE_SCALAR=1 to get the scalar trajectory) is
    // visible even when pipeline noise hides it. The JSON record tags
    // `simd_dispatch`, so bench_diff compares like with like.
    let mut g = c.benchmark_group("kernel");
    g.sample_size(samples);

    // Destuff/marker scan: the `find_ff` primitive over a 1-MiB
    // pseudo-entropy stream (0xFF at the natural 1/256 rate).
    let stream: Vec<u8> = {
        let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
        (0..1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    };
    let scan_all = |buf: &[u8]| {
        let mut hits = 0usize;
        let mut i = 0usize;
        while i < buf.len() {
            i = lepton_simd::find_ff(buf, i, buf.len());
            if i < buf.len() {
                hits += 1;
                i += 1;
            }
        }
        hits
    };
    g.throughput(Throughput::Bytes(stream.len() as u64));
    // black_box the *input* too: `scan_all` is pure, and with a
    // loop-invariant argument LLVM hoists the whole scan out of the
    // timing loop, reporting fantasy throughput.
    g.bench_function("destuff_scan", |b| {
        b.iter(|| std::hint::black_box(scan_all(std::hint::black_box(&stream))))
    });
    let destuff_secs = median_secs(samples, || {
        std::hint::black_box(scan_all(std::hint::black_box(&stream)));
    });
    record.push((
        "destuff_scan_mbps",
        Json::from(mbps(stream.len(), destuff_secs)),
    ));

    // Border IDCT: blocks across the sparsity range the predictors
    // actually see (mostly-zero high bands).
    let blocks: Vec<[i32; 64]> = {
        let mut x = 0x1DC7_B10C_5EEDu64;
        (0..256)
            .map(|i| {
                let mut b = [0i32; 64];
                for (k, c) in b.iter_mut().enumerate() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // Thin out high frequencies like a real block.
                    if ((x >> 40) as usize).is_multiple_of(k + 1) {
                        *c = ((x >> 16) as i16 / 8) as i32;
                    }
                }
                b[0] = (i - 128) * 16;
                b
            })
            .collect()
    };
    g.throughput(Throughput::Elements(blocks.len() as u64));
    g.bench_function("idct_block", |b| {
        b.iter(|| {
            for blk in &blocks {
                std::hint::black_box(lepton_jpeg::dct::idct_ac_borders(blk));
            }
        })
    });
    let idct_secs = median_secs(samples, || {
        for blk in &blocks {
            std::hint::black_box(lepton_jpeg::dct::idct_ac_borders(blk));
        }
    });
    // ns per block of the one border pass the context derivation runs.
    record.push((
        "idct_block_ns",
        Json::from(idct_secs * 1e9 / blocks.len() as f64),
    ));

    // Huffman decode: serial scan decode over the main bench corpus.
    let parsed_main: Vec<_> = files
        .iter()
        .map(|f| lepton_jpeg::parse(f).expect("parse"))
        .collect();
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("huffman_decode", |b| {
        b.iter(|| {
            for (f, p) in files.iter().zip(&parsed_main) {
                std::hint::black_box(decode_scan(f, p, &[]).expect("scan decode"));
            }
        })
    });
    let huff_secs = median_secs(samples, || {
        for (f, p) in files.iter().zip(&parsed_main) {
            std::hint::black_box(decode_scan(f, p, &[]).expect("scan decode"));
        }
    });
    record.push(("huffman_decode_mbps", Json::from(mbps(bytes, huff_secs))));
    g.finish();

    // Bare coder: pump a deterministic skewed bit pattern through one
    // adaptive bin — per-bit cost of Branch::prob_false + record plus
    // range-coder normalization, nothing else.
    const NBITS: usize = 200_000;
    let bits: Vec<bool> = {
        let mut x = 0x1357_9BDF_2468_ACE0u64;
        (0..NBITS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.is_multiple_of(5)
            })
            .collect()
    };
    let mut g = c.benchmark_group("coder");
    g.sample_size(samples);
    g.throughput(Throughput::Elements(NBITS as u64 * 2)); // enc + dec
    g.bench_function("bits", |b| {
        b.iter(|| {
            let mut enc = BoolEncoder::new();
            let mut bin = Branch::new();
            for &bit in &bits {
                enc.put(bit, &mut bin);
            }
            let bytes = enc.finish();
            let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
            let mut bin = Branch::new();
            for _ in 0..NBITS {
                std::hint::black_box(dec.get(&mut bin));
            }
            std::hint::black_box(bytes.len())
        })
    });
    g.finish();
    let coder_secs = median_secs(samples, || {
        let mut enc = BoolEncoder::new();
        let mut bin = Branch::new();
        for &bit in &bits {
            enc.put(bit, &mut bin);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(SliceSource::new(&bytes));
        let mut bin = Branch::new();
        for _ in 0..NBITS {
            std::hint::black_box(dec.get(&mut bin));
        }
    });
    record.push((
        "coder_mbits_per_sec",
        Json::from((NBITS * 2) as f64 / coder_secs.max(1e-9) / 1e6),
    ));
    record.push(("corpus_bytes", Json::from(bytes)));
    record.push(("engine_workers", Json::from(engine.workers())));

    emit("bench_codec", record);
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
