//! Per-layer metrics: the table of names, and the isolated replays
//! that measure the codec layers on a workload's own inputs.
//!
//! A layer is a crate. Each metric names the layer it belongs to; the
//! README's prediction table says which end-to-end metric it should
//! move and on which workload. Metrics of a layer that is not on a
//! workload's path read 0 there.

use crate::stats::median;
use lepton_arith::{BoolDecoder, BoolEncoder, Branch, SliceSource};
use lepton_core::{CompressOptions, DecompressOptions, Engine, ThreadPolicy};
use lepton_jpeg::scan::{decode_scan, encode_scan_whole, EncodeParams};
use lepton_obs::TraceRing;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One per-layer metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct LayerMetric {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> LayerMetric {
    LayerMetric { name, unit, better }
}

/// Every per-layer metric, in report order. `BENCHMARK.json` lists
/// exactly these (`lepbench manifest` prints it).
pub const PER_LAYER: &[LayerMetric] = &[
    // jpeg
    m("jpeg.parse_ns_per_byte", "ns/B", "lower"),
    m("jpeg.scan_decode_ns_per_byte", "ns/B", "lower"),
    m("jpeg.scan_encode_ns_per_byte", "ns/B", "lower"),
    m("jpeg.scan_bits", "count", "lower"),
    // model + arith
    m("model.encode_ns_per_byte", "ns/B", "lower"),
    m("model.decode_ns_per_byte", "ns/B", "lower"),
    m("model.stream_bytes", "count", "lower"),
    m("arith.encode_ns_per_bit", "ns/bit", "lower"),
    m("arith.decode_ns_per_bit", "ns/bit", "lower"),
    // core
    m("core.compress_noverify_ns_per_byte", "ns/B", "lower"),
    m("core.verify_ns_per_byte", "ns/B", "lower"),
    m("core.decompress_ns_per_byte", "ns/B", "lower"),
    m("core.container_parse_us", "us", "lower"),
    m("core.header_bytes", "count", "lower"),
    m("core.segments", "count", "higher"),
    m("core.segments_min", "count", "higher"),
    m("core.dispatch_us", "us", "lower"),
    m("core.engine_busy_ratio", "ratio", "higher"),
    m("core.engine_jobs", "count", "lower"),
    m("core.engine_inline_jobs", "count", "lower"),
    m("core.arena_resets", "count", "lower"),
    m("core.parallel_speedup", "ratio", "higher"),
    m("core.first_byte_us", "us", "lower"),
    // storage
    m("storage.sha256_ns_per_byte", "ns/B", "lower"),
    m("storage.put_us", "us", "lower"),
    m("storage.get_hit_us", "us", "lower"),
    m("storage.get_miss_us", "us", "lower"),
    m("storage.cache_hit_ratio", "ratio", "higher"),
    m("storage.fsyncs_per_put", "count", "lower"),
    m("storage.fsync_us", "us", "lower"),
    m("storage.write_amp", "ratio", "lower"),
    m("storage.read_us", "us", "lower"),
    m("storage.record_overhead_bytes", "count", "lower"),
    // server
    m("server.ping_rtt_us", "us", "lower"),
    m("server.get_small_rtt_us", "us", "lower"),
    m("server.get_large_rtt_us", "us", "lower"),
    m("server.wire_ns_per_byte", "ns/B", "lower"),
    m("server.op_service_us", "us", "lower"),
    m("server.convert_overhead_us", "us", "lower"),
    m("server.connect_us", "us", "lower"),
    m("server.shed", "count", "lower"),
    m("server.failed", "count", "lower"),
    // fleet
    m("fleet.get_hop_us", "us", "lower"),
    m("fleet.put_replica_factor", "ratio", "lower"),
    m("fleet.ring_lookup_ns", "ns", "lower"),
    m("fleet.failovers", "count", "lower"),
    m("fleet.partial_writes", "count", "lower"),
    m("fleet.read_repairs", "count", "lower"),
    m("fleet.ejections", "count", "lower"),
    // obs / harness
    m("obs.overhead_pct", "%", "lower"),
    m("trace.overhead_pct", "%", "lower"),
    m("corpus.gen_s", "s", "lower"),
    m("corpus.bytes", "count", "lower"),
    m("harness.failed_share", "ratio", "lower"),
    m("harness.late_share", "ratio", "lower"),
    m("harness.get_tail_ms", "ms", "lower"),
    // where the traced wall went (self time, % of caller time)
    m("trace.self_harness_pct", "%", "lower"),
    m("trace.self_fleet_pct", "%", "lower"),
    m("trace.self_server_pct", "%", "lower"),
    m("trace.self_storage_pct", "%", "lower"),
    m("trace.self_codec_pct", "%", "lower"),
    m("trace.self_jpeg_pct", "%", "lower"),
    m("trace.self_model_pct", "%", "lower"),
    m("trace.self_core_pct", "%", "lower"),
];

/// Per-layer values for one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Set `name` (which must be in [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Value of `name`, 0 when no probe set it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Bytes of a workload's JPEGs the isolated replays run over; larger
/// corpora are sampled at a regular stride so probes stay a few
/// seconds.
const PROBE_BUDGET: usize = 3 << 20;

fn stride_subset(files: &[Vec<u8>]) -> Vec<&[u8]> {
    let total: usize = files.iter().map(Vec::len).sum();
    let stride = total.div_ceil(PROBE_BUDGET).max(1);
    files
        .iter()
        .step_by(stride)
        .map(Vec::as_slice)
        .collect::<Vec<_>>()
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Microseconds as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time `f`, returning its result and duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Duration of stage `name` in the most recent job trace, zero when
/// the ring is disarmed or the stage absent.
fn last_stage(op: &str, name: &str) -> Duration {
    TraceRing::global()
        .recent(1)
        .first()
        .filter(|t| t.op == op)
        .and_then(|t| t.stages.iter().find(|(s, _)| *s == name).map(|&(_, d)| d))
        .unwrap_or_default()
}

/// Sum of all stages of the most recent job trace.
fn last_stage_sum(op: &str) -> Duration {
    TraceRing::global()
        .recent(1)
        .first()
        .filter(|t| t.op == op)
        .map(|t| t.stages.iter().map(|&(_, d)| d).sum())
        .unwrap_or_default()
}

/// Replay the codec layers in isolation on (a stride sample of) the
/// workload's own JPEGs: `jpeg`, `model`, `arith` and `core` metrics.
pub fn codec_probes(files: &[Vec<u8>], out: &mut Layers) {
    let subset = stride_subset(files);
    let engine = Engine::global();
    let bytes: f64 = subset.iter().map(|f| f.len() as f64).sum();
    let serial = CompressOptions {
        threads: ThreadPolicy::Fixed(1),
        verify: false,
        ..Default::default()
    };
    let noverify = CompressOptions {
        verify: false,
        ..Default::default()
    };
    let shipped = CompressOptions::default();

    let (mut parse, mut scan_dec, mut scan_enc) = (0.0, 0.0, 0.0);
    let (mut arith_enc_stage, mut arith_dec_stage) = (0.0, 0.0);
    let (mut c_noverify, mut c_verify, mut d_auto, mut d_serial) = (0.0, 0.0, 0.0, 0.0);
    let (mut scan_bits, mut stream_bytes, mut header_bytes) = (0u64, 0u64, 0u64);
    let (mut segments, mut segments_min) = (0u64, u64::MAX);
    let mut container_parse = Vec::new();
    let mut dispatch = Vec::new();
    let mut first_byte = Vec::new();

    for &file in &subset {
        // jpeg
        let (parsed, d) = timed(|| lepton_jpeg::parse(file).expect("corpus files parse"));
        parse += ns(d);
        let ((scan, _), d) =
            timed(|| decode_scan(file, &parsed, &[]).expect("corpus scans decode"));
        scan_dec += ns(d);
        scan_bits += scan.stats.total_bits();
        let params = EncodeParams {
            pad_bit: scan.pad.bit_or_default(),
            rst_limit: scan.rst_count,
        };
        let (_, d) =
            timed(|| encode_scan_whole(&scan.coefs, &parsed, &params).expect("scan re-encodes"));
        scan_enc += ns(d);

        // model + arith, serially (one segment), from the program's own
        // stage marks: the arithmetic stages minus the jpeg replays.
        let (one, _) = timed(|| engine.compress(file, &serial).expect("compress"));
        arith_enc_stage += ns(last_stage("compress", "arith_encode"));
        let (_, d) = timed(|| engine.decompress(&one).expect("decompress"));
        d_serial += ns(d);
        arith_dec_stage += ns(last_stage("decompress", "arith_decode"));

        // core, as shipped (Auto segments).
        let ((container, stats), d) = timed(|| {
            engine
                .compress_with_stats(file, &noverify)
                .expect("compress")
        });
        c_noverify += ns(d);
        stream_bytes += stats.scan_out.total();
        header_bytes += stats.header_out as u64;
        segments += stats.segments as u64;
        segments_min = segments_min.min(stats.segments as u64);
        let (_, d) = timed(|| engine.compress(file, &shipped).expect("compress"));
        c_verify += ns(d);
        let (_, d) = timed(|| engine.decompress(&container).expect("decompress"));
        d_auto += ns(d);
        dispatch.push(us(d.saturating_sub(last_stage_sum("decompress"))));
        let (_, d) = timed(|| lepton_core::format::read_container(&container).map(|_| ()));
        container_parse.push(us(d));
        // First byte past the verbatim JPEG header: the first one
        // that had to be decoded (as `ttfb_ms` counts it).
        let t = Instant::now();
        let (mut first, mut seen) = (None, 0);
        engine
            .decompress_streaming(
                &container,
                &DecompressOptions::default(),
                &mut |bytes: &[u8]| {
                    seen += bytes.len();
                    if seen > parsed.header_len {
                        first.get_or_insert_with(|| t.elapsed());
                    }
                },
            )
            .expect("decompress");
        first_byte.push(us(first.unwrap_or_default()));
    }

    out.set("jpeg.parse_ns_per_byte", parse / bytes);
    out.set("jpeg.scan_decode_ns_per_byte", scan_dec / bytes);
    out.set("jpeg.scan_encode_ns_per_byte", scan_enc / bytes);
    out.set("jpeg.scan_bits", scan_bits as f64);
    out.set("model.encode_ns_per_byte", arith_enc_stage / bytes);
    out.set(
        "model.decode_ns_per_byte",
        (arith_dec_stage - scan_enc).max(0.0) / bytes,
    );
    out.set("model.stream_bytes", stream_bytes as f64);
    out.set("core.compress_noverify_ns_per_byte", c_noverify / bytes);
    out.set(
        "core.verify_ns_per_byte",
        (c_verify - c_noverify).max(0.0) / bytes,
    );
    out.set("core.decompress_ns_per_byte", d_auto / bytes);
    out.set("core.container_parse_us", median(&container_parse));
    out.set("core.header_bytes", header_bytes as f64);
    out.set("core.segments", segments as f64);
    out.set("core.segments_min", segments_min as f64);
    out.set("core.dispatch_us", median(&dispatch));
    out.set("core.parallel_speedup", d_serial / d_auto);
    out.set("core.first_byte_us", median(&first_byte));

    let (enc, dec) = arith_pump();
    out.set("arith.encode_ns_per_bit", enc);
    out.set("arith.decode_ns_per_bit", dec);
    out.set("obs.overhead_pct", obs_overhead(&subset));
}

/// Segment counts (sum, min) read back from containers the workload
/// produced — every file, not the probe sample.
pub fn set_segments<'a>(containers: impl Iterator<Item = &'a [u8]>, out: &mut Layers) {
    let (mut sum, mut min) = (0u64, u64::MAX);
    for c in containers {
        if let Ok(parsed) = lepton_core::format::read_container(c) {
            let n = parsed.header.segments.len() as u64;
            sum += n;
            min = min.min(n);
        }
    }
    if sum > 0 {
        out.set("core.segments", sum as f64);
        out.set("core.segments_min", min as f64);
    }
}

/// Bits pumped through one adaptive `Branch` by the bare coder.
const PUMP_BITS: usize = 4_000_000;

/// The bare `BoolEncoder` / `BoolDecoder` on one adaptive `Branch`
/// with a fixed 80/20 bit stream: `(encode, decode)` ns per bit.
fn arith_pump() -> (f64, f64) {
    let mut rng = crate::gen::Rng::new(0xA217, 0);
    let bits: Vec<bool> = (0..PUMP_BITS).map(|_| rng.unit() < 0.2).collect();
    let (stream, enc) = timed(|| {
        let mut enc = BoolEncoder::new();
        let mut bin = Branch::new();
        for &b in &bits {
            enc.put(b, &mut bin);
        }
        enc.finish()
    });
    let (ones, dec) = timed(|| {
        let mut dec = BoolDecoder::new(SliceSource::new(&stream));
        let mut bin = Branch::new();
        let mut ones = 0usize;
        for _ in 0..PUMP_BITS {
            ones += usize::from(dec.get(&mut bin));
        }
        ones
    });
    assert_eq!(
        ones,
        bits.iter().filter(|&&b| b).count(),
        "bare coder round trip"
    );
    (ns(enc) / PUMP_BITS as f64, ns(dec) / PUMP_BITS as f64)
}

/// Cost of the program's own telemetry: interleaved armed / disarmed
/// decode rounds over the probe sample, as a percentage.
fn obs_overhead(files: &[&[u8]]) -> f64 {
    let engine = Engine::global();
    let containers: Vec<Vec<u8>> = files
        .iter()
        .take(8)
        .map(|f| {
            engine
                .compress(f, &CompressOptions::default())
                .expect("compress")
        })
        .collect();
    let round = || {
        timed(|| {
            for c in &containers {
                std::hint::black_box(engine.decompress(c).expect("decompress"));
            }
        })
        .1
        .as_secs_f64()
    };
    let (mut armed, mut disarmed) = (Vec::new(), Vec::new());
    for _ in 0..4 {
        lepton_obs::set_enabled(true);
        armed.push(round());
        lepton_obs::set_enabled(false);
        disarmed.push(round());
    }
    lepton_obs::set_enabled(true);
    (median(&armed) / median(&disarmed) - 1.0) * 100.0
}

/// Counters of the shared codec engine at one instant.
#[derive(Clone, Copy, Debug)]
pub struct EngineSnapshot {
    busy_us: u64,
    jobs: u64,
    inline_jobs: u64,
    arena_resets: u64,
    at: Instant,
}

impl EngineSnapshot {
    /// Read the engine's exported counters now.
    pub fn take() -> EngineSnapshot {
        let m = Engine::global().metrics();
        EngineSnapshot {
            busy_us: m.busy_us.get(),
            jobs: m.jobs_completed.get(),
            inline_jobs: m.inline_jobs.get(),
            arena_resets: m.arena_resets.get(),
            at: Instant::now(),
        }
    }

    /// Report the engine counters' movement since `self`.
    pub fn report_since(&self, out: &mut Layers) {
        let now = EngineSnapshot::take();
        let wall_us = us(now.at - self.at);
        let workers = Engine::global().workers() as f64;
        out.set(
            "core.engine_busy_ratio",
            (now.busy_us - self.busy_us) as f64 / (wall_us * workers),
        );
        out.set("core.engine_jobs", (now.jobs - self.jobs) as f64);
        out.set(
            "core.engine_inline_jobs",
            (now.inline_jobs - self.inline_jobs) as f64,
        );
        out.set(
            "core.arena_resets",
            (now.arena_resets - self.arena_resets) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in PER_LAYER {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(matches!(d.better, "higher" | "lower"));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn stride_subset_respects_the_budget() {
        let files = vec![vec![0u8; 1 << 20]; 12];
        let subset = stride_subset(&files);
        assert_eq!(subset.len(), 3);
        assert_eq!(stride_subset(&files[..2]).len(), 2);
    }
}
