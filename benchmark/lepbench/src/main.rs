//! `lepbench` — the repository's one benchmark.
//!
//! ```text
//! lepbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--repin]
//! lepbench selftest      # prove the byte check is not vacuous
//! lepbench manifest      # print BENCHMARK.json from the tables in here
//! ```
//!
//! One invocation runs one workload in this (fresh) process: set-up
//! (timed, several times), one untimed warm-up round, then whole timed
//! rounds over the same seeded request sequence until `--seconds` have
//! been measured. Every result that was timed is byte-checked outside
//! the timed span. The last line of standard output is the result
//! object the driver reads; the full record — host shape, input
//! hashes, sample counts, per-round values and spreads — goes to
//! `<target>/lepbench/<workload>.json` (traced run:
//! `<workload>.layers.json`, and the spans to `<workload>.trace.json`).

mod budget;
mod check;
mod countvfs;
mod gen;
mod host;
mod json;
mod layers;
mod measure;
mod probes;
mod stats;
mod trace;
mod wire;
mod workloads;

use crate::json::Json;
use crate::layers::{Layers, PER_LAYER};
use crate::measure::{Class, Sample};
use crate::stats::Stat;
use crate::workloads::{Ctx, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// `println!` that does not panic when the reader has gone away
/// (`run.sh ... | head`).
macro_rules! say {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// Times set-up is repeated (its median is `setup_s`).
const SETUP_REPS: u32 = 3;
/// Fewest timed rounds, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

/// One workload's entry in `BENCHMARK.json`.
const WORKLOADS: [(&str, &str); 4] = [
    (
        "codec_photo",
        "library calls on 48 single-segment photos: all time is jpeg+model+arith, so coder/model work shows here; server, storage and fleet do nothing",
    ),
    (
        "serve_chunk",
        "conversion service over UDS on 0.6-3 MiB files: segment-parallel engine dispatch, wire framing of large bodies and time to first byte; codec_photo is its bypass",
    ),
    (
        "serve_hot",
        "node service over UDS serving zipf reads that all hit the block cache: codec idle, time is frame parse, queue, cache copy and socket; codec work must not move it",
    ),
    (
        "fleet_mixed",
        "gateway over a 3-node replicated fleet, cache far below working set, 85% reads beside 15% unique writes with fsyncs: every layer on the path, read/write trade-offs show",
    ),
];

/// One end-to-end metric's entry in `BENCHMARK.json`, and the
/// workloads it is defined on. The driver's result object carries every
/// metric on every workload; the report, the record and `compare.py`
/// show a metric only where it is defined (see the README for what the
/// other slots hold).
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    on: &'static [&'static str],
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    on: &'static [&'static str],
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        on,
    }
}

const EVERYWHERE: &[&str] = &["codec_photo", "serve_chunk", "serve_hot", "fleet_mixed"];
const CONVERSIONS: &[&str] = &["codec_photo", "serve_chunk"];
const BLOCK_SERVICES: &[&str] = &["serve_hot", "fleet_mixed"];

/// Bound on every wall-clock metric (see the README: what this host
/// can repeat, not what the issue asked for).
const TIMING_BOUND: f64 = 0.25;

const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", "lower", 0.25, EVERYWHERE),
    e2e("encode_mbps", "Mbit/s", "higher", TIMING_BOUND, CONVERSIONS),
    e2e("decode_mbps", "Mbit/s", "higher", TIMING_BOUND, CONVERSIONS),
    e2e("encode_p50_ms", "ms", "lower", TIMING_BOUND, CONVERSIONS),
    e2e("decode_p50_ms", "ms", "lower", TIMING_BOUND, CONVERSIONS),
    e2e("ttfb_ms", "ms", "lower", TIMING_BOUND, &["serve_chunk"]),
    e2e("ops_s", "ops/s", "higher", TIMING_BOUND, BLOCK_SERVICES),
    e2e("get_p50_ms", "ms", "lower", TIMING_BOUND, BLOCK_SERVICES),
    e2e("put_p50_ms", "ms", "lower", TIMING_BOUND, &["fleet_mixed"]),
    e2e(
        "stored_ratio",
        "ratio",
        "lower",
        0.01,
        &["codec_photo", "serve_chunk", "fleet_mixed"],
    ),
    e2e("peak_rss_mib", "MiB", "lower", 0.1, EVERYWHERE),
    e2e("ok_share", "ratio", "higher", 0.001, EVERYWHERE),
    e2e("ontime_share", "ratio", "higher", 0.01, BLOCK_SERVICES),
];

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: u32 = 22;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repin: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repin: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?.to_string(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--repin" => args.repin = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.0 == args.workload) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            WORKLOADS.map(|w| w.0),
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("selftest") => selftest(),
        Some("manifest") => {
            say!("{}", manifest().pretty().trim_end());
            Ok(())
        }
        _ => parse_args(&argv).and_then(|args| match args.workload.as_str() {
            "codec_photo" => run::<workloads::codec_photo::CodecPhoto>(&args),
            "serve_chunk" => run::<workloads::serve_chunk::ServeChunk>(&args),
            "serve_hot" => run::<workloads::serve_hot::ServeHot>(&args),
            _ => run::<workloads::fleet_mixed::FleetMixed>(&args),
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lepbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `<target>/lepbench`, created, absolute.
fn out_dir() -> Result<PathBuf, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let dir = target.join("lepbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    dir.canonicalize()
        .map_err(|e| format!("resolve {}: {e}", dir.display()))
}

/// Create this process's scratch directory and make it the working
/// directory, so socket paths stay far below the 108-byte UDS limit
/// wherever the checkout lives. Removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn enter(out: &Path, tag: &str) -> Result<Scratch, String> {
        let dir = out.join(format!("scratch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        std::env::set_current_dir(&dir).map_err(|e| format!("enter {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Some(parent) = self.0.parent() {
            let _ = std::env::set_current_dir(parent);
        }
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn selftest() -> Result<(), String> {
    let out = out_dir()?;
    let scratch = Scratch::enter(&out, "selftest")?;
    check::selftest(&scratch.0)?;
    say!(
        "selftest: the checker flags a silently corrupted container and a corrupted stored record"
    );
    Ok(())
}

/// `BENCHMARK.json`, generated from the tables above so the file and
/// the program cannot disagree (`selfcheck.sh` diffs the two).
fn manifest() -> Json {
    let named = |name: &str| Json::obj().with("name", name);
    Json::obj()
        .with(
            "command",
            vec![Json::from("bash"), Json::from("benchmark/run.sh")],
        )
        .with("paths", vec![Json::from("benchmark")])
        .with("run_seconds", RUN_SECONDS as u64)
        .with(
            "workloads",
            WORKLOADS
                .iter()
                .map(|(name, why)| named(name).with("why", *why))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            END_TO_END
                .iter()
                .map(|m| {
                    named(m.name)
                        .with("unit", m.unit)
                        .with("better", m.better)
                        .with("bound", m.bound)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            PER_LAYER
                .iter()
                .map(|d| named(d.name).with("unit", d.unit).with("better", d.better))
                .collect::<Vec<_>>(),
        )
}

/// Where input hashes are pinned.
fn pins_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../baseline/inputs.json")
}

/// The pins file is a flat JSON object of `"workload:seed": "sha256"`,
/// one entry per line, which this reads without a JSON parser.
fn read_pins(path: &Path) -> BTreeMap<String, String> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let mut quoted = line.split('"').skip(1).step_by(2);
            Some((quoted.next()?.to_string(), quoted.next()?.to_string()))
        })
        .collect()
}

fn write_pins(path: &Path, pins: &BTreeMap<String, String>) -> Result<(), String> {
    let mut obj = Json::obj();
    for (k, v) in pins {
        obj.set(k, v.as_str());
    }
    std::fs::write(path, obj.pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Check (or, with `--repin`, rewrite) the pinned hash of this
/// workload's inputs at this seed. Seeds without a pin pass.
fn check_pin(args: &Args, hash: &str) -> Result<&'static str, String> {
    let path = pins_path();
    let key = format!("{}:{}", args.workload, args.seed);
    let mut pins = read_pins(&path);
    if args.repin {
        pins.insert(key, hash.to_string());
        write_pins(&path, &pins)?;
        return Ok("repinned");
    }
    match pins.get(&key) {
        Some(pinned) if pinned == hash => Ok("pinned"),
        Some(pinned) => Err(format!(
            "inputs drifted, numbers not comparable: {key} hashes to {hash}, pinned {pinned} \
             (a change to corpus or jpeg::encoder moved the generated inputs)"
        )),
        None => Ok("unpinned seed"),
    }
}

fn run<W: Workload>(args: &Args) -> Result<(), String> {
    let out = out_dir()?;
    let scratch = Scratch::enter(&out, W::NAME)?;
    let epoch = Instant::now();
    let vfs_counters = Arc::new(countvfs::VfsCounters::default());
    let real: Arc<dyn lepton_storage::vfs::Vfs> = Arc::new(lepton_storage::vfs::RealVfs);
    let ctx = Ctx {
        seed: args.seed,
        trace: args.trace,
        clients: host::clients(),
        epoch,
        vfs: if args.trace {
            Arc::new(countvfs::CountingVfs::new(real, Arc::clone(&vfs_counters)))
        } else {
            real
        },
        vfs_counters: Arc::clone(&vfs_counters),
    };

    // Set-up, several times; the last instance is the one measured.
    let mut setup_s = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut corpus_gen_s = 0.0;
    let mut workload = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = workload.take() {
            W::teardown(previous);
        }
        let t = Instant::now();
        let (w, report) = W::setup(&ctx, rep);
        setup_s.push(t.elapsed().as_secs_f64());
        attempted += report.attempted;
        failed += report.failed;
        corpus_gen_s = report.corpus_gen_s;
        workload = Some(w);
    }
    let mut w = workload.expect("SETUP_REPS > 0");

    let (input_hash, corpus_bytes) = w.inputs();
    let pin = check_pin(args, &input_hash)?;
    say!(
        "{} seed {} inputs sha256 {input_hash} ({pin}), {corpus_bytes} corpus bytes",
        W::NAME,
        args.seed
    );

    // Warm-up: fills engine arenas, LUTs and the page cache. Its
    // results are checked like any other, but not timed into metrics.
    let warm: Vec<Sample> = w
        .round(&ctx, u32::MAX, false)
        .into_iter()
        .flat_map(|log| log.samples)
        .collect();
    let (n, f, _) = measure::tally(&warm, W::LIMITS);
    attempted += n;
    failed += f;

    // Timed rounds. On the traced run every other round records spans;
    // the untraced ones are the baseline for tracing's own overhead.
    let engine_before = layers::EngineSnapshot::take();
    let mut callers: Vec<Vec<Sample>> = vec![Vec::new(); ctx.clients];
    let mut spans = Vec::new();
    let mut inner = budget::ProgramClock::default();
    let (mut wall_plain, mut wall_traced) = (Vec::new(), Vec::new());
    let mut rounds = 0usize;
    let timed_start = Instant::now();
    while rounds < MIN_ROUNDS || timed_start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && rounds % 2 == 1;
        let before = traced
            .then(|| budget::ProgramClock::read(w.service_us(), vfs_counters.snapshot().read_ns));
        let t = Instant::now();
        let logs = w.round(&ctx, rounds as u32, traced);
        let wall = t.elapsed().as_secs_f64();
        if let Some(before) = before {
            let after = budget::ProgramClock::read(w.service_us(), vfs_counters.snapshot().read_ns);
            inner.accumulate(&before, &after);
            wall_traced.push(wall);
        } else {
            wall_plain.push(wall);
        }
        for (caller, log) in logs.into_iter().enumerate() {
            callers[caller].extend(log.samples);
            spans.extend(log.spans.into_spans());
        }
        rounds += 1;
    }

    let outcome = w.finish(&ctx);
    let pooled: Vec<Sample> = callers.iter().flatten().copied().collect();
    let (n, f, late) = measure::tally(&pooled, W::LIMITS);
    let timed_ops = n;
    attempted += n + outcome.attempted;
    failed += f + outcome.failed;

    // The read tail (`harness.get_tail_ms`) is taken over every raw
    // sample of every timed round — what it reports is exactly the
    // intermittent cost a median discards — at the highest percentile
    // the pooled count supports.
    let reads = pooled.iter().filter(|s| s.class == Class::Read).count();
    let tail = stats::tail_percentile(reads).unwrap_or(50.0);

    let total = |s: &Sample| s.total;

    // Per-layer metrics: only the traced run pays for the probes.
    let mut layer_values = Layers::default();
    if args.trace {
        engine_before.report_since(&mut layer_values);
        w.layers(&ctx, &mut layer_values);
        budget::report(&spans, &inner, &mut layer_values);
        layer_values.set(
            "trace.overhead_pct",
            (stats::median(&wall_traced) / stats::median(&wall_plain) - 1.0) * 100.0,
        );
        layer_values.set("corpus.gen_s", corpus_gen_s);
        layer_values.set("corpus.bytes", corpus_bytes as f64);
        layer_values.set(
            "harness.failed_share",
            failed as f64 / attempted.max(1) as f64,
        );
        layer_values.set("harness.late_share", late as f64 / timed_ops.max(1) as f64);
        layer_values.set(
            "harness.get_tail_ms",
            measure::latency_ms(&pooled, &pooled, Class::Read, tail, total).value,
        );
        let trace_path = out.join(format!("{}.trace.json", W::NAME));
        std::fs::write(&trace_path, trace::dump(&spans).line())
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    }
    W::teardown(w);

    // Medians and throughputs are read off the typical round (one
    // sample per request, chosen across rounds as the workload says).
    let typical_callers: Vec<Vec<Sample>> = callers
        .iter()
        .map(|c| measure::typical_round(c, W::ACROSS_ROUNDS))
        .collect();
    let typical: Vec<Sample> = typical_callers.iter().flatten().copied().collect();
    // A workload without timed writes has no write-class metric; the
    // driver still wants a number in those slots, so they repeat the
    // read class there.
    let write = if pooled.iter().any(|s| s.class == Class::Write) {
        Class::Write
    } else {
        Class::Read
    };
    let share = |bad: u64, of: u64| Stat::exact(1.0 - bad as f64 / of.max(1) as f64);
    let value_of = |name: &str| match name {
        "setup_s" => Stat::of_rounds(&setup_s),
        "encode_mbps" => measure::mbps(&typical, &pooled, write),
        "decode_mbps" => measure::mbps(&typical, &pooled, Class::Read),
        "encode_p50_ms" | "put_p50_ms" => {
            measure::latency_ms(&typical, &pooled, write, 50.0, total)
        }
        "decode_p50_ms" | "get_p50_ms" => {
            measure::latency_ms(&typical, &pooled, Class::Read, 50.0, total)
        }
        "ttfb_ms" => measure::latency_ms(&typical, &pooled, Class::Read, 50.0, |s| s.first_byte),
        "ops_s" => measure::ops_per_s(&typical_callers, &callers),
        "stored_ratio" => {
            Stat::exact(outcome.stored_bytes as f64 / outcome.original_bytes.max(1) as f64)
        }
        "peak_rss_mib" => Stat::exact(host::peak_rss_mib()),
        "ok_share" => share(failed, attempted),
        "ontime_share" => share(late, timed_ops),
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };

    let correct = failed == 0 && outcome.invalid.is_empty();

    // Human-readable report and the record show a metric only on the
    // workloads it is defined on; the driver's line carries them all.
    say!(
        "{} rounds={rounds} clients={} attempted={attempted} failed={failed} tail=p{tail}",
        W::NAME,
        ctx.clients
    );
    let mut recorded = Json::obj();
    let mut driver = Json::obj();
    if args.trace {
        for d in PER_LAYER {
            let value = layer_values.get(d.name);
            say!("  {:<38} {:>16.4} {}", d.name, value, d.unit);
            driver.set(
                d.name,
                Json::obj().with("value", value).with("unit", d.unit),
            );
        }
        recorded = driver.clone();
    } else {
        for m in &END_TO_END {
            let s = value_of(m.name);
            let entry = Json::obj().with("value", s.value).with("unit", m.unit);
            driver.set(m.name, entry.clone());
            if !m.on.contains(&W::NAME) {
                continue;
            }
            say!(
                "  {:<16} {:>14.4} {:<7} n={:<7} spread={:.4}",
                m.name,
                s.value,
                m.unit,
                s.n,
                s.spread
            );
            recorded.set(
                m.name,
                entry.with("n", s.n).with("spread", s.spread).with(
                    "rounds",
                    s.rounds.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>(),
                ),
            );
        }
    }
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", driver);
    let record = Json::obj()
        .with("workload", W::NAME)
        .with("trace", args.trace)
        .with(
            "host",
            host::shape(&scratch.0, args.seed, rounds, args.seconds),
        )
        .with("inputs_sha256", input_hash)
        .with("tail_percentile", tail)
        .with("across_rounds", W::ACROSS_ROUNDS.name())
        .with("metrics", recorded)
        .with("result", result.clone());
    let record_path = out.join(format!(
        "{}{}.json",
        W::NAME,
        if args.trace { ".layers" } else { "" }
    ));
    std::fs::write(&record_path, record.pretty())
        .map_err(|e| format!("write {}: {e}", record_path.display()))?;
    drop(scratch);
    say!("{}", result.line());
    if correct {
        return Ok(());
    }
    // The line above tells a driver; the exit status tells everything
    // else (run.sh, selfcheck.sh) that these numbers must not be used.
    let mut why = outcome.invalid;
    if failed > 0 {
        why.push(format!("{failed} of {attempted} operations failed"));
    }
    Err(format!("{} run is invalid: {}", W::NAME, why.join("; ")))
}
