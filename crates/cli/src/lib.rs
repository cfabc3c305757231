//! # lepton-cli — the stand-alone `lepton` tool
//!
//! "At its core, Lepton is a stand-alone tool that performs round-trip
//! compression and decompression of baseline JPEG files" (§3). This
//! crate is that tool: file and stdin/stdout conversion, round-trip
//! verification, the pre-deployment qualification run (§5.7), the
//! conversion service (§5.5), and synthetic-corpus generation.
//!
//! The process exit code follows the production taxonomy (§6.2):
//! `0` success, `1` usage or I/O error, and `16 + i` for rejection
//! class `i` in the paper's table order — so scripts herding millions
//! of conversions can tally outcomes exactly like the paper's Figure
//! in §6.2 (`lepton errorcodes` prints the mapping).

pub mod args;

use args::{Command, FleetCommand, Input, Output, StoreCommand};
use lepton_core::verify::{qualify, verify_roundtrip, Verdict};
use lepton_core::{CompressOptions, ExitCode, ThreadPolicy};
use lepton_corpus::builder::{Corpus, CorpusSpec, FileKind};
use lepton_fleet::{manifest_path, read_manifest, FleetConfig, FleetGateway, LocalFleet};
use lepton_server::protocol::EXIT_CODES;
use lepton_storage::blockstore::{hex, parse_hex, ShardedStore, StoreConfig};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Tool version string (the container format records the same build
/// identity in its revision field).
pub const VERSION: &str = concat!("lepton-rs ", env!("CARGO_PKG_VERSION"));

/// Map an [`ExitCode`] to the process exit code: `0` for success,
/// `16 + taxonomy index` otherwise (the same index as the wire
/// protocol's rejection statuses).
pub fn process_exit_code(code: ExitCode) -> i32 {
    if code == ExitCode::Success {
        return 0;
    }
    16 + EXIT_CODES.iter().position(|c| *c == code).unwrap_or(0) as i32
}

fn read_input(input: &Input) -> std::io::Result<Vec<u8>> {
    match input {
        Input::Path(p) => std::fs::read(p),
        Input::Stdin => {
            let mut buf = Vec::new();
            std::io::stdin().lock().read_to_end(&mut buf)?;
            Ok(buf)
        }
    }
}

fn derive_output(input: &Input, extension: &str) -> Option<PathBuf> {
    match input {
        Input::Path(p) => Some(p.with_extension(extension)),
        Input::Stdin => None, // stdin in ⇒ stdout out
    }
}

fn write_output(
    output: &Output,
    input: &Input,
    extension: &str,
    data: &[u8],
) -> std::io::Result<Option<PathBuf>> {
    match output {
        Output::Stdout => {
            std::io::stdout().lock().write_all(data)?;
            Ok(None)
        }
        Output::Path(p) => {
            std::fs::write(p, data)?;
            Ok(Some(p.clone()))
        }
        Output::Derived => match derive_output(input, extension) {
            Some(p) => {
                std::fs::write(&p, data)?;
                Ok(Some(p))
            }
            None => {
                std::io::stdout().lock().write_all(data)?;
                Ok(None)
            }
        },
    }
}

/// Render a telemetry snapshot (`Stats` v2) as aligned text rows:
/// counters and gauges print their live values, histograms print
/// count/mean and the tail percentiles, and the degraded-health flag
/// leads the listing so an operator's eye lands on it first.
fn render_snapshot(snap: &lepton_obs::Snapshot, log: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        log,
        "health: {}",
        if snap.degraded() { "DEGRADED" } else { "ok" }
    )?;
    for (name, value) in &snap.entries {
        match value {
            lepton_obs::MetricValue::Counter(v) => writeln!(log, "{name:<36} {v}")?,
            lepton_obs::MetricValue::Gauge { value, high_water } => {
                writeln!(log, "{name:<36} {value} (high {high_water})")?
            }
            lepton_obs::MetricValue::Histogram(h) => writeln!(
                log,
                "{name:<36} n={} mean={:.1} p50={} p99={} p999={}",
                h.count,
                h.mean(),
                h.percentile(50.0),
                h.percentile(99.0),
                h.percentile(99.9),
            )?,
        }
    }
    Ok(())
}

/// Execute a parsed command; returns the process exit code. All
/// diagnostic output goes to `log` (stderr in `main`), payload bytes
/// go to real stdout when requested.
pub fn run(cmd: Command, log: &mut dyn Write) -> i32 {
    match run_inner(cmd, log) {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(log, "lepton: {e}");
            1
        }
    }
}

fn run_inner(cmd: Command, log: &mut dyn Write) -> Result<i32, Box<dyn std::error::Error>> {
    match cmd {
        Command::Help => {
            writeln!(log, "{}", args::HELP)?;
            Ok(0)
        }
        Command::Version => {
            writeln!(log, "{VERSION}")?;
            Ok(0)
        }
        Command::Compress {
            input,
            output,
            threads,
            verify,
        } => {
            let jpeg = read_input(&input)?;
            let opts = CompressOptions {
                threads: if threads == 0 {
                    ThreadPolicy::Auto
                } else {
                    ThreadPolicy::Fixed(threads)
                },
                verify,
                ..Default::default()
            };
            match lepton_core::compress(&jpeg, &opts) {
                Ok(lepton) => {
                    let dest = write_output(&output, &input, "lep", &lepton)?;
                    let pct = 100.0 * (1.0 - lepton.len() as f64 / jpeg.len().max(1) as f64);
                    writeln!(
                        log,
                        "{} -> {} ({} -> {} bytes, {:.1}% saved)",
                        describe(&input),
                        dest.as_deref().map_or("stdout".into(), pretty),
                        jpeg.len(),
                        lepton.len(),
                        pct
                    )?;
                    Ok(0)
                }
                Err(e) => {
                    let code = ExitCode::classify(&e);
                    writeln!(log, "lepton: {} ({e})", code.label())?;
                    Ok(process_exit_code(code))
                }
            }
        }
        Command::Decompress { input, output } => {
            let container = read_input(&input)?;
            match lepton_core::decompress(&container) {
                Ok(jpeg) => {
                    let dest = write_output(&output, &input, "jpg", &jpeg)?;
                    writeln!(
                        log,
                        "{} -> {} ({} -> {} bytes)",
                        describe(&input),
                        dest.as_deref().map_or("stdout".into(), pretty),
                        container.len(),
                        jpeg.len()
                    )?;
                    Ok(0)
                }
                Err(e) => {
                    let code = ExitCode::classify(&e);
                    writeln!(log, "lepton: {} ({e})", code.label())?;
                    Ok(process_exit_code(code))
                }
            }
        }
        Command::Verify { files } => {
            let opts = CompressOptions::default();
            let mut worst = 0;
            for path in &files {
                let data = std::fs::read(path)?;
                match verify_roundtrip(&data, &opts) {
                    Verdict::Verified { compressed } => {
                        writeln!(
                            log,
                            "{}: verified ({} -> {} bytes)",
                            pretty(path),
                            data.len(),
                            compressed
                        )?;
                    }
                    Verdict::Rejected(code) => {
                        writeln!(log, "{}: rejected — {}", pretty(path), code.label())?;
                        worst = worst.max(process_exit_code(code));
                    }
                    Verdict::Alarm(why) => {
                        // The page-a-human condition (§5.7).
                        writeln!(log, "{}: ALARM — {why}", pretty(path))?;
                        worst = worst.max(process_exit_code(ExitCode::RoundtripFailed));
                    }
                }
            }
            Ok(worst)
        }
        Command::Qualify { count, seed } => {
            let spec = CorpusSpec {
                count,
                seed,
                ..Default::default()
            };
            let corpus = Corpus::generate(&spec);
            let q = qualify(
                corpus.files.iter().map(|f| f.data.as_slice()),
                &CompressOptions::default(),
            );
            writeln!(log, "qualification over {count} files (seed {seed:#x}):")?;
            let total = count.max(1) as f64;
            writeln!(
                log,
                "  {:<24} {:>7} ({:>6.2}%)",
                "Success",
                q.verified,
                100.0 * q.verified as f64 / total
            )?;
            for (code, n) in &q.rejected {
                writeln!(
                    log,
                    "  {:<24} {:>7} ({:>6.2}%)",
                    code.label(),
                    n,
                    100.0 * *n as f64 / total
                )?;
            }
            writeln!(
                log,
                "  compression ratio on verified: {:.1}%",
                100.0 * q.ratio()
            )?;
            writeln!(log, "  alarms: {}", q.alarms)?;
            if q.qualified() {
                writeln!(log, "build QUALIFIED")?;
                Ok(0)
            } else {
                writeln!(log, "build NOT qualified")?;
                Ok(process_exit_code(ExitCode::RoundtripFailed))
            }
        }
        Command::Serve {
            uds,
            tcp,
            max_conns,
            workers,
            threshold,
            shutoff,
        } => {
            let endpoint = match (&uds, &tcp) {
                (Some(path), None) => lepton_server::Endpoint::uds(path),
                (None, Some(addr)) => lepton_server::Endpoint::tcp(addr.as_str())?,
                _ => unreachable!("parser enforces exactly one endpoint"),
            };
            let cfg = lepton_server::ServiceConfig {
                max_connections: max_conns,
                conversion_workers: workers,
                busy_threshold: threshold,
                shutoff_file: shutoff,
                ..Default::default()
            };
            let handle = lepton_server::serve(&endpoint, cfg)?;
            writeln!(log, "listening on {}", handle.endpoint())?;
            log.flush()?;
            // Serve until killed, like the production process (§5.5).
            loop {
                std::thread::park();
            }
        }
        Command::Stats {
            uds,
            tcp,
            watch,
            interval_ms,
        } => {
            let endpoint = match (&uds, &tcp) {
                (Some(path), None) => lepton_server::Endpoint::uds(path),
                (None, Some(addr)) => lepton_server::Endpoint::tcp(addr.as_str())?,
                _ => unreachable!("parser enforces exactly one endpoint"),
            };
            let timeout = std::time::Duration::from_secs(5);
            loop {
                let snap = lepton_server::client::probe_snapshot(&endpoint, timeout)?;
                render_snapshot(&snap, log)?;
                if !watch {
                    return Ok(if snap.degraded() { 1 } else { 0 });
                }
                log.flush()?;
                std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
                writeln!(log)?;
            }
        }
        Command::ErrorCodes => {
            writeln!(
                log,
                "{:<24} {:>9} {:>12}",
                "class", "wire byte", "process exit"
            )?;
            for (i, code) in EXIT_CODES.iter().enumerate() {
                let process = process_exit_code(*code);
                writeln!(log, "{:<24} {:>9} {:>12}", code.label(), 16 + i, process)?;
            }
            Ok(0)
        }
        Command::Torture { bases, seeds, seed } => {
            use lepton_corpus::rig;

            // The bases: clean corpus files plus their containers, so
            // the matrix exercises both directions of the codec.
            let copts = CompressOptions::default();
            let corpus = Corpus::generate(&CorpusSpec {
                count: bases.max(1),
                min_dim: 64,
                max_dim: 160,
                clean_fraction: 1.0,
                seed,
            });
            let jpeg_bases: Vec<(String, Vec<u8>)> = corpus
                .files
                .iter()
                .enumerate()
                .map(|(i, f)| (format!("jpeg{i}"), f.data.clone()))
                .collect();
            let container_bases: Vec<(String, Vec<u8>)> = jpeg_bases
                .iter()
                .map(|(n, d)| {
                    (
                        format!("{n}.lep"),
                        lepton_core::compress(d, &copts).expect("clean base compresses"),
                    )
                })
                .collect();
            let mut mseeds = Vec::with_capacity(seeds.max(1));
            for i in 0..seeds.max(1) as u64 {
                mseeds.push(seed ^ (0xF00D + i * 0x1111));
            }

            let mut worst = 0i32;
            let mut total_violations = 0usize;
            for (label, bases, op) in [
                (
                    "compress",
                    &jpeg_bases,
                    Box::new(|input: &[u8]| lepton_core::compress(input, &copts).map(|c| c.len()))
                        as Box<dyn Fn(&[u8]) -> Result<usize, lepton_core::LeptonError>>,
                ),
                (
                    "decompress",
                    &container_bases,
                    Box::new(|input: &[u8]| lepton_core::decompress(input).map(|j| j.len())),
                ),
            ] {
                let named: Vec<(&str, Vec<u8>)> =
                    bases.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
                let mut cases = rig::mutation_matrix(&named, &mseeds);
                if label == "compress" {
                    cases.extend(rig::hostile_cases());
                }
                let report = rig::run(&cases, op);
                writeln!(
                    log,
                    "{label}: {} cases, {} accepted, {} violations",
                    report.cases,
                    report.accepted,
                    report.violations.len()
                )?;
                for (code, n) in &report.rows {
                    writeln!(log, "  {:<24} {:>7}", code.label(), n)?;
                }
                for v in &report.violations {
                    writeln!(log, "  VIOLATION: {v}")?;
                }
                total_violations += report.violations.len();
            }
            if total_violations > 0 {
                writeln!(log, "torture rig FAILED: {total_violations} violations")?;
                worst = worst.max(process_exit_code(ExitCode::RoundtripFailed));
            } else {
                writeln!(log, "torture rig clean")?;
            }
            Ok(worst)
        }
        Command::Store(store_cmd) => run_store(store_cmd, log),
        Command::Fleet(fleet_cmd) => run_fleet(fleet_cmd, log),
        Command::Corpus {
            out,
            count,
            seed,
            dirty,
        } => {
            std::fs::create_dir_all(&out)?;
            let spec = CorpusSpec {
                count,
                seed,
                clean_fraction: if dirty { 0.94 } else { 1.0 },
                ..Default::default()
            };
            let corpus = Corpus::generate(&spec);
            let mut written = 0usize;
            for (i, f) in corpus.files.iter().enumerate() {
                let ext = match f.kind {
                    FileKind::Baseline | FileKind::TrailingData | FileKind::ZeroRun => "jpg",
                    _ => "bin",
                };
                let name = out.join(format!("{:05}-{:?}.{ext}", i, f.kind));
                std::fs::write(&name, &f.data)?;
                written += f.data.len();
            }
            writeln!(
                log,
                "wrote {} files, {} bytes, to {}",
                corpus.files.len(),
                written,
                pretty(&out)
            )?;
            Ok(0)
        }
    }
}

fn open_store(root: &Path, shards: usize, compress: bool) -> std::io::Result<ShardedStore> {
    ShardedStore::open(
        root,
        StoreConfig {
            shards,
            compress_on_write: compress,
            ..Default::default()
        },
    )
}

/// The `lepton store` family: a durable sharded blockstore on disk.
fn run_store(cmd: StoreCommand, log: &mut dyn Write) -> Result<i32, Box<dyn std::error::Error>> {
    match cmd {
        StoreCommand::Put {
            root,
            files,
            shards,
            compress,
        } => {
            let store = open_store(&root, shards, compress)?;
            for path in &files {
                let data = std::fs::read(path)?;
                let key = store.put(&data)?;
                writeln!(log, "{}  {}", hex(&key), pretty(path))?;
            }
            let m = &store.metrics;
            let new_blocks = m.lepton_blocks.get() + m.raw_blocks.get();
            writeln!(
                log,
                "put {} files: {} new blocks ({} lepton, {} raw, {} deduped), {} -> {} bytes",
                files.len(),
                new_blocks,
                m.lepton_blocks.get(),
                m.raw_blocks.get(),
                files.len() as u64 - new_blocks,
                m.bytes_in.get(),
                m.bytes_stored.get(),
            )?;
            Ok(0)
        }
        StoreCommand::Get {
            root,
            digest,
            output,
            shards,
        } => {
            let store = open_store(&root, shards, true)?;
            let key = parse_hex(&digest)
                .ok_or_else(|| args::UsageError(format!("bad digest {digest:?}")))?;
            match store.get(&key)? {
                Some(bytes) => {
                    // `Derived` has no input name to derive from here;
                    // treat it as stdout like the parser's default.
                    match &output {
                        Output::Path(p) => {
                            std::fs::write(p, &bytes)?;
                            writeln!(log, "{} -> {} ({} bytes)", digest, pretty(p), bytes.len())?;
                        }
                        Output::Stdout | Output::Derived => {
                            std::io::stdout().lock().write_all(&bytes)?;
                        }
                    }
                    Ok(0)
                }
                None => {
                    writeln!(log, "lepton: no block {digest} in {}", pretty(&root))?;
                    Ok(1)
                }
            }
        }
        StoreCommand::Backfill {
            root,
            parallelism,
            shards,
        } => {
            let store = open_store(&root, shards, true)?;
            let report = store.backfill(parallelism)?;
            writeln!(
                log,
                "backfill: scanned {}, converted {}, skipped {} ({} -> {} bytes, {:.1}% saved) \
                 in {:.2}s ({:.1} conv/s)",
                report.scanned,
                report.converted,
                report.skipped,
                report.bytes_before,
                report.bytes_after,
                100.0 * report.savings(),
                report.secs,
                report.conversions_per_sec(),
            )?;
            Ok(0)
        }
        StoreCommand::Scrub {
            root,
            parallelism,
            shards,
            quarantine,
        } => {
            let store = open_store(&root, shards, true)?;
            let report = store.scrub(parallelism)?;
            writeln!(
                log,
                "scrub: scanned {}, corrupt {} in {:.2}s",
                report.scanned, report.corrupt, report.secs
            )?;
            for key in &report.corrupt_keys {
                if quarantine {
                    let moved = store.quarantine(key)?;
                    writeln!(
                        log,
                        "  corrupt {} {}",
                        hex(key),
                        if moved {
                            "(quarantined — a re-put of the true content will land)"
                        } else {
                            "(already quarantined)"
                        }
                    )?;
                } else {
                    writeln!(log, "  corrupt {}", hex(key))?;
                }
            }
            // Damage is an operator-actionable failure: nonzero exit
            // so cron/CI notices.
            Ok(if report.corrupt == 0 { 0 } else { 1 })
        }
        StoreCommand::Stat { root, shards } => {
            let store = open_store(&root, shards, true)?;
            let s = store.stat()?;
            writeln!(
                log,
                "store {} ({} shards):",
                pretty(&root),
                store.shard_count()
            )?;
            writeln!(log, "  blocks:        {:>12}", s.blocks)?;
            writeln!(log, "    lepton:      {:>12}", s.lepton_blocks)?;
            writeln!(log, "    raw:         {:>12}", s.raw_blocks)?;
            writeln!(log, "  logical bytes: {:>12}", s.logical_bytes)?;
            writeln!(log, "  stored bytes:  {:>12}", s.stored_bytes)?;
            writeln!(log, "  savings:       {:>11.1}%", 100.0 * s.savings())?;
            Ok(0)
        }
        StoreCommand::Recover {
            root,
            shards,
            apply,
        } => {
            // Open with the startup sweep deferred so a dry run can
            // report damage before anything is touched; `--apply`
            // makes the explicit pass below repair it.
            let store = ShardedStore::open(
                &root,
                StoreConfig {
                    shards,
                    recover_on_open: false,
                    ..Default::default()
                },
            )?;
            let r = store.recover(apply)?;
            writeln!(
                log,
                "recover{}: {} blocks at rest in {:.2}s",
                if apply { " --apply" } else { " (dry run)" },
                r.blocks,
                r.secs
            )?;
            writeln!(
                log,
                "  orphaned tmps:      {:>8} found, {} removed",
                r.orphans_found, r.orphans_removed
            )?;
            writeln!(
                log,
                "  torn records:       {:>8} found, {} quarantined",
                r.torn_found, r.torn_quarantined
            )?;
            writeln!(
                log,
                "  quarantine pending: {:>8} (re-put the true content to repair)",
                r.quarantined_pending
            )?;
            if store.is_read_only() {
                writeln!(
                    log,
                    "  store is READ-ONLY: {}",
                    store.read_only_reason().unwrap_or_default()
                )?;
                return Ok(1);
            }
            // A dry run that found work exits 1 so cron/CI notices;
            // clean (or repaired) exits 0.
            Ok(if r.clean() || apply { 0 } else { 1 })
        }
    }
}

/// Build a gateway from a manifest file. `hedge` arms the hedged-read
/// path: fire the next replica after the budget, first success wins.
fn open_gateway(
    manifest: &Path,
    replicas: usize,
    hedge: Option<std::time::Duration>,
) -> Result<FleetGateway, Box<dyn std::error::Error>> {
    let members = read_manifest(manifest)?;
    let cfg = FleetConfig {
        replicas,
        hedge,
        ..Default::default()
    };
    Ok(FleetGateway::new(members, cfg))
}

/// The `lepton fleet` family: a replicated fleet of blockserver nodes
/// behind the consistent-hash gateway.
fn run_fleet(cmd: FleetCommand, log: &mut dyn Write) -> Result<i32, Box<dyn std::error::Error>> {
    match cmd {
        FleetCommand::Serve {
            root,
            nodes,
            shards,
            compress,
        } => {
            std::fs::create_dir_all(&root)?;
            let store_cfg = StoreConfig {
                shards,
                compress_on_write: compress,
                ..Default::default()
            };
            let fleet = LocalFleet::spawn(
                &root,
                nodes,
                &store_cfg,
                &lepton_server::ServiceConfig::default(),
            )?;
            let manifest = manifest_path(&root);
            fleet.write_manifest(&manifest)?;
            writeln!(
                log,
                "fleet of {nodes} nodes; manifest {}",
                pretty(&manifest)
            )?;
            for (name, ep) in fleet.members() {
                writeln!(log, "  {name} {ep}")?;
            }
            log.flush()?;
            // Serve until killed, like the production fleet (§5.5).
            loop {
                std::thread::park();
            }
        }
        FleetCommand::Put {
            manifest,
            files,
            replicas,
        } => {
            let gw = open_gateway(&manifest, replicas, None)?;
            for path in &files {
                let data = std::fs::read(path)?;
                let key = gw.put(&data)?;
                writeln!(log, "{}  {}", hex(&key), pretty(path))?;
            }
            let partial = gw.metrics.partial_writes.get();
            writeln!(
                log,
                "put {} blocks x{} replicas ({} partial writes)",
                files.len(),
                replicas,
                partial
            )?;
            // Partial writes delivered the bytes but not the promised
            // durability; surface that to scripts.
            Ok(if partial == 0 { 0 } else { 1 })
        }
        FleetCommand::Get {
            manifest,
            digest,
            output,
            replicas,
            hedge_ms,
        } => {
            let hedge = hedge_ms.map(std::time::Duration::from_millis);
            let gw = open_gateway(&manifest, replicas, hedge)?;
            let key = parse_hex(&digest)
                .ok_or_else(|| args::UsageError(format!("bad digest {digest:?}")))?;
            match gw.get(&key)? {
                Some(bytes) => {
                    match &output {
                        Output::Path(p) => {
                            std::fs::write(p, &bytes)?;
                            writeln!(log, "{} -> {} ({} bytes)", digest, pretty(p), bytes.len())?;
                        }
                        Output::Stdout | Output::Derived => {
                            std::io::stdout().lock().write_all(&bytes)?;
                        }
                    }
                    Ok(0)
                }
                None => {
                    writeln!(log, "lepton: no block {digest} in the fleet")?;
                    Ok(1)
                }
            }
        }
        FleetCommand::Stat { manifest, replicas } => {
            let gw = open_gateway(&manifest, replicas, None)?;
            let s = gw.stat();
            writeln!(
                log,
                "fleet of {} nodes ({} reachable), R={}:",
                s.nodes.len(),
                s.reachable,
                replicas
            )?;
            for row in &s.nodes {
                match &row.stats {
                    Some(b) => writeln!(
                        log,
                        "  {:<10} {:>8} blocks {:>12} -> {:>12} bytes  failures {}",
                        row.name,
                        b.blocks,
                        b.logical_bytes,
                        b.stored_bytes,
                        row.health.consecutive_failures,
                    )?,
                    None => writeln!(
                        log,
                        "  {:<10} unreachable{}",
                        row.name,
                        if row.health.ejected { " (ejected)" } else { "" }
                    )?,
                }
            }
            writeln!(log, "  copies:        {:>12}", s.copies)?;
            writeln!(log, "    lepton:      {:>12}", s.lepton_copies)?;
            writeln!(log, "  logical bytes: {:>12}", s.logical_bytes)?;
            writeln!(log, "  stored bytes:  {:>12}", s.stored_bytes)?;
            writeln!(log, "  savings:       {:>11.1}%", 100.0 * s.savings())?;
            Ok(0)
        }
        FleetCommand::Rebalance { manifest, replicas } => {
            let gw = open_gateway(&manifest, replicas, None)?;
            let report = lepton_fleet::rebalance(&gw);
            writeln!(
                log,
                "rebalance: {} keys, moved {} blocks ({} bytes), {} failed, \
                 {} nodes unreachable, in {:.2}s",
                report.keys,
                report.blocks_moved,
                report.bytes_moved,
                report.failed,
                report.unreachable_nodes,
                report.secs,
            )?;
            Ok(if report.clean() { 0 } else { 1 })
        }
    }
}

fn describe(input: &Input) -> String {
    match input {
        Input::Path(p) => pretty(p),
        Input::Stdin => "stdin".into(),
    }
}

fn pretty(p: &Path) -> String {
    p.display().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_maps_to_zero() {
        assert_eq!(process_exit_code(ExitCode::Success), 0);
    }

    #[test]
    fn taxonomy_rows_map_to_distinct_codes_above_15() {
        let mut seen = std::collections::BTreeSet::new();
        for code in EXIT_CODES.iter().skip(1) {
            let p = process_exit_code(*code);
            assert!(p >= 16, "{code:?} -> {p}");
            assert!(p < 256, "must fit a process exit code");
            assert!(seen.insert(p), "duplicate process code for {code:?}");
        }
    }

    #[test]
    fn wire_and_process_codes_agree() {
        use lepton_server::Status;
        for code in EXIT_CODES.iter().skip(1) {
            assert_eq!(
                Status::Rejected(*code).to_wire() as i32,
                process_exit_code(*code),
                "one taxonomy, two encodings, same number"
            );
        }
    }

    #[test]
    fn derive_output_swaps_extension() {
        let i = Input::Path("a/b/photo.jpg".into());
        assert_eq!(
            derive_output(&i, "lep"),
            Some(PathBuf::from("a/b/photo.lep"))
        );
        assert_eq!(derive_output(&Input::Stdin, "lep"), None);
    }

    #[test]
    fn qualify_command_runs_clean() {
        let mut log = Vec::new();
        let code = run(Command::Qualify { count: 6, seed: 42 }, &mut log);
        let text = String::from_utf8(log).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("QUALIFIED"), "{text}");
    }

    #[test]
    fn torture_command_runs_clean() {
        let mut log = Vec::new();
        let code = run(
            Command::Torture {
                bases: 1,
                seeds: 1,
                seed: 7,
            },
            &mut log,
        );
        let text = String::from_utf8(log).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("torture rig clean"), "{text}");
    }

    #[test]
    fn verify_command_reports_rejects() {
        let dir = std::env::temp_dir().join(format!("lepton-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.jpg");
        std::fs::write(
            &good,
            lepton_corpus::builder::clean_jpeg(
                &CorpusSpec {
                    min_dim: 48,
                    max_dim: 96,
                    ..Default::default()
                },
                1,
            ),
        )
        .unwrap();
        let bad = dir.join("bad.jpg");
        std::fs::write(&bad, b"this is not a jpeg").unwrap();

        let mut log = Vec::new();
        let code = run(
            Command::Verify {
                files: vec![good.clone(), bad.clone()],
            },
            &mut log,
        );
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("verified"), "{text}");
        assert!(text.contains("rejected"), "{text}");
        assert_eq!(code, process_exit_code(ExitCode::NotAnImage), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corpus_command_writes_files() {
        let dir = std::env::temp_dir().join(format!("lepton-cli-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut log = Vec::new();
        let code = run(
            Command::Corpus {
                out: dir.clone(),
                count: 5,
                seed: 7,
                dirty: false,
            },
            &mut log,
        );
        assert_eq!(code, 0);
        let n = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(n, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_put_backfill_stat_flow() {
        let base = std::env::temp_dir().join(format!("lepton-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let jpg_path = base.join("photo.jpg");
        std::fs::write(
            &jpg_path,
            lepton_corpus::builder::clean_jpeg(
                &CorpusSpec {
                    min_dim: 64,
                    max_dim: 128,
                    ..Default::default()
                },
                9,
            ),
        )
        .unwrap();
        let root = base.join("store");

        // Put raw (shutoff), then backfill converts it.
        let mut log = Vec::new();
        let code = run(
            Command::Store(StoreCommand::Put {
                root: root.clone(),
                files: vec![jpg_path.clone()],
                shards: 4,
                compress: false,
            }),
            &mut log,
        );
        let text = String::from_utf8(log).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("1 raw"), "{text}");

        let mut log = Vec::new();
        let code = run(
            Command::Store(StoreCommand::Backfill {
                root: root.clone(),
                parallelism: 2,
                shards: 4,
            }),
            &mut log,
        );
        let text = String::from_utf8(log).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("converted 1"), "{text}");

        let mut log = Vec::new();
        let code = run(
            Command::Store(StoreCommand::Stat {
                root: root.clone(),
                shards: 4,
            }),
            &mut log,
        );
        let text = String::from_utf8(log).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("lepton:                 1"), "{text}");

        // Get of a missing digest exits 1 without panicking.
        let mut log = Vec::new();
        let code = run(
            Command::Store(StoreCommand::Get {
                root,
                digest: "00".repeat(32),
                output: Output::Path(base.join("out.bin")),
                shards: 4,
            }),
            &mut log,
        );
        assert_eq!(code, 1);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn store_scrub_reports_damage_with_exit_one() {
        let base = std::env::temp_dir().join(format!("lepton-cli-scrub-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let root = base.join("store");
        let store = ShardedStore::open(
            &root,
            StoreConfig {
                shards: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let key = store.put(b"block that will rot on disk").unwrap();
        drop(store);

        let mut log = Vec::new();
        let cmd = Command::Store(StoreCommand::Scrub {
            root: root.clone(),
            parallelism: 2,
            shards: 4,
            quarantine: false,
        });
        assert_eq!(run(cmd.clone(), &mut log), 0, "clean store scrubs clean");

        // Damage the record, scrub again: exit 1 and the key named.
        let path = (0..4)
            .map(|i| root.join(format!("shard-{i:03}")).join(hex(&key)))
            .find(|p| p.exists())
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let mut log = Vec::new();
        assert_eq!(run(cmd, &mut log), 1);
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("corrupt 1"), "{text}");
        assert!(text.contains(&hex(&key)), "{text}");

        // The operator remedy: --quarantine moves the damage aside,
        // after which re-putting the true content actually heals.
        let mut log = Vec::new();
        assert_eq!(
            run(
                Command::Store(StoreCommand::Scrub {
                    root: root.clone(),
                    parallelism: 2,
                    shards: 4,
                    quarantine: true,
                }),
                &mut log,
            ),
            1,
            "damage was still present this pass"
        );
        let src = base.join("block.bin");
        std::fs::write(&src, b"block that will rot on disk").unwrap();
        let mut log = Vec::new();
        assert_eq!(
            run(
                Command::Store(StoreCommand::Put {
                    root: root.clone(),
                    files: vec![src],
                    shards: 4,
                    compress: true,
                }),
                &mut log,
            ),
            0
        );
        let mut log = Vec::new();
        assert_eq!(
            run(
                Command::Store(StoreCommand::Scrub {
                    root,
                    parallelism: 2,
                    shards: 4,
                    quarantine: false,
                }),
                &mut log,
            ),
            0,
            "healed: {}",
            String::from_utf8_lossy(&log)
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn store_recover_dry_run_reports_then_apply_repairs() {
        let base = std::env::temp_dir().join(format!("lepton-cli-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let root = base.join("store");
        let store = ShardedStore::open(
            &root,
            StoreConfig {
                shards: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let key = store.put(b"block that survives the crash").unwrap();
        drop(store);

        // Simulate a crash mid-put: an orphaned tmp in one shard and a
        // record torn down to a ruined header in another.
        std::fs::write(root.join("shard-000").join(".tmp-999-0"), b"partial").unwrap();
        let record = (0..4)
            .map(|i| root.join(format!("shard-{i:03}")).join(hex(&key)))
            .find(|p| p.exists())
            .unwrap();
        std::fs::write(&record, b"\x00\x01").unwrap();

        // The dry run names the damage, touches nothing, exits 1.
        let dry = Command::Store(StoreCommand::Recover {
            root: root.clone(),
            shards: 4,
            apply: false,
        });
        let mut log = Vec::new();
        assert_eq!(run(dry.clone(), &mut log), 1);
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("recover (dry run)"), "{text}");
        assert!(
            text.contains("orphaned tmps:             1 found, 0 removed"),
            "{text}"
        );
        assert!(
            text.contains("torn records:              1 found, 0 quarantined"),
            "{text}"
        );
        assert!(
            root.join("shard-000").join(".tmp-999-0").exists(),
            "dry run must not repair"
        );

        // --apply removes the orphan and quarantines the torn record.
        let mut log = Vec::new();
        assert_eq!(
            run(
                Command::Store(StoreCommand::Recover {
                    root: root.clone(),
                    shards: 4,
                    apply: true,
                }),
                &mut log,
            ),
            0
        );
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("recover --apply"), "{text}");
        assert!(text.contains("1 found, 1 removed"), "{text}");
        assert!(text.contains("1 found, 1 quarantined"), "{text}");
        assert!(!root.join("shard-000").join(".tmp-999-0").exists());

        // A second dry run finds no fresh damage — only the quarantine
        // tombstone still awaiting a re-put, which keeps the exit
        // nonzero so cron keeps nagging until the block is healed.
        let mut log = Vec::new();
        assert_eq!(run(dry.clone(), &mut log), 1);
        let text = String::from_utf8(log).unwrap();
        assert!(
            text.contains("orphaned tmps:             0 found"),
            "{text}"
        );
        assert!(
            text.contains("torn records:              0 found"),
            "{text}"
        );
        assert!(text.contains("quarantine pending:        1"), "{text}");

        // Re-putting the true content heals it; recover then runs clean.
        let src = base.join("block.bin");
        std::fs::write(&src, b"block that survives the crash").unwrap();
        let mut log = Vec::new();
        assert_eq!(
            run(
                Command::Store(StoreCommand::Put {
                    root: root.clone(),
                    files: vec![src],
                    shards: 4,
                    compress: false,
                }),
                &mut log,
            ),
            0
        );
        let mut log = Vec::new();
        assert_eq!(run(dry, &mut log), 0, "{}", String::from_utf8_lossy(&log));
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn stats_one_shot_exits_one_when_store_latches_read_only() {
        let base = std::env::temp_dir().join(format!("lepton-cli-stats-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let store = std::sync::Arc::new(
            ShardedStore::open(
                base.join("store"),
                StoreConfig {
                    shards: 2,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let handle = lepton_server::serve(
            &lepton_server::Endpoint::tcp("127.0.0.1:0").unwrap(),
            lepton_server::ServiceConfig {
                blockstore: Some(std::sync::Arc::clone(&store)),
                ..Default::default()
            },
        )
        .unwrap();
        let addr = match handle.endpoint() {
            lepton_server::Endpoint::Tcp(a) => a.to_string(),
            other => panic!("expected tcp endpoint, got {other}"),
        };
        let stats = Command::Stats {
            uds: None,
            tcp: Some(addr),
            watch: false,
            interval_ms: 1000,
        };

        // Healthy: the one-shot probe exits 0 and reports ok.
        let mut log = Vec::new();
        assert_eq!(run(stats.clone(), &mut log), 0);
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("ok"), "{text}");

        // The store latches read-only; the same probe now exits 1 so
        // monitoring cron notices the node stopped taking writes.
        store.latch_read_only("disk full (test)");
        let mut log = Vec::new();
        assert_eq!(run(stats, &mut log), 1);
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("DEGRADED"), "{text}");

        handle.shutdown();
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn fleet_put_get_stat_rebalance_flow() {
        use lepton_fleet::LocalFleet;
        let base = std::env::temp_dir().join(format!("lepton-cli-fleet-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let fleet = LocalFleet::spawn(
            &base.join("nodes"),
            3,
            &StoreConfig {
                shards: 4,
                ..Default::default()
            },
            &lepton_server::ServiceConfig::default(),
        )
        .unwrap();
        let manifest = base.join("FLEET");
        fleet.write_manifest(&manifest).unwrap();

        let file = base.join("payload.bin");
        std::fs::write(&file, b"fleet cli round trip payload").unwrap();
        let key = lepton_storage::sha256::sha256(b"fleet cli round trip payload");

        let mut log = Vec::new();
        let code = run(
            Command::Fleet(FleetCommand::Put {
                manifest: manifest.clone(),
                files: vec![file.clone()],
                replicas: 2,
            }),
            &mut log,
        );
        let text = String::from_utf8(log).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains(&hex(&key)), "{text}");

        let out = base.join("fetched.bin");
        let mut log = Vec::new();
        let code = run(
            Command::Fleet(FleetCommand::Get {
                manifest: manifest.clone(),
                digest: hex(&key),
                output: Output::Path(out.clone()),
                replicas: 2,
                hedge_ms: Some(10),
            }),
            &mut log,
        );
        assert_eq!(code, 0);
        assert_eq!(
            std::fs::read(&out).unwrap(),
            b"fleet cli round trip payload"
        );

        let mut log = Vec::new();
        assert_eq!(
            run(
                Command::Fleet(FleetCommand::Stat {
                    manifest: manifest.clone(),
                    replicas: 2,
                }),
                &mut log,
            ),
            0
        );
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("3 reachable"), "{text}");

        let mut log = Vec::new();
        assert_eq!(
            run(
                Command::Fleet(FleetCommand::Rebalance {
                    manifest,
                    replicas: 2,
                }),
                &mut log,
            ),
            0
        );
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("moved 0 blocks"), "{text}");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn errorcodes_prints_full_table() {
        let mut log = Vec::new();
        assert_eq!(run(Command::ErrorCodes, &mut log), 0);
        let text = String::from_utf8(log).unwrap();
        for code in EXIT_CODES {
            assert!(text.contains(code.label()), "missing {:?}", code.label());
        }
    }
}
