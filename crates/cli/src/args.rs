//! Hand-rolled argument parsing for the `lepton` tool.
//!
//! Deliberately dependency-free: the production tool's interface was a
//! couple of positional arguments and a socket mode, and keeping the
//! parser in-tree lets us unit-test every usage error path.

use std::path::PathBuf;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `lepton compress <in> [out]` — JPEG → Lepton container.
    Compress {
        /// Input path, `-` for stdin.
        input: Input,
        /// Output path, `-` for stdout; default derives from input.
        output: Output,
        /// `--threads N` (0 = auto).
        threads: usize,
        /// `--no-verify`: skip the round-trip admission check.
        verify: bool,
    },
    /// `lepton decompress <in> [out]` — container → original JPEG.
    Decompress {
        /// Input path, `-` for stdin.
        input: Input,
        /// Output path, `-` for stdout; default derives from input.
        output: Output,
    },
    /// `lepton verify <file...>` — round-trip check without writing.
    Verify {
        /// Files to verify.
        files: Vec<PathBuf>,
    },
    /// `lepton qualify [--count N] [--seed S]` — the pre-deployment
    /// qualification run (§5.7) over a synthetic corpus.
    Qualify {
        /// Corpus size.
        count: usize,
        /// Master seed.
        seed: u64,
    },
    /// `lepton serve (--uds PATH | --tcp ADDR) [--max-conns N]
    /// [--workers N] [--shutoff FILE]` — run the conversion service.
    Serve {
        /// `--uds PATH` listen endpoint.
        uds: Option<PathBuf>,
        /// `--tcp ADDR` listen endpoint.
        tcp: Option<String>,
        /// Maximum simultaneous connections.
        max_conns: usize,
        /// Conversion worker-pool size (`--workers N`, 0 = auto).
        workers: usize,
        /// Shutoff-switch file.
        shutoff: Option<PathBuf>,
    },
    /// `lepton stats (--uds PATH | --tcp ADDR) [--watch]
    /// [--interval-ms N]` — fetch and render a live service's
    /// telemetry snapshot (the `StatsV2` op): counters, gauges, per-op
    /// latency percentiles, stage traces, and the degraded flag.
    Stats {
        /// `--uds PATH` service endpoint.
        uds: Option<PathBuf>,
        /// `--tcp ADDR` service endpoint.
        tcp: Option<String>,
        /// `--watch`: refresh until interrupted.
        watch: bool,
        /// Refresh interval for `--watch`, in milliseconds.
        interval_ms: u64,
    },
    /// `lepton errorcodes` — print the §6.2 taxonomy and wire bytes.
    ErrorCodes,
    /// `lepton torture [--bases N] [--seeds N] [--seed S]` — run the
    /// hostile-input torture rig in-process: the seeded mutation
    /// matrix plus the handcrafted hostile set through compress and
    /// decompress, asserting the tri-state contract. Nonzero exit on
    /// any violation (panic, operational-row refusal).
    Torture {
        /// Base corpus files to mutate.
        bases: usize,
        /// Mutation seeds per kind.
        seeds: usize,
        /// Master seed.
        seed: u64,
    },
    /// `lepton store <put|get|backfill|scrub|stat> --root DIR ...` —
    /// operate on a sharded, content-addressed blockstore with
    /// transparent compress-on-write.
    Store(StoreCommand),
    /// `lepton fleet <serve|put|get|stat|rebalance> ...` — operate a
    /// replicated fleet of blockserver nodes through the
    /// consistent-hash gateway.
    Fleet(FleetCommand),
    /// `lepton corpus --out DIR [--count N] [--seed S] [--dirty]` —
    /// write a synthetic corpus to disk.
    Corpus {
        /// Output directory.
        out: PathBuf,
        /// File count.
        count: usize,
        /// Master seed.
        seed: u64,
        /// Include reject/corrupt populations (§6.2 mix).
        dirty: bool,
    },
    /// `lepton --help`.
    Help,
    /// `lepton --version`.
    Version,
}

/// The `lepton store` subcommands. Every variant carries the store
/// root plus the shard/cache geometry to open it with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreCommand {
    /// `store put --root DIR <file...>`: store each file as one block;
    /// prints `<hex-digest>  <path>` per file.
    Put {
        /// Store root directory.
        root: PathBuf,
        /// Files to store.
        files: Vec<PathBuf>,
        /// Shard count (`--shards N`).
        shards: usize,
        /// `--no-compress`: store raw (the shutoff switch; backfill
        /// can convert later).
        compress: bool,
    },
    /// `store get --root DIR <hex-digest> [out|-]`: fetch a block's
    /// original bytes.
    Get {
        /// Store root directory.
        root: PathBuf,
        /// 64-char hex content address.
        digest: String,
        /// Output path, `-`/absent for stdout.
        output: Output,
        /// Shard count (`--shards N`).
        shards: usize,
    },
    /// `store backfill --root DIR [--parallelism N]`: convert eligible
    /// blocks to Lepton in place.
    Backfill {
        /// Store root directory.
        root: PathBuf,
        /// Worker threads.
        parallelism: usize,
        /// Shard count (`--shards N`).
        shards: usize,
    },
    /// `store scrub --root DIR [--parallelism N] [--quarantine]`:
    /// hash-check every block at rest; exits 1 if any block is
    /// damaged. With `--quarantine`, damaged records are moved aside
    /// so a re-`put` of the true content (e.g. from a replica) lands
    /// instead of deduping against the bad file.
    Scrub {
        /// Store root directory.
        root: PathBuf,
        /// Worker threads.
        parallelism: usize,
        /// Shard count (`--shards N`).
        shards: usize,
        /// Quarantine the damage found (`--quarantine`).
        quarantine: bool,
    },
    /// `store stat --root DIR`: walk the store and summarize it.
    Stat {
        /// Store root directory.
        root: PathBuf,
        /// Shard count (`--shards N`).
        shards: usize,
    },
    /// `store recover --root DIR [--apply]`: the crash-recovery sweep —
    /// report orphaned tmp files, torn records, and pending quarantine
    /// tombstones. Dry-run by default; `--apply` removes the orphans
    /// and quarantines the torn records.
    Recover {
        /// Store root directory.
        root: PathBuf,
        /// Shard count (`--shards N`).
        shards: usize,
        /// Repair instead of just reporting (`--apply`).
        apply: bool,
    },
}

/// The `lepton fleet` subcommands. All but `serve` act through the
/// consistent-hash gateway, configured from a manifest file (one
/// `name endpoint` line per node) so every invocation agrees on
/// placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetCommand {
    /// `fleet serve --root DIR [--nodes N] [--shards S]
    /// [--no-compress]`: run N complete blockserver nodes in this
    /// process, each with a store under `DIR/node-NNN`, and write the
    /// manifest to `DIR/FLEET`.
    Serve {
        /// Fleet root directory.
        root: PathBuf,
        /// Node count.
        nodes: usize,
        /// Shards per node store.
        shards: usize,
        /// `--no-compress`: nodes store raw (backfill converts later).
        compress: bool,
    },
    /// `fleet put --manifest FILE <file...> [--replicas R]`: store
    /// each file as one replicated block.
    Put {
        /// Manifest file.
        manifest: PathBuf,
        /// Files to store.
        files: Vec<PathBuf>,
        /// Replication factor.
        replicas: usize,
    },
    /// `fleet get --manifest FILE <hex-digest> [out|-] [--replicas R]
    /// [--hedge-ms MS]`: fetch a block through failover, optionally
    /// hedging to the next replica after MS milliseconds.
    Get {
        /// Manifest file.
        manifest: PathBuf,
        /// 64-char hex content address.
        digest: String,
        /// Output path, `-`/absent for stdout.
        output: Output,
        /// Replication factor.
        replicas: usize,
        /// Hedge budget in milliseconds (`--hedge-ms MS`).
        hedge_ms: Option<u64>,
    },
    /// `fleet stat --manifest FILE [--replicas R]`: aggregate
    /// per-node blockstore stats and health.
    Stat {
        /// Manifest file.
        manifest: PathBuf,
        /// Replication factor.
        replicas: usize,
    },
    /// `fleet rebalance --manifest FILE [--replicas R]`: stream
    /// blocks whose replica set changed onto their new owners.
    Rebalance {
        /// Manifest file.
        manifest: PathBuf,
        /// Replication factor.
        replicas: usize,
    },
}

/// An input source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Input {
    /// Read the named file.
    Path(PathBuf),
    /// Read stdin to EOF.
    Stdin,
}

/// An output sink.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Output {
    /// Write the named file.
    Path(PathBuf),
    /// Write to stdout.
    Stdout,
    /// Derive from the input name (`x.jpg` → `x.lep`, `x.lep` → `x.jpg`).
    Derived,
}

/// A usage error with the offending detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "usage error: {}", self.0)
    }
}

impl std::error::Error for UsageError {}

fn parse_io(arg: &str) -> Input {
    if arg == "-" {
        Input::Stdin
    } else {
        Input::Path(PathBuf::from(arg))
    }
}

fn parse_out(arg: &str) -> Output {
    if arg == "-" {
        Output::Stdout
    } else {
        Output::Path(PathBuf::from(arg))
    }
}

fn want_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<&'a str, UsageError> {
    it.next()
        .ok_or_else(|| UsageError(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, UsageError> {
    v.parse()
        .map_err(|_| UsageError(format!("{flag}: bad value {v:?}")))
}

/// Parse a full argv (excluding `argv[0]`).
pub fn parse(args: &[&str]) -> Result<Command, UsageError> {
    let mut it = args.iter().copied();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd {
        "--help" | "-h" | "help" => Ok(Command::Help),
        "--version" | "-V" | "version" => Ok(Command::Version),
        "compress" => {
            let mut input = None;
            let mut output = Output::Derived;
            let mut threads = 0usize;
            let mut verify = true;
            while let Some(a) = it.next() {
                match a {
                    "--threads" => threads = parse_num(a, want_value(a, &mut it)?)?,
                    "--no-verify" => verify = false,
                    _ if a.starts_with("--") => {
                        return Err(UsageError(format!("unknown flag {a}")))
                    }
                    _ if input.is_none() => input = Some(parse_io(a)),
                    _ => output = parse_out(a),
                }
            }
            let input = input.ok_or_else(|| UsageError("compress needs an input".into()))?;
            Ok(Command::Compress {
                input,
                output,
                threads,
                verify,
            })
        }
        "decompress" => {
            let mut input = None;
            let mut output = Output::Derived;
            for a in it {
                if a.starts_with("--") {
                    return Err(UsageError(format!("unknown flag {a}")));
                } else if input.is_none() {
                    input = Some(parse_io(a));
                } else {
                    output = parse_out(a);
                }
            }
            let input = input.ok_or_else(|| UsageError("decompress needs an input".into()))?;
            Ok(Command::Decompress { input, output })
        }
        "verify" => {
            let files: Vec<PathBuf> = it.map(PathBuf::from).collect();
            if files.is_empty() {
                return Err(UsageError("verify needs at least one file".into()));
            }
            Ok(Command::Verify { files })
        }
        "qualify" => {
            let mut count = 200usize;
            let mut seed = 0x1EAF_5EEDu64;
            while let Some(a) = it.next() {
                match a {
                    "--count" => count = parse_num(a, want_value(a, &mut it)?)?,
                    "--seed" => seed = parse_num(a, want_value(a, &mut it)?)?,
                    _ => return Err(UsageError(format!("unknown flag {a}"))),
                }
            }
            Ok(Command::Qualify { count, seed })
        }
        "serve" => {
            let mut uds = None;
            let mut tcp = None;
            let mut max_conns = 64usize;
            let mut workers = 0usize;
            let mut shutoff = None;
            while let Some(a) = it.next() {
                match a {
                    "--uds" => uds = Some(PathBuf::from(want_value(a, &mut it)?)),
                    "--tcp" => tcp = Some(want_value(a, &mut it)?.to_string()),
                    "--max-conns" => max_conns = parse_num(a, want_value(a, &mut it)?)?,
                    "--workers" => workers = parse_num(a, want_value(a, &mut it)?)?,
                    "--shutoff" => shutoff = Some(PathBuf::from(want_value(a, &mut it)?)),
                    _ => return Err(UsageError(format!("unknown flag {a}"))),
                }
            }
            if uds.is_none() == tcp.is_none() {
                return Err(UsageError(
                    "serve needs exactly one of --uds / --tcp".into(),
                ));
            }
            Ok(Command::Serve {
                uds,
                tcp,
                max_conns,
                workers,
                shutoff,
            })
        }
        "stats" => {
            let mut uds = None;
            let mut tcp = None;
            let mut watch = false;
            let mut interval_ms = 2000u64;
            while let Some(a) = it.next() {
                match a {
                    "--uds" => uds = Some(PathBuf::from(want_value(a, &mut it)?)),
                    "--tcp" => tcp = Some(want_value(a, &mut it)?.to_string()),
                    "--watch" => watch = true,
                    "--interval-ms" => interval_ms = parse_num(a, want_value(a, &mut it)?)?,
                    _ => return Err(UsageError(format!("unknown flag {a}"))),
                }
            }
            if uds.is_none() == tcp.is_none() {
                return Err(UsageError(
                    "stats needs exactly one of --uds / --tcp".into(),
                ));
            }
            Ok(Command::Stats {
                uds,
                tcp,
                watch,
                interval_ms,
            })
        }
        "errorcodes" => Ok(Command::ErrorCodes),
        "torture" => {
            let mut bases = 2usize;
            let mut seeds = 2usize;
            let mut seed = 0x7061_7065u64;
            while let Some(a) = it.next() {
                match a {
                    "--bases" => bases = parse_num(a, want_value(a, &mut it)?)?,
                    "--seeds" => seeds = parse_num(a, want_value(a, &mut it)?)?,
                    "--seed" => seed = parse_num(a, want_value(a, &mut it)?)?,
                    _ => return Err(UsageError(format!("unknown flag {a}"))),
                }
            }
            Ok(Command::Torture { bases, seeds, seed })
        }
        "store" => parse_store(&mut it),
        "fleet" => parse_fleet(&mut it),
        "corpus" => {
            let mut out = None;
            let mut count = 50usize;
            let mut seed = 0x1EAF_5EEDu64;
            let mut dirty = false;
            while let Some(a) = it.next() {
                match a {
                    "--out" => out = Some(PathBuf::from(want_value(a, &mut it)?)),
                    "--count" => count = parse_num(a, want_value(a, &mut it)?)?,
                    "--seed" => seed = parse_num(a, want_value(a, &mut it)?)?,
                    "--dirty" => dirty = true,
                    _ => return Err(UsageError(format!("unknown flag {a}"))),
                }
            }
            let out = out.ok_or_else(|| UsageError("corpus needs --out DIR".into()))?;
            Ok(Command::Corpus {
                out,
                count,
                seed,
                dirty,
            })
        }
        other => Err(UsageError(format!("unknown command {other:?}"))),
    }
}

/// Default shard count for `lepton store` (matches
/// `StoreConfig::default()`).
pub const DEFAULT_SHARDS: usize = 16;

fn parse_store<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<Command, UsageError> {
    let Some(sub) = it.next() else {
        return Err(UsageError(
            "store needs a subcommand: put | get | backfill | scrub | stat | recover".into(),
        ));
    };
    let mut root = None;
    let mut shards = DEFAULT_SHARDS;
    let mut parallelism = 4usize;
    let mut compress = true;
    let mut quarantine = false;
    let mut apply = false;
    let mut positional: Vec<&str> = Vec::new();
    while let Some(a) = it.next() {
        match a {
            "--root" => root = Some(PathBuf::from(want_value(a, it)?)),
            "--shards" => shards = parse_num(a, want_value(a, it)?)?,
            "--parallelism" => parallelism = parse_num(a, want_value(a, it)?)?,
            "--no-compress" => compress = false,
            "--quarantine" => quarantine = true,
            "--apply" => apply = true,
            _ if a.starts_with("--") => return Err(UsageError(format!("unknown flag {a}"))),
            _ => positional.push(a),
        }
    }
    let root = root.ok_or_else(|| UsageError(format!("store {sub} needs --root DIR")))?;
    if shards == 0 {
        return Err(UsageError("--shards must be at least 1".into()));
    }
    match sub {
        "put" => {
            if positional.is_empty() {
                return Err(UsageError("store put needs at least one file".into()));
            }
            Ok(Command::Store(StoreCommand::Put {
                root,
                files: positional.iter().map(PathBuf::from).collect(),
                shards,
                compress,
            }))
        }
        "get" => {
            let digest = positional
                .first()
                .ok_or_else(|| UsageError("store get needs a hex digest".into()))?
                .to_string();
            let output = positional.get(1).map_or(Output::Stdout, |a| parse_out(a));
            Ok(Command::Store(StoreCommand::Get {
                root,
                digest,
                output,
                shards,
            }))
        }
        "backfill" => Ok(Command::Store(StoreCommand::Backfill {
            root,
            parallelism,
            shards,
        })),
        "scrub" => Ok(Command::Store(StoreCommand::Scrub {
            root,
            parallelism,
            shards,
            quarantine,
        })),
        "stat" => Ok(Command::Store(StoreCommand::Stat { root, shards })),
        "recover" => Ok(Command::Store(StoreCommand::Recover {
            root,
            shards,
            apply,
        })),
        other => Err(UsageError(format!("unknown store subcommand {other:?}"))),
    }
}

/// Default replication factor for `lepton fleet` (matches
/// `FleetConfig::default()`).
pub const DEFAULT_REPLICAS: usize = 2;

fn parse_fleet<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<Command, UsageError> {
    let Some(sub) = it.next() else {
        return Err(UsageError(
            "fleet needs a subcommand: serve | put | get | stat | rebalance".into(),
        ));
    };
    let mut root = None;
    let mut manifest = None;
    let mut nodes = 3usize;
    let mut shards = DEFAULT_SHARDS;
    let mut replicas = DEFAULT_REPLICAS;
    let mut compress = true;
    let mut hedge_ms = None;
    let mut positional: Vec<&str> = Vec::new();
    while let Some(a) = it.next() {
        match a {
            "--root" => root = Some(PathBuf::from(want_value(a, it)?)),
            "--manifest" => manifest = Some(PathBuf::from(want_value(a, it)?)),
            "--nodes" => nodes = parse_num(a, want_value(a, it)?)?,
            "--shards" => shards = parse_num(a, want_value(a, it)?)?,
            "--replicas" => replicas = parse_num(a, want_value(a, it)?)?,
            "--no-compress" => compress = false,
            "--hedge-ms" => hedge_ms = Some(parse_num(a, want_value(a, it)?)?),
            _ if a.starts_with("--") => return Err(UsageError(format!("unknown flag {a}"))),
            _ => positional.push(a),
        }
    }
    if replicas == 0 {
        return Err(UsageError("--replicas must be at least 1".into()));
    }
    if hedge_ms.is_some() && sub != "get" {
        return Err(UsageError("--hedge-ms only applies to fleet get".into()));
    }
    let want_manifest = |manifest: Option<PathBuf>| {
        manifest.ok_or_else(|| UsageError(format!("fleet {sub} needs --manifest FILE")))
    };
    match sub {
        "serve" => {
            let root = root.ok_or_else(|| UsageError("fleet serve needs --root DIR".into()))?;
            if nodes == 0 || shards == 0 {
                return Err(UsageError("--nodes/--shards must be at least 1".into()));
            }
            Ok(Command::Fleet(FleetCommand::Serve {
                root,
                nodes,
                shards,
                compress,
            }))
        }
        "put" => {
            if positional.is_empty() {
                return Err(UsageError("fleet put needs at least one file".into()));
            }
            Ok(Command::Fleet(FleetCommand::Put {
                manifest: want_manifest(manifest)?,
                files: positional.iter().map(PathBuf::from).collect(),
                replicas,
            }))
        }
        "get" => {
            let digest = positional
                .first()
                .ok_or_else(|| UsageError("fleet get needs a hex digest".into()))?
                .to_string();
            let output = positional.get(1).map_or(Output::Stdout, |a| parse_out(a));
            Ok(Command::Fleet(FleetCommand::Get {
                manifest: want_manifest(manifest)?,
                digest,
                output,
                replicas,
                hedge_ms,
            }))
        }
        "stat" => Ok(Command::Fleet(FleetCommand::Stat {
            manifest: want_manifest(manifest)?,
            replicas,
        })),
        "rebalance" => Ok(Command::Fleet(FleetCommand::Rebalance {
            manifest: want_manifest(manifest)?,
            replicas,
        })),
        other => Err(UsageError(format!("unknown fleet subcommand {other:?}"))),
    }
}

/// The `--help` text.
pub const HELP: &str = "\
lepton — transparent, lossless JPEG recompression (NSDI '17 reproduction)

USAGE:
  lepton compress   <in.jpg|-> [out.lep|-] [--threads N] [--no-verify]
  lepton decompress <in.lep|-> [out.jpg|-]
  lepton verify     <file...>
  lepton qualify    [--count N] [--seed S]
  lepton serve      (--uds PATH | --tcp ADDR) [--max-conns N] [--workers N]
                    [--shutoff FILE]
  lepton stats      (--uds PATH | --tcp ADDR) [--watch] [--interval-ms N]
  lepton corpus     --out DIR [--count N] [--seed S] [--dirty]
  lepton store put      --root DIR <file...> [--shards N] [--no-compress]
  lepton store get      --root DIR <hex-digest> [out|-] [--shards N]
  lepton store backfill --root DIR [--parallelism N] [--shards N]
  lepton store scrub    --root DIR [--parallelism N] [--shards N] [--quarantine]
  lepton store stat     --root DIR [--shards N]
  lepton store recover  --root DIR [--shards N] [--apply]
  lepton fleet serve    --root DIR [--nodes N] [--shards S] [--no-compress]
  lepton fleet put      --manifest FILE <file...> [--replicas R]
  lepton fleet get      --manifest FILE <hex-digest> [out|-] [--replicas R]
                        [--hedge-ms MS]
  lepton fleet stat     --manifest FILE [--replicas R]
  lepton fleet rebalance --manifest FILE [--replicas R]
  lepton errorcodes
  lepton torture    [--bases N] [--seeds N] [--seed S]
  lepton help | version

EXIT CODES:
  0 success; 1 usage/IO error; 16+ the production exit-code taxonomy
  (run `lepton errorcodes` for the table).
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stats_with_flags() {
        let c = parse(&[
            "stats",
            "--uds",
            "/tmp/s.sock",
            "--watch",
            "--interval-ms",
            "500",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Stats {
                uds: Some("/tmp/s.sock".into()),
                tcp: None,
                watch: true,
                interval_ms: 500,
            }
        );
        // Exactly one endpoint, like serve.
        assert!(parse(&["stats"]).is_err());
        assert!(parse(&["stats", "--uds", "/s", "--tcp", "127.0.0.1:1"]).is_err());
    }

    #[test]
    fn parses_compress_with_flags() {
        let c = parse(&["compress", "a.jpg", "b.lep", "--threads", "4"]).unwrap();
        assert_eq!(
            c,
            Command::Compress {
                input: Input::Path("a.jpg".into()),
                output: Output::Path("b.lep".into()),
                threads: 4,
                verify: true,
            }
        );
    }

    #[test]
    fn stdin_stdout_spelled_as_dash() {
        let c = parse(&["compress", "-", "-"]).unwrap();
        assert_eq!(
            c,
            Command::Compress {
                input: Input::Stdin,
                output: Output::Stdout,
                threads: 0,
                verify: true,
            }
        );
    }

    #[test]
    fn no_verify_flag() {
        let Command::Compress { verify, .. } = parse(&["compress", "x", "--no-verify"]).unwrap()
        else {
            panic!()
        };
        assert!(!verify);
    }

    #[test]
    fn derived_output_is_default() {
        let Command::Decompress { output, .. } = parse(&["decompress", "x.lep"]).unwrap() else {
            panic!()
        };
        assert_eq!(output, Output::Derived);
    }

    #[test]
    fn missing_input_is_usage_error() {
        assert!(parse(&["compress"]).is_err());
        assert!(parse(&["decompress"]).is_err());
        assert!(parse(&["verify"]).is_err());
    }

    #[test]
    fn unknown_flags_and_commands_rejected() {
        assert!(parse(&["compress", "a", "--frobnicate"]).is_err());
        assert!(parse(&["transmogrify"]).is_err());
        assert!(parse(&["qualify", "--count", "NaN"]).is_err());
    }

    #[test]
    fn serve_worker_pool_flag() {
        let Command::Serve { workers, .. } =
            parse(&["serve", "--uds", "/tmp/s.sock", "--workers", "6"]).unwrap()
        else {
            panic!()
        };
        assert_eq!(workers, 6);
        // Default is 0: size the pool from the machine.
        let Command::Serve { workers, .. } = parse(&["serve", "--uds", "/tmp/s.sock"]).unwrap()
        else {
            panic!()
        };
        assert_eq!(workers, 0);
    }

    #[test]
    fn fleet_get_hedge_budget_flag() {
        let Command::Fleet(FleetCommand::Get { hedge_ms, .. }) = parse(&[
            "fleet",
            "get",
            "--manifest",
            "/m",
            "--hedge-ms",
            "15",
            "abc",
        ])
        .unwrap() else {
            panic!()
        };
        assert_eq!(hedge_ms, Some(15));
        // Absent by default, and meaningless on writes.
        let Command::Fleet(FleetCommand::Get { hedge_ms, .. }) =
            parse(&["fleet", "get", "--manifest", "/m", "abc"]).unwrap()
        else {
            panic!()
        };
        assert_eq!(hedge_ms, None);
        assert!(parse(&["fleet", "put", "--manifest", "/m", "--hedge-ms", "15", "f"]).is_err());
    }

    #[test]
    fn serve_requires_exactly_one_endpoint() {
        assert!(parse(&["serve"]).is_err());
        assert!(parse(&["serve", "--uds", "/s", "--tcp", "127.0.0.1:1"]).is_err());
        let Command::Serve { max_conns, .. } = parse(&["serve", "--uds", "/tmp/s.sock"]).unwrap()
        else {
            panic!()
        };
        assert_eq!(max_conns, 64);
    }

    #[test]
    fn corpus_requires_out() {
        assert!(parse(&["corpus"]).is_err());
        let Command::Corpus { dirty, count, .. } =
            parse(&["corpus", "--out", "/tmp/c", "--dirty", "--count", "7"]).unwrap()
        else {
            panic!()
        };
        assert!(dirty);
        assert_eq!(count, 7);
    }

    #[test]
    fn store_subcommands_parse() {
        let c = parse(&[
            "store", "put", "--root", "/s", "a.jpg", "b.jpg", "--shards", "4",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Store(StoreCommand::Put {
                root: "/s".into(),
                files: vec!["a.jpg".into(), "b.jpg".into()],
                shards: 4,
                compress: true,
            })
        );
        let c = parse(&["store", "put", "--root", "/s", "a", "--no-compress"]).unwrap();
        let Command::Store(StoreCommand::Put { compress, .. }) = c else {
            panic!()
        };
        assert!(!compress);
        let c = parse(&["store", "get", "--root", "/s", &"ab".repeat(32), "-"]).unwrap();
        let Command::Store(StoreCommand::Get { output, .. }) = c else {
            panic!()
        };
        assert_eq!(output, Output::Stdout);
        let c = parse(&["store", "backfill", "--root", "/s", "--parallelism", "8"]).unwrap();
        assert_eq!(
            c,
            Command::Store(StoreCommand::Backfill {
                root: "/s".into(),
                parallelism: 8,
                shards: DEFAULT_SHARDS,
            })
        );
        assert_eq!(
            parse(&["store", "stat", "--root", "/s"]).unwrap(),
            Command::Store(StoreCommand::Stat {
                root: "/s".into(),
                shards: DEFAULT_SHARDS,
            })
        );
    }

    #[test]
    fn store_scrub_parses() {
        assert_eq!(
            parse(&["store", "scrub", "--root", "/s", "--parallelism", "2"]).unwrap(),
            Command::Store(StoreCommand::Scrub {
                root: "/s".into(),
                parallelism: 2,
                shards: DEFAULT_SHARDS,
                quarantine: false,
            })
        );
        let Command::Store(StoreCommand::Scrub { quarantine, .. }) =
            parse(&["store", "scrub", "--root", "/s", "--quarantine"]).unwrap()
        else {
            panic!()
        };
        assert!(quarantine);
    }

    #[test]
    fn store_recover_parses_dry_run_by_default() {
        assert_eq!(
            parse(&["store", "recover", "--root", "/s"]).unwrap(),
            Command::Store(StoreCommand::Recover {
                root: "/s".into(),
                shards: DEFAULT_SHARDS,
                apply: false,
            })
        );
        assert_eq!(
            parse(&["store", "recover", "--root", "/s", "--shards", "4", "--apply"]).unwrap(),
            Command::Store(StoreCommand::Recover {
                root: "/s".into(),
                shards: 4,
                apply: true,
            })
        );
        assert!(parse(&["store", "recover"]).is_err(), "--root is required");
    }

    #[test]
    fn fleet_subcommands_parse() {
        assert_eq!(
            parse(&["fleet", "serve", "--root", "/f", "--nodes", "5"]).unwrap(),
            Command::Fleet(FleetCommand::Serve {
                root: "/f".into(),
                nodes: 5,
                shards: DEFAULT_SHARDS,
                compress: true,
            })
        );
        assert_eq!(
            parse(&["fleet", "put", "--manifest", "/f/FLEET", "a.jpg", "b.jpg"]).unwrap(),
            Command::Fleet(FleetCommand::Put {
                manifest: "/f/FLEET".into(),
                files: vec!["a.jpg".into(), "b.jpg".into()],
                replicas: DEFAULT_REPLICAS,
            })
        );
        let c = parse(&[
            "fleet",
            "get",
            "--manifest",
            "/f/FLEET",
            &"cd".repeat(32),
            "-",
            "--replicas",
            "3",
        ])
        .unwrap();
        let Command::Fleet(FleetCommand::Get {
            output, replicas, ..
        }) = c
        else {
            panic!()
        };
        assert_eq!(output, Output::Stdout);
        assert_eq!(replicas, 3);
        assert_eq!(
            parse(&["fleet", "stat", "--manifest", "/f/FLEET"]).unwrap(),
            Command::Fleet(FleetCommand::Stat {
                manifest: "/f/FLEET".into(),
                replicas: DEFAULT_REPLICAS,
            })
        );
        assert_eq!(
            parse(&["fleet", "rebalance", "--manifest", "/f/FLEET"]).unwrap(),
            Command::Fleet(FleetCommand::Rebalance {
                manifest: "/f/FLEET".into(),
                replicas: DEFAULT_REPLICAS,
            })
        );
    }

    #[test]
    fn fleet_usage_errors() {
        assert!(parse(&["fleet"]).is_err());
        assert!(parse(&["fleet", "scale-to-the-moon"]).is_err());
        assert!(parse(&["fleet", "serve"]).is_err(), "needs --root");
        assert!(parse(&["fleet", "serve", "--root", "/f", "--nodes", "0"]).is_err());
        assert!(parse(&["fleet", "put", "a.jpg"]).is_err(), "needs manifest");
        assert!(
            parse(&["fleet", "put", "--manifest", "/m"]).is_err(),
            "needs files"
        );
        assert!(parse(&["fleet", "get", "--manifest", "/m"]).is_err());
        assert!(parse(&["fleet", "stat", "--manifest", "/m", "--replicas", "0"]).is_err());
    }

    #[test]
    fn store_usage_errors() {
        assert!(parse(&["store"]).is_err());
        assert!(parse(&["store", "frobnicate", "--root", "/s"]).is_err());
        assert!(
            parse(&["store", "put", "--root", "/s"]).is_err(),
            "needs files"
        );
        assert!(parse(&["store", "put", "a.jpg"]).is_err(), "needs --root");
        assert!(
            parse(&["store", "get", "--root", "/s"]).is_err(),
            "needs digest"
        );
        assert!(parse(&["store", "stat", "--root", "/s", "--shards", "0"]).is_err());
    }

    #[test]
    fn empty_argv_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["--version"]).unwrap(), Command::Version);
    }
}
