//! `fleet_mixed`: a gateway over a three-node replicated fleet on the
//! real filesystem, node caches far smaller than the working set,
//! reads beside unique writes.
//!
//! Why: the only workload with every layer on the path, and the only
//! one where writes (hash + encode + verify + two fsyncs, on each of
//! two replicas) run beside reads — so a gain for one that costs the
//! other (a bigger cache against memory, fsync batching against the
//! read tail, serial replication) is visible.

use super::{Ctx, InputHasher, Outcome, SetupReport, Workload};
use crate::check::served;
use crate::countvfs::VfsSnapshot;
use crate::gen::{photo, with_unique_trailer, PhotoSpec, Rng, Zipf};
use crate::layers::{timed, Layers};
use crate::measure::{AcrossRounds, CallerLog, Class, Limits, BLOCK_LIMITS};
use crate::probes;
use crate::stats::median;
use lepton_fleet::{FleetConfig, FleetGateway, LocalFleet};
use lepton_server::{Op, ServiceConfig};
use lepton_storage::blockstore::StoreConfig;
use lepton_storage::sha256::Digest;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Catalog blocks, by popularity rank.
const CATALOG: usize = 48;
/// Nodes and their per-node cache. With the store's 16 shards a shard
/// caches at most 32 KiB: odd-ranked blocks (12 KB thumbnails) are
/// cacheable, even-ranked ones (36 KB photos) — the most popular block
/// among them — never are. The hit ratio therefore sits well under one
/// half and the cache still churns.
///
/// All photos share one spec and all thumbnails another, so blocks of
/// a class cost the same to code whatever the seed; the photos carry
/// 57 % of the zipf mass and every put writes a photo. The median read
/// and the median write therefore land inside a tight cluster — a
/// 36 KB decode, a replicated 36 KB encode — instead of on the gap
/// between two clusters, where a seed's hit ratio would move them.
/// (Content diversity is `codec_photo`'s job; this workload is about
/// the layers around the codec.)
const NODES: usize = 3;
const CACHE_BYTES: usize = 512 << 10;
const PHOTO_BYTES: usize = 36_000;
const THUMBNAIL_BYTES: usize = 12_000;

fn spec(target_bytes: usize) -> PhotoSpec {
    PhotoSpec {
        scene: lepton_corpus::SceneKind::Landscape,
        width: 1024,
        target_bytes,
        quality: 85,
        subsampling: lepton_jpeg::encoder::Subsampling::S420,
        restart_interval: 0,
        optimize_tables: false,
        pad_bit: true,
    }
}

/// Requests per caller per round; 15 % are puts of a unique variant
/// of a photo, taken round-robin so every seed writes the same set.
const OPS_PER_ROUND: usize = 208;
const PUT_PERCENT: usize = 15;
/// High bit marks a put of (a unique variant of) the catalog block in
/// the low bits.
const PUT: u32 = 1 << 31;

/// A unique block written during a round, kept for the final check.
struct Written {
    key: Digest,
    base: u32,
    serial: u64,
}

/// The workload's state.
pub struct FleetMixed {
    catalog: Vec<Vec<u8>>,
    keys: Vec<Digest>,
    sequences: Vec<Vec<u32>>,
    fleet: LocalFleet,
    /// The fleet's directory, removed at teardown.
    root: PathBuf,
    gateway: FleetGateway,
    written: Vec<Written>,
    vfs_base: VfsSnapshot,
    cache_base: (u64, u64),
    /// At-rest `(stored, logical)` bytes of the preloaded catalog: the
    /// rounds add a run-length-dependent number of unique blocks, which
    /// would make the ratio depend on how fast the host is.
    catalog_at_rest: (u64, u64),
    seed: u64,
}

impl FleetMixed {
    fn cache_counters(&self) -> (u64, u64) {
        (0..NODES).fold((0, 0), |(h, m), i| {
            let metrics = &self.fleet.store(i).metrics;
            (h + metrics.cache_hits.get(), m + metrics.cache_misses.get())
        })
    }

    /// The unique variant of catalog block `base` with serial `serial`.
    fn unique(&self, base: u32, serial: u64) -> Vec<u8> {
        with_unique_trailer(&self.catalog[base as usize], self.seed, serial)
    }
}

impl Workload for FleetMixed {
    const NAME: &'static str = "fleet_mixed";
    const LIMITS: Limits = BLOCK_LIMITS;
    const ACROSS_ROUNDS: AcrossRounds = AcrossRounds::Quietest;

    fn setup(ctx: &Ctx, rep: u32) -> (Self, SetupReport) {
        let mut report = SetupReport::default();
        let t = Instant::now();
        let catalog: Vec<Vec<u8>> = (0..CATALOG)
            .map(|rank| {
                let bytes = if rank % 2 == 0 {
                    PHOTO_BYTES
                } else {
                    THUMBNAIL_BYTES
                };
                photo(
                    &spec(bytes),
                    ctx.seed.wrapping_mul(1000).wrapping_add(rank as u64),
                )
            })
            .collect();
        report.corpus_gen_s = t.elapsed().as_secs_f64();

        let zipf = Zipf::new(CATALOG, 1.0);
        let sequences: Vec<Vec<u32>> = (0..ctx.clients)
            .map(|caller| {
                let mut rng = Rng::new(ctx.seed, 0xF1E + caller as u64);
                // Exactly 15 % puts (a put costs several gets, so their
                // count must not drift with the seed), each of the next
                // photo in turn; then shuffle.
                let puts = OPS_PER_ROUND * PUT_PERCENT / 100;
                let mut ops: Vec<u32> = (0..OPS_PER_ROUND)
                    .map(|i| {
                        if i < puts {
                            PUT | (2 * ((i + caller * puts) % (CATALOG / 2))) as u32
                        } else {
                            zipf.sample(&mut rng) as u32
                        }
                    })
                    .collect();
                for i in (1..ops.len()).rev() {
                    ops.swap(i, rng.below(i + 1));
                }
                ops
            })
            .collect();

        let root = PathBuf::from(format!("fleet-{rep}"));
        let fleet = LocalFleet::spawn_on(
            &root,
            NODES,
            &StoreConfig {
                cache_bytes: CACHE_BYTES,
                ..StoreConfig::default()
            },
            &ServiceConfig::default(),
            |_| Arc::clone(&ctx.vfs),
        )
        .expect("spawn fleet");
        let vfs_base = ctx.vfs_counters.snapshot();
        let gateway = FleetGateway::new(fleet.members().to_vec(), FleetConfig::default());

        // Preload the catalog through the gateway, one slice per
        // caller (every block is read back and compared in `finish`).
        let keys: Vec<Digest> = std::thread::scope(|scope| {
            let slices: Vec<_> = catalog
                .chunks(CATALOG.div_ceil(ctx.clients))
                .map(|slice| {
                    let gateway = &gateway;
                    scope.spawn(move || {
                        slice
                            .iter()
                            .map(|b| gateway.put(b).ok())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            slices
                .into_iter()
                .flat_map(|s| s.join().expect("preload thread"))
                .map(|k| {
                    report.attempted += 1;
                    report.failed += u64::from(k.is_none());
                    k.unwrap_or_default()
                })
                .collect()
        });

        let mut w = FleetMixed {
            catalog,
            keys,
            sequences,
            fleet,
            root,
            gateway,
            written: Vec::new(),
            vfs_base,
            cache_base: (0, 0),
            catalog_at_rest: (0, 0),
            seed: ctx.seed,
        };
        w.cache_base = w.cache_counters();
        let stat = w.gateway.stat();
        w.catalog_at_rest = (stat.stored_bytes, stat.logical_bytes);
        (w, report)
    }

    fn inputs(&self) -> (String, u64) {
        let mut h = InputHasher::default();
        for b in &self.catalog {
            h.item(b);
        }
        for s in &self.sequences {
            h.sequence(s);
        }
        (
            h.finish(),
            self.catalog.iter().map(|b| b.len() as u64).sum(),
        )
    }

    fn round(&mut self, ctx: &Ctx, round: u32, traced: bool) -> Vec<CallerLog> {
        let this = &*self;
        let results: Vec<(CallerLog, Vec<Written>)> = std::thread::scope(|scope| {
            let callers: Vec<_> = this
                .sequences
                .iter()
                .enumerate()
                .map(|(caller, sequence)| {
                    let mut log = CallerLog::new(ctx.spans(caller, traced));
                    scope.spawn(move || {
                        let mut written = Vec::new();
                        let root = log.spans.open("harness", "round", None, round as u64);
                        for (i, &op) in sequence.iter().enumerate() {
                            let request = (round as u64) << 32 | i as u64;
                            if op & PUT != 0 {
                                let base = op & !PUT;
                                let serial = (round as u64) << 24 | (i as u64) << 4 | caller as u64;
                                let block = this.unique(base, serial);
                                let span = log.spans.open("fleet", "put", Some(&root), request);
                                let (result, took) = timed(|| this.gateway.put(&block));
                                log.spans.close(span);
                                log.push(
                                    Class::Write,
                                    round,
                                    took,
                                    took,
                                    block.len(),
                                    result.is_ok(),
                                );
                                if let Ok(key) = result {
                                    written.push(Written { key, base, serial });
                                }
                            } else {
                                let want = &this.catalog[op as usize];
                                let span = log.spans.open("fleet", "get", Some(&root), request);
                                let (result, took) =
                                    timed(|| this.gateway.get(&this.keys[op as usize]));
                                log.spans.close(span);
                                let ok = served(&result, want);
                                log.push(Class::Read, round, took, took, want.len(), ok);
                            }
                        }
                        log.spans.close(root);
                        (log, written)
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().expect("caller thread"))
                .collect()
        });
        let mut logs = Vec::with_capacity(results.len());
        for (log, written) in results {
            logs.push(log);
            self.written.extend(written);
        }
        logs
    }

    fn finish(&mut self, _ctx: &Ctx) -> Outcome {
        // Decode every stored block once — the preloaded catalog and
        // each unique block the rounds wrote — and compare it.
        let mut checks: Vec<(Digest, Vec<u8>)> = self
            .keys
            .iter()
            .copied()
            .zip(self.catalog.iter().cloned())
            .collect();
        checks.extend(
            self.written
                .iter()
                .map(|w| (w.key, self.unique(w.base, w.serial))),
        );
        let gateway = &self.gateway;
        let failed: u64 = std::thread::scope(|scope| {
            let halves: Vec<_> = checks
                .chunks(checks.len().div_ceil(2).max(1))
                .map(|half| {
                    scope.spawn(move || {
                        half.iter()
                            .filter(|(key, want)| !served(&gateway.get(key), want))
                            .count() as u64
                    })
                })
                .collect();
            halves
                .into_iter()
                .map(|h| h.join().expect("check thread"))
                .sum()
        });
        let mut out = Outcome {
            attempted: checks.len() as u64,
            failed,
            ..Default::default()
        };
        (out.stored_bytes, out.original_bytes) = self.catalog_at_rest;
        let m = &self.gateway.metrics;
        for (name, counter) in [
            ("failovers", &m.failovers),
            ("partial_writes", &m.partial_writes),
            ("read_repairs", &m.read_repairs),
            ("ejections", &m.ejections),
        ] {
            if counter.get() != 0 {
                out.invalid
                    .push(format!("fleet.{name} = {} (must be 0)", counter.get()));
            }
        }
        out
    }

    fn service_us(&self) -> u64 {
        (0..NODES)
            .filter_map(|i| self.fleet.handle(i))
            .map(probes::service_us)
            .sum()
    }

    fn layers(&mut self, ctx: &Ctx, out: &mut Layers) {
        crate::layers::codec_probes(&self.catalog, out);

        let (hits, misses) = self.cache_counters();
        let (hits, misses) = (hits - self.cache_base.0, misses - self.cache_base.1);
        out.set(
            "storage.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let records: u64 = (0..NODES)
            .map(|i| {
                let m = &self.fleet.store(i).metrics;
                m.lepton_blocks.get() + m.raw_blocks.get()
            })
            .sum();
        let stat = self.gateway.stat();
        probes::vfs_report(
            &self.vfs_base,
            &ctx.vfs_counters.snapshot(),
            records,
            stat.logical_bytes,
            stat.stored_bytes,
            out,
        );
        let sample: Vec<&[u8]> = self.catalog.iter().step_by(8).map(Vec::as_slice).collect();
        probes::storage_probes(&sample, out);

        let ep = self.fleet.members()[0].1.clone();
        probes::server_probes(&ep, out);
        probes::service_report(
            (0..NODES).filter_map(|i| self.fleet.handle(i)),
            Op::BlockGet,
            out,
        );

        // The gateway hop: a gateway read minus the same read made
        // straight at the primary; a replicated put over a one-node
        // put; a ring lookup.
        let gw = &self.gateway;
        let hop: Vec<f64> = self
            .keys
            .iter()
            .step_by(4)
            .map(|key| {
                let primary = gw.replica_set(key)[0];
                let direct = timed(|| gw.fetch_from(primary, key)).1;
                let via = timed(|| gw.get(key)).1;
                (via.as_secs_f64() - direct.as_secs_f64()) * 1e6
            })
            .collect();
        out.set("fleet.get_hop_us", median(&hop).max(0.0));
        let factor: Vec<f64> = (0..8u64)
            .map(|i| {
                let replicated = self.unique(i as u32, u64::MAX - i);
                let single = self.unique(i as u32, u64::MAX / 2 - i);
                let both = timed(|| gw.put(&replicated)).1;
                let one = timed(|| gw.put_to(0, &single)).1;
                both.as_secs_f64() / one.as_secs_f64()
            })
            .collect();
        out.set("fleet.put_replica_factor", median(&factor));
        let lookups = 100_000;
        let (_, d) = timed(|| {
            for i in 0..lookups {
                std::hint::black_box(gw.replica_set(&self.keys[i % self.keys.len()]));
            }
        });
        out.set("fleet.ring_lookup_ns", d.as_nanos() as f64 / lookups as f64);
        let m = &gw.metrics;
        out.set("fleet.failovers", m.failovers.get() as f64);
        out.set("fleet.partial_writes", m.partial_writes.get() as f64);
        out.set("fleet.read_repairs", m.read_repairs.get() as f64);
        out.set("fleet.ejections", m.ejections.get() as f64);
    }

    fn teardown(mut self) {
        for i in 0..NODES {
            self.fleet.kill(i);
        }
        drop(self.gateway);
        drop(self.fleet);
        let _ = std::fs::remove_dir_all(self.root);
    }
}
