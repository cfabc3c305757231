//! `serve_hot`: a node service with a blockstore whose whole working
//! set sits in the decoded-block cache; read-only zipf traffic.
//!
//! Why: every read is a cache hit, so the codec is idle and the time
//! is frame parse, job queue, cache copy and socket copy. The
//! prediction for any codec optimisation is *no change* here, and
//! protocol work (collapsing the wire modes, chunked bodies) must not
//! slow it. 8 KB and 1 MiB blocks are both present, so per-frame cost
//! (the median) and per-byte cost (the tail) separate.

use super::{Ctx, InputHasher, Outcome, SetupReport, Workload};
use crate::check::same;
use crate::countvfs::VfsSnapshot;
use crate::gen::{photo, photo_ladder, Rng, Zipf};
use crate::layers::Layers;
use crate::measure::{AcrossRounds, CallerLog, Class, Limits, BLOCK_LIMITS};
use crate::probes::{self, IO_TIMEOUT};
use crate::wire::FramedConn;
use lepton_server::{serve, Endpoint, Op, ServiceConfig, ServiceHandle};
use lepton_storage::blockstore::{ShardedStore, StoreConfig};
use std::sync::Arc;
use std::time::Instant;

/// Block sizes by popularity rank, repeated [`STRATA`] times: every
/// popularity band carries the same size mix, so which bytes are hot
/// is fixed by design, not by the seed. The 8 KB and 32 KB blocks are
/// JPEGs (stored recompressed); the larger ones are opaque data
/// (stored raw), as a store's non-photo blocks are — which also keeps
/// the preload, and so set-up, short.
const PATTERN: [usize; 27] = [
    K8, K32, K8, K96, K8, K32, K8, K32, K512, K8, K32, K8, K96, K8, K32, K8, K32, K512, K8, K96,
    K8, K32, K8, K32, K8, K96, M1,
];
const K8: usize = 8 << 10;
const K32: usize = 32 << 10;
const K96: usize = 96 << 10;
const K512: usize = 512 << 10;
const M1: usize = 1 << 20;
/// Repetitions of [`PATTERN`]: 54 blocks, about 5.7 MB — far inside
/// the store's default 64 MiB cache (4 MiB per shard).
const STRATA: usize = 2;
/// Requests per caller per round.
const OPS_PER_ROUND: usize = 6000;
/// One request in twenty is a `Ping`.
const PING_EVERY: usize = 20;
/// Marker for a ping in the request sequence.
const PING: u32 = u32::MAX;

/// The workload's state.
pub struct ServeHot {
    blocks: Vec<Vec<u8>>,
    keys: Vec<[u8; 32]>,
    /// One request sequence per caller.
    sequences: Vec<Vec<u32>>,
    store: Arc<ShardedStore>,
    handle: ServiceHandle,
    conns: Vec<FramedConn>,
    vfs_base: VfsSnapshot,
    /// Cache counters after priming: (hits, misses).
    cache_base: (u64, u64),
}

fn block(size: usize, index: usize, seed: u64) -> Vec<u8> {
    let item_seed = seed.wrapping_mul(1000).wrapping_add(index as u64);
    if size > K32 {
        return Rng::new(item_seed, 0xB10C).bytes(size);
    }
    // One ladder step per block: walks the settings cycle by index.
    let spec = photo_ladder(PATTERN.len() * STRATA, size, size)[index];
    photo(&spec, item_seed)
}

impl Workload for ServeHot {
    const NAME: &'static str = "serve_hot";
    const LIMITS: Limits = BLOCK_LIMITS;
    const ACROSS_ROUNDS: AcrossRounds = AcrossRounds::Median;

    fn setup(ctx: &Ctx, rep: u32) -> (Self, SetupReport) {
        let mut report = SetupReport::default();
        let t = Instant::now();
        let blocks: Vec<Vec<u8>> = (0..PATTERN.len() * STRATA)
            .map(|i| block(PATTERN[i % PATTERN.len()], i, ctx.seed))
            .collect();
        report.corpus_gen_s = t.elapsed().as_secs_f64();

        let zipf = Zipf::new(blocks.len(), 1.0);
        let sequences: Vec<Vec<u32>> = (0..ctx.clients)
            .map(|caller| {
                let mut rng = Rng::new(ctx.seed, 0x5E0 + caller as u64);
                (0..OPS_PER_ROUND)
                    .map(|i| {
                        if i % PING_EVERY == PING_EVERY - 1 {
                            PING
                        } else {
                            zipf.sample(&mut rng) as u32
                        }
                    })
                    .collect()
            })
            .collect();

        let store = Arc::new(
            ShardedStore::open_on(
                Arc::clone(&ctx.vfs),
                format!("hot-store-{rep}"),
                StoreConfig::default(),
            )
            .expect("open blockstore"),
        );
        let vfs_base = ctx.vfs_counters.snapshot();
        let ep = Endpoint::uds(format!("hot-{rep}.sock"));
        let handle = serve(
            &ep,
            ServiceConfig {
                blockstore: Some(Arc::clone(&store)),
                ..ServiceConfig::default()
            },
        )
        .expect("spawn node service");
        let mut conns: Vec<FramedConn> = (0..ctx.clients)
            .map(|_| FramedConn::connect(handle.endpoint(), IO_TIMEOUT).expect("connect"))
            .collect();

        // Preload over the wire, then read every block once so the
        // cache holds the whole set — and every stored block is checked.
        let mut keys = Vec::with_capacity(blocks.len());
        for b in &blocks {
            let reply = conns[0].call(Op::BlockPut, b, 0).expect("preload put");
            let ok = reply.status.is_ok() && reply.body.len() == 32;
            report.attempted += 1;
            report.failed += u64::from(!ok);
            let mut key = [0u8; 32];
            if ok {
                key.copy_from_slice(&reply.body);
            }
            keys.push(key);
        }
        for (b, key) in blocks.iter().zip(&keys) {
            let reply = conns[0].call(Op::BlockGet, key, 0).expect("prime get");
            report.attempted += 1;
            report.failed += u64::from(!(reply.status.is_ok() && same(&reply.body, b)));
        }
        let cache_base = (
            store.metrics.cache_hits.get(),
            store.metrics.cache_misses.get(),
        );
        (
            ServeHot {
                blocks,
                keys,
                sequences,
                store,
                handle,
                conns,
                vfs_base,
                cache_base,
            },
            report,
        )
    }

    fn inputs(&self) -> (String, u64) {
        let mut h = InputHasher::default();
        for b in &self.blocks {
            h.item(b);
        }
        for s in &self.sequences {
            h.sequence(s);
        }
        (h.finish(), self.blocks.iter().map(|b| b.len() as u64).sum())
    }

    fn round(&mut self, ctx: &Ctx, round: u32, traced: bool) -> Vec<CallerLog> {
        let (blocks, keys) = (&self.blocks, &self.keys);
        std::thread::scope(|scope| {
            let callers: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&self.sequences)
                .enumerate()
                .map(|(caller, (conn, sequence))| {
                    let mut log = CallerLog::new(ctx.spans(caller, traced));
                    scope.spawn(move || {
                        let root = log.spans.open("harness", "round", None, round as u64);
                        for (i, &op) in sequence.iter().enumerate() {
                            let request = (round as u64) << 32 | i as u64;
                            let (wire_op, payload, class, name): (_, &[u8], _, _) = if op == PING {
                                (Op::Ping, &[], Class::Other, "ping")
                            } else {
                                (Op::BlockGet, &keys[op as usize], Class::Read, "block_get")
                            };
                            let span = log.spans.open("server", name, Some(&root), request);
                            let reply = conn.call(wire_op, payload, 0);
                            log.spans.close(span);
                            let want: &[u8] = if op == PING {
                                &[]
                            } else {
                                &blocks[op as usize]
                            };
                            match reply {
                                Ok(r) => {
                                    let ok = r.status.is_ok() && same(&r.body, want);
                                    log.push(class, round, r.total, r.first_byte, want.len(), ok);
                                }
                                Err(_) => log.push(
                                    class,
                                    round,
                                    IO_TIMEOUT,
                                    IO_TIMEOUT,
                                    want.len(),
                                    false,
                                ),
                            }
                        }
                        log.spans.close(root);
                        log
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().expect("caller thread"))
                .collect()
        })
    }

    fn finish(&mut self, _ctx: &Ctx) -> Outcome {
        // Every stored block was read back and compared while priming
        // and again on every timed get; what is left is the at-rest
        // accounting.
        let stat = self.store.stat().expect("stat blockstore");
        Outcome {
            stored_bytes: stat.stored_bytes,
            original_bytes: stat.logical_bytes,
            ..Default::default()
        }
    }

    fn service_us(&self) -> u64 {
        probes::service_us(&self.handle)
    }

    fn layers(&mut self, ctx: &Ctx, out: &mut Layers) {
        let jpegs: Vec<Vec<u8>> = self
            .blocks
            .iter()
            .filter(|b| b.len() < K96)
            .cloned()
            .collect();
        crate::layers::codec_probes(&jpegs, out);

        let m = &self.store.metrics;
        let hits = m.cache_hits.get() - self.cache_base.0;
        let misses = m.cache_misses.get() - self.cache_base.1;
        out.set(
            "storage.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let stat = self.store.stat().expect("stat blockstore");
        probes::vfs_report(
            &self.vfs_base,
            &ctx.vfs_counters.snapshot(),
            m.lepton_blocks.get() + m.raw_blocks.get(),
            stat.logical_bytes,
            stat.stored_bytes,
            out,
        );
        let sample: Vec<&[u8]> = self
            .blocks
            .iter()
            .step_by(7)
            .take(12)
            .map(Vec::as_slice)
            .collect();
        probes::storage_probes(&sample, out);

        probes::server_probes(self.handle.endpoint(), out);
        probes::service_report(std::iter::once(&self.handle), Op::BlockGet, out);
        let conn = &mut self.conns[0];
        let small = self.blocks.iter().position(|b| b.len() <= K8 + 1024);
        let large = self.blocks.iter().position(|b| b.len() == M1);
        if let (Some(small), Some(large)) = (small, large) {
            let small_rtt = probes::rtt_us(conn, Op::BlockGet, &self.keys[small], 1000);
            let large_rtt = probes::rtt_us(conn, Op::BlockGet, &self.keys[large], 200);
            out.set("server.get_small_rtt_us", small_rtt);
            out.set("server.get_large_rtt_us", large_rtt);
            out.set(
                "server.wire_ns_per_byte",
                (large_rtt - small_rtt).max(0.0) * 1e3
                    / (self.blocks[large].len() - self.blocks[small].len()) as f64,
            );
        }
    }

    fn teardown(self) {
        drop(self.conns);
        self.handle.shutdown();
        let root = self.store.root().to_path_buf();
        drop(self.store);
        let _ = std::fs::remove_dir_all(root);
    }
}
