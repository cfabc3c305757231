//! `serve_chunk`: the deployed unit (§5.5) — the conversion service
//! over a Unix-domain socket, framed protocol, multi-segment files.
//!
//! Why: the same codec layers as `codec_photo`, used differently —
//! segment-parallel through the engine pool, per-segment model
//! warm-up, the serial Huffman stage as the Amdahl cap — plus wire
//! framing of megabyte bodies. Engine dispatch, a streaming response
//! body (`ttfb_ms`) and the segments-vs-ratio trade (`stored_ratio`)
//! show here; `codec_photo` is its bypass.

use super::{Ctx, InputHasher, Outcome, SetupReport, Workload};
use crate::check::same;
use crate::gen::{photo, PhotoSpec};
use crate::layers::{timed, Layers};
use crate::measure::{AcrossRounds, CallerLog, Class, Limits, CONVERSION_LIMITS};
use crate::probes::{self, IO_TIMEOUT};
use crate::wire::FramedConn;
use lepton_corpus::SceneKind;
use lepton_jpeg::encoder::Subsampling;
use lepton_server::{serve, Endpoint, Op, ServiceConfig, ServiceHandle};
use std::time::Instant;

/// Decompress requests per file per round.
const DECODES: usize = 2;

/// Four files: two that `ThreadPolicy::Auto` splits four ways (512 KiB
/// to 2 MiB) and two it splits eight ways (2 MiB and up).
fn specs() -> [PhotoSpec; 4] {
    let spec = |scene, width, target_bytes, quality, subsampling| PhotoSpec {
        scene,
        width,
        target_bytes,
        quality,
        subsampling,
        restart_interval: 0,
        optimize_tables: false,
        pad_bit: true,
    };
    [
        spec(SceneKind::Landscape, 2048, 680_000, 95, Subsampling::S420),
        spec(SceneKind::TextLike, 1600, 1_250_000, 90, Subsampling::S444),
        spec(SceneKind::Noisy, 2048, 2_300_000, 95, Subsampling::S420),
        spec(SceneKind::TextLike, 2048, 3_000_000, 85, Subsampling::S420),
    ]
}

/// The workload's state.
pub struct ServeChunk {
    files: Vec<Vec<u8>>,
    /// Length of each file's JPEG header (SOI..SOS).
    header_lens: Vec<usize>,
    containers: Vec<Option<Vec<u8>>>,
    handle: ServiceHandle,
    conn: FramedConn,
}

impl Workload for ServeChunk {
    const NAME: &'static str = "serve_chunk";
    const LIMITS: Limits = CONVERSION_LIMITS;
    const ACROSS_ROUNDS: AcrossRounds = AcrossRounds::Quietest;

    fn setup(ctx: &Ctx, rep: u32) -> (Self, SetupReport) {
        let t = Instant::now();
        let files: Vec<Vec<u8>> = specs()
            .iter()
            .enumerate()
            .map(|(i, spec)| photo(spec, ctx.seed.wrapping_mul(1000).wrapping_add(i as u64)))
            .collect();
        let corpus_gen_s = t.elapsed().as_secs_f64();
        let header_lens = files.iter().map(|f| super::header_len(f)).collect();
        let ep = Endpoint::uds(format!("chunk-{rep}.sock"));
        let handle = serve(&ep, ServiceConfig::default()).expect("spawn conversion service");
        let conn = FramedConn::connect(handle.endpoint(), IO_TIMEOUT).expect("connect");
        let containers = vec![None; files.len()];
        (
            ServeChunk {
                files,
                header_lens,
                containers,
                handle,
                conn,
            },
            SetupReport {
                corpus_gen_s,
                ..Default::default()
            },
        )
    }

    fn inputs(&self) -> (String, u64) {
        let mut h = InputHasher::default();
        for f in &self.files {
            h.item(f);
        }
        h.sequence(&(0..self.files.len() as u32).collect::<Vec<_>>());
        (h.finish(), self.files.iter().map(|f| f.len() as u64).sum())
    }

    fn round(&mut self, ctx: &Ctx, round: u32, traced: bool) -> Vec<CallerLog> {
        let mut log = CallerLog::new(ctx.spans(0, traced));
        let root = log.spans.open("harness", "round", None, round as u64);
        for (i, file) in self.files.iter().enumerate() {
            let request = (round as u64) << 32 | i as u64;
            let span = log.spans.open("server", "compress", Some(&root), request);
            let t = Instant::now();
            let reply = self.conn.call(Op::Compress, file, 0);
            let took = t.elapsed();
            log.spans.close(span);
            let container = reply.ok().filter(|r| r.status.is_ok()).map(|r| r.body);
            log.push(
                Class::Write,
                round,
                took,
                took,
                file.len(),
                container.is_some(),
            );
            self.containers[i] = container;

            // The fresh container is decoded — and compared — by the
            // reads that follow it.
            let Some(container) = &self.containers[i] else {
                continue;
            };
            for _ in 0..DECODES {
                let span = log.spans.open("server", "decompress", Some(&root), request);
                let reply = self
                    .conn
                    .call(Op::Decompress, container, self.header_lens[i]);
                log.spans.close(span);
                match reply {
                    Ok(r) => {
                        let ok = r.status.is_ok() && same(&r.body, file);
                        log.push(Class::Read, round, r.total, r.first_byte, file.len(), ok);
                    }
                    Err(_) => log.push(
                        Class::Read,
                        round,
                        IO_TIMEOUT,
                        IO_TIMEOUT,
                        file.len(),
                        false,
                    ),
                }
            }
        }
        log.spans.close(root);
        vec![log]
    }

    fn finish(&mut self, _ctx: &Ctx) -> Outcome {
        super::containers_at_rest(&self.files, &self.containers)
    }

    fn service_us(&self) -> u64 {
        probes::service_us(&self.handle)
    }

    fn layers(&mut self, _ctx: &Ctx, out: &mut Layers) {
        crate::layers::codec_probes(&self.files, out);
        crate::layers::set_segments(self.containers.iter().flatten().map(Vec::as_slice), out);
        probes::server_probes(self.handle.endpoint(), out);
        probes::service_report(std::iter::once(&self.handle), Op::Decompress, out);

        // What the service adds to a conversion: its Decompress round
        // trip minus the same engine call made directly.
        if let Some(container) = &self.containers[0] {
            let rtt = probes::rtt_us(&mut self.conn, Op::Decompress, container, 5);
            let direct: Vec<f64> = (0..5)
                .map(|_| {
                    timed(|| lepton_core::Engine::global().decompress(container))
                        .1
                        .as_secs_f64()
                        * 1e6
                })
                .collect();
            out.set(
                "server.convert_overhead_us",
                (rtt - crate::stats::median(&direct)).max(0.0),
            );
        }
    }

    fn teardown(self) {
        drop(self.conn);
        self.handle.shutdown();
    }
}
