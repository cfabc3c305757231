//! `codec_photo`: library calls on `Engine::global()` over 48
//! camera-like baseline JPEGs small enough to be one thread segment.
//!
//! Why: it is the paper's fig7/fig8 population, and nearly all of its
//! time is JPEG scan coding, the model and the arithmetic coder — work
//! on those layers shows here and nowhere cheaper, while the server,
//! storage and fleet layers do nothing.

use super::{Ctx, InputHasher, Outcome, SetupReport, Workload};
use crate::check::same;
use crate::gen::{photo, photo_ladder};
use crate::layers::Layers;
use crate::measure::{AcrossRounds, CallerLog, Class, Limits, CONVERSION_LIMITS};
use lepton_core::{CompressOptions, DecompressOptions, Engine};
use std::time::Instant;

/// Files in the ladder.
const FILES: usize = 48;
/// Smallest and largest target size; the largest stays under the
/// 128 KiB cutoff above which `ThreadPolicy::Auto` splits a file.
const SIZE_RANGE: (usize, usize) = (15_000, 120_000);

/// The workload's state.
pub struct CodecPhoto {
    files: Vec<Vec<u8>>,
    /// Length of each file's JPEG header (SOI..SOS).
    header_lens: Vec<usize>,
    /// Containers from the latest round (`None` where compress failed).
    containers: Vec<Option<Vec<u8>>>,
}

impl Workload for CodecPhoto {
    const NAME: &'static str = "codec_photo";
    const LIMITS: Limits = CONVERSION_LIMITS;
    const ACROSS_ROUNDS: AcrossRounds = AcrossRounds::Median;

    fn setup(ctx: &Ctx, _rep: u32) -> (Self, SetupReport) {
        let t = Instant::now();
        let files: Vec<Vec<u8>> = photo_ladder(FILES, SIZE_RANGE.0, SIZE_RANGE.1)
            .iter()
            .enumerate()
            .map(|(i, spec)| photo(spec, ctx.seed.wrapping_mul(1000).wrapping_add(i as u64)))
            .collect();
        let corpus_gen_s = t.elapsed().as_secs_f64();
        Engine::global(); // spawn the pool as part of set-up
        let header_lens = files.iter().map(|f| super::header_len(f)).collect();
        let containers = vec![None; files.len()];
        (
            CodecPhoto {
                files,
                header_lens,
                containers,
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
        // The request sequence is the file order itself.
        h.sequence(&(0..self.files.len() as u32).collect::<Vec<_>>());
        (h.finish(), self.files.iter().map(|f| f.len() as u64).sum())
    }

    fn round(&mut self, ctx: &Ctx, round: u32, traced: bool) -> Vec<CallerLog> {
        let engine = Engine::global();
        let opts = CompressOptions::default();
        let mut log = CallerLog::new(ctx.spans(0, traced));
        let root = log.spans.open("harness", "round", None, round as u64);

        for (i, file) in self.files.iter().enumerate() {
            let request = (round as u64) << 32 | i as u64;
            let span = log.spans.open("core", "compress", Some(&root), request);
            let t = Instant::now();
            let result = engine.compress(file, &opts);
            let took = t.elapsed();
            log.spans.close(span);
            log.push(Class::Write, round, took, took, file.len(), result.is_ok());
            self.containers[i] = result.ok();
        }

        // Two decode passes: whole-result, then streaming (same work,
        // and the sink sees when the first byte past the verbatim
        // JPEG header — the first decoded byte — arrives).
        for pass in 0..2 {
            for (i, file) in self.files.iter().enumerate() {
                let Some(container) = &self.containers[i] else {
                    continue;
                };
                let request = (round as u64) << 32 | i as u64;
                let span = log.spans.open("core", "decompress", Some(&root), request);
                let t = Instant::now();
                let (out, first) = if pass == 0 {
                    (engine.decompress(container), None)
                } else {
                    let mut out = Vec::with_capacity(file.len());
                    let mut first = None;
                    let r = engine.decompress_streaming(
                        container,
                        &DecompressOptions::default(),
                        &mut |bytes: &[u8]| {
                            out.extend_from_slice(bytes);
                            if out.len() > self.header_lens[i] {
                                first.get_or_insert_with(|| t.elapsed());
                            }
                        },
                    );
                    (r.map(|()| out), first)
                };
                let took = t.elapsed();
                log.spans.close(span);
                let ok = out.is_ok_and(|bytes| same(&bytes, file));
                log.push(
                    Class::Read,
                    round,
                    took,
                    first.unwrap_or(took),
                    file.len(),
                    ok,
                );
            }
        }
        log.spans.close(root);
        vec![log]
    }

    fn finish(&mut self, _ctx: &Ctx) -> Outcome {
        // Every container of the last round was decoded and compared
        // inside the round; only the at-rest accounting is left.
        super::containers_at_rest(&self.files, &self.containers)
    }

    fn layers(&mut self, _ctx: &Ctx, out: &mut Layers) {
        crate::layers::codec_probes(&self.files, out);
    }

    fn teardown(self) {}
}
