//! The outside-in time budget: where the traced rounds' caller time
//! went, layer by layer.
//!
//! The outer levels come from the benchmark's own spans (harness →
//! the call into `core`, `server` or `fleet`). Below a call the
//! benchmark cannot place spans without editing the program, so the
//! inner levels come from clocks the program already exports, read
//! before and after every traced round: per-op service time from each
//! service's registry, per-job and per-stage codec time from the
//! global registry, and filesystem time from the counting `Vfs`. A
//! layer's self time is its own total minus what the layers below it
//! report.

use crate::layers::Layers;
use crate::trace::{self_time_by_layer, Span};
use lepton_obs::Registry;

/// Stages the codec marks, by the layer that owns most of each.
const JPEG_STAGES: [&str; 2] = ["header_parse", "scan_decode"];
const MODEL_STAGES: [&str; 3] = ["arith_encode", "arith_decode", "verify"];
const STORE_STAGE: &str = "store";
const JOBS: [&str; 3] = ["compress", "decompress", "block_put"];

fn hist_sum_us(name: &str) -> u64 {
    Registry::global().histogram(name).sum()
}

/// The program's exported clocks at one instant (microseconds, except
/// the filesystem snapshot).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProgramClock {
    jpeg_us: u64,
    model_us: u64,
    store_stage_us: u64,
    /// compress + decompress + block_put job wall.
    job_us: u64,
    /// Server-side op service time over every service of the workload.
    service_us: u64,
    /// Nanoseconds the counting `Vfs` spent opening and reading.
    vfs_read_ns: u64,
}

impl ProgramClock {
    /// Read every clock; `service_us` and `vfs_read_ns` are the
    /// workload's.
    pub fn read(service_us: u64, vfs_read_ns: u64) -> ProgramClock {
        let stages = |names: &[&str]| -> u64 {
            names
                .iter()
                .map(|s| hist_sum_us(&format!("trace.stage.{s}_us")))
                .sum()
        };
        ProgramClock {
            jpeg_us: stages(&JPEG_STAGES),
            model_us: stages(&MODEL_STAGES),
            store_stage_us: stages(&[STORE_STAGE]),
            job_us: JOBS
                .iter()
                .map(|j| hist_sum_us(&format!("trace.job.{j}_us")))
                .sum(),
            service_us,
            vfs_read_ns,
        }
    }

    /// Add `later − earlier` into `self`.
    pub fn accumulate(&mut self, earlier: &ProgramClock, later: &ProgramClock) {
        self.jpeg_us += later.jpeg_us - earlier.jpeg_us;
        self.model_us += later.model_us - earlier.model_us;
        self.store_stage_us += later.store_stage_us - earlier.store_stage_us;
        self.job_us += later.job_us - earlier.job_us;
        self.service_us += later.service_us - earlier.service_us;
        self.vfs_read_ns += later.vfs_read_ns - earlier.vfs_read_ns;
    }
}

/// Self time per layer in nanoseconds, from outer spans and inner
/// clocks. Pure arithmetic, so it is unit-tested.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Budget {
    /// Caller time the traced rounds covered.
    pub total: f64,
    /// Loop overhead and the byte check between calls.
    pub harness: f64,
    /// Gateway: placement, connection set-up, replication, wire.
    pub fleet: f64,
    /// Service: framing, queueing, cache copy, socket copy.
    pub server: f64,
    /// Store: record I/O and fsyncs.
    pub storage: f64,
    /// jpeg + model + arith + core.
    pub codec: f64,
}

impl Budget {
    /// Split `outer` (self time of the harness and of the calls into
    /// `core`, `server`, `fleet`, in ns) using the inner clocks.
    pub fn split(
        total: f64,
        harness: f64,
        core_calls: f64,
        server_calls: f64,
        fleet_calls: f64,
        inner: &ProgramClock,
    ) -> Budget {
        let service = inner.service_us as f64 * 1e3;
        let storage_inner = inner.store_stage_us as f64 * 1e3 + inner.vfs_read_ns as f64;
        // Codec time inside service ops: job wall minus the store leg
        // that block_put jobs include.
        let codec_inner = (inner.job_us as f64 * 1e3 - inner.store_stage_us as f64 * 1e3).max(0.0);
        let behind_a_service = server_calls > 0.0 || fleet_calls > 0.0;
        let (fleet, service_total) = if fleet_calls > 0.0 {
            ((fleet_calls - service).max(0.0), service.min(fleet_calls))
        } else {
            (0.0, server_calls)
        };
        let (codec_in_service, storage) = if behind_a_service {
            (codec_inner, storage_inner)
        } else {
            (0.0, 0.0)
        };
        Budget {
            total,
            harness,
            fleet,
            server: (service_total - codec_in_service - storage).max(0.0),
            storage,
            codec: core_calls + codec_in_service,
        }
    }

    /// Sum of every layer's self time. The residual of each call span
    /// goes to the layer that owns the span, so this equals `total`
    /// unless an inner clock overran its outer span and was clamped.
    #[cfg(test)]
    fn layers_sum(&self) -> f64 {
        self.harness + self.fleet + self.server + self.storage + self.codec
    }
}

/// Compute the budget from the traced rounds' spans and clock deltas
/// and write the `trace.self_*` metrics.
pub fn report(spans: &[Span], inner: &ProgramClock, out: &mut Layers) {
    let selfs = self_time_by_layer(spans);
    let of = |layer: &str| selfs.get(layer).copied().unwrap_or(0) as f64;
    let total: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum();
    if total == 0.0 {
        return;
    }
    let b = Budget::split(
        total,
        of("harness"),
        of("core"),
        of("server"),
        of("fleet"),
        inner,
    );
    let pct = |v: f64| 100.0 * v / total;
    out.set("trace.self_harness_pct", pct(b.harness));
    out.set("trace.self_fleet_pct", pct(b.fleet));
    out.set("trace.self_server_pct", pct(b.server));
    out.set("trace.self_storage_pct", pct(b.storage));
    out.set("trace.self_codec_pct", pct(b.codec));

    // Within the codec, split by the program's own stage marks.
    let codec_us = (inner.job_us - inner.store_stage_us.min(inner.job_us)) as f64;
    if codec_us > 0.0 {
        let jpeg = inner.jpeg_us as f64 / codec_us;
        let model = inner.model_us as f64 / codec_us;
        out.set("trace.self_jpeg_pct", pct(b.codec) * jpeg.min(1.0));
        out.set("trace.self_model_pct", pct(b.codec) * model.min(1.0));
        out.set(
            "trace.self_core_pct",
            pct(b.codec) * (1.0 - jpeg - model).max(0.0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_codec_calls_are_all_codec() {
        let inner = ProgramClock {
            job_us: 900,
            ..Default::default()
        };
        let b = Budget::split(1_000_000.0, 100_000.0, 900_000.0, 0.0, 0.0, &inner);
        assert_eq!(b.codec, 900_000.0);
        assert_eq!((b.server, b.storage, b.fleet), (0.0, 0.0, 0.0));
        assert_eq!(b.layers_sum(), b.total);
    }

    #[test]
    fn service_time_is_split_below_the_fleet_hop() {
        // 1 ms of gateway calls; nodes report 700 µs of service time,
        // of which 300 µs codec jobs + 100 µs store stage (inside a
        // block_put job, so job wall is 400) + 50 µs of reads.
        let inner = ProgramClock {
            service_us: 700,
            job_us: 400,
            store_stage_us: 100,
            vfs_read_ns: 50_000,
            ..Default::default()
        };
        let b = Budget::split(1_200_000.0, 200_000.0, 0.0, 0.0, 1_000_000.0, &inner);
        assert_eq!(b.fleet, 300_000.0);
        assert_eq!(b.codec, 300_000.0);
        assert_eq!(b.storage, 150_000.0);
        assert_eq!(b.server, 700_000.0 - 300_000.0 - 150_000.0);
        assert_eq!(b.layers_sum(), b.total);
    }
}
