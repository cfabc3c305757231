//! Host tag for benchmark records: which vector ISA the CPU reports and
//! how many cores it has.
//!
//! Nothing in the codec dispatches on this. The paper's deployed Lepton
//! leaned on hand-written SSE (§8); this port measured its own SSE2/AVX2
//! kernels equal to the scalar code end to end and deleted them, so the
//! scalar code is the only code. What is left here is the `simd` /
//! `cores` host-shape stamp that `lepbench` and `lepton_bench::json` put
//! on every record, kept as a crate because `benchmark/compare.py`
//! refuses a comparison whose host shape differs from the parent's. The
//! level is hardware detection only — no override, no environment
//! variable. A later `benchmark` change can inline the tag into
//! `lepbench/src/host.rs` and delete this crate.

/// The widest vector instruction set the host CPU reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// No x86 vector ISA (the non-x86 answer).
    Scalar = 0,
    /// 128-bit SSE2 (baseline on every `x86_64`).
    Sse2 = 1,
    /// 256-bit AVX2 (runtime-detected).
    Avx2 = 2,
}

impl SimdLevel {
    /// Stable lowercase name, used in bench JSON and docs.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The host's level, from hardware detection alone.
pub fn level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline ABI; no check needed.
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    SimdLevel::Scalar
}

/// Stable lowercase name of [`level`] ("scalar" / "sse2" / "avx2").
pub fn level_str() -> &'static str {
    level().as_str()
}

/// Detected logical core count of the host (1 when unknown). Bench
/// records carry this so cross-machine comparisons can be skipped
/// honestly instead of mis-read as regressions.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_are_stable() {
        assert_eq!(SimdLevel::Scalar.as_str(), "scalar");
        assert_eq!(SimdLevel::Sse2.as_str(), "sse2");
        assert_eq!(SimdLevel::Avx2.as_str(), "avx2");
    }

    #[test]
    fn host_cores_is_positive() {
        assert!(host_cores() >= 1);
    }
}
