//! Resource policy: the library-level analogue of the deployment's
//! SECCOMP discipline (§5.1).
//!
//! The production system enters a syscall-filtered mode (read/write/
//! exit/sigreturn only) after pre-allocating a fixed 200-MiB arena and
//! pre-spawning threads, so untrusted input can never cause allocation,
//! file access, or process control. A library cannot install seccomp
//! filters for its host process, so this module enforces the observable
//! half of the contract and documents the substitution (see DESIGN.md):
//!
//! * all sizing decisions are made from the *header* before coefficient
//!   data is touched, against explicit budgets ([`ResourceBudget`]);
//! * worker threads perform no I/O and no budget-exceeding allocation;
//! * input bytes are only ever *read* — nothing about the process
//!   environment changes based on payload content.

/// Explicit byte budgets, defaulting to the paper's deployed limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Decode-side budget (paper: 24 MiB per thread segment, §4.2).
    pub decode_bytes: usize,
    /// Encode-side budget (paper: 178 MiB, §6.2).
    pub encode_bytes: usize,
    /// Upfront arena the production binary zeroes before reading input
    /// (§5.1: 200 MiB).
    pub arena_bytes: usize,
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget {
            decode_bytes: 24 << 20,
            encode_bytes: 178 << 20,
            arena_bytes: 200 << 20,
        }
    }
}

impl ResourceBudget {
    /// Would an encode-side working set of `bytes` fit?
    pub fn admits_encode(&self, bytes: usize) -> bool {
        bytes <= self.encode_bytes
    }

    /// Would a decode-side working set of `bytes` fit?
    pub fn admits_decode(&self, bytes: usize) -> bool {
        bytes <= self.decode_bytes
    }

    /// Open a metered decode job against this budget.
    pub fn decode_meter(&self) -> JobMeter {
        JobMeter::new(BudgetStage::Decode, self.decode_bytes)
    }

    /// Open a metered encode job against this budget.
    pub fn encode_meter(&self) -> JobMeter {
        JobMeter::new(BudgetStage::Encode, self.encode_bytes)
    }
}

/// Which budget a [`JobMeter`] enforces — and therefore which §6.2
/// taxonomy row a breach classifies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BudgetStage {
    /// Decode-side (">24 MiB mem decode").
    Decode,
    /// Encode-side (">178 MiB mem encode").
    Encode,
}

/// Per-job byte accounting: the enforcement backstop behind the
/// header-derived sizing fast path.
///
/// Header-derived sizing (`decode_working_set`, the §5.7 admission
/// pre-check) remains authoritative for *planning*; the meter is what
/// untrusted payloads cannot argue with. Every arena the engine resets
/// for a job — model bins, the coefficient block buffer, arithmetic-stream
/// buffers, driver row rings, demuxed segment streams — calls
/// [`JobMeter::charge`] with its byte size *before* the allocation
/// happens. The first charge that would push the running total past the
/// job's budget returns [`crate::LeptonError::BudgetExceeded`], so an
/// attacker-declared length field aborts the job with a typed taxonomy
/// error instead of an allocation.
///
/// The counter is atomic so one meter can be shared by reference across
/// the engine's parallel segment jobs; the whole job shares one budget,
/// exactly like the deployed per-request limit.
#[derive(Debug)]
pub struct JobMeter {
    stage: BudgetStage,
    limit: usize,
    used: std::sync::atomic::AtomicUsize,
}

impl JobMeter {
    /// A meter for `stage` with a hard byte `limit`.
    pub fn new(stage: BudgetStage, limit: usize) -> Self {
        JobMeter {
            stage,
            limit,
            used: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Which budget this meter enforces.
    pub fn stage(&self) -> BudgetStage {
        self.stage
    }

    /// Bytes charged so far.
    pub fn used(&self) -> usize {
        self.used.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The hard limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Charge `bytes` against the job. Returns
    /// [`crate::LeptonError::BudgetExceeded`] if the running total would pass
    /// the limit; the total still reflects the attempted charge so the
    /// error reports how much the job actually wanted.
    pub fn charge(&self, bytes: usize) -> Result<(), crate::LeptonError> {
        use std::sync::atomic::Ordering;
        let prev = self.used.fetch_add(bytes, Ordering::Relaxed);
        let required = prev.saturating_add(bytes);
        if required > self.limit {
            Err(crate::LeptonError::BudgetExceeded {
                stage: self.stage,
                required,
                limit: self.limit,
            })
        } else {
            Ok(())
        }
    }

    /// Return `bytes` to the budget (an arena released mid-job, e.g. a
    /// pooled block buffer checked back in before the next stage).
    pub fn release(&self, bytes: usize) {
        use std::sync::atomic::Ordering;
        let _ = self
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
                Some(u.saturating_sub(bytes))
            });
    }
}

/// Bytes of the per-class model pair (luma, chroma) one thread segment
/// keeps resident.
pub(crate) fn model_pair_bytes() -> usize {
    2 * lepton_model::ComponentModel::arena_bytes()
}

/// Estimate the decoder's steady-state working set for a frame: the
/// driver's row rings and the per-thread models — *not* full coefficient
/// planes, because decode streams row-by-row (§1 "Memory"). Per segment
/// this is exactly what a decode job charges its meter for them.
pub fn decode_working_set(frame: &lepton_jpeg::FrameInfo, segments: usize) -> usize {
    let rings: usize = frame
        .components
        .iter()
        .map(crate::driver::component_ring_bytes)
        .sum();
    segments * (rings + model_pair_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let b = ResourceBudget::default();
        assert_eq!(b.decode_bytes, 24 << 20);
        assert_eq!(b.encode_bytes, 178 << 20);
        assert_eq!(b.arena_bytes, 200 << 20);
    }

    #[test]
    fn meter_trips_exactly_at_limit() {
        let m = JobMeter::new(BudgetStage::Decode, 100);
        assert!(m.charge(60).is_ok());
        assert!(m.charge(40).is_ok(), "charges up to the limit succeed");
        let err = m.charge(1).unwrap_err();
        match err {
            crate::LeptonError::BudgetExceeded {
                stage,
                required,
                limit,
            } => {
                assert_eq!(stage, BudgetStage::Decode);
                assert_eq!(required, 101);
                assert_eq!(limit, 100);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn meter_release_refunds() {
        let m = JobMeter::new(BudgetStage::Encode, 10);
        assert!(m.charge(10).is_ok());
        m.release(4);
        assert_eq!(m.used(), 6);
        assert!(m.charge(4).is_ok());
        m.release(usize::MAX); // over-release saturates at zero
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn working_set_is_row_bounded() {
        // A 4000x3000 4:2:0 image: decode working set must stay in the
        // paper's tens-of-MiB regime even though coefficient planes
        // would be ~36 MB.
        let frame = lepton_jpeg::FrameInfo {
            precision: 8,
            width: 4000,
            height: 3000,
            components: vec![
                lepton_jpeg::Component {
                    id: 1,
                    h: 2,
                    v: 2,
                    tq: 0,
                    blocks_w: 500,
                    blocks_h: 376,
                },
                lepton_jpeg::Component {
                    id: 2,
                    h: 1,
                    v: 1,
                    tq: 1,
                    blocks_w: 250,
                    blocks_h: 188,
                },
                lepton_jpeg::Component {
                    id: 3,
                    h: 1,
                    v: 1,
                    tq: 1,
                    blocks_w: 250,
                    blocks_h: 188,
                },
            ],
            mcus_x: 250,
            mcus_y: 188,
            hmax: 2,
            vmax: 2,
        };
        let ws = decode_working_set(&frame, 8);
        assert!(ws < ResourceBudget::default().decode_bytes * 8);
        let planes: usize = frame
            .components
            .iter()
            .map(|c| c.blocks_w * c.blocks_h * 128)
            .sum();
        assert!(ws < planes, "streaming beats plane-resident decode");
    }
}
