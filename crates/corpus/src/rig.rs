//! The hostile-input torture rig.
//!
//! A reusable harness that feeds mutated and handcrafted inputs to any
//! entry point and checks the tri-state contract the paper's deployment
//! lived by: every input either (a) round-trips byte-exactly, or (b) is
//! refused with a typed error that classifies onto the §6.2 taxonomy —
//! never a panic, never wrong bytes, never a breach of the memory
//! budget. The rig is deliberately dumb: it applies the seeded mutation
//! driver from [`crate::corrupt`] plus the reachability constructors
//! from [`crate::hostile`], runs the entry point under
//! `catch_unwind`, and tallies outcomes per taxonomy row.
//!
//! Layers above the codec (blockstore, server, fleet) have their own
//! error types; they use [`probe`] directly and map refusals onto rows
//! themselves.

use crate::corrupt::{mutate, MutationKind};
use lepton_core::{ExitCode, LeptonError};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One input the rig will feed to an entry point.
#[derive(Clone, Debug)]
pub struct RigCase {
    /// Human-readable provenance: base file, mutation kind, seed.
    pub label: String,
    /// The hostile bytes.
    pub input: Vec<u8>,
}

/// The full mutation matrix: every [`MutationKind`] applied to every
/// base at every seed, plus each base unmutated.
pub fn mutation_matrix(bases: &[(&str, Vec<u8>)], seeds: &[u64]) -> Vec<RigCase> {
    let mut cases = Vec::with_capacity(bases.len() * (1 + MutationKind::ALL.len() * seeds.len()));
    for (name, base) in bases {
        cases.push(RigCase {
            label: format!("{name}/pristine"),
            input: base.clone(),
        });
        for kind in MutationKind::ALL {
            for &seed in seeds {
                cases.push(RigCase {
                    label: format!("{name}/{kind:?}/{seed}"),
                    input: mutate(base, kind, seed),
                });
            }
        }
    }
    cases
}

/// Every handcrafted reachability input from [`crate::hostile`], with
/// labels.
pub fn hostile_cases() -> Vec<RigCase> {
    use crate::hostile as h;
    type Builder = fn() -> Vec<u8>;
    let builders: [(&str, Builder); 18] = [
        ("dc_out_of_range", h::dc_out_of_range),
        ("dc_beyond_model_range", h::dc_beyond_model_range),
        ("ac_out_of_range", h::ac_out_of_range),
        ("bad_scan_code", h::bad_scan_code),
        ("mixed_pad_bits", h::mixed_pad_bits),
        ("dnl_scan", h::dnl_scan),
        ("huge_dims", h::huge_dims),
        ("zero_dimension", h::zero_dimension),
        ("precision_12", h::precision_12),
        ("lossless_frame", h::lossless_frame),
        ("progressive_frame", h::progressive_frame),
        ("bad_sampling", h::bad_sampling),
        ("bad_quant", h::bad_quant),
        ("bad_huffman", h::bad_huffman),
        ("four_color", h::four_color),
        ("truncated_header", h::truncated_header),
        ("not_a_jpeg", h::not_a_jpeg),
        ("eoi_before_scan", h::eoi_before_scan),
    ];
    builders
        .into_iter()
        .map(|(name, f)| RigCase {
            label: format!("hostile/{name}"),
            input: f(),
        })
        .collect()
}

/// Run `f` under `catch_unwind`, translating a panic into an `Err` with
/// the panic payload's message. The one place the rig allows itself to
/// touch panics.
pub fn probe<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Tally of one rig run.
#[derive(Debug, Default)]
pub struct RigReport {
    /// Inputs fed.
    pub cases: usize,
    /// Inputs the entry point accepted (clean round trip).
    pub accepted: usize,
    /// Refusals per taxonomy row.
    pub rows: BTreeMap<ExitCode, usize>,
    /// Contract violations: panics, or anything the caller's check
    /// flagged. Must be empty for the rig to pass.
    pub violations: Vec<String>,
}

impl RigReport {
    /// Panic with every violation if any were recorded.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "torture rig violations ({} of {} cases):\n{}",
            self.violations.len(),
            self.cases,
            self.violations.join("\n")
        );
    }

    /// Refusal count for one taxonomy row.
    pub fn row(&self, code: ExitCode) -> usize {
        self.rows.get(&code).copied().unwrap_or(0)
    }
}

/// Drive `op` over `cases`. `op` returns the accepted output length, or
/// the typed error; the rig asserts no panics and classifies every
/// refusal onto the taxonomy.
pub fn run(cases: &[RigCase], op: impl Fn(&[u8]) -> Result<usize, LeptonError>) -> RigReport {
    let mut report = RigReport {
        cases: cases.len(),
        ..Default::default()
    };
    for case in cases {
        match probe(|| op(&case.input)) {
            Ok(Ok(_)) => report.accepted += 1,
            Ok(Err(e)) => {
                let code = ExitCode::classify(&e);
                if code.is_operational() && !matches!(e, LeptonError::Internal(_)) {
                    report.violations.push(format!(
                        "{}: refusal classified to operational row {code:?}: {e}",
                        case.label
                    ));
                }
                *report.rows.entry(code).or_default() += 1;
            }
            Err(panic_msg) => report
                .violations
                .push(format!("{}: PANIC: {panic_msg}", case.label)),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_catches_panics() {
        assert_eq!(probe(|| 7).unwrap(), 7);
        let err = probe(|| panic!("boom {}", 1)).unwrap_err();
        assert!(err.contains("boom"));
    }

    #[test]
    fn matrix_covers_all_kinds_and_seeds() {
        let bases = [("a", vec![1u8, 2, 3]), ("b", vec![4u8; 16])];
        let cases = mutation_matrix(&bases, &[1, 2]);
        assert_eq!(cases.len(), 2 * (1 + MutationKind::ALL.len() * 2));
        assert!(cases.iter().any(|c| c.label == "a/pristine"));
        assert!(cases.iter().any(|c| c.label.contains("Truncate")));
    }

    #[test]
    fn run_tallies_rows_and_panics() {
        let cases = vec![
            RigCase {
                label: "ok".into(),
                input: vec![0],
            },
            RigCase {
                label: "bad".into(),
                input: vec![1],
            },
            RigCase {
                label: "explode".into(),
                input: vec![2],
            },
        ];
        let report = run(&cases, |input| match input[0] {
            0 => Ok(0),
            1 => Err(LeptonError::BadMagic),
            _ => panic!("kaboom"),
        });
        assert_eq!(report.accepted, 1);
        assert_eq!(report.row(ExitCode::UnsupportedJpeg), 1);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("kaboom"));
    }
}
