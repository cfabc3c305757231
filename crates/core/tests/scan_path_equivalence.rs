//! The windowed lookahead scan decoder and the Annex F reference
//! decoder must be interchangeable, and the inline and pipelined
//! encode paths must be too.
//!
//! The first half compares the two block decoders where they actually
//! differ — at the JPEG layer, MCU by MCU, over a whole corpus. The
//! encoder sees a scan only through the values compared here
//! (coefficients, `Handover` snapshots, `ScanEnd`), so equal values
//! mean equal containers whichever decoder ran. The second half drives
//! the real encoder on hostile inputs through its single-segment and
//! multi-segment paths.

use lepton_core::{CompressOptions, Engine, ExitCode, ThreadPolicy};
use lepton_corpus::{mutate, Corpus, CorpusSpec, MutationKind};
use lepton_jpeg::{CoefBlock, ScanDecoder};
use proptest::prelude::*;

/// Six clean corpus files plus a golden vector with a restart interval
/// that does not divide the MCU row (at every RST the windowed decoder
/// drops its prefetch window and re-anchors).
fn corpus() -> Vec<Vec<u8>> {
    let mut files: Vec<Vec<u8>> = Corpus::generate(&CorpusSpec {
        count: 6,
        min_dim: 96,
        max_dim: 320,
        clean_fraction: 1.0,
        seed: 0x5CA_DEC0,
    })
    .files
    .into_iter()
    .map(|f| f.data)
    .collect();
    files.push(include_bytes!("golden/gradient-420-rst7-opt-pad0.jpg").to_vec());
    files
}

/// Step both decoders through `jpeg` one MCU at a time, asserting that
/// each step leaves identical coding-order blocks, handovers and result
/// (the same error, if one fails), and that the scans end identically.
/// Returns whether the whole scan decoded.
fn assert_decoders_agree(jpeg: &[u8], label: &str) -> bool {
    let Ok(parsed) = lepton_jpeg::parse(jpeg) else {
        return false;
    };
    let bpm = parsed.blocks_per_mcu();
    let mut reference = ScanDecoder::new_reference(jpeg, &parsed).expect("tables");
    let mut fast = ScanDecoder::new(jpeg, &parsed).expect("tables");
    for m in 0..parsed.frame.mcu_count() as u32 {
        let mut coefs_ref: Vec<CoefBlock> = vec![[0; 64]; bpm];
        let mut coefs_fast = coefs_ref.clone();
        let r_ref = reference.decode_to(m + 1, &mut coefs_ref);
        let r_fast = fast.decode_to(m + 1, &mut coefs_fast);
        assert_eq!(r_ref, r_fast, "{label}: result diverged at mcu {m}");
        assert!(
            coefs_ref == coefs_fast,
            "{label}: coefficients diverged at mcu {m}"
        );
        assert_eq!(
            reference.handover(),
            fast.handover(),
            "{label}: handover diverged after mcu {m}"
        );
        if r_ref.is_err() {
            return false;
        }
    }
    match (reference.finish(), fast.finish()) {
        (Ok(end_ref), Ok(end_fast)) => {
            assert_eq!(end_ref.pad, end_fast.pad, "{label}");
            assert_eq!(end_ref.rst_count, end_fast.rst_count, "{label}");
            assert_eq!(end_ref.scan_end, end_fast.scan_end, "{label}");
            assert_eq!(end_ref.stats, end_fast.stats, "{label}");
            true
        }
        (r_ref, r_fast) => {
            assert_eq!(r_ref.err(), r_fast.err(), "{label}: end diverged");
            false
        }
    }
}

#[test]
fn reference_and_fast_paths_produce_identical_containers() {
    for (i, jpeg) in corpus().iter().enumerate() {
        assert!(
            assert_decoders_agree(jpeg, &format!("file {i}")),
            "file {i} decodes"
        );
    }
}

/// What one entry-point run did to one input, reduced to what the two
/// paths must agree on: the surviving bytes after a full round trip
/// (containers themselves differ across segment counts by design), or
/// the taxonomy row plus the exact error text of the refusal.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Accepted(Vec<u8>),
    Refused(ExitCode, String),
}

fn run_path(engine: &Engine, threads: usize, input: &[u8]) -> Outcome {
    let opts = CompressOptions {
        threads: ThreadPolicy::Fixed(threads),
        verify: true,
        ..Default::default()
    };
    match engine.compress(input, &opts) {
        Ok(c) => Outcome::Accepted(engine.decompress(&c).expect("verified container decodes")),
        Err(e) => Outcome::Refused(ExitCode::classify(&e), e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pipelined multi-segment path must be observationally
    /// identical to the inline path on *hostile* inputs too, not just
    /// on the clean corpus above: the same seeded corruption either
    /// survives with byte-identical containers through both, or is
    /// refused with the same classification and message. Splitting
    /// work across segments must not change which error wins or leak a
    /// different partial result.
    #[test]
    fn corrupted_inputs_classify_identically_across_scan_paths(
        file_seed in 0u64..4,
        kind_idx in 0usize..MutationKind::ALL.len(),
        mut_seed in any::<u64>(),
    ) {
        let jpeg = Corpus::generate(&CorpusSpec {
            count: 1,
            min_dim: 96,
            max_dim: 224,
            clean_fraction: 1.0,
            seed: 0xE9_01AA ^ file_seed,
        })
        .files
        .remove(0)
        .data;
        let hostile = mutate(&jpeg, MutationKind::ALL[kind_idx], mut_seed);
        assert_decoders_agree(&hostile, "hostile input");

        let engine = Engine::new(3);
        let inline = run_path(&engine, 1, &hostile);
        let pipelined = run_path(&engine, 3, &hostile);
        prop_assert_eq!(&inline, &pipelined);

        // And neither path may route an input-caused refusal onto an
        // operational taxonomy row.
        if let Outcome::Refused(code, msg) = &inline {
            prop_assert!(
                !code.is_operational(),
                "input refused onto operational row {:?}: {}", code, msg
            );
        }
    }
}
