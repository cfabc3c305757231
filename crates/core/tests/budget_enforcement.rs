//! ResourceBudget enforcement at the codec entry points.
//!
//! An undersized budget must fail *cleanly* — a typed
//! `BudgetExceeded` carrying the stage, the required bytes, and the
//! limit — at every entry point, and the default §4.2/§6.2 budgets
//! must pass the full clean corpus unchanged (the meter is a backstop
//! behind header-derived sizing, not a new constraint on real files).

use lepton_core::{
    compress, decompress_opts, decompress_streaming, BudgetStage, CompressOptions,
    DecompressOptions, Engine, LeptonError, ResourceBudget,
};
use lepton_corpus::{Corpus, CorpusSpec};

fn corpus() -> Vec<Vec<u8>> {
    Corpus::generate(&CorpusSpec {
        count: 4,
        min_dim: 64,
        max_dim: 192,
        clean_fraction: 1.0,
        seed: 0xB0D6E7,
    })
    .files
    .into_iter()
    .map(|f| f.data)
    .collect()
}

fn starved_encode() -> CompressOptions {
    CompressOptions {
        budget: ResourceBudget {
            encode_bytes: 1 << 10,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn starved_decode() -> DecompressOptions {
    DecompressOptions {
        budget: ResourceBudget {
            decode_bytes: 1 << 10,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn expect_budget(r: Result<impl Sized, LeptonError>, stage: BudgetStage) {
    match r {
        Err(LeptonError::BudgetExceeded {
            stage: s,
            required,
            limit,
        }) => {
            assert_eq!(s, stage);
            assert!(
                required > limit,
                "error must carry the breach: {required} vs {limit}"
            );
        }
        Err(other) => panic!("expected BudgetExceeded({stage:?}), got {other}"),
        Ok(_) => panic!("expected BudgetExceeded({stage:?}), got success"),
    }
}

#[test]
fn undersized_encode_budget_fails_cleanly_everywhere() {
    let jpeg = corpus().remove(0);
    let opts = starved_encode();
    expect_budget(compress(&jpeg, &opts), BudgetStage::Encode);
    let engine = Engine::new(2);
    expect_budget(engine.compress(&jpeg, &opts), BudgetStage::Encode);
}

#[test]
fn undersized_decode_budget_fails_cleanly_everywhere() {
    let jpeg = corpus().remove(0);
    let container = compress(&jpeg, &CompressOptions::default()).unwrap();
    let opts = starved_decode();
    expect_budget(decompress_opts(&container, &opts), BudgetStage::Decode);
    let mut sunk = 0usize;
    expect_budget(
        decompress_streaming(&container, &opts, &mut |b| sunk += b.len()),
        BudgetStage::Decode,
    );
    assert_eq!(sunk, 0, "refusal happens before any output is emitted");
    let engine = Engine::new(2);
    expect_budget(
        engine.decompress_opts(&container, &opts),
        BudgetStage::Decode,
    );
}

#[test]
fn verification_decode_is_metered_too() {
    // §5.7 admission asymmetry: compression *verifies* under the decode
    // budget, so a file that could not later be served within §4.2 is
    // already refused at admission — as a decode-stage breach.
    let jpeg = corpus().remove(0);
    let opts = CompressOptions {
        budget: ResourceBudget {
            decode_bytes: 1 << 10,
            ..Default::default()
        },
        verify: true,
        ..Default::default()
    };
    expect_budget(compress(&jpeg, &opts), BudgetStage::Decode);
}

#[test]
fn default_budget_passes_the_clean_corpus_unchanged() {
    // The meter is a backstop: with the paper's real budgets every
    // clean file compresses, round-trips byte-exactly, and decodes the
    // same with or without explicit options.
    let copts = CompressOptions::default();
    let dopts = DecompressOptions::default();
    for jpeg in corpus() {
        let container = compress(&jpeg, &copts).expect("default budget admits clean file");
        assert_eq!(decompress_opts(&container, &dopts).unwrap(), jpeg);
    }
}

#[test]
fn budget_error_reports_honest_numbers() {
    // The typed error is the operator's §6.2 telemetry row: its
    // `required` must reflect the real high-water demand, not a
    // truncated counter.
    let jpeg = corpus().remove(0);
    match compress(&jpeg, &starved_encode()) {
        Err(LeptonError::BudgetExceeded {
            required, limit, ..
        }) => {
            assert_eq!(limit, 1 << 10);
            // The very first charge (coefficient blocks) already dwarfs
            // the 1 KiB limit for a 64px+ image.
            assert!(required >= 64 * 64 * 2, "required={required}");
        }
        other => panic!("{other:?}"),
    }
}

/// (file, segment count) pairs the exact-charge checks run on: a corpus
/// file at one and four segments, and a 4:2:0 golden vector at 2/4/8.
/// Its 8 × 7 MCUs split 8 ways put a bound at MCU 49, one past the last
/// row start (`segment_bounds` only snaps to a row start inside the
/// range), so a segment slice of the encoder's block buffer starts and
/// ends inside an MCU row.
fn exact_charge_cases() -> Vec<(Vec<u8>, usize)> {
    let file = corpus().remove(1);
    let golden = include_bytes!("golden/textlike-420-opt-pad0.jpg").to_vec();
    let mut cases = vec![(file.clone(), 1), (file, 4)];
    cases.extend([2, 4, 8].map(|n| (golden.clone(), n)));
    cases
}

/// Compress `jpeg` into `segments` segments under `budget`.
fn compress_fixed(
    jpeg: &[u8],
    segments: usize,
    budget: ResourceBudget,
) -> Result<Vec<u8>, LeptonError> {
    compress(
        jpeg,
        &CompressOptions {
            threads: lepton_core::ThreadPolicy::Fixed(segments),
            budget,
            ..Default::default()
        },
    )
}

/// What decoding `container` holds, in bytes: the output, the header
/// parts, the demuxed arithmetic streams, and per segment a model pair
/// plus the driver's row rings at their true sizes
/// (`decode_working_set`, which the allocation tests in `driver` and
/// `lepton_model` pin to the bytes actually allocated).
fn decode_charge(container: &[u8]) -> usize {
    use lepton_core::format::read_container;
    use lepton_core::security::decode_working_set;
    let header = read_container(container).unwrap().header;
    let frame = lepton_jpeg::parse(&header.jpeg_header).unwrap().frame;
    header.output_size as usize
        + header.jpeg_header.len()
        + header.prepend.len()
        + header.append.len()
        + header
            .segments
            .iter()
            .map(|s| s.arith_bytes as usize)
            .sum::<usize>()
        + decode_working_set(&frame, header.segments.len())
}

#[test]
fn decode_meter_charges_exactly_what_the_job_keeps() {
    // The meter's total for an honest container is the sum of what the
    // decode really holds (`decode_charge`). A budget of exactly that
    // admits the file; one byte less is refused, reporting that figure.
    use lepton_core::format::read_container;
    for (jpeg, segments) in exact_charge_cases() {
        let container = compress_fixed(&jpeg, segments, ResourceBudget::default()).unwrap();
        let header = read_container(&container).unwrap().header;
        assert_eq!(header.segments.len(), segments);
        let expected = decode_charge(&container);
        let with_budget = |decode_bytes| DecompressOptions {
            budget: ResourceBudget {
                decode_bytes,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(
            decompress_opts(&container, &with_budget(expected)).unwrap(),
            jpeg
        );
        match decompress_opts(&container, &with_budget(expected - 1)) {
            Err(LeptonError::BudgetExceeded { required, .. }) => assert_eq!(required, expected),
            other => panic!("expected a one-byte breach, got {other:?}"),
        }
    }
}

#[test]
fn admission_verify_charges_exactly_what_decompress_does() {
    // The verify of `compress` decodes under the decode budget with the
    // decoder's own charges: a budget of exactly what decompressing the
    // container takes admits the file, byte-identically; one byte less
    // is refused at the decode stage, reporting that figure.
    for (jpeg, segments) in exact_charge_cases() {
        let container = compress_fixed(&jpeg, segments, ResourceBudget::default()).unwrap();
        let expected = decode_charge(&container);
        let with_budget = |decode_bytes| ResourceBudget {
            decode_bytes,
            ..Default::default()
        };
        assert_eq!(
            compress_fixed(&jpeg, segments, with_budget(expected)).unwrap(),
            container,
            "{segments} segments"
        );
        match compress_fixed(&jpeg, segments, with_budget(expected - 1)) {
            Err(LeptonError::BudgetExceeded {
                stage, required, ..
            }) => {
                assert_eq!(stage, BudgetStage::Decode);
                assert_eq!(required, expected, "{segments} segments");
            }
            other => panic!("expected a one-byte decode breach, got {other:?}"),
        }
    }
}

#[test]
fn encode_meter_charges_exactly_what_the_job_keeps() {
    // The encode side's total is the coefficient blocks (the coding-order
    // buffer, exactly the frame-shaped planes' bytes), a model pair per
    // segment and the arithmetic streams that escape the jobs. A budget
    // of exactly that admits the file; one byte less is refused,
    // reporting that figure.
    use lepton_core::format::read_container;
    let mut mid_row = false;
    for (jpeg, segments) in exact_charge_cases() {
        let container = compress_fixed(&jpeg, segments, ResourceBudget::default()).unwrap();
        let header = read_container(&container).unwrap().header;
        assert_eq!(header.segments.len(), segments);
        let frame = lepton_jpeg::parse(&jpeg).unwrap().frame;
        let mcus_x = frame.mcus_x as u32;
        mid_row |= header.segments.iter().any(|s| s.mcu_start % mcus_x != 0);
        let planes: usize = frame
            .components
            .iter()
            .map(|c| c.blocks_w * c.blocks_h * 128)
            .sum();
        let expected = planes
            + segments * 2 * lepton_model::ComponentModel::arena_bytes()
            + header
                .segments
                .iter()
                .map(|s| s.arith_bytes as usize)
                .sum::<usize>();
        let with_budget = |encode_bytes| ResourceBudget {
            encode_bytes,
            ..Default::default()
        };
        assert_eq!(
            compress_fixed(&jpeg, segments, with_budget(expected)).unwrap(),
            container
        );
        match compress_fixed(&jpeg, segments, with_budget(expected - 1)) {
            Err(LeptonError::BudgetExceeded {
                stage, required, ..
            }) => {
                assert_eq!(stage, BudgetStage::Encode);
                assert_eq!(required, expected, "{segments} segments");
            }
            other => panic!("expected a one-byte breach, got {other:?}"),
        }
    }
    assert!(mid_row, "some segment starts mid-row");
}

#[test]
fn largest_served_chunk_fits_the_default_decode_budget() {
    // The biggest file the service benchmark converts: 3 MB, 2048 px
    // wide, 8 thread segments — taken at its costliest subsampling
    // (4:4:4: three full-width rings per segment) and with arithmetic
    // streams as large as the output. With models and ring slots
    // charged at their real sizes it must still decode under §4.2's
    // 24 MiB.
    use lepton_core::security::decode_working_set;
    let blocks_w = 2048 / 8;
    let component = |id| lepton_jpeg::Component {
        id,
        h: 1,
        v: 1,
        tq: 0,
        blocks_w,
        blocks_h: 192,
    };
    let frame = lepton_jpeg::FrameInfo {
        precision: 8,
        width: 2048,
        height: 1536,
        components: vec![component(1), component(2), component(3)],
        mcus_x: blocks_w,
        mcus_y: 192,
        hmax: 1,
        vmax: 1,
    };
    let file = 3_000_000;
    let total = 2 * file + decode_working_set(&frame, 8);
    assert!(
        ResourceBudget::default().admits_decode(total),
        "{total} bytes"
    );
}
