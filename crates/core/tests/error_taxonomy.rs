//! The exhaustive error-taxonomy gate (promotion of the
//! `tab_error_codes` experiment into a hard test).
//!
//! Two guarantees, checked together:
//!
//! 1. **Reachability** — every error the codec can report is actually
//!    produced by a constructed input: each `JpegError` variant, each
//!    `LeptonError` variant (except `Internal`, which mirrors the
//!    paper's operational "Impossible" row), and each of the 10
//!    input-reachable §6.2 exit-code rows. A variant nothing can reach
//!    is dead weight; a row nothing maps to is an untested claim.
//! 2. **Classification totality** — every produced error maps onto a
//!    taxonomy row, and never onto one of the 8 operational rows
//!    (signals, timeouts, operator action, storage faults) that inputs
//!    must not be able to fake.

use lepton_core::format::{packets, read_container, write_container};
use lepton_core::security::BudgetStage;
use lepton_core::verify::check_roundtrip;
use lepton_core::{
    compress, decompress, decompress_opts, CompressOptions, DecompressOptions, ExitCode,
    LeptonError, ResourceBudget,
};
use lepton_corpus::hostile;
use lepton_corpus::{Corpus, CorpusSpec};
use lepton_jpeg::JpegError;
use std::collections::BTreeSet;

fn clean_jpeg() -> Vec<u8> {
    Corpus::generate(&CorpusSpec {
        count: 1,
        min_dim: 64,
        max_dim: 96,
        clean_fraction: 1.0,
        seed: 0x7A_0E57,
    })
    .files
    .remove(0)
    .data
}

#[test]
fn every_jpeg_error_variant_is_input_reachable() {
    let opts = CompressOptions::default();
    type Expect = fn(&JpegError) -> bool;
    let cases: Vec<(&str, Vec<u8>, Expect)> = vec![
        ("not_a_jpeg", hostile::not_a_jpeg(), |e| {
            matches!(e, JpegError::NotAJpeg)
        }),
        ("truncated_header", hostile::truncated_header(), |e| {
            matches!(e, JpegError::Truncated)
        }),
        ("progressive", hostile::progressive_frame(), |e| {
            matches!(e, JpegError::Progressive)
        }),
        ("four_color", hostile::four_color(), |e| {
            matches!(e, JpegError::FourColor)
        }),
        ("precision_12", hostile::precision_12(), |e| {
            matches!(e, JpegError::UnsupportedPrecision(12))
        }),
        ("lossless_frame", hostile::lossless_frame(), |e| {
            matches!(e, JpegError::UnsupportedFrame(0xC3))
        }),
        ("bad_sampling", hostile::bad_sampling(), |e| {
            matches!(e, JpegError::UnsupportedSampling)
        }),
        ("dnl_scan", hostile::dnl_scan(), |e| {
            matches!(e, JpegError::UnsupportedScan)
        }),
        ("eoi_before_scan", hostile::eoi_before_scan(), |e| {
            matches!(e, JpegError::Malformed(_))
        }),
        ("bad_huffman", hostile::bad_huffman(), |e| {
            matches!(e, JpegError::BadHuffman(_))
        }),
        ("bad_quant", hostile::bad_quant(), |e| {
            matches!(e, JpegError::BadQuant(_))
        }),
        ("ac_out_of_range", hostile::ac_out_of_range(), |e| {
            matches!(e, JpegError::AcOutOfRange)
        }),
        ("dc_out_of_range", hostile::dc_out_of_range(), |e| {
            matches!(e, JpegError::DcOutOfRange)
        }),
        ("bad_scan_code", hostile::bad_scan_code(), |e| {
            matches!(e, JpegError::BadScanCode)
        }),
        ("mixed_pad_bits", hostile::mixed_pad_bits(), |e| {
            matches!(e, JpegError::MixedPadBits)
        }),
        ("huge_dims", hostile::huge_dims(), |e| {
            matches!(e, JpegError::TooLarge { .. })
        }),
        ("zero_dimension", hostile::zero_dimension(), |e| {
            matches!(e, JpegError::ZeroDimension)
        }),
    ];
    for (name, input, expect) in &cases {
        match compress(input, &opts) {
            Err(LeptonError::Jpeg(j)) if expect(&j) => {}
            other => panic!("{name}: expected its JpegError, got {other:?}"),
        }
    }
    // That list is every variant: constructing it forces a compile
    // error if a new variant appears without a reachability input.
    let witness = |e: &JpegError| match e {
        JpegError::NotAJpeg
        | JpegError::Truncated
        | JpegError::Progressive
        | JpegError::FourColor
        | JpegError::UnsupportedPrecision(_)
        | JpegError::UnsupportedFrame(_)
        | JpegError::UnsupportedSampling
        | JpegError::UnsupportedScan
        | JpegError::Malformed(_)
        | JpegError::BadHuffman(_)
        | JpegError::BadQuant(_)
        | JpegError::AcOutOfRange
        | JpegError::DcOutOfRange
        | JpegError::BadScanCode
        | JpegError::MixedPadBits
        | JpegError::TooLarge { .. }
        | JpegError::ZeroDimension => (),
    };
    witness(&JpegError::NotAJpeg);
    assert_eq!(cases.len(), 17, "one constructed input per variant");
}

#[test]
fn every_lepton_error_variant_is_reachable() {
    let jpeg = clean_jpeg();
    let opts = CompressOptions::default();
    let container = compress(&jpeg, &opts).expect("clean file compresses");

    // Jpeg(_): covered exhaustively above; one witness here.
    assert!(matches!(
        compress(&hostile::not_a_jpeg(), &opts),
        Err(LeptonError::Jpeg(_))
    ));

    // BadMagic: flip the magic.
    let mut bad_magic = container.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(decompress(&bad_magic), Err(LeptonError::BadMagic)));

    // UnsupportedVersion: bump the version byte.
    let mut bad_version = container.clone();
    bad_version[2] = 0x09;
    assert!(matches!(
        decompress(&bad_version),
        Err(LeptonError::UnsupportedVersion(9))
    ));

    // CorruptContainer: cut the container mid-structure.
    let cut = container.len() / 2;
    assert!(matches!(
        decompress(&container[..cut.max(30)]),
        Err(LeptonError::CorruptContainer(_))
    ));

    // BudgetExceeded { stage: Decode }: forge a container whose segment
    // table *declares* a terabyte arithmetic stream. Under the default
    // 24 MiB decode budget the meter refuses before allocating.
    let parsed = read_container(&container).expect("own container parses");
    let mut header = parsed.header.clone();
    let mut streams: Vec<Vec<u8>> = vec![Vec::new(); header.segments.len()];
    for p in packets(parsed.arith_section) {
        let (sid, payload) = p.expect("own container demuxes");
        streams[sid as usize].extend_from_slice(payload);
    }
    header.segments[0].arith_bytes = 1 << 40;
    let forged = write_container(&header, &streams);
    match decompress(&forged) {
        Err(LeptonError::BudgetExceeded { stage, .. }) => {
            assert_eq!(stage, BudgetStage::Decode)
        }
        other => panic!("declared-length lie must trip the decode meter, got {other:?}"),
    }

    // BudgetExceeded { stage: Encode }: an undersized encode budget
    // trips on the coefficient-plane charge.
    let tiny = CompressOptions {
        budget: ResourceBudget {
            encode_bytes: 1 << 10,
            ..Default::default()
        },
        ..Default::default()
    };
    match compress(&jpeg, &tiny) {
        Err(LeptonError::BudgetExceeded { stage, .. }) => {
            assert_eq!(stage, BudgetStage::Encode)
        }
        other => panic!("undersized encode budget must trip, got {other:?}"),
    }

    // RoundtripFailed: a container checked against the wrong original.
    let other_jpeg = hostile::dc_out_of_range(); // any different bytes
    assert!(matches!(
        check_roundtrip(&other_jpeg, &container, &DecompressOptions::default()),
        Err(LeptonError::RoundtripFailed)
    ));

    // Internal(_): deliberately NOT constructible from input — it is
    // the library analogue of the paper's operational "Impossible" row.
    assert!(ExitCode::classify(&LeptonError::Internal("x")).is_operational());
}

#[test]
fn taxonomy_rows_partition_and_input_rows_are_all_hit() {
    // Errors produced by constructed inputs, one per expected row.
    let opts = CompressOptions::default();
    let jpeg = clean_jpeg();
    let mut hit: BTreeSet<ExitCode> = BTreeSet::new();

    // Success row: a clean compress.
    assert!(compress(&jpeg, &opts).is_ok());
    hit.insert(ExitCode::Success);

    let inputs: Vec<Vec<u8>> = vec![
        hostile::progressive_frame(),
        hostile::dnl_scan(),
        hostile::not_a_jpeg(),
        hostile::four_color(),
        hostile::bad_sampling(),
        hostile::ac_out_of_range(),
        hostile::dc_out_of_range(),
        hostile::huge_dims(),
    ];
    for input in &inputs {
        let err = compress(input, &opts).expect_err("hostile input refused");
        hit.insert(ExitCode::classify(&err));
    }

    // MemDecodeLimit: the decode-side budget refusal.
    let container = compress(&jpeg, &opts).unwrap();
    let starved = DecompressOptions {
        budget: ResourceBudget {
            decode_bytes: 1 << 10,
            ..Default::default()
        },
    };
    let err = decompress_opts(&container, &starved).expect_err("starved decode refused");
    hit.insert(ExitCode::classify(&err));

    // RoundtripFailed row.
    let err = check_roundtrip(
        &hostile::not_a_jpeg(),
        &container,
        &DecompressOptions::default(),
    )
    .expect_err("wrong original");
    hit.insert(ExitCode::classify(&err));

    let reachable: BTreeSet<ExitCode> = ExitCode::ALL
        .iter()
        .copied()
        .filter(|c| !c.is_operational())
        .collect();
    assert_eq!(
        hit, reachable,
        "constructed inputs must cover exactly the input-reachable rows"
    );

    // The operational rows stay out of reach of classify() over every
    // error the library can actually return for an input.
    for code in ExitCode::ALL {
        assert_eq!(
            code.is_operational(),
            matches!(
                code,
                ExitCode::ServerShutdown
                    | ExitCode::Impossible
                    | ExitCode::AbortSignal
                    | ExitCode::Timeout
                    | ExitCode::OomKill
                    | ExitCode::OperatorInterrupt
                    | ExitCode::StorageFull
                    | ExitCode::ReadOnlyStore
            )
        );
    }
}

#[test]
fn a_dc_beyond_the_model_range_is_refused_not_panicked() {
    // Every DC difference is legal and every DC fits an i16, so the
    // scan decodes; the model's DC delta cannot reach the ramp's top,
    // and the encoder refuses where it forms that delta.
    let jpeg = hostile::dc_beyond_model_range();
    let parsed = lepton_jpeg::parse(&jpeg).expect("header parses");
    let (scan, _) = lepton_jpeg::decode_scan(&jpeg, &parsed, &[]).expect("scan decodes");
    assert_eq!(scan.coefs.planes[0].block(7, 0)[0], 16_000);
    for threads in [1, 4] {
        let opts = CompressOptions {
            threads: lepton_core::ThreadPolicy::Fixed(threads),
            ..Default::default()
        };
        let err = compress(&jpeg, &opts).expect_err("refused");
        assert!(
            matches!(err, LeptonError::Jpeg(JpegError::DcOutOfRange)),
            "{err:?}"
        );
        assert_eq!(ExitCode::classify(&err), ExitCode::AcOutOfRange);
    }
    // The engine that refused it keeps converting.
    compress(&clean_jpeg(), &CompressOptions::default()).expect("clean file compresses");
}
