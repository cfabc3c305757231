//! Property tests for the Lepton container format (App. A.1): header
//! blob round trip over arbitrary field values, and robustness of the
//! full decode path against corrupted containers.
//!
//! The corruption property encodes the deployment's core safety claim
//! (§5.7): a decoder facing *any* bytes — truncated, bit-flipped, or
//! adversarial — must return an error or (rarely) wrong-but-bounded
//! output; it must never panic, hang, or over-allocate.

use lepton_core::format::{
    read_container, write_container, ContainerHeader, SegmentInfo, SerializedHandover,
};
use lepton_core::{compress, decompress, CompressOptions, LeptonError};
use lepton_corpus::builder::{clean_jpeg, CorpusSpec};
use proptest::prelude::*;

/// A handover in canonical form: only the `bits_used` high bits of the
/// partial byte may be set.
fn arb_handover() -> impl Strategy<Value = SerializedHandover> {
    (0u8..8, any::<u8>(), any::<[i16; 4]>(), any::<u32>()).prop_map(
        |(bits_used, partial, prev_dc, rst_so_far)| SerializedHandover {
            bits_used,
            partial: partial & !(0xFF >> bits_used),
            prev_dc,
            rst_so_far,
        },
    )
}

fn arb_segment() -> impl Strategy<Value = SegmentInfo> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        arb_handover(),
        any::<u32>(),
    )
        .prop_map(|(a, b, out_bytes, handover, arith)| SegmentInfo {
            mcu_start: a.min(b),
            mcu_end: a.max(b),
            out_bytes: out_bytes as u64,
            handover,
            arith_bytes: arith as u64,
        })
}

fn arb_header() -> impl Strategy<Value = ContainerHeader> {
    (
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..512),
        any::<u32>(),
        0u8..=2,
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::collection::vec(arb_segment(), 0..9),
    )
        .prop_map(
            |(
                emit_header,
                jpeg_header,
                output_size,
                pad_bit,
                rst_count,
                prepend,
                append,
                segments,
            )| {
                ContainerHeader {
                    emit_header,
                    jpeg_header,
                    output_size,
                    pad_bit,
                    rst_count,
                    prepend,
                    append,
                    segments,
                }
            },
        )
}

proptest! {
    /// Header blob serialization is self-inverse for arbitrary field
    /// values, not just the ones our encoder happens to produce.
    #[test]
    fn header_blob_roundtrip(header in arb_header()) {
        let blob = header.serialize_blob();
        let parsed = ContainerHeader::parse_blob(&blob).expect("own blob parses");
        prop_assert_eq!(parsed, header);
    }

    /// A partial byte with a bit set below `bits_used` is refused: no
    /// writer stores one, and resuming from it is undefined.
    #[test]
    fn non_canonical_partial_is_refused(
        header in arb_header(),
        pick in any::<usize>(),
        low in any::<u8>(),
    ) {
        if header.segments.is_empty() {
            return Ok(());
        }
        let mut header = header;
        let n = header.segments.len();
        let seg = &mut header.segments[pick % n];
        // A nonzero value within the bits below `bits_used`.
        let unused = 0xFF >> seg.handover.bits_used;
        seg.handover.partial |= 1 + low % unused;
        prop_assert_eq!(
            ContainerHeader::parse_blob(&header.serialize_blob()),
            Err(LeptonError::CorruptContainer("bad handover partial byte"))
        );
    }

    /// Truncating a header blob anywhere must produce a clean error.
    #[test]
    fn truncated_header_blob_errors(header in arb_header(), cut_frac in 0.0f64..1.0) {
        let blob = header.serialize_blob();
        if blob.is_empty() {
            return Ok(());
        }
        let cut = ((blob.len() - 1) as f64 * cut_frac) as usize;
        let result = ContainerHeader::parse_blob(&blob[..cut]);
        if cut < blob.len() {
            prop_assert!(result.is_err(), "short blob must not parse (cut {cut}/{})", blob.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whole-container robustness: flip bits, truncate, or append to a
    /// real container; decode must error or produce bytes — never
    /// panic. (The qualification fuzzing regime, §6.7.)
    #[test]
    fn mutated_containers_never_panic(
        seed in any::<u64>(),
        flips in proptest::collection::vec((any::<u32>(), 0u8..8), 1..12),
        cut_frac in 0.2f64..1.0,
    ) {
        let spec = CorpusSpec {
            min_dim: 48,
            max_dim: 120,
            ..Default::default()
        };
        let jpg = clean_jpeg(&spec, seed);
        let container = compress(&jpg, &CompressOptions::default()).unwrap();

        // Bit flips.
        let mut mutated = container.clone();
        for &(pos, bit) in &flips {
            let i = (pos as usize) % mutated.len();
            mutated[i] ^= 1 << bit;
        }
        let _ = decompress(&mutated);

        // Truncation.
        let cut = (container.len() as f64 * cut_frac) as usize;
        let _ = decompress(&container[..cut]);

        // Trailing garbage.
        let mut extended = container.clone();
        extended.extend_from_slice(&[0xAA; 64]);
        let _ = decompress(&extended);
    }

    /// Raw-bytes-as-container: arbitrary data with the right magic must
    /// still fail cleanly.
    #[test]
    fn magic_prefixed_noise_errors_cleanly(noise in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut data = vec![0xCF, 0x84, 0x01];
        data.extend_from_slice(&noise);
        prop_assert!(decompress(&data).is_err());
    }
}

#[test]
fn container_section_iteration_matches_segments() {
    // A structural (non-property) check kept next to the properties:
    // the container writer's packet interleaving must cover exactly
    // the segment arith byte counts it declares.
    let spec = CorpusSpec {
        min_dim: 200,
        max_dim: 260,
        ..Default::default()
    };
    let jpg = clean_jpeg(&spec, 99);
    let opts = CompressOptions {
        threads: lepton_core::ThreadPolicy::Fixed(4),
        ..Default::default()
    };
    let data = compress(&jpg, &opts).unwrap();
    let container = read_container(&data).unwrap();
    let declared: u64 = container
        .header
        .segments
        .iter()
        .map(|s| s.arith_bytes)
        .sum();
    let mut actual = 0u64;
    for packet in lepton_core::format::packets(container.arith_section) {
        let (_, payload) = packet.expect("well-formed packet stream");
        actual += payload.len() as u64;
    }
    assert_eq!(actual, declared);

    // And the writer is the parser's inverse at the container level.
    let rewritten = {
        let streams: Vec<Vec<u8>> = {
            // Reassemble per-segment streams from packets.
            let mut per: Vec<Vec<u8>> = vec![Vec::new(); container.header.segments.len()];
            for packet in lepton_core::format::packets(container.arith_section) {
                let (sid, payload) = packet.unwrap();
                per[sid as usize].extend_from_slice(payload);
            }
            per
        };
        write_container(&container.header, &streams)
    };
    assert_eq!(
        decompress(&rewritten).unwrap(),
        jpg,
        "rewritten container decodes to the same JPEG"
    );
}

/// A forged handover byte — segment 1's partial with a bit set below
/// its `bits_used` — is refused as a corrupt container, not handed to
/// the scan writer.
#[test]
fn forged_handover_partial_is_refused() {
    let jpg = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/landscape-422-trailing.jpg"
    ))
    .unwrap();
    let opts = CompressOptions {
        threads: lepton_core::ThreadPolicy::Fixed(2),
        ..Default::default()
    };
    let data = compress(&jpg, &opts).unwrap();
    let container = read_container(&data).unwrap();
    let mut header = container.header.clone();
    let mut streams = vec![Vec::new(); header.segments.len()];
    for packet in lepton_core::format::packets(container.arith_section) {
        let (sid, payload) = packet.unwrap();
        streams[sid as usize].extend_from_slice(payload);
    }
    let handover = &mut header.segments[1].handover;
    assert_eq!((handover.partial, handover.bits_used), (0x60, 5));
    handover.partial |= 1;
    let forged = write_container(&header, &streams);
    assert_eq!(
        decompress(&forged),
        Err(LeptonError::CorruptContainer("bad handover partial byte"))
    );
}
