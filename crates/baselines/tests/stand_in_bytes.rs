//! Pins the output bytes of every stand-in codec (the non-Lepton rows
//! of Figs. 1–3).
//!
//! A seeded mixed corpus — clean baselines beside the §6.2 rejects
//! (progressive, CMYK, non-images, truncations) and two hostile files —
//! is encoded by every codec of [`all_codecs`] except Lepton's own two
//! rows, whose bytes `crates/core/tests/golden_vectors.rs` pins. Each
//! file must round-trip, and each codec's outputs fold into one digest
//! that must equal the literal below. A refactor of a stand-in's model
//! that changes one coded bit fails here.
//!
//! If a stand-in's format changes on purpose, regenerate the literals
//! with `cargo test -p lepton_baselines --test stand_in_bytes --
//! --nocapture` and paste the printed table.

use lepton_baselines::codec::tag;
use lepton_baselines::{all_codecs, Codec, PackJpgCodec};
use lepton_corpus::builder::{Corpus, CorpusSpec};
use lepton_corpus::hostile;

/// One digest per stand-in, in [`all_codecs`] order.
const EXPECTED: [(&str, u64); 7] = [
    ("PackJPG-like", 0x266bb8edd4cc7529),
    ("PAQ-like", 0xd7368486c83ed22e),
    ("JPEGrescan-like", 0x120e6da40af2d822),
    ("MozJPEG-arith", 0xa6f90dd34c2f840d),
    ("Deflate", 0x494667b2dce4c006),
    ("LZ-Fast (Zstd-class)", 0xa61115bbbe156f08),
    ("Range-LZ (LZMA-class)", 0x0b3fa10b346d826c),
];

/// The pinned inputs: 12 seeded corpus files plus two hostile rejects.
fn corpus() -> Vec<Vec<u8>> {
    let spec = CorpusSpec {
        count: 12,
        min_dim: 48,
        max_dim: 160,
        clean_fraction: 0.6,
        seed: 0x057A_4D1B,
    };
    let mut files: Vec<Vec<u8>> = Corpus::generate(&spec)
        .files
        .into_iter()
        .map(|f| f.data)
        .collect();
    files.push(hostile::progressive_frame());
    files.push(hostile::not_a_jpeg());
    files
}

/// FNV-1a over each output, length-prefixed so file boundaries count.
fn fold(digest: &mut u64, bytes: &[u8]) {
    for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
        *digest ^= u64::from(*b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

#[test]
fn stand_in_bytes_match_their_pinned_digests() {
    let files = corpus();
    // Both sides of every format-aware stand-in are pinned: some files
    // take the JPEG model, the rejects take the Deflate fallback.
    let transformed = files
        .iter()
        .filter(|f| PackJpgCodec.encode(f).expect("encode")[0] == tag::TRANSFORMED)
        .count();
    assert!(
        (4..files.len() - 2).contains(&transformed),
        "{transformed} of {} files transformed",
        files.len()
    );
    let mut got = Vec::new();
    for codec in all_codecs() {
        if codec.name().starts_with("Lepton") {
            continue;
        }
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        for (i, file) in files.iter().enumerate() {
            let encoded = codec.encode(file).expect("encode");
            let decoded = codec.decode(&encoded, file.len()).expect("decode");
            assert!(decoded == *file, "{} file {i}: round trip", codec.name());
            fold(&mut digest, &encoded);
        }
        println!("    (\"{}\", {digest:#018x}),", codec.name());
        got.push((codec.name(), digest));
    }
    assert_eq!(got, EXPECTED);
}
