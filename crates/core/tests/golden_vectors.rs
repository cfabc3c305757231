//! The frozen container format (ROADMAP 6a): committed JPEGs, the
//! containers an earlier build made of them, and their SHA-256s.
//!
//! Every build must (a) encode each `golden/*.jpg` to exactly the
//! committed `.t1.lep` / `.t4.lep` bytes under `ThreadPolicy::Fixed(1)`
//! / `Fixed(4)` and (b) decode each committed container back to its
//! JPEG. A performance or simplification change that moves one bit of
//! either direction fails here, not in a user's stored block.
//!
//! The vectors were generated by `regenerate` at the commit *before*
//! the per-block context pass was fused; regenerating is a format
//! version bump, never a fix for a failing test.
//!
//! `golden/chunked/` holds, under its own `SHA256SUMS`, the chunk
//! containers an earlier build wrote for three of the JPEGs: one per
//! 1 KiB byte range (`<stem>.c1k.<k>.lep`, two segments each where the
//! range holds enough MCUs). Every chunk after the first skips the JPEG
//! header. No encoder in this tree writes that shape any more, so
//! `regenerate` leaves the directory alone; the decoder must keep
//! restoring each range on its own.

use lepton_core::format::read_container;
use lepton_core::{
    decompress, decompress_streaming, CompressOptions, DecompressOptions, Engine, ThreadPolicy,
};
use lepton_corpus::{corrupt, synth_image, SceneKind};
use lepton_jpeg::encoder::{encode_jpeg, EncodeOptions, Image, PixelData, Subsampling};
use lepton_storage::sha256::{hex, sha256};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Segment counts each vector is stored under.
const THREADS: [usize; 2] = [1, 4];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn chunked_dir() -> PathBuf {
    golden_dir().join("chunked")
}

/// Original bytes each committed chunk container restores.
const CHUNK_BYTES: usize = 1024;

/// The JPEGs whose chunk containers are committed.
const CHUNKED_STEMS: [&str; 3] = [
    "landscape-422-trailing",
    "noisy-444-rst3-opt",
    "textlike-422-rst5-pad0",
];

fn container_name(stem: &str, threads: usize) -> String {
    format!("{stem}.t{threads}.lep")
}

fn opts(threads: usize) -> CompressOptions {
    CompressOptions {
        threads: ThreadPolicy::Fixed(threads),
        ..Default::default()
    }
}

/// `dir/SHA256SUMS` (the `sha256sum -c` format) as name → hex digest.
fn read_manifest_in(dir: &Path) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(dir.join("SHA256SUMS")).expect("manifest");
    text.lines()
        .map(|l| {
            let (digest, name) = l.split_once("  ").expect("`<hex>  <name>` line");
            (name.to_string(), digest.to_string())
        })
        .collect()
}

fn read_manifest() -> BTreeMap<String, String> {
    read_manifest_in(&golden_dir())
}

/// Check that `dir`'s files are exactly those its manifest lists, each
/// with its listed digest; return the listed names and the names of
/// `dir`'s subdirectories.
fn check_manifest(dir: &Path) -> (Vec<String>, Vec<String>) {
    let manifest = read_manifest_in(dir);
    let (mut files, mut subdirs) = (Vec::new(), Vec::new());
    for entry in std::fs::read_dir(dir).expect("golden dir") {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        if entry.file_type().unwrap().is_dir() {
            subdirs.push(name);
        } else if name != "SHA256SUMS" {
            files.push(name);
        }
    }
    files.sort();
    subdirs.sort();
    let listed: Vec<String> = manifest.keys().cloned().collect();
    assert_eq!(files, listed, "manifest and directory list different files");
    for (name, want) in &manifest {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        assert_eq!(&hex(&sha256(&bytes)), want, "{name} changed on disk");
    }
    (listed, subdirs)
}

#[test]
fn committed_files_match_the_manifest() {
    let (listed, subdirs) = check_manifest(&golden_dir());
    assert_eq!(subdirs, ["chunked"], "golden/ holds one subdirectory");
    let jpegs = listed.iter().filter(|n| n.ends_with(".jpg")).count();
    assert!((1..=12).contains(&jpegs), "{jpegs} vectors");
    assert_eq!(listed.len(), jpegs * (1 + THREADS.len()));
}

/// Each committed chunk container, decoded alone — last range first —
/// through the whole-buffer and the streaming decoder, restores exactly
/// its 1 KiB range of the JPEG. The set must hold the shapes only chunk
/// containers have: a container that skips the JPEG header, one whose
/// range ends in bytes after the scan, and one split into two segments.
#[test]
fn committed_chunk_containers_decode_to_their_byte_ranges() {
    let (listed, subdirs) = check_manifest(&chunked_dir());
    assert!(subdirs.is_empty());
    let (mut skips_header, mut appends, mut two_segments) = (false, false, false);
    let mut decoded = 0;
    for stem in CHUNKED_STEMS {
        let jpeg = std::fs::read(golden_dir().join(format!("{stem}.jpg"))).unwrap();
        for k in (0..jpeg.len().div_ceil(CHUNK_BYTES)).rev() {
            let name = format!("{stem}.c1k.{k}.lep");
            let lep = std::fs::read(chunked_dir().join(&name)).expect("chunk container");
            let want = &jpeg[k * CHUNK_BYTES..((k + 1) * CHUNK_BYTES).min(jpeg.len())];
            assert!(decompress(&lep).expect("decompress") == want, "{name}");
            let mut streamed = Vec::new();
            decompress_streaming(&lep, &DecompressOptions::default(), &mut |b: &[u8]| {
                streamed.extend_from_slice(b)
            })
            .expect("streaming decompress");
            assert!(streamed == want, "{name}: streaming");

            let header = read_container(&lep).expect("container parses").header;
            skips_header |= !header.emit_header;
            appends |= !header.append.is_empty();
            two_segments |= header.segments.len() == 2;
            decoded += 1;
        }
    }
    assert_eq!(decoded, listed.len(), "one container per 1 KiB range");
    assert!(skips_header, "no container skips the JPEG header");
    assert!(appends, "no container carries an append");
    assert!(two_segments, "no container has two segments");
}

#[test]
fn encoder_emits_the_committed_bytes() {
    let engine = Engine::new(2);
    for name in read_manifest().keys().filter(|n| n.ends_with(".jpg")) {
        let stem = name.trim_end_matches(".jpg");
        let jpeg = std::fs::read(golden_dir().join(name)).unwrap();
        for threads in THREADS {
            let want = std::fs::read(golden_dir().join(container_name(stem, threads))).unwrap();
            let got = engine.compress(&jpeg, &opts(threads)).expect("compress");
            assert!(
                got == want,
                "{stem} at {threads} segments: container differs from the frozen bytes \
                 ({} vs {} bytes)",
                got.len(),
                want.len()
            );
        }
    }
}

#[test]
fn decoder_restores_every_committed_container() {
    let engine = Engine::new(2);
    for name in read_manifest().keys().filter(|n| n.ends_with(".jpg")) {
        let stem = name.trim_end_matches(".jpg");
        let jpeg = std::fs::read(golden_dir().join(name)).unwrap();
        for threads in THREADS {
            let lep = std::fs::read(golden_dir().join(container_name(stem, threads))).unwrap();
            let back = engine.decompress(&lep).expect("decompress");
            assert!(back == jpeg, "{stem} at {threads} segments: wrong bytes");
            let mut streamed = Vec::new();
            engine
                .decompress_streaming(&lep, &DecompressOptions::default(), &mut |b: &[u8]| {
                    streamed.extend_from_slice(b)
                })
                .expect("streaming decompress");
            assert!(streamed == jpeg, "{stem} at {threads} segments: streaming");
        }
    }
}

struct Recipe {
    stem: &'static str,
    scene: SceneKind,
    dims: (usize, usize),
    gray: bool,
    quality: u8,
    subsampling: Subsampling,
    restart_interval: u16,
    optimize_tables: bool,
    pad_bit: bool,
    /// Garbage after EOI (App. A.3, TV-preview style trailing data).
    trailing: bool,
}

impl Recipe {
    #[allow(clippy::too_many_arguments)]
    const fn new(
        stem: &'static str,
        scene: SceneKind,
        dims: (usize, usize),
        quality: u8,
        subsampling: Subsampling,
        restart_interval: u16,
        optimize_tables: bool,
        pad_bit: bool,
    ) -> Recipe {
        Recipe {
            stem,
            scene,
            dims,
            gray: false,
            quality,
            subsampling,
            restart_interval,
            optimize_tables,
            pad_bit,
            trailing: false,
        }
    }

    const fn gray(mut self) -> Recipe {
        self.gray = true;
        self
    }

    const fn trailing(mut self) -> Recipe {
        self.trailing = true;
        self
    }
}

/// Every scene, every subsampling (and grayscale), restart intervals
/// that do and do not divide the MCU row (interval 1 wraps the 3-bit
/// marker index many times), both table modes, both pad bits, partial
/// edge MCUs, and a file with bytes after EOI.
#[rustfmt::skip]
const RECIPES: [Recipe; 12] = {
    use SceneKind::*;
    use Subsampling::*;
    [
        Recipe::new("gradient-444", Gradient, (120, 88), 90, S444, 0, false, true),
        Recipe::new("landscape-420", Landscape, (160, 120), 85, S420, 0, false, true),
        Recipe::new("geometric-422-rst4", Geometric, (144, 96), 75, S422, 4, false, true),
        Recipe::new("textlike-420-opt-pad0", TextLike, (128, 104), 80, S420, 0, true, false),
        Recipe::new("noisy-444-rst3-opt", Noisy, (88, 72), 92, S444, 3, true, true),
        Recipe::new("landscape-gray", Landscape, (150, 110), 85, S444, 0, false, true).gray(),
        Recipe::new("gradient-420-rst7-opt-pad0", Gradient, (168, 120), 65, S420, 7, true, false),
        Recipe::new("geometric-444-opt", Geometric, (96, 96), 95, S444, 0, true, true),
        Recipe::new("textlike-422-rst5-pad0", TextLike, (136, 90), 55, S422, 5, false, false),
        Recipe::new("noisy-420-pad0", Noisy, (112, 112), 75, S420, 0, false, false),
        Recipe::new("landscape-422-trailing", Landscape, (140, 100), 90, S422, 0, false, true).trailing(),
        Recipe::new("gradient-420-rst1", Gradient, (176, 144), 85, S420, 1, false, true),
    ]
};

fn build(recipe: &Recipe, seed: u64) -> Vec<u8> {
    let (width, height) = recipe.dims;
    let rgb = synth_image(recipe.scene, width, height, seed);
    let data = if recipe.gray {
        PixelData::Gray(rgb.chunks(3).map(|p| p[1]).collect())
    } else {
        PixelData::Rgb(rgb)
    };
    let jpeg = encode_jpeg(
        &Image {
            width,
            height,
            data,
        },
        &EncodeOptions {
            quality: recipe.quality,
            subsampling: recipe.subsampling,
            restart_interval: recipe.restart_interval,
            optimize_tables: recipe.optimize_tables,
            pad_bit: recipe.pad_bit,
            comment: None,
            app0: true,
        },
    )
    .expect("encode");
    if recipe.trailing {
        corrupt::trailing_data(&jpeg, 37, seed)
    } else {
        jpeg
    }
}

/// Rewrites the files of `tests/golden/` from the recipes with *this*
/// build's encoder, leaving `chunked/` as it is. Run it only to version
/// the format on purpose:
/// `cargo test -p lepton_core --test golden_vectors -- --ignored`.
#[test]
#[ignore = "rewrites the frozen vectors"]
fn regenerate() {
    let dir = golden_dir();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::remove_file(entry.path()).unwrap();
        }
    }
    let engine = Engine::new(2);
    let mut manifest = BTreeMap::new();
    let mut put = |name: String, bytes: &[u8]| {
        std::fs::write(dir.join(&name), bytes).unwrap();
        manifest.insert(name, hex(&sha256(bytes)));
    };
    for (i, recipe) in RECIPES.iter().enumerate() {
        let jpeg = build(recipe, 0x601D + i as u64);
        put(format!("{}.jpg", recipe.stem), &jpeg);
        for threads in THREADS {
            let lep = engine.compress(&jpeg, &opts(threads)).expect("compress");
            put(container_name(recipe.stem, threads), &lep);
        }
    }
    let text: String = manifest
        .iter()
        .map(|(name, digest)| format!("{digest}  {name}\n"))
        .collect();
    std::fs::write(dir.join("SHA256SUMS"), text).unwrap();
}
