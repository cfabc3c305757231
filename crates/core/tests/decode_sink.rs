//! `decompress_into` is the one decode implementation; every other
//! entry adapts it. These tests pin what the adapters and the sink
//! contract promise: identical bytes from every entry, `begin` once
//! with the exact size before the first fragment, an early first
//! fragment per segment, and a refusal that cancels the whole decode.

use lepton_core::format::read_container;
use lepton_core::{
    compress, decompress, decompress_into, decompress_opts, decompress_streaming, CompressOptions,
    DecodeError, DecodeSink, DecompressOptions, Engine, ThreadPolicy,
};
use lepton_corpus::{synth_image, SceneKind};
use lepton_jpeg::encoder::{encode_jpeg, EncodeOptions, Image, PixelData, Subsampling};
use std::io;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Every committed `(container, original JPEG)` pair.
fn golden_pairs() -> Vec<(String, Vec<u8>, Vec<u8>)> {
    let mut pairs = Vec::new();
    for entry in std::fs::read_dir(golden_dir()).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        if let Some(stem) = name
            .strip_suffix(".t1.lep")
            .or_else(|| name.strip_suffix(".t4.lep"))
        {
            let jpeg = std::fs::read(golden_dir().join(format!("{stem}.jpg"))).unwrap();
            pairs.push((name, std::fs::read(&path).unwrap(), jpeg));
        }
    }
    assert!(pairs.len() >= 2, "golden set missing");
    pairs
}

/// A photo big enough that every segment emits several fragments.
fn photo(width: usize, height: usize, seed: u64) -> Vec<u8> {
    let img = Image {
        width,
        height,
        data: PixelData::Rgb(synth_image(SceneKind::Noisy, width, height, seed)),
    };
    let opts = EncodeOptions {
        quality: 92,
        subsampling: Subsampling::S420,
        ..Default::default()
    };
    encode_jpeg(&img, &opts).unwrap()
}

fn container(jpeg: &[u8], segments: usize) -> Vec<u8> {
    let opts = CompressOptions {
        threads: ThreadPolicy::Fixed(segments),
        ..Default::default()
    };
    compress(jpeg, &opts).unwrap()
}

/// Records the sink protocol as the decoder drives it.
#[derive(Default)]
struct Recorder {
    begun: Vec<usize>,
    fragments: Vec<usize>,
    bytes: Vec<u8>,
    /// Refuse every fragment once this many have been accepted.
    accept: Option<usize>,
}

impl DecodeSink for Recorder {
    fn begin(&mut self, output_size: usize) -> io::Result<()> {
        assert!(self.fragments.is_empty(), "begin after a fragment");
        self.begun.push(output_size);
        Ok(())
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        assert_eq!(self.begun.len(), 1, "fragment before begin");
        assert!(!bytes.is_empty(), "empty fragment");
        if self.accept.is_some_and(|n| self.fragments.len() >= n) {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        self.fragments.push(bytes.len());
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }
}

fn check_every_entry(label: &str, lep: &[u8], jpeg: &[u8]) {
    let opts = DecompressOptions::default();
    assert!(decompress(lep).unwrap() == jpeg, "{label}: decompress");
    assert!(
        decompress_opts(lep, &opts).unwrap() == jpeg,
        "{label}: decompress_opts"
    );
    let mut streamed = Vec::new();
    decompress_streaming(lep, &opts, &mut |b: &[u8]| streamed.extend_from_slice(b)).unwrap();
    assert!(streamed == jpeg, "{label}: decompress_streaming");
    let mut rec = Recorder::default();
    decompress_into(lep, &opts, &mut rec).unwrap();
    assert!(rec.bytes == jpeg, "{label}: decompress_into");
    assert_eq!(rec.begun, [jpeg.len()], "{label}: announced size");
}

#[test]
fn every_entry_restores_the_golden_set() {
    for (name, lep, jpeg) in golden_pairs() {
        check_every_entry(&name, &lep, &jpeg);
    }
}

#[test]
fn every_entry_agrees_across_segment_counts() {
    let jpeg = photo(640, 480, 3);
    for segments in [1, 2, 3, 5, 8] {
        let lep = container(&jpeg, segments);
        check_every_entry(&format!("{segments} segments"), &lep, &jpeg);
    }
}

/// A refused container never meets the sink at all.
#[test]
fn refused_containers_never_begin() {
    let jpeg = photo(320, 240, 4);
    let lep = container(&jpeg, 2);
    let starved = DecompressOptions {
        budget: lepton_core::ResourceBudget {
            decode_bytes: 1 << 10,
            ..Default::default()
        },
        ..Default::default()
    };
    for (bad, opts) in [
        (&lep[..lep.len() / 2], DecompressOptions::default()),
        (
            &b"not a container at all, not even close"[..],
            Default::default(),
        ),
        (&lep[..], starved),
    ] {
        let mut rec = Recorder::default();
        let err = decompress_into(bad, &opts, &mut rec).unwrap_err();
        assert!(matches!(err, DecodeError::Codec(_)), "{err}");
        assert!(rec.begun.is_empty() && rec.fragments.is_empty());
    }
}

/// A segment's first fragment leaves at 4 KiB pending (plus whatever
/// the MCU that crossed the line added); later ones at 32 KiB.
#[test]
fn first_fragment_of_every_segment_is_early() {
    const FIRST: usize = 4 << 10;
    const STEADY: usize = 32 << 10;
    // Far above any MCU of this photo (six blocks, a few hundred bytes).
    const MCU_SLACK: usize = 2 << 10;
    let jpeg = photo(1280, 960, 5);
    for segments in [1, 4] {
        let lep = container(&jpeg, segments);
        let header = read_container(&lep).unwrap().header;
        let mut rec = Recorder::default();
        decompress_into(&lep, &DecompressOptions::default(), &mut rec).unwrap();
        assert!(rec.bytes == jpeg);

        // Walk the fragments against the segment table.
        let mut frags = rec.fragments.iter().copied();
        assert_eq!(frags.next(), Some(header.jpeg_header.len()));
        if !header.prepend.is_empty() {
            assert_eq!(frags.next(), Some(header.prepend.len()));
        }
        for (i, seg) in header.segments.iter().enumerate() {
            let mut left = seg.out_bytes as usize;
            assert!(
                left > 2 * STEADY,
                "segment {i} too small to show cadence: {left}"
            );
            let first = frags.next().unwrap();
            assert!(
                (FIRST..FIRST + MCU_SLACK).contains(&first),
                "segment {i}: first fragment {first}"
            );
            left -= first;
            while left > 0 {
                let next = frags.next().unwrap();
                assert!(next <= left, "segment {i}: fragment crosses segments");
                left -= next;
                // Only a segment's tail may be short.
                assert!(next < STEADY + MCU_SLACK, "segment {i}: {next}");
                assert!(next >= STEADY || left == 0, "segment {i}: {next}");
            }
        }
        assert_eq!(frags.next(), Some(header.append.len()));
        assert_eq!(frags.next(), None);
    }
}

/// A refusing sink cancels: the call returns the sink's error, every
/// segment job has returned (nothing queued, nothing running against
/// the caller's borrows), and the engine serves the next decode.
#[test]
fn refusing_sink_cancels_the_decode() {
    let jpeg = photo(1280, 960, 6);
    for segments in [1, 4, 8] {
        let lep = container(&jpeg, segments);
        // Refuse at the first decoded fragment, and a few in.
        for accept in [1, 4] {
            let engine = Engine::new(2);
            let mut rec = Recorder {
                accept: Some(accept),
                ..Default::default()
            };
            let err = engine
                .decompress_into(&lep, &DecompressOptions::default(), &mut rec)
                .unwrap_err();
            match err {
                DecodeError::Sink(e) => assert_eq!(e.kind(), io::ErrorKind::BrokenPipe),
                other => panic!("{segments} segments: expected the sink's error, got {other}"),
            }
            assert_eq!(rec.fragments.len(), accept, "nothing after the refusal");
            assert!(jpeg.starts_with(&rec.bytes), "accepted bytes are a prefix");
            assert_eq!(
                engine.queue_depth(),
                0,
                "{segments} segments: jobs left queued"
            );
            assert!(engine.decompress(&lep).unwrap() == jpeg, "engine reusable");
        }
    }
}
