//! Streaming decode: compress a JPEG into one container, then decode it
//! into a `DecodeSink` that learns the output size first and receives
//! the bytes in file order while later thread segments are still
//! decoding — the §3.4 serving path, where a blockserver starts sending
//! before the whole file is rebuilt.
//!
//! Run with: `cargo run --release --example streaming_decode`

use lepton::codec::{
    compress, decompress_into, CompressOptions, DecodeSink, DecompressOptions, ThreadPolicy,
};
use lepton::corpus::builder::{clean_jpeg, CorpusSpec};

/// A consumer of streamed output that checks every fragment against the
/// original as it arrives (an `Err` from `write` would cancel the
/// decode — what a server does when its client hangs up).
struct Download<'a> {
    original: &'a [u8],
    expected: Option<usize>,
    received: usize,
    fragments: usize,
}

impl DecodeSink for Download<'_> {
    fn begin(&mut self, output_size: usize) -> std::io::Result<()> {
        assert_eq!(self.fragments, 0, "the size comes before any fragment");
        self.expected = Some(output_size);
        Ok(())
    }

    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        assert!(self.expected.is_some(), "a fragment came before the size");
        let at = self.received;
        assert_eq!(
            bytes,
            &self.original[at..at + bytes.len()],
            "fragment {} is not the next run of the file",
            self.fragments
        );
        self.received += bytes.len();
        self.fragments += 1;
        Ok(())
    }
}

fn main() {
    let spec = CorpusSpec {
        min_dim: 640,
        max_dim: 768,
        ..Default::default()
    };
    let jpeg = clean_jpeg(&spec, 99);
    let opts = CompressOptions {
        threads: ThreadPolicy::Fixed(4),
        ..Default::default()
    };
    let container = compress(&jpeg, &opts).expect("compression");
    println!(
        "JPEG of {} bytes -> {} byte container in 4 segments ({:.1}% savings)",
        jpeg.len(),
        container.len(),
        100.0 * (1.0 - container.len() as f64 / jpeg.len() as f64)
    );

    let mut download = Download {
        original: &jpeg,
        expected: None,
        received: 0,
        fragments: 0,
    };
    decompress_into(&container, &DecompressOptions::default(), &mut download)
        .expect("streaming decode");
    assert_eq!(download.expected, Some(jpeg.len()));
    assert_eq!(download.received, jpeg.len());
    assert!(download.fragments > 1, "the body arrived in one piece");
    println!(
        "size announced first, then {} fragments in file order, byte-exact ✓",
        download.fragments
    );
}
