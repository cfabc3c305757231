//! Distribution across independent chunks + streaming decode: split a
//! JPEG at hard 64 KiB boundaries, compress each chunk independently,
//! then decode an arbitrary middle chunk by itself and stream another —
//! the §3.4 serving path.
//!
//! Run with: `cargo run --release --example streaming_chunks`

use lepton::codec::{
    compress_chunked, decompress, decompress_into, CompressOptions, DecodeSink, DecompressOptions,
};
use lepton::corpus::builder::{clean_jpeg, CorpusSpec};

/// A consumer of streamed output: told the size first, then handed the
/// fragments in file order (an `Err` from `write` would cancel the
/// decode — what a server does when its client hangs up).
#[derive(Default)]
struct Download {
    expected: usize,
    fragments: usize,
    received: Vec<u8>,
}

impl DecodeSink for Download {
    fn begin(&mut self, output_size: usize) -> std::io::Result<()> {
        self.expected = output_size;
        Ok(())
    }

    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.fragments += 1;
        self.received.extend_from_slice(bytes);
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
    let chunk_size = 64 << 10;
    println!(
        "JPEG of {} bytes, chunked at {} KiB",
        jpeg.len(),
        chunk_size >> 10
    );

    let chunks = compress_chunked(&jpeg, chunk_size, &CompressOptions::default())
        .expect("chunked compression");
    println!("{} independent Lepton containers:", chunks.len());
    for (i, c) in chunks.iter().enumerate() {
        let orig = (jpeg.len() - i * chunk_size).min(chunk_size);
        println!(
            "  chunk {i}: {:>7} -> {:>7} bytes ({:.1}% savings)",
            orig,
            c.len(),
            100.0 * (1.0 - c.len() as f64 / orig as f64)
        );
    }

    // Serve only the middle chunk — no other chunk needed (the paper's
    // "decompress any substring" requirement).
    let mid = chunks.len() / 2;
    let part = decompress(&chunks[mid]).expect("independent decode");
    let start = mid * chunk_size;
    let end = ((mid + 1) * chunk_size).min(jpeg.len());
    assert_eq!(part, jpeg[start..end]);
    println!("middle chunk decoded independently ✓");

    // Stream the first chunk: its size is known before the first
    // fragment, and fragments arrive in order, early.
    let mut download = Download::default();
    decompress_into(&chunks[0], &DecompressOptions::default(), &mut download)
        .expect("streaming decode");
    assert_eq!(download.expected, chunk_size.min(jpeg.len()));
    assert_eq!(download.received, jpeg[..download.expected]);
    println!(
        "chunk 0 ({} bytes) streamed in {} fragments ✓",
        download.expected, download.fragments
    );

    // Reassemble everything.
    let mut whole = Vec::new();
    for c in &chunks {
        whole.extend(decompress(c).expect("decode"));
    }
    assert_eq!(whole, jpeg);
    println!("full reassembly byte-exact ✓");
}
