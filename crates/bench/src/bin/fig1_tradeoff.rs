//! Figure 1: compression savings vs decompression speed for the four
//! JPEG-aware codecs (25th/50th/75th percentiles over the corpus).

use lepton_baselines::{Codec, JpegRescanCodec, LeptonCodec, MozArithCodec, PackJpgCodec};
use lepton_bench::{bench_corpus, bench_file_count, header, mbps, timed};
use lepton_core::{compress, decompress_streaming, CompressOptions, DecompressOptions};
use lepton_obs::nearest_rank;
use std::time::Instant;

fn main() {
    header(
        "Figure 1",
        "savings vs decompression speed, JPEG-aware codecs",
    );
    let files = bench_corpus(bench_file_count(24), 640, 0xF161);
    let codecs: Vec<Box<dyn Codec>> = vec![
        Box::new(LeptonCodec::multithreaded()),
        Box::new(PackJpgCodec),
        Box::new(MozArithCodec),
        Box::new(JpegRescanCodec),
    ];
    println!(
        "{:<18} {:>7} {:>7} {:>7}   {:>8} {:>8} {:>8}",
        "codec", "sav p25", "sav p50", "sav p75", "dec p25", "dec p50", "dec p75"
    );
    for c in &codecs {
        let mut savings = Vec::new();
        let mut speeds = Vec::new();
        for f in &files {
            let enc = c.encode(f).expect("encode");
            savings.push(100.0 * (1.0 - enc.len() as f64 / f.len() as f64));
            let (out, secs) = timed(|| c.decode(&enc, f.len()).expect("decode"));
            assert_eq!(out, *f);
            speeds.push(mbps(f.len(), secs));
        }
        savings.sort_by(f64::total_cmp);
        speeds.sort_by(f64::total_cmp);
        println!(
            "{:<18} {:>6.1}% {:>6.1}% {:>6.1}%   {:>7.0}Mb {:>7.0}Mb {:>7.0}Mb",
            c.name(),
            nearest_rank(&savings, 25.0),
            nearest_rank(&savings, 50.0),
            nearest_rank(&savings, 75.0),
            nearest_rank(&speeds, 25.0),
            nearest_rank(&speeds, 50.0),
            nearest_rank(&speeds, 75.0),
        );
    }
    println!("\npaper shape: Lepton matches PackJPG-class savings while decoding much faster;");
    println!("MozJPEG/JPEGrescan decode fast but save less.");

    // The streaming axis the paper emphasizes: time-to-FIRST-byte.
    // Lepton streams output while later segments still decode; the
    // global-sort class cannot emit anything until the whole file is done.
    let mut lep_ttfb = Vec::new();
    let mut lep_total = Vec::new();
    let opts = CompressOptions {
        verify: false,
        ..Default::default()
    };
    for f in &files {
        let enc = compress(f, &opts).expect("enc");
        let t0 = Instant::now();
        let mut first: Option<f64> = None;
        let mut out = Vec::new();
        decompress_streaming(&enc, &DecompressOptions::default(), &mut |b: &[u8]| {
            if first.is_none() {
                first = Some(t0.elapsed().as_secs_f64());
            }
            out.extend_from_slice(b);
        })
        .expect("dec");
        lep_total.push(t0.elapsed().as_secs_f64() * 1000.0);
        lep_ttfb.push(first.expect("some output") * 1000.0);
        assert_eq!(out, *f);
    }
    lep_ttfb.sort_by(f64::total_cmp);
    lep_total.sort_by(f64::total_cmp);
    println!(
        "\nLepton streaming: time-to-first-byte p50 {:.1} ms vs time-to-last-byte p50 {:.1} ms",
        nearest_rank(&lep_ttfb, 50.0),
        nearest_rank(&lep_total, 50.0)
    );
    println!("(global-sort codecs have TTFB == TTLB by construction)");
}
