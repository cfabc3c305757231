//! Figure 3: max resident memory per codec (encode and decode),
//! measured with the tracking allocator.

use lepton_baselines::all_codecs;
use lepton_bench::{bench_corpus, bench_file_count, header, TrackingAlloc};
use lepton_obs::nearest_rank;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

fn main() {
    header(
        "Figure 3",
        "peak memory per codec (MiB), p50/p99 across files",
    );
    let files = bench_corpus(bench_file_count(16), 512, 0xF163);
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "codec", "enc p50", "enc p99", "dec p50", "dec p99"
    );
    for c in all_codecs() {
        let mut enc_peaks = Vec::new();
        let mut dec_peaks = Vec::new();
        for f in &files {
            ALLOC.reset_peak();
            let enc = c.encode(f).expect("encode");
            enc_peaks
                .push((ALLOC.peak() - ALLOC.live().min(ALLOC.peak())) as f64 / (1 << 20) as f64);
            ALLOC.reset_peak();
            let out = c.decode(&enc, f.len()).expect("decode");
            assert_eq!(out, *f);
            dec_peaks
                .push((ALLOC.peak() - ALLOC.live().min(ALLOC.peak())) as f64 / (1 << 20) as f64);
        }
        enc_peaks.sort_by(f64::total_cmp);
        dec_peaks.sort_by(f64::total_cmp);
        println!(
            "{:<22} {:>9.1}M {:>9.1}M {:>9.1}M {:>9.1}M",
            c.name(),
            nearest_rank(&enc_peaks, 50.0),
            nearest_rank(&enc_peaks, 99.0),
            nearest_rank(&dec_peaks, 50.0),
            nearest_rank(&dec_peaks, 99.0),
        );
    }
    println!("\npaper shape: Lepton decode stays in tens of MiB (streaming row-by-row);");
    println!("global-sort codecs hold whole coefficient planes.");
}
