//! Figure 2: savings + encode/decode speed percentiles for every codec,
//! over the full §4 population (rejects included).

use lepton_baselines::all_codecs;
use lepton_bench::{bench_file_count, header, mixed_corpus, timed};
use lepton_obs::nearest_rank;

fn main() {
    header(
        "Figure 2",
        "savings and speed of all codecs, rejects included",
    );
    let corpus = mixed_corpus(bench_file_count(30), 0xF162);
    let total_in: usize = corpus.files.iter().map(|f| f.data.len()).sum();
    println!(
        "{:<22} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "codec", "savings", "enc p50", "enc p99", "dec p50", "dec p99"
    );
    for c in all_codecs() {
        let mut total_out = 0usize;
        let mut enc_t = Vec::new();
        let mut dec_t = Vec::new();
        for f in &corpus.files {
            let (enc, es) = timed(|| c.encode(&f.data).expect("encode"));
            let (out, ds) = timed(|| c.decode(&enc, f.data.len()).expect("decode"));
            assert_eq!(out, f.data, "{} roundtrip", c.name());
            total_out += enc.len();
            enc_t.push(es);
            dec_t.push(ds);
        }
        enc_t.sort_by(f64::total_cmp);
        dec_t.sort_by(f64::total_cmp);
        println!(
            "{:<22} {:>7.1}% {:>9.3}s {:>9.3}s {:>9.3}s {:>9.3}s",
            c.name(),
            100.0 * (1.0 - total_out as f64 / total_in as f64),
            nearest_rank(&enc_t, 50.0),
            nearest_rank(&enc_t, 99.0),
            nearest_rank(&dec_t, 50.0),
            nearest_rank(&dec_t, 99.0),
        );
    }
    println!("\nnote: Lepton/PAQ encode times include the production round-trip");
    println!("verification (admission rule); the others do not verify.");
}
