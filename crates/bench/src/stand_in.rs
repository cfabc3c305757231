//! The stand-in figures: Lepton against the `lepton_baselines`
//! stand-ins for PackJPG, PAQ8PX, MozJPEG, JPEGrescan and the generic
//! compressors (Figs. 1–3). The other rows are *classes* of those
//! codecs, not the codecs (DESIGN §5).

use crate::json::Fields;
use crate::{
    bench_corpus, bench_file_count, mbps, mixed_corpus, ranks, temp_root, timed, vm_hwm_kib,
};
use lepton_baselines::{
    all_codecs, Codec, JpegRescanCodec, LeptonCodec, MozArithCodec, PackJpgCodec,
};
use lepton_core::{compress, decompress_streaming, CompressOptions, DecompressOptions};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Fig. 1's percentiles.
const QUARTILES: [f64; 3] = [25.0, 50.0, 75.0];

/// Encode `f`, decode it back and assert the round trip: the encoding
/// and the seconds each direction took.
fn round_trip(c: &dyn Codec, f: &[u8]) -> (Vec<u8>, f64, f64) {
    let (enc, enc_secs) = timed(|| c.encode(f).expect("encode"));
    let (out, dec_secs) = timed(|| c.decode(&enc, f.len()).expect("decode"));
    assert_eq!(out, f, "{} roundtrip", c.name());
    (enc, enc_secs, dec_secs)
}

/// Figure 1: compression savings vs decompression speed for the four
/// JPEG-aware codecs (25th/50th/75th percentiles over the corpus).
pub(crate) fn fig1_tradeoff() -> Option<Fields> {
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
            let (enc, _, secs) = round_trip(c.as_ref(), f);
            savings.push(100.0 * (1.0 - enc.len() as f64 / f.len() as f64));
            speeds.push(mbps(f.len(), secs));
        }
        let [s25, s50, s75] = ranks(&mut savings, QUARTILES);
        let [d25, d50, d75] = ranks(&mut speeds, QUARTILES);
        println!(
            "{:<18} {s25:>6.1}% {s50:>6.1}% {s75:>6.1}%   {d25:>7.0}Mb {d50:>7.0}Mb {d75:>7.0}Mb",
            c.name(),
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
    let ([ttfb], [ttlb]) = (ranks(&mut lep_ttfb, [50.0]), ranks(&mut lep_total, [50.0]));
    println!(
        "\nLepton streaming: time-to-first-byte p50 {ttfb:.1} ms vs time-to-last-byte p50 {ttlb:.1} ms"
    );
    println!("(global-sort codecs have TTFB == TTLB by construction)");
    None
}

/// Figure 2: savings + encode/decode speed percentiles for every codec,
/// over the full §4 population (rejects included).
pub(crate) fn fig2_codecs() -> Option<Fields> {
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
            let (enc, es, ds) = round_trip(c.as_ref(), &f.data);
            total_out += enc.len();
            enc_t.push(es);
            dec_t.push(ds);
        }
        let [e50, e99] = ranks(&mut enc_t, [50.0, 99.0]);
        let [d50, d99] = ranks(&mut dec_t, [50.0, 99.0]);
        let savings = 100.0 * (1.0 - total_out as f64 / total_in as f64);
        println!(
            "{:<22} {savings:>7.1}% {e50:>9.3}s {e99:>9.3}s {d50:>9.3}s {d99:>9.3}s",
            c.name()
        );
    }
    println!("\nnote: Lepton/PAQ encode times include the production round-trip");
    println!("verification (admission rule); the others do not verify.");
    None
}

/// The first argument of a fig3 child run (internal, not a user
/// option; `figures::main` hands the rest to [`fig3_child`]).
pub(crate) const CHILD: &str = "fig3-child";

/// Figure 3: max resident memory per codec (encode and decode),
/// measured per process as the paper did: each (codec, operation, file)
/// re-runs this program as a child that performs that one operation and
/// prints how far its peak resident set (`VmHWM`) rose, in KiB.
pub(crate) fn fig3_memory() -> Option<Fields> {
    if vm_hwm_kib().is_none() {
        println!("n/a: this host has no VmHWM in /proc/self/status");
        return None;
    }
    let files = bench_corpus(bench_file_count(16), 512, 0xF163);
    let dir = temp_root("fig3");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "codec", "enc p50", "enc p99", "dec p50", "dec p99"
    );
    let (input, encoded) = (dir.join("in.jpg"), dir.join("in.enc"));
    for (ci, c) in all_codecs().iter().enumerate() {
        let (mut enc_peaks, mut dec_peaks) = (Vec::new(), Vec::new());
        for f in &files {
            // Encode once in-process, check the round trip, and hand
            // both sides to the children as files.
            let (enc, _, _) = round_trip(c.as_ref(), f);
            std::fs::write(&input, f).expect("write input");
            std::fs::write(&encoded, &enc).expect("write encoding");
            enc_peaks.push(child_peak_mib(ci, "encode", f.len(), &input));
            dec_peaks.push(child_peak_mib(ci, "decode", f.len(), &encoded));
        }
        let [e50, e99] = ranks(&mut enc_peaks, [50.0, 99.0]);
        let [d50, d99] = ranks(&mut dec_peaks, [50.0, 99.0]);
        println!(
            "{:<22} {e50:>9.1}M {e99:>9.1}M {d50:>9.1}M {d99:>9.1}M",
            c.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("\npaper shape: Lepton decode stays in tens of MiB (streaming row-by-row);");
    println!("global-sort codecs hold whole coefficient planes.");
    None
}

/// Run one operation in a fresh child process; its `VmHWM` rise in MiB.
fn child_peak_mib(codec: usize, op: &str, original_len: usize, input: &Path) -> f64 {
    let out = Command::new(std::env::current_exe().expect("own executable"))
        .args([CHILD, &codec.to_string(), op])
        .arg(original_len.to_string())
        .arg(input)
        .output()
        .expect("spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let kib: u64 = stdout.trim().parse().unwrap_or_else(|_| {
        panic!("{op} child: {}", String::from_utf8_lossy(&out.stderr));
    });
    kib as f64 / 1024.0
}

/// Child side (`paperfigs fig3-child <codec> <op> <original len>
/// <input>`): run `op` once on `input` and print the KiB `VmHWM` rose.
pub(crate) fn fig3_child(args: &[&str]) -> u8 {
    let [codec, op, original_len, input] = args else {
        eprintln!("paperfigs: {CHILD} takes <codec> <op> <original len> <input>");
        return 1;
    };
    let codec = &all_codecs()[codec.parse::<usize>().expect("codec index")];
    let data = std::fs::read(input).expect("read input");
    let before = vm_hwm_kib().expect("VmHWM");
    let out = match *op {
        "encode" => codec.encode(&data),
        _ => codec.decode(&data, original_len.parse().expect("original length")),
    };
    let after = vm_hwm_kib().expect("VmHWM");
    out.expect("operation");
    println!("{}", after - before);
    0
}
