//! Figure 3: max resident memory per codec (encode and decode),
//! measured per process as the paper did: each (codec, operation, file)
//! re-runs this binary as a child that performs that one operation and
//! prints how far its peak resident set (`VmHWM`) rose, in KiB.

use lepton_baselines::all_codecs;
use lepton_bench::{bench_corpus, bench_file_count, header, vm_hwm_kib};
use lepton_obs::nearest_rank;
use std::path::Path;
use std::process::Command;

/// First argument of a child run (internal, not a user option).
const CHILD: &str = "fig3-child";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, codec, op, original_len, input] = &args[..] {
        if flag == CHILD {
            return child(codec, op, original_len, input);
        }
    }
    header(
        "Figure 3",
        "max resident memory per codec (MiB), p50/p99 across files",
    );
    if vm_hwm_kib().is_none() {
        println!("n/a: this host has no VmHWM in /proc/self/status");
        return;
    }
    let files = bench_corpus(bench_file_count(16), 512, 0xF163);
    let dir = std::env::temp_dir().join(format!("lepton-fig3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
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
            let enc = c.encode(f).expect("encode");
            assert_eq!(c.decode(&enc, f.len()).expect("decode"), *f);
            std::fs::write(&input, f).expect("write input");
            std::fs::write(&encoded, &enc).expect("write encoding");
            enc_peaks.push(child_peak_mib(ci, "encode", f.len(), &input));
            dec_peaks.push(child_peak_mib(ci, "decode", f.len(), &encoded));
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
    let _ = std::fs::remove_dir_all(&dir);
    println!("\npaper shape: Lepton decode stays in tens of MiB (streaming row-by-row);");
    println!("global-sort codecs hold whole coefficient planes.");
}

/// Run one operation in a fresh child process; its `VmHWM` rise in MiB.
fn child_peak_mib(codec: usize, op: &str, original_len: usize, input: &Path) -> f64 {
    let out = Command::new(std::env::current_exe().expect("own executable"))
        .args([CHILD, &codec.to_string(), op, &original_len.to_string()])
        .arg(input)
        .output()
        .expect("spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let kib: u64 = stdout.trim().parse().unwrap_or_else(|_| {
        panic!("{op} child: {}", String::from_utf8_lossy(&out.stderr));
    });
    kib as f64 / 1024.0
}

/// Child side: run `op` once on `input` and print the KiB `VmHWM` rose.
fn child(codec: &str, op: &str, original_len: &str, input: &str) {
    let codec = &all_codecs()[codec.parse::<usize>().expect("codec index")];
    let data = std::fs::read(input).expect("read input");
    let before = vm_hwm_kib().expect("VmHWM");
    let out = match op {
        "encode" => codec.encode(&data),
        _ => codec.decode(&data, original_len.parse().expect("original length")),
    };
    let after = vm_hwm_kib().expect("VmHWM");
    out.expect("operation");
    println!("{}", after - before);
}
