//! Corruption torture rig over every codec entry point.
//!
//! Feeds the full seeded mutation matrix (every [`MutationKind`] ×
//! seed, plus pristine bases and the handcrafted hostile set) through
//! `compress`, `decompress`, `decompress_streaming`, and the explicit
//! `Engine` paths, asserting the tri-state contract: byte-exact output,
//! or a typed error on a non-operational taxonomy row — never a panic.
//! The decode side also mutates two committed header-skip chunk
//! containers (`golden/chunked/`), a shape this build reads but no
//! longer writes.
//!
//! Wrong-bytes is gated where it is well-defined: pristine inputs must
//! round-trip exactly, compression runs with `verify: true` (a decode
//! mismatch surfaces as `RoundtripFailed`), and whole-buffer vs
//! streaming decode must agree byte-for-byte whenever both accept.
//!
//! Runs in quick mode by default (fixed seeds, small matrix) so CI's
//! fuzz-smoke job stays bounded; set `TORTURE_FULL=1` for a wider
//! sweep.

use lepton_core::format::read_container;
use lepton_core::{
    compress, decompress, decompress_streaming, CompressOptions, DecompressOptions, Engine,
    LeptonError, ThreadPolicy,
};
use lepton_corpus::rig::{self, RigCase};
use lepton_corpus::{hostile_cases, mutation_matrix, probe, Corpus, CorpusSpec};

fn seeds() -> Vec<u64> {
    if std::env::var_os("TORTURE_FULL").is_some() {
        (0..6).map(|i| 0xF00D + i * 0x1111).collect()
    } else {
        vec![0xF00D, 0xBEEF]
    }
}

fn base_jpegs() -> Vec<(String, Vec<u8>)> {
    Corpus::generate(&CorpusSpec {
        count: 2,
        min_dim: 64,
        max_dim: 160,
        clean_fraction: 1.0,
        seed: 0x7012_7123,
    })
    .files
    .into_iter()
    .enumerate()
    .map(|(i, f)| (format!("jpeg{i}"), f.data))
    .collect()
}

fn jpeg_cases() -> Vec<RigCase> {
    let bases = base_jpegs();
    let named: Vec<(&str, Vec<u8>)> = bases.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
    let mut cases = mutation_matrix(&named, &seeds());
    cases.extend(hostile_cases());
    cases
}

/// A middle and the final chunk container of `noisy-444-rst3-opt`
/// (1 KiB chunks, restart markers): neither carries the JPEG header.
fn committed_chunk_containers() -> Vec<(String, Vec<u8>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chunked");
    [
        "noisy-444-rst3-opt.c1k.3.lep",
        "noisy-444-rst3-opt.c1k.6.lep",
    ]
    .into_iter()
    .map(|name| {
        let bytes = std::fs::read(dir.join(name)).expect("committed chunk container");
        let header = read_container(&bytes).expect("container parses").header;
        assert!(!header.emit_header, "{name} must skip the JPEG header");
        (name.to_string(), bytes)
    })
    .collect()
}

fn container_cases() -> Vec<RigCase> {
    let opts = CompressOptions::default();
    let mut named: Vec<(String, Vec<u8>)> = base_jpegs()
        .into_iter()
        .map(|(n, d)| {
            (
                format!("{n}.lep"),
                compress(&d, &opts).expect("clean base compresses"),
            )
        })
        .collect();
    named.extend(committed_chunk_containers());
    let named_refs: Vec<(&str, Vec<u8>)> =
        named.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
    mutation_matrix(&named_refs, &seeds())
}

#[test]
fn compress_survives_the_matrix() {
    let opts = CompressOptions::default(); // verify: true → wrong bytes impossible
    let report = rig::run(&jpeg_cases(), |input| {
        compress(input, &opts).map(|c| c.len())
    });
    report.assert_clean();
    // The pristine bases must be among the accepted inputs.
    assert!(report.accepted >= 2, "pristine bases must compress");
}

#[test]
fn decompress_survives_the_matrix_and_agrees_with_streaming() {
    let dopts = DecompressOptions::default();
    let cases = container_cases();
    let report = rig::run(&cases, |input| decompress(input).map(|j| j.len()));
    report.assert_clean();

    // Streaming decode: same contract, and byte-agreement with the
    // whole-buffer path whenever both accept.
    let mut violations: Vec<String> = Vec::new();
    for case in &cases {
        let whole = probe(|| decompress(&case.input));
        let streamed = probe(|| {
            let mut out = Vec::new();
            decompress_streaming(&case.input, &dopts, &mut |b| out.extend_from_slice(b))
                .map(|()| out)
        });
        match (whole, streamed) {
            (Err(p), _) | (_, Err(p)) => violations.push(format!("{}: PANIC: {p}", case.label)),
            (Ok(Ok(a)), Ok(Ok(b))) if a != b => violations.push(format!(
                "{}: whole-buffer and streaming decode disagree ({} vs {} bytes)",
                case.label,
                a.len(),
                b.len()
            )),
            (Ok(Ok(_)), Ok(Err(e))) | (Ok(Err(e)), Ok(Ok(_))) => violations.push(format!(
                "{}: one decode path accepted, the other refused: {e}",
                case.label
            )),
            _ => {}
        }
    }
    assert!(
        violations.is_empty(),
        "decode-path divergence:\n{}",
        violations.join("\n")
    );
}

#[test]
fn pristine_containers_round_trip_byte_exactly() {
    let opts = CompressOptions::default();
    for (name, jpeg) in base_jpegs() {
        let container = compress(&jpeg, &opts).unwrap();
        assert_eq!(decompress(&container).unwrap(), jpeg, "{name}");
    }
}

#[test]
fn engine_paths_survive_the_matrix() {
    // Explicit pools at both segment policies: the inline single-thread
    // path and the pipelined batch path must honor the same contract.
    for workers in [1usize, 3] {
        let engine = Engine::new(workers);
        let opts = CompressOptions {
            threads: ThreadPolicy::Fixed(workers),
            ..Default::default()
        };
        let report = rig::run(&jpeg_cases(), |input| {
            engine.compress(input, &opts).map(|c| c.len())
        });
        report.assert_clean();

        let report = rig::run(&container_cases(), |input| {
            engine.decompress(input).map(|j| j.len())
        });
        report.assert_clean();
    }
}

/// The committed golden JPEGs, by file name.
fn golden_jpegs() -> Vec<RigCase> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut cases: Vec<RigCase> = std::fs::read_dir(&dir)
        .expect("golden dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jpg"))
        .map(|p| RigCase {
            label: p.file_name().unwrap().to_string_lossy().into_owned(),
            input: std::fs::read(&p).expect("golden jpeg"),
        })
        .collect();
    cases.sort_by(|a, b| a.label.cmp(&b.label));
    cases
}

#[test]
fn streamed_verify_agrees_with_the_whole_buffer_oracle() {
    // The admission verify decodes each segment as it is encoded and
    // checks the assembly; the oracle is the old, independent shape: an
    // unverified container, decoded whole and compared. `verify: true`
    // must accept exactly what the oracle accepts, with the same bytes,
    // and refuse everything else — on the shared pool and on a pool
    // whose one worker is also the only helper. The golden JPEGs also
    // run at 2 and 8 segments.
    let cases: Vec<(RigCase, &[usize])> = jpeg_cases()
        .into_iter()
        .map(|c| (c, &[1, 4][..]))
        .chain(golden_jpegs().into_iter().map(|c| (c, &[1, 2, 4, 8][..])))
        .collect();
    let single = Engine::new(1);
    let engines = [("global", Engine::global()), ("1 worker", &single)];
    let mut violations = Vec::new();
    let mut refused = 0;
    for (case, policies) in &cases {
        for &n in *policies {
            let off = CompressOptions {
                threads: ThreadPolicy::Fixed(n),
                verify: false,
                ..Default::default()
            };
            let on = CompressOptions {
                verify: true,
                ..off.clone()
            };
            let oracle = compress(&case.input, &off)
                .ok()
                .filter(|c| decompress(c).is_ok_and(|j| j == case.input));
            refused += usize::from(oracle.is_none());
            for (name, engine) in engines {
                match (&oracle, engine.compress(&case.input, &on)) {
                    (Some(want), Ok(got)) if got != *want => violations.push(format!(
                        "{} at {n} segments on {name}: verified bytes differ",
                        case.label
                    )),
                    (Some(_), Err(e)) => violations.push(format!(
                        "{} at {n} segments on {name}: refused a round-tripping file: {e}",
                        case.label
                    )),
                    (None, Ok(_)) => violations.push(format!(
                        "{} at {n} segments on {name}: admitted a file the oracle refuses",
                        case.label
                    )),
                    _ => {}
                }
            }
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
    assert!(refused > 0, "the matrix must exercise refusals too");
}

#[test]
fn hostile_set_refuses_everything() {
    // Every handcrafted reachability input must be refused (none of
    // them is a valid baseline JPEG), each with a typed error.
    let opts = CompressOptions::default();
    let report = rig::run(&hostile_cases(), |input| {
        compress(input, &opts).map(|c| c.len())
    });
    report.assert_clean();
    assert_eq!(report.accepted, 0, "hostile inputs must all be refused");
    assert_eq!(
        report.rows.values().sum::<usize>(),
        report.cases,
        "every refusal lands on a taxonomy row"
    );
}

#[test]
fn emission_never_exceeds_the_charged_budget() {
    // The memory-breach gate: whatever a mutated container makes the
    // streaming decoder emit — accepted or refused partway — the total
    // stays within the decode budget the meter charged. A forged
    // segment table cannot over-emit: `out_bytes` is reconciled against
    // the charged `output_size` before decoding starts.
    let dopts = DecompressOptions::default();
    let cap = lepton_core::ResourceBudget::default().decode_bytes;
    for case in container_cases() {
        let mut emitted = 0usize;
        let r = probe(|| decompress_streaming(&case.input, &dopts, &mut |b| emitted += b.len()))
            .unwrap_or_else(|p| panic!("{}: PANIC: {p}", case.label));
        assert!(
            emitted <= cap,
            "{}: emitted {emitted} bytes > {cap} budget (result {r:?})",
            case.label
        );
    }
}

#[test]
fn mutation_driver_is_deterministic_across_runs() {
    // Same (kind, seed) → same bytes; the rig's labels are honest
    // provenance and CI failures reproduce locally.
    let (_, jpeg) = base_jpegs().remove(0);
    for kind in lepton_corpus::MutationKind::ALL {
        let a = lepton_corpus::mutate(&jpeg, kind, 42);
        let b = lepton_corpus::mutate(&jpeg, kind, 42);
        assert_eq!(a, b, "{kind:?}");
    }
}

#[test]
fn internal_error_is_the_only_operational_escape() {
    // The rig flags operational-row refusals as violations except for
    // Internal — make sure the carve-out works as documented.
    let cases = vec![RigCase {
        label: "x".into(),
        input: vec![0],
    }];
    let report = rig::run(&cases, |_| Err(LeptonError::Internal("invariant")));
    assert!(report.violations.is_empty());
    let report = rig::run(&cases, |_| Err(LeptonError::BadMagic));
    assert!(report.violations.is_empty());
}
