//! Torture rig over the conversion service's socket surface: every
//! mutated or hostile payload must come back as a clean protocol-level
//! refusal (a §6.2 exit-code row, or a protocol status) — the service
//! never dies, never hangs, and never serves wrong bytes.

use lepton_core::{CompressOptions, ExitCode, ResourceBudget};
use lepton_corpus::builder::{clean_jpeg, CorpusSpec};
use lepton_corpus::{hostile_cases, mutation_matrix, rig::RigCase};
use lepton_server::{client, serve, ClientError, Endpoint, MuxClient, Op, ServiceConfig, Status};
use lepton_storage::blockstore::{ShardedStore, StoreConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

fn spec() -> CorpusSpec {
    CorpusSpec {
        min_dim: 48,
        max_dim: 112,
        ..Default::default()
    }
}

fn tcp_any() -> Endpoint {
    Endpoint::tcp("127.0.0.1:0").unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("lepton-srv-torture-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn torture_cases() -> Vec<RigCase> {
    let bases: Vec<(String, Vec<u8>)> = (0..2)
        .map(|i| (format!("jpeg{i}"), clean_jpeg(&spec(), 0x5E4E ^ i)))
        .collect();
    let named: Vec<(&str, Vec<u8>)> = bases.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
    let mut cases = mutation_matrix(&named, &[0xF00D]);
    cases.extend(hostile_cases());
    cases
}

/// A refusal a hostile payload is allowed to earn. Timeouts, transport
/// resets, or anything else mean the service choked — a violation.
fn acceptable_refusal(label: &str, err: &ClientError) {
    match err {
        ClientError::Refused(Status::Rejected(code)) => assert!(
            !code.is_operational(),
            "{label}: input refused onto operational row {code:?}"
        ),
        ClientError::Refused(_) => {}
        other => panic!("{label}: service choked instead of refusing: {other:?}"),
    }
}

#[test]
fn compress_op_survives_the_matrix() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let mut accepted = 0usize;
    for case in torture_cases() {
        match client::compress(handle.endpoint(), &case.input, TIMEOUT) {
            Ok(lepton) => {
                // Anything the server admits must decompress back to
                // the exact bytes we sent — through the same server.
                let back = client::decompress(handle.endpoint(), &lepton, TIMEOUT).unwrap();
                assert_eq!(back, case.input, "{}: wrong bytes", case.label);
                accepted += 1;
            }
            Err(e) => acceptable_refusal(&case.label, &e),
        }
    }
    assert!(accepted >= 2, "pristine bases must be served");
    // The service is still healthy after the whole matrix.
    client::ping(handle.endpoint(), TIMEOUT).unwrap();
    handle.shutdown();
}

#[test]
fn decompress_op_survives_mutated_containers() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let jpeg = clean_jpeg(&spec(), 0xDE);
    let container = client::compress(handle.endpoint(), &jpeg, TIMEOUT).unwrap();
    let cases = mutation_matrix(&[("container", container)], &[0xF00D, 0xBEEF]);
    for case in &cases {
        match client::decompress(handle.endpoint(), &case.input, TIMEOUT) {
            // A mutated container that still parses may decode; the
            // pristine case must give back the original.
            Ok(bytes) => {
                if case.label.ends_with("pristine") {
                    assert_eq!(bytes, jpeg);
                }
            }
            Err(e) => acceptable_refusal(&case.label, &e),
        }
    }
    client::ping(handle.endpoint(), TIMEOUT).unwrap();
    handle.shutdown();
}

/// The same matrix through the framed mode, where bodies stream as
/// they decode. The whole-buffer decode is the oracle: a container it
/// restores must arrive as exactly those bytes; one it refuses must end
/// as a typed rejection (refused before the first body byte) or as a
/// short frame on a closed connection (failed after it) — never as a
/// complete body.
#[test]
fn framed_decompress_never_completes_a_body_the_decoder_refused() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let connect = || MuxClient::connect(handle.endpoint(), TIMEOUT).unwrap();
    // Big enough that mutations can land behind the first fragment.
    let big = CorpusSpec {
        min_dim: 600,
        max_dim: 700,
        ..Default::default()
    };
    let bases = [
        ("small", clean_jpeg(&spec(), 0xDE)),
        ("multi", clean_jpeg(&big, 4)),
    ]
    .map(|(name, jpeg)| {
        (
            name,
            client::compress(handle.endpoint(), &jpeg, TIMEOUT).unwrap(),
        )
    });
    let cases = mutation_matrix(&bases, &[0xF00D, 0xBEEF]);

    let mut mux = connect();
    let (mut exact, mut typed, mut aborted) = (0, 0, 0);
    for case in &cases {
        let oracle = lepton_core::decompress(&case.input);
        let mut body = Vec::new();
        match (
            mux.call_into(Op::Decompress, &case.input, &mut body),
            oracle,
        ) {
            (Ok(Status::Ok), Ok(want)) => {
                assert!(body == want, "{}: wrong bytes", case.label);
                exact += 1;
            }
            (Ok(status), Err(_)) => {
                acceptable_refusal(&case.label, &ClientError::Refused(status));
                assert!(body.is_empty(), "{}: body with a refusal", case.label);
                typed += 1;
            }
            (Err(ClientError::Io(e)), Err(_)) => {
                assert_eq!(
                    e.kind(),
                    std::io::ErrorKind::UnexpectedEof,
                    "{}: {e}",
                    case.label
                );
                aborted += 1;
                mux = connect(); // an abort costs the connection, nothing more
            }
            (got, oracle) => panic!(
                "{}: framed {got:?} vs whole-buffer {:?}",
                case.label,
                oracle.map(|b| b.len())
            ),
        }
    }
    assert!(exact >= 2, "pristine bases must be served");
    assert!(typed > 0 && aborted > 0, "{typed} typed, {aborted} aborted");
    assert_eq!(handle.metrics().stream_aborts.get(), aborted);
    client::ping(handle.endpoint(), TIMEOUT).unwrap();
    handle.shutdown();
}

#[test]
fn block_ops_survive_the_matrix_and_never_lose_bytes() {
    let root = temp_dir("blocks");
    let store = Arc::new(ShardedStore::open(&root, StoreConfig::default()).unwrap());
    let cfg = ServiceConfig {
        blockstore: Some(store),
        ..Default::default()
    };
    let handle = serve(&tcp_any(), cfg).unwrap();
    for case in torture_cases() {
        // BlockPut takes arbitrary content (hostile JPEGs just land
        // raw); whatever went in must come back byte-exact.
        let key = client::block_put(handle.endpoint(), &case.input, TIMEOUT)
            .unwrap_or_else(|e| panic!("{}: BlockPut refused content: {e:?}", case.label));
        let back = client::block_get(handle.endpoint(), &key, TIMEOUT)
            .unwrap_or_else(|e| panic!("{}: BlockGet failed: {e:?}", case.label));
        assert_eq!(
            back.as_deref(),
            Some(case.input.as_slice()),
            "{}: wrong bytes from store",
            case.label
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn budget_starved_block_get_is_rejected_with_the_decode_row() {
    let root = temp_dir("budget");
    // Admit one block as Lepton under the default budget.
    {
        let store = ShardedStore::open(&root, StoreConfig::default()).unwrap();
        store.put(&clean_jpeg(&spec(), 0xB1)).unwrap();
    }
    // Serve the same store through a handle whose decode budget cannot
    // fit any decode: BlockGet must answer Rejected(MemDecodeLimit),
    // and the record must not be quarantined by the refusal.
    let starved = Arc::new(
        ShardedStore::open(
            &root,
            StoreConfig {
                cache_bytes: 0,
                compress: CompressOptions {
                    budget: ResourceBudget {
                        decode_bytes: 1 << 10,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let key = starved.keys().unwrap()[0];
    let cfg = ServiceConfig {
        blockstore: Some(starved.clone()),
        ..Default::default()
    };
    let handle = serve(&tcp_any(), cfg).unwrap();
    match client::block_get(handle.endpoint(), &key, TIMEOUT) {
        Err(ClientError::Refused(Status::Rejected(code))) => {
            assert_eq!(code, ExitCode::MemDecodeLimit)
        }
        other => panic!("expected Rejected(MemDecodeLimit), got {other:?}"),
    }
    handle.shutdown();
    drop(starved);
    // The refusal is policy, not damage: a normally-budgeted handle
    // still finds the record healthy and serves it.
    let reader = ShardedStore::open(&root, StoreConfig::default()).unwrap();
    assert!(
        reader.check_block(&key).unwrap(),
        "budget refusal must not quarantine a healthy record"
    );
    assert!(reader.get(&key).unwrap().is_some());
    let _ = std::fs::remove_dir_all(&root);
}
