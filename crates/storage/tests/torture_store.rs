//! Torture rig over the blockstore: mutated and hostile inputs through
//! `put`/`get`, plus budget-starved handles.
//!
//! The store's contract is stronger than the codec's: `put` never
//! refuses content (admission failure just lands the block raw), and
//! `get` either returns the exact original bytes or a typed error —
//! never wrong bytes (SHA-256 gate), never a panic. A budget refusal
//! on read is policy, not damage: the record must not be quarantined
//! and must remain readable by an adequately-budgeted handle.

use lepton_core::ResourceBudget;
use lepton_corpus::builder::{clean_jpeg, CorpusSpec};
use lepton_corpus::{hostile_cases, mutation_matrix, probe, rig::RigCase};
use lepton_storage::blockstore::{ShardedStore, StoreConfig, StoreError};
use lepton_storage::StoredFormat;
use std::path::PathBuf;

fn spec() -> CorpusSpec {
    CorpusSpec {
        min_dim: 48,
        max_dim: 112,
        ..Default::default()
    }
}

fn temp_root(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("lepton-torture-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn torture_cases() -> Vec<RigCase> {
    let bases: Vec<(String, Vec<u8>)> = (0..2)
        .map(|i| (format!("jpeg{i}"), clean_jpeg(&spec(), 0x570E ^ i)))
        .collect();
    let named: Vec<(&str, Vec<u8>)> = bases.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
    let mut cases = mutation_matrix(&named, &[0xF00D, 0xBEEF]);
    cases.extend(hostile_cases());
    cases
}

fn starved_budget() -> ResourceBudget {
    ResourceBudget {
        decode_bytes: 1 << 10,
        encode_bytes: 1 << 10,
    }
}

#[test]
fn put_get_never_returns_wrong_bytes_for_any_mutation() {
    // Force reads through the codec: no decoded-block cache.
    let root = temp_root("putget");
    let store = ShardedStore::open(
        &root,
        StoreConfig {
            cache_bytes: 0,
            ..Default::default()
        },
    )
    .unwrap();
    for case in torture_cases() {
        let outcome = probe(|| {
            let key = store.put(&case.input)?;
            store.get(&key)
        })
        .unwrap_or_else(|p| panic!("{}: PANIC: {p}", case.label));
        match outcome {
            Ok(Some(bytes)) => assert_eq!(
                bytes, case.input,
                "{}: stored bytes came back different",
                case.label
            ),
            Ok(None) => panic!("{}: block vanished after put", case.label),
            Err(e) => panic!("{}: put/get refused hostile *content*: {e}", case.label),
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn starved_encode_budget_degrades_to_raw_storage() {
    // Admission under a 1 KiB encode budget can never succeed, but put
    // must not fail: §5.7 shutoff semantics — the block lands raw.
    let root = temp_root("rawfall");
    let store = ShardedStore::open(
        &root,
        StoreConfig {
            budget: starved_budget(),
            ..Default::default()
        },
    )
    .unwrap();
    let jpeg = clean_jpeg(&spec(), 0xFA11);
    let key = store.put(&jpeg).unwrap();
    assert_eq!(store.format_of(&key).unwrap(), Some(StoredFormat::Raw));
    assert_eq!(store.get(&key).unwrap().unwrap(), jpeg);
    assert_eq!(store.metrics.lepton_blocks.get(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn starved_decode_budget_refuses_reads_without_quarantine() {
    let root = temp_root("budget-read");
    // Write with the default budget: block admitted as Lepton.
    let writer = ShardedStore::open(&root, StoreConfig::default()).unwrap();
    let jpeg = clean_jpeg(&spec(), 0x6E7);
    let key = writer.put(&jpeg).unwrap();
    assert_eq!(writer.format_of(&key).unwrap(), Some(StoredFormat::Lepton));
    drop(writer);

    // Read through a starved handle: typed Budget refusal, metric
    // bumped, record NOT quarantined.
    let starved = ShardedStore::open(
        &root,
        StoreConfig {
            cache_bytes: 0,
            budget: ResourceBudget {
                decode_bytes: 1 << 10,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    match starved.get(&key) {
        Err(StoreError::Budget { required, limit }) => {
            assert!(required > limit, "{required} vs {limit}")
        }
        other => panic!("expected Budget refusal, got {other:?}"),
    }
    assert_eq!(starved.metrics.budget_rejections.get(), 1);
    assert_eq!(starved.metrics.corrupt_blocks.get(), 0);
    drop(starved);

    // The record is healthy: a normally-budgeted handle still serves
    // the exact bytes, and check_block agrees nothing is damaged.
    let reader = ShardedStore::open(
        &root,
        StoreConfig {
            cache_bytes: 0,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(reader.get(&key).unwrap().unwrap(), jpeg);
    assert!(reader.check_block(&key).unwrap());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn default_budget_passes_the_corpus_through_the_store() {
    let root = temp_root("default");
    let store = ShardedStore::open(&root, StoreConfig::default()).unwrap();
    for i in 0..4u64 {
        let jpeg = clean_jpeg(&spec(), 0xC0DE ^ i);
        let key = store.put(&jpeg).unwrap();
        assert_eq!(
            store.format_of(&key).unwrap(),
            Some(StoredFormat::Lepton),
            "default budget must not push clean files to raw"
        );
        assert_eq!(store.get(&key).unwrap().unwrap(), jpeg);
    }
    assert_eq!(store.metrics.budget_rejections.get(), 0);
    let _ = std::fs::remove_dir_all(&root);
}
