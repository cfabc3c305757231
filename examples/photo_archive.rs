//! A photo-archive backend: store a mixed batch of user files in the
//! content-addressed block store, watch Lepton savings accrue, then
//! backfill the stragglers — the §5.6 deployment loop in miniature.
//!
//! Run with: `cargo run --release --example photo_archive`

use lepton::corpus::builder::clean_jpeg;
use lepton::corpus::{Corpus, CorpusSpec};
use lepton::storage::blockstore::{ShardedStore, StoreConfig};
use lepton::storage::vfs::{FaultConfig, FaultVfs};
use lepton::storage::StoredFormat;

fn main() {
    // The same store the service runs on, over an in-memory filesystem
    // (a fault injector configured to inject nothing).
    let vfs = FaultVfs::new(FaultConfig::default());
    let store = ShardedStore::open_on(vfs, "/archive", StoreConfig::default()).expect("open");

    // A user directory: mostly photos, some other files, some corrupt.
    let corpus = Corpus::generate(&CorpusSpec {
        count: 30,
        min_dim: 96,
        max_dim: 320,
        clean_fraction: 0.8,
        seed: 7,
    });

    let keys: Vec<_> = corpus
        .files
        .iter()
        .map(|f| store.put(&f.data).expect("put never refuses content"))
        .collect();
    let stat = store.stat().expect("stat");
    println!(
        "stored {} files: {} as Lepton, {} raw; savings so far: {:.1}%",
        stat.blocks,
        stat.lepton_blocks,
        stat.raw_blocks,
        stat.savings() * 100.0
    );

    // Every file reads back byte-exactly, whatever format it landed in.
    for (key, f) in keys.iter().zip(&corpus.files) {
        let restored = store
            .get(key)
            .expect("get")
            .expect("stored files read back");
        assert_eq!(restored, f.data);
    }
    println!("all files verified byte-exact ✓");

    // Simulate the shutoff switch drill (§5.7), then backfill: the late
    // photo lands raw, and the worker converts it in place.
    let late = clean_jpeg(&CorpusSpec::default(), 99);
    let key = store.put_raw(&late).expect("put");
    assert_eq!(
        store.format_of(&key).expect("header"),
        Some(StoredFormat::Raw)
    );
    let report = store.backfill(2).expect("backfill");
    println!(
        "backfill converted {} block(s), saving {} bytes",
        report.converted,
        report.bytes_before - report.bytes_after
    );
    assert_eq!(
        store.format_of(&key).expect("header"),
        Some(StoredFormat::Lepton)
    );
    println!(
        "final savings: {:.1}%",
        store.stat().expect("stat").savings() * 100.0
    );
}
