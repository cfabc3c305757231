//! Cross-crate integration tests: the full paper pipeline exercised
//! end-to-end through the facade crate.

use lepton::codec::{compress, decompress, CompressOptions, ThreadPolicy};
use lepton::corpus::builder::{clean_jpeg, CorpusSpec};
use lepton::corpus::{Corpus, CorpusSpec as Spec2};
use lepton::storage::blockstore::{ShardedStore, StoreConfig};
use lepton::storage::vfs::{FaultConfig, FaultVfs};
use lepton::storage::StoredFormat;

/// The one store, on the fault-free in-memory filesystem.
fn memory_store() -> ShardedStore {
    let vfs = FaultVfs::new(FaultConfig::default());
    ShardedStore::open_on(vfs, "/store", StoreConfig::default()).expect("open")
}

fn spec(max_dim: usize) -> CorpusSpec {
    CorpusSpec {
        min_dim: 96,
        max_dim,
        ..Default::default()
    }
}

#[test]
fn corpus_to_storage_to_bytes() {
    // The full production path: synthesize user files, store them,
    // read them back byte-exactly.
    let store = memory_store();
    let corpus = Corpus::generate(&Spec2 {
        count: 12,
        min_dim: 64,
        max_dim: 192,
        clean_fraction: 0.75,
        seed: 0xABCD,
    });
    for f in &corpus.files {
        let key = store.put(&f.data).expect("put never refuses content");
        assert_eq!(
            store.get(&key).expect("read back").expect("present"),
            f.data,
            "kind {:?} seed {}",
            f.kind,
            f.seed
        );
    }
    // Clean JPEGs landed as Lepton; savings accrued.
    let stat = store.stat().expect("stat");
    assert_eq!(stat.blocks, corpus.files.len() as u64);
    assert!(stat.lepton_blocks > 0);
    assert!(stat.savings() > 0.05);
}

#[test]
fn qualification_over_mixed_corpus() {
    // The §5.7 qualification loop: no alarms allowed over a corpus with
    // rejects and corruption.
    use lepton::codec::verify::qualify;
    let corpus = Corpus::generate(&Spec2 {
        count: 40,
        min_dim: 64,
        max_dim: 160,
        clean_fraction: 0.8,
        seed: 0x9A41,
    });
    let files: Vec<&[u8]> = corpus.files.iter().map(|f| f.data.as_slice()).collect();
    let q = qualify(files, &CompressOptions::default());
    assert!(q.qualified(), "alarms: {}", q.alarms);
    assert!(q.verified >= 25);
    assert!(q.ratio() < 0.9);
}

#[test]
fn determinism_across_thread_counts() {
    // §5.2: single- and multi-threaded compressions both round-trip;
    // repeated runs are byte-identical.
    let jpg = clean_jpeg(&spec(320), 5);
    for threads in [1usize, 2, 8] {
        let opts = CompressOptions {
            threads: ThreadPolicy::Fixed(threads),
            ..Default::default()
        };
        let a = compress(&jpg, &opts).expect("compress");
        let b = compress(&jpg, &opts).expect("compress");
        assert_eq!(a, b, "threads={threads}");
        assert_eq!(decompress(&a).expect("decode"), jpg);
    }
}

#[test]
fn baselines_agree_on_corpus() {
    // Every baseline codec round-trips every corpus file (Fig. 2's
    // precondition).
    use lepton::baselines::all_codecs;
    let corpus = Corpus::generate(&Spec2 {
        count: 10,
        min_dim: 64,
        max_dim: 128,
        clean_fraction: 0.7,
        seed: 0xBA5E,
    });
    for codec in all_codecs() {
        for f in &corpus.files {
            let enc = codec.encode(&f.data).expect("encode");
            let dec = codec.decode(&enc, f.data.len()).expect("decode");
            assert_eq!(dec, f.data, "{} on {:?}", codec.name(), f.kind);
        }
    }
}

#[test]
fn corrupted_containers_never_panic() {
    // §6.7 regression: fuzz-ish corruption of real containers.
    let jpg = clean_jpeg(&spec(160), 7);
    let lepton = compress(&jpg, &CompressOptions::default()).expect("compress");
    let mut x = 0x5EEDu64;
    for _ in 0..200 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut bad = lepton.clone();
        let pos = (x as usize) % bad.len();
        bad[pos] ^= (x >> 17) as u8 | 1;
        let _ = decompress(&bad); // must return, not panic/hang
    }
    // Truncations too.
    for cut in [0usize, 1, 10, lepton.len() / 2, lepton.len() - 1] {
        let _ = decompress(&lepton[..cut]);
    }
}

#[test]
fn shutoff_and_backfill_flow() {
    // §5.7: with the shutoff engaged a put still lands, just not as
    // Lepton; the backfill converts it once encoding is allowed again.
    let store = memory_store();
    let jpg = clean_jpeg(&spec(128), 8);
    let key = store.put_raw(&jpg).expect("put");
    assert_eq!(
        store.format_of(&key).expect("header"),
        Some(StoredFormat::Raw)
    );
    let report = store.backfill(1).expect("backfill");
    assert_eq!(report.converted, 1);
    assert_eq!(
        store.format_of(&key).expect("header"),
        Some(StoredFormat::Lepton)
    );
    assert_eq!(store.get(&key).expect("get").expect("present"), jpg);
}
