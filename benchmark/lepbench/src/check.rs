//! The correctness check behind `failed_share`, and the self-test that
//! proves it is not vacuous.
//!
//! Every workload routes every result it timed through [`same`] (or
//! [`served`], for store reads) outside the timed span; a mismatch, a
//! refusal, a shed or a timeout all count as a failed operation.

use lepton_core::{CompressOptions, Engine};
use lepton_storage::blockstore::{ShardedStore, StoreConfig, StoreError};
use std::path::Path;

/// Whether the bytes a timed operation produced are the bytes it
/// should have produced.
pub fn same(got: &[u8], want: &[u8]) -> bool {
    got == want
}

/// Whether a store read served exactly `want` (a miss, a refusal or an
/// error is a failure).
pub fn served<E>(result: &Result<Option<Vec<u8>>, E>, want: &[u8]) -> bool {
    matches!(result, Ok(Some(got)) if same(got, want))
}

/// Corrupt one container and one stored record and require the checks
/// above to flag both. The container case must find a corruption that
/// still *decodes* — wrong bytes with no error — so that only the byte
/// comparison can catch it: with [`same`] stubbed to `true` this
/// function fails.
pub fn selftest(scratch: &Path) -> Result<(), String> {
    let spec = crate::gen::photo_ladder(1, 24_000, 24_000)[0];
    let jpeg = crate::gen::photo(&spec, 11);
    let engine = Engine::global();
    let container = engine
        .compress(&jpeg, &CompressOptions::default())
        .map_err(|e| format!("selftest compress: {e}"))?;
    let clean = engine
        .decompress(&container)
        .map_err(|e| format!("selftest decompress: {e}"))?;
    if !same(&clean, &jpeg) {
        return Err("checker rejects a clean round trip".into());
    }

    // Walk corruption sites from the end of the arithmetic stream
    // backwards until one decodes without error.
    let silent = (1..=container.len() / 2)
        .map(|back| container.len() - back)
        .find_map(|at| {
            let mut bad = container.clone();
            bad[at] ^= 0x55;
            engine.decompress(&bad).ok()
        })
        .ok_or("no corruption site decodes silently; cannot exercise the byte check")?;
    if same(&silent, &jpeg) {
        return Err("byte check passed a corrupted container's output".into());
    }

    // A stored record with a flipped payload byte must not be served.
    let root = scratch.join("selftest-store");
    let _ = std::fs::remove_dir_all(&root);
    let block = crate::gen::Rng::new(11, 0x5E1F).bytes(4096);
    let outcome = (|| -> Result<(), String> {
        let store = ShardedStore::open(&root, StoreConfig::default())
            .map_err(|e| format!("selftest store open: {e}"))?;
        let key = store
            .put(&block)
            .map_err(|e| format!("selftest put: {e}"))?;
        if !served(&store.get(&key), &block) {
            return Err("checker rejects a clean stored block".into());
        }
        let record = find_record(&root).ok_or("stored record not found on disk")?;
        let mut bytes = std::fs::read(&record).map_err(|e| e.to_string())?;
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        std::fs::write(&record, &bytes).map_err(|e| e.to_string())?;
        // A fresh handle: the first one holds the block in its cache.
        let reopened = ShardedStore::open(&root, StoreConfig::default())
            .map_err(|e| format!("selftest store reopen: {e}"))?;
        let read: Result<Option<Vec<u8>>, StoreError> = reopened.get(&key);
        if served(&read, &block) {
            return Err("checker passed a corrupted stored record".into());
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&root);
    outcome
}

/// The one block record under a store root (64 hex characters).
fn find_record(root: &Path) -> Option<std::path::PathBuf> {
    std::fs::read_dir(root).ok()?.flatten().find_map(|shard| {
        std::fs::read_dir(shard.path())
            .ok()?
            .flatten()
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .is_some_and(|n| n.len() == 64 && !n.to_string_lossy().contains('.'))
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_requires_exact_bytes() {
        let ok: Result<Option<Vec<u8>>, ()> = Ok(Some(vec![1, 2, 3]));
        assert!(served(&ok, &[1, 2, 3]));
        assert!(!served(&ok, &[1, 2, 4]));
        assert!(!served(&Ok::<_, ()>(None), &[1]));
        assert!(!served(&Err::<Option<Vec<u8>>, _>(()), &[1]));
    }
}
