//! Content-addressed block storage with transparent Lepton
//! recompression — the paper's blockserver back-end in library form.
//!
//! The Dropbox back-end stores files as up-to-4-MiB chunks addressed by
//! SHA-256 (§1, §5.6). Uploads of JPEG chunks are Lepton-compressed
//! *transparently*: a chunk is admitted in Lepton form only after a
//! byte-exact round-trip check; everything else is stored as it came
//! (§5.7). Downloads decompress on the fly; clients never see anything
//! but their original bytes.
//!
//! There is one store and one admission path:
//! [`blockstore::ShardedStore`], the durable, sharded store the
//! `lepton store` CLI, the conversion service and the fleet run on. Its
//! on-disk decisions each live in one module: the record format and
//! shard-directory names, the decoded-block cache, and the whole-store
//! walks (scrub, recovery, backfill). It does all its I/O through a
//! [`vfs::Vfs`], so the same code runs on disk ([`vfs::RealVfs`]) and,
//! for tests and examples that want no filesystem, in memory (a
//! fault-free [`vfs::FaultVfs`]). The §5.7 shutoff switch is
//! [`blockstore::ShardedStore::put_raw`] /
//! `StoreConfig::compress_on_write`, with
//! [`blockstore::ShardedStore::backfill`] converting what it let
//! through; [`deploy`] models build qualification.

pub mod blockstore;
pub mod deploy;
pub mod sha256;
pub mod vfs;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Take `m`'s lock even after a thread panicked while holding it. A
/// poisoned lock is taken, not propagated: what the store guards (a
/// shard's write token and block cache, the read-only reason, the
/// fault VFS's file table) is valid between any two of its updates, so
/// one panicked caller must not wedge every later one.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a stored chunk is encoded at rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoredFormat {
    /// Lepton container (JPEG chunk that round-tripped).
    Lepton,
    /// zlib/Deflate. No write path produces it; the on-disk record
    /// format is frozen, so a store holding such records still reads
    /// them.
    Deflate,
    /// The original bytes, untouched.
    Raw,
}

#[cfg(test)]
mod tests {
    use super::lock;
    use std::sync::{Arc, Mutex};

    #[test]
    fn mutex_survives_poison() {
        let m = Arc::new(Mutex::new(0u8));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        *lock(&m) = 7;
        assert_eq!(*lock(&m), 7);
    }
}
