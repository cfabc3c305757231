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
//! `lepton store` CLI, the conversion service and the fleet run on. It
//! does all its I/O through a [`vfs::Vfs`], so the same code runs on
//! disk ([`vfs::RealVfs`]) and, for tests and examples that want no
//! filesystem, in memory (a fault-free [`vfs::FaultVfs`]). The §5.7
//! shutoff switch is [`blockstore::ShardedStore::put_raw`] /
//! `StoreConfig::compress_on_write`, with
//! [`blockstore::ShardedStore::backfill`] converting what it let
//! through; [`deploy`] models build qualification.

pub mod blockstore;
pub mod deploy;
pub mod sha256;
pub mod vfs;

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
