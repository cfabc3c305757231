//! The sharded, disk-backed blockstore: transparent compress-on-write
//! behind a content address.
//!
//! This is the one store: what the CLI, the service and the fleet run
//! on, and — over an in-memory [`Vfs`] — what tests and examples run
//! on too. Blocks live as files in N shard directories, each shard with
//! its own lock, so concurrent `put`/`get` from many threads contend
//! only when they land on the same shard. The write path is the
//! paper's admission rule made literal (§5.7): a JPEG-looking block is
//! Lepton-compressed, the result is decoded again and compared
//! byte-for-byte against the original, and only then committed — on
//! any mismatch the original bytes are stored instead and the failure
//! is counted. The address is always the SHA-256 of the *original*
//! content, so callers never observe the encoding.
//!
//! Reads decode behind a bounded, sharded LRU of recently decoded
//! blocks (hot reads skip the codec entirely), and every cold read is
//! hash-checked against its address before it is served — a corrupted
//! block surfaces as [`StoreError::Corrupt`], never as wrong bytes.
//! [`ShardedStore::backfill`] is the §5.6 worker loop: walk the store,
//! convert eligible blocks in place, report rates the cluster model
//! can be calibrated with.

use crate::sha256::{sha256, Digest};
use crate::vfs::{RealVfs, Vfs};
use crate::StoredFormat;
use lepton_core::CompressOptions;
use lepton_obs::{Counter, Gauge, Registry};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Magic prefixing every on-disk block record.
const RECORD_MAGIC: [u8; 4] = *b"LBS1";

/// Record header: magic, format byte, original length (LE u64).
const HEADER_LEN: usize = 4 + 1 + 8;

/// A parsed record header plus the open handle positioned at the
/// payload: `(format, original length, file)`.
type OpenRecord = (StoredFormat, u64, Box<dyn crate::vfs::VfsFile>);

/// Errors the disk-backed store can report.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// The on-disk record is damaged: bad header, an undecodable
    /// payload, or decoded bytes whose SHA-256 no longer matches the
    /// block's address. Corrupted blocks are **never served**.
    Corrupt(Digest),
    /// Decoding the record would exceed the store's configured decode
    /// memory budget. The record itself is *not* damaged — it is never
    /// quarantined for this, and a store with a larger budget can still
    /// serve it.
    Budget {
        /// Bytes the decode wanted.
        required: usize,
        /// Configured budget.
        limit: usize,
    },
    /// The store has latched read-only (ENOSPC or a failed fsync on
    /// the write path): writes are shed until the operator repairs the
    /// disk and reopens; reads keep serving. Carries the latch reason.
    ReadOnly(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Corrupt(key) => {
                write!(f, "corrupt block {}", hex(key))
            }
            StoreError::Budget { required, limit } => {
                write!(f, "decode budget exceeded: need {required}, limit {limit}")
            }
            StoreError::ReadOnly(reason) => {
                write!(f, "store is read-only: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Configuration for a [`ShardedStore`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Shard count: independent locks and directories. More shards ⇒
    /// less lock contention under concurrent load.
    pub shards: usize,
    /// Total decoded-block cache budget in bytes, split evenly across
    /// shards. `0` disables the cache (every read decodes).
    pub cache_bytes: usize,
    /// Codec options for the write path. `verify` is forced on at
    /// admission regardless of what is set here.
    pub compress: CompressOptions,
    /// When `false`, `put` skips the codec and stores bytes raw — the
    /// shutoff switch (§5.7) and the way tests/benches populate a
    /// store that `backfill` then converts.
    pub compress_on_write: bool,
    /// When `true` (the default), opening runs the startup
    /// [`ShardedStore::recover`] sweep in repair mode. `false` defers
    /// it — how `lepton store recover` opens, so its dry run can
    /// report damage before anything is touched.
    pub recover_on_open: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 16,
            cache_bytes: 64 << 20,
            compress: CompressOptions::default(),
            compress_on_write: true,
            recover_on_open: true,
        }
    }
}

/// Counters exported by the disk store. All are monotonic operation
/// counters for *this handle's lifetime*; the authoritative at-rest
/// picture of a store (which may outlive many handles) comes from
/// [`ShardedStore::stat`], which walks the disk.
#[derive(Debug, Default)]
pub struct ShardedMetrics {
    /// Blocks this handle admitted in Lepton form at `put`.
    pub lepton_blocks: Arc<Counter>,
    /// Blocks this handle stored raw (non-JPEG, shutoff, or failed
    /// admission).
    pub raw_blocks: Arc<Counter>,
    /// Original bytes ingested by `put`.
    pub bytes_in: Arc<Counter>,
    /// Payload bytes written at `put` (headers excluded).
    pub bytes_stored: Arc<Counter>,
    /// Round-trip mismatches at admission (fell back to raw).
    pub roundtrip_failures: Arc<Counter>,
    /// Blocks converted to Lepton in place by `backfill`.
    pub backfill_conversions: Arc<Counter>,
    /// Reads served from the decoded-block cache.
    pub cache_hits: Arc<Counter>,
    /// Reads that had to touch disk (and the codec, for Lepton blocks).
    pub cache_misses: Arc<Counter>,
    /// Corrupt records detected (and refused) by the read path —
    /// damaged headers and failed hash checks alike.
    pub corrupt_blocks: Arc<Counter>,
    /// Reads refused because the decode would exceed the memory budget
    /// (the record is healthy; it is not quarantined).
    pub budget_rejections: Arc<Counter>,
    /// 1 while the store is latched read-only (ENOSPC / failed fsync),
    /// 0 otherwise.
    pub readonly: Arc<Gauge>,
    /// Writes shed because the store was read-only.
    pub readonly_sheds: Arc<Counter>,
    /// `recover()` passes completed (including the one at open).
    pub recovery_runs: Arc<Counter>,
    /// Orphaned `*.tmp` files removed by recovery sweeps.
    pub recovery_orphans: Arc<Counter>,
    /// Torn records quarantined by recovery sweeps.
    pub recovery_torn: Arc<Counter>,
    /// Healthy blocks at rest as of the last recovery walk — the
    /// reconciled counter the disk, not this handle's lifetime, owns.
    pub blocks_at_rest: Arc<Gauge>,
}

/// Point-in-time summary of a store, as `stat` reports it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StoreStats {
    /// Blocks at rest.
    pub blocks: u64,
    /// Of which Lepton-compressed.
    pub lepton_blocks: u64,
    /// Of which raw.
    pub raw_blocks: u64,
    /// Sum of original (logical) block sizes.
    pub logical_bytes: u64,
    /// Sum of at-rest payload sizes.
    pub stored_bytes: u64,
    /// Cache hits so far.
    pub cache_hits: u64,
    /// Cache misses so far.
    pub cache_misses: u64,
}

impl StoreStats {
    /// Storage savings fraction (0..1) over the whole store.
    pub fn savings(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            1.0 - self.stored_bytes as f64 / self.logical_bytes as f64
        }
    }
}

/// Outcome of one [`ShardedStore::backfill`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct BackfillReport {
    /// Blocks examined (everything not already Lepton).
    pub scanned: u64,
    /// Blocks converted to Lepton in place.
    pub converted: u64,
    /// Blocks that failed admission and were left as they were.
    pub skipped: u64,
    /// At-rest bytes before conversion of the converted blocks.
    pub bytes_before: u64,
    /// At-rest bytes after conversion of the converted blocks.
    pub bytes_after: u64,
    /// Wall-clock seconds for the whole pass.
    pub secs: f64,
}

impl BackfillReport {
    /// Conversions per second across the pass (0 when nothing ran).
    pub fn conversions_per_sec(&self) -> f64 {
        if self.secs <= 0.0 {
            0.0
        } else {
            self.converted as f64 / self.secs
        }
    }

    /// Savings fraction achieved on the converted blocks.
    pub fn savings(&self) -> f64 {
        if self.bytes_before == 0 {
            0.0
        } else {
            1.0 - self.bytes_after as f64 / self.bytes_before as f64
        }
    }
}

/// Outcome of one [`ShardedStore::scrub`] pass.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// Blocks examined.
    pub scanned: u64,
    /// Blocks whose at-rest record failed its integrity check.
    pub corrupt: u64,
    /// Addresses of the damaged blocks (what an operator — or the
    /// fleet's read-repair — would fetch from a healthy replica).
    pub corrupt_keys: Vec<Digest>,
    /// Wall-clock seconds for the whole pass.
    pub secs: f64,
}

/// Outcome of one [`ShardedStore::recover`] sweep.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Orphaned `*.tmp` files found (a crash mid-write leaves them).
    pub orphans_found: u64,
    /// Of which actually removed (equal to `orphans_found` when
    /// applied; 0 on a dry run).
    pub orphans_removed: u64,
    /// Records whose header is torn — truncated, bad magic, unknown
    /// format byte, or a raw payload shorter than its declared length.
    pub torn_found: u64,
    /// Of which quarantined to `<hex>.corrupt` (0 on a dry run).
    pub torn_quarantined: u64,
    /// Quarantine tombstones still awaiting repair.
    pub quarantined_pending: u64,
    /// Healthy blocks counted during the walk — the reconciled
    /// at-rest block count.
    pub blocks: u64,
    /// Whether repairs were applied (`false` = dry run).
    pub applied: bool,
    /// Wall-clock seconds for the sweep.
    pub secs: f64,
}

impl RecoveryReport {
    /// Nothing to repair and nothing pending.
    pub fn clean(&self) -> bool {
        self.orphans_found == 0 && self.torn_found == 0 && self.quarantined_pending == 0
    }
}

/// A bounded LRU of decoded blocks; one per shard, behind the shard's
/// own lock.
struct ShardCache {
    /// Decoded block + its recency stamp.
    map: HashMap<Digest, (Vec<u8>, u64)>,
    /// Recency index: stamp → key; the smallest stamp is the LRU entry.
    by_stamp: BTreeMap<u64, Digest>,
    total: usize,
    cap: usize,
    tick: u64,
}

impl ShardCache {
    fn new(cap: usize) -> Self {
        ShardCache {
            map: HashMap::new(),
            by_stamp: BTreeMap::new(),
            total: 0,
            cap,
            tick: 0,
        }
    }

    fn get(&mut self, key: &Digest) -> Option<Vec<u8>> {
        self.tick += 1;
        let tick = self.tick;
        let (data, stamp) = self.map.get_mut(key)?;
        self.by_stamp.remove(&*stamp);
        *stamp = tick;
        self.by_stamp.insert(tick, *key);
        Some(data.clone())
    }

    fn insert(&mut self, key: Digest, data: Vec<u8>) {
        if data.len() > self.cap {
            return; // would evict the whole cache for one block
        }
        if let Some((old, stamp)) = self.map.remove(&key) {
            self.total -= old.len();
            self.by_stamp.remove(&stamp);
        }
        while self.total + data.len() > self.cap {
            let Some((&oldest, _)) = self.by_stamp.iter().next() else {
                break;
            };
            let victim = self.by_stamp.remove(&oldest).expect("indexed");
            let (evicted, _) = self.map.remove(&victim).expect("in map");
            self.total -= evicted.len();
        }
        self.tick += 1;
        self.total += data.len();
        self.by_stamp.insert(self.tick, key);
        self.map.insert(key, (data, self.tick));
    }

    /// Drop a key (used when a block is detected corrupt or rewritten).
    fn remove(&mut self, key: &Digest) {
        if let Some((data, stamp)) = self.map.remove(key) {
            self.total -= data.len();
            self.by_stamp.remove(&stamp);
        }
    }
}

struct Shard {
    dir: PathBuf,
    /// Serializes writes within the shard (reads go lock-free to the
    /// filesystem; rename makes block files appear atomically).
    write_lock: Mutex<()>,
    cache: Mutex<ShardCache>,
}

/// The durable, sharded, content-addressed blockstore.
pub struct ShardedStore {
    root: PathBuf,
    shards: Vec<Shard>,
    cfg: StoreConfig,
    tmp_counter: AtomicU64,
    /// Every filesystem touch goes through here: [`RealVfs`] in
    /// production, a fault injector under the chaos harnesses.
    vfs: Arc<dyn Vfs>,
    /// The read-only latch (fast-path flag + the reason it tripped).
    read_only: AtomicBool,
    read_only_reason: Mutex<Option<String>>,
    /// Operation counters.
    pub metrics: ShardedMetrics,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("root", &self.root)
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Lowercase hex of a digest (the on-disk file name).
pub use crate::sha256::hex;

/// Parse a 64-char lowercase/uppercase hex digest.
pub fn parse_hex(s: &str) -> Option<Digest> {
    let s = s.trim();
    if s.len() != 64 {
        return None;
    }
    let mut d = [0u8; 32];
    for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
        let hi = (chunk[0] as char).to_digit(16)?;
        let lo = (chunk[1] as char).to_digit(16)?;
        d[i] = ((hi << 4) | lo) as u8;
    }
    Some(d)
}

/// Cheap JPEG sniff: SOI marker followed by another marker byte. The
/// codec is the real gatekeeper; this only avoids paying a full parse
/// for blocks that obviously are not JPEGs.
fn looks_like_jpeg(data: &[u8]) -> bool {
    data.len() > 3 && data[0] == 0xFF && data[1] == 0xD8 && data[2] == 0xFF
}

impl ShardedStore {
    /// Open (creating if necessary) a store rooted at `root` with the
    /// given configuration, on the real filesystem. Shard directories
    /// are `root/shard-NNN`; opening an existing store with a
    /// different shard count is rejected, because block placement
    /// depends on it.
    pub fn open(root: impl Into<PathBuf>, cfg: StoreConfig) -> io::Result<Self> {
        Self::open_on(Arc::new(RealVfs), root, cfg)
    }

    /// Open a store on an explicit [`Vfs`] — how the chaos harnesses
    /// run the whole write/read/recover protocol against a seeded
    /// fault injector. Startup runs a full [`ShardedStore::recover`]
    /// sweep (orphaned tmps removed, torn records quarantined,
    /// counters reconciled) before the handle is returned.
    pub fn open_on(
        vfs: Arc<dyn Vfs>,
        root: impl Into<PathBuf>,
        cfg: StoreConfig,
    ) -> io::Result<Self> {
        let root = root.into();
        assert!(cfg.shards > 0, "at least one shard");
        vfs.create_dir_all(&root)?;
        // Refuse to misplace blocks: a store remembers its geometry.
        let geometry = root.join("GEOMETRY");
        match vfs.read(&geometry) {
            Ok(existing) => {
                let on_disk: usize =
                    String::from_utf8_lossy(&existing)
                        .trim()
                        .parse()
                        .map_err(|_| {
                            io::Error::new(io::ErrorKind::InvalidData, "unreadable GEOMETRY file")
                        })?;
                if on_disk != cfg.shards {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "store has {on_disk} shards, asked to open with {}",
                            cfg.shards
                        ),
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                vfs.write(&geometry, format!("{}\n", cfg.shards).as_bytes())?;
                vfs.sync_dir(&root)?;
            }
            Err(e) => return Err(e),
        }
        let per_shard_cache = cfg.cache_bytes / cfg.shards;
        let mut shards = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let dir = root.join(format!("shard-{i:03}"));
            vfs.create_dir_all(&dir)?;
            shards.push(Shard {
                dir,
                write_lock: Mutex::new(()),
                cache: Mutex::new(ShardCache::new(per_shard_cache)),
            });
        }
        let store = ShardedStore {
            root,
            shards,
            cfg,
            tmp_counter: AtomicU64::new(0),
            vfs,
            read_only: AtomicBool::new(false),
            read_only_reason: Mutex::new(None),
            metrics: ShardedMetrics::default(),
        };
        // The startup sweep: a crash mid-put must never leave the
        // store serving torn records or accumulating orphaned tmps.
        if store.cfg.recover_on_open {
            store.recover(true).map_err(|e| match e {
                StoreError::Io(e) => e,
                other => io::Error::other(other.to_string()),
            })?;
        }
        Ok(store)
    }

    /// Whether the store has latched read-only. Reads still serve;
    /// every write is shed with [`StoreError::ReadOnly`].
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Relaxed)
    }

    /// Why the store latched, when it did.
    pub fn read_only_reason(&self) -> Option<String> {
        self.read_only_reason.lock().clone()
    }

    /// Latch the store read-only. Called automatically on ENOSPC or a
    /// failed fsync anywhere in the write protocol; public so an
    /// operator (or a test) can freeze writes deliberately. The latch
    /// is per-handle and clears only by reopening the store.
    pub fn latch_read_only(&self, reason: &str) {
        let mut slot = self.read_only_reason.lock();
        if slot.is_none() {
            *slot = Some(reason.to_string());
        }
        self.read_only.store(true, Ordering::Relaxed);
        self.metrics.readonly.set(1);
    }

    /// Gate every record write behind the latch.
    fn check_writable(&self) -> Result<(), StoreError> {
        if self.is_read_only() {
            self.metrics.readonly_sheds.inc();
            let reason = self
                .read_only_reason
                .lock()
                .clone()
                .unwrap_or_else(|| "latched".to_string());
            return Err(StoreError::ReadOnly(reason));
        }
        Ok(())
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &Digest) -> &Shard {
        let idx = u16::from_be_bytes([key[0], key[1]]) as usize % self.shards.len();
        &self.shards[idx]
    }

    fn block_path(&self, key: &Digest) -> PathBuf {
        self.shard_of(key).dir.join(hex(key))
    }

    /// Where a quarantined record sits: a tombstone name every walk
    /// skips, so the damaged bytes stay for forensics without being
    /// servable.
    fn quarantine_path(&self, key: &Digest) -> PathBuf {
        self.shard_of(key).dir.join(format!("{}.corrupt", hex(key)))
    }

    /// Store a block; returns the SHA-256 of `data`, under which the
    /// original bytes are retrievable forever after — whatever encoding
    /// won at admission.
    pub fn put(&self, data: &[u8]) -> Result<Digest, StoreError> {
        self.put_with(data, true)
    }

    /// Store a block without running the codec — the per-request
    /// shutoff path (§5.7): writes are never refused, they just land
    /// raw, and a later [`ShardedStore::backfill`] converts them.
    pub fn put_raw(&self, data: &[u8]) -> Result<Digest, StoreError> {
        self.put_with(data, false)
    }

    fn put_with(&self, data: &[u8], compress: bool) -> Result<Digest, StoreError> {
        let key = sha256(data);
        let path = self.block_path(&key);
        if self.vfs.exists(&path) {
            return Ok(key); // content-addressed dedup
        }
        // Shed before paying the codec: a read-only store refuses the
        // write either way, so don't burn CPU discovering it late.
        self.check_writable()?;

        // Encode outside the shard lock: the codec is the expensive
        // part and needs no coordination.
        let compress = compress && self.cfg.compress_on_write;
        let (format, payload) = if compress && looks_like_jpeg(data) {
            match self.try_admit(data) {
                Some(lepton) => (StoredFormat::Lepton, lepton),
                None => (StoredFormat::Raw, data.to_vec()),
            }
        } else {
            (StoredFormat::Raw, data.to_vec())
        };

        let shard = self.shard_of(&key);
        let guard = shard.write_lock.lock();
        if self.vfs.exists(&path) {
            return Ok(key); // raced with another writer of the same content
        }
        self.write_record(shard, &path, format, data.len() as u64, &payload)?;
        // A fresh, verified record supersedes any quarantined one: the
        // tombstone must not keep reporting damage that has been
        // repaired.
        let _ = self.vfs.remove_file(&self.quarantine_path(&key));
        drop(guard);

        self.metrics.bytes_in.add(data.len() as u64);
        self.metrics.bytes_stored.add(payload.len() as u64);
        match format {
            StoredFormat::Lepton => &self.metrics.lepton_blocks,
            _ => &self.metrics.raw_blocks,
        }
        .inc();
        Ok(key)
    }

    /// The commit gate: compress, then prove the round trip against
    /// the caller's exact bytes before anything is admitted. `None`
    /// means "store the original" — never an error to the caller.
    fn try_admit(&self, data: &[u8]) -> Option<Vec<u8>> {
        let mut opts = self.cfg.compress.clone();
        opts.verify = true;
        let lepton = lepton_core::Engine::global().compress(data, &opts).ok()?;
        // compress() already verified internally, but the blockstore
        // commit gate trusts nothing it did not check itself (§5.6
        // "double-checks the result"). The check must decode with the
        // store's own model config — the container does not carry it.
        let dec_opts = lepton_core::DecompressOptions {
            model: opts.model,
            budget: opts.budget,
        };
        if lepton_core::Engine::global()
            .decompress_opts(&lepton, &dec_opts)
            .as_deref()
            == Ok(data)
        {
            if lepton.len() < data.len() {
                return Some(lepton);
            }
            return None; // compression won nothing; raw is simpler
        }
        self.metrics.roundtrip_failures.inc();
        None
    }

    /// Write a block record crash-safely: temp file in the shard dir,
    /// fsync the file, rename into place, fsync the *directory* — only
    /// after the last step is the record durable under its final name,
    /// and only then may the caller acknowledge the put. Callers hold
    /// the shard write lock.
    ///
    /// ENOSPC anywhere, or a failed file/directory fsync, latches the
    /// store read-only: after either, nothing further this handle
    /// writes can be trusted to reach the platter, so it stops
    /// promising that it does.
    fn write_record(
        &self,
        shard: &Shard,
        path: &Path,
        format: StoredFormat,
        original_len: u64,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        self.check_writable()?;
        let tmp = shard.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let wrote = || -> Result<(), (io::Error, bool)> {
            let enospc_only = |e: io::Error| (e, false);
            let always_latch = |e: io::Error| (e, true);
            let mut f = self.vfs.create(&tmp).map_err(enospc_only)?;
            f.write_all(&RECORD_MAGIC).map_err(enospc_only)?;
            f.write_all(&[format_byte(format)]).map_err(enospc_only)?;
            f.write_all(&original_len.to_le_bytes())
                .map_err(enospc_only)?;
            f.write_all(payload).map_err(enospc_only)?;
            f.sync_all().map_err(always_latch)?;
            drop(f);
            self.vfs.rename(&tmp, path).map_err(enospc_only)?;
            self.vfs.sync_dir(&shard.dir).map_err(always_latch)
        };
        match wrote() {
            Ok(()) => Ok(()),
            Err((e, fsync_failed)) => {
                // Never leave the partial tmp behind (best-effort: on
                // a dead disk this fails too, and recovery sweeps it).
                let _ = self.vfs.remove_file(&tmp);
                if fsync_failed || is_enospc(&e) {
                    let what = if fsync_failed {
                        "failed fsync"
                    } else {
                        "ENOSPC"
                    };
                    self.latch_read_only(&format!("{what} during write: {e}"));
                    let reason = self.read_only_reason().unwrap_or_else(|| what.to_string());
                    Err(StoreError::ReadOnly(reason))
                } else {
                    Err(StoreError::Io(e))
                }
            }
        }
    }

    /// Retrieve a block's original bytes. `Ok(None)` means the key is
    /// not in the store; a damaged record is [`StoreError::Corrupt`].
    pub fn get(&self, key: &Digest) -> Result<Option<Vec<u8>>, StoreError> {
        let shard = self.shard_of(key);
        if let Some(hit) = shard.cache.lock().get(key) {
            self.metrics.cache_hits.inc();
            return Ok(Some(hit));
        }
        self.metrics.cache_misses.inc();

        let (format, original_len, payload) = match self.read_record(key)? {
            Some(rec) => rec,
            // A quarantined block is *damaged*, not absent: reporting
            // it as a miss would let a caller (or a fleet's replica
            // quorum) conclude the block never existed. The damage was
            // already counted when it was quarantined.
            None if self.vfs.exists(&self.quarantine_path(key)) => {
                return Err(StoreError::Corrupt(*key))
            }
            None => return Ok(None),
        };
        let decoded = self.decode_and_verify(key, format, original_len, payload)?;
        if self.cfg.cache_bytes > 0 {
            shard.cache.lock().insert(*key, decoded.clone());
        }
        Ok(Some(decoded))
    }

    /// The integrity gate shared by the serving read path and the
    /// scrub: decode a record's payload and prove the result hashes to
    /// the address it was stored under. Damage is counted and the
    /// cache purged (via `corrupt`); what this returns is safe to
    /// serve.
    fn decode_and_verify(
        &self,
        key: &Digest,
        format: StoredFormat,
        original_len: u64,
        payload: Vec<u8>,
    ) -> Result<Vec<u8>, StoreError> {
        let shard = self.shard_of(key);
        let decoded = match format {
            StoredFormat::Lepton => {
                // Same model config the admission gate wrote with.
                let dec_opts = lepton_core::DecompressOptions {
                    model: self.cfg.compress.model,
                    budget: self.cfg.compress.budget,
                };
                match lepton_core::Engine::global().decompress_opts(&payload, &dec_opts) {
                    Ok(jpeg) => jpeg,
                    // A budget refusal is a *policy* outcome, not
                    // damage: the record stays healthy and is never
                    // quarantined for it.
                    Err(lepton_core::LeptonError::BudgetExceeded {
                        required, limit, ..
                    }) => {
                        self.metrics.budget_rejections.inc();
                        return Err(StoreError::Budget { required, limit });
                    }
                    Err(_) => return Err(self.corrupt(shard, key)),
                }
            }
            StoredFormat::Deflate => {
                match lepton_deflate::zlib_decompress(&payload, original_len as usize) {
                    Ok(bytes) => bytes,
                    Err(_) => return Err(self.corrupt(shard, key)),
                }
            }
            StoredFormat::Raw => payload,
        };
        if decoded.len() as u64 != original_len || sha256(&decoded) != *key {
            return Err(self.corrupt(shard, key));
        }
        Ok(decoded)
    }

    fn corrupt(&self, shard: &Shard, key: &Digest) -> StoreError {
        self.metrics.corrupt_blocks.inc();
        shard.cache.lock().remove(key);
        StoreError::Corrupt(*key)
    }

    /// Open a record and parse its header. A truncated or unparseable
    /// header is corruption (counted, cache purged); a genuine I/O
    /// failure is [`StoreError::Io`], never misreported as damage.
    fn open_record(&self, key: &Digest) -> Result<Option<OpenRecord>, StoreError> {
        let path = self.block_path(key);
        let mut f = match self.vfs.open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut header = [0u8; HEADER_LEN];
        if let Err(e) = f.read_exact(&mut header) {
            return if e.kind() == io::ErrorKind::UnexpectedEof {
                Err(self.corrupt(self.shard_of(key), key)) // truncated record
            } else {
                Err(e.into())
            };
        }
        if header[..4] != RECORD_MAGIC {
            return Err(self.corrupt(self.shard_of(key), key));
        }
        let Some(format) = parse_format(header[4]) else {
            return Err(self.corrupt(self.shard_of(key), key));
        };
        let original_len = u64::from_le_bytes(header[5..13].try_into().expect("8 bytes"));
        Ok(Some((format, original_len, f)))
    }

    /// Header-only read: format, original length, and at-rest payload
    /// size (from file metadata — the payload bytes are not touched).
    fn read_header(&self, key: &Digest) -> Result<Option<(StoredFormat, u64, u64)>, StoreError> {
        let Some((format, original_len, f)) = self.open_record(key)? else {
            return Ok(None);
        };
        let total = f.len().map_err(StoreError::Io)?;
        Ok(Some((
            format,
            original_len,
            total.saturating_sub(HEADER_LEN as u64),
        )))
    }

    fn read_record(
        &self,
        key: &Digest,
    ) -> Result<Option<(StoredFormat, u64, Vec<u8>)>, StoreError> {
        let Some((format, original_len, mut f)) = self.open_record(key)? else {
            return Ok(None);
        };
        let mut payload = Vec::new();
        f.read_to_end(&mut payload)?;
        Ok(Some((format, original_len, payload)))
    }

    /// Whether `key` is present (no decode, no cache effects).
    pub fn contains(&self, key: &Digest) -> bool {
        self.vfs.exists(&self.block_path(key))
    }

    /// How a block is encoded at rest, if present (header-only read).
    pub fn format_of(&self, key: &Digest) -> Result<Option<StoredFormat>, StoreError> {
        Ok(self.read_header(key)?.map(|(f, _, _)| f))
    }

    /// At-rest payload size of a block, if present (header-only read).
    pub fn stored_size(&self, key: &Digest) -> Result<Option<usize>, StoreError> {
        Ok(self.read_header(key)?.map(|(_, _, p)| p as usize))
    }

    /// Every block address in the store, in shard order. Temp files
    /// and unparseable names are skipped.
    pub fn keys(&self) -> io::Result<Vec<Digest>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for name in self.vfs.read_dir(&shard.dir)? {
                if let Some(d) = parse_hex(&name) {
                    out.push(d);
                }
            }
        }
        Ok(out)
    }

    /// Publish this handle's live counters on `registry` under
    /// `<prefix>.<field>` names. The registry adopts the *same* atomics
    /// the hot paths increment, so `Stats` snapshots are always current
    /// with no polling or copying.
    pub fn bind_registry(&self, registry: &Registry, prefix: &str) {
        let m = &self.metrics;
        for (name, counter) in [
            ("lepton_blocks", &m.lepton_blocks),
            ("raw_blocks", &m.raw_blocks),
            ("bytes_in", &m.bytes_in),
            ("bytes_stored", &m.bytes_stored),
            ("roundtrip_failures", &m.roundtrip_failures),
            ("backfill_conversions", &m.backfill_conversions),
            ("cache_hits", &m.cache_hits),
            ("cache_misses", &m.cache_misses),
            ("corrupt_blocks", &m.corrupt_blocks),
            ("budget_rejections", &m.budget_rejections),
            ("readonly_sheds", &m.readonly_sheds),
            ("recovery.runs", &m.recovery_runs),
            ("recovery.orphans_removed", &m.recovery_orphans),
            ("recovery.torn_quarantined", &m.recovery_torn),
        ] {
            registry.adopt_counter(&format!("{prefix}.{name}"), counter);
        }
        registry.adopt_gauge(&format!("{prefix}.readonly"), &m.readonly);
        registry.adopt_gauge(&format!("{prefix}.blocks_at_rest"), &m.blocks_at_rest);
    }

    /// Walk the store and summarize it. Header-only reads — payload
    /// bytes are never touched. Records with damaged headers are
    /// skipped (they are already counted in `metrics.corrupt_blocks`);
    /// genuine I/O failures still abort the walk.
    pub fn stat(&self) -> Result<StoreStats, StoreError> {
        let mut stats = StoreStats {
            cache_hits: self.metrics.cache_hits.get(),
            cache_misses: self.metrics.cache_misses.get(),
            ..Default::default()
        };
        for key in self.keys()? {
            let (format, original_len, payload_len) = match self.read_header(&key) {
                Ok(Some(rec)) => rec,
                Ok(None) | Err(StoreError::Corrupt(_)) => continue,
                Err(e) => return Err(e),
            };
            stats.blocks += 1;
            stats.logical_bytes += original_len;
            stats.stored_bytes += payload_len;
            match format {
                StoredFormat::Lepton => stats.lepton_blocks += 1,
                _ => stats.raw_blocks += 1,
            }
        }
        Ok(stats)
    }

    /// Hash-check one block *at rest*: open the record, decode the
    /// payload, and compare the SHA-256 against the address — the full
    /// cold-read gate, deliberately bypassing the decoded-block cache
    /// (a scrub that answered from cache would never see disk damage).
    /// `Ok(true)` means intact, `Ok(false)` means damaged (counted in
    /// `metrics.corrupt_blocks`, cache entry purged); a block that
    /// vanished mid-walk reads as intact.
    pub fn check_block(&self, key: &Digest) -> Result<bool, StoreError> {
        let (format, original_len, payload) = match self.read_record(key) {
            Ok(Some(rec)) => rec,
            Ok(None) => return Ok(true),
            Err(StoreError::Corrupt(_)) => return Ok(false),
            Err(e) => return Err(e),
        };
        match self.decode_and_verify(key, format, original_len, payload) {
            Ok(_) => Ok(true),
            Err(StoreError::Corrupt(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Quarantined blocks still awaiting repair: a `<hex>.corrupt`
    /// tombstone with no replacement record. These are damage an
    /// operator must still act on, even though `keys()` no longer
    /// lists them.
    fn quarantined_keys(&self) -> io::Result<Vec<Digest>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for name in self.vfs.read_dir(&shard.dir)? {
                let Some(stem) = name.strip_suffix(".corrupt") else {
                    continue;
                };
                if let Some(key) = parse_hex(stem) {
                    if !self.contains(&key) {
                        out.push(key);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Walk the store with `parallelism` workers, hash-checking every
    /// block at rest (§5.6's triple-verify discipline as an operator
    /// tool). Read-only: damaged blocks are reported, not touched —
    /// pair with [`ShardedStore::quarantine`] or the fleet's
    /// read-repair to act on the findings. Quarantined blocks whose
    /// replacement has not arrived yet are reported as corrupt too;
    /// damage must stay visible until it is actually repaired.
    pub fn scrub(&self, parallelism: usize) -> Result<ScrubReport, StoreError> {
        let todo = self.keys()?;
        let quarantined = self.quarantined_keys()?;
        let quarantined_count = quarantined.len() as u64;
        let t0 = Instant::now();
        let next = AtomicUsize::new(0);
        let corrupt = Mutex::new(quarantined);
        std::thread::scope(|scope| {
            for _ in 0..parallelism.max(1) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(key) = todo.get(i) else { break };
                    // I/O errors are folded into "damaged" for the
                    // report: either way the block is unreadable here.
                    if !self.check_block(key).unwrap_or(false) {
                        corrupt.lock().push(*key);
                    }
                });
            }
        });
        let corrupt_keys = corrupt.into_inner();
        Ok(ScrubReport {
            scanned: todo.len() as u64 + quarantined_count,
            corrupt: corrupt_keys.len() as u64,
            corrupt_keys,
            secs: t0.elapsed().as_secs_f64(),
        })
    }

    /// Header-only crash-damage check used by the recovery sweep: is
    /// the record's header parseable, and (for raw records, where it
    /// is knowable without decoding) is the payload the length the
    /// header declares? Encoded payloads torn mid-stream are caught by
    /// the read path's hash gate and by `scrub`; this pass only
    /// quarantines what a crash demonstrably tore. Deliberately does
    /// not touch the corrupt counter or the cache — it reports to the
    /// recovery accounting instead.
    fn record_is_torn(&self, key: &Digest) -> Result<bool, StoreError> {
        let path = self.block_path(key);
        let mut f = match self.vfs.open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e.into()),
        };
        let total = f.len()?;
        let mut header = [0u8; HEADER_LEN];
        match f.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(true),
            Err(e) => return Err(e.into()),
        }
        if header[..4] != RECORD_MAGIC {
            return Ok(true);
        }
        let Some(format) = parse_format(header[4]) else {
            return Ok(true);
        };
        let original_len = u64::from_le_bytes(header[5..13].try_into().expect("8 bytes"));
        let payload_len = total.saturating_sub(HEADER_LEN as u64);
        Ok(format == StoredFormat::Raw && payload_len != original_len)
    }

    /// The crash-recovery sweep: walk every shard, delete orphaned
    /// `*.tmp` files (a crash mid-write leaves them), quarantine
    /// records whose header a crash tore, and reconcile the at-rest
    /// block count. With `apply = false` nothing is touched — the
    /// report says what *would* happen (the CLI's dry-run default).
    ///
    /// Runs automatically at [`ShardedStore::open`]; an operator can
    /// rerun it any time via `lepton store recover`.
    pub fn recover(&self, apply: bool) -> Result<RecoveryReport, StoreError> {
        let t0 = Instant::now();
        let mut report = RecoveryReport {
            applied: apply,
            ..Default::default()
        };
        for shard in &self.shards {
            let mut removed_any = false;
            for name in self.vfs.read_dir(&shard.dir)? {
                if name.starts_with(".tmp-") {
                    report.orphans_found += 1;
                    if apply {
                        let _guard = shard.write_lock.lock();
                        if self.vfs.remove_file(&shard.dir.join(&name)).is_ok() {
                            report.orphans_removed += 1;
                            removed_any = true;
                        }
                    }
                    continue;
                }
                if let Some(stem) = name.strip_suffix(".corrupt") {
                    if let Some(key) = parse_hex(stem) {
                        if !self.contains(&key) {
                            report.quarantined_pending += 1;
                        }
                    }
                    continue;
                }
                let Some(key) = parse_hex(&name) else {
                    continue;
                };
                if self.record_is_torn(&key)? {
                    report.torn_found += 1;
                    if apply && self.quarantine(&key)? {
                        report.torn_quarantined += 1;
                        report.quarantined_pending += 1;
                    }
                } else {
                    report.blocks += 1;
                }
            }
            if removed_any {
                // The removals must be durable too, or the next crash
                // resurrects the orphans this sweep just buried.
                self.vfs.sync_dir(&shard.dir)?;
            }
        }
        report.secs = t0.elapsed().as_secs_f64();
        self.metrics.recovery_runs.inc();
        self.metrics.recovery_orphans.add(report.orphans_removed);
        self.metrics.recovery_torn.add(report.torn_quarantined);
        self.metrics.blocks_at_rest.set(report.blocks as i64);
        Ok(report)
    }

    /// Move a damaged record aside (renamed to `<hex>.corrupt`, a name
    /// the store's walks skip) so a subsequent `put` of the true
    /// content can land — content-addressed dedup would otherwise see
    /// the damaged file and refuse to rewrite it. Returns whether a
    /// record was actually quarantined. The serving path calls this
    /// when a read trips the integrity gate, which is what lets a
    /// fleet's read-repair overwrite a bad replica.
    /// Quarantine runs even on a read-only store: it moves damage
    /// aside without writing new data, and repair must stay possible
    /// on a degraded node.
    pub fn quarantine(&self, key: &Digest) -> Result<bool, StoreError> {
        let shard = self.shard_of(key);
        let path = self.block_path(key);
        let _guard = shard.write_lock.lock();
        shard.cache.lock().remove(key);
        let dest = self.quarantine_path(key);
        match self.vfs.rename(&path, &dest) {
            Ok(()) => {
                // The tombstone rename must be as durable as the data
                // renames, or a crash un-quarantines the damage.
                if let Err(e) = self.vfs.sync_dir(&shard.dir) {
                    self.latch_read_only(&format!("failed fsync during quarantine: {e}"));
                    return Err(StoreError::Io(e));
                }
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Convert one existing block to Lepton in place if it qualifies.
    /// Returns `(bytes_before, bytes_after)` when converted.
    fn backfill_one(&self, key: &Digest) -> Result<Option<(u64, u64)>, StoreError> {
        let Some((format, _, before)) = self.read_header(key)? else {
            return Ok(None);
        };
        if format == StoredFormat::Lepton {
            return Ok(None);
        }
        // Full read path (hash check included): never convert bytes we
        // cannot prove are the original content.
        let Some(original) = self.get(key)? else {
            return Ok(None);
        };
        if !looks_like_jpeg(&original) {
            return Ok(None);
        }
        let Some(lepton) = self.try_admit(&original) else {
            return Ok(None);
        };
        if lepton.len() as u64 >= before {
            return Ok(None);
        }
        let shard = self.shard_of(key);
        let after = lepton.len() as u64;
        {
            let _guard = shard.write_lock.lock();
            self.write_record(
                shard,
                &self.block_path(key),
                StoredFormat::Lepton,
                original.len() as u64,
                &lepton,
            )?;
        }
        // The cached decode stays valid (content is unchanged). The
        // put-path counters are not touched — this handle may never
        // have put the block — only the monotonic conversion count;
        // at-rest truth comes from `stat()`.
        self.metrics.backfill_conversions.inc();
        Ok(Some((before, after)))
    }

    /// The backfill driver (§5.6): walk the store with `parallelism`
    /// worker threads, converting every eligible block in place. Safe
    /// to run while `put`/`get` traffic continues.
    pub fn backfill(&self, parallelism: usize) -> Result<BackfillReport, StoreError> {
        let parallelism = parallelism.max(1);
        let todo: Vec<Digest> = {
            let mut v = Vec::new();
            for key in self.keys()? {
                if self.format_of(&key)? != Some(StoredFormat::Lepton) {
                    v.push(key);
                }
            }
            v
        };
        let t0 = Instant::now();
        let next = AtomicUsize::new(0);
        let converted = AtomicU64::new(0);
        let skipped = AtomicU64::new(0);
        let bytes_before = AtomicU64::new(0);
        let bytes_after = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..parallelism {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(key) = todo.get(i) else { break };
                    match self.backfill_one(key) {
                        Ok(Some((before, after))) => {
                            converted.fetch_add(1, Ordering::Relaxed);
                            bytes_before.fetch_add(before, Ordering::Relaxed);
                            bytes_after.fetch_add(after, Ordering::Relaxed);
                        }
                        // Corrupt or ineligible blocks are left alone;
                        // backfill is an optimization pass, not repair.
                        Ok(None) | Err(_) => {
                            skipped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        Ok(BackfillReport {
            scanned: todo.len() as u64,
            converted: converted.into_inner(),
            skipped: skipped.into_inner(),
            bytes_before: bytes_before.into_inner(),
            bytes_after: bytes_after.into_inner(),
            secs: t0.elapsed().as_secs_f64(),
        })
    }
}

/// Whether an I/O error means the disk is full — checked by errno (the
/// injector forges errno 28 exactly like a real full disk) and by kind
/// for filesystems that report it differently.
fn is_enospc(e: &io::Error) -> bool {
    e.raw_os_error() == Some(28) || matches!(e.kind(), io::ErrorKind::StorageFull)
}

fn format_byte(f: StoredFormat) -> u8 {
    match f {
        StoredFormat::Lepton => b'L',
        StoredFormat::Deflate => b'Z',
        StoredFormat::Raw => b'R',
    }
}

fn parse_format(b: u8) -> Option<StoredFormat> {
    match b {
        b'L' => Some(StoredFormat::Lepton),
        b'Z' => Some(StoredFormat::Deflate),
        b'R' => Some(StoredFormat::Raw),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lepton_corpus::builder::{clean_jpeg, CorpusSpec};

    fn spec() -> CorpusSpec {
        CorpusSpec {
            min_dim: 64,
            max_dim: 144,
            ..Default::default()
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("lepton-blockstore-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn jpeg_put_is_transparent_and_compressed() {
        let root = temp_root("basic");
        let store = ShardedStore::open(&root, StoreConfig::default()).unwrap();
        let jpg = clean_jpeg(&spec(), 1);
        let key = store.put(&jpg).unwrap();
        assert_eq!(key, sha256(&jpg), "addressed by original content");
        assert_eq!(store.format_of(&key).unwrap(), Some(StoredFormat::Lepton));
        assert!(store.stored_size(&key).unwrap().unwrap() < jpg.len());
        assert_eq!(store.get(&key).unwrap().unwrap(), jpg);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn non_jpeg_stored_raw_and_roundtrips() {
        let root = temp_root("raw");
        let store = ShardedStore::open(&root, StoreConfig::default()).unwrap();
        let data = b"plain bytes, not an image".repeat(50);
        let key = store.put(&data).unwrap();
        assert_eq!(store.format_of(&key).unwrap(), Some(StoredFormat::Raw));
        assert_eq!(store.get(&key).unwrap().unwrap(), data);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// No write path produces a `b'Z'` record, but the record format is
    /// frozen: one an earlier build wrote must still read back, behind
    /// the same hash gate as every other format.
    #[test]
    fn deflate_record_reads_back_and_is_hash_checked() {
        use crate::vfs::{FaultConfig, FaultVfs, Vfs};
        let vfs = FaultVfs::new(FaultConfig::default());
        let cfg = StoreConfig {
            cache_bytes: 0, // every read must go back to the record
            ..Default::default()
        };
        let store = ShardedStore::open_on(vfs.clone(), "/store", cfg).unwrap();
        let data = b"text an earlier build stored deflated. ".repeat(40);
        let key = sha256(&data);
        let z = lepton_deflate::zlib_compress(&data, lepton_deflate::Level::Default);
        let mut record = RECORD_MAGIC.to_vec();
        record.push(b'Z');
        record.extend_from_slice(&(data.len() as u64).to_le_bytes());
        record.extend_from_slice(&z);
        let path = store.block_path(&key);
        vfs.write(&path, &record).unwrap();

        assert_eq!(store.format_of(&key).unwrap(), Some(StoredFormat::Deflate));
        assert_eq!(store.stored_size(&key).unwrap(), Some(z.len()));
        assert_eq!(store.get(&key).unwrap().unwrap(), data);

        // A flipped payload byte is refused as corrupt. The one flip
        // that lands in the Deflate stream's final padding bits decodes
        // to the same bytes and may be served; wrong bytes never are.
        let mut refused = 0;
        for i in HEADER_LEN..record.len() {
            let mut bad = record.clone();
            bad[i] ^= 0x10;
            vfs.write(&path, &bad).unwrap();
            match store.get(&key) {
                Err(StoreError::Corrupt(k)) if k == key => refused += 1,
                Ok(Some(bytes)) => assert_eq!(bytes, data, "wrong bytes at {i}"),
                other => panic!("flip at {i}: {other:?}"),
            }
        }
        assert!(
            refused >= z.len() - 1,
            "only {refused} of {} flips refused",
            z.len()
        );
    }

    #[test]
    fn cache_serves_hot_reads() {
        let root = temp_root("cache");
        let store = ShardedStore::open(&root, StoreConfig::default()).unwrap();
        let jpg = clean_jpeg(&spec(), 2);
        let key = store.put(&jpg).unwrap();
        assert_eq!(store.get(&key).unwrap().unwrap(), jpg); // cold: decode + fill
        assert_eq!(store.get(&key).unwrap().unwrap(), jpg); // hot
        assert_eq!(store.metrics.cache_hits.get(), 1);
        assert_eq!(store.metrics.cache_misses.get(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn lru_evicts_oldest_within_budget() {
        let mut cache = ShardCache::new(100);
        cache.insert([1; 32], vec![0; 40]);
        cache.insert([2; 32], vec![0; 40]);
        assert!(cache.get(&[1; 32]).is_some()); // touch 1: now 2 is LRU
        cache.insert([3; 32], vec![0; 40]); // evicts 2
        assert!(cache.get(&[2; 32]).is_none());
        assert!(cache.get(&[1; 32]).is_some());
        assert!(cache.get(&[3; 32]).is_some());
        // An over-budget block is refused, not cached at everyone
        // else's expense.
        cache.insert([4; 32], vec![0; 101]);
        assert!(cache.get(&[4; 32]).is_none());
    }

    #[test]
    fn store_persists_across_reopen() {
        let root = temp_root("reopen");
        let jpg = clean_jpeg(&spec(), 3);
        let key = {
            let store = ShardedStore::open(&root, StoreConfig::default()).unwrap();
            store.put(&jpg).unwrap()
        };
        let store = ShardedStore::open(&root, StoreConfig::default()).unwrap();
        assert!(store.contains(&key));
        assert_eq!(store.get(&key).unwrap().unwrap(), jpg);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_with_wrong_shard_count_is_refused() {
        let root = temp_root("geometry");
        drop(ShardedStore::open(&root, StoreConfig::default()).unwrap());
        let wrong = StoreConfig {
            shards: 3,
            ..Default::default()
        };
        assert!(ShardedStore::open(&root, wrong).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn shutoff_then_backfill_converts_in_place() {
        let root = temp_root("backfill");
        let cfg = StoreConfig {
            compress_on_write: false,
            ..Default::default()
        };
        let store = ShardedStore::open(&root, cfg).unwrap();
        let jpgs: Vec<Vec<u8>> = (0..4).map(|s| clean_jpeg(&spec(), 10 + s)).collect();
        let mut keys = Vec::new();
        for j in &jpgs {
            keys.push(store.put(j).unwrap());
        }
        // Plus one non-JPEG that backfill must leave alone.
        let other = store.put(b"not an image at all").unwrap();
        for k in &keys {
            assert_eq!(store.format_of(k).unwrap(), Some(StoredFormat::Raw));
        }
        let report = store.backfill(2).unwrap();
        assert_eq!(report.scanned, 5);
        assert_eq!(report.converted, 4, "{report:?}");
        assert!(report.savings() > 0.0);
        for (k, j) in keys.iter().zip(&jpgs) {
            assert_eq!(store.format_of(k).unwrap(), Some(StoredFormat::Lepton));
            assert_eq!(store.get(k).unwrap().unwrap(), *j);
        }
        assert_eq!(store.format_of(&other).unwrap(), Some(StoredFormat::Raw));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn backfill_from_fresh_handle_keeps_counters_sane() {
        // A backfill run in a process that never put the blocks (the
        // CLI pattern: put in one invocation, backfill in another)
        // must not wrap the put-path counters.
        let root = temp_root("fresh-backfill");
        {
            let cfg = StoreConfig {
                compress_on_write: false,
                ..Default::default()
            };
            let store = ShardedStore::open(&root, cfg).unwrap();
            store.put(&clean_jpeg(&spec(), 21)).unwrap();
        }
        let store = ShardedStore::open(&root, StoreConfig::default()).unwrap();
        let report = store.backfill(2).unwrap();
        assert_eq!(report.converted, 1);
        let m = &store.metrics;
        assert_eq!(m.backfill_conversions.get(), 1);
        assert_eq!(m.raw_blocks.get(), 0, "no wraparound");
        assert!(m.bytes_stored.get() < u64::MAX / 2);
        // The disk walk is the authority on at-rest state.
        let s = store.stat().unwrap();
        assert_eq!(s.lepton_blocks, 1);
        assert_eq!(s.raw_blocks, 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn put_raw_skips_the_codec() {
        let root = temp_root("putraw");
        let store = ShardedStore::open(&root, StoreConfig::default()).unwrap();
        let jpg = clean_jpeg(&spec(), 22);
        let key = store.put_raw(&jpg).unwrap();
        assert_eq!(store.format_of(&key).unwrap(), Some(StoredFormat::Raw));
        assert_eq!(store.get(&key).unwrap().unwrap(), jpg);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scrub_reports_damage_and_quarantine_clears_it() {
        let root = temp_root("scrub");
        let store = ShardedStore::open(&root, StoreConfig::default()).unwrap();
        let jpg = clean_jpeg(&spec(), 31);
        let good = store.put(&jpg).unwrap();
        let bad = store.put(b"soon to be damaged payload bytes").unwrap();

        let clean = store.scrub(2).unwrap();
        assert_eq!(clean.scanned, 2);
        assert_eq!(clean.corrupt, 0, "{clean:?}");

        // Flip a payload byte of the raw block on disk.
        let path = store.block_path(&bad);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let report = store.scrub(2).unwrap();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.corrupt, 1, "{report:?}");
        assert_eq!(report.corrupt_keys, vec![bad]);
        // Scrub is read-only: the damaged record is still in place…
        assert!(store.contains(&bad));
        assert!(matches!(store.get(&bad), Err(StoreError::Corrupt(_))));

        // …until quarantine moves it aside, after which a put of the
        // true content lands instead of hitting the dedup short-cut.
        assert!(store.quarantine(&bad).unwrap());
        assert!(!store.contains(&bad));
        assert!(!store.quarantine(&bad).unwrap(), "already moved");
        // Quarantined is damaged, not absent: a read must keep saying
        // Corrupt (never an authoritative miss), and a scrub must keep
        // reporting the block until the repair actually lands.
        assert!(matches!(store.get(&bad), Err(StoreError::Corrupt(_))));
        let pending = store.scrub(1).unwrap();
        assert_eq!(pending.corrupt, 1, "{pending:?}");
        assert_eq!(pending.corrupt_keys, vec![bad]);
        let again = store.put(b"soon to be damaged payload bytes").unwrap();
        assert_eq!(again, bad);
        assert_eq!(
            store.get(&bad).unwrap().unwrap(),
            b"soon to be damaged payload bytes"
        );
        let healed = store.scrub(1).unwrap();
        assert_eq!(healed.corrupt, 0);
        // The intact block was never disturbed.
        assert_eq!(store.get(&good).unwrap().unwrap(), jpg);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scrub_bypasses_the_read_cache() {
        let root = temp_root("scrub-cache");
        let store = ShardedStore::open(&root, StoreConfig::default()).unwrap();
        let key = store.put(b"cached and then damaged").unwrap();
        // Warm the cache, then damage the disk record behind it.
        assert!(store.get(&key).unwrap().is_some());
        let path = store.block_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        // A cached read would still succeed; the scrub must not.
        let report = store.scrub(1).unwrap();
        assert_eq!(report.corrupt, 1, "scrub answered from cache");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn hex_digest_roundtrip() {
        let d = sha256(b"abc");
        assert_eq!(parse_hex(&hex(&d)), Some(d));
        assert_eq!(parse_hex("zz"), None);
        assert_eq!(parse_hex(&"0".repeat(63)), None);
    }

    #[test]
    fn enospc_latches_read_only_sheds_writes_serves_reads() {
        use crate::vfs::{FaultConfig, FaultKind, FaultVfs};
        let vfs = FaultVfs::new(FaultConfig::default());
        let cfg = StoreConfig {
            shards: 2,
            compress_on_write: false,
            ..Default::default()
        };
        let store = ShardedStore::open_on(vfs.clone(), "/store", cfg).unwrap();
        let a = store.put(b"safe before the disk filled").unwrap();

        vfs.inject_next(FaultKind::Enospc);
        let err = store.put(b"this write hits a full disk").unwrap_err();
        assert!(matches!(err, StoreError::ReadOnly(_)), "{err}");
        assert!(store.is_read_only());
        assert!(store.read_only_reason().unwrap().contains("ENOSPC"));
        assert_eq!(store.metrics.readonly.value(), 1);

        // Subsequent writes shed with the typed error without touching
        // the disk; reads keep serving.
        let before = store.metrics.readonly_sheds.get();
        assert!(matches!(
            store.put(b"still full"),
            Err(StoreError::ReadOnly(_))
        ));
        assert!(store.metrics.readonly_sheds.get() > before);
        assert_eq!(
            store.get(&a).unwrap().unwrap(),
            b"safe before the disk filled"
        );
        // A fresh handle on a repaired disk is writable again.
        let store2 = ShardedStore::open_on(
            vfs.clone(),
            "/store",
            StoreConfig {
                shards: 2,
                compress_on_write: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!store2.is_read_only());
        store2.put(b"disk repaired").unwrap();
    }

    #[test]
    fn recover_sweeps_orphans_and_quarantines_torn_records() {
        use crate::vfs::{FaultConfig, FaultVfs, Vfs};
        let vfs = FaultVfs::new(FaultConfig::default());
        let cfg = StoreConfig {
            shards: 2,
            compress_on_write: false,
            ..Default::default()
        };
        let store = ShardedStore::open_on(vfs.clone(), "/store", cfg.clone()).unwrap();
        let good = store.put(b"healthy block").unwrap();

        // Plant crash debris by hand: an orphaned tmp and a record
        // whose header a "crash" truncated to garbage.
        let torn_key = sha256(b"the torn block");
        vfs.write(&store.shards[0].dir.join(".tmp-999-0"), b"partial")
            .unwrap();
        vfs.write(&store.block_path(&torn_key), b"LB").unwrap();

        let dry = store.recover(false).unwrap();
        assert_eq!(dry.orphans_found, 1);
        assert_eq!(dry.orphans_removed, 0, "dry run must not touch disk");
        assert_eq!(dry.torn_found, 1);
        assert_eq!(dry.torn_quarantined, 0);
        assert!(!dry.clean());
        assert!(vfs.exists(&store.shards[0].dir.join(".tmp-999-0")));

        let fix = store.recover(true).unwrap();
        assert_eq!(fix.orphans_removed, 1);
        assert_eq!(fix.torn_quarantined, 1);
        assert_eq!(fix.blocks, 1);
        assert!(!vfs.exists(&store.shards[0].dir.join(".tmp-999-0")));
        // The torn record is damage-visible, not absent.
        assert!(matches!(store.get(&torn_key), Err(StoreError::Corrupt(_))));
        assert_eq!(store.get(&good).unwrap().unwrap(), b"healthy block");

        let after = store.recover(true).unwrap();
        assert!(after.orphans_found == 0 && after.torn_found == 0);
        assert_eq!(after.quarantined_pending, 1, "repair still pending");
        assert_eq!(store.metrics.recovery_orphans.get(), 1);
        assert_eq!(store.metrics.recovery_torn.get(), 1);
    }

    #[test]
    fn blocks_spread_across_shard_directories() {
        let root = temp_root("spread");
        let store = ShardedStore::open(&root, StoreConfig::default()).unwrap();
        for i in 0..64u64 {
            store.put(format!("block {i}").as_bytes()).unwrap();
        }
        let used = (0..store.shard_count())
            .filter(|i| {
                std::fs::read_dir(root.join(format!("shard-{i:03}")))
                    .map(|d| d.count() > 0)
                    .unwrap_or(false)
            })
            .count();
        assert!(used > store.shard_count() / 2, "only {used} shards used");
        assert_eq!(store.keys().unwrap().len(), 64);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
