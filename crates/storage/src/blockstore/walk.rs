//! The whole-store walks: the integrity scrub, the crash-recovery
//! sweep with the quarantine it applies, and the §5.6 backfill. Scrub
//! and backfill run on one parallel cursor loop.

use super::record::Entry;
use super::{ShardedStore, StoreError};
use crate::sha256::Digest;
use crate::{lock, StoredFormat};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

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

/// The cursor loop of the parallel walks: `workers` scoped threads
/// claim `items` by index from one shared cursor until it runs out.
fn for_each_parallel<T: Sync>(items: &[T], workers: usize, visit: impl Fn(&T) + Sync) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                while let Some(item) = items.get(next.fetch_add(1, Ordering::Relaxed)) {
                    visit(item);
                }
            });
        }
    });
}

impl ShardedStore {
    /// Walk the store with `parallelism` workers, hash-checking every
    /// block at rest (§5.6's triple-verify discipline as an operator
    /// tool). Read-only: damaged blocks are reported, not touched —
    /// pair with [`ShardedStore::quarantine`] or the fleet's
    /// read-repair to act on the findings. Quarantined blocks whose
    /// replacement has not arrived yet are reported as corrupt too;
    /// damage must stay visible until it is actually repaired.
    pub fn scrub(&self, parallelism: usize) -> Result<ScrubReport, StoreError> {
        let (mut todo, mut pending) = (Vec::new(), Vec::new());
        for entry in self.entries()? {
            match entry {
                Entry::Block(key) => todo.push(key),
                Entry::Tombstone(key) => pending.push(key),
                Entry::Tmp | Entry::Other => {}
            }
        }
        // A tombstone with a replacement record beside it is repaired.
        pending.retain(|key| !self.contains(key));
        let t0 = Instant::now();
        let scanned = (todo.len() + pending.len()) as u64;
        let corrupt = Mutex::new(pending);
        for_each_parallel(&todo, parallelism, |key| {
            // I/O errors are folded into "damaged" for the report:
            // either way the block is unreadable here.
            if !self.check_block(key).unwrap_or(false) {
                lock(&corrupt).push(*key);
            }
        });
        let corrupt_keys = corrupt.into_inner().unwrap_or_else(PoisonError::into_inner);
        Ok(ScrubReport {
            scanned,
            corrupt: corrupt_keys.len() as u64,
            corrupt_keys,
            secs: t0.elapsed().as_secs_f64(),
        })
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
                match Entry::classify(&name) {
                    Entry::Tmp => {
                        report.orphans_found += 1;
                        if apply {
                            let _guard = lock(&shard.write_lock);
                            if self.vfs.remove_file(&shard.dir.join(&name)).is_ok() {
                                report.orphans_removed += 1;
                                removed_any = true;
                            }
                        }
                    }
                    Entry::Tombstone(key) if !self.contains(&key) => {
                        report.quarantined_pending += 1;
                    }
                    Entry::Block(key) => {
                        // Torn is what a crash demonstrably tore: a
                        // damaged header, or a raw payload that is not
                        // its header's length. Recovery accounts for it;
                        // the corrupt counter is the read path's.
                        let torn = match self.read_header(&key) {
                            Ok(rec) => rec.is_some_and(|(header, len)| !header.fits(len)),
                            Err(StoreError::Corrupt(_)) => true,
                            Err(e) => return Err(e),
                        };
                        if !torn {
                            report.blocks += 1;
                            continue;
                        }
                        report.torn_found += 1;
                        if apply && self.quarantine(&key)? {
                            report.torn_quarantined += 1;
                            report.quarantined_pending += 1;
                        }
                    }
                    Entry::Tombstone(_) | Entry::Other => {}
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
        let _guard = lock(&shard.write_lock);
        lock(&shard.cache).remove(key);
        let (path, dest) = (self.block_path(key), self.quarantine_path(key));
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
        let Some((header, before)) = self.read_header(key)? else {
            return Ok(None);
        };
        if header.format == StoredFormat::Lepton {
            return Ok(None);
        }
        // Full read path (hash check included): never convert bytes we
        // cannot prove are the original content.
        let Some(original) = self.get(key)? else {
            return Ok(None);
        };
        if !super::looks_like_jpeg(&original) {
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
            let _guard = lock(&shard.write_lock);
            let (path, len) = (self.block_path(key), original.len() as u64);
            self.write_record(shard, &path, StoredFormat::Lepton, len, &lepton)?;
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
    /// to run while `put`/`get` traffic continues. A record whose
    /// header is damaged is scanned and skipped like any other
    /// ineligible block; only a genuine I/O failure aborts the pass.
    pub fn backfill(&self, parallelism: usize) -> Result<BackfillReport, StoreError> {
        let mut todo = Vec::new();
        for key in self.keys()? {
            match self.format_of(&key) {
                Ok(Some(StoredFormat::Lepton) | None) => {}
                Ok(Some(_)) | Err(StoreError::Corrupt(_)) => todo.push(key),
                Err(e) => return Err(e),
            }
        }
        let t0 = Instant::now();
        let report = Mutex::new(BackfillReport {
            scanned: todo.len() as u64,
            ..Default::default()
        });
        for_each_parallel(&todo, parallelism, |key| {
            let converted = self.backfill_one(key);
            let mut r = lock(&report);
            match converted {
                Ok(Some((before, after))) => {
                    r.converted += 1;
                    r.bytes_before += before;
                    r.bytes_after += after;
                }
                // Corrupt or ineligible blocks are left alone; backfill
                // is an optimization pass, not repair.
                Ok(None) | Err(_) => r.skipped += 1,
            }
        });
        Ok(BackfillReport {
            secs: t0.elapsed().as_secs_f64(),
            ..report.into_inner().unwrap_or_else(PoisonError::into_inner)
        })
    }
}
