//! A counting, timing wrapper around the storage layer's `Vfs` — the
//! traced run's view of what a put or a get costs at the filesystem
//! boundary (fsyncs, bytes written per logical byte, read time). The
//! end-to-end run passes the real filesystem straight through.

use lepton_storage::vfs::{Vfs, VfsFile};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Totals since creation. Plain statistics: `Relaxed` throughout.
#[derive(Debug, Default)]
pub struct VfsCounters {
    /// File and directory fsyncs.
    pub fsyncs: AtomicU64,
    /// Nanoseconds inside fsync calls.
    pub fsync_ns: AtomicU64,
    /// Bytes passed to `write`.
    pub bytes_written: AtomicU64,
    /// Files opened for reading.
    pub opens: AtomicU64,
    /// Nanoseconds inside open-for-read and `read` calls.
    pub read_ns: AtomicU64,
}

/// A point-in-time copy of [`VfsCounters`].
#[derive(Clone, Copy, Debug, Default)]
pub struct VfsSnapshot {
    /// See [`VfsCounters::fsyncs`].
    pub fsyncs: u64,
    /// See [`VfsCounters::fsync_ns`].
    pub fsync_ns: u64,
    /// See [`VfsCounters::bytes_written`].
    pub bytes_written: u64,
    /// See [`VfsCounters::opens`].
    pub opens: u64,
    /// See [`VfsCounters::read_ns`].
    pub read_ns: u64,
}

impl VfsCounters {
    /// Copy the counters.
    pub fn snapshot(&self) -> VfsSnapshot {
        VfsSnapshot {
            fsyncs: self.fsyncs.load(Relaxed),
            fsync_ns: self.fsync_ns.load(Relaxed),
            bytes_written: self.bytes_written.load(Relaxed),
            opens: self.opens.load(Relaxed),
            read_ns: self.read_ns.load(Relaxed),
        }
    }

    fn timed<T>(&self, cell: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        cell.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        out
    }
}

/// The wrapper.
#[derive(Debug)]
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    counters: Arc<VfsCounters>,
}

impl CountingVfs {
    /// Wrap `inner`, accumulating into `counters`.
    pub fn new(inner: Arc<dyn Vfs>, counters: Arc<VfsCounters>) -> CountingVfs {
        CountingVfs { inner, counters }
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<VfsCounters>,
}

impl Read for CountingFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let c = &self.counters;
        c.timed(&c.read_ns, || self.inner.read(buf))
    }
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counters.bytes_written.fetch_add(n as u64, Relaxed);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for CountingFile {
    fn sync_all(&mut self) -> io::Result<()> {
        let c = &self.counters;
        c.fsyncs.fetch_add(1, Relaxed);
        c.timed(&c.fsync_ns, || self.inner.sync_all())
    }
    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile {
            inner: self.inner.create(path)?,
            counters: Arc::clone(&self.counters),
        }))
    }
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let c = &self.counters;
        let inner = c.timed(&c.read_ns, || self.inner.open(path))?;
        c.opens.fetch_add(1, Relaxed);
        Ok(Box::new(CountingFile {
            inner,
            counters: Arc::clone(c),
        }))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let c = &self.counters;
        c.fsyncs.fetch_add(1, Relaxed);
        c.timed(&c.fsync_ns, || self.inner.sync_dir(path))
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        self.inner.read_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}
