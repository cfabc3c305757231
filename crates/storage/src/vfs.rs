//! The storage filesystem boundary: a [`Vfs`] trait the blockstore
//! writes through, with a passthrough [`RealVfs`] for production and a
//! deterministic, seeded [`FaultVfs`] for crash-consistency testing.
//!
//! The paper's deployment promise — recompress hundreds of petabytes
//! and "never lose or corrupt a single byte" — is only as strong as
//! the write protocol's behaviour under hostile *environments*: a
//! power cut between `write` and `fsync`, a rename the directory never
//! learned about, a disk that fills mid-record. `FaultVfs` makes those
//! environments reproducible: it is a fully in-memory filesystem that
//! models POSIX durability (file contents become crash-durable only at
//! `sync_all`; names become crash-durable only when the parent
//! directory is fsynced) and injects faults — EIO, ENOSPC, short
//! writes — on a schedule derived purely from a seed and a
//! monotonically increasing operation counter. A simulated power cut
//! ("crash at injection point k") discards everything that was never
//! fsynced, applying a per-file *remnant policy* (lose the unsynced
//! tail, keep a torn prefix of it, or keep it all) and reverting
//! renames whose directory entry never reached the platter.
//!
//! Every decision is a pure function of `(seed, op counter)`, so any
//! chaos-test failure is replayable from its logged seed — the same
//! discipline the torture rig applies to hostile inputs, extended to
//! hostile hardware.

use crate::lock;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// An open file handle obtained from a [`Vfs`].
pub trait VfsFile: Read + Write + Send {
    /// Flush file *content* to durable storage (POSIX `fsync`). Does
    /// not make the file's directory entry durable — that is
    /// [`Vfs::sync_dir`]'s job.
    fn sync_all(&mut self) -> io::Result<()>;

    /// Total file length in bytes.
    fn len(&self) -> io::Result<u64>;

    /// Whether the file is empty.
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// The filesystem operations the storage layer is allowed to use.
///
/// Everything the blockstore does to disk goes through this trait, so
/// a single swap point decides whether writes land on the real
/// filesystem or inside the deterministic fault injector.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Create (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Open an existing file for reading.
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Atomically rename `from` to `to` (same directory in practice).
    /// Crash-durable only once the parent directory is fsynced.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove a file; `NotFound` if absent.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Create a directory and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Fsync a directory, making its entries (creations, renames,
    /// removals) crash-durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;

    /// File names (not paths) of the direct children of `path`.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<String>>;

    /// Whether a file or directory exists at `path`.
    fn exists(&self, path: &Path) -> bool;

    /// Read an entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut f = self.open(path)?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }

    /// Create a file with the given contents and fsync it. The name is
    /// crash-durable only after a [`Vfs::sync_dir`] of the parent.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut f = self.create(path)?;
        f.write_all(data)?;
        f.sync_all()
    }
}

// ---------------------------------------------------------------------------
// RealVfs: the production passthrough.
// ---------------------------------------------------------------------------

/// Passthrough to `std::fs` — what production stores run on.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

struct RealFile(std::fs::File);

impl Read for RealFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for RealFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl VfsFile for RealFile {
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn len(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

impl Vfs for RealVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(std::fs::File::open(path)?)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Directory fsync: open the directory and fsync the handle.
        // On platforms where directories cannot be opened as files
        // (Windows), rename durability is the filesystem's problem and
        // this is a no-op.
        #[cfg(unix)]
        {
            std::fs::File::open(path)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Ok(())
        }
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            if let Some(name) = entry?.file_name().to_str() {
                out.push(name.to_string());
            }
        }
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
}

// ---------------------------------------------------------------------------
// FaultVfs: deterministic fault injection + power-cut simulation.
// ---------------------------------------------------------------------------

/// A fault the injector can produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Generic I/O failure; nothing was written.
    Eio,
    /// Disk full (`ENOSPC`); nothing was written.
    Enospc,
    /// Partial write: a prefix of the buffer landed, then EIO.
    ShortWrite,
    /// Simulated power cut: all un-fsynced state is discarded.
    PowerCut,
}

/// One injected fault, for the replay log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Operation counter value at injection.
    pub op: u64,
    /// What was injected.
    pub kind: FaultKind,
    /// Path the failing operation targeted.
    pub path: String,
}

/// Configuration for [`FaultVfs`]. Probabilities are per-mille and
/// drawn independently per mutating operation from `(seed, op)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultConfig {
    /// Seed every schedule decision derives from.
    pub seed: u64,
    /// EIO probability per mutating op (‰).
    pub eio_per_mille: u16,
    /// ENOSPC probability per mutating op (‰).
    pub enospc_per_mille: u16,
    /// Short-write probability per write call (‰).
    pub short_write_per_mille: u16,
    /// Power-cut at this mutating-op index (the crash matrix sweeps
    /// this over every index). `None` = never.
    pub crash_at: Option<u64>,
}

impl FaultConfig {
    /// A schedule that injects nothing — pure crash-matrix mode.
    pub fn crash_only(seed: u64, crash_at: u64) -> Self {
        FaultConfig {
            seed,
            crash_at: Some(crash_at),
            ..Default::default()
        }
    }
}

/// One file in the in-memory filesystem.
#[derive(Clone, Debug, Default)]
struct Node {
    /// What reads observe now.
    live: Vec<u8>,
    /// Content as of the last successful `sync_all` (what a crash
    /// preserves, modulo the remnant policy applied to the tail).
    durable: Vec<u8>,
    /// Whether `sync_all` ever succeeded on this incarnation.
    content_synced: bool,
    /// Whether this *name* survives a crash (parent dir fsynced since
    /// the entry appeared here).
    name_durable: bool,
    /// Where the durable view still thinks this file lives: set by
    /// rename until the parent directory is fsynced. On crash the file
    /// reappears under this name (rename-without-dir-fsync reordering).
    crash_alias: Option<(PathBuf, bool)>,
}

#[derive(Debug, Default)]
struct FsState {
    files: BTreeMap<PathBuf, Node>,
    dirs: BTreeSet<PathBuf>,
    /// Names removed in the live view whose removal is not yet
    /// dir-synced: (path, node as it was). A crash resurrects them.
    pending_removals: Vec<(PathBuf, Node)>,
    op: u64,
    crashed: bool,
    log: Vec<FaultEvent>,
    injected: VecDeque<FaultKind>,
}

/// Deterministic in-memory filesystem with seeded fault injection and
/// power-cut simulation. See the module docs for the durability model.
pub struct FaultVfs {
    cfg: FaultConfig,
    state: Arc<Mutex<FsState>>,
}

impl std::fmt::Debug for FaultVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.state);
        f.debug_struct("FaultVfs")
            .field("seed", &self.cfg.seed)
            .field("op", &st.op)
            .field("crashed", &st.crashed)
            .field("files", &st.files.len())
            .finish()
    }
}

/// SplitMix64: the schedule's only source of randomness. A pure
/// function of its input, so `(seed, op)` fully determines every
/// injection decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn path_hash(p: &Path) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in p.as_os_str().as_encoded_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn eio(msg: &str) -> io::Error {
    io::Error::other(format!("injected fault: {msg}"))
}

fn enospc() -> io::Error {
    // Carry the real errno so the store's ENOSPC detection sees
    // exactly what a full disk would produce.
    io::Error::from_raw_os_error(28)
}

fn powered_off() -> io::Error {
    io::Error::other("simulated power cut: node is down")
}

impl FaultVfs {
    /// Build a fault-injecting filesystem with the given schedule.
    pub fn new(cfg: FaultConfig) -> Arc<Self> {
        Arc::new(FaultVfs {
            cfg,
            state: Arc::new(Mutex::new(FsState::default())),
        })
    }

    /// The configured schedule.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Mutating operations performed so far — the size of the crash
    /// matrix for a given workload.
    pub fn op_count(&self) -> u64 {
        lock(&self.state).op
    }

    /// Whether the simulated machine is currently powered off.
    pub fn crashed(&self) -> bool {
        lock(&self.state).crashed
    }

    /// Every fault injected so far, in order.
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        lock(&self.state).log.clone()
    }

    /// Queue a one-shot fault for the next mutating operation,
    /// regardless of the seeded schedule — targeted injection for
    /// tests ("the next fsync hits ENOSPC").
    pub fn inject_next(&self, kind: FaultKind) {
        lock(&self.state).injected.push_back(kind);
    }

    /// Cut power *now*: discard all un-fsynced state (applying the
    /// remnant policy to unsynced tails) and refuse every operation
    /// until [`FaultVfs::reboot`]. Idempotent.
    pub fn power_cut(&self) {
        let mut st = lock(&self.state);
        if !st.crashed {
            let op = st.op;
            Self::crash_locked(&self.cfg, &mut st, op);
        }
    }

    /// Bring the machine back up after a power cut. The surviving
    /// state is exactly what the crash semantics preserved.
    pub fn reboot(&self) {
        lock(&self.state).crashed = false;
    }

    /// The surviving live view: path → contents, sorted. Two
    /// `FaultVfs` instances driven identically must dump identically —
    /// the determinism contract the proptest pins down.
    pub fn dump(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        let st = lock(&self.state);
        st.files
            .iter()
            .map(|(p, n)| (p.clone(), n.live.clone()))
            .collect()
    }

    /// Apply power-cut semantics to the filesystem state.
    fn crash_locked(cfg: &FaultConfig, st: &mut FsState, op: u64) {
        st.crashed = true;
        st.log.push(FaultEvent {
            op,
            kind: FaultKind::PowerCut,
            path: String::new(),
        });
        let files = std::mem::take(&mut st.files);
        let mut survivors: BTreeMap<PathBuf, Node> = BTreeMap::new();
        for (path, mut node) in files {
            // Resolve the surviving *name* first: a rename that was
            // never dir-synced reverts to the old name if that name
            // was durable, otherwise (both names volatile) the record
            // vanishes entirely.
            let surviving_name = if node.name_durable {
                Some(path.clone())
            } else {
                match node.crash_alias.take() {
                    Some((alias, true)) => Some(alias),
                    _ => None,
                }
            };
            let Some(name) = surviving_name else { continue };
            if !node.content_synced {
                // Created, written, never fsynced — but the name was
                // durable (e.g. recreated over an old entry): content
                // is at the mercy of the page cache. Remnant policy.
                node.live = remnant(cfg.seed, op, &name, &[], &node.live);
            } else if node.live != node.durable {
                let base = std::mem::take(&mut node.durable);
                let tail_src = std::mem::take(&mut node.live);
                node.live = remnant(cfg.seed, op, &name, &base, &tail_src);
            }
            node.durable = node.live.clone();
            node.content_synced = true;
            node.name_durable = true;
            node.crash_alias = None;
            survivors.insert(name, node);
        }
        // Un-dir-synced removals never happened, as far as the platter
        // is concerned: the old entry comes back.
        for (path, node) in std::mem::take(&mut st.pending_removals) {
            survivors.entry(path).or_insert(node);
        }
        st.files = survivors;
    }
}

/// Count a mutating operation and decide whether it faults. Every
/// injected fault is logged. Returns `Ok(op_index)` when the op
/// proceeds; for `ShortWrite` the caller receives deterministic
/// entropy to derive the prefix length that lands before failing.
fn gate(
    cfg: &FaultConfig,
    st: &mut FsState,
    path: &Path,
    is_write: bool,
) -> Result<u64, InjectedFault> {
    if st.crashed {
        return Err(InjectedFault::Crashed);
    }
    let op = st.op;
    st.op += 1;
    if cfg.crash_at == Some(op) {
        FaultVfs::crash_locked(cfg, st, op);
        return Err(InjectedFault::Crashed);
    }
    let forced = st.injected.pop_front();
    let kind = match forced {
        Some(k) => Some(k),
        None => {
            let r = mix(cfg.seed ^ mix(op)) % 1000;
            let eio_t = cfg.eio_per_mille as u64;
            let enospc_t = eio_t + cfg.enospc_per_mille as u64;
            let short_t = enospc_t + cfg.short_write_per_mille as u64;
            if r < eio_t {
                Some(FaultKind::Eio)
            } else if r < enospc_t {
                Some(FaultKind::Enospc)
            } else if r < short_t && is_write {
                Some(FaultKind::ShortWrite)
            } else {
                None
            }
        }
    };
    match kind {
        None => Ok(op),
        Some(FaultKind::PowerCut) => {
            FaultVfs::crash_locked(cfg, st, op);
            Err(InjectedFault::Crashed)
        }
        Some(k) => {
            st.log.push(FaultEvent {
                op,
                kind: k,
                path: path.display().to_string(),
            });
            match k {
                FaultKind::Eio => Err(InjectedFault::Eio),
                FaultKind::Enospc => Err(InjectedFault::Enospc),
                FaultKind::ShortWrite => Err(InjectedFault::Short(mix(
                    cfg.seed ^ mix(op ^ SHORT_WRITE_SALT)
                ))),
                FaultKind::PowerCut => unreachable!(),
            }
        }
    }
}

/// Salt decorrelating the short-write prefix draw from the
/// inject-or-not draw at the same op index.
const SHORT_WRITE_SALT: u64 = 0x00A1_77E5;

enum InjectedFault {
    Crashed,
    Eio,
    Enospc,
    /// Raw entropy the write path turns into a prefix length.
    Short(u64),
}

impl InjectedFault {
    fn into_io(self) -> io::Error {
        match self {
            InjectedFault::Crashed => powered_off(),
            InjectedFault::Eio => eio("EIO"),
            InjectedFault::Enospc => enospc(),
            InjectedFault::Short(_) => eio("short write"),
        }
    }
}

/// Crash remnant policy for a file's un-fsynced tail: deterministically
/// lose it, keep a torn prefix of it, or keep it whole.
fn remnant(seed: u64, op: u64, path: &Path, durable: &[u8], live: &[u8]) -> Vec<u8> {
    let h = mix(seed ^ mix(op) ^ path_hash(path));
    // The durable prefix always survives; only bytes beyond it are at
    // risk. (A rewrite shorter than the durable content can also leave
    // the durable bytes — we model the simpler append-mostly store.)
    let keep_base = durable.len().min(live.len());
    let tail = &live[keep_base..];
    let mut out = durable.to_vec();
    match h % 3 {
        0 => {} // post-write-pre-fsync loss: tail gone
        1 => {
            // Torn write: a strict prefix of the tail survives.
            if !tail.is_empty() {
                let cut = ((h >> 8) as usize) % tail.len();
                out.extend_from_slice(&tail[..cut]);
            }
        }
        _ => out.extend_from_slice(tail), // lucky: everything landed
    }
    out
}

/// An open handle into a [`FaultVfs`] file.
struct FaultFile {
    cfg: FaultConfig,
    state: Arc<Mutex<FsState>>,
    path: PathBuf,
    pos: usize,
    writable: bool,
}

impl Read for FaultFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let st = lock(&self.state);
        if st.crashed {
            return Err(powered_off());
        }
        let node = st
            .files
            .get(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file vanished"))?;
        let avail = node.live.len().saturating_sub(self.pos);
        let n = avail.min(buf.len());
        buf[..n].copy_from_slice(&node.live[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !self.writable {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "read-only handle",
            ));
        }
        let mut st = lock(&self.state);
        let gated = gate(&self.cfg, &mut st, &self.path, true);
        let short = match gated {
            Ok(_) => None,
            Err(InjectedFault::Short(h)) if !buf.is_empty() => Some((h as usize) % buf.len()),
            Err(f) => return Err(f.into_io()),
        };
        let node = st
            .files
            .get_mut(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file vanished"))?;
        match short {
            None => {
                node.live.extend_from_slice(buf);
                self.pos += buf.len();
                Ok(buf.len())
            }
            Some(cut) => {
                // A prefix lands, then the device errors: exactly the
                // failure `write_all` cannot paper over.
                node.live.extend_from_slice(&buf[..cut]);
                self.pos += cut;
                Err(eio("short write"))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl VfsFile for FaultFile {
    fn sync_all(&mut self) -> io::Result<()> {
        let mut st = lock(&self.state);
        if self.writable {
            gate(&self.cfg, &mut st, &self.path, false).map_err(InjectedFault::into_io)?;
        } else if st.crashed {
            return Err(powered_off());
        }
        let node = st
            .files
            .get_mut(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file vanished"))?;
        node.durable = node.live.clone();
        node.content_synced = true;
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        let st = lock(&self.state);
        if st.crashed {
            return Err(powered_off());
        }
        let node = st
            .files
            .get(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file vanished"))?;
        Ok(node.live.len() as u64)
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut st = lock(&self.state);
        gate(&self.cfg, &mut st, path, false).map_err(InjectedFault::into_io)?;
        if let Some(parent) = path.parent() {
            if !st.dirs.contains(parent) {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "parent directory does not exist",
                ));
            }
        }
        st.files.insert(path.to_path_buf(), Node::default());
        drop(st);
        Ok(Box::new(FaultFile {
            cfg: self.cfg,
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
            pos: 0,
            writable: true,
        }))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let st = lock(&self.state);
        if st.crashed {
            return Err(powered_off());
        }
        if !st.files.contains_key(path) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such file"));
        }
        drop(st);
        Ok(Box::new(FaultFile {
            cfg: self.cfg,
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
            pos: 0,
            writable: false,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        gate(&self.cfg, &mut st, from, false).map_err(InjectedFault::into_io)?;
        let mut node = st
            .files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "rename source missing"))?;
        // The durable view still knows the file by its old name until
        // the directory is fsynced; remember whether that old name
        // would itself have survived a crash.
        let old_name_durable = node.name_durable;
        if node.crash_alias.is_none() {
            node.crash_alias = Some((from.to_path_buf(), old_name_durable));
        }
        node.name_durable = false;
        // Rename over an existing durable entry: the target's old
        // content is what a crash would reveal — modelled as a pending
        // removal so it resurrects if the dir-sync never happens.
        if let Some(old) = st.files.remove(to) {
            if old.name_durable {
                st.pending_removals.push((to.to_path_buf(), old));
            }
        }
        st.files.insert(to.to_path_buf(), node);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        gate(&self.cfg, &mut st, path, false).map_err(InjectedFault::into_io)?;
        match st.files.remove(path) {
            Some(node) => {
                if node.name_durable {
                    st.pending_removals.push((path.to_path_buf(), node));
                }
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        gate(&self.cfg, &mut st, path, false).map_err(InjectedFault::into_io)?;
        let mut p = path.to_path_buf();
        let mut chain = vec![p.clone()];
        while let Some(parent) = p.parent() {
            chain.push(parent.to_path_buf());
            p = parent.to_path_buf();
        }
        for dir in chain {
            st.dirs.insert(dir);
        }
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        gate(&self.cfg, &mut st, path, false).map_err(InjectedFault::into_io)?;
        if !st.dirs.contains(path) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such directory"));
        }
        // Every direct child's name — and every pending removal in
        // this directory — becomes crash-durable.
        for (p, node) in st.files.iter_mut() {
            if p.parent() == Some(path) {
                node.name_durable = true;
                node.crash_alias = None;
            }
        }
        st.pending_removals
            .retain(|(p, _)| p.parent() != Some(path));
        Ok(())
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        let st = lock(&self.state);
        if st.crashed {
            return Err(powered_off());
        }
        if !st.dirs.contains(path) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such directory"));
        }
        let mut out: Vec<String> = st
            .files
            .keys()
            .filter(|p| p.parent() == Some(path))
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(String::from))
            .collect();
        let subdirs: Vec<String> = st
            .dirs
            .iter()
            .filter(|d| d.parent() == Some(path))
            .filter_map(|d| d.file_name().and_then(|n| n.to_str()).map(String::from))
            .collect();
        out.extend(subdirs);
        out.sort();
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        let st = lock(&self.state);
        !st.crashed && (st.files.contains_key(path) || st.dirs.contains(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    fn write_file(vfs: &Arc<FaultVfs>, path: &str, data: &[u8], sync: bool) -> io::Result<()> {
        let mut f = vfs.create(&p(path))?;
        f.write_all(data)?;
        if sync {
            f.sync_all()?;
        }
        Ok(())
    }

    #[test]
    fn synced_rename_plus_dir_sync_survives_crash() {
        let vfs = FaultVfs::new(FaultConfig::default());
        vfs.create_dir_all(&p("/d")).unwrap();
        write_file(&vfs, "/d/.tmp", b"hello", true).unwrap();
        vfs.rename(&p("/d/.tmp"), &p("/d/final")).unwrap();
        vfs.sync_dir(&p("/d")).unwrap();
        vfs.power_cut();
        vfs.reboot();
        assert_eq!(vfs.read(&p("/d/final")).unwrap(), b"hello");
    }

    #[test]
    fn unsynced_file_vanishes_on_crash() {
        let vfs = FaultVfs::new(FaultConfig::default());
        vfs.create_dir_all(&p("/d")).unwrap();
        write_file(&vfs, "/d/volatile", b"never synced", false).unwrap();
        vfs.power_cut();
        vfs.reboot();
        assert!(!vfs.exists(&p("/d/volatile")));
    }

    #[test]
    fn rename_without_dir_sync_reverts_or_vanishes() {
        let vfs = FaultVfs::new(FaultConfig::default());
        vfs.create_dir_all(&p("/d")).unwrap();
        // Make the tmp name itself durable first.
        write_file(&vfs, "/d/.tmp", b"bytes", true).unwrap();
        vfs.sync_dir(&p("/d")).unwrap();
        // Now rename without a second dir sync: the platter still
        // knows the file as "/d/.tmp".
        vfs.rename(&p("/d/.tmp"), &p("/d/final")).unwrap();
        assert!(vfs.exists(&p("/d/final")));
        vfs.power_cut();
        vfs.reboot();
        assert!(!vfs.exists(&p("/d/final")), "rename was never durable");
        assert_eq!(vfs.read(&p("/d/.tmp")).unwrap(), b"bytes");
    }

    #[test]
    fn unsynced_tail_hits_the_remnant_policy() {
        // durable prefix always survives; the unsynced tail is lost,
        // torn, or kept — but never reordered or invented.
        for seed in 0..32u64 {
            let vfs = FaultVfs::new(FaultConfig {
                seed,
                ..Default::default()
            });
            vfs.create_dir_all(&p("/d")).unwrap();
            let mut f = vfs.create(&p("/d/f")).unwrap();
            f.write_all(b"durable|").unwrap();
            f.sync_all().unwrap();
            f.write_all(b"tail").unwrap();
            drop(f);
            vfs.sync_dir(&p("/d")).unwrap();
            vfs.power_cut();
            vfs.reboot();
            let got = vfs.read(&p("/d/f")).unwrap();
            assert!(got.starts_with(b"durable|"), "durable prefix lost: {got:?}");
            assert!(
                b"durable|tail".starts_with(got.as_slice()),
                "crash invented bytes: {got:?}"
            );
        }
    }

    #[test]
    fn crash_at_k_halts_everything_until_reboot() {
        let vfs = FaultVfs::new(FaultConfig::crash_only(7, 2));
        vfs.create_dir_all(&p("/d")).unwrap(); // op 0
        let mut f = vfs.create(&p("/d/a")).unwrap(); // op 1
        let err = f.write_all(b"x").unwrap_err(); // op 2 → crash
        assert!(err.to_string().contains("power cut"));
        assert!(vfs.crashed());
        assert!(vfs.read(&p("/d/a")).is_err(), "reads fail while down");
        vfs.reboot();
        assert!(!vfs.exists(&p("/d/a")), "unsynced create discarded");
    }

    #[test]
    fn injected_enospc_carries_the_errno() {
        let vfs = FaultVfs::new(FaultConfig::default());
        vfs.create_dir_all(&p("/d")).unwrap();
        vfs.inject_next(FaultKind::Enospc);
        let err = match vfs.create(&p("/d/x")) {
            Ok(_) => panic!("injected ENOSPC did not fire"),
            Err(e) => e,
        };
        assert_eq!(err.raw_os_error(), Some(28));
    }

    #[test]
    fn identical_seeds_identical_schedules() {
        let run = |seed: u64| {
            let vfs = FaultVfs::new(FaultConfig {
                seed,
                eio_per_mille: 120,
                enospc_per_mille: 60,
                short_write_per_mille: 90,
                crash_at: None,
            });
            vfs.create_dir_all(&p("/d")).unwrap();
            for i in 0..64 {
                let _ = write_file(&vfs, &format!("/d/f{i}"), &[i as u8; 33], i % 2 == 0);
                if i % 5 == 0 {
                    let _ = vfs.sync_dir(&p("/d"));
                }
            }
            (vfs.fault_log(), vfs.dump())
        };
        let (log_a, dump_a) = run(42);
        let (log_b, dump_b) = run(42);
        assert_eq!(log_a, log_b);
        assert_eq!(dump_a, dump_b);
        assert!(!log_a.is_empty(), "schedule injected nothing at 27%");
        let (log_c, _) = run(43);
        assert_ne!(log_a, log_c, "different seed, different schedule");
    }

    #[test]
    fn remove_without_dir_sync_resurrects_on_crash() {
        let vfs = FaultVfs::new(FaultConfig::default());
        vfs.create_dir_all(&p("/d")).unwrap();
        write_file(&vfs, "/d/keep", b"data", true).unwrap();
        vfs.sync_dir(&p("/d")).unwrap();
        vfs.remove_file(&p("/d/keep")).unwrap();
        assert!(!vfs.exists(&p("/d/keep")));
        vfs.power_cut();
        vfs.reboot();
        assert_eq!(vfs.read(&p("/d/keep")).unwrap(), b"data");
    }
}
