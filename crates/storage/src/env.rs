//! Storage environments: real filesystem and simulated (throttled) disk.
//!
//! The paper's end-to-end experiments are bounded by the persistence
//! bandwidth of one SSD (§5.2: "the persistence throughput is a
//! bottleneck"; §5.5 removes the disk to show memory-component headroom).
//! [`MemEnv`] reproduces that environment: an in-memory object store whose
//! writes drain a token bucket at a configurable byte rate, so the flush
//! path stalls exactly the way a saturated device would. [`FsEnv`] writes
//! real files for durability and recovery testing.

use std::collections::HashMap;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flodb_sync::lock_order::{ENV_DATA, ENV_INNER, ENV_THROTTLE};
use flodb_sync::shim::{ranked_mutex, ranked_rwlock, Mutex, RwLock};

use crate::error::{Result, StorageError};

/// A sequential-append output file.
pub trait WritableFile: Send {
    /// Appends `data` at the end of the file.
    fn append(&mut self, data: &[u8]) -> Result<()>;
    /// Forces buffered data to stable storage.
    fn sync(&mut self) -> Result<()>;
    /// Completes the file; further appends are invalid.
    fn finish(&mut self) -> Result<()>;
}

/// A random-access input file.
pub trait RandomAccessFile: Send + Sync {
    /// Reads exactly `len` bytes at byte offset `off`.
    fn read_at(&self, off: u64, len: usize) -> Result<Vec<u8>>;
    /// Lends exactly `len` bytes at byte offset `off` to `f`, and returns
    /// what `f` returns: a point read that keeps one record of a block
    /// needs no copy of the block. The slice lives only for the call (the
    /// file may hold a lock across it), so `f` copies out what it keeps
    /// and takes no lock. Past the end it fails as `read_at` does. The
    /// default lends a `read_at` buffer.
    fn read_with(
        &self,
        off: u64,
        len: usize,
        f: &mut dyn FnMut(&[u8]) -> Result<()>,
    ) -> Result<()> {
        f(&self.read_at(off, len)?)
    }
    /// Returns the file length in bytes.
    fn len(&self) -> u64;
    /// Returns whether the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A storage environment: a flat namespace of named files.
pub trait Env: Send + Sync + 'static {
    /// Creates (truncating) a writable file.
    fn new_writable(&self, name: &str) -> Result<Box<dyn WritableFile>>;
    /// Creates (truncating) a writable file that starts with `header`,
    /// synced: one creation, which a fault-injecting env fails as such.
    fn new_writable_with_header(&self, name: &str, header: &[u8]) -> Result<Box<dyn WritableFile>> {
        let mut file = self.new_writable(name)?;
        file.append(header)?;
        file.sync()?;
        Ok(file)
    }
    /// Opens an existing file for random-access reads.
    fn open_random(&self, name: &str) -> Result<Arc<dyn RandomAccessFile>>;
    /// Deletes a file (idempotent: missing files are not an error).
    fn delete(&self, name: &str) -> Result<()>;
    /// Returns whether a file exists.
    fn exists(&self, name: &str) -> bool;
    /// Lists all file names.
    fn list(&self) -> Result<Vec<String>>;
    /// Total bytes written through this env (for write-amplification
    /// accounting in the benchmarks).
    fn bytes_written(&self) -> u64;
    /// Forces directory metadata (file creations and deletions) to stable
    /// storage. Deleting a retired WAL segment is only durable once the
    /// directory entry's removal is synced; environments without that
    /// failure mode (the in-memory SimDisk) use this default no-op.
    fn sync_dir(&self) -> Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Simulated in-memory disk with throttling.
// ---------------------------------------------------------------------------

/// Write-throughput throttle parameters for [`MemEnv`].
#[derive(Debug, Clone, Copy)]
pub struct ThrottleConfig {
    /// Sustained write bandwidth in bytes per second.
    pub write_bytes_per_sec: u64,
    /// Burst capacity (token bucket depth) in bytes.
    pub burst_bytes: u64,
}

impl ThrottleConfig {
    /// A profile shaped like the paper's SSD: with ~270 B per entry
    /// (8 B key + 256 B value + framing) the paper's ~1.2 M entries/s
    /// persistence rate is roughly 320 MB/s of sequential write bandwidth.
    pub fn paper_ssd() -> Self {
        Self {
            write_bytes_per_sec: 320 * 1024 * 1024,
            burst_bytes: 32 * 1024 * 1024,
        }
    }
}

#[derive(Debug)]
struct TokenBucket {
    rate: u64,
    capacity: u64,
    available: f64,
    last_refill: Instant,
}

impl TokenBucket {
    fn new(cfg: ThrottleConfig) -> Self {
        Self {
            rate: cfg.write_bytes_per_sec.max(1),
            capacity: cfg.burst_bytes.max(1),
            available: cfg.burst_bytes as f64,
            last_refill: Instant::now(),
        }
    }

    /// Consumes `n` tokens, returning how long the caller must sleep first.
    fn consume(&mut self, n: u64) -> Duration {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.available =
            (self.available + elapsed * self.rate as f64).min(self.capacity as f64);
        self.available -= n as f64;
        if self.available >= 0.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(-self.available / self.rate as f64)
        }
    }
}

#[derive(Default)]
struct MemEnvInner {
    files: HashMap<String, Arc<RwLock<Vec<u8>>>>,
}

/// An in-memory environment, optionally throttled: the *SimDisk*.
///
/// # Examples
///
/// ```
/// use flodb_storage::env::{Env, MemEnv};
///
/// let env = MemEnv::new(None);
/// let mut f = env.new_writable("001.sst").unwrap();
/// f.append(b"hello").unwrap();
/// f.finish().unwrap();
/// let r = env.open_random("001.sst").unwrap();
/// assert_eq!(r.read_at(0, 5).unwrap(), b"hello");
/// ```
pub struct MemEnv {
    inner: Mutex<MemEnvInner>,
    throttle: Option<Arc<Mutex<TokenBucket>>>,
    bytes_written: Arc<std::sync::atomic::AtomicU64>,
}

impl MemEnv {
    /// Creates a new simulated disk; `throttle == None` means unlimited.
    pub fn new(throttle: Option<ThrottleConfig>) -> Self {
        Self {
            inner: ranked_mutex(ENV_INNER, MemEnvInner::default()),
            throttle: throttle.map(|cfg| Arc::new(ranked_mutex(ENV_THROTTLE, TokenBucket::new(cfg)))),
            bytes_written: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }
}

struct MemWritable {
    throttle: Option<Arc<Mutex<TokenBucket>>>,
    bytes_written: Arc<std::sync::atomic::AtomicU64>,
    data: Arc<RwLock<Vec<u8>>>,
}

impl MemWritable {
    fn charge(&self, n: u64) {
        self.bytes_written
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        if let Some(bucket) = &self.throttle {
            let wait = bucket.lock().consume(n);
            if !wait.is_zero() {
                // SLEEP-OK: the simulated disk's bandwidth limit; the wait
                // is the device time this write costs, not a poll.
                std::thread::sleep(wait);
            }
        }
    }
}

impl WritableFile for MemWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.charge(data.len() as u64);
        self.data.write().extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        Ok(())
    }
}

struct MemRandom {
    data: Arc<RwLock<Vec<u8>>>,
}

/// `data[off..off + len]`, or the `Corruption` a read past the end is.
fn in_bounds(data: &[u8], off: u64, len: usize) -> Result<&[u8]> {
    usize::try_from(off)
        .ok()
        .and_then(|start| data.get(start..start.checked_add(len)?))
        .ok_or_else(|| {
            StorageError::Corruption(format!(
                "read past end: off {off} len {len} size {}",
                data.len()
            ))
        })
}

impl RandomAccessFile for MemRandom {
    fn read_at(&self, off: u64, len: usize) -> Result<Vec<u8>> {
        Ok(in_bounds(&self.data.read(), off, len)?.to_vec())
    }

    fn read_with(
        &self,
        off: u64,
        len: usize,
        f: &mut dyn FnMut(&[u8]) -> Result<()>,
    ) -> Result<()> {
        f(in_bounds(&self.data.read(), off, len)?)
    }

    fn len(&self) -> u64 {
        self.data.read().len() as u64
    }
}

impl Env for MemEnv {
    fn new_writable(&self, name: &str) -> Result<Box<dyn WritableFile>> {
        let data = Arc::new(ranked_rwlock(ENV_DATA, Vec::new()));
        self.inner
            .lock()
            .files
            .insert(name.to_string(), Arc::clone(&data));
        Ok(Box::new(MemWritable {
            throttle: self.throttle.clone(),
            bytes_written: Arc::clone(&self.bytes_written),
            data,
        }))
    }

    fn open_random(&self, name: &str) -> Result<Arc<dyn RandomAccessFile>> {
        let inner = self.inner.lock();
        let data = inner
            .files
            .get(name)
            .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
        Ok(Arc::new(MemRandom {
            data: Arc::clone(data),
        }))
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.inner.lock().files.remove(name);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.lock().files.contains_key(name)
    }

    fn list(&self) -> Result<Vec<String>> {
        Ok(self.inner.lock().files.keys().cloned().collect())
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written
            .load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A crash image of `src`: every file copied into a fresh [`MemEnv`], with
/// `truncate` (when present) cut to its first `keep` bytes — the store died
/// with that file's tail torn there. Recovery suites reopen the image.
pub fn crash_image(src: &dyn Env, truncate: &str, keep: usize) -> Result<MemEnv> {
    let image = MemEnv::new(None);
    for name in src.list()? {
        let file = src.open_random(&name)?;
        let len = file.len() as usize;
        let data = file.read_at(0, if name == truncate { keep.min(len) } else { len })?;
        let mut out = image.new_writable(&name)?;
        out.append(&data)?;
        out.finish()?;
    }
    Ok(image)
}

// ---------------------------------------------------------------------------
// Prefixed sub-namespace view of another environment.
// ---------------------------------------------------------------------------

/// A view of a parent [`Env`] restricted to names under a directory-style
/// prefix (`"shard-00/"`), the storage substrate of a sharded store: each
/// shard runs a full, unmodified store against its own `PrefixEnv`, so its
/// WAL segments, SSTables and manifest land under `shard-NN/` of one root.
///
/// The parent keeps its flat namespace; this wrapper only rewrites names
/// on the way in and filters/strips them on the way out of [`Env::list`].
/// [`Env::bytes_written`] and [`Env::sync_dir`] are forwarded to the
/// parent (the write-amplification counter and directory durability are
/// properties of the underlying device, not of one shard's slice of it).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use flodb_storage::env::{Env, MemEnv, PrefixEnv};
///
/// let root: Arc<dyn Env> = Arc::new(MemEnv::new(None));
/// let shard = PrefixEnv::new(Arc::clone(&root), "shard-00");
/// shard.new_writable("000001.log").unwrap();
/// assert!(root.exists("shard-00/000001.log"));
/// assert_eq!(shard.list().unwrap(), vec!["000001.log".to_string()]);
/// ```
pub struct PrefixEnv {
    parent: Arc<dyn Env>,
    /// The prefix including its trailing separator (`"shard-00/"`).
    prefix: String,
}

impl PrefixEnv {
    /// Wraps `parent`, mapping every name to `<dir>/<name>`. A trailing
    /// `/` on `dir` is accepted but not required.
    pub fn new(parent: Arc<dyn Env>, dir: &str) -> Self {
        let mut prefix = dir.trim_end_matches('/').to_string();
        prefix.push('/');
        Self { parent, prefix }
    }

    fn full(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }
}

impl Env for PrefixEnv {
    fn new_writable(&self, name: &str) -> Result<Box<dyn WritableFile>> {
        self.parent.new_writable(&self.full(name))
    }

    fn new_writable_with_header(&self, name: &str, header: &[u8]) -> Result<Box<dyn WritableFile>> {
        self.parent
            .new_writable_with_header(&self.full(name), header)
    }

    fn open_random(&self, name: &str) -> Result<Arc<dyn RandomAccessFile>> {
        self.parent.open_random(&self.full(name))
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.parent.delete(&self.full(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.parent.exists(&self.full(name))
    }

    fn list(&self) -> Result<Vec<String>> {
        Ok(self
            .parent
            .list()?
            .into_iter()
            .filter_map(|n| n.strip_prefix(&self.prefix).map(str::to_string))
            .collect())
    }

    fn bytes_written(&self) -> u64 {
        self.parent.bytes_written()
    }

    fn sync_dir(&self) -> Result<()> {
        self.parent.sync_dir()
    }
}

// ---------------------------------------------------------------------------
// Real filesystem environment.
// ---------------------------------------------------------------------------

/// A real-filesystem environment rooted at a directory.
pub struct FsEnv {
    root: PathBuf,
    bytes_written: Arc<std::sync::atomic::AtomicU64>,
}

impl FsEnv {
    /// Creates an env rooted at `root`, creating the directory if needed.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            bytes_written: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

struct FsWritable {
    file: std::fs::File,
    bytes_written: Arc<std::sync::atomic::AtomicU64>,
}

impl WritableFile for FsWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.file.write_all(data)?;
        self.bytes_written
            .fetch_add(data.len() as u64, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        self.file.flush()?;
        Ok(())
    }
}

struct FsRandom {
    file: std::fs::File,
    size: u64,
}

impl RandomAccessFile for FsRandom {
    fn read_at(&self, off: u64, len: usize) -> Result<Vec<u8>> {
        let past_end = || {
            StorageError::Corruption(format!(
                "read past end: off {off} len {len} size {}",
                self.size
            ))
        };
        if off.checked_add(len as u64).is_none_or(|end| end > self.size) {
            return Err(past_end());
        }
        // Positioned reads (`pread`) share the descriptor without a lock:
        // no file offset moves, so concurrent readers cannot race.
        let mut buf = vec![0u8; len];
        match self.file.read_exact_at(&mut buf, off) {
            Ok(()) => Ok(buf),
            // The file shrank since it was opened.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(past_end()),
            Err(e) => Err(e.into()),
        }
    }

    fn len(&self) -> u64 {
        self.size
    }
}

impl Env for FsEnv {
    fn new_writable(&self, name: &str) -> Result<Box<dyn WritableFile>> {
        let path = self.path(name);
        // Slash-containing names ([`PrefixEnv`] sub-namespaces) live in
        // subdirectories that may not exist yet.
        if name.contains('/') {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(path)?;
        Ok(Box::new(FsWritable {
            file,
            bytes_written: Arc::clone(&self.bytes_written),
        }))
    }

    fn open_random(&self, name: &str) -> Result<Arc<dyn RandomAccessFile>> {
        let path = self.path(name);
        let file = std::fs::File::open(&path)
            .map_err(|_| StorageError::NotFound(name.to_string()))?;
        let size = file.metadata()?.len();
        Ok(Arc::new(FsRandom { file, size }))
    }

    fn delete(&self, name: &str) -> Result<()> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }

    fn list(&self) -> Result<Vec<String>> {
        // Walk one directory level deep so [`PrefixEnv`] sub-namespaces
        // (`shard-NN/<file>`) list through, reported with their relative
        // slashed names. Plain stores never create subdirectories, so
        // their listings are unchanged.
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.file_type()?.is_dir() {
                for sub in std::fs::read_dir(entry.path())? {
                    let sub = sub?;
                    if sub.file_type()?.is_file() {
                        out.push(format!(
                            "{name}/{}",
                            sub.file_name().to_string_lossy()
                        ));
                    }
                }
            } else {
                out.push(name);
            }
        }
        Ok(out)
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    fn sync_dir(&self) -> Result<()> {
        // Sub-namespace directories hold WAL segments whose creation and
        // retirement need the same directory-entry durability as the
        // root's (see [`Env::sync_dir`]), so sync them along with it.
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                std::fs::File::open(entry.path())?.sync_all()?;
            }
        }
        std::fs::File::open(&self.root)?.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memenv_roundtrip() {
        let env = MemEnv::new(None);
        let mut f = env.new_writable("a").unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.finish().unwrap();
        let r = env.open_random("a").unwrap();
        assert_eq!(r.len(), 11);
        assert_eq!(r.read_at(6, 5).unwrap(), b"world");
        assert!(env.exists("a"));
        env.delete("a").unwrap();
        assert!(!env.exists("a"));
        assert!(env.open_random("a").is_err());
    }

    #[test]
    fn memenv_read_past_end_fails() {
        let env = MemEnv::new(None);
        let mut f = env.new_writable("a").unwrap();
        f.append(b"xy").unwrap();
        let r = env.open_random("a").unwrap();
        assert!(r.read_at(1, 5).is_err());
    }

    #[test]
    fn memenv_tracks_bytes_written() {
        let env = MemEnv::new(None);
        let mut f = env.new_writable("a").unwrap();
        f.append(&[0u8; 100]).unwrap();
        assert_eq!(env.bytes_written(), 100);
    }

    #[test]
    fn throttle_limits_write_rate() {
        // 1 MB/s with a small burst: writing 300 KB beyond the burst should
        // take at least ~200 ms.
        let env = MemEnv::new(Some(ThrottleConfig {
            write_bytes_per_sec: 1024 * 1024,
            burst_bytes: 100 * 1024,
        }));
        let mut f = env.new_writable("a").unwrap();
        let start = Instant::now();
        for _ in 0..4 {
            f.append(&vec![0u8; 100 * 1024]).unwrap();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(200),
            "throttle did not slow writes: {elapsed:?}"
        );
    }

    #[test]
    fn token_bucket_allows_burst() {
        let mut bucket = TokenBucket::new(ThrottleConfig {
            write_bytes_per_sec: 1000,
            burst_bytes: 10_000,
        });
        // Within the burst budget: no sleep.
        assert_eq!(bucket.consume(5_000), Duration::ZERO);
        // Exceeding it: positive wait.
        assert!(bucket.consume(10_000) > Duration::ZERO);
    }

    #[test]
    fn prefix_env_isolates_namespaces() {
        let root: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        let a = PrefixEnv::new(Arc::clone(&root), "shard-00");
        let b = PrefixEnv::new(Arc::clone(&root), "shard-01/");
        let mut f = a.new_writable("x.log").unwrap();
        f.append(b"aaa").unwrap();
        b.new_writable("y.log").unwrap();

        assert!(a.exists("x.log"));
        assert!(!a.exists("y.log"), "namespaces must not bleed");
        assert!(root.exists("shard-00/x.log"));
        assert_eq!(a.list().unwrap(), vec!["x.log".to_string()]);
        assert_eq!(b.list().unwrap(), vec!["y.log".to_string()]);
        assert_eq!(a.open_random("x.log").unwrap().len(), 3);

        a.delete("x.log").unwrap();
        assert!(!root.exists("shard-00/x.log"));
        assert!(root.exists("shard-01/y.log"), "delete stays scoped");
        assert!(a.bytes_written() >= 3, "write accounting is shared");
        a.sync_dir().unwrap();
    }

    #[test]
    fn fsenv_supports_prefixed_subdirectories() {
        let dir =
            std::env::temp_dir().join(format!("flodb-env-subdir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let root: Arc<dyn Env> = Arc::new(FsEnv::new(&dir).unwrap());
        let shard = PrefixEnv::new(Arc::clone(&root), "shard-03");
        let mut f = shard.new_writable("000001.log").unwrap();
        f.append(b"data").unwrap();
        f.sync().unwrap();
        f.finish().unwrap();
        root.new_writable("TOP").unwrap();

        assert!(shard.exists("000001.log"));
        assert_eq!(shard.list().unwrap(), vec!["000001.log".to_string()]);
        let all = root.list().unwrap();
        assert!(all.contains(&"shard-03/000001.log".to_string()));
        assert!(all.contains(&"TOP".to_string()));
        assert_eq!(shard.open_random("000001.log").unwrap().len(), 4);
        shard.sync_dir().unwrap();
        shard.delete("000001.log").unwrap();
        shard.delete("000001.log").unwrap(); // Idempotent.
        assert!(!shard.exists("000001.log"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Reads `len` bytes at `off` through `read_with`, copied out.
    fn lent(file: &dyn RandomAccessFile, off: u64, len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        file.read_with(off, len, &mut |data| {
            out.extend_from_slice(data);
            Ok(())
        })?;
        Ok(out)
    }

    #[test]
    fn read_with_lends_the_bytes_and_fails_past_the_end_on_both_envs() {
        let dir = std::env::temp_dir().join(format!("flodb-env-lend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let envs: [Box<dyn Env>; 2] =
            [Box::new(MemEnv::new(None)), Box::new(FsEnv::new(&dir).unwrap())];
        for env in &envs {
            let mut f = env.new_writable("a").unwrap();
            f.append(b"hello world").unwrap();
            f.sync().unwrap();
            f.finish().unwrap();
            let r = env.open_random("a").unwrap();
            assert_eq!(lent(r.as_ref(), 6, 5).unwrap(), b"world");
            assert_eq!(lent(r.as_ref(), 11, 0).unwrap(), b"");
            for (off, len) in [(7, 5), (12, 0), (u64::MAX, 1)] {
                let err = lent(r.as_ref(), off, len).unwrap_err();
                assert!(matches!(err, StorageError::Corruption(_)), "read_with {off}: {err:?}");
                let err = r.read_at(off, len).unwrap_err();
                assert!(matches!(err, StorageError::Corruption(_)), "read_at {off}: {err:?}");
            }
            // An error the closure returns is the read's error.
            let err = r
                .read_with(0, 1, &mut |_| Err(StorageError::InvalidArgument("stop".into())))
                .unwrap_err();
            assert!(matches!(err, StorageError::InvalidArgument(_)), "{err:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsenv_concurrent_reads_of_disjoint_offsets_get_their_own_bytes() {
        const CHUNK: usize = 4096;
        let dir = std::env::temp_dir().join(format!("flodb-env-pread-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = FsEnv::new(&dir).unwrap();
        let mut f = env.new_writable("t.sst").unwrap();
        for t in 0..4u8 {
            f.append(&[t + 1; CHUNK]).unwrap();
        }
        f.finish().unwrap();
        let file = env.open_random("t.sst").unwrap();
        let readers: Vec<_> = (0..4u8)
            .map(|t| {
                let file = Arc::clone(&file);
                std::thread::spawn(move || {
                    let off = u64::from(t) * CHUNK as u64;
                    for round in 0..500 {
                        // Each read a different length, so no two threads'
                        // reads line up.
                        let len = CHUNK - (round * 7 + usize::from(t)) % 64;
                        let data = file.read_at(off, len).unwrap();
                        assert_eq!(data.len(), len, "thread {t}");
                        assert!(data.iter().all(|&b| b == t + 1), "thread {t}");
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsenv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("flodb-env-test-{}", std::process::id()));
        let env = FsEnv::new(&dir).unwrap();
        let mut f = env.new_writable("t.sst").unwrap();
        f.append(b"data").unwrap();
        f.sync().unwrap();
        f.finish().unwrap();
        let r = env.open_random("t.sst").unwrap();
        assert_eq!(r.read_at(0, 4).unwrap(), b"data");
        assert!(env.list().unwrap().contains(&"t.sst".to_string()));
        env.delete("t.sst").unwrap();
        env.delete("t.sst").unwrap(); // Idempotent.
        std::fs::remove_dir_all(&dir).ok();
    }
}
