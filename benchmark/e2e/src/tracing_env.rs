//! `TracingEnv`: the benchmark's own `Env` wrapper. It forwards every call
//! unchanged and counts calls, bytes and time per file class and operation,
//! separately for client threads and the engine's background threads, so
//! that "reads per get" counts the reads a `get` made and not a
//! compaction's. Used only in the traced run.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use flodb_storage::env::{RandomAccessFile, WritableFile};
use flodb_storage::{Env, Result};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    Log = 0,
    Sst = 1,
    /// MANIFEST generations, the sharding record, directory syncs.
    Other = 2,
}

impl FileClass {
    pub fn of(name: &str) -> Self {
        if name.ends_with(".log") {
            FileClass::Log
        } else if name.ends_with(".sst") {
            FileClass::Sst
        } else {
            FileClass::Other
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvOp {
    Append = 0,
    Sync = 1,
    ReadAt = 2,
    OpenRandom = 3,
    NewWritable = 4,
    Delete = 5,
    SyncDir = 6,
}

const CLASSES: usize = 3;
const OPS: usize = 7;
/// Who called: the engine's own threads, or a benchmark client thread.
const CALLERS: usize = 2;

thread_local! {
    static IS_CLIENT: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as a benchmark client for the rest of its life.
pub fn mark_client_thread() {
    IS_CLIENT.with(|c| c.set(true));
}

#[derive(Debug, Default)]
struct Cell3 {
    calls: AtomicU64,
    bytes: AtomicU64,
    ns: AtomicU64,
}

/// Calls, bytes and nanoseconds of one (caller, class, op) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub bytes: u64,
    pub ns: u64,
}

impl std::ops::Add for Tally {
    type Output = Tally;

    fn add(self, other: Tally) -> Tally {
        Tally {
            calls: self.calls + other.calls,
            bytes: self.bytes + other.bytes,
            ns: self.ns + other.ns,
        }
    }
}

/// A copy of every counter; subtract two to isolate an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvCounts {
    cells: [[[Tally; OPS]; CLASSES]; CALLERS],
}

impl EnvCounts {
    /// One cell, client threads only or everyone.
    pub fn get(&self, class: FileClass, op: EnvOp, clients_only: bool) -> Tally {
        let clients = self.cells[1][class as usize][op as usize];
        if clients_only {
            clients
        } else {
            clients + self.cells[0][class as usize][op as usize]
        }
    }

    /// One operation summed over the three file classes, all callers.
    pub fn op_total(&self, op: EnvOp) -> Tally {
        [FileClass::Log, FileClass::Sst, FileClass::Other]
            .iter()
            .map(|&c| self.get(c, op, false))
            .fold(Tally::default(), |a, b| a + b)
    }

    pub fn since(&self, earlier: &EnvCounts) -> EnvCounts {
        let mut out = *self;
        for (caller, classes) in out.cells.iter_mut().enumerate() {
            for (class, ops) in classes.iter_mut().enumerate() {
                for (op, t) in ops.iter_mut().enumerate() {
                    let e = earlier.cells[caller][class][op];
                    t.calls -= e.calls;
                    t.bytes -= e.bytes;
                    t.ns -= e.ns;
                }
            }
        }
        out
    }
}

#[derive(Debug, Default)]
struct Counters {
    cells: [[[Cell3; OPS]; CLASSES]; CALLERS],
}

impl Counters {
    fn add(&self, class: FileClass, op: EnvOp, bytes: u64, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        let caller = usize::from(IS_CLIENT.with(Cell::get));
        let cell = &self.cells[caller][class as usize][op as usize];
        // Statistics only: nothing is published through these counters.
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.bytes.fetch_add(bytes, Ordering::Relaxed);
        cell.ns.fetch_add(ns, Ordering::Relaxed);
    }
}

pub struct TracingEnv {
    inner: Arc<dyn Env>,
    counters: Arc<Counters>,
}

impl TracingEnv {
    pub fn new(inner: Arc<dyn Env>) -> Self {
        Self {
            inner,
            counters: Arc::new(Counters::default()),
        }
    }

    pub fn counts(&self) -> EnvCounts {
        let mut out = EnvCounts::default();
        for (caller, classes) in self.counters.cells.iter().enumerate() {
            for (class, ops) in classes.iter().enumerate() {
                for (op, cell) in ops.iter().enumerate() {
                    out.cells[caller][class][op] = Tally {
                        calls: cell.calls.load(Ordering::Relaxed),
                        bytes: cell.bytes.load(Ordering::Relaxed),
                        ns: cell.ns.load(Ordering::Relaxed),
                    };
                }
            }
        }
        out
    }
}

struct TracedWritable {
    inner: Box<dyn WritableFile>,
    class: FileClass,
    counters: Arc<Counters>,
}

impl WritableFile for TracedWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let t0 = Instant::now();
        let r = self.inner.append(data);
        self.counters
            .add(self.class, EnvOp::Append, data.len() as u64, t0);
        r
    }

    fn sync(&mut self) -> Result<()> {
        let t0 = Instant::now();
        let r = self.inner.sync();
        self.counters.add(self.class, EnvOp::Sync, 0, t0);
        r
    }

    fn finish(&mut self) -> Result<()> {
        self.inner.finish()
    }
}

struct TracedRandom {
    inner: Arc<dyn RandomAccessFile>,
    class: FileClass,
    counters: Arc<Counters>,
}

impl RandomAccessFile for TracedRandom {
    fn read_at(&self, off: u64, len: usize) -> Result<Vec<u8>> {
        let t0 = Instant::now();
        let r = self.inner.read_at(off, len);
        let bytes = r.as_ref().map_or(0, |v| v.len() as u64);
        self.counters.add(self.class, EnvOp::ReadAt, bytes, t0);
        r
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Env for TracingEnv {
    fn new_writable(&self, name: &str) -> Result<Box<dyn WritableFile>> {
        let class = FileClass::of(name);
        let t0 = Instant::now();
        let inner = self.inner.new_writable(name);
        self.counters.add(class, EnvOp::NewWritable, 0, t0);
        Ok(Box::new(TracedWritable {
            inner: inner?,
            class,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn open_random(&self, name: &str) -> Result<Arc<dyn RandomAccessFile>> {
        let class = FileClass::of(name);
        let t0 = Instant::now();
        let inner = self.inner.open_random(name);
        self.counters.add(class, EnvOp::OpenRandom, 0, t0);
        Ok(Arc::new(TracedRandom {
            inner: inner?,
            class,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn delete(&self, name: &str) -> Result<()> {
        let t0 = Instant::now();
        let r = self.inner.delete(name);
        self.counters.add(FileClass::of(name), EnvOp::Delete, 0, t0);
        r
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn sync_dir(&self) -> Result<()> {
        let t0 = Instant::now();
        let r = self.inner.sync_dir();
        self.counters.add(FileClass::Other, EnvOp::SyncDir, 0, t0);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flodb_storage::MemEnv;

    /// The same calls, through any `Env`.
    fn drive(env: &dyn Env) {
        for (name, chunks) in [
            ("000001.log", vec![&b"alpha"[..], &b"beta"[..]]),
            ("000002.sst", vec![&b"0123456789abcdef"[..]]),
            ("MANIFEST-000001", vec![&b"m"[..], &b""[..], &b"nn"[..]]),
            ("000003.sst", vec![&b"gone"[..]]),
        ] {
            let mut f = env.new_writable(name).unwrap();
            for c in chunks {
                f.append(c).unwrap();
            }
            f.sync().unwrap();
            f.finish().unwrap();
        }
        env.delete("000003.sst").unwrap();
        env.delete("never-existed").unwrap();
        env.sync_dir().unwrap();
    }

    fn contents(env: &dyn Env) -> Vec<(String, Vec<u8>)> {
        let mut names = env.list().unwrap();
        names.sort();
        names
            .into_iter()
            .map(|n| {
                let f = env.open_random(&n).unwrap();
                let data = f.read_at(0, f.len() as usize).unwrap();
                (n, data)
            })
            .collect()
    }

    #[test]
    fn is_a_byte_for_byte_pass_through_and_counts_what_passed() {
        let plain = MemEnv::new(None);
        drive(&plain);

        let inner: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        let traced = TracingEnv::new(Arc::clone(&inner));
        drive(&traced);

        assert_eq!(contents(&plain), contents(inner.as_ref()));
        assert_eq!(traced.bytes_written(), inner.bytes_written());
        assert_eq!(traced.bytes_written(), plain.bytes_written());
        assert!(traced.exists("000002.sst") && !traced.exists("000003.sst"));

        let c = traced.counts();
        let t = |class, op| c.get(class, op, false);
        assert_eq!(t(FileClass::Log, EnvOp::Append).calls, 2);
        assert_eq!(t(FileClass::Log, EnvOp::Append).bytes, 9);
        assert_eq!(t(FileClass::Sst, EnvOp::Append).bytes, 16 + 4);
        assert_eq!(t(FileClass::Other, EnvOp::Append).calls, 3);
        assert_eq!(t(FileClass::Other, EnvOp::Append).bytes, 3);
        assert_eq!(c.op_total(EnvOp::Append).bytes, inner.bytes_written());
        assert_eq!(c.op_total(EnvOp::Sync).calls, 4);
        assert_eq!(c.op_total(EnvOp::NewWritable).calls, 4);
        assert_eq!(t(FileClass::Sst, EnvOp::Delete).calls, 1);
        assert_eq!(t(FileClass::Other, EnvOp::Delete).calls, 1);
        assert_eq!(t(FileClass::Other, EnvOp::SyncDir).calls, 1);
        assert_eq!(c.op_total(EnvOp::ReadAt).calls, 0, "reads went to `inner`");

        // Reads through the wrapper return the inner bytes and are counted;
        // a read past the end fails in both and counts no bytes.
        let f = traced.open_random("000002.sst").unwrap();
        assert_eq!(f.len(), 16);
        assert_eq!(f.read_at(4, 4).unwrap(), b"4567");
        assert!(f.read_at(10, 100).is_err());
        assert!(traced.open_random("missing.sst").is_err());
        let d = traced.counts().since(&c);
        assert_eq!(d.get(FileClass::Sst, EnvOp::ReadAt, false).calls, 2);
        assert_eq!(d.get(FileClass::Sst, EnvOp::ReadAt, false).bytes, 4);
        assert_eq!(d.get(FileClass::Sst, EnvOp::OpenRandom, false).calls, 2);
        assert_eq!(d.op_total(EnvOp::Append), Tally::default());
    }

    #[test]
    fn client_threads_are_counted_apart() {
        let traced = Arc::new(TracingEnv::new(Arc::new(MemEnv::new(None))));
        traced
            .new_writable("000001.sst")
            .unwrap()
            .append(b"xy")
            .unwrap();
        let t = Arc::clone(&traced);
        std::thread::spawn(move || {
            mark_client_thread();
            t.open_random("000001.sst").unwrap().read_at(0, 2).unwrap();
        })
        .join()
        .unwrap();
        traced
            .open_random("000001.sst")
            .unwrap()
            .read_at(0, 1)
            .unwrap();
        let c = traced.counts();
        assert_eq!(c.get(FileClass::Sst, EnvOp::ReadAt, true).bytes, 2);
        assert_eq!(c.get(FileClass::Sst, EnvOp::ReadAt, false).bytes, 3);
    }
}
