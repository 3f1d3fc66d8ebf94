//! Crash images shared by the recovery suites (`tests/fault_sweep.rs`,
//! `tests/wal_lifecycle.rs`): a store "dies" by copying its environment,
//! with one file cut short, and the copy is what a reopen recovers from.

use std::sync::Arc;

use flodb::storage::{Env, MemEnv};

/// Copies every file of `src` into a fresh env, truncating `truncate` to
/// its first `keep` bytes — a crash image with the live tail torn there.
pub fn crash_image(src: &dyn Env, truncate: &str, keep: usize) -> Arc<dyn Env> {
    let dst = MemEnv::new(None);
    for name in src.list().unwrap() {
        let file = src.open_random(&name).unwrap();
        let len = if name == truncate {
            keep.min(file.len() as usize)
        } else {
            file.len() as usize
        };
        let data = file.read_at(0, len).unwrap();
        let mut out = dst.new_writable(&name).unwrap();
        out.append(&data).unwrap();
        out.finish().unwrap();
    }
    Arc::new(dst)
}
