//! The read stage (Algorithm 2): MBF → IMM_MBF → MTB → IMM_MTB → disk;
//! the first hit wins because the levels are searched in data-flow order.

use super::Inner;
use crate::stats::FloDbStats;
use crate::telemetry::OpClass;

impl Inner {
    pub(super) fn get_impl(&self, key: &[u8]) -> Option<Vec<u8>> {
        let t0 = self.full_timer();
        // Memory levels, freshest first, inside one critical section.
        let mem: Option<Option<Vec<u8>>> = self.view.read(|v| {
            if let Some(mbf) = &v.mbf {
                if let Some(val) = mbf.get(key) {
                    return Some(val.map(Vec::from));
                }
            }
            if let Some(imm) = &v.imm_mbf {
                if let Some(val) = imm.buffer.get(key) {
                    return Some(val.map(Vec::from));
                }
            }
            if let Some(vv) = v.mtb.get(key) {
                return Some(vv.value.map(Vec::from));
            }
            if let Some(imm) = &v.imm_mtb {
                if let Some(vv) = imm.get(key) {
                    return Some(vv.value.map(Vec::from));
                }
            }
            None
        });
        let found = match mem {
            Some(hit) => hit, // `None` inside means tombstone: deleted.
            None => self
                .disk
                .get(key)
                // PANIC-OK: the read path has no error channel yet
                // (ROADMAP item 3, fallible verified reads, adds one); an
                // I/O error on an in-memory env is a test-harness bug.
                .expect("disk read failed")
                .and_then(|r| r.value.map(Vec::from)),
        };
        FloDbStats::bump(&self.stats.gets);
        self.record_op(OpClass::Get, t0);
        found
    }
}

#[cfg(test)]
mod tests {
    use crate::store::tests::{db, k};
    use crate::KvStore;

    #[test]
    fn get_falls_through_to_disk() {
        let db = db();
        for i in 0..500u64 {
            db.put(&k(i), &i.to_le_bytes()).unwrap();
        }
        db.flush_all();
        // Everything is on disk now; memory is empty.
        for i in (0..500u64).step_by(37) {
            assert_eq!(db.get(&k(i)), Some(i.to_le_bytes().to_vec()), "key {i}");
        }
        assert!(db.disk_stats().flushes > 0);
    }

    #[test]
    fn delete_shadows_disk_resident_value() {
        let db = db();
        db.put(b"k", b"old").unwrap();
        db.flush_all();
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k"), None);
        db.flush_all();
        assert_eq!(db.get(b"k"), None);
    }
}
