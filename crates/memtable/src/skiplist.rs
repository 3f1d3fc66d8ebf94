//! The concurrent lock-free skiplist with multi-insert (Algorithm 1).
//!
//! The structure follows the lock-free skiplist of Herlihy & Shavit [29]
//! as simplified by FloDB's "no concurrent removal" guarantee: towers are
//! linked bottom-up with CAS, searches are wait-free, and no node is ever
//! unlinked while the list is alive.
//!
//! # Node layout
//!
//! A node is one block of its list's [`Arena`]: a [`Node`] header (the
//! value pointer, the tower height, the key length), then `height` tower
//! slots, then the key bytes. A search hop touches one block instead of a
//! node, a tower and a key in three places, and the nodes of a list share
//! a few chunks instead of being separate heap objects.
//!
//! # Memory reclamation
//!
//! Two object classes have different lifetimes here:
//!
//! - **Nodes** are never unlinked, so they live exactly as long as the
//!   list and are never freed one at a time: `Drop` returns the arena's
//!   chunks whole (which in FloDB happens after the immutable Memtable is
//!   persisted and its last scan snapshot is released). A node carved out
//!   for a key that a racing insert linked first is left in its chunk,
//!   unreachable and still charged to the table.
//! - **Versions** (a [`VersionedValue`] plus a `prev` link) stay heap
//!   objects, because they are replaced in place by concurrent updates.
//!   A displaced version is retired through `Guard::defer_destroy` *after*
//!   the swap that unlinked it, under the updater's pin, and the epoch
//!   collector frees it only once every thread pinned at retire time has
//!   unpinned. Correspondingly, every read of a node's value pointer
//!   (`get`, the iterator, the drain path) happens under a pin and
//!   dereferences only while that guard is alive — see `ARCHITECTURE.md`
//!   for the full invariant list. `Drop` frees the versions of the linked
//!   nodes before the chunks go.
//!
//! # Version chains
//!
//! A list built [`SkipList::with_horizon`] reads one word before an
//! in-place update: the oldest stamp a live scan reads at (`u64::MAX`:
//! none). Below it the update links the replaced version as `prev` and
//! cuts the chain under the newest version at or below the horizon. A
//! cut retires the tail one version at a time, each by the thread whose
//! swap unlinked it, so racing cuts never retire (or uncharge) a version
//! twice; `Drop` frees whole chains.

use std::mem::size_of;
use std::{ptr, slice};

use flodb_sync::shim::{atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering}, Arc};

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};

use crate::arena::{Arena, ALIGN};
use crate::height::random_height;
use crate::value::VersionedValue;

/// Maximum tower height; with branching factor 4 this comfortably indexes
/// billions of entries.
pub const MAX_HEIGHT: usize = 16;

/// One element of a multi-insert batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEntry {
    /// The key.
    pub key: Box<[u8]>,
    /// `Some(payload)` for a put, `None` for a delete tombstone.
    pub value: Option<Box<[u8]>>,
    /// Global sequence number assigned by the drainer.
    pub seq: u64,
}

/// A key's value and, while a live scan may read it, the one it replaced.
pub(crate) struct Version {
    pub(crate) value: VersionedValue,
    pub(crate) prev: Atomic<Version>,
}

impl Version {
    fn new(seq: u64, value: Option<Box<[u8]>>) -> Owned<Self> {
        Owned::new(Self { value: VersionedValue { seq, value }, prev: Atomic::null() })
    }

    /// Unlinks the chain below this version, for the caller alone.
    fn take_prev<'g>(&self, guard: &'g Guard) -> Shared<'g, Self> {
        match self.prev.load(Ordering::Acquire, guard) {
            prev if prev.is_null() => prev,
            _ => self.prev.swap(Shared::null(), Ordering::AcqRel, guard),
        }
    }
}

/// The header of a node block: `height` tower slots and then `key_len`
/// key bytes follow it in the same block (see "Node layout").
#[repr(C)]
pub(crate) struct Node {
    pub(crate) value: Atomic<Version>,
    height: u32,
    key_len: u32,
    /// Where the tower starts; the block holds `height` slots.
    tower: [Atomic<Node>; 0],
}

const _: () = assert!(std::mem::align_of::<Node>() <= ALIGN);

impl Node {
    /// Bytes of the block holding a node of `height` with a `key_len`-byte
    /// key, padding included.
    fn block_size(height: usize, key_len: usize) -> usize {
        (size_of::<Node>() + height * size_of::<Atomic<Node>>() + key_len).next_multiple_of(ALIGN)
    }

    /// Carves a node for `key` out of `arena`: value pointer `value`,
    /// tower all null. Returns it with its block size.
    fn allocate(
        arena: &Arena,
        key: &[u8],
        height: usize,
        value: Shared<'_, Version>,
    ) -> (*const Node, usize) {
        let size = Self::block_size(height, key.len());
        let key_len = u32::try_from(key.len()).expect("keys are shorter than 4 GiB");
        let node = arena.allocate(size).cast::<Node>().as_ptr();
        // SAFETY: the block is `size` bytes, aligned for `Node` and claimed
        // for this call alone, so the header, `height` slots and the key
        // all fit in it; the slot and key pointers derive from the block's
        // own pointer.
        unsafe {
            node.write(Node {
                value: Atomic::null(),
                height: height as u32,
                key_len,
                tower: [],
            });
            (*node).value.store(value, Ordering::Relaxed);
            let tower = ptr::addr_of_mut!((*node).tower).cast::<Atomic<Node>>();
            for level in 0..height {
                tower.add(level).write(Atomic::null());
            }
            ptr::copy_nonoverlapping(key.as_ptr(), tower.add(height).cast::<u8>(), key.len());
        }
        (node, size)
    }

    fn height(&self) -> usize {
        self.height as usize
    }

    /// Tower slot `level`, which must be below the node's height.
    pub(crate) fn tower(&self, level: usize) -> &Atomic<Node> {
        debug_assert!(level < self.height(), "level {level} of a {}-high tower", self.height);
        // SAFETY: a `Node` exists only as the header of a block laid out by
        // `Node::allocate`, whose `height` initialised slots follow the
        // header; `level` is below the height.
        unsafe { &*self.tower.as_ptr().add(level) }
    }

    /// The node's key.
    pub(crate) fn key(&self) -> &[u8] {
        // SAFETY: as for `tower`: `key_len` key bytes follow the `height`
        // slots in the same block, written before the node was published
        // and never again.
        unsafe {
            let key = self.tower.as_ptr().add(self.height()).cast::<u8>();
            slice::from_raw_parts(key, self.key_len as usize)
        }
    }
}

/// The heap bytes behind one version: its `Version` and its payload.
fn value_bytes(version: &Version) -> usize {
    size_of::<Version>() + version.value.payload_len()
}

/// A concurrent, lock-free, insert-only skiplist keyed by byte strings.
///
/// Supports concurrent [`SkipList::insert`], [`SkipList::multi_insert`],
/// [`SkipList::get`] and iteration. Re-inserting an existing key replaces
/// its [`VersionedValue`] in place, keeping whichever value carries the
/// larger sequence number, so with no scan live the structure holds
/// exactly one version per key (FloDB's in-place update semantics, §3.2);
/// see "Version chains" for what a live scan keeps.
///
/// # Examples
///
/// ```
/// use flodb_memtable::SkipList;
///
/// let list = SkipList::new();
/// list.insert(b"b", Some(b"2"), 1);
/// list.insert(b"a", Some(b"1"), 2);
/// assert_eq!(list.get(b"a").unwrap().value.as_deref(), Some(&b"1"[..]));
/// assert_eq!(list.len(), 2);
/// ```
pub struct SkipList {
    /// Every node's block, the head's included; the chunks go after
    /// `Drop` has freed the values.
    arena: Arena,
    head: *const Node,
    entries: AtomicUsize,
    bytes: AtomicIsize,
    /// The oldest stamp a live scan reads at (`u64::MAX`: none); `None`
    /// never retains a replaced version.
    horizon: Option<Arc<AtomicU64>>,
}

// SAFETY: All shared mutation goes through atomics; nodes live in the
// list's own arena until it drops, and value lifetimes are managed by
// crossbeam-epoch. The raw head pointer is only written once at
// construction.
unsafe impl Send for SkipList {}
// SAFETY: See above; `&SkipList` only exposes lock-free concurrent methods.
unsafe impl Sync for SkipList {}

impl SkipList {
    /// Creates an empty skiplist whose in-place updates never retain the
    /// version they replace.
    pub fn new() -> Self {
        let arena = Arena::new();
        let (head, _) = Node::allocate(&arena, &[], MAX_HEIGHT, Shared::null());
        Self {
            arena,
            head,
            entries: AtomicUsize::new(0),
            bytes: AtomicIsize::new(0),
            horizon: None,
        }
    }

    /// Creates an empty skiplist whose in-place updates keep a replaced
    /// version while a scan stamped at or above `horizon` (the oldest live
    /// stamp, `u64::MAX`: none) may read it; see "Version chains".
    pub fn with_horizon(horizon: Arc<AtomicU64>) -> Self {
        let mut list = Self::new();
        list.horizon = Some(horizon);
        list
    }

    #[inline]
    fn head_shared<'g>(&self, _guard: &'g Guard) -> Shared<'g, Node> {
        // `head` lives in the arena, so it is valid for the list's
        // lifetime; tying the `Shared` to a guard lifetime keeps all uses
        // epoch-disciplined.
        Shared::from(self.head)
    }

    /// Returns the number of distinct keys in the list.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Returns whether the list contains no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the table's memory in bytes: every node block its arena
    /// handed out, padding and nodes left unlinked by a lost race included,
    /// plus the allocation behind each version it holds (its `Version` and
    /// payload), a version a live scan retains included until it is cut.
    /// The head's block and chunk space not yet handed out are not
    /// counted, so an empty table reports 0.
    ///
    /// With no scan live, repeated in-place updates of a key do not grow
    /// this figure (beyond a payload-size delta), which is what lets FloDB
    /// capture skewed workloads in memory (§5.4).
    pub fn approximate_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed).max(0) as usize
    }

    /// Inserts or updates `key`, returning `true` if a new node was linked
    /// and `false` if an existing entry was updated in place.
    ///
    /// `value == None` writes a delete tombstone. If the key already holds a
    /// value with a *larger* sequence number, the existing value is kept:
    /// sequence numbers, not arrival order, decide freshness.
    pub fn insert(&self, key: &[u8], value: Option<&[u8]>, seq: u64) -> bool {
        let guard = epoch::pin();
        let head = self.head_shared(&guard);
        let mut preds = [head; MAX_HEIGHT];
        let mut succs = [head; MAX_HEIGHT];
        let version = Version::new(seq, value.map(Box::from)).into_shared(&guard);
        self.insert_with_preds(key, version, &mut preds, &mut succs, &guard)
    }

    /// Inserts a sorted batch, reusing the search path between consecutive
    /// elements (the paper's multi-insert, Algorithm 1).
    ///
    /// The batch is sorted internally by key; callers need not pre-sort.
    /// Returns the number of *new* nodes linked (elements that updated an
    /// existing key in place are not counted).
    pub fn multi_insert(&self, mut batch: Vec<BatchEntry>) -> usize {
        batch.sort_by(|a, b| a.key.cmp(&b.key));
        let guard = epoch::pin();
        let head = self.head_shared(&guard);
        // The predecessor arrays persist across elements: this is the
        // path-reuse that makes multi-insert fast on small neighborhoods.
        let mut preds = [head; MAX_HEIGHT];
        let mut succs = [head; MAX_HEIGHT];
        let mut inserted = 0;
        for entry in batch {
            let version = Version::new(entry.seq, entry.value).into_shared(&guard);
            if self.insert_with_preds(&entry.key, version, &mut preds, &mut succs, &guard) {
                inserted += 1;
            }
        }
        inserted
    }

    /// Looks up `key`, returning a clone of its current versioned value.
    ///
    /// Tombstones are returned as `Some(VersionedValue { value: None, .. })`
    /// so callers can distinguish "deleted here" from "not present".
    pub fn get(&self, key: &[u8]) -> Option<VersionedValue> {
        let guard = epoch::pin();
        let mut pred = self.head_shared(&guard);
        for level in (0..MAX_HEIGHT).rev() {
            // SAFETY: `pred` is the head or a node reached via a validly
            // linked tower pointer; nodes are never unlinked or freed while
            // the list is alive.
            let mut curr = unsafe { pred.deref() }.tower(level).load(Ordering::Acquire, &guard);
            // SAFETY: As above; `curr` comes from a live tower pointer.
            while let Some(c) = unsafe { curr.as_ref() } {
                match c.key().cmp(key) {
                    std::cmp::Ordering::Less => {
                        pred = curr;
                        curr = c.tower(level).load(Ordering::Acquire, &guard);
                    }
                    std::cmp::Ordering::Equal => {
                        let v = c.value.load(Ordering::Acquire, &guard);
                        // SAFETY: A published node's value pointer is never
                        // null and is protected by `guard` against
                        // reclamation after a concurrent in-place update.
                        return Some(unsafe { v.deref() }.value.clone());
                    }
                    std::cmp::Ordering::Greater => break,
                }
            }
        }
        None
    }

    /// `FindFromPreds` (Algorithm 1, lines 1-18).
    ///
    /// Positions `preds`/`succs` around `key` at every level, starting the
    /// descent not from the head but from the stored predecessors of the
    /// previous call whenever they are further along. Returns whether an
    /// exact match was found (in which case `succs[0]` is that node).
    fn find_from_preds<'g>(
        &self,
        key: &[u8],
        preds: &mut [Shared<'g, Node>; MAX_HEIGHT],
        succs: &mut [Shared<'g, Node>; MAX_HEIGHT],
        guard: &'g Guard,
    ) -> bool {
        let head = self.head_shared(guard);
        let mut pred = head;
        for level in (0..MAX_HEIGHT).rev() {
            // Jump ahead to the stored predecessor when it is strictly
            // further along than the current one (the path-reuse core).
            let stored = preds[level];
            if stored != head && stored != pred {
                // SAFETY: Stored predecessors are live nodes (never freed
                // while the list is alive).
                let stored_key = unsafe { stored.deref() }.key();
                let advance = if pred == head {
                    true
                } else {
                    // SAFETY: As above.
                    stored_key > unsafe { pred.deref() }.key()
                };
                // Only usable if it is still a predecessor of `key`.
                if advance && stored_key < key {
                    pred = stored;
                }
            }
            // SAFETY: `pred` is head or a live node.
            let mut curr = unsafe { pred.deref() }.tower(level).load(Ordering::Acquire, guard);
            // SAFETY: `curr` is always read from a live tower pointer.
            while let Some(c) = unsafe { curr.as_ref() } {
                if c.key() >= key {
                    break;
                }
                pred = curr;
                curr = c.tower(level).load(Ordering::Acquire, guard);
            }
            preds[level] = pred;
            succs[level] = curr;
        }
        // SAFETY: `succs[0]` is null or a live node.
        matches!(unsafe { succs[0].as_ref() }, Some(c) if c.key() == key)
    }

    /// Shared insert path for `insert` and `multi_insert`
    /// (Algorithm 1, lines 24-42).
    ///
    /// `vv` is reachable by no one else yet; it ends up in a new node, in
    /// the existing node of `key`, or freed as staler than that node's.
    fn insert_with_preds<'g>(
        &self,
        key: &[u8],
        vv: Shared<'g, Version>,
        preds: &mut [Shared<'g, Node>; MAX_HEIGHT],
        succs: &mut [Shared<'g, Node>; MAX_HEIGHT],
        guard: &'g Guard,
    ) -> bool {
        // The node is carved out by the first attempt that needs one and
        // kept across retries, with its block size.
        let mut new_node: Option<(Shared<'g, Node>, usize)> = None;
        loop {
            if self.find_from_preds(key, preds, succs, guard) {
                // Key exists: update in place (SWAP in the pseudocode). A
                // node carved out for it stays in the arena, unreachable.
                if let Some((_, block)) = new_node {
                    self.bytes.fetch_add(block as isize, Ordering::Relaxed);
                }
                // SAFETY: `succs[0]` is a live node (exact match).
                let node_ref = unsafe { succs[0].deref() };
                self.update_in_place(node_ref, vv, guard);
                return false;
            }

            let (node, block) = *new_node.get_or_insert_with(|| {
                let (node, block) = Node::allocate(&self.arena, key, random_height(), vv);
                (Shared::from(node), block)
            });
            // SAFETY: `node` is a block of this list's arena.
            let node_ref = unsafe { node.deref() };
            let height = node_ref.height();

            // Point the new tower at the successors before publishing.
            for (level, succ) in succs.iter().enumerate().take(height) {
                node_ref.tower(level).store(*succ, Ordering::Relaxed);
            }
            // SAFETY: `vv` is still unpublished, so ours alone.
            let charge = block + value_bytes(unsafe { vv.deref() });

            // Publish at level 0; this is the linearization point.
            // ORDERING: SeqCst on success keeps node publication in one
            // total order with the seq-stamp issuance and the scan
            // protocol's pause/quiesce loads; Release would publish the
            // tower but leave the insert unordered against those flags.
            // SAFETY: `preds[0]` is head or a live node.
            let pred0 = unsafe { preds[0].deref() };
            if pred0
                .tower(0)
                .compare_exchange(
                    succs[0],
                    node,
                    Ordering::SeqCst, // ORDERING: see publication comment above
                    Ordering::Acquire,
                    guard,
                )
                .is_ok()
            {
                self.entries.fetch_add(1, Ordering::Relaxed);
                self.bytes.fetch_add(charge as isize, Ordering::Relaxed);
                self.link_upper_levels(key, node, height, preds, succs, guard);
                return true;
            }
            // Another insert got there first; retry with a fresh view.
        }
    }

    /// Links levels `1..height` of a freshly published node.
    fn link_upper_levels<'g>(
        &self,
        key: &[u8],
        node_shared: Shared<'g, Node>,
        height: usize,
        preds: &mut [Shared<'g, Node>; MAX_HEIGHT],
        succs: &mut [Shared<'g, Node>; MAX_HEIGHT],
        guard: &'g Guard,
    ) {
        // SAFETY: The node was just published and is never reclaimed while
        // the list is alive.
        let node_ref = unsafe { node_shared.deref() };
        for level in 1..height {
            loop {
                // ORDERING: same total order as the level-0 publication
                // CAS — upper-level links are an index over already-live
                // nodes, and keeping them SC avoids reasoning about mixed
                // orders on the same tower slots.
                // SAFETY: `preds[level]` is head or a live node.
                let pred = unsafe { preds[level].deref() };
                if pred
                    .tower(level)
                    .compare_exchange(
                        succs[level],
                        node_shared,
                        Ordering::SeqCst, // ORDERING: see comment above
                        Ordering::Acquire,
                        guard,
                    )
                    .is_ok()
                {
                    break;
                }
                // Competing inserts moved the neighborhood: refresh the
                // view and retarget this level (Algorithm 1, line 41).
                self.find_from_preds(key, preds, succs, guard);
                if succs[level] == node_shared {
                    // Already linked at this level by a competing retry.
                    break;
                }
                node_ref.tower(level).store(succs[level], Ordering::Release);
            }
        }
    }

    /// CAS loop replacing a node's version with `vv` if it is as fresh or
    /// fresher (by sequence number); otherwise `vv` is freed. With a scan
    /// live the replaced version stays linked below `vv` until a cut.
    fn update_in_place<'g>(&self, node: &Node, vv: Shared<'g, Version>, guard: &'g Guard) {
        // SAFETY: `vv` is unpublished until the CAS below succeeds, so
        // ours alone while this loop reads it.
        let new = unsafe { vv.deref() };
        // ORDERING: pairs with the scan coordinator's SeqCst store: a scan
        // lowers the horizon before its freeze resumes the writers, so an
        // update that passed the pause check sees the lowered value.
        let horizon = self.horizon.as_ref().map_or(u64::MAX, |h| h.load(Ordering::SeqCst));
        let keep = horizon != u64::MAX;
        // Mutation hook (`Hook::ChainLink`, tests/model_mutation.rs):
        // retire the replaced version even while a live scan reads it.
        #[cfg(flodb_model_mutation)]
        let keep = keep && !flodb_sync::shim::mutation::on(flodb_sync::shim::mutation::Hook::ChainLink);
        loop {
            let cur = node.value.load(Ordering::Acquire, guard);
            // SAFETY: Published nodes always hold a non-null value, and
            // `guard` protects it from reclamation.
            let cur_ref = unsafe { cur.deref() };
            if cur_ref.value.seq > new.value.seq {
                // The resident value is fresher; drop ours (it owns nothing
                // it may have linked on an earlier attempt).
                // SAFETY: `vv` was never published: this is its only owner.
                drop(unsafe { vv.into_owned() });
                return;
            }
            new.prev.store(if keep { cur } else { Shared::null() }, Ordering::Relaxed);
            // ORDERING: value replacement is a linearization point readers
            // race with; SeqCst keeps it in the same total order as node
            // publication so a scan's snapshot cannot observe a newer
            // value yet miss an older insert.
            if node
                .value
                .compare_exchange(cur, vv, Ordering::SeqCst, Ordering::Acquire, guard) // ORDERING: see comment above
                .is_ok()
            {
                let freed = if keep {
                    self.cut_below(vv, horizon, guard)
                } else {
                    // SAFETY: the CAS unlinked `cur` from the node.
                    unsafe { retire_chain(cur, guard) }
                };
                self.bytes
                    .fetch_add(value_bytes(new) as isize - freed as isize, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Cuts the chain from `version` down below its newest version at or
    /// below `horizon`; returns the bytes of the versions it retired.
    fn cut_below<'g>(&self, mut version: Shared<'g, Version>, horizon: u64, guard: &'g Guard) -> usize {
        // SAFETY: every version reached is linked from a live one or was
        // unlinked after this thread's pin loaded the link, so `guard`
        // keeps it from reclamation; `take_prev` unlinks the tail for this
        // thread alone.
        unsafe {
            while let Some(v) = version.as_ref() {
                if v.value.seq <= horizon {
                    return retire_chain(v.take_prev(guard), guard);
                }
                version = v.prev.load(Ordering::Acquire, guard);
            }
        }
        0
    }

    pub(crate) fn head_raw(&self) -> *const Node {
        self.head
    }
}

/// Retires `version` and the chain below it through the epoch collector,
/// one version at a time; returns their bytes. A version another cut
/// unlinked first is that cut's to retire.
///
/// # Safety
///
/// `version` must be null or unlinked from its list for the caller alone,
/// under a pin `guard` holds.
unsafe fn retire_chain<'g>(mut version: Shared<'g, Version>, guard: &'g Guard) -> usize {
    let mut freed = 0;
    // SAFETY: the caller, and each `take_prev`, unlinked `version` for
    // this thread alone; pinned readers that loaded it earlier are waited
    // out by the collector, and its `prev` is null when it is retired.
    unsafe {
        while let Some(v) = version.as_ref() {
            freed += value_bytes(v);
            let below = v.take_prev(guard);
            guard.defer_destroy(version);
            version = below;
        }
    }
    freed
}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for SkipList {
    fn drop(&mut self) {
        // The versions are the only heap objects the nodes own: free each
        // linked node's chain here, then the arena frees the chunks, nodes
        // and all, when the field drops.
        // SAFETY: We have exclusive access (`&mut self`); no guards can be
        // active on this list, so walking and freeing without protection is
        // sound. Every linked node holds a non-null version it alone points
        // at, and the chain below it is the node's alone too; versions
        // unlinked earlier were handed to the epoch collector and are
        // freed independently.
        unsafe {
            let guard = epoch::unprotected();
            let mut curr = (*self.head).tower(0).load(Ordering::Relaxed, guard);
            while let Some(node) = curr.as_ref() {
                let mut version = node.value.load(Ordering::Relaxed, guard);
                while !version.is_null() {
                    version = version.into_owned().prev.load(Ordering::Relaxed, guard);
                }
                curr = node.tower(0).load(Ordering::Relaxed, guard);
            }
        }
    }
}

impl std::fmt::Debug for SkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipList")
            .field("entries", &self.len())
            .field("approx_bytes", &self.approximate_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::thread;

    use super::*;

    fn k(n: u64) -> Box<[u8]> {
        Box::new(n.to_be_bytes())
    }

    #[test]
    fn empty_list() {
        let l = SkipList::new();
        assert!(l.is_empty());
        assert_eq!(l.get(b"missing"), None);
    }

    #[test]
    fn insert_and_get() {
        let l = SkipList::new();
        assert!(l.insert(b"a", Some(b"1"), 1));
        assert!(l.insert(b"b", Some(b"2"), 2));
        assert_eq!(l.get(b"a").unwrap().value.as_deref(), Some(&b"1"[..]));
        assert_eq!(l.get(b"b").unwrap().seq, 2);
        assert_eq!(l.get(b"c"), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn in_place_update_keeps_len_and_freshest() {
        let l = SkipList::new();
        assert!(l.insert(b"k", Some(b"old"), 1));
        assert!(!l.insert(b"k", Some(b"new"), 2));
        assert_eq!(l.len(), 1);
        let v = l.get(b"k").unwrap();
        assert_eq!(v.value.as_deref(), Some(&b"new"[..]));
        assert_eq!(v.seq, 2);

        // A stale write (smaller seq) must not clobber a fresher value.
        assert!(!l.insert(b"k", Some(b"stale"), 1));
        assert_eq!(l.get(b"k").unwrap().value.as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn tombstones_are_stored() {
        let l = SkipList::new();
        l.insert(b"k", Some(b"v"), 1);
        l.insert(b"k", None, 2);
        let v = l.get(b"k").unwrap();
        assert!(v.is_tombstone());
        assert_eq!(v.seq, 2);
    }

    #[test]
    fn ordered_after_random_inserts() {
        let l = SkipList::new();
        let mut model = BTreeMap::new();
        // Deterministic pseudo-random order.
        let mut x = 12345u64;
        for i in 0..2000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = x % 500;
            l.insert(&k(key), Some(&i.to_be_bytes()), i + 1);
            model.insert(key, i + 1);
        }
        assert_eq!(l.len(), model.len());
        for (key, seq) in model {
            assert_eq!(l.get(&k(key)).unwrap().seq, seq);
        }
    }

    #[test]
    fn multi_insert_sorts_and_inserts() {
        let l = SkipList::new();
        let batch = vec![
            BatchEntry { key: k(3), value: Some(Box::from(&b"3"[..])), seq: 1 },
            BatchEntry { key: k(1), value: Some(Box::from(&b"1"[..])), seq: 2 },
            BatchEntry { key: k(2), value: None, seq: 3 },
        ];
        assert_eq!(l.multi_insert(batch), 3);
        assert_eq!(l.len(), 3);
        assert!(l.get(&k(2)).unwrap().is_tombstone());
    }

    #[test]
    fn multi_insert_updates_existing_in_place() {
        let l = SkipList::new();
        l.insert(&k(1), Some(b"old"), 1);
        let batch = vec![
            BatchEntry { key: k(1), value: Some(Box::from(&b"new"[..])), seq: 5 },
            BatchEntry { key: k(2), value: Some(Box::from(&b"two"[..])), seq: 6 },
        ];
        assert_eq!(l.multi_insert(batch), 1);
        assert_eq!(l.len(), 2);
        assert_eq!(l.get(&k(1)).unwrap().value.as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn multi_insert_duplicate_keys_in_batch() {
        let l = SkipList::new();
        let batch = vec![
            BatchEntry { key: k(1), value: Some(Box::from(&b"a"[..])), seq: 1 },
            BatchEntry { key: k(1), value: Some(Box::from(&b"b"[..])), seq: 2 },
        ];
        assert_eq!(l.multi_insert(batch), 1);
        // The larger sequence number wins.
        assert_eq!(l.get(&k(1)).unwrap().value.as_deref(), Some(&b"b"[..]));
    }

    #[test]
    fn multi_insert_equivalent_to_single_inserts() {
        let single = SkipList::new();
        let multi = SkipList::new();
        let mut batch = Vec::new();
        let mut x = 999u64;
        for i in 0..500u64 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let key = x % 200;
            single.insert(&k(key), Some(&i.to_be_bytes()), i + 1);
            batch.push(BatchEntry {
                key: k(key),
                value: Some(Box::from(i.to_be_bytes().as_slice())),
                seq: i + 1,
            });
        }
        multi.multi_insert(batch);
        assert_eq!(single.len(), multi.len());
        for key in 0..200u64 {
            assert_eq!(single.get(&k(key)), multi.get(&k(key)), "key {key}");
        }
    }

    #[test]
    fn bytes_accounting_does_not_grow_on_updates() {
        let l = SkipList::new();
        l.insert(&k(1), Some(&[0u8; 100]), 1);
        let after_first = l.approximate_bytes();
        for seq in 2..100 {
            l.insert(&k(1), Some(&[0u8; 100]), seq);
        }
        assert_eq!(l.approximate_bytes(), after_first);
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let l = Arc::new(SkipList::new());
        let threads = 4;
        let per = 2000u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let l = Arc::clone(&l);
            handles.push(thread::spawn(move || {
                for i in 0..per {
                    let key = t * per + i;
                    assert!(l.insert(&k(key), Some(&key.to_be_bytes()), key + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.len(), (threads * per) as usize);
        for key in 0..threads * per {
            let v = l.get(&k(key)).unwrap();
            assert_eq!(v.value.as_deref(), Some(key.to_be_bytes().as_slice()));
        }
    }

    #[test]
    fn concurrent_same_key_inserts_keep_one_node() {
        let l = Arc::new(SkipList::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let l = Arc::clone(&l);
            handles.push(thread::spawn(move || {
                for i in 0..1000u64 {
                    l.insert(&k(7), Some(&i.to_be_bytes()), t * 1000 + i + 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.len(), 1);
        // The surviving value must carry the globally largest seq.
        assert_eq!(l.get(&k(7)).unwrap().seq, 4000);
    }

    #[test]
    fn concurrent_multi_inserts() {
        let l = Arc::new(SkipList::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let l = Arc::clone(&l);
            handles.push(thread::spawn(move || {
                for round in 0..20u64 {
                    let batch: Vec<BatchEntry> = (0..50)
                        .map(|i| {
                            let key = (t * 20 + round) * 50 + i;
                            BatchEntry {
                                key: k(key),
                                value: Some(Box::from(key.to_be_bytes().as_slice())),
                                seq: key + 1,
                            }
                        })
                        .collect();
                    assert_eq!(l.multi_insert(batch), 50);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.len(), 4 * 20 * 50);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let l = Arc::new(SkipList::new());
        for key in 0..100u64 {
            l.insert(&k(key), Some(&0u64.to_be_bytes()), 1);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let l = Arc::clone(&l);
            let stop = Arc::clone(&stop);
            handles.push(thread::spawn(move || {
                let mut reads = 0u64;
                // At least one full pass, even if the writer already
                // finished (slow-scheduler robustness).
                loop {
                    for key in 0..100u64 {
                        let v = l.get(&k(key)).unwrap();
                        assert!(!v.is_tombstone());
                        reads += 1;
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                reads
            }));
        }
        for seq in 2..2000u64 {
            l.insert(&k(seq % 100), Some(&seq.to_be_bytes()), seq);
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            assert!(h.join().unwrap() > 0);
        }
    }

    #[test]
    fn bytes_count_every_block_and_value_exactly() {
        let l = SkipList::new();
        l.insert(b"", None, 1);
        l.insert(&[7u8; 300], Some(&[1u8; 100]), 2);
        for i in 0..500u64 {
            l.insert(&k(i), Some(&[0u8; 256][..(i % 257) as usize]), i + 3);
        }
        l.insert(&k(3), Some(b"shorter"), 1000);
        let guard = epoch::pin();
        let mut expected = 0;
        // SAFETY: the head and every linked node live as long as `l`, and
        // `guard` protects the values.
        unsafe {
            let mut curr = (*l.head_raw()).tower(0).load(Ordering::Acquire, &guard);
            while let Some(node) = curr.as_ref() {
                expected += Node::block_size(node.height(), node.key().len())
                    + value_bytes(node.value.load(Ordering::Acquire, &guard).deref());
                curr = node.tower(0).load(Ordering::Acquire, &guard);
            }
        }
        assert_eq!(l.approximate_bytes(), expected);
    }

    /// The bytes the list should charge: every linked node's block plus
    /// every version of its chain.
    fn charged(l: &SkipList) -> usize {
        let guard = epoch::pin();
        let mut expected = 0;
        // SAFETY: the head and every linked node live as long as `l`, and
        // `guard` protects the versions.
        unsafe {
            let mut curr = (*l.head_raw()).tower(0).load(Ordering::Acquire, &guard);
            while let Some(node) = curr.as_ref() {
                expected += Node::block_size(node.height(), node.key().len());
                let mut version = node.value.load(Ordering::Acquire, &guard);
                while let Some(v) = version.as_ref() {
                    expected += value_bytes(v);
                    version = v.prev.load(Ordering::Acquire, &guard);
                }
                curr = node.tower(0).load(Ordering::Acquire, &guard);
            }
        }
        expected
    }

    fn seq_at(l: &SkipList, key: &[u8], stamp: u64) -> u64 {
        let mut it = l.iter();
        it.seek(key);
        it.value_at(stamp).seq
    }

    #[test]
    fn a_live_horizon_keeps_what_its_scans_read_and_no_more() {
        let horizon = Arc::new(AtomicU64::new(u64::MAX));
        let l = SkipList::with_horizon(Arc::clone(&horizon));
        l.insert(b"k", Some(b"v1"), 1);
        l.insert(b"k", Some(b"v2"), 2);
        assert_eq!(seq_at(&l, b"k", 1), 2, "no scan was live: version 1 is gone");
        // A scan stamped 2 goes live; updates above it link what they replace.
        horizon.store(2, Ordering::SeqCst);
        for seq in 3..6 {
            l.insert(b"k", Some(b"vvv"), seq);
        }
        let stamps: Vec<u64> = [2, 3, 4, 5, 9].iter().map(|&s| seq_at(&l, b"k", s)).collect();
        assert_eq!(stamps, [2, 3, 4, 5, 5]);
        assert_eq!(l.approximate_bytes(), charged(&l));
        // The horizon rises to 4: the next update cuts below version 4.
        horizon.store(4, Ordering::SeqCst);
        l.insert(b"k", Some(b"v6"), 6);
        assert_eq!(seq_at(&l, b"k", 2), 4, "versions 2 and 3 were cut");
        assert_eq!(seq_at(&l, b"k", 5), 5);
        assert_eq!(l.approximate_bytes(), charged(&l));
        // A stale write links nothing and frees only itself.
        l.insert(b"k", Some(b"stale"), 1);
        assert_eq!(seq_at(&l, b"k", 9), 6);
        // No scan live: the next update retires the whole chain.
        horizon.store(u64::MAX, Ordering::SeqCst);
        l.insert(b"k", Some(b"v7"), 7);
        assert_eq!(seq_at(&l, b"k", 0), 7);
        assert_eq!(l.approximate_bytes(), charged(&l));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn racing_cuts_retire_and_uncharge_each_version_once() {
        let horizon = Arc::new(AtomicU64::new(u64::MAX));
        let l = Arc::new(SkipList::with_horizon(Arc::clone(&horizon)));
        let seq = Arc::new(std::sync::atomic::AtomicU64::new(1));
        let writers: Vec<_> = (0..3)
            .map(|_| {
                let (l, seq) = (Arc::clone(&l), Arc::clone(&seq));
                thread::spawn(move || {
                    for i in 0..3000u64 {
                        let s = seq.fetch_add(1, Ordering::Relaxed);
                        l.insert(&k(i % 4), Some(&[0u8; 24][..(s % 25) as usize]), s);
                    }
                })
            })
            .collect();
        // The horizon moves under the writers as scans come and go; a
        // stamp is never above a sequence number already handed out.
        for round in 0..2000u64 {
            let next = match round % 3 {
                0 => u64::MAX,
                _ => seq.load(Ordering::Relaxed).saturating_sub(round % 7),
            };
            horizon.store(next, Ordering::SeqCst);
            thread::yield_now();
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(l.approximate_bytes(), charged(&l));
        horizon.store(u64::MAX, Ordering::SeqCst);
        for key in 0..4 {
            l.insert(&k(key), None, u64::MAX);
        }
        assert_eq!(l.approximate_bytes(), charged(&l));
    }

    /// A key of writer `t`: unique per `(t, i)`, 9 to 65 bytes long.
    fn writer_key(t: u8, i: u64) -> Vec<u8> {
        let mut key = vec![t];
        key.extend_from_slice(&i.to_be_bytes());
        key.resize(9 + (i as usize * 7) % 57, i as u8);
        key
    }

    /// The value written to `key` at `seq`: readers can check it against
    /// both.
    fn value_for(key: &[u8], seq: u64) -> Vec<u8> {
        let mut value = seq.to_be_bytes().to_vec();
        value.extend(key.iter().rev());
        value
    }

    fn check(key: &[u8], v: &VersionedValue) {
        assert_eq!(v.value.as_deref(), Some(value_for(key, v.seq).as_slice()), "torn entry");
    }

    #[test]
    fn concurrent_mixed_writers_and_readers_across_hundreds_of_chunk_rolls() {
        const WRITERS: u8 = 4;
        const ROUNDS: u64 = 60;
        const ROUND: u64 = 50;
        const HOT: u64 = 8;
        let hot_key = |j: u64| vec![0xFF, j as u8];
        let l = Arc::new(SkipList::new());
        let seq = Arc::new(std::sync::atomic::AtomicU64::new(1));
        // Own keys of writer `t` below `acked[t]` have been acknowledged.
        let acked: Arc<Vec<std::sync::atomic::AtomicU64>> =
            Arc::new((0..WRITERS).map(|_| Default::default()).collect());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let (l, seq, acked) = (Arc::clone(&l), Arc::clone(&seq), Arc::clone(&acked));
                thread::spawn(move || {
                    let mut own = Vec::new();
                    let mut hot = Vec::new();
                    for round in 0..ROUNDS {
                        let mut batch = Vec::new();
                        for i in round * ROUND..(round + 1) * ROUND {
                            let key = writer_key(t, i);
                            let s = seq.fetch_add(1, Ordering::Relaxed);
                            own.push(s);
                            // Odd rounds drain like the Membuffer does.
                            if round % 2 == 1 {
                                let value = Some(value_for(&key, s).into_boxed_slice());
                                batch.push(BatchEntry { key: key.into(), value, seq: s });
                            } else {
                                assert!(l.insert(&key, Some(&value_for(&key, s)), s));
                            }
                            let j = (i + u64::from(t)) % HOT;
                            let s = seq.fetch_add(1, Ordering::Relaxed);
                            l.insert(&hot_key(j), Some(&value_for(&hot_key(j), s)), s);
                            hot.push((j, s));
                        }
                        if !batch.is_empty() {
                            assert_eq!(l.multi_insert(batch), ROUND as usize);
                        }
                        acked[t as usize].store((round + 1) * ROUND, Ordering::Release);
                    }
                    (own, hot)
                })
            })
            .collect();

        let readers: Vec<_> = (0..2u64)
            .map(|r| {
                let (l, acked, stop) = (Arc::clone(&l), Arc::clone(&acked), Arc::clone(&stop));
                thread::spawn(move || {
                    let mut x = r + 1;
                    loop {
                        let done = stop.load(Ordering::Acquire);
                        for _ in 0..200 {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                            let t = (x >> 60) as u8 % WRITERS;
                            let upto = acked[t as usize].load(Ordering::Acquire);
                            if upto > 0 {
                                let key = writer_key(t, (x >> 20) % upto);
                                check(&key, &l.get(&key).expect("acknowledged key missing"));
                            }
                        }
                        let mut it = l.iter();
                        it.seek_to_first();
                        let mut prev: Option<Vec<u8>> = None;
                        while it.valid() {
                            check(it.key(), it.value_at(u64::MAX));
                            assert!(prev.as_deref() < Some(it.key()), "iteration out of order");
                            prev = Some(it.key().to_vec());
                            it.next();
                        }
                        if done {
                            break;
                        }
                    }
                })
            })
            .collect();

        let mut hot_final = [0u64; HOT as usize];
        let mut own_seqs = Vec::new();
        for w in writers {
            let (own, hot) = w.join().unwrap();
            for (j, s) in hot {
                hot_final[j as usize] = hot_final[j as usize].max(s);
            }
            own_seqs.push(own);
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }

        for (t, seqs) in own_seqs.iter().enumerate() {
            for (i, &s) in seqs.iter().enumerate() {
                let key = writer_key(t as u8, i as u64);
                let v = l.get(&key).expect("acknowledged key missing");
                assert_eq!((v.seq, v.value.as_deref()), (s, Some(value_for(&key, s).as_slice())));
            }
        }
        for (j, &s) in hot_final.iter().enumerate() {
            let key = hot_key(j as u64);
            assert_eq!(l.get(&key).unwrap().value.as_deref(), Some(value_for(&key, s).as_slice()));
        }
        let own_total = usize::from(WRITERS) * (ROUNDS * ROUND) as usize;
        assert_eq!(l.len(), own_total + HOT as usize);
        assert!(l.arena.chunks() >= 200, "only {} chunks", l.arena.chunks());
    }
}
