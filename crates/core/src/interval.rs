//! Intervals and write notices.
//!
//! An interval is the span of one processor's execution between two
//! synchronization operations; a write notice announces "page *p* was
//! modified in interval *i* of processor *q*". Acquiring processors
//! invalidate pages named by notices whose intervals they have not yet seen
//! (§2 of the paper).

use std::collections::VecDeque;
use std::sync::Arc;

use crate::page::PageId;
use crate::vtime::{IntervalId, VectorTime};

/// A write notice: one page dirtied by one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Notice {
    /// The modified page.
    pub page: PageId,
    /// The processor that modified it.
    pub owner: usize,
    /// The owner's interval in which the modification happened.
    pub interval: IntervalId,
}

/// A full interval announcement: identity, timestamp and the pages it
/// dirtied. An interval is an immutable fact once closed, so each one is
/// built once, when its owner closes it, and travels and is stored as a
/// shared [`Arc`] handle: lock grants, barrier traffic and every node's
/// [`IntervalStore`] point at the same allocation.
#[derive(Debug, PartialEq, Eq)]
pub struct IntervalAnnouncement {
    /// Processor that created the interval.
    pub owner: usize,
    /// Its per-owner sequence number.
    pub id: IntervalId,
    /// Vector time at the interval's close.
    pub vt: VectorTime,
    /// Pages dirtied during the interval.
    pub pages: Vec<PageId>,
}

impl Drop for IntervalAnnouncement {
    fn drop(&mut self) {
        crate::pool::put_ids(std::mem::take(&mut self.pages));
    }
}

impl IntervalAnnouncement {
    /// The write notices this interval induces.
    pub fn notices(&self) -> impl Iterator<Item = Notice> + '_ {
        self.pages.iter().map(|&page| Notice {
            page,
            owner: self.owner,
            interval: self.id,
        })
    }

    /// Wire size contribution (8 B per page + 24 B of identity/timestamp
    /// summary; vector times are run-length coded in real systems).
    pub fn encoded_bytes(&self) -> u64 {
        24 + 8 * self.pages.len() as u64
    }

    /// The component sum of the close-time vector time: the causal sort
    /// key for diff application (strictly monotone along causal chains).
    pub fn vt_sum(&self) -> u64 {
        self.vt.iter().map(|(_, v)| v as u64).sum()
    }
}

/// A pooled list of shared interval announcements — the payload of lock
/// grants and barrier traffic, and the result type of [`IntervalStore`]
/// queries. The backing storage recycles through [`crate::pool`]; cloning
/// the list clones handles, never announcements.
#[derive(Debug, PartialEq, Eq)]
pub struct AnnList(Vec<Arc<IntervalAnnouncement>>);

impl Default for AnnList {
    fn default() -> Self {
        AnnList(crate::pool::take_anns())
    }
}

impl Clone for AnnList {
    fn clone(&self) -> Self {
        let mut v = crate::pool::take_anns();
        v.extend(self.0.iter().cloned());
        AnnList(v)
    }
}

impl Drop for AnnList {
    fn drop(&mut self) {
        crate::pool::put_anns(std::mem::take(&mut self.0));
    }
}

impl std::ops::Deref for AnnList {
    type Target = [Arc<IntervalAnnouncement>];
    fn deref(&self) -> &[Arc<IntervalAnnouncement>] {
        &self.0
    }
}

impl AnnList {
    /// An empty, pool-backed list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one announcement handle.
    pub fn push(&mut self, ann: Arc<IntervalAnnouncement>) {
        self.0.push(ann);
    }

    /// Moves every handle out, leaving the container empty (and still
    /// pool-backed).
    pub fn drain(&mut self) -> std::vec::Drain<'_, Arc<IntervalAnnouncement>> {
        self.0.drain(..)
    }

    /// Sorts into `(owner, id)` order and drops repeated intervals — the
    /// order and the idempotence [`IntervalStore::all`] gives a store.
    pub fn sort_dedup(&mut self) {
        self.0.sort_unstable_by_key(|a| (a.owner, a.id));
        self.0.dedup_by_key(|a| (a.owner, a.id));
    }
}

/// A pooled list of interval ids — the per-writer payload of a diff
/// request.
#[derive(Debug, PartialEq, Eq)]
pub struct IvlList(Vec<IntervalId>);

impl Default for IvlList {
    fn default() -> Self {
        IvlList(crate::pool::take_clock())
    }
}

impl Clone for IvlList {
    fn clone(&self) -> Self {
        let mut v = crate::pool::take_clock();
        v.extend_from_slice(&self.0);
        IvlList(v)
    }
}

impl Drop for IvlList {
    fn drop(&mut self) {
        crate::pool::put_clock(std::mem::take(&mut self.0));
    }
}

impl std::ops::Deref for IvlList {
    type Target = [IntervalId];
    fn deref(&self) -> &[IntervalId] {
        &self.0
    }
}

impl IvlList {
    /// An empty, pool-backed list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one interval id.
    pub fn push(&mut self, ivl: IntervalId) {
        self.0.push(ivl);
    }
}

/// Every interval a node has learned about (its own and others'). Used to
/// compute the announcements a releaser must ship to an acquirer, and
/// garbage-collected at barriers.
///
/// The store holds shared handles: recording an announcement that arrived
/// on a grant or a barrier release adds a reference to the owner's one
/// allocation, never a copy of its vector time and page list. Whatever a
/// node needs about an interval after the barrier GC has collected it (the
/// causal sort key) lives in the simulation's machine-wide table, not here.
///
/// Laid out struct-of-arrays style: one id-ordered run per owner instead
/// of a `BTreeMap` keyed by `(owner, id)`. Along any causal chain a node
/// learns an owner's intervals in increasing id order, so `record` is an
/// amortized O(1) `push_back`, coverage queries are prefix splits, and the
/// barrier GC pops from the front — all without per-entry tree nodes, which
/// dominated the allocator profile at 256 nodes.
#[derive(Debug, Clone, Default)]
pub struct IntervalStore {
    /// `by_owner[p]` holds owner `p`'s known intervals in ascending id
    /// order (runs reuse their ring capacity across the GC cycle).
    by_owner: Vec<VecDeque<Arc<IntervalAnnouncement>>>,
    count: usize,
}

impl IntervalStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an interval (idempotent: re-announcements are ignored).
    pub fn record(&mut self, ann: Arc<IntervalAnnouncement>) {
        if self.by_owner.len() <= ann.owner {
            self.by_owner.resize_with(ann.owner + 1, VecDeque::new);
        }
        let run = &mut self.by_owner[ann.owner];
        if run.back().is_none_or(|last| last.id < ann.id) {
            run.push_back(ann);
        } else {
            // Out-of-order announcement (e.g. sets merged from several
            // nodes): splice into id order, ignoring duplicates.
            let pos = run.partition_point(|a| a.id < ann.id);
            if run.get(pos).is_some_and(|a| a.id == ann.id) {
                return;
            }
            run.insert(pos, ann);
        }
        self.count += 1;
    }

    /// Looks up one interval.
    pub fn get(&self, owner: usize, id: IntervalId) -> Option<&Arc<IntervalAnnouncement>> {
        let run = self.by_owner.get(owner)?;
        let pos = run.partition_point(|a| a.id < id);
        run.get(pos).filter(|a| a.id == id)
    }

    /// Number of intervals retained.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the store holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Intervals known here but **not** covered by `their_vt` — exactly what
    /// a releaser must announce to an acquirer. Returned in deterministic
    /// `(owner, id)` order.
    pub fn missing_for(&self, their_vt: &VectorTime) -> AnnList {
        let mut out = AnnList::new();
        for (owner, run) in self.by_owner.iter().enumerate() {
            // Covered ids form a prefix of the ascending run.
            let from = run.partition_point(|a| their_vt.covers_interval(owner, a.id));
            for a in run.iter().skip(from) {
                out.push(Arc::clone(a));
            }
        }
        out
    }

    /// Every retained interval in deterministic `(owner, id)` order (used
    /// by barrier managers to broadcast the merged announcement set).
    pub fn all(&self) -> AnnList {
        let mut out = AnnList::new();
        for run in &self.by_owner {
            for a in run {
                out.push(Arc::clone(a));
            }
        }
        out
    }

    /// Drops every interval covered by `floor` (a vector time all
    /// processors are known to have reached, e.g. the previous barrier's
    /// merged time). Returns how many intervals were collected.
    pub fn gc_covered(&mut self, floor: &VectorTime) -> usize {
        let before = self.count;
        for (owner, run) in self.by_owner.iter_mut().enumerate() {
            while run
                .front()
                .is_some_and(|a| floor.covers_interval(owner, a.id))
            {
                run.pop_front();
                self.count -= 1;
            }
        }
        before - self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ann(owner: usize, id: IntervalId, pages: &[PageId], n: usize) -> Arc<IntervalAnnouncement> {
        let mut vt = VectorTime::new(n);
        vt.observe(owner, id);
        Arc::new(IntervalAnnouncement {
            owner,
            id,
            vt,
            pages: pages.to_vec(),
        })
    }

    #[test]
    fn missing_for_respects_coverage() {
        let mut s = IntervalStore::new();
        s.record(ann(0, 1, &[10], 4));
        s.record(ann(0, 2, &[11], 4));
        s.record(ann(1, 1, &[12], 4));
        let mut their = VectorTime::new(4);
        their.observe(0, 1);
        let missing = s.missing_for(&their);
        let keys: Vec<(usize, IntervalId)> = missing.iter().map(|a| (a.owner, a.id)).collect();
        assert_eq!(keys, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn record_is_idempotent() {
        let mut s = IntervalStore::new();
        s.record(ann(2, 5, &[1, 2], 4));
        s.record(ann(2, 5, &[99], 4)); // ignored duplicate
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(2, 5).unwrap().pages, vec![1, 2]);
    }

    #[test]
    fn gc_drops_only_covered() {
        let mut s = IntervalStore::new();
        s.record(ann(0, 1, &[], 2));
        s.record(ann(0, 2, &[], 2));
        s.record(ann(1, 1, &[], 2));
        let mut floor = VectorTime::new(2);
        floor.observe(0, 1);
        floor.observe(1, 1);
        assert_eq!(s.gc_covered(&floor), 2);
        assert_eq!(s.len(), 1);
        assert!(s.get(0, 2).is_some());
    }

    #[test]
    fn recording_into_many_stores_keeps_one_allocation() {
        let a = ann(1, 3, &[7, 8], 256);
        let mut stores: Vec<IntervalStore> = (0..64).map(|_| IntervalStore::new()).collect();
        for s in &mut stores {
            s.record(Arc::clone(&a));
        }
        assert_eq!(Arc::strong_count(&a), 65);
        for s in &stores {
            assert!(Arc::ptr_eq(s.get(1, 3).unwrap(), &a));
        }
        drop(stores);
        assert_eq!(Arc::strong_count(&a), 1);
    }

    #[test]
    fn queries_return_shared_handles() {
        let mut s = IntervalStore::new();
        let (a, b) = (ann(0, 1, &[1], 4), ann(2, 1, &[2], 4));
        s.record(Arc::clone(&a));
        s.record(Arc::clone(&b));
        let missing = s.missing_for(&VectorTime::new(4));
        let all = s.all();
        for list in [&missing, &all] {
            assert_eq!(list.len(), 2);
            assert!(Arc::ptr_eq(&list[0], &a) && Arc::ptr_eq(&list[1], &b));
        }
        // Cloning a list clones handles, not announcements.
        let copy = all.clone();
        assert!(Arc::ptr_eq(&copy[0], &a));
        assert_eq!(Arc::strong_count(&a), 5);
    }

    #[test]
    fn sort_dedup_matches_a_store_all() {
        let (a, b, c) = (ann(1, 2, &[], 4), ann(0, 5, &[], 4), ann(1, 1, &[], 4));
        let mut list = AnnList::new();
        let mut store = IntervalStore::new();
        for x in [&a, &b, &c, &a, &b] {
            list.push(Arc::clone(x));
            store.record(Arc::clone(x));
        }
        list.sort_dedup();
        assert_eq!(list, store.all());
        let keys: Vec<(usize, IntervalId)> = list.iter().map(|a| (a.owner, a.id)).collect();
        assert_eq!(keys, vec![(0, 5), (1, 1), (1, 2)]);
    }

    #[test]
    fn vt_sum_is_the_component_sum() {
        let mut vt = VectorTime::new(3);
        vt.observe(0, 4);
        vt.observe(2, 5);
        let a = IntervalAnnouncement {
            owner: 0,
            id: 4,
            vt,
            pages: Vec::new(),
        };
        assert_eq!(a.vt_sum(), 9);
    }

    #[test]
    fn notices_enumerate_pages() {
        let a = ann(3, 7, &[5, 6], 4);
        let ns: Vec<Notice> = a.notices().collect();
        assert_eq!(
            ns,
            vec![
                Notice {
                    page: 5,
                    owner: 3,
                    interval: 7
                },
                Notice {
                    page: 6,
                    owner: 3,
                    interval: 7
                }
            ]
        );
    }

    #[test]
    fn encoded_size_grows_with_pages() {
        assert_eq!(ann(0, 1, &[], 2).encoded_bytes(), 24);
        assert_eq!(ann(0, 1, &[1, 2, 3], 2).encoded_bytes(), 48);
    }
}
