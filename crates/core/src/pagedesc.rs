//! Per-page state: [`PageDescriptor`] with the paper's two-lock concurrency
//! scheme (§II-D), the dirty counter, the Table II page states, and — on a
//! striped log — the cross-stripe propagation queue that keeps per-page
//! write order at the inner file system.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::files::FileState;
use crate::lockcheck::{Class, Held, Recorder};

/// The state of a cached page (paper Table II / Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Present in the DRAM read cache; content always up to date.
    Loaded,
    /// Absent from the cache and no pending log entries modify it.
    UnloadedClean,
    /// Absent from the cache but the NVMM log holds entries that modify it —
    /// the kernel's copy is stale (dirty-miss territory).
    UnloadedDirty,
}

/// Content slot guarded by the per-page *atomic lock*.
#[derive(Debug, Default)]
pub struct PageSlot {
    /// The cached page content when the page is loaded.
    pub content: Option<Box<[u8]>>,
}

/// A page descriptor: one leaf of the per-file radix tree (paper §II-C).
///
/// Carries the two locks of the paper's concurrency scheme (§II-D):
///
/// * the **atomic lock** (here the mutex around [`PageSlot`]) serializes
///   writers/readers of the same page and guards the cached content;
/// * the **cleanup lock** synchronizes the cleanup thread against the
///   dirty-miss procedure — and nothing else, so the cleanup thread never
///   blocks writers, and never blocks readers that hit the cache.
///
/// The **dirty counter** counts log entries that modify this page; it may go
/// transiently negative when the cleanup thread's decrement overtakes a
/// writer's increment (paper footnote 4) — readers can never observe the
/// unstable value because the dirty-miss procedure requires both locks.
///
/// With a striped log the descriptor additionally carries the **propagation
/// queue**: the global sequence numbers of unfreed log entries touching this
/// page, in commit order (writers enqueue under the atomic lock, cleanup
/// workers pop once the entry's batch is freed). A cleanup worker may only
/// propagate an entry once nothing but its own batch is ahead of it, which
/// keeps cross-stripe per-page write order at the inner file system *and*
/// in what the log still holds, without serializing unrelated pages.
/// Single-stripe logs never touch it.
#[derive(Debug)]
pub struct PageDescriptor {
    file_id: u64,
    page_no: u64,
    slot: Mutex<PageSlot>,
    cleanup_lock: Mutex<()>,
    dirty_counter: AtomicI64,
    accessed: AtomicBool,
    prop_queue: Mutex<VecDeque<u64>>,
}

impl PageDescriptor {
    /// Creates an unloaded-clean descriptor for `page_no`.
    pub fn new(page_no: u64) -> Self {
        Self::for_file(0, page_no)
    }

    /// Creates a descriptor tagged with the owning file's id.
    pub fn for_file(file_id: u64, page_no: u64) -> Self {
        PageDescriptor {
            file_id,
            page_no,
            slot: Mutex::new(PageSlot::default()),
            cleanup_lock: Mutex::new(()),
            dirty_counter: AtomicI64::new(0),
            accessed: AtomicBool::new(false),
            prop_queue: Mutex::new(VecDeque::new()),
        }
    }

    /// The page number inside the file.
    pub fn page_no(&self) -> u64 {
        self.page_no
    }

    /// The owning file's id (0 for descriptors created outside a file).
    pub fn file_id(&self) -> u64 {
        self.file_id
    }

    /// Acquires the atomic lock.
    pub fn lock(&self) -> MutexGuard<'_, PageSlot> {
        self.slot.lock()
    }

    /// Tries to acquire the atomic lock (used by LRU eviction to avoid
    /// deadlocking with page locks the evictor already holds).
    pub fn try_lock(&self) -> Option<MutexGuard<'_, PageSlot>> {
        self.slot.try_lock()
    }

    /// Acquires the cleanup lock.
    pub fn lock_cleanup(&self) -> MutexGuard<'_, ()> {
        self.cleanup_lock.lock()
    }

    /// Increments the dirty counter (writer path, under the atomic lock).
    pub fn inc_dirty(&self) {
        self.dirty_counter.fetch_add(1, Ordering::AcqRel);
    }

    /// Decrements the dirty counter (cleanup path, under the cleanup lock).
    pub fn dec_dirty(&self) {
        self.dirty_counter.fetch_sub(1, Ordering::AcqRel);
    }

    /// Current dirty count (may be transiently negative, see type docs).
    pub fn dirty_count(&self) -> i64 {
        self.dirty_counter.load(Ordering::Acquire)
    }

    /// Appends a pending entry's global sequence number to the propagation
    /// queue (writer path, under the atomic lock — which makes the queue
    /// order the commit order for this page).
    pub fn enqueue_propagation(&self, gseq: u64) {
        let mut q = self.prop_queue.lock();
        debug_assert!(q.back().is_none_or(|&last| last < gseq), "queue must stay sorted");
        q.push_back(gseq);
    }

    /// The oldest unfreed entry for this page, if any.
    pub fn propagation_front(&self) -> Option<u64> {
        self.prop_queue.lock().front().copied()
    }

    /// Whether `gseq` is queued with only entries `own` accepts ahead of
    /// it — the cleanup handoff's test. A committed entry may not be queued
    /// yet: its writer enqueues after the commit.
    pub fn propagation_ready(&self, gseq: u64, own: impl Fn(u64) -> bool) -> bool {
        for &s in self.prop_queue.lock().iter() {
            if s == gseq {
                return true;
            }
            if !own(s) {
                return false;
            }
        }
        false
    }

    /// Removes `gseq` from the queue front once the entry's cleanup batch
    /// has been freed.
    ///
    /// # Panics
    ///
    /// Panics if `gseq` is not at the front — the ordered-handoff invariant
    /// was broken.
    pub fn pop_propagation(&self, gseq: u64) {
        let mut q = self.prop_queue.lock();
        let front = q.pop_front();
        assert_eq!(front, Some(gseq), "out-of-order propagation pop");
    }

    /// Marks the page as recently accessed (second-chance LRU bit).
    pub fn mark_accessed(&self) {
        self.accessed.store(true, Ordering::Release);
    }

    /// Clears and returns the accessed bit (eviction scan).
    pub fn take_accessed(&self) -> bool {
        self.accessed.swap(false, Ordering::AcqRel)
    }

    /// The page state per paper Table II, derived from residency and the
    /// dirty counter.
    pub fn state(&self) -> PageState {
        let loaded = self.slot.lock().content.is_some();
        if loaded {
            PageState::Loaded
        } else if self.dirty_count() > 0 {
            PageState::UnloadedDirty
        } else {
            PageState::UnloadedClean
        }
    }
}

/// The page descriptors one operation locks, keyed `(file_id, page)`,
/// sorted and de-duplicated. Locking in this order is the one global page
/// lock order every path shares — writers, readers, close and the cleanup
/// workers — so no two of them can deadlock on pages.
pub(crate) struct PageSet(Vec<((u64, u64), Arc<PageDescriptor>)>);

impl PageSet {
    /// `file`'s pages in `pages` (none for a file never opened for writing:
    /// it has no radix tree and so no page state).
    pub fn of(file: &FileState, pages: Range<u64>) -> PageSet {
        let Some(radix) = file.radix.get() else { return PageSet(Vec::new()) };
        PageSet(pages.map(|p| ((file.file_id, p), radix.get_or_create(p))).collect())
    }

    /// The union of `(file, page)` pairs of writable files.
    pub fn union<'a>(pages: impl Iterator<Item = (&'a FileState, u64)>) -> PageSet {
        let mut set: Vec<_> = pages
            .map(|(file, p)| {
                let radix = file.radix.get().expect("writable open creates the radix tree");
                ((file.file_id, p), radix.get_or_create(p))
            })
            .collect();
        set.sort_unstable_by_key(|&(key, _)| key);
        set.dedup_by_key(|(key, _)| *key);
        PageSet(set)
    }

    /// The descriptors, in lock order.
    pub fn descs(&self) -> impl Iterator<Item = &Arc<PageDescriptor>> {
        self.0.iter().map(|(_, d)| d)
    }

    /// Locks every page in order with `lock` (the atomic or the cleanup
    /// lock), reporting each acquisition to `lockcheck` as `class`.
    #[track_caller]
    pub fn lock<'a, G>(
        &'a self,
        lockcheck: &Recorder,
        class: Class,
        lock: impl Fn(&'a PageDescriptor) -> G,
    ) -> PageLocks<'a, G> {
        let mut guards = Vec::with_capacity(self.0.len());
        let mut held = Vec::with_capacity(self.0.len());
        for ((file_id, page), d) in &self.0 {
            held.push(lockcheck.acquire_page(class, *file_id, *page));
            guards.push(lock(d));
        }
        PageLocks { pages: &self.0, guards, _held: held }
    }
}

/// The locked pages of a [`PageSet`]: `guards[i]` guards the `i`-th page.
pub(crate) struct PageLocks<'a, G> {
    pages: &'a [((u64, u64), Arc<PageDescriptor>)],
    pub guards: Vec<G>,
    _held: Vec<Held>,
}

impl<G> PageLocks<'_, G> {
    /// Index of `(file_id, page)`, which must be in the set.
    pub fn index(&self, file_id: u64, page: u64) -> usize {
        self.pages
            .binary_search_by_key(&(file_id, page), |&(key, _)| key)
            .expect("page is in the locked set")
    }

    /// The `i`-th page's descriptor.
    pub fn desc(&self, i: usize) -> &PageDescriptor {
        &self.pages[i].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_descriptor_is_unloaded_clean() {
        let d = PageDescriptor::new(9);
        assert_eq!(d.state(), PageState::UnloadedClean);
        assert_eq!(d.page_no(), 9);
        assert_eq!(d.dirty_count(), 0);
    }

    #[test]
    fn table_ii_state_matrix() {
        let d = PageDescriptor::for_file(1, 0);
        // unloaded-clean -> unloaded-dirty on write (dc > 0)
        d.inc_dirty();
        assert_eq!(d.state(), PageState::UnloadedDirty);
        // load content => loaded regardless of the counter
        d.lock().content = Some(vec![0u8; 64].into_boxed_slice());
        assert_eq!(d.state(), PageState::Loaded);
        // cleanup propagates the entry
        d.dec_dirty();
        assert_eq!(d.state(), PageState::Loaded);
        // eviction -> unloaded-clean (dc == 0)
        d.lock().content = None;
        assert_eq!(d.state(), PageState::UnloadedClean);
    }

    #[test]
    fn eviction_of_dirty_page_is_unloaded_dirty() {
        // Fig. 2: loaded --eviction--> unloaded-dirty when dc > 0, i.e. the
        // design avoids a synchronous write-back at eviction.
        let d = PageDescriptor::new(0);
        d.lock().content = Some(vec![1u8; 64].into_boxed_slice());
        d.inc_dirty();
        d.lock().content = None; // evict without any I/O
        assert_eq!(d.state(), PageState::UnloadedDirty);
    }

    #[test]
    fn dirty_counter_can_go_transiently_negative() {
        let d = PageDescriptor::new(0);
        d.dec_dirty(); // cleanup overtakes the writer (paper footnote 4)
        assert_eq!(d.dirty_count(), -1);
        d.inc_dirty();
        assert_eq!(d.dirty_count(), 0);
        assert_eq!(d.state(), PageState::UnloadedClean);
    }

    #[test]
    fn accessed_bit_is_take_once() {
        let d = PageDescriptor::new(0);
        assert!(!d.take_accessed());
        d.mark_accessed();
        assert!(d.take_accessed());
        assert!(!d.take_accessed());
    }

    #[test]
    fn try_lock_fails_when_held() {
        let d = PageDescriptor::new(0);
        let g = d.lock();
        assert!(d.try_lock().is_none());
        drop(g);
        assert!(d.try_lock().is_some());
    }

    #[test]
    fn propagation_queue_is_fifo() {
        let d = PageDescriptor::new(0);
        assert_eq!(d.propagation_front(), None);
        d.enqueue_propagation(3);
        d.enqueue_propagation(9);
        assert_eq!(d.propagation_front(), Some(3));
        d.pop_propagation(3);
        assert_eq!(d.propagation_front(), Some(9));
        d.pop_propagation(9);
        assert_eq!(d.propagation_front(), None);
    }

    #[test]
    #[should_panic(expected = "out-of-order propagation pop")]
    fn out_of_order_pop_is_detected() {
        let d = PageDescriptor::new(0);
        d.enqueue_propagation(1);
        d.enqueue_propagation(2);
        d.pop_propagation(2);
    }
}
