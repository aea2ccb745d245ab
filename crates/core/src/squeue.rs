//! The multi-queue submission front-end: per-core SQ/CQ pairs with
//! doorbell-batched stripe reservation.
//!
//! A [`QueuePair`] is one simulated core's private lane into the NVMM log.
//! [`submit_pwrite`](QueuePair::submit_pwrite) only copies the payload into
//! the user-space submission ring (no syscall, no fence);
//! [`ring_doorbell`](QueuePair::ring_doorbell) then pays the fixed costs —
//! one libc crossing and, per routed stripe, **one** `pfence`/`psync` pair —
//! for the whole batch. The stripe grants each doorbell a contiguous
//! *reservation window* ([`Log::reserve`](crate::log::Log)) under its
//! `alloc_lock` only; fills and commits happen outside any stripe-wide
//! mutex, so queues interleave freely and only serialize on the short
//! window hand-out.
//!
//! # Ordering and durability contract
//!
//! * A submitted write is **not durable** (and not acknowledged) until its
//!   doorbell returns; a crash mid-doorbell may lose writes whose
//!   completion was never observed, exactly like a torn `io_uring`
//!   submission. Each write is still its own commit group, so recovery
//!   never applies half of one.
//! * Per-page write order follows submission order: a doorbell
//!   conflict-splits its batch so that two writes touching the same page
//!   through *different* stripes never commit out of submission order
//!   (the propagation queues replay per page in ascending global sequence;
//!   see `lib.rs` invariant 3).
//! * Page locks are taken through the same sorted `(file_id, page_no)`
//!   helper every path uses, so doorbells, synchronous writers, readers and
//!   the cleanup workers cannot deadlock. Each reservation window commits
//!   through the synchronous write's own routine.
//! * Heat, migrator observations and operation counters accumulate locally
//!   in the pair and flush on [`reap`](QueuePair::reap) (or drop), keeping
//!   [`HeatPolicy`](crate::HeatPolicy) decisions and
//!   [`NvCacheStats`](crate::NvCacheStats) totals exact without hot-path
//!   contention ([`Temperature`](crate::Temperature) touches are
//!   out-of-order safe, and the pair replays them with their recorded
//!   commit timestamps).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::MutexGuard;
use simclock::{ActorClock, SimTime};
use vfs::{Fd, IoError, IoResult};

use crate::cache::{NvCache, Shared, Write, WriteSink};
use crate::files::{FileState, OpenedFile};
use crate::lockcheck::Class;
use crate::log::Stripe;
use crate::pagedesc::{PageDescriptor, PageLocks, PageSet, PageSlot};
use crate::stats::SQ_BATCH_BUCKETS;

/// A completion queue entry: the asynchronous result of one submitted
/// operation, reaped with [`QueuePair::reap`].
#[derive(Debug)]
pub struct Completion {
    /// The token [`QueuePair::submit_pwrite`]/[`QueuePair::submit_flush`]
    /// returned for this operation.
    pub user_data: u64,
    /// What the equivalent synchronous call would have returned (bytes
    /// written for a write, `0` for a flush).
    pub result: IoResult<usize>,
    /// Virtual instant the operation became durable (write) or ordered
    /// (flush) — always within the doorbell that carried it.
    pub completed_at: SimTime,
}

enum SqeOp {
    Write { data: Box<[u8]>, off: u64 },
    Flush,
}

/// A submission queue entry. Holds the resolved descriptor and an
/// in-flight count on its fd slot until the entry completes (or is
/// discarded unrung), so `close` waits for it exactly as it waits for a
/// synchronous call.
struct Sqe {
    user_data: u64,
    opened: Arc<OpenedFile>,
    op: SqeOp,
}

impl Sqe {
    /// The write this entry carries (flushes never reach the commit path).
    fn write(&self) -> Write<'_> {
        let SqeOp::Write { ref data, off } = self.op else {
            unreachable!("flush barriers are split off before the commit path")
        };
        Write { opened: &self.opened, data, off }
    }
}

/// Deferred counters and heat, flushed into the mount-wide
/// [`crate::NvCacheStats`] and file temperatures on reap/drop so the hot
/// path touches no shared cache lines.
struct PendingStats {
    /// Whether the mount tracks heat at all.
    track_heat: bool,
    /// Deferred `(file, commit instant)` heat touches.
    heat: Vec<(Arc<FileState>, SimTime)>,
    writes: u64,
    bytes_logged: u64,
    entries_logged: u64,
    groups_logged: u64,
    per_shard_entries: Vec<u64>,
    sq_submitted: u64,
    sq_doorbells: u64,
    sq_batch_hist: [u64; SQ_BATCH_BUCKETS],
    cq_reap_lag: u64,
}

impl PendingStats {
    fn new(shards: usize, track_heat: bool) -> PendingStats {
        PendingStats {
            track_heat,
            heat: Vec::new(),
            writes: 0,
            bytes_logged: 0,
            entries_logged: 0,
            groups_logged: 0,
            per_shard_entries: vec![0; shards],
            sq_submitted: 0,
            sq_doorbells: 0,
            sq_batch_hist: [0; SQ_BATCH_BUCKETS],
            cq_reap_lag: 0,
        }
    }
}

/// The queue pair's sink: heat at the window's commit instant and
/// counters, both held until the next reap.
impl WriteSink for PendingStats {
    fn committed(
        &mut self,
        write: &Write<'_>,
        k: u64,
        stripe: usize,
        done: SimTime,
        _: &ActorClock,
    ) {
        if self.track_heat {
            self.heat.push((Arc::clone(&write.opened.file), done));
        }
        self.writes += 1;
        self.bytes_logged += write.data.len() as u64;
        self.entries_logged += k;
        self.per_shard_entries[stripe] += k;
        if k > 1 {
            self.groups_logged += 1;
        }
    }
}

/// Histogram bucket for a doorbell batch of `n` entries: 1, 2–3, 4–7, …,
/// 64+ (one bucket per power-of-two band, saturating at the last).
fn batch_bucket(n: usize) -> usize {
    debug_assert!(n >= 1);
    (usize::BITS - n.leading_zeros() - 1).min(SQ_BATCH_BUCKETS as u32 - 1) as usize
}

/// One submission/completion queue pair of the multi-queue front-end —
/// claimed from a mount with [`NvCache::queue_pair`], driven by a single
/// submitter (the type is deliberately `!Sync`-shaped: every method takes
/// `&mut self`).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use nvcache::{NvCache, NvCacheConfig};
/// use nvmm::{NvDimm, NvRegion, NvmmProfile};
/// use simclock::ActorClock;
/// use vfs::{FileSystem, MemFs, OpenFlags};
///
/// # fn main() -> Result<(), vfs::IoError> {
/// let clock = ActorClock::new();
/// let cfg = NvCacheConfig::tiny().with_sq_pairs(1);
/// let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
/// let cache = NvCache::builder(NvRegion::whole(dimm))
///     .backend(Arc::new(MemFs::new()))
///     .config(cfg)
///     .mount(&clock)?;
/// let fd = cache.open("/a", OpenFlags::RDWR | OpenFlags::CREATE, &clock)?;
/// let mut qp = cache.queue_pair(0, &clock)?;
/// let ud = qp.submit_pwrite(fd, b"queued", 0, &clock)?;
/// qp.ring_doorbell(&clock); // one fence pair for the whole batch
/// let done = qp.reap(&clock);
/// assert_eq!(done[0].user_data, ud);
/// assert_eq!(*done[0].result.as_ref().unwrap(), 6);
/// drop(qp);
/// cache.close(fd, &clock)?;
/// cache.shutdown(&clock);
/// # Ok(())
/// # }
/// ```
pub struct QueuePair {
    shared: Arc<Shared>,
    index: usize,
    next_user_data: u64,
    sq: Vec<Sqe>,
    cq: VecDeque<Completion>,
    acc: PendingStats,
}

impl QueuePair {
    pub(crate) fn claim(cache: &NvCache, index: usize, clock: &ActorClock) -> IoResult<QueuePair> {
        let shared = Arc::clone(&cache.shared);
        clock.advance(shared.cfg.libc_overhead); // queue setup is a syscall
        if index >= shared.cfg.sq_pairs {
            return Err(IoError::InvalidArgument(format!(
                "queue pair {index} out of range: the mount has {} \
                 (NvCacheConfig::sq_pairs)",
                shared.cfg.sq_pairs
            )));
        }
        if shared.sq_taken[index].swap(true, Ordering::AcqRel) {
            return Err(IoError::Busy(format!("queue pair {index} is already claimed")));
        }
        let acc = PendingStats::new(shared.cfg.log_shards, shared.track_heat);
        Ok(QueuePair { shared, index, next_user_data: 0, sq: Vec::new(), cq: VecDeque::new(), acc })
    }

    /// The pair's index (the `index` passed to [`NvCache::queue_pair`]).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Submitted-but-unrung entries in the submission queue.
    pub fn sq_len(&self) -> usize {
        self.sq.len()
    }

    /// Completed-but-unreaped entries in the completion queue.
    pub fn cq_len(&self) -> usize {
        self.cq.len()
    }

    /// Resolves `fd` and takes an in-flight count on its slot (released
    /// when the entry completes or is discarded), mirroring the
    /// synchronous path's close-synchronization handshake.
    fn enter(&self, fd: Fd) -> IoResult<Arc<OpenedFile>> {
        let opened = self
            .shared
            .opened_by_slot(fd.0 as u32)
            .filter(|o| !o.closing.load(Ordering::Acquire))
            .ok_or(IoError::BadFd(fd.0))?;
        let counter = &self.shared.in_flight[opened.slot as usize];
        counter.fetch_add(1, Ordering::AcqRel);
        // Re-check after publication so close() can wait for quiescence.
        if opened.closing.load(Ordering::Acquire) {
            counter.fetch_sub(1, Ordering::AcqRel);
            return Err(IoError::BadFd(fd.0));
        }
        Ok(opened)
    }

    fn exit(&self, opened: &OpenedFile) {
        self.shared.in_flight[opened.slot as usize].fetch_sub(1, Ordering::AcqRel);
    }

    /// Completes `sqe` with `result` at `at`, releasing its in-flight count.
    fn complete(&mut self, sqe: Sqe, result: IoResult<usize>, at: SimTime) {
        self.exit(&sqe.opened);
        self.cq
            .push_back(Completion { user_data: sqe.user_data, result, completed_at: at });
    }

    /// Queues a positional write. Costs only the memcpy into the
    /// submission ring (at [`crate::NvCacheConfig::copy_bandwidth`]) — no libc
    /// crossing, no fence; durability is deferred to the next
    /// [`ring_doorbell`](QueuePair::ring_doorbell). Returns the
    /// `user_data` token that identifies the eventual [`Completion`].
    ///
    /// # Errors
    ///
    /// The synchronous path's *submission-time* errors are reported here
    /// and nothing is queued: [`IoError::BadFd`],
    /// [`IoError::PermissionDenied`] (read-only descriptor),
    /// [`IoError::InvalidArgument`] (write larger than a log stripe).
    pub fn submit_pwrite(
        &mut self,
        fd: Fd,
        data: &[u8],
        off: u64,
        clock: &ActorClock,
    ) -> IoResult<u64> {
        let opened = self.enter(fd)?;
        if let Err(e) = self.shared.admit_write(&opened, data.len(), off, None) {
            self.exit(&opened);
            return Err(e);
        }
        let user_data = self.next_user_data;
        self.next_user_data += 1;
        self.acc.sq_submitted += 1;
        let sqe = Sqe { user_data, opened, op: SqeOp::Write { data: data.into(), off } };
        if data.is_empty() {
            // Nothing to log: complete immediately (the synchronous path's
            // early return).
            self.complete(sqe, Ok(0), clock.now());
            return Ok(user_data);
        }
        clock.advance(self.shared.cfg.copy_bandwidth.time_for(data.len() as u64));
        self.sq.push(sqe);
        Ok(user_data)
    }

    /// Queues a flush barrier: its [`Completion`] is delivered once every
    /// write rung by the same doorbell is durable. Costs nothing at
    /// submission — NVCache's `fsync` is already a no-op (paper Table
    /// III), the barrier only orders completions.
    ///
    /// # Errors
    ///
    /// [`IoError::BadFd`] if the descriptor is not open.
    pub fn submit_flush(&mut self, fd: Fd) -> IoResult<u64> {
        let opened = self.enter(fd)?;
        let user_data = self.next_user_data;
        self.next_user_data += 1;
        self.acc.sq_submitted += 1;
        self.sq.push(Sqe { user_data, opened, op: SqeOp::Flush });
        Ok(user_data)
    }

    /// Rings the doorbell: pays one libc crossing for the batch, then
    /// commits every queued write — grouped by routed stripe, one
    /// reservation window and **one** fence pair per stripe group — and
    /// moves their completions to the CQ. Returns the number of entries
    /// consumed (`0` for an empty ring, which costs nothing).
    pub fn ring_doorbell(&mut self, clock: &ActorClock) -> usize {
        if self.sq.is_empty() {
            return 0;
        }
        clock.advance(self.shared.cfg.libc_overhead);
        let batch = std::mem::take(&mut self.sq);
        let consumed = batch.len();
        self.acc.sq_doorbells += 1;
        self.acc.sq_batch_hist[batch_bucket(consumed)] += 1;

        // Conflict split: within one sub-batch, stripe groups commit
        // sequentially, so two same-page writes routed to *different*
        // stripes could publish global sequence numbers out of submission
        // order. Cut the sub-batch whenever a write touches a page an
        // earlier write reached through another stripe; pages revisited
        // through the *same* stripe stay ordered by the window itself.
        let shared = Arc::clone(&self.shared);
        let mut flushes: Vec<Sqe> = Vec::new();
        let mut sub: Vec<Sqe> = Vec::new();
        let mut touched: HashMap<(u64, u64), usize> = HashMap::new();
        for sqe in batch {
            if matches!(sqe.op, SqeOp::Flush) {
                flushes.push(sqe);
                continue;
            }
            let w = sqe.write();
            let sidx = shared.log.route(w.opened.file.dev_ino, w.off).index;
            let file_id = w.opened.file.file_id;
            let pages = shared.pages_of(w.off, w.data.len());
            let conflict =
                pages.clone().any(|p| touched.get(&(file_id, p)).is_some_and(|&s| s != sidx));
            if conflict {
                self.run_sub_batch(std::mem::take(&mut sub), clock);
                touched.clear();
            }
            for p in pages {
                touched.insert((file_id, p), sidx);
            }
            sub.push(sqe);
        }
        self.run_sub_batch(sub, clock);

        // Flush barriers complete once the whole doorbell is durable.
        let now = clock.now();
        for f in flushes {
            self.complete(f, Ok(0), now);
        }
        consumed
    }

    /// Commits one conflict-free sub-batch: lock the union of its pages in
    /// the global page order, then per stripe group commit each
    /// reservation window through [`Shared::commit_window`].
    fn run_sub_batch(&mut self, sub: Vec<Sqe>, clock: &ActorClock) {
        if sub.is_empty() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let pages = PageSet::union(sub.iter().flat_map(|sqe| {
            let w = sqe.write();
            shared.pages_of(w.off, w.data.len()).map(move |p| (&*sqe.opened.file, p))
        }));
        let mut locks = pages.lock(&shared.lockcheck, Class::PageAtomic, PageDescriptor::lock);

        // Group by routed stripe, first-appearance order; submission order
        // within a group (so each stripe's window replays the submitter's
        // order).
        let mut groups: Vec<(usize, Vec<Sqe>)> = Vec::new();
        for sqe in sub {
            let sidx = shared.log.route(sqe.opened.file.dev_ino, sqe.write().off).index;
            match groups.iter_mut().find(|(i, _)| *i == sidx) {
                Some((_, v)) => v.push(sqe),
                None => groups.push((sidx, vec![sqe])),
            }
        }

        for (sidx, writes) in groups {
            let stripe = &shared.log.stripes[sidx];
            // Carve the group into reservation windows at write boundaries:
            // every window fits the stripe (a single write already does,
            // checked at submission). Once the stripe refuses a window
            // (poisoned), every later write routed to it fails the same way.
            let mut result = Ok(());
            let mut window: Vec<Sqe> = Vec::new();
            let mut window_k = 0u64;
            for sqe in writes {
                let k = sqe.write().data.len().div_ceil(shared.cfg.entry_size) as u64;
                if result.is_ok() && window_k + k > stripe.capacity() {
                    result = self.commit(stripe, &mut window, &mut locks, clock);
                    window_k = 0;
                }
                window_k += k;
                window.push(sqe);
            }
            if result.is_ok() {
                result = self.commit(stripe, &mut window, &mut locks, clock);
            }
            if let Err(e) = result {
                for sqe in window {
                    self.complete(sqe, Err(e.clone()), clock.now());
                }
            }
        }
    }

    /// Commits `window` with one fence pair and completes its writes at the
    /// commit instant. On error (poisoned stripe) the window is left
    /// untouched for the caller to fail.
    fn commit(
        &mut self,
        stripe: &Stripe,
        window: &mut Vec<Sqe>,
        locks: &mut PageLocks<'_, MutexGuard<'_, PageSlot>>,
        clock: &ActorClock,
    ) -> IoResult<()> {
        if window.is_empty() {
            return Ok(());
        }
        let writes: Vec<Write<'_>> = window.iter().map(Sqe::write).collect();
        let done = self.shared.commit_window(stripe, &writes, locks, &mut self.acc, clock)?;
        for sqe in window.drain(..) {
            let len = sqe.write().data.len();
            self.complete(sqe, Ok(len), done);
        }
        Ok(())
    }

    /// Drains the completion queue, applies the deferred heat touches (in
    /// commit order, with their recorded timestamps) and flushes the
    /// pair's local counters into the mount-wide
    /// [`NvCacheStats`](crate::NvCacheStats).
    pub fn reap(&mut self, clock: &ActorClock) -> Vec<Completion> {
        let now = clock.now();
        let out: Vec<Completion> = self.cq.drain(..).collect();
        for c in &out {
            self.acc.cq_reap_lag += now.saturating_sub(c.completed_at).as_nanos();
        }
        self.apply_heat();
        self.flush_stats();
        out
    }

    fn apply_heat(&mut self) {
        let shared = &self.shared;
        for (file, t) in self.acc.heat.drain(..) {
            file.touch_heat(t, shared.heat_half_life);
            shared.migrator.observe_time(t);
        }
    }

    fn flush_stats(&mut self) {
        let stats = &self.shared.stats;
        let acc = &mut self.acc;
        stats.writes.fetch_add(acc.writes, Ordering::Relaxed);
        stats.bytes_logged.fetch_add(acc.bytes_logged, Ordering::Relaxed);
        stats.entries_logged.fetch_add(acc.entries_logged, Ordering::Relaxed);
        stats.groups_logged.fetch_add(acc.groups_logged, Ordering::Relaxed);
        for (i, e) in acc.per_shard_entries.iter_mut().enumerate() {
            if *e > 0 {
                stats.per_shard[i].entries_logged.fetch_add(*e, Ordering::Relaxed);
            }
            *e = 0;
        }
        let q = &stats.per_queue[self.index];
        q.sq_submitted.fetch_add(acc.sq_submitted, Ordering::Relaxed);
        q.sq_doorbells.fetch_add(acc.sq_doorbells, Ordering::Relaxed);
        for (i, h) in acc.sq_batch_hist.iter().enumerate() {
            if *h > 0 {
                q.sq_batch_hist[i].fetch_add(*h, Ordering::Relaxed);
            }
        }
        q.cq_reap_lag.fetch_add(acc.cq_reap_lag, Ordering::Relaxed);
        acc.writes = 0;
        acc.bytes_logged = 0;
        acc.entries_logged = 0;
        acc.groups_logged = 0;
        acc.sq_submitted = 0;
        acc.sq_doorbells = 0;
        acc.sq_batch_hist = [0; SQ_BATCH_BUCKETS];
        acc.cq_reap_lag = 0;
    }
}

impl Drop for QueuePair {
    fn drop(&mut self) {
        // Unrung submissions were never acknowledged: discarding them is
        // within the durability contract. Their in-flight counts must
        // still drop so close() does not wait forever.
        for sqe in std::mem::take(&mut self.sq) {
            self.exit(&sqe.opened);
        }
        self.cq.clear();
        // Writes already committed did happen: their heat and counters
        // must land even if the application never reaped.
        self.apply_heat();
        self.flush_stats();
        self.shared.sq_taken[self.index].store(false, Ordering::Release);
    }
}
