//! The NVCache façade: [`NvCache`] (format/recover/shutdown, the
//! intercepted `FileSystem` surface of paper Table III) and the [`Shared`]
//! state joining the application-facing write/read paths with the
//! per-stripe cleanup workers (write path → stripe routing, read cache and
//! dirty-miss procedure, close/zombie drain bookkeeping).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use nvmm::NvRegion;
use parking_lot::{Mutex, MutexGuard, RwLock};
use simclock::{ActorClock, SimTime};
use vfs::{Fd, FileSystem, IoError, IoResult, Metadata, OpenFlags, SeekFrom};

use crate::builder::NvCacheBuilder;
use crate::files::{FdSlotAllocator, FileState, OpenedFile, PersistentFdTable};
use crate::layout::{self, Layout};
use crate::lockcheck::{Class, Recorder};
use crate::log::{Log, Stripe};
use crate::migrate::{MigrationPolicy, Migrator, RebalanceReport};
use crate::pagedesc::{PageDescriptor, PageLocks, PageSet, PageSlot};
use crate::placement::{quantize_heat, PlacementPolicy, RouterPlacement};
use crate::readcache::ReadCache;
use crate::recovery::RecoveryReport;
use crate::router::Router;
use crate::{NvCacheConfig, NvCacheStats, Radix};

/// A closed descriptor whose log entries have not all drained yet: the
/// persistent fd slot must stay valid until every stripe's cleanup worker
/// passes the corresponding drain target, otherwise recovery could not
/// resolve those entries.
pub(crate) struct Zombie {
    pub opened: Arc<OpenedFile>,
    /// Per-stripe head snapshot taken at close time.
    pub drain_targets: Box<[u64]>,
}

/// One write of a commit window, already past its submission-time checks.
pub(crate) struct Write<'a> {
    pub opened: &'a Arc<OpenedFile>,
    pub data: &'a [u8],
    pub off: u64,
}

/// Receives each committed write of a window, in window order, for the
/// bookkeeping its caller times itself: the synchronous path applies heat
/// and counters to the mount at once, a queue pair defers them to its next
/// reap.
pub(crate) trait WriteSink {
    /// `write` committed as `k` entries in stripe `stripe` at `done`;
    /// `clock` has just paid the write's in-place page updates.
    fn committed(
        &mut self,
        write: &Write<'_>,
        k: u64,
        stripe: usize,
        done: SimTime,
        clock: &ActorClock,
    );
}

/// The synchronous path's sink: heat at the writer's clock, counters
/// straight into the mount's statistics.
struct Immediate<'a>(&'a Shared);

impl WriteSink for Immediate<'_> {
    fn committed(
        &mut self,
        write: &Write<'_>,
        k: u64,
        stripe: usize,
        _: SimTime,
        clock: &ActorClock,
    ) {
        let shared = self.0;
        if shared.track_heat {
            let now = clock.now();
            write.opened.file.touch_heat(now, shared.heat_half_life);
            shared.migrator.observe_time(now);
        }
        let stats = &shared.stats;
        stats.writes.fetch_add(1, Ordering::Relaxed);
        stats.bytes_logged.fetch_add(write.data.len() as u64, Ordering::Relaxed);
        stats.entries_logged.fetch_add(k, Ordering::Relaxed);
        stats.per_shard[stripe].entries_logged.fetch_add(k, Ordering::Relaxed);
        if k > 1 {
            stats.groups_logged.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// State shared between the application-facing API and the cleanup workers.
pub(crate) struct Shared {
    pub cfg: NvCacheConfig,
    /// The inner (propagation target) file systems; a single-backend mount
    /// has exactly one. Indexed by the backend ids the router assigns.
    pub backends: Box<[Arc<dyn FileSystem>]>,
    /// Maps paths to backend indices (consulted at open and for path-based
    /// calls; open descriptors carry their resolved index instead).
    pub router: Arc<dyn Router>,
    pub log: Log,
    pub pool: ReadCache,
    /// file table: (backend, device, inode) -> file structure (paper §III
    /// "Open"). The backend index is part of the key because two inner file
    /// systems may hand out colliding `(dev, ino)` pairs.
    pub files: Mutex<HashMap<(u32, u64, u64), Arc<FileState>>>,
    /// opened table: fd slot -> opened-file structure.
    pub opened: RwLock<HashMap<u32, Arc<OpenedFile>>>,
    /// Lock-free persistent fd-slot allocator (Treiber stack): `open` and
    /// `close` on different descriptors never serialize on slot
    /// bookkeeping, and the multi-queue front-end can resolve descriptors
    /// without touching a global mutex.
    pub fd_slots: FdSlotAllocator,
    /// One claim flag per configured submission queue pair
    /// ([`NvCacheConfig::sq_pairs`]): a pair is owned by exactly one
    /// [`QueuePair`](crate::QueuePair) handle at a time.
    pub sq_taken: Box<[AtomicBool]>,
    /// Closed fds awaiting their last log entries to drain.
    pub zombies: Mutex<Vec<Zombie>>,
    pub stats: NvCacheStats,
    /// Graceful stop: drain the log, then exit.
    pub stop: AtomicBool,
    /// Immediate stop (crash simulation): exit without draining.
    pub kill: AtomicBool,
    /// One virtual clock per cleanup worker (stripe).
    pub cleanup_clocks: Box<[Arc<ActorClock>]>,
    pub next_file_id: AtomicU64,
    /// In-flight intercepted calls per fd slot, for close synchronization.
    pub in_flight: Box<[AtomicU32]>,
    /// The tier migrator: closed-file catalog, migration/path-op gate and
    /// the background worker's clock. Fully inert under
    /// [`MigrationPolicy::Disabled`] or a single backend.
    pub migrator: Migrator,
    /// The placement policy deciding the migrator's targets
    /// ([`RouterPlacement`] unless the configuration installs another one;
    /// see [`NvCacheConfig::placement`]).
    pub placement: Arc<dyn PlacementPolicy>,
    /// Whether per-I/O temperature bookkeeping runs: the mount can migrate
    /// at all AND the policy reads heat
    /// ([`PlacementPolicy::uses_temperature`] — `false` for the default
    /// [`RouterPlacement`]). Computed once at mount; the policy `Arc` is
    /// immutable, and the read/write hot path must not pay vtable calls to
    /// re-derive a constant.
    pub track_heat: bool,
    /// The policy's decay half-life, cached alongside for the same reason.
    pub heat_half_life: Option<simclock::SimTime>,
    /// The mount's lock-order recorder (zero-sized and inert unless the
    /// `pmcheck` feature is on): every blocking lock acquisition in the
    /// crate reports here, and a cyclic acquisition order panics with the
    /// offending edge chain. Shared with the [`Log`]'s stripes and the
    /// [`Migrator`].
    pub lockcheck: Recorder,
}

impl Shared {
    /// The inner file system behind an open descriptor (resolved through the
    /// backend index recorded at open time — never by re-routing).
    pub fn inner_of(&self, opened: &OpenedFile) -> &Arc<dyn FileSystem> {
        &self.backends[opened.backend as usize]
    }

    /// The backend index owning `path` (always `0` on a single-backend
    /// mount, skipping the router entirely).
    pub fn route(&self, path: &str) -> usize {
        if self.backends.len() == 1 {
            0
        } else {
            self.router.route(path, 0)
        }
    }

    pub fn pages_of(&self, off: u64, len: usize) -> std::ops::Range<u64> {
        let ps = self.cfg.page_size as u64;
        if len == 0 {
            return off / ps..off / ps;
        }
        off / ps..(off + len as u64 - 1) / ps + 1
    }

    pub fn opened_by_slot(&self, slot: u32) -> Option<Arc<OpenedFile>> {
        let _lk = self.lockcheck.acquire(Class::OpenedMap, 0);
        self.opened.read().get(&slot).cloned()
    }

    /// Whether any file can move between tiers on this mount (≥ 2 backends
    /// and either a [`MigrationPolicy`] other than `Disabled` or the
    /// cross-tier-rename flag). When `false` the migrator is bypassed
    /// entirely — no gate leases, no catalog growth — so legacy mounts stay
    /// byte- and virtual-time-identical.
    pub fn migration_enabled(&self) -> bool {
        self.backends.len() > 1
            && (self.cfg.migration != MigrationPolicy::Disabled || self.cfg.cross_tier_rename)
    }

    /// Wakes the background migration worker, if one is running.
    pub fn migrator_notify(&self) {
        if self.migration_enabled() && self.cfg.migration == MigrationPolicy::Background {
            self.migrator.notify();
        }
    }

    /// Whether any open descriptor or closed-but-undrained zombie still
    /// references `path` — such a file owns pending log entries tied to its
    /// recorded backend and must not migrate.
    pub fn path_is_open_or_draining(&self, path: &str) -> bool {
        {
            let _lk = self.lockcheck.acquire(Class::OpenedMap, 0);
            if self.opened.read().values().any(|o| o.file.path == path) {
                return true;
            }
        }
        let _lk = self.lockcheck.acquire(Class::Zombies, 0);
        self.zombies.lock().iter().any(|z| z.opened.file.path == path)
    }

    /// Pops a free persistent fd slot (draining finished zombies once if
    /// the allocator is empty), or `None` when the table is genuinely full.
    pub fn take_free_slot(&self, clock: &ActorClock) -> Option<u32> {
        if let Some(slot) = self.fd_slots.acquire() {
            return Some(slot);
        }
        self.drain_zombies(clock);
        self.fd_slots.acquire()
    }

    /// The backend recorded for `path` by this mount — from an open
    /// descriptor, a draining zombie, or the migrator's closed-file catalog
    /// — if any. This beats policy routing for path operations: a misplaced
    /// file's bytes live where they were written, not where the router
    /// would place the path today.
    pub fn recorded_backend(&self, path: &str) -> Option<u32> {
        {
            let _lk = self.lockcheck.acquire(Class::OpenedMap, 0);
            if let Some(o) = self.opened.read().values().find(|o| o.file.path == path) {
                return Some(o.backend);
            }
        }
        {
            let _lk = self.lockcheck.acquire(Class::Zombies, 0);
            if let Some(z) = self.zombies.lock().iter().find(|z| z.opened.file.path == path) {
                return Some(z.opened.backend);
            }
        }
        self.migrator.backend_of(path)
    }

    /// Backend probe order for path operations: the recorded backend first,
    /// then the router's placement, then every remaining tier in index
    /// order (a misplaced or policy-orphaned file must still be reachable
    /// by `stat`/`unlink`, wherever its bytes sit).
    pub fn resolution_order(&self, path: &str) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.backends.len());
        if let Some(b) = self.recorded_backend(path) {
            order.push(b as usize);
        }
        let routed = self.route(path);
        if !order.contains(&routed) {
            order.push(routed);
        }
        for b in 0..self.backends.len() {
            if !order.contains(&b) {
                order.push(b);
            }
        }
        order
    }

    /// The backend actually holding `path`, probing in
    /// [`resolution_order`](Shared::resolution_order). Distinguishes "found
    /// nowhere" (`Ok(None)`) from a real backend error (`Err`).
    pub fn existing_backend(&self, path: &str, clock: &ActorClock) -> IoResult<Option<usize>> {
        for b in self.resolution_order(path) {
            match self.backends[b].stat(path, clock) {
                Ok(_) => return Ok(Some(b)),
                Err(IoError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Collects this file's still-pending log entries from every stripe,
    /// sorted by global sequence number. The commit-word filter also skips
    /// entries still being filled (their page locks are held by the writer,
    /// and callers hold either the page locks or fd quiescence).
    fn pending_entries_for(
        &self,
        filter: impl Fn(&crate::log::EntryHeader) -> bool,
    ) -> Vec<(usize, u64, crate::log::EntryHeader)> {
        let mut pending: Vec<(usize, u64, crate::log::EntryHeader)> = Vec::new();
        for (si, stripe) in self.log.stripes.iter().enumerate() {
            let tail = stripe.vtail.load(Ordering::Acquire);
            let head = stripe.head.load(Ordering::Acquire);
            for seq in tail..head {
                let hdr = stripe.read_header(seq);
                if hdr.commit == layout::CommitWord::Free || !filter(&hdr) {
                    continue;
                }
                pending.push((si, seq, hdr));
            }
        }
        // Replay order must be the global commit order, not stripe order.
        pending.sort_by_key(|(_, _, hdr)| hdr.seq);
        pending
    }

    /// Propagates this file's still-pending log entries into the kernel
    /// (buffered `pwrite`, **no** fsync): the paper's `close` contract —
    /// "all the writes in user space are actually flushed to the kernel" —
    /// durability already lives in the NVMM log.
    pub fn kernel_flush_file(&self, opened: &Arc<OpenedFile>, clock: &ActorClock) {
        for (si, seq, hdr) in self.pending_entries_for(|h| h.fd_slot == opened.slot) {
            let data = self.log.stripes[si].read_data_cached(seq, hdr.len as usize);
            let pages = PageSet::of(&opened.file, self.pages_of(hdr.file_off, hdr.len as usize));
            let _locks =
                pages.lock(&self.lockcheck, Class::PageCleanup, PageDescriptor::lock_cleanup);
            let _ = self.inner_of(opened).pwrite(opened.inner_fd, &data, hdr.file_off, clock);
        }
    }

    /// Completes a deferred close: releases the inner fd, the persistent fd
    /// slot and, on last close, the file structure and its cached pages.
    pub fn finish_close(&self, opened: &Arc<OpenedFile>, clock: &ActorClock) {
        {
            let _lk = self.lockcheck.acquire(Class::OpenedMap, 0);
            self.opened.write().remove(&opened.slot);
        }
        let _ = self.inner_of(opened).close(opened.inner_fd, clock);
        PersistentFdTable::clear(&self.log.region, &self.log.layout, opened.slot, clock);
        self.fd_slots.release(opened.slot);
        if opened.file.open_count.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.pool.purge_file(opened.file.file_id);
            let (dev, ino) = opened.file.dev_ino;
            {
                let _lk = self.lockcheck.acquire(Class::FilesMap, 0);
                self.files.lock().remove(&(opened.backend, dev, ino));
            }
            if self.migration_enabled() {
                // The file is now closed and drained: catalog it (with its
                // accumulated access heat, size and decaying temperature)
                // so sweeps can re-home it, and wake the background
                // worker.
                self.migrator.record_closed(
                    &opened.file.path,
                    opened.backend,
                    opened.file.reads.load(Ordering::Relaxed),
                    opened.file.writes.load(Ordering::Relaxed),
                    opened.file.size.load(Ordering::Relaxed),
                    *opened.file.temperature.lock(),
                    &self.stats,
                );
                self.migrator_notify();
            }
        }
    }

    /// Finishes all zombies whose entries have drained past every stripe's
    /// tail.
    pub fn drain_zombies(&self, clock: &ActorClock) {
        let ready: Vec<Zombie> = {
            let _lk = self.lockcheck.acquire(Class::Zombies, 0);
            let mut z = self.zombies.lock();
            let (done, keep): (Vec<Zombie>, Vec<Zombie>) =
                z.drain(..).partition(|zb| self.log.drained_to(&zb.drain_targets));
            *z = keep;
            done
        };
        for zb in ready {
            self.finish_close(&zb.opened, clock);
        }
    }

    /// The dirty-miss procedure (paper §II-C): reconstruct a fresh page by
    /// re-applying, in *global commit order* across all stripes, every
    /// pending entry that overlaps it. Caller holds the page's atomic lock
    /// *and* cleanup lock.
    fn dirty_miss(
        &self,
        file: &Arc<FileState>,
        page: u64,
        page_buf: &mut [u8],
        clock: &ActorClock,
    ) {
        let ps = self.cfg.page_size as u64;
        let page_start = page * ps;
        let page_end = page_start + ps;
        let overlapping = self.pending_entries_for(|hdr| {
            let e_start = hdr.file_off;
            let e_end = e_start + hdr.len as u64;
            if e_end <= page_start || e_start >= page_end {
                return false;
            }
            match self.opened_by_slot(hdr.fd_slot) {
                Some(op) => Arc::ptr_eq(&op.file, file),
                None => false,
            }
        });
        for (si, seq, hdr) in overlapping {
            let e_start = hdr.file_off;
            let e_end = e_start + hdr.len as u64;
            let data = self.log.stripes[si].read_data(seq, hdr.len as usize, clock);
            let s = e_start.max(page_start);
            let e = e_end.min(page_end);
            page_buf[(s - page_start) as usize..(e - page_start) as usize]
                .copy_from_slice(&data[(s - e_start) as usize..(e - e_start) as usize]);
        }
    }

    /// Submission-time checks shared by `pwrite` and
    /// [`QueuePair::submit_pwrite`](crate::QueuePair::submit_pwrite): the
    /// descriptor must be writable, and `len` bytes at `off` must fit the
    /// routed stripe. A synchronous call passes its clock as `libc`, which
    /// pays the interception cost between the two checks, so an error path
    /// keeps its virtual time. Returns the routed stripe.
    pub fn admit_write(
        &self,
        opened: &OpenedFile,
        len: usize,
        off: u64,
        libc: Option<&ActorClock>,
    ) -> IoResult<&Stripe> {
        if !opened.flags.writable() {
            return Err(IoError::PermissionDenied("fd opened read-only".into()));
        }
        if let Some(clock) = libc {
            clock.advance(self.cfg.libc_overhead);
        }
        // Group commits stay contiguous in a single stripe, routed by the
        // write's first aligned chunk.
        let stripe = self.log.route(opened.file.dev_ino, off);
        if len.div_ceil(self.cfg.entry_size) as u64 > stripe.capacity() {
            return Err(IoError::InvalidArgument(format!(
                "write of {len} bytes cannot fit a {}-entry log stripe",
                stripe.capacity()
            )));
        }
        Ok(stripe)
    }

    /// The one write path (paper Algorithm 1, generalized to multi-entry
    /// writes and doorbell windows). With every page of `window` locked in
    /// `locks`: reserve one window of entries in `stripe` (waiting while it
    /// is full; fails only if the stripe is poisoned), fill each write as
    /// its own commit group, commit them all with one `pfence`/`psync`
    /// pair, then per write in window order update the dirty counters and
    /// propagation queues, the loaded pages' contents, the size and access
    /// counter, and report to `sink`. Returns the commit instant.
    pub fn commit_window(
        &self,
        stripe: &Stripe,
        window: &[Write<'_>],
        locks: &mut PageLocks<'_, MutexGuard<'_, PageSlot>>,
        sink: &mut impl WriteSink,
        clock: &ActorClock,
    ) -> IoResult<SimTime> {
        let es = self.cfg.entry_size;
        let entries = |w: &Write<'_>| w.data.len().div_ceil(es) as u64;
        let total = window.iter().map(entries).sum();
        let (first_seq, first_gseq) = self.log.reserve(stripe, total, clock, &self.stats)?;

        // Fill (Algorithm 1 ll.14-22): members point at their leader's slot.
        let mut groups = Vec::with_capacity(window.len());
        let (mut seq, mut gseq) = (first_seq, first_gseq);
        for w in window {
            let k = entries(w);
            let leader_slot = stripe.slot(seq);
            for (i, chunk) in w.data.chunks(es).enumerate() {
                let member = (i > 0).then_some(leader_slot);
                let i = i as u64;
                let off = w.off + i * es as u64;
                stripe.fill_entry(
                    seq + i,
                    gseq + i,
                    w.opened.slot,
                    off,
                    chunk,
                    k as u32,
                    member,
                    clock,
                );
            }
            groups.push((seq, k));
            seq += k;
            gseq += k;
        }
        stripe.commit_batch(&groups, clock);
        let done = clock.now();

        // Read-cache maintenance (Algorithm 1 ll.29-31): one dirty-counter
        // increment per (entry, page) overlap — plus, on a striped log, one
        // propagation-queue entry so the cleanup workers keep this page's
        // commit order — and in-place update of loaded contents.
        let ordered_handoff = !self.log.single();
        let ps = self.cfg.page_size as u64;
        let mut gseq = first_gseq;
        for (w, &(_, k)) in window.iter().zip(&groups) {
            let file = &w.opened.file;
            for (i, chunk) in w.data.chunks(es).enumerate() {
                for p in self.pages_of(w.off + (i * es) as u64, chunk.len()) {
                    let d = locks.desc(locks.index(file.file_id, p));
                    d.inc_dirty();
                    if ordered_handoff {
                        d.enqueue_propagation(gseq + i as u64);
                    }
                }
            }
            let end = w.off + w.data.len() as u64;
            let mut updated = 0u64;
            for p in self.pages_of(w.off, w.data.len()) {
                let j = locks.index(file.file_id, p);
                if let Some(content) = locks.guards[j].content.as_mut() {
                    let page_start = p * ps;
                    let s = w.off.max(page_start);
                    let e = end.min(page_start + ps);
                    content[(s - page_start) as usize..(e - page_start) as usize]
                        .copy_from_slice(&w.data[(s - w.off) as usize..(e - w.off) as usize]);
                    updated += e - s;
                }
                locks.desc(j).mark_accessed();
            }
            if updated > 0 {
                clock.advance(self.cfg.copy_bandwidth.time_for(updated));
            }
            file.size.fetch_max(end, Ordering::AcqRel);
            file.writes.fetch_add(1, Ordering::Relaxed); // access heat for the migrator
            sink.committed(w, k, stripe.index, done, clock);
            gseq += k;
        }
        Ok(done)
    }

    /// The synchronous write: a commit window of one.
    fn do_pwrite(
        &self,
        opened: &Arc<OpenedFile>,
        data: &[u8],
        off: u64,
        clock: &ActorClock,
    ) -> IoResult<usize> {
        let stripe = self.admit_write(opened, data.len(), off, Some(clock))?;
        if data.is_empty() {
            return Ok(0);
        }
        let pages = PageSet::of(&opened.file, self.pages_of(off, data.len()));
        let mut locks = pages.lock(&self.lockcheck, Class::PageAtomic, PageDescriptor::lock);
        let write = Write { opened, data, off };
        self.commit_window(stripe, &[write], &mut locks, &mut Immediate(self), clock)?;
        Ok(data.len())
    }

    /// The read path (paper §II-C): read cache hit, or miss with optional
    /// dirty-miss reconciliation; read-only files bypass the cache entirely.
    fn do_pread(
        &self,
        opened: &Arc<OpenedFile>,
        buf: &mut [u8],
        off: u64,
        clock: &ActorClock,
    ) -> IoResult<usize> {
        if !opened.flags.readable() {
            return Err(IoError::PermissionDenied("fd opened write-only".into()));
        }
        clock.advance(self.cfg.libc_overhead);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        let file = &opened.file;
        file.reads.fetch_add(1, Ordering::Relaxed); // access heat for the migrator
        let size = file.size.load(Ordering::Acquire);
        if off >= size || buf.is_empty() {
            // No data moved, no heat: a tail-style poller hammering EOF
            // must not talk its file onto the fast tier (writes are
            // symmetric — the empty-write return precedes the touch).
            return Ok(0);
        }
        if self.track_heat {
            let now = clock.now();
            file.touch_heat(now, self.heat_half_life);
            self.migrator.observe_time(now);
        }
        let n = buf.len().min((size - off) as usize);
        if file.radix.get().is_none() {
            // Never opened for writing: the kernel page cache is fresh.
            self.stats.bypass_reads.fetch_add(1, Ordering::Relaxed);
            return self.inner_of(opened).pread(opened.inner_fd, &mut buf[..n], off, clock);
        }
        let ps = self.cfg.page_size as u64;
        let pages = PageSet::of(file, self.pages_of(off, n));
        let mut locks = pages.lock(&self.lockcheck, Class::PageAtomic, PageDescriptor::lock);
        let slots = locks.guards.iter_mut().zip(pages.descs()).zip(self.pages_of(off, n));
        for ((slot, d), p) in slots {
            if slot.content.is_none() {
                self.stats.read_misses.fetch_add(1, Ordering::Relaxed);
                self.pool.make_room(&self.stats);
                let _cl = self.lockcheck.acquire_page(Class::PageCleanup, file.file_id, p);
                let cleanup_guard = d.lock_cleanup();
                let mut page_buf = vec![0u8; ps as usize];
                self.inner_of(opened).pread(opened.inner_fd, &mut page_buf, p * ps, clock)?;
                if d.dirty_count() > 0 {
                    self.stats.dirty_misses.fetch_add(1, Ordering::Relaxed);
                    self.dirty_miss(file, p, &mut page_buf, clock);
                }
                drop(cleanup_guard);
                self.pool.install(d, slot, page_buf.into_boxed_slice());
            } else {
                self.stats.read_hits.fetch_add(1, Ordering::Relaxed);
            }
            d.mark_accessed();
            let content = slot.content.as_ref().expect("just installed");
            let page_start = p * ps;
            let s = off.max(page_start);
            let e = (off + n as u64).min(page_start + ps);
            buf[(s - off) as usize..(e - off) as usize]
                .copy_from_slice(&content[(s - page_start) as usize..(e - page_start) as usize]);
        }
        clock.advance(self.cfg.copy_bandwidth.time_for(n as u64));
        Ok(n)
    }
}

/// NVCache: a plug-and-play NVMM write cache for legacy applications — the
/// paper's contribution, as a [`FileSystem`] layer wrapping any inner file
/// system.
///
/// Writes are appended synchronously to a circular NVMM log (synchronous
/// durability + durable linearizability), then propagated asynchronously by
/// the cleanup thread through the inner file system. A small volatile read
/// cache keeps read-your-writes consistency. `fsync` is a no-op by design.
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
/// let cfg = NvCacheConfig::tiny();
/// let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
/// let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
/// let cache = NvCache::builder(NvRegion::whole(dimm))
///     .backend(inner)
///     .config(cfg)
///     .mount(&clock)?;
/// let fd = cache.open("/hello", OpenFlags::RDWR | OpenFlags::CREATE, &clock)?;
/// cache.pwrite(fd, b"durable on return", 0, &clock)?;
/// let mut buf = [0u8; 17];
/// cache.pread(fd, &mut buf, 0, &clock)?;
/// assert_eq!(&buf, b"durable on return");
/// cache.close(fd, &clock)?;
/// cache.shutdown(&clock);
/// # Ok(())
/// # }
/// ```
pub struct NvCache {
    pub(crate) shared: Arc<Shared>,
    name: String,
    cleanup: Mutex<Vec<JoinHandle<()>>>,
    /// The background migration worker
    /// ([`MigrationPolicy::Background`] on a tiered mount); `None`
    /// otherwise.
    migrator_worker: Mutex<Option<JoinHandle<()>>>,
    /// The recovery report when the instance was mounted with
    /// [`Mount::Recover`](crate::Mount::Recover) or
    /// [`Mount::RecoverRepair`](crate::Mount::RecoverRepair); `None` on a
    /// fresh format.
    recovery: Option<RecoveryReport>,
}

impl std::fmt::Debug for NvCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvCache")
            .field("name", &self.name)
            .field("pending_entries", &self.pending_entries())
            .finish()
    }
}

impl NvCache {
    /// Starts building a mount over `region`: a fresh format or a
    /// [`Mount::Recover`](crate::Mount::Recover) mount, over one backend or
    /// a **tiered** (multi-backend) stack. See [`NvCacheBuilder`].
    pub fn builder(region: NvRegion) -> NvCacheBuilder {
        NvCacheBuilder::new(region)
    }

    pub(crate) fn start(
        region: NvRegion,
        backends: Box<[Arc<dyn FileSystem>]>,
        router: Arc<dyn Router>,
        cfg: NvCacheConfig,
        recovery: Option<RecoveryReport>,
        misplaced: Vec<(String, u32)>,
    ) -> NvCache {
        let lay = Layout::for_config(&cfg);
        let mut in_flight = Vec::with_capacity(cfg.fd_slots as usize);
        in_flight.resize_with(cfg.fd_slots as usize, || AtomicU32::new(0));
        let mut cleanup_clocks = Vec::with_capacity(cfg.log_shards);
        cleanup_clocks.resize_with(cfg.log_shards, || Arc::new(ActorClock::new()));
        let placement: Arc<dyn PlacementPolicy> =
            cfg.placement.clone().unwrap_or_else(|| Arc::new(RouterPlacement));
        let migration_enabled = backends.len() > 1
            && (cfg.migration != MigrationPolicy::Disabled || cfg.cross_tier_rename);
        let track_heat = migration_enabled && placement.uses_temperature();
        let heat_half_life = placement.half_life();
        let log = Log::new(region, lay, 0);
        let lockcheck = log.lockcheck.clone();
        let migrator = Migrator::new(
            lockcheck.clone(),
            cfg.catalog_capacity,
            Arc::clone(&placement),
            Arc::clone(&router),
            backends.len(),
        );
        let shared = Arc::new(Shared {
            pool: ReadCache::new(cfg.read_cache_pages),
            log,
            backends,
            router,
            files: Mutex::new(HashMap::new()),
            opened: RwLock::new(HashMap::new()),
            fd_slots: FdSlotAllocator::new(cfg.fd_slots),
            sq_taken: {
                let mut taken = Vec::with_capacity(cfg.sq_pairs);
                taken.resize_with(cfg.sq_pairs, || AtomicBool::new(false));
                taken.into_boxed_slice()
            },
            zombies: Mutex::new(Vec::new()),
            stats: NvCacheStats::new(cfg.log_shards, cfg.backends, cfg.sq_pairs),
            stop: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            cleanup_clocks: cleanup_clocks.into_boxed_slice(),
            next_file_id: AtomicU64::new(1),
            in_flight: in_flight.into_boxed_slice(),
            migrator,
            placement,
            track_heat,
            heat_half_life,
            lockcheck,
            cfg,
        });
        if shared.migration_enabled() {
            // Recovery's misplaced files become migration candidates: a
            // rebalance sweep (or the background worker) re-homes them.
            shared.migrator.seed(misplaced, &shared.stats);
        }
        let name = if shared.backends.len() == 1 {
            format!("nvcache+{}", shared.backends[0].name())
        } else {
            let tiers: Vec<&str> = shared.backends.iter().map(|b| b.name()).collect();
            format!("nvcache+{}[{}]", shared.router.name(), tiers.join("|"))
        };
        if let Some(report) = &recovery {
            shared.stats.recovered_entries.store(report.entries_replayed, Ordering::Relaxed);
        }
        let handles = (0..shared.cfg.log_shards)
            .map(|stripe| {
                let worker = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nvcache-cleanup-{stripe}"))
                    .spawn(move || {
                        // Under pmcheck a checker violation panics the
                        // worker; poison its stripe first so flush_to
                        // waiters fail instead of hanging forever.
                        #[cfg(feature = "pmcheck")]
                        {
                            let shared = Arc::clone(&worker);
                            if let Err(panic) =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    crate::cleanup::run_cleanup(worker, stripe)
                                }))
                            {
                                shared.log.stripes[stripe].poison();
                                std::panic::resume_unwind(panic);
                            }
                        }
                        #[cfg(not(feature = "pmcheck"))]
                        crate::cleanup::run_cleanup(worker, stripe)
                    })
                    .expect("spawn cleanup worker")
            })
            .collect();
        let migrator_worker = (shared.migration_enabled()
            && shared.cfg.migration == MigrationPolicy::Background)
            .then(|| {
                let worker = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("nvcache-migrator".into())
                    .spawn(move || crate::migrate::run_migrator(worker))
                    .expect("spawn migration worker")
            });
        NvCache {
            shared,
            name,
            cleanup: Mutex::new(handles),
            migrator_worker: Mutex::new(migrator_worker),
            recovery,
        }
    }

    /// The recovery report of a [`Mount::Recover`](crate::Mount::Recover)
    /// mount (`None` when the instance was freshly formatted).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// The configuration in use.
    pub fn config(&self) -> &NvCacheConfig {
        &self.shared.cfg
    }

    /// Operation counters.
    pub fn stats(&self) -> &NvCacheStats {
        &self.shared.stats
    }

    /// The inner (propagation target) file system of a single-backend
    /// mount; the first backend of a tiered one (see
    /// [`backends`](NvCache::backends)).
    pub fn inner(&self) -> &Arc<dyn FileSystem> {
        &self.shared.backends[0]
    }

    /// All inner backends, indexed by the ids the router assigns.
    pub fn backends(&self) -> &[Arc<dyn FileSystem>] {
        &self.shared.backends
    }

    /// The router mapping files to backends
    /// ([`SingleBackend`](crate::SingleBackend) on a one-backend mount).
    pub fn router(&self) -> &Arc<dyn Router> {
        &self.shared.router
    }

    /// The placement policy driving the tier migrator's targets
    /// ([`RouterPlacement`](crate::RouterPlacement) unless the
    /// configuration installed another via
    /// [`NvCacheConfig::with_placement`]).
    pub fn placement(&self) -> &Arc<dyn PlacementPolicy> {
        &self.shared.placement
    }

    /// The first cleanup worker's virtual clock (the only one on a
    /// single-stripe log).
    pub fn cleanup_clock(&self) -> &ActorClock {
        &self.shared.cleanup_clocks[0]
    }

    /// The virtual clocks of all cleanup workers, one per log stripe.
    pub fn cleanup_clocks(&self) -> impl Iterator<Item = &ActorClock> {
        self.shared.cleanup_clocks.iter().map(Arc::as_ref)
    }

    /// Log entries waiting to be propagated.
    pub fn pending_entries(&self) -> u64 {
        self.shared.log.in_flight()
    }

    /// Indices of log stripes poisoned by an inner-file-system error: their
    /// workers have stopped, their pending entries await a
    /// [`Mount::Recover`](crate::Mount::Recover) mount, and writes routed
    /// to them fail. Empty in healthy operation
    /// ([`NvCacheStats::inner_io_errors`] counts the causes).
    pub fn poisoned_stripes(&self) -> Vec<usize> {
        self.shared.log.poisoned_stripes()
    }

    /// Runs one tier-rebalancing sweep on the caller's clock: every closed
    /// file the mount knows about (catalogued at close time, or reported
    /// misplaced by recovery) whose backend disagrees with the placement
    /// policy's target — the router's static placement by default, or the
    /// temperature-driven target of a configured
    /// [`HeatPolicy`](crate::HeatPolicy) — is moved there through the
    /// crash-safe copy → stamp → unlink protocol. Open or still-draining
    /// files are skipped and retried on a later sweep. See
    /// [`RebalanceReport`] and the `migrate` module docs.
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] when the mount's
    /// [`MigrationPolicy`](crate::MigrationPolicy) is `Disabled`; any inner
    /// I/O error a migration hits (the sweep stops there — already-moved
    /// files stay moved, the rest stay catalogued).
    pub fn rebalance(&self, clock: &ActorClock) -> IoResult<RebalanceReport> {
        if self.shared.cfg.migration == MigrationPolicy::Disabled {
            return Err(IoError::InvalidArgument(
                "tier migration is disabled (MigrationPolicy::Disabled)".into(),
            ));
        }
        crate::migrate::sweep(&self.shared, clock)
    }

    /// Moves the closed file at `path` to backend `to` with the crash-safe
    /// migration protocol, regardless of the router's placement. Returns
    /// the bytes copied (`0` if the file already lives there).
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] when migration is disabled or `to` is
    /// out of range; [`IoError::Busy`] (EBUSY) while the file is open or
    /// draining; [`IoError::NotFound`] if no backend holds the file; any
    /// inner I/O error from the copy.
    pub fn migrate(&self, path: &str, to: usize, clock: &ActorClock) -> IoResult<u64> {
        if self.shared.cfg.migration == MigrationPolicy::Disabled {
            return Err(IoError::InvalidArgument(
                "tier migration is disabled (MigrationPolicy::Disabled)".into(),
            ));
        }
        let path = vfs::normalize_path(path);
        crate::migrate::migrate_path(&self.shared, &path, to, true, clock)
            .map(|moved| moved.map_or(0, |(_, bytes)| bytes))
    }

    /// Claims submission/completion queue pair `index` (a "simulated
    /// core"'s private front-end lane). The mount must have been
    /// configured with [`NvCacheConfig::with_sq_pairs`]; each pair can be
    /// held by at most one [`QueuePair`](crate::QueuePair) handle at a
    /// time (dropping the handle releases the pair).
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] when `index` is outside
    /// `0..cfg.sq_pairs`; [`IoError::Busy`] when another handle currently
    /// owns the pair.
    pub fn queue_pair(&self, index: usize, clock: &ActorClock) -> IoResult<crate::QueuePair> {
        crate::squeue::QueuePair::claim(self, index, clock)
    }

    /// Descriptor-table occupancy: `(free, open, zombie)` slot counts.
    pub fn fd_slot_usage(&self) -> (usize, usize, usize) {
        let free = self.shared.fd_slots.free_count() as usize;
        // One table at a time: building the tuple in a single expression
        // kept the `opened` read guard alive across the `zombies` lock
        // (tuple temporaries drop at statement end), which is the reverse
        // of the zombies → opened order the open() slot-retry loop uses —
        // a deadlock window whenever a writer is queued on `opened`.
        let open = {
            let _lk = self.shared.lockcheck.acquire(Class::OpenedMap, 0);
            self.shared.opened.read().len()
        };
        let zombie = {
            let _lk = self.shared.lockcheck.acquire(Class::Zombies, 0);
            self.shared.zombies.lock().len()
        };
        (free, open, zombie)
    }

    /// Files currently resident in the migrator's closed-file catalog —
    /// bounded by [`NvCacheConfig::catalog_capacity`] (plus any pinned
    /// overflow the bound is not allowed to drop: misplaced or
    /// above-threshold entries survive until acted on). Unbounded mounts
    /// report the full catalog size.
    pub fn catalog_resident(&self) -> usize {
        self.shared.migrator.resident()
    }

    /// Blocks until every entry currently in any stripe has been propagated
    /// and fsync'ed by its cleanup worker (the flush barrier drains *all*
    /// stripes). If a stripe is poisoned the barrier returns early — its
    /// entries can only drain through a
    /// [`Mount::Recover`](crate::Mount::Recover) mount; operations whose
    /// correctness *depends* on the drain use the internal `drained_flush`
    /// and propagate the error instead.
    pub fn flush_log(&self, clock: &ActorClock) {
        self.shared.log.flush_all(clock);
    }

    /// A [`flush_log`](NvCache::flush_log) that fails when the drain could
    /// not complete because a stripe is poisoned. Ordering-sensitive
    /// operations (truncate, rename, `O_TRUNC` opens) must not proceed in
    /// that state: their pending entries would stay in NVMM and recovery
    /// would later replay them *over* the operation's effect.
    fn drained_flush(&self, clock: &ActorClock) -> IoResult<()> {
        self.flush_log(clock);
        if self.shared.log.any_poisoned() {
            return Err(IoError::Other(
                "NVCache log stripe poisoned by an inner I/O error: pending entries \
                 cannot drain (recovery required)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Graceful shutdown: drain every stripe, stop and join the cleanup
    /// workers.
    pub fn shutdown(&self, clock: &ActorClock) {
        self.flush_log(clock);
        self.abort();
    }

    /// Immediate stop (crash simulation): the cleanup workers exit without
    /// draining; pending entries stay in NVMM for a
    /// [`Mount::Recover`](crate::Mount::Recover) mount.
    pub fn abort(&self) {
        self.shared.kill.store(true, Ordering::Release);
        self.shared.stop.store(true, Ordering::Release);
        self.shared.log.notify_work_all();
        self.shared.migrator.notify();
        for h in self.cleanup.lock().drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.migrator_worker.lock().take() {
            let _ = h.join();
        }
    }

    fn slot_of(fd: Fd) -> u32 {
        fd.0 as u32
    }

    fn opened(&self, fd: Fd) -> IoResult<Arc<OpenedFile>> {
        self.shared
            .opened_by_slot(Self::slot_of(fd))
            .filter(|o| !o.closing.load(Ordering::Acquire))
            .ok_or(IoError::BadFd(fd.0))
    }

    /// Cursor-based write (libc `write`): appends at the NVCache-maintained
    /// cursor, honouring `O_APPEND` against NVCache's own size.
    ///
    /// # Errors
    ///
    /// Same as [`FileSystem::pwrite`].
    pub fn write(&self, fd: Fd, data: &[u8], clock: &ActorClock) -> IoResult<usize> {
        let opened = self.opened(fd)?;
        let mut cursor = opened.cursor.lock();
        if opened.flags.contains(OpenFlags::APPEND) {
            *cursor = opened.file.size.load(Ordering::Acquire);
        }
        let n = self.pwrite(fd, data, *cursor, clock)?;
        *cursor += n as u64;
        Ok(n)
    }

    /// Cursor-based read (libc `read`).
    ///
    /// # Errors
    ///
    /// Same as [`FileSystem::pread`].
    pub fn read(&self, fd: Fd, buf: &mut [u8], clock: &ActorClock) -> IoResult<usize> {
        let opened = self.opened(fd)?;
        let mut cursor = opened.cursor.lock();
        let n = self.pread(fd, buf, *cursor, clock)?;
        *cursor += n as u64;
        Ok(n)
    }

    /// `lseek`, answered from NVCache's own cursor and size — the kernel's
    /// values may be stale (paper Table III).
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] when seeking before byte zero.
    pub fn lseek(&self, fd: Fd, from: SeekFrom, clock: &ActorClock) -> IoResult<u64> {
        clock.advance(self.shared.cfg.libc_overhead);
        let opened = self.opened(fd)?;
        let mut cursor = opened.cursor.lock();
        let base: i128 = match from {
            SeekFrom::Start(o) => o as i128,
            SeekFrom::End(d) => opened.file.size.load(Ordering::Acquire) as i128 + d as i128,
            SeekFrom::Current(d) => *cursor as i128 + d as i128,
        };
        if base < 0 {
            return Err(IoError::InvalidArgument("seek before start of file".into()));
        }
        *cursor = base as u64;
        Ok(*cursor)
    }

    /// Current cursor (`ftell`).
    ///
    /// # Errors
    ///
    /// [`IoError::BadFd`] if the descriptor is not open.
    pub fn tell(&self, fd: Fd) -> IoResult<u64> {
        Ok(*self.opened(fd)?.cursor.lock())
    }
}

#[cfg(feature = "pmcheck")]
impl NvCache {
    /// Every persistency-ordering violation the shadow checker recorded on
    /// this mount's DIMM (each one also panicked at its detection site).
    /// Empty on a clean run.
    pub fn pm_violations(&self) -> Vec<String> {
        self.shared.log.region.pm_violations()
    }

    /// Every lock-order violation (cycle, page-order inversion, illegal
    /// re-entry) the recorder caught on this mount. Empty on a clean run.
    pub fn lock_order_violations(&self) -> Vec<String> {
        self.shared.lockcheck.violations()
    }

    /// Number of distinct acquisition-order edges the recorder has observed
    /// — test instrumentation proving lock tracking is actually live.
    pub fn lock_order_edges(&self) -> usize {
        self.shared.lockcheck.edge_count()
    }
}

impl Drop for NvCache {
    fn drop(&mut self) {
        self.abort();
    }
}

struct InFlightGuard<'a>(&'a AtomicU32);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl NvCache {
    /// Persists `file`'s decayed temperature into its fd slot's spare word
    /// (heat-format layouts with a temperature-reading policy only): one
    /// `commit_store` + fence, so a crash hands the next mount this file's
    /// heat instead of a cold start. A no-op on every other mount — the
    /// default configuration pays nothing, not even a branch on NVMM.
    fn stamp_heat(&self, file: &FileState, slot: u32, clock: &ActorClock) {
        if !self.shared.log.layout.heat_slots() || !self.shared.track_heat {
            return;
        }
        let heat = file.temperature.lock().decayed(clock.now(), self.shared.heat_half_life);
        PersistentFdTable::set_heat(
            &self.shared.log.region,
            &self.shared.log.layout,
            slot,
            quantize_heat(heat),
            clock,
        );
    }

    fn enter(&self, fd: Fd) -> IoResult<(Arc<OpenedFile>, InFlightGuard<'_>)> {
        let opened = self.opened(fd)?;
        let counter = &self.shared.in_flight[opened.slot as usize];
        counter.fetch_add(1, Ordering::AcqRel);
        // Re-check after publication so close() can wait for quiescence.
        if opened.closing.load(Ordering::Acquire) {
            counter.fetch_sub(1, Ordering::AcqRel);
            return Err(IoError::BadFd(fd.0));
        }
        Ok((opened, InFlightGuard(counter)))
    }

    /// Body of the intercepted `open`, after path normalization and the
    /// migration-gate lease: routing, inner open, file/descriptor
    /// bookkeeping.
    fn open_at(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        // Tiering decision: the router places the file once, here; the index
        // then travels with the descriptor (volatile) and the fd slot
        // (persistent), so every later resolution agrees with this one.
        let mut backend_idx = self.shared.route(path);
        if flags.contains(OpenFlags::TRUNC) && flags.writable() {
            // Pending log entries for the victim content must not resurface.
            self.drained_flush(clock)?;
        }
        // NVCache provides durability itself; the inner file is opened
        // without O_SYNC (the cleanup thread fsyncs batches explicitly).
        let inner_flags = flags.without(OpenFlags::SYNC);
        let inner_fd = if self.shared.backends.len() == 1 {
            self.shared.backends[0].open(path, inner_flags, clock)?
        } else {
            // Resolve where the file actually lives before touching any
            // tier: an existing file is opened *in place* — POSIX O_CREAT
            // opens, it does not shadow — even when a policy change left
            // it misplaced. Only a genuinely new file is created on the
            // router's tier (that is the placement decision).
            match self.shared.existing_backend(path, clock)? {
                Some(b) => {
                    backend_idx = b;
                    self.shared.backends[b].open(path, inner_flags, clock)?
                }
                None if flags.contains(OpenFlags::CREATE) => {
                    self.shared.backends[backend_idx].open(path, inner_flags, clock)?
                }
                None => return Err(IoError::NotFound(path.to_string())),
            }
        };
        let inner = &self.shared.backends[backend_idx];
        let meta = inner.fstat(inner_fd, clock)?;
        let file = {
            let _lk = self.shared.lockcheck.acquire(Class::FilesMap, 0);
            let mut files = self.shared.files.lock();
            Arc::clone(files.entry((backend_idx as u32, meta.dev, meta.ino)).or_insert_with(|| {
                // The file leaves the migrator's closed-file catalog while
                // open; its accumulated access heat seeds the fresh
                // counters so temperature survives close/reopen cycles. A
                // catalog entry pointing at a *different* tier stays: it
                // tracks a copy this open did not touch, which a sweep may
                // still need to find.
                let heat =
                    self.shared.migrator.take_if_on(path, backend_idx as u32).unwrap_or_default();
                Arc::new(FileState {
                    file_id: self.shared.next_file_id.fetch_add(1, Ordering::Relaxed),
                    dev_ino: (meta.dev, meta.ino),
                    path: path.to_string(),
                    size: AtomicU64::new(meta.size),
                    reads: AtomicU64::new(heat.reads),
                    writes: AtomicU64::new(heat.writes),
                    temperature: Mutex::new(heat.temp),
                    radix: OnceLock::new(),
                    open_count: AtomicU32::new(0),
                })
            }))
        };
        if flags.contains(OpenFlags::TRUNC) && flags.writable() {
            file.size.store(0, Ordering::Release);
            self.shared.pool.purge_file(file.file_id);
        }
        if flags.writable() {
            file.radix.get_or_init(Radix::new);
        }
        file.open_count.fetch_add(1, Ordering::AcqRel);
        let slot = {
            let mut slot = self.shared.fd_slots.acquire();
            if slot.is_none() {
                // Reclaim closed descriptors whose entries already drained.
                self.shared.drain_zombies(clock);
                slot = self.shared.fd_slots.acquire();
            }
            if slot.is_none() {
                // Slow path: the table is exhausted right now, but zombies
                // (or concurrently closing descriptors) may give a slot
                // back once their entries drain. Count the stall, drain the
                // log once, then retry only while reclaimable descriptors
                // actually exist — a genuinely full table fails cleanly
                // instead of busy-spinning on an empty zombie list.
                self.shared.stats.fd_slot_waits.fetch_add(1, Ordering::Relaxed);
                self.flush_log(clock);
                loop {
                    self.shared.drain_zombies(clock);
                    slot = self.shared.fd_slots.acquire();
                    if slot.is_some() || self.shared.log.any_poisoned() {
                        // Zombies pinned by a poisoned stripe can never
                        // drain; spinning on them would only delay the
                        // error below.
                        break;
                    }
                    let out_of_descriptors = {
                        let _lz = self.shared.lockcheck.acquire(Class::Zombies, 0);
                        let zombies = self.shared.zombies.lock();
                        zombies.is_empty() && {
                            let _lo = self.shared.lockcheck.acquire(Class::OpenedMap, 0);
                            self.shared
                                .opened
                                .read()
                                .values()
                                .all(|o| !o.closing.load(Ordering::Acquire))
                        }
                    };
                    if out_of_descriptors {
                        break; // genuinely out of descriptors
                    }
                    std::thread::yield_now();
                }
            }
            match slot {
                Some(s) => s,
                None => {
                    file.open_count.fetch_sub(1, Ordering::AcqRel);
                    let _ = inner.close(inner_fd, clock);
                    let cause = if self.shared.log.any_poisoned() {
                        "NVCache fd table exhausted: a poisoned log stripe pins \
                         closed descriptors (recovery required)"
                    } else {
                        "NVCache fd table is full"
                    };
                    return Err(IoError::Other(cause.into()));
                }
            }
        };
        PersistentFdTable::set(
            &self.shared.log.region,
            &self.shared.log.layout,
            slot,
            path,
            backend_idx as u32,
            clock,
        );
        // A reopen inherits the catalog's accumulated temperature; persist
        // it right away so a crash before the first fsync does not forget a
        // known-warm file. Cold opens (the common case) skip the stamp —
        // the slot's zeroed heat word already reads as cold.
        if self.shared.log.layout.heat_slots() && self.shared.track_heat {
            let heat = file.temperature.lock().decayed(clock.now(), self.shared.heat_half_life);
            let q = quantize_heat(heat);
            if q > 0 {
                PersistentFdTable::set_heat(
                    &self.shared.log.region,
                    &self.shared.log.layout,
                    slot,
                    q,
                    clock,
                );
            }
        }
        let opened = Arc::new(OpenedFile {
            slot,
            flags,
            cursor: Mutex::new(0),
            file,
            backend: backend_idx as u32,
            inner_fd,
            closing: AtomicBool::new(false),
        });
        {
            let _lk = self.shared.lockcheck.acquire(Class::OpenedMap, 0);
            self.shared.opened.write().insert(slot, opened);
        }
        Ok(Fd(slot as u64))
    }

    /// Multi-backend `rename`, under the caller's gate leases. Checks POSIX
    /// errno order — a nonexistent source is ENOENT *before* any
    /// cross-device consideration — then renames in place or, across tiers,
    /// fails with EXDEV unless
    /// [`cross_tier_rename`](NvCacheConfig::cross_tier_rename) turns the
    /// call into a migrate-then-rename.
    fn rename_tiered(&self, from: &str, to: &str, clock: &ActorClock) -> IoResult<()> {
        let Some(src) = self.shared.existing_backend(from, clock)? else {
            return Err(IoError::NotFound(from.to_string()));
        };
        if from == to {
            // POSIX: renaming an existing file onto itself succeeds and
            // does nothing — even when the router would place the name on
            // a different tier than the one holding it.
            return Ok(());
        }
        let dst = self.shared.route(to);
        if src == dst {
            // Pending entries logically precede the rename; replaying them
            // after it (recovery) would corrupt the new name's content.
            self.drained_flush(clock)?;
            self.shared.backends[src].rename(from, to, clock)?;
            // rename replaces the destination on the mount's *merged*
            // view: stale copies of the new name on other tiers must go.
            self.scrub_other_copies(to, src, clock)?;
            if self.shared.migration_enabled() {
                if self.shared.path_is_open_or_draining(from) {
                    // The file is still open under its old name —
                    // `FileState.path` keeps `from`, so the open-file
                    // guard could not protect a catalog entry under `to`
                    // and a sweep would migrate a file with live
                    // descriptors. Leave both names uncatalogued (path
                    // ops still reach the file by probing); stale entries
                    // self-heal via the sweep's NotFound handling.
                    self.shared.migrator.forget(from);
                    self.shared.migrator.forget(to);
                } else {
                    self.shared.migrator.rename_entry(from, to, src as u32, &self.shared.stats);
                }
            }
            return Ok(());
        }
        if !self.shared.cfg.cross_tier_rename {
            // The two names live on different tiers: moving the bytes
            // across backends behind a metadata call would break the
            // router's placement invariant. Legacy applications already
            // handle EXDEV (mv falls back to copy+unlink across mount
            // points).
            return Err(IoError::CrossDevice(format!("{from} -> {to}")));
        }
        self.migrate_rename(from, to, src, dst, clock)
    }

    /// Removes stale copies of `path` from every backend except `keep`:
    /// a successful rename must replace the destination on the mount's
    /// merged view, not just on the tier that executed it.
    fn scrub_other_copies(&self, path: &str, keep: usize, clock: &ActorClock) -> IoResult<()> {
        for (b, backend) in self.shared.backends.iter().enumerate() {
            if b == keep {
                continue;
            }
            match backend.unlink(path, clock) {
                Ok(()) | Err(IoError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Cross-tier rename as a journaled migration: copy `from`@`src` to
    /// `to`@`dst`, fsync, stamp, unlink the source — `mv` semantics across
    /// mount points, not crash-atomic (a crash can briefly leave both
    /// names; recovery converges every name to one authoritative copy).
    fn migrate_rename(
        &self,
        from: &str,
        to: &str,
        src: usize,
        dst: usize,
        clock: &ActorClock,
    ) -> IoResult<()> {
        let shared = &self.shared;
        let gate = &shared.migrator.gate;
        // Trade the caller's path-op leases for exclusive migration claims
        // (a lease blocks a claim, even our own). The unprotected gap is
        // covered by the open/zombie re-check under the claims.
        gate.exit_op(to);
        gate.exit_op(from);
        let claimed_from = gate.try_claim(from);
        let _claim_from =
            claimed_from.then(|| shared.lockcheck.acquire_try(Class::MigrationGate, 0));
        let claimed_to = claimed_from && gate.try_claim(to);
        let _claim_to = claimed_to.then(|| shared.lockcheck.acquire_try(Class::MigrationGate, 0));
        let result = if !claimed_to {
            Err(IoError::Busy(format!("{from} -> {to}: another migration is in flight")))
        } else if shared.path_is_open_or_draining(from) || shared.path_is_open_or_draining(to) {
            Err(IoError::Busy(format!("{from} -> {to}: open or draining descriptors exist")))
        } else {
            self.drained_flush(clock).and_then(|()| {
                let moved = crate::migrate::journaled_move(shared, from, to, src, dst, clock);
                moved.and_then(|bytes| {
                    // The destination name is replaced mount-wide: drop any
                    // stale copy of `to` on tiers other than `dst`.
                    self.scrub_other_copies(to, dst, clock)?;
                    shared.migrator.rename_entry(from, to, dst as u32, &shared.stats);
                    shared.stats.files_migrated.fetch_add(1, Ordering::Relaxed);
                    shared.stats.migration_bytes.fetch_add(bytes, Ordering::Relaxed);
                    // A cross-tier rename is a migration like any other:
                    // keep the fast-tier counters and occupancy gauge in
                    // step with the catalog it just rewrote.
                    if let Some(fast) = shared.placement.fast_tier() {
                        if dst == fast {
                            shared.stats.files_promoted.fetch_add(1, Ordering::Relaxed);
                        } else if src == fast {
                            shared.stats.files_demoted.fetch_add(1, Ordering::Relaxed);
                        }
                        shared.stats.fast_tier_bytes.store(
                            shared.migrator.fast_tier_occupancy(fast as u32),
                            Ordering::Relaxed,
                        );
                    }
                    Ok(())
                })
            })
        };
        if claimed_from {
            gate.release(from);
        }
        if claimed_to {
            gate.release(to);
        }
        // Restore the leases so the caller's exits stay balanced.
        gate.enter_op(from);
        gate.enter_op(to);
        result
    }
}

impl FileSystem for NvCache {
    fn name(&self) -> &str {
        &self.name
    }

    fn open(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        clock.advance(self.shared.cfg.libc_overhead);
        let path = vfs::normalize_path(path);
        // A file mid-migration must not be opened (the copy is incomplete
        // on the target tier): take a gate lease for the whole open.
        let gated = self.shared.migration_enabled();
        let _gate = gated.then(|| self.shared.lockcheck.acquire(Class::MigrationGate, 0));
        if gated {
            self.shared.migrator.gate.enter_op(&path);
        }
        let result = self.open_at(&path, flags, clock);
        if gated {
            self.shared.migrator.gate.exit_op(&path);
        }
        result
    }

    fn close(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.shared.cfg.libc_overhead);
        let slot = Self::slot_of(fd);
        let opened = self.opened(fd)?;
        if opened.closing.swap(true, Ordering::AcqRel) {
            return Err(IoError::BadFd(fd.0));
        }
        // Wait out in-flight calls on this descriptor, then push this file's
        // pending writes into the kernel page cache (paper §I: close flushes
        // all user-space writes *to the kernel* — durability is already in
        // NVMM, so no fsync and no waiting for the cleanup thread).
        while self.shared.in_flight[slot as usize].load(Ordering::Acquire) > 0 {
            std::thread::yield_now();
        }
        self.shared.kernel_flush_file(&opened, clock);
        // Final temperature summary while the slot is still valid: a crash
        // during the zombie drain window hands the next mount this file's
        // heat (a clean finish clears the slot, heat word included).
        self.stamp_heat(&opened.file, slot, clock);
        // The persistent fd slot must outlive the entries that reference it
        // (recovery resolves paths through it); defer the actual teardown to
        // the cleanup workers if entries are still in flight anywhere.
        let targets = self.shared.log.heads();
        if self.shared.log.drained_to(&targets) {
            self.shared.finish_close(&opened, clock);
        } else {
            {
                let _lk = self.shared.lockcheck.acquire(Class::Zombies, 0);
                self.shared.zombies.lock().push(Zombie { opened, drain_targets: targets });
            }
            self.shared.log.notify_work_all();
        }
        Ok(())
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let (opened, _guard) = self.enter(fd)?;
        self.shared.do_pread(&opened, buf, off, clock)
    }

    fn pwrite(&self, fd: Fd, data: &[u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let (opened, _guard) = self.enter(fd)?;
        self.shared.do_pwrite(&opened, data, off, clock)
    }

    fn fsync(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        // Paper Table III: no operation — the write call already made the
        // data durable in NVMM. A heat-persisting mount piggybacks its
        // temperature summary on the application's own durability points.
        clock.advance(self.shared.cfg.libc_overhead);
        let opened = self.opened(fd)?;
        self.stamp_heat(&opened.file, opened.slot, clock);
        Ok(())
    }

    fn ftruncate(&self, fd: Fd, len: u64, clock: &ActorClock) -> IoResult<()> {
        let (opened, _guard) = self.enter(fd)?;
        if !opened.flags.writable() {
            return Err(IoError::PermissionDenied("fd opened read-only".into()));
        }
        clock.advance(self.shared.cfg.libc_overhead);
        // Rare, non-critical path: drain then delegate, keeping NVCache's
        // size authoritative.
        self.drained_flush(clock)?;
        self.shared.inner_of(&opened).ftruncate(opened.inner_fd, len, clock)?;
        opened.file.size.store(len, Ordering::Release);
        self.shared.pool.purge_file(opened.file.file_id);
        Ok(())
    }

    fn fstat(&self, fd: Fd, clock: &ActorClock) -> IoResult<Metadata> {
        clock.advance(self.shared.cfg.libc_overhead);
        let opened = self.opened(fd)?;
        Ok(Metadata {
            dev: opened.file.dev_ino.0,
            ino: opened.file.dev_ino.1,
            size: opened.file.size.load(Ordering::Acquire),
            is_dir: false,
        })
    }

    fn stat(&self, path: &str, clock: &ActorClock) -> IoResult<Metadata> {
        clock.advance(self.shared.cfg.libc_overhead);
        let path = vfs::normalize_path(path);
        // Probe the *recorded* backend first, then the router's placement,
        // then the remaining tiers: a misplaced (or policy-orphaned) file's
        // bytes sit intact on some tier, and routing by the current policy
        // alone would report ENOENT for them. Non-NotFound errors abort the
        // probe — they are real failures, not absence.
        let mut order = self.shared.resolution_order(&path).into_iter();
        loop {
            let Some(backend) = order.next() else {
                return Err(IoError::NotFound(path));
            };
            match self.shared.backends[backend].stat(&path, clock) {
                Ok(mut meta) => {
                    // The kernel's size may be stale; NVCache's own is
                    // authoritative (paper Table III: stat uses NVCache
                    // size).
                    let _lk = self.shared.lockcheck.acquire(Class::FilesMap, 0);
                    if let Some(file) =
                        self.shared.files.lock().get(&(backend as u32, meta.dev, meta.ino))
                    {
                        meta.size = file.size.load(Ordering::Acquire);
                    }
                    return Ok(meta);
                }
                Err(IoError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn unlink(&self, path: &str, clock: &ActorClock) -> IoResult<()> {
        // Pass-through, as in the paper (Table III does not intercept it).
        // Pending log entries for the victim are neutralized at recovery,
        // which refuses to recreate files that no longer exist. Like
        // `stat`, the probe honours the recorded backend before policy
        // routing, so a misplaced file can actually be removed.
        clock.advance(self.shared.cfg.libc_overhead);
        let path = vfs::normalize_path(path);
        let gated = self.shared.migration_enabled();
        let _gate = gated.then(|| self.shared.lockcheck.acquire(Class::MigrationGate, 0));
        if gated {
            // The victim must not be mid-migration (the copy would
            // resurrect it).
            self.shared.migrator.gate.enter_op(&path);
        }
        // Keep probing after the first hit: a misplaced file plus a shadow
        // created on the routed tier are duplicate copies of one name, and
        // unlinking only one would let the other resurrect it.
        let mut removed = false;
        let mut result = Err(IoError::NotFound(path.clone()));
        for backend in self.shared.resolution_order(&path) {
            match self.shared.backends[backend].unlink(&path, clock) {
                Ok(()) => removed = true,
                Err(IoError::NotFound(_)) => {}
                Err(e) => {
                    result = Err(e);
                    removed = false;
                    break;
                }
            }
        }
        if removed {
            result = Ok(());
        }
        if gated {
            self.shared.migrator.gate.exit_op(&path);
        }
        if result.is_ok() {
            self.shared.migrator.forget(&path);
        }
        result
    }

    fn rename(&self, from: &str, to: &str, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.shared.cfg.libc_overhead);
        let from = vfs::normalize_path(from);
        let to = vfs::normalize_path(to);
        if self.shared.backends.len() == 1 {
            // Single backend: the inner file system owns the whole errno
            // surface (ENOENT included) — no probing, identical to the
            // paper's deployment.
            self.drained_flush(clock)?;
            return self.shared.backends[0].rename(&from, &to, clock);
        }
        let gated = self.shared.migration_enabled();
        let _gate_from = gated.then(|| self.shared.lockcheck.acquire(Class::MigrationGate, 0));
        let _gate_to = gated.then(|| self.shared.lockcheck.acquire(Class::MigrationGate, 0));
        if gated {
            self.shared.migrator.gate.enter_op(&from);
            self.shared.migrator.gate.enter_op(&to);
        }
        let result = self.rename_tiered(&from, &to, clock);
        if gated {
            self.shared.migrator.gate.exit_op(&to);
            self.shared.migrator.gate.exit_op(&from);
        }
        result
    }

    fn list_dir(&self, dir: &str, clock: &ActorClock) -> IoResult<Vec<String>> {
        let dir = vfs::normalize_path(dir);
        if self.shared.backends.len() == 1 {
            return self.shared.backends[0].list_dir(&dir, clock);
        }
        // A directory's children may be spread over several tiers (the
        // router partitions by path, not by subtree): merge every backend's
        // view, deduplicate, and keep a deterministic order. Backends where
        // the directory does not exist contribute nothing; the listing only
        // fails when *no* backend knows the directory.
        let mut merged: Vec<String> = Vec::new();
        let mut found = false;
        for backend in self.shared.backends.iter() {
            match backend.list_dir(&dir, clock) {
                Ok(entries) => {
                    found = true;
                    merged.extend(entries);
                }
                // Absence on one tier is expected; anything else is a real
                // I/O failure and the merged listing would be silently
                // partial — propagate it instead of papering over it.
                Err(IoError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        if !found {
            return Err(IoError::NotFound(dir));
        }
        merged.sort();
        merged.dedup();
        Ok(merged)
    }

    fn sync(&self, clock: &ActorClock) -> IoResult<()> {
        // Paper Table III: sync/syncfs are no-ops.
        clock.advance(self.shared.cfg.libc_overhead);
        Ok(())
    }

    fn simulate_power_failure(&self) {
        // The faithful crash path goes through `NvDimm::crash_and_restart` +
        // a `Mount::Recover` mount; this in-place approximation only drops
        // the volatile state below NVCache.
        for backend in self.shared.backends.iter() {
            backend.simulate_power_failure();
        }
    }

    fn synchronous_durability(&self) -> bool {
        true // by design: the write call returns after psync (Algorithm 1)
    }

    fn durable_linearizability(&self) -> bool {
        true // the psync precedes the lock release (paper §III)
    }
}
