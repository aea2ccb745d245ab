//! The per-stripe cleanup workers (paper §III "Cleanup thread and
//! batching"): each worker consumes committed entries from its stripe's
//! tail in batches and propagates them to the inner file systems through
//! io_uring-style submission rings ([`fiosim::IoRing`]) — one ring per
//! backend of a tiered mount, so each tier gets its own
//! [`queue_depth`](crate::NvCacheConfig::queue_depth)-deep overlap window
//! before the batch's per-(backend, file) coalesced `fsync`s.
//! Inner-file-system errors poison the stripe (see
//! [`crate::NvCache::poisoned_stripes`]) instead of panicking.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use fiosim::IoRing;
use simclock::SimTime;

use crate::cache::Shared;
use crate::layout::CommitWord;
use crate::lockcheck::Class;
use crate::log::Stripe;
use crate::pagedesc::{PageDescriptor, PageSet};

/// Body of one cleanup worker (paper §III "Cleanup thread and batching",
/// one worker per log stripe).
///
/// Consumes committed entries from its stripe's tail in batches. Each
/// batch runs in three phases:
///
/// 1. **Submit** — every entry's `pwrite` against the inner file system is
///    pushed onto the worker's submission ring. The write's side effects
///    land immediately (execution order is exactly the synchronous drain's
///    order, so page bookkeeping and cross-stripe handoff are unchanged),
///    but its *latency* is charged to a per-operation clock: with
///    `queue_depth = N`, up to `N` writes overlap on the inner device
///    instead of each waiting for the previous completion.
/// 2. **Reap** — the worker joins all completions, then submits one
///    coalesced `fsync` per file the batch touched (also overlapped on the
///    ring) and reaps those too. This is the batching knob of paper Fig. 6,
///    now amortizing the device latency across in-flight submissions as
///    well as across entries.
/// 3. **Free** — only after the whole batch's completions (writes *and*
///    fsyncs) have landed does the worker clear commit flags, persist the
///    stripe's tail index, and publish the space to writers through the
///    volatile tail. A crash anywhere before phase 3 therefore leaves the
///    persistent tail untouched and recovery replays the batch — the same
///    crash-consistency contract as the synchronous drain.
///
/// With `queue_depth = 1` the ring degenerates to back-to-back calls on one
/// timeline: the drain is behaviorally *and* temporally identical to the
/// paper's synchronous cleanup (the `qd1` oracle tests pin this down).
///
/// With multiple stripes, workers additionally keep per-page order through
/// the descriptors' propagation queues, at *free* time and not only at
/// propagation time (`lib.rs` invariant 3): an entry propagates once
/// nothing but this batch's own entries is ahead of it on every touched
/// page, and the batch's queue slots are popped after it is freed. An entry
/// that would wait on another stripe ends a non-empty batch, so a waiting
/// worker holds nothing unfreed and only waits for *smaller* sequence
/// numbers held by other stripes — the waits form no cycle and unrelated
/// pages never serialize.
///
/// An inner-file-system error (failed `pwrite` or `fsync`) does **not**
/// abort the worker thread with a panic: the error is counted in
/// [`inner_io_errors`](crate::NvCacheStats::inner_io_errors), the stripe is
/// poisoned — releasing blocked writers and flush barriers with an error
/// instead of a hang — and the batch's entries stay in NVMM for recovery.
pub(crate) fn run_cleanup(shared: Arc<Shared>, stripe_idx: usize) {
    let clock = Arc::clone(&shared.cleanup_clocks[stripe_idx]);
    let stripe = &shared.log.stripes[stripe_idx];
    let ordered_handoff = !shared.log.single();
    let shard_stats = &shared.stats.per_shard[stripe_idx];
    // One submission ring per inner backend — the per-tier queues of a
    // tiered mount. Entries routed to different tiers overlap freely (each
    // ring has its own `queue_depth` window); a single-backend mount
    // degenerates to exactly the old one-ring drain.
    let mut rings: Vec<IoRing> = shared
        .backends
        .iter()
        .map(|backend| IoRing::new(Arc::clone(backend), shared.cfg.queue_depth))
        .collect();
    loop {
        if shared.kill.load(Ordering::Acquire) {
            // Crash simulation: leave everything in the log for recovery.
            return;
        }
        shared.drain_zombies(&clock);
        let tail = stripe.vtail.load(Ordering::Acquire);
        let head = stripe.head.load(Ordering::Acquire);
        let pending = head - tail;
        let stop = shared.stop.load(Ordering::Acquire);
        let flush_needed = stripe.flush_target.load(Ordering::Acquire) > tail;
        let space_needed = stripe.space_waiters.load(Ordering::Acquire) > 0;
        // A peer worker is blocked in the per-page handoff: the sequence
        // number it needs may sit in *this* stripe, below the batch
        // threshold — run regardless of `batch_min` until the pressure
        // clears.
        let handoff_pressure =
            ordered_handoff && shared.log.handoff_waiters.load(Ordering::Acquire) > 0;

        let should_run = pending > 0
            && (pending >= shared.cfg.batch_min as u64
                || flush_needed
                || space_needed
                || handoff_pressure
                || stop);
        if !should_run {
            if stop && pending == 0 {
                shared.drain_zombies(&clock);
                return;
            }
            stripe.wait_for_work();
            continue;
        }

        let budget = (shared.cfg.batch_max as u64).min(pending);
        let mut consumed = 0u64;
        // `(backend, inner fd)` pairs the batch touched — the fsync
        // coalescing key (an fd is only meaningful on its own backend).
        let mut touched_fds: Vec<(u32, vfs::Fd)> = Vec::new();
        let mut batch_failed = false;
        // `(global sequence, pages)` of the batch's submitted entries,
        // ascending; popped from the propagation queues once freed.
        let mut submitted: Vec<(u64, PageSet)> = Vec::new();

        // Phase 1: submit the batch's propagation writes onto the ring.
        while consumed < budget {
            if shared.kill.load(Ordering::Acquire) {
                return;
            }
            let seq = tail + consumed;
            // Wait for the in-order commit of the entry at the tail (the
            // paper's cleanup thread does exactly this). With the
            // multi-queue front-end a whole *reservation window* can sit
            // here uncommitted while its doorbell is still filling, so the
            // wait spins only briefly before parking on the stripe's work
            // condvar — `commit_batch` rings it on every commit, single or
            // doorbell-batched.
            let mut spins = 0u32;
            let header = loop {
                let h = stripe.read_header(seq);
                if h.commit != CommitWord::Free {
                    break h;
                }
                if shared.kill.load(Ordering::Acquire) {
                    return;
                }
                if shared.stop.load(Ordering::Acquire) && consumed > 0 {
                    // A producer died mid-allocation during shutdown; stop at
                    // the gap and free what we have.
                    break h;
                }
                spins += 1;
                if spins < 128 {
                    std::thread::yield_now();
                } else {
                    // 1 ms-timeout park, so a lost wakeup only costs a
                    // beat, never a hang.
                    stripe.wait_for_work();
                }
            };
            if header.commit == CommitWord::Free {
                break;
            }
            let group_len = match header.commit {
                CommitWord::Leader => header.group_len.max(1) as u64,
                // A member at the tail would mean a torn group; the
                // invariants (groups consumed atomically, contiguously in
                // one stripe) forbid it.
                CommitWord::Member(_) => unreachable!("group member at the tail"),
                CommitWord::Free => unreachable!("checked above"),
            };
            let group: Vec<_> = (0..group_len)
                .map(|i| {
                    let e = stripe.read_header(seq + i);
                    let opened = shared
                        .opened_by_slot(e.fd_slot)
                        .expect("entry references a closed fd: close must drain first");
                    let pages =
                        PageSet::of(&opened.file, shared.pages_of(e.file_off, e.len as usize));
                    (e, opened, pages)
                })
                .collect();
            // A group's global sequence numbers are contiguous: its earlier
            // members are the only entries of its own in that range.
            if ordered_handoff
                && consumed > 0
                && !group.iter().all(|(e, _, pages)| {
                    handoff_ready(pages, e.seq, |s| {
                        (header.seq..e.seq).contains(&s) || was_submitted(&submitted, s)
                    })
                })
            {
                // The group would wait on another stripe: end the batch
                // here rather than wait while holding unfreed entries.
                break;
            }
            // Stay causal in virtual time: a batch cannot start before its
            // entries were committed.
            let slot = (seq % stripe.capacity()) as usize;
            clock.advance_to(SimTime::from_nanos(
                stripe.commit_stamps[slot].load(Ordering::Acquire),
            ));

            for (i, (e, opened, pages)) in group.into_iter().enumerate() {
                // Entries at the tail were written recently by the
                // application; their lines are still in the CPU caches, so
                // the read is not charged against the NVMM media (which
                // would otherwise serialize the cleanup worker's far-future
                // timeline against in-flight application flushes).
                let data = stripe.read_data_cached(seq + i as u64, e.len as usize);
                if ordered_handoff
                    && !wait_for_handoff(&shared, stripe, &pages, e.seq, |s| {
                        was_submitted(&submitted, s)
                    })
                {
                    if shared.kill.load(Ordering::Acquire) {
                        return; // killed while waiting
                    }
                    // The awaited sequence number is stuck in a poisoned
                    // stripe (the handoff's grace period passed without
                    // progress): per-page ordering can no longer be
                    // maintained, so this stripe degrades too (writers get
                    // errors, not hangs; recovery replays the rest).
                    batch_failed = true;
                    break;
                }
                // Lock out the dirty-miss procedure for the affected pages
                // while the kernel copy is being updated (paper §II-D). The
                // write itself executes here (submission order is execution
                // order); only its completion time is deferred to the reap.
                let locks =
                    pages.lock(&shared.lockcheck, Class::PageCleanup, PageDescriptor::lock_cleanup);
                let backend = opened.backend as usize;
                let cqe = rings[backend].submit_pwrite(
                    opened.inner_fd,
                    &data,
                    e.file_off,
                    e.seq,
                    clock.now(),
                );
                shard_stats.uring_submitted.fetch_add(1, Ordering::Relaxed);
                if cqe.result.is_err() {
                    batch_failed = true;
                    break;
                }
                for d in pages.descs() {
                    d.dec_dirty();
                }
                drop(locks);
                if ordered_handoff {
                    submitted.push((e.seq, pages));
                }
                if !touched_fds.contains(&(opened.backend, opened.inner_fd)) {
                    touched_fds.push((opened.backend, opened.inner_fd));
                }
                shared.stats.entries_propagated.fetch_add(1, Ordering::Relaxed);
                shard_stats.entries_propagated.fetch_add(1, Ordering::Relaxed);
                shared.stats.per_backend_propagated[backend].fetch_add(1, Ordering::Relaxed);
            }
            if batch_failed {
                break;
            }
            consumed += group_len;
        }

        // Phase 2: reap the writes from every tier's ring (the clock joins
        // the latest completion across all backends), then overlap the
        // coalesced fsyncs.
        let write_cqes: Vec<_> = rings.iter_mut().flat_map(|r| r.wait_all(&clock)).collect();
        shard_stats
            .uring_completed
            .fetch_add(write_cqes.len() as u64, Ordering::Relaxed);
        let peak = rings.iter().map(IoRing::peak_in_flight).max().unwrap_or(0);
        shard_stats.uring_inflight_peak.fetch_max(peak as u64, Ordering::Relaxed);
        let write_errors = write_cqes.iter().filter(|c| c.result.is_err()).count() as u64;
        if batch_failed || write_errors > 0 {
            // `write_errors` may be 0 when the batch failed because a *peer*
            // stripe poisoned itself mid-handoff: this stripe still degrades
            // (cascade poison) but records no error of its own.
            poison(&shared, stripe_idx, write_errors);
            return;
        }
        if consumed == 0 {
            continue;
        }

        // One fsync per batch per touched file: this is the batching knob of
        // paper Fig. 6 (each stripe applies the policy independently, each
        // tier on its own ring). The fd may have raced to close after we
        // propagated its last entry; an error here would mean the drain
        // ordering broke — poison, as above.
        for (i, (backend, fd)) in touched_fds.iter().enumerate() {
            rings[*backend as usize].submit_fsync(*fd, i as u64, clock.now());
            shard_stats.uring_submitted.fetch_add(1, Ordering::Relaxed);
        }
        let fsync_cqes: Vec<_> = rings.iter_mut().flat_map(|r| r.wait_all(&clock)).collect();
        shard_stats
            .uring_completed
            .fetch_add(fsync_cqes.len() as u64, Ordering::Relaxed);
        // Only *successful* fsyncs count towards the Fig. 6 amortization
        // stats — a failed batch is not a durable drain.
        let fsync_ok = fsync_cqes.iter().filter(|c| c.result.is_ok()).count() as u64;
        shared.stats.cleanup_fsyncs.fetch_add(fsync_ok, Ordering::Relaxed);
        shard_stats.cleanup_fsyncs.fetch_add(fsync_ok, Ordering::Relaxed);
        let fsync_errors = fsync_cqes.len() as u64 - fsync_ok;
        if fsync_errors > 0 {
            poison(&shared, stripe_idx, fsync_errors);
            return;
        }

        // Phase 3: the whole batch (writes and fsyncs) has landed — only now
        // may the tail advance past it.
        stripe.free_range(tail, consumed, &clock);
        // Only now may these pages' next entries, in any stripe, propagate.
        for (gseq, pages) in submitted {
            for d in pages.descs() {
                d.pop_propagation(gseq);
            }
        }
        shared.stats.cleanup_batches.fetch_add(1, Ordering::Relaxed);
        shard_stats.cleanup_batches.fetch_add(1, Ordering::Relaxed);
        shared.drain_zombies(&clock);
        // Files become migratable only once fully drained: zombies this
        // batch finished may now move tiers, so wake the background
        // migrator (no-op unless MigrationPolicy::Background).
        shared.migrator_notify();
    }
}

/// Records `errors` inner-file-system failures against stripe `stripe_idx`
/// and poisons it: the stripe's entries stay in NVMM for recovery, blocked
/// writers and flush barriers are released (they observe the poisoned state
/// instead of waiting on a worker that is about to exit), and the worker
/// returns cleanly.
fn poison(shared: &Shared, stripe_idx: usize, errors: u64) {
    shared.stats.inner_io_errors.fetch_add(errors, Ordering::Relaxed);
    shared.stats.per_shard[stripe_idx]
        .inner_io_errors
        .fetch_add(errors, Ordering::Relaxed);
    shared.log.stripes[stripe_idx].poison();
    shared.log.notify_work_all();
}

/// Whether `gseq` is among the batch's `submitted` entries.
fn was_submitted(submitted: &[(u64, PageSet)], gseq: u64) -> bool {
    submitted.binary_search_by_key(&gseq, |&(g, _)| g).is_ok()
}

/// Whether entry `gseq` may propagate: it is queued on every page in
/// `pages` with nothing but entries `own` accepts (this worker's) ahead.
fn handoff_ready(pages: &PageSet, gseq: u64, own: impl Fn(u64) -> bool) -> bool {
    pages.descs().all(|d| d.propagation_ready(gseq, &own))
}

/// Cross-stripe per-page ordering: blocks until [`handoff_ready`]. Only
/// entries with smaller global sequence numbers can be ahead, held by other
/// stripes that free them without waiting on this one; registering as a
/// handoff waiter makes those stripes run batches even below `batch_min`,
/// so the wait always terminates. The override distorts the batching
/// policy only while a waiter exists — which requires page-straddling
/// writes whose entries split across stripes; entry-aligned workloads
/// (e.g. the Fig. 6 sweep) never trigger it. Returns `false` if the cache
/// was killed while waiting, or if the handoff can provably never complete
/// because a sequence number it is waiting on is pending inside a
/// *poisoned* stripe (whose worker is gone). A poisoned stripe elsewhere in
/// the log does not degrade this one: after a grace period of parked waits
/// the blocking sequence numbers are located by scanning the poisoned
/// stripes' pending windows, and the wait continues whenever they sit in
/// healthy stripes.
fn wait_for_handoff(
    shared: &Shared,
    stripe: &Stripe,
    pages: &PageSet,
    gseq: u64,
    own: impl Fn(u64) -> bool,
) -> bool {
    /// Parked (condvar, ~1 ms each) waits between scans of the poisoned
    /// stripes' windows once a poisoned stripe has been observed.
    const POISON_GRACE_PARKS: u32 = 64;
    if handoff_ready(pages, gseq, &own) {
        return true; // fast path: nothing else ahead
    }
    shared.log.handoff_waiters.fetch_add(1, Ordering::AcqRel);
    shared.log.notify_work_all();
    let mut spins = 0u32;
    let mut poison_parks = 0u32;
    let survived = loop {
        if handoff_ready(pages, gseq, &own) {
            break true;
        }
        if shared.kill.load(Ordering::Acquire) {
            break false;
        }
        if poison_parks > POISON_GRACE_PARKS {
            poison_parks = 0;
            if blocked_by_poisoned_stripe(shared, pages, gseq) {
                break false;
            }
            // The blocking entries sit in healthy stripes — their workers
            // will drain them (handoff pressure keeps them running); the
            // peer's poison is not this stripe's problem.
        }
        // Brief spin for the common sub-microsecond handoff, then park on
        // the stripe's work condvar (1 ms timeout, like wait_for_work)
        // instead of burning a core while a peer finishes its batch.
        spins += 1;
        if spins < 128 {
            std::thread::yield_now();
        } else {
            stripe.wait_for_work();
            if shared.log.any_poisoned() {
                poison_parks += 1;
            }
        }
    };
    shared.log.handoff_waiters.fetch_sub(1, Ordering::AcqRel);
    survived
}

/// Whether any sequence number currently blocking the handoff (a
/// propagation-queue front smaller than `gseq`) is pending inside a
/// poisoned stripe's `[tail, head)` window — in which case it will never
/// be popped and the waiter must give up. Pending entries always live in
/// some stripe's window until freed, so a miss here means the blocker is
/// in a healthy stripe (or was popped concurrently — the caller's
/// `handoff_ready` re-check picks that up). Only runs on the degraded path.
fn blocked_by_poisoned_stripe(shared: &Shared, pages: &PageSet, gseq: u64) -> bool {
    let blockers: Vec<u64> = pages
        .descs()
        .filter_map(|d| d.propagation_front())
        .filter(|&front| front < gseq)
        .collect();
    if blockers.is_empty() {
        return false;
    }
    for poisoned in shared.log.stripes.iter().filter(|s| s.is_poisoned()) {
        let tail = poisoned.vtail.load(Ordering::Acquire);
        let head = poisoned.head.load(Ordering::Acquire);
        for seq in tail..head {
            let h = poisoned.read_header(seq);
            if h.commit != CommitWord::Free && blockers.contains(&h.seq) {
                return true;
            }
        }
    }
    false
}
