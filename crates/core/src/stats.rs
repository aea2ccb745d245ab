//! Operation counters: global [`NvCacheStats`] plus the per-stripe
//! [`ShardStats`] breakdown (propagation, saturation, submission-ring
//! overlap and inner-I/O-error counters), with plain-value snapshots for
//! reporting.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-stripe operation counters of a sharded log.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Log entries created in this stripe.
    pub entries_logged: AtomicU64,
    /// Entries propagated by this stripe's cleanup worker.
    pub entries_propagated: AtomicU64,
    /// Cleanup batches completed by this stripe's worker.
    pub cleanup_batches: AtomicU64,
    /// `fsync` calls issued by this stripe's worker.
    pub cleanup_fsyncs: AtomicU64,
    /// Times a writer had to wait for space in this stripe.
    pub log_full_waits: AtomicU64,
    /// Operations this stripe's worker submitted to its I/O ring.
    pub uring_submitted: AtomicU64,
    /// Operations reaped from the ring (equals submitted once idle).
    pub uring_completed: AtomicU64,
    /// Largest number of simultaneously in-flight ring operations observed
    /// (how much overlap `queue_depth` actually bought; `1` on a
    /// synchronous drain).
    pub uring_inflight_peak: AtomicU64,
    /// Inner-file-system errors hit while draining this stripe (each one
    /// poisons the stripe instead of panicking the worker).
    pub inner_io_errors: AtomicU64,
}

impl ShardStats {
    fn snapshot(&self) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            entries_logged: self.entries_logged.load(Ordering::Relaxed),
            entries_propagated: self.entries_propagated.load(Ordering::Relaxed),
            cleanup_batches: self.cleanup_batches.load(Ordering::Relaxed),
            cleanup_fsyncs: self.cleanup_fsyncs.load(Ordering::Relaxed),
            log_full_waits: self.log_full_waits.load(Ordering::Relaxed),
            uring_submitted: self.uring_submitted.load(Ordering::Relaxed),
            uring_completed: self.uring_completed.load(Ordering::Relaxed),
            uring_inflight_peak: self.uring_inflight_peak.load(Ordering::Relaxed),
            inner_io_errors: self.inner_io_errors.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`ShardStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStatsSnapshot {
    /// Log entries created in this stripe.
    pub entries_logged: u64,
    /// Entries propagated by this stripe's cleanup worker.
    pub entries_propagated: u64,
    /// Cleanup batches completed by this stripe's worker.
    pub cleanup_batches: u64,
    /// `fsync` calls issued by this stripe's worker.
    pub cleanup_fsyncs: u64,
    /// Times a writer had to wait for space in this stripe.
    pub log_full_waits: u64,
    /// Operations this stripe's worker submitted to its I/O ring.
    pub uring_submitted: u64,
    /// Operations reaped from the ring.
    pub uring_completed: u64,
    /// Largest in-flight ring population observed.
    pub uring_inflight_peak: u64,
    /// Inner-file-system errors (stripe poisonings).
    pub inner_io_errors: u64,
}

/// Histogram buckets for the doorbell batch-size distribution
/// (`sq_batch_hist`): bucket `i` counts doorbells whose batch size fell in
/// `[2^i, 2^(i+1))`, except the last bucket which is open-ended — i.e.
/// 1, 2–3, 4–7, 8–15, 16–31, 32–63, 64+.
pub const SQ_BATCH_BUCKETS: usize = 7;

/// Per-queue-pair counters of the multi-queue submission front-end
/// (one per [`sq_pairs`](crate::NvCacheConfig::sq_pairs)).
#[derive(Debug)]
pub struct QueueStats {
    /// Operations enqueued on this pair's submission queue.
    pub sq_submitted: AtomicU64,
    /// Doorbells rung (each one batch-commits everything submitted since
    /// the previous doorbell).
    pub sq_doorbells: AtomicU64,
    /// Doorbell batch-size histogram (see [`SQ_BATCH_BUCKETS`]). A mass
    /// stuck in the first bucket means the submitter rings after every
    /// op — paying the synchronous path's fixed costs with extra steps.
    pub sq_batch_hist: [AtomicU64; SQ_BATCH_BUCKETS],
    /// Total virtual nanoseconds between an op's completion and its reap —
    /// divided by completions, the average time completions sat unobserved
    /// in the CQ (a lazy reaper inflates observed latency, not durability).
    pub cq_reap_lag: AtomicU64,
}

impl Default for QueueStats {
    fn default() -> Self {
        QueueStats {
            sq_submitted: AtomicU64::new(0),
            sq_doorbells: AtomicU64::new(0),
            sq_batch_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            cq_reap_lag: AtomicU64::new(0),
        }
    }
}

impl QueueStats {
    fn snapshot(&self) -> QueueStatsSnapshot {
        QueueStatsSnapshot {
            sq_submitted: self.sq_submitted.load(Ordering::Relaxed),
            sq_doorbells: self.sq_doorbells.load(Ordering::Relaxed),
            sq_batch_hist: std::array::from_fn(|i| self.sq_batch_hist[i].load(Ordering::Relaxed)),
            cq_reap_lag: self.cq_reap_lag.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`QueueStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStatsSnapshot {
    /// Operations enqueued on this pair's submission queue.
    pub sq_submitted: u64,
    /// Doorbells rung.
    pub sq_doorbells: u64,
    /// Doorbell batch-size histogram (see [`SQ_BATCH_BUCKETS`]).
    pub sq_batch_hist: [u64; SQ_BATCH_BUCKETS],
    /// Total virtual nanoseconds completions waited in the CQ before reap.
    pub cq_reap_lag: u64,
}

/// Operation counters of an [`NvCache`](crate::NvCache) instance.
#[derive(Debug)]
pub struct NvCacheStats {
    /// Intercepted write calls.
    pub writes: AtomicU64,
    /// Intercepted read calls.
    pub reads: AtomicU64,
    /// Bytes appended to the NVMM log (payload only).
    pub bytes_logged: AtomicU64,
    /// Log entries created.
    pub entries_logged: AtomicU64,
    /// Multi-entry groups created.
    pub groups_logged: AtomicU64,
    /// Reads served entirely from the read cache.
    pub read_hits: AtomicU64,
    /// Page faults into the read cache.
    pub read_misses: AtomicU64,
    /// Misses that required the dirty-miss reconciliation procedure.
    pub dirty_misses: AtomicU64,
    /// Reads that bypassed the read cache (read-only files).
    pub bypass_reads: AtomicU64,
    /// Pages evicted from the read cache.
    pub evictions: AtomicU64,
    /// Times a writer had to wait for log space (saturation events).
    pub log_full_waits: AtomicU64,
    /// Times `open` found the fd table exhausted and had to force a log
    /// drain to reap zombie descriptors before a slot freed up (or the open
    /// failed). Rising values mean
    /// [`fd_slots`](crate::NvCacheConfig::fd_slots) is too small for the
    /// open/close churn.
    pub fd_slot_waits: AtomicU64,
    /// Cleanup batches completed.
    pub cleanup_batches: AtomicU64,
    /// Entries propagated to the inner file system.
    pub entries_propagated: AtomicU64,
    /// `fsync` calls issued by the cleanup workers.
    pub cleanup_fsyncs: AtomicU64,
    /// Entries replayed by recovery.
    pub recovered_entries: AtomicU64,
    /// Inner-file-system errors hit by the cleanup workers (each one
    /// poisons the owning stripe; see
    /// [`NvCache::poisoned_stripes`](crate::NvCache::poisoned_stripes)).
    pub inner_io_errors: AtomicU64,
    /// Files moved between tiers by the migrator (background sweeps,
    /// [`rebalance`](crate::NvCache::rebalance)/[`migrate`](crate::NvCache::migrate)
    /// calls and cross-tier renames; recovery-repair moves are reported in
    /// [`RecoveryReport::files_repaired`](crate::RecoveryReport::files_repaired)
    /// instead). Always `0` on a single-backend mount.
    pub files_migrated: AtomicU64,
    /// Payload bytes copied across tiers by those migrations.
    pub migration_bytes: AtomicU64,
    /// Migrations that moved a file **onto** the placement policy's fast
    /// tier ([`PlacementPolicy::fast_tier`](crate::PlacementPolicy) — `0`
    /// forever under a policy with no fast tier, e.g. the default
    /// [`RouterPlacement`](crate::RouterPlacement)).
    pub files_promoted: AtomicU64,
    /// Migrations that moved a file **off** the fast tier (demotions:
    /// heat decayed below the demote threshold, or the fast-tier budget
    /// evicted the coldest residents).
    pub files_demoted: AtomicU64,
    /// Payload bytes of catalogued (closed) files currently sitting on the
    /// placement policy's fast tier — a gauge, refreshed after every
    /// migration and rebalance sweep; the occupancy the
    /// [`HeatPolicy`](crate::HeatPolicy) budget is enforced against.
    pub fast_tier_bytes: AtomicU64,
    /// Entries a capacity-bounded migrator catalog
    /// ([`catalog_capacity`](crate::NvCacheConfig::catalog_capacity))
    /// dropped to stay within its bound — always correctly-placed cold
    /// files (misplaced or promote-worthy entries are pinned). Always `0`
    /// on an unbounded catalog. A high rate relative to closes means the
    /// capacity is too small for the working set.
    pub catalog_evictions: AtomicU64,
    /// Closes that re-admitted a path the bounded catalog had previously
    /// evicted — each one restarted heat accumulation from the file's
    /// open-time state, so a rising rate means the catalog is thrashing
    /// (capacity below the *recurring* working set).
    pub catalog_readmissions: AtomicU64,
    /// Per-stripe breakdown of the log counters (one entry per
    /// [`log_shards`](crate::NvCacheConfig::log_shards)).
    pub per_shard: Box<[ShardStats]>,
    /// Per-queue-pair front-end counters (one entry per
    /// [`sq_pairs`](crate::NvCacheConfig::sq_pairs); empty when the
    /// multi-queue front-end is off).
    pub per_queue: Box<[QueueStats]>,
    /// Entries propagated to each inner backend (one entry per
    /// [`backends`](crate::NvCacheConfig::backends) — a single element on a
    /// non-tiered mount). Shows how the router actually spread the write
    /// traffic over the tiers.
    pub per_backend_propagated: Box<[AtomicU64]>,
}

impl NvCacheStats {
    /// Counters for `shards` log stripes, `backends` inner file systems and
    /// `queues` submission/completion queue pairs (`0` = no multi-queue
    /// front-end).
    pub fn new(shards: usize, backends: usize, queues: usize) -> NvCacheStats {
        let mut per_shard = Vec::with_capacity(shards.max(1));
        per_shard.resize_with(shards.max(1), ShardStats::default);
        let mut per_backend = Vec::with_capacity(backends.max(1));
        per_backend.resize_with(backends.max(1), || AtomicU64::new(0));
        let mut per_queue = Vec::with_capacity(queues);
        per_queue.resize_with(queues, QueueStats::default);
        NvCacheStats {
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            bytes_logged: AtomicU64::new(0),
            entries_logged: AtomicU64::new(0),
            groups_logged: AtomicU64::new(0),
            read_hits: AtomicU64::new(0),
            read_misses: AtomicU64::new(0),
            dirty_misses: AtomicU64::new(0),
            bypass_reads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            log_full_waits: AtomicU64::new(0),
            fd_slot_waits: AtomicU64::new(0),
            cleanup_batches: AtomicU64::new(0),
            entries_propagated: AtomicU64::new(0),
            cleanup_fsyncs: AtomicU64::new(0),
            recovered_entries: AtomicU64::new(0),
            inner_io_errors: AtomicU64::new(0),
            files_migrated: AtomicU64::new(0),
            migration_bytes: AtomicU64::new(0),
            files_promoted: AtomicU64::new(0),
            files_demoted: AtomicU64::new(0),
            fast_tier_bytes: AtomicU64::new(0),
            catalog_evictions: AtomicU64::new(0),
            catalog_readmissions: AtomicU64::new(0),
            per_shard: per_shard.into_boxed_slice(),
            per_queue: per_queue.into_boxed_slice(),
            per_backend_propagated: per_backend.into_boxed_slice(),
        }
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> NvCacheStatsSnapshot {
        NvCacheStatsSnapshot {
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            bytes_logged: self.bytes_logged.load(Ordering::Relaxed),
            entries_logged: self.entries_logged.load(Ordering::Relaxed),
            groups_logged: self.groups_logged.load(Ordering::Relaxed),
            read_hits: self.read_hits.load(Ordering::Relaxed),
            read_misses: self.read_misses.load(Ordering::Relaxed),
            dirty_misses: self.dirty_misses.load(Ordering::Relaxed),
            bypass_reads: self.bypass_reads.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            log_full_waits: self.log_full_waits.load(Ordering::Relaxed),
            fd_slot_waits: self.fd_slot_waits.load(Ordering::Relaxed),
            cleanup_batches: self.cleanup_batches.load(Ordering::Relaxed),
            entries_propagated: self.entries_propagated.load(Ordering::Relaxed),
            cleanup_fsyncs: self.cleanup_fsyncs.load(Ordering::Relaxed),
            recovered_entries: self.recovered_entries.load(Ordering::Relaxed),
            inner_io_errors: self.inner_io_errors.load(Ordering::Relaxed),
            files_migrated: self.files_migrated.load(Ordering::Relaxed),
            migration_bytes: self.migration_bytes.load(Ordering::Relaxed),
            files_promoted: self.files_promoted.load(Ordering::Relaxed),
            files_demoted: self.files_demoted.load(Ordering::Relaxed),
            fast_tier_bytes: self.fast_tier_bytes.load(Ordering::Relaxed),
            catalog_evictions: self.catalog_evictions.load(Ordering::Relaxed),
            catalog_readmissions: self.catalog_readmissions.load(Ordering::Relaxed),
            per_shard: self.per_shard.iter().map(ShardStats::snapshot).collect(),
            per_queue: self.per_queue.iter().map(QueueStats::snapshot).collect(),
            per_backend_propagated: self
                .per_backend_propagated
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Default for NvCacheStats {
    fn default() -> Self {
        NvCacheStats::new(1, 1, 0)
    }
}

/// Plain-value snapshot of [`NvCacheStats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NvCacheStatsSnapshot {
    /// Intercepted write calls.
    pub writes: u64,
    /// Intercepted read calls.
    pub reads: u64,
    /// Bytes appended to the NVMM log (payload only).
    pub bytes_logged: u64,
    /// Log entries created.
    pub entries_logged: u64,
    /// Multi-entry groups created.
    pub groups_logged: u64,
    /// Reads served entirely from the read cache.
    pub read_hits: u64,
    /// Page faults into the read cache.
    pub read_misses: u64,
    /// Misses that required the dirty-miss procedure.
    pub dirty_misses: u64,
    /// Reads that bypassed the read cache.
    pub bypass_reads: u64,
    /// Pages evicted from the read cache.
    pub evictions: u64,
    /// Saturation events (writer waited for space).
    pub log_full_waits: u64,
    /// Times `open` hit an exhausted fd table and forced a drain.
    pub fd_slot_waits: u64,
    /// Cleanup batches completed.
    pub cleanup_batches: u64,
    /// Entries propagated to the inner file system.
    pub entries_propagated: u64,
    /// Cleanup `fsync` calls.
    pub cleanup_fsyncs: u64,
    /// Entries replayed by recovery.
    pub recovered_entries: u64,
    /// Inner-file-system errors (stripe poisonings).
    pub inner_io_errors: u64,
    /// Files moved between tiers by the migrator.
    pub files_migrated: u64,
    /// Payload bytes copied across tiers by those migrations.
    pub migration_bytes: u64,
    /// Migrations onto the placement policy's fast tier (promotions).
    pub files_promoted: u64,
    /// Migrations off the fast tier (demotions).
    pub files_demoted: u64,
    /// Catalogued payload bytes currently on the fast tier (gauge).
    pub fast_tier_bytes: u64,
    /// Entries evicted from a capacity-bounded migrator catalog.
    pub catalog_evictions: u64,
    /// Closes that re-admitted a previously evicted path (thrash signal).
    pub catalog_readmissions: u64,
    /// Per-stripe breakdown of the log counters.
    pub per_shard: Vec<ShardStatsSnapshot>,
    /// Per-queue-pair front-end counters (empty without `sq_pairs`).
    pub per_queue: Vec<QueueStatsSnapshot>,
    /// Entries propagated to each inner backend (tiered mounts; one element
    /// otherwise).
    pub per_backend_propagated: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_mirrors_counters() {
        let s = NvCacheStats::default();
        s.writes.store(3, Ordering::Relaxed);
        s.dirty_misses.store(1, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.writes, 3);
        assert_eq!(snap.dirty_misses, 1);
        assert_eq!(snap.reads, 0);
    }

    #[test]
    fn per_shard_counters_snapshot_independently() {
        let s = NvCacheStats::new(3, 1, 0);
        assert_eq!(s.per_shard.len(), 3);
        s.per_shard[1].entries_propagated.store(7, Ordering::Relaxed);
        s.per_shard[2].log_full_waits.store(2, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.per_shard[0], ShardStatsSnapshot::default());
        assert_eq!(snap.per_shard[1].entries_propagated, 7);
        assert_eq!(snap.per_shard[2].log_full_waits, 2);
    }

    #[test]
    fn default_has_one_shard() {
        assert_eq!(NvCacheStats::default().per_shard.len(), 1);
        assert_eq!(NvCacheStats::default().per_backend_propagated.len(), 1);
    }

    #[test]
    fn per_backend_counters_follow_the_topology() {
        let s = NvCacheStats::new(2, 3, 0);
        assert_eq!(s.per_shard.len(), 2);
        assert_eq!(s.per_backend_propagated.len(), 3);
        s.per_backend_propagated[2].store(5, Ordering::Relaxed);
        assert_eq!(s.snapshot().per_backend_propagated, vec![0, 0, 5]);
    }

    #[test]
    fn per_queue_counters_follow_the_front_end() {
        assert!(NvCacheStats::new(2, 1, 0).per_queue.is_empty());
        let s = NvCacheStats::new(1, 1, 4);
        assert_eq!(s.per_queue.len(), 4);
        s.per_queue[3].sq_submitted.store(9, Ordering::Relaxed);
        s.per_queue[3].sq_batch_hist[2].store(1, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.per_queue[0], QueueStatsSnapshot::default());
        assert_eq!(snap.per_queue[3].sq_submitted, 9);
        assert_eq!(snap.per_queue[3].sq_batch_hist[2], 1);
    }
}
