//! # NVCache — a plug-and-play NVMM-based I/O booster for legacy systems
//!
//! Reproduction of *NVCache* (Dulong et al., DSN 2021, arXiv:2105.10397): a
//! user-space, write-back cache in non-volatile main memory that makes the
//! writes of unmodified POSIX applications synchronously durable at NVMM
//! speed, while asynchronously propagating them through the regular kernel
//! I/O stack to a mass-storage device of arbitrary size.
//!
//! The crate implements the paper's §II–III designs in full:
//!
//! * the **write cache** — a circular NVMM log of fixed-size entries with
//!   per-entry commit flags and group commit for large writes (Algorithm
//!   1);
//! * the **read cache** — a bounded pool of page contents indexed by
//!   per-file lock-free radix trees, with approximate LRU eviction and the
//!   Table II page state machine ([`Radix`], [`PageState`]);
//! * the **two-lock-per-page concurrency scheme** (atomic lock + cleanup
//!   lock + dirty counter, §II-D);
//! * the **cleanup workers** with write batching (§III);
//! * the **recovery procedure** replaying committed entries after a crash;
//! * the **interception semantics** of Table III (`fsync` no-ops, NVCache's
//!   own cursors/sizes) via the [`vfs::FileSystem`] trait plus cursor-based
//!   [`NvCache::write`]/[`NvCache::read`]/[`NvCache::lseek`].
//!
//! Hardware primitives (`pwb`/`pfence`/`psync`) come from the [`nvmm`]
//! simulator, which also provides crash injection so the durability claims
//! are *tested*, not assumed.
//!
//! ## The striped log
//!
//! The paper funnels every write through one circular log drained by one
//! cleanup thread — a single-consumer bottleneck under multi-core write
//! pressure. [`NvCacheConfig::log_shards`] splits the log into `N`
//! independent **stripes**, each with its own persistent tail, head/tail
//! atomics, commit/free time stamps, condition variables, flush barrier and
//! cleanup worker. `log_shards = 1` (the default) keeps the persistent
//! image and observable behavior byte-for-byte seed-compatible.
//!
//! The invariants that make striping safe:
//!
//! 1. **Routing** — a write is routed to a stripe by hashing
//!    `(device, inode, file_off / entry_size)`; group commits (multi-entry
//!    writes) stay contiguous in a single stripe, so the cleanup worker
//!    never sees a torn group and recovery can treat groups atomically.
//! 2. **Global sequence** — every entry is stamped with a globally
//!    monotonic sequence number, assigned *under the owning stripe's
//!    allocation lock* so ring order equals global order within each
//!    stripe. Overlapping writes serialize on their page locks before
//!    allocating, so per-page global order equals acknowledgement order.
//! 3. **Ordered propagation handoff** — entries touching the same page may
//!    live in different stripes; each [`PageDescriptor`] carries a queue of
//!    the global sequence numbers of its *unfreed* entries. Per-page order
//!    must hold when entries are freed, not only when they are propagated:
//!    a cleanup worker propagates an entry only once nothing but its own
//!    batch is ahead of it in the queue of every page it touches, and pops
//!    the batch's entries only after freeing them. A worker never waits
//!    while holding unfreed entries (an entry that would wait ends the
//!    batch), so it only waits for *smaller* sequence numbers held by
//!    other stripes — no cycles, no cross-stripe serialization of
//!    unrelated pages.
//! 4. **Merge-replay recovery** — each stripe is scanned from its own
//!    persistent tail (a sorted run, by invariant 2) and the committed
//!    groups are replayed in one k-way merge by global sequence number:
//!    exactly the committed prefix, in exactly the acknowledged order.
//! 5. **Flush fan-out** — `flush`/`close`/`shutdown` barriers drain *all*
//!    stripes; close keeps its persistent fd slot alive until every
//!    stripe's tail passes the per-stripe drain target snapshotted at close
//!    time.
//!
//! Back-pressure (the Fig. 5 saturation collapse) is preserved per stripe:
//! each stripe couples its writers to its own cleanup worker's virtual
//! `tail_time`/`free_stamps`, and [`NvCacheStats::per_shard`] exposes the
//! per-stripe saturation and propagation counters.
//!
//! ## The asynchronous drain
//!
//! The paper's cleanup thread propagates entries with strictly synchronous
//! `pwrite`+`fsync`, paying the inner device's latency once per entry.
//! [`NvCacheConfig::queue_depth`] instead drains each batch through an
//! io_uring-style submission ring ([`fiosim::IoRing`]): up to `queue_depth`
//! propagation writes overlap on the inner device, completions are reaped,
//! and one coalesced `fsync` per touched file closes the batch. The stripe
//! tail only advances after the *whole* batch's completions (writes and
//! fsyncs) have landed, so the crash-consistency contract — recovery
//! replays everything past the persistent tail — is unchanged, and
//! `queue_depth = 1` (the default) is behaviorally *and* temporally
//! identical to the synchronous drain.
//!
//! Inner-file-system errors during the drain no longer panic the worker:
//! they are counted ([`NvCacheStats::inner_io_errors`]) and **poison** the
//! stripe — writes routed to it fail fast, flush barriers return instead of
//! hanging, and the stripe's pending entries stay in NVMM for a
//! [`Mount::Recover`] mount (see [`NvCache::poisoned_stripes`]).
//!
//! ## The mount stack
//!
//! Mounting goes through [`NvCache::builder`]: pick the NVMM region, the
//! inner backend(s), the configuration and the [`Mount`] mode, then
//! [`mount`](NvCacheBuilder::mount).
//!
//! A **tiered** stack supplies several backends and a [`Router`] that maps
//! each file to one of them (hot files over NOVA, cold bulk over ext4+HDD —
//! the ROADMAP's multi-backend item): [`PathPrefixRouter`] for explicit
//! placement, [`HashRouter`] for uniform spreading. The routing decision is
//! taken once per open, recorded in the volatile descriptor *and* in the
//! persistent fd slot (region header v3), and the per-stripe cleanup
//! workers drain each tier through its own submission ring — so a crash
//! replays every pending entry to the backend that acknowledged it, never
//! to wherever the router would place the file today.
//!
//! ## Tier rebalancing
//!
//! Placement is no longer fixed forever at open time: the **tier migrator**
//! (`migrate` module) moves closed, fully drained files between backends
//! with a crash-safe copy → stamp → unlink protocol journaled in a
//! persistent fd slot — a crash at any step recovers to exactly one
//! authoritative copy. [`NvCacheConfig::with_migration`] picks the
//! [`MigrationPolicy`]: explicit [`NvCache::rebalance`] /
//! [`NvCache::migrate`] sweeps (`OnDemand`) or a background worker that
//! re-homes misplaced files on its own (`Background`), driven by the
//! placement policy's targets, per-file access heat and the
//! per-tier propagation load. A [`Mount::RecoverRepair`] mount re-homes
//! every file recovery found misplaced before the cache comes up, and
//! [`NvCacheConfig::with_cross_tier_rename`] optionally turns the
//! EXDEV of a cross-tier `rename` into a migrate-then-rename. All of it is
//! opt-in: the default policy keeps single-backend mounts byte- and
//! virtual-time-identical to a migrator-less build.
//!
//! ## Heat-driven placement
//!
//! *Where* the migrator moves files is decided by a [`PlacementPolicy`]
//! (`placement` module). The default, [`RouterPlacement`], re-homes files
//! to the router's static rules — the pre-policy behavior, byte- and
//! virtual-time-identical. [`HeatPolicy`] instead drives placement from
//! per-file **temperature**: every intercepted read/write decays the
//! file's stored heat to the touching call's *virtual* clock
//! (`heat ← heat · 2^(−Δt / half_life)`, no wall clock anywhere) and adds
//! one; a sweep promotes files whose decayed heat crosses
//! `promote_threshold` onto the designated fast tier — regardless of what
//! the router says about their path — and demotes files cooling below
//! `demote_threshold` back to the router baseline. The gap between the
//! thresholds is a hysteresis band (files inside it stay put, so a file
//! moves at most once per threshold crossing), and an optional fast-tier
//! byte budget demotes the coldest residents when the hot set outgrows
//! the fast medium. Temperature survives close → reopen through the
//! migrator catalog; after a remount it is gone (volatile by design) and
//! recovery judges files by [`PlacementPolicy::place_cold`].
//! [`NvCacheStats::files_promoted`] / `files_demoted` /
//! `fast_tier_bytes` expose what the policy is doing. See
//! `docs/TUNING.md` for when to reach for which policy.
//!
//! ## The multi-queue submission front-end
//!
//! The synchronous `pwrite` path pays the intercepted call's bookkeeping
//! (`libc_overhead`) and a full `pfence`+`psync` fence pair *per write* —
//! fine for the paper's single-threaded FIO, but front-end fixed costs,
//! not NVMM bandwidth, dominate small writes as simulated cores grow.
//! [`NvCacheConfig::with_sq_pairs`] adds NVMe-style **submission/completion
//! queue pairs**: each simulated core takes one [`QueuePair`]
//! ([`NvCache::queue_pair`]), enqueues write/flush ops with
//! [`QueuePair::submit_pwrite`] (a user-space memcpy — no per-op call
//! overhead), rings [`QueuePair::ring_doorbell`] to make everything
//! submitted durable in one **batch-reserved** stripe window per routed
//! stripe (one fence pair per stripe group instead of one per write), and
//! reaps completions with [`QueuePair::reap`]. A synchronous write is the
//! same commit routine run on a window of one. Heat and statistics
//! accumulate per queue pair and flush on reap, so [`HeatPolicy`] and
//! [`NvCacheStats`] observe exactly the synchronous path's values.
//! `sq_pairs = 0` (the default) does not construct the front-end.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use nvcache::{NvCache, NvCacheConfig};
//! use nvmm::{NvDimm, NvRegion, NvmmProfile};
//! use simclock::ActorClock;
//! use vfs::{FileSystem, MemFs, OpenFlags};
//!
//! # fn main() -> Result<(), vfs::IoError> {
//! let clock = ActorClock::new();
//! let cfg = NvCacheConfig::tiny();
//! let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
//! let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
//! let cache = NvCache::builder(NvRegion::whole(dimm))
//!     .backend(inner)
//!     .config(cfg)
//!     .mount(&clock)?;
//!
//! let fd = cache.open("/db/wal", OpenFlags::RDWR | OpenFlags::CREATE, &clock)?;
//! cache.pwrite(fd, b"synchronously durable", 0, &clock)?;
//! cache.fsync(fd, &clock)?; // no-op: already durable
//! cache.close(fd, &clock)?;
//! cache.shutdown(&clock);
//! # Ok(())
//! # }
//! ```

mod builder;
mod cache;
mod cleanup;
mod config;
mod files;
pub mod layout;
mod lockcheck;
mod log;
mod migrate;
mod pagedesc;
mod placement;
#[cfg(feature = "pmcheck")]
pub mod pm_mutation;
mod radix;
mod readcache;
mod recovery;
mod router;
mod squeue;
mod stats;

#[cfg(test)]
mod heat_tests;
#[cfg(test)]
mod migrate_tests;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod tiering_tests;
#[cfg(test)]
mod write_path_tests;

pub use builder::{LayeredTier, Mount, NvCacheBuilder};
pub use cache::NvCache;
pub use config::NvCacheConfig;
pub use migrate::{MigrationPolicy, RebalanceReport};
pub use pagedesc::{PageDescriptor, PageSlot, PageState};
pub use placement::{FileTemperature, HeatPolicy, PlacementPolicy, RouterPlacement};
pub use radix::Radix;
pub use recovery::RecoveryReport;
pub use router::{HashRouter, PathPrefixRouter, Router, SingleBackend};
pub use squeue::{Completion, QueuePair};
pub use stats::{
    NvCacheStats, NvCacheStatsSnapshot, QueueStats, QueueStatsSnapshot, ShardStats,
    ShardStatsSnapshot, SQ_BATCH_BUCKETS,
};
// Re-exported so layered mounts can be assembled from `nvcache` alone.
pub use vfs::{
    CryptLayer, CryptStats, DelayLayer, DelayProfile, DelayStats, FaultLayer, FaultOp, FaultRule,
    FaultTrigger, Layer, RamCacheLayer, RamCacheStats,
};

/// Seeded-schedule stress point: under the `sched-stress` feature every
/// call yields the thread on a deterministic subsequence of invocations,
/// shaking out interleavings of the reservation/doorbell lock split without
/// a full model checker. Compiles to nothing otherwise.
#[inline]
pub(crate) fn stress_point() {
    #[cfg(feature = "sched-stress")]
    {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TICK: AtomicU64 = AtomicU64::new(0);
        let t = TICK.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        if (t ^ (t >> 7)) % 3 == 0 {
            std::thread::yield_now();
        }
    }
}
