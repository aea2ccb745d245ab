//! The mount-stack builder: [`NvCacheBuilder`] assembles an
//! [`NvCache`](crate::NvCache) over one or many inner backends and mounts it
//! by formatting a fresh region or recovering an existing one.
//!
//! The paper's constructor pair (`format`/`recover`) hard-wired exactly one
//! inner file system and one construction mode each. The builder composes
//! the same pieces — NVMM region, inner backend(s), configuration, mount
//! mode — explicitly, and is the only way to mount a **tiered** stack where
//! a [`Router`] spreads files over several backends:
//!
//! ```
//! use std::sync::Arc;
//! use nvcache::{Mount, NvCache, NvCacheConfig, PathPrefixRouter};
//! use nvmm::{NvDimm, NvRegion, NvmmProfile};
//! use simclock::ActorClock;
//! use vfs::{FileSystem, MemFs};
//!
//! # fn main() -> Result<(), vfs::IoError> {
//! let clock = ActorClock::new();
//! let cfg = NvCacheConfig::tiny();
//! let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
//! let hot: Arc<dyn FileSystem> = Arc::new(MemFs::new());
//! let cold: Arc<dyn FileSystem> = Arc::new(MemFs::new());
//! let cache = NvCache::builder(NvRegion::whole(dimm))
//!     .backends(
//!         Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
//!         vec![cold, hot],
//!     )
//!     .config(cfg)
//!     .mode(Mount::Format)
//!     .mount(&clock)?;
//! cache.shutdown(&clock);
//! # Ok(())
//! # }
//! ```
//!
//! A single-backend mount keeps the seed's region header encoding (the
//! backend-count word stays zero).

use std::sync::Arc;

use nvmm::{NvRegion, PmemInts};
use simclock::ActorClock;
use vfs::{FileSystem, IoError, IoResult, Layer};

use crate::cache::NvCache;
use crate::layout::{self, Layout};
use crate::placement::{PlacementPolicy, RouterPlacement};
use crate::router::{Router, SingleBackend};
use crate::NvCacheConfig;

/// One tier of a [`NvCacheBuilder::backends_stacked`] mount: the layer
/// stack (outermost first, empty = bare) and the inner file system it wraps.
pub type LayeredTier = (Vec<Arc<dyn Layer>>, Arc<dyn FileSystem>);

/// How [`NvCacheBuilder::mount`] treats the NVMM region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mount {
    /// Format the region as a fresh, empty log (destroys previous content).
    #[default]
    Format,
    /// Run the recovery procedure on a previously formatted region — replay
    /// committed entries to their recorded backends, sync, empty the log —
    /// then mount. Recovering a legacy (single-backend) image into a
    /// multi-backend stack migrates it: the router places each reopened
    /// file, and the header is stamped v3 afterwards. Interrupted tier
    /// migrations are always repaired from their journal slots; files found
    /// *misplaced* (recovered backend ≠ current router placement) are only
    /// counted, not moved.
    Recover,
    /// [`Mount::Recover`], plus a **repair pass**: after the replay is
    /// durable, every misplaced file is re-homed to the router's current
    /// placement through the crash-safe migration protocol
    /// (copy → stamp → unlink, `core/src/migrate.rs`), so the mount comes
    /// up with `files_misplaced == 0` and the moves counted in
    /// [`RecoveryReport::files_repaired`](crate::RecoveryReport::files_repaired).
    RecoverRepair,
}

/// Builder for mounting an [`NvCache`] stack; obtained from
/// [`NvCache::builder`].
///
/// Defaults: [`NvCacheConfig::default`] configuration, [`Mount::Format`]
/// mode, no backends (at least one of [`backend`](NvCacheBuilder::backend)
/// or [`backends`](NvCacheBuilder::backends) is mandatory).
#[must_use = "a builder does nothing until .mount() is called"]
pub struct NvCacheBuilder {
    region: NvRegion,
    cfg: NvCacheConfig,
    backends: Vec<Arc<dyn FileSystem>>,
    /// One layer stack per backend (empty = bare). Applied and validated at
    /// [`mount`](NvCacheBuilder::mount) time, first element outermost.
    stacks: Vec<Vec<Arc<dyn Layer>>>,
    router: Arc<dyn Router>,
    mode: Mount,
}

impl std::fmt::Debug for NvCacheBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvCacheBuilder")
            .field("backends", &self.backends.len())
            .field("stack_depths", &self.stacks.iter().map(Vec::len).collect::<Vec<_>>())
            .field("router", &self.router)
            .field("mode", &self.mode)
            .finish()
    }
}

impl NvCacheBuilder {
    pub(crate) fn new(region: NvRegion) -> NvCacheBuilder {
        NvCacheBuilder {
            region,
            cfg: NvCacheConfig::default(),
            backends: Vec::new(),
            stacks: Vec::new(),
            router: Arc::new(SingleBackend),
            mode: Mount::Format,
        }
    }

    /// Mounts over a single inner backend (the paper's deployment). Replaces
    /// any previously set backends and installs the implicit
    /// [`SingleBackend`] router.
    pub fn backend(mut self, inner: Arc<dyn FileSystem>) -> Self {
        self.stacks = vec![Vec::new()];
        self.backends = vec![inner];
        self.router = Arc::new(SingleBackend);
        self
    }

    /// Mounts over several inner backends, with `router` deciding which
    /// backend owns each file (see [`Router`]). `inners[i]` is backend `i`.
    pub fn backends(mut self, router: Arc<dyn Router>, inners: Vec<Arc<dyn FileSystem>>) -> Self {
        self.stacks = vec![Vec::new(); inners.len()];
        self.backends = inners;
        self.router = router;
        self
    }

    /// Mounts over a single inner backend wrapped in a vertical layer stack
    /// (first element outermost — see [`vfs::stack`]), so the tier the
    /// cache drains into can be e.g. `crypt(delay(ssd))`:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use nvcache::{NvCache, NvCacheConfig};
    /// use nvmm::{NvDimm, NvRegion, NvmmProfile};
    /// use simclock::{ActorClock, SimTime};
    /// use vfs::{CryptLayer, DelayLayer, MemFs};
    ///
    /// # fn main() -> Result<(), vfs::IoError> {
    /// let clock = ActorClock::new();
    /// let cfg = NvCacheConfig::tiny();
    /// let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
    /// let cache = NvCache::builder(NvRegion::whole(dimm))
    ///     .backend_stack(
    ///         vec![
    ///             Arc::new(CryptLayer::new(0xFEED)),
    ///             Arc::new(DelayLayer::fixed(SimTime::from_micros(5))),
    ///         ],
    ///         Arc::new(MemFs::new()),
    ///     )
    ///     .config(cfg)
    ///     .mount(&clock)?;
    /// cache.shutdown(&clock);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// The cleanup, migration and recovery paths work unchanged through any
    /// stack, because a layered backend *is* a plain
    /// [`FileSystem`]. The stack is validated (depth bound) at
    /// [`mount`](NvCacheBuilder::mount).
    pub fn backend_stack(
        mut self,
        layers: Vec<Arc<dyn Layer>>,
        inner: Arc<dyn FileSystem>,
    ) -> Self {
        self.stacks = vec![layers];
        self.backends = vec![inner];
        self.router = Arc::new(SingleBackend);
        self
    }

    /// Mounts over several inner backends, each wrapped in its own layer
    /// stack (`tiers[i]` = `(layers, inner)` for backend `i`, empty layer
    /// vec = bare). The layered combination of [`backends`](Self::backends)
    /// and [`backend_stack`](Self::backend_stack).
    pub fn backends_stacked(mut self, router: Arc<dyn Router>, tiers: Vec<LayeredTier>) -> Self {
        let (stacks, backends) = tiers.into_iter().unzip();
        self.stacks = stacks;
        self.backends = backends;
        self.router = router;
        self
    }

    /// Sets the cache configuration (defaults to [`NvCacheConfig::default`]).
    /// The builder overrides [`NvCacheConfig::backends`] with the actual
    /// backend count at mount time.
    ///
    /// Geometry knobs (`entry_size`, `nb_entries`, `fd_slots`,
    /// `log_shards`) are burned into the NVMM header and must match on a
    /// [`Mount::Recover`]; purely volatile knobs —
    /// [`sq_pairs`](NvCacheConfig::sq_pairs) among them — leave no trace
    /// in the region and may change freely across remounts (the front-end
    /// queues are rebuilt empty; unacknowledged submissions were never
    /// durable by contract).
    pub fn config(mut self, cfg: NvCacheConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the mount mode (defaults to [`Mount::Format`]).
    pub fn mode(mut self, mode: Mount) -> Self {
        self.mode = mode;
        self
    }

    /// Mounts the stack: formats or recovers the region per the configured
    /// [`Mount`] mode and starts the cleanup workers.
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] if no backend was supplied, the router's
    /// fan-out exceeds the backend count, a layer stack exceeds
    /// [`vfs::MAX_STACK_DEPTH`], the region is too small
    /// ([`Mount::Format`]), or the region's on-NVMM geometry disagrees with
    /// the configuration ([`Mount::Recover`] — including an attempt to mount
    /// a tiered image with fewer backends than it references). Recovery
    /// itself can surface any inner-file-system error.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent
    /// ([`NvCacheConfig::validate`]).
    pub fn mount(self, clock: &ActorClock) -> IoResult<NvCache> {
        let NvCacheBuilder { region, cfg, backends, stacks, router, mode } = self;
        if backends.is_empty() {
            return Err(IoError::InvalidArgument(
                "NvCacheBuilder needs at least one backend (.backend() or .backends())".into(),
            ));
        }
        if router.fan_out() > backends.len() {
            return Err(IoError::InvalidArgument(format!(
                "router {:?} fans out to {} backends but only {} were supplied",
                router,
                router.fan_out(),
                backends.len()
            )));
        }
        // Apply the per-tier layer stacks (validated here: depth bound).
        // Everything below — cleanup, migration, recovery — sees only the
        // wrapped Arc<dyn FileSystem> and works unchanged.
        let backends: Vec<Arc<dyn FileSystem>> = backends
            .into_iter()
            .zip(stacks)
            .map(|(inner, layers)| vfs::stack(&layers, inner))
            .collect::<IoResult<_>>()?;
        let cfg = cfg.with_backends(backends.len());
        cfg.validate();
        let backends: Box<[Arc<dyn FileSystem>]> = backends.into();
        match mode {
            Mount::Format => {
                format_region(&region, &cfg, clock)?;
                Ok(NvCache::start(region, backends, router, cfg, None, Vec::new()))
            }
            Mount::Recover | Mount::RecoverRepair => {
                check_geometry(&region, &cfg)?;
                // Misplacement (and the repair pass's target) is judged by
                // the mount's placement policy; recovered files carry only
                // whatever temperature summary a heat-format image persisted
                // (nothing otherwise), so the policy's cold placement
                // applies to everything below the retain threshold.
                let placement: Arc<dyn PlacementPolicy> =
                    cfg.placement.clone().unwrap_or_else(|| Arc::new(RouterPlacement));
                // Recovery stamps the (possibly migrated) backend count and
                // heat-format epoch itself — before its repair pass, whose
                // journal slots need the v3 header to be parseable after a
                // crash mid-repair.
                let (report, misplaced, heat_seeds) = crate::recovery::recover(
                    &region,
                    &backends,
                    router.as_ref(),
                    placement.as_ref(),
                    cfg.backends,
                    cfg.persist_heat,
                    mode == Mount::RecoverRepair,
                    clock,
                )?;
                let cache = NvCache::start(region, backends, router, cfg, Some(report), misplaced);
                // Re-seed the heat catalog from the image's persisted
                // summaries: the next sweep re-promotes the recovered hot
                // set without a single file being re-touched. Only when the
                // policy actually reads temperature — seeding a
                // router-placed mount would grow the catalog for nothing.
                if cache.shared.track_heat && !heat_seeds.is_empty() {
                    cache.shared.migrator.seed_heat(heat_seeds, clock.now(), &cache.shared.stats);
                }
                Ok(cache)
            }
        }
    }
}

/// Writes a fresh log image (header, invalid fd slots, free entries) —
/// the paper's `format` step. A `log_shards = 1`, single-backend format is
/// byte-for-byte identical to the seed image.
fn format_region(region: &NvRegion, cfg: &NvCacheConfig, clock: &ActorClock) -> IoResult<()> {
    let lay = Layout::for_config(cfg);
    if region.len() < lay.total_bytes() {
        return Err(IoError::InvalidArgument(format!(
            "region of {} bytes cannot hold the configured log ({} bytes)",
            region.len(),
            lay.total_bytes()
        )));
    }
    region.write_u64(layout::OFF_MAGIC, layout::MAGIC, clock);
    region.write_u64(layout::OFF_ENTRY_SIZE, cfg.entry_size as u64, clock);
    region.write_u64(layout::OFF_NB_ENTRIES, cfg.nb_entries, clock);
    region.write_u64(layout::OFF_PTAIL, 0, clock);
    region.write_u64(layout::OFF_FD_SLOTS, cfg.fd_slots as u64, clock);
    region.write_u64(layout::OFF_PAGE_SIZE, cfg.page_size as u64, clock);
    if cfg.log_shards > 1 {
        // v2 header: the stripe count plus one persistent tail per stripe.
        region.write_u64(layout::OFF_LOG_SHARDS, cfg.log_shards as u64, clock);
        for s in 0..cfg.log_shards as u64 {
            region.write_u64(layout::OFF_STRIPE_TAILS + 8 * s, 0, clock);
        }
    } else {
        // Single stripe: store the v1 encoding (0). On a fresh region this
        // writes the bytes already there — byte-for-byte seed compatibility
        // — while clearing a stale shard count when a previously striped
        // region is reformatted.
        region.write_u64(layout::OFF_LOG_SHARDS, 0, clock);
    }
    // Same encoding trick for the backend count: 0 = single backend (the
    // v1/v2 formats), so a one-backend builder mount stays seed-identical.
    let backends_word = if cfg.backends > 1 { cfg.backends as u64 } else { 0 };
    region.write_u64(layout::OFF_BACKENDS, backends_word, clock);
    // And for the heat-format epoch: 0 = no heat words in the fd slots.
    // Written (and flushed on its own line, away from the prefix below)
    // even when 0, so reformatting a region that previously persisted heat
    // clears the stale epoch.
    let heat_word = if lay.heat_slots() { layout::HEAT_EPOCH } else { 0 };
    region.write_u64(layout::OFF_HEAT_EPOCH, heat_word, clock);
    region.pwb(layout::OFF_HEAT_EPOCH, 8);
    // Flush only the written header prefix, not all of `HEADER_BYTES`: the
    // rest of the header area is never-stored padding, and flushing those
    // clean lines is pure overhead (flagged by the pmcheck redundant-pwb
    // lint). The stripe-tail array is the last field written (shards > 1).
    let header_written = if cfg.log_shards > 1 {
        layout::OFF_STRIPE_TAILS + 8 * cfg.log_shards as u64
    } else {
        layout::OFF_BACKENDS + 8
    };
    region.pwb(0, header_written as usize);
    for slot in 0..cfg.fd_slots {
        let base = lay.fd_slot(slot);
        region.write_u64(base, 0, clock);
        region.pwb(base, 8);
    }
    for slot in 0..cfg.nb_entries {
        let base = lay.entry(slot);
        region.write_u64(base + layout::ENT_COMMIT, 0, clock);
        region.pwb(base + layout::ENT_COMMIT, 8);
    }
    region.psync(clock);
    Ok(())
}

/// Pre-recovery check that the on-NVMM geometry agrees with `cfg`. The
/// backend count may *grow* across a recovery (v2 → v3 migration, or adding
/// tiers to a tiered image); it must never shrink below what the image's fd
/// slots may reference.
fn check_geometry(region: &NvRegion, cfg: &NvCacheConfig) -> IoResult<()> {
    if region.read_u64(layout::OFF_ENTRY_SIZE) != cfg.entry_size as u64
        || region.read_u64(layout::OFF_NB_ENTRIES) != cfg.nb_entries
        || region.read_u64(layout::OFF_FD_SLOTS) != cfg.fd_slots as u64
        // 0 is the seed (v1) encoding of a single-stripe log.
        || region.read_u64(layout::OFF_LOG_SHARDS).max(1) != cfg.log_shards as u64
    {
        return Err(IoError::InvalidArgument(
            "configuration disagrees with the on-NVMM log geometry".into(),
        ));
    }
    // 0 is the v1/v2 encoding of a single backend.
    let image_backends = region.read_u64(layout::OFF_BACKENDS).max(1);
    if image_backends > cfg.backends as u64 {
        return Err(IoError::InvalidArgument(format!(
            "region references {image_backends} backends but the mount provides only {}",
            cfg.backends
        )));
    }
    // The heat epoch may change across a recovery (recovery clears every fd
    // slot before restamping it), but an epoch this build does not know how
    // to parse means slots whose partitioning we would guess wrong.
    let image_heat = region.read_u64(layout::OFF_HEAT_EPOCH);
    if image_heat != 0 && image_heat != layout::HEAT_EPOCH {
        return Err(IoError::InvalidArgument(format!(
            "region uses heat-summary format epoch {image_heat}, but this build \
             only understands {} (and 0 = none)",
            layout::HEAT_EPOCH
        )));
    }
    Ok(())
}
