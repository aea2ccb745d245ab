//! Tests of the mount-stack builder and multi-backend tiering: the
//! single-backend byte/timing oracle against the legacy `format`
//! constructor, POSIX conformance of a two-tier mount, per-tier drains,
//! cross-backend crash recovery, and the v2 → v3 header migration.

use std::sync::Arc;

use blockdev::{SsdDevice, SsdProfile};
use nvmm::{NvDimm, NvRegion, NvmmProfile, PmemInts};
use simclock::ActorClock;
use vfs::{Ext4, Ext4Profile, FileSystem, IoError, MemFs, OpenFlags};

use crate::layout::{self, FD_BACKEND_OFF, FD_PATH_OFF_V3};
use crate::{Mount, NvCache, NvCacheConfig, PathPrefixRouter, Router, SingleBackend};

/// `(clock, log dimm, cold tier, hot tier, mount)` of a tiered rig.
type TieredRig = (ActorClock, Arc<NvDimm>, Arc<dyn FileSystem>, Arc<dyn FileSystem>, NvCache);

/// A two-tier mount: MemFs on backend 0 (default tier), a second backend on
/// tier 1 for everything under `/hot`.
fn tiered_setup(cfg: NvCacheConfig, tier1: Arc<dyn FileSystem>) -> TieredRig {
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let cold: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backends(
            Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
            vec![Arc::clone(&cold), Arc::clone(&tier1)],
        )
        .config(cfg)
        .mount(&clock)
        .expect("tiered mount");
    (clock, dimm, cold, tier1, cache)
}

#[test]
fn single_backend_builder_mount_keeps_the_seed_header_encoding() {
    let clock = ActorClock::new();
    let cfg = NvCacheConfig::tiny();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backend(Arc::new(MemFs::new()))
        .config(cfg)
        .mount(&clock)
        .unwrap();
    let region = NvRegion::whole(Arc::clone(&dimm));
    assert_eq!(region.read_u64(layout::OFF_BACKENDS), 0, "single backend keeps the v1/v2 word");
    assert_eq!(cache.backends().len(), 1);
    assert_eq!(cache.router().fan_out(), 1);
    cache.shutdown(&clock);
}

#[test]
fn tiered_mount_passes_posix_conformance() {
    // The acceptance bar: a two-backend mount (MemFs cold tier, Ext4+SSD
    // hot tier) must be indistinguishable from POSIX. The suite's paths
    // live under /conf — route them to the Ext4+SSD tier so the conformance
    // traffic crosses the tiering machinery, not just the default backend.
    let clock = ActorClock::new();
    let cfg = NvCacheConfig::tiny();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
    let hot: Arc<dyn FileSystem> = Arc::new(Ext4::new("ext4+ssd", ssd, Ext4Profile::default()));
    let cache = NvCache::builder(NvRegion::whole(dimm))
        .backends(
            Arc::new(PathPrefixRouter::new(vec![("/conf".into(), 1)], 0)),
            vec![Arc::new(MemFs::new()), hot],
        )
        .config(cfg)
        .mount(&clock)
        .expect("tiered mount");
    vfs::check_posix_semantics(&cache);
    cache.shutdown(&clock);
}

#[test]
fn writes_route_to_their_tier_and_drain_through_per_tier_queues() {
    let (c, _dimm, cold, hot, cache) = tiered_setup(NvCacheConfig::tiny(), Arc::new(MemFs::new()));
    let hfd = cache.open("/hot/wal", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let cfd = cache.open("/cold/blob", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(hfd, b"hot bytes", 0, &c).unwrap();
    cache.pwrite(cfd, b"cold bytes", 0, &c).unwrap();
    cache.flush_log(&c);

    // Each file drained to its own tier…
    let h = hot.open("/hot/wal", OpenFlags::RDONLY, &c).unwrap();
    let mut buf = [0u8; 9];
    hot.pread(h, &mut buf, 0, &c).unwrap();
    assert_eq!(&buf, b"hot bytes");
    let l = cold.open("/cold/blob", OpenFlags::RDONLY, &c).unwrap();
    let mut buf = [0u8; 10];
    cold.pread(l, &mut buf, 0, &c).unwrap();
    assert_eq!(&buf, b"cold bytes");
    // …and only its own tier.
    assert!(matches!(cold.open("/hot/wal", OpenFlags::RDONLY, &c), Err(IoError::NotFound(_))));
    assert!(matches!(hot.open("/cold/blob", OpenFlags::RDONLY, &c), Err(IoError::NotFound(_))));

    // The per-backend drain counters saw both tiers.
    let snap = cache.stats().snapshot();
    assert_eq!(snap.per_backend_propagated.len(), 2);
    assert!(snap.per_backend_propagated[0] >= 1, "cold tier must have drained entries");
    assert!(snap.per_backend_propagated[1] >= 1, "hot tier must have drained entries");

    // Reads come back through the cache from both tiers.
    let mut buf = [0u8; 9];
    cache.pread(hfd, &mut buf, 0, &c).unwrap();
    assert_eq!(&buf, b"hot bytes");
    assert!(cache.name().contains("prefix"), "tiered mounts advertise their router");
    cache.shutdown(&c);
}

#[test]
fn cross_tier_rename_fails_with_exdev_same_tier_succeeds() {
    let (c, _dimm, _cold, _hot, cache) =
        tiered_setup(NvCacheConfig::tiny(), Arc::new(MemFs::new()));
    let fd = cache.open("/hot/a", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(fd, b"payload", 0, &c).unwrap();
    cache.close(fd, &c).unwrap();
    assert!(
        matches!(cache.rename("/hot/a", "/cold/a", &c), Err(IoError::CrossDevice(_))),
        "moving a file across tiers must surface EXDEV, like a mount-point crossing"
    );
    cache.rename("/hot/a", "/hot/b", &c).expect("same-tier rename");
    assert_eq!(cache.stat("/hot/b", &c).unwrap().size, 7);
    cache.shutdown(&c);
}

#[test]
fn list_dir_merges_every_tier() {
    let (c, _dimm, _cold, _hot, cache) =
        tiered_setup(NvCacheConfig::tiny(), Arc::new(MemFs::new()));
    // `/hot/*` lives on tier 1, everything else on tier 0: a directory
    // listing of `/` must see both.
    for path in ["/hot/x", "/cold"] {
        let fd = cache.open(path, OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        cache.close(fd, &c).unwrap();
    }
    let listing = cache.list_dir("/hot", &c).unwrap();
    assert_eq!(listing, vec!["/hot/x".to_string()]);
    cache.shutdown(&c);
}

#[test]
fn tiered_mount_requires_enough_backends_for_the_router() {
    let clock = ActorClock::new();
    let cfg = NvCacheConfig::tiny();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let res = NvCache::builder(NvRegion::whole(dimm))
        .backends(
            Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 3)], 0)),
            vec![Arc::new(MemFs::new()), Arc::new(MemFs::new())],
        )
        .config(cfg)
        .mount(&clock);
    assert!(matches!(res, Err(IoError::InvalidArgument(_))));
}

#[test]
fn builder_without_backends_is_rejected() {
    let clock = ActorClock::new();
    let cfg = NvCacheConfig::tiny();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let res = NvCache::builder(NvRegion::whole(dimm)).config(cfg).mount(&clock);
    assert!(matches!(res, Err(IoError::InvalidArgument(_))));
}

#[test]
fn crash_mid_drain_replays_each_entry_to_its_recorded_backend() {
    // The cross-backend crash test of the acceptance criteria: files routed
    // to two different tiers, the process killed before anything drains,
    // and recovery must put every acknowledged byte back on the tier that
    // acknowledged it — resolved through the persisted v3 backend ids, not
    // by re-routing.
    let cfg = NvCacheConfig {
        nb_entries: 256,
        // Park everything in the log: nothing reaches the tiers pre-crash.
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    };
    let (c, dimm, cold, hot, cache) = tiered_setup(cfg.clone(), Arc::new(MemFs::new()));
    let hfd = cache.open("/hot/wal", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let cfd = cache.open("/cold/blob", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    for i in 0..20u64 {
        cache.pwrite(hfd, format!("hot-{i:03}").as_bytes(), i * 8, &c).unwrap();
        cache.pwrite(cfd, format!("cold{i:03}").as_bytes(), i * 8, &c).unwrap();
    }
    assert_eq!(cache.pending_entries(), 40, "nothing may drain before the crash");
    // Nothing on the tiers yet.
    assert_eq!(hot.stat("/hot/wal", &c).unwrap().size, 0);
    assert_eq!(cold.stat("/cold/blob", &c).unwrap().size, 0);
    cache.abort();
    drop(cache);
    let restarted = Arc::new(dimm.crash_and_restart());

    // The fd slots persisted their backend indices (v3 layout).
    let region = NvRegion::whole(Arc::clone(&restarted));
    assert_eq!(region.read_u64(layout::OFF_BACKENDS), 2, "tiered image must be v3");
    let lay = crate::layout::Layout::for_config(&cfg.clone().with_backends(2));
    let mut slot_backends: Vec<u64> =
        (0..2u32).map(|s| region.read_u64(lay.fd_slot(s) + FD_BACKEND_OFF)).collect();
    slot_backends.sort();
    assert_eq!(slot_backends, vec![0, 1], "one slot per tier");

    let recovered = NvCache::builder(NvRegion::whole(restarted))
        .backends(
            Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
            vec![Arc::clone(&cold), Arc::clone(&hot)],
        )
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&c)
        .expect("tiered recovery");
    let report = recovered.recovery_report().expect("recover mode");
    assert_eq!(report.entries_replayed, 40);
    assert_eq!(report.files_reopened, 2);
    assert_eq!(report.backends_touched, 2);
    assert_eq!(report.files_misplaced, 0, "the unchanged router agrees with every placement");

    // Every entry landed on its own tier.
    let h = hot.open("/hot/wal", OpenFlags::RDONLY, &c).unwrap();
    let l = cold.open("/cold/blob", OpenFlags::RDONLY, &c).unwrap();
    let mut buf = [0u8; 7];
    for i in 0..20u64 {
        hot.pread(h, &mut buf, i * 8, &c).unwrap();
        assert_eq!(&buf, format!("hot-{i:03}").as_bytes(), "hot entry {i}");
        cold.pread(l, &mut buf, i * 8, &c).unwrap();
        assert_eq!(&buf, format!("cold{i:03}").as_bytes(), "cold entry {i}");
    }
    assert!(matches!(cold.open("/hot/wal", OpenFlags::RDONLY, &c), Err(IoError::NotFound(_))));
    assert!(matches!(hot.open("/cold/blob", OpenFlags::RDONLY, &c), Err(IoError::NotFound(_))));
    assert_eq!(recovered.pending_entries(), 0);
    recovered.shutdown(&c);
}

#[test]
fn v2_image_migrates_to_v3_on_tiered_recovery() {
    // Header-migration coverage: a legacy single-backend (v2-header) image
    // recovered into a two-backend stack. Legacy slots carry no backend
    // word; their pending entries must fall back to the legacy backend
    // (index 0) — never be lost to a router that points at a tier the file
    // was never written to — and the header must come out stamped v3.
    let cfg = NvCacheConfig {
        nb_entries: 128,
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    };
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let legacy: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backend(Arc::clone(&legacy))
        .config(cfg.clone())
        .mount(&clock)
        .unwrap();
    // Both files live on the (only) legacy backend, including one whose
    // path the *future* router will claim for tier 1.
    let hfd = cache.open("/hot/wal", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    let cfd = cache.open("/cold/blob", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(hfd, b"claimed by tier 1", 0, &clock).unwrap();
    cache.pwrite(cfd, b"stays on tier 0", 0, &clock).unwrap();
    cache.abort();
    drop(cache);
    let restarted = Arc::new(dimm.crash_and_restart());
    assert_eq!(NvRegion::whole(Arc::clone(&restarted)).read_u64(layout::OFF_BACKENDS), 0);

    let hot: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let recovered = NvCache::builder(NvRegion::whole(Arc::clone(&restarted)))
        .backends(
            Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
            vec![Arc::clone(&legacy), Arc::clone(&hot)],
        )
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&clock)
        .expect("migrating recovery");
    let report = recovered.recovery_report().expect("recover mode");
    assert_eq!(report.entries_replayed, 2);
    assert_eq!(report.files_reopened, 2);
    assert_eq!(report.files_missing, 0, "the fallback must find both files on the legacy tier");
    assert_eq!(report.backends_touched, 1, "everything replays to the legacy backend");
    assert_eq!(
        report.files_misplaced, 1,
        "/hot/wal sits on tier 0 while the router now claims it for tier 1 — \
         the mismatch must be reported, not silent"
    );

    // The acknowledged bytes are intact on the legacy tier…
    let f = legacy.open("/hot/wal", OpenFlags::RDONLY, &clock).unwrap();
    let mut buf = [0u8; 17];
    legacy.pread(f, &mut buf, 0, &clock).unwrap();
    assert_eq!(&buf, b"claimed by tier 1");
    // …nothing was invented on the new tier…
    assert!(matches!(hot.open("/hot/wal", OpenFlags::RDONLY, &clock), Err(IoError::NotFound(_))));
    // …and the image is now v3.
    assert_eq!(NvRegion::whole(restarted).read_u64(layout::OFF_BACKENDS), 2);

    // New files opened after the migration follow the router.
    let nfd = recovered.open("/hot/new", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    recovered.pwrite(nfd, b"routed", 0, &clock).unwrap();
    recovered.flush_log(&clock);
    assert!(hot.open("/hot/new", OpenFlags::RDONLY, &clock).is_ok());
    recovered.shutdown(&clock);
}

#[test]
fn pre_moved_files_recover_onto_their_new_tier() {
    // The other half of the migration contract: when the operator already
    // copied a file to the tier the router assigns, a legacy slot's entries
    // replay *there* (router-first resolution).
    let cfg = NvCacheConfig {
        nb_entries: 128,
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    };
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let legacy: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backend(Arc::clone(&legacy))
        .config(cfg.clone())
        .mount(&clock)
        .unwrap();
    let fd = cache.open("/hot/wal", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(fd, b"pending", 0, &clock).unwrap();
    cache.abort();
    drop(cache);
    let restarted = Arc::new(dimm.crash_and_restart());

    // Operator pre-moves the file to the hot tier before remounting.
    let hot: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let moved = hot.open("/hot/wal", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    hot.close(moved, &clock).unwrap();

    let recovered = NvCache::builder(NvRegion::whole(restarted))
        .backends(
            Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
            vec![Arc::clone(&legacy), Arc::clone(&hot)],
        )
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&clock)
        .expect("recovery");
    assert_eq!(recovered.recovery_report().unwrap().entries_replayed, 1);
    let f = hot.open("/hot/wal", OpenFlags::RDONLY, &clock).unwrap();
    let mut buf = [0u8; 7];
    hot.pread(f, &mut buf, 0, &clock).unwrap();
    assert_eq!(&buf, b"pending", "the pending entry must land on the pre-moved copy");
    recovered.shutdown(&clock);
}

#[test]
fn tiered_image_cannot_be_mounted_with_fewer_backends() {
    let cfg = NvCacheConfig::tiny();
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let (_c2, _dimm2, _cold, _hot, cache) = {
        let clock = ActorClock::new();
        let cold: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let hot: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
            .backends(
                Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
                vec![Arc::clone(&cold), Arc::clone(&hot)],
            )
            .config(cfg.clone())
            .mount(&clock)
            .unwrap();
        (clock, Arc::clone(&dimm), cold, hot, cache)
    };
    cache.abort();
    drop(cache);
    let restarted = Arc::new(dimm.crash_and_restart());
    let res = NvCache::builder(NvRegion::whole(restarted))
        .backend(Arc::new(MemFs::new()))
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&clock);
    assert!(
        matches!(res, Err(IoError::InvalidArgument(_))),
        "a v3 image must refuse to shrink below its recorded backend count"
    );
}

#[test]
fn persisted_backend_beats_a_changed_router_policy() {
    // The acceptance criterion's sharp edge: after a crash, the router's
    // policy may have changed — recovery must still replay to the backend
    // that acknowledged the write (the persisted id), not re-route.
    let cfg = NvCacheConfig {
        nb_entries: 128,
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    };
    let (c, dimm, cold, hot, cache) = tiered_setup(cfg.clone(), Arc::new(MemFs::new()));
    let fd = cache.open("/hot/wal", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(fd, b"tier-1 bytes", 0, &c).unwrap();
    cache.abort();
    drop(cache);
    let restarted = Arc::new(dimm.crash_and_restart());

    // Remount with an *inverted* policy: /hot now maps to tier 0.
    #[derive(Debug)]
    struct Inverted;
    impl Router for Inverted {
        fn route(&self, path: &str, _ino: u64) -> usize {
            usize::from(!path.starts_with("/hot"))
        }
        fn fan_out(&self) -> usize {
            2
        }
    }
    let recovered = NvCache::builder(NvRegion::whole(restarted))
        .backends(Arc::new(Inverted), vec![Arc::clone(&cold), Arc::clone(&hot)])
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&c)
        .expect("recovery");
    assert_eq!(recovered.recovery_report().unwrap().entries_replayed, 1);
    // The bytes are on the tier that acknowledged them (1), not where the
    // new policy would place the path (0).
    let f = hot.open("/hot/wal", OpenFlags::RDONLY, &c).unwrap();
    let mut buf = [0u8; 12];
    hot.pread(f, &mut buf, 0, &c).unwrap();
    assert_eq!(&buf, b"tier-1 bytes");
    assert!(matches!(cold.open("/hot/wal", OpenFlags::RDONLY, &c), Err(IoError::NotFound(_))));
    recovered.shutdown(&c);
}

#[test]
fn fd_slots_store_paths_after_the_backend_word() {
    // Layout regression guard: the v3 slot keeps the path NUL-padded right
    // after the backend word.
    let cfg = NvCacheConfig::tiny().with_backends(2);
    let lay = crate::layout::Layout::for_config(&cfg);
    assert_eq!(lay.fd_path_off(), FD_PATH_OFF_V3);
    let (c, dimm, _cold, _hot, cache) = tiered_setup(NvCacheConfig::tiny(), Arc::new(MemFs::new()));
    let fd = cache.open("/hot/p", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let region = NvRegion::whole(Arc::clone(&dimm));
    // Slot 0 was handed to the first open.
    let base = lay.fd_slot(0);
    assert_eq!(region.read_u64(base), 1, "slot valid");
    assert_eq!(region.read_u64(base + FD_BACKEND_OFF), 1, "backend word");
    let mut path = [0u8; 6];
    region.read_cached(base + FD_PATH_OFF_V3, &mut path);
    assert_eq!(&path, b"/hot/p");
    cache.close(fd, &c).unwrap();
    cache.shutdown(&c);
}

#[test]
fn single_backend_router_is_the_implicit_default() {
    let r = SingleBackend;
    assert_eq!(r.route("/whatever", 9), 0);
}

/// A backend whose `list_dir` always fails with a *real* I/O error (not
/// `NotFound`) — a [`vfs::FaultLayer`] rule, fault injection for the
/// merged-listing path.
fn broken_list_fs(inner: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
    use vfs::{FaultLayer, FaultOp, FaultRule, FaultTrigger, Layer};
    FaultLayer::new(vec![FaultRule::new(FaultOp::ListDir, FaultTrigger::AfterBudget(0))
        .with_error(IoError::Other("injected list_dir failure".into()))])
    .wrap(inner)
}

#[test]
fn list_dir_propagates_real_backend_errors_instead_of_partial_listings() {
    // Regression: a non-NotFound error from one tier used to be swallowed
    // whenever another tier answered — the merged listing was silently
    // partial. Only absence may be tolerated.
    let clock = ActorClock::new();
    let cfg = NvCacheConfig::tiny();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let broken = broken_list_fs(Arc::new(MemFs::new()));
    let cache = NvCache::builder(NvRegion::whole(dimm))
        .backends(
            Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
            vec![Arc::new(MemFs::new()), broken],
        )
        .config(cfg)
        .mount(&clock)
        .unwrap();
    // The healthy tier knows the directory; the broken one errors — the
    // listing must fail loudly, not come back partial.
    let fd = cache
        .open("/dir/on-tier0", OpenFlags::RDWR | OpenFlags::CREATE, &clock)
        .unwrap();
    cache.close(fd, &clock).unwrap();
    let res = cache.list_dir("/dir", &clock);
    assert!(
        matches!(res, Err(IoError::Other(_))),
        "a real backend error must propagate, got {res:?}"
    );
    cache.shutdown(&clock);
}

#[test]
fn stat_and_unlink_reach_misplaced_files_on_their_recorded_tier() {
    // Regression: `unlink`/`stat` routed by the *current* policy only, so a
    // policy-orphaned file reported ENOENT while its bytes sat intact on
    // another tier. The probe must honour recorded placement and fall back
    // across tiers.
    let cfg = NvCacheConfig {
        nb_entries: 128,
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    };
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let legacy: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backend(Arc::clone(&legacy))
        .config(cfg.clone())
        .mount(&clock)
        .unwrap();
    let fd = cache.open("/hot/orphan", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(fd, b"orphaned bytes", 0, &clock).unwrap();
    cache.abort();
    drop(cache);
    let restarted = Arc::new(dimm.crash_and_restart());

    // Recover into a stack whose router claims /hot/** for tier 1: the
    // file replays to tier 0 and is misplaced from now on.
    let hot: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let recovered = NvCache::builder(NvRegion::whole(restarted))
        .backends(
            Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
            vec![Arc::clone(&legacy), Arc::clone(&hot)],
        )
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&clock)
        .expect("recovery");
    assert_eq!(recovered.recovery_report().unwrap().files_misplaced, 1);

    // stat finds the misplaced file (pre-fix: ENOENT from the routed tier).
    assert_eq!(recovered.stat("/hot/orphan", &clock).unwrap().size, 14);
    // unlink removes the actual bytes (pre-fix: ENOENT, bytes left behind).
    recovered
        .unlink("/hot/orphan", &clock)
        .expect("unlink must reach the recorded tier");
    assert!(matches!(legacy.stat("/hot/orphan", &clock), Err(IoError::NotFound(_))));
    assert!(matches!(recovered.stat("/hot/orphan", &clock), Err(IoError::NotFound(_))));
    recovered.shutdown(&clock);
}

#[test]
fn rename_of_a_missing_source_is_enoent_not_exdev() {
    // Regression: `rename("/hot/nope", "/cold/x")` compared routes before
    // checking existence, reporting EXDEV for a file that does not exist.
    // POSIX orders ENOENT first.
    let (c, _dimm, _cold, _hot, cache) =
        tiered_setup(NvCacheConfig::tiny(), Arc::new(MemFs::new()));
    let res = cache.rename("/hot/nope", "/cold/nope", &c);
    assert!(
        matches!(res, Err(IoError::NotFound(_))),
        "nonexistent source must be ENOENT even across tiers, got {res:?}"
    );
    // A real cross-tier source still reports EXDEV (default flag).
    let fd = cache.open("/hot/real", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.close(fd, &c).unwrap();
    assert!(matches!(cache.rename("/hot/real", "/cold/real", &c), Err(IoError::CrossDevice(_))));
    cache.shutdown(&c);
}

#[test]
fn unlinked_file_slot_is_cleared_by_migration_so_the_region_stays_mountable() {
    // Regression: a legacy slot whose file was deliberately unlinked could
    // not be reopened by recovery. If it is left valid across a v2 → v3
    // migration, the *next* recovery parses it with the v3 partitioning —
    // its first path bytes masquerade as a garbage backend word — and the
    // region is wedged forever. The slot must be cleared instead.
    let cfg = NvCacheConfig {
        nb_entries: 128,
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    };
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let legacy: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backend(Arc::clone(&legacy))
        .config(cfg.clone())
        .mount(&clock)
        .unwrap();
    let fd = cache.open("/hot/gone", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(fd, b"will be unlinked", 0, &clock).unwrap();
    // Unlink passes through while the descriptor stays open (its persistent
    // slot therefore stays valid), then crash.
    cache.unlink("/hot/gone", &clock).unwrap();
    cache.abort();
    drop(cache);
    let restarted = Arc::new(dimm.crash_and_restart());

    // First recovery: migrate into a two-tier stack. The dead file resolves
    // nowhere, its entries are discarded, and its slot must be cleared.
    let hot: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let router = || Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0));
    let recovered = NvCache::builder(NvRegion::whole(Arc::clone(&restarted)))
        .backends(router(), vec![Arc::clone(&legacy), Arc::clone(&hot)])
        .config(cfg.clone())
        .mode(Mount::Recover)
        .mount(&clock)
        .expect("migrating recovery");
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.files_missing, 1);
    assert_eq!(report.entries_replayed, 0);
    recovered.abort();
    drop(recovered);

    // Second crash + recovery on the now-v3 image must still mount.
    let restarted = Arc::new(restarted.crash_and_restart());
    let recovered = NvCache::builder(NvRegion::whole(restarted))
        .backends(router(), vec![legacy, hot])
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&clock)
        .expect("v3 image must stay recoverable after the migration");
    assert_eq!(recovered.recovery_report().unwrap().files_missing, 0);
    recovered.shutdown(&clock);
}
