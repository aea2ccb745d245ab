//! Multi-threaded stress tests of the striped NVMM log: concurrent writers
//! whose byte ranges straddle page borders land in *different* stripes, and
//! the per-page propagation handoff between cleanup workers must still
//! deliver every page to the inner file system in commit order.

use std::sync::Arc;

use nvcache_repro::blockdev::{SsdDevice, SsdProfile};
use nvcache_repro::nvcache::{Mount, NvCache, NvCacheConfig};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{Ext4, Ext4Profile, FileSystem, MemFs, OpenFlags};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Under `pmcheck`, audit the mount's post-mortem registries: violations
/// panic at the offending site already, but an end-of-run sweep also
/// catches reports raised (and caught) on worker threads.
#[cfg(feature = "pmcheck")]
fn assert_checkers_clean(cache: &NvCache) {
    assert!(cache.pm_violations().is_empty(), "{:?}", cache.pm_violations());
    assert!(cache.lock_order_violations().is_empty(), "{:?}", cache.lock_order_violations());
    assert!(cache.lock_order_edges() > 0, "lock-order recorder saw no acquisitions");
}
#[cfg(not(feature = "pmcheck"))]
fn assert_checkers_clean(_cache: &NvCache) {}

fn setup(shards: usize) -> (ActorClock, Arc<dyn FileSystem>, Arc<NvCache>) {
    let clock = ActorClock::new();
    let cfg = NvCacheConfig {
        nb_entries: 1024,
        read_cache_pages: 128,
        batch_min: 1,
        batch_max: 64,
        fd_slots: 16,
        ..NvCacheConfig::default()
    }
    .with_log_shards(shards);
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = Arc::new(
        NvCache::builder(NvRegion::whole(dimm))
            .backend(Arc::clone(&inner))
            .config(cfg)
            .mount(&clock)
            .expect("mount"),
    );
    (clock, inner, cache)
}

/// Writers collide on a small set of overlapping, page-straddling ranges.
/// After a full drain, the inner file system must agree byte-for-byte with
/// NVCache's own page-lock-ordered view — per-page write ordering held
/// across stripes.
fn hammer_overlapping_ranges(shards: usize, threads: u8, rounds: u64) {
    let (clock, inner, cache) = setup(shards);
    let fd = cache.open("/stress", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    let mut handles = Vec::new();
    for t in 0..threads {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            let clock = ActorClock::new();
            for round in 0..rounds {
                // Unaligned offsets: every multi-page write straddles a page
                // border, so one page's entries come from several stripes.
                let off = (round % 4) * 2048;
                let len: usize = if t % 2 == 0 { 8192 } else { 3000 };
                let byte = 1u8.wrapping_add(t).wrapping_add((round as u8) << 4);
                cache.pwrite(fd, &vec![byte; len], off, &clock).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    cache.flush_log(&clock);
    assert_eq!(cache.pending_entries(), 0, "flush barrier must drain all stripes");

    let size = cache.fstat(fd, &clock).unwrap().size;
    let mut cache_view = vec![0u8; size as usize];
    cache.pread(fd, &mut cache_view, 0, &clock).unwrap();

    let ifd = inner.open("/stress", OpenFlags::RDONLY, &clock).unwrap();
    let mut inner_view = vec![0u8; size as usize];
    inner.pread(ifd, &mut inner_view, 0, &clock).unwrap();
    if let Some(pos) = cache_view.iter().zip(&inner_view).position(|(a, b)| a != b) {
        panic!(
            "per-page ordering broke with {shards} stripes: byte {pos} is {} in the \
             cache view but {} on the inner fs",
            cache_view[pos], inner_view[pos]
        );
    }
    assert_checkers_clean(&cache);
    cache.shutdown(&clock);
}

#[test]
fn per_page_ordering_survives_two_stripes() {
    hammer_overlapping_ranges(2, 4, 48);
}

#[test]
fn per_page_ordering_survives_eight_stripes() {
    hammer_overlapping_ranges(8, 6, 48);
}

#[test]
fn single_stripe_baseline_still_holds() {
    // The same stress on the seed-identical configuration: guards against
    // the oracle itself drifting.
    hammer_overlapping_ranges(1, 4, 48);
}

/// Disjoint per-thread pages across many stripes: all writes must be acked,
/// durable, and spread over more than one stripe.
#[test]
fn disjoint_writers_use_multiple_stripes() {
    let (clock, inner, cache) = setup(8);
    let fd = cache.open("/spread", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            let clock = ActorClock::new();
            for i in 0..32u64 {
                let page = t * 32 + i;
                cache.pwrite(fd, &[(t + 1) as u8; 4096], page * 4096, &clock).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    cache.flush_log(&clock);
    let snap = cache.stats().snapshot();
    assert_eq!(snap.per_shard.len(), 8);
    let used = snap.per_shard.iter().filter(|s| s.entries_logged > 0).count();
    assert!(used > 1, "expected traffic on several stripes: {:?}", snap.per_shard);
    assert_eq!(
        snap.per_shard.iter().map(|s| s.entries_propagated).sum::<u64>(),
        256,
        "every entry must be propagated exactly once"
    );
    let ifd = inner.open("/spread", OpenFlags::RDONLY, &clock).unwrap();
    for t in 0..8u64 {
        for i in 0..32u64 {
            let page = t * 32 + i;
            let mut buf = [0u8; 4096];
            inner.pread(ifd, &mut buf, page * 4096, &clock).unwrap();
            assert_eq!(buf[0], (t + 1) as u8, "inner page {page}");
        }
    }
    assert_checkers_clean(&cache);
    cache.shutdown(&clock);
}

/// Pages the crash rounds write over. Many pages make each drain's
/// `fsync`s long, which widens the window in which a stripe that freed a
/// page's newer entry races another stripe still holding an older one.
const CRASH_PAGES: u64 = 512;
/// Write operations (a synchronous write or a doorbell batch) per phase;
/// the log drains between phases.
const PHASE_OPS: usize = 200;
const PHASES: usize = 5;
/// Crash images taken while the final drain runs.
const LIVE_IMAGES: usize = 6;

/// One crash round: unaligned 512 B – 4 KiB writes, synchronous ones and
/// doorbell batches, over pages shared by every stripe of a small striped
/// log, so log-full pressure runs the cleanup workers live. Flush barriers
/// drain all stripes at once between phases. The last phase is followed by
/// a drain during which the power fails several times: crash images of
/// NVMM are taken while the cleanup workers run (no eviction: each image
/// holds exactly what the last fences made durable), plus one after the
/// drain, and then the kernel page cache is lost. Each image, mounted with
/// `Mount::Recover` over the inner file system in turn, must show every
/// page holding exactly the acknowledged bytes. Returns the lost pages.
fn crash_round(shards: usize, seed: u64) -> Vec<u64> {
    let page = 4096u64;
    let cfg = NvCacheConfig {
        nb_entries: 64 * shards as u64,
        read_cache_pages: 16,
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        fd_slots: 16,
        ..NvCacheConfig::default()
    }
    .with_log_shards(shards)
    .with_sq_pairs(1);
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
    let inner: Arc<dyn FileSystem> = Arc::new(Ext4::new("ext4+ssd", ssd, Ext4Profile::default()));
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backend(Arc::clone(&inner))
        .config(cfg.clone())
        .mount(&clock)
        .expect("mount");
    let fd = cache.open("/crash", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    let mut shadow = vec![0u8; (CRASH_PAGES * page) as usize];
    cache.ftruncate(fd, shadow.len() as u64, &clock).unwrap();
    let mut qp = cache.queue_pair(0, &clock).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tag = 0u8;
    let mut write = |rng: &mut StdRng| {
        let len = rng.gen_range(1..=8u64) * 512;
        let off = rng.gen_range(0..=CRASH_PAGES * page - len);
        tag = tag.wrapping_add(1).max(1);
        (off as usize, vec![tag; len as usize])
    };
    for phase in 0..PHASES {
        if phase > 0 {
            cache.flush_log(&clock);
        }
        for _ in 0..PHASE_OPS {
            let batch: Vec<_> = if rng.gen_bool(0.5) {
                let (off, data) = write(&mut rng);
                cache.pwrite(fd, &data, off as u64, &clock).unwrap();
                vec![(off, data)]
            } else {
                let batch: Vec<_> = (0..rng.gen_range(1..=4)).map(|_| write(&mut rng)).collect();
                for (off, data) in &batch {
                    qp.submit_pwrite(fd, data, *off as u64, &clock).unwrap();
                }
                qp.ring_doorbell(&clock);
                for c in qp.reap(&clock) {
                    c.result.expect("queued write");
                }
                batch
            };
            for (off, data) in batch {
                shadow[off..off + data.len()].copy_from_slice(&data);
            }
        }
    }
    drop(qp);
    let mut images = Vec::new();
    std::thread::scope(|s| {
        let drain = s.spawn(|| cache.flush_log(&ActorClock::starting_at(clock.now())));
        // pmcheck flags a crash image taken while another thread sits
        // between a commit-word store and its pwb, so it only gets the
        // image after the drain.
        while cfg!(not(feature = "pmcheck")) && images.len() < LIVE_IMAGES && !drain.is_finished() {
            images.push(dimm.crash_and_restart_seeded(seed));
        }
    });
    images.push(dimm.crash_and_restart_seeded(seed));
    assert_checkers_clean(&cache);
    cache.abort();
    drop(cache);
    inner.simulate_power_failure();

    let mut lost = Vec::new();
    let mut buf = vec![0u8; page as usize];
    for image in images {
        let recovered = NvCache::builder(NvRegion::whole(Arc::new(image)))
            .backend(Arc::clone(&inner))
            .config(cfg.clone())
            .mode(Mount::Recover)
            .mount(&clock)
            .expect("recover");
        let fd = recovered.open("/crash", OpenFlags::RDONLY, &clock).unwrap();
        for p in 0..CRASH_PAGES {
            recovered.pread(fd, &mut buf, p * page, &clock).unwrap();
            if buf[..] != shadow[(p * page) as usize..((p + 1) * page) as usize] {
                lost.push(p);
            }
        }
        recovered.shutdown(&clock);
    }
    lost.sort_unstable();
    lost.dedup();
    lost
}

/// Per-page order must hold when entries are *freed*, not only when they
/// are propagated: a stripe that frees a page's newer entry while another
/// stripe still holds an older one for that page (in NVMM, or in a kernel
/// page cache it has not fsync'ed yet) lets the older bytes win after a
/// crash.
#[test]
fn striped_crash_keeps_every_acknowledged_write() {
    for shards in [2, 4] {
        for seed in 0..3 {
            let lost = crash_round(shards, seed);
            assert!(lost.is_empty(), "{shards} stripes, seed {seed}: lost pages {lost:?}");
        }
    }
}
