//! Pins the write path to constants: a fixed mix of synchronous `pwrite`s
//! and doorbell batches (overlapping, page-straddling and multi-entry
//! writes, both submission-time error paths, loaded pages updated in place)
//! on 1 and 4 stripes and on a tiered `HeatPolicy` mount. Cleanup is parked
//! and nothing is flushed, so every observable below is deterministic: the
//! application clocks, the NVMM op counters, the mount's counters, the
//! region bytes and the written file's temperature. Any change to the NVMM
//! op sequence, the clock charges or the bookkeeping order moves one of
//! them.

use std::sync::Arc;

use nvmm::{NvDimm, NvRegion, NvmmProfile};
use simclock::{ActorClock, SimTime};
use vfs::{FileSystem, MemFs, OpenFlags};

use crate::migrate::MigrationPolicy;
use crate::{HeatPolicy, NvCache, NvCacheConfig, PathPrefixRouter};

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Deterministic payload of `len` bytes for write number `n`.
fn payload(n: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| n.wrapping_mul(31).wrapping_add(i as u8)).collect()
}

/// Everything the pin compares.
#[derive(Debug, PartialEq)]
struct Pin {
    /// Final clocks of the synchronous caller and of the queue pair's core.
    clocks: (u64, u64),
    /// NVMM `fences`, `drains`, `lines_flushed`, `commit_stores`,
    /// `bytes_stored`.
    nvmm: [u64; 5],
    /// FNV-1a of the `NvCacheStats` snapshot's `Debug` rendering.
    stats: u64,
    /// FNV-1a of the whole NVMM region.
    region: u64,
    /// The written file's `(heat bits, stamp ns)`.
    temperature: (u64, u64),
}

fn run(shards: usize, tiered_heat: bool) -> Pin {
    let mut cfg = NvCacheConfig {
        entry_size: 1024,
        nb_entries: 512,
        read_cache_pages: 64,
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    }
    .with_log_shards(shards)
    .with_sq_pairs(1);
    if tiered_heat {
        cfg = cfg
            .with_migration(MigrationPolicy::OnDemand)
            .with_placement(Arc::new(HeatPolicy::new(1, 4.0, 1.0, SimTime::from_micros(20))));
    }
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
    let builder = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)));
    let builder = if tiered_heat {
        let tiers: Vec<Arc<dyn FileSystem>> = vec![Arc::new(MemFs::new()), Arc::new(MemFs::new())];
        builder.backends(Arc::new(PathPrefixRouter::new(vec![], 0)), tiers)
    } else {
        builder.backend(Arc::new(MemFs::new()))
    };
    let cache = builder.config(cfg).mount(&clock).expect("mount");

    let fd = cache.open("/pin", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    let ro = cache.open("/pin", OpenFlags::RDONLY, &clock).unwrap();
    let core = ActorClock::starting_at(clock.now());
    let mut qp = cache.queue_pair(0, &core).unwrap();
    let too_big = 600 * 1024;

    // Synchronous writes into unloaded pages: single-entry, multi-entry and
    // page-straddling, then both error paths and an empty write.
    cache.pwrite(fd, &payload(1, 3000), 0, &clock).unwrap();
    cache.pwrite(fd, &payload(2, 9000), 2500, &clock).unwrap();
    cache.pwrite(fd, &payload(3, 100), 4090, &clock).unwrap();
    assert!(cache.pwrite(ro, &payload(4, 10), 0, &clock).is_err());
    assert!(cache.pwrite(fd, &vec![5; too_big], 0, &clock).is_err());
    assert_eq!(cache.pwrite(fd, &[], 77, &clock).unwrap(), 0);

    // Load pages 0..4, so later writes update them in place.
    let mut buf = vec![0u8; 16384];
    cache.pread(fd, &mut buf, 0, &clock).unwrap();
    cache.pwrite(fd, &payload(6, 5000), 1000, &clock).unwrap();

    // A doorbell batch of overlapping writes (a conflict split on a
    // striped log), a flush barrier and the submission-time errors.
    let mut n = 10u8;
    for (off, len) in [(4000, 700), (100, 6000), (8191, 1), (12000, 2048), (3000, 4096)] {
        qp.submit_pwrite(fd, &payload(n, len), off, &core).unwrap();
        n += 1;
    }
    qp.submit_flush(fd).unwrap();
    qp.submit_pwrite(fd, &payload(n, 300), 100, &core).unwrap();
    assert!(qp.submit_pwrite(ro, &payload(n, 10), 0, &core).is_err());
    assert!(qp.submit_pwrite(fd, &vec![5; too_big], 0, &core).is_err());
    qp.submit_pwrite(fd, &[], 5, &core).unwrap();
    qp.ring_doorbell(&core);
    qp.reap(&core);

    // Interleave: a synchronous write, then a second batch of multi-entry
    // writes reaching past the loaded pages.
    cache.pwrite(fd, &payload(20, 2049), 6000, &clock).unwrap();
    for (off, len) in [(9000, 8000), (0, 4096), (15000, 3500), (20000, 1)] {
        qp.submit_pwrite(fd, &payload(n, len), off, &core).unwrap();
        n += 1;
    }
    qp.ring_doorbell(&core);
    qp.reap(&core);
    cache.pwrite(fd, &payload(30, 12000), 18000, &clock).unwrap();

    let nv = dimm.stats().snapshot();
    let mut region = vec![0u8; dimm.len() as usize];
    dimm.read_cached(0, &mut region);
    let temp = *cache.shared.opened_by_slot(fd.0 as u32).unwrap().file.temperature.lock();
    drop(qp);
    let pin = Pin {
        clocks: (clock.now().as_nanos(), core.now().as_nanos()),
        nvmm: [nv.fences, nv.drains, nv.lines_flushed, nv.commit_stores, nv.bytes_stored],
        stats: fnv(format!("{:?}", cache.stats().snapshot()).as_bytes()),
        region: fnv(&region),
        temperature: (temp.heat.to_bits(), temp.stamp.as_nanos()),
    };
    cache.abort();
    pin
}

#[test]
fn write_path_pin_one_stripe() {
    let want = Pin {
        clocks: (135_750, 109_648),
        nvmm: [12, 9, 1563, 18, 67_039],
        stats: 2_845_606_471_939_506_841,
        region: 18_317_151_518_815_781_640,
        temperature: (0, 0),
    };
    assert_eq!(run(1, false), want);
}

#[test]
fn write_path_pin_four_stripes() {
    let want = Pin {
        clocks: (135_831, 112_728),
        nvmm: [17, 14, 1564, 18, 67_071],
        stats: 5_404_939_298_688_662_747,
        region: 8_213_627_385_119_612_959,
        temperature: (0, 0),
    };
    assert_eq!(run(4, false), want);
}

#[test]
fn write_path_pin_tiered_heat() {
    let want = Pin {
        clocks: (141_148, 115_046),
        nvmm: [12, 9, 1563, 18, 67_039],
        stats: 17_181_215_708_488_880_383,
        region: 6_563_457_032_992_724_382,
        temperature: (4_619_703_362_041_739_625, 141_148),
    };
    assert_eq!(run(1, true), want);
}
