//! The system under test: an NVCache mount over Ext4 over a simulated SSD,
//! built fresh for every round, optionally with the benchmark's tracing
//! wrappers at each boundary, plus the crash → `Mount::Recover` cycle.

use std::sync::Arc;
use std::time::Instant;

use blockdev::{BlockDevice, DeviceStatsSnapshot, SsdDevice, SsdProfile};
use nvcache::{Mount, NvCache, NvCacheConfig, RecoveryReport};
use nvmm::{NvDimm, NvRegion, NvmmProfile};
use simclock::ActorClock;
use vfs::{Ext4, Ext4Profile, FileSystem, IoResult, Layer};

use crate::trace::{maybe_span, FsNames, TraceDev, TraceFs, TraceLayer, Tracer};
use crate::workload::{HostTime, Stopwatch};

/// Share of not-yet-persisted NVMM lines that reach media in a crash.
const CRASH_EVICTION_PROBABILITY: f64 = 0.5;

/// A mounted NVCache+SSD stack.
pub struct System {
    /// The cache configuration (kept for the recover mount).
    pub cfg: NvCacheConfig,
    /// The NVMM DIMM holding the log.
    pub dimm: Arc<NvDimm>,
    /// The SSD (bare, for its counters).
    pub ssd: Arc<SsdDevice>,
    /// The Ext4 backend as NVCache sees it (bare, for power failure).
    pub ext4: Arc<dyn FileSystem>,
    /// The mount itself.
    pub cache: Arc<NvCache>,
    /// What applications drive: the mount, or a tracing wrapper of it.
    pub fs: Arc<dyn FileSystem>,
    /// The tracer when this is a traced round.
    pub tracer: Option<Arc<Tracer>>,
}

/// What a crash plus recover mount cost and found.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// The recovery report of the new mount.
    pub report: RecoveryReport,
    /// Host time of building the crash image, ns.
    pub crash_image_host_ns: u64,
    /// Host time of the crash image plus the recover mount.
    pub host: HostTime,
    /// Host time of the recover mount alone, ns.
    pub mount_host_ns: u64,
    /// Virtual time of the recover mount, ns.
    pub virt_ns: u64,
}

fn nvmm_profile() -> NvmmProfile {
    NvmmProfile::optane().with_eviction_probability(CRASH_EVICTION_PROBABILITY)
}

fn mount(
    cfg: &NvCacheConfig,
    dimm: &Arc<NvDimm>,
    ext4: &Arc<dyn FileSystem>,
    tracer: Option<&Arc<Tracer>>,
    mode: Mount,
    clock: &ActorClock,
) -> IoResult<Arc<NvCache>> {
    let layers: Vec<Arc<dyn Layer>> = match tracer {
        Some(t) => vec![Arc::new(TraceLayer::new(Arc::clone(t)))],
        None => Vec::new(),
    };
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(dimm)))
        .backend_stack(layers, Arc::clone(ext4))
        .config(cfg.clone())
        .mode(mode)
        .mount(clock)?;
    Ok(Arc::new(cache))
}

fn front(cache: &Arc<NvCache>, tracer: Option<&Arc<Tracer>>) -> Arc<dyn FileSystem> {
    let fs = Arc::clone(cache) as Arc<dyn FileSystem>;
    match tracer {
        Some(t) => Arc::new(TraceFs::new(fs, Arc::clone(t), FsNames::NVCACHE)),
        None => fs,
    }
}

impl System {
    /// Builds the SSD and Ext4, runs `prepare` on the bare Ext4 (data that
    /// exists before the application starts), then formats and mounts the
    /// cache on `clock`.
    ///
    /// # Errors
    ///
    /// Any I/O error from `prepare` or the mount.
    pub fn build(
        cfg: NvCacheConfig,
        tracer: Option<Arc<Tracer>>,
        clock: &ActorClock,
        prepare: impl FnOnce(&dyn FileSystem, &ActorClock) -> IoResult<()>,
    ) -> IoResult<System> {
        let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
        let dev: Arc<dyn BlockDevice> = match &tracer {
            Some(t) => Arc::new(TraceDev::new(Arc::clone(&ssd) as _, Arc::clone(t))),
            None => Arc::clone(&ssd) as _,
        };
        let ext4: Arc<dyn FileSystem> =
            Arc::new(Ext4::new("ext4+ssd", dev, Ext4Profile::default()));
        prepare(ext4.as_ref(), clock)?;
        let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), nvmm_profile()));
        let cache = mount(&cfg, &dimm, &ext4, tracer.as_ref(), Mount::Format, clock)?;
        let fs = front(&cache, tracer.as_ref());
        Ok(System { cfg, dimm, ssd, ext4, cache, fs, tracer })
    }

    /// Pulls the power: the cleanup workers die undrained, a seeded subset
    /// of unpersisted NVMM lines reaches media, the kernel page cache is
    /// lost. Then mounts the image with `Mount::Recover` on `clock`.
    ///
    /// # Errors
    ///
    /// Any I/O error from the recover mount.
    pub fn crash_and_recover(&mut self, seed: u64, clock: &ActorClock) -> IoResult<Recovery> {
        let total = Stopwatch::start();
        let t0 = Instant::now();
        self.cache.abort();
        let restarted = Arc::new(self.dimm.crash_and_restart_seeded(seed));
        let crash_image_host_ns = t0.elapsed().as_nanos() as u64;
        self.ext4.simulate_power_failure();
        let v0 = clock.now();
        let t1 = Instant::now();
        let cache = {
            let _s = maybe_span(self.tracer.as_ref(), "recovery.mount", clock);
            mount(&self.cfg, &restarted, &self.ext4, self.tracer.as_ref(), Mount::Recover, clock)?
        };
        let mount_host_ns = t1.elapsed().as_nanos() as u64;
        let host = total.stop();
        let report = cache.recovery_report().expect("a recover mount has a report");
        self.dimm = restarted;
        self.fs = front(&cache, self.tracer.as_ref());
        self.cache = cache;
        Ok(Recovery {
            report,
            crash_image_host_ns,
            host,
            mount_host_ns,
            virt_ns: (clock.now() - v0).as_nanos(),
        })
    }

    /// Counter snapshot of every layer that keeps counters.
    pub fn counters(&self) -> Counters {
        Counters {
            cache: self.cache.stats().snapshot(),
            nvmm: {
                let n = self.dimm.stats().snapshot();
                NvmmCounts {
                    bytes_stored: n.bytes_stored,
                    bytes_read: n.bytes_read,
                    lines_flushed: n.lines_flushed,
                    fences: n.fences,
                    drains: n.drains,
                    commit_stores: n.commit_stores,
                }
            },
            dev: self.ssd.stats().snapshot(),
            cleanup_virt_ns: self.cache.cleanup_clocks().map(|c| c.now().as_nanos()).sum(),
        }
    }

    /// Graceful shutdown (drain, join workers).
    pub fn shutdown(&self, clock: &ActorClock) {
        self.cache.shutdown(clock);
    }
}

/// One instant's public counters.
#[derive(Debug, Clone)]
pub struct Counters {
    /// `NvCacheStats`.
    pub cache: nvcache::NvCacheStatsSnapshot,
    /// `NvmmStats` of the log DIMM.
    pub nvmm: NvmmCounts,
    /// `DeviceStats` of the SSD.
    pub dev: DeviceStatsSnapshot,
    /// Sum of the cleanup workers' virtual clocks, ns.
    pub cleanup_virt_ns: u64,
}

/// The `NvmmStats` counters the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct NvmmCounts {
    /// Bytes stored into NVMM.
    pub bytes_stored: u64,
    /// Bytes read from NVMM.
    pub bytes_read: u64,
    /// Cache lines written back (`pwb`).
    pub lines_flushed: u64,
    /// `pfence`s.
    pub fences: u64,
    /// `psync`s.
    pub drains: u64,
    /// Commit-flag stores.
    pub commit_stores: u64,
}
