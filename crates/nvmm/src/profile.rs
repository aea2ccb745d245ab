use simclock::{Bandwidth, SimTime};

/// Latency/bandwidth model of an NVMM module.
///
/// The defaults in [`NvmmProfile::optane`] are calibrated so that a 4 KiB
/// NVCache log entry (store + flush of 64 cache lines + fences) costs ≈7µs,
/// matching the paper's observed pre-saturation FIO throughput of ≈550 MiB/s
/// (paper Fig. 5) on first-generation Optane DIMMs.
#[derive(Debug, Clone)]
pub struct NvmmProfile {
    /// Sustained media write bandwidth charged when lines are drained.
    pub write_bandwidth: Bandwidth,
    /// Media read bandwidth for bulk reads.
    pub read_bandwidth: Bandwidth,
    /// Fixed media read latency per read operation.
    pub read_latency: SimTime,
    /// Cost of writing into the CPU cache (per byte, expressed as bandwidth).
    pub store_bandwidth: Bandwidth,
    /// Fixed cost of a `pfence`.
    pub fence_latency: SimTime,
    /// Additional fixed cost of a `psync` (drain) over a `pfence`.
    pub drain_latency: SimTime,
    /// Whether to save dirty lines' pre-images for crash testing. Benchmarks
    /// can turn this off to skip that bookkeeping;
    /// [`crate::NvDimm::crash_and_restart`] then panics.
    pub track_durability: bool,
    /// Probability that a dirty-but-unflushed line happens to have been
    /// evicted (and therefore persisted) by the time of a crash. 0 models the
    /// adversarial "everything volatile is lost" case; property tests use
    /// intermediate values to explore torn states.
    pub eviction_probability: f64,
}

impl NvmmProfile {
    /// Optane DC PMM-like profile (see struct docs for calibration).
    pub fn optane() -> Self {
        NvmmProfile {
            write_bandwidth: Bandwidth::mib_per_sec(750.0),
            read_bandwidth: Bandwidth::gib_per_sec(6.0),
            read_latency: SimTime::from_nanos(300),
            store_bandwidth: Bandwidth::gib_per_sec(20.0),
            fence_latency: SimTime::from_nanos(100),
            drain_latency: SimTime::from_nanos(400),
            track_durability: true,
            eviction_probability: 0.0,
        }
    }

    /// A zero-latency profile for purely functional tests.
    pub fn instant() -> Self {
        NvmmProfile {
            write_bandwidth: Bandwidth::gib_per_sec(1024.0),
            read_bandwidth: Bandwidth::gib_per_sec(1024.0),
            read_latency: SimTime::ZERO,
            store_bandwidth: Bandwidth::gib_per_sec(1024.0),
            fence_latency: SimTime::ZERO,
            drain_latency: SimTime::ZERO,
            track_durability: true,
            eviction_probability: 0.0,
        }
    }

    /// Disables durability tracking (no pre-images; crash unsupported).
    pub fn without_durability_tracking(mut self) -> Self {
        self.track_durability = false;
        self
    }

    /// Sets the crash-time eviction probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn with_eviction_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.eviction_probability = p;
        self
    }
}

impl Default for NvmmProfile {
    fn default() -> Self {
        Self::optane()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optane_entry_cost_matches_calibration() {
        let p = NvmmProfile::optane();
        // 4 KiB flush + store + two fences should land in the 5..9µs window
        // that yields the paper's ~550 MiB/s single-thread log throughput.
        let cost = p.write_bandwidth.time_for(4096)
            + p.store_bandwidth.time_for(4096)
            + p.fence_latency
            + p.drain_latency;
        assert!(cost >= SimTime::from_micros(5), "too fast: {cost}");
        assert!(cost <= SimTime::from_micros(9), "too slow: {cost}");
    }

    #[test]
    fn instant_profile_is_free() {
        let p = NvmmProfile::instant();
        assert_eq!(p.fence_latency, SimTime::ZERO);
        assert!(p.write_bandwidth.time_for(1 << 20) <= SimTime::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bad_probability_panics() {
        let _ = NvmmProfile::optane().with_eviction_probability(1.5);
    }
}
