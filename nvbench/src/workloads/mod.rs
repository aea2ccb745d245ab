//! The four workloads. Each round builds a fresh NVCache+SSD stack, sets
//! up, runs a fixed, seeded operation list, then crashes and recovers.

mod oltp;
mod queued;
mod randwrite;
mod readzipf;

use std::sync::Arc;

use crate::trace::Tracer;
use crate::workload::Round;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3: rocklet and sqlight, working set inside the read cache.
    Oltp,
    /// Fig. 5: sync random writes past the log capacity, live cleanup.
    RandwriteSaturate,
    /// Fig. 7: zipfian reads over four times the read cache.
    ReadZipf,
    /// Doorbell-batched writes through two queue pairs.
    QueuedBurst,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::Oltp, Workload::RandwriteSaturate, Workload::ReadZipf, Workload::QueuedBurst];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Oltp => "oltp",
            Workload::RandwriteSaturate => "randwrite-saturate",
            Workload::ReadZipf => "read-zipf",
            Workload::QueuedBurst => "queued-burst",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether virtual time is a pure function of the seed (cleanup parked,
    /// one host thread). Only `randwrite-saturate` runs live cleanup.
    pub fn deterministic(self) -> bool {
        self != Workload::RandwriteSaturate
    }

    /// Runs one round with inputs from `seed`, traced when `tracer` is set.
    ///
    /// # Errors
    ///
    /// Set-up or recovery errors (operation errors are counted instead).
    pub fn run(self, seed: u64, tracer: Option<Arc<Tracer>>) -> vfs::IoResult<Round> {
        match self {
            Workload::Oltp => oltp::run(seed, tracer),
            Workload::RandwriteSaturate => randwrite::run(seed, tracer),
            Workload::ReadZipf => readzipf::run(seed, tracer),
            Workload::QueuedBurst => queued::run(seed, tracer),
        }
    }
}
