//! A simulator of byte-addressable non-volatile main memory (NVMM).
//!
//! The NVCache paper (DSN'21) runs on Intel Optane NVDIMMs and relies on three
//! hardware primitives (paper §III, Algorithm 1):
//!
//! * `pwb(addr)` — enqueue the cache line containing `addr` for write-back
//!   (`clwb` on x86);
//! * `pfence`   — order: all preceding `pwb`s are executed before anything
//!   after the fence (`sfence`);
//! * `psync`    — like `pfence`, and additionally guarantees the lines are
//!   drained to the NVMM media.
//!
//! This crate reproduces those semantics in software. Every [`NvDimm`] keeps
//! a *live* image (what the program reads and writes — i.e. the CPU caches
//! plus media) and, as an overlay on it, what would survive a power failure.
//! Stores only touch the live image; a line becomes durable when it has been
//! `pwb`'d **and** a subsequent `pfence`/`psync` from the same thread has
//! executed — exactly the contract crash-consistent code must follow. Calling
//! [`NvDimm::crash_and_restart`] discards everything that was not durable,
//! which makes ordering bugs observable in tests instead of latent.
//!
//! # The durable overlay
//!
//! There is no second, region-sized durable image. A *clean* line's durable
//! bytes are its live bytes. The first store to a clean line saves the
//! line's *pre-image* (its durable content) and marks it dirty; a fence that
//! drains the line drops the pre-image and marks it clean again. A crash
//! starts from the live image and gives each dirty line, in ascending order,
//! one seeded draw against the profile's eviction probability: a line that
//! was evicted keeps its live bytes, any other line gets its pre-image back.
//! The legal crash states are therefore exactly the subsets of the dirty
//! lines that reach media.
//!
//! One cross-thread rule follows: another thread's store that lands in a
//! line while this thread's fence is flushing that line may persist with the
//! flush. Real hardware allows this too (`clwb` can write back a racing
//! store), and it never reorders a thread's own stores, which still persist
//! exactly at that thread's own `pwb` + fence.
//!
//! Latency is charged against virtual time ([`simclock`]) using an
//! Optane-like profile, directly to the calling actor's clock: cross-thread
//! contention for media bandwidth is not modelled (see [`NvDimm`]).
//!
//! # Example
//!
//! ```
//! use nvmm::{NvDimm, NvmmProfile};
//! use simclock::ActorClock;
//!
//! let clock = ActorClock::new();
//! let dimm = NvDimm::new(4096, NvmmProfile::optane());
//! dimm.write(0, b"hello", &clock);
//! dimm.pwb(0, 5);
//! dimm.pfence(&clock);
//! let recovered = dimm.crash_and_restart();
//! let mut buf = [0u8; 5];
//! recovered.read(0, &mut buf, &clock);
//! assert_eq!(&buf, b"hello");
//! ```

mod dimm;
mod ints;
#[cfg(feature = "pmcheck")]
mod pmcheck;
mod profile;
mod region;
mod stats;

pub use dimm::{NvDimm, CACHE_LINE};
pub use ints::PmemInts;
pub use profile::NvmmProfile;
pub use region::NvRegion;
pub use stats::NvmmStats;
