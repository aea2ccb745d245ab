//! What every workload shares: the per-round record, seeded payloads, the
//! correctness oracle's tally, and the parked-cleanup configuration.

use std::sync::Arc;
use std::time::Instant;

use nvcache::NvCacheConfig;
use rand::rngs::StdRng;
use rand::Rng;
use simclock::{ActorClock, SimTime};
use vfs::{Fd, FileSystem, IoResult, OpenFlags};

use crate::system::{Counters, Recovery, System};
use crate::trace::{maybe_span, Span, Tracer};

/// Everything one round measured.
#[derive(Debug)]
pub struct Round {
    /// Timed-phase operations issued (app calls, or raw writes/reads).
    pub ops: u64,
    /// Operations issued outside the timed phase: a crash tail written
    /// after it, and the read-back after recovery.
    pub untimed_ops: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Virtual latency of each acknowledged durable write, ns.
    pub writes: Vec<u64>,
    /// Virtual latency of each read, ns (the timed mix's reads, or the
    /// post-recovery read-back when the mix has none).
    pub reads: Vec<u64>,
    /// Whether `reads` come from the post-recovery read-back.
    pub reads_from_readback: bool,
    /// User payload bytes written in the timed phase.
    pub bytes_written: u64,
    /// User payload bytes read in the timed phase.
    pub bytes_read: u64,
    /// Virtual duration of the timed phase, ns.
    pub virt_ns: u64,
    /// Host duration of the timed phase.
    pub host: HostTime,
    /// Host duration of mount, preload and warm-up.
    pub setup: HostTime,
    /// The crash and recover mount that ended the round.
    pub recovery: Recovery,
    /// Counters at the start and at the end of the timed phase.
    pub before: Counters,
    /// See `before`.
    pub after: Counters,
    /// The correctness oracle's tally.
    pub oracle: Oracle,
    /// pmcheck violations (empty unless built with `--features pmcheck`).
    pub pm_violations: Vec<String>,
    /// Recorded spans (traced rounds only) and the index of the first
    /// span after set-up.
    pub spans: Vec<Span>,
    /// See `spans`.
    pub spans_from: usize,
    /// Index of the first span after the timed phase.
    pub spans_to: usize,
}

/// Tally of oracle checks: every read the benchmark can predict is
/// compared with the last acknowledged value.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Values compared.
    pub checked: u64,
    /// Values that differed from the last acknowledged write.
    pub lost: u64,
    /// Description of the first mismatch.
    pub first: Option<String>,
}

impl Oracle {
    /// Records one comparison; `what` describes a mismatch.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.lost += 1;
            if self.first.is_none() {
                self.first = Some(what());
            }
        }
    }
}

/// Fills `buf` with the payload identified by `tag` (SplitMix64 stream):
/// the oracle regenerates it instead of storing it.
pub fn fill(buf: &mut [u8], tag: u64) {
    let mut state = tag ^ 0x6a09_e667_f3bc_c908;
    for chunk in buf.chunks_mut(8) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
    }
}

/// The payload for `tag`, `len` bytes long.
pub fn payload(len: usize, tag: u64) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill(&mut v, tag);
    v
}

/// Mixes a seed with a stream id into an independent sub-seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z ^ (z >> 32)
}

/// A seeded permutation of `0..n` (zipf rank → key), so hot keys are
/// spread over the key space instead of clustered at its start.
pub fn scatter(n: u64, rng: &mut StdRng) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// Length of the crash tail a workload appends after its last drain, so
/// the crash finds a seeded, roughly half-full window in the log for
/// recovery to replay: between 50% and 55% of `window` (a drain interval
/// or a cleanup batch, in whatever unit the workload counts).
pub fn crash_tail(rng: &mut StdRng, window: usize) -> usize {
    window / 2 + rng.gen_range(0..=window / 20)
}

/// Cleanup never starts on its own: the log drains only at the flush
/// barriers the workload issues at fixed op counts, so virtual time is
/// independent of host scheduling.
pub fn parked(cfg: NvCacheConfig) -> NvCacheConfig {
    NvCacheConfig { batch_min: usize::MAX >> 1, batch_max: usize::MAX >> 1, ..cfg }
}

/// Virtual nanoseconds since `t0` on `clock`.
pub fn since(clock: &ActorClock, t0: SimTime) -> u64 {
    (clock.now() - t0).as_nanos()
}

/// A phase's duration on both host clocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTime {
    /// Wall-clock time, ns.
    pub wall_ns: u64,
    /// CPU time of every thread of the process, ns. Unlike wall time it
    /// leaves out the time the machine ran something else.
    pub cpu_ns: u64,
}

/// Measures a phase on both host clocks.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: u64,
}

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Stopwatch {
        Stopwatch { wall: Instant::now(), cpu: process_cpu_ns() }
    }

    /// Host time since [`start`](Stopwatch::start).
    pub fn stop(&self) -> HostTime {
        HostTime {
            wall_ns: self.wall.elapsed().as_nanos() as u64,
            cpu_ns: process_cpu_ns().saturating_sub(self.cpu),
        }
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time of this process — all threads, live and
/// exited — in ns (`getrusage(RUSAGE_SELF)`).
pub fn process_cpu_ns() -> u64 {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` (two `timeval`s
    // then fourteen `long`s on 64-bit Linux).
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let ns = |t: &Timeval| t.sec as u64 * 1_000_000_000 + t.usec as u64 * 1_000;
    ns(&ru.utime) + ns(&ru.stime)
}

/// Runs a drain barrier (the deterministic stand-in for background
/// cleanup) under an `nvcache.flush_log` span.
pub fn drain(sys: &System, clock: &ActorClock) {
    let _s = maybe_span(sys.tracer.as_ref(), "nvcache.flush_log", clock);
    sys.cache.flush_log(clock);
}

/// Writes `pages` pages of seeded content (version 0 of every page) to a
/// new file on `fs` and fsyncs it.
pub fn preload_file(
    fs: &dyn FileSystem,
    path: &str,
    pages: u64,
    tag: impl Fn(u64) -> u64,
    clock: &ActorClock,
) -> IoResult<()> {
    const CHUNK: u64 = 16;
    let fd = fs.open(path, OpenFlags::RDWR | OpenFlags::CREATE, clock)?;
    let mut buf = vec![0u8; (CHUNK * PAGE) as usize];
    let mut p = 0;
    while p < pages {
        let n = CHUNK.min(pages - p);
        for i in 0..n {
            fill(&mut buf[(i * PAGE) as usize..((i + 1) * PAGE) as usize], tag(p + i));
        }
        fs.pwrite(fd, &buf[..(n * PAGE) as usize], p * PAGE, clock)?;
        p += n;
    }
    fs.fsync(fd, clock)?;
    fs.close(fd, clock)
}

/// Page size every raw-file workload addresses.
pub const PAGE: u64 = 4096;

/// Reads `expect.len()` bytes at `off` and checks them against `expect`,
/// timing the read in virtual time. Returns the latency, or `None` on an error
/// (counted in `failed`).
#[allow(clippy::too_many_arguments)]
pub fn timed_check_read(
    fs: &Arc<dyn FileSystem>,
    fd: Fd,
    off: u64,
    expect: &[u8],
    buf: &mut [u8],
    clock: &ActorClock,
    oracle: &mut Oracle,
    failed: &mut u64,
) -> Option<u64> {
    let t0 = clock.now();
    match fs.pread(fd, &mut buf[..expect.len()], off, clock) {
        Ok(n) => {
            let lat = since(clock, t0);
            oracle.check(n == expect.len() && &buf[..n] == expect, || {
                format!(
                    "read of {} B at offset {off} differs from the last acknowledged write",
                    expect.len()
                )
            });
            Some(lat)
        }
        Err(e) => {
            *failed += 1;
            report_error("pread", &e);
            None
        }
    }
}

/// Logs an operation error to stderr (the run counts it as failed).
pub fn report_error(what: &str, e: &dyn std::fmt::Display) {
    eprintln!("nvbench: {what} failed: {e}");
}

/// Opens `path` read-write on `fs`.
pub fn open_rw(fs: &Arc<dyn FileSystem>, path: &str, clock: &ActorClock) -> IoResult<Fd> {
    fs.open(path, OpenFlags::RDWR | OpenFlags::CREATE, clock)
}

/// Persistency-ordering and lock-order violations of the mount (always
/// empty without the `pmcheck` feature).
#[cfg(feature = "pmcheck")]
pub fn pm_violations(sys: &System) -> Vec<String> {
    let mut v = sys.cache.pm_violations();
    v.extend(sys.cache.lock_order_violations());
    v
}

/// Persistency-ordering and lock-order violations of the mount (always
/// empty without the `pmcheck` feature).
#[cfg(not(feature = "pmcheck"))]
pub fn pm_violations(_sys: &System) -> Vec<String> {
    Vec::new()
}

/// Takes the tracer's spans, if any.
pub fn take_spans(tracer: Option<&Arc<Tracer>>) -> Vec<Span> {
    tracer.map(|t| t.take()).unwrap_or_default()
}
