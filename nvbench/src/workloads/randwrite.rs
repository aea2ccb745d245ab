//! `randwrite-saturate` (paper Fig. 5): synchronous 4 KiB random writes,
//! each followed by `fsync`, over a file four times the log capacity, with
//! live cleanup on a one-stripe log — the client and its one cleanup
//! worker are the run's two host threads. The round ends with a drain, a
//! seeded tail of writes too short to start a cleanup batch, a crash, a
//! `Mount::Recover` mount and a read-back of every page. (Crashing at the
//! end of the live phase instead would leave a host-timing-dependent share
//! of a batch for recovery, and `recovery_virt_ms` would vary by ±20%.)

use std::sync::Arc;

use nvcache::NvCacheConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::ActorClock;
use vfs::Fd;

use crate::system::System;
use crate::trace::Tracer;
use crate::workload::{
    crash_tail, drain, fill, open_rw, pm_violations, preload_file, report_error, since, sub_seed,
    take_spans, timed_check_read, Oracle, Round, Stopwatch, PAGE,
};

/// Log entries (4 KiB each): a 4 MiB log, about one cleanup batch
/// (`batch_min` = 1000), so writers keep running into a full log.
const LOG_ENTRIES: u64 = 1024;
/// File pages: four times the log.
const FILE_PAGES: u64 = 4 * LOG_ENTRIES;
/// Timed writes: the log's capacity 32 times over.
const WRITES: usize = 32 * LOG_ENTRIES as usize;

const PATH: &str = "/data/randwrite";

/// Runs one round.
///
/// # Errors
///
/// Set-up or recovery I/O errors.
pub fn run(seed: u64, tracer: Option<Arc<Tracer>>) -> vfs::IoResult<Round> {
    let cfg = NvCacheConfig::default().with_log_entries(LOG_ENTRIES);
    // Inputs: the page each write lands on, fixed by the seed.
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    let pages: Vec<u64> = (0..WRITES).map(|_| rng.gen_range(0..FILE_PAGES)).collect();
    let tail: Vec<u64> = (0..crash_tail(&mut rng, cfg.batch_min))
        .map(|_| rng.gen_range(0..FILE_PAGES))
        .collect();

    let setup_clock = Stopwatch::start();
    let clock = ActorClock::new();
    let mut sys = System::build(cfg, tracer.clone(), &clock, |ext4, clock| {
        preload_file(ext4, PATH, FILE_PAGES, |p| page_tag(seed, p, 0), clock)
    })?;
    let fd = open_rw(&sys.fs, PATH, &clock)?;
    let setup = setup_clock.stop();

    let spans_from = tracer.as_ref().map_or(0, |t| t.mark());
    let before = sys.counters();
    let mut version = vec![0u64; FILE_PAGES as usize];
    let mut writes = Vec::with_capacity(WRITES);
    let mut failed = 0;
    let mut buf = vec![0u8; PAGE as usize];
    let v0 = clock.now();
    let timed = Stopwatch::start();
    for (i, &page) in pages.iter().enumerate() {
        if let Some(t) = &tracer {
            t.begin_op();
        }
        let v = i as u64 + 1;
        let w0 = clock.now();
        match write_page(&sys, fd, seed, page, v, &mut buf, &clock) {
            Ok(()) => {
                writes.push(since(&clock, w0));
                version[page as usize] = v;
            }
            Err(e) => {
                failed += 1;
                report_error("pwrite+fsync", &e);
            }
        }
    }
    let host = timed.stop();
    let virt_ns = since(&clock, v0);
    let after = sys.counters();
    let spans_to = tracer.as_ref().map_or(0, |t| t.mark());
    let mut pm = pm_violations(&sys);

    drain(&sys, &clock);
    for (j, &page) in tail.iter().enumerate() {
        let v = (WRITES + j) as u64 + 1;
        match write_page(&sys, fd, seed, page, v, &mut buf, &clock) {
            Ok(()) => version[page as usize] = v,
            Err(e) => {
                failed += 1;
                report_error("pwrite+fsync", &e);
            }
        }
    }
    let recovery = sys.crash_and_recover(seed, &clock)?;
    let fd = open_rw(&sys.fs, PATH, &clock)?;
    let mut oracle = Oracle::default();
    let mut reads = Vec::with_capacity(FILE_PAGES as usize);
    let mut expect = vec![0u8; PAGE as usize];
    for page in 0..FILE_PAGES {
        fill(&mut expect, page_tag(seed, page, version[page as usize]));
        let (fs, cl) = (&sys.fs, &clock);
        if let Some(lat) =
            timed_check_read(fs, fd, page * PAGE, &expect, &mut buf, cl, &mut oracle, &mut failed)
        {
            reads.push(lat);
        }
    }
    sys.fs.close(fd, &clock)?;
    pm.extend(pm_violations(&sys));
    sys.shutdown(&clock);
    Ok(Round {
        ops: WRITES as u64,
        untimed_ops: (tail.len() as u64) + FILE_PAGES,
        failed,
        bytes_written: writes.len() as u64 * PAGE,
        writes,
        reads,
        reads_from_readback: true,
        bytes_read: 0,
        virt_ns,
        host,
        setup,
        recovery,
        before,
        after,
        oracle,
        pm_violations: pm,
        spans: take_spans(tracer.as_ref()),
        spans_from,
        spans_to,
    })
}

/// Writes version `v` of `page` and fsyncs it: one acknowledged durable
/// write.
fn write_page(
    sys: &System,
    fd: Fd,
    seed: u64,
    page: u64,
    v: u64,
    buf: &mut [u8],
    clock: &ActorClock,
) -> vfs::IoResult<()> {
    fill(buf, page_tag(seed, page, v));
    sys.fs.pwrite(fd, buf, page * PAGE, clock)?;
    sys.fs.fsync(fd, clock)
}

fn page_tag(seed: u64, page: u64, version: u64) -> u64 {
    sub_seed(seed, (page << 24) ^ version)
}
