//! `read-zipf` (paper Fig. 7): zipfian 4 KiB `pread`s over a working set
//! four times the read cache, warmed before timing, with 10% 4 KiB writes
//! so that some reads take the dirty-miss path. Cleanup is parked and the
//! log drains at fixed op counts.

use std::sync::Arc;

use nvcache::NvCacheConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::ActorClock;
use traffic::ZipfSampler;

use crate::system::System;
use crate::trace::Tracer;
use crate::workload::{
    crash_tail, drain, fill, open_rw, parked, pm_violations, preload_file, report_error, scatter,
    since, sub_seed, take_spans, timed_check_read, Oracle, Round, Stopwatch, PAGE,
};

/// Read-cache capacity, pages.
const CACHE_PAGES: usize = 1024;
/// Working set: four times the read cache.
const FILE_PAGES: u64 = 4 * CACHE_PAGES as u64;
/// Warm-up reads before timing.
const WARMUP: usize = 4 * CACHE_PAGES;
/// Timed operations, before the seeded crash tail.
const OPS: usize = 96_000;
/// Share of timed operations that write.
const WRITE_SHARE: f64 = 0.10;
/// Zipf skew.
const THETA: f64 = 0.99;
/// Drain the log after this many operations.
const DRAIN_EVERY: usize = 1_000;

const PATH: &str = "/data/zipf";

#[derive(Clone, Copy)]
enum Op {
    Read(u64),
    Write(u64),
}

/// Runs one round.
///
/// # Errors
///
/// Set-up or recovery I/O errors.
pub fn run(seed: u64, tracer: Option<Arc<Tracer>>) -> vfs::IoResult<Round> {
    // Inputs: a seeded rank → page scatter, then the zipfian op stream.
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    let scatter = scatter(FILE_PAGES, &mut rng);
    let zipf = ZipfSampler::new(FILE_PAGES, THETA);
    let warm: Vec<u64> = (0..WARMUP).map(|_| scatter[zipf.sample(&mut rng) as usize]).collect();
    let next_op = |rng: &mut StdRng| {
        let page = scatter[zipf.sample(rng) as usize];
        if rng.gen_bool(WRITE_SHARE) {
            Op::Write(page)
        } else {
            Op::Read(page)
        }
    };
    let mut ops: Vec<Op> = (0..OPS).map(|_| next_op(&mut rng)).collect();
    // The crash tail is counted in writes, the entries recovery replays,
    // so the replayed window has nearly the same size for every seed.
    let tail_writes = crash_tail(&mut rng, (DRAIN_EVERY as f64 * WRITE_SHARE) as usize);
    let mut in_tail = 0;
    while in_tail < tail_writes {
        let op = next_op(&mut rng);
        in_tail += usize::from(matches!(op, Op::Write(_)));
        ops.push(op);
    }

    let setup_clock = Stopwatch::start();
    let clock = ActorClock::new();
    let cfg = parked(NvCacheConfig::default().with_log_entries(DRAIN_EVERY as u64 / 2))
        .with_read_cache_pages(CACHE_PAGES);
    let mut sys = System::build(cfg, tracer.clone(), &clock, |ext4, clock| {
        preload_file(ext4, PATH, FILE_PAGES, |p| page_tag(seed, p, 0), clock)?;
        // Start from a cold kernel page cache: the data is on the SSD.
        ext4.simulate_power_failure();
        Ok(())
    })?;
    let fd = open_rw(&sys.fs, PATH, &clock)?;
    let mut version = vec![0u64; FILE_PAGES as usize];
    let mut oracle = Oracle::default();
    let mut failed = 0;
    let mut buf = vec![0u8; PAGE as usize];
    let mut expect = vec![0u8; PAGE as usize];
    for &page in &warm {
        fill(&mut expect, page_tag(seed, page, 0));
        timed_check_read(
            &sys.fs,
            fd,
            page * PAGE,
            &expect,
            &mut buf,
            &clock,
            &mut oracle,
            &mut failed,
        );
    }
    let setup = setup_clock.stop();

    let spans_from = tracer.as_ref().map_or(0, |t| t.mark());
    let before = sys.counters();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let v0 = clock.now();
    let timed = Stopwatch::start();
    for (i, &op) in ops.iter().enumerate() {
        if let Some(t) = &tracer {
            t.begin_op();
        }
        match op {
            Op::Read(page) => {
                fill(&mut expect, page_tag(seed, page, version[page as usize]));
                let (fs, cl) = (&sys.fs, &clock);
                if let Some(lat) = timed_check_read(
                    fs,
                    fd,
                    page * PAGE,
                    &expect,
                    &mut buf,
                    cl,
                    &mut oracle,
                    &mut failed,
                ) {
                    reads.push(lat);
                }
            }
            Op::Write(page) => {
                let v = i as u64 + 1;
                fill(&mut buf, page_tag(seed, page, v));
                let w0 = clock.now();
                match sys.fs.pwrite(fd, &buf, page * PAGE, &clock) {
                    Ok(_) => {
                        writes.push(since(&clock, w0));
                        version[page as usize] = v;
                    }
                    Err(e) => {
                        failed += 1;
                        report_error("pwrite", &e);
                    }
                }
            }
        }
        if (i + 1) % DRAIN_EVERY == 0 {
            drain(&sys, &clock);
        }
    }
    let host = timed.stop();
    let virt_ns = since(&clock, v0);
    let after = sys.counters();
    let spans_to = tracer.as_ref().map_or(0, |t| t.mark());
    let mut pm = pm_violations(&sys);

    let recovery = sys.crash_and_recover(seed, &clock)?;
    let fd = open_rw(&sys.fs, PATH, &clock)?;
    for page in 0..FILE_PAGES {
        fill(&mut expect, page_tag(seed, page, version[page as usize]));
        let (fs, cl) = (&sys.fs, &clock);
        timed_check_read(fs, fd, page * PAGE, &expect, &mut buf, cl, &mut oracle, &mut failed);
    }
    sys.fs.close(fd, &clock)?;
    pm.extend(pm_violations(&sys));
    sys.shutdown(&clock);
    Ok(Round {
        ops: ops.len() as u64,
        untimed_ops: FILE_PAGES,
        failed,
        bytes_written: writes.len() as u64 * PAGE,
        bytes_read: reads.len() as u64 * PAGE,
        writes,
        reads,
        reads_from_readback: false,
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

fn page_tag(seed: u64, page: u64, version: u64) -> u64 {
    sub_seed(seed ^ 0x21, (page << 24) ^ version)
}
