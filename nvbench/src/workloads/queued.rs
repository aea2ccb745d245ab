//! `queued-burst`: one host thread drives two submission/completion queue
//! pairs round-robin — two simulated cores, each on its own virtual clock —
//! with doorbell batches of 512 B – 4 KiB writes. Cleanup is parked and the
//! log drains at fixed doorbell counts. The round ends with a seeded crash,
//! a `Mount::Recover` mount and a read-back of both files.

use std::sync::Arc;

use nvcache::NvCacheConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::ActorClock;

use crate::system::System;
use crate::trace::{maybe_span, Tracer};
use crate::workload::{
    crash_tail, drain, fill, open_rw, parked, pm_violations, preload_file, report_error, since,
    sub_seed, take_spans, timed_check_read, Oracle, Round, Stopwatch, PAGE,
};

/// Queue pairs (and log stripes).
const PAIRS: usize = 2;
/// Pages per file (one file per pair).
const FILE_PAGES: u64 = 1024;
/// Doorbells rung in the timed phase, before the seeded crash tail.
const BURSTS: usize = 4_800;
/// Writes per doorbell.
const BATCH: std::ops::RangeInclusive<usize> = 4..=32;
/// Drain the log after this many doorbells.
const DRAIN_EVERY: usize = 40;
/// Write sizes are multiples of this, up to a page.
const SECTOR: u64 = 512;

struct Write {
    pair: usize,
    off: u64,
    len: usize,
    tag: u64,
}

/// Runs one round.
///
/// # Errors
///
/// Set-up or recovery I/O errors.
pub fn run(seed: u64, tracer: Option<Arc<Tracer>>) -> vfs::IoResult<Round> {
    // Inputs: every burst's writes (offset, length, payload tag).
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
    let burst = |b: usize, rng: &mut StdRng| -> Vec<Write> {
        let n = rng.gen_range(BATCH);
        (0..n)
            .map(|_| {
                let sectors = rng.gen_range(1..=PAGE / SECTOR);
                let off = rng.gen_range(0..=FILE_PAGES * PAGE / SECTOR - sectors) * SECTOR;
                Write { pair: b % PAIRS, off, len: (sectors * SECTOR) as usize, tag: rng.gen() }
            })
            .collect()
    };
    let mut bursts: Vec<Vec<Write>> = (0..BURSTS).map(|b| burst(b, &mut rng)).collect();
    // The crash tail is counted in writes, not bursts, so the log window
    // recovery replays has nearly the same size for every seed.
    let tail_writes = crash_tail(&mut rng, DRAIN_EVERY * (BATCH.start() + BATCH.end()) / 2);
    let mut in_tail = 0;
    while in_tail < tail_writes {
        let b = burst(bursts.len(), &mut rng);
        in_tail += b.len();
        bursts.push(b);
    }

    let setup_clock = Stopwatch::start();
    let clock = ActorClock::new();
    let cfg = parked(NvCacheConfig::default().with_log_entries(2 * 32 * DRAIN_EVERY as u64))
        .with_sq_pairs(PAIRS);
    let mut sys = System::build(cfg, tracer.clone(), &clock, |ext4, clock| {
        for p in 0..PAIRS {
            preload_file(ext4, &path(p), FILE_PAGES, |page| page_tag(seed, p, page), clock)?;
        }
        Ok(())
    })?;
    let mut fds = Vec::new();
    for p in 0..PAIRS {
        fds.push(open_rw(&sys.fs, &path(p), &clock)?);
    }
    let cores: Vec<ActorClock> = (0..PAIRS).map(|_| ActorClock::starting_at(clock.now())).collect();
    let mut qps = Vec::new();
    for (p, core) in cores.iter().enumerate() {
        qps.push(sys.cache.queue_pair(p, core)?);
    }
    let setup = setup_clock.stop();

    let spans_from = tracer.as_ref().map_or(0, |t| t.mark());
    let before = sys.counters();
    let mut shadow = vec![vec![0u8; (FILE_PAGES * PAGE) as usize]; PAIRS];
    for (p, file) in shadow.iter_mut().enumerate() {
        for (page, bytes) in file.chunks_mut(PAGE as usize).enumerate() {
            fill(bytes, page_tag(seed, p, page as u64));
        }
    }
    let mut writes = Vec::new();
    let mut failed = 0;
    let mut bytes_written = 0;
    let mut data = vec![0u8; PAGE as usize];
    let starts: Vec<_> = cores.iter().map(ActorClock::now).collect();
    let timed = Stopwatch::start();
    for (b, burst) in bursts.iter().enumerate() {
        let p = b % PAIRS;
        let (qp, core) = (&mut qps[p], &cores[p]);
        if let Some(t) = &tracer {
            t.begin_op();
        }
        // Submission instant of every accepted write, by user_data.
        let mut pending = Vec::with_capacity(burst.len());
        for w in burst {
            fill(&mut data[..w.len], w.tag);
            let _s = maybe_span(tracer.as_ref(), "squeue.submit", core);
            let at = core.now();
            match qp.submit_pwrite(fds[w.pair], &data[..w.len], w.off, core) {
                Ok(id) => pending.push((id, at, w)),
                Err(e) => {
                    failed += 1;
                    report_error("submit_pwrite", &e);
                }
            }
        }
        {
            let _s = maybe_span(tracer.as_ref(), "squeue.doorbell", core);
            qp.ring_doorbell(core);
        }
        let done = {
            let _s = maybe_span(tracer.as_ref(), "squeue.reap", core);
            qp.reap(core)
        };
        for c in done {
            let Some(&(_, at, w)) = pending.iter().find(|(id, _, _)| *id == c.user_data) else {
                continue;
            };
            match c.result {
                Ok(_) => {
                    writes.push((c.completed_at - at).as_nanos());
                    bytes_written += w.len as u64;
                    let off = w.off as usize;
                    fill(&mut shadow[w.pair][off..off + w.len], w.tag);
                }
                Err(e) => {
                    failed += 1;
                    report_error("queued pwrite", &e);
                }
            }
        }
        if (b + 1) % DRAIN_EVERY == 0 {
            drain(&sys, core);
        }
    }
    let host = timed.stop();
    let virt_ns = cores.iter().zip(&starts).map(|(c, &s)| since(c, s)).max().unwrap_or(0);
    drop(qps);
    let after = sys.counters();
    let spans_to = tracer.as_ref().map_or(0, |t| t.mark());
    let mut pm = pm_violations(&sys);

    let end = cores.iter().map(ActorClock::now).max().unwrap_or(clock.now());
    let clock = ActorClock::starting_at(end);
    let recovery = sys.crash_and_recover(seed, &clock)?;
    let mut oracle = Oracle::default();
    let mut reads = Vec::new();
    let mut buf = vec![0u8; PAGE as usize];
    for (p, file) in shadow.iter().enumerate() {
        let fd = open_rw(&sys.fs, &path(p), &clock)?;
        for (page, expect) in file.chunks(PAGE as usize).enumerate() {
            let off = page as u64 * PAGE;
            let (fs, cl) = (&sys.fs, &clock);
            if let Some(lat) =
                timed_check_read(fs, fd, off, expect, &mut buf, cl, &mut oracle, &mut failed)
            {
                reads.push(lat);
            }
        }
        sys.fs.close(fd, &clock)?;
    }
    pm.extend(pm_violations(&sys));
    sys.shutdown(&clock);
    Ok(Round {
        ops: bursts.iter().map(|b| b.len() as u64).sum(),
        untimed_ops: PAIRS as u64 * FILE_PAGES,
        failed,
        writes,
        reads,
        reads_from_readback: true,
        bytes_written,
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

/// Payload tag of the preloaded content of `page` in pair `pair`'s file.
fn page_tag(seed: u64, pair: usize, page: u64) -> u64 {
    sub_seed(seed ^ 0x9e0e, ((pair as u64) << 32) ^ page)
}

fn path(pair: usize) -> String {
    format!("/data/queue{pair}")
}
