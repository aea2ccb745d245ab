//! `oltp` (paper Fig. 3): two legacy applications on one mount, each a
//! closed-loop client on its own virtual clock — rocklet doing synchronous
//! 256 B puts and gets, sqlight doing single-row insert transactions and
//! point reads — with zipfian keys and a working set inside the read cache.
//! A discrete-event loop on one host thread always runs the client whose
//! clock is earliest; cleanup is parked and the log drains at fixed op
//! counts, so the run is deterministic. The round ends with a seeded crash,
//! a `Mount::Recover` mount, and both databases reopened and checked key by
//! key against the last acknowledged values.

use std::sync::Arc;

use nvcache::NvCacheConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rocklet::{RockletDb, RockletOptions, WriteOptions};
use simclock::ActorClock;
use sqlight::{SqlightDb, SqlightOptions};
use traffic::ZipfSampler;
use vfs::FileSystem;

use crate::system::System;
use crate::trace::{maybe_span, Tracer};
use crate::workload::{
    crash_tail, drain, parked, payload, pm_violations, report_error, scatter, since, sub_seed,
    take_spans, Oracle, Round, Stopwatch,
};

/// Value size of every put and row.
const VALUE: usize = 256;
/// rocklet keys, all preloaded.
const KEYS: u64 = 2_000;
/// sqlight rows preloaded; inserts append after them.
const ROWS: u64 = 2_000;
/// Timed operations per client, before the seeded crash tail.
const OPS_PER_CLIENT: usize = 6_000;
/// Share of each client's operations that read.
const READ_SHARE: f64 = 0.3;
/// Zipf skew.
const THETA: f64 = 0.99;
/// Drain the log after this many operations (both clients together).
const DRAIN_EVERY: usize = 250;
/// Read-cache pages: the whole working set fits.
const CACHE_PAGES: usize = 4_096;

const ROCK_DIR: &str = "/db/rock";
const SQL_PATH: &str = "/db/sql.db";

#[derive(Clone, Copy)]
enum Op {
    Get(u64),
    Put(u64),
    Read(u64),
    Insert,
}

/// Runs one round.
///
/// # Errors
///
/// Set-up or recovery errors.
pub fn run(seed: u64, tracer: Option<Arc<Tracer>>) -> vfs::IoResult<Round> {
    // Inputs: each client's op stream.
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    let keys = ZipfSampler::new(KEYS, THETA);
    let rows = ZipfSampler::new(ROWS, THETA);
    let key_of: Vec<u64> = scatter(KEYS, &mut rng);
    let row_of: Vec<u64> = scatter(ROWS, &mut rng);
    let tail = crash_tail(&mut rng, DRAIN_EVERY);
    let rock_ops: Vec<Op> = (0..OPS_PER_CLIENT + tail / 2)
        .map(|_| {
            let k = key_of[keys.sample(&mut rng) as usize];
            if rng.gen_bool(READ_SHARE) {
                Op::Get(k)
            } else {
                Op::Put(k)
            }
        })
        .collect();
    let sql_ops: Vec<Op> = (0..OPS_PER_CLIENT + tail - tail / 2)
        .map(|_| {
            if rng.gen_bool(READ_SHARE) {
                Op::Read(row_of[rows.sample(&mut rng) as usize])
            } else {
                Op::Insert
            }
        })
        .collect();
    let streams = [rock_ops, sql_ops];

    let setup_clock = Stopwatch::start();
    let clock = ActorClock::new();
    let cfg =
        parked(NvCacheConfig::default().with_log_entries(4_096)).with_read_cache_pages(CACHE_PAGES);
    let mut sys = System::build(cfg, tracer.clone(), &clock, |_, _| Ok(()))?;
    let io = |e: &dyn std::fmt::Display| vfs::IoError::Other(e.to_string());
    let rock = RockletDb::open(Arc::clone(&sys.fs), ROCK_DIR, rock_options(), &clock)
        .map_err(|e| io(&e))?;
    let sync = WriteOptions { sync: true };
    let mut rock_version = vec![0u64; KEYS as usize];
    for k in 0..KEYS {
        rock.put(&key(k), &payload(VALUE, rock_tag(seed, k, 0)), &sync, &clock)
            .map_err(|e| io(&e))?;
    }
    let sql = SqlightDb::open(Arc::clone(&sys.fs), SQL_PATH, SqlightOptions::default(), &clock)
        .map_err(|e| io(&e))?;
    sql.create_table("kv", &clock).map_err(|e| io(&e))?;
    sql.begin().map_err(|e| io(&e))?;
    for r in 0..ROWS {
        sql.insert("kv", r as i64, &payload(VALUE, row_tag(seed, r)), &clock)
            .map_err(|e| io(&e))?;
    }
    sql.commit(&clock).map_err(|e| io(&e))?;
    drain(&sys, &clock);
    let setup = setup_clock.stop();

    let spans_from = tracer.as_ref().map_or(0, |t| t.mark());
    let before = sys.counters();
    let start = clock.now();
    let clients = [ActorClock::starting_at(start), ActorClock::starting_at(start)];
    let mut cursor = [0usize; 2];
    let mut next_row = ROWS;
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let (mut bytes_read, mut bytes_written) = (0, 0);
    let mut oracle = Oracle::default();
    let mut failed = 0;
    let timed = Stopwatch::start();
    for done in 1.. {
        // The earliest client goes next; ties go to rocklet.
        let Some(c) = (0..2)
            .filter(|&c| cursor[c] < streams[c].len())
            .min_by_key(|&c| (clients[c].now(), c))
        else {
            break;
        };
        let op = streams[c][cursor[c]];
        cursor[c] += 1;
        let clock = &clients[c];
        if let Some(t) = &tracer {
            t.begin_op();
        }
        let t = clock.now();
        match op {
            Op::Put(k) => {
                let v = done as u64;
                let r = {
                    let _s = maybe_span(tracer.as_ref(), "app.rocklet.put", clock);
                    rock.put(&key(k), &payload(VALUE, rock_tag(seed, k, v)), &sync, clock)
                };
                match r {
                    Ok(()) => {
                        writes.push(since(clock, t));
                        bytes_written += VALUE as u64;
                        rock_version[k as usize] = v;
                    }
                    Err(e) => {
                        failed += 1;
                        report_error("rocklet put", &e);
                    }
                }
            }
            Op::Get(k) => {
                let r = {
                    let _s = maybe_span(tracer.as_ref(), "app.rocklet.get", clock);
                    rock.get(&key(k), clock)
                };
                match r {
                    Ok(got) => {
                        reads.push(since(clock, t));
                        bytes_read += VALUE as u64;
                        let want = payload(VALUE, rock_tag(seed, k, rock_version[k as usize]));
                        oracle.check(got.as_deref() == Some(&want[..]), || {
                            format!("rocklet get of key {k} missed its last acknowledged put")
                        });
                    }
                    Err(e) => {
                        failed += 1;
                        report_error("rocklet get", &e);
                    }
                }
            }
            Op::Insert => {
                let r = {
                    let _s = maybe_span(tracer.as_ref(), "app.sqlight.insert", clock);
                    let row = payload(VALUE, row_tag(seed, next_row));
                    sql.insert("kv", next_row as i64, &row, clock)
                };
                match r {
                    Ok(()) => {
                        writes.push(since(clock, t));
                        bytes_written += VALUE as u64;
                        next_row += 1;
                    }
                    Err(e) => {
                        failed += 1;
                        report_error("sqlight insert", &e);
                    }
                }
            }
            Op::Read(r) => {
                let got = {
                    let _s = maybe_span(tracer.as_ref(), "app.sqlight.get", clock);
                    sql.get("kv", r as i64, clock)
                };
                match got {
                    Ok(got) => {
                        reads.push(since(clock, t));
                        bytes_read += VALUE as u64;
                        let want = payload(VALUE, row_tag(seed, r));
                        oracle.check(got.as_deref() == Some(&want[..]), || {
                            format!("sqlight read of row {r} missed its acknowledged insert")
                        });
                    }
                    Err(e) => {
                        failed += 1;
                        report_error("sqlight get", &e);
                    }
                }
            }
        }
        if done % DRAIN_EVERY == 0 {
            drain(&sys, clock);
        }
    }
    let host = timed.stop();
    let end = clients.iter().map(ActorClock::now).max().unwrap_or(start);
    let after = sys.counters();
    let spans_to = tracer.as_ref().map_or(0, |t| t.mark());
    let mut pm = pm_violations(&sys);

    // Crash without closing either database, then reopen both on the
    // recovered mount and check every key and every acknowledged row.
    drop((rock, sql));
    let clock = ActorClock::starting_at(end);
    let recovery = sys.crash_and_recover(seed, &clock)?;
    check_recovered(&sys.fs, seed, &rock_version, next_row, &mut oracle, &clock)?;
    pm.extend(pm_violations(&sys));
    sys.shutdown(&clock);
    Ok(Round {
        ops: streams.iter().map(|s| s.len() as u64).sum(),
        untimed_ops: 0,
        failed,
        writes,
        reads,
        reads_from_readback: false,
        bytes_written,
        bytes_read,
        virt_ns: (end - start).as_nanos(),
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

fn check_recovered(
    fs: &Arc<dyn FileSystem>,
    seed: u64,
    rock_version: &[u64],
    rows: u64,
    oracle: &mut Oracle,
    clock: &ActorClock,
) -> vfs::IoResult<()> {
    let io = |e: &dyn std::fmt::Display| vfs::IoError::Other(e.to_string());
    let rock =
        RockletDb::open(Arc::clone(fs), ROCK_DIR, rock_options(), clock).map_err(|e| io(&e))?;
    for (k, &v) in rock_version.iter().enumerate() {
        let got = rock.get(&key(k as u64), clock).map_err(|e| io(&e))?;
        let want = payload(VALUE, rock_tag(seed, k as u64, v));
        oracle.check(got.as_deref() == Some(&want[..]), || {
            format!("after recovery, rocklet key {k} lost its last acknowledged put")
        });
    }
    rock.shutdown(clock).map_err(|e| io(&e))?;
    let sql = SqlightDb::open(Arc::clone(fs), SQL_PATH, SqlightOptions::default(), clock)
        .map_err(|e| io(&e))?;
    for r in 0..rows {
        let got = sql.get("kv", r as i64, clock).map_err(|e| io(&e))?;
        let want = payload(VALUE, row_tag(seed, r));
        oracle.check(got.as_deref() == Some(&want[..]), || {
            format!("after recovery, sqlight row {r} lost its acknowledged insert")
        });
    }
    sql.close(clock).map_err(|e| io(&e))
}

fn rock_options() -> RockletOptions {
    RockletOptions {
        memtable_bytes: 256 << 10,
        target_table_bytes: 512 << 10,
        ..RockletOptions::default()
    }
}

fn key(k: u64) -> Vec<u8> {
    format!("user{k:012}").into_bytes()
}

fn rock_tag(seed: u64, k: u64, version: u64) -> u64 {
    sub_seed(seed ^ 0x40c1e7, (k << 32) ^ version)
}

fn row_tag(seed: u64, r: u64) -> u64 {
    sub_seed(seed ^ 0x5117, r)
}
