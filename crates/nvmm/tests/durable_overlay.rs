//! `NvDimm` against a byte-level reference model, plus a concurrency check
//! of its word-granular live image.
//!
//! The reference model keeps the plainest form of the persistency contract:
//! a live byte image, a full durable byte image, one dirty flag per cache
//! line and this thread's `pwb` queue. A fence copies each queued line from
//! live to durable; a crash starts from durable and, for each dirty line in
//! ascending order, draws once whether it was evicted (persisted anyway).
//! The DIMM keeps only pre-images of dirty lines, so any divergence in
//! sub-word stores, line bookkeeping or the crash overlay shows up here.

use std::sync::{Arc, Barrier};

use nvmm::{NvDimm, NvmmProfile, CACHE_LINE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::ActorClock;

/// Crash-time eviction probabilities every case is checked under.
const EVICTIONS: [f64; 3] = [0.0, 0.5, 1.0];

/// Byte-level reference model of one DIMM driven from one thread.
struct Model {
    live: Vec<u8>,
    durable: Vec<u8>,
    dirty: Vec<bool>,
    pending: Vec<u64>,
}

impl Model {
    fn new(size: usize) -> Self {
        Model {
            live: vec![0; size],
            durable: vec![0; size],
            dirty: vec![false; size.div_ceil(CACHE_LINE as usize)],
            pending: Vec::new(),
        }
    }

    fn lines(off: usize, len: usize) -> std::ops::RangeInclusive<u64> {
        let line = CACHE_LINE as usize;
        (off / line) as u64..=((off + len - 1) / line) as u64
    }

    fn line_bytes(&self, line: u64) -> std::ops::Range<usize> {
        let start = line as usize * CACHE_LINE as usize;
        start..(start + CACHE_LINE as usize).min(self.live.len())
    }

    fn write(&mut self, off: usize, data: &[u8]) {
        self.live[off..off + data.len()].copy_from_slice(data);
        if !data.is_empty() {
            for line in Self::lines(off, data.len()) {
                self.dirty[line as usize] = true;
            }
        }
    }

    fn pwb(&mut self, off: usize, len: usize) {
        if len > 0 {
            self.pending.extend(Self::lines(off, len));
        }
    }

    fn fence(&mut self) {
        for line in std::mem::take(&mut self.pending) {
            let r = self.line_bytes(line);
            self.durable[r.clone()].copy_from_slice(&self.live[r]);
            self.dirty[line as usize] = false;
        }
    }

    fn crash_image(&self, eviction: f64, seed: u64) -> Vec<u8> {
        let mut image = self.durable.clone();
        if eviction > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed);
            for line in 0..self.dirty.len() as u64 {
                if self.dirty[line as usize] && rng.gen_bool(eviction) {
                    let r = self.line_bytes(line);
                    image[r.clone()].copy_from_slice(&self.live[r]);
                }
            }
        }
        image
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// (offset seed, length, first payload byte)
    Write(u64, usize, u8),
    /// (offset seed, length)
    Pwb(u64, usize),
    Pfence,
    Psync,
    /// (offset seed, value)
    CommitStore(u64, u64),
    /// (offset seed, length)
    Read(u64, usize),
}

/// Lengths around word and line boundaries, plus arbitrary short ones.
fn len_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(7usize),
        Just(9usize),
        Just(63usize),
        Just(65usize),
        Just(4097usize),
        0..200usize,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u64>(), len_strategy(), any::<u8>()).prop_map(|(o, l, b)| Op::Write(o, l, b)),
        (any::<u64>(), len_strategy(), any::<u8>()).prop_map(|(o, l, b)| Op::Write(o, l, b)),
        (any::<u64>(), len_strategy()).prop_map(|(o, l)| Op::Pwb(o, l)),
        Just(Op::Pfence),
        Just(Op::Psync),
        (any::<u64>(), any::<u64>()).prop_map(|(o, v)| Op::CommitStore(o, v)),
        (any::<u64>(), len_strategy()).prop_map(|(o, l)| Op::Read(o, l)),
    ]
}

/// Clamps a generated `(offset seed, length)` into a DIMM of `size` bytes.
fn place(seed: u64, len: usize, size: usize) -> (usize, usize) {
    let len = len.min(size);
    (seed as usize % (size - len + 1), len)
}

/// [`NvDimm::commit_store`]. Under `pmcheck` the checker rightly rejects
/// commits in a random op order, so the same store + `pwb` is issued plainly.
fn commit_store(d: &NvDimm, off: u64, value: u64, clock: &ActorClock) {
    #[cfg(not(feature = "pmcheck"))]
    d.commit_store(off, value, clock);
    #[cfg(feature = "pmcheck")]
    {
        d.write(off, &value.to_le_bytes(), clock);
        d.pwb(off, 8);
    }
}

fn read_all(d: &NvDimm) -> Vec<u8> {
    let mut buf = vec![0u8; d.len() as usize];
    d.read_cached(0, &mut buf);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn dimm_matches_byte_level_model(
        size in prop_oneof![Just(61usize), Just(4099usize), Just(9001usize)],
        ops in proptest::collection::vec(op_strategy(), 1..48),
        seed in any::<u64>(),
    ) {
        let clock = ActorClock::new();
        let mut model = Model::new(size);
        let dimms: Vec<NvDimm> = EVICTIONS
            .iter()
            .map(|&p| {
                NvDimm::new(size as u64, NvmmProfile::instant().with_eviction_probability(p))
            })
            .collect();
        for op in &ops {
            match *op {
                Op::Write(o, l, b) => {
                    let (off, len) = place(o, l, size);
                    let data: Vec<u8> = (0..len).map(|i| b.wrapping_add(i as u8)).collect();
                    model.write(off, &data);
                    for d in &dimms {
                        d.write(off as u64, &data, &clock);
                    }
                }
                Op::Pwb(o, l) => {
                    let (off, len) = place(o, l, size);
                    model.pwb(off, len);
                    for d in &dimms {
                        d.pwb(off as u64, len);
                    }
                }
                Op::Pfence => {
                    model.fence();
                    for d in &dimms {
                        d.pfence(&clock);
                    }
                }
                Op::Psync => {
                    model.fence();
                    for d in &dimms {
                        d.psync(&clock);
                    }
                }
                Op::CommitStore(o, v) => {
                    let (off, _) = place(o, 8, size);
                    model.write(off, &v.to_le_bytes());
                    model.pwb(off, 8);
                    for d in &dimms {
                        commit_store(d, off as u64, v, &clock);
                    }
                }
                Op::Read(o, l) => {
                    let (off, len) = place(o, l, size);
                    for d in &dimms {
                        let mut buf = vec![0u8; len];
                        d.read_cached(off as u64, &mut buf);
                        prop_assert_eq!(&buf[..], &model.live[off..off + len]);
                    }
                }
            }
        }
        for (d, &p) in dimms.iter().zip(&EVICTIONS) {
            prop_assert_eq!(read_all(d), model.live.clone());
            for s in [seed, seed ^ 1, seed.wrapping_add(7)] {
                let image = d.crash_image(s);
                prop_assert_eq!(&image, &model.crash_image(p, s), "eviction {}, seed {}", p, s);
                prop_assert_eq!(read_all(&d.crash_and_restart_seeded(s)), image);
            }
        }
        // Drop this thread's leftover queue so it cannot leak into a later
        // case's DIMMs.
        for d in &dimms {
            d.pfence(&clock);
        }
    }
}

/// Two threads store interleaved bytes that share words and lines, each
/// flushing and fencing its own stores. Partial-word stores must merge, so
/// no byte is lost in the live image, and every fenced byte must survive a
/// crash that loses everything unfenced.
#[test]
fn concurrent_writers_of_shared_words_lose_nothing() {
    const SIZE: usize = 4096;
    const ROUNDS: u8 = 200;
    let dimm = Arc::new(NvDimm::new(SIZE as u64, NvmmProfile::instant()));
    // Both threads start every round together, so their stores overlap.
    let barrier = Arc::new(Barrier::new(2));
    // Thread t owns the 3-byte runs starting at offsets 6k + 3t: runs of
    // both threads share every word, and some straddle word boundaries.
    let owner = |i: usize| (i % 6) / 3;
    let handles: Vec<_> = (0..2usize)
        .map(|t| {
            let dimm = Arc::clone(&dimm);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let clock = ActorClock::new();
                for round in 1..=ROUNDS {
                    barrier.wait();
                    for run in (3 * t..SIZE).step_by(6) {
                        let len = 3.min(SIZE - run);
                        dimm.write(run as u64, &[round ^ t as u8; 3][..len], &clock);
                        dimm.pwb(run as u64, len);
                    }
                    dimm.pfence(&clock);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let expect: Vec<u8> = (0..SIZE).map(|i| ROUNDS ^ owner(i) as u8).collect();
    assert_eq!(read_all(&dimm), expect, "a concurrent store was lost from the live image");
    let restarted = dimm.crash_and_restart();
    assert_eq!(read_all(&restarted), expect, "a fenced store did not survive the crash");
}
