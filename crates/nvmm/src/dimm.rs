use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::ActorClock;

#[cfg(test)]
use simclock::SimTime;

use crate::{NvmmProfile, NvmmStats};

/// Size of a CPU cache line; flushes happen at this granularity.
pub const CACHE_LINE: u64 = 64;

/// Words of the live image per cache line.
const LINE_WORDS: usize = CACHE_LINE as usize / 8;

/// Global id source so per-thread flush queues can be keyed per DIMM.
static NEXT_DIMM_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread `pwb` queues (the hardware analogue is the per-CPU flush
    /// queue drained by `sfence`). Keyed by DIMM id.
    static PENDING_FLUSHES: RefCell<HashMap<u64, Vec<u64>>> = RefCell::new(HashMap::new());
}

/// A simulated NVMM module.
///
/// Maintains a *live* image (CPU caches + media, what loads observe) and,
/// as an overlay on it, what would survive a crash: a clean line's durable
/// bytes always equal its live bytes, and a dirty line's durable bytes are
/// its *pre-image*, saved by the first store after the line was last
/// flushed. See the crate docs for the persistency contract.
///
/// All methods take `&self` and are safe to call from multiple threads; the
/// flush queue filled by [`pwb`](NvDimm::pwb) and drained by
/// [`pfence`](NvDimm::pfence) is per-thread, mirroring per-CPU hardware
/// queues.
///
/// Latency is charged directly to the calling actor's clock rather than
/// through a shared device timeline: actors at very different virtual times
/// (the application vs. the far-ahead cleanup thread) would otherwise
/// serialize against each other's futures. Cross-thread DIMM *bandwidth*
/// contention is therefore not modelled — the evaluation's single heavy
/// flusher is always the application thread.
pub struct NvDimm {
    id: u64,
    len: u64,
    /// Live image as little-endian words (byte `i` is byte `i % 8` of word
    /// `i / 8`); bytes past `len` in the last word stay zero. Accesses are
    /// `Relaxed`: they publish nothing, callers order cross-thread use with
    /// their own locks, and the `pre_images` lock orders a line's pre-image
    /// capture after the flush that last cleaned it.
    live: Box<[AtomicU64]>,
    /// Pre-image of every dirty line; `None` when the profile disables
    /// durability tracking.
    pre_images: Option<Mutex<HashMap<u64, [u64; LINE_WORDS]>>>,
    /// One bit per cache line: set while live may differ from durable.
    /// With durability tracking, bits change only under the `pre_images`
    /// lock, so a set bit always has a saved pre-image.
    dirty: Box<[AtomicU64]>,
    profile: NvmmProfile,
    stats: NvmmStats,
    /// Persistency-ordering shadow state (per DIMM, never global).
    #[cfg(feature = "pmcheck")]
    pm: crate::pmcheck::PmShadow,
}

impl fmt::Debug for NvDimm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NvDimm")
            .field("id", &self.id)
            .field("len", &self.len())
            .field("tracks_durability", &self.pre_images.is_some())
            .finish()
    }
}

/// Stores `data` into `words` at byte offset `off`. Whole words are plain
/// stores; a partial head or tail word is merged with a read-modify-write
/// so concurrent writers of its other bytes never lose updates.
fn store_bytes(words: &[AtomicU64], off: usize, data: &[u8]) {
    let head = if off.is_multiple_of(8) { 0 } else { (8 - off % 8).min(data.len()) };
    let (first, rest) = data.split_at(head);
    if !first.is_empty() {
        merge_word(&words[off / 8], off % 8, first);
    }
    let start = (off + head) / 8;
    let mut chunks = rest.chunks_exact(8);
    for (w, chunk) in words[start..].iter().zip(&mut chunks) {
        let mut b = [0u8; 8];
        b.copy_from_slice(chunk);
        w.store(u64::from_le_bytes(b), Ordering::Relaxed);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        merge_word(&words[start + rest.len() / 8], 0, tail);
    }
}

/// Replaces bytes `at..at + bytes.len()` of one word, leaving the rest.
fn merge_word(word: &AtomicU64, at: usize, bytes: &[u8]) {
    let mut b = [0u8; 8];
    b[at..at + bytes.len()].copy_from_slice(bytes);
    let value = u64::from_le_bytes(b);
    let mask = (u64::MAX >> (64 - 8 * bytes.len())) << (8 * at);
    let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| Some(w & !mask | value));
}

/// Loads `buf.len()` bytes of `words` starting at byte offset `off`.
fn load_bytes(words: &[AtomicU64], off: usize, buf: &mut [u8]) {
    let head = if off.is_multiple_of(8) { 0 } else { (8 - off % 8).min(buf.len()) };
    let (first, rest) = buf.split_at_mut(head);
    if !first.is_empty() {
        let b = words[off / 8].load(Ordering::Relaxed).to_le_bytes();
        first.copy_from_slice(&b[off % 8..off % 8 + head]);
    }
    let start = (off + head) / 8;
    let tail_word = start + rest.len() / 8;
    let mut chunks = rest.chunks_exact_mut(8);
    for (w, chunk) in words[start..].iter().zip(&mut chunks) {
        chunk.copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let b = words[tail_word].load(Ordering::Relaxed).to_le_bytes();
        tail.copy_from_slice(&b[..tail.len()]);
    }
}

impl NvDimm {
    /// Creates a zero-filled DIMM of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: u64, profile: NvmmProfile) -> Self {
        assert!(size > 0, "NvDimm size must be positive");
        let live = (0..size.div_ceil(8)).map(|_| AtomicU64::new(0)).collect();
        Self::from_words(live, size, profile)
    }

    /// A DIMM of `len` bytes whose live image is `live` and whose lines are
    /// all clean, i.e. durable as they stand.
    fn from_words(live: Box<[AtomicU64]>, len: u64, profile: NvmmProfile) -> Self {
        let lines = len.div_ceil(CACHE_LINE);
        let dirty = (0..lines.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        let pre_images = profile.track_durability.then(|| Mutex::new(HashMap::new()));
        NvDimm {
            id: NEXT_DIMM_ID.fetch_add(1, Ordering::Relaxed),
            len,
            live,
            pre_images,
            dirty,
            profile,
            stats: NvmmStats::default(),
            #[cfg(feature = "pmcheck")]
            pm: crate::pmcheck::PmShadow::default(),
        }
    }

    /// Capacity in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the DIMM has zero capacity (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The latency profile in use.
    pub fn profile(&self) -> &NvmmProfile {
        &self.profile
    }

    /// Aggregate operation statistics.
    pub fn stats(&self) -> &NvmmStats {
        &self.stats
    }

    fn check_range(&self, off: u64, len: usize) {
        let end = off
            .checked_add(len as u64)
            .unwrap_or_else(|| panic!("NVMM range overflow at {off}+{len}"));
        assert!(end <= self.len(), "NVMM access out of range: {off}..{end} beyond {}", self.len());
    }

    /// The dirty-bitmap word holding `line`'s bit, and that bit.
    fn dirty_bit(&self, line: u64) -> (&AtomicU64, u64) {
        (&self.dirty[(line / 64) as usize], 1 << (line % 64))
    }

    /// Marks the lines covering `off..off+len` dirty. A line that was clean
    /// first gets its pre-image saved, so this must run before the store.
    fn mark_dirty(&self, off: u64, len: usize) {
        if len == 0 {
            return;
        }
        let first = off / CACHE_LINE;
        let last = (off + len as u64 - 1) / CACHE_LINE;
        let mut pre_images = None;
        for line in first..=last {
            let (bits, bit) = self.dirty_bit(line);
            if bits.load(Ordering::Relaxed) & bit != 0 {
                continue;
            }
            if let Some(lock) = &self.pre_images {
                let map = pre_images.get_or_insert_with(|| lock.lock());
                // Another writer may have dirtied the line before the lock.
                if bits.load(Ordering::Relaxed) & bit == 0 {
                    let mut pre = [0u64; LINE_WORDS];
                    let start = line as usize * LINE_WORDS;
                    for (p, w) in pre.iter_mut().zip(&self.live[start..]) {
                        *p = w.load(Ordering::Relaxed);
                    }
                    map.insert(line, pre);
                }
            }
            bits.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Stores `data` at `off` (CPU-cache speed; **not durable** until flushed).
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn write(&self, off: u64, data: &[u8], clock: &ActorClock) {
        self.check_range(off, data.len());
        #[cfg(feature = "pmcheck")]
        if !data.is_empty() {
            let first = off / CACHE_LINE;
            let last = (off + data.len() as u64 - 1) / CACHE_LINE;
            let site = crate::pmcheck::Site::here(std::panic::Location::caller());
            self.pm.on_write(first, last, site);
        }
        self.mark_dirty(off, data.len());
        store_bytes(&self.live, off as usize, data);
        self.stats.bytes_stored.fetch_add(data.len() as u64, Ordering::Relaxed);
        clock.advance(self.profile.store_bandwidth.time_for(data.len() as u64));
    }

    /// Reads `buf.len()` bytes at `off`, charging media read latency (models a
    /// load that misses the CPU cache — bulk scans, recovery, dirty-miss).
    pub fn read(&self, off: u64, buf: &mut [u8], clock: &ActorClock) {
        self.read_cached(off, buf);
        self.stats.bytes_read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let service =
            self.profile.read_latency + self.profile.read_bandwidth.time_for(buf.len() as u64);
        clock.advance(service);
    }

    /// Reads without charging time (models a load served by the CPU cache,
    /// e.g. metadata the thread itself wrote moments ago).
    pub fn read_cached(&self, off: u64, buf: &mut [u8]) {
        self.check_range(off, buf.len());
        load_bytes(&self.live, off as usize, buf);
    }

    /// Enqueues the cache lines covering `off..off+len` for write-back
    /// (`clwb`). Durability only takes effect at the next
    /// [`pfence`](NvDimm::pfence)/[`psync`](NvDimm::psync) on *this thread*.
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn pwb(&self, off: u64, len: usize) {
        if len == 0 {
            return;
        }
        self.check_range(off, len);
        let first = off / CACHE_LINE;
        let last = (off + len as u64 - 1) / CACHE_LINE;
        #[cfg(feature = "pmcheck")]
        {
            let site = crate::pmcheck::Site::here(std::panic::Location::caller());
            let redundant = self.pm.on_pwb(first, last, site, |line| {
                let (bits, bit) = self.dirty_bit(line);
                bits.load(Ordering::Relaxed) & bit != 0
            });
            if redundant > 0 {
                self.stats.redundant_pwb_lines.fetch_add(redundant, Ordering::Relaxed);
            }
        }
        PENDING_FLUSHES.with(|p| {
            let mut map = p.borrow_mut();
            let queue = map.entry(self.id).or_default();
            queue.extend(first..=last);
        });
    }

    fn drain_pending(&self, clock: &ActorClock) -> usize {
        let mut lines = PENDING_FLUSHES.with(|p| {
            let mut map = p.borrow_mut();
            map.remove(&self.id).unwrap_or_default()
        });
        if lines.is_empty() {
            return 0;
        }
        lines.sort_unstable();
        lines.dedup();
        // A flushed line's live bytes become durable: it turns clean and its
        // pre-image is dropped.
        let mut pre_images = self.pre_images.as_ref().map(|m| m.lock());
        for &line in &lines {
            let (bits, bit) = self.dirty_bit(line);
            let was_dirty = bits.fetch_and(!bit, Ordering::Relaxed) & bit != 0;
            if let Some(map) = pre_images.as_mut().filter(|_| was_dirty) {
                map.remove(&line);
            }
        }
        drop(pre_images);
        let n = lines.len();
        self.stats.lines_flushed.fetch_add(n as u64, Ordering::Relaxed);
        let service = self.profile.write_bandwidth.time_for(n as u64 * CACHE_LINE);
        clock.advance(service);
        n
    }

    /// Store fence: drains this thread's pending `pwb`s to durable media and
    /// orders them before subsequent stores (`sfence`).
    pub fn pfence(&self, clock: &ActorClock) {
        #[cfg(feature = "pmcheck")]
        self.pm_fence_hook();
        self.stats.fences.fetch_add(1, Ordering::Relaxed);
        self.drain_pending(clock);
        clock.advance(self.profile.fence_latency);
    }

    /// Like [`pfence`](NvDimm::pfence) but additionally waits for the media
    /// drain; required for durable linearizability (paper Algorithm 1, l.27).
    pub fn psync(&self, clock: &ActorClock) {
        #[cfg(feature = "pmcheck")]
        self.pm_fence_hook();
        self.stats.drains.fetch_add(1, Ordering::Relaxed);
        self.drain_pending(clock);
        clock.advance(self.profile.fence_latency + self.profile.drain_latency);
    }

    /// Shadow-state transition for any fence flavour: flags fences that had
    /// nothing queued (pure latency) and advances this thread's epoch.
    #[cfg(feature = "pmcheck")]
    fn pm_fence_hook(&self) {
        let empty = PENDING_FLUSHES.with(|p| p.borrow().get(&self.id).is_none_or(|q| q.is_empty()));
        if empty {
            self.stats.redundant_fences.fetch_add(1, Ordering::Relaxed);
        }
        self.pm.on_fence();
    }

    /// Checked [`pfence`](NvDimm::pfence): asserts (under `pmcheck`) that
    /// every store this thread made has already been `pwb`'d, i.e. the fence
    /// really covers the payload it is ordering. Use at protocol points
    /// whose contract is "all prior stores are write-back-queued"; plain
    /// `pfence` remains available for fences without that contract.
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn persist_fence(&self, clock: &ActorClock) {
        #[cfg(feature = "pmcheck")]
        {
            let site = crate::pmcheck::Site::here(std::panic::Location::caller());
            if let Some(msg) = self.pm.check_barrier(self.id, "persist_fence", site) {
                panic!("{msg}");
            }
        }
        self.pfence(clock);
    }

    /// Checked [`psync`](NvDimm::psync); same contract as
    /// [`persist_fence`](NvDimm::persist_fence).
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn persist_barrier(&self, clock: &ActorClock) {
        #[cfg(feature = "pmcheck")]
        {
            let site = crate::pmcheck::Site::here(std::panic::Location::caller());
            if let Some(msg) = self.pm.check_barrier(self.id, "persist_barrier", site) {
                panic!("{msg}");
            }
        }
        self.psync(clock);
    }

    /// Publishes an 8-byte little-endian commit word: store + `pwb` of its
    /// line. Under `pmcheck` this is the annotated *publish* point of the
    /// durability protocol (paper Algorithm 1: pwb payload, fence, then
    /// commit) and asserts that on this thread nothing is still Dirty and no
    /// `pwb` is un-fenced — otherwise the commit word is being published
    /// before the fence covering its payload.
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn commit_store(&self, off: u64, value: u64, clock: &ActorClock) {
        #[cfg(feature = "pmcheck")]
        let site = crate::pmcheck::Site::here(std::panic::Location::caller());
        #[cfg(feature = "pmcheck")]
        if let Some(msg) = self.pm.check_commit(self.id, off, off / CACHE_LINE, site) {
            panic!("{msg}");
        }
        self.write(off, &value.to_le_bytes(), clock);
        self.pwb(off, 8);
        self.stats.commit_stores.fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "pmcheck")]
        self.pm.register_commit(off / CACHE_LINE, site);
    }

    /// Violations recorded by the `pmcheck` shadow checker on this DIMM.
    ///
    /// Violations also panic at the offending call site; this registry is
    /// for end-of-test auditing (and for tests that catch the panic).
    #[cfg(feature = "pmcheck")]
    pub fn pm_violations(&self) -> Vec<String> {
        self.pm.violations()
    }

    /// Convenience: `write` + `pwb` over the same range.
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn write_and_pwb(&self, off: u64, data: &[u8], clock: &ActorClock) {
        self.write(off, data, clock);
        self.pwb(off, data.len());
    }

    /// The post-crash live image as words: the live image with each dirty
    /// line, in ascending order, independently "evicted" (persisted anyway)
    /// with the profile's eviction probability, and otherwise rolled back
    /// to its pre-image.
    fn crash_words(&self, seed: u64) -> Box<[AtomicU64]> {
        #[cfg(feature = "pmcheck")]
        {
            let found = self.pm.check_crash(self.id);
            if !found.is_empty() {
                panic!("{}", found.join("\n"));
            }
        }
        let pre_images = self
            .pre_images
            .as_ref()
            .expect("crash semantics unavailable: durability tracking disabled")
            .lock();
        let words: Box<[AtomicU64]> =
            self.live.iter().map(|w| AtomicU64::new(w.load(Ordering::Relaxed))).collect();
        let p = self.profile.eviction_probability;
        let mut rng = (p > 0.0).then(|| StdRng::seed_from_u64(seed));
        for line in 0..self.len.div_ceil(CACHE_LINE) {
            let (bits, bit) = self.dirty_bit(line);
            if bits.load(Ordering::Relaxed) & bit == 0
                || rng.as_mut().is_some_and(|r| r.gen_bool(p))
            {
                continue;
            }
            if let Some(pre) = pre_images.get(&line) {
                let start = line as usize * LINE_WORDS;
                for (w, v) in words[start..].iter().zip(pre) {
                    w.store(*v, Ordering::Relaxed);
                }
            }
        }
        words
    }

    /// Produces the post-crash memory image: what was durable, with each
    /// still-dirty line independently "evicted" (persisted anyway) with the
    /// profile's eviction probability, using `seed` for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if the profile disabled durability tracking.
    pub fn crash_image(&self, seed: u64) -> Vec<u8> {
        let mut image = vec![0u8; self.len as usize];
        load_bytes(&self.crash_words(seed), 0, &mut image);
        image
    }

    /// Simulates a power failure followed by reboot: returns a fresh DIMM
    /// whose content is exactly what was durable (deterministic, seed 0).
    ///
    /// # Panics
    ///
    /// Panics if the profile disabled durability tracking.
    pub fn crash_and_restart(&self) -> NvDimm {
        self.crash_and_restart_seeded(0)
    }

    /// Simulates a crash with a seeded eviction draw (see
    /// [`crash_image`](NvDimm::crash_image)).
    pub fn crash_and_restart_seeded(&self, seed: u64) -> NvDimm {
        Self::from_words(self.crash_words(seed), self.len, self.profile.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> ActorClock {
        ActorClock::new()
    }

    #[test]
    fn write_then_read_round_trips() {
        let c = clock();
        let d = NvDimm::new(1024, NvmmProfile::instant());
        d.write(100, b"abcdef", &c);
        let mut buf = [0u8; 6];
        d.read(100, &mut buf, &c);
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn unflushed_write_is_lost_on_crash() {
        let c = clock();
        let d = NvDimm::new(1024, NvmmProfile::instant());
        d.write(0, b"volatile!", &c);
        let r = d.crash_and_restart();
        let mut buf = [0u8; 9];
        r.read_cached(0, &mut buf);
        assert_eq!(&buf, &[0u8; 9], "unflushed data must not survive");
    }

    #[test]
    fn pwb_without_fence_is_still_volatile() {
        let c = clock();
        let d = NvDimm::new(1024, NvmmProfile::instant());
        d.write(0, b"queued", &c);
        d.pwb(0, 6);
        let r = d.crash_and_restart();
        let mut buf = [0u8; 6];
        r.read_cached(0, &mut buf);
        assert_eq!(&buf, &[0u8; 6]);
    }

    #[test]
    fn pwb_plus_fence_is_durable() {
        let c = clock();
        let d = NvDimm::new(1024, NvmmProfile::instant());
        d.write(0, b"durable", &c);
        d.pwb(0, 7);
        d.pfence(&c);
        let r = d.crash_and_restart();
        let mut buf = [0u8; 7];
        r.read_cached(0, &mut buf);
        assert_eq!(&buf, b"durable");
    }

    #[test]
    fn fence_only_persists_flushed_lines() {
        let c = clock();
        let d = NvDimm::new(4096, NvmmProfile::instant());
        // Two writes on different cache lines; only the first is pwb'd.
        d.write(0, b"first", &c);
        d.write(2048, b"second", &c);
        d.pwb(0, 5);
        d.pfence(&c);
        let r = d.crash_and_restart();
        let mut a = [0u8; 5];
        let mut b = [0u8; 6];
        r.read_cached(0, &mut a);
        r.read_cached(2048, &mut b);
        assert_eq!(&a, b"first");
        assert_eq!(&b, &[0u8; 6]);
    }

    #[test]
    fn fences_are_per_thread() {
        let c = clock();
        let d = std::sync::Arc::new(NvDimm::new(1024, NvmmProfile::instant()));
        d.write(0, b"mine", &c);
        d.pwb(0, 4);
        // A fence on a different thread must not drain this thread's queue.
        let d2 = std::sync::Arc::clone(&d);
        std::thread::spawn(move || {
            let c2 = ActorClock::new();
            d2.pfence(&c2);
        })
        .join()
        .unwrap();
        let r = d.crash_and_restart();
        let mut buf = [0u8; 4];
        r.read_cached(0, &mut buf);
        assert_eq!(&buf, &[0u8; 4], "other thread's fence must not persist our lines");
    }

    #[test]
    fn rewrite_after_flush_restores_old_value_on_crash() {
        let c = clock();
        let d = NvDimm::new(1024, NvmmProfile::instant());
        d.write(0, b"v1", &c);
        d.pwb(0, 2);
        d.psync(&c);
        d.write(0, b"v2", &c); // not flushed
        let r = d.crash_and_restart();
        let mut buf = [0u8; 2];
        r.read_cached(0, &mut buf);
        assert_eq!(&buf, b"v1");
    }

    #[test]
    fn eviction_probability_one_persists_everything() {
        let c = clock();
        let prof = NvmmProfile::instant().with_eviction_probability(1.0);
        let d = NvDimm::new(1024, prof);
        d.write(0, b"evicted", &c);
        let r = d.crash_and_restart();
        let mut buf = [0u8; 7];
        r.read_cached(0, &mut buf);
        assert_eq!(&buf, b"evicted");
    }

    #[test]
    fn crash_image_is_seed_deterministic() {
        let c = clock();
        let prof = NvmmProfile::instant().with_eviction_probability(0.5);
        let d = NvDimm::new(8192, prof);
        for i in 0..32 {
            d.write(i * 256, &[i as u8 + 1; 64], &c);
        }
        assert_eq!(d.crash_image(7), d.crash_image(7));
        // Different seeds should (overwhelmingly) differ for 32 dirty lines.
        assert_ne!(d.crash_image(7), d.crash_image(8));
    }

    #[test]
    fn write_charges_store_time_and_flush_charges_media_time() {
        let c = clock();
        let d = NvDimm::new(1 << 20, NvmmProfile::optane());
        d.write(0, &[7u8; 4096], &c);
        let after_store = c.now();
        assert!(after_store > SimTime::ZERO);
        d.pwb(0, 4096);
        d.psync(&c);
        let after_sync = c.now();
        // Media flush of 64 lines dominates the store cost.
        assert!(after_sync - after_store > (after_store) * 2);
    }

    #[test]
    fn stats_accumulate() {
        let c = clock();
        let d = NvDimm::new(4096, NvmmProfile::instant());
        d.write(0, &[1; 128], &c);
        d.pwb(0, 128);
        d.pfence(&c);
        let mut buf = [0u8; 64];
        d.read(0, &mut buf, &c);
        assert_eq!(d.stats().bytes_stored.load(Ordering::Relaxed), 128);
        assert_eq!(d.stats().lines_flushed.load(Ordering::Relaxed), 2);
        assert_eq!(d.stats().fences.load(Ordering::Relaxed), 1);
        assert_eq!(d.stats().bytes_read.load(Ordering::Relaxed), 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let c = clock();
        let d = NvDimm::new(64, NvmmProfile::instant());
        d.write(60, &[0; 8], &c);
    }

    #[test]
    #[should_panic(expected = "durability tracking disabled")]
    fn crash_without_tracking_panics() {
        let d = NvDimm::new(64, NvmmProfile::instant().without_durability_tracking());
        let _ = d.crash_and_restart();
    }
}

#[cfg(all(test, feature = "pmcheck"))]
mod pmcheck_tests {
    use super::*;

    fn setup() -> (ActorClock, NvDimm) {
        (ActorClock::new(), NvDimm::new(4096, NvmmProfile::instant()))
    }

    /// Runs `f` on a fresh thread so this thread's pending pwb queue and
    /// shadow attributions can't leak between tests.
    fn isolated(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().unwrap();
    }

    #[test]
    fn protocol_in_order_is_clean() {
        isolated(|| {
            let (c, d) = setup();
            d.write(0, &[7u8; 128], &c);
            d.pwb(0, 128);
            d.persist_fence(&c);
            d.commit_store(256, 1, &c);
            d.persist_barrier(&c);
            assert!(d.pm_violations().is_empty());
            let _ = d.crash_image(0);
        });
    }

    #[test]
    fn group_commit_publishing_several_words_is_clean() {
        // The multi-leader doorbell path (`commit_batch`) publishes one
        // commit word per group between a single fence and the trailing
        // barrier. The sibling commit words' own queued `pwb`s are not
        // unfenced payload and must not be flagged.
        isolated(|| {
            let (c, d) = setup();
            d.write(0, &[7u8; 128], &c);
            d.pwb(0, 128);
            d.persist_fence(&c);
            d.commit_store(256, 1, &c);
            d.commit_store(512, 2, &c);
            d.commit_store(768, 3, &c);
            d.persist_barrier(&c);
            assert!(d.pm_violations().is_empty());
        });
    }

    #[test]
    fn payload_pwb_on_former_commit_line_still_flags() {
        // The commit-origin exemption is per queued entry, not per line: a
        // later *payload* flush over a line that once held a commit word is
        // ordinary unfenced payload again.
        isolated(|| {
            let (c, d) = setup();
            d.commit_store(256, 1, &c);
            d.persist_barrier(&c);
            d.write(256, &[4u8; 8], &c);
            d.pwb(256, 8); // plain payload pwb overwrites the commit flag
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                d.commit_store(512, 2, &c);
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("stored before the fence"), "{msg}");
        });
    }

    #[test]
    fn commit_before_fence_is_flagged() {
        isolated(|| {
            let (c, d) = setup();
            d.write(0, &[7u8; 64], &c);
            d.pwb(0, 64);
            // No fence: the payload write-back is still queued.
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                d.commit_store(256, 1, &c);
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("commit_store"), "{msg}");
            assert!(msg.contains("stored before the fence"), "{msg}");
            assert!(msg.contains("line 0x0"), "{msg}");
            assert_eq!(d.pm_violations().len(), 1);
        });
    }

    #[test]
    fn commit_with_unflushed_payload_is_flagged() {
        isolated(|| {
            let (c, d) = setup();
            d.write(128, &[9u8; 64], &c); // no pwb at all
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                d.commit_store(256, 1, &c);
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("still Dirty"), "{msg}");
            assert!(msg.contains("line 0x2"), "{msg}");
        });
    }

    #[test]
    fn barrier_with_dirty_store_is_flagged() {
        isolated(|| {
            let (c, d) = setup();
            d.write(0, &[1u8; 8], &c);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                d.persist_fence(&c);
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("persist_fence"), "{msg}");
            assert!(msg.contains("skipped pwb"), "{msg}");
        });
    }

    #[test]
    fn dirty_tracking_is_per_thread() {
        // Another thread's un-flushed store must not trip this thread's
        // barrier: the fence contract is per-thread, like the hardware.
        let (_c, d) = setup();
        let d = std::sync::Arc::new(d);
        let d2 = std::sync::Arc::clone(&d);
        std::thread::spawn(move || {
            let c2 = ActorClock::new();
            d2.write(512, &[3u8; 16], &c2);
        })
        .join()
        .unwrap();
        std::thread::spawn(move || {
            let c2 = ActorClock::new();
            d.write(0, &[1u8; 8], &c2);
            d.pwb(0, 8);
            d.persist_fence(&c2); // must not flag line 512/64
            d.commit_store(64, 1, &c2);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn redundant_pwb_and_fence_are_counted() {
        isolated(|| {
            let (c, d) = setup();
            d.write(0, &[5u8; 8], &c);
            d.pwb(0, 8);
            d.pwb(0, 8); // same line, no new store: redundant
            assert_eq!(d.stats().redundant_pwb_lines.load(Ordering::Relaxed), 1);
            d.pfence(&c);
            d.pfence(&c); // nothing queued: redundant
            assert_eq!(d.stats().redundant_fences.load(Ordering::Relaxed), 1);
            d.pwb(64, 8); // clean line never stored: redundant
            assert_eq!(d.stats().redundant_pwb_lines.load(Ordering::Relaxed), 2);
            assert!(d.pm_violations().is_empty());
        });
    }

    #[test]
    fn rewrite_after_pwb_is_not_redundant() {
        isolated(|| {
            let (c, d) = setup();
            d.write(0, &[5u8; 8], &c);
            d.pwb(0, 8);
            d.write(0, &[6u8; 8], &c); // line re-dirtied
            d.pwb(0, 8); // needed on real hardware: not redundant
            assert_eq!(d.stats().redundant_pwb_lines.load(Ordering::Relaxed), 0);
        });
    }

    #[test]
    fn crash_with_redirtied_commit_word_is_flagged() {
        isolated(|| {
            let (c, d) = setup();
            d.commit_store(0, 1, &c);
            d.persist_barrier(&c);
            d.commit_store(0, 2, &c);
            // Rewrite the published word with a plain store, no pwb, then
            // crash: eviction could persist the publish without its payload.
            d.write(0, &[9u8; 8], &c);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = d.crash_image(0);
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("crash with commit word"), "{msg}");
        });
    }
}
