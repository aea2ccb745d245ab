//! In-memory span tracing from the benchmark's side of every layer
//! boundary, and the pass-through wrappers that record it.
//!
//! A [`Span`] has a name, host start/end (ns since the tracer's epoch),
//! virtual start/end (the caller's [`ActorClock`]) and a parent. Spans of
//! one client operation share an op id. A span opened on a thread with no
//! open span is parented under that thread's `cleanup` root — one per
//! cleanup worker — unless the thread is the client thread.
//!
//! The wrappers ([`TraceFs`] for a [`FileSystem`], [`TraceLayer`] for a
//! [`vfs::Layer`] stack slot, [`TraceDev`] for a [`BlockDevice`]) only read
//! the clock: they never advance it and never alter arguments or results.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use blockdev::{BlockDevice, DeviceStats};
use simclock::ActorClock;
use vfs::{Fd, FileSystem, IoResult, Metadata, OpenFlags};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `nvcache.pwrite`.
    pub name: &'static str,
    /// Client operation id (`0` outside any client op, e.g. cleanup).
    pub op: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Host start and end, ns since the tracer epoch.
    pub host: (u64, u64),
    /// Virtual start and end, ns.
    pub virt: (u64, u64),
    /// Payload bytes the call moved (0 when not applicable).
    pub bytes: u64,
}

impl Span {
    /// Host duration, ns.
    pub fn host_ns(&self) -> u64 {
        self.host.1.saturating_sub(self.host.0)
    }

    /// Virtual duration, ns.
    pub fn virt_ns(&self) -> u64 {
        self.virt.1.saturating_sub(self.virt.0)
    }
}

static GENERATION: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
    static CLIENT: Cell<bool> = const { Cell::new(false) };
    /// This thread's `cleanup` root span: (tracer generation, index).
    static ROOT: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// Span store for one traced round.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    generation: u64,
    next_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A fresh, empty tracer; the calling thread becomes the client thread.
    pub fn new() -> Arc<Tracer> {
        CLIENT.with(|c| c.set(true));
        Arc::new(Tracer {
            epoch: Instant::now(),
            generation: GENERATION.fetch_add(1, Ordering::Relaxed),
            next_op: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn host_now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new client operation on this thread: spans opened until
    /// the next call share its id.
    pub fn begin_op(&self) {
        OP.with(|op| op.set(self.next_op.fetch_add(1, Ordering::Relaxed)));
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span<'a>(&'a self, name: &'static str, clock: &'a ActorClock) -> SpanGuard<'a> {
        let host = self.host_now();
        let virt = clock.now().as_nanos();
        let parent = STACK
            .with(|s| s.borrow().last().copied())
            .or_else(|| self.cleanup_root(host, virt));
        let mut spans = self.spans.lock().expect("tracer lock");
        let op = match parent {
            Some(p) => spans[p].op,
            None => OP.with(Cell::get),
        };
        let idx = spans.len();
        spans.push(Span { name, op, parent, host: (host, host), virt: (virt, virt), bytes: 0 });
        drop(spans);
        STACK.with(|s| s.borrow_mut().push(idx));
        SpanGuard { tracer: self, idx, clock, bytes: 0 }
    }

    /// The calling thread's `cleanup` root (created on first use), or
    /// `None` on the client thread.
    fn cleanup_root(&self, host: u64, virt: u64) -> Option<usize> {
        if CLIENT.with(Cell::get) {
            return None;
        }
        let (generation, idx) = ROOT.with(Cell::get);
        if generation == self.generation {
            return Some(idx);
        }
        let mut spans = self.spans.lock().expect("tracer lock");
        let idx = spans.len();
        spans.push(Span {
            name: "cleanup",
            op: 0,
            parent: None,
            host: (host, host),
            virt: (virt, virt),
            bytes: 0,
        });
        ROOT.with(|r| r.set((self.generation, idx)));
        Some(idx)
    }

    fn close(&self, idx: usize, clock: &ActorClock, bytes: u64) {
        let host = self.host_now();
        let virt = clock.now().as_nanos();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(idx), "spans must nest");
        });
        let mut spans = self.spans.lock().expect("tracer lock");
        let span = &mut spans[idx];
        span.host.1 = host;
        span.virt.1 = virt.max(span.virt.0);
        span.bytes = bytes;
        if let Some(p) = span.parent {
            // A cleanup root stretches to cover its children.
            let root = &mut spans[p];
            if root.name == "cleanup" {
                root.host.1 = root.host.1.max(host);
                root.virt.0 = root.virt.0.min(virt);
                root.virt.1 = root.virt.1.max(virt);
            }
        }
    }

    /// The index the next span will get: spans from here on belong to the
    /// phase that starts now.
    pub fn mark(&self) -> usize {
        self.spans.lock().expect("tracer lock").len()
    }

    /// Takes every recorded span out of the tracer.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("tracer lock"))
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: usize,
    clock: &'a ActorClock,
    bytes: u64,
}

impl SpanGuard<'_> {
    /// Records the payload bytes the call moved.
    pub fn bytes(&mut self, n: u64) {
        self.bytes = n;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.close(self.idx, self.clock, self.bytes);
    }
}

/// Opens a span when a tracer is present.
pub fn maybe_span<'a>(
    tracer: Option<&'a Arc<Tracer>>,
    name: &'static str,
    clock: &'a ActorClock,
) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.span(name, clock))
}

/// Length of `[start, end)` covered by the union of `children`, each
/// clipped to the parent interval first.
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, `(host_ns, virt_ns)`: its duration minus the
/// part of it its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut kids: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let ch = kids.get(&i).map_or(&[][..], Vec::as_slice);
            let host: Vec<_> = ch.iter().map(|&c| spans[c].host).collect();
            let virt: Vec<_> = ch.iter().map(|&c| spans[c].virt).collect();
            (
                s.host_ns() - covered(s.host.0, s.host.1, &host),
                s.virt_ns() - covered(s.virt.0, s.virt.1, &virt),
            )
        })
        .collect()
}

/// Whether span `i` descends from a `cleanup` root.
pub fn under_cleanup(spans: &[Span], mut i: usize) -> bool {
    loop {
        if spans[i].name == "cleanup" {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

/// Writes spans as tab-separated lines:
/// `index parent op name host_start host_end virt_start virt_end bytes`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "idx\tparent\top\tname\thost_start\thost_end\tvirt_start\tvirt_end\tbytes")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.op, s.name, s.host.0, s.host.1, s.virt.0, s.virt.1, s.bytes
        )?;
    }
    out.flush()
}

/// Span names of one [`TraceFs`] instance (`&'static` so spans stay cheap).
#[derive(Debug, Clone, Copy)]
pub struct FsNames {
    open: &'static str,
    close: &'static str,
    pread: &'static str,
    pwrite: &'static str,
    fsync: &'static str,
    other: &'static str,
}

impl FsNames {
    /// The names under the NVCache mount boundary.
    pub const NVCACHE: FsNames = FsNames {
        open: "nvcache.open",
        close: "nvcache.close",
        pread: "nvcache.pread",
        pwrite: "nvcache.pwrite",
        fsync: "nvcache.fsync",
        other: "nvcache.other",
    };
    /// The names under the inner (backend) boundary.
    pub const INNER: FsNames = FsNames {
        open: "inner.open",
        close: "inner.close",
        pread: "inner.pread",
        pwrite: "inner.pwrite",
        fsync: "inner.fsync",
        other: "inner.other",
    };
}

/// A pass-through [`FileSystem`] that records a span around each call.
pub struct TraceFs {
    inner: Arc<dyn FileSystem>,
    tracer: Arc<Tracer>,
    names: FsNames,
}

impl TraceFs {
    /// Wraps `inner`, naming spans by `names`.
    pub fn new(inner: Arc<dyn FileSystem>, tracer: Arc<Tracer>, names: FsNames) -> TraceFs {
        TraceFs { inner, tracer, names }
    }
}

impl FileSystem for TraceFs {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn open(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        let _s = self.tracer.span(self.names.open, clock);
        self.inner.open(path, flags, clock)
    }

    fn close(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        let _s = self.tracer.span(self.names.close, clock);
        self.inner.close(fd, clock)
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let mut s = self.tracer.span(self.names.pread, clock);
        let r = self.inner.pread(fd, buf, off, clock);
        s.bytes(*r.as_ref().unwrap_or(&0) as u64);
        r
    }

    fn pwrite(&self, fd: Fd, data: &[u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let mut s = self.tracer.span(self.names.pwrite, clock);
        let r = self.inner.pwrite(fd, data, off, clock);
        s.bytes(*r.as_ref().unwrap_or(&0) as u64);
        r
    }

    fn fsync(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        let _s = self.tracer.span(self.names.fsync, clock);
        self.inner.fsync(fd, clock)
    }

    fn ftruncate(&self, fd: Fd, len: u64, clock: &ActorClock) -> IoResult<()> {
        let _s = self.tracer.span(self.names.other, clock);
        self.inner.ftruncate(fd, len, clock)
    }

    fn fstat(&self, fd: Fd, clock: &ActorClock) -> IoResult<Metadata> {
        let _s = self.tracer.span(self.names.other, clock);
        self.inner.fstat(fd, clock)
    }

    fn stat(&self, path: &str, clock: &ActorClock) -> IoResult<Metadata> {
        let _s = self.tracer.span(self.names.other, clock);
        self.inner.stat(path, clock)
    }

    fn unlink(&self, path: &str, clock: &ActorClock) -> IoResult<()> {
        let _s = self.tracer.span(self.names.other, clock);
        self.inner.unlink(path, clock)
    }

    fn rename(&self, from: &str, to: &str, clock: &ActorClock) -> IoResult<()> {
        let _s = self.tracer.span(self.names.other, clock);
        self.inner.rename(from, to, clock)
    }

    fn list_dir(&self, dir: &str, clock: &ActorClock) -> IoResult<Vec<String>> {
        let _s = self.tracer.span(self.names.other, clock);
        self.inner.list_dir(dir, clock)
    }

    fn sync(&self, clock: &ActorClock) -> IoResult<()> {
        let _s = self.tracer.span(self.names.other, clock);
        self.inner.sync(clock)
    }

    fn simulate_power_failure(&self) {
        self.inner.simulate_power_failure();
    }

    fn synchronous_durability(&self) -> bool {
        self.inner.synchronous_durability()
    }

    fn durable_linearizability(&self) -> bool {
        self.inner.durable_linearizability()
    }
}

/// The benchmark's own backend layer: slots a [`TraceFs`] with the
/// `inner.*` names between the NVCache mount and its backend.
#[derive(Debug)]
pub struct TraceLayer {
    tracer: Arc<Tracer>,
}

impl TraceLayer {
    /// A layer recording into `tracer`.
    pub fn new(tracer: Arc<Tracer>) -> TraceLayer {
        TraceLayer { tracer }
    }
}

impl vfs::Layer for TraceLayer {
    fn name(&self) -> &str {
        "trace"
    }

    fn wrap(&self, inner: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
        Arc::new(TraceFs::new(inner, Arc::clone(&self.tracer), FsNames::INNER))
    }
}

/// A pass-through [`BlockDevice`] that records `blockdev.*` spans.
pub struct TraceDev {
    inner: Arc<dyn BlockDevice>,
    tracer: Arc<Tracer>,
}

impl TraceDev {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn BlockDevice>, tracer: Arc<Tracer>) -> TraceDev {
        TraceDev { inner, tracer }
    }
}

impl BlockDevice for TraceDev {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read(&self, off: u64, buf: &mut [u8], clock: &ActorClock) {
        let mut s = self.tracer.span("blockdev.read", clock);
        s.bytes(buf.len() as u64);
        self.inner.read(off, buf, clock);
    }

    fn write(&self, off: u64, data: &[u8], clock: &ActorClock) {
        let mut s = self.tracer.span("blockdev.write", clock);
        s.bytes(data.len() as u64);
        self.inner.write(off, data, clock);
    }

    fn flush(&self, clock: &ActorClock) {
        let _s = self.tracer.span("blockdev.flush", clock);
        self.inner.flush(clock);
    }

    fn stats(&self) -> &DeviceStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, host: (u64, u64)) -> Span {
        Span { name, op: 1, parent, host, virt: host, bytes: 0 }
    }

    #[test]
    fn coverage_merges_overlaps_and_clips_to_parent() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (30, 40)]), 20);
        // Overlapping children count once.
        assert_eq!(covered(0, 100, &[(10, 50), (40, 60), (55, 70)]), 60);
        // A child nested in another adds nothing.
        assert_eq!(covered(0, 100, &[(10, 90), (20, 30)]), 80);
        // Children leaking past the parent are clipped.
        assert_eq!(covered(10, 20, &[(0, 15), (18, 40)]), 7);
        // Disjoint from the parent: nothing covered.
        assert_eq!(covered(10, 20, &[(30, 40)]), 0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("app", None, (0, 100)),         // 0
            span("nvcache", Some(0), (10, 60)),  // 1
            span("inner", Some(1), (20, 50)),    // 2 (grandchild of 0)
            span("nvcache", Some(0), (50, 80)),  // 3 overlaps 1 by 10
            span("blockdev", Some(2), (25, 35)), // 4
        ];
        let st = self_times(&spans);
        // app: 100 - |[10,80)| = 30.
        assert_eq!(st[0], (30, 30));
        // first nvcache: 50 - 30 = 20; inner: 30 - 10 = 20.
        assert_eq!(st[1].0, 20);
        assert_eq!(st[2].0, 20);
        assert_eq!(st[3].0, 30);
        assert_eq!(st[4].0, 10);
        // Self times of a tree whose children do not overlap sum to the
        // root's duration.
        let flat = vec![
            span("root", None, (0, 40)),
            span("a", Some(0), (0, 10)),
            span("b", Some(0), (10, 30)),
            span("c", Some(2), (12, 18)),
        ];
        assert_eq!(self_times(&flat).iter().map(|s| s.0).sum::<u64>(), 40);
    }

    #[test]
    fn spans_nest_share_op_ids_and_leave_the_clock_alone() {
        let tracer = Tracer::new();
        let clock = ActorClock::new();
        tracer.begin_op();
        {
            let _outer = tracer.span("app.x", &clock);
            clock.advance(simclock::SimTime::from_micros(3));
            let mut inner = tracer.span("nvcache.pwrite", &clock);
            inner.bytes(42);
        }
        tracer.begin_op();
        drop(tracer.span("nvcache.pread", &clock));
        assert_eq!(clock.now(), simclock::SimTime::from_micros(3));
        let spans = tracer.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
        assert_ne!(spans[2].op, spans[0].op);
        assert_eq!(spans[0].virt, (0, 3_000));
        assert_eq!(spans[1].bytes, 42);
    }

    #[test]
    fn other_threads_hang_under_their_own_cleanup_root() {
        let tracer = Tracer::new();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let t = Arc::clone(&tracer);
                std::thread::spawn(move || {
                    let clock = ActorClock::new();
                    for _ in 0..3 {
                        drop(t.span("inner.pwrite", &clock));
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        let spans = tracer.take();
        let roots: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].name == "cleanup").collect();
        assert_eq!(roots.len(), 2);
        for (i, s) in spans.iter().enumerate() {
            if s.name == "inner.pwrite" {
                assert!(under_cleanup(&spans, i));
                assert!(roots.contains(&s.parent.expect("parented")));
            }
        }
    }
}
