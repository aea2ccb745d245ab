//! From rounds to named metrics: the end-to-end set (untraced rounds) and
//! the per-layer set (one traced round), each value tagged with its clock.

use std::collections::BTreeMap;

use crate::stats::{median, percentile, relative_spread, Ratio};
use crate::trace::{self_times, under_cleanup, Span};
use crate::workload::Round;

/// Which clock a value was measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Modelled time (`ActorClock`).
    Virt,
    /// The simulator's own wall time.
    Host,
    /// The simulator's own CPU time (all threads).
    Cpu,
    /// A count or a ratio of counts.
    Count,
}

impl Clock {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Virt => "virt",
            Clock::Host => "host",
            Clock::Cpu => "cpu",
            Clock::Count => "count",
        }
    }
}

/// One named value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Unit, e.g. `us`, `1/s`, `count`.
    pub unit: &'static str,
    /// The clock it was measured on.
    pub clock: Clock,
    /// The value.
    pub value: f64,
    /// For ratios: the base it was taken over.
    pub base: Option<f64>,
}

/// An ordered metric set; a ratio whose base is zero is left out.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a plain value.
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, clock: Clock, value: f64) {
        self.0.push(Metric { name: name.into(), unit, clock, value, base: None });
    }

    /// Adds a ratio, or nothing when its base is zero.
    pub fn ratio(&mut self, name: impl Into<String>, unit: &'static str, clock: Clock, r: Ratio) {
        if let Some(value) = r.value() {
            self.0
                .push(Metric { name: name.into(), unit, clock, value, base: Some(r.base) });
        }
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// End-to-end metrics in the result line, in `BENCHMARK.json` order:
/// the ones every workload defines and every seed moves. Printed above the
/// result line but not listed here:
/// - the latency percentiles: the model charges fixed costs, so on several
///   workloads a percentile is the same quantized value for every seed;
/// - the wall-clock host metrics: on a shared machine, the time it spends
///   running something else moves them far more than the CPU-time ones.
pub const END_TO_END: [&str; 7] = [
    "virt_ops_per_s",
    "virt_mib_per_s",
    "recovery_virt_ms",
    "host_cpu_ops_per_s",
    "recovery_cpu_ms",
    "setup_s",
    "peak_rss_mib",
];

/// Per-layer metrics in the result line of a traced run, in
/// `BENCHMARK.json` order: the ones that are defined and non-zero on every
/// workload. The rest (app, nvcache, squeue, read-cache, foreground inner
/// calls) are printed above the result line.
pub const PER_LAYER_REPORTED: &[&str] = &[
    "log.entries",
    "log.bytes",
    "log.entries_per_write",
    "cleanup.batches",
    "cleanup.entries_propagated",
    "cleanup.fsyncs",
    "cleanup.entries_per_batch",
    "cleanup.virt_busy_ms",
    "nvmm.bytes_stored",
    "nvmm.lines_flushed",
    "nvmm.fences",
    "nvmm.drains",
    "nvmm.commit_stores",
    "nvmm.fences_per_write",
    "nvmm.flushed_bytes_per_user_byte",
    "nvmm.crash_image_host_ms",
    "recovery.entries_replayed",
    "recovery.bytes_replayed",
    "recovery.files_reopened",
    "recovery.mount_host_ms",
    "recovery.mount_virt_ms",
    "inner.cleanup.pwrite.calls",
    "inner.cleanup.pwrite.bytes",
    "inner.cleanup.pwrite.host_ns",
    "inner.cleanup.pwrite.virt_ns",
    "inner.cleanup.fsync.calls",
    "inner.cleanup.fsync.host_ns",
    "inner.cleanup.fsync.virt_ns",
    "inner.bytes_written_per_user_byte",
    "blockdev.writes",
    "blockdev.flushes",
    "blockdev.bytes_written",
    "blockdev.host_ns",
    "blockdev.virt_ns",
    "blockdev.bytes_per_user_byte",
    "trace.spans",
    "trace.cpu_overhead_pct",
];

const MIB: f64 = (1u64 << 20) as f64;

/// End-to-end metrics of one round (all but `peak_rss_mib`, which is a
/// process-wide figure).
pub fn end_to_end(r: &Round) -> Metrics {
    let mut m = Metrics::default();
    for (kind, lat) in [("write", &r.writes), ("read", &r.reads)] {
        let mut sorted = lat.clone();
        sorted.sort_unstable();
        for p in [50.0, 99.0] {
            if let Some(ns) = percentile(&sorted, p) {
                m.put(format!("{kind}_p{p:.0}_us"), "us", Clock::Virt, ns as f64 / 1e3);
            }
        }
    }
    let virt_s = r.virt_ns as f64 / 1e9;
    if virt_s > 0.0 {
        m.put("virt_ops_per_s", "1/s", Clock::Virt, r.ops as f64 / virt_s);
        let bytes = (r.bytes_written + r.bytes_read) as f64;
        m.put("virt_mib_per_s", "MiB/s", Clock::Virt, bytes / MIB / virt_s);
    }
    m.put("recovery_virt_ms", "ms", Clock::Virt, r.recovery.virt_ns as f64 / 1e6);
    let (host, rec) = (&r.host, &r.recovery.host);
    m.put("host_ops_per_s", "1/s", Clock::Host, r.ops as f64 / (host.wall_ns as f64 / 1e9));
    m.put("host_cpu_ops_per_s", "1/s", Clock::Cpu, r.ops as f64 / (host.cpu_ns as f64 / 1e9));
    m.put("recovery_host_ms", "ms", Clock::Host, rec.wall_ns as f64 / 1e6);
    m.put("recovery_cpu_ms", "ms", Clock::Cpu, rec.cpu_ns as f64 / 1e6);
    m.put("setup_wall_s", "s", Clock::Host, r.setup.wall_ns as f64 / 1e9);
    m.put("setup_s", "s", Clock::Cpu, r.setup.cpu_ns as f64 / 1e9);
    m
}

/// The summary of one metric over a run's rounds.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The metric, valued at the median over rounds.
    pub metric: Metric,
    /// Inter-quartile distance over rounds as a share of the median.
    pub spread: Option<f64>,
    /// Every round gave exactly the same value.
    pub identical: bool,
}

/// Medians over rounds, metric by metric (names in first-round order).
pub fn summarize(rounds: &[Metrics]) -> Vec<Summary> {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in rounds {
        for m in &r.0 {
            by_name.entry(&m.name).or_default().push(m.value);
        }
    }
    rounds[0]
        .0
        .iter()
        .map(|m| {
            let xs = &by_name[m.name.as_str()];
            Summary {
                metric: Metric { value: median(xs), ..m.clone() },
                spread: relative_spread(xs),
                identical: xs.iter().all(|x| x.to_bits() == xs[0].to_bits()),
            }
        })
        .collect()
}

/// Everything the virtual-time end-to-end metrics are computed from:
/// every latency sample, the timed phase's span, and the recovery. Equal
/// across rounds of a deterministic workload and between traced and
/// untraced rounds. (Cleanup-side counters are left out: with parked
/// cleanup, when a worker reaps closed descriptors still depends on host
/// scheduling, though no client-visible time does.)
pub fn virtual_fingerprint(r: &Round) -> String {
    let rep = &r.recovery.report;
    format!(
        "w{:?} r{:?} v{} rv{} rep{}/{}/{}",
        r.writes,
        r.reads,
        r.virt_ns,
        r.recovery.virt_ns,
        rep.entries_replayed,
        rep.bytes_replayed,
        rep.files_reopened,
    )
}

/// Aggregates of the spans sharing a name, over the timed phase.
#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    calls: u64,
    bytes: u64,
    host_ns: u64,
    virt_ns: u64,
    host_self_ns: u64,
    virt_self_ns: u64,
}

/// Per-layer metrics of one traced round.
pub fn per_layer(r: &Round) -> Metrics {
    let spans = &r.spans;
    let selfs = self_times(spans);
    // Span aggregates by (name, ran on a cleanup worker).
    let mut agg: BTreeMap<(&str, bool), Agg> = BTreeMap::new();
    for i in r.spans_from..r.spans_to.min(spans.len()) {
        let s: &Span = &spans[i];
        let a = agg.entry((s.name, under_cleanup(spans, i))).or_default();
        a.calls += 1;
        a.bytes += s.bytes;
        a.host_ns += s.host_ns();
        a.virt_ns += s.virt_ns();
        a.host_self_ns += selfs[i].0;
        a.virt_self_ns += selfs[i].1;
    }
    let get = |name: &str, cleanup: bool| agg.get(&(name, cleanup)).copied().unwrap_or_default();
    let any = |name: &str| {
        let (a, b) = (get(name, false), get(name, true));
        Agg {
            calls: a.calls + b.calls,
            bytes: a.bytes + b.bytes,
            host_ns: a.host_ns + b.host_ns,
            virt_ns: a.virt_ns + b.virt_ns,
            host_self_ns: a.host_self_ns + b.host_self_ns,
            virt_self_ns: a.virt_self_ns + b.virt_self_ns,
        }
    };
    let prefix_self = |prefix: &str| -> u64 {
        agg.iter()
            .filter(|((n, _), _)| n.starts_with(prefix))
            .map(|(_, a)| a.host_self_ns)
            .sum()
    };

    let (b, a) = (&r.before, &r.after);
    let d = |x: u64, y: u64| (y - x) as f64;
    let user_written = r.bytes_written as f64;
    let writes = d(b.cache.writes, a.cache.writes);
    let mut m = Metrics::default();
    let c = Clock::Count;

    m.put("app.rocklet.host_self_ns", "ns", Clock::Host, prefix_self("app.rocklet.") as f64);
    m.put("app.sqlight.host_self_ns", "ns", Clock::Host, prefix_self("app.sqlight.") as f64);

    for call in ["pwrite", "pread", "fsync", "open", "close", "flush_log"] {
        let s = any(&format!("nvcache.{call}"));
        m.put(format!("nvcache.{call}.calls"), "count", c, s.calls as f64);
        m.put(format!("nvcache.{call}.host_self_ns"), "ns", Clock::Host, s.host_self_ns as f64);
        m.put(format!("nvcache.{call}.virt_self_ns"), "ns", Clock::Virt, s.virt_self_ns as f64);
    }

    for call in ["submit", "doorbell", "reap"] {
        let s = any(&format!("squeue.{call}"));
        m.put(format!("squeue.{call}.calls"), "count", c, s.calls as f64);
        m.put(format!("squeue.{call}.host_ns"), "ns", Clock::Host, s.host_ns as f64);
        m.put(format!("squeue.{call}.virt_ns"), "ns", Clock::Virt, s.virt_ns as f64);
    }
    let (mut submitted, mut doorbells, mut lag) = (0.0, 0.0, 0.0);
    for (qb, qa) in b.cache.per_queue.iter().zip(&a.cache.per_queue) {
        submitted += d(qb.sq_submitted, qa.sq_submitted);
        doorbells += d(qb.sq_doorbells, qa.sq_doorbells);
        lag += d(qb.cq_reap_lag, qa.cq_reap_lag);
    }
    m.ratio("squeue.batch_mean", "count", c, Ratio::new(submitted, doorbells));
    m.put("squeue.cq_reap_lag", "ns", Clock::Virt, lag);

    let entries = d(b.cache.entries_logged, a.cache.entries_logged);
    let full_waits = d(b.cache.log_full_waits, a.cache.log_full_waits);
    m.put("log.entries", "count", c, entries);
    m.put("log.groups", "count", c, d(b.cache.groups_logged, a.cache.groups_logged));
    m.put("log.bytes", "B", c, d(b.cache.bytes_logged, a.cache.bytes_logged));
    m.ratio("log.entries_per_write", "count", c, Ratio::new(entries, writes));
    m.put("log.full_waits", "count", c, full_waits);
    m.ratio("log.full_wait_ratio", "ratio", c, Ratio::new(full_waits, writes));

    let batches = d(b.cache.cleanup_batches, a.cache.cleanup_batches);
    let propagated = d(b.cache.entries_propagated, a.cache.entries_propagated);
    m.put("cleanup.batches", "count", c, batches);
    m.put("cleanup.entries_propagated", "count", c, propagated);
    m.put("cleanup.fsyncs", "count", c, d(b.cache.cleanup_fsyncs, a.cache.cleanup_fsyncs));
    m.ratio("cleanup.entries_per_batch", "count", c, Ratio::new(propagated, batches));
    m.put("cleanup.virt_busy_ms", "ms", Clock::Virt, d(b.cleanup_virt_ns, a.cleanup_virt_ns) / 1e6);

    let hits = d(b.cache.read_hits, a.cache.read_hits);
    let misses = d(b.cache.read_misses, a.cache.read_misses);
    m.put("readcache.hits", "count", c, hits);
    m.put("readcache.misses", "count", c, misses);
    m.put("readcache.dirty_misses", "count", c, d(b.cache.dirty_misses, a.cache.dirty_misses));
    m.put("readcache.bypass", "count", c, d(b.cache.bypass_reads, a.cache.bypass_reads));
    m.put("readcache.evictions", "count", c, d(b.cache.evictions, a.cache.evictions));
    // Hits and misses count pages; one read call can touch several.
    m.ratio("readcache.hit_ratio", "ratio", c, Ratio::new(hits, hits + misses));

    let (nb, na) = (&b.nvmm, &a.nvmm);
    let fences = d(nb.fences, na.fences);
    let flushed = d(nb.lines_flushed, na.lines_flushed);
    m.put("nvmm.bytes_stored", "B", c, d(nb.bytes_stored, na.bytes_stored));
    m.put("nvmm.bytes_read", "B", c, d(nb.bytes_read, na.bytes_read));
    m.put("nvmm.lines_flushed", "count", c, flushed);
    m.put("nvmm.fences", "count", c, fences);
    m.put("nvmm.drains", "count", c, d(nb.drains, na.drains));
    m.put("nvmm.commit_stores", "count", c, d(nb.commit_stores, na.commit_stores));
    m.ratio("nvmm.fences_per_write", "count", c, Ratio::new(fences, writes));
    let line = nvmm::CACHE_LINE as f64;
    m.ratio("nvmm.flushed_bytes_per_user_byte", "B/B", c, Ratio::new(flushed * line, user_written));
    let crash_ms = r.recovery.crash_image_host_ns as f64 / 1e6;
    m.put("nvmm.crash_image_host_ms", "ms", Clock::Host, crash_ms);

    let rep = &r.recovery.report;
    m.put("recovery.entries_replayed", "count", c, rep.entries_replayed as f64);
    m.put("recovery.bytes_replayed", "B", c, rep.bytes_replayed as f64);
    m.put("recovery.files_reopened", "count", c, rep.files_reopened as f64);
    m.put("recovery.mount_host_ms", "ms", Clock::Host, r.recovery.mount_host_ns as f64 / 1e6);
    m.put("recovery.mount_virt_ms", "ms", Clock::Virt, r.recovery.virt_ns as f64 / 1e6);

    let mut inner_written = 0.0;
    for (side, cleanup) in [("fg", false), ("cleanup", true)] {
        for call in ["pwrite", "pread", "fsync"] {
            let s = get(&format!("inner.{call}"), cleanup);
            let name = |what: &str| format!("inner.{side}.{call}.{what}");
            m.put(name("calls"), "count", c, s.calls as f64);
            m.put(name("bytes"), "B", c, s.bytes as f64);
            m.put(name("host_ns"), "ns", Clock::Host, s.host_ns as f64);
            m.put(name("virt_ns"), "ns", Clock::Virt, s.virt_ns as f64);
            if call == "pwrite" {
                inner_written += s.bytes as f64;
            }
        }
    }
    m.ratio("inner.bytes_written_per_user_byte", "B/B", c, Ratio::new(inner_written, user_written));

    let (db, da) = (&b.dev, &a.dev);
    let dev_written = d(db.bytes_written, da.bytes_written);
    m.put("blockdev.reads", "count", c, d(db.reads, da.reads));
    let dev_writes = d(db.seq_writes + db.rand_writes, da.seq_writes + da.rand_writes);
    m.put("blockdev.writes", "count", c, dev_writes);
    m.put("blockdev.flushes", "count", c, d(db.flushes, da.flushes));
    m.put("blockdev.bytes_written", "B", c, dev_written);
    let dev: Vec<Agg> = ["blockdev.read", "blockdev.write", "blockdev.flush"].map(any).into();
    m.put("blockdev.host_ns", "ns", Clock::Host, dev.iter().map(|a| a.host_ns).sum::<u64>() as f64);
    m.put("blockdev.virt_ns", "ns", Clock::Virt, dev.iter().map(|a| a.virt_ns).sum::<u64>() as f64);
    m.ratio("blockdev.bytes_per_user_byte", "B/B", c, Ratio::new(dev_written, user_written));

    m.put("trace.spans", "count", c, r.spans_to.saturating_sub(r.spans_from) as f64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn absent_ratio_is_left_out_and_present_one_keeps_its_base() {
        let mut m = Metrics::default();
        m.ratio("x.ratio", "ratio", Clock::Count, Ratio::new(1.0, 0.0));
        assert!(m.get("x.ratio").is_none());
        m.ratio("y.ratio", "ratio", Clock::Count, Ratio::new(1.0, 4.0));
        let y = m.get("y.ratio").expect("present");
        assert_eq!((y.value, y.base), (0.25, Some(4.0)));
    }

    #[test]
    fn reported_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER_REPORTED).copied().collect();
        for n in &all {
            assert!(valid_metric_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |from: &str, to: &str| -> Vec<String> {
            let a = text.find(from).expect("section");
            let b = text[a..].find(to).map_or(text.len(), |i| a + i);
            text[a..b]
                .split("\"name\": \"")
                .skip(1)
                .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
                .collect()
        };
        assert_eq!(names("\"end_to_end\"", "\"per_layer\""), END_TO_END);
        assert_eq!(names("\"per_layer\"", "\"run_seconds\""), PER_LAYER_REPORTED);
    }

    #[test]
    fn summaries_take_medians_and_flag_identical_rounds() {
        let round = |v: f64| {
            let mut m = Metrics::default();
            m.put("a", "us", Clock::Virt, v);
            m.put("b", "us", Clock::Virt, 7.0);
            m
        };
        let s = summarize(&[round(1.0), round(3.0), round(2.0)]);
        assert_eq!(s[0].metric.value, 2.0);
        assert!(!s[0].identical);
        assert_eq!((s[1].metric.value, s[1].identical), (7.0, true));
        assert_eq!(s[1].spread, Some(0.0));
    }
}
