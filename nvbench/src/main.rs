//! `nvbench` — the NVCache benchmark.
//!
//! ```text
//! cargo run --release --manifest-path nvbench/Cargo.toml -- \
//!     --workload <oltp|randwrite-saturate|read-zipf|queued-burst> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs rounds of the named workload with inputs from `--seed` until
//! `--seconds` of host time have passed (at least [`MIN_ROUNDS`]). Every
//! round builds a fresh NVCache+SSD stack, sets up, runs a fixed operation
//! list, crashes and recovers, and checks every read it can predict against
//! the last acknowledged write. Values are medians over rounds, each tagged
//! with its clock: *virt* (modelled time) or *host* (the simulator's wall
//! time). With `--trace 1` one more round runs with span tracing at every
//! layer boundary and the per-layer metrics are printed instead.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits 0 only when every check passed.

mod metrics;
mod stats;
mod system;
mod trace;
mod workload;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{end_to_end, per_layer, summarize, virtual_fingerprint, Clock, Metric, Metrics};
use trace::Tracer;
use workload::Round;
use workloads::Workload;

/// Rounds a run always makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let name = value("--workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args { workload, seed: number("--seed")?, seconds: number("--seconds")?, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nvbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("nvbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || t0.elapsed() < budget {
        rounds.push(w.run(args.seed, None).map_err(|e| format!("{}: {e}", w.name()))?);
    }
    let traced = if args.trace {
        let r = w.run(args.seed, Some(Tracer::new())).map_err(|e| format!("traced: {e}"))?;
        Some(r)
    } else {
        None
    };

    let mut problems = check(w, &rounds, traced.as_ref());
    let attempted: u64 = rounds.iter().chain(&traced).map(|r| r.ops + r.untimed_ops).sum();
    let failed: u64 = rounds.iter().chain(&traced).map(|r| r.failed).sum();
    let e2e: Vec<Metrics> = rounds.iter().map(end_to_end).collect();
    let mut summary = summarize(&e2e);
    summary.push(metrics::Summary {
        metric: Metric {
            name: "peak_rss_mib".into(),
            unit: "MiB",
            clock: Clock::Host,
            value: peak_rss_mib(),
            base: None,
        },
        spread: None,
        identical: false,
    });

    println!(
        "nvbench {} seed={} rounds={} host_s={:.2} trace={} host_cpus={}",
        w.name(),
        args.seed,
        rounds.len(),
        t0.elapsed().as_secs_f64(),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let r0 = &rounds[0];
    println!(
        "  samples per round: {} writes, {} reads ({}), {} timed ops",
        r0.writes.len(),
        r0.reads.len(),
        if r0.reads_from_readback { "post-recovery read-back" } else { "timed mix" },
        r0.ops
    );
    for (kind, lat) in [("write", &r0.writes), ("read", &r0.reads)] {
        let mut sorted = lat.clone();
        sorted.sort_unstable();
        if let Some(p) = stats::highest_percentile(sorted.len()) {
            let us = stats::percentile(&sorted, p).unwrap_or(0) as f64 / 1e3;
            println!(
                "  {kind}s: n={} per round; highest reportable percentile p{p} = {us:.3} us",
                sorted.len()
            );
        }
    }
    for s in &summary {
        let m = &s.metric;
        let how = match (m.clock, w.deterministic(), s.spread) {
            (Clock::Virt, true, _) if s.identical => "exact".to_string(),
            (_, _, Some(sp)) => format!("spread {:.2}%", sp * 100.0),
            _ => String::new(),
        };
        println!("  [{:<5}] {:<22} {:>14.4} {:<6} {how}", m.clock.label(), m.name, m.value, m.unit);
    }
    println!(
        "  [count] {:<22} {:>14.4} ratio  ({failed} of {attempted} attempted)",
        "failed_ops_ratio",
        failed as f64 / attempted as f64
    );

    let mut out = Metrics::default();
    if let Some(t) = &traced {
        let mut layers = per_layer(t);
        let base = stats::median(&rounds.iter().map(|r| r.host.cpu_ns as f64).collect::<Vec<_>>());
        let overhead = (t.host.cpu_ns as f64 / base - 1.0) * 100.0;
        layers.put("trace.cpu_overhead_pct", "%", Clock::Cpu, overhead);
        println!("  per-layer (traced round; tracing overhead {overhead:.1}% host CPU time):");
        for m in &layers.0 {
            let base = m.base.map_or(String::new(), |b| format!("(base {b})"));
            println!(
                "  [{:<5}] {:<40} {:>16.4} {:<6} {base}",
                m.clock.label(),
                m.name,
                m.value,
                m.unit
            );
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-spans.tsv", w.name()));
        trace::write_spans(&path, &t.spans).map_err(|e| format!("writing spans: {e}"))?;
        println!("  spans: {} written to {}", t.spans.len(), path.display());
        for name in metrics::PER_LAYER_REPORTED {
            let m = layers.get(name).ok_or(format!("per-layer metric {name} missing"))?;
            out.0.push(m.clone());
        }
    } else {
        for name in metrics::END_TO_END {
            let s = summary.iter().find(|s| s.metric.name == name);
            out.0.push(s.ok_or(format!("metric {name} missing"))?.metric.clone());
        }
    }
    problems.extend(
        out.0
            .iter()
            .filter(|m| !stats::valid_metric_name(&m.name))
            .map(|m| format!("bad metric name {:?}", m.name)),
    );
    for p in &problems {
        println!("  FAILED CHECK: {p}");
    }
    println!("{}", result_json(problems.is_empty(), attempted, failed, &out));
    Ok(problems.is_empty())
}

/// The oracle, pmcheck, steadiness and inert-tracing checks.
fn check(w: Workload, rounds: &[Round], traced: Option<&Round>) -> Vec<String> {
    let mut problems = Vec::new();
    for r in rounds.iter().chain(traced) {
        if r.oracle.lost > 0 {
            problems.push(format!(
                "{} of {} checked values lost; first: {}",
                r.oracle.lost,
                r.oracle.checked,
                r.oracle.first.as_deref().unwrap_or("?")
            ));
        }
        problems.extend(r.pm_violations.iter().map(|v| format!("pmcheck: {v}")));
    }
    if w.deterministic() {
        let first = virtual_fingerprint(&rounds[0]);
        if rounds.iter().any(|r| virtual_fingerprint(r) != first) {
            problems.push("re-runs with the same seed gave different virtual time".into());
        }
        if traced.is_some_and(|t| virtual_fingerprint(t) != first) {
            problems.push("tracing changed virtual time: the wrappers are not inert".into());
        }
    }
    problems
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
