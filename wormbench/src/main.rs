//! wormbench — the wormcast benchmark driver.
//!
//! ```text
//! wormbench --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--tiny]
//! ```
//!
//! Runs one workload's sweep of simulation points again and again for
//! `--seconds`, checks every run, and prints, as the last line of
//! standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured as a
//! user runs the points, with host seconds scaled by a machine-speed
//! probe (`probe.rs`); with `--trace 1` they are the per-layer ones, from
//! layered runs with and without an in-memory trace and from 2-shard
//! runs. Each value is the median over sweeps. The line before it holds
//! the machine fingerprint and every metric's median, min, max and
//! samples. `--workload all` runs every workload in both modes.
//! `--tiny` shrinks every window to a few thousand byte-times (self-test).
//! See `README.md` for what each metric means.

mod check;
mod fingerprint;
mod measure;
mod probe;
mod workloads;

use check::{Checker, EngineRecord};
use measure::{Layers, CALLBACKS};
use std::time::{Duration, Instant};
use workloads::{Point, Workload};

struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: Option<bool>,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: None,
        seconds: 10.0,
        trace: None,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workloads = if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
                }
            }
            "--seed" => {
                let seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                args.seed = Some(seed.map_err(|e| format!("bad --seed {value}: {e}"))?);
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A metric's samples (one per sweep) and unit.
struct Series {
    unit: &'static str,
    samples: Vec<f64>,
    /// False for the raw readings printed only on the detail line.
    in_result: bool,
}

/// Metric name → samples, in output order.
#[derive(Default)]
struct Metrics(Vec<(String, Series)>);

impl Metrics {
    fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push_series(name, unit, value, true);
    }

    /// A reading for the detail line only.
    fn push_detail(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push_series(name, unit, value, false);
    }

    fn push_series(&mut self, name: &str, unit: &'static str, value: f64, in_result: bool) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some((_, s)) => s.samples.push(value),
            None => self.0.push((
                name.to_string(),
                Series {
                    unit,
                    samples: vec![value],
                    in_result,
                },
            )),
        }
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A JSON number; non-finite values (never expected) become null so the
/// line stays valid JSON and the self-test flags them.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Keep sweeping until the next sweep would overrun `seconds` (at least
/// one sweep).
fn sweep_until(seconds: f64, mut sweep: impl FnMut()) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    loop {
        let t = Instant::now();
        sweep();
        if start.elapsed() + t.elapsed() > budget {
            return;
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// End-to-end: every point as a user runs it, sweep after sweep.
///
/// Host seconds are scaled to the reference machine by the probe timed
/// before and after each point (see `probe`). The gated throughput
/// counts simulated bytes moved, not byte-times: on one seed the two are
/// proportional, but across seeds the traffic a byte-time carries varies
/// by up to about 10%. The unscaled host readings and byte-times per
/// second go to the detail line.
fn end_to_end(w: Workload, points: &[Point], seconds: f64, checker: &mut Checker) -> Metrics {
    let oracle = (w == Workload::Fig10PerByte).then(EngineRecord::load);
    let mut m = Metrics::default();
    let mut first = true;
    let mut before = probe::probe_s();
    sweep_until(seconds, || {
        let (mut setup_s, mut wait_s, mut host_setup_s, mut host_wait_s) = (0.0, 0.0, 0.0, 0.0);
        let (mut bytetimes, mut bytes) = (0, 0);
        for p in points {
            // The per-byte oracle runs once per point, untimed.
            let oracle = oracle.as_ref().filter(|_| first);
            let r = measure::run_e2e(p, w.traced(), checker, oracle);
            let after = probe::probe_s();
            let scale = probe::scale(before, after);
            m.push_detail("probe_s", "s", after);
            before = after;
            setup_s += r.setup_s * scale;
            wait_s += r.wait_s * scale;
            host_setup_s += r.setup_s;
            host_wait_s += r.wait_s;
            bytetimes += r.bytetimes;
            bytes += r.bytes_moved;
        }
        first = false;
        m.push("sim_bytes_per_s", "B/s", bytes as f64 / wait_s);
        m.push("setup_s", "s", setup_s);
        m.push_detail("host.sim_bytes_per_s", "B/s", bytes as f64 / host_wait_s);
        m.push_detail(
            "host.sim_bytetimes_per_s",
            "1/s",
            bytetimes as f64 / host_wait_s,
        );
        m.push_detail("host.setup_s", "s", host_setup_s);
    });
    m.push("peak_rss_mb", "MB", peak_rss_mb());
    let failed_frac = checker.failed as f64 / checker.attempted.max(1) as f64;
    m.push("ok_frac", "fraction", 1.0 - failed_frac);
    m
}

/// Per-layer: one sweep of 2-shard runs, then alternate an untraced and
/// a traced layered sweep for the rest of the time.
fn per_layer(points: &[Point], seconds: f64, checker: &mut Checker) -> Metrics {
    let start = Instant::now();
    // Never more shard threads than CPUs; on one CPU the "sharded" run is
    // the sequential engine.
    let shards = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2) as u32;
    let (mut shard_run_s, mut shard_events) = (0.0, 0);
    for p in points {
        let r = measure::run_sharded(p, shards, checker);
        shard_run_s += r.run_s;
        shard_events += r.events_scheduled;
    }

    let mut m = Metrics::default();
    let remaining = seconds - start.elapsed().as_secs_f64();
    sweep_until(remaining, || {
        let (mut u, mut t) = (Layers::default(), Layers::default());
        for p in points {
            u.add(&measure::run_layered(p, false, checker));
        }
        for p in points {
            t.add(&measure::run_layered(p, true, checker));
        }
        layer_metrics(&mut m, &u, &t);
        m.push("shard.run_s", "s", shard_run_s);
        m.push("shard.speedup", "x", u.run_s / shard_run_s);
        m.push(
            "shard.event_inflation",
            "x",
            shard_events as f64 / u.events_scheduled as f64,
        );
    });
    m
}

fn layer_metrics(m: &mut Metrics, u: &Layers, t: &Layers) {
    for (name, v) in [
        ("topo.build_s", u.topo_build_s),
        ("topo.updown_s", u.topo_updown_s),
        ("topo.routes_s", u.topo_routes_s),
        ("topo.hostgraph_s", u.topo_hostgraph_s),
        ("sim.build_s", u.sim_build_s),
        ("core.install_s", u.core_install_s),
        ("traffic.install_s", u.traffic_install_s),
        ("sim.run_s", u.run_s),
        ("stats.report_s", u.report_s),
    ] {
        m.push(name, "s", v);
    }
    m.push("sim.events_scheduled", "count", u.events_scheduled as f64);
    m.push("sim.events_fired", "count", u.events_fired as f64);
    m.push(
        "sim.events_per_kbyte",
        "events/kB",
        u.events_fired as f64 / (u.bytes_moved.max(1) as f64 / 1000.0),
    );
    m.push(
        "sim.ns_per_event",
        "ns",
        u.run_s * 1e9 / u.events_fired.max(1) as f64,
    );
    m.push("sim.spans_emitted", "count", t.spans_emitted as f64);
    m.push("sim.spans_truncated", "count", t.spans_truncated as f64);
    m.push(
        "sim.span_len_mean",
        "bytes",
        t.span_bytes as f64 / t.spans_emitted.max(1) as f64,
    );
    let lanes = u.lanes.max(1) as f64;
    m.push("link.util_mean", "fraction", u.lane_util_sum / lanes);
    m.push("link.util_max", "fraction", u.lane_util_max);
    m.push(
        "link.stall_frac_mean",
        "fraction",
        u.lane_stall_frac_sum / lanes,
    );
    m.push("link.stalls", "count", u.stalls as f64);
    m.push("link.idles", "bytes", u.idles as f64);
    let mut calls = 0;
    for (name, c) in CALLBACKS.iter().zip(u.calls) {
        m.push(&format!("core.calls.{name}"), "count", c as f64);
        calls += c;
    }
    m.push("core.self_s", "s", u.core_self_s);
    m.push(
        "core.ns_per_call",
        "ns",
        u.core_self_s * 1e9 / calls.max(1) as f64,
    );
    m.push("trace.record_s", "s", t.run_s - u.run_s);
    m.push("trace.events", "count", t.trace_events as f64);
    m.push("trace.span_events", "count", t.span_events as f64);
    m.push("trace.write_s", "s", t.trace_write_s);
    m.push("trace.jsonl_mb", "MB", t.jsonl_bytes as f64 / 1e6);
    m.push("trace.expand_s", "s", t.trace_expand_s);
    m.push("trace.dropped", "count", t.trace_dropped as f64);
    m.push("bench.trace_overhead", "x", t.wall_s / u.wall_s);
}

/// The result line: every check's tally and each metric's median.
#[derive(Default)]
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    fn line(&self) -> String {
        let m: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            m.join(",")
        )
    }
}

/// Run one workload in one mode and print its detail line.
fn run_one(w: Workload, args: &Args, traced_pass: bool) -> RunResult {
    let seed = args.seed.unwrap_or(w.paper_seed());
    let points = w.points(seed, args.tiny);
    let mut checker = Checker::new((!args.tiny).then(|| w.paper_seed()));
    let metrics = if traced_pass {
        per_layer(&points, args.seconds, &mut checker)
    } else {
        end_to_end(w, &points, args.seconds, &mut checker)
    };
    let detail: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, s)| {
            let lo = s.samples.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = s.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let samples: Vec<String> = s.samples.iter().map(|&x| num(x)).collect();
            format!(
                "\"{name}\":{{\"median\":{},\"min\":{},\"max\":{},\"n\":{},\"unit\":\"{}\",\"samples\":[{}]}}",
                num(median(&s.samples)),
                num(lo),
                num(hi),
                s.samples.len(),
                s.unit,
                samples.join(",")
            )
        })
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{},\"points\":{},\"pinned_digests_checked\":{},\"fingerprint\":{},\"detail\":{{{}}}}}",
        w.name(),
        u8::from(traced_pass),
        points.len(),
        checker.pinned_checked,
        fingerprint::json(),
        detail.join(",")
    );
    RunResult {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: metrics
            .0
            .into_iter()
            .filter(|(_, s)| s.in_result)
            .map(|(name, s)| (name, median(&s.samples), s.unit))
            .collect(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wormbench: {e}");
            eprintln!(
                "usage: wormbench --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--tiny]"
            );
            std::process::exit(2);
        }
    };
    let modes: Vec<bool> = match args.trace {
        Some(t) => vec![t],
        None if args.workloads.len() > 1 => vec![false, true],
        None => vec![false],
    };
    if let ([w], [traced_pass]) = (&args.workloads[..], &modes[..]) {
        println!("{}", run_one(*w, &args, *traced_pass).line());
        return;
    }
    // Every workload's result line, then one line over all of them with
    // each metric named `<workload>/<metric>`.
    let mut all = RunResult::default();
    for &w in &args.workloads {
        for &traced_pass in &modes {
            let r = run_one(w, &args, traced_pass);
            println!("{}", r.line());
            all.attempted += r.attempted;
            all.failed += r.failed;
            all.metrics.extend(
                r.metrics
                    .into_iter()
                    .map(|(name, v, unit)| (format!("{}/{name}", w.name()), v, unit)),
            );
        }
    }
    println!("{}", all.line());
}
