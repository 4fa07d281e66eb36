//! CI trace-perf smoke: traced runs must move at span-batched speed.
//!
//! Before span-native tracing, attaching a trace sink silently forced the
//! per-byte engine; tracing cost roughly the full span-batching speedup.
//! This bench pins the recovery at the Fig 10 operating point that
//! `results/BENCH_engine.json` uses (load 0.08, seed 0xF1610): for every
//! Figure 10 scheme it times traced per-byte, untraced span-batched and
//! traced span-batched runs (in-memory trace) and gates
//!
//! - traced span-batched at least `MIN_TRACED_SPEEDUP`x faster than
//!   traced per-byte (the fallback span-native tracing removed), and
//! - the tracing overhead of span-batched runs at most
//!   `MAX_TRACE_OVERHEAD`x untraced span-batched.
//!
//! Both are same-machine wall-clock *ratios*, so they hold on slow
//! runners. Each gate is taken on the median of `SAMPLES` ratios, each
//! from one back-to-back set of runs, so a single noisy run cannot flip
//! it. On top sits the hardware-independent equivalence gate: the
//! span-level trace must validate against the JSONL schema and its
//! per-byte expansion must be byte-identical to the per-byte engine's
//! trace. Every sample, with each ratio's median, min and max, lands in
//! `results/BENCH_trace.json`.

use serde::Serialize;
use std::time::Instant;
use wormcast_bench::fig10::{self, Fig10Config};
use wormcast_bench::runner::run_traced;
use wormcast_bench::schemes::Scheme;
use wormcast_bench::trace_io::{expand_spans, validate_jsonl};
use wormcast_sim::network::SimMode;
use wormcast_sim::trace::TraceConfig;

/// The BENCH_engine.json operating point: load 0.08, same windows and seed.
const LOAD: f64 = 0.08;
const CFG: Fig10Config = Fig10Config {
    loads: &[LOAD],
    warmup: 20_000,
    measure: 100_000,
    drain: 40_000,
    seed: 0xF1610,
};

const MIN_TRACED_SPEEDUP: f64 = 3.0;
const MAX_TRACE_OVERHEAD: f64 = 1.3;
/// Timed samples per scheme; the gates read the median ratio.
const SAMPLES: usize = 5;

/// One wall-clock ratio over all samples.
#[derive(Serialize)]
struct Ratio {
    median: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
}

impl Ratio {
    fn of(samples: Vec<f64>) -> Ratio {
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        Ratio {
            median: sorted[sorted.len() / 2],
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            samples,
        }
    }
}

#[derive(Serialize)]
struct TraceRow {
    scheme: String,
    per_byte_traced_s: Vec<f64>,
    span_untraced_s: Vec<f64>,
    span_traced_s: Vec<f64>,
    /// Traced per-byte wall clock over traced span-batched: what removing
    /// the traced-run per-byte fallback buys.
    traced_speedup: Ratio,
    /// Traced span-batched over untraced span-batched: what tracing costs
    /// on the fast path.
    trace_overhead: Ratio,
    trace_lines: u64,
    span_lines: u64,
}

fn timed(
    scheme: Scheme,
    mode: SimMode,
    trace: TraceConfig,
) -> (f64, wormcast_sim::trace::Trace) {
    let mut setup = fig10::setup(scheme, LOAD, &CFG);
    setup.mode = mode;
    setup.trace = trace;
    let t0 = Instant::now();
    let (report, trace) = run_traced(&setup);
    let secs = t0.elapsed().as_secs_f64();
    assert!(report.outcome.deadlock.is_none(), "deadlock at smoke point");
    assert_eq!(report.trace_dropped, 0, "memory sink must not drop events");
    (secs, trace)
}

fn main() {
    let results_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut rows = Vec::new();
    let mut failed = false;
    for scheme in fig10::schemes() {
        let (mut pb_mem, mut sp_off, mut sp_mem) = (Vec::new(), Vec::new(), Vec::new());
        let (mut trace_lines, mut span_lines) = (0, 0);
        for sample in 0..SAMPLES {
            let (pb_secs, pb_trace) = timed(scheme, SimMode::PerByte, TraceConfig::Memory);
            let (off_secs, _) = timed(scheme, SimMode::SpanBatched, TraceConfig::Off);
            let (mem_secs, sp_trace) = timed(scheme, SimMode::SpanBatched, TraceConfig::Memory);
            pb_mem.push(pb_secs);
            sp_off.push(off_secs);
            sp_mem.push(mem_secs);
            if sample > 0 {
                continue;
            }
            // Hardware-independent gate first: span-native tracing is only
            // worth its speed if it is *lossless* — schema-valid, and
            // expanding the span-level stream reproduces the per-byte trace
            // byte for byte.
            let span_jsonl = sp_trace.to_jsonl();
            let violations = validate_jsonl(&span_jsonl);
            assert!(
                violations.is_empty(),
                "{scheme:?}: span trace schema violations: {violations:?}"
            );
            let per_byte_jsonl = pb_trace.to_jsonl();
            assert!(
                expand_spans(&span_jsonl) == per_byte_jsonl,
                "{scheme:?}: expanded span trace diverged from the per-byte trace"
            );
            trace_lines = per_byte_jsonl.lines().count() as u64;
            span_lines = span_jsonl.lines().count() as u64;
        }

        let ratios =
            |num: &[f64], den: &[f64]| Ratio::of(num.iter().zip(den).map(|(n, d)| n / d).collect());
        let traced_speedup = ratios(&pb_mem, &sp_mem);
        let trace_overhead = ratios(&sp_mem, &sp_off);
        eprintln!(
            "perf-trace {scheme:?}: median of {SAMPLES} — traced speedup {:.2}x \
             (min {:.2}x, max {:.2}x), trace overhead {:.2}x (min {:.2}x, max {:.2}x)",
            traced_speedup.median,
            traced_speedup.min,
            traced_speedup.max,
            trace_overhead.median,
            trace_overhead.min,
            trace_overhead.max
        );
        if traced_speedup.median < MIN_TRACED_SPEEDUP {
            eprintln!(
                "perf-trace: FAIL {scheme:?}: traced span-batched only {:.2}x faster than \
                 traced per-byte in the median (need >= {MIN_TRACED_SPEEDUP}x)",
                traced_speedup.median
            );
            failed = true;
        }
        if trace_overhead.median > MAX_TRACE_OVERHEAD {
            eprintln!(
                "perf-trace: FAIL {scheme:?}: tracing costs {:.2}x on the span fast \
                 path in the median (budget {MAX_TRACE_OVERHEAD}x)",
                trace_overhead.median
            );
            failed = true;
        }
        rows.push(TraceRow {
            scheme: format!("{scheme:?}"),
            per_byte_traced_s: pb_mem,
            span_untraced_s: sp_off,
            span_traced_s: sp_mem,
            traced_speedup,
            trace_overhead,
            trace_lines,
            span_lines,
        });
    }

    let out = format!("{results_dir}/BENCH_trace.json");
    std::fs::write(&out, serde_json::to_string_pretty(&rows).expect("serialize"))
        .expect("write BENCH_trace.json");
    eprintln!("perf-trace: wrote {out}");
    if failed {
        std::process::exit(1);
    }
    eprintln!(
        "perf-trace: all schemes >= {MIN_TRACED_SPEEDUP}x traced speedup, \
         <= {MAX_TRACE_OVERHEAD}x trace overhead (medians), expansions byte-identical"
    );
}
