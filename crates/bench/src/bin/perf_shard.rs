//! Shard-scaling bench at the Figure 10 operating points.
//!
//! Runs the figure's tree scheme on the 8×8 torus over a shards × load
//! grid — the sequential engine as the 1-shard baseline, then the
//! quadrant-partitioned parallel engine at 2 and 4 shards — and writes
//! `results/BENCH_shard.json` with wall-clock speedups per point.
//!
//! Two gates:
//!
//! * **Counter drift (always on):** every sharded run's `bytes_moved` /
//!   `worms_delivered` must equal the sequential baseline measured in the
//!   same process — sharding must never change *what* is simulated. The
//!   sequential points themselves are pinned by `wormbench`'s outcome
//!   digests (`wormbench/pinned_digests.txt`). Exits non-zero on drift.
//! * **Speedup (gated on hardware):** when the machine has at least 4
//!   CPUs, the 4-shard run at the saturating load must be ≥ 2.5× the
//!   sequential baseline. On smaller machines the ratio is recorded but
//!   not enforced — conservative parallelism cannot beat sequential on a
//!   single core. Any sub-1.0× sharded point prints a visible warning
//!   either way.
//!
//! Each row also records its event inflation (sharded ÷ sequential
//! `events_scheduled`). It is reported, not gated: cut links carry bytes
//! per-byte (DESIGN.md §3.4), so sharded runs schedule several times the
//! sequential span-batched engine's events.

use serde::Serialize;
use std::time::Instant;
use wormcast_bench::fig10::{self, figure_tree_scheme, Fig10Config};
use wormcast_bench::runner::{self, SimSetup};
use wormcast_topo::ShardPlan;

/// The Fig 10 windows and seed that `results/BENCH_engine.json` pins.
const LOADS: &[f64] = &[0.08, 0.12];
const SHARDS: &[u32] = &[1, 2, 4];
const CFG: Fig10Config = Fig10Config {
    loads: LOADS,
    warmup: 20_000,
    measure: 100_000,
    drain: 40_000,
    seed: 0xF1610,
};
/// The saturating load whose 4-shard speedup the acceptance gate checks.
const GATE_LOAD: f64 = 0.12;
const GATE_SPEEDUP: f64 = 2.5;

#[derive(Serialize, Clone)]
struct ShardRow {
    load: f64,
    shards: u32,
    wall_seconds: f64,
    sim_byte_times_per_sec: f64,
    /// Wall-clock ratio vs the 1-shard (sequential engine) run at the
    /// same load, measured in this same process.
    speedup_vs_sequential: f64,
    bytes_moved: u64,
    worms_delivered: u64,
    events_scheduled: u64,
    /// `events_scheduled` ÷ the sequential run's at the same load (1.0 for
    /// the baseline row itself) — the engine-cost overhead of sharding.
    event_inflation: f64,
}

#[derive(Serialize)]
struct ShardDump {
    experiment: String,
    scheme: String,
    loads: Vec<f64>,
    shard_counts: Vec<u32>,
    windows: (u64, u64, u64),
    machine: String,
    cpus: usize,
    /// Whether the ≥ 2.5× @ 4 shards gate was enforced (needs ≥ 4 cpus).
    speedup_gate_enforced: bool,
    rows: Vec<ShardRow>,
}

fn machine_desc() -> String {
    let uname = std::process::Command::new("uname")
        .arg("-srm")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    format!("{uname} ({} cpus)", cpus())
}

fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn point(load: f64, shards: u32) -> SimSetup {
    let mut setup = fig10::setup(figure_tree_scheme(), load, &CFG);
    if shards > 1 {
        setup.shards = shards;
        setup.shard_plan = Some(ShardPlan::torus_grid(8, shards).expect("torus plan"));
    }
    setup
}

fn main() {
    let results_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(results_dir).expect("create results dir");
    let sim_horizon = CFG.warmup + CFG.measure + CFG.drain;
    let mut rows: Vec<ShardRow> = Vec::new();
    let mut ok = true;

    for &load in LOADS {
        let mut seq_wall = 0.0f64;
        let mut seq_counters = (0u64, 0u64);
        let mut seq_events = 0u64;
        for &shards in SHARDS {
            let setup = point(load, shards);
            let (secs, stats) = if shards == 1 {
                let mut net = runner::build_network(&setup);
                let t0 = Instant::now();
                let outcome = net.run_until(sim_horizon);
                let secs = t0.elapsed().as_secs_f64();
                net.audit().expect("sequential conservation");
                (secs, outcome.stats)
            } else {
                let mut sharded = runner::build_sharded(&setup).expect("shardable point");
                let t0 = Instant::now();
                let outcome = sharded.run_until(sim_horizon);
                let secs = t0.elapsed().as_secs_f64();
                sharded.audit().expect("sharded conservation");
                (secs, outcome.stats)
            };
            if shards == 1 {
                seq_wall = secs;
                seq_counters = (stats.bytes_moved, stats.worms_delivered);
                seq_events = stats.events_scheduled;
            } else if (stats.bytes_moved, stats.worms_delivered) != seq_counters {
                eprintln!(
                    "perf-shard: DRIFT at load {load}: {shards} shards moved \
                     ({}, {}) vs sequential {seq_counters:?}",
                    stats.bytes_moved, stats.worms_delivered
                );
                ok = false;
            }
            let speedup = seq_wall / secs;
            let inflation = if shards == 1 {
                1.0
            } else {
                stats.events_scheduled as f64 / seq_events as f64
            };
            eprintln!(
                "perf-shard load={load:.2} shards={shards}: {secs:.3}s = {:.0} \
                 byte-times/s ({speedup:.2}x vs sequential, {inflation:.2}x events)",
                sim_horizon as f64 / secs
            );
            if shards > 1 && speedup < 1.0 {
                eprintln!(
                    "perf-shard: WARNING — sharding made this point SLOWER than \
                     sequential ({speedup:.2}x at load {load:.2}, {shards} shards)"
                );
            }
            rows.push(ShardRow {
                load,
                shards,
                wall_seconds: secs,
                sim_byte_times_per_sec: sim_horizon as f64 / secs,
                speedup_vs_sequential: speedup,
                bytes_moved: stats.bytes_moved,
                worms_delivered: stats.worms_delivered,
                events_scheduled: stats.events_scheduled,
                event_inflation: inflation,
            });
        }
    }

    let gate_enforced = cpus() >= 4;
    let dump = ShardDump {
        experiment: "fig10 8x8 torus, tree scheme, quadrant-sharded scaling".into(),
        scheme: format!("{:?}", figure_tree_scheme()),
        loads: LOADS.to_vec(),
        shard_counts: SHARDS.to_vec(),
        windows: (CFG.warmup, CFG.measure, CFG.drain),
        machine: machine_desc(),
        cpus: cpus(),
        speedup_gate_enforced: gate_enforced,
        rows: rows.clone(),
    };
    let path = format!("{results_dir}/BENCH_shard.json");
    std::fs::write(&path, serde_json::to_string_pretty(&dump).expect("serialize"))
        .expect("write BENCH_shard.json");
    eprintln!("perf-shard: wrote {path}");

    let gate_row = rows
        .iter()
        .find(|r| r.load == GATE_LOAD && r.shards == 4)
        .expect("gate point measured");
    eprintln!(
        "perf-shard: {:.2}x event inflation at 4 shards (load {GATE_LOAD}), not gated",
        gate_row.event_inflation
    );
    if gate_enforced {
        if gate_row.speedup_vs_sequential < GATE_SPEEDUP {
            eprintln!(
                "perf-shard: FAIL — {:.2}x at 4 shards (load {GATE_LOAD}), need {GATE_SPEEDUP}x",
                gate_row.speedup_vs_sequential
            );
            ok = false;
        } else {
            eprintln!(
                "perf-shard: {:.2}x at 4 shards (load {GATE_LOAD}) >= {GATE_SPEEDUP}x",
                gate_row.speedup_vs_sequential
            );
        }
    } else {
        eprintln!(
            "perf-shard: {} cpu(s) — speedup gate not enforced ({:.2}x recorded)",
            cpus(),
            gate_row.speedup_vs_sequential
        );
    }
    if !ok {
        std::process::exit(1);
    }
}
