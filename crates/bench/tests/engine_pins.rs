//! Engine pins at the Figure 10 headline point (8×8 torus, load 0.08,
//! seed 0xF1610, windows 20k/100k/40k), read from the checked-in
//! `results/BENCH_engine.json`.
//!
//! Every hardware-independent engine gate lives here:
//!
//! - each scheme's span-batched run reproduces its `span_batched` row
//!   (all five counters) — an engine change that alters *what* is
//!   simulated, not just how fast, must re-pin deliberately;
//! - the single-lane tree run is the same run as the tree row, so the lane
//!   layer adds nothing to a one-lane fabric;
//! - lane capacity: delivered worms never decrease across 1/2/4 lanes at
//!   loads 0.08 and 0.12, and at 0.12 two lanes deliver strictly more
//!   than one;
//! - every point passes the conservation audit and none deadlocks.
//!
//! The `per_byte` rows are checked by `wormbench --workload fig10_perbyte`.
//! Nothing writes `BENCH_engine.json`. On a mismatch this test prints the
//! measured row in the file's own format; after a deliberate semantics
//! change, paste it over the old row to re-pin.

use serde::{Deserialize, Serialize};
use wormcast_bench::fig10::{self, figure_tree_scheme, Fig10Config};
use wormcast_bench::runner::{run_parallel, RunReport, SimSetup};
use wormcast_bench::Scheme;

const LOAD: f64 = 0.08;
/// The load where one lane saturates and a second must pay off.
const SATURATING_LOAD: f64 = 0.12;
const LANES: [u8; 3] = [1, 2, 4];
const CFG: Fig10Config = Fig10Config {
    loads: &[LOAD],
    warmup: 20_000,
    measure: 100_000,
    drain: 40_000,
    seed: 0xF1610,
};

#[derive(Serialize, Deserialize, Clone, Copy, PartialEq, Debug)]
struct Counters {
    events_scheduled: u64,
    events_fired: u64,
    bytes_moved: u64,
    worms_delivered: u64,
    multicast_deliveries: u64,
}

#[derive(Serialize, Deserialize)]
struct Row {
    scheme: String,
    per_byte: Counters,
    span_batched: Counters,
    scheduled_reduction: f64,
}

#[derive(Deserialize)]
struct EngineFile {
    offered_load: f64,
    windows: (u64, u64, u64),
    rows: Vec<Row>,
}

fn engine_file() -> EngineFile {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_engine.json"
    );
    let text = std::fs::read_to_string(path).expect("read BENCH_engine.json");
    serde_json::from_str(&text).expect("parse BENCH_engine.json")
}

fn counters(r: &RunReport) -> Counters {
    Counters {
        events_scheduled: r.stats().events_scheduled,
        events_fired: r.stats().events_fired,
        bytes_moved: r.stats().bytes_moved,
        worms_delivered: r.stats().worms_delivered,
        multicast_deliveries: r.multicast.deliveries as u64,
    }
}

fn point(scheme: Scheme, load: f64, lanes: u8) -> SimSetup {
    let mut setup = fig10::setup(scheme, load, &CFG);
    setup.lanes = lanes;
    setup
}

#[test]
fn fig10_engine_counters_and_lane_capacity_match_pins() {
    let file = engine_file();
    assert_eq!(file.offered_load, LOAD, "BENCH_engine.json operating point");
    assert_eq!(file.windows, (CFG.warmup, CFG.measure, CFG.drain));

    // The three scheme rows (the tree row doubles as the single-lane
    // tree run at 0.08), then the rest of the tree-scheme lane grid.
    let schemes = fig10::schemes();
    let more_lanes = [
        (LOAD, 2),
        (LOAD, 4),
        (SATURATING_LOAD, 1),
        (SATURATING_LOAD, 2),
        (SATURATING_LOAD, 4),
    ];
    let setups = schemes
        .iter()
        .map(|&s| point(s, LOAD, 1))
        .chain(more_lanes.map(|(load, l)| point(figure_tree_scheme(), load, l)))
        .collect();
    let reports = run_parallel(setups);
    for r in &reports {
        assert!(r.outcome.deadlock.is_none(), "deadlock: {:?}", r.outcome);
    }
    let (scheme_runs, lane_runs) = reports.split_at(schemes.len());

    let tree_name = format!("{:?}", figure_tree_scheme());
    let mut tree_delivered = None;
    let mut drifted = Vec::new();
    for (scheme, report) in schemes.iter().zip(scheme_runs) {
        let name = format!("{scheme:?}");
        let row = file
            .rows
            .iter()
            .find(|r| r.scheme == name)
            .unwrap_or_else(|| panic!("BENCH_engine.json has no row for {name}"));
        let got = counters(report);
        if name == tree_name {
            tree_delivered = Some(got.worms_delivered);
        }
        if got != row.span_batched {
            let measured = Row {
                scheme: name,
                per_byte: row.per_byte,
                span_batched: got,
                scheduled_reduction: row.per_byte.events_scheduled as f64
                    / got.events_scheduled as f64,
            };
            let json = serde_json::to_string_pretty(&measured).expect("serialize row");
            drifted.push(json.replace('\n', "\n    "));
        }
    }
    assert!(
        drifted.is_empty(),
        "span-batched counters drifted from results/BENCH_engine.json; measured rows:\n    {}",
        drifted.join(",\n    ")
    );

    let mut more = lane_runs.iter().map(|r| r.stats().worms_delivered);
    let mut next = || more.next().expect("lane run");
    let grid = [
        (
            LOAD,
            [tree_delivered.expect("tree scheme row"), next(), next()],
        ),
        (SATURATING_LOAD, [next(), next(), next()]),
    ];
    for (load, delivered) in grid {
        assert!(
            delivered.windows(2).all(|w| w[0] <= w[1]),
            "delivered worms decreased with more lanes at load {load}: {delivered:?} for lanes {LANES:?}"
        );
    }
    let [one, two, _] = grid[1].1;
    assert!(
        two > one,
        "at load {SATURATING_LOAD}, 2 lanes delivered {two} worms, need strictly more than one lane's {one}"
    );
}
