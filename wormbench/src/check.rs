//! Correctness checks, run on every simulated point outside the timed
//! interval: the conservation audit, no deadlock, no dropped trace
//! events, and a digest of the simulated outcome that must match the
//! pinned one (paper seeds) and every other run of the same point.
//! `fig10_perbyte` is also held to the per-byte counters recorded in
//! `results/BENCH_engine.json` and to a span-batched twin run.

use crate::workloads::{Point, FIG10_SEED};
use std::collections::HashMap;
use std::fmt;
use wormcast_bench::runner::{self, RunReport};
use wormcast_sim::network::{NetStats, RunOutcome, SimMode};
use wormcast_stats::latency::LatencyReport;

/// Digests pinned at the paper seeds: `<point label> <seed> <digest>`.
const PINNED: &str = include_str!("../pinned_digests.txt");

/// What a run simulated, independent of how fast or in which engine mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub bytes_moved: u64,
    pub worms_delivered: u64,
    pub multicast_deliveries: usize,
    /// Bits of the mean multicast latency (byte-times).
    pub mean_latency_bits: u64,
}

impl Digest {
    pub fn of(stats: &NetStats, multicast: &LatencyReport) -> Digest {
        Digest {
            bytes_moved: stats.bytes_moved,
            worms_delivered: stats.worms_delivered,
            multicast_deliveries: multicast.deliveries,
            mean_latency_bits: multicast.per_delivery.mean.to_bits(),
        }
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}:{:016x}",
            self.bytes_moved,
            self.worms_delivered,
            self.multicast_deliveries,
            self.mean_latency_bits
        )
    }
}

/// Everything a finished run is checked on.
pub struct RunFacts<'a> {
    pub outcome: &'a RunOutcome,
    pub audit: Result<(), String>,
    pub trace_dropped: u64,
    pub digest: Digest,
}

/// Counts attempted and failed points and prints every failure.
pub struct Checker {
    pinned: HashMap<(String, u64), String>,
    /// First digest seen for each point in this process.
    seen: HashMap<(String, u64), Digest>,
    /// The seed whose digests are pinned, when the run uses it (none for
    /// the tiny self-test windows, which nothing is pinned for).
    pinned_seed: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Points checked against a pinned digest.
    pub pinned_checked: u64,
}

impl Checker {
    pub fn new(pinned_seed: Option<u64>) -> Checker {
        let mut pinned = HashMap::new();
        for line in PINNED.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [label, seed, digest] = f[..] else {
                panic!("malformed pinned digest line: {line}");
            };
            let seed = u64::from_str_radix(seed.trim_start_matches("0x"), 16)
                .unwrap_or_else(|e| panic!("bad seed in pinned digest line {line}: {e}"));
            pinned.insert((label.to_string(), seed), digest.to_string());
        }
        Checker {
            pinned,
            seen: HashMap::new(),
            pinned_seed,
            attempted: 0,
            failed: 0,
            pinned_checked: 0,
        }
    }

    /// Check one finished run of `point`, adding any `problems` found by
    /// workload-specific checks.
    pub fn check(&mut self, point: &Point, facts: &RunFacts, mut problems: Vec<String>) {
        self.attempted += 1;
        if let Err(e) = &facts.audit {
            problems.push(format!("conservation audit failed: {e}"));
        }
        if facts.outcome.deadlock.is_some() {
            problems.push("deadlock detected".to_string());
        }
        if facts.trace_dropped != 0 {
            problems.push(format!("{} trace events dropped", facts.trace_dropped));
        }
        let key = (point.label.clone(), point.seed);
        if self.pinned_seed == Some(point.seed) {
            self.pinned_checked += 1;
            match self.pinned.get(&key) {
                Some(want) if *want == facts.digest.to_string() => {}
                Some(want) => problems.push(format!("digest {} != pinned {want}", facts.digest)),
                None => problems.push(format!("no pinned digest; this run's is {}", facts.digest)),
            }
        }
        match self.seen.get(&key) {
            Some(first) if *first != facts.digest => problems.push(format!(
                "digest {} differs from an earlier run's {first}",
                facts.digest
            )),
            Some(_) => {}
            None => {
                self.seen.insert(key, facts.digest);
            }
        }
        if !problems.is_empty() {
            self.failed += 1;
        }
        for p in problems {
            eprintln!("FAIL {} seed {:#x}: {p}", point.label, point.seed);
        }
    }
}

/// The per-byte oracle checks of `fig10_perbyte`: the recorded
/// counters (paper seed and recorded windows only) and a span-batched
/// twin of the same point, which must simulate the same outcome.
pub fn perbyte_oracle(
    point: &Point,
    stats: &NetStats,
    digest: Digest,
    recorded: &Result<EngineRecord, String>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut twin = point.setup();
    twin.mode = SimMode::SpanBatched;
    let twin: RunReport = runner::run(&twin);
    let twin_digest = Digest::of(twin.stats(), &twin.multicast);
    if twin_digest != digest {
        problems.push(format!(
            "per-byte digest {digest} != span-batched twin {twin_digest}"
        ));
    }
    if point.seed == FIG10_SEED {
        match recorded {
            Err(e) => problems.push(e.clone()),
            Ok(rec) if rec.windows == point.windows => {
                match rec.per_byte.get(&point.scheme_debug()) {
                    None => problems.push(format!(
                        "results/BENCH_engine.json has no row for {}",
                        point.scheme_debug()
                    )),
                    Some(want) => {
                        let got = [
                            stats.events_scheduled,
                            stats.events_fired,
                            stats.bytes_moved,
                            stats.worms_delivered,
                            digest.multicast_deliveries as u64,
                        ];
                        if *want != got {
                            problems.push(format!(
                                "per-byte counters {got:?} != results/BENCH_engine.json {want:?} \
                                 (events_scheduled, events_fired, bytes_moved, worms_delivered, \
                                 multicast_deliveries)"
                            ));
                        }
                    }
                }
            }
            Ok(_) => {}
        }
    }
    problems
}

/// The per-byte rows of `results/BENCH_engine.json`.
pub struct EngineRecord {
    windows: (u64, u64, u64),
    /// Scheme (Debug form) → [events_scheduled, events_fired, bytes_moved,
    /// worms_delivered, multicast_deliveries].
    per_byte: HashMap<String, [u64; 5]>,
}

impl EngineRecord {
    /// Read the record from the checkout (read only, never written).
    pub fn load() -> Result<EngineRecord, String> {
        const PATH: &str = "results/BENCH_engine.json";
        let text = std::fs::read_to_string(PATH).map_err(|e| format!("cannot read {PATH}: {e}"))?;
        let v = serde_json::parse_value(&text).map_err(|e| format!("{PATH}: {e}"))?;
        let bad = |what: &str| format!("{PATH}: missing or malformed {what}");
        let num = |v: Option<&serde_json::Value>| match v {
            Some(serde_json::Value::U64(n)) => Some(*n),
            Some(serde_json::Value::I64(n)) => u64::try_from(*n).ok(),
            _ => None,
        };
        let windows = match v.get("windows") {
            Some(serde_json::Value::Array(w)) if w.len() == 3 => (
                num(w.first()).ok_or_else(|| bad("windows"))?,
                num(w.get(1)).ok_or_else(|| bad("windows"))?,
                num(w.get(2)).ok_or_else(|| bad("windows"))?,
            ),
            _ => return Err(bad("windows")),
        };
        let Some(serde_json::Value::Array(rows)) = v.get("rows") else {
            return Err(bad("rows"));
        };
        let mut per_byte = HashMap::new();
        for row in rows {
            let Some(serde_json::Value::Str(scheme)) = row.get("scheme") else {
                return Err(bad("rows[].scheme"));
            };
            let pb = row.get("per_byte").ok_or_else(|| bad("rows[].per_byte"))?;
            let mut counters = [0; 5];
            for (slot, key) in counters.iter_mut().zip([
                "events_scheduled",
                "events_fired",
                "bytes_moved",
                "worms_delivered",
                "multicast_deliveries",
            ]) {
                *slot = num(pb.get(key)).ok_or_else(|| bad(key))?;
            }
            per_byte.insert(scheme.clone(), counters);
        }
        Ok(EngineRecord { windows, per_byte })
    }
}
