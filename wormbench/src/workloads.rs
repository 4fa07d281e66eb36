//! The four benchmark workloads and the simulation points each one runs.
//!
//! Every point is rebuilt from scratch for each measured run: building
//! the [`SimSetup`] (topology, groups, workload) is part of set-up time,
//! as it is for a user who runs a figure.

use wormcast_bench::fig10::{self, Fig10Config};
use wormcast_bench::fig11::{self, Fig11Config};
use wormcast_bench::runner::SimSetup;
use wormcast_bench::schemes::Scheme;
use wormcast_sim::network::SimMode;
use wormcast_topo::shufflenet::shufflenet24;
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

/// Paper seed of Figure 10 (`Fig10Config::full().seed`).
pub const FIG10_SEED: u64 = 0xF1610;
/// Paper seed of Figure 11 (`Fig11Config::full().seed`).
pub const FIG11_SEED: u64 = 0xF1611;

/// Figure 10 windows (warm-up, measure, drain) of `results/BENCH_engine.json`.
const FIG10_WINDOWS: (u64, u64, u64) = (20_000, 100_000, 40_000);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fig10Span,
    Fig10PerByte,
    Fig11Shufflenet,
    Fig10Traced,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig10Span,
        Workload::Fig10PerByte,
        Workload::Fig11Shufflenet,
        Workload::Fig10Traced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig10Span => "fig10_span",
            Workload::Fig10PerByte => "fig10_perbyte",
            Workload::Fig11Shufflenet => "fig11_shufflenet",
            Workload::Fig10Traced => "fig10_traced",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The paper seed this workload uses when no `--seed` is given.
    pub fn paper_seed(self) -> u64 {
        match self {
            Workload::Fig11Shufflenet => FIG11_SEED,
            _ => FIG10_SEED,
        }
    }

    /// Whether the end-to-end run records an in-memory trace and writes
    /// it as JSONL.
    pub fn traced(self) -> bool {
        self == Workload::Fig10Traced
    }

    /// The simulation points of one sweep. `tiny` shrinks every window to
    /// a few thousand byte-times (self-test only).
    pub fn points(self, seed: u64, tiny: bool) -> Vec<Point> {
        let fig10 = |loads: &[f64], mode: SimMode| -> Vec<Point> {
            fig10::schemes()
                .into_iter()
                .flat_map(|scheme| {
                    loads.iter().map(move |&load| Point {
                        label: format!("fig10/{}/load{load}", scheme.label()),
                        figure: Figure::Fig10,
                        scheme,
                        load,
                        mode,
                        windows: if tiny { TINY_WINDOWS } else { FIG10_WINDOWS },
                        seed,
                    })
                })
                .collect()
        };
        match self {
            Workload::Fig10Span => fig10(&[0.04, 0.08, 0.12], SimMode::SpanBatched),
            Workload::Fig10PerByte => fig10(&[0.08], SimMode::PerByte),
            Workload::Fig10Traced => fig10(&[0.08], SimMode::SpanBatched),
            Workload::Fig11Shufflenet => {
                // The windows of the full Figure 11 sweep.
                let q = Fig11Config::full();
                let windows = if tiny {
                    TINY_WINDOWS
                } else {
                    (q.warmup, q.measure, q.drain)
                };
                let mut out = Vec::new();
                for scheme in fig11::schemes() {
                    for proportion in [0.05, 0.20] {
                        for load in [0.03, 0.05, 0.07] {
                            out.push(Point {
                                label: format!("fig11/{}/p{proportion}/load{load}", scheme.label()),
                                figure: Figure::Fig11 { proportion },
                                scheme,
                                load,
                                mode: SimMode::SpanBatched,
                                windows,
                                seed,
                            });
                        }
                    }
                }
                out
            }
        }
    }
}

const TINY_WINDOWS: (u64, u64, u64) = (1_000, 4_000, 3_000);

#[derive(Clone, Copy, Debug)]
enum Figure {
    Fig10,
    Fig11 { proportion: f64 },
}

/// One simulation point: a figure's scheme at one load, in one engine mode.
#[derive(Clone, Debug)]
pub struct Point {
    /// Names the simulated outcome; the engine mode is left out because
    /// every mode must produce the same outcome.
    pub label: String,
    figure: Figure,
    scheme: Scheme,
    load: f64,
    pub mode: SimMode,
    pub windows: (u64, u64, u64),
    pub seed: u64,
}

impl Point {
    /// The scheme as `results/BENCH_engine.json` names it (its Debug form).
    pub fn scheme_debug(&self) -> String {
        format!("{:?}", self.scheme)
    }

    /// Build the point's topology, groups and workload.
    pub fn setup(&self) -> SimSetup {
        let (warmup, measure, drain) = self.windows;
        let mut setup = match self.figure {
            Figure::Fig10 => fig10::setup(
                self.scheme,
                self.load,
                &Fig10Config {
                    loads: &[],
                    warmup,
                    measure,
                    drain,
                    seed: self.seed,
                },
            ),
            // Mirrors the private `fig11::setup` from the public parameters.
            Figure::Fig11 { proportion } => {
                let cfg = Fig11Config {
                    loads: &[],
                    proportions: &[],
                    warmup,
                    measure,
                    drain,
                    seed: self.seed,
                };
                let mut grng = host_stream(cfg.seed, 0x6111);
                let groups = GroupSet::random(24, 4, 6, &mut grng);
                let workload = PaperWorkload {
                    offered_load: self.load,
                    multicast_prob: proportion,
                    lengths: LengthDist::Geometric { mean: 400 },
                    stop_at: None,
                };
                SimSetup::builder(
                    shufflenet24(fig11::LINK_DELAY),
                    groups,
                    self.scheme,
                    workload,
                )
                .seed(cfg.seed)
                .windows(cfg.warmup, cfg.measure, cfg.drain)
                .build()
                .expect("figure 11 parameters are valid")
            }
        };
        setup.mode = self.mode;
        setup
    }
}
