//! Timed runs of one simulation point.
//!
//! [`run_e2e`] is what a user waits for: set-up through
//! `runner::build_network`, then `run_until`, the derived report and (for
//! traced workloads) the JSONL write. [`run_layered`] repeats the same
//! build one public call at a time, with each host's protocol wrapped in
//! a timing decorator, so the cost splits by layer without any tracing
//! inside the program. Correctness checks run after the timed interval.

use crate::check::{self, Checker, Digest, EngineRecord, RunFacts};
use crate::workloads::Point;
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wormcast_bench::runner::{self, SimSetup};
use wormcast_bench::schemes::Scheme;
use wormcast_bench::trace_io::expand_spans;
use wormcast_core::{HcProtocol, TreeProtocol};
use wormcast_sim::engine::HostId;
use wormcast_sim::network::{MessageLog, NetworkConfig};
use wormcast_sim::protocol::{AdapterProtocol, Admission, AppMessage, Destination, ProtocolCtx};
use wormcast_sim::trace::{TraceConfig, TraceEvent};
use wormcast_sim::{Network, WormInstance};
use wormcast_stats::latency::{latencies, Kind, LatencyReport};
use wormcast_topo::{HostGraph, UpDown};
use wormcast_traffic::workload::install_paper_sources_for;

/// Derive the report a user reads from a finished run, as `runner::run`
/// derives it: multicast and unicast latencies and the multicast
/// delivery ratio over the statistics window. Returns the multicast
/// latencies, which the outcome digest covers.
pub fn derive_report(setup: &SimSetup, msgs: &MessageLog) -> LatencyReport {
    let membership = runner::membership_of(&setup.groups);
    let multicast = latencies(
        msgs,
        Kind::Multicast,
        setup.warmup,
        setup.generate_until,
        None,
    );
    let unicast = latencies(
        msgs,
        Kind::Unicast,
        setup.warmup,
        setup.generate_until,
        None,
    );
    let expected: usize = msgs
        .created
        .iter()
        .filter(|r| r.created >= setup.warmup && r.created < setup.generate_until)
        .map(|r| match r.dest {
            Destination::Multicast(g) => membership.expected_deliveries(g, r.origin),
            Destination::Unicast(_) => 0,
        })
        .sum();
    let delivery_ratio = if expected == 0 {
        1.0
    } else {
        multicast.deliveries as f64 / expected as f64
    };
    black_box((unicast, delivery_ratio));
    multicast
}

/// A writer that keeps only the byte count.
#[derive(Default)]
struct CountingSink(u64);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One end-to-end run of one point.
pub struct E2eRun {
    pub setup_s: f64,
    /// Host seconds after set-up: run, report, and the JSONL write.
    pub wait_s: f64,
    pub bytetimes: u64,
    /// Simulated data bytes moved (`NetStats::bytes_moved`).
    pub bytes_moved: u64,
}

/// Run `point` as a user would and check the outcome.
pub fn run_e2e(
    point: &Point,
    traced: bool,
    checker: &mut Checker,
    oracle: Option<&Result<EngineRecord, String>>,
) -> E2eRun {
    let t0 = Instant::now();
    let mut setup = point.setup();
    if traced {
        setup.trace = TraceConfig::Memory;
    }
    let mut net = runner::build_network(&setup);
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let outcome = net.run_until(setup.drain_until);
    let multicast = derive_report(&setup, &net.msgs);
    if traced {
        net.trace
            .write_jsonl(&mut CountingSink::default())
            .expect("a counting sink cannot fail");
    }
    let wait_s = t1.elapsed().as_secs_f64();

    let digest = Digest::of(&outcome.stats, &multicast);
    let problems = match oracle {
        Some(rec) => check::perbyte_oracle(point, &outcome.stats, digest, rec),
        None => Vec::new(),
    };
    let facts = RunFacts {
        outcome: &outcome,
        audit: net.audit(),
        trace_dropped: net.trace.dropped(),
        digest,
    };
    checker.check(point, &facts, problems);
    E2eRun {
        setup_s,
        wait_s,
        bytetimes: outcome.end_time,
        bytes_moved: outcome.stats.bytes_moved,
    }
}

/// Protocol callbacks, in the order of [`CALLBACKS`].
#[derive(Clone, Copy)]
enum Callback {
    Generate,
    Header,
    WormReceived,
    TxComplete,
    Timer,
    WormFlushed,
}

/// Metric-name suffixes of the protocol callbacks.
pub const CALLBACKS: [&str; 6] = [
    "on_generate",
    "on_header",
    "on_worm_received",
    "on_tx_complete",
    "on_timer",
    "on_worm_flushed",
];

/// Call counts and self time of every protocol of one network. A
/// callback only queues commands for the engine, so its duration is its
/// self time.
#[derive(Default)]
struct CallStats {
    calls: [AtomicU64; 6],
    nanos: AtomicU64,
}

/// Times each callback of the wrapped protocol.
struct TimedProtocol {
    inner: Box<dyn AdapterProtocol>,
    stats: Arc<CallStats>,
}

impl TimedProtocol {
    fn timed<R>(&mut self, cb: Callback, f: impl FnOnce(&mut dyn AdapterProtocol) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        let ns = t.elapsed().as_nanos() as u64;
        // Plain statistics, read after the run: no ordering needed.
        self.stats.calls[cb as usize].fetch_add(1, Ordering::Relaxed);
        self.stats.nanos.fetch_add(ns, Ordering::Relaxed);
        r
    }
}

impl AdapterProtocol for TimedProtocol {
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, msg: AppMessage) {
        self.timed(Callback::Generate, |p| p.on_generate(ctx, msg))
    }
    fn on_header(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) -> Admission {
        self.timed(Callback::Header, |p| p.on_header(ctx, worm))
    }
    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        self.timed(Callback::WormReceived, |p| p.on_worm_received(ctx, worm))
    }
    fn on_tx_complete(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        self.timed(Callback::TxComplete, |p| p.on_tx_complete(ctx, worm))
    }
    fn on_timer(&mut self, ctx: &mut ProtocolCtx, token: u64) {
        self.timed(Callback::Timer, |p| p.on_timer(ctx, token))
    }
    fn on_worm_flushed(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        self.timed(Callback::WormFlushed, |p| p.on_worm_flushed(ctx, worm))
    }
}

/// Raw per-layer quantities of one or more layered runs; times in
/// seconds. Summed over the points of a sweep, then turned into metrics.
#[derive(Default)]
pub struct Layers {
    pub topo_build_s: f64,
    pub topo_updown_s: f64,
    pub topo_routes_s: f64,
    pub topo_hostgraph_s: f64,
    pub sim_build_s: f64,
    pub core_install_s: f64,
    pub traffic_install_s: f64,
    pub run_s: f64,
    pub report_s: f64,
    /// Set-up, run and report, plus the JSONL write when traced.
    pub wall_s: f64,
    pub events_scheduled: u64,
    pub events_fired: u64,
    pub bytes_moved: u64,
    pub lanes: u64,
    pub lane_util_sum: f64,
    pub lane_util_max: f64,
    pub lane_stall_frac_sum: f64,
    pub stalls: u64,
    pub idles: u64,
    pub calls: [u64; 6],
    pub core_self_s: f64,
    pub trace_events: u64,
    pub span_events: u64,
    pub spans_emitted: u64,
    pub spans_truncated: u64,
    /// Body bytes spans carried after truncation.
    pub span_bytes: u64,
    pub trace_write_s: f64,
    pub jsonl_bytes: u64,
    pub trace_expand_s: f64,
    pub trace_dropped: u64,
}

impl Layers {
    pub fn add(&mut self, o: &Layers) {
        self.topo_build_s += o.topo_build_s;
        self.topo_updown_s += o.topo_updown_s;
        self.topo_routes_s += o.topo_routes_s;
        self.topo_hostgraph_s += o.topo_hostgraph_s;
        self.sim_build_s += o.sim_build_s;
        self.core_install_s += o.core_install_s;
        self.traffic_install_s += o.traffic_install_s;
        self.run_s += o.run_s;
        self.report_s += o.report_s;
        self.wall_s += o.wall_s;
        self.events_scheduled += o.events_scheduled;
        self.events_fired += o.events_fired;
        self.bytes_moved += o.bytes_moved;
        self.lanes += o.lanes;
        self.lane_util_sum += o.lane_util_sum;
        self.lane_util_max = self.lane_util_max.max(o.lane_util_max);
        self.lane_stall_frac_sum += o.lane_stall_frac_sum;
        self.stalls += o.stalls;
        self.idles += o.idles;
        for (a, b) in self.calls.iter_mut().zip(o.calls) {
            *a += b;
        }
        self.core_self_s += o.core_self_s;
        self.trace_events += o.trace_events;
        self.span_events += o.span_events;
        self.spans_emitted += o.spans_emitted;
        self.spans_truncated += o.spans_truncated;
        self.span_bytes += o.span_bytes;
        self.trace_write_s += o.trace_write_s;
        self.jsonl_bytes += o.jsonl_bytes;
        self.trace_expand_s += o.trace_expand_s;
        self.trace_dropped += o.trace_dropped;
    }
}

/// Seconds `f` takes, with its result.
fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

/// Build and run `point` one layer at a time. With `traced`, the run
/// records an in-memory trace, writes it as JSONL and expands it with
/// `trace_io::expand_spans`.
pub fn run_layered(point: &Point, traced: bool, checker: &mut Checker) -> Layers {
    let mut l = Layers::default();
    let mut setup = timed(&mut l.topo_build_s, || point.setup());
    if traced {
        setup.trace = TraceConfig::Memory;
    }
    let ud = timed(&mut l.topo_updown_s, || {
        UpDown::compute(&setup.topo, setup.updown_root)
    });
    let routes = timed(&mut l.topo_routes_s, || {
        ud.route_table(&setup.topo, setup.restrict_to_tree)
    });
    let graph = timed(&mut l.topo_hostgraph_s, || HostGraph::from_routes(&routes));
    // The same configuration `runner::build_network` derives.
    let mut net = timed(&mut l.sim_build_s, || {
        let cfg = NetworkConfig::builder()
            .seed(setup.seed)
            .mode(setup.mode)
            .trace(setup.trace)
            .faults(setup.faults)
            .lanes(setup.lanes)
            .arbiter(setup.arbiter)
            .build()
            .expect("the setup builder validated this configuration");
        Network::build(&setup.topo.to_fabric_spec(), routes, cfg)
    });
    let calls = Arc::new(CallStats::default());
    timed(&mut l.core_install_s, || {
        install_timed(&mut net, &setup, &graph, &calls)
    });
    timed(&mut l.traffic_install_s, || {
        let mut workload = setup.workload;
        workload.stop_at = Some(setup.generate_until);
        install_paper_sources_for(
            &mut net,
            workload,
            &Arc::new(setup.groups.clone()),
            setup.seed,
            |_| true,
        )
    });
    let outcome = timed(&mut l.run_s, || net.run_until(setup.drain_until));
    let multicast = timed(&mut l.report_s, || derive_report(&setup, &net.msgs));
    l.wall_s = l.topo_build_s
        + l.topo_updown_s
        + l.topo_routes_s
        + l.topo_hostgraph_s
        + l.sim_build_s
        + l.core_install_s
        + l.traffic_install_s
        + l.run_s
        + l.report_s;

    if traced {
        let mut jsonl = Vec::new();
        timed(&mut l.trace_write_s, || {
            net.trace
                .write_jsonl(&mut jsonl)
                .expect("writing to a Vec cannot fail")
        });
        l.wall_s += l.trace_write_s;
        l.jsonl_bytes = jsonl.len() as u64;
        let jsonl = String::from_utf8(jsonl).expect("JSONL lines are ASCII");
        timed(&mut l.trace_expand_s, || black_box(expand_spans(&jsonl)));
        l.trace_events = net.trace.len() as u64;
        l.trace_dropped = net.trace.dropped();
        for (_, ev) in net.trace.events() {
            match *ev {
                TraceEvent::SpanEmitted { len, .. } => {
                    l.spans_emitted += 1;
                    l.span_bytes += len;
                }
                TraceEvent::SpanTruncated { revoked, .. } => {
                    l.spans_truncated += 1;
                    l.span_bytes -= revoked;
                }
                TraceEvent::SpanDelivered { .. }
                | TraceEvent::SpanNack { .. }
                | TraceEvent::SpanCredit { .. } => {}
                _ => continue,
            }
            l.span_events += 1;
        }
    }
    l.events_scheduled = outcome.stats.events_scheduled;
    l.events_fired = outcome.stats.events_fired;
    l.bytes_moved = outcome.stats.bytes_moved;
    for lane in net.lanes() {
        let u = lane.utilization(outcome.end_time);
        l.lanes += 1;
        l.lane_util_sum += u;
        l.lane_util_max = l.lane_util_max.max(u);
        l.lane_stall_frac_sum += lane.stall_fraction(outcome.end_time);
        let s = lane.stats();
        l.stalls += s.stalls;
        l.idles += s.idles_carried;
    }
    for (a, c) in l.calls.iter_mut().zip(&calls.calls) {
        *a = c.load(Ordering::Relaxed);
    }
    l.core_self_s = calls.nanos.load(Ordering::Relaxed) as f64 * 1e-9;

    let facts = RunFacts {
        outcome: &outcome,
        audit: net.audit(),
        trace_dropped: net.trace.dropped(),
        digest: Digest::of(&outcome.stats, &multicast),
    };
    checker.check(point, &facts, Vec::new());
    l
}

/// Install the setup's scheme with every protocol wrapped in a
/// [`TimedProtocol`], constructed as `Scheme::install` constructs them.
fn install_timed(net: &mut Network, setup: &SimSetup, graph: &HostGraph, stats: &Arc<CallStats>) {
    let membership = runner::membership_of(&setup.groups);
    let n = net.num_hosts() as u32;
    let trees = match setup.scheme {
        Scheme::Tree(..) => Some(setup.scheme.build_trees(&membership, graph)),
        _ => None,
    };
    for h in 0..n {
        let inner: Box<dyn AdapterProtocol> = match (setup.scheme, &trees) {
            (Scheme::Hc(cfg), _) => {
                Box::new(HcProtocol::new(HostId(h), cfg, Arc::clone(&membership)))
            }
            (Scheme::Tree(cfg, _), Some(trees)) => {
                Box::new(TreeProtocol::new(HostId(h), cfg, Arc::clone(trees)))
            }
            (other, _) => panic!("no benchmark workload runs {other:?}"),
        };
        net.set_protocol(
            HostId(h),
            Box::new(TimedProtocol {
                inner,
                stats: Arc::clone(stats),
            }),
        );
    }
}

/// One 2-shard run of `point` (sharded runs must simulate the same
/// outcome as the sequential engine).
pub struct ShardRun {
    pub run_s: f64,
    pub events_scheduled: u64,
}

/// Run `point` on `shards` `ShardedNetwork` shards, untraced, and check it.
pub fn run_sharded(point: &Point, shards: u32, checker: &mut Checker) -> ShardRun {
    let mut setup = point.setup();
    setup.shards = shards;
    let mut sharded = runner::build_sharded(&setup).expect("benchmark points are shardable");
    let t = Instant::now();
    let outcome = sharded.run_until(setup.drain_until);
    let run_s = t.elapsed().as_secs_f64();
    let msgs = sharded.msgs();
    let multicast = derive_report(&setup, &msgs);
    let facts = RunFacts {
        outcome: &outcome,
        audit: sharded.audit(),
        trace_dropped: 0,
        digest: Digest::of(&outcome.stats, &multicast),
    };
    checker.check(point, &facts, Vec::new());
    ShardRun {
        run_s,
        events_scheduled: outcome.stats.events_scheduled,
    }
}
