//! Differential equivalence of the span-batched link engine.
//!
//! `SimMode::SpanBatched` is an engine optimisation, never a semantic mode:
//! running the same seeded workload under `PerByte` and `SpanBatched` must
//! produce bit-identical delivery records and network statistics — only the
//! `events_scheduled` / `events_fired` engine-cost counters may differ (the
//! whole point of the optimisation is that they do). These tests drive both
//! modes over the paper's three fabric families (8×8 torus, 24-node
//! shufflenet, the Myrinet testbed line) and over random irregular
//! topologies, then compare everything — including the rendered JSONL
//! lifecycle trace: a traced span-batched run keeps the fast path live
//! and records extra `span-*` engine events, and erasing those
//! ([`wormcast_bench::trace_io::expand_spans`]) must reproduce the
//! per-byte trace byte-for-byte (DESIGN.md §3.2).

use proptest::prelude::*;
use wormcast::sim::engine::HostId;
use wormcast::sim::network::{NetStats, SimMode};
use wormcast::sim::trace::TraceConfig;
use wormcast::sim::FaultConfig;
use wormcast::topo::irregular::{irregular, IrregularSpec};
use wormcast::topo::shufflenet::shufflenet24;
use wormcast::topo::torus::torus;
use wormcast::topo::tree::TreeShape;
use wormcast::topo::{TopoBuilder, Topology};
use wormcast_bench::fig10::figure_tree_scheme;
use wormcast_bench::runner::{build_network, SimSetup};
use wormcast_bench::trace_io::{expand_spans, validate_jsonl};
use wormcast_bench::Scheme;
use wormcast_core::{
    AckNackConfig, HcConfig, PoolConfig, Reliability, TreeConfig, TreeMode, UnicastRepeatConfig,
};
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

/// Everything a run observably produces: sorted `(msg, host, time)`
/// delivery triples, the statistics block, and the rendered JSONL
/// lifecycle trace. Deliveries are sorted because batching k simultaneous
/// byte arrivals into one event legitimately permutes the processing order
/// *within* a tick — the timestamps themselves must still match
/// bit-for-bit. The JSONL needs no such help: `to_jsonl` renders in the
/// canonical `(t, line)` order by contract.
type Observed = (Vec<(u64, u32, u64)>, NetStats, String);

fn observe(mut setup: SimSetup, mode: SimMode, trace: TraceConfig) -> Observed {
    setup.mode = mode;
    setup.trace = trace;
    let mut net = build_network(&setup);
    let out = net.run_until(setup.drain_until);
    assert!(out.deadlock.is_none(), "{mode:?}: deadlock {out:?}");
    net.audit()
        .unwrap_or_else(|e| panic!("{mode:?}: conservation audit failed: {e}"));
    let mut deliveries: Vec<(u64, u32, u64)> = net
        .msgs
        .deliveries
        .iter()
        .map(|d| (d.msg.0, d.host.0, d.at))
        .collect();
    deliveries.sort_unstable();
    (deliveries, net.stats.clone(), net.trace.to_jsonl())
}

/// Statistics equality with the engine-cost counters (the one
/// legitimately mode-dependent pair) masked out.
fn assert_stats_eq(mut a: NetStats, mut b: NetStats, label: &str, what: &str) {
    a.events_scheduled = 0;
    a.events_fired = 0;
    b.events_scheduled = 0;
    b.events_fired = 0;
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "{label}: {what} NetStats diverged between engine modes"
    );
}

/// Run `setup` under both modes, traced and untraced, and require
/// bit-identical observables. The span fast path stays live with a sink
/// attached: the span-batched trace carries extra `span-*` engine events,
/// and erasing them with the per-byte expander must reproduce the
/// per-byte JSONL byte-for-byte. Tracing itself must be a pure observer:
/// the traced and untraced runs must agree too. Returns the statistics of
/// the untraced per-byte run and the span-batched scheduled-event count,
/// for callers that assert on cost or on what the run exercised.
fn assert_equivalent(mk: impl Fn() -> SimSetup, label: &str) -> (NetStats, u64) {
    let (d_ref, s_ref, j_ref) = observe(mk(), SimMode::PerByte, TraceConfig::Memory);
    let (d_span, s_span, j_span) = observe(mk(), SimMode::SpanBatched, TraceConfig::Memory);
    assert_eq!(
        d_ref, d_span,
        "{label}: traced delivery records diverged between engine modes"
    );
    let expanded = expand_spans(&j_span);
    assert!(
        j_ref == expanded,
        "{label}: expanded span trace diverged from the per-byte trace\n{}",
        first_diff(&j_ref, &expanded)
    );
    assert!(!j_ref.is_empty(), "{label}: trace captured nothing");
    let violations = validate_jsonl(&j_span);
    assert!(
        violations.is_empty(),
        "{label}: span-level trace violates the schema: {violations:?}"
    );
    // The fast path must actually be live on traced span-batched runs —
    // that's the whole point of span-native tracing.
    assert!(
        s_span.events_scheduled <= s_ref.events_scheduled,
        "{label}: traced span-batched run scheduled more events than per-byte"
    );
    assert_stats_eq(s_ref, s_span, label, "traced");

    let (d_off_ref, s_off_ref, _) = observe(mk(), SimMode::PerByte, TraceConfig::Off);
    let (d_off_span, s_off_span, _) = observe(mk(), SimMode::SpanBatched, TraceConfig::Off);
    assert_eq!(
        d_off_ref, d_off_span,
        "{label}: delivery records diverged between engine modes"
    );
    assert_eq!(
        d_ref, d_off_ref,
        "{label}: attaching a trace sink changed the delivery records"
    );
    let e_span = s_off_span.events_scheduled;
    assert_stats_eq(s_off_ref.clone(), s_off_span, label, "untraced");
    (s_off_ref, e_span)
}

/// The first differing line of two JSONL streams, for a readable failure.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}:\n  per-byte: {la}\n  spans:    {lb}", i + 1);
        }
    }
    format!(
        "line counts differ: {} vs {}",
        a.lines().count(),
        b.lines().count()
    )
}

fn paper_workload(load: f64) -> PaperWorkload {
    PaperWorkload {
        offered_load: load,
        multicast_prob: 0.10,
        lengths: LengthDist::Geometric { mean: 400 },
        stop_at: None,
    }
}

fn setup_on(topo: Topology, groups: GroupSet, scheme: Scheme, load: f64, seed: u64) -> SimSetup {
    SimSetup::builder(topo, groups, scheme, paper_workload(load))
        .seed(seed)
        .build()
        .expect("valid setup")
}

#[test]
fn torus_modes_agree_and_spans_win() {
    // The Figure 10 fabric at a moderately loaded point, both headline
    // schemes. Also the cost claim: span batching must cut scheduled
    // events by a large factor here.
    for scheme in [Scheme::Hc(HcConfig::store_and_forward()), figure_tree_scheme()] {
        let mk = || {
            let mut grng = host_stream(0x5EED0, 0x6071);
            let groups = GroupSet::random(64, 10, 10, &mut grng);
            setup_on(torus(8, 1), groups, scheme, 0.06, 0x5EED0).windows(5_000, 25_000, 15_000)
        };
        let (stats, e_span) = assert_equivalent(mk, "torus8");
        let e_ref = stats.events_scheduled;
        assert!(
            e_span * 3 < e_ref,
            "span batching too weak on the torus: {e_ref} -> {e_span}"
        );
        // Span-native tracing: the traced span-batched run must have kept
        // the fast path live (recorded span-level engine events).
        let (_, _, j_span) = observe(mk(), SimMode::SpanBatched, TraceConfig::Memory);
        assert!(
            j_span.contains("\"ev\":\"span-emitted\""),
            "traced span-batched torus run emitted no spans — fast path stood down"
        );
    }
}

#[test]
fn torus_lanes2_traced_modes_agree() {
    // Two-lane links: span-level events carry the lane field, and the
    // expanded trace must still match per-byte byte-for-byte.
    let mk = || {
        let mut grng = host_stream(0x5EED7, 0x6071);
        let groups = GroupSet::random(64, 10, 10, &mut grng);
        let mut s = setup_on(
            torus(8, 1),
            groups,
            Scheme::Hc(HcConfig::store_and_forward()),
            0.06,
            0x5EED7,
        )
        .windows(5_000, 25_000, 15_000);
        s.lanes = 2;
        s
    };
    assert_equivalent(mk, "torus8-lanes2");
}

/// A shorter Fig 10 torus point for the configurations below: the
/// baselines, the finite-buffer reliability modes, corruption faults and
/// two lanes. `tweak` adjusts the setup (faults, lanes) after building.
fn torus_point(scheme: Scheme, seed: u64, tweak: impl Fn(&mut SimSetup)) -> SimSetup {
    let mut grng = host_stream(seed, 0x6071);
    let groups = GroupSet::random(64, 10, 10, &mut grng);
    let mut s = setup_on(torus(8, 1), groups, scheme, 0.06, seed).windows(3_000, 12_000, 12_000);
    tweak(&mut s);
    s
}

/// Small two-class pools (one or two mean-length worms each) so admission refusals, and
/// with ACK/NACK the retransmissions they trigger, actually happen.
const SMALL_POOL: PoolConfig = PoolConfig {
    class1: 600,
    class2: 600,
    dma_extension: 0,
};

fn acknack() -> Reliability {
    Reliability::AckNack(AckNackConfig {
        pool: SMALL_POOL,
        single_class: false,
        retry_timeout: 4_000,
        retry_jitter: 2_000,
        max_retries: 20,
    })
}

fn corrupt_5pct(s: &mut SimSetup) {
    s.faults = FaultConfig::try_new(0.05).expect("valid probability");
}

#[test]
fn torus_repeat_baseline_modes_agree() {
    let mk = || torus_point(Scheme::Repeat(UnicastRepeatConfig::default()), 0x5EED3, |_| {});
    let (stats, _) = assert_equivalent(mk, "torus8-repeat");
    assert!(stats.worms_delivered > 0, "repeat baseline delivered nothing");
}

#[test]
fn torus_credit_baseline_modes_agree() {
    let mk = || {
        let scheme = Scheme::Credit {
            manager: HostId(0),
            initial_credits: 120_000,
            token_period: 3_000,
            shape: TreeShape::BinaryHeap,
        };
        torus_point(scheme, 0x5EED4, |_| {})
    };
    let (stats, _) = assert_equivalent(mk, "torus8-credit");
    assert!(stats.worms_delivered > 0, "credit baseline delivered nothing");
}

#[test]
fn torus_acknack_modes_agree() {
    let mk = || {
        let mut hc = HcConfig::cut_through();
        hc.reliability = acknack();
        torus_point(Scheme::Hc(hc), 0x5EED5, |_| {})
    };
    let (stats, _) = assert_equivalent(mk, "torus8-acknack");
    assert!(stats.worms_refused > 0, "no admission refusal: NACKs never exercised");
}

#[test]
fn torus_finite_drop_modes_agree() {
    let mk = || {
        let tree = TreeConfig {
            mode: TreeMode::BroadcastFromOrigin,
            cut_through_first: true,
            reliability: Reliability::FiniteDrop {
                pool: SMALL_POOL,
                single_class: false,
            },
        };
        torus_point(Scheme::Tree(tree, TreeShape::GreedyHop), 0x5EED6, |_| {})
    };
    let (stats, _) = assert_equivalent(mk, "torus8-finite-drop");
    assert!(stats.worms_refused > 0, "no admission refusal: drops never exercised");
}

#[test]
fn torus_corruption_faults_modes_agree() {
    let mk = || {
        let mut hc = HcConfig::store_and_forward();
        hc.reliability = acknack();
        torus_point(Scheme::Hc(hc), 0x5EED8, corrupt_5pct)
    };
    let (stats, _) = assert_equivalent(mk, "torus8-corrupt5");
    assert!(stats.worms_corrupt > 0, "no worm was corrupted");
}

#[test]
fn torus_lanes2_acknack_corruption_modes_agree() {
    let mk = || {
        let tree = TreeConfig {
            mode: TreeMode::BroadcastFromOrigin,
            cut_through_first: true,
            reliability: acknack(),
        };
        torus_point(Scheme::Tree(tree, TreeShape::GreedyHop), 0x5EED9, |s| {
            corrupt_5pct(s);
            s.lanes = 2;
        })
    };
    let (stats, _) = assert_equivalent(mk, "torus8-lanes2-acknack-corrupt5");
    assert!(stats.worms_corrupt > 0, "no worm was corrupted");
}

#[test]
fn shufflenet_modes_agree() {
    // The Figure 11 fabric: 1000 byte-time links make in-flight windows
    // (and STOP truncation) far larger than the torus case.
    let mk = || {
        let mut grng = host_stream(0x5EED1, 0x6111);
        let groups = GroupSet::random(24, 4, 6, &mut grng);
        setup_on(
            shufflenet24(1000),
            groups,
            Scheme::Hc(HcConfig::store_and_forward()),
            0.05,
            0x5EED1,
        )
        .windows(50_000, 150_000, 100_000)
    };
    assert_equivalent(mk, "shufflenet24");
}

#[test]
fn myrinet_testbed_modes_agree() {
    // The Figures 12/13 prototype testbed shape: a line of four switches,
    // two hosts each, delay-2 links — the topology the paper actually
    // measured. Cut-through stresses the follower pacing path.
    let testbed = || {
        let mut b = TopoBuilder::new(4);
        b.link(0, 1, 2);
        b.link(1, 2, 2);
        b.link(2, 3, 2);
        for sw in 0..4 {
            b.host(sw);
            b.host(sw);
        }
        b.build()
    };
    for scheme in [
        Scheme::Hc(HcConfig::cut_through()),
        Scheme::Hc(HcConfig::store_and_forward()),
    ] {
        let mk = || {
            let mut grng = host_stream(0x5EED2, 0x6121);
            let groups = GroupSet::random(8, 2, 4, &mut grng);
            setup_on(testbed(), groups, scheme, 0.10, 0x5EED2).windows(2_000, 20_000, 15_000)
        };
        assert_equivalent(mk, "myrinet-testbed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random small irregular fabrics (the shape real Myrinet installs
    /// have): whatever the topology, both engine modes must agree.
    #[test]
    fn irregular_topologies_modes_agree(
        topo_seed in 0u64..1000,
        n_switches in 3usize..7,
        extra in 0usize..4,
        delay in 1u64..4,
        load_pct in 4u32..10,
    ) {
        let spec = IrregularSpec {
            num_switches: n_switches,
            extra_links: extra,
            hosts_per_switch: 2,
            link_delay: delay,
        };
        let nh = n_switches * 2;
        let mk = || {
            let mut grng = host_stream(topo_seed ^ 0xA5A5, 0x6131);
            let groups = GroupSet::random(nh, 2, 3.min(nh), &mut grng);
            setup_on(
                irregular(spec, topo_seed),
                groups,
                Scheme::Hc(HcConfig::store_and_forward()),
                load_pct as f64 / 100.0,
                topo_seed,
            )
            .windows(2_000, 12_000, 10_000)
        };
        assert_equivalent(mk, "irregular");
    }
}
