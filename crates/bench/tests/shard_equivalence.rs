//! Sharded-vs-sequential differential harness: the parallel engine must be
//! a pure performance feature. For every topology family, shard count,
//! partition plan and engine mode, the sharded run must reproduce the
//! sequential run's statistics and message log **byte for byte** — only
//! the engine-cost counters (`events_scheduled` / `events_fired`) may
//! differ, exactly as between the two [`SimMode`]s (DESIGN.md §3.4).
//! Traced runs shard too: the merged span-batched trace, expanded back to
//! per-byte by `trace_io::expand_spans`, must match the sequential
//! per-byte trace byte for byte (DESIGN.md §3.2).

use wormcast_bench::runner::{build_network, build_sharded, SimSetup};
use wormcast_bench::trace_io::{expand_spans, validate_jsonl};
use wormcast_bench::Scheme;
use wormcast_core::{HcConfig, TreeConfig};
use wormcast_sim::network::{MessageLog, NetStats, SimMode};
use wormcast_sim::trace::TraceConfig;
use wormcast_topo::irregular::{irregular, IrregularSpec};
use wormcast_topo::shufflenet::shufflenet24;
use wormcast_topo::torus::torus;
use wormcast_topo::tree::TreeShape;
use wormcast_topo::{ShardPlan, Topology};
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

const DRAIN_UNTIL: u64 = 26_000;

fn setup_on(topo: Topology, scheme: Scheme, mode: SimMode) -> SimSetup {
    let hosts = topo.num_hosts();
    let mut grng = host_stream(11, 0x6071);
    let groups = GroupSet::random(hosts, 3, (hosts / 3).max(2), &mut grng);
    let workload = PaperWorkload {
        offered_load: 0.08,
        multicast_prob: 0.1,
        lengths: LengthDist::Geometric { mean: 400 },
        stop_at: None,
    };
    SimSetup::builder(topo, groups, scheme, workload)
        .seed(23)
        .mode(mode)
        .windows(2_000, 12_000, 12_000)
        .build()
        .expect("valid setup")
}

/// Canonical comparison form: stats with the engine-cost counters masked,
/// plus the message log with deliveries in canonical order (same-tick
/// deliveries at different hosts are concurrent; the logs are compared as
/// sets ordered by `(at, msg, host)`).
fn canonical(mut stats: NetStats, mut msgs: MessageLog) -> (String, String, String) {
    stats.events_scheduled = 0;
    stats.events_fired = 0;
    msgs.created
        .sort_by_key(|r| (r.created, r.msg.0));
    msgs.deliveries
        .sort_by_key(|d| (d.at, d.msg.0, d.host.0));
    (
        format!("{stats:?}"),
        format!("{:?}", msgs.created),
        format!("{:?}", msgs.deliveries),
    )
}

fn run_sequential(setup: &SimSetup) -> (String, String, String) {
    let mut net = build_network(setup);
    let out = net.run_until(DRAIN_UNTIL);
    assert!(out.deadlock.is_none(), "sequential deadlock: {out:?}");
    net.audit().expect("sequential conservation");
    canonical(net.stats.clone(), net.msgs.clone())
}

fn run_sharded_with(setup: &SimSetup) -> (String, String, String) {
    let mut sharded = build_sharded(setup).expect("shardable setup");
    let out = sharded.run_until(DRAIN_UNTIL);
    assert!(out.deadlock.is_none(), "sharded deadlock: {out:?}");
    sharded.audit().expect("sharded conservation");
    canonical(sharded.stats(), sharded.msgs())
}

fn assert_equivalent(name: &str, setup_seq: &SimSetup, setup_sh: &SimSetup) {
    let (s0, c0, d0) = run_sequential(setup_seq);
    let (s1, c1, d1) = run_sharded_with(setup_sh);
    assert_eq!(c0, c1, "{name}: created messages diverged");
    assert_eq!(d0, d1, "{name}: deliveries diverged");
    assert_eq!(s0, s1, "{name}: stats diverged");
}

fn tree_fabric(seed: u64) -> Topology {
    // A random spanning tree (no crosslinks) — the "subtree" family.
    irregular(
        IrregularSpec {
            num_switches: 12,
            extra_links: 0,
            hosts_per_switch: 2,
            link_delay: 1,
        },
        seed,
    )
}

fn irregular_fabric(seed: u64) -> Topology {
    irregular(
        IrregularSpec {
            num_switches: 14,
            extra_links: 6,
            hosts_per_switch: 2,
            link_delay: 2,
        },
        seed,
    )
}

#[test]
fn torus_matches_across_shard_counts_and_modes() {
    for mode in [SimMode::PerByte, SimMode::SpanBatched] {
        let seq = setup_on(torus(4, 1), Scheme::Hc(HcConfig::store_and_forward()), mode);
        for shards in [1u32, 2, 4] {
            let mut sh = setup_on(torus(4, 1), Scheme::Hc(HcConfig::store_and_forward()), mode);
            sh.shards = shards;
            sh.shard_plan = Some(ShardPlan::torus_grid(4, shards).expect("plan"));
            assert_equivalent(&format!("torus mode={mode:?} shards={shards}"), &seq, &sh);
        }
    }
}

#[test]
fn shufflenet_matches_sharded() {
    for shards in [2u32, 3] {
        let seq = setup_on(
            shufflenet24(1),
            Scheme::Tree(TreeConfig::store_and_forward(), TreeShape::BinaryHeap),
            SimMode::SpanBatched,
        );
        let mut sh = setup_on(
            shufflenet24(1),
            Scheme::Tree(TreeConfig::store_and_forward(), TreeShape::BinaryHeap),
            SimMode::SpanBatched,
        );
        sh.shards = shards; // default bfs_contiguous plan
        assert_equivalent(&format!("shufflenet shards={shards}"), &seq, &sh);
    }
}

#[test]
fn tree_fabric_matches_sharded() {
    let topo = tree_fabric(5);
    let seq = setup_on(
        topo.clone(),
        Scheme::Tree(TreeConfig::store_and_forward(), TreeShape::GreedyHop),
        SimMode::SpanBatched,
    );
    for shards in [2u32, 4] {
        let mut sh = setup_on(
            topo.clone(),
            Scheme::Tree(TreeConfig::store_and_forward(), TreeShape::GreedyHop),
            SimMode::SpanBatched,
        );
        sh.shards = shards;
        assert_equivalent(&format!("tree shards={shards}"), &seq, &sh);
    }
}

#[test]
fn irregular_fabric_matches_sharded_both_modes() {
    let topo = irregular_fabric(9);
    for mode in [SimMode::PerByte, SimMode::SpanBatched] {
        let seq = setup_on(topo.clone(), Scheme::Hc(HcConfig::cut_through()), mode);
        let mut sh = setup_on(topo.clone(), Scheme::Hc(HcConfig::cut_through()), mode);
        sh.shards = 2;
        assert_equivalent(&format!("irregular mode={mode:?}"), &seq, &sh);
    }
}

/// Adversarial plan: round-robin switch→shard assignment puts *every*
/// consecutive pair of route hops in different shards, so worms cross the
/// same shard boundary many times (and re-enter shards they already
/// visited) — the worst case for the worm-identity handoff protocol.
#[test]
fn adversarial_round_robin_plan_still_matches() {
    let seq = setup_on(
        torus(4, 1),
        Scheme::Hc(HcConfig::store_and_forward()),
        SimMode::SpanBatched,
    );
    let mut sh = setup_on(
        torus(4, 1),
        Scheme::Hc(HcConfig::store_and_forward()),
        SimMode::SpanBatched,
    );
    sh.shards = 4;
    sh.shard_plan = Some(ShardPlan::switch_hash(16, 4).expect("plan"));
    assert_equivalent("adversarial switch-hash", &seq, &sh);
}

/// Multi-lane boundary channels: with two virtual lanes per link, every
/// cut channel is two independent byte streams, each lane carrying its own
/// optimistic spans with its own mirror-truncation cutoff. Both shard
/// counts must stay byte-identical to the sequential two-lane run.
#[test]
fn torus_lanes2_matches_sharded() {
    let mut seq = setup_on(
        torus(4, 1),
        Scheme::Hc(HcConfig::store_and_forward()),
        SimMode::SpanBatched,
    );
    seq.lanes = 2;
    for shards in [2u32, 4] {
        let mut sh = setup_on(
            torus(4, 1),
            Scheme::Hc(HcConfig::store_and_forward()),
            SimMode::SpanBatched,
        );
        sh.lanes = 2;
        sh.shards = shards;
        sh.shard_plan = Some(ShardPlan::torus_grid(4, shards).expect("plan"));
        assert_equivalent(&format!("torus lanes=2 shards={shards}"), &seq, &sh);
    }
}

/// The strongest adversarial cut: a parity checkerboard over the 4×4 torus
/// (switch-hash on `x + y` rather than the raw index) puts **every**
/// switch-to-switch link in the cut, so no worm ever advances a byte
/// without crossing a shard boundary — every hot link exercises the
/// optimistic-span / receive-side-truncation protocol.
/// Both engine modes must still match sequential byte for byte.
#[test]
fn adversarial_checkerboard_all_links_cut_still_matches() {
    let topo = torus(4, 1);
    let owner: Vec<u32> = (0..16).map(|i| ((i / 4 + i % 4) % 2) as u32).collect();
    let plan = ShardPlan::from_assignment(2, owner).expect("plan");
    assert_eq!(
        plan.cut_links(&topo).len(),
        topo.links.len(),
        "checkerboard must cut every switch-to-switch link of the 4x4 torus"
    );
    for mode in [SimMode::PerByte, SimMode::SpanBatched] {
        let seq = setup_on(topo.clone(), Scheme::Hc(HcConfig::store_and_forward()), mode);
        let mut sh = setup_on(topo.clone(), Scheme::Hc(HcConfig::store_and_forward()), mode);
        sh.shards = 2;
        sh.shard_plan = Some(plan.clone());
        assert_equivalent(&format!("checkerboard mode={mode:?}"), &seq, &sh);
    }
}

/// Rendered JSONL of a traced sequential run.
fn traced_sequential(setup: &SimSetup) -> String {
    let mut net = build_network(setup);
    let out = net.run_until(DRAIN_UNTIL);
    assert!(out.deadlock.is_none(), "sequential deadlock: {out:?}");
    net.audit().expect("sequential conservation");
    net.trace.to_jsonl()
}

/// Rendered JSONL of a traced sharded run (merged across shards).
fn traced_sharded(setup: &SimSetup) -> String {
    let mut sharded = build_sharded(setup).expect("shardable setup");
    let out = sharded.run_until(DRAIN_UNTIL);
    assert!(out.deadlock.is_none(), "sharded deadlock: {out:?}");
    sharded.audit().expect("sharded conservation");
    sharded.trace().to_jsonl()
}

/// The first differing line of two JSONL streams, for a readable failure.
fn first_diff(a: &str, b: &str) -> String {
    let (la, lb): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    for i in 0..la.len().min(lb.len()) {
        if la[i] != lb[i] {
            let lo = i.saturating_sub(3);
            let mut out = format!("line {}:\n", i + 1);
            for j in lo..(i + 4).min(la.len().min(lb.len())) {
                let mark = if la[j] == lb[j] { ' ' } else { '!' };
                out.push_str(&format!(
                    "{mark} expected: {}\n{mark} got:      {}\n",
                    la[j], lb[j]
                ));
            }
            return out;
        }
    }
    format!("line counts differ: {} vs {}", la.len(), lb.len())
}

/// Span-native tracing across shards: the merged span-batched sharded
/// trace, run through the per-byte expander, must be byte-identical to
/// the sequential per-byte trace — and a sharded *per-byte* trace must
/// match it without any expansion at all.
fn assert_traced_equivalent(
    name: &str,
    mk: &dyn Fn(SimMode) -> SimSetup,
    shards: u32,
    plan: Option<ShardPlan>,
) {
    let mut seq = mk(SimMode::PerByte);
    seq.trace = TraceConfig::Memory;
    let j_ref = traced_sequential(&seq);
    assert!(!j_ref.is_empty(), "{name}: reference trace captured nothing");

    // Sequential span-batched first: families here (tree, shufflenet,
    // irregular…) are not all covered by the span_equivalence suite, and
    // a sequential divergence would otherwise masquerade as a sharding
    // bug below.
    let mut sp_seq = mk(SimMode::SpanBatched);
    sp_seq.trace = TraceConfig::Memory;
    let j_sp_seq = traced_sequential(&sp_seq);
    let exp_seq = expand_spans(&j_sp_seq);
    assert!(
        exp_seq == j_ref,
        "{name}: SEQ span trace diverged from sequential per-byte\n{}",
        first_diff(&j_ref, &exp_seq)
    );

    let mut sp = mk(SimMode::SpanBatched);
    sp.trace = TraceConfig::Memory;
    sp.shards = shards;
    sp.shard_plan = plan.clone();
    let j_span = traced_sharded(&sp);
    let violations = validate_jsonl(&j_span);
    assert!(
        violations.is_empty(),
        "{name}: sharded span trace violates the schema: {violations:?}"
    );
    let expanded = expand_spans(&j_span);
    assert!(
        expanded == j_ref,
        "{name}: expanded sharded span trace diverged from sequential per-byte\n{}",
        first_diff(&j_ref, &expanded)
    );

    let mut pb = mk(SimMode::PerByte);
    pb.trace = TraceConfig::Memory;
    pb.shards = shards;
    pb.shard_plan = plan;
    let j_pb = traced_sharded(&pb);
    assert!(
        j_pb == j_ref,
        "{name}: sharded per-byte trace diverged from sequential per-byte\n{}",
        first_diff(&j_ref, &j_pb)
    );
}

#[test]
fn traced_sharded_torus_expands_to_sequential() {
    let mk = |mode| setup_on(torus(4, 1), Scheme::Hc(HcConfig::store_and_forward()), mode);
    for shards in [2u32, 4] {
        assert_traced_equivalent(
            &format!("traced torus shards={shards}"),
            &mk,
            shards,
            Some(ShardPlan::torus_grid(4, shards).expect("plan")),
        );
    }
}

#[test]
fn traced_sharded_shufflenet_expands_to_sequential() {
    let mk = |mode| {
        setup_on(
            shufflenet24(1),
            Scheme::Tree(TreeConfig::store_and_forward(), TreeShape::BinaryHeap),
            mode,
        )
    };
    assert_traced_equivalent("traced shufflenet shards=2", &mk, 2, None);
}

#[test]
fn traced_sharded_tree_expands_to_sequential() {
    let mk = |mode| {
        setup_on(
            tree_fabric(5),
            Scheme::Tree(TreeConfig::store_and_forward(), TreeShape::GreedyHop),
            mode,
        )
    };
    assert_traced_equivalent("traced tree shards=4", &mk, 4, None);
}

#[test]
fn traced_sharded_irregular_expands_to_sequential() {
    let mk = |mode| setup_on(irregular_fabric(9), Scheme::Hc(HcConfig::cut_through()), mode);
    assert_traced_equivalent("traced irregular shards=2", &mk, 2, None);
}

#[test]
fn traced_sharded_torus_lanes2_expands_to_sequential() {
    // Two lanes per link: span-level lines carry the lane field and every
    // cut channel runs the optimistic-span protocol per lane.
    let mk = |mode| {
        let mut s = setup_on(torus(4, 1), Scheme::Hc(HcConfig::store_and_forward()), mode);
        s.lanes = 2;
        s
    };
    for shards in [2u32, 4] {
        assert_traced_equivalent(
            &format!("traced torus lanes=2 shards={shards}"),
            &mk,
            shards,
            Some(ShardPlan::torus_grid(4, shards).expect("plan")),
        );
    }
}

/// `RunReport::trace_dropped` surfaces ring overflow: a tiny ring on a
/// busy run must report drops, and the default sinks must report zero.
#[test]
fn runner_reports_ring_overflow() {
    let mut s = setup_on(
        torus(4, 1),
        Scheme::Hc(HcConfig::store_and_forward()),
        SimMode::SpanBatched,
    );
    s.trace = TraceConfig::Ring { capacity: 64 };
    let (report, trace) = wormcast_bench::runner::run_traced(&s);
    assert!(
        report.trace_dropped > 0,
        "a 64-event ring must overflow on this run"
    );
    assert_eq!(trace.len(), 64, "ring keeps exactly its capacity");

    let mut s2 = setup_on(
        torus(4, 1),
        Scheme::Hc(HcConfig::store_and_forward()),
        SimMode::SpanBatched,
    );
    s2.trace = TraceConfig::Memory;
    let (report2, _) = wormcast_bench::runner::run_traced(&s2);
    assert_eq!(report2.trace_dropped, 0, "memory sink never drops");
}

/// The public entry point composes the same way: `run()` on a sharded
/// setup returns the same report as the sequential engine.
#[test]
fn runner_report_identical_with_shards() {
    let seq = setup_on(
        torus(4, 1),
        Scheme::Tree(TreeConfig::store_and_forward(), TreeShape::BinaryHeap),
        SimMode::SpanBatched,
    );
    let mut sh = setup_on(
        torus(4, 1),
        Scheme::Tree(TreeConfig::store_and_forward(), TreeShape::BinaryHeap),
        SimMode::SpanBatched,
    );
    sh.shards = 2;
    let a = wormcast_bench::runner::run(&seq);
    let b = wormcast_bench::runner::run(&sh);
    assert_eq!(
        a.multicast.per_delivery.mean,
        b.multicast.per_delivery.mean
    );
    assert_eq!(a.unicast.deliveries, b.unicast.deliveries);
    assert_eq!(a.delivery_ratio, b.delivery_ratio);
    assert_eq!(a.host_tx_utilization, b.host_tx_utilization);
    assert_eq!(a.outcome.stats.bytes_moved, b.outcome.stats.bytes_moved);
}
