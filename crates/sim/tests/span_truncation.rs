//! STOP-mid-span truncation: the span-batched engine must stay byte-exact
//! through backpressure.
//!
//! When a STOP arrives while a span is mid-flight, the engine truncates the
//! span to the bytes already on the wire and returns the rest to the
//! producer. These tests force STOPs with a two-senders-one-sink contention
//! pattern and then check the strongest observable consequence: stepping
//! both engine modes through the same run in small time increments, the
//! `bytes_moved` counter matches at *every* horizon — so the receiver side
//! of every stopped channel holds exactly the bytes the per-byte engine
//! would have delivered, never a span's worth too many.
//!
//! The path-room tests below cover spans that ride a worm's established
//! path through several switches (DESIGN.md §3.1): a long worm streaming
//! down a line, a path that ends at a blocked input (so STOP and GO fire
//! at the end of the pipeline), and a cut-through follower re-sending a
//! worm that arrives through a path span. Besides byte progress at every
//! horizon they compare the canonical lifecycle traces — the span-batched
//! trace with its `span-*` engine lines erased must equal the per-byte
//! trace line for line.

#![allow(clippy::needless_range_loop)] // index math mirrors ports

use wormcast_sim::engine::HostId;
use wormcast_sim::link::PortId;
use wormcast_sim::network::{FabricSpec, HostAttach, LinkSpec, RouteTable, SimMode};
use wormcast_sim::protocol::{
    AdapterProtocol, Admission, AppMessage, Destination, ProtocolCtx, SendSpec, SourceMessage,
    TrafficSource,
};
use wormcast_sim::trace::{TraceConfig, TraceEvent};
use wormcast_sim::worm::{WormInstance, WormKind};
use wormcast_sim::{Network, NetworkConfig};

/// Minimal unicast protocol (the real ones live in `wormcast-core`).
struct Echoless;

impl AdapterProtocol for Echoless {
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, msg: AppMessage) {
        if let Destination::Unicast(d) = msg.dest {
            ctx.send(SendSpec::data(&msg, d, WormKind::Unicast));
        }
    }
    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        ctx.deliver_local(worm.meta.msg);
    }
}

struct Script {
    items: Vec<(u64, SourceMessage)>,
    ix: usize,
}

impl TrafficSource for Script {
    fn next(&mut self, now: u64, _host: HostId) -> (Option<SourceMessage>, Option<u64>) {
        let Some(&(_, msg)) = self.items.get(self.ix) else {
            return (None, None);
        };
        self.ix += 1;
        let gap = self.items.get(self.ix).map(|&(t, _)| t - now);
        (Some(msg), gap)
    }
}

/// Relays every worm it receives to `next` in cut-through: the copy is
/// queued at header time and transmits in lockstep behind the arrival
/// (the adapter paces a follower by the bytes received so far), the way
/// the Hc scheme's cut-through forwarding does.
struct Relay {
    next: HostId,
}

impl AdapterProtocol for Relay {
    fn on_generate(&mut self, _ctx: &mut ProtocolCtx, _msg: AppMessage) {}
    fn on_header(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) -> Admission {
        let mut spec = SendSpec::forward(worm, self.next);
        spec.follow = Some(worm.id);
        ctx.send(spec);
        Admission::Accept
    }
    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        ctx.deliver_local(worm.meta.msg);
    }
}

/// A line of `delays.len() + 1` switches, one host each (host `i` on
/// switch `i`), with explicit routes between every pair of hosts: along
/// the line, then out to the host port. The link between switches `s` and
/// `s + 1` has delay `delays[s]`; host links have delay 1. Switch 0's
/// port 0 faces right; every other switch has port 0 facing left and port
/// 1 facing right; the host port comes last.
fn line_net(delays: &[u64], mode: SimMode, trace: TraceConfig) -> Network {
    let n = delays.len() + 1;
    let mut links = Vec::new();
    let mut next_port = vec![0u8; n];
    for s in 0..n - 1 {
        let a = next_port[s];
        next_port[s] += 1;
        let b = next_port[s + 1];
        next_port[s + 1] += 1;
        links.push(LinkSpec {
            a: (s as u32, PortId(a)),
            b: ((s + 1) as u32, PortId(b)),
            delay: delays[s],
            lanes: 0,
        });
    }
    let mut hosts = Vec::new();
    for s in 0..n {
        hosts.push(HostAttach {
            switch: s as u32,
            port: next_port[s],
        });
        next_port[s] += 1;
    }
    let right_port = |s: usize| if s == 0 { 0u8 } else { 1u8 };
    let mut rt = RouteTable::new(n);
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let mut ports: Vec<u8> = if src < dst {
                (src..dst).map(right_port).collect()
            } else {
                vec![0; src - dst]
            };
            ports.push(hosts[dst].port);
            rt.set(HostId(src as u32), HostId(dst as u32), ports);
        }
    }
    let spec = FabricSpec {
        switch_ports: next_port,
        hosts,
        links,
        host_link_delay: 1,
    };
    let cfg = NetworkConfig::builder()
        .seed(7)
        .mode(mode)
        .trace(trace)
        .build()
        .expect("valid config");
    let mut net = Network::build(&spec, rt, cfg);
    for h in 0..n as u32 {
        net.set_protocol(HostId(h), Box::new(Echoless));
    }
    net
}

/// Host `from` sends one `len`-byte worm to host `to` at time `at`.
fn send_one(net: &mut Network, from: u32, to: u32, at: u64, len: u32) {
    let items = vec![(at, SourceMessage {
        dest: Destination::Unicast(HostId(to)),
        payload_len: len,
    })];
    net.set_source(HostId(from), Box::new(Script { items, ix: 0 }), at);
}

/// A line of three switches, one host each — hosts 0 and 1 both route
/// through the sw1→sw2 link, so simultaneous worms to host 2 collide
/// there and raise STOPs.
fn contention_net(delay: u64, mode: SimMode, worm_len: u32, trace: TraceConfig) -> Network {
    let mut net = line_net(&[delay; 2], mode, trace);
    // Both senders fire long worms nearly together; the second loses the
    // sw1→sw2 output and backpressures while spans are in flight.
    for (h, at) in [(0u32, 10u64), (1, 12)] {
        send_one(&mut net, h, 2, at, worm_len);
    }
    net
}

/// Step both modes one byte-time at a time and require identical byte
/// progress at every horizon, then identical deliveries and canonical
/// traces once the run has drained.
fn assert_lockstep(per_byte: &mut Network, spans: &mut Network, until: u64, label: &str) {
    for t in 1..=until {
        per_byte.run_until(t);
        spans.run_until(t);
        assert_eq!(
            per_byte.stats.bytes_moved, spans.stats.bytes_moved,
            "{label}: byte progress diverged at t={t}"
        );
    }
    per_byte.audit().expect("per-byte conservation");
    spans.audit().expect("span conservation");
    assert_eq!(deliveries(per_byte), deliveries(spans), "{label}: deliveries diverged");
    let (a, b) = (canonical(per_byte), canonical(spans));
    assert!(!a.is_empty(), "{label}: trace captured nothing");
    if a != b {
        let (i, (la, lb)) = a
            .lines()
            .zip(b.lines())
            .enumerate()
            .find(|(_, (la, lb))| la != lb)
            .unwrap_or((0, ("<length>", "<length>")));
        panic!(
            "{label}: canonical traces diverged at line {}:\n  per-byte: {la}\n  spans:    {lb}",
            i + 1
        );
    }
}

/// A traced run's JSONL with the span-level engine lines erased: what a
/// per-byte run of the same seed must produce.
fn canonical(net: &Network) -> String {
    net.trace
        .to_jsonl()
        .lines()
        .filter(|l| !l.contains("\"ev\":\"span-"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Span-level trace events of one kind, as `(channel, len)` pairs.
fn spans_of(net: &Network, delivered: bool) -> Vec<(u32, u64)> {
    net.trace
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            TraceEvent::SpanEmitted { ch, len, .. } if !delivered => Some((ch.0, *len)),
            TraceEvent::SpanDelivered { ch, len, .. } if delivered => Some((ch.0, *len)),
            _ => None,
        })
        .collect()
}

fn stops_and_goes(net: &Network) -> (usize, usize) {
    let ev = net.trace.events();
    let stops = ev
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::StopInForce { .. }))
        .count();
    let goes = ev
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::GoReceived { .. }))
        .count();
    (stops, goes)
}

fn deliveries(net: &Network) -> Vec<(u64, u32, u64)> {
    let mut out: Vec<(u64, u32, u64)> = net
        .msgs
        .deliveries
        .iter()
        .map(|d| (d.msg.0, d.host.0, d.at))
        .collect();
    out.sort_unstable();
    out
}

/// Step both modes in lockstep and require identical progress at every
/// horizon, for a spread of link delays (deeper slack ⇒ longer spans ⇒
/// more bytes at stake per truncation).
#[test]
fn stop_mid_span_truncates_to_the_exact_byte() {
    for delay in [1u64, 3, 8] {
        // The per-byte net carries a sink (a pure observer) to prove the
        // scenario raises STOPs at all; the span net runs untraced only
        // because this lockstep check never reads its trace — tracing no
        // longer stands the fast path down (DESIGN.md §3.2).
        let mut per_byte = contention_net(delay, SimMode::PerByte, 2_000, TraceConfig::Memory);
        let mut spans = contention_net(delay, SimMode::SpanBatched, 2_000, TraceConfig::Off);
        let mut t = 0;
        while t < 30_000 {
            t += 7; // off-phase with spans and link delays on purpose
            per_byte.run_until(t);
            spans.run_until(t);
            assert_eq!(
                per_byte.stats.bytes_moved, spans.stats.bytes_moved,
                "delay {delay}: byte progress diverged at t={t}"
            );
        }
        per_byte.audit().expect("per-byte conservation");
        spans.audit().expect("span conservation");
        assert_eq!(
            deliveries(&per_byte),
            deliveries(&spans),
            "delay {delay}: deliveries diverged"
        );
        assert_eq!(deliveries(&spans).len(), 2, "delay {delay}: both worms arrive");
        // The scenario must actually have exercised backpressure — STOPs
        // the span engine (whose byte progress matched at every horizon
        // above) necessarily met while transmitting.
        let stops = per_byte
            .trace
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::StopInForce { .. }))
            .count();
        assert!(stops > 0, "delay {delay}: no STOP raised — not a truncation test");
    }
}

/// Same scenario run to completion in one shot: end-state statistics match
/// field-for-field apart from the engine-cost counters, and span batching
/// actually spends fewer events.
#[test]
fn stop_heavy_run_keeps_stats_identical() {
    let mut per_byte = contention_net(4, SimMode::PerByte, 5_000, TraceConfig::Off);
    let mut spans = contention_net(4, SimMode::SpanBatched, 5_000, TraceConfig::Off);
    let a = per_byte.run_until(60_000);
    let b = spans.run_until(60_000);
    assert!(a.drained && b.drained, "finite workload must drain");
    let mut sa = per_byte.stats.clone();
    let mut sb = spans.stats.clone();
    assert!(
        sb.events_scheduled < sa.events_scheduled,
        "span batching should save events even under backpressure: {} vs {}",
        sa.events_scheduled,
        sb.events_scheduled
    );
    sa.events_scheduled = 0;
    sa.events_fired = 0;
    sb.events_scheduled = 0;
    sb.events_fired = 0;
    assert_eq!(format!("{sa:?}"), format!("{sb:?}"), "stats diverged");
    assert_eq!(deliveries(&per_byte), deliveries(&spans));
}

/// One long worm streams down a line of five switches. Its head sets up
/// the path hop by hop, so the first span out of the source is sized by
/// how far the head has got; once the head reaches the destination
/// adapter, the rest of the body rides the whole path as one span. Every
/// hop therefore carries the body in at most two spans, not in
/// slack-sized pieces, and the run stays byte-exact.
#[test]
fn path_span_crosses_each_hop_whole() {
    for delay in [1u64, 3] {
        let label = format!("line5 delay {delay}");
        let mut per_byte = line_net(&[delay; 4], SimMode::PerByte, TraceConfig::Memory);
        let mut spans = line_net(&[delay; 4], SimMode::SpanBatched, TraceConfig::Memory);
        for net in [&mut per_byte, &mut spans] {
            send_one(net, 0, 4, 10, 2_000);
        }
        assert_lockstep(&mut per_byte, &mut spans, 3_000, &label);
        assert_eq!(deliveries(&spans).len(), 1, "{label}: the worm arrives");
        let emitted = spans_of(&spans, false);
        let mut hops: Vec<u32> = emitted.iter().map(|&(ch, _)| ch).collect();
        hops.sort_unstable();
        hops.dedup();
        // Host link in, four switch links, host link out.
        assert_eq!(hops.len(), 6, "{label}: spans on {hops:?}");
        for ch in hops {
            let on_hop: Vec<u64> = emitted
                .iter()
                .filter(|&&(c, _)| c == ch)
                .map(|&(_, len)| len)
                .collect();
            assert!(
                on_hop.len() <= 2,
                "{label}: channel {ch} carried the body in {} spans {on_hop:?}",
                on_hop.len()
            );
        }
    }
}

/// The worm's path ends at an input whose output another worm holds:
/// host 3's long worm owns sw3's right output, so the worm from host 0
/// blocks at sw3. Spans sized by the path room pile bytes into that input
/// without crossing its stop mark; the per-byte arrivals that follow must
/// raise STOP there, back the STOP up the line, and release it with GO
/// when the blocker's tail passes — all at the per-byte times.
#[test]
fn path_ending_at_a_blocked_input_stops_and_goes_per_byte() {
    for delay in [1u64, 3, 8] {
        let label = format!("blocked line5 delay {delay}");
        let mut per_byte = line_net(&[delay; 4], SimMode::PerByte, TraceConfig::Memory);
        let mut spans = line_net(&[delay; 4], SimMode::SpanBatched, TraceConfig::Memory);
        for net in [&mut per_byte, &mut spans] {
            send_one(net, 3, 4, 10, 1_500);
            send_one(net, 0, 4, 12, 1_000);
        }
        assert_lockstep(&mut per_byte, &mut spans, 4_000, &label);
        assert_eq!(deliveries(&spans).len(), 2, "{label}: both worms arrive");
        let (stops, goes) = stops_and_goes(&per_byte);
        assert!(stops > 0 && goes > 0, "{label}: no STOP/GO raised ({stops}/{goes})");
        assert_eq!(stops_and_goes(&spans), (stops, goes), "{label}: STOP/GO counts");
        assert!(
            spans_of(&spans, false).iter().any(|&(_, len)| len > 8),
            "{label}: no span exceeded one hop's slack — path room never engaged"
        );
    }
}

/// A cut-through follower re-sends a worm that reaches its adapter
/// through a path span: host 2 relays host 0's worm to host 4 in
/// lockstep with reception. The span credits the whole run to the
/// relay's reception count at once; the follower, paced at one byte per
/// byte-time, must still leave at exactly the per-byte send slots.
#[test]
fn cut_through_follower_resends_a_path_span_arrival() {
    for delay in [1u64, 3] {
        let label = format!("relay line5 delay {delay}");
        let mk = |mode, trace| {
            let mut net = line_net(&[delay; 4], mode, trace);
            net.set_protocol(HostId(2), Box::new(Relay { next: HostId(4) }));
            send_one(&mut net, 0, 2, 10, 2_000);
            net
        };
        let mut per_byte = mk(SimMode::PerByte, TraceConfig::Memory);
        let mut spans = mk(SimMode::SpanBatched, TraceConfig::Memory);
        assert_lockstep(&mut per_byte, &mut spans, 4_000, &label);
        let got = deliveries(&spans);
        assert_eq!(got.len(), 2, "{label}: the relay and the final host deliver");
        let (relay, last) = (got[0].2.min(got[1].2), got[0].2.max(got[1].2));
        assert!(
            last - relay < 100,
            "{label}: the copy trailed the original by {} byte-times — not cut-through",
            last - relay
        );
        assert!(
            spans_of(&spans, true).iter().any(|&(_, len)| len > 500),
            "{label}: the original never arrived through a path span"
        );
    }
}

/// Path room must respect every input the span passes through, not only
/// the one where it comes to rest. An input that forwards the worm onto a
/// lane still busy with bytes batch-popped earlier holds the span's
/// arrivals until that lane frees up; per-byte, those arrivals can reach
/// the input's own (smaller) stop mark and raise STOP mid-window. Each case
/// is a line of switches with its inter-switch delays and a list of
/// unicast worms `(src, at, dst, len)`, found by a seeded lockstep search.
#[test]
fn path_room_respects_pass_through_stop_marks() {
    type Worm = (u32, u64, u32, u32);
    let cases: [(&[u64], &[Worm]); 2] = [
        // Host 1's worm waits at sw1's host-fed input (stop mark 9) behind
        // host 2's worm; once it wins the output, a span sized by sw0's
        // input (stop mark 48) would skip the STOP/GO per-byte raises on
        // the host link.
        (&[40, 1], &[(2, 75, 0, 101), (1, 180, 0, 1_855)]),
        (
            &[67, 26],
            &[
                (0, 7, 1, 102),
                (0, 175, 1, 1_539),
                (0, 217, 1, 1_528),
                (1, 293, 0, 172),
                (1, 304, 0, 1_228),
                (2, 82, 0, 182),
            ],
        ),
    ];
    for (i, (delays, worms)) in cases.into_iter().enumerate() {
        let label = format!("pass-through case {i} delays {delays:?}");
        let mk = |mode| {
            let mut net = line_net(delays, mode, TraceConfig::Memory);
            let hosts = delays.len() as u32 + 1;
            for h in 0..hosts {
                let mut items: Vec<(u64, SourceMessage)> = worms
                    .iter()
                    .filter(|w| w.0 == h)
                    .map(|&(_, at, dst, len)| {
                        (
                            at,
                            SourceMessage {
                                dest: Destination::Unicast(HostId(dst)),
                                payload_len: len,
                            },
                        )
                    })
                    .collect();
                items.sort_by_key(|&(at, _)| at);
                if let Some(&(first, _)) = items.first() {
                    net.set_source(HostId(h), Box::new(Script { items, ix: 0 }), first);
                }
            }
            net
        };
        let mut per_byte = mk(SimMode::PerByte);
        let mut spans = mk(SimMode::SpanBatched);
        assert_lockstep(&mut per_byte, &mut spans, 12_000, &label);
        assert_eq!(
            deliveries(&spans).len(),
            worms.len(),
            "{label}: every worm arrives"
        );
    }
}
