//! Wait-for-graph construction and cycle detection.
//!
//! Wormhole networks deadlock when blocked worms form a circular wait
//! (Figure 3 of the paper). This module reconstructs the wait-for graph
//! from a live network snapshot:
//!
//! * an input port whose worm is **requesting** an output waits on the
//!   input that currently owns that output;
//! * an input port **forwarding** into a STOPped channel waits on the
//!   downstream input whose slack buffer filled up;
//! * an input port whose worm has a **hole** (bytes not yet arrived) waits
//!   on the upstream producer;
//! * a host adapter whose outgoing channel is STOPped waits on the switch
//!   input it feeds.
//!
//! Host adapter *receive* sides never appear: the paper's design point is
//! that adapters always drain the network (no backpressure from the host
//! interface), so every wait chain that reaches a host terminates.
//!
//! A cycle in this graph is a genuine deadlock: no byte on the cycle can
//! ever move again. The up/down routing restriction exists precisely to
//! make such cycles impossible; integration tests use this module both to
//! *demonstrate* deadlock when the rules are violated and to prove runs
//! clean when they are followed.

use crate::engine::{HostId, SwitchId};
use crate::link::{ChanId, NodeRef};
use crate::network::Network;
use crate::switch::InState;
use crate::worm::WormId;
use std::collections::HashMap;
use std::fmt;

/// A vertex of the wait-for graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WaitNode {
    /// An input port of a switch holding (part of) a blocked worm.
    SwitchIn(SwitchId, u8),
    /// A host adapter's transmit side.
    HostTx(HostId),
}

impl fmt::Display for WaitNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitNode::SwitchIn(sw, p) => write!(f, "sw{}:in{}", sw.0, p),
            WaitNode::HostTx(h) => write!(f, "host{}:tx", h.0),
        }
    }
}

/// Why one wait-for edge exists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaitCause {
    /// The worm's head requested an output another input owns.
    OutputHeldBy { switch: SwitchId, out: u8 },
    /// The worm is forwarding into a channel with a STOP in force.
    StoppedDownstream { ch: ChanId },
    /// The worm has a hole: its next byte has not arrived from upstream.
    StarvedUpstream { ch: ChanId },
    /// A switchcast replica branch transmits into a STOPped channel.
    BranchStopped { ch: ChanId },
    /// The host's outgoing link itself has a STOP in force.
    HostLinkStopped { ch: ChanId },
}

impl fmt::Display for WaitCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitCause::OutputHeldBy { switch, out } => {
                write!(f, "output sw{}:out{} held", switch.0, out)
            }
            WaitCause::StoppedDownstream { ch } => write!(f, "STOP in force on ch{}", ch.0),
            WaitCause::StarvedUpstream { ch } => write!(f, "starved, waiting bytes on ch{}", ch.0),
            WaitCause::BranchStopped { ch } => {
                write!(f, "multicast branch STOPped on ch{}", ch.0)
            }
            WaitCause::HostLinkStopped { ch } => write!(f, "host link ch{} STOPped", ch.0),
        }
    }
}

/// One annotated edge of the wait-for graph: `from` cannot make progress
/// until `to` does. `worm` is the blocked worm at `from`; `holds` is the
/// worm currently occupying `to` (the one holding the contended resource).
#[derive(Clone, Copy, Debug)]
pub struct WaitEdge {
    pub from: WaitNode,
    pub to: WaitNode,
    pub worm: Option<WormId>,
    pub holds: Option<WormId>,
    pub cause: WaitCause,
}

impl fmt::Display for WaitEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.from)?;
        if let Some(w) = self.worm {
            write!(f, " [worm {}]", w.0)?;
        }
        write!(f, " -> {}", self.to)?;
        if let Some(w) = self.holds {
            write!(f, " [holds worm {}]", w.0)?;
        }
        write!(f, ": {}", self.cause)
    }
}

/// A detected deadlock (or a watchdog forensics snapshot): one
/// representative cycle, the full annotated wait-for graph at detection
/// time, and how many worms were outstanding. Its `Display` renders the
/// human-readable dump.
#[derive(Clone, Debug)]
pub struct DeadlockReport {
    /// The wait cycle (empty when detection fired without a reconstructable
    /// cycle — e.g. stuck protocol state rather than fabric state).
    pub cycle: Vec<WaitNode>,
    pub stuck_worms: u64,
    /// Every wait-for edge at detection time, annotated with the blocked
    /// worm, the holding worm, and the blocking cause.
    pub edges: Vec<WaitEdge>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock forensics: {} stuck worm(s), {} wait-for edge(s)",
            self.stuck_worms,
            self.edges.len()
        )?;
        for e in &self.edges {
            writeln!(f, "  {e}")?;
        }
        if self.cycle.is_empty() {
            write!(f, "  no wait cycle reconstructed")
        } else {
            write!(f, "  cycle:")?;
            for n in &self.cycle {
                write!(f, " {n} ->")?;
            }
            write!(f, " {}", self.cycle[0])
        }
    }
}

/// The worm currently occupying a wait-for node, if any.
fn node_worm(net: &Network, node: WaitNode) -> Option<WormId> {
    match node {
        WaitNode::SwitchIn(sw, p) => {
            match &net.switches[sw.0 as usize].inputs[p as usize].state {
                InState::Idle => None,
                InState::Requesting { worm, .. }
                | InState::Forwarding { worm, .. }
                | InState::Draining { worm } => Some(*worm),
                InState::Replicating(rep) => Some(rep.worm),
            }
        }
        WaitNode::HostTx(h) => net.adapters[h.0 as usize].tx_queue.front().map(|t| t.worm),
    }
}

/// Build the annotated wait-for edge list of the current network state —
/// the forensics view the watchdog dumps when it trips.
pub fn wait_edges(net: &Network) -> Vec<WaitEdge> {
    walk(std::slice::from_ref(net), |_| 0)
}

/// The wait-for walk over one simulated network executed by `nets.len()`
/// engines, where `owner` names the engine owning each node; a sequential
/// run is the one-engine case. Each engine walks its *owned* switches and
/// adapters using its own (authoritative) state; whenever an edge's far
/// side — the downstream input a STOP points at, the upstream producer of
/// a starved worm, the holder of a contended output — lives in another
/// shard, that shard's engine is consulted instead of the local idle
/// mirror. With several engines, worm ids in the result are canonical
/// *across* shards: each distinct worm tag is assigned a dense id in tag
/// order, so the same worm blocked in one shard and holding a resource in
/// another carries one name. A single engine keeps its own worm ids.
fn walk(nets: &[Network], owner: impl Fn(WaitNode) -> usize) -> Vec<WaitEdge> {
    struct RawEdge {
        from: WaitNode,
        to: WaitNode,
        worm: Option<(usize, WormId)>,
        holds: Option<(usize, WormId)>,
        cause: WaitCause,
    }

    // The occupying worm of a node, read from the engine that owns it.
    let holder = |node: WaitNode| -> Option<(usize, WormId)> {
        let s = owner(node);
        node_worm(&nets[s], node).map(|w| (s, w))
    };
    // The entity currently *producing* bytes into a switch input: the
    // upstream host, or the upstream output's crossbar owner, resolved in
    // the engine that owns the upstream switch.
    let upstream = |net: &Network, sw: SwitchId, port: u8| -> Option<(WaitNode, ChanId)> {
        let ch = net.switches[sw.0 as usize].inputs[port as usize].chan_in?;
        let src = net.lane(ch).src();
        match src.node {
            NodeRef::Host(h) => Some((WaitNode::HostTx(h), ch)),
            NodeRef::Switch(up) => {
                let up_net = &nets[owner(WaitNode::SwitchIn(up, 0))];
                let o = up_net.switches[up.0 as usize].outputs[src.port.index()].owner?;
                Some((WaitNode::SwitchIn(up, o), ch))
            }
        }
    };

    // The switch input a lane's STOP came from, while one is in force.
    let stopped_at = |net: &Network, ch: ChanId| -> Option<WaitNode> {
        let lane = net.lane(ch);
        match lane.dst().node {
            NodeRef::Switch(down) if lane.is_stopped() => {
                Some(WaitNode::SwitchIn(down, lane.dst().port.0))
            }
            _ => None,
        }
    };

    let mut raw: Vec<RawEdge> = Vec::new();
    let mut push = |from: WaitNode, to: WaitNode, worm: (usize, WormId), cause| {
        raw.push(RawEdge {
            from,
            to,
            worm: Some(worm),
            holds: holder(to),
            cause,
        });
    };
    for (si, net) in nets.iter().enumerate() {
        for sw in &net.switches {
            if owner(WaitNode::SwitchIn(sw.id, 0)) != si {
                continue;
            }
            for (pi, inp) in sw.inputs.iter().enumerate() {
                let me = WaitNode::SwitchIn(sw.id, pi as u8);
                match &inp.state {
                    InState::Idle | InState::Draining { .. } => {}
                    InState::Requesting { out, worm } => {
                        // `out` is the physical port; the head waits on
                        // every lane's current owner (any one freeing
                        // unblocks it).
                        for slot in sw.slots_of(*out) {
                            if let Some(o) = sw.outputs[slot].owner {
                                push(
                                    me,
                                    WaitNode::SwitchIn(sw.id, o),
                                    (si, *worm),
                                    WaitCause::OutputHeldBy {
                                        switch: sw.id,
                                        out: *out,
                                    },
                                );
                            }
                        }
                    }
                    InState::Forwarding { out, worm } => {
                        // The transmit-side STOP state of this input's
                        // outgoing channel is owned here (we are its src).
                        if let Some(ch) = sw.outputs[*out as usize].chan_out {
                            if let Some(to) = stopped_at(net, ch) {
                                push(me, to, (si, *worm), WaitCause::StoppedDownstream { ch });
                            }
                        }
                        // Starved (hole in the worm): wait on the upstream
                        // producer.
                        let starved = match inp.buf.front() {
                            None => true,
                            Some(front) => front.worm != *worm,
                        };
                        if starved {
                            if let Some((up, ch)) = upstream(net, sw.id, pi as u8) {
                                push(me, up, (si, *worm), WaitCause::StarvedUpstream { ch });
                            }
                        }
                    }
                    InState::Replicating(rep) => {
                        // Any stopped branch blocks the replica.
                        for b in &rep.branches {
                            if let Some(ch) = sw.outputs[b.out as usize].chan_out {
                                if let Some(to) = stopped_at(net, ch) {
                                    push(me, to, (si, rep.worm), WaitCause::BranchStopped { ch });
                                }
                            }
                        }
                    }
                }
            }
        }
        for a in &net.adapters {
            let me = WaitNode::HostTx(a.id);
            if owner(me) != si {
                continue;
            }
            let (Some(head), Some(ch)) = (a.tx_queue.front(), a.chan_out) else {
                continue;
            };
            if let Some(to) = stopped_at(net, ch) {
                push(me, to, (si, head.worm), WaitCause::HostLinkStopped { ch });
            }
        }
    }

    // Canonicalize worm names: every shard holds the worm under its own
    // dense local id, but all of them know its globally unique tag.
    // Dense-rank the tags so the report names each worm once, stably. A
    // single engine's own ids already do.
    let sharded = nets.len() > 1;
    let tag_of = |(s, w): (usize, WormId)| -> u64 {
        nets[s]
            .worm_tag(w)
            .unwrap_or(((s as u64) << 50) | w.0 as u64)
    };
    let mut tags: Vec<u64> = raw
        .iter()
        .filter(|_| sharded)
        .flat_map(|e| e.worm.into_iter().chain(e.holds))
        .map(tag_of)
        .collect();
    tags.sort_unstable();
    tags.dedup();
    let canon = |o: Option<(usize, WormId)>| -> Option<WormId> {
        o.map(|(s, w)| {
            if !sharded {
                return w;
            }
            let rank = tags.binary_search(&tag_of((s, w))).expect("tag collected");
            WormId(rank as u32)
        })
    };
    raw.into_iter()
        .map(|e| WaitEdge {
            from: e.from,
            to: e.to,
            worm: canon(e.worm),
            holds: canon(e.holds),
            cause: e.cause,
        })
        .collect()
}

/// Collapse an edge list into the adjacency map [`find_cycle`] consumes.
pub fn graph_from_edges(edges: &[WaitEdge]) -> HashMap<WaitNode, Vec<WaitNode>> {
    let mut g: HashMap<WaitNode, Vec<WaitNode>> = HashMap::new();
    for e in edges {
        g.entry(e.from).or_default().push(e.to);
    }
    g
}

/// Find one cycle in the wait-for graph, if any.
pub fn find_cycle(g: &HashMap<WaitNode, Vec<WaitNode>>) -> Option<Vec<WaitNode>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks: HashMap<WaitNode, Mark> = g.keys().map(|&k| (k, Mark::White)).collect();

    fn dfs(
        node: WaitNode,
        g: &HashMap<WaitNode, Vec<WaitNode>>,
        marks: &mut HashMap<WaitNode, Mark>,
        stack: &mut Vec<WaitNode>,
    ) -> Option<Vec<WaitNode>> {
        marks.insert(node, Mark::Grey);
        stack.push(node);
        if let Some(succs) = g.get(&node) {
            for &next in succs {
                match marks.get(&next).copied().unwrap_or(Mark::Black) {
                    Mark::Grey => {
                        // Found a cycle: slice the stack from `next` onward.
                        let start = stack.iter().position(|&n| n == next).expect("on stack");
                        return Some(stack[start..].to_vec());
                    }
                    Mark::White => {
                        if let Some(c) = dfs(next, g, marks, stack) {
                            return Some(c);
                        }
                    }
                    Mark::Black => {}
                }
            }
        }
        stack.pop();
        marks.insert(node, Mark::Black);
        None
    }

    let nodes: Vec<WaitNode> = g.keys().copied().collect();
    for n in nodes {
        if marks.get(&n) == Some(&Mark::White) {
            let mut stack = Vec::new();
            if let Some(c) = dfs(n, g, &mut marks, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

/// Analyze a network snapshot for a deadlock cycle. `Some` only when a
/// genuine wait cycle exists (overload alone is not deadlock).
pub fn analyze(net: &Network) -> Option<DeadlockReport> {
    Some(forensics(net)).filter(|r| !r.cycle.is_empty())
}

/// Unconditional forensics snapshot: the full annotated wait-for graph, a
/// representative cycle when one exists (empty otherwise — e.g. worms stuck
/// in protocol state rather than fabric state), and the outstanding-worm
/// count. The watchdog and the drained-queue deadlock check dump this.
pub fn forensics(net: &Network) -> DeadlockReport {
    report(std::slice::from_ref(net), wait_edges(net))
}

/// Analyze a sharded run's merged state for a deadlock cycle, exactly
/// like [`analyze`]: the wait-for graph is walked across all shard
/// engines, with `switch_owner`/`host_owner` naming the engine that owns
/// each switch and host.
pub fn analyze_multi(
    nets: &[Network],
    switch_owner: &[u32],
    host_owner: &[u32],
) -> Option<DeadlockReport> {
    let edges = walk(nets, |node| match node {
        WaitNode::SwitchIn(sw, _) => switch_owner[sw.0 as usize] as usize,
        WaitNode::HostTx(h) => host_owner[h.0 as usize] as usize,
    });
    Some(report(nets, edges)).filter(|r| !r.cycle.is_empty())
}

/// Assemble a report from a walked edge list: one representative cycle,
/// if any, and the outstanding-worm count summed over the engines.
fn report(nets: &[Network], edges: Vec<WaitEdge>) -> DeadlockReport {
    let cycle = find_cycle(&graph_from_edges(&edges)).unwrap_or_default();
    let stuck: i64 = nets.iter().map(|n| n.stats.active_worms).sum();
    DeadlockReport {
        cycle,
        stuck_worms: stuck.max(0) as u64,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> WaitNode {
        WaitNode::SwitchIn(SwitchId(i), 0)
    }

    #[test]
    fn empty_graph_has_no_cycle() {
        let g = HashMap::new();
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn chain_has_no_cycle() {
        let mut g = HashMap::new();
        g.insert(n(0), vec![n(1)]);
        g.insert(n(1), vec![n(2)]);
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn self_loop_detected() {
        let mut g = HashMap::new();
        g.insert(n(0), vec![n(0)]);
        let c = find_cycle(&g).expect("cycle");
        assert_eq!(c, vec![n(0)]);
    }

    #[test]
    fn two_cycle_detected() {
        let mut g = HashMap::new();
        g.insert(n(0), vec![n(1)]);
        g.insert(n(1), vec![n(0)]);
        let c = find_cycle(&g).expect("cycle");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn branch_into_cycle_detected() {
        // 0 -> 1 -> 2 -> 3 -> 1 : cycle is {1,2,3}.
        let mut g = HashMap::new();
        g.insert(n(0), vec![n(1)]);
        g.insert(n(1), vec![n(2)]);
        g.insert(n(2), vec![n(3)]);
        g.insert(n(3), vec![n(1)]);
        let c = find_cycle(&g).expect("cycle");
        assert_eq!(c.len(), 3);
        assert!(!c.contains(&n(0)));
    }

    #[test]
    fn diamond_without_cycle() {
        let mut g = HashMap::new();
        g.insert(n(0), vec![n(1), n(2)]);
        g.insert(n(1), vec![n(3)]);
        g.insert(n(2), vec![n(3)]);
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn report_display_names_worms_and_channels() {
        let edge = WaitEdge {
            from: WaitNode::SwitchIn(SwitchId(3), 2),
            to: WaitNode::SwitchIn(SwitchId(4), 0),
            worm: Some(WormId(17)),
            holds: Some(WormId(9)),
            cause: WaitCause::StoppedDownstream { ch: ChanId(12) },
        };
        let report = DeadlockReport {
            cycle: vec![edge.from, edge.to],
            stuck_worms: 2,
            edges: vec![edge],
        };
        let dump = report.to_string();
        assert!(dump.contains("2 stuck worm(s)"));
        assert!(dump.contains("sw3:in2 [worm 17] -> sw4:in0 [holds worm 9]"));
        assert!(dump.contains("STOP in force on ch12"));
        assert!(dump.contains("cycle: sw3:in2 -> sw4:in0 -> sw3:in2"));
    }

    #[test]
    fn report_display_without_cycle() {
        let report = DeadlockReport {
            cycle: Vec::new(),
            stuck_worms: 1,
            edges: Vec::new(),
        };
        assert!(report.to_string().contains("no wait cycle reconstructed"));
    }

    #[test]
    fn graph_from_edges_groups_by_source() {
        let mk = |from, to| WaitEdge {
            from,
            to,
            worm: None,
            holds: None,
            cause: WaitCause::OutputHeldBy {
                switch: SwitchId(0),
                out: 0,
            },
        };
        let g = graph_from_edges(&[mk(n(0), n(1)), mk(n(0), n(2)), mk(n(1), n(2))]);
        assert_eq!(g[&n(0)].len(), 2);
        assert_eq!(g[&n(1)], vec![n(2)]);
    }

    #[test]
    fn mixed_node_kinds_in_cycle() {
        let h = WaitNode::HostTx(HostId(5));
        let mut g = HashMap::new();
        g.insert(h, vec![n(1)]);
        g.insert(n(1), vec![h]);
        let c = find_cycle(&g).expect("cycle");
        assert_eq!(c.len(), 2);
        assert!(c.contains(&h));
    }
}
