//! The crossbar switch: slack buffers, backpressure, route parsing,
//! round-robin output arbitration, and cut-through forwarding.
//!
//! A Myrinet switch is deliberately simple: per-input slack buffers with
//! STOP/GO watermarks (Figure 1 of the paper), a crossbar, and head-byte
//! route processing. All of that lives here. The switch-level *multicast*
//! extensions of Section 3 (worm replication in the crossbar) plug in via
//! [`crate::switchcast`].

use crate::engine::{CtrlSym, SwitchId};
use crate::link::{ChanId, LaneArbiter, LaneCandidate, NodeRef};
use crate::network::Network;
use crate::time::SimTime;
use crate::worm::{ByteKind, RouteSym, WireByte, WormId, WormKind};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Slack-buffer configuration (Figure 1): capacity and the two watermarks.
///
/// Myrinet sizes the slack so that the bytes in flight during a STOP
/// round-trip always fit: `capacity >= stop_mark + 2 * link_delay + slop`.
/// [`SlackCfg::for_delay`] computes a safe configuration for a given link
/// delay.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SlackCfg {
    /// Total buffer capacity in bytes.
    pub capacity: u32,
    /// High watermark `Ks`: crossing it (upward) sends STOP upstream.
    pub stop_mark: u32,
    /// Low watermark `Kg`: crossing it (downward) sends GO upstream.
    pub go_mark: u32,
}

impl SlackCfg {
    /// A slack configuration that can never overflow for links of the given
    /// propagation delay: after STOP is sent, at most `2 * delay` more bytes
    /// can arrive (those on the wire plus those sent before STOP lands).
    pub fn for_delay(delay: SimTime) -> Self {
        let rtt = (2 * delay) as u32;
        SlackCfg {
            stop_mark: 8 + rtt / 2,
            go_mark: 4,
            capacity: 8 + rtt / 2 + rtt + 8,
        }
    }

    /// Validate the invariants between the marks.
    pub fn validate(&self) -> Result<(), String> {
        if self.go_mark >= self.stop_mark {
            return Err(format!(
                "go_mark ({}) must be below stop_mark ({})",
                self.go_mark, self.stop_mark
            ));
        }
        if self.stop_mark >= self.capacity {
            return Err(format!(
                "stop_mark ({}) must be below capacity ({})",
                self.stop_mark, self.capacity
            ));
        }
        Ok(())
    }
}

/// Runs a fresh slack buffer holds before its ring allocates.
const SLACK_RUNS: usize = 8;

/// A slack buffer stored as runs: consecutive identical bytes (in practice
/// the data bytes of one worm) share one `(byte, count)` entry, so a span
/// deposit or drain costs O(1) however many bytes it moves, and the
/// buffer's memory tracks the number of runs rather than bytes. Adjacent
/// runs are always distinct: pushes merge into the neighbouring run and
/// pops only ever remove from the ends.
#[derive(Debug, Default)]
pub struct SlackBuf {
    runs: VecDeque<(WireByte, u32)>,
    len: u32,
}

impl SlackBuf {
    /// An empty buffer with room for `runs` runs before it allocates.
    pub fn with_capacity(runs: usize) -> Self {
        SlackBuf {
            runs: VecDeque::with_capacity(runs),
            len: 0,
        }
    }

    /// Bytes held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The oldest byte.
    #[inline]
    pub fn front(&self) -> Option<&WireByte> {
        self.runs.front().map(|(b, _)| b)
    }

    /// The newest byte.
    #[inline]
    pub fn back(&self) -> Option<&WireByte> {
        self.runs.back().map(|(b, _)| b)
    }

    /// The byte at position `i` from the front (a scan over runs).
    pub fn get(&self, mut i: usize) -> Option<&WireByte> {
        for (b, n) in &self.runs {
            if i < *n as usize {
                return Some(b);
            }
            i -= *n as usize;
        }
        None
    }

    pub fn push_back(&mut self, b: WireByte) {
        self.push_back_n(b, 1);
    }

    /// Append `n` copies of `b`.
    pub fn push_back_n(&mut self, b: WireByte, n: u64) {
        if n == 0 {
            return;
        }
        let n = u32::try_from(n).expect("slack run fits in u32");
        match self.runs.back_mut() {
            Some((last, count)) if *last == b => *count += n,
            _ => self.runs.push_back((b, n)),
        }
        self.len += n;
    }

    /// Prepend `n` copies of `b` (STOP truncation handing a span's revoked
    /// bytes back to its producer).
    pub fn push_front_n(&mut self, b: WireByte, n: u64) {
        if n == 0 {
            return;
        }
        let n = u32::try_from(n).expect("slack run fits in u32");
        match self.runs.front_mut() {
            Some((first, count)) if *first == b => *count += n,
            _ => self.runs.push_front((b, n)),
        }
        self.len += n;
    }

    pub fn pop_front(&mut self) -> Option<WireByte> {
        let (b, count) = self.runs.front_mut()?;
        let b = *b;
        *count -= 1;
        if *count == 0 {
            self.runs.pop_front();
        }
        self.len -= 1;
        Some(b)
    }

    pub fn pop_back(&mut self) -> Option<WireByte> {
        let (b, count) = self.runs.back_mut()?;
        let b = *b;
        *count -= 1;
        if *count == 0 {
            self.runs.pop_back();
        }
        self.len -= 1;
        Some(b)
    }

    /// Remove the `n` oldest bytes. Panics if fewer are held.
    pub fn pop_front_n(&mut self, n: u64) {
        assert!(n <= self.len as u64, "popping {n} of {} buffered bytes", self.len);
        let mut left = n as u32;
        while left > 0 {
            let (_, count) = self.runs.front_mut().expect("length covers the runs");
            if *count > left {
                *count -= left;
                break;
            }
            left -= *count;
            self.runs.pop_front();
        }
        self.len -= n as u32;
    }

    /// Length of the run of `worm`'s data bytes at the front.
    #[inline]
    pub fn front_data_run(&self, worm: WormId) -> u64 {
        match self.runs.front() {
            Some((b, n)) if b.worm == worm && b.kind == ByteKind::Data => *n as u64,
            _ => 0,
        }
    }

    /// Bytes of `worm`, of any kind, at the front.
    pub fn front_worm_len(&self, worm: WormId) -> u64 {
        self.runs
            .iter()
            .take_while(|(b, _)| b.worm == worm)
            .map(|(_, n)| *n as u64)
            .sum()
    }
}

impl std::ops::Index<usize> for SlackBuf {
    type Output = WireByte;

    fn index(&self, i: usize) -> &WireByte {
        self.get(i).expect("slack buffer index out of range")
    }
}

/// Input-port worm-processing state.
///
/// Port indices distinguish *physical* ports (what route bytes name) from
/// *slots* (a physical port × lane pair; see [`Switch`]). `Requesting.out`
/// is the physical port — the lane is not chosen until the grant —
/// while `Forwarding.out` is the granted output slot. With single-lane
/// links the two coincide.
#[derive(Debug)]
pub enum InState {
    /// Waiting for the head of a new worm; the next front byte must be a
    /// route byte.
    Idle,
    /// Directive parsed; waiting for the (physical) output port to be
    /// granted a lane.
    Requesting { worm: WormId, out: u8 },
    /// Crossbar connection established; the output slot pulls bytes from
    /// this input's slack buffer.
    Forwarding { worm: WormId, out: u8 },
    /// Switch-level multicast replication in progress (Section 3).
    Replicating(Box<crate::switchcast::ReplicaState>),
    /// Discarding the rest of a worm that was flushed (Backward Reset).
    Draining { worm: WormId },
}

/// An input port of a switch.
#[derive(Debug)]
pub struct InPort {
    /// The channel delivering bytes into this port (None if unconnected).
    pub chan_in: Option<ChanId>,
    /// The slack buffer.
    pub buf: SlackBuf,
    pub slack: SlackCfg,
    /// True while our STOP is in force upstream.
    pub sent_stop: bool,
    pub state: InState,
    /// Bytes dropped at this input (only possible with fault injection or a
    /// flush; plain backpressure never overflows a validated slack buffer).
    pub dropped_bytes: u64,
}

impl InPort {
    pub fn new(slack: SlackCfg) -> Self {
        InPort {
            chan_in: None,
            // A buffer rarely holds more than a few runs (the tail of one
            // worm, the route bytes and body of the next); past this the
            // ring grows once to its high-water mark and stays there.
            buf: SlackBuf::with_capacity(SLACK_RUNS),
            slack,
            sent_stop: false,
            state: InState::Idle,
            dropped_bytes: 0,
        }
    }

    /// Current occupancy in bytes.
    #[inline]
    pub fn occupancy(&self) -> u32 {
        self.buf.len() as u32
    }
}

/// An output slot of a switch: one lane of one physical output port.
#[derive(Debug)]
pub struct OutPort {
    /// The lane this slot transmits on (None if unconnected).
    pub chan_out: Option<ChanId>,
    /// Input slot currently granted the crossbar connection.
    pub owner: Option<u8>,
    /// When this slot last began transmitting IDLE fill bytes, if it is
    /// currently doing so (used by the multicast-IDLE flush scheme).
    pub idle_since: Option<SimTime>,
    /// Flagged as carrying IDLE fill from a blocked multicast.
    pub multicast_idle: bool,
}

impl OutPort {
    pub fn new() -> Self {
        OutPort {
            chan_out: None,
            owner: None,
            idle_since: None,
            multicast_idle: false,
        }
    }
}

impl Default for OutPort {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-physical-output-port arbitration state: the input slots queued for
/// the port (input round-robin, exactly the historical policy) plus the
/// pluggable [`LaneArbiter`] that picks among its free lanes.
#[derive(Debug)]
pub struct PortArb {
    /// Input slots waiting for this physical port (worm heads blocked here).
    pub waiting: Vec<u8>,
    /// Round-robin pointer: the next arbitration starts scanning here.
    pub rr_next: u8,
    arbiter: Box<dyn LaneArbiter>,
}

impl PortArb {
    pub(crate) fn new(arbiter: Box<dyn LaneArbiter>) -> Self {
        PortArb {
            waiting: Vec::new(),
            rr_next: 0,
            arbiter,
        }
    }

    /// Pick the next waiting input slot in round-robin order (starting
    /// from `rr_next`) and remove it from the waiting list.
    pub fn arbitrate(&mut self, num_slots: u8) -> Option<u8> {
        if self.waiting.is_empty() {
            return None;
        }
        for step in 0..num_slots {
            let cand = (self.rr_next + step) % num_slots;
            if let Some(pos) = self.waiting.iter().position(|&w| w == cand) {
                self.waiting.swap_remove(pos);
                self.rr_next = (cand + 1) % num_slots;
                return Some(cand);
            }
        }
        // Waiting entries must always be valid slot indices.
        unreachable!("waiting list held an out-of-range slot");
    }

    /// Delegate a free-lane choice to the pluggable arbiter.
    pub(crate) fn pick_lane(&mut self, candidates: &[LaneCandidate], num_lanes: u8) -> usize {
        let idx = self.arbiter.pick(candidates, num_lanes);
        debug_assert!(idx < candidates.len(), "arbiter picked out of range");
        idx.min(candidates.len() - 1)
    }
}

/// A crossbar switch.
///
/// Inputs and outputs are indexed by *slot*: physical port `p`'s lanes
/// occupy the contiguous slot range `slot_of(p, 0) .. slot_of(p, lanes_of(p))`.
/// With single-lane links (the paper's Myrinet) slot indices equal
/// physical port indices and the whole layer is invisible.
#[derive(Debug)]
pub struct Switch {
    pub id: SwitchId,
    /// Input slots.
    pub inputs: Vec<InPort>,
    /// Output slots.
    pub outputs: Vec<OutPort>,
    /// Per-physical-port arbitration state.
    pub arbs: Vec<PortArb>,
    slot_base: Vec<u8>,
    slot_port: Vec<u8>,
    port_lanes: Vec<u8>,
}

impl Switch {
    pub(crate) fn new(
        id: SwitchId,
        port_lanes: &[u8],
        slack: SlackCfg,
        mut arb: impl FnMut(u8) -> Box<dyn LaneArbiter>,
    ) -> Self {
        let mut slot_base = Vec::with_capacity(port_lanes.len());
        let mut slot_port = Vec::new();
        let mut base = 0u8;
        for (p, &n) in port_lanes.iter().enumerate() {
            debug_assert!(n >= 1, "every port has at least one lane");
            slot_base.push(base);
            for _ in 0..n {
                slot_port.push(p as u8);
            }
            base += n;
        }
        let slots = slot_port.len();
        Switch {
            id,
            inputs: (0..slots).map(|_| InPort::new(slack)).collect(),
            outputs: (0..slots).map(|_| OutPort::new()).collect(),
            arbs: (0..port_lanes.len())
                .map(|p| PortArb::new(arb(p as u8)))
                .collect(),
            slot_base,
            slot_port,
            port_lanes: port_lanes.to_vec(),
        }
    }

    /// Number of physical ports.
    pub fn num_ports(&self) -> u8 {
        self.port_lanes.len() as u8
    }

    /// Number of port slots (sum of lanes over physical ports).
    pub fn num_slots(&self) -> u8 {
        self.slot_port.len() as u8
    }

    /// The slot of lane `lane` of physical port `port`.
    pub fn slot_of(&self, port: u8, lane: u8) -> u8 {
        debug_assert!(lane < self.port_lanes[port as usize]);
        self.slot_base[port as usize] + lane
    }

    /// The physical port a slot belongs to.
    pub fn port_of_slot(&self, slot: u8) -> u8 {
        self.slot_port[slot as usize]
    }

    /// Lanes of a physical port.
    pub fn lanes_of(&self, port: u8) -> u8 {
        self.port_lanes[port as usize]
    }

    /// The contiguous slot range of a physical port.
    pub fn slots_of(&self, port: u8) -> std::ops::Range<usize> {
        let b = self.slot_base[port as usize] as usize;
        b..b + self.port_lanes[port as usize] as usize
    }
}

// ---------------------------------------------------------------------------
// Switch event logic (methods on Network so it can touch channels/scheduler).
// ---------------------------------------------------------------------------

impl Network {
    /// A byte arrived at input `port` of switch `sw`.
    pub(crate) fn switch_rx_byte(&mut self, sw: SwitchId, port: u8, byte: WireByte) {
        let (occupancy, chan_in, crossed_stop, overflowed) = {
            let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
            if inp.occupancy() >= inp.slack.capacity {
                // A validated slack buffer never overflows under plain
                // backpressure; this can only happen with fault injection or
                // a misconfiguration. Count and drop.
                inp.dropped_bytes += 1;
                (inp.occupancy(), inp.chan_in, false, true)
            } else {
                inp.buf.push_back(byte);
                let occ = inp.occupancy();
                let crossed = occ >= inp.slack.stop_mark && !inp.sent_stop;
                if crossed {
                    inp.sent_stop = true;
                }
                (occ, inp.chan_in, crossed, false)
            }
        };
        debug_assert!(
            !overflowed,
            "slack buffer overflow at switch {sw:?} port {port} (occupancy {occupancy})"
        );
        // A replicating input regenerates its own IDLE fills; upstream
        // fills are dropped so they never count as body bytes.
        if matches!(byte.kind, ByteKind::Idle)
            && matches!(
                self.switches[sw.0 as usize].inputs[port as usize].state,
                InState::Replicating(_)
            )
        {
            let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
            // The byte was just pushed; remove it again.
            if matches!(inp.buf.back().map(|b| b.kind), Some(ByteKind::Idle)) {
                inp.buf.pop_back();
            }
            return;
        }
        if crossed_stop {
            if let Some(ch) = chan_in {
                self.send_ctrl(ch, CtrlSym::Stop);
            }
        }
        self.switch_advance_input(sw, port);
    }

    /// Drive the input-port state machine: parse directives at the buffer
    /// front, request outputs, and kick granted output channels.
    pub(crate) fn switch_advance_input(&mut self, sw: SwitchId, port: u8) {
        loop {
            let action = {
                let inp = &self.switches[sw.0 as usize].inputs[port as usize];
                match &inp.state {
                    InState::Idle => match inp.buf.front() {
                        None => InputAction::None,
                        Some(front) => match front.kind {
                            ByteKind::Route(RouteSym::Port(p)) => {
                                let worm = front.worm;
                                if matches!(
                                    self.worms[worm.0 as usize].meta.kind,
                                    WormKind::SwitchMulticast { .. }
                                ) {
                                    InputAction::BeginMulticastParse
                                } else {
                                    InputAction::ParseUnicast { worm, out: p }
                                }
                            }
                            ByteKind::Route(RouteSym::Broadcast) => {
                                InputAction::BeginMulticastParse
                            }
                            ByteKind::Idle => InputAction::DiscardFront,
                            other => {
                                unreachable!(
                                    "idle input saw non-route byte {other:?} at {sw:?}:{port}"
                                )
                            }
                        },
                    },
                    InState::Requesting { .. } => InputAction::None,
                    InState::Forwarding { out, .. } => InputAction::KickOut { out: *out },
                    InState::Replicating(_) => InputAction::AdvanceReplica,
                    InState::Draining { worm } => match inp.buf.front() {
                        Some(front) if front.worm == *worm => {
                            if matches!(front.kind, ByteKind::Tail) {
                                InputAction::FinishDrain
                            } else {
                                InputAction::DiscardFront
                            }
                        }
                        _ => InputAction::None,
                    },
                }
            };
            match action {
                InputAction::None => return,
                InputAction::ParseUnicast { worm, out } => {
                    {
                        let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
                        inp.buf.pop_front();
                        inp.state = InState::Requesting { worm, out };
                    }
                    if self.trace.enabled() {
                        let worm = self.worm_name(worm);
                        self.trace.push(
                            self.scheduler.now(),
                            crate::trace::TraceEvent::RouteConsumed {
                                worm,
                                switch: sw,
                                out,
                            },
                        );
                    }
                    self.after_slack_dequeue(sw, port);
                    self.switch_request_output(sw, out, port);
                    // Whether granted or queued, nothing more to parse until
                    // this worm completes.
                    return;
                }
                InputAction::BeginMulticastParse => {
                    self.switchcast_begin_parse(sw, port);
                    return;
                }
                InputAction::AdvanceReplica => {
                    self.switchcast_advance(sw, port);
                    return;
                }
                InputAction::DiscardFront => {
                    {
                        let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
                        inp.buf.pop_front();
                        inp.dropped_bytes += 1;
                    }
                    self.after_slack_dequeue(sw, port);
                    // Loop: keep examining the front.
                }
                InputAction::FinishDrain => {
                    {
                        let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
                        inp.buf.pop_front(); // the tail byte
                        inp.dropped_bytes += 1;
                        inp.state = InState::Idle;
                    }
                    self.after_slack_dequeue(sw, port);
                    // Loop: the next worm's head may already be buffered.
                }
                InputAction::KickOut { out } => {
                    let ch = self.switches[sw.0 as usize].outputs[out as usize].chan_out;
                    if let Some(ch) = ch {
                        self.kick_channel(ch);
                    }
                    return;
                }
            }
        }
    }

    /// An input slot asks for a *physical* output port. Grants a lane
    /// immediately when one is free (the [`LaneArbiter`] picks which),
    /// otherwise queues the request for round-robin arbitration.
    pub(crate) fn switch_request_output(&mut self, sw: SwitchId, out: u8, in_port: u8) {
        let granted = {
            let n = self.switches[sw.0 as usize].lanes_of(out);
            if n == 1 {
                // Single-lane fast path: the historical grant-or-queue,
                // no arbiter consultation.
                let swm = &mut self.switches[sw.0 as usize];
                let slot = swm.slot_of(out, 0);
                let outp = &mut swm.outputs[slot as usize];
                if outp.owner.is_none() {
                    outp.owner = Some(in_port);
                    Some(slot)
                } else {
                    swm.arbs[out as usize].waiting.push(in_port);
                    None
                }
            } else {
                let candidates: Vec<LaneCandidate> = {
                    let swr = &self.switches[sw.0 as usize];
                    let base = swr.slots_of(out).start;
                    swr.slots_of(out)
                        .filter_map(|s| {
                            let o = &swr.outputs[s];
                            if o.owner.is_some() {
                                return None;
                            }
                            o.chan_out.map(|ch| LaneCandidate {
                                lane: (s - base) as u8,
                                in_flight: self.lanes[ch.0 as usize].in_flight(),
                            })
                        })
                        .collect()
                };
                if candidates.is_empty() {
                    self.switches[sw.0 as usize].arbs[out as usize]
                        .waiting
                        .push(in_port);
                    None
                } else {
                    let swm = &mut self.switches[sw.0 as usize];
                    let idx = swm.arbs[out as usize].pick_lane(&candidates, n);
                    let slot = swm.slot_of(out, candidates[idx].lane);
                    swm.outputs[slot as usize].owner = Some(in_port);
                    Some(slot)
                }
            }
        };
        if let Some(out_slot) = granted {
            self.switch_grant(sw, out_slot, in_port);
        } else if self.trace.enabled() {
            if let Some((worm, cause)) = self.blocked_requester(sw, out, in_port) {
                self.trace.push(
                    self.scheduler.now(),
                    crate::trace::TraceEvent::WormBlocked { worm, cause },
                );
            }
        }
    }

    /// The worm (and block cause) behind a queued output request: a plain
    /// head waiting on a busy output, or a switchcast replica branch
    /// waiting at its branching node. `out` is the physical port — the
    /// same index on the Blocked and Resumed sides, so causes pair up.
    fn blocked_requester(
        &self,
        sw: SwitchId,
        out: u8,
        in_port: u8,
    ) -> Option<(u64, crate::trace::BlockCause)> {
        match &self.switches[sw.0 as usize].inputs[in_port as usize].state {
            InState::Requesting { worm, .. } => Some((
                self.worm_name(*worm),
                crate::trace::BlockCause::OutputBusy { switch: sw, out },
            )),
            InState::Replicating(rep) => Some((
                self.worm_name(rep.worm),
                crate::trace::BlockCause::BranchWait { switch: sw, out },
            )),
            _ => None,
        }
    }

    /// Complete a grant of output slot `out` to input slot `in_port`: flip
    /// the input to Forwarding (or mark the replica branch granted) and
    /// kick the output lane so it pulls bytes.
    fn switch_grant(&mut self, sw: SwitchId, out: u8, in_port: u8) {
        let phys = self.switches[sw.0 as usize].port_of_slot(out);
        let replicating = {
            let inp = &mut self.switches[sw.0 as usize].inputs[in_port as usize];
            match inp.state {
                InState::Requesting { worm, out: o } => {
                    debug_assert_eq!(o, phys, "granted slot belongs to the requested port");
                    inp.state = InState::Forwarding { worm, out };
                    false
                }
                InState::Replicating(_) => true,
                ref other => unreachable!("grant to input in state {other:?}"),
            }
        };
        if replicating {
            self.switchcast_granted(sw, out, in_port);
            return;
        }
        if let Some(ch) = self.switches[sw.0 as usize].outputs[out as usize].chan_out {
            self.kick_channel(ch);
        }
    }

    /// Output slot `out` finished a worm (tail went out): release the
    /// crossbar connection and arbitrate the freed lane among the physical
    /// port's waiting inputs.
    pub(crate) fn switch_release_output(&mut self, sw: SwitchId, out: u8) {
        let next = {
            let swm = &mut self.switches[sw.0 as usize];
            let phys = swm.port_of_slot(out);
            let num_slots = swm.num_slots();
            {
                let outp = &mut swm.outputs[out as usize];
                outp.owner = None;
                outp.idle_since = None;
                outp.multicast_idle = false;
            }
            match swm.arbs[phys as usize].arbitrate(num_slots) {
                Some(n) => {
                    swm.outputs[out as usize].owner = Some(n);
                    Some((n, phys))
                }
                None => None,
            }
        };
        if let Some((in_port, phys)) = next {
            if self.trace.enabled() {
                if let Some((worm, cause)) = self.blocked_requester(sw, phys, in_port) {
                    self.trace.push(
                        self.scheduler.now(),
                        crate::trace::TraceEvent::WormResumed { worm, cause },
                    );
                }
            }
            self.switch_grant(sw, out, in_port);
        }
    }

    /// Produce the next byte for the channel leaving output `out` of `sw`,
    /// or `None` if the port has nothing it can send right now.
    ///
    /// Called by the channel transmit logic. Also handles worm-tail
    /// bookkeeping: releasing the output and returning the input to Idle.
    pub(crate) fn switch_produce_byte(&mut self, sw: SwitchId, out: u8) -> Option<WireByte> {
        let owner = self.switches[sw.0 as usize].outputs[out as usize].owner?;
        // Replication has its own production path.
        if matches!(
            self.switches[sw.0 as usize].inputs[owner as usize].state,
            InState::Replicating(_)
        ) {
            return self.switchcast_produce_byte(sw, out, owner);
        }
        let (byte, finished) = {
            let inp = &mut self.switches[sw.0 as usize].inputs[owner as usize];
            match inp.state {
                InState::Forwarding { worm, out: o } if o == out => match inp.buf.front() {
                    Some(front) if front.worm == worm => {
                        let b = inp.buf.pop_front().expect("front exists");
                        let fin = matches!(b.kind, ByteKind::Tail);
                        (Some(b), fin)
                    }
                    // Head of the next worm, or empty: current worm's bytes
                    // have not arrived yet (the worm has a hole).
                    _ => (None, false),
                },
                _ => (None, false),
            }
        };
        if byte.is_some() {
            self.after_slack_dequeue(sw, owner);
        }
        if finished {
            {
                let inp = &mut self.switches[sw.0 as usize].inputs[owner as usize];
                inp.state = InState::Idle;
            }
            self.switch_release_output(sw, out);
            // The freed input may already hold the next worm's head.
            self.switch_advance_input(sw, owner);
        }
        byte
    }

    /// Span fast-path probe for the producer side of the channel leaving
    /// output `out`: the length of the run of contiguous data bytes of the
    /// forwarded worm at the owning input's buffer front, provided no
    /// byte-timed side effect (a GO emission or a STOP crossing) could occur
    /// while the run drains — those must happen at exact per-byte dequeue
    /// and arrival times, so their mere possibility disables batching for
    /// this kick.
    pub(crate) fn switch_span_ready(&self, sw: SwitchId, out: u8) -> Option<(WormId, u64)> {
        let swr = &self.switches[sw.0 as usize];
        let owner = swr.outputs[out as usize].owner?;
        let inp = &swr.inputs[owner as usize];
        let InState::Forwarding { worm, out: o } = &inp.state else {
            return None;
        };
        let worm = *worm;
        if *o != out {
            return None;
        }
        // A pending GO must go out at the exact dequeue that crosses the low
        // watermark; batching the dequeues would move it.
        if inp.sent_stop {
            return None;
        }
        // Upstream arrivals land during the drain window. Dequeues (batched
        // or per-byte) only lower occupancy, and at most one arrival per
        // byte-time can land, so `occupancy + wire_bytes` bounds occupancy
        // throughout the window in both modes; below the stop mark, neither
        // mode can emit a STOP while the run drains.
        let wire = match inp.chan_in {
            // Fed across a shard boundary: neither engine counts the cut
            // lane's occupancy, but its bytes cross per-byte and occupy
            // distinct send slots in `(now-delay, now]` at the foreign
            // transmitter, so `delay` bounds them.
            Some(c) if self.chan_src_foreign(c) => self.lanes[c.0 as usize].delay(),
            Some(c) => self.lanes[c.0 as usize].in_flight() as u64,
            None => 0,
        };
        let held = inp.occupancy() as u64 + wire;
        let run = inp.buf.front_data_run(worm);
        if run == 0
            || (held >= inp.slack.stop_mark as u64 && !self.path_absorbs(sw, out, worm, held))
        {
            return None;
        }
        Some((worm, run))
    }

    /// Whether everything `held` at an input that forwards `worm` through
    /// output `out` — its buffer plus its incoming wire — can stream on
    /// without raising a STOP anywhere downstream. A chained span (one
    /// whose path room let it exceed this input's own slack, DESIGN.md
    /// §3.1) lands more bytes than the stop mark; physically they are
    /// passing through, so the drain stays exact as long as the path ahead
    /// can take all of them. Sharded runs keep the one-hop rule.
    fn path_absorbs(&self, sw: SwitchId, out: u8, worm: WormId, held: u64) -> bool {
        if self.shard.is_some() {
            return false;
        }
        // The caller is a kick on this output's lane, so it is unstopped.
        let Some(c) = self.switches[sw.0 as usize].outputs[out as usize].chan_out else {
            return false;
        };
        let lane = &self.lanes[c.0 as usize];
        let dst = lane.dst();
        match dst.node {
            // Adapters never send STOP.
            NodeRef::Host(_) => true,
            NodeRef::Switch(next) => self
                .switch_span_room(next, dst.port.0, lane.in_flight() as u64, worm)
                .is_some_and(|room| room >= held),
        }
    }

    /// Span fast-path check for a receiving switch input: how many bytes of
    /// `worm` can land (in one event, plus everything already on the wire)
    /// while provably staying below the STOP watermark for the whole
    /// per-byte delivery window. `wire` is the byte count already in flight
    /// on the incoming channel.
    ///
    /// The room is measured along the worm's established path, not at the
    /// landing input alone: an input that forwards `worm`, with no STOP of
    /// its own in force, onto an unstopped lane passes the bytes on at one
    /// per byte-time once that lane is free. Until then it holds them: a
    /// lane whose send slots run `lag` byte-times past the first arrival
    /// (a span batch-popped earlier claimed them) piles up `lag` arrivals
    /// on top of the input's occupancy, so the input passes through only
    /// while that pile stays below its *own* stop mark. The walk steps
    /// through such inputs, charging each one's occupancy and its output
    /// lane's in-flight bytes, and stops at the first input that does not
    /// pass through. There the whole charge — every byte that could pile
    /// up behind it — must stay below its stop mark, which is the one-hop
    /// rule applied at the end of the pipeline. A path that reaches a host
    /// adapter has unlimited room: adapters never send STOP. Sharded runs
    /// (where the path may leave this shard) keep the one-hop rule.
    pub(crate) fn switch_span_room(
        &self,
        sw: SwitchId,
        port: u8,
        wire: u64,
        worm: WormId,
    ) -> Option<u64> {
        let walk = self.shard.is_none();
        let now = self.scheduler.now();
        let mut used = wire;
        let (mut sw, mut port) = (sw, port);
        loop {
            let inp = &self.switches[sw.0 as usize].inputs[port as usize];
            // With a STOP in force the per-byte GO/STOP interplay is exact;
            // stay on the slow path until it clears.
            if inp.sent_stop {
                return None;
            }
            used += inp.occupancy() as u64;
            let passing = match inp.state {
                InState::Forwarding { worm: w, out } if walk && w == worm => {
                    // No arrival lands before `now` plus the incoming delay.
                    let in_delay = inp.chan_in.map_or(0, |c| self.lanes[c.0 as usize].delay());
                    let pile = inp.occupancy() as u64 + 1;
                    self.switches[sw.0 as usize].outputs[out as usize]
                        .chan_out
                        .filter(|&c| {
                            let lane = &self.lanes[c.0 as usize];
                            let lag = lane.next_tx_time().saturating_sub(now + in_delay);
                            !lane.is_stopped() && pile + lag < inp.slack.stop_mark as u64
                        })
                }
                _ => None,
            };
            let Some(c) = passing else {
                break;
            };
            let lane = &self.lanes[c.0 as usize];
            used += lane.in_flight() as u64;
            let dst = lane.dst();
            match dst.node {
                NodeRef::Host(_) => return Some(u64::MAX),
                NodeRef::Switch(next) => (sw, port) = (next, dst.port.0),
            }
        }
        let mark = self.switches[sw.0 as usize].inputs[port as usize]
            .slack
            .stop_mark as u64;
        // Strictly below the mark even after all `used + k` bytes land at
        // the end of the path with no dequeue: occupancy can never cross it
        // in either mode.
        if used + 1 >= mark {
            None
        } else {
            Some(mark - used - 1)
        }
    }

    /// A batched run of `len` data bytes of `worm` arrived at input `port`
    /// (span-batched mode). The emission guards guarantee the run fits below
    /// the STOP watermark of the input where it will come to rest; the
    /// bytes are buffered in one go and the input state machine advances
    /// once.
    pub(crate) fn switch_rx_span(&mut self, sw: SwitchId, port: u8, worm: WormId, len: u64) {
        let (chan_in, crossed_stop) = {
            let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
            inp.buf.push_back_n(
                WireByte {
                    worm,
                    kind: ByteKind::Data,
                },
                len,
            );
            // An input that forwards the worm passes a chained span on as
            // it arrives (`switch_span_room`): the engine holds the run
            // here for an instant, but the physical buffer never does, so
            // neither the capacity nor the STOP mark applies.
            if matches!(inp.state, InState::Forwarding { worm: w, .. } if w == worm) {
                (inp.chan_in, false)
            } else {
                debug_assert!(
                    inp.occupancy() <= inp.slack.capacity,
                    "span overflows slack buffer at {sw:?}:{port}"
                );
                let crossed = inp.occupancy() >= inp.slack.stop_mark && !inp.sent_stop;
                if crossed {
                    inp.sent_stop = true;
                }
                (inp.chan_in, crossed)
            }
        };
        // The emission guard makes a crossing impossible; keep the STOP
        // behavior anyway so a guard bug degrades to legal (if no longer
        // byte-exact) backpressure rather than buffer overflow.
        debug_assert!(
            !crossed_stop,
            "span delivery crossed the STOP mark at {sw:?}:{port} — emission guard failed"
        );
        if crossed_stop {
            if let Some(ch) = chan_in {
                self.send_ctrl(ch, CtrlSym::Stop);
            }
        }
        self.switch_advance_input(sw, port);
    }

    /// Common post-dequeue bookkeeping for a switch input: send GO when the
    /// buffer has drained below the low watermark.
    pub(crate) fn after_slack_dequeue(&mut self, sw: SwitchId, port: u8) {
        let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
        if !(inp.sent_stop && inp.occupancy() <= inp.slack.go_mark) {
            return;
        }
        inp.sent_stop = false;
        if let Some(ch) = inp.chan_in {
            self.send_ctrl(ch, CtrlSym::Go);
        }
    }
}

/// Decision produced while inspecting an input port (split from the mutation
/// to keep the borrow checker happy and the state machine legible).
enum InputAction {
    None,
    ParseUnicast { worm: WormId, out: u8 },
    BeginMulticastParse,
    AdvanceReplica,
    DiscardFront,
    FinishDrain,
    KickOut { out: u8 },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_cfg_for_delay_validates() {
        for d in [1, 2, 5, 50, 1000] {
            let cfg = SlackCfg::for_delay(d);
            cfg.validate().expect("valid");
            // Room for a full STOP round-trip above the stop mark.
            assert!(cfg.capacity - cfg.stop_mark >= 2 * d as u32);
        }
    }

    #[test]
    fn slack_cfg_rejects_inverted_marks() {
        let bad = SlackCfg {
            capacity: 100,
            stop_mark: 10,
            go_mark: 20,
        };
        assert!(bad.validate().is_err());
        let bad2 = SlackCfg {
            capacity: 10,
            stop_mark: 10,
            go_mark: 2,
        };
        assert!(bad2.validate().is_err());
    }

    /// `SlackBuf` against a flat per-byte deque over a seeded random
    /// sequence of every operation the engine performs on slack buffers.
    #[test]
    fn slack_buf_matches_flat_model() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x51AC);
        let byte = |rng: &mut rand::rngs::SmallRng| WireByte {
            worm: WormId(rng.gen_range(0..3)),
            kind: match rng.gen_range(0..4) {
                0 => ByteKind::Route(RouteSym::Port(rng.gen_range(0..2))),
                1 => ByteKind::Tail,
                _ => ByteKind::Data,
            },
        };
        let mut buf = SlackBuf::default();
        let mut model: VecDeque<WireByte> = VecDeque::new();
        for step in 0..20_000 {
            match rng.gen_range(0..7) {
                0 => {
                    let b = byte(&mut rng);
                    buf.push_back(b);
                    model.push_back(b);
                }
                1 => {
                    let (b, n) = (byte(&mut rng), rng.gen_range(0..20));
                    buf.push_back_n(b, n);
                    model.extend(std::iter::repeat_n(b, n as usize));
                }
                2 => assert_eq!(buf.pop_front(), model.pop_front(), "step {step}"),
                3 => assert_eq!(buf.pop_back(), model.pop_back(), "step {step}"),
                4 => {
                    let n = rng.gen_range(0..=model.len().min(25));
                    buf.pop_front_n(n as u64);
                    model.drain(..n);
                }
                5 => {
                    // A STOP truncation: hand the tail of a drained data
                    // run back to the front.
                    let Some(&front) = model.front() else { continue };
                    let run = buf.front_data_run(front.worm);
                    let drained = rng.gen_range(0..=run);
                    buf.pop_front_n(drained);
                    model.drain(..drained as usize);
                    let revoked = rng.gen_range(0..=drained);
                    let b = WireByte {
                        worm: front.worm,
                        kind: ByteKind::Data,
                    };
                    buf.push_front_n(b, revoked);
                    for _ in 0..revoked {
                        model.push_front(b);
                    }
                }
                _ => {
                    while model.len() > 40 {
                        model.pop_front();
                        buf.pop_front();
                    }
                }
            }
            assert_eq!(buf.len(), model.len(), "step {step}");
            assert_eq!(buf.is_empty(), model.is_empty(), "step {step}");
            assert_eq!(buf.front(), model.front(), "step {step}");
            assert_eq!(buf.back(), model.back(), "step {step}");
            for (i, b) in model.iter().enumerate() {
                assert_eq!(&buf[i], b, "step {step} index {i}");
            }
            assert_eq!(buf.get(model.len()), None, "step {step}");
            for w in 0..3 {
                let worm = WormId(w);
                let data = model
                    .iter()
                    .take_while(|b| b.worm == worm && b.kind == ByteKind::Data)
                    .count() as u64;
                assert_eq!(buf.front_data_run(worm), data, "step {step} worm {w}");
                let any = model.iter().take_while(|b| b.worm == worm).count() as u64;
                assert_eq!(buf.front_worm_len(worm), any, "step {step} worm {w}");
            }
        }
    }

    fn arb() -> PortArb {
        PortArb::new(Box::new(crate::link::SeededRoundRobin::new(0)))
    }

    #[test]
    fn arbitration_is_round_robin() {
        let mut out = arb();
        out.waiting = vec![0, 2, 3];
        // rr_next starts at 0 -> grants 0, pointer moves to 1.
        assert_eq!(out.arbitrate(4), Some(0));
        assert_eq!(out.rr_next, 1);
        // Next scan starts at 1: port 1 not waiting, grants 2.
        assert_eq!(out.arbitrate(4), Some(2));
        assert_eq!(out.rr_next, 3);
        assert_eq!(out.arbitrate(4), Some(3));
        assert_eq!(out.arbitrate(4), None);
    }

    #[test]
    fn arbitration_wraps_around() {
        let mut out = arb();
        out.rr_next = 3;
        out.waiting = vec![0, 1];
        assert_eq!(out.arbitrate(4), Some(0));
        assert_eq!(out.arbitrate(4), Some(1));
    }

    #[test]
    fn slot_layout_is_contiguous_per_port() {
        let sw = Switch::new(
            SwitchId(0),
            &[1, 2, 1],
            SlackCfg::for_delay(1),
            |_| Box::new(crate::link::SeededRoundRobin::new(0)),
        );
        assert_eq!(sw.num_ports(), 3);
        assert_eq!(sw.num_slots(), 4);
        assert_eq!(sw.slot_of(0, 0), 0);
        assert_eq!(sw.slot_of(1, 0), 1);
        assert_eq!(sw.slot_of(1, 1), 2);
        assert_eq!(sw.slot_of(2, 0), 3);
        assert_eq!(sw.port_of_slot(2), 1);
        assert_eq!(sw.slots_of(1), 1..3);
        assert_eq!(sw.lanes_of(1), 2);
    }
}
