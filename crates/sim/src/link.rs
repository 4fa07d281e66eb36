//! Links, lanes and the typed lane-port API.
//!
//! A physical Myrinet link is full duplex: data bytes flow one way while
//! control symbols (`STOP`, `GO`, ...) are interleaved on the opposite
//! direction. The simulator models each direction as a [`Link`] owning one
//! or more [`Lane`]s. A lane is the unit the engine schedules: it carries
//! its own occupancy, STOP/GO state, in-flight span ring and stall
//! accounting, and moves at most one byte per byte-time, delivering it
//! `delay` byte-times later. Propagation delay is expressed in byte-times
//! (the paper's shufflenet experiment uses 1000 byte-time links).
//!
//! The paper's fabric is single-lane; multi-lane links (virtual channels in
//! the NoC literature, "lanes" in Stergiou's multi-lane MIN study) are a
//! pure capacity extension: every lane behaves exactly like a single-lane
//! link, and a fabric built with one lane per link is byte-for-byte the
//! paper's fabric.
//!
//! # The narrow surface
//!
//! [`Lane`] exposes **no public mutable fields**. Switch, adapter and
//! engine code goes through a ready/valid-style surface:
//!
//! - `Lane::try_send` — put a byte (or a span) on the wire, respecting
//!   pacing and STOP (crate-internal);
//! - `Lane::deliver` / `Lane::deliver_span` — take an arrival off the wire
//!   (crate-internal);
//! - [`Lane::stop`] / [`Lane::go`] — flow-control state changes (with
//!   stall-interval accounting built in).
//!
//! Everything else is read-only accessors and the [`LinkStats`] snapshot.
//!
//! # Identity scheme
//!
//! [`ChanId`] remains the flat, dense per-lane identity the timing wheel,
//! span fast path, sharded mailboxes and trace schema key on. A directed
//! link's lanes occupy a contiguous `ChanId` range (`Link::lane_ids`);
//! lane `i` of the forward direction pairs with lane `i` of the backward
//! direction via [`Lane::rev`]. With one lane per link the numbering is
//! exactly the historical single-channel numbering.

use crate::engine::{HostId, SwitchId};
use crate::time::SimTime;
use crate::worm::WormId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Index of a directed lane in the network (dense across all links).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChanId(pub u32);

/// Index of a directed [`Link`] in the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// A port number on a node, as named by route bytes and fabric specs.
///
/// Serializes transparently as the underlying `u8`, so fabric-spec JSON is
/// unchanged from the raw-`u8` era.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize,
)]
pub struct PortId(pub u8);

impl PortId {
    /// The raw port index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PortId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A node reference: either a crossbar switch or a host adapter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum NodeRef {
    Switch(SwitchId),
    Host(HostId),
}

/// One end of a lane: a port *slot* on a node. Host adapters have a single
/// network port (slot 0). On a switch, slots enumerate `(physical port,
/// lane)` pairs in port-major order — with single-lane links the slot index
/// *is* the physical port number. The physical ports of the underlying
/// link are reported by [`Link`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Endpoint {
    pub node: NodeRef,
    pub port: PortId,
}

/// A batched run of contiguous data bytes of one worm in flight on a
/// lane (span-batched mode). Byte `j` of the span conceptually occupies
/// the wire slot at `start + j`; the whole run is delivered by a single
/// `RxSpan` event at `start + delay`.
#[derive(Clone, Copy, Debug)]
pub struct SpanInFlight {
    pub worm: WormId,
    /// Time the first byte of the span was put on the wire.
    pub start: SimTime,
    /// Number of data bytes in the span. A STOP truncation may cut this
    /// back (possibly to the bytes already past the transmitter); the entry
    /// stays queued so it pairs up with its already-scheduled `RxSpan`.
    pub len: u64,
}

/// Read-only counter snapshot of one lane, for statistics consumers.
/// Obtain with [`Lane::stats`].
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct LinkStats {
    /// Total data bytes carried.
    pub bytes_carried: u64,
    /// Total IDLE fill bytes carried (wasted bandwidth, Section 3).
    pub idles_carried: u64,
    /// Number of STOP intervals that began on this lane.
    pub stalls: u64,
    /// Accumulated byte-times spent under STOP (closed intervals only; use
    /// [`Lane::stall_time`] to include a still-open interval).
    pub stall_total: SimTime,
    /// Bytes currently in flight on the wire.
    pub in_flight: u32,
    /// True while a STOP from downstream is in force.
    pub stopped: bool,
}

/// Transmit-side state of one directed lane.
///
/// All fields are private: mutation goes through `try_send` / `deliver` /
/// `deliver_span` / [`Lane::stop`] / [`Lane::go`], reads through the
/// accessors below.
#[derive(Clone, Debug)]
pub struct Lane {
    id: ChanId,
    src: Endpoint,
    dst: Endpoint,
    /// Propagation delay in byte-times (≥ 1).
    delay: SimTime,
    /// The paired lane in the opposite direction.
    rev: ChanId,
    /// The directed link this lane belongs to.
    link: LinkId,
    /// This lane's index within its link (0-based).
    lane: u8,
    /// True while a `STOP` from downstream is in force.
    stopped: bool,
    /// True while a `TxKick` event is pending for this lane — guards
    /// against duplicate kicks.
    tx_active: bool,
    /// Earliest time the next byte may be put on the wire.
    next_tx_time: SimTime,
    /// Bytes currently in flight on the wire (sent, not yet received).
    in_flight: u32,
    /// Total data bytes carried (for utilization statistics).
    bytes_carried: u64,
    /// Total IDLE fill bytes carried (wasted bandwidth, Section 3).
    idles_carried: u64,
    /// When the current STOP interval began, if one is in force.
    stalled_since: Option<SimTime>,
    /// Accumulated byte-times spent under STOP (closed intervals only; an
    /// open interval is accounted by [`Lane::stall_time`]).
    stall_total: SimTime,
    /// Number of STOP intervals that began on this lane.
    stalls: u64,
    /// Batched byte runs currently on the wire, in send order
    /// (span-batched mode only; empty in per-byte mode).
    spans: VecDeque<SpanInFlight>,
    /// Kick generation: bumped when a STOP truncates an in-flight span so
    /// the span chain's already-scheduled end-of-span `TxKick` is ignored.
    kick_gen: u32,
    /// Receive-side owner of a cut lane only: the send-slot cutoff implied
    /// by the newest STOP this side emitted — a span's bytes at slots
    /// `>= cutoff` were revoked at the (foreign) transmitter. 0 = never
    /// stopped; monotone (a fresh STOP can only raise it).
    foreign_stop_cutoff: SimTime,
    /// Receive-side owner of a cut lane only: rejected optimistic spans
    /// being re-expanded into their per-byte arrival stream, in wire order.
    foreign_runs: VecDeque<ForeignRun>,
}

/// A rejected cross-shard span being expanded back into per-byte arrivals
/// at the receive-side owner: bytes at wire slots `next .. end` are still
/// owed (one `Event::RxForeign` each).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ForeignRun {
    pub(crate) worm: WormId,
    /// Arrival slot of the next owed byte.
    pub(crate) next: SimTime,
    /// One past the last arrival slot (clamped when a STOP revokes the
    /// span's unsent tail at the transmitter).
    pub(crate) end: SimTime,
}

impl Lane {
    pub(crate) fn new(
        id: ChanId,
        src: Endpoint,
        dst: Endpoint,
        delay: SimTime,
        rev: ChanId,
        link: LinkId,
        lane: u8,
    ) -> Self {
        // Zero delays are rejected up front with a typed
        // `ConfigError::ZeroDelay` by `Network::try_build`.
        debug_assert!(delay >= 1, "lane delay must be at least one byte-time");
        Lane {
            id,
            src,
            dst,
            delay,
            rev,
            link,
            lane,
            stopped: false,
            tx_active: false,
            next_tx_time: 0,
            in_flight: 0,
            bytes_carried: 0,
            idles_carried: 0,
            stalled_since: None,
            stall_total: 0,
            stalls: 0,
            // Pre-size the in-flight span ring: `SpanInFlight` is `Copy`,
            // so with capacity in hand the steady-state span path performs
            // no allocator calls (a lane rarely carries more than a couple
            // of outstanding spans at once).
            spans: VecDeque::with_capacity(8),
            kick_gen: 0,
            foreign_stop_cutoff: 0,
            foreign_runs: VecDeque::new(),
        }
    }

    // -- read accessors ------------------------------------------------------

    #[inline]
    pub fn id(&self) -> ChanId {
        self.id
    }

    #[inline]
    pub fn src(&self) -> Endpoint {
        self.src
    }

    #[inline]
    pub fn dst(&self) -> Endpoint {
        self.dst
    }

    /// Propagation delay in byte-times.
    #[inline]
    pub fn delay(&self) -> SimTime {
        self.delay
    }

    /// The paired lane in the opposite direction.
    #[inline]
    pub fn rev(&self) -> ChanId {
        self.rev
    }

    /// The directed link this lane belongs to.
    #[inline]
    pub fn link(&self) -> LinkId {
        self.link
    }

    /// This lane's index within its link (0-based).
    #[inline]
    pub fn lane_index(&self) -> u8 {
        self.lane
    }

    /// True while a STOP from downstream is in force.
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Bytes currently in flight on the wire.
    #[inline]
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Transmit side: bytes of an in-flight span whose per-byte send
    /// slots are still in the future. A span emission batch-pops its
    /// whole run from the producer's buffer at emission time, while the
    /// per-byte twin dequeues one byte per send slot — until the span's
    /// last slot passes, the producer's per-byte-equivalent occupancy
    /// exceeds its local one by up to this amount. (A STOP truncation
    /// rewinds `next_tx_time`, relinquishing the revoked slots.)
    #[inline]
    pub(crate) fn drain_advance(&self, now: SimTime) -> u64 {
        self.next_tx_time.saturating_sub(now + 1)
    }

    /// Counter snapshot for statistics consumers.
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            bytes_carried: self.bytes_carried,
            idles_carried: self.idles_carried,
            stalls: self.stalls,
            stall_total: self.stall_total,
            in_flight: self.in_flight,
            stopped: self.stopped,
        }
    }

    /// Total byte-times this lane has spent under STOP, up to `now`
    /// (includes the still-open interval, if any).
    pub fn stall_time(&self, now: SimTime) -> SimTime {
        self.stall_total
            + self
                .stalled_since
                .map_or(0, |since| now.saturating_sub(since))
    }

    /// Fraction of the elapsed run this lane spent stalled by STOP
    /// backpressure.
    pub fn stall_fraction(&self, elapsed: SimTime) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.stall_time(elapsed) as f64 / elapsed as f64
        }
    }

    /// Lane utilization over `elapsed` byte-times (data bytes only).
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.bytes_carried as f64 / elapsed as f64
        }
    }

    // -- flow control --------------------------------------------------------

    /// A STOP from downstream takes effect: block transmission and open a
    /// stall interval (idempotent while already stopped).
    pub fn stop(&mut self, now: SimTime) {
        self.stopped = true;
        // Stall-interval accounting runs whether or not tracing is on;
        // STOP/GO symbols are rare relative to bytes.
        if self.stalled_since.is_none() {
            self.stalled_since = Some(now);
            self.stalls += 1;
        }
    }

    /// A GO from downstream takes effect: unblock transmission and close
    /// the open stall interval. The caller re-kicks the lane.
    pub fn go(&mut self, now: SimTime) {
        self.stopped = false;
        if let Some(since) = self.stalled_since.take() {
            self.stall_total += now - since;
        }
    }

    // -- the wire -------------------------------------------------------------

    /// Try to put `payload` on the wire at `now`. Fails (returns `None`)
    /// when a STOP is in force or the lane is still pacing a previous byte.
    /// On success the lane's occupancy, pacing and carried-byte counters are
    /// updated; the caller schedules the arrival at `SendTicket::deliver_at`.
    ///
    /// `count_in_flight` is false only for cross-shard sends, where the
    /// receive-side owner keeps the occupancy (see `shard.rs`).
    pub(crate) fn try_send(
        &mut self,
        now: SimTime,
        payload: TxPayload,
        count_in_flight: bool,
    ) -> Option<SendTicket> {
        if self.stopped || now < self.next_tx_time {
            return None;
        }
        match payload {
            TxPayload::Data => {
                if count_in_flight {
                    self.in_flight += 1;
                }
                self.bytes_carried += 1;
                self.next_tx_time = now + 1;
            }
            TxPayload::Idle => {
                if count_in_flight {
                    self.in_flight += 1;
                }
                self.idles_carried += 1;
                self.next_tx_time = now + 1;
            }
            TxPayload::Span { worm, len } => {
                // Spans cross shard boundaries with `count_in_flight` true:
                // the transmit-side copy tracks wire occupancy until the
                // end-of-transmission retirement event (network.rs).
                self.in_flight += len as u32;
                self.bytes_carried += len;
                self.next_tx_time = now + len;
                self.spans.push_back(SpanInFlight {
                    worm,
                    start: now,
                    len,
                });
            }
        }
        Some(SendTicket {
            deliver_at: now + self.delay,
            gen: self.kick_gen,
        })
    }

    /// One byte arrived: drop it from the wire occupancy and return where
    /// it lands. `counted_in_flight` is false for bytes sent by a foreign
    /// shard (they never incremented the local occupancy).
    #[inline]
    pub(crate) fn deliver(&mut self, counted_in_flight: bool) -> Endpoint {
        if counted_in_flight {
            self.in_flight -= 1;
        }
        self.dst
    }

    /// The oldest in-flight span arrived: dequeue it (spans and single
    /// bytes share FIFO wire order) and return it together with the
    /// landing endpoint.
    #[inline]
    pub(crate) fn deliver_span(&mut self) -> (Endpoint, SpanInFlight) {
        let span = self.spans.pop_front().expect("RxSpan without queued span");
        self.in_flight -= span.len as u32;
        (self.dst, span)
    }

    // -- crate-internal engine surface ---------------------------------------

    /// Reserve the pending-kick slot: returns the time and generation the
    /// kick must be scheduled with, or `None` when a kick is already
    /// pending or a STOP is in force.
    #[inline]
    pub(crate) fn arm_kick(&mut self, now: SimTime) -> Option<(SimTime, u32)> {
        if self.tx_active || self.stopped {
            return None;
        }
        self.tx_active = true;
        Some((self.next_tx_time.max(now), self.kick_gen))
    }

    /// Whether a kick carrying `gen` is still current (STOP truncation
    /// invalidates older generations).
    #[inline]
    pub(crate) fn kick_is_current(&self, gen: u32) -> bool {
        gen == self.kick_gen
    }

    /// The transmit side went idle: no follow-up kick is pending.
    #[inline]
    pub(crate) fn set_tx_idle(&mut self) {
        self.tx_active = false;
    }

    /// Cut the newest in-flight span back to its already-sent prefix (a
    /// STOP took effect at `now`). Returns the worm and the number of
    /// revoked bytes the caller must hand back to the producer, or `None`
    /// if nothing was still sending. Cancels the pending end-of-span kick
    /// by bumping the generation.
    pub(crate) fn truncate_newest_span(&mut self, now: SimTime) -> Option<(WormId, u64)> {
        debug_assert!(
            self.spans.iter().rev().skip(1).all(|s| s.start + s.len <= now),
            "only the newest span can still be sending"
        );
        let span = self.spans.back_mut()?;
        if span.start + span.len <= now {
            return None;
        }
        let sent = (now - span.start).max(1).min(span.len);
        let revoked = span.len - sent;
        span.len = sent;
        if revoked == 0 {
            return None;
        }
        let worm = span.worm;
        self.in_flight -= revoked as u32;
        self.bytes_carried -= revoked;
        self.next_tx_time = now;
        // Cancel the pending end-of-span kick; the GO that lifts this
        // STOP will start a fresh chain at `next_tx_time`.
        self.kick_gen = self.kick_gen.wrapping_add(1);
        self.tx_active = false;
        Some((worm, revoked))
    }

    // -- cross-shard span protocol (DESIGN.md §3.4) --------------------------

    /// Receive-side owner of a cut lane: an optimistic span arrived from
    /// the foreign transmitter. Queued in wire order (the mailbox is FIFO)
    /// and counted in this copy's `in_flight` until delivery.
    pub(crate) fn enqueue_foreign_span(&mut self, span: SpanInFlight) {
        self.in_flight += span.len as u32;
        self.spans.push_back(span);
    }

    /// Receive-side owner of a cut lane emitted a STOP at `now`: it lands
    /// at the foreign transmitter at `now + delay`, which truncates any
    /// span still sending there. Record that cutoff (monotone — spans
    /// emitted after the matching GO start later than any cutoff) and clamp
    /// the active expansion runs: the transmitter physically sent only the
    /// bytes before the cutoff, so arrivals end at `cutoff + delay`.
    pub(crate) fn note_foreign_stop(&mut self, now: SimTime) {
        let cutoff = now + self.delay;
        debug_assert!(cutoff >= self.foreign_stop_cutoff, "clock runs forward");
        self.foreign_stop_cutoff = cutoff;
        let arrivals_end = cutoff + self.delay;
        for run in &mut self.foreign_runs {
            run.end = run.end.min(arrivals_end);
        }
    }

    /// Truncate the just-arriving foreign span (queue front) against the
    /// recorded STOP cutoff, mirroring exactly the truncation the foreign
    /// transmitter performed on its copy: bytes at send slots `>= cutoff`
    /// never went on the wire. Returns the revoked byte count.
    pub(crate) fn truncate_arriving_foreign_span(&mut self) -> u64 {
        let cutoff = self.foreign_stop_cutoff;
        let Some(span) = self.spans.front_mut() else {
            return 0;
        };
        if cutoff <= span.start || span.start + span.len <= cutoff {
            return 0;
        }
        // `cutoff > start` (a span can never start at its own STOP-arrival
        // slot: the STOP precedes the same-tick kick), so the transmitter's
        // `sent = (cutoff - start).max(1)` is exactly `cutoff - start`.
        let sent = cutoff - span.start;
        let revoked = span.len - sent;
        span.len = sent;
        self.in_flight -= revoked as u32;
        revoked
    }

    /// Worm carried by the oldest in-flight span, if any (trace
    /// attribution for receive-side truncation).
    pub(crate) fn front_span_worm(&self) -> Option<crate::worm::WormId> {
        self.spans.front().map(|s| s.worm)
    }

    pub(crate) fn push_foreign_run(&mut self, run: ForeignRun) {
        self.foreign_runs.push_back(run);
    }

    pub(crate) fn foreign_run_front(&self) -> Option<ForeignRun> {
        self.foreign_runs.front().copied()
    }

    pub(crate) fn foreign_run_front_mut(&mut self) -> Option<&mut ForeignRun> {
        self.foreign_runs.front_mut()
    }

    pub(crate) fn pop_foreign_run(&mut self) {
        self.foreign_runs.pop_front();
    }

    /// Receive-side owner of a cut lane: bytes are still on the wire or
    /// mid-expansion — the upstream starvation a deadlock probe sees is
    /// transit latency, not a genuine wait.
    pub(crate) fn has_foreign_in_transit(&self) -> bool {
        !self.spans.is_empty() || !self.foreign_runs.is_empty()
    }

    /// Receive-side owner of a cut lane: bytes the foreign transmitter
    /// still owes this copy beyond the per-byte pacing bound — queued
    /// optimistic spans (the only contribution to this copy's
    /// `in_flight`) plus the un-expanded remainder of rejected runs. An
    /// optimistic span occupies send slots reaching into the
    /// transmitter's future, so unlike paced per-byte traffic these are
    /// not bounded by the wire delay.
    pub(crate) fn foreign_span_backlog(&self) -> u64 {
        self.in_flight as u64
            + self
                .foreign_runs
                .iter()
                .map(|r| r.end.saturating_sub(r.next))
                .sum::<u64>()
    }
}

/// Confirmation of a successful `Lane::try_send`: when the payload
/// lands and which kick generation a follow-up `TxKick` must carry.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SendTicket {
    /// Arrival time at the receive side (`now + delay`).
    pub deliver_at: SimTime,
    /// Kick generation current at send time.
    pub gen: u32,
}

/// What a single `Lane::try_send` puts on the wire.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TxPayload {
    /// One data byte.
    Data,
    /// One IDLE fill byte (counted as wasted bandwidth).
    Idle,
    /// A contiguous run of `len` data bytes of `worm`, moved as one span
    /// (span-batched mode).
    Span { worm: WormId, len: u64 },
}

// ---------------------------------------------------------------------------
// Links
// ---------------------------------------------------------------------------

/// A directed link: the bundle of [`Lane`]s connecting one transmit
/// endpoint to one receive endpoint. The link records the *physical* ports
/// of its endpoints (as a fabric spec names them); its lanes occupy the
/// contiguous `ChanId` range returned by [`Link::lane_ids`]. Lane storage
/// itself lives in the network's dense lane slab so `ChanId` stays a flat
/// index — ask the network for `link_lanes(id)` to borrow them.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    id: LinkId,
    src: NodeRef,
    dst: NodeRef,
    /// Physical transmit-side port.
    src_port: PortId,
    /// Physical receive-side port.
    dst_port: PortId,
    delay: SimTime,
    first_lane: ChanId,
    num_lanes: u8,
}

impl Link {
    pub(crate) fn new(
        id: LinkId,
        src: (NodeRef, PortId),
        dst: (NodeRef, PortId),
        delay: SimTime,
        first_lane: ChanId,
        num_lanes: u8,
    ) -> Self {
        Link {
            id,
            src: src.0,
            dst: dst.0,
            src_port: src.1,
            dst_port: dst.1,
            delay,
            first_lane,
            num_lanes,
        }
    }

    #[inline]
    pub fn id(&self) -> LinkId {
        self.id
    }

    #[inline]
    pub fn src(&self) -> NodeRef {
        self.src
    }

    #[inline]
    pub fn dst(&self) -> NodeRef {
        self.dst
    }

    /// Physical transmit-side port (as the fabric spec names it).
    #[inline]
    pub fn src_port(&self) -> PortId {
        self.src_port
    }

    /// Physical receive-side port.
    #[inline]
    pub fn dst_port(&self) -> PortId {
        self.dst_port
    }

    #[inline]
    pub fn delay(&self) -> SimTime {
        self.delay
    }

    #[inline]
    pub fn num_lanes(&self) -> u8 {
        self.num_lanes
    }

    /// The contiguous `ChanId` range of this link's lanes.
    pub fn lane_ids(&self) -> impl Iterator<Item = ChanId> {
        let base = self.first_lane.0;
        (base..base + self.num_lanes as u32).map(ChanId)
    }

    /// The `ChanId` of lane `i` of this link.
    #[inline]
    pub fn lane_id(&self, i: u8) -> ChanId {
        debug_assert!(i < self.num_lanes);
        ChanId(self.first_lane.0 + i as u32)
    }
}

// ---------------------------------------------------------------------------
// Lane arbitration
// ---------------------------------------------------------------------------

/// One selectable output lane, offered to a [`LaneArbiter`].
#[derive(Clone, Copy, Debug)]
pub struct LaneCandidate {
    /// Lane index within the physical port (0-based).
    pub lane: u8,
    /// Bytes currently in flight on that lane's outgoing channel.
    pub in_flight: u32,
}

/// Picks which free lane of a physical output port a granted worm binds
/// to.
///
/// # Contract
///
/// `pick` is called with a non-empty candidate list (the *free* lanes of
/// one physical port, in ascending lane order) and must return an index
/// into that list. Implementations must be deterministic — the simulator's
/// replay guarantees extend through the arbiter — and must not assume all
/// lanes of the port are present (busy lanes are filtered out). With a
/// single candidate every conforming arbiter picks it, which is how a
/// single-lane fabric degenerates to the historical behavior.
pub trait LaneArbiter: Send + std::fmt::Debug {
    fn pick(&mut self, candidates: &[LaneCandidate], num_lanes: u8) -> usize;
}

/// Selects lanes round-robin by lane index, starting from a seeded offset.
#[derive(Clone, Debug)]
pub struct SeededRoundRobin {
    next: u8,
}

impl SeededRoundRobin {
    pub fn new(seed: u64) -> Self {
        SeededRoundRobin {
            next: (seed % 251) as u8,
        }
    }
}

impl LaneArbiter for SeededRoundRobin {
    fn pick(&mut self, candidates: &[LaneCandidate], num_lanes: u8) -> usize {
        debug_assert!(!candidates.is_empty());
        let n = num_lanes.max(1);
        for step in 0..n {
            let want = (self.next.wrapping_add(step)) % n;
            if let Some(pos) = candidates.iter().position(|c| c.lane == want) {
                self.next = (want + 1) % n;
                return pos;
            }
        }
        // Candidates are always lanes of this port.
        unreachable!("candidate list held an out-of-range lane");
    }
}

/// Selects the free lane with the fewest bytes in flight (ties broken by
/// lowest lane index).
#[derive(Clone, Debug, Default)]
pub struct LeastOccupied;

impl LaneArbiter for LeastOccupied {
    fn pick(&mut self, candidates: &[LaneCandidate], _num_lanes: u8) -> usize {
        debug_assert!(!candidates.is_empty());
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            let b = &candidates[best];
            if (c.in_flight, c.lane) < (b.in_flight, b.lane) {
                best = i;
            }
        }
        best
    }
}

/// Serializable arbiter selection, configured via
/// `NetworkConfig::builder().arbiter(...)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum LaneArbiterKind {
    /// [`SeededRoundRobin`] (the default).
    #[default]
    RoundRobin,
    /// [`LeastOccupied`].
    LeastOccupied,
}

impl LaneArbiterKind {
    /// Instantiate the arbiter for one physical output port. `stream`
    /// decorrelates the round-robin starting offsets of different ports
    /// under one master seed.
    pub fn instantiate(self, seed: u64, stream: u64) -> Box<dyn LaneArbiter> {
        match self {
            LaneArbiterKind::RoundRobin => Box::new(SeededRoundRobin::new(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(stream),
            )),
            LaneArbiterKind::LeastOccupied => Box::new(LeastOccupied),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(port: u8) -> Endpoint {
        Endpoint {
            node: NodeRef::Switch(SwitchId(0)),
            port: PortId(port),
        }
    }

    fn lane() -> Lane {
        Lane::new(ChanId(0), ep(0), ep(1), 1, ChanId(1), LinkId(0), 0)
    }

    #[test]
    fn utilization_of_idle_lane_is_zero() {
        let l = lane();
        assert_eq!(l.utilization(1000), 0.0);
        assert_eq!(l.utilization(0), 0.0);
        assert_eq!(l.stats().bytes_carried, 0);
    }

    #[test]
    fn stall_accounting_covers_open_intervals() {
        let mut l = lane();
        assert_eq!(l.stall_time(100), 0);
        l.stop(20);
        l.go(50); // closed interval: 30 byte-times
        assert_eq!(l.stall_time(100), 30);
        l.stop(80); // open interval: 20 more at t=100
        assert_eq!(l.stall_time(100), 50);
        assert!((l.stall_fraction(100) - 0.5).abs() < 1e-12);
        assert_eq!(l.stall_fraction(0), 0.0);
        assert_eq!(l.stats().stalls, 2);
    }

    #[test]
    fn stop_is_idempotent_within_an_interval() {
        let mut l = lane();
        l.stop(10);
        l.stop(15); // re-delivered STOP must not open a second interval
        assert_eq!(l.stats().stalls, 1);
        l.go(20);
        assert_eq!(l.stall_time(20), 10);
    }

    #[test]
    fn try_send_counts_data_and_idle_separately() {
        let mut l = lane();
        let t = l.try_send(5, TxPayload::Data, true).expect("lane free");
        assert_eq!(t.deliver_at, 6);
        l.try_send(6, TxPayload::Idle, true).expect("lane free");
        let s = l.stats();
        assert_eq!((s.bytes_carried, s.idles_carried, s.in_flight), (1, 1, 2));
        // Pacing: a second byte in the same byte-time is refused.
        assert!(l.try_send(6, TxPayload::Data, true).is_none());
        assert!(l.try_send(7, TxPayload::Data, true).is_some());
    }

    #[test]
    fn stopped_lane_refuses_sends_but_not_siblings() {
        let mut a = lane();
        let mut b = Lane::new(ChanId(2), ep(0), ep(1), 1, ChanId(3), LinkId(0), 1);
        a.stop(10);
        assert!(a.try_send(10, TxPayload::Data, true).is_none());
        // Per-lane STOP isolation: the sibling lane is unaffected.
        assert!(b.try_send(10, TxPayload::Data, true).is_some());
        a.go(12);
        assert!(a.try_send(12, TxPayload::Data, true).is_some());
    }

    #[test]
    fn span_send_and_deliver_roundtrip() {
        let mut l = Lane::new(ChanId(0), ep(0), ep(1), 3, ChanId(1), LinkId(0), 0);
        let worm = WormId(7);
        let t = l
            .try_send(10, TxPayload::Span { worm, len: 5 }, true)
            .expect("lane free");
        assert_eq!(t.deliver_at, 13);
        assert_eq!(l.in_flight(), 5);
        assert!(l.try_send(14, TxPayload::Data, true).is_none());
        let (dst, span) = l.deliver_span();
        assert_eq!(dst.port, PortId(1));
        assert_eq!((span.worm, span.start, span.len), (worm, 10, 5));
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn truncation_revokes_unsent_span_bytes() {
        let mut l = Lane::new(ChanId(0), ep(0), ep(1), 2, ChanId(1), LinkId(0), 0);
        let worm = WormId(3);
        l.try_send(10, TxPayload::Span { worm, len: 8 }, true)
            .expect("lane free");
        // STOP lands at t=13: bytes at slots 10..13 (3 of them) are out.
        let (w, revoked) = l.truncate_newest_span(13).expect("still sending");
        assert_eq!((w, revoked), (worm, 5));
        assert_eq!(l.in_flight(), 3);
        assert_eq!(l.stats().bytes_carried, 3);
        // The old span chain's kick is cancelled.
        assert!(!l.kick_is_current(0));
        // Nothing left to truncate.
        assert!(l.truncate_newest_span(14).is_none());
    }

    #[test]
    fn link_lane_ids_are_contiguous() {
        let link = Link::new(
            LinkId(2),
            (NodeRef::Switch(SwitchId(0)), PortId(3)),
            (NodeRef::Switch(SwitchId(1)), PortId(0)),
            4,
            ChanId(10),
            3,
        );
        let ids: Vec<u32> = link.lane_ids().map(|c| c.0).collect();
        assert_eq!(ids, vec![10, 11, 12]);
        assert_eq!(link.lane_id(2), ChanId(12));
        assert_eq!(link.num_lanes(), 3);
    }

    #[test]
    fn round_robin_arbiter_cycles_lanes() {
        let mut arb = SeededRoundRobin::new(0);
        let all = [
            LaneCandidate { lane: 0, in_flight: 0 },
            LaneCandidate { lane: 1, in_flight: 0 },
            LaneCandidate { lane: 2, in_flight: 0 },
        ];
        let picks: Vec<u8> = (0..6).map(|_| all[arb.pick(&all, 3)].lane).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // Busy lanes are simply absent: the cursor skips over them.
        let partial = [LaneCandidate { lane: 2, in_flight: 0 }];
        assert_eq!(arb.pick(&partial, 3), 0);
        assert_eq!(all[arb.pick(&all, 3)].lane, 0);
    }

    #[test]
    fn least_occupied_arbiter_prefers_emptier_lane() {
        let mut arb = LeastOccupied;
        let cands = [
            LaneCandidate { lane: 0, in_flight: 9 },
            LaneCandidate { lane: 1, in_flight: 2 },
            LaneCandidate { lane: 2, in_flight: 2 },
        ];
        // Lane 1 wins: fewest in flight, ties broken by lowest lane.
        assert_eq!(arb.pick(&cands, 3), 1);
        let single = [LaneCandidate { lane: 2, in_flight: 100 }];
        assert_eq!(arb.pick(&single, 3), 0);
    }
}
