//! The discrete-event core: event type and scheduler.

use crate::link::ChanId;
use crate::time::SimTime;
use crate::wheel::TimingWheel;
use crate::worm::WireByte;
use serde::{Deserialize, Serialize};

/// Identifier of a host (adapter + attached host machine).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct HostId(pub u32);

/// Identifier of a crossbar switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct SwitchId(pub u32);

/// A control symbol travelling on the reverse channel of a link.
///
/// `Stop`/`Go` implement the backpressure protocol of the paper's Figure 1.
/// `BackwardReset` is the Myrinet `BRES` symbol, used by the switch-level
/// "multicast-IDLE flush" scheme to evict a blocked unicast worm.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CtrlSym {
    Stop,
    Go,
    BackwardReset,
}

/// Every event the simulator processes.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// The transmit side of `ch` should try to put its next byte on the wire.
    /// `gen` must match the channel's current kick generation; a mismatch
    /// means the kick belonged to a span chain cancelled by a STOP and the
    /// event is ignored (the timing wheel has no random removal).
    TxKick { ch: ChanId, gen: u32 },
    /// A byte arrives at the receive side of `ch`.
    RxByte { ch: ChanId, byte: WireByte },
    /// A batched run of data bytes arrives at the receive side of `ch`
    /// (span-batched mode). The span itself is queued on the channel.
    ///
    /// On a cut link this event plays two roles: the receive-side owner
    /// schedules it at first-byte arrival to admit (or expand) the span,
    /// and the transmit-side owner schedules it at end-of-transmission to
    /// retire its local wire-occupancy entry (see `shard.rs`).
    RxSpan { ch: ChanId },
    /// One byte of a rejected cross-shard span lands at the receive side
    /// of `ch` (sharded runs only): the span was turned back into the
    /// per-byte arrival stream it stood for, one event per wire slot.
    RxForeign { ch: ChanId },
    /// A control symbol arrives at the *transmit* side of `ch` (it travelled
    /// on the reverse channel from the receiver).
    CtrlRx { ch: ChanId, sym: CtrlSym },
    /// A protocol timer at a host fires. `token` is protocol-defined.
    HostTimer { host: HostId, token: u64 },
    /// Traffic source at `host` generates its next message.
    Inject { host: HostId },
    /// Periodic liveness check (deadlock watchdog).
    Watchdog,
    /// End of the measured run.
    Stop,
}

impl Event {
    /// Canonical same-timestamp ordering key (see DESIGN.md §3.3).
    ///
    /// Events sharing a byte-time fire in ascending key order. The key
    /// depends only on the event itself — kind, then target channel or
    /// host — never on when it was scheduled, so a sharded run (where
    /// boundary events enter the wheel at a nondeterministic wall-clock
    /// moment) replays exactly the schedule the sequential engine uses.
    ///
    /// Kind ranks: `Stop` first (a run deadline cuts off the deadline
    /// tick, as it always has), then `Watchdog`, then control symbols
    /// (STOP/GO must precede the same-tick `TxKick` they gate — the span
    /// truncation rule relies on this), then arrivals, then transmit
    /// kicks, then host-side events. Two events with equal keys target
    /// the same entity and are therefore produced by the same shard, where
    /// schedule order (the seq tie-break) is itself deterministic.
    pub fn canon_key(&self) -> u64 {
        const ID: u64 = 1 << 32;
        match *self {
            Event::Stop => 0,
            Event::Watchdog => ID - 1,
            // All control symbols for one channel are emitted by the single
            // entity at its receive side, so their same-tick relative order
            // is the emission order — preserved by the push-seq tie-break
            // both in a sequential run and through a shard mailbox (which
            // is per-sender FIFO). No per-symbol rank needed.
            Event::CtrlRx { ch, .. } => ID + ch.0 as u64,
            // An expanded foreign-span byte is *the* per-byte arrival the
            // span stood for, so it takes exactly the RxByte rank — the
            // canonical per-byte schedule's position for that wire slot.
            // The two kinds never share a (time, lane) pair: per-byte
            // boundary bytes are paced behind the span they follow.
            Event::RxByte { ch, .. } | Event::RxForeign { ch } => 4 * ID + ch.0 as u64,
            Event::RxSpan { ch } => 5 * ID + ch.0 as u64,
            Event::TxKick { ch, .. } => 6 * ID + ch.0 as u64,
            Event::HostTimer { host, .. } => 7 * ID + host.0 as u64,
            Event::Inject { host } => 8 * ID + host.0 as u64,
        }
    }
}

/// Event queue with deterministic same-time ordering.
pub struct Scheduler {
    wheel: TimingWheel<Event>,
    now: SimTime,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler {
    pub fn new() -> Self {
        Scheduler {
            wheel: TimingWheel::with_order(Event::canon_key),
            now: 0,
        }
    }

    /// Current simulation time (time of the most recently popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `ev` to fire `delay` byte-times from now.
    #[inline]
    pub fn after(&mut self, delay: SimTime, ev: Event) {
        self.wheel.push(self.now + delay, ev);
    }

    /// Schedule `ev` at the absolute time `at` (must not be in the past).
    #[inline]
    pub fn at(&mut self, at: SimTime, ev: Event) {
        self.wheel.push(at.max(self.now), ev);
    }

    /// Pop the next event, advancing the clock.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (t, ev) = self.wheel.pop()?;
        self.now = t;
        Some((t, ev))
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.wheel.len()
    }

    /// Total events ever scheduled (engine cost metric).
    pub fn events_scheduled(&self) -> u64 {
        self.wheel.pushed()
    }

    /// Total events ever dispatched.
    pub fn events_fired(&self) -> u64 {
        self.wheel.popped()
    }

    /// Timestamp of the next pending event, if any. O(1): backed by the
    /// wheel's slot-occupancy bitmap, so deadline checks and watchdogs may
    /// call this freely even when the schedule is sparse.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_orders_events() {
        let mut s = Scheduler::new();
        s.after(10, Event::Watchdog);
        s.after(1, Event::Stop);
        let (t1, e1) = s.pop().unwrap();
        assert_eq!(t1, 1);
        assert!(matches!(e1, Event::Stop));
        assert_eq!(s.now(), 1);
        let (t2, e2) = s.pop().unwrap();
        assert_eq!(t2, 10);
        assert!(matches!(e2, Event::Watchdog));
    }

    #[test]
    fn same_time_fifo() {
        let mut s = Scheduler::new();
        s.after(5, Event::Inject { host: HostId(1) });
        s.after(5, Event::Inject { host: HostId(2) });
        match s.pop().unwrap().1 {
            Event::Inject { host } => assert_eq!(host, HostId(1)),
            other => panic!("unexpected {other:?}"),
        }
        match s.pop().unwrap().1 {
            Event::Inject { host } => assert_eq!(host, HostId(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn absolute_scheduling_clamps_to_now() {
        let mut s = Scheduler::new();
        s.after(10, Event::Stop);
        s.pop().unwrap();
        assert_eq!(s.now(), 10);
        // Absolute time in the past is clamped to now rather than panicking.
        s.at(3, Event::Watchdog);
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, 10);
    }
}
