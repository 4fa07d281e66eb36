//! Per-worm lifecycle tracing.
//!
//! When a [`TraceConfig`] other than [`TraceConfig::Off`] is selected (via
//! [`crate::config::NetworkConfigBuilder::trace`]), the network records a
//! structured timeline of every worm's life: injection, route-byte
//! consumption at each switch, blocking (with the cause: STOP backpressure,
//! a busy crossbar output, a switchcast branch wait), resumption, fragment
//! park/resume (the V2 interrupt/resume scheme), Backward-Reset flushes
//! (V3), reception, refusal, corruption, and application delivery — plus
//! the channel-level STOP/GO timeline.
//!
//! # Determinism guarantee
//!
//! The thirteen *lifecycle* events above are a pure function of seed and
//! configuration, identical under [`crate::network::SimMode::PerByte`] and
//! [`crate::network::SimMode::SpanBatched`]: spans carry only body (Data)
//! bytes of a single worm, so route parsing, admission, completion and
//! delivery stay per-byte-exact, and the span emission guards
//! (`switch_span_ready` / `switch_span_room`) keep every slack buffer on
//! the span's path strictly below the STOP watermark with no GO owed for
//! the whole drain window, so the STOP/GO timeline cannot differ either. Under
//! `SpanBatched` the trace *additionally* records span-level engine
//! events ([`TraceEvent::SpanEmitted`] and friends) interleaved with the
//! lifecycle stream. Because the canonical per-byte schema contains no
//! per-data-byte events, expansion back to the canonical JSONL is pure
//! erasure: `wormcast_bench::trace_io::expand_spans` drops the
//! `span-*` lines and what remains is byte-identical to the per-byte
//! trace (enforced by `tests/span_equivalence.rs` and the sharded
//! differential harness). Events occur at per-byte-exact times; only the
//! processing order within one timestamp is incidental, and
//! [`Trace::to_jsonl`] sorts lines by `(time, line)` so the rendered
//! JSONL is reproducible.
//!
//! # Cost when disabled
//!
//! With [`TraceConfig::Off`] every emission site reduces to one predicted
//! branch on a cached boolean ([`Trace::enabled`]); nothing is allocated
//! and no event is constructed.

use crate::engine::{HostId, SwitchId};
use crate::link::ChanId;
use crate::time::SimTime;
use crate::worm::MessageId;
use serde::{Deserialize, Serialize};

/// Trace sink selection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceConfig {
    /// No tracing; emission sites compile to a single branch.
    #[default]
    Off,
    /// Record every event in memory (grows unbounded with the run).
    Memory,
    /// Keep only the most recent `capacity` events (oldest are dropped);
    /// the sink tests and long soak runs use this.
    Ring { capacity: usize },
}

/// Why a worm stopped making progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockCause {
    /// STOP backpressure took effect on the channel the worm was
    /// transmitting on.
    StopBackpressure { ch: ChanId },
    /// The worm's head is queued for a crossbar output another worm owns.
    OutputBusy { switch: SwitchId, out: u8 },
    /// A switchcast replica branch is queued for a busy output (Section 3:
    /// this is where V1 fills IDLEs, V2 interrupts, V3 flushes).
    BranchWait { switch: SwitchId, out: u8 },
}

/// One recorded event.
///
/// The `worm` field of worm-scoped events is the worm's *canonical name*
/// `(injecting host << 40) | per-host sequence`, not its dense
/// [`crate::worm::WormId`] arena index: dense ids are per-engine (each
/// shard of a sharded run allocates its own), while the canonical name
/// depends only on the injecting host's own history, so the rendered
/// trace is identical however the run is partitioned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A worm entered a transmit queue at `host`.
    WormInjected { worm: u64, host: HostId },
    /// A switch consumed the worm's head route byte and selected `out`.
    RouteConsumed { worm: u64, switch: SwitchId, out: u8 },
    /// The worm stopped making progress; see [`BlockCause`].
    WormBlocked { worm: u64, cause: BlockCause },
    /// The matching resumption (GO received, or the output was granted).
    WormResumed { worm: u64, cause: BlockCause },
    /// A worm was fully received (checksum good) at `host`.
    WormReceived { worm: u64, host: HostId },
    /// A worm was refused admission (dropped) at `host`.
    WormRefused { worm: u64, host: HostId },
    /// A worm failed its checksum at `host` and was discarded.
    WormCorrupt { worm: u64, host: HostId },
    /// A worm was evicted by a Backward Reset flush (V3); `host` is the
    /// injector that will be told to retransmit.
    WormFlushed { worm: u64, host: HostId },
    /// A fragment boundary parked a partial reception at `host` with
    /// `body_got` body bytes reassembled so far (V2 interrupt/resume).
    FragmentParked { worm: u64, host: HostId, body_got: u64 },
    /// A parked reception resumed reassembly at `host`.
    FragmentResumed { worm: u64, host: HostId, body_got: u64 },
    /// The protocol delivered `msg` to the local host.
    Delivered { msg: MessageId, host: HostId },
    /// A STOP took effect on the transmit side of `ch` (lane `lane` of
    /// its link; 0 on single-lane links).
    StopInForce { ch: ChanId, lane: u8 },
    /// A GO released the transmit side of `ch`.
    GoReceived { ch: ChanId, lane: u8 },
    /// Span-batched engine only: `len` body bytes of `worm` left the
    /// transmit side of `ch` as one batched span. Erased by the
    /// per-byte expander.
    SpanEmitted { worm: u64, ch: ChanId, lane: u8, len: u64 },
    /// Span-batched engine only: a STOP (or a receive-side watermark on a
    /// cut link) cut `revoked` not-yet-wire-committed bytes off the
    /// newest in-flight span on `ch`. Erased by the per-byte expander.
    SpanTruncated { worm: u64, ch: ChanId, lane: u8, revoked: u64 },
    /// Span-batched engine only: `len` body bytes of `worm` were admitted
    /// in one batch at the receive side of `ch`. Erased by the per-byte
    /// expander.
    SpanDelivered { worm: u64, ch: ChanId, lane: u8, len: u64 },
    /// No longer emitted: the cross-shard span NACK/credit throttle it
    /// recorded was removed. The variant stays only because the benchmark
    /// harness names it, and goes when sharded execution goes.
    SpanNack { ch: ChanId, lane: u8 },
    /// No longer emitted; see [`TraceEvent::SpanNack`].
    SpanCredit { ch: ChanId, lane: u8 },
}

/// The trace recorder: a no-op when disabled, an in-memory log or a
/// bounded ring otherwise.
#[derive(Clone, Debug)]
pub struct Trace {
    cfg: TraceConfig,
    enabled: bool,
    /// Recorded events; the live log is `events[head..]`.
    events: Vec<(SimTime, TraceEvent)>,
    /// Ring sinks retire their oldest event by stepping `head` past it,
    /// and compact the retired prefix once it reaches the ring capacity,
    /// so a push onto a full ring is amortised O(1).
    head: usize,
    /// Events discarded by ring overflow.
    dropped: u64,
}

impl Default for Trace {
    /// An unbounded in-memory trace (what tests that poke [`Trace`]
    /// directly want; a network's trace follows its [`TraceConfig`]).
    fn default() -> Self {
        Trace::new(TraceConfig::Memory)
    }
}

impl Trace {
    pub fn new(cfg: TraceConfig) -> Self {
        Trace {
            cfg,
            enabled: !matches!(cfg, TraceConfig::Off),
            events: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// True when events should be recorded. Emission sites guard on this;
    /// it is a cached boolean load, so disabled tracing costs one
    /// predictable branch per site.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The sink configuration this recorder was built with.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Events discarded by ring overflow (0 for the other sinks).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn push(&mut self, at: SimTime, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.events.push((at, ev));
        if let TraceConfig::Ring { capacity } = self.cfg {
            if self.len() > capacity {
                self.head += 1;
                self.dropped += 1;
                if self.head >= capacity {
                    self.events.drain(..self.head);
                    self.head = 0;
                }
            }
        }
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> &[(SimTime, TraceEvent)] {
        &self.events[self.head..]
    }

    /// Append another recorder's log verbatim (sharded-run merging):
    /// events concatenate — `to_jsonl`'s canonical sort orders them —
    /// and ring-drop counts sum. Ring capacity is deliberately NOT
    /// re-applied here; a ring budget is per engine, so a merged
    /// sharded trace may hold up to `shards × capacity` events.
    pub(crate) fn absorb(&mut self, other: &Trace) {
        self.events.extend_from_slice(other.events());
        self.dropped += other.dropped;
    }

    pub fn len(&self) -> usize {
        self.events.len() - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize the trace as JSON Lines, one event per line.
    ///
    /// Lines are sorted stably by `(time, line content)`: emission order
    /// within one timestamp is the only thing that may differ between
    /// [`crate::network::SimMode`]s, so the sorted output is byte-identical
    /// for identical seed and configuration in both modes. Thin wrapper
    /// over [`Trace::write_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out)
            .expect("writing to a Vec<u8> cannot fail");
        String::from_utf8(out).expect("JSONL lines are ASCII")
    }

    /// Stream the sorted JSONL straight to `w`, rendering every event into
    /// one shared arena (a single allocation amortized over the whole
    /// trace) instead of one `String` per event. Same output as
    /// [`Trace::to_jsonl`].
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut arena = String::with_capacity(self.len() * 48);
        let mut index: Vec<(SimTime, usize, usize)> = Vec::with_capacity(self.len());
        for (t, e) in self.events() {
            let start = arena.len();
            render_line(&mut arena, *t, e);
            index.push((*t, start, arena.len()));
        }
        index.sort_by(|a, b| (a.0, &arena[a.1..a.2]).cmp(&(b.0, &arena[b.1..b.2])));
        for (_, start, end) in index {
            w.write_all(&arena.as_bytes()[start..end])?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }
}

/// Format one event as a JSONL line. Thin wrapper over [`render_line`].
pub fn jsonl_line(t: SimTime, ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(64);
    render_line(&mut s, t, ev);
    s
}

/// Append one event as a JSONL line onto `s` (no trailing newline). Field
/// order is fixed (`t`, `ev`, then event-specific fields) so the output is
/// reproducible; appending into a caller-owned buffer lets serialization
/// reuse one allocation across events.
pub fn render_line(s: &mut String, t: SimTime, ev: &TraceEvent) {
    use std::fmt::Write;
    let _ = write!(s, "{{\"t\":{t},\"ev\":");
    match ev {
        TraceEvent::WormInjected { worm, host } => {
            let _ = write!(s, "\"worm-injected\",\"worm\":{},\"host\":{}", worm, host.0);
        }
        TraceEvent::RouteConsumed { worm, switch, out } => {
            let _ = write!(
                s,
                "\"route-consumed\",\"worm\":{},\"switch\":{},\"out\":{}",
                worm, switch.0, out
            );
        }
        TraceEvent::WormBlocked { worm, cause } => {
            let _ = write!(s, "\"blocked\",\"worm\":{},", worm);
            write_cause(s, cause);
        }
        TraceEvent::WormResumed { worm, cause } => {
            let _ = write!(s, "\"resumed\",\"worm\":{},", worm);
            write_cause(s, cause);
        }
        TraceEvent::WormReceived { worm, host } => {
            let _ = write!(s, "\"worm-received\",\"worm\":{},\"host\":{}", worm, host.0);
        }
        TraceEvent::WormRefused { worm, host } => {
            let _ = write!(s, "\"worm-refused\",\"worm\":{},\"host\":{}", worm, host.0);
        }
        TraceEvent::WormCorrupt { worm, host } => {
            let _ = write!(s, "\"worm-corrupt\",\"worm\":{},\"host\":{}", worm, host.0);
        }
        TraceEvent::WormFlushed { worm, host } => {
            let _ = write!(s, "\"worm-flushed\",\"worm\":{},\"host\":{}", worm, host.0);
        }
        TraceEvent::FragmentParked { worm, host, body_got } => {
            let _ = write!(
                s,
                "\"fragment-parked\",\"worm\":{},\"host\":{},\"body_got\":{}",
                worm, host.0, body_got
            );
        }
        TraceEvent::FragmentResumed { worm, host, body_got } => {
            let _ = write!(
                s,
                "\"fragment-resumed\",\"worm\":{},\"host\":{},\"body_got\":{}",
                worm, host.0, body_got
            );
        }
        TraceEvent::Delivered { msg, host } => {
            let _ = write!(s, "\"delivered\",\"msg\":{},\"host\":{}", msg.0, host.0);
        }
        TraceEvent::StopInForce { ch, lane } => {
            let _ = write!(s, "\"stop\",\"ch\":{},\"lane\":{}", ch.0, lane);
        }
        TraceEvent::GoReceived { ch, lane } => {
            let _ = write!(s, "\"go\",\"ch\":{},\"lane\":{}", ch.0, lane);
        }
        TraceEvent::SpanEmitted { worm, ch, lane, len } => {
            let _ = write!(
                s,
                "\"span-emitted\",\"worm\":{},\"ch\":{},\"lane\":{},\"len\":{}",
                worm, ch.0, lane, len
            );
        }
        TraceEvent::SpanTruncated { worm, ch, lane, revoked } => {
            let _ = write!(
                s,
                "\"span-truncated\",\"worm\":{},\"ch\":{},\"lane\":{},\"revoked\":{}",
                worm, ch.0, lane, revoked
            );
        }
        TraceEvent::SpanDelivered { worm, ch, lane, len } => {
            let _ = write!(
                s,
                "\"span-delivered\",\"worm\":{},\"ch\":{},\"lane\":{},\"len\":{}",
                worm, ch.0, lane, len
            );
        }
        TraceEvent::SpanNack { ch, lane } => {
            let _ = write!(s, "\"span-nack\",\"ch\":{},\"lane\":{}", ch.0, lane);
        }
        TraceEvent::SpanCredit { ch, lane } => {
            let _ = write!(s, "\"span-credit\",\"ch\":{},\"lane\":{}", ch.0, lane);
        }
    }
    s.push('}');
}

fn write_cause(s: &mut String, cause: &BlockCause) {
    use std::fmt::Write;
    match cause {
        BlockCause::StopBackpressure { ch } => {
            let _ = write!(s, "\"cause\":\"stop\",\"ch\":{}", ch.0);
        }
        BlockCause::OutputBusy { switch, out } => {
            let _ = write!(
                s,
                "\"cause\":\"output-busy\",\"switch\":{},\"out\":{}",
                switch.0, out
            );
        }
        BlockCause::BranchWait { switch, out } => {
            let _ = write!(
                s,
                "\"cause\":\"branch-wait\",\"switch\":{},\"out\":{}",
                switch.0, out
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_sink_records_nothing() {
        let mut t = Trace::new(TraceConfig::Off);
        assert!(!t.enabled());
        t.push(1, TraceEvent::StopInForce { ch: ChanId(0), lane: 0 });
        assert!(t.is_empty());
    }

    #[test]
    fn ring_sink_drops_oldest() {
        // A full ring holds the newest `capacity` events in order and
        // counts the drops; checked after every push, through several
        // compactions of the retired prefix.
        let capacity = 5;
        let mut t = Trace::new(TraceConfig::Ring { capacity });
        for i in 0..23u64 {
            t.push(i, TraceEvent::WormInjected {
                worm: i,
                host: HostId(0),
            });
            let kept = (i + 1).min(capacity as u64);
            let want: Vec<SimTime> = (i + 1 - kept..=i).collect();
            let got: Vec<SimTime> = t.events().iter().map(|&(at, _)| at).collect();
            assert_eq!(got, want, "after push {i}");
            assert_eq!(t.len(), kept as usize);
            assert_eq!(t.dropped(), i + 1 - kept);
        }
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), capacity);
        assert!(jsonl.starts_with("{\"t\":18,"), "{jsonl}");
    }

    #[test]
    fn jsonl_sorts_within_timestamp() {
        let mut t = Trace::default();
        // Two events at the same time, pushed in "wrong" lexicographic
        // order; to_jsonl must normalize.
        t.push(7, TraceEvent::StopInForce { ch: ChanId(9), lane: 0 });
        t.push(7, TraceEvent::GoReceived { ch: ChanId(1), lane: 0 });
        let a = t.to_jsonl();
        let mut t2 = Trace::default();
        t2.push(7, TraceEvent::GoReceived { ch: ChanId(1), lane: 0 });
        t2.push(7, TraceEvent::StopInForce { ch: ChanId(9), lane: 0 });
        assert_eq!(a, t2.to_jsonl());
        assert_eq!(a.lines().count(), 2);
        assert!(a.starts_with("{\"t\":7,\"ev\":\"go\",\"ch\":1,\"lane\":0}\n"));
    }

    #[test]
    fn jsonl_line_shapes() {
        let line = jsonl_line(3, &TraceEvent::WormBlocked {
            worm: 4,
            cause: BlockCause::OutputBusy {
                switch: SwitchId(2),
                out: 5,
            },
        });
        assert_eq!(
            line,
            "{\"t\":3,\"ev\":\"blocked\",\"worm\":4,\"cause\":\"output-busy\",\"switch\":2,\"out\":5}"
        );
        let line = jsonl_line(9, &TraceEvent::WormResumed {
            worm: 4,
            cause: BlockCause::StopBackpressure { ch: ChanId(1) },
        });
        assert_eq!(
            line,
            "{\"t\":9,\"ev\":\"resumed\",\"worm\":4,\"cause\":\"stop\",\"ch\":1}"
        );
    }

    #[test]
    fn span_line_shapes() {
        assert_eq!(
            jsonl_line(5, &TraceEvent::SpanEmitted {
                worm: 7,
                ch: ChanId(3),
                lane: 1,
                len: 40,
            }),
            "{\"t\":5,\"ev\":\"span-emitted\",\"worm\":7,\"ch\":3,\"lane\":1,\"len\":40}"
        );
        assert_eq!(
            jsonl_line(6, &TraceEvent::SpanTruncated {
                worm: 7,
                ch: ChanId(3),
                lane: 0,
                revoked: 12,
            }),
            "{\"t\":6,\"ev\":\"span-truncated\",\"worm\":7,\"ch\":3,\"lane\":0,\"revoked\":12}"
        );
        assert_eq!(
            jsonl_line(8, &TraceEvent::SpanDelivered {
                worm: 7,
                ch: ChanId(3),
                lane: 0,
                len: 28,
            }),
            "{\"t\":8,\"ev\":\"span-delivered\",\"worm\":7,\"ch\":3,\"lane\":0,\"len\":28}"
        );
        assert_eq!(
            jsonl_line(9, &TraceEvent::SpanNack { ch: ChanId(2), lane: 0 }),
            "{\"t\":9,\"ev\":\"span-nack\",\"ch\":2,\"lane\":0}"
        );
        assert_eq!(
            jsonl_line(9, &TraceEvent::SpanCredit { ch: ChanId(2), lane: 1 }),
            "{\"t\":9,\"ev\":\"span-credit\",\"ch\":2,\"lane\":1}"
        );
    }

    #[test]
    fn write_jsonl_matches_to_jsonl() {
        let mut t = Trace::default();
        t.push(7, TraceEvent::StopInForce { ch: ChanId(9), lane: 0 });
        t.push(3, TraceEvent::WormInjected {
            worm: 1,
            host: HostId(0),
        });
        t.push(7, TraceEvent::GoReceived { ch: ChanId(1), lane: 0 });
        t.push(7, TraceEvent::SpanEmitted {
            worm: 1,
            ch: ChanId(9),
            lane: 0,
            len: 16,
        });
        let mut streamed = Vec::new();
        t.write_jsonl(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), t.to_jsonl());
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }
}
