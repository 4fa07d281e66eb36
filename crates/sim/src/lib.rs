//! # wormcast-sim — byte-level wormhole network simulator
//!
//! A deterministic, event-driven simulator of a Myrinet-class wormhole-routing
//! LAN, modelled at **byte granularity** (the unit of time is one *byte-time*:
//! the time to move one byte across a link — about 12.5 ns at 640 Mb/s).
//!
//! The fabric model follows the SIGCOMM '96 paper "Multicasting Protocols for
//! High-Speed, Wormhole-Routing Local Area Networks" (Gerla, Palnati, Walton)
//! and the Myrinet architecture it references:
//!
//! * **Wormhole routing** — a worm advances head-first through crossbar
//!   switches; the head byte of the worm at each switch is a source-route
//!   byte that selects the output port and is stripped.
//! * **Backpressure flow control** — each switch input port has a small
//!   *slack buffer* with a high watermark (send `STOP` upstream) and a low
//!   watermark (send `GO`), exactly as in Figure 1 of the paper.
//! * **Source routing** — worms carry their entire route; switches keep no
//!   routing state.
//! * **Host adapters** — programmable interface cards ("LANai") where the
//!   paper's host-adapter multicast protocols live. Protocol behaviour is
//!   plugged in through the [`protocol::AdapterProtocol`] trait; the
//!   protocols themselves are implemented in the `wormcast-core` crate.
//!
//! As in the paper's simulator, **backpressure is not propagated from the
//! host adapter into the network**: a worm arriving at an adapter is always
//! drained at link rate, and is dropped (and counted) if the adapter refuses
//! it. Reliability on top of that is the protocols' job.
//!
//! The engine is single-threaded and fully deterministic: the same seed and
//! configuration replay the same event sequence byte for byte.

pub mod adapter;
pub mod config;
pub mod deadlock;
pub mod engine;
pub mod fault;
pub mod link;
pub mod network;
pub mod protocol;
pub mod shard;
pub mod slab;
pub mod switch;
pub mod switchcast;
pub mod time;
pub mod trace;
pub mod wheel;
pub mod worm;

pub use config::{ConfigError, NetworkConfigBuilder};
pub use engine::{Event, Scheduler};
pub use fault::FaultConfig;
pub use network::{Network, NetworkConfig, RunOutcome};
pub use protocol::{AdapterProtocol, Command, ProtocolCtx};
pub use time::SimTime;
pub use trace::{BlockCause, Trace, TraceConfig, TraceEvent};
pub use worm::{ByteKind, RouteSym, WireByte, WormId, WormInstance, WormKind, WormMeta};

/// One-stop imports for driving the simulator:
/// `use wormcast_sim::prelude::*;`.
pub mod prelude {
    pub use crate::config::{ConfigError, NetworkConfigBuilder};
    pub use crate::deadlock::DeadlockReport;
    pub use crate::engine::{HostId, SwitchId};
    pub use crate::fault::FaultConfig;
    pub use crate::link::{
        ChanId, Lane, LaneArbiter, LaneArbiterKind, LaneCandidate, LeastOccupied, Link,
        LinkId, LinkStats, NodeRef, PortId, SeededRoundRobin, SpanInFlight,
    };
    pub use crate::network::{
        FabricSpec, HostAttach, LinkSpec, NetStats, Network, NetworkConfig, RouteTable,
        RunOutcome, SimMode,
    };
    pub use crate::protocol::{
        AdapterProtocol, Admission, Command, Destination, ProtocolCtx, SendSpec, SourceMessage,
    };
    pub use crate::shard::ShardedNetwork;
    pub use crate::switch::SlackCfg;
    pub use crate::switchcast::SwitchcastMode;
    pub use crate::time::SimTime;
    pub use crate::trace::{BlockCause, Trace, TraceConfig, TraceEvent};
    pub use crate::worm::{MessageId, WormId};
}

