//! # wormcast-stats — metrics for the experiments
//!
//! Statistics over simulation runs: latency distributions, blocking
//! times, link loads, and (x, y) series formatted the way the paper's
//! figures report them.

pub mod blocking;
pub mod histogram;
pub mod latency;
pub mod links;
pub mod series;
pub mod summary;

pub use blocking::{blocked_times, BlockedTimes};
pub use histogram::LogHistogram;
pub use latency::LatencyReport;
pub use series::Series;
pub use summary::Summary;
