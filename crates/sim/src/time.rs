//! Simulation time.
//!
//! The simulator counts **byte-times**: the time one byte needs to cross a
//! link. On 640 Mb/s Myrinet one byte-time is 10 ns of wire time (8 bits at
//! 800 Mbaud line rate with 8b/10b-style encoding comes out close to the
//! 12.5 ns the raw data rate suggests); the paper's figures are plotted
//! directly in byte-times, so the reproductions never convert to seconds.

/// A point in simulated time, in byte-times since the start of the run.
pub type SimTime = u64;

/// Convert a throughput in bytes per byte-time (0.0..=1.0 per link) to
/// megabits per second on a 640 Mb/s link.
#[inline]
pub fn utilization_to_mbps(bytes_per_byte_time: f64) -> f64 {
    bytes_per_byte_time * 640.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_utilization_is_line_rate() {
        assert!((utilization_to_mbps(1.0) - 640.0).abs() < 1e-9);
    }

    #[test]
    fn half_utilization() {
        assert!((utilization_to_mbps(0.5) - 320.0).abs() < 1e-9);
    }
}
