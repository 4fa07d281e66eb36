//! Machine-speed probe.
//!
//! This benchmark was defined on a shared 2-vCPU VM whose speed drifts by
//! up to 1.5x over minutes, moving every host timing with it. The probe is
//! fixed code, independent of the program, shaped like the program's
//! set-up: breadth-first search over an 8x8 torus from every switch,
//! storing each source-destination path as its own small vector. Timed
//! between points, it gives the factor that scales a point's host seconds
//! to a machine on which the probe takes [`NOMINAL_S`]. A program change
//! never moves the probe, so it moves the scaled metrics in full.

use std::collections::VecDeque;
use std::time::Instant;

/// Probe time on the reference machine, about the median on the 2-vCPU
/// Xeon (2.1 GHz) the benchmark was defined on.
pub const NOMINAL_S: f64 = 0.0055;

const SIDE: usize = 8;
const NODES: usize = SIDE * SIDE;
const ROUNDS: usize = 16;

/// Seconds one probe takes now.
pub fn probe_s() -> f64 {
    let t = Instant::now();
    for _ in 0..ROUNDS {
        std::hint::black_box(all_paths());
    }
    t.elapsed().as_secs_f64()
}

/// The factor that scales host seconds measured between two probes to
/// the reference machine.
pub fn scale(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_S / ((before_s + after_s) / 2.0)
}

/// Every shortest path of the torus as a port list, one vector per pair.
fn all_paths() -> Vec<Vec<Vec<u8>>> {
    let neighbours = |v: usize| {
        let (r, c) = (v / SIDE, v % SIDE);
        [
            ((r + 1) % SIDE) * SIDE + c,
            ((r + SIDE - 1) % SIDE) * SIDE + c,
            r * SIDE + (c + 1) % SIDE,
            r * SIDE + (c + SIDE - 1) % SIDE,
        ]
    };
    (0..NODES)
        .map(|src| {
            let mut parent = [usize::MAX; NODES];
            let mut port = [0u8; NODES];
            parent[src] = src;
            let mut queue = VecDeque::from([src]);
            while let Some(v) = queue.pop_front() {
                for (p, w) in (0u8..).zip(neighbours(v)) {
                    if parent[w] == usize::MAX {
                        parent[w] = v;
                        port[w] = p;
                        queue.push_back(w);
                    }
                }
            }
            (0..NODES)
                .map(|dst| {
                    let mut path = Vec::new();
                    let mut v = dst;
                    while v != src {
                        path.push(port[v]);
                        v = parent[v];
                    }
                    path.reverse();
                    path
                })
                .collect()
        })
        .collect()
}
