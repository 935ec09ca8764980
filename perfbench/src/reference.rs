//! A frozen reference kernel for host-speed correction.
//!
//! The benchmark shares its host with other tenants, and on a shared
//! two-core host the speed of simulation code drifts by 10–40% over
//! minutes while a repetition's own work stays fixed. A small
//! simulation-like kernel that lives here, in the benchmark, and therefore
//! never changes with the simulator, slows down with the host in step:
//! timed right before each repetition, its duration says how fast the
//! host is at that moment. Scaling a repetition's time by
//! `NOMINAL_S / reference time` reports it at a fixed nominal host speed,
//! so only a change in the simulator moves the corrected figure.

use std::collections::VecDeque;
use std::time::Instant;

/// The reference kernel's duration at the nominal host speed: the median
/// measured on an otherwise idle 2-core host. Only ratios against it
/// matter; it sets the scale of corrected times.
pub const NOMINAL_S: f64 = 0.0062;

/// One pass of the kernel: a 32x32 mesh of bounded packet queues stepped
/// for 400 cycles with dimension-ordered routing and pseudo-random
/// injection, a miniature of the simulator's own mix of branches, queue
/// operations and cache traffic.
fn pass() -> f64 {
    const K: usize = 32;
    const DEPTH: usize = 8;
    let t = Instant::now();
    let mut queues: Vec<VecDeque<(u16, u32)>> =
        (0..K * K).map(|_| VecDeque::with_capacity(DEPTH)).collect();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut delivered = 0u64;
    for _ in 0..400 {
        for n in 0..K * K {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if (x >> 60) < 3 && queues[n].len() < DEPTH {
                let dest = ((x >> 20) as usize % (K * K)) as u16;
                queues[n].push_back((dest, x as u32));
            }
            let Some(&(dest, payload)) = queues[n].front() else {
                continue;
            };
            let (cx, cy) = (n % K, n / K);
            let (dx, dy) = (dest as usize % K, dest as usize / K);
            let next = if dx > cx {
                n + 1
            } else if dx < cx {
                n - 1
            } else if dy > cy {
                n + K
            } else if dy < cy {
                n - K
            } else {
                n
            };
            if next == n {
                queues[n].pop_front();
                delivered = delivered.wrapping_add(u64::from(payload));
            } else if queues[next].len() < DEPTH {
                let flit = queues[n].pop_front().expect("front exists");
                queues[next].push_back(flit);
            }
        }
    }
    std::hint::black_box(delivered);
    t.elapsed().as_secs_f64()
}

/// The kernel's current duration in seconds: the median of three passes.
pub fn seconds() -> f64 {
    let mut t = [pass(), pass(), pass()];
    t.sort_by(f64::total_cmp);
    t[1]
}
