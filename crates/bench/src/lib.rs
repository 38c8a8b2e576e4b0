//! Experiment harnesses regenerating every table and study in the
//! Overhaul paper (DSN 2016).
//!
//! * [`table1`] — the operations of Table I's five performance
//!   micro-benchmarks (device access, clipboard, screen capture, shared
//!   memory, Bonnie++), each set up on an unmodified baseline stack or on
//!   the grant-all Overhaul stack.
//! * [`usability`] — the §V-B two-task user study with simulated
//!   participants.
//! * [`applicability`] — the §V-C functionality / false-positive study
//!   over the 58-app device corpus and 50-app clipboard corpus.
//! * [`ablation`] — sweeps over the design parameters DESIGN.md calls out
//!   (δ, the shm wait window, the clickjacking visibility threshold, and
//!   IPC propagation on/off).
//! * [`attacks`] — every single-shot attack crossed with three machine
//!   configurations, and the multi-stage campaign defense matrix.
//! * [`paper`] — all of the above except Table I, plus the §V-D 21-day
//!   run and the prompt-mode comparison, as one seeded artifact whose
//!   committed baseline `cargo test` pins.
//!
//! The `paper` binary prints and writes that artifact, `ipc_propagation`
//! times the IPC round trips per mechanism, and `bench_diff` compares a
//! fresh artifact with its committed baseline. The repository benchmark
//! (`benchmark/`) times the [`table1`] operations, baseline against
//! protected, and reports Table I's overhead column with quartiles over
//! seeds; its traced run also measures the tracing budget.
//!
//! The simulated machines charge the real-world cost of expensive
//! operations to a counter instead of waiting it out
//! ([`overhaul_sim::work`]). Only the [`table1`] iterations turn the
//! charges back into wall time with [`spin`], because only they are timed
//! against real denominators.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub mod ablation;
pub mod applicability;
pub mod attacks;
pub mod paper;
pub mod table1;
pub mod usability;

/// Busy-waits for `d` of wall-clock time.
///
/// Durations below ~100 ns are not reliably resolvable and may take
/// slightly longer.
pub fn spin(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_takes_at_least_the_requested_time() {
        let start = Instant::now();
        spin(Duration::from_micros(200));
        assert!(start.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn zero_spin_returns_immediately() {
        let start = Instant::now();
        spin(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_millis(5));
    }
}
