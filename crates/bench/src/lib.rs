//! Experiment harnesses regenerating every table and study in the
//! Overhaul paper (DSN 2016).
//!
//! * [`table1`] — the five performance micro-benchmarks of Table I
//!   (device access, clipboard, screen capture, shared memory, Bonnie++),
//!   each timed on an unmodified baseline stack and on the grant-all
//!   Overhaul stack, reporting the relative overhead.
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
//! The `paper` binary prints and writes that artifact; `table1`,
//! `decision_path` and `ipc_propagation` time the mediation paths, and
//! `bench_diff` compares a fresh timing artifact with its baseline. The
//! repository benchmark (`benchmark/`) times the [`table1`] operations
//! with quartiles over seeds.
//!
//! The simulated machines charge the real-world cost of expensive
//! operations to a counter instead of waiting it out
//! ([`overhaul_sim::work`]). Only the harnesses that time against real
//! denominators turn the charges back into wall time with [`spin`]: the
//! [`table1`] iterations and `decision_path`'s wire-query row.

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
