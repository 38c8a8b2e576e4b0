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
//!
//! Binaries under `src/bin/` print the corresponding tables. The
//! repository benchmark (`benchmark/`) times the [`table1`] operations
//! with quartiles over seeds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod applicability;
pub mod attacks;
pub mod table1;
pub mod usability;

/// Renders a list of (label, value) pairs as an aligned two-column block.
pub fn format_kv(rows: &[(String, String)]) -> String {
    let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    rows.iter()
        .map(|(k, v)| format!("  {k:<width$}  {v}"))
        .collect::<Vec<_>>()
        .join("\n")
}
