//! Deterministic simulation substrate for the Overhaul reproduction.
//!
//! The original Overhaul prototype (Onarlioglu et al., DSN 2016) patched a
//! live Linux kernel and the X.Org server. This reproduction executes the
//! same state machines inside a deterministic user-space simulation; this
//! crate provides the shared foundation:
//!
//! * [`time`] — a virtual clock ([`Clock`]) with millisecond-resolution
//!   [`Timestamp`]s and [`SimDuration`]s. All temporal-proximity checks
//!   (the paper's δ threshold) are evaluated against this clock, which makes
//!   every experiment replayable bit-for-bit.
//! * [`ids`] — strongly typed identifiers ([`Pid`], [`Uid`], [`Fd`]) shared
//!   by the kernel and display-manager simulators.
//! * [`rng`] — a seedable deterministic random source used by workload
//!   generators.
//! * [`audit`] — the audit vocabulary ([`AuditCategory`]) and [`AuditLog`],
//!   the view of a ledger's audit rows that the evaluation binaries read
//!   their results back out of.
//! * [`trace`] — deterministic virtual-time span tracing ([`Tracer`]) and a
//!   [`MetricsRegistry`] of counters/gauges/histograms; every mediation path
//!   (decisions, channel exchanges, page faults, IPC propagation hops,
//!   input authentication) reports here, and the same seed produces a
//!   byte-identical trace dump.
//! * [`snapshot`] — the versioned binary checkpoint codec ([`Pack`],
//!   [`Snapshot`]) and the canonical [`snapshot::hash64`], the word-wise
//!   hash behind state hashes, ledger seals and record/replay.
//! * [`ledger`] — the append-only, hash-chained authoritative history
//!   ([`Ledger`]): typed entries with structured [`Effect`]s, a sealed
//!   running chain hash ([`Ledger::verify_chain`]), the audit log as a
//!   view of it ([`Ledger::audit`]), and control-plane state as a
//!   deterministic reduction ([`ControlPlane`]).
//! * [`work`] — the calibrated cost model: real-world costs of the
//!   operations the simulator executes in nanoseconds, charged to a
//!   per-machine [`ModelledCost`] instead of being waited out.
//!
//! # Example
//!
//! ```
//! use overhaul_sim::{Clock, SimDuration};
//!
//! let clock = Clock::new();
//! let t0 = clock.now();
//! clock.advance(SimDuration::from_millis(1500));
//! assert_eq!(clock.now() - t0, SimDuration::from_millis(1500));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod artifact;
pub mod audit;
pub mod fault;
pub mod ids;
pub mod ledger;
pub mod rng;
pub mod sketch;
pub mod snapshot;
pub mod time;
pub mod trace;
pub mod work;

pub use arena::{Interner, Slab, SlotId, Sym};
pub use artifact::BenchArtifact;
pub use audit::{AuditCategory, AuditLog};
pub use fault::{ChannelFault, FaultPlan, FaultSpec, FaultStats};
pub use ids::{Fd, Pid, Uid};
pub use ledger::{
    ChannelState, ConfigKey, ControlPlane, Effect, Ledger, LedgerEntry, LedgerError, LedgerSummary,
    RuleKind, SealedEntry, OP_NAMES,
};
pub use rng::SimRng;
pub use sketch::{Exemplar, Mechanism, Sketch, SketchBook, Sketches, FLEET_QUANTILES};
pub use snapshot::{Dec, Enc, Pack, Snapshot, SnapshotError};
pub use time::{Clock, SimDuration, Timestamp};
pub use trace::{
    label_metric, MetricsRegistry, SpanId, SpanKind, SpanNode, Tracer, Value as TraceValue,
};
pub use work::ModelledCost;
