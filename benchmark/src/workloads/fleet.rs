//! `fleet`: chaos shards through the supervised worker pool.
//!
//! A round runs `run_fleet` over a fleet of shards with the `fleet_soak`
//! settings (60 steps, soak chaos, campaigns in about a third of the
//! shards, shrinking on with 60 replays), then replays every failure
//! triple from boot, from its snapshot and through a byte round-trip, as
//! `fleet_soak` does. Each round draws a new fleet from the seed, so a run
//! covers a few hundred shards.
//!
//! The soak mix's wall-clock spin is left out: a spinning shard costs the
//! supervisor's fixed 400 ms stall timeout of pure waiting, which no code
//! change can move, and a handful of them per seed would swamp the
//! spread. Injected panics, virtual stalls and seeded faults stay.
//!
//! Shards run inside the pool, so a single shard's latency is not visible
//! from outside `run_fleet`: a round adds one latency sample, the worker
//! time per shard (round wall time × workers ÷ shards).

use std::time::{Duration, Instant};

use overhaul_core::System;
use overhaul_fleet::{
    quiet_injected_panics, replay_triple, replay_triple_from_snapshot, run_fleet, ChaosSpec,
    FailureKind, FailureTriple, FleetConfig, FleetReport, FleetWorkload, ShardPlan,
};
use overhaul_sim::SimRng;

use super::{Checks, Round, Workload};
use crate::hist::Histogram;
use crate::spans::Spans;

/// Round size.
#[derive(Debug, Clone, Copy)]
pub struct FleetSize {
    /// Shards per round.
    pub shards: usize,
    /// Steps per shard.
    pub steps: usize,
    /// Replay budget per shrink.
    pub shrink_replays: usize,
}

/// Worker threads: two, or one on a single-core host.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The fleet configuration for `size` (master seed set per round).
pub fn config(size: FleetSize) -> FleetConfig {
    FleetConfig {
        shards: size.shards,
        workers: workers(),
        workload: FleetWorkload {
            steps: size.steps,
            chaos: ChaosSpec {
                spin_p: 0.0,
                ..ChaosSpec::soak()
            },
            campaign_p: 0.35,
            ..FleetWorkload::default()
        },
        // Every shard runs: the budget is the fleet size, as in the soak.
        failure_budget: size.shards,
        shrink: true,
        shrink_replays: size.shrink_replays,
        ..FleetConfig::default()
    }
}

/// Whether a triple reproduces from boot, from its snapshot, and after a
/// byte round-trip, all three agreeing.
pub fn reproduces(triple: &FailureTriple) -> bool {
    let from_boot = replay_triple(triple);
    let from_snap = replay_triple_from_snapshot(triple);
    let from_bytes = FailureTriple::from_bytes(&triple.to_bytes()).map(|t| replay_triple(&t));
    from_boot.is_reproduced() && from_snap == from_boot && from_bytes.ok() == Some(from_boot)
}

/// Checks a fleet report: no divergence, no unexpected defense
/// regression, every triple reproducing, no shard skipped. One check per
/// shard.
pub fn check_report(checks: &mut Checks, report: &FleetReport, spans: &mut Spans) {
    let mut bad: Vec<String> = Vec::new();
    for f in &report.failures {
        let t = &f.triple;
        let span = spans.enter("fleet.verify_triple");
        let ok = reproduces(t);
        spans.exit(span, 1);
        match t.kind {
            FailureKind::Divergence { .. } | FailureKind::DefenseRegression { .. } => {
                bad.push(format!("shard {} failed as {}", t.index, t.kind.label()));
            }
            _ if !ok => bad.push(format!("shard {} triple did not reproduce", t.index)),
            _ => {}
        }
    }
    for _ in 0..report.skipped {
        bad.push("a shard was skipped".into());
    }
    for i in 0..report.shards {
        let failure = bad.get(i).cloned();
        checks.check(failure.is_none(), || failure.unwrap_or_default());
    }
}

/// The workload state.
pub struct Fleet {
    config: FleetConfig,
    seed: u64,
    round: u64,
}

impl Workload for Fleet {
    const NAME: &'static str = "fleet";
    const ROUNDS_PER_S: f64 = 0.7;
    /// Each round draws a new fleet, and fleets differ in cost by up to a
    /// third (how many shards fail and are shrunk).
    const ROUNDS_ALIKE: bool = false;
    type Size = FleetSize;

    fn full() -> FleetSize {
        FleetSize {
            shards: 32,
            steps: 60,
            shrink_replays: 60,
        }
    }

    /// Installs the quiet panic hook, then derives the first round's plans
    /// and boots each plan's machine once, so a configuration that cannot
    /// boot fails before any timed round.
    fn setup(seed: u64, size: FleetSize) -> Self {
        quiet_injected_panics();
        let config = config(size);
        let master = SimRng::stream_seed(seed, 0);
        for i in 0..size.shards {
            let plan = ShardPlan::derive(master, i, &config.workload);
            System::try_new(plan.config).expect("every shard plan boots");
        }
        Fleet {
            config,
            seed,
            round: 0,
        }
    }

    fn round(&mut self, spans: &mut Spans, lat: &mut Histogram, checks: &mut Checks) -> Round {
        self.config.master_seed = SimRng::stream_seed(self.seed, self.round);
        self.round += 1;
        let t = Instant::now();
        let span = spans.enter("fleet.run_fleet");
        let report = run_fleet(&self.config);
        spans.exit(span, report.shards as u64);
        check_report(checks, &report, spans);
        let busy: Duration = t.elapsed();
        let ops = (report.ok + report.failed) as u64;
        let per_shard = busy.as_nanos() as f64 * self.config.workers as f64 / ops.max(1) as f64;
        lat.record(per_shard as u64);
        Round { ops, busy }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Sizes for smoke tests only.
    pub fn tiny() -> FleetSize {
        FleetSize {
            shards: 4,
            steps: 20,
            shrink_replays: 10,
        }
    }

    #[test]
    fn a_small_fleet_runs_clean() {
        let mut f = Fleet::setup(3, tiny());
        let mut checks = Checks::default();
        let r = f.round(&mut Spans::off(), &mut Histogram::default(), &mut checks);
        assert_eq!(r.ops, 4);
        assert_eq!(
            (checks.attempted, checks.failed),
            (4, 0),
            "{:?}",
            checks.first_failure
        );
    }
}
