//! Replay-based event-log shrinking (ddmin-lite).
//!
//! A failure triple straight off a shard drags the whole recorded run
//! along — typically a hundred-plus events, most irrelevant to the
//! failure. [`shrink_triple`] greedily removes event chunks (halving the
//! chunk size down to single events) and keeps a candidate only if,
//! after *resealing* (replaying the shortened log from boot to a fresh
//! pre-failure hash and checkpoint), the triple still reproduces the
//! same failure kind via [`replay_triple`]. The result is a minimal-ish
//! reproducer with the same byte-identical-replay guarantee as the
//! original.

use std::panic::{self, AssertUnwindSafe};

use overhaul_core::{apply_event, Event, EventLog, System};

use crate::failure::{replay_triple, FailureKind, FailureTriple};

/// The outcome of shrinking one triple.
#[derive(Debug, Clone)]
pub struct ShrinkReport {
    /// The best (shortest still-reproducing) triple found. Equal to the
    /// input when nothing could be removed.
    pub triple: FailureTriple,
    /// Events in the input triple's log.
    pub original_events: usize,
    /// Events in the shrunk triple's log.
    pub shrunk_events: usize,
    /// Replays spent searching (reseals + reproduction checks).
    pub replays: usize,
}

impl ShrinkReport {
    /// A no-op report wrapping an unshrunk triple.
    pub fn unshrunk(triple: FailureTriple) -> ShrinkReport {
        let n = triple.log.events.len();
        ShrinkReport {
            triple,
            original_events: n,
            shrunk_events: n,
            replays: 0,
        }
    }
}

/// Shrinks `triple`'s event log, spending at most `max_replays` replay
/// attempts. Divergence and boot triples pass through unshrunk: a boot
/// failure has no events, and a divergence is a property of the *live*
/// run against its replay — a shrunk prefix has no live hash to diverge
/// from.
pub fn shrink_triple(triple: &FailureTriple, max_replays: usize) -> ShrinkReport {
    match triple.kind {
        FailureKind::Boot { .. } | FailureKind::Divergence { .. } => {
            return ShrinkReport::unshrunk(triple.clone())
        }
        _ => {}
    }

    let original_events = triple.log.events.len();
    let mut best = triple.clone();
    let mut replays = 0usize;

    let mut chunk = original_events.div_ceil(2).max(1);
    loop {
        let mut i = 0;
        while i < best.log.events.len() && replays < max_replays {
            let mut events = best.log.events.clone();
            let end = (i + chunk).min(events.len());
            events.drain(i..end);

            replays += 1;
            let candidate = match reseal(triple, events) {
                Some(c) => c,
                None => {
                    i += chunk;
                    continue;
                }
            };
            replays += 1;
            if replay_triple(&candidate).is_reproduced() {
                // Keep the cut; retry the same position at this size.
                best = candidate;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 || replays >= max_replays {
            break;
        }
        chunk = (chunk / 2).max(1);
    }

    ShrinkReport {
        shrunk_events: best.log.events.len(),
        triple: best,
        original_events,
        replays,
    }
}

/// Rebuilds a valid triple around a shortened event list: replays it from
/// boot, seals the new pre-failure hash, and takes a fresh last-good
/// checkpoint at the very end (so the snapshot path is trivially short).
/// Returns `None` if the shortened list no longer applies cleanly (an
/// event panics against the altered state) or the machine will not boot.
fn reseal(original: &FailureTriple, events: Vec<Event>) -> Option<FailureTriple> {
    let config = original.log.config.clone();
    let built = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut system = System::try_new(config.clone()).ok()?;
        for event in &events {
            apply_event(&mut system, event);
        }
        Some(system)
    }));
    let mut system = match built {
        Ok(Some(system)) => system,
        _ => return None,
    };
    let hash = system.state_hash();
    let snapshot = system.snapshot();
    Some(FailureTriple {
        index: original.index,
        seed: original.seed,
        kind: original.kind.clone(),
        snap_idx: events.len(),
        log: EventLog {
            config,
            events,
            final_state_hash: Some(hash),
            final_ledger_head: Some(system.ledger_head()),
        },
        snapshot,
        failing_op: original.failing_op.clone(),
        virtual_deadline: original.virtual_deadline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{replay_triple_from_snapshot, Reproduction};
    use crate::schedule::{ChaosSchedule, FleetWorkload, ShardPlan};
    use crate::shard::{quiet_injected_panics, run_shard, ShardBeat, ShardOutcome};

    fn failing_triple(master: u64, chaos: ChaosSchedule) -> FailureTriple {
        quiet_injected_panics();
        let mut plan = ShardPlan::derive(master, 0, &FleetWorkload::default());
        plan.chaos = chaos;
        let report = std::thread::Builder::new()
            .name("overhaul-shard-shrinktest".into())
            .spawn(move || run_shard(&plan, &ShardBeat::new()))
            .unwrap()
            .join()
            .unwrap();
        match report.outcome {
            ShardOutcome::Failed(t) => *t,
            ShardOutcome::Ok { .. } => panic!("shard was supposed to fail"),
        }
    }

    #[test]
    fn shrunk_panic_triple_is_smaller_and_still_reproduces() {
        let triple = failing_triple(
            71,
            ChaosSchedule {
                panic_at: Some(90),
                ..ChaosSchedule::default()
            },
        );
        let before = triple.log.events.len();
        let report = shrink_triple(&triple, 300);
        assert!(report.shrunk_events < before, "nothing shrank: {report:?}");
        // An injected panic needs no prelude at all.
        assert_eq!(report.shrunk_events, 0);
        let repro = replay_triple(&report.triple);
        assert!(repro.is_reproduced(), "shrunk triple: {repro:?}");
        assert_eq!(repro, replay_triple_from_snapshot(&report.triple));
    }

    #[test]
    fn shrink_respects_the_replay_budget() {
        let triple = failing_triple(
            72,
            ChaosSchedule {
                stall_at: Some(100),
                ..ChaosSchedule::default()
            },
        );
        let report = shrink_triple(&triple, 6);
        assert!(report.replays <= 6);
        assert!(replay_triple(&report.triple).is_reproduced());
    }

    #[test]
    fn divergence_triples_pass_through_unshrunk() {
        let triple = failing_triple(
            73,
            ChaosSchedule {
                panic_at: Some(50),
                ..ChaosSchedule::default()
            },
        );
        let fake = FailureTriple {
            kind: FailureKind::Divergence {
                expected: 1,
                got: 2,
            },
            ..triple
        };
        let report = shrink_triple(&fake, 100);
        assert_eq!(report.replays, 0);
        assert_eq!(report.original_events, report.shrunk_events);
    }

    #[test]
    fn shrunk_triple_survives_serialization() {
        let triple = failing_triple(
            74,
            ChaosSchedule {
                panic_at: Some(60),
                ..ChaosSchedule::default()
            },
        );
        let report = shrink_triple(&triple, 200);
        let bytes = report.triple.to_bytes();
        let decoded = FailureTriple::from_bytes(&bytes).expect("decode");
        assert!(matches!(
            replay_triple(&decoded),
            Reproduction::Reproduced { .. }
        ));
    }
}
