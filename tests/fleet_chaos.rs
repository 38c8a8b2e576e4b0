//! Fleet-harness integration suite: Send-ability of whole machines,
//! panic containment with bisectable reproducers, watchdogs, graceful
//! degradation, and fleet-level metric aggregation.

use std::sync::Arc;
use std::time::Duration;

use overhaul_core::{assert_send, OverhaulConfig, System};
use overhaul_fleet::{
    quiet_injected_panics, replay_triple, replay_triple_from_snapshot, run_fleet, run_shard,
    shrink_triple, ChaosSpec, FailureKind, FailureTriple, FleetConfig, FleetWorkload, Reproduction,
    ShardBeat, ShardOutcome, ShardPlan,
};
use overhaul_sim::SimDuration;

/// The compile-time audit, exercised at runtime too: build a machine on
/// one thread, drive it on another, hash on a third.
#[test]
fn system_is_send_across_real_threads() {
    assert_send::<System>();
    let mut system = System::new(OverhaulConfig::protected());
    system.advance(SimDuration::from_secs(1));
    let handle = std::thread::spawn(move || {
        system.advance(SimDuration::from_secs(1));
        let hash = system.state_hash();
        (system, hash)
    });
    let (system, hash) = handle.join().expect("cross-thread system");
    assert_eq!(system.state_hash(), hash);
    let final_hash = std::thread::spawn(move || system.state_hash())
        .join()
        .expect("second hop");
    assert_eq!(final_hash, hash);
}

fn chaos_plan(master: u64, panic_at: Option<usize>, stall_at: Option<usize>) -> ShardPlan {
    let mut plan = ShardPlan::derive(master, 0, &FleetWorkload::default());
    plan.chaos.panic_at = panic_at;
    plan.chaos.stall_at = stall_at;
    plan
}

fn run_contained(plan: ShardPlan) -> overhaul_fleet::ShardReport {
    quiet_injected_panics();
    std::thread::Builder::new()
        .name("overhaul-shard-it".into())
        .spawn(move || run_shard(&plan, &ShardBeat::new()))
        .expect("spawn")
        .join()
        .expect("shard thread must not die: panics are contained inside run_shard")
}

/// Satellite regression: a deliberately panicking shard is contained, and
/// the *shrunk* reproducer replays to the same failure.
#[test]
fn panicking_shard_is_contained_and_shrunk_reproducer_replays_same_failure() {
    let report = run_contained(chaos_plan(0xabc, Some(35), None));
    let triple = match report.outcome {
        ShardOutcome::Failed(t) => *t,
        ShardOutcome::Ok { .. } => panic!("panic shard completed"),
    };
    let recorded_message = match &triple.kind {
        FailureKind::Panic { message } => message.clone(),
        other => panic!("expected a panic failure, got {other:?}"),
    };

    let shrunk = shrink_triple(&triple, 200);
    assert!(
        shrunk.shrunk_events < shrunk.original_events,
        "shrinker removed nothing: {shrunk:?}"
    );
    match &shrunk.triple.kind {
        FailureKind::Panic { message } => assert_eq!(message, &recorded_message),
        other => panic!("shrinking changed the failure kind: {other:?}"),
    }

    // The shrunk triple must reproduce the same failure — from boot, from
    // its snapshot, and after a serialization round-trip.
    let boot = replay_triple(&shrunk.triple);
    assert!(boot.is_reproduced(), "from boot: {boot:?}");
    assert_eq!(boot, replay_triple_from_snapshot(&shrunk.triple));
    let decoded = FailureTriple::from_bytes(&shrunk.triple.to_bytes()).expect("round-trip");
    assert_eq!(boot, replay_triple(&decoded));

    // Byte-identical pre-failure state: both the original and shrunk
    // replays land exactly on their sealed hashes.
    match boot {
        Reproduction::Reproduced { state_hash } => {
            assert_eq!(Some(state_hash), shrunk.triple.log.final_state_hash);
        }
        other => panic!("{other:?}"),
    }
}

/// The virtual-time watchdog: a stalled shard is declared hung and its
/// triple replays to a machine past the deadline.
#[test]
fn virtual_stall_yields_replayable_hang_triple() {
    let report = run_contained(chaos_plan(0xddd, None, Some(50)));
    let triple = match report.outcome {
        ShardOutcome::Failed(t) => *t,
        ShardOutcome::Ok { .. } => panic!("stalled shard completed"),
    };
    match &triple.kind {
        FailureKind::HungVirtual { now, deadline } => assert!(now > deadline),
        other => panic!("expected HungVirtual, got {other:?}"),
    }
    assert!(replay_triple(&triple).is_reproduced());
    assert!(replay_triple_from_snapshot(&triple).is_reproduced());
}

/// The wall-clock supervisor inside `run_fleet` cancels a spinning shard;
/// the fleet completes and reports it as a wall hang.
#[test]
fn fleet_supervisor_cancels_spinning_shards() {
    // One shard, forced to spin: the fleet supervisor must cancel it.
    let workload = FleetWorkload {
        steps: 30,
        chaos: ChaosSpec {
            panic_p: 0.0,
            stall_p: 0.0,
            spin_p: 1.0,
            fault_intensity: 0.0,
        },
        ..FleetWorkload::default()
    };
    let config = FleetConfig {
        master_seed: 0x5119,
        shards: 2,
        workers: 2,
        workload,
        shrink: false,
        stall_poll: Duration::from_millis(10),
        stall_timeout: Duration::from_millis(80),
        ..FleetConfig::default()
    };
    let report = run_fleet(&config);
    assert_eq!(report.failed, 2, "both spin shards must be cancelled");
    for f in &report.failures {
        assert_eq!(f.triple.kind, FailureKind::HungWall);
        assert!(replay_triple(&f.triple).is_reproduced());
    }
    assert!(
        report.wall < Duration::from_secs(10),
        "supervisor must cancel spins well before the backstop"
    );
}

/// The supervisor wakes when the last worker exits rather than at its
/// next poll: with a 30 s poll interval the fleet still ends with its
/// shards.
#[test]
fn fleet_returns_when_its_last_worker_exits() {
    let config = FleetConfig {
        master_seed: 0x3a7e,
        shards: 2,
        workers: 2,
        workload: FleetWorkload {
            steps: 20,
            ..FleetWorkload::default()
        },
        shrink: false,
        stall_poll: Duration::from_secs(30),
        ..FleetConfig::default()
    };
    let report = run_fleet(&config);
    assert_eq!(report.ok + report.failed, 2);
    assert!(
        report.wall < Duration::from_secs(10),
        "fleet took {:?} with a 30 s poll",
        report.wall
    );
}

/// Graceful degradation: a hostile fleet exhausts its failure budget,
/// stops claiming shards, and still reports coherently.
#[test]
fn failure_budget_degrades_instead_of_aborting() {
    let config = FleetConfig {
        master_seed: 3,
        shards: 12,
        workers: 2,
        failure_budget: 3,
        shrink: false,
        workload: FleetWorkload {
            steps: 25,
            chaos: ChaosSpec {
                panic_p: 1.0,
                stall_p: 0.0,
                spin_p: 0.0,
                fault_intensity: 0.0,
            },
            ..FleetWorkload::default()
        },
        ..FleetConfig::default()
    };
    let report = run_fleet(&config);
    assert!(report.degraded);
    assert!(report.failed >= 3);
    assert!(report.skipped > 0);
    assert_eq!(report.ok + report.failed + report.skipped, 12);
    assert_eq!(report.metrics.gauge("overhaul_fleet_degraded"), 1);
    assert_eq!(
        report
            .metrics
            .counter("overhaul_fleet_shards_skipped_total"),
        report.skipped as u64
    );
}

/// The expectation-aware oracle end to end: under a deliberately
/// permissive grant-all policy with the *strict* oracle, the spy's
/// device open is granted against a `Blocked` expectation, the shard
/// reports a defense regression, and the triple replays (the wrongful
/// grant repeats deterministically). Without strict mode the same grant
/// is a documented bypass and produces no triple at all.
#[test]
fn grant_all_fleet_surfaces_defense_regressions_as_triples() {
    let config = FleetConfig {
        master_seed: 0x9e0,
        shards: 6,
        workload: FleetWorkload {
            steps: 80,
            grant_all: true,
            oracle_strict: true,
            chaos: ChaosSpec {
                panic_p: 0.0,
                stall_p: 0.0,
                spin_p: 0.0,
                fault_intensity: 0.2,
            },
            ..FleetWorkload::default()
        },
        shrink_replays: 60,
        ..FleetConfig::default()
    };
    let report = run_fleet(&config);
    let regressions: Vec<_> = report
        .failures
        .iter()
        .filter(|f| matches!(f.triple.kind, FailureKind::DefenseRegression { .. }))
        .collect();
    assert!(
        !regressions.is_empty(),
        "no shard drew a spy-open op in 6 grant-all shards: {:?}",
        report
            .failures
            .iter()
            .map(|f| f.triple.kind.clone())
            .collect::<Vec<_>>()
    );
    for v in &regressions {
        assert!(replay_triple(&v.triple).is_reproduced());
        assert!(
            report
                .metrics
                .counter("overhaul_fleet_failures_total{kind=\"defense_regression\"}")
                >= 1
        );
    }

    // Lenient oracle on the same fleet: the grant-all grants are
    // documented bypasses, not failures.
    let mut lenient = config;
    lenient.workload.oracle_strict = false;
    let report = run_fleet(&lenient);
    assert!(
        report
            .failures
            .iter()
            .all(|f| !matches!(f.triple.kind, FailureKind::DefenseRegression { .. })),
        "lenient grant-all fleet should treat spy grants as documented bypasses: {:?}",
        report
            .failures
            .iter()
            .map(|f| f.triple.kind.clone())
            .collect::<Vec<_>>()
    );
}

/// A healthy fleet: zero failures, zero divergences (every shard
/// self-replays to its live hash), and per-shard kernel metrics merged
/// into one coherent fleet page.
#[test]
fn clean_fleet_has_zero_divergences_and_merged_metrics() {
    let config = FleetConfig {
        master_seed: 0xc1ea4,
        shards: 10,
        workload: FleetWorkload {
            steps: 50,
            ..FleetWorkload::default()
        },
        ..FleetConfig::default()
    };
    let report = run_fleet(&config);
    assert_eq!(report.ok, 10, "failures: {:?}", report.failures);
    assert_eq!(
        report
            .metrics
            .counter("overhaul_fleet_failures_total{kind=\"divergence\"}"),
        0
    );
    // Fleet counters are coherent with the shard reports.
    assert_eq!(report.metrics.counter("overhaul_fleet_shards_total"), 10);
    assert_eq!(report.metrics.counter("overhaul_fleet_shards_ok_total"), 10);
    assert_eq!(
        report.metrics.counter("overhaul_fleet_events_total"),
        report.events_total
    );
    // Kernel counters accumulated across shards (10 machines' worth of
    // monitor notifications is strictly more than one machine's).
    let single = run_shard(
        &ShardPlan::derive(0xc1ea4, 0, &config.workload),
        &ShardBeat::new(),
    );
    assert!(
        report
            .metrics
            .counter("overhaul_monitor_notifications_total")
            > single
                .metrics
                .counter("overhaul_monitor_notifications_total")
    );
    // The rendered page carries both layers.
    let page = report.render_metrics();
    assert!(page.contains("overhaul_fleet_shards_total 10"));
    assert!(page.contains("overhaul_monitor_notifications_total"));
}

/// Same master seed -> byte-identical fleet outcome (ignoring wall time):
/// decorrelated doesn't mean nondeterministic.
#[test]
fn fleet_runs_are_deterministic_in_outcome() {
    let config = FleetConfig {
        master_seed: 0xd57,
        shards: 6,
        workload: FleetWorkload {
            steps: 40,
            chaos: ChaosSpec {
                panic_p: 0.3,
                stall_p: 0.0,
                spin_p: 0.0,
                fault_intensity: 0.5,
            },
            ..FleetWorkload::default()
        },
        shrink: false,
        ..FleetConfig::default()
    };
    let a = run_fleet(&config);
    let b = run_fleet(&config);
    assert_eq!(a.ok, b.ok);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.events_total, b.events_total);
    assert_eq!(a.sim_ms_total, b.sim_ms_total);
    let hashes = |r: &overhaul_fleet::FleetReport| {
        r.failures
            .iter()
            .map(|f| (f.triple.index, f.triple.log.final_state_hash))
            .collect::<Vec<_>>()
    };
    assert_eq!(hashes(&a), hashes(&b));
}

/// Shared beats survive Arc-sharing with a supervisor thread (the
/// cancel/progress protocol has no ordering hazards in practice).
#[test]
fn shard_beat_protocol_is_thread_safe() {
    let beat = Arc::new(ShardBeat::new());
    let watcher = {
        let beat = beat.clone();
        std::thread::spawn(move || {
            while !beat.is_cancelled() {
                std::thread::yield_now();
            }
            beat.progress()
        })
    };
    let plan = ShardPlan::derive(0xbea7, 0, &FleetWorkload::default());
    let report = run_shard(&plan, &beat);
    assert!(report.outcome.is_ok());
    beat.request_cancel();
    let seen = watcher.join().expect("watcher");
    assert_eq!(seen, beat.progress());
}
