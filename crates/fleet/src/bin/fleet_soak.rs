//! Fleet soak driver: hundreds of supervised shards under chaos.
//!
//! ```text
//! cargo run --release -p overhaul-fleet --bin fleet_soak [-- --quick] \
//!     [--shards N] [--seed S]
//! ```
//!
//! Runs `N` independently-seeded shards (default 256; 64 under
//! `--quick`, the CI mode) through randomized workload + fault + chaos
//! schedules: injected panics, virtual-time stalls, wall-clock spins,
//! seeded channel/VFS faults, and scheduled X crashes. The run must
//! complete without aborting; every failure is reported as a bisectable
//! `(seed, sealed event log, last-good snapshot)` triple; and the driver
//! then *verifies each triple* by replaying it from boot, from the
//! snapshot, and through a serialization round-trip — demanding the
//! byte-identical pre-failure state hash every time. A dedicated
//! forced-panic shard proves the containment + shrink + replay pipeline
//! end to end even when the probabilistic chaos draws no panic, and a
//! forced defense-regression shard (grant-all boot, strict oracle) proves
//! the campaign/oracle detection path the same way.
//!
//! Roughly a third of the shards interleave a seeded attack campaign
//! (hover theft, delegation abuse, operation-binding confusion) with
//! their chaos steps; completed campaigns aggregate into the defense
//! matrix printed with the report.
//!
//! Exit status is non-zero on any unexplained divergence, any triple
//! that fails to reproduce, a missing forced-panic or forced-regression
//! reproduction, any unexpected defense regression, or a quick run with
//! no campaign-bearing shard. Writes `BENCH_fleet.json` with the
//! headline fleet numbers.

use std::collections::BTreeMap;
use std::path::PathBuf;

use overhaul_fleet::{
    replay_triple, replay_triple_from_snapshot, run_fleet, shrink_triple, triple_file_name,
    write_soak_dir, ChaosSpec, FailureKind, FailureTriple, FleetConfig, FleetWorkload, ShardBeat,
    ShardPlan,
};
use overhaul_sim::{snapshot::hash64, BenchArtifact};

fn arg_value(name: &str) -> Option<u64> {
    arg_str(name).and_then(|v| v.parse().ok())
}

fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let shards = arg_value("--shards").unwrap_or(if quick { 64 } else { 256 }) as usize;
    let seed = arg_value("--seed").unwrap_or(0xf1ee7);
    let mode = if quick { "quick" } else { "full" };

    let workload = FleetWorkload {
        steps: if quick { 60 } else { 120 },
        chaos: ChaosSpec::soak(),
        // Roughly a third of the shards interleave a seeded attack
        // campaign with their chaos steps; over 64 quick shards the
        // probability of drawing none is (1 - 0.35)^64 ~ 1e-12.
        campaign_p: 0.35,
        ..FleetWorkload::default()
    };
    let config = FleetConfig {
        master_seed: seed,
        shards,
        workload,
        // The soak must see every shard: the budget only exists to prove
        // graceful degradation elsewhere (tests); here it is the fleet
        // size itself.
        failure_budget: shards,
        shrink_replays: if quick { 60 } else { 200 },
        ..FleetConfig::default()
    };

    println!("fleet soak ({mode}): {shards} shards, master seed {seed:#x}, chaos = soak\n");
    let report = run_fleet(&config);

    let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
    for f in &report.failures {
        *by_kind.entry(f.triple.kind.label()).or_insert(0) += 1;
    }
    println!(
        "{} ok, {} failed, {} skipped{} in {:.2}s ({:.1} shards/s, {:.1} machine-hours/wall-hour)",
        report.ok,
        report.failed,
        report.skipped,
        if report.degraded { " [DEGRADED]" } else { "" },
        report.wall.as_secs_f64(),
        report.shards_per_sec(),
        report.machine_hours_per_wall_hour(),
    );
    println!(
        "{} events applied, {:.1} virtual machine-hours simulated",
        report.events_total,
        report.sim_ms_total as f64 / 3_600_000.0
    );
    for (kind, n) in &by_kind {
        println!("  failure kind {kind}: {n}");
    }
    println!(
        "\n{} campaign-bearing shards completed; defense matrix:\n{}",
        report.campaign_shards,
        report.matrix.render()
    );

    // Merged observability plane: per-mechanism latency percentiles over
    // every shard's sketches, plus the cross-shard ledger view.
    println!(
        "merged fleet latency sketches:\n{}",
        report.render_latency()
    );
    let sketch_hash = hash64(&report.sketches.canonical_bytes());
    println!("merged sketch canonical hash {sketch_hash:#018x} (deterministic plane)");
    let ledger_entries_total: u64 = report.ledgers.iter().map(|(_, l)| l.entries).sum();
    println!(
        "ledger view: {} shards, {} retained entries, {} distinct chain heads\n",
        report.ledgers.len(),
        ledger_entries_total,
        report.distinct_ledger_heads()
    );

    // Verify every reported triple: from boot, from the last-good
    // snapshot, and through a byte round-trip — all three must reproduce
    // the identical pre-failure state hash.
    let mut bad = 0usize;
    for f in &report.failures {
        let t = &f.triple;
        let from_boot = replay_triple(t);
        let from_snap = replay_triple_from_snapshot(t);
        let decoded = match FailureTriple::from_bytes(&t.to_bytes()) {
            Ok(d) => d,
            Err(e) => {
                println!("  shard {}: triple did not round-trip: {e:?}", t.index);
                bad += 1;
                continue;
            }
        };
        let from_bytes = replay_triple(&decoded);
        let ok = from_boot.is_reproduced() && from_snap == from_boot && from_bytes == from_boot;
        if !ok {
            println!(
                "  shard {} ({}): NOT reproduced — boot {from_boot:?}, snap {from_snap:?}, \
                 bytes {from_bytes:?}",
                t.index,
                t.kind.label()
            );
            bad += 1;
        } else {
            println!(
                "  shard {:>4} seed {:#018x} {:<16} events {:>3} -> {:<3} replay OK",
                t.index,
                t.seed,
                t.kind.label(),
                f.original_events,
                f.shrunk_events
            );
        }
    }

    let divergences = by_kind.get("divergence").copied().unwrap_or(0);

    // Forced injected-panic shard: even if the probabilistic chaos drew no
    // panic this seed, prove containment -> triple -> shrink -> replay.
    overhaul_fleet::quiet_injected_panics();
    let mut forced = ShardPlan::derive(seed ^ 0xdead_beef, shards, &config.workload);
    forced.chaos.panic_at = Some(config.workload.steps / 2);
    forced.chaos.stall_at = None;
    forced.chaos.spin_at = None;
    let forced_report = std::thread::Builder::new()
        .name("overhaul-shard-forced".into())
        .spawn(move || overhaul_fleet::run_shard(&forced, &ShardBeat::new()))
        .expect("spawn forced shard")
        .join()
        .expect("forced shard thread");
    let mut forced_triple: Option<FailureTriple> = None;
    let forced_ok = match forced_report.outcome {
        overhaul_fleet::ShardOutcome::Failed(triple)
            if matches!(triple.kind, FailureKind::Panic { .. }) =>
        {
            let shrunk = shrink_triple(&triple, config.shrink_replays);
            forced_triple = Some(shrunk.triple.clone());
            let repro = replay_triple(&shrunk.triple);
            println!(
                "\nforced panic shard: contained, events {} -> {}, replay {}",
                shrunk.original_events,
                shrunk.shrunk_events,
                if repro.is_reproduced() {
                    "OK"
                } else {
                    "FAILED"
                }
            );
            repro.is_reproduced() && replay_triple_from_snapshot(&shrunk.triple).is_reproduced()
        }
        other => {
            println!("\nforced panic shard did not fail as a panic: {other:?}");
            false
        }
    };

    // Forced defense-regression shard: a grant-all boot under a strict
    // deny-expecting oracle with faults and chaos cleared — the first spy
    // probe is a wrongful grant, which must become a DefenseRegression
    // triple that reproduces all three ways (boot, snapshot, bytes).
    let strict_workload = FleetWorkload {
        grant_all: true,
        oracle_strict: true,
        campaign_p: 0.0,
        chaos: ChaosSpec {
            panic_p: 0.0,
            stall_p: 0.0,
            spin_p: 0.0,
            fault_intensity: 0.0,
        },
        ..config.workload
    };
    let forced_defense = ShardPlan::derive(seed ^ 0xfee1_dead, shards + 1, &strict_workload);
    let forced_defense_report = std::thread::Builder::new()
        .name("overhaul-shard-forced-defense".into())
        .spawn(move || overhaul_fleet::run_shard(&forced_defense, &ShardBeat::new()))
        .expect("spawn forced defense shard")
        .join()
        .expect("forced defense shard thread");
    let forced_defense_ok = match forced_defense_report.outcome {
        overhaul_fleet::ShardOutcome::Failed(triple)
            if matches!(triple.kind, FailureKind::DefenseRegression { .. }) =>
        {
            let shrunk = shrink_triple(&triple, config.shrink_replays);
            let from_boot = replay_triple(&shrunk.triple);
            let from_snap = replay_triple_from_snapshot(&shrunk.triple);
            let from_bytes = FailureTriple::from_bytes(&shrunk.triple.to_bytes())
                .map(|d| replay_triple(&d))
                .unwrap_or(overhaul_fleet::Reproduction::Broken {
                    detail: "triple bytes did not round-trip".into(),
                });
            let ok = from_boot.is_reproduced() && from_snap == from_boot && from_bytes == from_boot;
            println!(
                "forced defense-regression shard: detected, events {} -> {}, replay {}",
                shrunk.original_events,
                shrunk.shrunk_events,
                if ok {
                    "OK (boot+snapshot+bytes)"
                } else {
                    "FAILED"
                }
            );
            if !ok {
                println!("  boot {from_boot:?}, snap {from_snap:?}, bytes {from_bytes:?}");
            }
            ok
        }
        other => {
            println!("forced defense-regression shard did not regress: {other:?}");
            false
        }
    };

    let defense_regressions = by_kind.get("defense_regression").copied().unwrap_or(0);

    let artifact = BenchArtifact::new("fleet")
        .text("mode", mode)
        .int("shards", report.shards as u64)
        .int("ok", report.ok as u64)
        .int("failed", report.failed as u64)
        .int("skipped", report.skipped as u64)
        .int("events_total", report.events_total)
        .int("sim_ms_total", report.sim_ms_total)
        .num("wall_s", report.wall.as_secs_f64())
        .num("shards_per_sec", report.shards_per_sec())
        .num(
            "machine_hours_per_wall_hour",
            report.machine_hours_per_wall_hour(),
        )
        .int("divergences", divergences as u64)
        .int("triples_not_reproduced", bad as u64)
        .int("campaign_shards", report.campaign_shards as u64)
        .int("defense_regressions", defense_regressions as u64)
        .int("expected_bypasses", report.matrix.bypasses() as u64)
        .int(
            "attack_classes_reported",
            report.matrix.classes_covered() as u64,
        );
    match artifact.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write bench artifact: {e}"),
    }

    // Merged latency artifact. Wall-clock percentiles are informational
    // (they vary with the host); the CI diff gate pins the count-shaped
    // keys and the canonical sketch hash, which are deterministic for a
    // given master seed. The hash is written as two 32-bit halves because
    // a JSON number holds a u32 exactly and a u64 it does not.
    let merged = &report.sketches;
    let decide_samples = merged
        .wall_merged(&overhaul_sim::Mechanism::parse("decide").expect("decide parses"))
        .count();
    let mut latency = BenchArtifact::new("fleet_latency")
        .text("mode", mode)
        .int("mechanisms_recorded", merged.recorded().len() as u64)
        .int("ledger_entries_total", ledger_entries_total)
        .int(
            "ledger_heads_distinct",
            report.distinct_ledger_heads() as u64,
        )
        .int("decide_samples", decide_samples)
        .int("sketch_hash_hi", sketch_hash >> 32)
        .int("sketch_hash_lo", sketch_hash & 0xffff_ffff);
    for mech in merged.recorded() {
        let s = merged.wall_merged(&[mech]);
        let label = mech.label();
        latency = latency
            .int(&format!("{label}_samples"), s.count())
            .int(&format!("{label}_p50_ns"), s.quantile(0.50))
            .int(&format!("{label}_p90_ns"), s.quantile(0.90))
            .int(&format!("{label}_p99_ns"), s.quantile(0.99))
            .int(&format!("{label}_p999_ns"), s.quantile(0.999));
    }
    match latency.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write latency artifact: {e}"),
    }

    // Persist the queryable soak dir: merged sketches, one archive per
    // clean shard, and the forced-panic triple for `ovq why`.
    if let Some(out) = arg_str("--out") {
        let dir = PathBuf::from(out);
        match write_soak_dir(&dir, &report.sketches, &report.archives) {
            Ok(()) => {
                println!(
                    "wrote soak dir {} ({} shard archives)",
                    dir.display(),
                    report.archives.len()
                );
                if let Some(triple) = &forced_triple {
                    let path = dir.join(triple_file_name(triple.index));
                    match std::fs::write(&path, triple.to_bytes()) {
                        Ok(()) => println!("wrote {}", path.display()),
                        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
                    }
                }
            }
            Err(e) => eprintln!("warning: could not write soak dir: {e}"),
        }
    }

    let mut failed_run = false;
    if divergences > 0 {
        println!("FAIL: {divergences} unexplained replay divergences");
        failed_run = true;
    }
    if bad > 0 {
        println!("FAIL: {bad} failure triples did not reproduce on replay");
        failed_run = true;
    }
    if !forced_ok {
        println!("FAIL: forced injected-panic shard did not yield a replayable triple");
        failed_run = true;
    }
    if !forced_defense_ok {
        println!(
            "FAIL: forced defense-regression shard did not yield a three-way-replayable triple"
        );
        failed_run = true;
    }
    if defense_regressions > 0 {
        println!(
            "FAIL: {defense_regressions} unexpected defense regressions in the probabilistic fleet"
        );
        failed_run = true;
    }
    if report.campaign_shards == 0 {
        println!("FAIL: no campaign-bearing shard completed (campaign_p = 0.35)");
        failed_run = true;
    }
    if report.degraded {
        println!("FAIL: soak fleet degraded (budget was the fleet size — a scheduling bug)");
        failed_run = true;
    }
    if failed_run {
        std::process::exit(1);
    }
    println!(
        "\nOK: {} shards supervised, {} failures all bisectable and replay-exact, 0 divergences, \
         {} campaigns with 0 defense regressions",
        report.shards, report.failed, report.campaign_shards
    );
}
