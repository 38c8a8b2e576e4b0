//! The traced run's layer probe: small, fixed measurements of every layer,
//! each recorded as spans around calls into that layer and turned into
//! per-layer metrics from the spans' self times.
//!
//! The probe does not depend on the workload: a traced run runs it once,
//! whatever its workloads (inputs from the run's seed), so each per-layer
//! metric has one definition and is reported once. The probe times layers
//! from outside: its parts do not add up to a whole decision, so no
//! "unattributed" remainder is derived.

use std::hint::black_box;
use std::time::Instant;

use overhaul_core::System;
use overhaul_fleet::{
    replay_triple, run_fleet, run_shard, shrink_triple, ShardBeat, ShardOutcome, ShardPlan,
};
use overhaul_kernel::monitor::ResourceOp;
use overhaul_kernel::netlink::NetlinkMessage;
use overhaul_kernel::policy::{IngestEvent, OpRequest, PolicyEngine};
use overhaul_sim::snapshot::Snapshot;
use overhaul_sim::{
    AuditCategory, Effect, Ledger, LedgerEntry, Pid, RuleKind, SimRng, Timestamp, Tracer,
};

use crate::hist::Histogram;
use crate::report::Metric;
use crate::spans::{Agg, Spans};
use crate::stats::median;
use crate::workloads::decide::Tasks;
use crate::workloads::fleet::{self, FleetSize};
use crate::workloads::session::{self, SessionSize};
use crate::workloads::table1::{Table1, Table1Size, ROWS};
use crate::workloads::{Checks, Workload};

/// Repetitions of a batched measurement.
const REPS: usize = 20;
/// Calls per batch for calls well under a microsecond.
const BATCH: u64 = 10_000;

/// Metrics that are a span's median self time per call: (metric, unit,
/// span, factor from nanoseconds).
const SPAN_METRICS: &[(&str, &str, &str, f64)] = &[
    ("policy.engine_ns", "ns", "policy.engine", 1.0),
    ("policy.snapshot_ns", "ns", "kernel.policy_snapshot", 1.0),
    ("kernel.decide_hit_ns", "ns", "kernel.decide_hit", 1.0),
    (
        "kernel.ingest_ns_per_event",
        "ns",
        "kernel.ingest_batch",
        1.0,
    ),
    ("kernel.explain_last_ns", "ns", "kernel.explain_last", 1.0),
    ("kernel.lifecycle_us", "us", "kernel.lifecycle", 1e-3),
    ("ledger.append_ns", "ns", "ledger.append", 1.0),
    ("netlink.query_us", "us", "netlink.query", 1e-3),
    (
        "table1.device_base_us",
        "us",
        "device.open_close.base",
        1e-3,
    ),
    (
        "table1.device_prot_us",
        "us",
        "device.open_close.prot",
        1e-3,
    ),
    ("mm.shm_write_base_ns", "ns", "mm.shm_write.base", 1.0),
    ("mm.shm_write_prot_ns", "ns", "mm.shm_write.prot", 1.0),
    ("vfs.file_cycle_base_us", "us", "vfs.file_cycle.base", 1e-3),
    ("vfs.file_cycle_prot_us", "us", "vfs.file_cycle.prot", 1e-3),
    ("xserver.paste_base_us", "us", "xserver.paste.base", 1e-3),
    ("xserver.paste_prot_us", "us", "xserver.paste.prot", 1e-3),
    (
        "xserver.get_image_base_ms",
        "ms",
        "xserver.get_image.base",
        1e-6,
    ),
    (
        "xserver.get_image_prot_ms",
        "ms",
        "xserver.get_image.prot",
        1e-6,
    ),
    ("xserver.request_us", "us", "replay.apply.x_request", 1e-3),
    ("snapshot.state_hash_us", "us", "snapshot.state_hash", 1e-3),
    ("snapshot.checkpoint_us", "us", "snapshot.checkpoint", 1e-3),
    ("snapshot.restore_us", "us", "snapshot.restore", 1e-3),
    ("snapshot.parse_us", "us", "snapshot.parse", 1e-3),
    ("snapshot.reproduce_ms", "ms", "snapshot.reproduce", 1e-6),
    ("fleet.shard_ms_p50", "ms", "fleet.run_shard", 1e-6),
    ("fleet.shrink_ms", "ms", "fleet.shrink", 1e-6),
    ("fleet.triple_replay_ms", "ms", "fleet.triple_replay", 1e-6),
];

/// Replayed event kinds the replay layer reports.
const REPLAY_KINDS: [&str; 7] = [
    "launch_gui_app",
    "settle",
    "click_window",
    "x_request",
    "open_device",
    "sys_close",
    "advance",
];

/// Runs the probe, recording spans into `spans` and output checks into
/// `checks`. Returns every layer metric, sorted by name.
pub fn probe(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Vec<Metric> {
    let mut out = vec![timer()];
    decide_layers(seed, spans, checks, &mut out);
    ledger_layer(spans);
    table1_layers(seed, spans, checks, &mut out);
    session_layers(seed, spans, checks, &mut out);
    fleet_layers(seed, spans, checks, &mut out);

    let by = spans.by_name();
    let agg = |name: &str| by.get(name).cloned().unwrap_or_default();
    for &(metric, unit, span, scale) in SPAN_METRICS {
        out.push(per_call(metric, unit, &agg(span), scale));
    }
    // Eight shards: their slowest stands in for a tail percentile.
    let shards = agg("fleet.run_shard").per_call_ns;
    out.push(Metric::single(
        "fleet.shard_ms_max",
        "ms",
        shards.iter().copied().fold(f64::NAN, f64::max) / 1e6,
    ));

    // A forced miss costs an epoch bump plus the decision; the bump alone
    // is measured beside it and subtracted.
    let bump = agg("kernel.epoch_bump").per_call_ns;
    let both = agg("kernel.bump_and_decide").per_call_ns;
    let miss: Vec<f64> = both.iter().map(|x| x - median(&bump)).collect();
    out.push(Metric::of_samples("kernel.decide_miss_ns", "ns", &miss));

    let replay_ns: u64 = by
        .iter()
        .filter(|(name, _)| name.starts_with("replay.apply."))
        .map(|(_, a)| a.self_ns)
        .sum();
    for kind in REPLAY_KINDS {
        let a = agg(&format!("replay.apply.{kind}"));
        let mut mean = Metric::single(
            &format!("replay.apply_us.{kind}"),
            "us",
            a.self_ns as f64 / a.calls as f64 / 1e3,
        );
        mean.n = a.calls;
        out.push(mean);
        out.push(Metric::single(
            &format!("replay.share_pct.{kind}"),
            "%",
            a.self_ns as f64 / replay_ns as f64 * 100.0,
        ));
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// The median over spans of self time per call, scaled from nanoseconds.
fn per_call(metric: &str, unit: &'static str, a: &Agg, scale: f64) -> Metric {
    if a.per_call_ns.is_empty() {
        return Metric::single(metric, unit, f64::NAN);
    }
    let v: Vec<f64> = a.per_call_ns.iter().map(|x| x * scale).collect();
    Metric::of_samples(metric, unit, &v)
}

/// The cost of one `Instant::now` pair, nanoseconds. Reported, never
/// subtracted from anything.
fn timer() -> Metric {
    const PAIRS: u32 = 100_000;
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..PAIRS {
                black_box(black_box(Instant::now()).elapsed());
            }
            t.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    Metric::of_samples("bench.timer_ns", "ns", &samples)
}

fn decide_layers(seed: u64, spans: &mut Spans, checks: &mut Checks, out: &mut Vec<Metric>) {
    let mut t = Tasks::boot(seed, 1_024);
    let at = Timestamp::from_millis(t.now);
    let active: Vec<(Pid, ResourceOp)> =
        t.active.iter().map(|&k| (t.pids[k], t.op_of[k])).collect();
    let nth = |i: usize| active[i % active.len()];

    // The pure engine on a prebuilt snapshot, and building snapshots.
    let (pid, op) = nth(0);
    let snapshot = t.kernel.policy_snapshot(pid, false);
    let request = OpRequest { pid, op, at };
    for _ in 0..REPS {
        spans.time("policy.engine", BATCH, || {
            for _ in 0..BATCH {
                black_box(PolicyEngine::decide(black_box(&snapshot), &request));
            }
        });
        let kernel = &t.kernel;
        spans.time("kernel.policy_snapshot", BATCH, || {
            for i in 0..BATCH as usize {
                black_box(kernel.policy_snapshot(nth(i).0, false));
            }
        });
    }

    // Cache hits on every active task, then `explain_last` on them.
    for &(pid, op) in &active {
        t.kernel.decide_direct(pid, at, op);
    }
    let before = t.kernel.verdict_cache_stats();
    let seq_before = t.kernel.ledger().next_seq();
    for _ in 0..REPS {
        let kernel = &mut t.kernel;
        spans.time("kernel.decide_hit", BATCH, || {
            for i in 0..BATCH as usize {
                let (pid, op) = nth(i);
                black_box(kernel.decide_direct(pid, at, op));
            }
        });
        t.kernel.clear_history();
    }
    let after = t.kernel.verdict_cache_stats();
    checks.check(after.misses == before.misses, || {
        format!("hit probe missed {} times", after.misses - before.misses)
    });
    out.push(Metric::single(
        "ledger.entries_per_decision",
        "count",
        (t.kernel.ledger().next_seq() - seq_before) as f64 / (REPS as u64 * BATCH) as f64,
    ));
    for _ in 0..REPS {
        let kernel = &t.kernel;
        spans.time("kernel.explain_last", BATCH, || {
            for i in 0..BATCH as usize {
                let (pid, op) = nth(i);
                black_box(kernel.explain_last(pid, op));
            }
        });
    }

    // Forced misses: an epoch bump before every decision, as the
    // `decision_path` bin does, beside the bump alone.
    let monitor = t.kernel.config().monitor;
    const MISSES: u64 = 2_000;
    for _ in 0..REPS {
        let kernel = &mut t.kernel;
        spans.time("kernel.epoch_bump", MISSES, || {
            for _ in 0..MISSES {
                kernel.set_monitor_config(monitor);
            }
        });
        let kernel = &mut t.kernel;
        spans.time("kernel.bump_and_decide", MISSES, || {
            for i in 0..MISSES as usize {
                kernel.set_monitor_config(monitor);
                let (pid, op) = nth(i);
                black_box(kernel.decide_direct(pid, at, op));
            }
        });
        t.kernel.clear_history();
    }

    // Batched ingestion of a decide_hot-shaped mix, and its cache hit
    // ratio (useful lookups ÷ all lookups).
    let mut rng = SimRng::seeded(seed ^ 0x5eed);
    let before = t.kernel.verdict_cache_stats();
    for r in 0..REPS as u64 {
        let at = Timestamp::from_millis(t.now + 50 * (r + 1));
        let batch: Vec<IngestEvent> = (0..4_096)
            .map(|i| {
                let (pid, op) = nth(rng.range(0, active.len() as u64) as usize);
                if i % 64 == 63 {
                    IngestEvent::Interaction { pid, at }
                } else {
                    IngestEvent::Request(OpRequest { pid, op, at })
                }
            })
            .collect();
        let kernel = &mut t.kernel;
        spans.time("kernel.ingest_batch", batch.len() as u64, || {
            black_box(kernel.ingest_batch(&batch))
        });
        t.kernel.clear_history();
    }
    let after = t.kernel.verdict_cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.push(Metric::single(
        "kernel.cache_hit_ratio",
        "ratio",
        hits as f64 / (hits + misses) as f64,
    ));

    // Task lifecycle alone, then the verdict cache's size after a churn of
    // short-lived, decided children: it must stay bounded by live tasks.
    let (parent, op) = nth(0);
    for _ in 0..REPS {
        let kernel = &mut t.kernel;
        spans.time("kernel.lifecycle", 100, || {
            for _ in 0..100 {
                let child = kernel.sys_fork(parent).expect("fork");
                kernel.sys_exit(child, 0).expect("exit");
                kernel.sys_waitpid(parent, child).expect("reap");
            }
        });
    }
    for _ in 0..2_000 {
        let child = t.kernel.sys_fork(parent).expect("fork");
        t.kernel.decide_direct(child, at, op);
        t.kernel.sys_exit(child, 0).expect("exit");
        t.kernel.sys_waitpid(parent, child).expect("reap");
    }
    t.kernel.clear_history();
    let entries = t.kernel.verdict_cache_stats().entries;
    // Twelve cells per task (six operations, quarantined or not); init and
    // the display manager are tasks too.
    let bound = (t.pids.len() + 2) * 12;
    checks.check(entries <= bound, || {
        format!("verdict cache holds {entries} entries after churn, bound {bound}")
    });
    out.push(Metric::single(
        "kernel.cache_entries",
        "count",
        entries as f64,
    ));

    // The wire route: one netlink permission query per operation.
    for _ in 0..10 {
        let (kernel, conn) = (&mut t.kernel, t.conn);
        spans.time("netlink.query", 50, || {
            for i in 0..50 {
                let (pid, op) = nth(i);
                black_box(
                    kernel.netlink_send(conn, NetlinkMessage::PermissionQuery { pid, op, at }),
                )
                .expect("channel up");
            }
        });
    }

    // What an enabled span tracer inside the kernel costs the cached path,
    // as interleaved pairs of rounds.
    let mut overhead = Vec::new();
    for round in 0..10 {
        let mut ns = [0.0; 2];
        for traced in [round % 2 == 1, round % 2 == 0] {
            t.kernel.install_tracer(if traced {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            });
            let start = Instant::now();
            for i in 0..BATCH as usize {
                let (pid, op) = nth(i);
                black_box(t.kernel.decide_direct(pid, at, op));
            }
            ns[usize::from(traced)] = start.elapsed().as_nanos() as f64;
            t.kernel.clear_history();
        }
        overhead.push((ns[1] / ns[0] - 1.0) * 100.0);
    }
    t.kernel.install_tracer(Tracer::disabled());
    out.push(Metric::of_samples("trace.overhead_pct", "%", &overhead));
}

/// `Ledger::append` of verdict-shaped entries, cleared after every batch
/// of 8192, the cadence harnesses clear the kernel's history at. (A
/// never-cleared ledger appends measurably slower.)
fn ledger_layer(spans: &mut Spans) {
    const APPENDS: u64 = 8_192;
    let mut ledger = Ledger::new();
    for r in 0..REPS as u64 {
        spans.time("ledger.append", APPENDS, || {
            for i in 0..APPENDS {
                let entry = LedgerEntry::event(
                    Timestamp::from_millis(r * APPENDS + i),
                    AuditCategory::PermissionGranted,
                    Some(Pid::from_raw(2 + (i % 1_024) as u32)),
                    "permission granted",
                )
                .with_effect(Effect::Verdict {
                    granted: true,
                    op: 0,
                    rule: RuleKind::WithinThreshold,
                });
                black_box(ledger.append(entry));
            }
        });
        ledger.clear();
    }
}

fn table1_layers(seed: u64, spans: &mut Spans, checks: &mut Checks, out: &mut Vec<Metric>) {
    let size = Table1Size {
        pairs: [6, 2, 2, 6, 4],
        ops: [100, 5, 1, 4_096, 20],
    };
    let mut t = Table1::setup(seed, size);
    t.round(spans, &mut Histogram::default(), checks);
    for (i, row) in ROWS.iter().enumerate() {
        let pct: Vec<f64> = t.ratios[i].iter().map(|r| (r - 1.0) * 100.0).collect();
        out.push(Metric::of_samples(
            &format!("table1.overhead_pct.{}", row.name),
            "%",
            &pct,
        ));
    }
    let writes = size.pairs[3] as f64 * size.ops[3] as f64;
    out.push(Metric::single(
        "mm.faults_per_kwrite",
        "count",
        t.shm_faults() as f64 / writes * 1_000.0,
    ));
}

fn session_layers(seed: u64, spans: &mut Spans, checks: &mut Checks, out: &mut Vec<Metric>) {
    let size = SessionSize {
        apps: 4,
        steps: 150,
        checkpoint_step: 110,
    };
    let mut s = session::record(seed, size);
    let mut lat = Histogram::default();

    let span = spans.enter("replay.from_boot");
    let mut system = System::try_new(s.log.config.clone()).expect("the recorded machine boots");
    session::apply_all(&mut system, &s.log.events, spans, &mut lat);
    spans.exit(span, 1);
    session::check_seal(checks, &system, &s.log, "probe replay from boot");

    // Chain verification of both ledgers, as entries per second.
    let entries =
        (s.recorded.kernel_ledger().entries().len() + s.recorded.x_ledger().entries().len()) as f64;
    let mut verify = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let ok = spans.time("ledger.verify", 1, || s.recorded.verify_ledgers().is_ok());
        verify.push(entries / t0.elapsed().as_secs_f64());
        checks.check(ok, || "recorded ledgers failed verification".into());
    }
    out.push(Metric::of_samples(
        "ledger.verify_entries_per_s",
        "1/s",
        &verify,
    ));

    for _ in 0..10 {
        let recorded = &s.recorded;
        spans.time("snapshot.state_hash", 1, || {
            black_box(recorded.state_hash())
        });
        let recorded = &mut s.recorded;
        spans.time("snapshot.checkpoint", 1, || black_box(recorded.snapshot()));
    }
    let snap = s.recorded.snapshot();
    let bytes = snap.to_bytes();
    for _ in 0..10 {
        spans.time("snapshot.restore", 1, || {
            black_box(System::from_snapshot(&snap).expect("restore"))
        });
        spans.time("snapshot.parse", 1, || {
            black_box(Snapshot::from_bytes(&bytes).expect("parse"))
        });
    }
    out.push(Metric::single(
        "snapshot.state_bytes",
        "bytes",
        snap.state().len() as f64,
    ));

    // Reproduction: restore the checkpoint, replay the suffix, reach the
    // sealed hash.
    for _ in 0..3 {
        let span = spans.enter("snapshot.reproduce");
        let mut system = System::from_snapshot(&s.checkpoint).expect("restore");
        let suffix = s.log.suffix(s.checkpoint_at);
        session::apply_all(&mut system, suffix, &mut Spans::off(), &mut lat);
        let hash = system.state_hash();
        spans.exit(span, 1);
        checks.check(Some(hash) == s.log.final_state_hash, || {
            "probe reproduction missed the sealed hash".into()
        });
    }
}

fn fleet_layers(seed: u64, spans: &mut Spans, checks: &mut Checks, out: &mut Vec<Metric>) {
    let size = FleetSize {
        shards: 8,
        steps: 40,
        shrink_replays: 20,
    };
    let mut config = fleet::config(size);
    config.master_seed = SimRng::stream_seed(seed, u64::MAX);
    let t0 = Instant::now();
    let report = spans.time("fleet.run_fleet", size.shards as u64, || run_fleet(&config));
    let fleet_s = t0.elapsed().as_secs_f64();
    fleet::check_report(checks, &report, spans);
    out.push(Metric::single(
        "fleet.ok_frac",
        "ratio",
        report.ok as f64 / report.shards as f64,
    ));
    out.push(Metric::single(
        "fleet.machine_hours_per_wall_hour",
        "ratio",
        report.machine_hours_per_wall_hour(),
    ));

    // The same plans one at a time on one thread, then a forced-panic
    // shard whose triple is shrunk and replayed. The thread name opts into
    // the quiet panic hook.
    let plans: Vec<ShardPlan> = (0..size.shards)
        .map(|i| ShardPlan::derive(config.master_seed, i, &config.workload))
        .collect();
    let mut forced = ShardPlan::derive(!config.master_seed, size.shards, &config.workload);
    forced.chaos.panic_at = Some(size.steps / 2);
    forced.chaos.stall_at = None;
    forced.chaos.spin_at = None;
    let (busy_s, forced) = std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("overhaul-shard-probe".into())
            .spawn_scoped(s, || {
                let t0 = Instant::now();
                for plan in &plans {
                    spans.time("fleet.run_shard", 1, || run_shard(plan, &ShardBeat::new()));
                }
                let busy_s = t0.elapsed().as_secs_f64();
                (busy_s, run_shard(&forced, &ShardBeat::new()).outcome)
            })
            .expect("spawn probe shard thread")
            .join()
            .expect("probe shard thread")
    });
    out.push(Metric::single(
        "fleet.worker_busy_frac",
        "ratio",
        busy_s / (fleet_s * config.workers as f64),
    ));
    match forced {
        ShardOutcome::Failed(triple) => {
            let shrunk = spans.time("fleet.shrink", 1, || {
                shrink_triple(&triple, size.shrink_replays)
            });
            let repro = spans.time("fleet.triple_replay", 1, || replay_triple(&shrunk.triple));
            checks.check(repro.is_reproduced(), || {
                format!("forced triple did not reproduce: {repro:?}")
            });
        }
        other => checks.check(false, || {
            format!("forced panic shard did not fail: {other:?}")
        }),
    }
}
