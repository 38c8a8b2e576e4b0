//! Decision-path microbenchmark: what one permission decision costs along
//! each route through the unified policy engine.
//!
//! ```text
//! cargo run --release -p overhaul-bench --bin decision_path [-- --quick]
//! ```
//!
//! Rows:
//!
//! - `engine eval`  — pure [`PolicyEngine`] evaluation of a prebuilt
//!   snapshot: the decision core with every state read amortized away.
//! - `traced miss`  — the full in-kernel traced path with the verdict
//!   cache invalidated before every query (a policy-epoch bump), i.e. the
//!   cost every mediation paid before verdicts were cached.
//! - `traced hit`   — the full in-kernel traced path served from the
//!   epoch-keyed verdict cache (stats, audit, and `explain_last` still
//!   run on every query).
//! - `wire query`   — the legacy decision route for display-mediated
//!   operations: one netlink `PermissionQuery` round-trip per op, paying
//!   the modelled user/kernel boundary RTT (the kernel charges it; this
//!   row spins it).
//! - `hit+tracing`  — the cached path again, with an enabled span tracer
//!   installed: what always-on observability costs on the hottest route.
//!
//! `--quick` runs a reduced iteration count and asserts two claims,
//! panicking on regression: a cached in-kernel decision is at least 5×
//! faster than the uncached wire query, and enabling tracing costs at
//! most 10% on the cached path. CI runs this mode.

use std::hint::black_box;
use std::time::{Duration, Instant};

use overhaul_bench::spin;
use overhaul_kernel::monitor::ResourceOp;
use overhaul_kernel::netlink::{ConnId, NetlinkMessage, NetlinkReply};
use overhaul_kernel::policy::{OpRequest, PolicyEngine};
use overhaul_kernel::{Kernel, KernelConfig, XORG_PATH};
use overhaul_sim::{Clock, Pid, Timestamp, Tracer};

/// Processes in the benchmark kernel (mixed spawns and fork chains).
const TASKS: usize = 1024;

/// A booted kernel with an authenticated display channel and `TASKS`
/// processes, each holding a fresh interaction so every query below is a
/// within-δ grant.
struct Fixture {
    kernel: Kernel,
    conn: ConnId,
    pids: Vec<Pid>,
    at: Timestamp,
}

fn fixture() -> Fixture {
    let clock = Clock::new();
    let mut kernel = Kernel::new(clock.clone(), KernelConfig::default());
    let x = kernel
        .sys_spawn(Pid::INIT, XORG_PATH)
        .expect("spawn display manager");
    let conn = kernel.netlink_connect(x).expect("authenticate channel");
    kernel.set_channel_required(true);
    let mut pids = Vec::with_capacity(TASKS);
    for i in 0..TASKS {
        // Every eighth process is a fresh spawn; the rest fork off the
        // previous one, giving the process table realistic depth.
        let pid = match pids.last() {
            Some(&prev) if i % 8 != 0 => kernel.sys_fork(prev).expect("fork"),
            _ => kernel
                .sys_spawn(Pid::INIT, &format!("/usr/bin/app{i}"))
                .expect("spawn"),
        };
        pids.push(pid);
    }
    let t = Timestamp::from_millis(1_000);
    for &pid in &pids {
        kernel
            .record_interaction_direct(pid, t)
            .expect("record interaction");
    }
    // Within δ of every interaction, so cached grants stay valid.
    let at = Timestamp::from_millis(1_500);
    Fixture {
        kernel,
        conn,
        pids,
        at,
    }
}

/// Pure engine evaluation against one prebuilt snapshot.
fn bench_engine_eval(f: &mut Fixture, iters: u64) -> Duration {
    let pid = f.pids[0];
    let snapshot = f.kernel.policy_snapshot(pid, false);
    let request = OpRequest {
        pid,
        op: ResourceOp::Mic,
        at: f.at,
    };
    let start = Instant::now();
    for _ in 0..iters {
        black_box(PolicyEngine::decide(black_box(&snapshot), &request));
    }
    start.elapsed()
}

/// Busy-spins the pure engine loop until `budget` has elapsed, so the
/// CPU frequency governor ramps up *before* the measured rounds. On an
/// idle host the first process to run otherwise measures its early
/// rounds at a low clock — a 15–25% spike that best-of rounds inside
/// the same ramp cannot discard. Mutates no kernel state.
fn warm_cpu(f: &mut Fixture, budget: Duration) {
    let start = Instant::now();
    while start.elapsed() < budget {
        black_box(bench_engine_eval(f, 100_000));
    }
}

/// Full traced path. With `force_miss` the policy epoch is bumped before
/// every query (re-applying the unchanged monitor config), so the cache
/// can never answer; without it every query after the warmup is a hit.
fn bench_traced(f: &mut Fixture, iters: u64, force_miss: bool) -> Duration {
    let monitor = f.kernel.config().monitor;
    for &pid in &f.pids {
        f.kernel.decide_direct(pid, f.at, ResourceOp::Mic);
    }
    let mut i = 0usize;
    let start = Instant::now();
    for _ in 0..iters {
        if force_miss {
            f.kernel.set_monitor_config(monitor);
        }
        let pid = f.pids[i];
        i = (i + 1) % f.pids.len();
        black_box(f.kernel.decide_direct(pid, f.at, ResourceOp::Mic));
    }
    start.elapsed()
}

/// The cached decide path with an enabled span tracer: queries are
/// head-sampled 1-in-N into `kernel.decide` spans (the sampling is
/// cache-temperature-blind so restored runs trace identically). The
/// buffer is cleared per round so the recorded samples stay in the
/// recording regime rather than the cheaper span-limit drop path.
fn bench_hit_with_tracing(f: &mut Fixture, iters: u64) -> Duration {
    f.kernel.tracer().clear();
    bench_traced(f, iters, false)
}

/// Rounds per side of the paired hit / hit+tracing measurement.
const PAIRED_ROUNDS: u32 = 15;

/// The cached path with and without an enabled tracer, measured as
/// interleaved rounds. A separate best-of pass per side lets host-load
/// drift between the passes swamp the few-percent overhead the quick
/// mode asserts on; alternating rounds exposes both sides to the same
/// load. Returns each side's best round for the table, plus the *median
/// of the per-pair ratios* — the overhead statistic the quick mode
/// asserts on. Each pair's two rounds run back to back, so slow load
/// drift cancels inside the ratio, and the median discards the pairs a
/// preemption landed in (which skew either direction).
fn paired_hit_and_traced(f: &mut Fixture, iters: u64) -> (f64, f64, f64) {
    let mut hit = f64::INFINITY;
    let mut traced = f64::INFINITY;
    let mut ratios = Vec::with_capacity(PAIRED_ROUNDS as usize);
    for _ in 0..PAIRED_ROUNDS {
        f.kernel.install_tracer(Tracer::disabled());
        let bare = bench_traced(f, iters, false).as_nanos() as f64 / iters as f64;
        f.kernel.install_tracer(Tracer::enabled());
        let spanned = bench_hit_with_tracing(f, iters).as_nanos() as f64 / iters as f64;
        hit = hit.min(bare);
        traced = traced.min(spanned);
        ratios.push(spanned / bare);
    }
    f.kernel.install_tracer(Tracer::disabled());
    ratios.sort_by(f64::total_cmp);
    (hit, traced, ratios[ratios.len() / 2])
}

/// The legacy wire route: one netlink `PermissionQuery` round-trip per
/// operation, each spinning the round trip the kernel charged for it.
fn bench_wire_query(f: &mut Fixture, iters: u64) -> Duration {
    let mut i = 0usize;
    let start = Instant::now();
    for _ in 0..iters {
        let before = f.kernel.modelled_cost().total_ns();
        let pid = f.pids[i];
        i = (i + 1) % f.pids.len();
        let reply = f
            .kernel
            .netlink_send(
                f.conn,
                NetlinkMessage::PermissionQuery {
                    pid,
                    op: ResourceOp::Mic,
                    at: f.at,
                },
            )
            .expect("channel up");
        black_box(matches!(
            reply,
            NetlinkReply::QueryResponse(d) if d.verdict.is_grant()
        ));
        spin(Duration::from_nanos(
            f.kernel.modelled_cost().total_ns() - before,
        ));
    }
    start.elapsed()
}

/// Best per-op time (nanoseconds) over `rounds` runs of `run`.
fn best_per_op(
    f: &mut Fixture,
    iters: u64,
    rounds: u32,
    mut run: impl FnMut(&mut Fixture, u64) -> Duration,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let per_op = run(f, iters).as_nanos() as f64 / iters as f64;
        best = best.min(per_op);
    }
    best
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (engine_iters, kernel_iters, wire_iters) = if quick {
        (200_000, 20_000, 500)
    } else {
        (2_000_000, 100_000, 2_000)
    };
    let mode = if quick { "quick" } else { "full" };
    println!(
        "decision-path microbenchmark ({mode}, best of 3, \
         hit/tracing paired best of {PAIRED_ROUNDS}, {TASKS} tasks)\n"
    );

    let mut f = fixture();
    warm_cpu(&mut f, Duration::from_millis(400));
    let eval = best_per_op(&mut f, engine_iters, 3, bench_engine_eval);
    let miss = best_per_op(&mut f, kernel_iters, 3, |f, n| bench_traced(f, n, true));
    let (hit, hit_traced, tracing_ratio) = paired_hit_and_traced(&mut f, kernel_iters);
    let wire = best_per_op(&mut f, wire_iters, 3, bench_wire_query);

    println!("{:>14} {:>14} {:>10}", "path", "per-op", "vs hit");
    for (label, ns) in [
        ("engine eval", eval),
        ("traced miss", miss),
        ("traced hit", hit),
        ("wire query", wire),
        ("hit+tracing", hit_traced),
    ] {
        println!("{:>14} {:>12.1}ns {:>9.1}x", label, ns, ns / hit);
    }

    let ratio = wire / hit;
    let overhead = (tracing_ratio - 1.0) * 100.0;

    let artifact = overhaul_sim::BenchArtifact::new("decision_path")
        .text("mode", mode)
        .int("tasks", TASKS as u64)
        .num("engine_eval_ns", eval)
        .num("traced_miss_ns", miss)
        .num("traced_hit_ns", hit)
        .num("wire_query_ns", wire)
        .num("hit_tracing_ns", hit_traced)
        .num("wire_vs_hit_ratio", ratio)
        .num("tracing_overhead_pct", overhead);
    match artifact.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nwarning: could not write bench artifact: {e}"),
    }

    println!("\ncached in-kernel decision vs uncached wire query: {ratio:.1}x");
    println!("span-tracing overhead on the cached path (median of paired rounds): {overhead:.1}%");
    if quick {
        assert!(
            ratio >= 5.0,
            "regression: cached decision only {ratio:.1}x faster than the wire query (need >= 5x)"
        );
        assert!(
            overhead <= 10.0,
            "regression: tracing costs {overhead:.1}% on the cached path (budget: 10%)"
        );
        println!("OK: cached decision is >= 5x faster than the uncached wire query");
        println!("OK: tracing overhead on the cached path is within the 10% budget");
    }
}
