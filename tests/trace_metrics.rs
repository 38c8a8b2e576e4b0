//! Virtual-time tracing and the unified metrics layer.
//!
//! Three guarantees from the tracing/metrics work are pinned here, end to
//! end over whole machines:
//!
//! 1. **Determinism** — tracing is driven purely by virtual time and the
//!    seeded fault plan, so two machines booted with the same
//!    configuration and workload produce byte-identical trace dumps and
//!    metrics pages (the golden-trace property CI relies on).
//! 2. **Parity** — `/proc/overhaul/metrics` is rendered from the legacy
//!    stats structs at read time, so every exported counter must equal the
//!    struct field it mirrors, exactly, at any point in a run.
//! 3. **Boundaries** — the temporal-proximity threshold δ and the
//!    shared-memory wait window are strict: an access at *exactly* the
//!    boundary falls on the deny/re-fault side, for arbitrary window
//!    sizes.

use overhaul_core::{OverhaulConfig, System};
use overhaul_kernel::error::Errno;
use overhaul_kernel::procfs;
use overhaul_sim::{FaultSpec, SimDuration};
use overhaul_xserver::geometry::Rect;
use proptest::prelude::*;

/// A tracing-enabled machine under a seeded fault plan that exercises the
/// delay, duplicate, and reorder paths (but never drops: the workload
/// below asserts grants that need a live channel).
fn traced_config() -> OverhaulConfig {
    OverhaulConfig::protected().with_tracing().with_fault(
        FaultSpec::quiet(0x7ace)
            .with_delay_p(0.3)
            .with_duplicate_p(0.3),
    )
}

/// Drives every traced mediation path once: channel exchanges (with
/// faults), cached and uncached decisions, grants and denies, IPC credit
/// propagation, shm interposition with a wait-list re-arm, and X input
/// authentication.
fn run_workload(system: &mut System) {
    let app = system
        .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
        .expect("launch");
    system.settle();
    assert!(system.click_window(app.window), "click lands");
    system.advance(SimDuration::from_millis(100));
    assert!(
        system.open_device(app.pid, "/dev/snd/mic0").is_ok(),
        "within-δ grant"
    );
    // Same (pid, op, instant): served by the verdict cache.
    assert!(system.open_device(app.pid, "/dev/snd/mic0").is_ok());

    // Credit propagation over a SysV message queue to a background helper.
    let spy = system.spawn_process(None, "/usr/bin/.spy").expect("spawn");
    let q = system
        .kernel_mut()
        .sys_msgget(app.pid, 0x51)
        .expect("msgget");
    system
        .kernel_mut()
        .sys_msgsnd(app.pid, q, 1, b"m")
        .expect("msgsnd");
    system.kernel_mut().sys_msgrcv(spy, q, 1).expect("msgrcv");
    let _ = system.open_device(spy, "/dev/video0");

    // Shared-memory interposition: first access faults, the wait window
    // expires across an advance (housekeeping tick re-arms), next access
    // faults again.
    let shm = system
        .kernel_mut()
        .sys_shm_open(app.pid, "/seg", 1)
        .expect("shm_open");
    let vma = system.kernel_mut().sys_shmat(app.pid, shm).expect("shmat");
    system
        .kernel_mut()
        .sys_shm_write(app.pid, vma, 0, b"x")
        .expect("write");
    system.advance(SimDuration::from_millis(600));
    system
        .kernel_mut()
        .sys_shm_write(app.pid, vma, 0, b"y")
        .expect("write");

    // Let the interaction go stale: a deny through the full traced path.
    system.advance(SimDuration::from_secs(3));
    assert_eq!(
        system.open_device(app.pid, "/dev/snd/mic0"),
        Err(Errno::Eacces),
        "stale interaction denies"
    );
}

/// Reads one counter/gauge value from a rendered metrics page.
fn metric(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("metric {name} missing from page:\n{page}"))
        .parse()
        .unwrap_or_else(|err| panic!("metric {name} is not numeric: {err}"))
}

#[test]
fn golden_trace_same_seed_runs_are_byte_identical() {
    let run = || {
        let mut system = System::new(traced_config());
        run_workload(&mut system);
        (system.trace_dump(), system.metrics())
    };
    let (trace_a, metrics_a) = run();
    let (trace_b, metrics_b) = run();
    assert_eq!(trace_a, trace_b, "same seed must replay the same trace");
    assert_eq!(metrics_a, metrics_b, "same seed, same metrics page");

    // The dump is a real span tree, not a trivially equal empty one.
    for name in [
        "kernel.decide",
        "kernel.channel.exchange",
        "x.input",
        "ipc.hop",
        "mm.rearm",
    ] {
        assert!(trace_a.contains(name), "trace must contain {name}");
    }
}

#[test]
fn disabled_tracing_renders_the_empty_tree() {
    let mut system = System::protected();
    assert!(!system.tracer().is_enabled());
    run_workload(&mut system);
    assert_eq!(
        system.trace_dump(),
        "{\"spans\":0,\"dropped\":0,\"trace\":[]}"
    );
}

#[test]
fn metrics_page_matches_the_legacy_stats_structs() {
    let mut system = System::new(traced_config());
    run_workload(&mut system);

    let page = system
        .kernel()
        .sys_procfs_read(procfs::METRICS)
        .expect("metrics node readable");
    assert_eq!(
        page,
        system.metrics(),
        "System::metrics must be the procfs page verbatim"
    );

    let s = system.kernel().monitor_stats();
    assert_eq!(
        metric(&page, "overhaul_monitor_notifications_total"),
        s.notifications
    );
    assert_eq!(metric(&page, "overhaul_monitor_grants_total"), s.grants);
    assert_eq!(metric(&page, "overhaul_monitor_denies_total"), s.denies);
    assert_eq!(
        metric(&page, "overhaul_monitor_fail_closed_denies_total"),
        s.fail_closed_denies
    );
    assert_eq!(
        metric(&page, "overhaul_monitor_alerts_queued_total"),
        s.alerts_queued
    );
    assert_eq!(
        metric(&page, "overhaul_channel_retries_total"),
        s.channel_retries
    );
    assert_eq!(
        metric(&page, "overhaul_channel_drops_total"),
        s.channel_drops
    );
    assert_eq!(
        metric(&page, "overhaul_channel_reconnects_total"),
        s.channel_reconnects
    );
    assert_eq!(
        metric(&page, "overhaul_channel_dup_suppressed_total"),
        s.channel_dup_suppressed
    );

    let m = system.kernel().mm_stats();
    assert_eq!(metric(&page, "overhaul_mm_faults_total"), m.faults);
    assert_eq!(metric(&page, "overhaul_mm_direct_total"), m.direct);
    assert_eq!(metric(&page, "overhaul_mm_rearms_total"), m.rearms);
    assert!(m.rearms >= 1, "workload crossed the shm wait window");

    let c = system.kernel().verdict_cache_stats();
    assert_eq!(metric(&page, "overhaul_verdict_cache_hits_total"), c.hits);
    assert_eq!(
        metric(&page, "overhaul_verdict_cache_misses_total"),
        c.misses
    );
    assert_eq!(
        metric(&page, "overhaul_verdict_cache_entries"),
        c.entries as u64
    );
    assert!(c.hits >= 1, "workload repeated a decision");

    let f = system.fault_plan().expect("plan installed").stats();
    assert_eq!(metric(&page, "overhaul_fault_channel_draws_total"), f.drawn);
    assert_eq!(metric(&page, "overhaul_fault_delays_total"), f.delays);
    assert_eq!(
        metric(&page, "overhaul_fault_duplicates_total"),
        f.duplicates
    );

    // Tracing-native series only the registry knows about.
    assert_eq!(
        metric(
            &page,
            "overhaul_propagation_hops_total{mechanism=\"sysv-msgq\"}"
        ),
        1,
        "the msgq hop must be counted per mechanism"
    );
    assert_eq!(metric(&page, "overhaul_mm_rearm_events_total"), m.rearms);
    assert!(
        page.contains("# TYPE overhaul_channel_exchange_ms histogram"),
        "virtual-time histogram exported"
    );
}

#[test]
fn snapshot_counters_reach_the_metrics_page() {
    let mut system = System::new(traced_config());
    run_workload(&mut system);

    // Before any checkpoint, every snapshot series renders as zero.
    let page = system.metrics();
    assert_eq!(metric(&page, "overhaul_snapshot_bytes_total"), 0);
    assert_eq!(
        metric(&page, "overhaul_restore_rebuild_verdict_cache_total"),
        0
    );
    assert_eq!(
        metric(&page, "overhaul_restore_rebuild_dup_suppress_total"),
        0
    );
    assert_eq!(metric(&page, "overhaul_replay_divergence_total"), 0);

    // Checkpoint, diverge, roll back: the page must account for the bytes
    // exported and for every derived structure the restore rebuilt.
    let snap = system.snapshot();
    system.advance(SimDuration::from_secs(1));
    system.restore(&snap).expect("restore");
    system.kernel_mut().note_replay_divergence();

    let page = system.metrics();
    let stats = system.kernel().snapshot_stats();
    assert_eq!(
        metric(&page, "overhaul_snapshot_bytes_total"),
        stats.snapshot_bytes
    );
    assert_eq!(stats.snapshot_bytes, snap.state().len() as u64);
    assert_eq!(
        metric(&page, "overhaul_restore_rebuild_verdict_cache_total"),
        stats.restore_rebuild_verdict_cache
    );
    assert_eq!(stats.restore_rebuild_verdict_cache, 1);
    assert_eq!(
        metric(&page, "overhaul_restore_rebuild_dup_suppress_total"),
        stats.restore_rebuild_dup_suppress
    );
    assert!(
        stats.restore_rebuild_dup_suppress >= 1,
        "the live channel connection's suppression set was rebuilt"
    );
    assert_eq!(metric(&page, "overhaul_replay_divergence_total"), 1);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// δ is a strict bound: an open at *exactly* `interaction + δ` is
    /// stale and must deny; one virtual millisecond inside, it grants —
    /// for arbitrary δ.
    #[test]
    fn open_at_exactly_delta_is_denied(delta_ms in 50u64..2_000) {
        let config = OverhaulConfig::protected()
            .with_delta(SimDuration::from_millis(delta_ms));
        let mut system = System::new(config);
        let app = system
            .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
            .expect("launch");
        system.settle();

        prop_assert!(system.click_window(app.window));
        system.advance(SimDuration::from_millis(delta_ms));
        prop_assert_eq!(
            system.open_device(app.pid, "/dev/snd/mic0"),
            Err(Errno::Eacces),
            "elapsed == δ is outside the window"
        );

        prop_assert!(system.click_window(app.window));
        system.advance(SimDuration::from_millis(delta_ms - 1));
        prop_assert!(
            system.open_device(app.pid, "/dev/snd/mic0").is_ok(),
            "elapsed == δ − 1ms is inside the window"
        );
    }

    /// The shm wait window is strict even without a housekeeping tick: an
    /// access at *exactly* `fault + wait` re-faults (lazy wait-list
    /// expiry), one millisecond earlier it is direct — for arbitrary
    /// window sizes.
    #[test]
    fn shm_access_at_exactly_the_wait_window_refaults(wait_ms in 20u64..1_500) {
        let config = OverhaulConfig::protected()
            .with_shm_wait(SimDuration::from_millis(wait_ms));
        let mut system = System::new(config);
        let a = system.spawn_process(None, "/usr/bin/a").expect("spawn");
        let shm = system.kernel_mut().sys_shm_open(a, "/seg", 1).expect("open");
        let vma = system.kernel_mut().sys_shmat(a, shm).expect("attach");

        system.kernel_mut().sys_shm_write(a, vma, 0, b"x").expect("write");
        let base = system.kernel().mm_stats();
        prop_assert!(base.faults >= 1, "first access faults");

        // One millisecond inside the window: direct access. The clock is
        // advanced without System::advance so no tick runs — expiry must
        // happen lazily on the access path itself.
        system.clock().advance(SimDuration::from_millis(wait_ms - 1));
        system.kernel_mut().sys_shm_write(a, vma, 0, b"y").expect("write");
        let inside = system.kernel().mm_stats();
        prop_assert_eq!(inside.faults, base.faults, "still within the wait window");
        prop_assert_eq!(inside.direct, base.direct + 1);

        // Exactly at the deadline: the wait entry has expired and the
        // access must take the re-armed fault.
        system.clock().advance(SimDuration::from_millis(1));
        system.kernel_mut().sys_shm_write(a, vma, 0, b"z").expect("write");
        let at = system.kernel().mm_stats();
        prop_assert_eq!(at.faults, base.faults + 1, "re-fault at exactly the deadline");
        prop_assert_eq!(at.rearms, base.rearms + 1);
        prop_assert_eq!(
            metric(&system.metrics(), "overhaul_mm_rearm_events_total"),
            at.rearms,
            "a lazy re-arm is a re-arm event"
        );
    }
}
