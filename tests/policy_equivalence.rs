//! Differential tests for the unified policy engine.
//!
//! The engine replaced a nest of duplicated δ-comparison branches spread
//! over the kernel monitor, the device-open path, and the channel gate.
//! These tests reconstruct that legacy decision shape from kernel
//! observables (read *before* the engine runs) and diff it against the
//! engine's verdicts over randomized timelines — interactions, forks, IPC
//! propagation, ptrace freezes, display-manager crashes and restarts,
//! config flips — plus deterministic fault-plan machines. They also pin the
//! epoch-keyed verdict cache: every invalidation source must force a fresh
//! evaluation, and a cache hit must be indistinguishable from one.

use overhaul_core::{OverhaulConfig, System};
use overhaul_kernel::device::DeviceClass;
use overhaul_kernel::error::Errno;
use overhaul_kernel::monitor::{MonitorConfig, ResourceOp, Verdict};
use overhaul_kernel::netlink::{ChannelState, ConnId, NetlinkMessage};
use overhaul_kernel::policy::DecisionTrace;
use overhaul_kernel::{Kernel, KernelConfig, XORG_PATH};
use overhaul_sim::{Clock, FaultSpec, Pid, SimDuration, Timestamp};
use overhaul_xserver::geometry::Rect;
use proptest::prelude::*;

/// The pre-refactor decision shape, reconstructed from kernel observables:
/// channel gate first, then per-task freeze, then temporal proximity, then
/// grant-all. This is the oracle the engine is diffed against.
fn legacy_verdict(kernel: &Kernel, pid: Pid, at: Timestamp) -> Verdict {
    if kernel.channel_required() && kernel.channel_state() == ChannelState::Down {
        return Verdict::Deny;
    }
    let Ok(task) = kernel.tasks().get(pid) else {
        return Verdict::Deny;
    };
    if task.permissions_frozen() {
        return Verdict::Deny;
    }
    let config = kernel.config().monitor;
    if let Some(t) = task.interaction() {
        if at.saturating_since(t) < config.delta {
            return Verdict::Grant;
        }
    }
    if config.grant_all {
        Verdict::Grant
    } else {
        Verdict::Deny
    }
}

// ------------------------------------------------------------------
// Randomized timelines
// ------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Action {
    Advance(u64),
    Interact(usize),
    Fork(usize),
    MsgSend(usize, usize),
    Freeze(usize),
    Unfreeze(usize),
    CrashX,
    RestartX,
    SetGrantAll(bool),
    SetDelta(u64),
    Query(usize, usize),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u64..3500).prop_map(Action::Advance),
        (0usize..16).prop_map(Action::Interact),
        (0usize..16).prop_map(Action::Fork),
        (0usize..16, 0usize..16).prop_map(|(a, b)| Action::MsgSend(a, b)),
        (0usize..16).prop_map(Action::Freeze),
        (0usize..16).prop_map(Action::Unfreeze),
        Just(Action::CrashX),
        Just(Action::RestartX),
        any::<bool>().prop_map(Action::SetGrantAll),
        (500u64..4000).prop_map(Action::SetDelta),
        (0usize..16, 0usize..6).prop_map(|(p, o)| Action::Query(p, o)),
    ]
}

const OPS: [ResourceOp; 6] = [
    ResourceOp::Mic,
    ResourceOp::Cam,
    ResourceOp::Sensor,
    ResourceOp::Screen,
    ResourceOp::Copy,
    ResourceOp::Paste,
];

struct Harness {
    clock: Clock,
    kernel: Kernel,
    conn: Option<ConnId>,
    x_pid: Pid,
    pids: Vec<Pid>,
}

fn harness() -> Harness {
    let clock = Clock::new();
    let mut kernel = Kernel::new(clock.clone(), KernelConfig::default());
    kernel
        .attach_device(DeviceClass::Microphone, "mic", "/dev/snd/mic0")
        .expect("attach");
    let x_pid = kernel.sys_spawn(Pid::INIT, XORG_PATH).unwrap();
    let conn = kernel.netlink_connect(x_pid).unwrap();
    kernel.set_channel_required(true);
    let pids = (0..4)
        .map(|i| {
            kernel
                .sys_spawn(Pid::INIT, &format!("/usr/bin/app{i}"))
                .unwrap()
        })
        .collect();
    Harness {
        clock,
        kernel,
        conn: Some(conn),
        x_pid,
        pids,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every verdict the engine produces over a random timeline must match
    /// the legacy decision shape, and re-querying the same instant (a cache
    /// hit) must return a byte-identical outcome.
    #[test]
    fn engine_matches_the_legacy_decision_shape(
        actions in prop::collection::vec(action_strategy(), 1..60)
    ) {
        let mut h = harness();
        for action in actions {
            let now = h.clock.now();
            match action {
                Action::Advance(ms) => {
                    h.clock.advance(SimDuration::from_millis(ms));
                    h.kernel.tick();
                }
                Action::Interact(i) => {
                    let pid = h.pids[i % h.pids.len()];
                    if let Some(conn) = h.conn {
                        let _ = h.kernel.netlink_send(
                            conn,
                            NetlinkMessage::InteractionNotification { pid, at: now },
                        );
                    }
                }
                Action::Fork(i) => {
                    if h.pids.len() < 16 {
                        let parent = h.pids[i % h.pids.len()];
                        if let Ok(child) = h.kernel.sys_fork(parent) {
                            h.pids.push(child);
                        }
                    }
                }
                Action::MsgSend(a, b) => {
                    let from = h.pids[a % h.pids.len()];
                    let to = h.pids[b % h.pids.len()];
                    if let Ok(q) = h.kernel.sys_msgget(from, 0x51) {
                        let _ = h.kernel.sys_msgsnd(from, q, 1, b"m");
                        let _ = h.kernel.sys_msgrcv(to, q, 1);
                    }
                }
                Action::Freeze(i) => {
                    let pid = h.pids[i % h.pids.len()];
                    let _ = h.kernel.sys_ptrace_attach(Pid::INIT, pid);
                }
                Action::Unfreeze(i) => {
                    let pid = h.pids[i % h.pids.len()];
                    let _ = h.kernel.sys_ptrace_detach(Pid::INIT, pid);
                }
                Action::CrashX => {
                    if h.kernel.tasks().is_running(h.x_pid) {
                        let _ = h.kernel.sys_exit(h.x_pid, 139);
                        h.conn = None;
                    }
                }
                Action::RestartX => {
                    if !h.kernel.tasks().is_running(h.x_pid) {
                        if let Ok(x) = h.kernel.sys_spawn(Pid::INIT, XORG_PATH) {
                            h.x_pid = x;
                            h.conn = h.kernel.netlink_connect(x).ok();
                        }
                    }
                }
                Action::SetGrantAll(on) => {
                    let delta = h.kernel.config().monitor.delta;
                    h.kernel.set_monitor_config(MonitorConfig {
                        delta,
                        grant_all: on,
                    });
                }
                Action::SetDelta(ms) => {
                    let grant_all = h.kernel.config().monitor.grant_all;
                    h.kernel.set_monitor_config(MonitorConfig {
                        delta: SimDuration::from_millis(ms),
                        grant_all,
                    });
                }
                Action::Query(i, o) => {
                    let pid = h.pids[i % h.pids.len()];
                    let op = OPS[o % OPS.len()];
                    let expected = legacy_verdict(&h.kernel, pid, now);
                    let first = h.kernel.decide_direct(pid, now, op);
                    prop_assert_eq!(first.verdict, expected);
                    let first_outcome = h.kernel.explain_last(pid, op).copied();
                    // Same instant again: served from the cache, and must be
                    // indistinguishable from a fresh evaluation.
                    let second = h.kernel.decide_direct(pid, now, op);
                    prop_assert_eq!(second, first);
                    let second_outcome = h.kernel.explain_last(pid, op).copied();
                    prop_assert_eq!(second_outcome, first_outcome);
                }
            }
        }
    }
}

// ------------------------------------------------------------------
// Snapshot/restore differential: a restored machine (cold caches) must
// decide and trace exactly like the uninterrupted one
// ------------------------------------------------------------------

/// A system-boundary action for the snapshot differential timelines.
#[derive(Debug, Clone)]
enum SysAction {
    Advance(u64),
    Click,
    Key(char),
    CrashX,
    RestartX,
}

fn sys_action_strategy() -> impl Strategy<Value = SysAction> {
    prop_oneof![
        (1u64..3500).prop_map(SysAction::Advance),
        Just(SysAction::Click),
        (0u32..26).prop_map(|i| SysAction::Key(char::from(b'a' + i as u8))),
        Just(SysAction::CrashX),
        Just(SysAction::RestartX),
    ]
}

/// Applies one action, then queries the engine once and returns everything
/// observable about the decision: the device-open outcome and the engine's
/// full explanation (verdict + [`DecisionTrace`]).
fn step_and_decide(
    system: &mut System,
    app: &overhaul_core::Gui,
    action: &SysAction,
) -> (
    Result<(), Errno>,
    Option<overhaul_kernel::policy::DecisionOutcome>,
) {
    match action {
        SysAction::Advance(ms) => {
            system.advance(SimDuration::from_millis(*ms));
        }
        SysAction::Click => {
            system.click_window(app.window);
        }
        SysAction::Key(ch) => {
            system.key(*ch);
        }
        SysAction::CrashX => {
            if system.x_alive() {
                system.crash_x();
            }
        }
        SysAction::RestartX => {
            if !system.x_alive() {
                let _ = system.restart_x();
            }
        }
    }
    let opened = system.open_device(app.pid, "/dev/snd/mic0").map(|_| ());
    let outcome = system
        .kernel()
        .explain_last(app.pid, ResourceOp::Mic)
        .copied();
    (opened, outcome)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Checkpoint a machine mid-timeline, restore it (which rebuilds the
    /// verdict cache and dup-suppression sets empty), and diff every
    /// subsequent engine decision — verdict, [`DecisionTrace`], and the
    /// resulting syscall outcome — against the uninterrupted run. Any
    /// decision a cold cache could change shows up here.
    #[test]
    fn restored_machine_decides_identically_to_uninterrupted_run(
        prefix in prop::collection::vec(sys_action_strategy(), 1..25),
        suffix in prop::collection::vec(sys_action_strategy(), 1..25),
    ) {
        let mut original = System::new(OverhaulConfig::protected());
        let app = original
            .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
            .expect("launch");
        original.settle();
        for action in &prefix {
            let _ = step_and_decide(&mut original, &app, action);
        }

        let snap = original.snapshot();
        let mut restored = System::from_snapshot(&snap).expect("restore");
        prop_assert_eq!(restored.state_hash(), original.state_hash());

        for action in &suffix {
            let uninterrupted = step_and_decide(&mut original, &app, action);
            let resumed = step_and_decide(&mut restored, &app, action);
            prop_assert_eq!(resumed, uninterrupted);
        }
        prop_assert_eq!(restored.state_hash(), original.state_hash());
    }
}

// ------------------------------------------------------------------
// Deterministic fault-plan machines
// ------------------------------------------------------------------

/// Drives whole machines under seeded channel-fault plans and checks that
/// every device-open outcome matches the legacy decision shape computed
/// from the kernel state just before the open.
#[test]
fn faulted_machine_decisions_match_the_legacy_shape() {
    for seed in [1u64, 7, 23] {
        let spec = FaultSpec::quiet(seed).with_drop_p(0.3).with_delay_p(0.2);
        let mut system = System::new(OverhaulConfig::protected().with_fault(spec));
        let app = system
            .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
            .expect("launch");
        system.settle();
        for step in 0..40u32 {
            if step % 3 == 0 {
                system.click_window(app.window);
            }
            system.advance(SimDuration::from_millis(400));
            let now = system.now();
            let expected = legacy_verdict(system.kernel(), app.pid, now);
            let result = system.open_device(app.pid, "/dev/snd/mic0");
            match expected {
                Verdict::Grant => {
                    assert!(
                        result.is_ok(),
                        "seed {seed} step {step}: engine denied where the legacy shape grants"
                    );
                }
                Verdict::Deny => {
                    assert_eq!(
                        result,
                        Err(Errno::Eacces),
                        "seed {seed} step {step}: engine granted where the legacy shape denies"
                    );
                }
            }
        }
    }
}

// ------------------------------------------------------------------
// Epoch invalidation, one test per bump source
// ------------------------------------------------------------------

fn kernel_fixture() -> (Clock, Kernel, Pid) {
    let clock = Clock::new();
    let mut kernel = Kernel::new(clock.clone(), KernelConfig::default());
    kernel
        .attach_device(DeviceClass::Camera, "cam", "/dev/video0")
        .expect("attach");
    let app = kernel.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
    (clock, kernel, app)
}

#[test]
fn interaction_bumps_invalidate_cached_denies() {
    let (_clock, mut kernel, app) = kernel_fixture();
    let t = Timestamp::from_millis(100);
    assert!(!kernel
        .decide_direct(app, t, ResourceOp::Cam)
        .verdict
        .is_grant());
    let misses = kernel.verdict_cache_stats().misses;
    kernel.record_interaction_direct(app, t).unwrap();
    let after = kernel.decide_direct(app, Timestamp::from_millis(150), ResourceOp::Cam);
    assert!(after.verdict.is_grant());
    assert_eq!(
        kernel.verdict_cache_stats().misses,
        misses + 1,
        "the interaction epoch bump must force a fresh evaluation"
    );
}

#[test]
fn config_changes_invalidate_cached_grants() {
    let (_clock, mut kernel, app) = kernel_fixture();
    kernel
        .record_interaction_direct(app, Timestamp::ZERO)
        .unwrap();
    let at = Timestamp::from_millis(1_500);
    assert!(kernel
        .decide_direct(app, at, ResourceOp::Cam)
        .verdict
        .is_grant());
    // Shrink δ below the already-cached gap: the global policy epoch moves,
    // so the cached grant must not survive.
    kernel.set_monitor_config(MonitorConfig {
        delta: SimDuration::from_secs(1),
        grant_all: false,
    });
    assert!(!kernel
        .decide_direct(app, at, ResourceOp::Cam)
        .verdict
        .is_grant());
}

#[test]
fn channel_transitions_invalidate_cached_outcomes() {
    let (_clock, mut kernel, app) = kernel_fixture();
    kernel
        .record_interaction_direct(app, Timestamp::from_millis(100))
        .unwrap();
    let at = Timestamp::from_millis(200);
    assert!(kernel
        .decide_direct(app, at, ResourceOp::Cam)
        .verdict
        .is_grant());
    // Requiring a (nonexistent) channel flips the decision to a fail-closed
    // deny at the same instant.
    kernel.set_channel_required(true);
    let denied = kernel.decide_direct(app, at, ResourceOp::Cam);
    assert!(!denied.verdict.is_grant());
    assert!(matches!(
        kernel.explain_last(app, ResourceOp::Cam).unwrap().trace,
        DecisionTrace::ChannelDown
    ));
    // Bringing the channel up bumps the netlink state generation and
    // restores the grant.
    let x = kernel.sys_spawn(Pid::INIT, XORG_PATH).unwrap();
    kernel.netlink_connect(x).unwrap();
    assert_eq!(kernel.channel_state(), ChannelState::Up);
    assert!(kernel
        .decide_direct(app, at, ResourceOp::Cam)
        .verdict
        .is_grant());
}

#[test]
fn device_map_mutations_bump_the_global_epoch() {
    let (_clock, mut kernel, app) = kernel_fixture();
    kernel
        .record_interaction_direct(app, Timestamp::from_millis(100))
        .unwrap();
    let at = Timestamp::from_millis(200);
    assert!(kernel
        .decide_direct(app, at, ResourceOp::Cam)
        .verdict
        .is_grant());
    let epoch = kernel.policy_epoch();
    let hits = kernel.verdict_cache_stats().hits;
    kernel
        .udev_rename_device("/dev/video0", "/dev/video1")
        .unwrap();
    assert!(
        kernel.policy_epoch() > epoch,
        "map mutations must move the global policy epoch"
    );
    // Same query re-evaluates instead of hitting the stale entry.
    assert!(kernel
        .decide_direct(app, at, ResourceOp::Cam)
        .verdict
        .is_grant());
    assert_eq!(
        kernel.verdict_cache_stats().hits,
        hits,
        "the post-mutation query must not be served from the cache"
    );
}

#[test]
fn fork_children_start_at_epoch_zero_and_decide_fresh() {
    let (_clock, mut kernel, app) = kernel_fixture();
    kernel
        .record_interaction_direct(app, Timestamp::from_millis(100))
        .unwrap();
    let child = kernel.sys_fork(app).unwrap();
    assert_eq!(kernel.tasks().get(child).unwrap().interaction_epoch(), 0);
    let at = Timestamp::from_millis(200);
    let misses = kernel.verdict_cache_stats().misses;
    // The child inherits the timestamp (P1) but not the parent's cache
    // entries: its first query is a miss with its own justification.
    assert!(kernel
        .decide_direct(child, at, ResourceOp::Cam)
        .verdict
        .is_grant());
    assert_eq!(kernel.verdict_cache_stats().misses, misses + 1);
}

#[test]
fn freeze_flips_invalidate_cached_grants() {
    let (_clock, mut kernel, app) = kernel_fixture();
    kernel
        .record_interaction_direct(app, Timestamp::from_millis(100))
        .unwrap();
    let child = kernel.sys_fork(app).unwrap();
    let at = Timestamp::from_millis(200);
    assert!(kernel
        .decide_direct(child, at, ResourceOp::Cam)
        .verdict
        .is_grant());
    kernel.sys_ptrace_attach(app, child).unwrap();
    let frozen = kernel.decide_direct(child, at, ResourceOp::Cam);
    assert!(!frozen.verdict.is_grant());
    assert!(matches!(
        kernel.explain_last(child, ResourceOp::Cam).unwrap().trace,
        DecisionTrace::PermissionsFrozen
    ));
    kernel.sys_ptrace_detach(app, child).unwrap();
    assert!(kernel
        .decide_direct(child, at, ResourceOp::Cam)
        .verdict
        .is_grant());
}

// ------------------------------------------------------------------
// Cache behavior visible through the public counters
// ------------------------------------------------------------------

#[test]
fn stable_timelines_are_served_from_the_cache() {
    let (_clock, mut kernel, app) = kernel_fixture();
    kernel
        .record_interaction_direct(app, Timestamp::from_millis(100))
        .unwrap();
    kernel.decide_direct(app, Timestamp::from_millis(200), ResourceOp::Cam);
    let hits = kernel.verdict_cache_stats().hits;
    for ms in [300u64, 400, 500, 600] {
        let out = kernel.decide_direct(app, Timestamp::from_millis(ms), ResourceOp::Cam);
        assert!(out.verdict.is_grant());
    }
    assert_eq!(
        kernel.verdict_cache_stats().hits,
        hits + 4,
        "nothing changed between queries, so every one is a hit"
    );
    // A hit still reports the gap for *its* instant, not the cached one.
    match kernel.explain_last(app, ResourceOp::Cam).unwrap().trace {
        DecisionTrace::WithinThreshold { elapsed, .. } => {
            assert_eq!(elapsed, SimDuration::from_millis(500));
        }
        other => panic!("expected WithinThreshold, got {other:?}"),
    }
}

#[test]
fn cached_grants_expire_exactly_at_delta() {
    let (_clock, mut kernel, app) = kernel_fixture();
    kernel
        .record_interaction_direct(app, Timestamp::ZERO)
        .unwrap();
    assert!(kernel
        .decide_direct(app, Timestamp::from_millis(1_999), ResourceOp::Cam)
        .verdict
        .is_grant());
    // n == δ must deny even though a within-δ grant sits in the cache.
    assert!(!kernel
        .decide_direct(app, Timestamp::from_millis(2_000), ResourceOp::Cam)
        .verdict
        .is_grant());
}

// ------------------------------------------------------------------
// Audit/overlay reason consistency (channel down, quarantine)
// ------------------------------------------------------------------

#[test]
fn channel_down_cause_agrees_between_audit_and_overlay() {
    let mut system = System::protected();
    let app = system
        .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
        .expect("launch");
    system.settle();
    system.crash_x();
    assert_eq!(
        system.open_device(app.pid, "/dev/snd/mic0"),
        Err(Errno::Eacces)
    );
    assert!(
        system
            .kernel_audit()
            .matching("op=mic denied (channel down)")
            .count()
            >= 1
    );
    system.restart_x().expect("restart succeeds");
    let alert = system.alert_history().last().expect("replayed alert");
    assert_eq!(alert.reason.as_deref(), Some("channel down"));
    let rendered = alert.render();
    assert!(rendered.contains("(channel down)"));
    assert!(rendered.ends_with("(delayed)"));
}

#[test]
fn quarantine_cause_agrees_between_audit_and_overlay() {
    let mut system = System::protected();
    let app = system
        .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
        .expect("launch");
    system.settle();
    system.click_window(app.window);
    // The helper revokes the camera's path; its update for the new path
    // never arrives, so the device is quarantined.
    system
        .kernel_mut()
        .apply_device_map_update("/dev/video0", "/dev/video-not-yet-there");
    assert_eq!(
        system.open_device(app.pid, "/dev/video0"),
        Err(Errno::Eacces),
        "quarantined even with fresh interaction credit"
    );
    let needle = "quarantined pending helper update";
    assert!(
        system
            .kernel_audit()
            .matching(&format!("op=cam denied ({needle})"))
            .count()
            >= 1
    );
    let alert = system.alert_history().last().expect("alert displayed");
    assert_eq!(alert.reason.as_deref(), Some(needle));
    assert!(alert.render().contains(&format!("({needle})")));
}
