//! Deterministic fault injection on the kernel↔display-manager channel.
//!
//! Drives whole machines under seeded [`FaultSpec`] plans — dropped,
//! delayed, duplicated, and reordered netlink messages, scheduled
//! display-manager crashes, transient VFS stat failures during channel
//! authentication — and checks the fail-closed invariant end to end: no
//! fault schedule, crash timing, or message interleaving may ever produce
//! a grant without a fresh (< δ) authentic interaction, and after a
//! restart the channel re-authenticates and replays buffered alerts
//! exactly once.

use overhaul_core::timeline::{self, Source};
use overhaul_core::{BootError, OverhaulConfig, System};
use overhaul_kernel::error::Errno;
use overhaul_kernel::netlink::{ChannelState, NetlinkError, NetlinkMessage};
use overhaul_kernel::procfs;
use overhaul_sim::{AuditCategory, FaultPlan, FaultSpec, Pid, SimDuration, Timestamp};
use overhaul_xserver::geometry::Rect;
use proptest::prelude::*;

/// The fail-closed channel oracle: walks the merged kernel and display
/// timeline and returns the first grant made while the display channel
/// was down, rendered as its timeline row.
///
/// The channel goes down at a `-> down` transition row. It comes back
/// only on evidence that a message got through: a kernel interaction
/// notification, a display-channel re-authentication, or an alert the
/// display manager showed. A channel-state row is the kernel's own
/// conclusion, so `down -> degraded` and `down -> up` end nothing.
fn grant_while_down(system: &System) -> Option<String> {
    let mut down = false;
    for row in timeline::merge(system) {
        let entry = row.entry;
        match (row.source, entry.category) {
            (Source::Kernel, AuditCategory::ChannelEvent) if entry.detail().contains("-> down") => {
                down = true;
            }
            (Source::Kernel, AuditCategory::ChannelEvent)
                if entry.detail() == "netlink: display channel re-authenticated" =>
            {
                down = false;
            }
            (Source::Kernel, AuditCategory::InteractionNotification)
            | (Source::DisplayManager, AuditCategory::AlertDisplayed) => down = false,
            (Source::Kernel, AuditCategory::PermissionGranted) if down => {
                return Some(row.to_string());
            }
            _ => {}
        }
    }
    None
}

/// Boots a protected machine under `spec` with one GUI app and one
/// background spy process.
fn machine_under(spec: FaultSpec) -> (System, overhaul_core::Gui, overhaul_sim::Pid) {
    let mut system = System::new(OverhaulConfig::protected().with_fault(spec));
    let app = system
        .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
        .expect("launch");
    system.settle();
    let spy = system.spawn_process(None, "/usr/bin/.spy").expect("spawn");
    (system, app, spy)
}

#[test]
fn quiet_plan_changes_nothing() {
    let (mut system, app, _) = machine_under(FaultSpec::quiet(1));
    assert!(system.click_window(app.window));
    system.advance(SimDuration::from_millis(100));
    assert!(system.open_device(app.pid, "/dev/snd/mic0").is_ok());
    assert_eq!(system.channel_state(), ChannelState::Up);
    assert_eq!(system.alert_history().len(), 1);
    let stats = system.kernel().monitor_stats();
    assert_eq!(stats.channel_retries, 0);
    assert_eq!(stats.channel_drops, 0);
    assert_eq!(stats.fail_closed_denies, 0);
}

#[test]
fn drop_storm_takes_channel_down_and_fails_closed() {
    let (mut system, app, _) = machine_under(FaultSpec::quiet(2).with_drop_p(1.0));
    // The click's notification is lost after every retry: the channel
    // goes down and the kernel never learns of the interaction.
    system.click_window(app.window);
    assert_eq!(system.channel_state(), ChannelState::Down);
    system.advance(SimDuration::from_millis(50));
    assert_eq!(
        system.open_device(app.pid, "/dev/snd/mic0"),
        Err(Errno::Eacces)
    );
    assert!(system.kernel().monitor_stats().fail_closed_denies >= 1);
    assert!(system.kernel_audit().matching("(channel down)").count() >= 1);

    // The fault clears: the next exchange restores the channel and a
    // fresh click grants again.
    system
        .kernel_mut()
        .fault_plan_mut()
        .expect("plan installed")
        .set_armed(false);
    system.click_window(app.window);
    assert_eq!(system.channel_state(), ChannelState::Up);
    system.advance(SimDuration::from_millis(50));
    assert!(system.open_device(app.pid, "/dev/snd/mic0").is_ok());
}

/// Boots a protected machine, delivers one click on its app, then loses
/// every message of a second click under a drop-everything plan installed
/// after boot, so the channel goes `up -> down` within δ of a click the
/// kernel did record.
fn outage_after_a_delivered_click() -> (System, overhaul_core::Gui) {
    let mut system = System::protected();
    let app = system
        .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
        .expect("launch");
    system.settle();
    assert!(system.click_window(app.window));
    assert_eq!(system.kernel().monitor_stats().notifications, 1);
    system
        .kernel_mut()
        .install_fault_plan(FaultPlan::new(FaultSpec::quiet(31).with_drop_p(1.0)));
    system.click_window(app.window);
    assert_eq!(system.channel_state(), ChannelState::Down);
    (system, app)
}

/// A denied open's alert push is lost while the channel is down. The
/// drain delivered nothing, so it must not lift the channel, and the
/// second open must fail closed like the first instead of being granted
/// on the click from before the outage.
#[test]
fn a_drain_that_delivers_nothing_leaves_the_channel_down() {
    let (mut system, app) = outage_after_a_delivered_click();
    system.advance(SimDuration::from_millis(10));
    let first = system.open_device(app.pid, "/dev/snd/mic0");
    let second = system.open_device(app.pid, "/dev/snd/mic0");
    assert_eq!(grant_while_down(&system), None);
    assert_eq!((first, second), (Err(Errno::Eacces), Err(Errno::Eacces)));
    assert_eq!(system.channel_state(), ChannelState::Down);
    assert_eq!(
        system.kernel_audit().matching("down -> degraded").count(),
        0
    );
}

/// A notification stashed by a reorder fault has not reached the kernel.
/// A stash is not a delivery, so it leaves a down channel down, and an
/// open before the stash is flushed fails closed instead of being granted
/// on the click from before the outage.
#[test]
fn a_reorder_stash_leaves_the_channel_down() {
    let (mut system, app) = outage_after_a_delivered_click();
    system
        .kernel_mut()
        .install_fault_plan(FaultPlan::new(FaultSpec::quiet(32).with_reorder_p(1.0)));
    system.click_window(app.window);
    system.advance(SimDuration::from_millis(10));
    let open = system.open_device(app.pid, "/dev/snd/mic0");
    assert_eq!(grant_while_down(&system), None);
    assert_eq!(open, Err(Errno::Eacces));
    assert_eq!(system.channel_state(), ChannelState::Down);

    // The next message that gets through lifts the channel and flushes
    // the stash behind it, so a fresh click grants again.
    system
        .kernel_mut()
        .fault_plan_mut()
        .expect("plan installed")
        .set_armed(false);
    assert!(system.click_window(app.window));
    assert_eq!(system.channel_state(), ChannelState::Up);
    system.advance(SimDuration::from_millis(10));
    assert!(system.open_device(app.pid, "/dev/snd/mic0").is_ok());
    assert_eq!(grant_while_down(&system), None);
}

#[test]
fn delay_storm_degrades_but_still_grants() {
    let (mut system, app, _) = machine_under(FaultSpec::quiet(3).with_delay_p(1.0));
    system.click_window(app.window);
    system.advance(SimDuration::from_millis(100));
    assert!(
        system.open_device(app.pid, "/dev/snd/mic0").is_ok(),
        "delays cost virtual time, not correctness"
    );
    assert_eq!(system.channel_state(), ChannelState::Degraded);
    assert!(system.kernel_audit().matching("delayed in flight").count() >= 1);
}

#[test]
fn duplicate_storm_is_suppressed_by_dedup() {
    let (mut system, app, _) = machine_under(FaultSpec::quiet(4).with_duplicate_p(1.0));
    for _ in 0..3 {
        system.click_window(app.window);
        system.advance(SimDuration::from_millis(30));
    }
    let stats = system.kernel().monitor_stats();
    assert_eq!(
        stats.notifications, 3,
        "each duplicated notification must be recorded exactly once"
    );
    assert!(stats.channel_dup_suppressed >= 3);
}

/// Regression for the duplicate-suppression eviction bug: the bounded
/// per-connection delivery record used to evict sequence numbers in an
/// order that could readmit a late duplicate of an already-applied
/// notification. Eviction now only forgets *below* the contiguous-delivery
/// watermark, so a long seeded storm of duplicated and reordered
/// notifications — far more traffic than the record holds — must still
/// apply every interaction exactly once, in both directions: no replayed
/// copy is re-applied, and no genuinely fresh notification is wrongly
/// suppressed.
#[test]
fn long_duplicate_storm_never_reapplies_after_eviction() {
    let (mut system, app, _) = machine_under(
        FaultSpec::quiet(0xded0)
            .with_duplicate_p(0.6)
            .with_reorder_p(0.3)
            .with_delay_p(0.2),
    );
    // Well past the 64-entry delivery record.
    const CLICKS: u64 = 100;
    for _ in 0..CLICKS {
        assert!(system.click_window(app.window));
        system.advance(SimDuration::from_millis(10));
    }
    // A reordered notification is stashed until the next exchange; disarm
    // the plan and send one clean click to drain any stashed tail.
    system
        .kernel_mut()
        .fault_plan_mut()
        .expect("plan installed")
        .set_armed(false);
    assert!(system.click_window(app.window));

    let stats = system.kernel().monitor_stats();
    assert_eq!(
        stats.notifications,
        CLICKS + 1,
        "every click must be recorded exactly once, duplicates and \
         reorders notwithstanding"
    );
    assert!(
        stats.channel_dup_suppressed >= CLICKS / 3,
        "the seeded storm must actually have exercised the dedup path \
         (suppressed only {})",
        stats.channel_dup_suppressed
    );
}

#[test]
fn crash_restart_cycle_replays_every_buffered_alert_once() {
    let (mut system, _, spy) = machine_under(FaultSpec::quiet(5));
    // One alert delivered normally while the channel is up.
    assert_eq!(system.open_device(spy, "/dev/video0"), Err(Errno::Eacces));
    assert_eq!(system.alert_history().len(), 1);

    system.crash_x();
    // Two denials while down: their alerts stay buffered kernel-side.
    assert_eq!(system.open_device(spy, "/dev/video0"), Err(Errno::Eacces));
    assert_eq!(system.open_device(spy, "/dev/snd/mic0"), Err(Errno::Eacces));
    assert_eq!(system.alert_history().len(), 1, "no overlay while down");
    assert_eq!(system.kernel().pending_push_count(), 2);

    let replayed = system.restart_x().expect("restart succeeds");
    assert_eq!(replayed, 2);
    assert_eq!(system.alert_history().len(), 3);
    assert!(system.alert_history()[1].replayed);
    assert!(system.alert_history()[2].replayed);
    assert_eq!(system.kernel().pending_push_count(), 0);

    // Nothing replays twice.
    system.pump_alerts();
    assert_eq!(system.alert_history().len(), 3);
}

#[test]
fn exited_display_manager_is_invalidated_eagerly() {
    let mut system = System::protected();
    let conn = system.x_conn().expect("protected machine has a channel");
    let x_pid = system.x_pid();
    system.kernel_mut().sys_exit(x_pid, 0).expect("exit");

    // The exit path itself severs the connection — no sweep, no window
    // for a recycled pid to inherit the old authenticated channel.
    assert_eq!(system.channel_state(), ChannelState::Down);
    assert_eq!(
        system.kernel_mut().netlink_send(
            conn,
            NetlinkMessage::InteractionNotification {
                pid: x_pid,
                at: Timestamp::ZERO,
            },
        ),
        Err(NetlinkError::UnknownConnection)
    );
    assert!(
        system
            .kernel_audit()
            .matching("invalidated on process exit")
            .count()
            >= 1
    );
}

#[test]
fn boot_fails_cleanly_when_authentication_cannot_complete() {
    let config =
        OverhaulConfig::protected().with_fault(FaultSpec::quiet(6).with_vfs_stat_fail_p(1.0));
    assert_eq!(
        System::try_new(config).expect_err("boot must fail"),
        BootError::ChannelAuth(NetlinkError::AuthTransient)
    );
}

/// A scripted workload mixing legitimate clicks, device opens, spy
/// attempts, and restarts, returning a determinism fingerprint.
fn scripted_run(spec: FaultSpec) -> (usize, usize, u64, u64, u64) {
    let (mut system, app, spy) = machine_under(spec);
    for round in 0..30u64 {
        system.click_window(app.window);
        system.advance(SimDuration::from_millis(100 + (round * 137) % 800));
        let _ = system.open_device(app.pid, "/dev/snd/mic0");
        let _ = system.open_device(spy, "/dev/video0");
        system.advance(SimDuration::from_millis(400));
        if !system.x_alive() && round % 3 == 0 {
            let _ = system.restart_x();
        }
    }
    let stats = system.kernel().monitor_stats();
    (
        system.kernel_audit().len(),
        system.alert_history().len(),
        stats.grants,
        stats.denies,
        stats.channel_retries,
    )
}

#[test]
fn identical_fault_plans_produce_identical_runs() {
    let spec = || {
        FaultSpec::quiet(99)
            .with_drop_p(0.2)
            .with_delay_p(0.2)
            .with_duplicate_p(0.1)
            .with_reorder_p(0.1)
            .with_x_crashes(vec![
                Timestamp::from_millis(3_000),
                Timestamp::from_millis(9_000),
            ])
    };
    assert_eq!(scripted_run(spec()), scripted_run(spec()));
}

/// A plan installed after boot is state, like one compiled from the boot
/// configuration, and so are the knobs set after boot: δ and ptrace
/// hardening through procfs, grant-all through the monitor. The machine
/// reports them, its snapshot carries them, a restored machine reads and
/// decides what the live one does, and the plan's crash schedule fires.
#[test]
fn plan_installed_after_boot_is_part_of_the_state() {
    let mut live = System::protected();
    let app = live
        .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
        .expect("launch");
    live.settle();
    let kernel = live.kernel_mut();
    kernel
        .sys_procfs_write(Pid::INIT, procfs::DELTA_MS, "750")
        .expect("root sets δ");
    kernel
        .sys_procfs_write(Pid::INIT, procfs::PTRACE_HARDENING, "0")
        .expect("root turns hardening off");
    let mut monitor = kernel.config().monitor;
    monitor.grant_all = true;
    kernel.set_monitor_config(monitor);
    let crash_at = live.now() + SimDuration::from_millis(500);
    let spec = FaultSpec::quiet(9)
        .with_drop_p(1.0)
        .with_x_crashes(vec![crash_at]);
    live.kernel_mut().install_fault_plan(FaultPlan::new(spec));
    assert_eq!(live.fault_plan().map(|plan| plan.spec().seed), Some(9));
    let config = live.kernel().config();
    assert_eq!(config.monitor.delta, SimDuration::from_millis(750));
    assert!(config.monitor.grant_all && !config.ptrace_hardening);

    let mut restored = System::from_snapshot(&live.snapshot()).expect("restore");
    assert_eq!(restored.state_hash(), live.state_hash());
    for node in [procfs::PTRACE_HARDENING, procfs::DELTA_MS, procfs::STATS] {
        assert_eq!(
            restored.kernel().sys_procfs_read(node),
            live.kernel().sys_procfs_read(node),
            "{node}"
        );
    }
    assert_eq!(restored.kernel().config(), live.kernel().config());
    assert_eq!(restored.control_plane(), live.control_plane());
    let verdicts = [&mut live, &mut restored].map(|machine| {
        // Grant-all grants a request no interaction stands behind.
        let spy = machine.spawn_process(None, "/usr/bin/.spy").expect("spawn");
        let unprompted = machine.open_device(spy, "/dev/video0").is_ok();
        assert!(unprompted, "grant-all survives the restore");
        // Every message is dropped: the click never reaches the kernel,
        // and a down channel fails closed even under grant-all.
        machine.click_window(app.window);
        machine.advance(SimDuration::from_millis(10));
        assert_eq!(
            machine.open_device(app.pid, "/dev/snd/mic0"),
            Err(Errno::Eacces)
        );
        let channel = machine.channel_state();
        machine.advance(SimDuration::from_secs(1));
        assert!(!machine.x_alive(), "the scheduled crash fired");
        (unprompted, channel)
    });
    assert_eq!(verdicts[0], verdicts[1]);
    assert_eq!(restored.state_hash(), live.state_hash());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// The fail-closed invariant under arbitrary seeded fault plans: no
    /// grant without a fresh (< δ) interaction notification for the same
    /// pid, no grant at all while the channel is down, and the spy gets
    /// nothing — regardless of drop/delay/duplicate/reorder schedules and
    /// crash/restart timing.
    #[test]
    fn fail_closed_invariant_holds_under_arbitrary_faults(
        seed in 0u64..1_000_000,
        drop_p in 0.0f64..0.5,
        delay_p in 0.0f64..0.3,
        dup_p in 0.0f64..0.3,
        reorder_p in 0.0f64..0.2,
        crash_at in prop::collection::vec(500u64..30_000, 0..3),
    ) {
        let spec = FaultSpec::quiet(seed)
            .with_drop_p(drop_p)
            .with_delay_p(delay_p)
            .with_duplicate_p(dup_p)
            .with_reorder_p(reorder_p)
            .with_x_crashes(crash_at.iter().copied().map(Timestamp::from_millis).collect());
        let (mut system, app, spy) = machine_under(spec);

        for round in 0..40u64 {
            system.click_window(app.window);
            system.advance(SimDuration::from_millis(100 + (seed + round * 61) % 900));
            let _ = system.open_device(app.pid, "/dev/snd/mic0");
            let _ = system.open_device(spy, "/dev/video0");
            system.advance(SimDuration::from_millis(400));
            if !system.x_alive() && round % 3 == 0 {
                let _ = system.restart_x();
            }
        }
        if !system.x_alive() {
            let _ = system.restart_x();
        }

        // The spy never gets a grant, under any schedule.
        prop_assert_eq!(
            system
                .kernel_audit()
                .count_for(AuditCategory::PermissionGranted, spy),
            0
        );

        // Every grant follows an interaction notification for the same
        // pid within δ.
        let delta = SimDuration::from_secs(2);
        let events: Vec<_> = system.kernel_audit().events().collect();
        for (i, e) in events.iter().enumerate() {
            if e.category == AuditCategory::PermissionGranted {
                let justified = events[..i].iter().any(|p| {
                    p.category == AuditCategory::InteractionNotification
                        && p.pid == e.pid
                        && e.at.saturating_since(p.at) < delta
                });
                prop_assert!(justified, "grant without fresh interaction: {:?}", e);
            }
        }

        // No grant while the channel was down, judged from deliveries
        // rather than from the kernel's own transitions.
        prop_assert_eq!(grant_while_down(&system), None);

        // Exactly-once alert delivery: queued == shown + still-buffered.
        let stats = system.kernel().monitor_stats();
        let shown = system.alert_history().len() as u64;
        let pending = system.kernel().pending_push_count() as u64;
        prop_assert_eq!(stats.alerts_queued, shown + pending);
    }
}
