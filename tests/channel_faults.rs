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

use overhaul_core::{BootError, OverhaulConfig, System};
use overhaul_kernel::error::Errno;
use overhaul_kernel::netlink::{ChannelState, NetlinkError, NetlinkMessage};
use overhaul_sim::{AuditCategory, FaultPlan, FaultSpec, SimDuration, Timestamp};
use overhaul_xserver::geometry::Rect;
use proptest::prelude::*;

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
/// configuration: the machine reports it, its snapshot carries it, a
/// restored machine decides what the live one decides, and its crash
/// schedule fires.
#[test]
fn plan_installed_after_boot_is_part_of_the_state() {
    let mut live = System::protected();
    let app = live
        .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
        .expect("launch");
    live.settle();
    let crash_at = live.now() + SimDuration::from_millis(500);
    let spec = FaultSpec::quiet(9)
        .with_drop_p(1.0)
        .with_x_crashes(vec![crash_at]);
    live.kernel_mut().install_fault_plan(FaultPlan::new(spec));
    assert_eq!(live.fault_plan().map(|plan| plan.spec().seed), Some(9));

    let mut restored = System::from_snapshot(&live.snapshot()).expect("restore");
    assert_eq!(restored.state_hash(), live.state_hash());
    let channels = [&mut live, &mut restored].map(|machine| {
        // Every message is dropped: the click never reaches the kernel.
        machine.click_window(app.window);
        machine.advance(SimDuration::from_millis(10));
        assert_eq!(
            machine.open_device(app.pid, "/dev/snd/mic0"),
            Err(Errno::Eacces)
        );
        let channel = machine.channel_state();
        machine.advance(SimDuration::from_secs(1));
        assert!(!machine.x_alive(), "the scheduled crash fired");
        channel
    });
    assert_eq!(channels[0], channels[1]);
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

        // No grant while the channel was down (state reconstructed from
        // the audited transitions).
        let mut down = false;
        for e in events {
            match e.category {
                AuditCategory::ChannelEvent => {
                    if e.detail().contains("-> down") {
                        down = true;
                    } else if e.detail().contains("-> up") || e.detail().contains("-> degraded") {
                        // Degraded is a functioning channel (faults observed,
                        // exchanges still completing), so a `down -> degraded`
                        // transition is a recovery.
                        down = false;
                    }
                }
                AuditCategory::PermissionGranted => {
                    prop_assert!(!down, "grant while channel down: {:?}", e.detail());
                }
                _ => {}
            }
        }

        // Exactly-once alert delivery: queued == shown + still-buffered.
        let stats = system.kernel().monitor_stats();
        let shown = system.alert_history().len() as u64;
        let pending = system.kernel().pending_push_count() as u64;
        prop_assert_eq!(stats.alerts_queued, shown + pending);
    }
}
