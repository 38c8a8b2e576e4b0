//! The paper's security goals S1–S4 (§II), asserted end-to-end on the
//! assembled system, plus the threat-model scenarios of §II.

use overhaul_apps::malware::{input_forgery_attack, ptrace_injection_attack, Spyware};
use overhaul_core::System;
use overhaul_sim::{AuditCategory, SimDuration};
use overhaul_xserver::geometry::Rect;
use overhaul_xserver::overlay::Alert;
use overhaul_xserver::protocol::{InputPayload, Request, XEvent};

/// S1: access to privacy-sensitive resources only with explicit physical
/// interaction immediately before the request — across all resource kinds.
#[test]
fn s1_every_resource_requires_recent_physical_input() {
    let mut machine = System::protected();
    let app = machine
        .launch_gui_app("/usr/bin/app", Rect::new(0, 0, 300, 300))
        .unwrap();
    machine.settle();

    // Hardware devices.
    assert!(machine.open_device(app.pid, "/dev/snd/mic0").is_err());
    assert!(machine.open_device(app.pid, "/dev/video0").is_err());
    // Screen contents.
    assert!(machine
        .x_request(app.client, Request::GetImage { window: None })
        .is_err());
    // Clipboard.
    assert!(machine
        .x_request(
            app.client,
            Request::SetSelectionOwner {
                selection: overhaul_xserver::protocol::Atom::clipboard(),
                window: app.window,
            },
        )
        .is_err());

    // One click unlocks each of them within δ.
    machine.click_window(app.window);
    machine.advance(SimDuration::from_millis(100));
    assert!(machine.open_device(app.pid, "/dev/snd/mic0").is_ok());
    assert!(machine
        .x_request(app.client, Request::GetImage { window: None })
        .is_ok());
    assert!(machine
        .x_request(
            app.client,
            Request::SetSelectionOwner {
                selection: overhaul_xserver::protocol::Atom::clipboard(),
                window: app.window,
            },
        )
        .is_ok());
}

/// S2: programs cannot forge input events to escalate their privileges —
/// via SendEvent, XTest, or events aimed at other applications.
#[test]
fn s2_synthetic_input_grants_nothing() {
    let mut machine = System::protected();
    let spy = machine.spawn_process(None, "/usr/bin/.spy").unwrap();
    assert!(!input_forgery_attack(&mut machine, spy));
    assert!(
        machine
            .x_audit()
            .count(AuditCategory::SyntheticInputFiltered)
            >= 1
    );
}

/// S2 (cross-application variant): forging input at a *victim* window
/// must not grant the victim's process anything either — synthetic events
/// never become interaction notifications, no matter the target.
#[test]
fn s2_synthetic_input_at_victim_grants_victim_nothing() {
    let mut machine = System::protected();
    let victim = machine
        .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
        .unwrap();
    machine.settle();
    let spy = machine.spawn_process(None, "/usr/bin/.spy").unwrap();
    let spy_client = machine.connect_x(spy);
    machine
        .x_request(
            spy_client,
            Request::SendEvent {
                target: victim.window,
                event: Box::new(XEvent::Input {
                    window: victim.window,
                    payload: InputPayload::Button { x: 5, y: 5 },
                    synthetic: false,
                }),
            },
        )
        .unwrap();
    machine.advance(SimDuration::from_millis(50));
    assert!(
        machine.open_device(victim.pid, "/dev/snd/mic0").is_err(),
        "a forged click at the victim must not arm the victim's permissions"
    );
}

/// S3: legitimate user interactions cannot be hijacked — the clickjacking
/// window-stability gate and the per-process binding of notifications.
#[test]
fn s3_interactions_bound_to_the_right_process() {
    let mut machine = System::protected();
    let legit = machine
        .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
        .unwrap();
    let bystander = machine
        .launch_gui_app("/usr/bin/editor", Rect::new(300, 0, 100, 100))
        .unwrap();
    machine.settle();
    machine.click_window(legit.window);
    machine.advance(SimDuration::from_millis(50));
    assert!(machine.open_device(legit.pid, "/dev/snd/mic0").is_ok());
    assert!(
        machine.open_device(bystander.pid, "/dev/snd/mic0").is_err(),
        "another process must not inherit the click"
    );
}

/// S3 (clickjacking): a window popped over the user's click target steals
/// the click but gains no interaction credit.
#[test]
fn s3_popup_clickjack_gains_nothing() {
    let mut machine = System::protected();
    let victim = machine
        .launch_gui_app("/usr/bin/bank", Rect::new(0, 0, 200, 200))
        .unwrap();
    machine.settle();
    // Attacker pops a transparent-looking trap over the victim right
    // before the click.
    let trap = machine
        .launch_gui_app("/usr/bin/.trap", Rect::new(0, 0, 200, 200))
        .unwrap();
    machine.advance(SimDuration::from_millis(20));
    machine.click_window(trap.window); // the click lands on the trap
    machine.advance(SimDuration::from_millis(20));
    assert!(machine.open_device(trap.pid, "/dev/video0").is_err());
    assert!(
        machine
            .x_audit()
            .count(AuditCategory::ClickjackingSuppressed)
            >= 1
    );
    let _ = victim;
}

/// S4: successful accesses are reported on a trusted output path that
/// other applications cannot forge.
#[test]
fn s4_alerts_are_shown_and_unforgeable() {
    let mut machine = System::protected();
    let app = machine
        .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
        .unwrap();
    machine.settle();
    machine.click_window(app.window);
    machine.open_device(app.pid, "/dev/snd/mic0").unwrap();
    let alert = machine.alert_history().last().unwrap().clone();
    let secret = machine.xserver().config().shared_secret.clone();
    assert!(Alert::looks_authentic(&alert.render(), &secret));
    // An application cannot reproduce the rendering without the secret.
    assert!(!Alert::looks_authentic(
        "recorder is using the mic",
        &secret
    ));
    assert!(!Alert::looks_authentic(
        "[guess] recorder is using the mic",
        &secret
    ));
}

/// Threat scenario 1 (§II): stealthy background malware is blocked
/// automatically.
#[test]
fn threat_scenario_background_malware_blocked() {
    let mut machine = System::protected();
    let mut spyware = Spyware::install(&mut machine);
    for _ in 0..10 {
        machine.advance(SimDuration::from_secs(120));
        spyware.run_cycle(&mut machine);
    }
    assert_eq!(spyware.total_stolen(), 0);
    assert_eq!(spyware.blocked_cycles, 10);
}

/// Threat scenario 2 (§II): a benign-but-misbehaving app (launch-time
/// camera probe) is blocked *and the user is alerted*.
#[test]
fn threat_scenario_misbehaving_app_alerts_user() {
    let mut machine = System::protected();
    let app = machine
        .launch_gui_app("/usr/bin/skype", Rect::new(0, 0, 100, 100))
        .unwrap();
    // Probe before any interaction.
    assert!(machine.open_device(app.pid, "/dev/video0").is_err());
    let alert = machine.alert_history().last().unwrap();
    assert!(!alert.granted);
    assert_eq!(alert.op, "cam");
}

/// ptrace hardening: injecting into a legitimately-privileged child is
/// useless because tracing freezes its permissions.
#[test]
fn ptrace_injection_is_useless() {
    let mut machine = System::protected();
    let spy = machine.spawn_process(None, "/usr/bin/.spy").unwrap();
    assert!(!ptrace_injection_attack(&mut machine, spy));
    assert!(machine.kernel_audit().count(AuditCategory::PtraceHardening) >= 1);
}

/// The superuser can toggle the hardening through procfs — and only the
/// superuser.
#[test]
fn ptrace_hardening_toggle_is_root_only() {
    use overhaul_kernel::procfs;
    use overhaul_sim::{Pid, Uid};
    let mut machine = System::protected();
    let user_proc = machine
        .kernel_mut()
        .sys_spawn_as(Pid::INIT, "/usr/bin/shell", Uid::from_raw(1000))
        .unwrap();
    assert!(machine
        .kernel_mut()
        .sys_procfs_write(user_proc, procfs::PTRACE_HARDENING, "0")
        .is_err());
    assert!(machine
        .kernel_mut()
        .sys_procfs_write(Pid::INIT, procfs::PTRACE_HARDENING, "0")
        .is_ok());
    // With hardening off, tracing no longer freezes the child...
    let spy = machine.spawn_process(None, "/usr/bin/.spy").unwrap();
    assert!(
        ptrace_injection_attack(&mut machine, spy),
        "hardening disabled: the legacy-debugging escape hatch is open"
    );
}
