//! Randomized system-level soak: hours of mixed legitimate use and attack
//! traffic on one machine, with global security invariants checked
//! throughout. This is the "nothing weird happens when everything happens
//! at once" test.

use overhaul_apps::malware::Spyware;
use overhaul_core::{Gui, OverhaulConfig, System};
use overhaul_sim::{AuditCategory, FaultSpec, SimDuration, SimRng};
use overhaul_xserver::geometry::Rect;
use overhaul_xserver::protocol::{Atom, InputPayload, Request, XEvent};

struct Soak {
    machine: System,
    rng: SimRng,
    apps: Vec<Gui>,
    spyware: Spyware,
    /// Device grants observed for the spyware (must stay 0).
    spy_grants: usize,
    /// Legit denials observed right after a click (must stay 0).
    legit_denials_after_click: usize,
}

impl Soak {
    fn new(seed: u64) -> Self {
        Soak::on_machine(System::protected(), seed)
    }

    fn new_integrated(seed: u64) -> Self {
        Soak::on_machine(System::integrated(), seed)
    }

    /// A protected machine whose channel runs under a seeded fault plan:
    /// moderate drop/delay/duplicate/reorder probabilities on every
    /// netlink message and alert push.
    fn new_faulted(seed: u64) -> Self {
        let config = OverhaulConfig::protected().with_fault(
            FaultSpec::quiet(seed)
                .with_drop_p(0.10)
                .with_delay_p(0.15)
                .with_duplicate_p(0.10)
                .with_reorder_p(0.05),
        );
        Soak::on_machine(System::new(config), seed)
    }

    fn on_machine(machine: System, seed: u64) -> Self {
        let mut machine = machine;
        let apps = (0..4)
            .map(|i| {
                machine
                    .launch_gui_app(&format!("/usr/bin/app{i}"), Rect::new(i * 220, 0, 200, 200))
                    .unwrap()
            })
            .collect::<Vec<_>>();
        machine.settle();
        let spyware = Spyware::install(&mut machine);
        Soak {
            machine,
            rng: SimRng::seeded(seed),
            apps,
            spyware,
            spy_grants: 0,
            legit_denials_after_click: 0,
        }
    }

    fn step(&mut self) {
        let app_index = self.rng.range(0, self.apps.len() as u64) as usize;
        let app = self.apps[app_index];
        match self.rng.range(0, 10) {
            // Legit: click then open a device quickly — must always grant.
            0..=2 => {
                // Raise first so the click actually lands on this app.
                let _ = self
                    .machine
                    .x_request(app.client, Request::RaiseWindow { window: app.window });
                self.machine.settle();
                if self.machine.click_window(app.window) {
                    self.machine
                        .advance(SimDuration::from_millis(self.rng.range(10, 1_500)));
                    let path = if self.rng.chance(0.5) {
                        "/dev/snd/mic0"
                    } else {
                        "/dev/video0"
                    };
                    match self.machine.open_device(app.pid, path) {
                        Ok(fd) => {
                            let _ = self.machine.kernel_mut().sys_close(app.pid, fd);
                        }
                        Err(_) => self.legit_denials_after_click += 1,
                    }
                }
            }
            // Legit: clipboard copy after a click.
            3..=4 => {
                let _ = self
                    .machine
                    .x_request(app.client, Request::RaiseWindow { window: app.window });
                self.machine.settle();
                if self.machine.click_window(app.window) {
                    let _ = self.machine.x_request(
                        app.client,
                        Request::SetSelectionOwner {
                            selection: Atom::clipboard(),
                            window: app.window,
                        },
                    );
                }
            }
            // Attack: spyware cycle.
            5..=6 => {
                let loot = self.spyware.run_cycle(&mut self.machine);
                self.spy_grants += loot.count();
            }
            // Attack: synthetic input flood at a random app.
            7 => {
                let spy_client = self
                    .machine
                    .xserver()
                    .client_of_pid(self.spyware.pid())
                    .unwrap();
                for _ in 0..4 {
                    let _ = self.machine.x_request(
                        spy_client,
                        Request::SendEvent {
                            target: app.window,
                            event: Box::new(XEvent::Input {
                                window: app.window,
                                payload: InputPayload::Button { x: 1, y: 1 },
                                synthetic: false,
                            }),
                        },
                    );
                    let _ = self.machine.x_request(
                        spy_client,
                        Request::XTestFakeInput {
                            payload: InputPayload::Key { ch: 'x' },
                            target: app.window,
                        },
                    );
                }
            }
            // Time passes.
            _ => {
                self.machine
                    .advance(SimDuration::from_millis(self.rng.range(100, 10_000)));
            }
        }
        // Drain app event queues as real apps would.
        for gui in &self.apps {
            let _ = self.machine.xserver_mut().drain_events(gui.client);
        }
    }

    fn check_invariants(&self) {
        self.check_security_invariants();
        assert_eq!(
            self.legit_denials_after_click, 0,
            "a device open right after a click must never be denied"
        );
    }

    /// The invariants that must hold even under channel faults and
    /// display-manager crashes (where legitimate opens *may* be denied,
    /// but only ever in the fail-closed direction).
    fn check_security_invariants(&self) {
        assert_eq!(self.spy_grants, 0, "spyware must never be granted anything");
        // The spyware never received an interaction notification.
        assert_eq!(
            self.machine
                .kernel_audit()
                .count_for(AuditCategory::InteractionNotification, self.spyware.pid()),
            0
        );
        // No timestamps from the future anywhere.
        let now = self.machine.now();
        for task in self.machine.kernel().tasks().iter() {
            if let Some(ts) = task.raw_interaction() {
                assert!(ts <= now);
            }
        }
    }

    /// Every fail-closed denial counted by the monitor has a matching
    /// audit record, and no permission was ever granted while the channel
    /// was down (state reconstructed from the audited transitions).
    fn check_fail_closed_audit(&self) {
        let stats = self.machine.kernel().monitor_stats();
        let audited = self
            .machine
            .kernel_audit()
            .matching("(channel down)")
            .count() as u64
            + self
                .machine
                .kernel_audit()
                .matching("denied (quarantined")
                .count() as u64;
        assert_eq!(
            stats.fail_closed_denies, audited,
            "every fail-closed denial must be audited"
        );

        // Exactly-once alert delivery: every kernel-queued alert is either
        // on the overlay (device alerts; "scr" alerts are shown X-side and
        // never queued) or still buffered kernel-side awaiting replay.
        let shown_from_kernel = self
            .machine
            .alert_history()
            .iter()
            .filter(|a| a.op != "scr")
            .count() as u64;
        let pending = self.machine.kernel().pending_push_count() as u64;
        assert_eq!(
            stats.alerts_queued,
            shown_from_kernel + pending,
            "kernel alerts must reach the overlay exactly once"
        );

        let mut down = false;
        for event in self.machine.kernel_audit().events() {
            match event.category {
                AuditCategory::ChannelEvent => {
                    if event.detail().contains("-> down") {
                        down = true;
                    } else if event.detail().contains("-> up") {
                        down = false;
                    }
                }
                AuditCategory::PermissionGranted => {
                    assert!(
                        !down,
                        "grant while the channel was down: {:?}",
                        event.detail()
                    );
                }
                _ => {}
            }
        }
    }
}

#[test]
fn soak_seed_1() {
    let mut soak = Soak::new(1);
    for _ in 0..400 {
        soak.step();
    }
    soak.check_invariants();
}

#[test]
fn soak_seed_2() {
    let mut soak = Soak::new(20_260_705);
    for _ in 0..400 {
        soak.step();
    }
    soak.check_invariants();
}

#[test]
fn soak_integrated_dm() {
    let mut soak = Soak::new_integrated(3);
    for _ in 0..400 {
        soak.step();
    }
    soak.check_invariants();
}

#[test]
fn soak_is_deterministic() {
    let run = |seed| {
        let mut soak = Soak::new(seed);
        for _ in 0..150 {
            soak.step();
        }
        (
            soak.machine.kernel_audit().len(),
            soak.machine.x_audit().len(),
            soak.machine.alert_history().len(),
            soak.machine.now(),
        )
    };
    assert_eq!(run(7), run(7));
}

/// Drives a faulted soak with periodic display-manager crashes and
/// restarts. Legitimate opens may fail (lost notifications, channel down)
/// but only ever in the fail-closed direction.
fn run_faulted_soak(seed: u64, steps: usize) -> Soak {
    let mut soak = Soak::new_faulted(seed);
    for i in 0..steps {
        // A crash roughly every 90 steps, restarted ~10 steps later.
        if i % 90 == 40 {
            soak.machine.crash_x();
        }
        if i % 90 == 50 && !soak.machine.x_alive() {
            let _ = soak.machine.restart_x();
        }
        soak.step();
    }
    if !soak.machine.x_alive() {
        let _ = soak.machine.restart_x();
    }
    soak
}

#[test]
fn soak_faulted_channel_with_crashes() {
    let soak = run_faulted_soak(42, 400);
    soak.check_security_invariants();
    soak.check_fail_closed_audit();
    // The fault plan actually bit: the channel took damage and recovered.
    let stats = soak.machine.kernel().monitor_stats();
    assert!(
        stats.channel_retries > 0,
        "drops should have forced retries"
    );
    assert!(
        stats.channel_reconnects > 0,
        "restarts should have reconnected"
    );
    assert!(
        stats.fail_closed_denies > 0,
        "crash windows should have produced fail-closed denials"
    );
}

#[test]
fn soak_faulted_second_seed() {
    let soak = run_faulted_soak(20_260_805, 400);
    soak.check_security_invariants();
    soak.check_fail_closed_audit();
}

#[test]
fn faulted_soak_is_deterministic() {
    let run = |seed| {
        let soak = run_faulted_soak(seed, 150);
        (
            soak.machine.kernel_audit().len(),
            soak.machine.x_audit().len(),
            soak.machine.alert_history().len(),
            soak.machine.now(),
            soak.machine.kernel().monitor_stats(),
        )
    };
    assert_eq!(run(9), run(9));
}
