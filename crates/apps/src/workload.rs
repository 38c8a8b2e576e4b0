//! Long-horizon interactive workload generator (§V-D).
//!
//! The empirical experiment ran the spyware for 21 days on two actively
//! used machines — one protected, one not. [`run_empirical_experiment`] replays a
//! comparable usage pattern: working days of clicking between applications,
//! user-driven copy & paste (passwords from a password manager, phone
//! numbers, email excerpts), video calls, and screenshots, with the spyware
//! sampling the clipboard, screen, and microphone on a timer.

use overhaul_core::{Gui, System};
use overhaul_sim::{SimDuration, SimRng};
use overhaul_xserver::geometry::Rect;
use overhaul_xserver::protocol::{Atom, Request};

use crate::malware::{answer_selection_requests, Spyware};

/// Parameters of the long-run experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of simulated days (paper: 21).
    pub days: u32,
    /// User actions per working day.
    pub actions_per_day: u32,
    /// Spyware sampling interval.
    pub spy_interval: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            days: 21,
            actions_per_day: 96, // one action every ~5 work-minutes
            spy_interval: SimDuration::from_secs(600),
            seed: 2016,
        }
    }
}

/// Outcome of one long-run experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmpiricalReport {
    /// Days simulated.
    pub days: u32,
    /// Total spyware sampling cycles.
    pub spy_cycles: usize,
    /// Items the spyware captured (clipboard + screenshots + mic samples).
    pub items_stolen: usize,
    /// Clipboard payloads stolen (sensitive strings).
    pub clipboard_stolen: Vec<String>,
    /// Legitimate user-driven resource accesses that were granted.
    pub legit_granted: usize,
    /// Legitimate user-driven resource accesses that were denied
    /// (false positives — the paper observed zero in 21 days).
    pub legit_denied: usize,
}

/// The secrets the simulated user moves through the clipboard, mirroring
/// what the paper's investigation found stolen on the vulnerable machine.
pub const CLIPBOARD_SECRETS: [&str; 4] = [
    "correct-horse-battery-staple", // password-manager password
    "+1-617-555-0143",              // phone number
    "please find attached the quarterly report", // email excerpt
    "IBAN DE89 3704 0044 0532 0130 00", // e-banking detail
];

/// Runs the §V-D workload on `system`, returning the report.
pub fn run_empirical_experiment(system: &mut System, config: WorkloadConfig) -> EmpiricalReport {
    let mut rng = SimRng::seeded(config.seed);

    // The user's application mix.
    let password_manager = launch(system, "/usr/bin/keepassx", 0);
    let editor = launch(system, "/usr/bin/gedit", 1);
    let browser = launch(system, "/usr/bin/firefox", 2);
    let videoconf = launch(system, "/usr/bin/skype", 3);
    let screenshot_tool = launch(system, "/usr/bin/gnome-screenshot", 4);
    system.settle();

    let mut spyware = Spyware::install(system);
    let mut report = EmpiricalReport {
        days: config.days,
        spy_cycles: 0,
        items_stolen: 0,
        clipboard_stolen: Vec::new(),
        legit_granted: 0,
        legit_denied: 0,
    };

    // Track the live clipboard contents so the spyware's loot can be
    // attributed, and so selection requests get answered.
    let mut clipboard_now: Option<String> = None;
    let work_day_ms: u64 = 8 * 3600 * 1000;
    let action_gap = SimDuration::from_millis(work_day_ms / config.actions_per_day as u64);
    let mut since_spy = SimDuration::ZERO;

    for _day in 0..config.days {
        for _action in 0..config.actions_per_day {
            match rng.range(0, 100) {
                // Copy a secret from the password manager / other app,
                // paste it elsewhere.
                0..=29 => {
                    let secret = *rng.pick(&CLIPBOARD_SECRETS).expect("non-empty");
                    system.click_window(password_manager.window);
                    let copy = system.x_request(
                        password_manager.client,
                        Request::SetSelectionOwner {
                            selection: Atom::clipboard(),
                            window: password_manager.window,
                        },
                    );
                    record(&mut report, copy.is_ok());
                    if copy.is_ok() {
                        clipboard_now = Some(secret.to_string());
                    }
                    system.advance(SimDuration::from_millis(300));
                    system.click_window(editor.window);
                    let paste = system.x_request(
                        editor.client,
                        Request::ConvertSelection {
                            selection: Atom::clipboard(),
                            requestor: editor.window,
                            property: Atom::new("XSEL_DATA"),
                        },
                    );
                    record(&mut report, paste.is_ok());
                    if let Some(secret) = &clipboard_now {
                        answer_selection_requests(
                            system,
                            password_manager.client,
                            secret.as_bytes(),
                        );
                    }
                }
                // A video call: camera + microphone after a click.
                30..=44 => {
                    system.click_window(videoconf.window);
                    system.advance(SimDuration::from_millis(200));
                    let cam = system.open_device(videoconf.pid, "/dev/video0");
                    record(&mut report, cam.is_ok());
                    let mic = system.open_device(videoconf.pid, "/dev/snd/mic0");
                    record(&mut report, mic.is_ok());
                    for fd in [cam.ok(), mic.ok()].into_iter().flatten() {
                        let _ = system.kernel_mut().sys_close(videoconf.pid, fd);
                    }
                }
                // A deliberate screenshot.
                45..=54 => {
                    system.click_window(screenshot_tool.window);
                    system.advance(SimDuration::from_millis(150));
                    let shot = system
                        .x_request(screenshot_tool.client, Request::GetImage { window: None });
                    record(&mut report, shot.is_ok());
                }
                // Ordinary browsing/typing: interactions with no
                // protected-resource use.
                _ => {
                    system.click_window(browser.window);
                    system.key('x');
                }
            }

            system.advance(action_gap);
            since_spy = since_spy + action_gap;
            while since_spy >= config.spy_interval {
                since_spy = since_spy - config.spy_interval;
                report.spy_cycles += 1;
                let loot = spyware.run_cycle(system);
                report.items_stolen += loot.count();
                if loot.clipboard.is_some() {
                    if let Some(secret) = &clipboard_now {
                        report.clipboard_stolen.push(secret.clone());
                    }
                }
                // A responsive owner answers any relayed request the spy's
                // paste produced (only reachable on the baseline machine).
                if let Some(secret) = clipboard_now.clone() {
                    answer_selection_requests(system, password_manager.client, secret.as_bytes());
                }
            }
        }
        // 16 hours of idle (overnight).
        system.advance(SimDuration::from_secs(16 * 3600));
    }

    report
}

fn launch(system: &mut System, exe: &str, slot: i32) -> Gui {
    system
        .launch_gui_app(exe, Rect::new(slot * 250, 0, 240, 200))
        .expect("launch workload app")
}

fn record(report: &mut EmpiricalReport, granted: bool) {
    if granted {
        report.legit_granted += 1;
    } else {
        report.legit_denied += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_core::System;

    fn short_config() -> WorkloadConfig {
        WorkloadConfig {
            days: 2,
            actions_per_day: 24,
            spy_interval: SimDuration::from_secs(1800),
            seed: 7,
        }
    }

    #[test]
    fn protected_machine_leaks_nothing_and_breaks_nothing() {
        let mut system = System::protected();
        let report = run_empirical_experiment(&mut system, short_config());
        assert_eq!(report.items_stolen, 0, "Overhaul blocks all spying");
        assert_eq!(report.legit_denied, 0, "no false positives in the workload");
        assert!(report.legit_granted > 0, "the user actually did things");
        assert!(report.spy_cycles > 0, "the spyware actually ran");
    }

    #[test]
    fn baseline_machine_leaks_secrets() {
        let mut system = System::baseline();
        let report = run_empirical_experiment(&mut system, short_config());
        assert!(report.items_stolen > 0, "unprotected machine leaks");
        assert!(
            !report.clipboard_stolen.is_empty(),
            "clipboard secrets are among the loot"
        );
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let mut a = System::protected();
        let mut b = System::protected();
        let ra = run_empirical_experiment(&mut a, short_config());
        let rb = run_empirical_experiment(&mut b, short_config());
        assert_eq!(ra, rb);
    }
}
