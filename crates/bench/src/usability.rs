//! §V-B: the two-task usability study, re-run with simulated participants.
//!
//! **Task 1** — each participant performs a Skype call on an
//! Overhaul-protected machine; afterwards they rate how the experience
//! compared to stock Skype on a 5-point Likert scale (1 = identical). The
//! paper: all 46 rated it identical, because Overhaul's checks are
//! invisible when they grant.
//!
//! **Task 2** — while the participant performs a web search, a hidden
//! background process probes the camera; Overhaul blocks it and raises an
//! alert. The paper's split: 24 interrupted the task, 16 noticed and
//! continued, 6 missed the alert.

use overhaul_core::{AttentionProfile, NoticeOutcome, SimulatedUser, System};
use overhaul_kernel::error::Errno;
use overhaul_sim::SimDuration;
use overhaul_xserver::geometry::Rect;

/// Study configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyConfig {
    /// Number of participants (paper: 46).
    pub participants: u32,
    /// Attention model.
    pub profile: AttentionProfile,
    /// Base RNG seed; participant `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            participants: 46,
            profile: AttentionProfile::paper_calibrated(),
            seed: 1,
        }
    }
}

/// Study results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyReport {
    /// Task 1: Likert histogram (index 0 = score 1 ... index 4 = score 5).
    pub likert: [u32; 5],
    /// Task 2: participants who interrupted the task at the alert.
    pub interrupted: u32,
    /// Task 2: participants who noticed but continued.
    pub noticed: u32,
    /// Task 2: participants who missed the alert.
    pub missed: u32,
    /// Sanity: every hidden camera probe was blocked.
    pub probes_blocked: u32,
    /// Sanity: every Skype call obtained mic + camera.
    pub calls_succeeded: u32,
}

/// Runs one participant's task 1: a Skype call on a protected machine.
/// Returns `(call_succeeded, prompts_shown)`.
pub fn run_skype_call(system: &mut System) -> (bool, usize) {
    let skype = system
        .launch_gui_app("/usr/bin/skype", Rect::new(0, 0, 640, 480))
        .expect("launch skype");
    system.settle();
    // The participant clicks the call button.
    system.click_window(skype.window);
    system.advance(SimDuration::from_millis(250));
    let cam = system.open_device(skype.pid, "/dev/video0");
    let mic = system.open_device(skype.pid, "/dev/snd/mic0");
    let ok = cam.is_ok() && mic.is_ok();
    for fd in [cam.ok(), mic.ok()].into_iter().flatten() {
        let _ = system.kernel_mut().sys_close(skype.pid, fd);
    }
    // Overhaul shows passive alerts but never a prompt that needs
    // answering; prompts_shown is structurally zero.
    (ok, 0)
}

/// Runs one participant's task 2: a web search during which a hidden
/// process probes the camera. Returns whether the probe was blocked and
/// whether an alert appeared.
pub fn run_camera_probe(system: &mut System) -> (bool, bool) {
    let browser = system
        .launch_gui_app("/usr/bin/firefox", Rect::new(0, 0, 800, 600))
        .expect("launch browser");
    system.settle();
    // The participant is busy searching...
    for ch in "weather boston".chars() {
        system
            .x_request(
                browser.client,
                overhaul_xserver::protocol::Request::SetInputFocus {
                    window: browser.window,
                },
            )
            .expect("focus");
        system.key(ch);
        system.advance(SimDuration::from_millis(120));
    }
    let alerts_before = system.alert_history().len();
    // ...when the hidden process fires.
    let spy = system
        .spawn_process(None, "/usr/bin/.probe")
        .expect("spawn probe");
    let blocked = matches!(system.open_device(spy, "/dev/video0"), Err(Errno::Eacces));
    let alerted = system.alert_history().len() > alerts_before;
    (blocked, alerted)
}

/// Runs the full study.
pub fn run_study(config: StudyConfig) -> StudyReport {
    let mut report = StudyReport {
        likert: [0; 5],
        interrupted: 0,
        noticed: 0,
        missed: 0,
        probes_blocked: 0,
        calls_succeeded: 0,
    };
    for participant in 0..config.participants {
        let mut user = SimulatedUser::new(config.profile, config.seed + participant as u64);

        // Task 1 on a fresh machine.
        let mut machine = System::protected();
        let (call_ok, prompts) = run_skype_call(&mut machine);
        if call_ok {
            report.calls_succeeded += 1;
        }
        let score = user.rate_task_difficulty(false, prompts);
        report.likert[(score as usize - 1).min(4)] += 1;

        // Task 2 on a fresh machine.
        let mut machine = System::protected();
        let (blocked, alerted) = run_camera_probe(&mut machine);
        if blocked {
            report.probes_blocked += 1;
        }
        let outcome = if alerted {
            user.react_to_alert()
        } else {
            NoticeOutcome::Missed
        };
        match outcome {
            NoticeOutcome::InterruptedTask => report.interrupted += 1,
            NoticeOutcome::NoticedAndContinued => report.noticed += 1,
            NoticeOutcome::Missed => report.missed += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_study_runs_clean() {
        let report = run_study(StudyConfig {
            participants: 6,
            ..StudyConfig::default()
        });
        assert_eq!(
            report.calls_succeeded, 6,
            "Overhaul is transparent to Skype"
        );
        assert_eq!(report.probes_blocked, 6, "every probe blocked");
        assert_eq!(report.likert[0], 6, "all rate the experience identical");
        assert_eq!(report.interrupted + report.noticed + report.missed, 6);
    }

    #[test]
    fn full_study_split_close_to_paper() {
        let report = run_study(StudyConfig::default());
        assert_eq!(report.probes_blocked, 46);
        assert_eq!(report.likert[0], 46);
        // The notice split is stochastic; with 46 draws it should land in
        // a loose band around 24/16/6.
        assert!((15..=33).contains(&report.interrupted), "{report:?}");
        assert!((8..=24).contains(&report.noticed), "{report:?}");
        assert!(report.missed <= 14, "{report:?}");
    }

    #[test]
    fn attentive_profile_always_interrupts() {
        let report = run_study(StudyConfig {
            participants: 5,
            profile: AttentionProfile::always_notices(),
            seed: 3,
        });
        assert_eq!(report.interrupted, 5);
    }
}
