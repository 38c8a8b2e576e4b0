//! The simulated user: attention model and interaction behavior.
//!
//! The usability study (§V-B) measured how participants react to Overhaul
//! alerts while busy with another task: of 46 participants, 24 interrupted
//! their task immediately, 16 noticed but continued, and 6 missed the alert
//! entirely. [`AttentionProfile::paper_calibrated`] encodes those observed
//! frequencies so the study harness can re-run the experiment procedure at
//! scale; other profiles support sensitivity analysis.

use overhaul_sim::SimRng;

/// How a participant reacted to an on-screen alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoticeOutcome {
    /// Interrupted the task immediately and reported the alert.
    InterruptedTask,
    /// Noticed the alert, finished the task, reported when prompted.
    NoticedAndContinued,
    /// Did not notice anything unusual.
    Missed,
}

/// Probabilities governing alert noticing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionProfile {
    /// Probability of interrupting the task immediately.
    pub interrupt: f64,
    /// Probability of noticing but continuing the task.
    pub notice: f64,
    // Remainder: missed.
}

impl AttentionProfile {
    /// The profile observed in the paper's 46-participant study
    /// (24 interrupted / 16 noticed / 6 missed).
    pub fn paper_calibrated() -> Self {
        AttentionProfile {
            interrupt: 24.0 / 46.0,
            notice: 16.0 / 46.0,
        }
    }

    /// A fully attentive user (upper bound).
    pub fn always_notices() -> Self {
        AttentionProfile {
            interrupt: 1.0,
            notice: 0.0,
        }
    }

    /// A user who never notices alerts (lower bound).
    pub fn oblivious() -> Self {
        AttentionProfile {
            interrupt: 0.0,
            notice: 0.0,
        }
    }
}

/// One simulated study participant.
#[derive(Debug, Clone)]
pub struct SimulatedUser {
    profile: AttentionProfile,
    rng: SimRng,
}

impl SimulatedUser {
    /// Creates a participant with the given attention profile and RNG seed.
    pub fn new(profile: AttentionProfile, seed: u64) -> Self {
        SimulatedUser {
            profile,
            rng: SimRng::seeded(seed),
        }
    }

    /// The participant's reaction to an alert appearing while they are
    /// occupied with another task.
    pub fn react_to_alert(&mut self) -> NoticeOutcome {
        let draw = self.rng.unit();
        if draw < self.profile.interrupt {
            NoticeOutcome::InterruptedTask
        } else if draw < self.profile.interrupt + self.profile.notice {
            NoticeOutcome::NoticedAndContinued
        } else {
            NoticeOutcome::Missed
        }
    }

    /// Whether the participant perceives any friction from a transparent
    /// security layer. Overhaul adds no prompts and no workflow changes, so
    /// this is always the minimum difficulty score — the study's task-1
    /// result (all 46 participants rated the Skype call "identical", i.e.
    /// 1 on the 5-point Likert scale).
    pub fn rate_task_difficulty(&mut self, workflow_changed: bool, prompts_shown: usize) -> u8 {
        if !workflow_changed && prompts_shown == 0 {
            1
        } else {
            // Prompt-based systems degrade with interruption count.
            (2 + prompts_shown.min(3)) as u8
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_profile_reproduces_paper_split() {
        let profile = AttentionProfile::paper_calibrated();
        let mut counts = [0usize; 3];
        for seed in 0..46_000 {
            let mut user = SimulatedUser::new(profile, seed);
            match user.react_to_alert() {
                NoticeOutcome::InterruptedTask => counts[0] += 1,
                NoticeOutcome::NoticedAndContinued => counts[1] += 1,
                NoticeOutcome::Missed => counts[2] += 1,
            }
        }
        // Expected ≈ 24000 / 16000 / 6000 with generous tolerance.
        assert!((counts[0] as f64 - 24_000.0).abs() < 1_500.0, "{counts:?}");
        assert!((counts[1] as f64 - 16_000.0).abs() < 1_500.0, "{counts:?}");
        assert!((counts[2] as f64 - 6_000.0).abs() < 1_000.0, "{counts:?}");
    }

    #[test]
    fn bounds_profiles() {
        let mut eager = SimulatedUser::new(AttentionProfile::always_notices(), 1);
        assert_eq!(eager.react_to_alert(), NoticeOutcome::InterruptedTask);
        let mut blind = SimulatedUser::new(AttentionProfile::oblivious(), 1);
        assert_eq!(blind.react_to_alert(), NoticeOutcome::Missed);
    }

    #[test]
    fn transparent_system_scores_identical() {
        let mut user = SimulatedUser::new(AttentionProfile::paper_calibrated(), 7);
        assert_eq!(user.rate_task_difficulty(false, 0), 1);
    }

    #[test]
    fn prompting_system_scores_worse() {
        let mut user = SimulatedUser::new(AttentionProfile::paper_calibrated(), 7);
        assert!(user.rate_task_difficulty(false, 2) > 1);
        assert!(user.rate_task_difficulty(true, 0) > 1);
    }

    #[test]
    fn same_seed_same_reaction() {
        let profile = AttentionProfile::paper_calibrated();
        let mut a = SimulatedUser::new(profile, 42);
        let mut b = SimulatedUser::new(profile, 42);
        assert_eq!(a.react_to_alert(), b.react_to_alert());
    }
}
