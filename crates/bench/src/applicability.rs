//! §V-C: applicability & false-positive assessment over the app corpus.
//!
//! Every application in the 58-app device/screen pool and the 50-app
//! clipboard pool is driven through one usage session on a fresh protected
//! machine. The paper's findings to reproduce:
//!
//! * **zero broken applications** (no user-initiated access denied),
//! * exactly **one spurious alert** (Skype's pre-login camera probe,
//!   blocked by design),
//! * delayed screenshot timers beyond δ do not work (documented
//!   limitation),
//! * zero clipboard false positives across the 50-app pool.

use overhaul_apps::corpus::{clipboard_corpus, device_corpus};
use overhaul_apps::{run_session, AppSpec, SessionOutcome};
use overhaul_core::System;

/// Aggregated results over one corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusReport {
    /// Corpus label.
    pub corpus: String,
    /// Applications tested.
    pub apps: usize,
    /// Applications that worked (no user-initiated access blocked).
    pub functional: usize,
    /// Total false positives (user-initiated accesses blocked).
    pub false_positives: usize,
    /// Expected blocks (autostart probes, delayed shots) — correct denials.
    pub expected_blocks: usize,
    /// Expected blocks that were wrongly granted (protection failures).
    pub protection_failures: usize,
    /// Names of apps with any false positive.
    pub broken_apps: Vec<String>,
    /// Names of apps that triggered expected blocks ("spurious alerts").
    pub spurious_alert_apps: Vec<String>,
}

/// Runs every app in `pool` on a fresh machine built by `make_system`.
pub fn run_corpus(
    corpus: &str,
    pool: &[AppSpec],
    mut make_system: impl FnMut() -> System,
) -> (CorpusReport, Vec<SessionOutcome>) {
    let mut report = CorpusReport {
        corpus: corpus.to_string(),
        apps: pool.len(),
        functional: 0,
        false_positives: 0,
        expected_blocks: 0,
        protection_failures: 0,
        broken_apps: Vec::new(),
        spurious_alert_apps: Vec::new(),
    };
    let mut outcomes = Vec::with_capacity(pool.len());
    for spec in pool {
        let mut system = make_system();
        let outcome = run_session(&mut system, spec);
        if outcome.functional() {
            report.functional += 1;
        } else {
            report.broken_apps.push(spec.name.clone());
        }
        report.false_positives += outcome.false_positives();
        report.protection_failures += outcome.protection_failures();
        let blocks = outcome.expected_blocks();
        if blocks > 0 {
            report.expected_blocks += blocks;
            report.spurious_alert_apps.push(spec.name.clone());
        }
        outcomes.push(outcome);
    }
    (report, outcomes)
}

/// Runs the full §V-C study on protected machines.
pub fn run_study() -> (CorpusReport, CorpusReport) {
    let (devices, _) = run_corpus("device/screen", &device_corpus(), System::protected);
    let (clipboard, _) = run_corpus("clipboard", &clipboard_corpus(), System::protected);
    (devices, clipboard)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_corpus_reproduces_paper_findings() {
        let (report, _) = run_corpus("device/screen", &device_corpus(), System::protected);
        assert_eq!(report.apps, 58);
        assert_eq!(report.functional, 58, "broken: {:?}", report.broken_apps);
        assert_eq!(report.false_positives, 0);
        assert_eq!(report.protection_failures, 0);
        // Skype's autostart probe + the two delayed screenshot tools.
        assert!(report.spurious_alert_apps.contains(&"Skype".to_string()));
        assert_eq!(
            report.expected_blocks, 3,
            "{:?}",
            report.spurious_alert_apps
        );
    }

    #[test]
    fn baseline_machines_show_protection_failures() {
        let (report, _) = run_corpus("device/screen", &device_corpus(), System::baseline);
        assert!(
            report.protection_failures > 0,
            "stock Linux grants launch probes"
        );
        assert_eq!(report.false_positives, 0, "baseline never denies anything");
    }
}
