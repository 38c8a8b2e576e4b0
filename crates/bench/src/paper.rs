//! The paper's evaluation as one artifact.
//!
//! [`evaluate`] runs every §V experiment this repository reproduces, the
//! design-parameter sweeps, the prompt-mode comparison and the attack and
//! campaign matrices, at the paper's scale, and returns them as one
//! [`BenchArtifact`] named `paper`. Each key holds one number
//! EXPERIMENTS.md reports, in the form it reports it: counts are
//! integers, rates are percentages at one decimal, and per-participant
//! means have two decimals. Each sweep's trial count keeps that rounding
//! lossless. Where the paper gives a value, `<key>_paper` sits beside the
//! key.
//!
//! Every harness is seeded and the artifact holds no wall-clock field, so
//! two runs give the same bytes. `tests/experiments_smoke.rs` compares a
//! fresh run with the committed `crates/bench/baselines/BENCH_paper.json`
//! key by key, and checks that EXPERIMENTS.md quotes that baseline.

use std::collections::BTreeSet;

use overhaul_apps::campaign::AttackClass;
use overhaul_apps::corpus::device_corpus;
use overhaul_apps::workload::{run_empirical_experiment, WorkloadConfig};
use overhaul_core::{AttentionProfile, OverhaulConfig, SimulatedUser, System};
use overhaul_sim::{BenchArtifact, SimDuration};
use overhaul_xserver::geometry::Rect;

use crate::ablation::{sweep_delta, sweep_propagation, sweep_shm_wait, sweep_visibility};
use crate::applicability::{self, run_corpus};
use crate::attacks::{attack_names, run_campaign_matrix, run_matrix, MachineKind};
use crate::usability::{self, StudyConfig};

/// Participants of the prompt-mode comparison, as in §V-B.
const PROMPT_PARTICIPANTS: u32 = 46;

/// Seed of the three parameter sweeps.
const SWEEP_SEED: u64 = 42;

/// Runs the whole evaluation. Most of its ~2 s (release build) is the
/// 21-day §V-D run on two machines.
pub fn evaluate() -> BenchArtifact {
    let mut art = BenchArtifact::new("paper");

    // §V-B: Skype call (task 1), then a hidden camera probe (task 2).
    let study = usability::run_study(StudyConfig::default());
    art = art
        .int("usability_calls_completed", study.calls_succeeded.into())
        .int("usability_calls_completed_paper", 46)
        .int("usability_rated_identical", study.likert[0].into())
        .int("usability_rated_identical_paper", 46)
        .int("usability_probes_blocked", study.probes_blocked.into())
        .int("usability_probes_blocked_paper", 46)
        .int("usability_interrupted", study.interrupted.into())
        .int("usability_interrupted_paper", 24)
        .int("usability_noticed", study.noticed.into())
        .int("usability_noticed_paper", 16)
        .int("usability_missed", study.missed.into())
        .int("usability_missed_paper", 6);

    // §V-C: both corpora on protected machines, the device corpus again
    // on a stock one.
    let (devices, clipboard) = applicability::run_study();
    let (baseline, _) = run_corpus("device/screen", &device_corpus(), System::baseline);
    art = art
        .int("applicability_device_apps", devices.apps as u64)
        .int("applicability_device_apps_paper", 58)
        .int("applicability_device_functional", devices.functional as u64)
        .int("applicability_device_functional_paper", 58)
        .int(
            "applicability_device_false_positives",
            devices.false_positives as u64,
        )
        .int("applicability_device_false_positives_paper", 0)
        .int(
            "applicability_device_expected_blocks",
            devices.expected_blocks as u64,
        )
        .int("applicability_device_expected_blocks_paper", 1)
        .int(
            "applicability_device_protection_failures",
            devices.protection_failures as u64,
        )
        .int("applicability_clipboard_apps", clipboard.apps as u64)
        .int("applicability_clipboard_apps_paper", 50)
        .int(
            "applicability_clipboard_functional",
            clipboard.functional as u64,
        )
        .int("applicability_clipboard_functional_paper", 50)
        .int(
            "applicability_clipboard_false_positives",
            clipboard.false_positives as u64,
        )
        .int("applicability_clipboard_false_positives_paper", 0)
        .int(
            "applicability_baseline_protection_failures",
            baseline.protection_failures as u64,
        );

    // §V-D: the same workload and spyware on a protected and a stock
    // machine, for the paper's 21 days.
    let config = WorkloadConfig::default();
    let protected = run_empirical_experiment(&mut System::protected(), config);
    let stock = run_empirical_experiment(&mut System::baseline(), config);
    let secrets: BTreeSet<&String> = stock.clipboard_stolen.iter().collect();
    art = art
        .int("empirical_days", config.days.into())
        .int("empirical_days_paper", 21)
        .int(
            "empirical_protected_spy_cycles",
            protected.spy_cycles as u64,
        )
        .int(
            "empirical_protected_items_stolen",
            protected.items_stolen as u64,
        )
        .int("empirical_protected_items_stolen_paper", 0)
        .int(
            "empirical_protected_legit_granted",
            protected.legit_granted as u64,
        )
        .int(
            "empirical_protected_legit_denied",
            protected.legit_denied as u64,
        )
        .int("empirical_protected_legit_denied_paper", 0)
        .int("empirical_baseline_spy_cycles", stock.spy_cycles as u64)
        .int("empirical_baseline_items_stolen", stock.items_stolen as u64)
        .int("empirical_baseline_clipboard_secrets", secrets.len() as u64);

    // Ablations: δ, the shared-memory wait window, the visibility
    // threshold and IPC propagation.
    let deltas = sweep_delta(&[250, 500, 1000, 2000, 3000, 5000], 200, SWEEP_SEED);
    for point in &deltas {
        let delta = point.delta_ms;
        art = art
            .num(
                &format!("delta_{delta}_false_deny_pct"),
                pct(point.false_deny_rate),
            )
            .num(
                &format!("delta_{delta}_exposure_pct"),
                pct(point.exposure_fraction),
            );
    }
    let sufficient = deltas
        .iter()
        .find(|point| point.false_deny_rate == 0.0)
        .map_or(0, |point| point.delta_ms);
    art = art
        .int("delta_sufficient_ms", sufficient)
        .int("delta_sufficient_ms_paper", 2000);
    for point in sweep_shm_wait(&[0, 50, 100, 250, 500, 1000, 2000], 60, SWEEP_SEED) {
        let wait = point.wait_ms;
        art = art
            .int(
                &format!("shm_wait_{wait}_faults_per_10k"),
                point.faults_per_10k.round() as u64,
            )
            .num(
                &format!("shm_wait_{wait}_missed_pct"),
                pct(point.missed_propagation_rate),
            );
    }
    for point in sweep_visibility(&[0, 100, 250, 500, 1000, 2000], 120, SWEEP_SEED) {
        let threshold = point.threshold_ms;
        art = art
            .num(
                &format!("visibility_{threshold}_suppressed_pct"),
                pct(point.legit_suppression_rate),
            )
            .int(
                &format!("visibility_{threshold}_popup_succeeds"),
                point.popup_attack_succeeds.into(),
            );
    }
    let propagation = sweep_propagation();
    art = art
        .int(
            "propagation_dependent_apps",
            propagation.dependent_apps as u64,
        )
        .int(
            "propagation_functional_with_p2",
            propagation.functional_with_p2 as u64,
        )
        .int(
            "propagation_functional_without_p2",
            propagation.functional_without_p2 as u64,
        );

    // §IV-A's trade-off: passive alerts against prompts.
    for (mode, prompt_mode) in [("alert_mode", false), ("prompt_mode", true)] {
        let report = run_mode(prompt_mode);
        art = art
            .num(
                &format!("{mode}_prompts_per_session"),
                hundredths(report.prompts_per_session),
            )
            .num(
                &format!("{mode}_mean_likert"),
                hundredths(report.mean_likert),
            )
            .int(&format!("{mode}_calls_ok"), report.calls_succeeded.into())
            .int(
                &format!("{mode}_probes_blocked"),
                report.probes_blocked.into(),
            );
    }

    // The attack matrix and the campaign defense matrix.
    let cells = run_matrix();
    let blocked_on = |kind: MachineKind| {
        cells
            .iter()
            .filter(|cell| cell.machine == kind && !cell.succeeded)
            .count() as u64
    };
    art = art
        .int("legacy_attacks", attack_names().len() as u64)
        .int(
            "legacy_blocked_protected",
            blocked_on(MachineKind::Protected),
        )
        .int(
            "legacy_blocked_integrated",
            blocked_on(MachineKind::Integrated),
        )
        .int("legacy_blocked_baseline", blocked_on(MachineKind::Baseline));
    let (matrix, reports) = run_campaign_matrix(&OverhaulConfig::protected());
    let stages = reports.iter().flat_map(|report| report.stages.iter());
    art = art
        .int("campaigns", reports.len() as u64)
        .int("stages_total", stages.clone().count() as u64)
        .int(
            "stages_judged",
            stages.filter(|stage| stage.check.is_some()).count() as u64,
        )
        .int("expected_bypasses", matrix.bypasses() as u64)
        .int("defense_regressions", matrix.regressions() as u64)
        .int("attack_classes_reported", matrix.classes_covered() as u64);
    for class in AttackClass::ALL {
        art = art.num(
            &format!("block_rate_{}_pct", class.key()),
            matrix.block_rate_pct(class).unwrap_or(0.0),
        );
    }
    art
}

/// Splits a flat artifact's JSON ([`BenchArtifact::to_json`]) into its
/// `(key, value)` pairs, in order, each value as its JSON text. It reads
/// only that flat format, whose strings hold no `,` or `:`.
pub fn fields(json: &str) -> Vec<(&str, &str)> {
    json.trim()
        .trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .filter_map(|field| field.split_once(':'))
        .map(|(key, value)| (key.trim_matches('"'), value))
        .collect()
}

/// A rate as a percentage with one decimal.
fn pct(rate: f64) -> f64 {
    (rate * 1000.0).round() / 10.0
}

/// A mean with two decimals.
fn hundredths(mean: f64) -> f64 {
    (mean * 100.0).round() / 100.0
}

/// One policy's outcome over the slow-app scenario.
struct ModeReport {
    prompts_per_session: f64,
    mean_likert: f64,
    probes_blocked: u32,
    calls_succeeded: u32,
}

/// The §V-B Skype call with codec initialisation slower than δ, under
/// passive alerts (the paper's policy) or unforgeable prompts. Alert mode
/// has no recourse beyond δ, so its user clicks again; a prompt turns the
/// user's approval into a fresh interaction. A hidden background probe
/// must be blocked in both modes.
fn run_mode(prompt_mode: bool) -> ModeReport {
    let mut total_prompts = 0usize;
    let mut likert_sum = 0u32;
    let mut probes_blocked = 0u32;
    let mut calls_succeeded = 0u32;
    for participant in 0..PROMPT_PARTICIPANTS {
        let mut user = SimulatedUser::new(
            AttentionProfile::paper_calibrated(),
            500 + participant as u64,
        );
        let mut machine = System::protected();
        let skype = machine
            .launch_gui_app("/usr/bin/skype", Rect::new(0, 0, 640, 480))
            .expect("launch skype");
        machine.settle();
        machine.click_window(skype.window);
        machine.advance(SimDuration::from_millis(2500)); // slow codec init: past δ!
        let (cam, mic) = if prompt_mode {
            (
                machine.open_device_prompted(skype.pid, "/dev/video0", true),
                machine.open_device_prompted(skype.pid, "/dev/snd/mic0", true),
            )
        } else {
            // The user clicks again, as a real user would when the call
            // button appears stuck.
            machine.click_window(skype.window);
            machine.advance(SimDuration::from_millis(100));
            (
                machine.open_device(skype.pid, "/dev/video0"),
                machine.open_device(skype.pid, "/dev/snd/mic0"),
            )
        };
        if cam.is_ok() && mic.is_ok() {
            calls_succeeded += 1;
        }
        let prompts = machine.xserver().prompts().asked_count();
        total_prompts += prompts;
        likert_sum += u32::from(user.rate_task_difficulty(false, prompts));

        // In prompt mode the user recognises the unexpected request and
        // denies it.
        let spy = machine.spawn_process(None, "/usr/bin/.probe").unwrap();
        let blocked = if prompt_mode {
            machine
                .open_device_prompted(spy, "/dev/video0", false)
                .is_err()
        } else {
            machine.open_device(spy, "/dev/video0").is_err()
        };
        if blocked {
            probes_blocked += 1;
        }
    }
    ModeReport {
        prompts_per_session: total_prompts as f64 / f64::from(PROMPT_PARTICIPANTS),
        mean_likert: f64::from(likert_sum) / f64::from(PROMPT_PARTICIPANTS),
        probes_blocked,
        calls_succeeded,
    }
}
