//! The attack matrix: every §II/§IV attack crossed with machine
//! configurations (protected, kernel-integrated, stock baseline), plus
//! the multi-stage campaign defense matrix layered on top.
//!
//! Shared by the `attack_matrix` integration test (which asserts the
//! expected outcomes), the `campaign_matrix` suite, and
//! [`crate::paper::evaluate`], whose artifact pins the matrices' counts
//! and per-class block rates.

use overhaul_apps::campaign::{
    catalog, run_campaign, CampaignReport, DefenseMatrix, Expectation as CampaignExpectation,
};
use overhaul_apps::malware::{input_forgery_attack, selection_bypass_attack, Spyware};
use overhaul_core::{Gui, OverhaulConfig, Recorder, System};
use overhaul_sim::SimDuration;
use overhaul_xserver::geometry::Rect;
use overhaul_xserver::protocol::{Atom, Request};

/// Machine configurations the matrix runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// The paper's configuration (userspace DM + netlink).
    Protected,
    /// The §III kernel-integrated display-manager variant.
    Integrated,
    /// Stock, unprotected stack.
    Baseline,
}

impl MachineKind {
    /// All configurations, in reporting order.
    pub const ALL: [MachineKind; 3] = [
        MachineKind::Protected,
        MachineKind::Integrated,
        MachineKind::Baseline,
    ];

    /// Boots a machine of this kind.
    pub fn boot(self) -> System {
        match self {
            MachineKind::Protected => System::protected(),
            MachineKind::Integrated => System::integrated(),
            MachineKind::Baseline => System::baseline(),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            MachineKind::Protected => "protected",
            MachineKind::Integrated => "integrated",
            MachineKind::Baseline => "baseline",
        }
    }

    /// Whether Overhaul protections are active on this machine.
    pub fn protected(self) -> bool {
        !matches!(self, MachineKind::Baseline)
    }
}

/// One attack × machine outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    /// Attack name.
    pub attack: &'static str,
    /// Machine configuration.
    pub machine: MachineKind,
    /// Whether the attack obtained what it wanted.
    pub succeeded: bool,
}

/// Sets up a victim clipboard owner with a user-initiated copy.
fn clipboard_victim(machine: &mut System) -> (Gui, Vec<u8>) {
    let app = machine
        .launch_gui_app("/usr/bin/keepassx", Rect::new(0, 0, 150, 150))
        .expect("launch victim");
    machine.settle();
    machine.click_window(app.window);
    machine
        .x_request(
            app.client,
            Request::SetSelectionOwner {
                selection: Atom::clipboard(),
                window: app.window,
            },
        )
        .expect("user-initiated copy");
    (app, b"s3cret".to_vec())
}

/// The attacks, each a closure over a fresh machine.
pub fn attack_names() -> Vec<&'static str> {
    vec![
        "background spyware sampling",
        "synthetic input forgery",
        "forged SelectionRequest bypass",
        "foreign-window GetImage",
        "CopyArea exfiltration",
        "ptrace permission theft",
    ]
}

fn run_attack(name: &str, mut machine: System) -> bool {
    match name {
        "background spyware sampling" => {
            let (owner, secret) = clipboard_victim(&mut machine);
            let mut spy = Spyware::install(&mut machine);
            machine.advance(SimDuration::from_secs(60));
            spy.run_cycle(&mut machine);
            overhaul_apps::malware::answer_selection_requests(&mut machine, owner.client, &secret);
            machine.advance(SimDuration::from_secs(60));
            spy.run_cycle(&mut machine);
            spy.total_stolen() > 0
        }
        "synthetic input forgery" => {
            let spy = machine.spawn_process(None, "/usr/bin/.spy").unwrap();
            input_forgery_attack(&mut machine, spy)
        }
        "forged SelectionRequest bypass" => {
            let (owner, secret) = clipboard_victim(&mut machine);
            let spy = machine.spawn_process(None, "/usr/bin/.spy").unwrap();
            selection_bypass_attack(&mut machine, spy, owner.client, owner.window, &secret)
                .is_some()
        }
        "foreign-window GetImage" => {
            let victim = machine
                .launch_gui_app("/usr/bin/bank", Rect::new(0, 0, 100, 100))
                .unwrap();
            machine.settle();
            let spy = machine.spawn_process(None, "/usr/bin/.spy").unwrap();
            let spy_client = machine.connect_x(spy);
            machine
                .x_request(
                    spy_client,
                    Request::GetImage {
                        window: Some(victim.window),
                    },
                )
                .is_ok()
        }
        "CopyArea exfiltration" => {
            let victim = machine
                .launch_gui_app("/usr/bin/bank", Rect::new(0, 0, 100, 100))
                .unwrap();
            machine.settle();
            let spy = machine.spawn_process(None, "/usr/bin/.spy").unwrap();
            let spy_client = machine.connect_x(spy);
            let spy_window = match machine
                .x_request(
                    spy_client,
                    Request::CreateWindow {
                        rect: Rect::new(0, 0, 100, 100),
                    },
                )
                .unwrap()
            {
                overhaul_xserver::protocol::Reply::Window(w) => w,
                _ => unreachable!(),
            };
            machine
                .x_request(
                    spy_client,
                    Request::CopyArea {
                        src: Some(victim.window),
                        dst: spy_window,
                    },
                )
                .is_ok()
        }
        "ptrace permission theft" => {
            let spy = machine.spawn_process(None, "/usr/bin/.spy").unwrap();
            overhaul_apps::malware::ptrace_injection_attack(&mut machine, spy)
        }
        other => panic!("unknown attack {other}"),
    }
}

/// Runs the full matrix.
pub fn run_matrix() -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for attack in attack_names() {
        for machine in MachineKind::ALL {
            cells.push(MatrixCell {
                attack,
                machine,
                succeeded: run_attack(attack, machine.boot()),
            });
        }
    }
    cells
}

// ------------------------------------------------------------------
// Campaign defense matrix: the multi-stage companion to the single-shot
// matrix above. Each catalog campaign runs on a fresh recorder under
// the strict judge (no fault plan, so no excused denies), so a nonzero
// regression count is always a real semantics change.
// ------------------------------------------------------------------

/// Runs the full campaign catalog against machines booted from `config`,
/// one fresh recorder per campaign, strict judging.
pub fn run_campaign_matrix(config: &OverhaulConfig) -> (DefenseMatrix, Vec<CampaignReport>) {
    let mut matrix = DefenseMatrix::new();
    let mut reports = Vec::new();
    for campaign in catalog() {
        let mut rec = Recorder::new(config.clone());
        let report = run_campaign(&mut rec, &campaign, false);
        matrix.absorb(&report);
        reports.push(report);
    }
    (matrix, reports)
}

/// Renders every documented bypass that occurred, with the paper-grounded
/// rationale its expectation carries — the "why the model cannot stop
/// this" column of the report.
pub fn format_bypass_rationales(reports: &[CampaignReport]) -> String {
    let mut out = String::from("documented bypasses (inherent to the input-driven model):\n");
    for report in reports {
        for stage in &report.stages {
            let Some(check) = &stage.check else { continue };
            if let CampaignExpectation::ExpectedBypass { rationale } = &check.expect {
                out.push_str(&format!(
                    "  [{}] {}: {}\n",
                    report.name, stage.stage, rationale
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_every_cell() {
        let cells = run_matrix();
        assert_eq!(cells.len(), attack_names().len() * MachineKind::ALL.len());
    }

    #[test]
    fn protected_and_integrated_block_everything_baseline_blocks_nothing() {
        for cell in run_matrix() {
            if cell.machine.protected() {
                assert!(
                    !cell.succeeded,
                    "{} must fail on {}",
                    cell.attack,
                    cell.machine.label()
                );
            } else {
                assert!(
                    cell.succeeded,
                    "{} should succeed on the stock baseline",
                    cell.attack
                );
            }
        }
    }

    #[test]
    fn campaign_matrix_is_clean_on_protected_and_trips_on_grant_all() {
        let (matrix, reports) = run_campaign_matrix(&OverhaulConfig::protected());
        assert_eq!(matrix.regressions(), 0, "\n{}", matrix.render());
        assert_eq!(matrix.classes_covered(), 3);
        assert!(matrix.bypasses() >= 3);
        let rationales = format_bypass_rationales(&reports);
        assert!(rationales.contains("hover-theft"));
        assert!(rationales.contains("delegation-abuse"));
        assert!(rationales.contains("operation-binding"));

        let (open, _) = run_campaign_matrix(&OverhaulConfig::grant_all());
        assert!(open.regressions() > 0, "grant-all must regress");
    }
}
