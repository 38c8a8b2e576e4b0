//! The full attack suite crossed with machine configurations: every
//! attack must fail on the protected machines (userspace-DM and the §III
//! kernel-integrated variant) and succeed on the stock baseline — the
//! asymmetry that *is* the paper's security contribution.
//!
//! The matrix itself lives in `overhaul_bench::attacks` (shared with
//! `overhaul_bench::paper`, whose artifact counts it).

use overhaul_bench::attacks::{attack_names, run_matrix, MachineKind};

#[test]
fn every_attack_blocked_on_protected_and_open_on_baseline() {
    let cells = run_matrix();
    assert_eq!(cells.len(), attack_names().len() * MachineKind::ALL.len());
    for cell in cells {
        if cell.machine.protected() {
            assert!(
                !cell.succeeded,
                "{} must fail on the {} machine",
                cell.attack,
                cell.machine.label()
            );
        } else {
            assert!(
                cell.succeeded,
                "{} should demonstrate the gap on the baseline",
                cell.attack
            );
        }
    }
}
