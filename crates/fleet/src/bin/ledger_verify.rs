//! Ledger end-to-end verification driver: the CI gate on the
//! hash-chained authoritative history.
//!
//! ```text
//! cargo run --release -p overhaul-fleet --bin ledger_verify [-- --quick]
//! ```
//!
//! Drives one recorded machine through a faulted, traced, snapshotted
//! soak — GUI apps, interaction-gated device opens, hot-plug/rename
//! churn, display-manager crashes, an enabled span tracer, and a mid-run
//! checkpoint — then proves the ledger invariants the fleet depends on:
//!
//! 1. the live chain verifies (`verify_chain` on both components);
//! 2. the sealed ledger survives a byte round-trip onto the same head;
//! 3. any corruption of either component's bytes is *rejected* (typed
//!    error at decode or verify), sampled across each buffer: one flipped
//!    bit, and the same bit flipped in the next 8-byte lane as well (the
//!    pair a word-wise hash with cancelling lanes would miss);
//! 4. `reduce()` re-derives the live control-plane state byte-identically
//!    — from boot, after a replay from boot, and after a replay resumed
//!    from the mid-run snapshot;
//! 5. both replays re-land on the identical sealed chain head.
//!
//! Prints chain-verify throughput (entries/sec) and ledger growth per
//! simulated machine-hour, and writes `BENCH_ledger_verify.json`.
//! Exits non-zero on any violated invariant.

use std::time::Instant;

use overhaul_core::{replay, replay_from, Event, OverhaulConfig, Recorder, System};
use overhaul_kernel::device::DeviceClass;
use overhaul_sim::{BenchArtifact, Ledger, SimDuration, SimRng};
use overhaul_xserver::geometry::Rect;

/// One failed invariant, carried to the exit-status accounting.
fn fail(violations: &mut usize, what: &str) {
    println!("FAIL: {what}");
    *violations += 1;
}

/// Runs the faulted/traced soak, checkpointing halfway. Returns the
/// finished machine, its event log, the mid-run snapshot, and the event
/// count at the checkpoint.
fn soak(
    rounds: usize,
) -> (
    System,
    overhaul_core::EventLog,
    overhaul_sim::Snapshot,
    usize,
) {
    // Traced: the tracing flag rides in the recorded config, so replays
    // boot with the identical tracer.
    let mut config = OverhaulConfig::protected();
    config.tracing = true;
    let mut rec = Recorder::new(config);
    let gui = rec
        .apply(Event::LaunchGuiApp {
            exe: "/usr/bin/soak-editor".into(),
            rect: Rect::new(10, 10, 640, 480),
        })
        .gui()
        .expect("launch gui app");
    rec.apply(Event::Settle);

    let mut snap = None;
    let mut snap_idx = 0usize;
    for round in 0..rounds {
        rec.apply(Event::ClickWindow { window: gui.window });
        rec.apply(Event::OpenDevice {
            pid: gui.pid,
            path: "/dev/snd/mic0".into(),
        });
        rec.apply(Event::OpenDevice {
            pid: gui.pid,
            path: "/dev/video0".into(),
        });
        rec.apply(Event::Advance(SimDuration::from_secs(9)));
        // Unattended open: δ has expired, so this one is denied — the
        // ledger records denial verdicts too.
        rec.apply(Event::OpenDevice {
            pid: gui.pid,
            path: "/dev/snd/mic0".into(),
        });
        match round % 16 {
            3 => {
                rec.apply(Event::AttachDevice {
                    class: DeviceClass::Camera,
                    label: format!("hotplug cam {round}"),
                    path: format!("/dev/video{}", 100 + round),
                });
            }
            7 => {
                rec.apply(Event::UdevRename {
                    old: format!("/dev/video{}", 100 + round - 4),
                    new: format!("/dev/video{}", 200 + round),
                });
            }
            11 => {
                // Display-manager fault: sever and re-establish the
                // trusted channel mid-soak.
                rec.apply(Event::CrashX);
                rec.apply(Event::RestartX);
                rec.apply(Event::ClickWindow { window: gui.window });
            }
            _ => {}
        }
        if round == rounds / 2 {
            snap = Some(rec.snapshot());
            snap_idx = rec.events_recorded();
        }
    }
    let snap = snap.expect("soak long enough to checkpoint");
    let (system, log) = rec.finish();
    (system, log, snap, snap_idx)
}

/// Sampled corruption of one component's sealed bytes: at every
/// `stride`-th byte, one flipped bit, then that bit flipped together with
/// the same bit 8 bytes later. Every corruption must be rejected at decode
/// or fail chain verification. Returns (corruptions tried, undetected).
fn corruption_sweep(label: &str, bytes: &[u8], stride: usize) -> (usize, usize) {
    let (mut tried, mut undetected) = (0usize, 0usize);
    let mut rng = SimRng::stream(0x1ed9e4, 9);
    for byte in (0..bytes.len()).step_by(stride) {
        let bit = rng.range(0, 8) as u8;
        for flips in [&[byte][..], &[byte, byte + 8]] {
            if flips.iter().any(|&i| i >= bytes.len()) {
                continue;
            }
            let mut fuzzed = bytes.to_vec();
            for &i in flips {
                fuzzed[i] ^= 1 << bit;
            }
            tried += 1;
            if let Ok(ledger) = Ledger::from_bytes(&fuzzed) {
                if ledger.verify_chain().is_ok() {
                    println!(
                        "  undetected {label} corruption: bit {bit} of bytes {flips:?}/{}",
                        bytes.len()
                    );
                    undetected += 1;
                }
            }
        }
    }
    (tried, undetected)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rounds = if quick { 200 } else { 1_500 };
    let mode = if quick { "quick" } else { "full" };
    println!("ledger verification soak ({mode}): {rounds} rounds, traced, faulted, checkpointed\n");

    let mut violations = 0usize;
    let (system, log, snap, snap_idx) = soak(rounds);
    let machine_hours = system.now().as_millis() as f64 / 3_600_000.0;

    // 1. The live chain verifies.
    if let Err(e) = system.verify_ledgers() {
        fail(&mut violations, &format!("live chain did not verify: {e}"));
    }

    // 2. Byte round-trip re-lands on the same head (both components).
    let kernel_bytes = system.kernel_ledger().to_bytes();
    let x_bytes = system.x_ledger().to_bytes();
    let total_bytes = kernel_bytes.len() + x_bytes.len();
    let total_entries = system.kernel_ledger().entries().len() + system.x_ledger().entries().len();
    for (label, bytes, live) in [
        ("kernel", &kernel_bytes, system.kernel_ledger()),
        ("display", &x_bytes, system.x_ledger()),
    ] {
        match Ledger::from_bytes(bytes) {
            Ok(decoded) => {
                if let Err(e) = decoded.verify_chain() {
                    fail(&mut violations, &format!("{label} round-trip chain: {e}"));
                }
                if decoded.head() != live.head() {
                    fail(
                        &mut violations,
                        &format!("{label} round-trip changed the head"),
                    );
                }
            }
            Err(e) => fail(
                &mut violations,
                &format!("{label} ledger did not decode: {e:?}"),
            ),
        }
    }

    // 3. Sampled corruption of either ledger is always detected.
    let stride = if quick { 97 } else { 13 };
    for (label, bytes) in [("kernel", &kernel_bytes), ("display", &x_bytes)] {
        let (tried, undetected) = corruption_sweep(label, bytes, stride);
        println!("{label} ledger: {tried} sampled corruptions");
        if undetected > 0 {
            fail(
                &mut violations,
                &format!("{undetected} of {tried} {label} ledger corruptions went undetected"),
            );
        }
    }

    // 4+5. Replays from boot and from the mid-run snapshot re-land on the
    // sealed head, and reduction matches the live control plane each time.
    let live_head = system.ledger_head();
    let live_plane = system.control_plane();
    if system.reduce() != live_plane {
        fail(
            &mut violations,
            "live reduce() diverged from the control plane",
        );
    }
    match replay(&log) {
        Ok(replayed) => {
            if replayed.state_hash() != system.state_hash() {
                fail(&mut violations, "replay from boot diverged in state");
            }
            if replayed.ledger_head() != live_head {
                fail(
                    &mut violations,
                    "replay from boot re-landed on a different chain head",
                );
            }
            if replayed.reduce() != live_plane {
                fail(&mut violations, "replay-from-boot reduction diverged");
            }
        }
        Err(e) => fail(&mut violations, &format!("replay from boot failed: {e:?}")),
    }
    match replay_from(&snap, log.suffix(snap_idx), log.final_state_hash) {
        Ok(resumed) => {
            if resumed.state_hash() != system.state_hash() {
                fail(&mut violations, "replay from snapshot diverged in state");
            }
            if resumed.ledger_head() != live_head {
                fail(
                    &mut violations,
                    "replay from snapshot re-landed on a different chain head",
                );
            }
            if resumed.reduce() != live_plane {
                fail(&mut violations, "replay-from-snapshot reduction diverged");
            }
        }
        Err(e) => fail(
            &mut violations,
            &format!("replay from snapshot failed: {e:?}"),
        ),
    }

    // Chain-verify throughput over the sealed history.
    let reps = if quick { 50 } else { 400 };
    let start = Instant::now();
    for _ in 0..reps {
        system.verify_ledgers().expect("verified above");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let entries_per_sec = (total_entries * reps) as f64 / elapsed.max(1e-9);
    let bytes_per_machine_hour = total_bytes as f64 / machine_hours.max(1e-9);

    println!(
        "\n{total_entries} entries, {total_bytes} bytes sealed over {machine_hours:.2} \
         simulated machine-hours"
    );
    println!(
        "chain verify: {entries_per_sec:.0} entries/s; ledger growth: \
         {bytes_per_machine_hour:.0} bytes/machine-hour"
    );

    let artifact = BenchArtifact::new("ledger_verify")
        .text("mode", mode)
        .int("rounds", rounds as u64)
        .int("entries", total_entries as u64)
        .int("ledger_bytes", total_bytes as u64)
        .num("machine_hours", machine_hours)
        .num("verify_entries_per_sec", entries_per_sec)
        .num("bytes_per_machine_hour", bytes_per_machine_hour)
        .int("violations", violations as u64);
    match artifact.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write bench artifact: {e}"),
    }

    if violations > 0 {
        println!("\nFAIL: {violations} ledger invariant(s) violated");
        std::process::exit(1);
    }
    println!(
        "\nOK: chain verified live, after round-trip, from boot, and from the mid-run \
         snapshot; all sampled corruptions detected; state is a pure reduction of the ledger"
    );
}
