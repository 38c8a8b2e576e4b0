//! Adversarial decode robustness at the *system* level: corrupt real
//! `System` snapshots, sealed `EventLog`s, and `FailureTriple`s must
//! produce `SnapshotError`s (or, at worst, a parse that decodes to
//! different-but-valid data) — never a panic, never an abort.
//!
//! The sim crate unit-tests the codec on synthetic nested structures;
//! this suite feeds the fuzzed bytes to the full restore paths the fleet
//! harness depends on for bisection.

use std::panic::{self, AssertUnwindSafe};

use overhaul_core::{Event, EventLog, OverhaulConfig, Recorder, System};
use overhaul_fleet::FailureTriple;
use overhaul_fleet::{run_shard, FleetWorkload, ShardBeat, ShardOutcome, ShardPlan};
use overhaul_sim::{Enc, Pack, SimDuration, SimRng, Snapshot, SnapshotError};
use overhaul_xserver::geometry::Rect;

fn recorded_machine() -> (System, EventLog, Snapshot) {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let gui = rec
        .apply(Event::LaunchGuiApp {
            exe: "/usr/bin/editor".into(),
            rect: Rect::new(5, 5, 320, 240),
        })
        .gui()
        .expect("launch");
    rec.apply(Event::Settle);
    rec.apply(Event::ClickWindow { window: gui.window });
    rec.apply(Event::OpenDevice {
        pid: gui.pid,
        path: "/dev/video0".into(),
    });
    rec.apply(Event::Advance(SimDuration::from_secs(7)));
    let snap = rec.snapshot();
    let (system, log) = rec.finish();
    (system, log, snap)
}

/// Decoding must be panic-free: returns whether it parsed at all.
fn restore_never_panics(bytes: &[u8]) -> bool {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        Snapshot::from_bytes(bytes).and_then(|s| System::from_snapshot(&s).map(|_| ()))
    }));
    match outcome {
        Ok(result) => result.is_ok(),
        Err(_) => panic!("System restore panicked on corrupt input"),
    }
}

#[test]
fn truncated_system_snapshots_error_cleanly_at_every_sampled_point() {
    let (_, _, snap) = recorded_machine();
    let bytes = snap.to_bytes();
    // Every point near the ends (headers, section table, trailer) plus a
    // stride through the interior.
    let n = bytes.len();
    let points: Vec<usize> = (0..n.min(256))
        .chain((256..n.saturating_sub(256)).step_by(97))
        .chain(n.saturating_sub(256)..n)
        .collect();
    for cut in points {
        let parsed = restore_never_panics(&bytes[..cut]);
        assert!(!parsed, "truncation at {cut}/{n} still restored a machine");
    }
    // The untruncated bytes do restore.
    assert!(restore_never_panics(&bytes));
}

#[test]
fn random_multi_bit_corruption_of_system_snapshots_never_panics() {
    let (system, _, snap) = recorded_machine();
    let clean_hash = system.state_hash();
    let bytes = snap.to_bytes();
    let mut rng = SimRng::stream(0xfa11, 7);
    let mut parsed_anyway = 0usize;
    for _ in 0..300 {
        let mut fuzzed = bytes.clone();
        let flips = 1 + rng.range(0, 12) as usize;
        for _ in 0..flips {
            let i = rng.range(0, fuzzed.len() as u64) as usize;
            let bit = rng.range(0, 8) as u8;
            fuzzed[i] ^= 1 << bit;
        }
        if restore_never_panics(&fuzzed) {
            parsed_anyway += 1;
        }
    }
    // Some corruptions (e.g. inside ignored padding or flipped back)
    // may still parse; that's fine — the property is no panic and no
    // silent wrong machine *with the clean hash* from different state.
    let reparsed = Snapshot::from_bytes(&bytes).expect("clean parse");
    assert_eq!(
        System::from_snapshot(&reparsed)
            .expect("clean restore")
            .state_hash(),
        clean_hash
    );
    assert!(
        parsed_anyway < 300,
        "every corruption parsed — fuzz is broken"
    );
}

#[test]
fn corrupt_event_logs_error_cleanly() {
    let (_, log, _) = recorded_machine();
    let bytes = log.to_bytes();
    let n = bytes.len();
    for cut in 0..n {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            EventLog::from_bytes(&bytes[..cut]).map(|_| ())
        }));
        match outcome {
            Ok(result) => assert!(result.is_err(), "truncated log at {cut}/{n} still parsed"),
            Err(_) => panic!("EventLog::from_bytes panicked at truncation {cut}"),
        }
    }
    let mut rng = SimRng::stream(0x106, 1);
    for _ in 0..500 {
        let mut fuzzed = bytes.clone();
        for _ in 0..=rng.range(0, 8) {
            let i = rng.range(0, fuzzed.len() as u64) as usize;
            fuzzed[i] ^= 1 << rng.range(0, 8);
        }
        panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = EventLog::from_bytes(&fuzzed);
        }))
        .expect("EventLog::from_bytes panicked on corrupt input");
    }
}

#[test]
fn corrupt_failure_triples_error_cleanly_and_clean_ones_survive() {
    // Produce a real failure triple via a forced-panic shard.
    overhaul_fleet::quiet_injected_panics();
    let mut plan = ShardPlan::derive(0x7419, 0, &FleetWorkload::default());
    plan.chaos.panic_at = Some(20);
    let report = std::thread::Builder::new()
        .name("overhaul-shard-adv".into())
        .spawn(move || run_shard(&plan, &ShardBeat::new()))
        .unwrap()
        .join()
        .unwrap();
    let triple = match report.outcome {
        ShardOutcome::Failed(t) => *t,
        ShardOutcome::Ok { .. } => panic!("forced panic shard completed"),
    };
    let bytes = triple.to_bytes();
    assert!(FailureTriple::from_bytes(&bytes).is_ok());

    let n = bytes.len();
    let points: Vec<usize> = (0..n.min(128))
        .chain((128..n.saturating_sub(128)).step_by(131))
        .chain(n.saturating_sub(128)..n)
        .collect();
    for cut in points {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            FailureTriple::from_bytes(&bytes[..cut]).map(|_| ())
        }));
        match outcome {
            Ok(result) => assert!(result.is_err(), "truncated triple at {cut}/{n} parsed"),
            Err(_) => panic!("FailureTriple::from_bytes panicked at truncation {cut}"),
        }
    }
    let mut rng = SimRng::stream(0xadfe, 3);
    for _ in 0..300 {
        let mut fuzzed = bytes.clone();
        for _ in 0..=rng.range(0, 10) {
            let i = rng.range(0, fuzzed.len() as u64) as usize;
            fuzzed[i] ^= 1 << rng.range(0, 8);
        }
        panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = FailureTriple::from_bytes(&fuzzed);
        }))
        .expect("FailureTriple::from_bytes panicked on corrupt input");
    }
}

/// Root capture indexes a window's pixels by its rect, so a state section
/// whose packed rect grew while its pixels did not must fail to restore.
/// Widening 40×30 to 80×30 keeps the byte length; accepted, it would make
/// the next root `GetImage` index past the pixels.
#[test]
fn a_window_rect_wider_than_its_pixels_is_rejected() {
    let mut system = System::new(OverhaulConfig::protected());
    system
        .launch_gui_app("/usr/bin/editor", Rect::new(123, 45, 40, 30))
        .expect("launch");
    system.settle();
    let snap = system.snapshot();
    let packed = |width: u32| {
        let mut enc = Enc::new();
        Rect::new(123, 45, width, 30).pack(&mut enc);
        enc.into_bytes()
    };
    let (narrow, wide) = (packed(40), packed(80));
    let at: Vec<usize> = snap
        .state()
        .windows(narrow.len())
        .enumerate()
        .filter(|(_, bytes)| *bytes == narrow.as_slice())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(at.len(), 1, "the window's rect is packed once");
    let mut state = snap.state().to_vec();
    state[at[0]..at[0] + wide.len()].copy_from_slice(&wide);
    let widened = Snapshot::new(state, snap.aux().to_vec());
    assert_eq!(widened.state().len(), snap.state().len());
    assert_eq!(
        System::from_snapshot(&widened).err(),
        Some(SnapshotError::BadValue("window pixel count"))
    );
    assert!(System::from_snapshot(&snap).is_ok());
}
