//! Adversarial decode robustness at the *system* level: corrupt real
//! `System` snapshots, sealed `EventLog`s, and `FailureTriple`s must
//! produce `SnapshotError`s (or, at worst, a parse that decodes to
//! different-but-valid data) — never a panic, never an abort.
//!
//! The sim crate unit-tests the codec on synthetic nested structures;
//! this suite feeds the fuzzed bytes to the full restore paths the fleet
//! harness depends on for bisection.

use std::panic::{self, AssertUnwindSafe};

use overhaul_core::{apply_event, replay, Event, EventLog, Gui, OverhaulConfig, Recorder, System};
use overhaul_fleet::FailureTriple;
use overhaul_fleet::{run_shard, FleetWorkload, ShardBeat, ShardOutcome, ShardPlan};
use overhaul_kernel::error::Errno;
use overhaul_sim::{
    Enc, FaultSpec, LedgerError, Pack, SimDuration, SimRng, Snapshot, SnapshotError, Timestamp,
};
use overhaul_xserver::geometry::Rect;
use overhaul_xserver::protocol::{ClientId, Reply, Request};
use overhaul_xserver::window::WindowId;

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

/// A sealed entry edited under its intact seal: decode re-derives each
/// ledger's chain from its base head, so the restore is refused with a
/// typed error instead of yielding a machine whose ledger head no longer
/// commits to its entries (the state hash reads a ledger by its head).
#[test]
fn a_ledger_entry_edited_under_its_seal_is_refused() {
    let (mut system, _, _) = recorded_machine();
    let snap = system.snapshot();
    let mut ledger = Enc::new();
    system.kernel_ledger().pack(&mut ledger);
    let ledger = ledger.into_bytes();
    let at = snap
        .state()
        .windows(ledger.len())
        .position(|bytes| bytes == ledger.as_slice())
        .expect("the kernel ledger is packed whole");
    // Base sequence number, base head and entry count, then the first
    // entry's sequence number and seal: its body opens with its time.
    let first_body = at + 5 * 8;
    let mut state = snap.state().to_vec();
    state[first_body] ^= 1;
    let edited = Snapshot::new(state, snap.aux().to_vec());
    assert!(
        matches!(
            System::from_snapshot(&edited).err(),
            Some(SnapshotError::BrokenChain(LedgerError::ChainMismatch {
                seq: 0,
                ..
            }))
        ),
        "an edited entry restored"
    );
    assert!(System::from_snapshot(&snap).is_ok());
}

/// The window every test below launches: 40×30 at (123, 45).
const WINDOW: Rect = Rect::new(123, 45, 40, 30);

/// A settled protected machine with one mapped [`WINDOW`], drawn with a
/// full-size `PutImage` or never drawn.
fn one_window_machine(drawn: bool) -> (System, Gui) {
    let mut system = System::new(OverhaulConfig::protected());
    let gui = system
        .launch_gui_app("/usr/bin/editor", WINDOW)
        .expect("launch");
    if drawn {
        let data = (0..40 * 30).map(|i| (i % 7) as u8).collect();
        system
            .x_request(
                gui.client,
                Request::PutImage {
                    window: gui.window,
                    data,
                },
            )
            .expect("put image");
    }
    system.settle();
    (system, gui)
}

/// `snap` with its one packed [`WINDOW`] rect overwritten by `rect`. Every
/// rect packs to the same length, so the state section keeps its length.
fn with_window_rect(snap: &Snapshot, rect: Rect) -> Snapshot {
    let packed = |rect: Rect| {
        let mut enc = Enc::new();
        rect.pack(&mut enc);
        enc.into_bytes()
    };
    let (old, new) = (packed(WINDOW), packed(rect));
    let at: Vec<usize> = snap
        .state()
        .windows(old.len())
        .enumerate()
        .filter(|(_, bytes)| *bytes == old.as_slice())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(at.len(), 1, "the window's rect is packed once");
    let mut state = snap.state().to_vec();
    state[at[0]..at[0] + new.len()].copy_from_slice(&new);
    let patched = Snapshot::new(state, snap.aux().to_vec());
    assert_eq!(patched.state().len(), snap.state().len());
    patched
}

/// The image `client` captures of `window` (`None`: the root window).
fn capture(system: &mut System, client: ClientId, window: Option<WindowId>) -> Vec<u8> {
    match system.x_request(client, Request::GetImage { window }) {
        Ok(Reply::Image(pixels)) => pixels,
        other => panic!("GetImage on {window:?}: {other:?}"),
    }
}

/// Root capture indexes a drawn window's pixels by its rect, so a state
/// section whose packed rect grew while the drawn pixels did not must fail
/// to restore. Widening 40×30 to 80×30 keeps the byte length; accepted, it
/// would make the next root `GetImage` index past the pixels.
#[test]
fn a_window_rect_wider_than_its_pixels_is_rejected() {
    let (mut system, _) = one_window_machine(true);
    let snap = system.snapshot();
    let widened = with_window_rect(&snap, Rect::new(123, 45, 80, 30));
    assert_eq!(
        System::from_snapshot(&widened).err(),
        Some(SnapshotError::BadValue("window pixel count"))
    );
    assert!(System::from_snapshot(&snap).is_ok());
}

/// An undrawn window stores no pixels, so there is nothing for a widened
/// rect to mismatch: within X11's range the snapshot restores, and every
/// capture derives the wider window's fill instead of indexing stored
/// bytes.
#[test]
fn an_undrawn_window_with_a_widened_rect_restores_and_captures_its_fill() {
    let (mut system, gui) = one_window_machine(false);
    let fill = capture(&mut system, gui.client, Some(gui.window))[0];
    let widened = with_window_rect(&system.snapshot(), Rect::new(123, 45, 80, 30));
    let mut restored = System::from_snapshot(&widened).expect("restore");
    assert_ne!(restored.state_hash(), system.state_hash());
    // A click grants the owner's root capture, so the root is composited.
    assert!(restored.click_window(gui.window));
    let screen = restored.xserver().config().screen;
    assert_eq!(
        capture(&mut restored, gui.client, None).len() as u64,
        screen.area()
    );
    assert_eq!(
        capture(&mut restored, gui.client, Some(gui.window)),
        vec![fill; 80 * 30]
    );
}

/// A packed window rect outside X11's range fails to restore, drawn or
/// not. An undrawn window's size shows nowhere else in the state, so
/// without the check a `u32::MAX`-sided window would restore and overflow
/// its next capture.
#[test]
fn a_window_rect_outside_the_x11_range_is_rejected() {
    for drawn in [false, true] {
        let (mut system, _) = one_window_machine(drawn);
        let snap = system.snapshot();
        for rect in [
            Rect::new(123, 45, u32::MAX, u32::MAX),
            Rect::new(123, 45, 32_768, 30),
            Rect::new(i32::MAX - 10, 45, 40, 30),
            Rect::new(123, -32_769, 40, 30),
        ] {
            assert_eq!(
                System::from_snapshot(&with_window_rect(&snap, rect)).err(),
                Some(SnapshotError::BadValue("window rect")),
                "{rect:?}, drawn: {drawn}"
            );
        }
    }
}

/// A replayed log may carry any channel retry policy. Under a plan that
/// drops every message, a hundred retries with a 10 ms base backoff double
/// the wait past the end of time: the backoff saturates, the clock refuses
/// the advances it cannot make, and the replay returns at one virtual
/// time in every build profile.
#[test]
fn replayed_retry_backoff_saturates_at_the_end_of_time() {
    let drop_all = OverhaulConfig::protected().with_fault(FaultSpec::quiet(5).with_drop_p(1.0));
    let mut rec = Recorder::new(drop_all);
    let gui = rec
        .apply(Event::LaunchGuiApp {
            exe: "/usr/bin/editor".into(),
            rect: WINDOW,
        })
        .gui()
        .expect("launch");
    rec.apply(Event::Settle);
    rec.apply(Event::ClickWindow { window: gui.window });
    let (_, mut log) = rec.finish();
    log.config = log
        .config
        .with_channel_retry(100, SimDuration::from_millis(10));
    let decoded = EventLog::from_bytes(&log.to_bytes()).expect("log round-trip");
    let replayed = panic::catch_unwind(AssertUnwindSafe(|| replay(&decoded)))
        .unwrap_or_else(|_| panic!("replaying a hundred retries panicked"))
        .expect("boot");
    // The settle's 501 ms plus sixty doublings of 10 ms, 10 × (2^60 − 1);
    // the sixty-first would pass the end of time.
    assert_eq!(
        replayed.now(),
        Timestamp::from_millis(11_529_215_046_068_470_251)
    );
}

/// A decoded log may carry any window geometry. A launch outside X11's
/// range is refused with `EINVAL` before anything is spawned, so neither a
/// `u32::MAX`-sided window (a capacity overflow once created or captured)
/// nor one at the edge of `i32` (an overflow when a click finds its
/// center) reaches the X server, and the replay returns.
#[test]
fn replayed_launches_outside_the_x11_range_are_refused() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let gui = rec
        .apply(Event::LaunchGuiApp {
            exe: "/usr/bin/editor".into(),
            rect: WINDOW,
        })
        .gui()
        .expect("launch");
    rec.apply(Event::Settle);
    rec.apply(Event::ClickWindow { window: gui.window });
    for window in [Some(gui.window), None] {
        rec.apply(Event::XRequest {
            client: gui.client,
            request: Request::GetImage { window },
        });
    }
    let (_, mut log) = rec.finish();
    let booted = System::new(log.config.clone());
    for rect in [
        Rect::new(0, 0, u32::MAX, u32::MAX),
        Rect::new(i32::MAX - 10, 0, 40, 30),
    ] {
        log.events[0] = Event::LaunchGuiApp {
            exe: "/usr/bin/editor".into(),
            rect,
        };
        let decoded = EventLog::from_bytes(&log.to_bytes()).expect("log round-trip");
        let mut fresh = System::new(decoded.config.clone());
        assert_eq!(
            apply_event(&mut fresh, &decoded.events[0]).gui().err(),
            Some(Errno::Einval),
            "{rect:?}"
        );
        let replayed = panic::catch_unwind(AssertUnwindSafe(|| replay(&decoded)))
            .unwrap_or_else(|_| panic!("replaying a launch at {rect:?} panicked"))
            .expect("boot");
        assert!(replayed.xserver().windows().is_empty());
        assert_eq!(
            replayed.kernel().tasks().len(),
            booted.kernel().tasks().len(),
            "the refused launch spawned nothing"
        );
    }
}
