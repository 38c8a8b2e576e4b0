//! Replay determinism under fire: a seeded, faulted soak — mixed
//! legitimate use, spyware traffic, synthetic-input floods, scheduled
//! display-manager crashes and restarts — recorded at the [`System`]
//! boundary, then replayed two ways:
//!
//! 1. **from boot** — a fresh machine built from the log's configuration
//!    re-applies every event;
//! 2. **from a mid-run checkpoint** — a machine restored from a snapshot
//!    taken halfway (with its verdict cache and dup-suppression sets
//!    rebuilt cold) re-applies only the suffix.
//!
//! Both must land on a byte-identical [`System::state_hash`] *and* a
//! byte-identical [`System::trace_dump`]. This is the acceptance gate for
//! the checkpoint/restore subsystem: any state the snapshot codec missed,
//! any derived cache that leaks into decisions, or any hidden
//! nondeterminism in the fault plan's RNG stream shows up here as a hash
//! or trace mismatch. CI runs this suite as its `replay-determinism` step.
//!
//! The machine's modelled cost ([`System::modelled_cost`]) is not state,
//! but it is a pure function of the events applied: a replay charges
//! exactly what the recording charged for the same events.

use overhaul_core::{
    replay, replay_from, ApplyOutcome, Event, EventLog, Gui, OverhaulConfig, Recorder, System,
};
use overhaul_sim::snapshot::{hash64, Snapshot};
use overhaul_sim::{FaultSpec, ModelledCost, Pid, SimDuration, SimRng};
use overhaul_xserver::geometry::Rect;
use overhaul_xserver::protocol::{Atom, ClientId, InputPayload, Request, XEvent};

fn faulted_config(seed: u64) -> OverhaulConfig {
    OverhaulConfig::protected().with_tracing().with_fault(
        FaultSpec::quiet(seed)
            .with_drop_p(0.10)
            .with_delay_p(0.15)
            .with_duplicate_p(0.10)
            .with_reorder_p(0.05),
    )
}

/// Applies `event`; with `check_digests`, then demands that the live
/// state hash, read through whatever component digests the machine has
/// cached, equal the hash of the same state restored from a snapshot,
/// whose digests all start empty. A mutation that kept a stale digest
/// fails here, at the event that made it.
fn apply(rec: &mut Recorder, event: Event, check_digests: bool) -> ApplyOutcome {
    let outcome = rec.apply(event);
    if check_digests {
        let live = rec.system().state_hash();
        let cold = System::from_snapshot(&rec.snapshot())
            .expect("restore")
            .state_hash();
        assert_eq!(
            live,
            cold,
            "cached digest went stale at event {}",
            rec.events_recorded()
        );
    }
    outcome
}

/// The system_soak workload shape, expressed purely in recordable
/// [`Event`]s: every input the soak would issue crosses the recorder.
struct RecordedSoak {
    rec: Recorder,
    rng: SimRng,
    apps: Vec<Gui>,
    spy: Pid,
    spy_client: ClientId,
    check_digests: bool,
}

impl RecordedSoak {
    fn new(seed: u64, check_digests: bool) -> Self {
        let mut rec = Recorder::new(faulted_config(seed));
        let apps = (0..4)
            .map(|i| {
                let launch = Event::LaunchGuiApp {
                    exe: format!("/usr/bin/app{i}"),
                    rect: Rect::new(i * 220, 0, 200, 200),
                };
                apply(&mut rec, launch, check_digests)
                    .gui()
                    .expect("launch")
            })
            .collect::<Vec<_>>();
        apply(&mut rec, Event::Settle, check_digests);
        let spawn = Event::SpawnProcess {
            parent: None,
            exe: "/usr/bin/.spy".into(),
        };
        let spy = apply(&mut rec, spawn, check_digests)
            .pid()
            .expect("spawn spy");
        let spy_client = apply(&mut rec, Event::ConnectX { pid: spy }, check_digests).client();
        RecordedSoak {
            rec,
            rng: SimRng::seeded(seed),
            apps,
            spy,
            spy_client,
            check_digests,
        }
    }

    fn apply(&mut self, event: Event) -> ApplyOutcome {
        apply(&mut self.rec, event, self.check_digests)
    }

    fn step(&mut self) {
        let app = self.apps[self.rng.range(0, self.apps.len() as u64) as usize];
        match self.rng.range(0, 10) {
            // Legit: raise, click, then open a device quickly.
            0..=2 => {
                let _ = self.apply(Event::XRequest {
                    client: app.client,
                    request: Request::RaiseWindow { window: app.window },
                });
                self.apply(Event::Settle);
                self.apply(Event::ClickWindow { window: app.window });
                let wait = SimDuration::from_millis(self.rng.range(10, 1_500));
                self.apply(Event::Advance(wait));
                let path = if self.rng.chance(0.5) {
                    "/dev/snd/mic0"
                } else {
                    "/dev/video0"
                };
                if let Ok(fd) = self
                    .apply(Event::OpenDevice {
                        pid: app.pid,
                        path: path.into(),
                    })
                    .fd()
                {
                    self.apply(Event::SysClose { pid: app.pid, fd });
                }
            }
            // Legit: clipboard copy after a click.
            3..=4 => {
                let _ = self.apply(Event::XRequest {
                    client: app.client,
                    request: Request::RaiseWindow { window: app.window },
                });
                self.apply(Event::Settle);
                self.apply(Event::ClickWindow { window: app.window });
                let _ = self.apply(Event::XRequest {
                    client: app.client,
                    request: Request::SetSelectionOwner {
                        selection: Atom::clipboard(),
                        window: app.window,
                    },
                });
            }
            // Attack: spyware cycle — device grabs and a screen capture.
            5..=6 => {
                let _ = self.apply(Event::OpenDevice {
                    pid: self.spy,
                    path: "/dev/snd/mic0".into(),
                });
                let _ = self.apply(Event::OpenDevice {
                    pid: self.spy,
                    path: "/dev/video0".into(),
                });
                let _ = self.apply(Event::XRequest {
                    client: self.spy_client,
                    request: Request::GetImage { window: None },
                });
            }
            // Attack: synthetic input flood at a random app.
            7 => {
                for _ in 0..4 {
                    let _ = self.apply(Event::XRequest {
                        client: self.spy_client,
                        request: Request::SendEvent {
                            target: app.window,
                            event: Box::new(XEvent::Input {
                                window: app.window,
                                payload: InputPayload::Button { x: 1, y: 1 },
                                synthetic: false,
                            }),
                        },
                    });
                    let _ = self.apply(Event::XRequest {
                        client: self.spy_client,
                        request: Request::XTestFakeInput {
                            payload: InputPayload::Key { ch: 'x' },
                            target: app.window,
                        },
                    });
                }
            }
            // Time passes.
            _ => {
                let idle = SimDuration::from_millis(self.rng.range(100, 10_000));
                self.apply(Event::Advance(idle));
            }
        }
        // Apps drain their event queues, as real clients would.
        for i in 0..self.apps.len() {
            let client = self.apps[i].client;
            let _ = self.apply(Event::DrainEvents { client });
        }
    }
}

/// Records a faulted soak with scheduled display-manager crashes, taking a
/// checkpoint at the halfway point. Returns the recorded machine, the
/// sealed log, the mid-run snapshot, the event index it was taken at, and
/// the recorder's modelled cost at that point.
fn record_soak(seed: u64, steps: usize) -> (System, EventLog, Snapshot, usize, ModelledCost) {
    record(RecordedSoak::new(seed, false), steps)
}

fn record(
    mut soak: RecordedSoak,
    steps: usize,
) -> (System, EventLog, Snapshot, usize, ModelledCost) {
    let mut checkpoint = None;
    for i in 0..steps {
        if i == steps / 2 {
            let snap = soak.rec.snapshot();
            checkpoint = Some((
                snap,
                soak.rec.events_recorded(),
                soak.rec.system().modelled_cost(),
            ));
        }
        // A crash roughly every 90 steps, restarted ~10 steps later.
        if i % 90 == 40 && soak.rec.system().x_alive() {
            soak.apply(Event::CrashX);
        }
        if i % 90 == 50 && !soak.rec.system().x_alive() {
            let _ = soak.apply(Event::RestartX);
        }
        soak.step();
    }
    if !soak.rec.system().x_alive() {
        let _ = soak.apply(Event::RestartX);
    }
    let (snap, at, cost) = checkpoint.expect("steps / 2 reached");
    let (recorded, log) = soak.rec.finish();
    (recorded, log, snap, at, cost)
}

#[test]
fn faulted_soak_replays_byte_identically_from_boot() {
    let (recorded, log, _, _, _) = record_soak(42, 220);
    let replayed = replay(&log).expect("replay boots");
    assert_eq!(
        replayed.state_hash(),
        recorded.state_hash(),
        "state hash diverged on replay from boot"
    );
    assert_eq!(
        replayed.trace_dump(),
        recorded.trace_dump(),
        "trace diverged on replay from boot"
    );
    assert_eq!(replayed.kernel().snapshot_stats().replay_divergence, 0);

    // The serialized log replays identically too — what CI ships around.
    let decoded = EventLog::from_bytes(&log.to_bytes()).expect("log round-trip");
    let replayed = replay(&decoded).expect("replay boots");
    assert_eq!(replayed.state_hash(), recorded.state_hash());
}

/// Pins the bytes of the faulted, traced recording: `hash64` of its state
/// section, which carries the fault plan's spec, stream position and crash
/// schedule; of its trace dump; and of its sketch book's deterministic
/// plane. A change to where the machine keeps its fault plan or its book
/// must leave all three alone.
#[test]
fn faulted_soak_bytes_are_pinned() {
    let (mut recorded, _, _, _, _) = record_soak(42, 220);
    let sketch = hash64(&recorded.sketch_book().canonical_bytes());
    let trace = hash64(recorded.trace_dump().as_bytes());
    let state = hash64(recorded.snapshot().state());
    assert_eq!(
        (state, trace, sketch),
        (
            0x86c7_5d7d_b179_6481,
            0x6b04_7f5c_303e_2bd5,
            0x97f3_fb28_22ec_422d,
        ),
        "state section, trace dump, canonical sketch bytes"
    );
}

#[test]
fn faulted_soak_replays_byte_identically_from_mid_run_snapshot() {
    let (recorded, log, snap, at, _) = record_soak(42, 220);
    let resumed = replay_from(&snap, log.suffix(at), log.final_state_hash).expect("restore");
    assert_eq!(
        resumed.state_hash(),
        recorded.state_hash(),
        "state hash diverged on replay from the snapshot"
    );
    assert_eq!(
        resumed.trace_dump(),
        recorded.trace_dump(),
        "trace diverged on replay from the snapshot"
    );
    assert_eq!(resumed.kernel().snapshot_stats().replay_divergence, 0);

    // The snapshot survives its own serialization.
    let decoded = Snapshot::from_bytes(&snap.to_bytes()).expect("snapshot round-trip");
    let resumed = replay_from(&decoded, log.suffix(at), log.final_state_hash).expect("restore");
    assert_eq!(resumed.state_hash(), recorded.state_hash());
}

#[test]
fn second_seed_replays_byte_identically_both_ways() {
    let (recorded, log, snap, at, _) = record_soak(20_260_805, 180);
    let replayed = replay(&log).expect("replay boots");
    assert_eq!(replayed.state_hash(), recorded.state_hash());
    assert_eq!(replayed.trace_dump(), recorded.trace_dump());
    let resumed = replay_from(&snap, log.suffix(at), log.final_state_hash).expect("restore");
    assert_eq!(resumed.state_hash(), recorded.state_hash());
    assert_eq!(resumed.trace_dump(), recorded.trace_dump());
}

/// Differential check of the cached component digests: after every event
/// of the faulted, traced soak, the live hash equals a cold restore's.
#[test]
fn cached_digests_match_a_cold_restore_after_every_event() {
    let (recorded, log, _, _, _) = record(RecordedSoak::new(42, true), 120);
    let replayed = replay(&log).expect("replay boots");
    assert_eq!(replayed.state_hash(), recorded.state_hash());
}

#[test]
fn divergence_is_detected_not_masked() {
    // Tamper with the recorded hash: the replay machinery must notice and
    // count it on the kernel gauge rather than silently passing.
    let (_, mut log, snap, at, _) = record_soak(7, 60);
    let truth = log.final_state_hash.unwrap();
    log.final_state_hash = Some(truth ^ 0xdead_beef);
    let replayed = replay(&log).expect("replay boots");
    assert_eq!(replayed.kernel().snapshot_stats().replay_divergence, 1);
    let resumed = replay_from(&snap, log.suffix(at), log.final_state_hash).expect("restore");
    assert_eq!(resumed.kernel().snapshot_stats().replay_divergence, 1);
}

#[test]
fn modelled_cost_is_a_pure_function_of_the_events() {
    let (recorded, log, snap, at, at_checkpoint) = record_soak(42, 220);
    let charged = recorded.modelled_cost();
    assert!(at_checkpoint.total_ns() > 0 && charged.total_ns() > at_checkpoint.total_ns());

    let replayed = replay(&log).expect("replay boots");
    assert_eq!(replayed.modelled_cost(), charged, "replay from boot");

    // A restored machine starts from zero and charges only the suffix.
    let restored = System::from_snapshot(&snap).expect("restore");
    assert_eq!(restored.modelled_cost(), ModelledCost::default());
    let resumed = replay_from(&snap, log.suffix(at), log.final_state_hash).expect("restore");
    assert_eq!(
        resumed.modelled_cost() + at_checkpoint,
        charged,
        "replay from the snapshot"
    );
}
