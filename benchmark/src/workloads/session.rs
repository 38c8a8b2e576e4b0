//! `session`: record a seeded desktop session once, then replay it.
//!
//! Set-up records an 8-app session (raise + click + microphone open and
//! close, clipboard ownership, camera opens, idle gaps), checkpointing the
//! machine three quarters of the way through. A round replays the sealed
//! log from boot and then from the checkpoint, by applying each event
//! itself (one latency sample per event), and checks that both land on
//! the log's sealed state hash and ledger head.

use std::time::{Duration, Instant};

use overhaul_core::{apply_event, Event, EventLog, OverhaulConfig, Recorder, System};
use overhaul_sim::snapshot::Snapshot;
use overhaul_sim::{SimDuration, SimRng};
use overhaul_xserver::geometry::Rect;
use overhaul_xserver::protocol::{Atom, Request};

use super::{Checks, Round, Workload};
use crate::hist::Histogram;
use crate::spans::Spans;

/// Round size.
#[derive(Debug, Clone, Copy)]
pub struct SessionSize {
    /// GUI apps on the machine.
    pub apps: usize,
    /// Session steps (each one to five events).
    pub steps: usize,
    /// Step after which the checkpoint is taken.
    pub checkpoint_step: usize,
}

/// The recorded session.
pub struct Session {
    /// The sealed log.
    pub log: EventLog,
    /// The machine checkpointed mid-session.
    pub checkpoint: Snapshot,
    /// Events recorded before the checkpoint.
    pub checkpoint_at: usize,
    /// The machine at the end of the recording.
    pub recorded: System,
}

/// The static span name of an event's kind.
pub fn kind(event: &Event) -> &'static str {
    match event {
        Event::LaunchGuiApp { .. } => "replay.apply.launch_gui_app",
        Event::Settle => "replay.apply.settle",
        Event::ClickWindow { .. } => "replay.apply.click_window",
        Event::XRequest { .. } => "replay.apply.x_request",
        Event::OpenDevice { .. } => "replay.apply.open_device",
        Event::SysClose { .. } => "replay.apply.sys_close",
        Event::Advance(_) => "replay.apply.advance",
        _ => "replay.apply.other",
    }
}

/// Records the session.
pub fn record(seed: u64, size: SessionSize) -> Session {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let mut rng = SimRng::seeded(seed);
    let apps = (0..size.apps)
        .map(|i| {
            rec.apply(Event::LaunchGuiApp {
                exe: format!("/usr/bin/app{i}"),
                rect: Rect::new(i as i32 * 120, 0, 110, 110),
            })
            .gui()
            .expect("launch")
        })
        .collect::<Vec<_>>();
    rec.apply(Event::Settle);
    let mut checkpoint = None;
    for step in 0..size.steps {
        if step == size.checkpoint_step {
            checkpoint = Some((rec.snapshot(), rec.events_recorded()));
        }
        let app = apps[rng.range(0, size.apps as u64) as usize];
        match rng.range(0, 4) {
            0 => {
                let _ = rec.apply(Event::XRequest {
                    client: app.client,
                    request: Request::RaiseWindow { window: app.window },
                });
                rec.apply(Event::Settle);
                rec.apply(Event::ClickWindow { window: app.window });
                if let Ok(fd) = rec
                    .apply(Event::OpenDevice {
                        pid: app.pid,
                        path: "/dev/snd/mic0".into(),
                    })
                    .fd()
                {
                    rec.apply(Event::SysClose { pid: app.pid, fd });
                }
            }
            1 => {
                rec.apply(Event::ClickWindow { window: app.window });
                let _ = rec.apply(Event::XRequest {
                    client: app.client,
                    request: Request::SetSelectionOwner {
                        selection: Atom::clipboard(),
                        window: app.window,
                    },
                });
            }
            2 => {
                let _ = rec.apply(Event::OpenDevice {
                    pid: app.pid,
                    path: "/dev/video0".into(),
                });
            }
            _ => {
                rec.apply(Event::Advance(SimDuration::from_millis(
                    rng.range(50, 4_000),
                )));
            }
        }
    }
    let (checkpoint, checkpoint_at) = checkpoint.expect("checkpoint step inside the session");
    let (recorded, log) = rec.finish();
    Session {
        log,
        checkpoint,
        checkpoint_at,
        recorded,
    }
}

/// Checks a replayed machine against the log's seal.
pub fn check_seal(checks: &mut Checks, system: &System, log: &EventLog, what: &str) {
    let (hash, head) = (system.state_hash(), system.ledger_head());
    checks.check(
        Some(hash) == log.final_state_hash && Some(head) == log.final_ledger_head,
        || {
            format!(
                "{what}: state hash {hash:#x} / ledger head {head:#x}, sealed {:?} / {:?}",
                log.final_state_hash, log.final_ledger_head
            )
        },
    );
}

/// Applies `events` to `system`, one latency sample and (when tracing)
/// one span per event.
pub fn apply_all(system: &mut System, events: &[Event], spans: &mut Spans, lat: &mut Histogram) {
    for event in events {
        let span = spans.enter(kind(event));
        let t = Instant::now();
        apply_event(system, event);
        lat.record(t.elapsed().as_nanos() as u64);
        spans.exit(span, 1);
    }
}

impl Workload for Session {
    const NAME: &'static str = "session";
    const ROUNDS_PER_S: f64 = 0.75;
    const ROUNDS_ALIKE: bool = true;
    type Size = SessionSize;

    fn full() -> SessionSize {
        SessionSize {
            apps: 8,
            steps: 1_200,
            checkpoint_step: 900,
        }
    }

    fn setup(seed: u64, size: SessionSize) -> Self {
        record(seed, size)
    }

    fn round(&mut self, spans: &mut Spans, lat: &mut Histogram, checks: &mut Checks) -> Round {
        let mut busy = Duration::ZERO;

        let t = Instant::now();
        let span = spans.enter("replay.from_boot");
        let mut system =
            System::try_new(self.log.config.clone()).expect("the recorded machine boots");
        apply_all(&mut system, &self.log.events, spans, lat);
        spans.exit(span, 1);
        busy += t.elapsed();
        check_seal(checks, &system, &self.log, "replay from boot");
        drop(system);

        let t = Instant::now();
        let span = spans.enter("replay.from_checkpoint");
        let restore = spans.enter("snapshot.restore");
        let mut system = System::from_snapshot(&self.checkpoint).expect("checkpoint restores");
        spans.exit(restore, 1);
        apply_all(&mut system, self.log.suffix(self.checkpoint_at), spans, lat);
        spans.exit(span, 1);
        busy += t.elapsed();
        check_seal(checks, &system, &self.log, "replay from checkpoint");

        let ops = (self.log.events.len() + self.log.events.len() - self.checkpoint_at) as u64;
        Round { ops, busy }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Sizes for smoke tests only.
    pub fn tiny() -> SessionSize {
        SessionSize {
            apps: 3,
            steps: 40,
            checkpoint_step: 30,
        }
    }

    #[test]
    fn replays_reach_the_seal_and_a_wrong_seal_is_counted() {
        let mut s = Session::setup(5, tiny());
        let mut checks = Checks::default();
        let r = s.round(&mut Spans::off(), &mut Histogram::default(), &mut checks);
        assert_eq!(
            (checks.attempted, checks.failed),
            (2, 0),
            "{:?}",
            checks.first_failure
        );
        assert!(r.ops as usize > s.log.events.len());

        s.log.final_state_hash = s.log.final_state_hash.map(|h| h ^ 1);
        s.round(&mut Spans::off(), &mut Histogram::default(), &mut checks);
        assert_eq!((checks.attempted, checks.failed), (4, 2));
    }
}
