//! Bisectable failure triples.
//!
//! When a shard fails — panic, hang, defense regression, replay
//! divergence, boot refusal — the harness persists a [`FailureTriple`]:
//! the shard seed, the *sealed* [`EventLog`] prefix up to the failure
//! point, and the last-good [`Snapshot`]. The log's `final_state_hash` is
//! the machine's state hash immediately before the failing op, so
//! reproduction is a byte-identical check, not a heuristic one: replay the
//! log (from boot, or from the snapshot for the short way), compare
//! hashes, then re-apply the failing op and confirm the same failure kind
//! recurs.

use std::panic::{self, AssertUnwindSafe};

use overhaul_core::{apply_event, replay, replay_from, EventLog, System};
use overhaul_sim::{Dec, Enc, Pack, Snapshot, SnapshotError, Timestamp};

use crate::schedule::{ChaosOp, ShardOp};

/// What kind of failure a shard produced.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureKind {
    /// A panic inside the shard, contained by `catch_unwind`.
    Panic {
        /// The panic payload, stringified.
        message: String,
    },
    /// Virtual time crossed the shard's progress deadline.
    HungVirtual {
        /// Virtual time when the watchdog fired.
        now: Timestamp,
        /// The deadline it crossed.
        deadline: Timestamp,
    },
    /// The wall-clock supervisor cancelled the shard for not making real
    /// progress.
    HungWall,
    /// The shard's self-replay produced a different state hash than the
    /// live run.
    Divergence {
        /// Hash recorded by the live run.
        expected: u64,
        /// Hash the replay produced.
        got: u64,
    },
    /// The machine refused to boot with the shard's configuration.
    Boot {
        /// The boot error, stringified.
        message: String,
    },
    /// The shard's ledger failed [`System::verify_ledgers`] after the
    /// run: the hash chain over its recorded history is broken.
    CorruptLedger {
        /// The chain-verification error, stringified.
        message: String,
    },
    /// A campaign stage (or oracle probe) violated its expectation: a
    /// stage expected `Blocked` was granted, or a documented
    /// `ExpectedBypass` started being blocked (an accidental semantics
    /// change in the other direction).
    DefenseRegression {
        /// Which campaign (or "fleet-oracle" for generated probes).
        campaign: String,
        /// The stage label (or probed path).
        stage: String,
        /// The judge's explanation.
        detail: String,
    },
}

impl FailureKind {
    /// Stable label used as the `kind` value in fleet metrics.
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Panic { .. } => "panic",
            FailureKind::HungVirtual { .. } => "hung_virtual",
            FailureKind::HungWall => "hung_wall",
            FailureKind::Divergence { .. } => "divergence",
            FailureKind::Boot { .. } => "boot",
            FailureKind::CorruptLedger { .. } => "corrupt_ledger",
            FailureKind::DefenseRegression { .. } => "defense_regression",
        }
    }
}

impl Pack for FailureKind {
    fn pack(&self, enc: &mut Enc) {
        match self {
            FailureKind::Panic { message } => {
                enc.put_u8(0);
                message.pack(enc);
            }
            FailureKind::HungVirtual { now, deadline } => {
                enc.put_u8(1);
                now.pack(enc);
                deadline.pack(enc);
            }
            FailureKind::HungWall => enc.put_u8(2),
            FailureKind::Divergence { expected, got } => {
                enc.put_u8(4);
                expected.pack(enc);
                got.pack(enc);
            }
            FailureKind::Boot { message } => {
                enc.put_u8(5);
                message.pack(enc);
            }
            FailureKind::CorruptLedger { message } => {
                enc.put_u8(6);
                message.pack(enc);
            }
            FailureKind::DefenseRegression {
                campaign,
                stage,
                detail,
            } => {
                enc.put_u8(7);
                campaign.pack(enc);
                stage.pack(enc);
                detail.pack(enc);
            }
        }
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(match dec.take_u8()? {
            0 => FailureKind::Panic {
                message: Pack::unpack(dec)?,
            },
            1 => FailureKind::HungVirtual {
                now: Pack::unpack(dec)?,
                deadline: Pack::unpack(dec)?,
            },
            2 => FailureKind::HungWall,
            4 => FailureKind::Divergence {
                expected: Pack::unpack(dec)?,
                got: Pack::unpack(dec)?,
            },
            5 => FailureKind::Boot {
                message: Pack::unpack(dec)?,
            },
            6 => FailureKind::CorruptLedger {
                message: Pack::unpack(dec)?,
            },
            7 => FailureKind::DefenseRegression {
                campaign: Pack::unpack(dec)?,
                stage: Pack::unpack(dec)?,
                detail: Pack::unpack(dec)?,
            },
            _ => return Err(SnapshotError::BadValue("failure kind tag")),
        })
    }
}

/// The bisectable reproducer for one shard failure.
///
/// `log.final_state_hash` is sealed to the machine's state hash
/// immediately *before* `failing_op` — the point both replay paths must
/// reach byte-identically. `snapshot` is the most recent periodic
/// checkpoint, taken after `snap_idx` events, so
/// `replay_from(&snapshot, log.suffix(snap_idx), ..)` is the short
/// bisection path and `replay(&log)` the from-boot path.
#[derive(Debug, Clone)]
pub struct FailureTriple {
    /// Shard index within the fleet (diagnostic only).
    pub index: usize,
    /// The shard's decorrelated seed.
    pub seed: u64,
    /// What failed.
    pub kind: FailureKind,
    /// Recorded inputs up to the failure point, hash-sealed.
    pub log: EventLog,
    /// Events already covered by `snapshot`.
    pub snap_idx: usize,
    /// Last-good checkpoint (after `snap_idx` events).
    pub snapshot: Snapshot,
    /// The op whose application failed, if the failure is op-shaped
    /// (panics, hangs, regressions). `None` for divergence and boot
    /// failures, which have no single culprit op.
    pub failing_op: Option<ShardOp>,
    /// The shard's virtual progress deadline (needed to re-judge hangs).
    pub virtual_deadline: Timestamp,
}

impl FailureTriple {
    /// Serializes the triple (same versioned container as snapshots).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.index.pack(&mut enc);
        self.seed.pack(&mut enc);
        self.kind.pack(&mut enc);
        self.log.to_bytes().pack(&mut enc);
        self.snap_idx.pack(&mut enc);
        self.snapshot.to_bytes().pack(&mut enc);
        self.failing_op.pack(&mut enc);
        self.virtual_deadline.pack(&mut enc);
        Snapshot::new(enc.into_bytes(), Vec::new()).to_bytes()
    }

    /// Parses a triple serialized by [`FailureTriple::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from a truncated or corrupt input.
    pub fn from_bytes(bytes: &[u8]) -> Result<FailureTriple, SnapshotError> {
        let container = Snapshot::from_bytes(bytes)?;
        let mut dec = Dec::new(container.state());
        let index = Pack::unpack(&mut dec)?;
        let seed = Pack::unpack(&mut dec)?;
        let kind = Pack::unpack(&mut dec)?;
        let log_bytes: Vec<u8> = Pack::unpack(&mut dec)?;
        let snap_idx = Pack::unpack(&mut dec)?;
        let snap_bytes: Vec<u8> = Pack::unpack(&mut dec)?;
        let failing_op = Pack::unpack(&mut dec)?;
        let virtual_deadline = Pack::unpack(&mut dec)?;
        dec.finish()?;
        Ok(FailureTriple {
            index,
            seed,
            kind,
            log: EventLog::from_bytes(&log_bytes)?,
            snap_idx,
            snapshot: Snapshot::from_bytes(&snap_bytes)?,
            failing_op,
            virtual_deadline,
        })
    }

    /// The sealed pre-failure state hash.
    pub fn sealed_hash(&self) -> Option<u64> {
        self.log.final_state_hash
    }
}

/// The outcome of replaying a [`FailureTriple`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reproduction {
    /// The replay reached the sealed pre-failure hash byte-identically
    /// and re-applying the failing op produced the same failure kind.
    Reproduced {
        /// The pre-failure state hash both runs agreed on.
        state_hash: u64,
    },
    /// The replay reached the failure point with a different state hash —
    /// the log no longer explains the failure.
    HashMismatch {
        /// The sealed hash.
        expected: u64,
        /// What the replay produced.
        got: u64,
    },
    /// The replay reached the right state but re-applying the failing op
    /// did not fail the same way.
    KindMismatch {
        /// Human-readable explanation.
        detail: String,
    },
    /// The triple itself is unusable (unsealed log, corrupt snapshot,
    /// unexpected boot refusal).
    Broken {
        /// Human-readable explanation.
        detail: String,
    },
}

impl Reproduction {
    /// Whether the failure reproduced exactly.
    pub fn is_reproduced(&self) -> bool {
        matches!(self, Reproduction::Reproduced { .. })
    }
}

/// Replays a triple from boot: fresh machine, whole log, then the failing
/// op. See [`Reproduction`] for the possible verdicts.
pub fn replay_triple(triple: &FailureTriple) -> Reproduction {
    // Boot failures short-circuit: reproduction is the boot refusing again.
    if let FailureKind::Boot { .. } = triple.kind {
        return match System::try_new(triple.log.config.clone()) {
            Err(_) => Reproduction::Reproduced { state_hash: 0 },
            Ok(_) => Reproduction::KindMismatch {
                detail: "recorded boot failure, but the machine boots".into(),
            },
        };
    }
    let system = match replay(&triple.log) {
        Ok(system) => system,
        Err(e) => {
            return Reproduction::Broken {
                detail: format!("replay boot failed: {e:?}"),
            }
        }
    };
    finish_reproduction(triple, system)
}

/// Replays a triple the short way: restore the last-good snapshot, apply
/// the log suffix past it, then the failing op. Must agree byte-for-byte
/// with [`replay_triple`].
pub fn replay_triple_from_snapshot(triple: &FailureTriple) -> Reproduction {
    if let FailureKind::Boot { .. } = triple.kind {
        return replay_triple(triple);
    }
    if triple.snap_idx > triple.log.events.len() {
        return Reproduction::Broken {
            detail: "snapshot index past end of log".into(),
        };
    }
    let suffix = triple.log.suffix(triple.snap_idx);
    let system = match replay_from(&triple.snapshot, suffix, triple.log.final_state_hash) {
        Ok(system) => system,
        Err(e) => {
            return Reproduction::Broken {
                detail: format!("snapshot restore failed: {e:?}"),
            }
        }
    };
    finish_reproduction(triple, system)
}

/// Common tail of both replay paths: verify the sealed hash, then
/// re-apply the failing op and check the failure kind recurs.
fn finish_reproduction(triple: &FailureTriple, mut system: System) -> Reproduction {
    let expected = match triple.log.final_state_hash {
        Some(h) => h,
        None => {
            return Reproduction::Broken {
                detail: "triple log is not hash-sealed".into(),
            }
        }
    };
    let got = system.state_hash();

    // Divergence triples invert the check: the *live* hash is sealed, and
    // the defect is precisely that replay lands elsewhere. Reproduction
    // means replay deterministically lands on the same wrong hash.
    if let FailureKind::Divergence {
        expected: live,
        got: diverged,
    } = triple.kind
    {
        return if got == diverged {
            Reproduction::Reproduced { state_hash: got }
        } else if got == live {
            Reproduction::KindMismatch {
                detail: "recorded divergence, but replay now matches the live run".into(),
            }
        } else {
            Reproduction::HashMismatch {
                expected: diverged,
                got,
            }
        };
    }

    if got != expected {
        return Reproduction::HashMismatch { expected, got };
    }

    match &triple.kind {
        FailureKind::Panic { message } => {
            let op = triple.failing_op.clone();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| match &op {
                Some(ShardOp::Chaos(ChaosOp::Panic)) => crate::shard::injected_panic(triple.index),
                Some(ShardOp::Sys(e)) | Some(ShardOp::Expect(_, e)) => {
                    apply_event(&mut system, e);
                }
                _ => {}
            }));
            match outcome {
                Err(payload) => {
                    let msg = panic_message(&payload);
                    if &msg == message {
                        Reproduction::Reproduced {
                            state_hash: expected,
                        }
                    } else {
                        Reproduction::KindMismatch {
                            detail: format!(
                                "panic reproduced with different message: {msg:?} vs {message:?}"
                            ),
                        }
                    }
                }
                Ok(()) => Reproduction::KindMismatch {
                    detail: "recorded panic, but the op completed".into(),
                },
            }
        }
        FailureKind::HungVirtual { .. } => {
            if let Some(ShardOp::Chaos(ChaosOp::VirtualStall(jump))) = &triple.failing_op {
                system.advance(*jump);
            }
            if system.now() > triple.virtual_deadline {
                Reproduction::Reproduced {
                    state_hash: expected,
                }
            } else {
                Reproduction::KindMismatch {
                    detail: format!(
                        "recorded virtual hang, but replay sits at {} (deadline {})",
                        system.now(),
                        triple.virtual_deadline
                    ),
                }
            }
        }
        // A wall hang cannot be re-executed without hanging the
        // reproducer; reaching the sealed hash is the reproduction. The
        // failing op is either the spin that ate the clock or absent
        // (the supervisor cancelled the shard between ops).
        FailureKind::HungWall => match &triple.failing_op {
            Some(ShardOp::Chaos(ChaosOp::Spin)) | None => Reproduction::Reproduced {
                state_hash: expected,
            },
            other => Reproduction::KindMismatch {
                detail: format!("wall hang with a non-spin op on file: {other:?}"),
            },
        },
        // A broken chain cannot be re-executed: replay rebuilds a fresh,
        // valid history, so reaching the sealed hash is the reproduction
        // (same rationale as wall hangs).
        FailureKind::CorruptLedger { .. } => Reproduction::Reproduced {
            state_hash: expected,
        },
        FailureKind::DefenseRegression { stage, .. } => {
            let (expect, op) = match &triple.failing_op {
                Some(ShardOp::Expect(expect, e)) => (expect.clone(), e.clone()),
                other => {
                    return Reproduction::KindMismatch {
                        detail: format!("defense regression without an Expect op: {other:?}"),
                    }
                }
            };
            let outcome = apply_event(&mut system, &op);
            let granted = match overhaul_apps::campaign::outcome_granted(&op, &outcome) {
                Some(g) => g,
                None => {
                    return Reproduction::KindMismatch {
                        detail: format!(
                            "stage {stage}: replayed op no longer grant/deny-shaped: {outcome:?}"
                        ),
                    }
                }
            };
            // Reproduction replays the same deterministic fault plan, so
            // the live mismatch must recur; judged strictly, because any
            // verdict that was fault-excused live never became a triple.
            if overhaul_apps::campaign::judge(&expect, granted, false).is_regression() {
                Reproduction::Reproduced {
                    state_hash: expected,
                }
            } else {
                Reproduction::KindMismatch {
                    detail: format!(
                        "stage {stage}: recorded a defense regression, but the replayed \
                         outcome (granted={granted}) matches expectation {}",
                        expect.label()
                    ),
                }
            }
        }
        FailureKind::Divergence { .. } | FailureKind::Boot { .. } => unreachable!("handled above"),
    }
}

/// Stringifies a panic payload the way the shard runner does, so recorded
/// and reproduced messages compare equal.
pub(crate) fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_core::{Event, OverhaulConfig, Recorder};
    use overhaul_sim::SimDuration;

    fn sealed_triple(kind: FailureKind, failing_op: Option<ShardOp>) -> FailureTriple {
        let mut rec = Recorder::new(OverhaulConfig::protected());
        rec.apply(Event::LaunchGuiApp {
            exe: "/usr/bin/editor".into(),
            rect: overhaul_xserver::geometry::Rect::new(0, 0, 400, 300),
        });
        rec.apply(Event::Settle);
        let snap_idx = rec.events_recorded();
        let snapshot = rec.snapshot();
        rec.apply(Event::Advance(SimDuration::from_secs(3)));
        let (_, log) = rec.finish();
        FailureTriple {
            index: 0,
            seed: 42,
            kind,
            log,
            snap_idx,
            snapshot,
            failing_op,
            virtual_deadline: Timestamp::from_millis(600_000),
        }
    }

    #[test]
    fn triple_round_trips_through_bytes() {
        let triple = sealed_triple(
            FailureKind::Panic {
                message: "boom".into(),
            },
            Some(ShardOp::Chaos(ChaosOp::Panic)),
        );
        let decoded = FailureTriple::from_bytes(&triple.to_bytes()).expect("decode");
        assert_eq!(decoded.seed, triple.seed);
        assert_eq!(decoded.kind, triple.kind);
        assert_eq!(decoded.snap_idx, triple.snap_idx);
        assert_eq!(decoded.failing_op, triple.failing_op);
        assert_eq!(decoded.log.events, triple.log.events);
        assert_eq!(decoded.log.final_state_hash, triple.log.final_state_hash);
        assert_eq!(decoded.log.final_ledger_head, triple.log.final_ledger_head);
        assert_eq!(
            decoded.snapshot.to_bytes(),
            triple.snapshot.to_bytes(),
            "snapshot must survive byte-identically"
        );
    }

    #[test]
    fn corrupt_triple_bytes_error_cleanly() {
        let triple = sealed_triple(FailureKind::HungWall, Some(ShardOp::Chaos(ChaosOp::Spin)));
        let bytes = triple.to_bytes();
        assert!(FailureTriple::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        let mut garbled = bytes.clone();
        let mid = garbled.len() / 2;
        garbled[mid] ^= 0xFF;
        // Either parse error or a parse that differs — never a panic.
        let _ = FailureTriple::from_bytes(&garbled);
    }

    #[test]
    fn hung_virtual_triple_reproduces_from_boot_and_snapshot() {
        let jump = SimDuration::from_secs(100_000);
        let mut triple = sealed_triple(
            FailureKind::HungVirtual {
                now: Timestamp::from_millis(100_000_000),
                deadline: Timestamp::from_millis(600_000),
            },
            Some(ShardOp::Chaos(ChaosOp::VirtualStall(jump))),
        );
        triple.virtual_deadline = Timestamp::from_millis(600_000);
        let from_boot = replay_triple(&triple);
        assert!(from_boot.is_reproduced(), "from boot: {from_boot:?}");
        let from_snap = replay_triple_from_snapshot(&triple);
        assert_eq!(from_boot, from_snap, "both replay paths must agree");
    }

    #[test]
    fn tampered_log_yields_hash_mismatch_not_false_reproduction() {
        let mut triple = sealed_triple(FailureKind::HungWall, Some(ShardOp::Chaos(ChaosOp::Spin)));
        triple
            .log
            .events
            .push(Event::Advance(SimDuration::from_secs(1)));
        match replay_triple(&triple) {
            Reproduction::HashMismatch { .. } => {}
            other => panic!("expected HashMismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_ledger_triple_round_trips_and_reproduces() {
        let triple = sealed_triple(
            FailureKind::CorruptLedger {
                message: "chain hash mismatch at seq 7".into(),
            },
            None,
        );
        let decoded = FailureTriple::from_bytes(&triple.to_bytes()).expect("decode");
        assert_eq!(decoded.kind, triple.kind);
        assert_eq!(decoded.kind.label(), "corrupt_ledger");
        let from_boot = replay_triple(&triple);
        assert!(from_boot.is_reproduced(), "from boot: {from_boot:?}");
        assert_eq!(from_boot, replay_triple_from_snapshot(&triple));
    }

    #[test]
    fn defense_regression_triple_reproduces_three_ways() {
        use overhaul_apps::campaign::Expectation;
        // A grant-all machine grants the probe a strict oracle expects
        // blocked — the canonical forced regression.
        let mut rec = Recorder::new(OverhaulConfig::grant_all());
        let gui = rec
            .apply(Event::LaunchGuiApp {
                exe: "/usr/bin/editor".into(),
                rect: overhaul_xserver::geometry::Rect::new(0, 0, 400, 300),
            })
            .gui()
            .expect("launch");
        rec.apply(Event::Settle);
        let snap_idx = rec.events_recorded();
        let snapshot = rec.snapshot();
        rec.apply(Event::Advance(SimDuration::from_secs(3)));
        let (_, log) = rec.finish();
        let triple = FailureTriple {
            index: 0,
            seed: 42,
            kind: FailureKind::DefenseRegression {
                campaign: "fleet-oracle".into(),
                stage: "/dev/snd/mic0".into(),
                detail: "expected blocked but the operation was granted".into(),
            },
            log,
            snap_idx,
            snapshot,
            failing_op: Some(ShardOp::Expect(
                Expectation::Blocked,
                Event::OpenDevice {
                    pid: gui.pid,
                    path: "/dev/snd/mic0".into(),
                },
            )),
            virtual_deadline: Timestamp::from_millis(600_000),
        };
        let from_boot = replay_triple(&triple);
        assert!(from_boot.is_reproduced(), "from boot: {from_boot:?}");
        let from_snap = replay_triple_from_snapshot(&triple);
        assert_eq!(from_boot, from_snap, "both replay paths must agree");
        let decoded = FailureTriple::from_bytes(&triple.to_bytes()).expect("decode");
        assert_eq!(decoded.kind, triple.kind);
        assert_eq!(decoded.kind.label(), "defense_regression");
        assert!(replay_triple(&decoded).is_reproduced(), "from bytes");
    }

    #[test]
    fn retired_oracle_tags_decode_to_bad_value() {
        // `ShardOp` tag 1 and `FailureKind` tag 3 belonged to the retired
        // deny-all spy oracle; bytes carrying them are rejected cleanly.
        let mut enc = Enc::new();
        enc.put_u8(1);
        Event::OpenDevice {
            pid: overhaul_sim::Pid::from_raw(9),
            path: "/dev/video0".into(),
        }
        .pack(&mut enc);
        let op_bytes = enc.into_bytes();
        assert_eq!(
            ShardOp::unpack(&mut Dec::new(&op_bytes)),
            Err(SnapshotError::BadValue("shard op tag"))
        );
        let mut enc = Enc::new();
        enc.put_u8(3);
        "/dev/video0".to_string().pack(&mut enc);
        let kind_bytes = enc.into_bytes();
        assert_eq!(
            FailureKind::unpack(&mut Dec::new(&kind_bytes)),
            Err(SnapshotError::BadValue("failure kind tag"))
        );
    }

    #[test]
    fn unsealed_log_is_reported_broken() {
        let mut triple = sealed_triple(FailureKind::HungWall, Some(ShardOp::Chaos(ChaosOp::Spin)));
        triple.log.final_state_hash = None;
        assert!(matches!(
            replay_triple(&triple),
            Reproduction::Broken { .. }
        ));
    }
}
