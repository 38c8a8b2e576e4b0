//! Adversarial attack campaigns and the fleet-scale defense matrix.
//!
//! The §IV-A / §V-D evaluation tests single-shot attacks from one spyware
//! sample. The related literature names whole attack *classes* that a
//! one-shot function cannot express: hover/overlay input theft (Ulqinaku
//! et al.), cooperating-program delegation abuse (Petracca et al.,
//! EnTrust), and operation-binding confusion (Petracca et al., Aware). A
//! [`Campaign`] turns those into deterministic multi-stage scripts over
//! multiple processes: spawn/exec chains, overlay placement timed against
//! the visibility threshold, synthetic-input probes, delegation hops over
//! shared memory, and op-X-authorizes-op-Y confusion inside the validity
//! window δ.
//!
//! Every judged stage carries an [`Expectation`]: `Blocked`, `Granted`,
//! or `ExpectedBypass` with a paper-grounded rationale. `ExpectedBypass`
//! is load-bearing: it pins the places where Overhaul's temporal-proximity
//! model is *genuinely insufficient*, so an accidental semantics change in
//! either direction — a documented bypass silently blocked, or a blocked
//! path silently granted — is a [`StageVerdict::Regression`].
//!
//! Stages resolve to exactly one [`Event`] each (via [`CampaignDriver`]),
//! so campaigns record, replay, snapshot-restore, and bisect through the
//! ordinary event machinery with no special cases. Evaluation inspects
//! outcome verdicts, [`DecisionTrace`](overhaul_kernel::policy) rule
//! labels, audit categories, and the hash-chained ledger — not loot alone.

use std::collections::BTreeMap;

use overhaul_core::{ApplyOutcome, Event, Recorder, System};
use overhaul_kernel::ipc::shm::ShmId;
use overhaul_kernel::mm::VmaId;
use overhaul_kernel::monitor::ResourceOp;
use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};
use overhaul_sim::{AuditCategory, Pid, SimDuration};
use overhaul_xserver::geometry::Rect;
use overhaul_xserver::protocol::{ClientId, InputPayload, Reply, Request, XEvent};
use overhaul_xserver::window::WindowId;

/// What a judged campaign stage expects the policy engine to do.
///
/// Unlike [`crate::behavior::Expectation`] (a binary grant/block used by
/// the applicability corpus), this taxonomy has a third state for attacks
/// the paper's model *cannot* stop — with the citation-grade reason why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expectation {
    /// The operation must be granted (a legitimate flow the campaign uses
    /// as a control).
    Granted,
    /// The defense must deny the operation.
    Blocked,
    /// The attack is expected to *succeed*: Overhaul's input-driven model
    /// is genuinely insufficient here, and the rationale documents why
    /// (grounded in the paper or the named related work). If this stage
    /// starts being blocked, semantics changed by accident.
    ExpectedBypass {
        /// Why the bypass is inherent to the model, not a bug.
        rationale: String,
    },
}

impl Expectation {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            Expectation::Granted => "granted",
            Expectation::Blocked => "blocked",
            Expectation::ExpectedBypass { .. } => "expected-bypass",
        }
    }

    /// Whether an observed grant/deny satisfies this expectation.
    pub fn satisfied_by(&self, granted: bool) -> bool {
        match self {
            Expectation::Granted | Expectation::ExpectedBypass { .. } => granted,
            Expectation::Blocked => !granted,
        }
    }
}

impl Pack for Expectation {
    fn pack(&self, enc: &mut Enc) {
        match self {
            Expectation::Granted => enc.put_u8(0),
            Expectation::Blocked => enc.put_u8(1),
            Expectation::ExpectedBypass { rationale } => {
                enc.put_u8(2);
                rationale.pack(enc);
            }
        }
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(match dec.take_u8()? {
            0 => Expectation::Granted,
            1 => Expectation::Blocked,
            2 => Expectation::ExpectedBypass {
                rationale: Pack::unpack(dec)?,
            },
            _ => return Err(SnapshotError::BadValue("expectation tag")),
        })
    }
}

/// The attack classes the campaign catalog covers (the defense matrix's
/// row dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackClass {
    /// Hover/overlay input theft (Ulqinaku et al.): a spy window placed
    /// over a victim intercepts real user clicks.
    HoverOverlay,
    /// Cooperating-program delegation abuse (EnTrust): app A with fresh
    /// user interaction proxies a sensor request for app B over IPC.
    DelegationAbuse,
    /// Operation-binding confusion (Aware): the user authorizes op X; the
    /// attacker performs op Y inside the same validity window.
    OperationBinding,
}

impl AttackClass {
    /// All classes, in reporting order.
    pub const ALL: [AttackClass; 3] = [
        AttackClass::HoverOverlay,
        AttackClass::DelegationAbuse,
        AttackClass::OperationBinding,
    ];

    /// Stable display label (also the bench-artifact key stem).
    pub fn label(self) -> &'static str {
        match self {
            AttackClass::HoverOverlay => "hover/overlay",
            AttackClass::DelegationAbuse => "delegation-abuse",
            AttackClass::OperationBinding => "operation-binding",
        }
    }

    /// The label with non-alphanumerics folded to `_` (artifact keys).
    pub fn key(self) -> &'static str {
        match self {
            AttackClass::HoverOverlay => "hover_overlay",
            AttackClass::DelegationAbuse => "delegation_abuse",
            AttackClass::OperationBinding => "operation_binding",
        }
    }
}

/// One campaign step, as a symbolic action over actor slots. Each action
/// resolves to exactly ONE [`Event`] against the live system (actor
/// handles — pids, clients, windows, mappings — only exist at run time),
/// which is what keeps campaigns replayable and bisectable through the
/// ordinary event machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum StageAction {
    /// Launch a GUI app into actor slot `actor`.
    Launch {
        /// Actor slot.
        actor: usize,
        /// Executable path.
        exe: &'static str,
        /// Main-window geometry.
        rect: Rect,
    },
    /// Spawn a background (non-GUI) process into slot `actor`.
    Spawn {
        /// Actor slot.
        actor: usize,
        /// Executable path.
        exe: &'static str,
    },
    /// Connect the actor's process to the X server.
    Connect {
        /// Actor slot.
        actor: usize,
    },
    /// Create an (unmapped) window for the actor.
    CreateWindow {
        /// Actor slot.
        actor: usize,
        /// Window geometry (the overlay placement).
        rect: Rect,
    },
    /// Map the actor's window (starts the visibility clock).
    MapWindow {
        /// Actor slot.
        actor: usize,
    },
    /// Raise the actor's window (restarts the visibility clock — the
    /// "re-placement" an overlay performs to chase the victim).
    RaiseWindow {
        /// Actor slot.
        actor: usize,
    },
    /// Advance virtual time by a fixed amount.
    Advance(SimDuration),
    /// Advance by exactly the configured visibility threshold plus
    /// `extra_ms` — the overlay "ripens" to the stability boundary.
    /// Resolved against the live config, so the same script is correct
    /// under any threshold.
    Ripen {
        /// Milliseconds past the exact threshold (0 = the boundary).
        extra_ms: u64,
    },
    /// Advance past the clickjacking threshold (`System::settle`).
    Settle,
    /// A real hardware click aimed at the actor's window center (an
    /// overlay covering that point intercepts it).
    ClickActor {
        /// Actor slot (the click *target*, not necessarily the receiver).
        actor: usize,
    },
    /// Forge a click at the actor's own window via `SendEvent`.
    SendEventClick {
        /// Actor slot.
        actor: usize,
    },
    /// Forge a click at the actor's own window via `XTestFakeInput`.
    XTestClick {
        /// Actor slot.
        actor: usize,
    },
    /// Open a device node as the actor (a judged probe).
    OpenDevice {
        /// Actor slot.
        actor: usize,
        /// Device path.
        path: &'static str,
    },
    /// Capture the screen as the actor (a judged probe).
    GetImage {
        /// Actor slot.
        actor: usize,
    },
    /// `fork(2)` the parent actor; the child pid lands in slot `child`.
    Fork {
        /// Parent actor slot.
        parent: usize,
        /// Child actor slot.
        child: usize,
    },
    /// `shmget(2)` a shared segment (stored as the campaign's segment).
    ShmGet {
        /// Actor slot.
        actor: usize,
        /// SysV key.
        key: i32,
        /// Segment size in pages.
        pages: usize,
    },
    /// `shmat(2)` the campaign segment into the actor.
    ShmAt {
        /// Actor slot.
        actor: usize,
    },
    /// Store into the actor's mapping (the delegation hop's send side:
    /// the writer's fresh interaction embeds into the segment).
    ShmWrite {
        /// Actor slot.
        actor: usize,
        /// Payload.
        data: &'static [u8],
    },
    /// Load from the actor's mapping (the receive side: the reader adopts
    /// the embedded interaction — the P2 propagation rule).
    ShmRead {
        /// Actor slot.
        actor: usize,
        /// Bytes to read.
        len: usize,
    },
}

impl StageAction {
    /// The resource-op class a judged probe decides, for
    /// [`overhaul_kernel::Kernel::explain_last`] lookups.
    pub fn resource_op(&self) -> Option<ResourceOp> {
        match self {
            StageAction::OpenDevice { path, .. } => Some(if path.contains("video") {
                ResourceOp::Cam
            } else if path.contains("snd") {
                ResourceOp::Mic
            } else {
                ResourceOp::Sensor
            }),
            StageAction::GetImage { .. } => Some(ResourceOp::Screen),
            _ => None,
        }
    }

    /// The actor slot a judged probe runs as.
    fn probe_actor(&self) -> Option<usize> {
        match self {
            StageAction::OpenDevice { actor, .. } | StageAction::GetImage { actor } => Some(*actor),
            _ => None,
        }
    }
}

/// The expectation attached to a judged stage, plus which defense
/// mechanism adjudicates it (the matrix's column dimension).
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What the policy engine must do.
    pub expect: Expectation,
    /// The mechanism under test (e.g. "visibility threshold").
    pub mechanism: &'static str,
}

/// One campaign stage: a label, one action, and an optional check.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Human-readable stage name (stable; used in failure triples).
    pub label: &'static str,
    /// The single-event action.
    pub action: StageAction,
    /// Present on judged stages only.
    pub check: Option<Check>,
}

impl Stage {
    fn plain(label: &'static str, action: StageAction) -> Stage {
        Stage {
            label,
            action,
            check: None,
        }
    }

    fn judged(
        label: &'static str,
        action: StageAction,
        expect: Expectation,
        mechanism: &'static str,
    ) -> Stage {
        Stage {
            label,
            action,
            check: Some(Check { expect, mechanism }),
        }
    }
}

/// A deterministic multi-stage, multi-process attack script.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Stable campaign name.
    pub name: &'static str,
    /// The attack class it exercises.
    pub class: AttackClass,
    /// The script, in order.
    pub stages: Vec<Stage>,
}

/// Catalog identifiers, one campaign per attack class. The fleet's shard
/// plans store a kind (not a script), so plans stay recoverable from the
/// seed alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// Patient hover/overlay click theft.
    HoverTheft,
    /// Shared-memory delegation hop between cooperating apps.
    DelegationAbuse,
    /// Op-X-authorizes-op-Y confusion inside δ.
    OperationBinding,
}

impl CampaignKind {
    /// All catalog entries, in reporting order.
    pub const ALL: [CampaignKind; 3] = [
        CampaignKind::HoverTheft,
        CampaignKind::DelegationAbuse,
        CampaignKind::OperationBinding,
    ];

    /// Builds the campaign script for this kind.
    pub fn build(self) -> Campaign {
        match self {
            CampaignKind::HoverTheft => hover_theft(),
            CampaignKind::DelegationAbuse => delegation_abuse(),
            CampaignKind::OperationBinding => operation_binding(),
        }
    }
}

/// The full campaign catalog.
pub fn catalog() -> Vec<Campaign> {
    CampaignKind::ALL.iter().map(|k| k.build()).collect()
}

/// Hover/overlay input theft (Ulqinaku et al.). A spy maps an overlay
/// over the victim's center. Clicks on a *fresh* overlay are suppressed
/// by the visibility threshold; synthetic-input probes are filtered; but
/// a *patient* overlay that stays mapped for exactly the threshold
/// becomes "stable" and harvests a real user click — the documented
/// bypass.
fn hover_theft() -> Campaign {
    const VICTIM: usize = 0;
    const SPY: usize = 1;
    Campaign {
        name: "hover-theft",
        class: AttackClass::HoverOverlay,
        stages: vec![
            Stage::plain(
                "launch victim",
                StageAction::Launch {
                    actor: VICTIM,
                    exe: "/usr/bin/bank",
                    rect: Rect::new(100, 100, 200, 150),
                },
            ),
            Stage::plain("settle victim", StageAction::Settle),
            Stage::plain(
                "spawn spy",
                StageAction::Spawn {
                    actor: SPY,
                    exe: "/usr/bin/.hoverspy",
                },
            ),
            Stage::plain("connect spy", StageAction::Connect { actor: SPY }),
            Stage::plain(
                "place overlay over victim center",
                StageAction::CreateWindow {
                    actor: SPY,
                    rect: Rect::new(150, 140, 120, 80),
                },
            ),
            Stage::plain("map overlay", StageAction::MapWindow { actor: SPY }),
            Stage::plain(
                "user clicks victim; fresh overlay intercepts",
                StageAction::ClickActor { actor: VICTIM },
            ),
            Stage::judged(
                "mic after suppressed click",
                StageAction::OpenDevice {
                    actor: SPY,
                    path: "/dev/snd/mic0",
                },
                Expectation::Blocked,
                "visibility threshold",
            ),
            Stage::plain(
                "forge click via SendEvent",
                StageAction::SendEventClick { actor: SPY },
            ),
            Stage::plain(
                "forge click via XTest",
                StageAction::XTestClick { actor: SPY },
            ),
            Stage::judged(
                "cam after forged input",
                StageAction::OpenDevice {
                    actor: SPY,
                    path: "/dev/video0",
                },
                Expectation::Blocked,
                "synthetic-input filter",
            ),
            Stage::plain(
                "overlay ripens to the exact threshold",
                StageAction::Ripen { extra_ms: 0 },
            ),
            Stage::plain(
                "user clicks victim; stable overlay harvests",
                StageAction::ClickActor { actor: VICTIM },
            ),
            Stage::judged(
                "mic within delta of the stolen click",
                StageAction::OpenDevice {
                    actor: SPY,
                    path: "/dev/snd/mic0",
                },
                Expectation::ExpectedBypass {
                    rationale: "the visibility threshold (§IV-A) enforces temporal stability, \
                                not legitimacy: a patient hover overlay (Ulqinaku et al.) that \
                                stays mapped past the threshold becomes stable and harvests \
                                real clicks aimed at the window underneath"
                        .into(),
                },
                "visibility threshold",
            ),
        ],
    }
}

/// Cooperating-program delegation abuse (EnTrust). App B, never
/// interacted with, is denied the camera. Then app A — freshly clicked —
/// writes into a shared segment B reads: P2 propagates A's interaction
/// to B, and B's camera open is granted. Overhaul cannot distinguish
/// user-intended delegation from abuse; a stale hop stays denied.
fn delegation_abuse() -> Campaign {
    const A: usize = 0;
    const B: usize = 1;
    Campaign {
        name: "delegation-abuse",
        class: AttackClass::DelegationAbuse,
        stages: vec![
            Stage::plain(
                "launch app A",
                StageAction::Launch {
                    actor: A,
                    exe: "/usr/bin/chat",
                    rect: Rect::new(0, 0, 200, 150),
                },
            ),
            Stage::plain(
                "launch app B",
                StageAction::Launch {
                    actor: B,
                    exe: "/usr/bin/helper",
                    rect: Rect::new(320, 0, 200, 150),
                },
            ),
            Stage::plain("settle", StageAction::Settle),
            Stage::judged(
                "cam before any hop",
                StageAction::OpenDevice {
                    actor: B,
                    path: "/dev/video0",
                },
                Expectation::Blocked,
                "temporal proximity (delta)",
            ),
            Stage::plain(
                "A creates shared segment",
                StageAction::ShmGet {
                    actor: A,
                    key: 0x5eed,
                    pages: 1,
                },
            ),
            Stage::plain("A maps segment", StageAction::ShmAt { actor: A }),
            Stage::plain("B maps segment", StageAction::ShmAt { actor: B }),
            Stage::plain("user clicks A", StageAction::ClickActor { actor: A }),
            Stage::plain(
                "A writes the proxy request (embeds fresh interaction)",
                StageAction::ShmWrite {
                    actor: A,
                    data: b"cam-please",
                },
            ),
            Stage::plain(
                "B reads the request (adopts the interaction)",
                StageAction::ShmRead { actor: B, len: 10 },
            ),
            Stage::judged(
                "cam via fresh delegation hop",
                StageAction::OpenDevice {
                    actor: B,
                    path: "/dev/video0",
                },
                Expectation::ExpectedBypass {
                    rationale: "P2 propagates fresh interaction across any IPC payload \
                                (§III-D): one click on app A authorizes cooperating app B's \
                                camera open, and Overhaul cannot tell user-intended delegation \
                                from abuse — EnTrust's per-delegation authorization graphs \
                                (Petracca et al.) would"
                        .into(),
                },
                "interaction propagation (P2)",
            ),
            Stage::plain(
                "interaction goes stale",
                StageAction::Advance(SimDuration::from_secs(30)),
            ),
            Stage::plain(
                "A writes again, now stale",
                StageAction::ShmWrite {
                    actor: A,
                    data: b"again",
                },
            ),
            Stage::plain("B reads again", StageAction::ShmRead { actor: B, len: 5 }),
            Stage::judged(
                "cam via stale hop",
                StageAction::OpenDevice {
                    actor: B,
                    path: "/dev/video0",
                },
                Expectation::Blocked,
                "interaction propagation (P2)",
            ),
        ],
    }
}

/// Operation-binding confusion (Aware). The user's click contextually
/// authorizes a mic recording; the same click also validates a camera
/// grab inside δ, because `evaluate()` is operation-agnostic. After δ
/// the window closes.
fn operation_binding() -> Campaign {
    const APP: usize = 0;
    Campaign {
        name: "operation-binding",
        class: AttackClass::OperationBinding,
        stages: vec![
            Stage::plain(
                "launch app",
                StageAction::Launch {
                    actor: APP,
                    exe: "/usr/bin/voicenotes",
                    rect: Rect::new(50, 50, 200, 150),
                },
            ),
            Stage::plain("settle", StageAction::Settle),
            Stage::plain(
                "user clicks (mic-record intent)",
                StageAction::ClickActor { actor: APP },
            ),
            Stage::judged(
                "mic within delta (the intended op)",
                StageAction::OpenDevice {
                    actor: APP,
                    path: "/dev/snd/mic0",
                },
                Expectation::Granted,
                "temporal proximity (delta)",
            ),
            Stage::judged(
                "cam within delta (the confused op)",
                StageAction::OpenDevice {
                    actor: APP,
                    path: "/dev/video0",
                },
                Expectation::ExpectedBypass {
                    rationale: "evaluate() is operation-agnostic: any interaction within δ \
                                authorizes every op class (§III-B), so a click meant to start \
                                a mic recording also validates a camera grab in the same \
                                window — Aware (Petracca et al.) binds authorization to the \
                                specific operation and widget; input-driven access control \
                                does not"
                        .into(),
                },
                "temporal proximity (delta)",
            ),
            Stage::plain(
                "validity window closes",
                StageAction::Advance(SimDuration::from_secs(30)),
            ),
            Stage::judged(
                "cam after delta",
                StageAction::OpenDevice {
                    actor: APP,
                    path: "/dev/video0",
                },
                Expectation::Blocked,
                "temporal proximity (delta)",
            ),
        ],
    }
}

/// Live handles for one actor slot.
#[derive(Debug, Clone, Copy, Default)]
struct Actor {
    pid: Option<Pid>,
    client: Option<ClientId>,
    window: Option<WindowId>,
    vma: Option<VmaId>,
}

/// Resolves symbolic stage actions into concrete [`Event`]s against the
/// live system and folds outcomes back into the actor handle table.
///
/// The driver itself is NOT needed for reproduction: only the resolved
/// events are recorded, so a campaign's log replays through the ordinary
/// machinery.
#[derive(Debug, Default)]
pub struct CampaignDriver {
    actors: Vec<Actor>,
    shm: Option<ShmId>,
}

impl CampaignDriver {
    /// A fresh driver with empty handle tables.
    pub fn new() -> Self {
        CampaignDriver::default()
    }

    fn actor(&self, slot: usize) -> Actor {
        self.actors.get(slot).copied().unwrap_or_default()
    }

    fn actor_mut(&mut self, slot: usize) -> &mut Actor {
        if self.actors.len() <= slot {
            self.actors.resize(slot + 1, Actor::default());
        }
        &mut self.actors[slot]
    }

    /// Resolves one action into the single event it records as, or
    /// `None` when the actor lacks a handle the event needs (a launch that
    /// failed left its pid, client or window unbound).
    pub fn resolve(&self, system: &System, action: &StageAction) -> Option<Event> {
        Some(match action {
            StageAction::Launch { exe, rect, .. } => Event::LaunchGuiApp {
                exe: (*exe).to_string(),
                rect: *rect,
            },
            StageAction::Spawn { exe, .. } => Event::SpawnProcess {
                parent: None,
                exe: (*exe).to_string(),
            },
            StageAction::Connect { actor } => Event::ConnectX {
                pid: self.actor(*actor).pid?,
            },
            StageAction::CreateWindow { actor, rect } => Event::XRequest {
                client: self.actor(*actor).client?,
                request: Request::CreateWindow { rect: *rect },
            },
            StageAction::MapWindow { actor } => Event::XRequest {
                client: self.actor(*actor).client?,
                request: Request::MapWindow {
                    window: self.actor(*actor).window?,
                },
            },
            StageAction::RaiseWindow { actor } => Event::XRequest {
                client: self.actor(*actor).client?,
                request: Request::RaiseWindow {
                    window: self.actor(*actor).window?,
                },
            },
            StageAction::Advance(d) => Event::Advance(*d),
            StageAction::Ripen { extra_ms } => Event::Advance(
                system.xserver().config().visibility_threshold
                    + SimDuration::from_millis(*extra_ms),
            ),
            StageAction::Settle => Event::Settle,
            StageAction::ClickActor { actor } => Event::ClickWindow {
                window: self.actor(*actor).window?,
            },
            StageAction::SendEventClick { actor } => {
                let window = self.actor(*actor).window?;
                Event::XRequest {
                    client: self.actor(*actor).client?,
                    request: Request::SendEvent {
                        target: window,
                        event: Box::new(XEvent::Input {
                            window,
                            payload: InputPayload::Button { x: 1, y: 1 },
                            synthetic: false,
                        }),
                    },
                }
            }
            StageAction::XTestClick { actor } => Event::XRequest {
                client: self.actor(*actor).client?,
                request: Request::XTestFakeInput {
                    payload: InputPayload::Button { x: 1, y: 1 },
                    target: self.actor(*actor).window?,
                },
            },
            StageAction::OpenDevice { actor, path } => Event::OpenDevice {
                pid: self.actor(*actor).pid?,
                path: (*path).to_string(),
            },
            StageAction::GetImage { actor } => Event::XRequest {
                client: self.actor(*actor).client?,
                request: Request::GetImage { window: None },
            },
            StageAction::Fork { parent, .. } => Event::SysFork {
                pid: self.actor(*parent).pid?,
            },
            StageAction::ShmGet { actor, key, pages } => Event::SysShmGet {
                pid: self.actor(*actor).pid?,
                key: *key,
                pages: *pages,
            },
            StageAction::ShmAt { actor } => Event::SysShmAt {
                pid: self.actor(*actor).pid?,
                shm: self.shm?,
            },
            StageAction::ShmWrite { actor, data } => Event::SysShmWrite {
                pid: self.actor(*actor).pid?,
                vma: self.actor(*actor).vma?,
                offset: 0,
                data: data.to_vec(),
            },
            StageAction::ShmRead { actor, len } => Event::SysShmRead {
                pid: self.actor(*actor).pid?,
                vma: self.actor(*actor).vma?,
                offset: 0,
                len: *len,
            },
        })
    }

    /// Folds an outcome back into the handle table. Replay determinism
    /// guarantees the same handles on record and on replay.
    pub fn absorb(&mut self, action: &StageAction, outcome: &ApplyOutcome) {
        match (action, outcome) {
            (StageAction::Launch { actor, .. }, ApplyOutcome::Gui(Ok(gui))) => {
                let a = self.actor_mut(*actor);
                a.pid = Some(gui.pid);
                a.client = Some(gui.client);
                a.window = Some(gui.window);
            }
            (StageAction::Spawn { actor, .. }, ApplyOutcome::Pid(Ok(pid)))
            | (StageAction::Fork { child: actor, .. }, ApplyOutcome::Pid(Ok(pid))) => {
                self.actor_mut(*actor).pid = Some(*pid);
            }
            (StageAction::Connect { actor }, ApplyOutcome::Client(client)) => {
                self.actor_mut(*actor).client = Some(*client);
            }
            (StageAction::CreateWindow { actor, .. }, ApplyOutcome::X(Ok(Reply::Window(w)))) => {
                self.actor_mut(*actor).window = Some(*w);
            }
            (StageAction::ShmGet { .. }, ApplyOutcome::Shm(Ok(shm))) => {
                self.shm = Some(*shm);
            }
            (StageAction::ShmAt { actor }, ApplyOutcome::Vma(Ok(vma))) => {
                self.actor_mut(*actor).vma = Some(*vma);
            }
            _ => {}
        }
    }

    /// The pid currently bound to an actor slot, if any.
    pub fn actor_pid(&self, slot: usize) -> Option<Pid> {
        self.actor(slot).pid
    }
}

/// Whether the event's outcome was a grant (`Some(true)`), a denial
/// (`Some(false)`), or not a judged probe shape (`None`). Shared by the
/// recorder-side runner and the fleet's expectation-aware oracle — and
/// by triple reproduction, which must re-judge identically.
pub fn outcome_granted(event: &Event, outcome: &ApplyOutcome) -> Option<bool> {
    match (event, outcome) {
        (Event::OpenDevice { .. } | Event::OpenDevicePrompted { .. }, ApplyOutcome::Fd(result)) => {
            Some(result.is_ok())
        }
        (Event::XRequest { .. }, ApplyOutcome::X(result)) => Some(result.is_ok()),
        _ => None,
    }
}

/// The verdict on one judged stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageVerdict {
    /// The outcome matched the expectation.
    Pass,
    /// The outcome was a deny where a grant was expected, under an active
    /// fault plan: fail-closed denies (dropped notifications, channel
    /// down, quarantine) are the *designed* response to faults, so this
    /// is excused rather than flagged. Grants are never excused.
    ExcusedFaultDeny,
    /// The defense regressed: expected-`Blocked` granted, or a documented
    /// bypass / expected grant denied on a fault-free machine.
    Regression(String),
}

impl StageVerdict {
    /// Whether this verdict is a regression.
    pub fn is_regression(&self) -> bool {
        matches!(self, StageVerdict::Regression(_))
    }
}

/// Judges one observed grant/deny against its expectation.
///
/// `fault_tolerant` is set by fleet shards running under a seeded fault
/// plan: there, a deny where a grant was expected may be the fail-closed
/// response to an injected fault (a dropped interaction notification, a
/// downed channel) and is [`StageVerdict::ExcusedFaultDeny`]. A *grant*
/// where `Blocked` was expected is a regression unconditionally — no
/// fault can explain a wrongful grant under fail-closed semantics.
pub fn judge(expect: &Expectation, granted: bool, fault_tolerant: bool) -> StageVerdict {
    if expect.satisfied_by(granted) {
        return StageVerdict::Pass;
    }
    match expect {
        Expectation::Blocked => StageVerdict::Regression(format!(
            "expected {} but the operation was granted",
            expect.label()
        )),
        Expectation::Granted => {
            if fault_tolerant {
                StageVerdict::ExcusedFaultDeny
            } else {
                StageVerdict::Regression("expected granted but the operation was denied".into())
            }
        }
        Expectation::ExpectedBypass { rationale } => {
            if fault_tolerant {
                StageVerdict::ExcusedFaultDeny
            } else {
                StageVerdict::Regression(format!(
                    "documented bypass is now blocked (semantics changed): {rationale}"
                ))
            }
        }
    }
}

/// What one stage did, as recorded by the runner.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage label.
    pub stage: &'static str,
    /// The check, when the stage was judged.
    pub check: Option<Check>,
    /// Observed grant/deny, when the stage was a probe.
    pub granted: Option<bool>,
    /// The [`overhaul_kernel::policy::DecisionTrace`] rule label behind a
    /// device probe's decision (`explain_last`), when available.
    pub rule: Option<&'static str>,
    /// The verdict, when the stage was judged.
    pub verdict: Option<StageVerdict>,
}

/// What one whole campaign did.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: &'static str,
    /// Attack class.
    pub class: AttackClass,
    /// Per-stage records, in script order.
    pub stages: Vec<StageReport>,
    /// Clickjacking suppressions the campaign added to the X audit log.
    pub clickjacking_suppressed: usize,
    /// Synthetic-input filters the campaign added to the X audit log.
    pub synthetic_filtered: usize,
    /// Whether the machine's hash-chained ledgers verified after the run.
    pub ledger_verified: bool,
}

impl CampaignReport {
    /// The regressions this campaign produced.
    pub fn regressions(&self) -> Vec<&StageReport> {
        self.stages
            .iter()
            .filter(|s| s.verdict.as_ref().is_some_and(StageVerdict::is_regression))
            .collect()
    }
}

/// Where a campaign's stages run: the machine they resolve against, and
/// the one step that applies and records a resolved stage event. A
/// [`Recorder`] hosts plain runs; a fleet shard hosts stages in its own
/// contained step, which can end the campaign with a failure.
pub trait StageHost {
    /// Why the host ended the campaign early.
    type Error;

    /// The live machine.
    fn system(&self) -> &System;

    /// Applies and records `event`, the resolution of `stage` of
    /// `campaign`, returning its outcome.
    ///
    /// # Errors
    ///
    /// Whatever the host stops the campaign for.
    fn apply_stage(
        &mut self,
        campaign: &Campaign,
        stage: &Stage,
        event: Event,
    ) -> Result<ApplyOutcome, Self::Error>;
}

impl StageHost for Recorder {
    type Error = std::convert::Infallible;

    fn system(&self) -> &System {
        Recorder::system(self)
    }

    fn apply_stage(
        &mut self,
        _: &Campaign,
        _: &Stage,
        event: Event,
    ) -> Result<ApplyOutcome, Self::Error> {
        Ok(self.apply(event))
    }
}

/// Runs `campaign` through `host`: every stage resolves to one event the
/// host applies, judged stages are checked against their expectations,
/// and the report carries the audit/ledger evidence alongside the
/// verdicts. The campaign ends at the first stage that cannot resolve,
/// keeping the stages done so far. `fault_tolerant` should be `false` on
/// fault-free machines (tests, bench) — see [`judge`].
///
/// # Errors
///
/// The host's error, when it ends the campaign at a stage.
pub fn run_stages<H: StageHost>(
    host: &mut H,
    campaign: &Campaign,
    fault_tolerant: bool,
) -> Result<CampaignReport, H::Error> {
    let audit = |system: &System| {
        let audit = system.x_audit();
        (
            audit.count(AuditCategory::ClickjackingSuppressed),
            audit.count(AuditCategory::SyntheticInputFiltered),
        )
    };
    let (suppressed_before, filtered_before) = audit(host.system());
    let mut driver = CampaignDriver::new();
    let mut stages = Vec::with_capacity(campaign.stages.len());
    for stage in &campaign.stages {
        let Some(event) = driver.resolve(host.system(), &stage.action) else {
            break;
        };
        let outcome = host.apply_stage(campaign, stage, event.clone())?;
        driver.absorb(&stage.action, &outcome);

        let granted = outcome_granted(&event, &outcome);
        let rule = stage.action.resource_op().and_then(|op| {
            let pid = stage
                .action
                .probe_actor()
                .and_then(|a| driver.actor_pid(a))?;
            host.system()
                .kernel()
                .explain_last(pid, op)
                .map(|o| o.trace.kind_str())
        });
        let verdict = match (&stage.check, granted) {
            (Some(check), Some(g)) => Some(judge(&check.expect, g, fault_tolerant)),
            (Some(_), None) => Some(StageVerdict::Regression(
                "judged stage produced no grant/deny-shaped outcome".into(),
            )),
            (None, _) => None,
        };
        stages.push(StageReport {
            stage: stage.label,
            check: stage.check.clone(),
            granted,
            rule,
            verdict,
        });
    }

    let (suppressed, filtered) = audit(host.system());
    Ok(CampaignReport {
        name: campaign.name,
        class: campaign.class,
        stages,
        clickjacking_suppressed: suppressed.saturating_sub(suppressed_before),
        synthetic_filtered: filtered.saturating_sub(filtered_before),
        ledger_verified: host.system().verify_ledgers().is_ok(),
    })
}

/// Runs one campaign over a [`Recorder`] (see [`run_stages`]).
pub fn run_campaign(
    rec: &mut Recorder,
    campaign: &Campaign,
    fault_tolerant: bool,
) -> CampaignReport {
    let Ok(report) = run_stages(rec, campaign, fault_tolerant);
    report
}

/// Outcome counts for one (attack class × mechanism) matrix cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Stages blocked as expected.
    pub blocked: usize,
    /// Stages granted as expected (legitimate controls).
    pub granted: usize,
    /// Documented bypasses that happened as documented.
    pub bypasses: usize,
    /// Deny-side mismatches excused under an active fault plan.
    pub excused: usize,
    /// Defense regressions.
    pub regressions: usize,
}

/// The §IV-A-style aggregator: attack class × defense mechanism →
/// outcome counts, plus per-class block rates.
#[derive(Debug, Clone, Default)]
pub struct DefenseMatrix {
    cells: BTreeMap<(&'static str, &'static str), CellCounts>,
    /// Per-class (expected-blocked, actually-blocked) stage counts.
    class_blocks: BTreeMap<&'static str, (usize, usize)>,
}

impl DefenseMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        DefenseMatrix::default()
    }

    /// Folds one campaign report into the matrix.
    pub fn absorb(&mut self, report: &CampaignReport) {
        for stage in &report.stages {
            let Some(check) = &stage.check else { continue };
            let cell = self
                .cells
                .entry((report.class.label(), check.mechanism))
                .or_default();
            match stage.verdict.as_ref() {
                Some(StageVerdict::Pass) => match check.expect {
                    Expectation::Blocked => cell.blocked += 1,
                    Expectation::Granted => cell.granted += 1,
                    Expectation::ExpectedBypass { .. } => cell.bypasses += 1,
                },
                Some(StageVerdict::ExcusedFaultDeny) => cell.excused += 1,
                Some(StageVerdict::Regression(_)) => cell.regressions += 1,
                None => {}
            }
            if check.expect == Expectation::Blocked {
                let (expected, got) = self
                    .class_blocks
                    .entry(report.class.label())
                    .or_insert((0, 0));
                *expected += 1;
                if stage.granted == Some(false) {
                    *got += 1;
                }
            }
        }
    }

    /// Merges another matrix into this one (fleet aggregation).
    pub fn merge(&mut self, other: &DefenseMatrix) {
        for (key, counts) in &other.cells {
            let cell = self.cells.entry(*key).or_default();
            cell.blocked += counts.blocked;
            cell.granted += counts.granted;
            cell.bypasses += counts.bypasses;
            cell.excused += counts.excused;
            cell.regressions += counts.regressions;
        }
        for (class, (expected, got)) in &other.class_blocks {
            let (e, g) = self.class_blocks.entry(class).or_insert((0, 0));
            *e += expected;
            *g += got;
        }
    }

    /// The fraction (in percent) of expected-`Blocked` stages of `class`
    /// that were actually denied, or `None` if the class recorded none.
    pub fn block_rate_pct(&self, class: AttackClass) -> Option<f64> {
        self.class_blocks
            .get(class.label())
            .filter(|(expected, _)| *expected > 0)
            .map(|(expected, got)| 100.0 * *got as f64 / *expected as f64)
    }

    /// Total regressions across all cells.
    pub fn regressions(&self) -> usize {
        self.cells.values().map(|c| c.regressions).sum()
    }

    /// Total documented bypasses observed across all cells.
    pub fn bypasses(&self) -> usize {
        self.cells.values().map(|c| c.bypasses).sum()
    }

    /// Attack classes with at least one judged stage recorded.
    pub fn classes_covered(&self) -> usize {
        AttackClass::ALL
            .iter()
            .filter(|class| {
                self.cells.keys().any(|(c, _)| *c == class.label())
                    || self.class_blocks.contains_key(class.label())
            })
            .count()
    }

    /// Renders the §IV-A-style table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<20} {:<30} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            "attack class", "mechanism", "blocked", "granted", "bypass", "excused", "REGRESS"
        );
        for ((class, mechanism), c) in &self.cells {
            out.push_str(&format!(
                "{:<20} {:<30} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                class, mechanism, c.blocked, c.granted, c.bypasses, c.excused, c.regressions
            ));
        }
        for class in AttackClass::ALL {
            if let Some(rate) = self.block_rate_pct(class) {
                let (expected, got) = self.class_blocks[class.label()];
                out.push_str(&format!(
                    "block rate {:<20} {rate:>6.1}% ({got}/{expected})\n",
                    class.label()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_core::OverhaulConfig;

    fn run_catalog(config: OverhaulConfig) -> (DefenseMatrix, Vec<CampaignReport>) {
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

    #[test]
    fn protected_machine_matches_every_expectation() {
        let (matrix, reports) = run_catalog(OverhaulConfig::protected());
        for report in &reports {
            assert!(
                report.regressions().is_empty(),
                "{}: {:?}",
                report.name,
                report.regressions()
            );
            assert!(report.ledger_verified, "{} ledger broke", report.name);
        }
        assert_eq!(matrix.regressions(), 0);
        assert_eq!(matrix.classes_covered(), 3, "all three classes report");
        assert!(
            matrix.bypasses() >= 3,
            "each class documents at least one bypass: {}",
            matrix.render()
        );
        for class in AttackClass::ALL {
            assert_eq!(
                matrix.block_rate_pct(class),
                Some(100.0),
                "{} block rate",
                class.label()
            );
        }
    }

    #[test]
    fn hover_theft_evidence_is_in_the_audit_log_not_just_loot() {
        let mut rec = Recorder::new(OverhaulConfig::protected());
        let report = run_campaign(&mut rec, &hover_theft(), false);
        assert!(
            report.clickjacking_suppressed >= 1,
            "the premature click must be suppressed on the record"
        );
        assert!(
            report.synthetic_filtered >= 2,
            "both forged clicks must be filtered on the record"
        );
        // The stolen-click bypass is granted via the ordinary
        // within-threshold rule — that is exactly the insufficiency.
        let bypass = report
            .stages
            .iter()
            .find(|s| s.stage == "mic within delta of the stolen click")
            .unwrap();
        assert_eq!(bypass.granted, Some(true));
        assert_eq!(bypass.rule, Some("within-threshold"));
        assert_eq!(bypass.verdict, Some(StageVerdict::Pass));
    }

    #[test]
    fn delegation_abuse_rides_p2_and_goes_stale() {
        let mut rec = Recorder::new(OverhaulConfig::protected());
        let report = run_campaign(&mut rec, &delegation_abuse(), false);
        let fresh = report
            .stages
            .iter()
            .find(|s| s.stage == "cam via fresh delegation hop")
            .unwrap();
        assert_eq!(fresh.granted, Some(true));
        assert_eq!(fresh.rule, Some("within-threshold"));
        let stale = report
            .stages
            .iter()
            .find(|s| s.stage == "cam via stale hop")
            .unwrap();
        assert_eq!(stale.granted, Some(false));
        assert!(
            report.regressions().is_empty(),
            "{:?}",
            report.regressions()
        );
    }

    #[test]
    fn grant_all_machine_turns_blocked_stages_into_regressions() {
        let (matrix, reports) = run_catalog(OverhaulConfig::grant_all());
        assert!(
            matrix.regressions() > 0,
            "grant-all must trip Blocked expectations:\n{}",
            matrix.render()
        );
        // Every regression is a wrongful GRANT (the unconditional
        // direction), never an excusable deny.
        for report in &reports {
            for stage in report.regressions() {
                assert_eq!(stage.granted, Some(true), "{:?}", stage);
            }
        }
    }

    #[test]
    fn fault_tolerant_judging_excuses_denies_but_never_grants() {
        let bypass = Expectation::ExpectedBypass {
            rationale: "doc".into(),
        };
        assert_eq!(judge(&bypass, false, true), StageVerdict::ExcusedFaultDeny);
        assert!(judge(&bypass, false, false).is_regression());
        assert_eq!(judge(&bypass, true, true), StageVerdict::Pass);
        assert!(judge(&Expectation::Blocked, true, true).is_regression());
        assert!(judge(&Expectation::Blocked, true, false).is_regression());
        assert_eq!(
            judge(&Expectation::Blocked, false, true),
            StageVerdict::Pass
        );
        assert_eq!(
            judge(&Expectation::Granted, false, true),
            StageVerdict::ExcusedFaultDeny
        );
    }

    #[test]
    fn expectation_packs_round_trip() {
        let all = vec![
            Expectation::Granted,
            Expectation::Blocked,
            Expectation::ExpectedBypass {
                rationale: "temporal proximity is op-agnostic".into(),
            },
        ];
        let mut enc = Enc::new();
        all.pack(&mut enc);
        let bytes = enc.into_bytes();
        let back = Vec::<Expectation>::unpack(&mut Dec::new(&bytes)).expect("unpack");
        assert_eq!(back, all);
    }

    #[test]
    fn an_actor_without_a_handle_resolves_to_none_and_ends_the_campaign() {
        let mut rec = Recorder::new(OverhaulConfig::protected());
        let driver = CampaignDriver::new();
        for action in [
            StageAction::Connect { actor: 0 },
            StageAction::ClickActor { actor: 0 },
            StageAction::OpenDevice {
                actor: 1,
                path: "/dev/video0",
            },
            StageAction::ShmAt { actor: 0 },
        ] {
            assert_eq!(driver.resolve(rec.system(), &action), None, "{action:?}");
        }
        assert_eq!(
            driver.resolve(rec.system(), &StageAction::Settle),
            Some(Event::Settle)
        );

        // The runner keeps the stages done before the unresolvable one.
        let campaign = Campaign {
            name: "ghost",
            class: AttackClass::HoverOverlay,
            stages: vec![
                Stage::plain("settle", StageAction::Settle),
                Stage::plain("connect a ghost", StageAction::Connect { actor: 3 }),
                Stage::plain("settle again", StageAction::Settle),
            ],
        };
        let report = run_campaign(&mut rec, &campaign, false);
        let done: Vec<_> = report.stages.iter().map(|s| s.stage).collect();
        assert_eq!(done, ["settle"]);
        assert_eq!(rec.events_recorded(), 1);
    }

    #[test]
    fn campaigns_replay_byte_identically() {
        for campaign in catalog() {
            let mut rec = Recorder::new(OverhaulConfig::protected());
            run_campaign(&mut rec, &campaign, false);
            let (recorded, log) = rec.finish();
            let replayed = overhaul_core::replay(&log).expect("replay boots");
            assert_eq!(
                replayed.state_hash(),
                recorded.state_hash(),
                "{} diverged on replay",
                campaign.name
            );
            assert_eq!(replayed.ledger_head(), recorded.ledger_head());
        }
    }
}
