//! One supervised shard: boot, randomized workload, containment.
//!
//! [`run_shard`] boots a machine from a [`ShardPlan`], generates a
//! seed-determined randomized workload against the *live* system (so ops
//! can target handles — pids, windows, clients — that only exist at run
//! time), and records every applied input into an [`EventLog`]. Every op
//! runs under `catch_unwind`; panics, hangs, defense regressions, and
//! self-replay divergences all become sealed [`FailureTriple`]s instead
//! of tearing the fleet. The generator is *not* needed for reproduction:
//! the recorded log is pure data.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;
use std::time::{Duration, Instant};

use overhaul_apps::campaign::{
    self, Campaign, CampaignReport, Expectation, Stage, StageHost, StageVerdict,
};
use overhaul_core::{apply_event, replay, ApplyOutcome, Event, EventLog, Gui, System};
use overhaul_kernel::monitor::ResourceOp;
use overhaul_kernel::policy::{IngestEvent, OpRequest};
use overhaul_sim::{
    LedgerSummary, MetricsRegistry, Pid, SimDuration, SimRng, SketchBook, Snapshot,
};
use overhaul_xserver::geometry::Rect;

use crate::failure::{panic_message, FailureKind, FailureTriple};
use crate::schedule::{ChaosOp, ShardOp, ShardPlan};

/// Events between periodic last-good checkpoints.
const SNAP_EVERY: usize = 25;

/// Wall-clock backstop for [`ChaosOp::Spin`]: even if no supervisor ever
/// cancels the shard (unit tests), the spin self-terminates.
const SPIN_BACKSTOP: Duration = Duration::from_millis(1_500);

/// Device nodes the workload opens (the protected set of the default
/// configuration).
const DEVICES: [&str; 2] = ["/dev/snd/mic0", "/dev/video0"];

/// GUI and spy handles the generator keeps live; the oldest goes first.
const LIVE_GUIS: usize = 6;
const LIVE_SPIES: usize = 4;

/// The deterministic payload of an injected chaos panic. Pulled into a
/// function so the recorded message and the reproduction's re-panic are
/// the same string by construction.
pub(crate) fn injected_panic(index: usize) -> ! {
    panic!("injected chaos panic (shard {index})")
}

/// Installs a process-wide panic hook that silences panics on threads
/// named `overhaul-shard-*` (they are contained by design and reported
/// as failure triples) and re-raised `injected chaos panic` payloads on
/// any thread (reproduction replays re-apply the failing op under
/// `catch_unwind` wherever the triple is being verified); panics on
/// every other thread keep the previous hook's behavior. Idempotent.
pub fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let contained = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("overhaul-shard-"));
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|m| m.starts_with("injected chaos panic"));
            if !contained && !injected {
                prev(info);
            }
        }));
    });
}

/// Shared heartbeat between a running shard and the fleet supervisor.
#[derive(Debug, Default)]
pub struct ShardBeat {
    progress: AtomicU64,
    cancel: AtomicBool,
    active: AtomicBool,
}

impl ShardBeat {
    /// A fresh beat (no progress, not cancelled, not active).
    pub fn new() -> Self {
        ShardBeat::default()
    }

    /// Monotone progress counter (ticks once per applied op).
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    fn tick(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Asks the shard to stop at the next opportunity (the wall-clock
    /// supervisor's lever; the spin chaos op polls it).
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether a cancel was requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Marks the shard as running / finished (supervisor only watches
    /// active beats).
    pub fn set_active(&self, active: bool) {
        self.active.store(active, Ordering::Relaxed);
    }

    /// Whether the shard is currently running.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }
}

/// How a shard ended.
#[derive(Debug)]
pub enum ShardOutcome {
    /// Ran to completion and self-replay matched.
    Ok {
        /// The sealed final state hash.
        state_hash: u64,
    },
    /// Failed; the boxed triple reproduces it.
    Failed(Box<FailureTriple>),
}

impl ShardOutcome {
    /// Whether the shard completed cleanly.
    pub fn is_ok(&self) -> bool {
        matches!(self, ShardOutcome::Ok { .. })
    }
}

/// Everything a finished shard hands back to the fleet.
#[derive(Debug)]
pub struct ShardReport {
    /// Shard index.
    pub index: usize,
    /// Shard seed.
    pub seed: u64,
    /// How it ended.
    pub outcome: ShardOutcome,
    /// Events applied (and recorded) before the end.
    pub events: usize,
    /// Virtual milliseconds the shard simulated.
    pub sim_ms: u64,
    /// The shard machine's full metrics registry at the end.
    pub metrics: MetricsRegistry,
    /// The interleaved campaign's report, when the plan scheduled one and
    /// the shard reached (and completed) it.
    pub campaign: Option<CampaignReport>,
    /// The shard machine's latency-sketch book at the end (exemplars are
    /// stamped with this shard's seed).
    pub sketches: SketchBook,
    /// Digest of the shard's kernel ledger for the fleet's cross-shard
    /// aggregation/diff view.
    pub ledger: LedgerSummary,
    /// The recorded event log, kept on clean shards so the soak can
    /// archive a replayable artifact per shard (failures carry theirs in
    /// the triple instead).
    pub log: Option<EventLog>,
    /// Index of the first event *after* the `snapshot` checkpoint below.
    pub snap_idx: usize,
    /// The last-good checkpoint paired with `log` (clean shards only).
    pub snapshot: Option<Snapshot>,
}

/// Live handles the workload generator steers by.
struct LiveState {
    guis: Vec<Gui>,
    spies: Vec<Pid>,
    launched: usize,
}

/// Runs one shard to completion (or failure) on the current thread,
/// ticking `beat` once per applied op.
pub fn run_shard(plan: &ShardPlan, beat: &ShardBeat) -> ShardReport {
    beat.set_active(true);
    let report = run_shard_inner(plan, beat);
    beat.set_active(false);
    report
}

fn run_shard_inner(plan: &ShardPlan, beat: &ShardBeat) -> ShardReport {
    // Boot, containing both refusals and boot-path panics.
    let boot = panic::catch_unwind(|| System::try_new(plan.config.clone()));
    let mut system = match boot {
        Ok(Ok(system)) => system,
        Ok(Err(e)) => return boot_failure(plan, format!("{e:?}")),
        Err(payload) => return boot_failure(plan, panic_message(&payload)),
    };

    // Exemplars this machine records resolve back to it by seed.
    system.set_sketch_seed(plan.seed);

    let mut run = Run {
        plan,
        beat,
        log: EventLog {
            config: plan.config.clone(),
            events: Vec::new(),
            final_state_hash: None,
            final_ledger_head: None,
        },
        // Last-good checkpoint: starts at the boot state (zero events).
        last_good: system.snapshot(),
        snap_idx: 0,
        system,
    };
    let end = run.drive();
    run.finish(end)
}

/// Why a shard run stopped: the failure, the op it failed on, and the
/// `(state hash, ledger head)` its log seals at — the state just before
/// that op, or `None` for the state the machine is in.
struct Stop {
    kind: FailureKind,
    op: Option<ShardOp>,
    seal: Option<(u64, u64)>,
}

impl Stop {
    /// A stop between ops, sealed at the current state.
    fn here(kind: FailureKind) -> Box<Self> {
        Box::new(Stop {
            kind,
            op: None,
            seal: None,
        })
    }
}

/// One shard's run: the machine, its recorded log and its last-good
/// checkpoint, which a failure seals into its triple.
struct Run<'a> {
    plan: &'a ShardPlan,
    beat: &'a ShardBeat,
    system: System,
    log: EventLog,
    /// Index of the first event after `last_good`.
    snap_idx: usize,
    last_good: Snapshot,
}

impl Run<'_> {
    /// Runs the recorded setup and the plan's steps, its campaign
    /// interleaved, then verifies the ledgers and self-replays the sealed
    /// log. Returns the sealed state hash and the campaign's report.
    fn drive(&mut self) -> Result<(u64, Option<CampaignReport>), Box<Stop>> {
        let plan = self.plan;
        let mut rng = SimRng::stream(plan.seed, 1);
        // Recorded setup: one spy process (spawned, never interacted — the
        // policy oracle) and one GUI app to click on.
        let setup = [
            ShardOp::Sys(Event::SpawnProcess {
                parent: None,
                exe: "/usr/bin/.dropper".into(),
            }),
            ShardOp::Sys(Event::LaunchGuiApp {
                exe: "/usr/bin/app0".into(),
                rect: Rect::new(10, 10, 300, 200),
            }),
            ShardOp::Sys(Event::Settle),
        ];
        let mut live = LiveState {
            guis: Vec::new(),
            spies: Vec::new(),
            launched: 1,
        };
        let total = setup.len() + plan.steps;
        let steps = (0..plan.steps).map(|step| chaos_or_placeholder(plan, step));
        let mut campaign = None;
        for (i, slot) in setup.into_iter().chain(steps).enumerate() {
            if self.beat.is_cancelled() {
                return Err(Stop::here(FailureKind::HungWall));
            }
            // Scheduled campaign: its stages interleave here, each one a
            // step of its own.
            if let Some(slot) = plan.campaign.filter(|slot| i == slot.at_step + 3) {
                if !self.system.x_alive() {
                    // Campaign stages need a live display; recover first
                    // (recorded, so replay does the same).
                    let outcome = self.step(ShardOp::Sys(Event::RestartX), None)?;
                    track_outcome(&outcome, &mut live);
                }
                let script = slot.kind.build();
                campaign = Some(campaign::run_stages(self, &script, plan.lenient_oracle)?);
            }
            // Placeholder slots are generated against the live system now.
            let op = match slot {
                ShardOp::Sys(Event::Settle) if i >= 3 => {
                    generate_op(&mut rng, &self.system, &mut live, plan)
                }
                other => other,
            };
            let outcome = self.step(op, None)?;
            track_outcome(&outcome, &mut live);

            // Virtual-time watchdog: a legitimate op mix never reaches the
            // deadline, so crossing it means a livelock-shaped bug.
            if self.system.now() > plan.virtual_deadline {
                return Err(Stop::here(FailureKind::HungVirtual {
                    now: self.system.now(),
                    deadline: plan.virtual_deadline,
                }));
            }

            // Periodic last-good checkpoint (never perturbs the state hash).
            if self.log.events.len() >= self.snap_idx + SNAP_EVERY && i + 1 < total {
                self.last_good = self.system.snapshot();
                self.snap_idx = self.log.events.len();
            }
        }

        // Chain-verify the run's ledgers before sealing: a shard whose own
        // recorded history fails verification is its own failure kind.
        if let Err(e) = self.system.verify_ledgers() {
            return Err(Stop::here(FailureKind::CorruptLedger {
                message: e.to_string(),
            }));
        }

        // Seal and self-verify: replay the whole log from boot and demand
        // the byte-identical state hash.
        let live_hash = self.seal(None);
        let replayed = replay(&self.log).map_err(|e| {
            Stop::here(FailureKind::Boot {
                message: format!("self-replay refused to boot: {e:?}"),
            })
        })?;
        let got = replayed.state_hash();
        if got != live_hash {
            return Err(Stop::here(FailureKind::Divergence {
                expected: live_hash,
                got,
            }));
        }
        Ok((live_hash, campaign))
    }

    /// Applies one op, contained: the pre-op state hash and ledger head
    /// are taken first, so a failing op seals the log just before itself
    /// (DESIGN §5e). A chaos op always fails; a panic is caught; an
    /// `Expect` op is judged. `stage` is the `(script, stage label)` a
    /// campaign stage runs as: it names a regression and files a panic
    /// under the bare event; without it the fleet's spy-probe oracle
    /// names a regression after the probed device.
    fn step(
        &mut self,
        op: ShardOp,
        stage: Option<(&str, &str)>,
    ) -> Result<ApplyOutcome, Box<Stop>> {
        let seal = Some((self.system.state_hash(), self.system.ledger_head()));
        let fail = |kind, op| {
            Err(Box::new(Stop {
                kind,
                op: Some(op),
                seal,
            }))
        };
        let (expect, event) = match op {
            ShardOp::Sys(event) => (None, event),
            ShardOp::Expect(expect, event) => (Some(expect), event),
            ShardOp::Chaos(chaos) => return fail(self.chaos(&chaos), ShardOp::Chaos(chaos)),
        };
        let applied =
            panic::catch_unwind(AssertUnwindSafe(|| apply_event(&mut self.system, &event)));
        let outcome = match applied {
            Ok(outcome) => outcome,
            Err(payload) => {
                let kind = FailureKind::Panic {
                    message: panic_message(&payload),
                };
                return match expect {
                    Some(expect) if stage.is_none() => fail(kind, ShardOp::Expect(expect, event)),
                    _ => fail(kind, ShardOp::Sys(event)),
                };
            }
        };
        if let Some(expect) = expect {
            let verdict = campaign::outcome_granted(&event, &outcome)
                .map(|g| campaign::judge(&expect, g, self.plan.lenient_oracle));
            if let Some(StageVerdict::Regression(detail)) = verdict {
                let (campaign, stage) = match (stage, &event) {
                    (Some((script, label)), _) => (script.to_string(), label.to_string()),
                    (None, Event::OpenDevice { path, .. }) => ("fleet-oracle".into(), path.clone()),
                    (None, _) => ("fleet-oracle".into(), String::new()),
                };
                let kind = FailureKind::DefenseRegression {
                    campaign,
                    stage,
                    detail,
                };
                return fail(kind, ShardOp::Expect(expect, event));
            }
        }
        self.log.events.push(event);
        self.beat.tick();
        Ok(outcome)
    }

    /// Runs an injected chaos op, none of which is recorded, and names
    /// the failure it is.
    fn chaos(&mut self, chaos: &ChaosOp) -> FailureKind {
        match chaos {
            ChaosOp::Panic => {
                let index = self.plan.index;
                let payload = panic::catch_unwind(|| injected_panic(index))
                    .expect_err("injected_panic always panics");
                FailureKind::Panic {
                    message: panic_message(&payload),
                }
            }
            ChaosOp::VirtualStall(jump) => {
                // The stall is the fault, not an input.
                self.system.advance(*jump);
                FailureKind::HungVirtual {
                    now: self.system.now(),
                    deadline: self.plan.virtual_deadline,
                }
            }
            ChaosOp::Spin => {
                let start = Instant::now();
                while !self.beat.is_cancelled() && start.elapsed() < SPIN_BACKSTOP {
                    std::hint::spin_loop();
                }
                FailureKind::HungWall
            }
        }
    }

    /// Seals the log at `at`, or at the current state, and returns the
    /// sealed state hash.
    fn seal(&mut self, at: Option<(u64, u64)>) -> u64 {
        let (hash, head) =
            at.unwrap_or_else(|| (self.system.state_hash(), self.system.ledger_head()));
        self.log.final_state_hash = Some(hash);
        self.log.final_ledger_head = Some(head);
        hash
    }

    /// The one exit: hands the run back, whole when it completed, and as
    /// a sealed [`FailureTriple`] when it stopped.
    fn finish(mut self, end: Result<(u64, Option<CampaignReport>), Box<Stop>>) -> ShardReport {
        if let Err(stop) = &end {
            self.seal(stop.seal);
        }
        let Run {
            plan,
            system,
            log,
            snap_idx,
            last_good,
            ..
        } = self;
        let events = log.events.len();
        let (outcome, campaign, log, snap_idx, snapshot) = match end {
            Ok((state_hash, campaign)) => (
                ShardOutcome::Ok { state_hash },
                campaign,
                Some(log),
                snap_idx,
                Some(last_good),
            ),
            Err(stop) => {
                let triple = FailureTriple {
                    index: plan.index,
                    seed: plan.seed,
                    kind: stop.kind,
                    log,
                    snap_idx,
                    snapshot: last_good,
                    failing_op: stop.op,
                    virtual_deadline: plan.virtual_deadline,
                    chain_head: system.ledger_head(),
                };
                (ShardOutcome::Failed(Box::new(triple)), None, None, 0, None)
            }
        };
        ShardReport {
            index: plan.index,
            seed: plan.seed,
            outcome,
            events,
            sim_ms: system.now().as_millis(),
            metrics: safe_metrics(&system),
            campaign,
            sketches: safe_sketches(&system),
            ledger: safe_ledger(&system),
            log,
            snap_idx,
            snapshot,
        }
    }
}

impl StageHost for Run<'_> {
    type Error = Box<Stop>;

    fn system(&self) -> &System {
        &self.system
    }

    /// A campaign stage is one step: a judged stage is an `Expect` op.
    fn apply_stage(
        &mut self,
        campaign: &Campaign,
        stage: &Stage,
        event: Event,
    ) -> Result<ApplyOutcome, Box<Stop>> {
        let op = match &stage.check {
            Some(check) => ShardOp::Expect(check.expect.clone(), event),
            None => ShardOp::Sys(event),
        };
        self.step(op, Some((campaign.name, stage.label)))
    }
}

/// Whether step `step` is a scheduled chaos slot; ordinary slots carry a
/// `Settle` placeholder that the loop swaps for a generated op.
fn chaos_or_placeholder(plan: &ShardPlan, step: usize) -> ShardOp {
    if plan.chaos.panic_at == Some(step) {
        ShardOp::Chaos(ChaosOp::Panic)
    } else if plan.chaos.stall_at == Some(step) {
        ShardOp::Chaos(ChaosOp::VirtualStall(plan.stall_jump()))
    } else if plan.chaos.spin_at == Some(step) {
        ShardOp::Chaos(ChaosOp::Spin)
    } else {
        ShardOp::Sys(Event::Settle)
    }
}

/// The expectation the oracle attaches to a spy probe under this plan: a
/// never-interacted process must be denied on a protected boot; on a
/// grant-all boot the grant is a *documented* bypass (the permissive
/// baseline grants by design) — unless strict mode keeps expecting
/// `Blocked`, which is the forced defense-regression lever.
fn spy_expectation(plan: &ShardPlan) -> Expectation {
    if plan.config.kernel.monitor.grant_all && !plan.oracle_strict {
        Expectation::ExpectedBypass {
            rationale: "grant-all baseline grants every request by design".into(),
        }
    } else {
        Expectation::Blocked
    }
}

/// Draws the next workload op against the live system. Reads the system
/// freely (handles, liveness) — determinism is not required here because
/// only the *recorded* events matter for replay.
fn generate_op(
    rng: &mut SimRng,
    system: &System,
    live: &mut LiveState,
    plan: &ShardPlan,
) -> ShardOp {
    // A dead display manager dominates everything: recover (or wait).
    if !system.x_alive() {
        return if rng.chance(0.7) {
            ShardOp::Sys(Event::RestartX)
        } else {
            ShardOp::Sys(Event::Advance(SimDuration::from_millis(
                rng.range(100, 800),
            )))
        };
    }
    let roll = rng.range(0, 100);
    match roll {
        0..=24 => ShardOp::Sys(Event::Advance(SimDuration::from_millis(rng.range(50, 900)))),
        25..=32 => ShardOp::Sys(Event::Settle),
        33..=47 => match pick_gui(rng, live) {
            Some(gui) => ShardOp::Sys(Event::ClickWindow { window: gui.window }),
            None => launch(rng, live),
        },
        48..=55 => ShardOp::Sys(Event::Key {
            ch: (b'a' + rng.range(0, 26) as u8) as char,
        }),
        56..=67 => match pick_gui(rng, live) {
            Some(gui) => ShardOp::Sys(Event::OpenDevice {
                pid: gui.pid,
                path: pick_device(rng),
            }),
            None => launch(rng, live),
        },
        68..=77 => match pick_spy(rng, live) {
            Some(pid) => ShardOp::Expect(
                spy_expectation(plan),
                Event::OpenDevice {
                    pid,
                    path: pick_device(rng),
                },
            ),
            None => ShardOp::Sys(Event::Settle),
        },
        78..=81 => match pick_gui(rng, live) {
            Some(gui) => ShardOp::Sys(Event::DrainEvents { client: gui.client }),
            None => launch(rng, live),
        },
        82..=83 => match ingest_batch(rng, system, live) {
            Some(op) => op,
            None => launch(rng, live),
        },
        84..=89 => launch(rng, live),
        90..=93 => match pick_spy(rng, live) {
            Some(pid) => ShardOp::Sys(Event::SysFork { pid }),
            None => ShardOp::Sys(Event::Settle),
        },
        94..=95 => ShardOp::Sys(Event::CrashX),
        _ => ShardOp::Sys(Event::Advance(SimDuration::from_millis(
            rng.range(1_000, 4_000),
        ))),
    }
}

/// Draws a batched ingestion event: a mixed run of interaction
/// notifications and permission requests over the live GUI pids at the
/// current virtual time. The whole batch records as ONE replay event, so
/// the recorded log exercises [`Event::IngestBatch`] end to end —
/// replayable and bisectable by construction, like every other op.
fn ingest_batch(rng: &mut SimRng, system: &System, live: &mut LiveState) -> Option<ShardOp> {
    if live.guis.is_empty() {
        return None;
    }
    let now = system.now();
    let ops = [ResourceOp::Mic, ResourceOp::Cam, ResourceOp::Screen];
    let len = rng.range(2, 9);
    let mut events = Vec::with_capacity(len as usize);
    for _ in 0..len {
        let gui = live.guis[rng.range(0, live.guis.len() as u64) as usize];
        if rng.chance(0.3) {
            events.push(IngestEvent::Interaction {
                pid: gui.pid,
                at: now,
            });
        } else {
            events.push(IngestEvent::Request(OpRequest {
                pid: gui.pid,
                op: ops[rng.range(0, ops.len() as u64) as usize],
                at: now,
            }));
        }
    }
    Some(ShardOp::Sys(Event::IngestBatch { events }))
}

fn pick_gui(rng: &mut SimRng, live: &LiveState) -> Option<Gui> {
    if live.guis.is_empty() {
        None
    } else {
        Some(live.guis[rng.range(0, live.guis.len() as u64) as usize])
    }
}

fn pick_spy(rng: &mut SimRng, live: &LiveState) -> Option<Pid> {
    if live.spies.is_empty() {
        None
    } else {
        Some(live.spies[rng.range(0, live.spies.len() as u64) as usize])
    }
}

fn pick_device(rng: &mut SimRng) -> String {
    DEVICES[rng.range(0, DEVICES.len() as u64) as usize].to_string()
}

fn launch(rng: &mut SimRng, live: &mut LiveState) -> ShardOp {
    live.launched += 1;
    ShardOp::Sys(Event::LaunchGuiApp {
        exe: format!("/usr/bin/app{}", live.launched),
        rect: Rect::new(
            rng.range(0, 600) as i32,
            rng.range(0, 400) as i32,
            rng.range(120, 320) as u32,
            rng.range(90, 240) as u32,
        ),
    })
}

/// Folds an op's outcome back into the live handle set.
fn track_outcome(outcome: &ApplyOutcome, live: &mut LiveState) {
    match outcome {
        ApplyOutcome::Gui(Ok(gui)) => {
            live.guis.push(*gui);
            if live.guis.len() > LIVE_GUIS {
                live.guis.remove(0);
            }
        }
        ApplyOutcome::Pid(Ok(pid)) => {
            // Spawned/forked processes are spy-lineage (never interacted);
            // their denials keep the oracle honest across fork.
            live.spies.push(*pid);
            if live.spies.len() > LIVE_SPIES {
                live.spies.remove(0);
            }
        }
        // The display manager restarted: every pre-crash window/client
        // handle is stale, drop them so the generator re-launches.
        ApplyOutcome::Restarted(Ok(_)) => live.guis.clear(),
        _ => {}
    }
}

/// The boot-refusal report: no snapshot exists yet, so the triple carries
/// an empty placeholder (the `Boot` reproduction path never restores it).
fn boot_failure(plan: &ShardPlan, message: String) -> ShardReport {
    ShardReport {
        index: plan.index,
        seed: plan.seed,
        outcome: ShardOutcome::Failed(Box::new(FailureTriple {
            index: plan.index,
            seed: plan.seed,
            kind: FailureKind::Boot { message },
            log: EventLog {
                config: plan.config.clone(),
                events: Vec::new(),
                final_state_hash: None,
                final_ledger_head: None,
            },
            snap_idx: 0,
            snapshot: Snapshot::new(Vec::new(), Vec::new()),
            failing_op: None,
            virtual_deadline: plan.virtual_deadline,
            chain_head: 0,
        })),
        events: 0,
        sim_ms: 0,
        metrics: MetricsRegistry::new(),
        campaign: None,
        sketches: SketchBook::new(),
        ledger: LedgerSummary::default(),
        log: None,
        snap_idx: 0,
        snapshot: None,
    }
}

/// Collects the shard's metrics, tolerating a machine left inconsistent
/// by a contained panic.
fn safe_metrics(system: &System) -> MetricsRegistry {
    panic::catch_unwind(AssertUnwindSafe(|| system.metrics_registry())).unwrap_or_default()
}

/// Copies the shard's sketch book out, tolerating a contained panic (the
/// handle's lock is poison-tolerant, but the copy itself stays guarded).
fn safe_sketches(system: &System) -> SketchBook {
    panic::catch_unwind(AssertUnwindSafe(|| system.sketch_book())).unwrap_or_default()
}

/// Digests the shard's kernel ledger, tolerating a contained panic.
fn safe_ledger(system: &System) -> LedgerSummary {
    panic::catch_unwind(AssertUnwindSafe(|| system.ledger_summary())).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{replay_triple, replay_triple_from_snapshot};
    use crate::schedule::{ChaosSchedule, FleetWorkload};
    use overhaul_apps::campaign::CampaignKind;

    fn plan(seed_master: u64, index: usize) -> ShardPlan {
        ShardPlan::derive(seed_master, index, &FleetWorkload::default())
    }

    #[test]
    fn clean_shard_completes_and_self_replays() {
        let beat = ShardBeat::new();
        let report = run_shard(&plan(11, 0), &beat);
        match report.outcome {
            ShardOutcome::Ok { state_hash } => assert_ne!(state_hash, 0),
            ShardOutcome::Failed(t) => panic!("clean shard failed: {:?}", t.kind),
        }
        assert!(report.events > 100, "setup + steps should all record");
        assert!(beat.progress() > 100);
        assert!(!beat.is_active(), "beat must clear after the run");
        assert!(
            report
                .metrics
                .counter("overhaul_monitor_notifications_total")
                > 0,
            "shard metrics must carry kernel counters"
        );
    }

    #[test]
    fn injected_panic_is_contained_and_triple_reproduces_both_ways() {
        quiet_injected_panics();
        let mut p = plan(12, 3);
        p.chaos = ChaosSchedule {
            panic_at: Some(40),
            ..ChaosSchedule::default()
        };
        let report = std::thread::Builder::new()
            .name("overhaul-shard-test".into())
            .spawn(move || run_shard(&p, &ShardBeat::new()))
            .unwrap()
            .join()
            .unwrap();
        let triple = match report.outcome {
            ShardOutcome::Failed(t) => t,
            ShardOutcome::Ok { .. } => panic!("panic shard completed"),
        };
        assert!(matches!(triple.kind, FailureKind::Panic { .. }));
        assert_ne!(triple.chain_head, 0, "triple must carry the chain head");
        assert!(triple.log.final_ledger_head.is_some());
        let boot = replay_triple(&triple);
        assert!(boot.is_reproduced(), "from boot: {boot:?}");
        assert_eq!(boot, replay_triple_from_snapshot(&triple));
    }

    #[test]
    fn virtual_stall_trips_the_watchdog_and_reproduces() {
        let mut p = plan(13, 5);
        p.chaos = ChaosSchedule {
            stall_at: Some(60),
            ..ChaosSchedule::default()
        };
        let report = run_shard(&p, &ShardBeat::new());
        let triple = match report.outcome {
            ShardOutcome::Failed(t) => t,
            ShardOutcome::Ok { .. } => panic!("stalled shard completed"),
        };
        assert!(matches!(triple.kind, FailureKind::HungVirtual { .. }));
        assert!(replay_triple(&triple).is_reproduced());
        assert!(replay_triple_from_snapshot(&triple).is_reproduced());
    }

    #[test]
    fn cancelled_spin_is_reported_as_wall_hang() {
        let mut p = plan(14, 7);
        p.chaos = ChaosSchedule {
            spin_at: Some(10),
            ..ChaosSchedule::default()
        };
        let beat = std::sync::Arc::new(ShardBeat::new());
        let beat2 = beat.clone();
        let handle = std::thread::spawn(move || run_shard(&p, &beat2));
        // Supervisor-in-miniature: wait for progress to stall, cancel.
        std::thread::sleep(Duration::from_millis(120));
        beat.request_cancel();
        let report = handle.join().unwrap();
        let triple = match report.outcome {
            ShardOutcome::Failed(t) => t,
            ShardOutcome::Ok { .. } => panic!("spinning shard completed"),
        };
        assert_eq!(triple.kind, FailureKind::HungWall);
        assert!(replay_triple(&triple).is_reproduced());
    }

    #[test]
    fn grant_all_shard_completes_under_the_expectation_aware_oracle() {
        // A deny-all oracle would flag every grant-all shard as a wrongful
        // grant. The expectation-aware oracle documents those grants as
        // ExpectedBypass, so grant-all shards complete cleanly.
        let w = FleetWorkload {
            grant_all: true,
            ..FleetWorkload::default()
        };
        for index in 0..4 {
            let p = ShardPlan::derive(21, index, &w);
            let report = run_shard(&p, &ShardBeat::new());
            if let ShardOutcome::Failed(t) = report.outcome {
                panic!("grant_all shard {index} failed: {:?}", t.kind);
            }
        }
    }

    #[test]
    fn strict_oracle_on_grant_all_forces_a_defense_regression() {
        let w = FleetWorkload {
            grant_all: true,
            oracle_strict: true,
            ..FleetWorkload::default()
        };
        // Scan a few shards: the spy-open op is probabilistic per step.
        let mut seen = false;
        for index in 0..8 {
            let p = ShardPlan::derive(21, index, &w);
            assert!(p.oracle_strict);
            assert!(!p.lenient_oracle, "strict mode disables fault excusal");
            let report = run_shard(&p, &ShardBeat::new());
            if let ShardOutcome::Failed(t) = report.outcome {
                assert!(
                    matches!(t.kind, FailureKind::DefenseRegression { .. }),
                    "strict grant_all shard failed some other way: {:?}",
                    t.kind
                );
                assert!(matches!(t.failing_op, Some(ShardOp::Expect(..))));
                assert!(replay_triple(&t).is_reproduced());
                assert!(replay_triple_from_snapshot(&t).is_reproduced());
                seen = true;
                break;
            }
        }
        assert!(seen, "no shard exercised the spy-open op in 8 tries");
    }

    #[test]
    fn strict_regression_inside_a_campaign_names_the_stage_and_reproduces() {
        let w = FleetWorkload {
            grant_all: true,
            oracle_strict: true,
            campaign_p: 1.0,
            ..FleetWorkload::default()
        };
        // Most strict shards regress on a spy probe first: scan for one
        // whose first wrongful grant is a judged campaign stage.
        let triple = (0..32)
            .find_map(|index| {
                let p = ShardPlan::derive(0x5eed, index, &w);
                match run_shard(&p, &ShardBeat::new()).outcome {
                    ShardOutcome::Failed(t) if !matches!(
                        &t.kind,
                        FailureKind::DefenseRegression { campaign, .. } if campaign == "fleet-oracle"
                    ) =>
                    {
                        Some(t)
                    }
                    _ => None,
                }
            })
            .expect("no strict shard regressed inside its campaign in 32 tries");
        let FailureKind::DefenseRegression {
            campaign, stage, ..
        } = &triple.kind
        else {
            panic!(
                "strict campaign shard failed some other way: {:?}",
                triple.kind
            );
        };
        let script = CampaignKind::ALL
            .iter()
            .map(|kind| kind.build())
            .find(|script| script.name == campaign)
            .expect("the kind names a catalog script");
        let judged = script
            .stages
            .iter()
            .find(|s| s.label == stage)
            .and_then(|s| s.check.as_ref())
            .expect("the kind names a judged stage of that script");
        match &triple.failing_op {
            Some(ShardOp::Expect(expect, _)) => assert_eq!(expect, &judged.expect),
            other => panic!("a judged stage must fail as its Expect op: {other:?}"),
        }
        assert!(replay_triple(&triple).is_reproduced());
        assert!(replay_triple_from_snapshot(&triple).is_reproduced());
    }

    #[test]
    fn campaign_shard_completes_and_reports_the_campaign() {
        use overhaul_apps::campaign::AttackClass;
        let w = FleetWorkload {
            campaign_p: 1.0,
            ..FleetWorkload::default()
        };
        let mut classes = std::collections::BTreeSet::new();
        for index in 0..6 {
            let p = ShardPlan::derive(41, index, &w);
            assert!(p.campaign.is_some());
            let report = run_shard(&p, &ShardBeat::new());
            match report.outcome {
                ShardOutcome::Ok { .. } => {
                    let campaign = report
                        .campaign
                        .expect("completed campaign shard must carry its report");
                    assert!(
                        campaign.regressions().is_empty(),
                        "{}: {:?}",
                        campaign.name,
                        campaign.regressions()
                    );
                    assert!(!campaign.stages.is_empty());
                    classes.insert(campaign.class);
                }
                ShardOutcome::Failed(t) => {
                    panic!("campaign shard {index} failed: {:?}", t.kind)
                }
            }
        }
        assert!(
            classes.contains(&AttackClass::HoverOverlay)
                || classes.contains(&AttackClass::DelegationAbuse)
                || classes.contains(&AttackClass::OperationBinding)
        );
    }

    #[test]
    fn campaign_shards_are_deterministic_and_self_replay() {
        let w = FleetWorkload {
            campaign_p: 1.0,
            ..FleetWorkload::default()
        };
        let p = ShardPlan::derive(43, 1, &w);
        let a = run_shard(&p, &ShardBeat::new());
        let b = run_shard(&p, &ShardBeat::new());
        match (&a.outcome, &b.outcome) {
            (ShardOutcome::Ok { state_hash: x }, ShardOutcome::Ok { state_hash: y }) => {
                assert_eq!(x, y, "campaign shards must be seed-deterministic")
            }
            other => panic!("campaign shard did not complete twice: {other:?}"),
        }
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn shard_runs_are_deterministic_per_seed() {
        let a = run_shard(&plan(31, 2), &ShardBeat::new());
        let b = run_shard(&plan(31, 2), &ShardBeat::new());
        match (&a.outcome, &b.outcome) {
            (ShardOutcome::Ok { state_hash: x }, ShardOutcome::Ok { state_hash: y }) => {
                assert_eq!(x, y)
            }
            (ShardOutcome::Failed(x), ShardOutcome::Failed(y)) => {
                assert_eq!(x.kind, y.kind);
                assert_eq!(x.log.final_state_hash, y.log.final_state_hash);
                assert_eq!(x.chain_head, y.chain_head);
            }
            other => panic!("seed-identical shards disagreed: {other:?}"),
        }
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_ms, b.sim_ms);
    }
}
