//! Record/replay: deterministic capture of every external input crossing
//! the [`System`] boundary.
//!
//! The simulation is a deterministic state machine: given a configuration
//! (which fixes the fault-plan seed) and the sequence of external inputs —
//! virtual-time advances, hardware input, X requests, syscalls issued by
//! scripted applications — the entire run is reproducible. [`Recorder`]
//! applies each [`Event`] to a live machine while appending it to an
//! [`EventLog`]; [`replay`] re-runs the log against a freshly booted
//! machine and [`replay_from`] re-runs a suffix against a restored
//! checkpoint. Both must reproduce the recorded final
//! [`System::state_hash`] byte-for-byte (and, with tracing enabled, the
//! same [`System::trace_dump`]); a mismatch is counted on the kernel's
//! `overhaul_replay_divergence_total` gauge.
//!
//! The replay boundary contract: everything *outside* the log (wall-clock
//! time, host randomness, thread scheduling) must never influence
//! simulation state. Everything *inside* the machine (kernel, display
//! manager, fault plan, virtual clock) is either serialized state or a
//! pure function of it.

use overhaul_kernel::device::{DeviceClass, DeviceId};
use overhaul_kernel::error::SysResult;
use overhaul_kernel::ipc::shm::ShmId;
use overhaul_kernel::mm::VmaId;
use overhaul_kernel::policy::{DecisionOutcome, IngestEvent};
use overhaul_sim::snapshot::{Dec, Enc, Pack, Snapshot, SnapshotError};
use overhaul_sim::{Fd, Pid, SimDuration, Timestamp};
use overhaul_xserver::geometry::{Point, Rect};
use overhaul_xserver::protocol::{ClientId, Reply, Request, XError, XEvent};
use overhaul_xserver::window::WindowId;

use crate::config::OverhaulConfig;
use crate::system::{BootError, Gui, System};

/// One external input crossing the [`System`] boundary.
///
/// The set covers everything the experiment harnesses and examples drive:
/// system-level operations (time, input, X requests, device opens, crash
/// and restart of the display manager) plus the scripted-application
/// syscalls issued through [`System::kernel_mut`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Advance virtual time ([`System::advance`]).
    Advance(SimDuration),
    /// Advance past the clickjacking threshold ([`System::settle`]).
    Settle,
    /// Spawn a process ([`System::spawn_process`]).
    SpawnProcess {
        /// Parent, or init.
        parent: Option<Pid>,
        /// Executable path.
        exe: String,
    },
    /// Connect a process to the X server ([`System::connect_x`]).
    ConnectX {
        /// The process.
        pid: Pid,
    },
    /// Launch a GUI app ([`System::launch_gui_app`]).
    LaunchGuiApp {
        /// Executable path.
        exe: String,
        /// Main-window geometry.
        rect: Rect,
    },
    /// Hardware click at screen coordinates ([`System::click_at`]).
    ClickAt {
        /// Screen location.
        p: Point,
    },
    /// Hardware click on a window's center ([`System::click_window`]).
    ClickWindow {
        /// Target window.
        window: WindowId,
    },
    /// Hardware key press ([`System::key`]).
    Key {
        /// The key.
        ch: char,
    },
    /// An X request ([`System::x_request`]).
    XRequest {
        /// Requesting client.
        client: ClientId,
        /// The request.
        request: Request,
    },
    /// A client consuming its event queue
    /// ([`overhaul_xserver::XServer::drain_events`]). Draining empties the
    /// queue — part of the machine's hashed state — so an application's
    /// act of reading its events is itself a recorded input.
    DrainEvents {
        /// The consuming client.
        client: ClientId,
    },
    /// Open a device node ([`System::open_device`]).
    OpenDevice {
        /// Caller.
        pid: Pid,
        /// Device path.
        path: String,
    },
    /// Open a device under the prompt policy
    /// ([`System::open_device_prompted`]).
    OpenDevicePrompted {
        /// Caller.
        pid: Pid,
        /// Device path.
        path: String,
        /// The user's scripted hardware answer.
        approve: bool,
    },
    /// Kill the display manager ([`System::crash_x`]).
    CrashX,
    /// Restart the display manager ([`System::restart_x`]).
    RestartX,
    /// Hot-plug a device ([`overhaul_kernel::Kernel::attach_device`]).
    AttachDevice {
        /// Device class.
        class: DeviceClass,
        /// Label.
        label: String,
        /// Node path.
        path: String,
    },
    /// udev rename ([`overhaul_kernel::Kernel::udev_rename_device`]).
    UdevRename {
        /// Old node path.
        old: String,
        /// New node path.
        new: String,
    },
    /// `spawn` issued by a scripted app.
    SysSpawn {
        /// Parent process.
        parent: Pid,
        /// Executable path.
        exe: String,
    },
    /// `fork(2)`.
    SysFork {
        /// Caller.
        pid: Pid,
    },
    /// `execve(2)`.
    SysExecve {
        /// Caller.
        pid: Pid,
        /// New executable path.
        exe: String,
    },
    /// `read(2)`.
    SysRead {
        /// Caller.
        pid: Pid,
        /// Descriptor.
        fd: Fd,
        /// Max bytes.
        max: usize,
    },
    /// `write(2)`.
    SysWrite {
        /// Caller.
        pid: Pid,
        /// Descriptor.
        fd: Fd,
        /// Payload.
        data: Vec<u8>,
    },
    /// `close(2)`.
    SysClose {
        /// Caller.
        pid: Pid,
        /// Descriptor.
        fd: Fd,
    },
    /// `openpty(3)`.
    SysOpenPty {
        /// Caller.
        pid: Pid,
    },
    /// `shmget(2)`.
    SysShmGet {
        /// Caller.
        pid: Pid,
        /// SysV key.
        key: i32,
        /// Segment size in pages.
        pages: usize,
    },
    /// `shm_open(3)`.
    SysShmOpen {
        /// Caller.
        pid: Pid,
        /// POSIX name.
        name: String,
        /// Segment size in pages.
        pages: usize,
    },
    /// `shmat(2)`.
    SysShmAt {
        /// Caller.
        pid: Pid,
        /// Segment to map.
        shm: ShmId,
    },
    /// A store into a mapped segment.
    SysShmWrite {
        /// Caller.
        pid: Pid,
        /// Mapping.
        vma: VmaId,
        /// Byte offset.
        offset: usize,
        /// Payload.
        data: Vec<u8>,
    },
    /// A load from a mapped segment.
    SysShmRead {
        /// Caller.
        pid: Pid,
        /// Mapping.
        vma: VmaId,
        /// Byte offset.
        offset: usize,
        /// Bytes to read.
        len: usize,
    },
    /// A batched mixed stream of interaction notifications and permission
    /// requests ([`System::ingest_batch`]). One recorded event covers the
    /// whole batch, so high-rate harnesses log (and replay, and bisect)
    /// thousands of decisions as a single input.
    IngestBatch {
        /// The batch, in ingestion order.
        events: Vec<IngestEvent>,
    },
}

/// What applying an [`Event`] produced. Replayed runs are deterministic,
/// so a recorded workload can rely on outcomes (pids, fds, window ids)
/// being identical on replay.
#[derive(Debug)]
pub enum ApplyOutcome {
    /// Events with no interesting result (`Settle`, `CrashX`, ...).
    None,
    /// The new virtual time after an `Advance`; `None` when the advance
    /// was refused because it would pass the end of time.
    Time(Option<Timestamp>),
    /// A spawned/forked process.
    Pid(SysResult<Pid>),
    /// A hot-plugged device.
    Device(SysResult<DeviceId>),
    /// A launched GUI app.
    Gui(SysResult<Gui>),
    /// A connected X client.
    Client(ClientId),
    /// An opened descriptor.
    Fd(SysResult<Fd>),
    /// A pty master/slave pair.
    Fds(SysResult<(Fd, Fd)>),
    /// Bytes read.
    Bytes(SysResult<Vec<u8>>),
    /// Bytes written.
    Written(SysResult<usize>),
    /// Unit-result syscalls (`close`, `execve`, shm stores, renames).
    Unit(SysResult<()>),
    /// A shared-memory segment.
    Shm(SysResult<ShmId>),
    /// A shared-memory mapping.
    Vma(SysResult<VmaId>),
    /// The window a click landed on.
    Hit(Option<WindowId>),
    /// Whether a `ClickWindow` hit its target.
    Clicked(bool),
    /// An X reply.
    X(Result<Reply, XError>),
    /// A drained event queue.
    XEvents(Result<Vec<XEvent>, XError>),
    /// Display-manager restart result (replayed alert count).
    Restarted(Result<usize, BootError>),
    /// Batched ingestion outcomes, aligned with the input events
    /// (`Some` per request, `None` per interaction).
    Ingested(Vec<Option<DecisionOutcome>>),
}

impl ApplyOutcome {
    /// The launched GUI app; panics on any other outcome.
    pub fn gui(self) -> SysResult<Gui> {
        match self {
            ApplyOutcome::Gui(gui) => gui,
            other => panic!("expected a GUI outcome, got {other:?}"),
        }
    }

    /// The process id; panics on any other outcome.
    pub fn pid(self) -> SysResult<Pid> {
        match self {
            ApplyOutcome::Pid(pid) => pid,
            other => panic!("expected a pid outcome, got {other:?}"),
        }
    }

    /// The descriptor; panics on any other outcome.
    pub fn fd(self) -> SysResult<Fd> {
        match self {
            ApplyOutcome::Fd(fd) => fd,
            other => panic!("expected an fd outcome, got {other:?}"),
        }
    }

    /// The X reply; panics on any other outcome.
    pub fn x(self) -> Result<Reply, XError> {
        match self {
            ApplyOutcome::X(reply) => reply,
            other => panic!("expected an X outcome, got {other:?}"),
        }
    }

    /// The connected client; panics on any other outcome.
    pub fn client(self) -> ClientId {
        match self {
            ApplyOutcome::Client(client) => client,
            other => panic!("expected a client outcome, got {other:?}"),
        }
    }

    /// The pty pair; panics on any other outcome.
    pub fn fds(self) -> SysResult<(Fd, Fd)> {
        match self {
            ApplyOutcome::Fds(fds) => fds,
            other => panic!("expected a pty-pair outcome, got {other:?}"),
        }
    }

    /// The shm segment; panics on any other outcome.
    pub fn shm(self) -> SysResult<ShmId> {
        match self {
            ApplyOutcome::Shm(shm) => shm,
            other => panic!("expected an shm outcome, got {other:?}"),
        }
    }

    /// The shm mapping; panics on any other outcome.
    pub fn vma(self) -> SysResult<VmaId> {
        match self {
            ApplyOutcome::Vma(vma) => vma,
            other => panic!("expected a vma outcome, got {other:?}"),
        }
    }

    /// The drained events; panics on any other outcome.
    pub fn events(self) -> Result<Vec<XEvent>, XError> {
        match self {
            ApplyOutcome::XEvents(events) => events,
            other => panic!("expected a drained-queue outcome, got {other:?}"),
        }
    }

    /// The batched ingestion outcomes; panics on any other outcome.
    pub fn ingested(self) -> Vec<Option<DecisionOutcome>> {
        match self {
            ApplyOutcome::Ingested(outcomes) => outcomes,
            other => panic!("expected an ingestion outcome, got {other:?}"),
        }
    }
}

/// Applies one event to a live machine, returning its outcome.
///
/// This is the single choke point every driver goes through — live shards,
/// the [`Recorder`], [`replay`], and [`replay_from`] — so it also advances
/// the sketch book's applied-event cursor: every latency observation made
/// while `events[k]` executes is stamped with exemplar `event_idx == k+1`,
/// and a replay from any starting point reproduces the same coordinates
/// (the cursor rides in the snapshot aux).
pub fn apply_event(system: &mut System, event: &Event) -> ApplyOutcome {
    system.sketches().note_event();
    match event {
        Event::Advance(d) => ApplyOutcome::Time(system.advance(*d)),
        Event::Settle => {
            system.settle();
            ApplyOutcome::None
        }
        Event::SpawnProcess { parent, exe } => {
            ApplyOutcome::Pid(system.spawn_process(*parent, exe))
        }
        Event::ConnectX { pid } => ApplyOutcome::Client(system.connect_x(*pid)),
        Event::LaunchGuiApp { exe, rect } => ApplyOutcome::Gui(system.launch_gui_app(exe, *rect)),
        Event::ClickAt { p } => ApplyOutcome::Hit(system.click_at(*p)),
        Event::ClickWindow { window } => ApplyOutcome::Clicked(system.click_window(*window)),
        Event::Key { ch } => ApplyOutcome::Hit(system.key(*ch)),
        Event::XRequest { client, request } => {
            ApplyOutcome::X(system.x_request(*client, request.clone()))
        }
        Event::DrainEvents { client } => {
            ApplyOutcome::XEvents(system.xserver_mut().drain_events(*client))
        }
        Event::OpenDevice { pid, path } => ApplyOutcome::Fd(system.open_device(*pid, path)),
        Event::OpenDevicePrompted { pid, path, approve } => {
            ApplyOutcome::Fd(system.open_device_prompted(*pid, path, *approve))
        }
        Event::CrashX => {
            system.crash_x();
            ApplyOutcome::None
        }
        Event::RestartX => ApplyOutcome::Restarted(system.restart_x()),
        Event::AttachDevice { class, label, path } => {
            ApplyOutcome::Device(system.kernel_mut().attach_device(*class, label, path))
        }
        Event::UdevRename { old, new } => {
            ApplyOutcome::Unit(system.kernel_mut().udev_rename_device(old, new))
        }
        Event::SysSpawn { parent, exe } => {
            ApplyOutcome::Pid(system.kernel_mut().sys_spawn(*parent, exe))
        }
        Event::SysFork { pid } => ApplyOutcome::Pid(system.kernel_mut().sys_fork(*pid)),
        Event::SysExecve { pid, exe } => {
            ApplyOutcome::Unit(system.kernel_mut().sys_execve(*pid, exe))
        }
        Event::SysRead { pid, fd, max } => {
            ApplyOutcome::Bytes(system.kernel_mut().sys_read(*pid, *fd, *max))
        }
        Event::SysWrite { pid, fd, data } => {
            ApplyOutcome::Written(system.kernel_mut().sys_write(*pid, *fd, data))
        }
        Event::SysClose { pid, fd } => ApplyOutcome::Unit(system.kernel_mut().sys_close(*pid, *fd)),
        Event::SysOpenPty { pid } => ApplyOutcome::Fds(system.kernel_mut().sys_openpty(*pid)),
        Event::SysShmGet { pid, key, pages } => {
            ApplyOutcome::Shm(system.kernel_mut().sys_shmget(*pid, *key, *pages))
        }
        Event::SysShmOpen { pid, name, pages } => {
            ApplyOutcome::Shm(system.kernel_mut().sys_shm_open(*pid, name, *pages))
        }
        Event::SysShmAt { pid, shm } => {
            ApplyOutcome::Vma(system.kernel_mut().sys_shmat(*pid, *shm))
        }
        Event::SysShmWrite {
            pid,
            vma,
            offset,
            data,
        } => ApplyOutcome::Unit(system.kernel_mut().sys_shm_write(*pid, *vma, *offset, data)),
        Event::SysShmRead {
            pid,
            vma,
            offset,
            len,
        } => ApplyOutcome::Bytes(system.kernel_mut().sys_shm_read(*pid, *vma, *offset, *len)),
        Event::IngestBatch { events } => ApplyOutcome::Ingested(system.ingest_batch(events)),
    }
}

/// A recorded run: the boot configuration, every external input in order,
/// and the final state hash the replay must reproduce.
#[derive(Debug, Clone)]
pub struct EventLog {
    /// The configuration the machine booted with (fixes the fault seed).
    pub config: OverhaulConfig,
    /// Every external input, in order.
    pub events: Vec<Event>,
    /// The recorded final [`System::state_hash`], once sealed.
    pub final_state_hash: Option<u64>,
    /// The recorded final [`System::ledger_head`], once sealed: a replayed
    /// run must re-land on the identical sealed chain hash, so history
    /// divergence is caught even when two states coincide.
    pub final_ledger_head: Option<u64>,
}

impl EventLog {
    /// The events from index `k` on (the suffix fed to [`replay_from`]
    /// alongside a snapshot taken after event `k`).
    pub fn suffix(&self, k: usize) -> &[Event] {
        &self.events[k..]
    }

    /// Serializes the log (versioned, same container as snapshots).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.config.pack(&mut enc);
        self.events.pack(&mut enc);
        self.final_state_hash.pack(&mut enc);
        self.final_ledger_head.pack(&mut enc);
        Snapshot::new(enc.into_bytes(), Vec::new()).to_bytes()
    }

    /// Parses a log serialized by [`EventLog::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from a truncated or corrupt input.
    pub fn from_bytes(bytes: &[u8]) -> Result<EventLog, SnapshotError> {
        let container = Snapshot::from_bytes(bytes)?;
        let mut dec = Dec::new(container.state());
        let log = EventLog {
            config: Pack::unpack(&mut dec)?,
            events: Pack::unpack(&mut dec)?,
            final_state_hash: Pack::unpack(&mut dec)?,
            final_ledger_head: Pack::unpack(&mut dec)?,
        };
        dec.finish()?;
        Ok(log)
    }
}

/// Records a run: boots a machine and applies events while logging them.
#[derive(Debug)]
pub struct Recorder {
    system: System,
    log: EventLog,
}

impl Recorder {
    /// Boots a machine with `config` and starts recording.
    ///
    /// # Panics
    ///
    /// Panics if boot fails (same contract as [`System::new`]).
    pub fn new(config: OverhaulConfig) -> Self {
        let system = System::new(config.clone());
        Recorder {
            system,
            log: EventLog {
                config,
                events: Vec::new(),
                final_state_hash: None,
                final_ledger_head: None,
            },
        }
    }

    /// The live machine (for assertions mid-recording; reads only —
    /// mutating it outside [`Recorder::apply`] would break replay).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Events recorded so far.
    pub fn events_recorded(&self) -> usize {
        self.log.events.len()
    }

    /// Checkpoints the live machine mid-recording (pairs the snapshot with
    /// [`EventLog::suffix`] at the current event count).
    pub fn snapshot(&mut self) -> Snapshot {
        self.system.snapshot()
    }

    /// Applies `event` to the machine and appends it to the log.
    pub fn apply(&mut self, event: Event) -> ApplyOutcome {
        let outcome = apply_event(&mut self.system, &event);
        self.log.events.push(event);
        outcome
    }

    /// Seals the recording: stamps the final state hash into the log and
    /// returns the machine alongside it.
    pub fn finish(mut self) -> (System, EventLog) {
        self.log.final_state_hash = Some(self.system.state_hash());
        self.log.final_ledger_head = Some(self.system.ledger_head());
        (self.system, self.log)
    }
}

/// Checks a replayed machine against the log's recorded state hash and
/// sealed ledger head, counting a divergence on either mismatch.
fn check_divergence(
    system: &mut System,
    expected: Option<u64>,
    expected_ledger_head: Option<u64>,
) -> bool {
    let state_diverged = matches!(expected, Some(hash) if system.state_hash() != hash);
    let history_diverged =
        matches!(expected_ledger_head, Some(head) if system.ledger_head() != head);
    if state_diverged || history_diverged {
        system.kernel_mut().note_replay_divergence();
        return true;
    }
    false
}

/// Replays a recorded run from boot: boots a fresh machine with the log's
/// configuration and re-applies every event. The result must satisfy
/// `system.state_hash() == log.final_state_hash`; a mismatch increments
/// the kernel's `overhaul_replay_divergence_total` gauge.
///
/// # Errors
///
/// [`BootError`] when the machine cannot boot (which a recorded log
/// implies it can, absent corruption).
pub fn replay(log: &EventLog) -> Result<System, BootError> {
    let mut system = System::try_new(log.config.clone())?;
    for event in &log.events {
        apply_event(&mut system, event);
    }
    check_divergence(&mut system, log.final_state_hash, log.final_ledger_head);
    Ok(system)
}

/// Replays a log suffix from a mid-run checkpoint: restores the snapshot
/// and re-applies `suffix` (obtained from [`EventLog::suffix`] at the
/// event count where the snapshot was taken). `expected` is the recorded
/// final hash; a mismatch increments the divergence gauge.
///
/// # Errors
///
/// Any [`SnapshotError`] from a truncated or corrupt snapshot.
pub fn replay_from(
    snapshot: &Snapshot,
    suffix: &[Event],
    expected: Option<u64>,
) -> Result<System, SnapshotError> {
    let mut system = System::from_snapshot(snapshot)?;
    for event in suffix {
        apply_event(&mut system, event);
    }
    check_divergence(&mut system, expected, None);
    Ok(system)
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_kernel::error::Errno;
    use overhaul_sim::SimDuration;

    fn scripted_workload(rec: &mut Recorder) {
        let gui = rec
            .apply(Event::LaunchGuiApp {
                exe: "/usr/bin/recorder".into(),
                rect: Rect::new(0, 0, 640, 480),
            })
            .gui()
            .expect("launch");
        rec.apply(Event::Settle);
        rec.apply(Event::ClickWindow { window: gui.window });
        rec.apply(Event::OpenDevice {
            pid: gui.pid,
            path: "/dev/snd/mic0".into(),
        });
        rec.apply(Event::Advance(SimDuration::from_secs(5)));
        rec.apply(Event::OpenDevice {
            pid: gui.pid,
            path: "/dev/snd/mic0".into(),
        });
    }

    #[test]
    fn event_log_round_trips_through_bytes() {
        let mut rec = Recorder::new(OverhaulConfig::protected());
        scripted_workload(&mut rec);
        let (_, log) = rec.finish();
        assert!(log.final_state_hash.is_some());
        let decoded = EventLog::from_bytes(&log.to_bytes()).expect("decode");
        assert_eq!(decoded.events, log.events);
        assert_eq!(decoded.final_state_hash, log.final_state_hash);
        assert_eq!(decoded.config, log.config);
    }

    #[test]
    fn replay_reproduces_recorded_state_hash() {
        let mut rec = Recorder::new(OverhaulConfig::protected());
        scripted_workload(&mut rec);
        let (recorded, log) = rec.finish();
        let replayed = replay(&log).expect("replay boots");
        assert_eq!(replayed.state_hash(), recorded.state_hash());
        assert_eq!(
            replayed.kernel().snapshot_stats().replay_divergence,
            0,
            "a faithful replay must not count a divergence"
        );
    }

    #[test]
    fn replay_from_snapshot_matches_full_run() {
        let mut rec = Recorder::new(OverhaulConfig::protected());
        scripted_workload(&mut rec);
        let snapshot = rec.snapshot();
        let k = rec.events_recorded();
        rec.apply(Event::Advance(SimDuration::from_millis(100)));
        rec.apply(Event::Key { ch: 'q' });
        let (recorded, log) = rec.finish();
        let resumed = replay_from(&snapshot, log.suffix(k), log.final_state_hash).expect("restore");
        assert_eq!(resumed.state_hash(), recorded.state_hash());
        assert_eq!(resumed.kernel().snapshot_stats().replay_divergence, 0);
    }

    #[test]
    fn replay_with_tracing_reproduces_trace_dump() {
        let config = OverhaulConfig::protected().with_tracing();
        let mut rec = Recorder::new(config);
        scripted_workload(&mut rec);
        let (recorded, log) = rec.finish();
        let replayed = replay(&log).expect("replay boots");
        assert_eq!(replayed.state_hash(), recorded.state_hash());
        assert_eq!(replayed.trace_dump(), recorded.trace_dump());
    }

    #[test]
    fn replay_relands_on_the_sealed_ledger_head() {
        let mut rec = Recorder::new(OverhaulConfig::protected());
        scripted_workload(&mut rec);
        let (recorded, log) = rec.finish();
        assert_eq!(log.final_ledger_head, Some(recorded.ledger_head()));
        let replayed = replay(&log).expect("replay boots");
        assert_eq!(replayed.ledger_head(), recorded.ledger_head());
        assert_eq!(replayed.kernel().snapshot_stats().replay_divergence, 0);
        replayed.verify_ledgers().expect("replayed chain verifies");
    }

    #[test]
    fn divergence_is_counted_on_ledger_head_mismatch() {
        let mut rec = Recorder::new(OverhaulConfig::protected());
        scripted_workload(&mut rec);
        let (_, mut log) = rec.finish();
        log.final_ledger_head = Some(log.final_ledger_head.unwrap() ^ 1);
        let replayed = replay(&log).expect("replay boots");
        assert_eq!(replayed.kernel().snapshot_stats().replay_divergence, 1);
    }

    #[test]
    fn a_second_attach_at_one_path_is_refused_and_the_log_replays() {
        let attach = |label: &str, path: &str| Event::AttachDevice {
            class: DeviceClass::Camera,
            label: label.into(),
            path: path.into(),
        };
        let mut rec = Recorder::new(OverhaulConfig::protected());
        let first = rec.apply(attach("usbcam", "/dev/video9"));
        assert!(matches!(first, ApplyOutcome::Device(Ok(_))), "{first:?}");
        let (hash, head) = (rec.system().state_hash(), rec.system().ledger_head());
        for (path, errno) in [
            ("/dev/video9", Errno::Eexist),
            ("/dev/video9/x", Errno::Enotdir),
            ("dev/video10", Errno::Einval),
        ] {
            let refused = rec.apply(attach("second", path));
            assert!(
                matches!(refused, ApplyOutcome::Device(Err(e)) if e == errno),
                "{path}: {refused:?}"
            );
        }
        assert_eq!(rec.system().state_hash(), hash, "a refusal leaves no trace");
        assert_eq!(rec.system().ledger_head(), head);
        let (recorded, log) = rec.finish();
        let replayed = replay(&log).expect("replay boots");
        assert_eq!(replayed.state_hash(), recorded.state_hash());
        assert_eq!(replayed.kernel().snapshot_stats().replay_divergence, 0);
    }

    #[test]
    fn an_advance_past_the_end_of_time_is_refused_and_the_log_replays() {
        let mut rec = Recorder::new(OverhaulConfig::protected());
        let start = rec.system().now();
        let one_ms = SimDuration::from_millis(1);
        let at = rec.apply(Event::Advance(one_ms));
        assert!(matches!(at, ApplyOutcome::Time(Some(t)) if t == start + one_ms));
        let refused = rec.apply(Event::Advance(SimDuration::from_millis(u64::MAX)));
        assert!(matches!(refused, ApplyOutcome::Time(None)), "{refused:?}");
        let (recorded, log) = rec.finish();
        assert_eq!(recorded.now(), start + one_ms, "the clock did not move");
        let replayed = replay(&log).expect("replay boots");
        assert_eq!(replayed.now(), start + one_ms);
        assert_eq!(replayed.state_hash(), recorded.state_hash());
    }

    #[test]
    fn divergence_is_counted_on_hash_mismatch() {
        let mut rec = Recorder::new(OverhaulConfig::protected());
        scripted_workload(&mut rec);
        let (_, mut log) = rec.finish();
        log.final_state_hash = Some(log.final_state_hash.unwrap() ^ 1);
        let replayed = replay(&log).expect("replay boots");
        assert_eq!(replayed.kernel().snapshot_stats().replay_divergence, 1);
    }
}

mod pack {
    //! Event-log codec.

    use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};

    use super::Event;

    impl Pack for Event {
        fn pack(&self, enc: &mut Enc) {
            match self {
                Event::Advance(d) => {
                    enc.put_u8(0);
                    d.pack(enc);
                }
                Event::Settle => enc.put_u8(1),
                Event::SpawnProcess { parent, exe } => {
                    enc.put_u8(2);
                    parent.pack(enc);
                    exe.pack(enc);
                }
                Event::ConnectX { pid } => {
                    enc.put_u8(3);
                    pid.pack(enc);
                }
                Event::LaunchGuiApp { exe, rect } => {
                    enc.put_u8(4);
                    exe.pack(enc);
                    rect.pack(enc);
                }
                Event::ClickAt { p } => {
                    enc.put_u8(5);
                    p.pack(enc);
                }
                Event::ClickWindow { window } => {
                    enc.put_u8(6);
                    window.pack(enc);
                }
                Event::Key { ch } => {
                    enc.put_u8(7);
                    ch.pack(enc);
                }
                Event::XRequest { client, request } => {
                    enc.put_u8(8);
                    client.pack(enc);
                    request.pack(enc);
                }
                Event::DrainEvents { client } => {
                    enc.put_u8(27);
                    client.pack(enc);
                }
                Event::OpenDevice { pid, path } => {
                    enc.put_u8(9);
                    pid.pack(enc);
                    path.pack(enc);
                }
                Event::OpenDevicePrompted { pid, path, approve } => {
                    enc.put_u8(10);
                    pid.pack(enc);
                    path.pack(enc);
                    approve.pack(enc);
                }
                Event::CrashX => enc.put_u8(11),
                Event::RestartX => enc.put_u8(12),
                Event::AttachDevice { class, label, path } => {
                    enc.put_u8(13);
                    class.pack(enc);
                    label.pack(enc);
                    path.pack(enc);
                }
                Event::UdevRename { old, new } => {
                    enc.put_u8(14);
                    old.pack(enc);
                    new.pack(enc);
                }
                Event::SysSpawn { parent, exe } => {
                    enc.put_u8(15);
                    parent.pack(enc);
                    exe.pack(enc);
                }
                Event::SysFork { pid } => {
                    enc.put_u8(16);
                    pid.pack(enc);
                }
                Event::SysExecve { pid, exe } => {
                    enc.put_u8(17);
                    pid.pack(enc);
                    exe.pack(enc);
                }
                Event::SysRead { pid, fd, max } => {
                    enc.put_u8(18);
                    pid.pack(enc);
                    fd.pack(enc);
                    max.pack(enc);
                }
                Event::SysWrite { pid, fd, data } => {
                    enc.put_u8(19);
                    pid.pack(enc);
                    fd.pack(enc);
                    data.pack(enc);
                }
                Event::SysClose { pid, fd } => {
                    enc.put_u8(20);
                    pid.pack(enc);
                    fd.pack(enc);
                }
                Event::SysOpenPty { pid } => {
                    enc.put_u8(21);
                    pid.pack(enc);
                }
                Event::SysShmGet { pid, key, pages } => {
                    enc.put_u8(22);
                    pid.pack(enc);
                    key.pack(enc);
                    pages.pack(enc);
                }
                Event::SysShmOpen { pid, name, pages } => {
                    enc.put_u8(23);
                    pid.pack(enc);
                    name.pack(enc);
                    pages.pack(enc);
                }
                Event::SysShmAt { pid, shm } => {
                    enc.put_u8(24);
                    pid.pack(enc);
                    shm.pack(enc);
                }
                Event::SysShmWrite {
                    pid,
                    vma,
                    offset,
                    data,
                } => {
                    enc.put_u8(25);
                    pid.pack(enc);
                    vma.pack(enc);
                    offset.pack(enc);
                    data.pack(enc);
                }
                Event::SysShmRead {
                    pid,
                    vma,
                    offset,
                    len,
                } => {
                    enc.put_u8(26);
                    pid.pack(enc);
                    vma.pack(enc);
                    offset.pack(enc);
                    len.pack(enc);
                }
                Event::IngestBatch { events } => {
                    enc.put_u8(28);
                    events.pack(enc);
                }
            }
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => Event::Advance(Pack::unpack(dec)?),
                1 => Event::Settle,
                2 => Event::SpawnProcess {
                    parent: Pack::unpack(dec)?,
                    exe: Pack::unpack(dec)?,
                },
                3 => Event::ConnectX {
                    pid: Pack::unpack(dec)?,
                },
                4 => Event::LaunchGuiApp {
                    exe: Pack::unpack(dec)?,
                    rect: Pack::unpack(dec)?,
                },
                5 => Event::ClickAt {
                    p: Pack::unpack(dec)?,
                },
                6 => Event::ClickWindow {
                    window: Pack::unpack(dec)?,
                },
                7 => Event::Key {
                    ch: Pack::unpack(dec)?,
                },
                8 => Event::XRequest {
                    client: Pack::unpack(dec)?,
                    request: Pack::unpack(dec)?,
                },
                9 => Event::OpenDevice {
                    pid: Pack::unpack(dec)?,
                    path: Pack::unpack(dec)?,
                },
                10 => Event::OpenDevicePrompted {
                    pid: Pack::unpack(dec)?,
                    path: Pack::unpack(dec)?,
                    approve: Pack::unpack(dec)?,
                },
                11 => Event::CrashX,
                12 => Event::RestartX,
                13 => Event::AttachDevice {
                    class: Pack::unpack(dec)?,
                    label: Pack::unpack(dec)?,
                    path: Pack::unpack(dec)?,
                },
                14 => Event::UdevRename {
                    old: Pack::unpack(dec)?,
                    new: Pack::unpack(dec)?,
                },
                15 => Event::SysSpawn {
                    parent: Pack::unpack(dec)?,
                    exe: Pack::unpack(dec)?,
                },
                16 => Event::SysFork {
                    pid: Pack::unpack(dec)?,
                },
                17 => Event::SysExecve {
                    pid: Pack::unpack(dec)?,
                    exe: Pack::unpack(dec)?,
                },
                18 => Event::SysRead {
                    pid: Pack::unpack(dec)?,
                    fd: Pack::unpack(dec)?,
                    max: Pack::unpack(dec)?,
                },
                19 => Event::SysWrite {
                    pid: Pack::unpack(dec)?,
                    fd: Pack::unpack(dec)?,
                    data: Pack::unpack(dec)?,
                },
                20 => Event::SysClose {
                    pid: Pack::unpack(dec)?,
                    fd: Pack::unpack(dec)?,
                },
                21 => Event::SysOpenPty {
                    pid: Pack::unpack(dec)?,
                },
                22 => Event::SysShmGet {
                    pid: Pack::unpack(dec)?,
                    key: Pack::unpack(dec)?,
                    pages: Pack::unpack(dec)?,
                },
                23 => Event::SysShmOpen {
                    pid: Pack::unpack(dec)?,
                    name: Pack::unpack(dec)?,
                    pages: Pack::unpack(dec)?,
                },
                24 => Event::SysShmAt {
                    pid: Pack::unpack(dec)?,
                    shm: Pack::unpack(dec)?,
                },
                25 => Event::SysShmWrite {
                    pid: Pack::unpack(dec)?,
                    vma: Pack::unpack(dec)?,
                    offset: Pack::unpack(dec)?,
                    data: Pack::unpack(dec)?,
                },
                26 => Event::SysShmRead {
                    pid: Pack::unpack(dec)?,
                    vma: Pack::unpack(dec)?,
                    offset: Pack::unpack(dec)?,
                    len: Pack::unpack(dec)?,
                },
                27 => Event::DrainEvents {
                    client: Pack::unpack(dec)?,
                },
                28 => Event::IngestBatch {
                    events: Pack::unpack(dec)?,
                },
                _ => return Err(SnapshotError::BadValue("event")),
            })
        }
    }
}
