//! The assembled Overhaul machine: kernel + display manager + wiring.
//!
//! [`System`] owns one simulated kernel and one simulated X server sharing
//! a virtual clock, connects them over the authenticated netlink channel,
//! and exposes the operations experiment harnesses need: launching
//! processes and GUI apps, injecting hardware input, issuing X requests,
//! opening devices, and pumping kernel alert pushes onto the overlay.

use std::fmt;

use overhaul_kernel::error::{Errno, SysResult};
use overhaul_kernel::monitor::AlertRequest;
use overhaul_kernel::netlink::{ChannelState, ConnId, NetlinkError};
use overhaul_kernel::syscall::OpenMode;
use overhaul_kernel::{Kernel, XORG_PATH};
use overhaul_sim::snapshot::{hash64, Dec, Enc, Pack, Snapshot, SnapshotError};
use overhaul_sim::{
    AuditCategory, AuditLog, Clock, ControlPlane, FaultPlan, Fd, Ledger, LedgerError, Mechanism,
    ModelledCost, Pid, SimDuration, SketchBook, Timestamp, Tracer,
};
use overhaul_xserver::geometry::{Point, Rect};
use overhaul_xserver::overlay::Alert;
use overhaul_xserver::protocol::{ClientId, Reply, Request, XError};
use overhaul_xserver::window::WindowId;
use overhaul_xserver::XServer;

use crate::config::OverhaulConfig;
use crate::integrated::DirectMonitorLink;
use crate::link::NetlinkMonitorLink;

/// Handles to a launched GUI application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gui {
    /// Kernel process.
    pub pid: Pid,
    /// X client connection.
    pub client: ClientId,
    /// The app's (mapped) main window.
    pub window: WindowId,
}

/// Why a machine failed to boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootError {
    /// Spawning the display-manager process failed.
    Spawn(Errno),
    /// The netlink channel could not authenticate, even after bounded
    /// retries of transient failures.
    ChannelAuth(NetlinkError),
    /// A configured device could not be attached (two at one path).
    Device(Errno),
}

impl fmt::Display for BootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootError::Spawn(errno) => {
                write!(f, "spawning the display manager failed: {errno}")
            }
            BootError::ChannelAuth(err) => {
                write!(f, "netlink channel authentication failed: {err}")
            }
            BootError::Device(errno) => write!(f, "attaching a configured device failed: {errno}"),
        }
    }
}

impl std::error::Error for BootError {}

/// A complete simulated machine.
#[derive(Debug)]
pub struct System {
    clock: Clock,
    kernel: Kernel,
    x: XServer,
    x_pid: Pid,
    x_conn: Option<ConnId>,
    /// The display manager is kernel code (§III): it calls the permission
    /// monitor in-process and no channel exists. Every other setting is
    /// held by its owner: the kernel's [`Kernel::config`], the display
    /// manager's [`XServer::config`], the kernel's fault plan and device
    /// map, and the tracer.
    integrated_dm: bool,
    /// Shared span tracer. Disabled unless booted with tracing; clones of
    /// this handle live inside the kernel and the display manager, all
    /// writing into one buffer so `trace_dump` shows the interleaved span
    /// tree.
    tracer: Tracer,
}

impl System {
    /// How many times boot (and restart) retries a transiently failing
    /// channel authentication before giving up.
    const BOOT_AUTH_ATTEMPTS: u32 = 4;

    /// Boots a machine with `config`: kernel, devices, X server process,
    /// and — when Overhaul is active — the authenticated netlink channel.
    ///
    /// # Panics
    ///
    /// Panics if boot fails; use [`System::try_new`] to handle
    /// [`BootError`] instead.
    pub fn new(config: OverhaulConfig) -> Self {
        System::try_new(config).unwrap_or_else(|err| panic!("boot failed: {err}"))
    }

    /// Boots a machine with `config`, reporting failures instead of
    /// panicking: a dead init, or a channel that cannot authenticate even
    /// after bounded retries (e.g. under an injected VFS fault plan).
    ///
    /// # Errors
    ///
    /// [`BootError::Spawn`] when the display-manager process cannot be
    /// created; [`BootError::ChannelAuth`] when channel authentication
    /// keeps failing; [`BootError::Device`] when two configured devices
    /// share a path.
    pub fn try_new(config: OverhaulConfig) -> Result<Self, BootError> {
        let clock = Clock::new();
        let tracer = if config.tracing {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let mut kernel = Kernel::new(clock.clone(), config.kernel.clone());
        kernel.install_tracer(tracer.clone());
        if let Some(spec) = &config.fault {
            kernel.install_fault_plan(FaultPlan::new(spec.clone()));
        }
        for device in &config.devices {
            kernel
                .attach_device(device.class, &device.label, &device.path)
                .map_err(BootError::Device)?;
        }
        let x_pid = kernel
            .sys_spawn(Pid::INIT, XORG_PATH)
            .map_err(BootError::Spawn)?;
        // An integrated display manager is kernel code: no channel exists.
        let wants_channel =
            !config.integrated_dm && (config.kernel.overhaul_enabled || config.x.overhaul_enabled);
        let x_conn = if wants_channel {
            // With a channel-wired display manager the monitor must fail
            // closed whenever that channel is down.
            kernel.set_channel_required(true);
            Some(Self::connect_channel(&clock, &mut kernel, x_pid)?)
        } else {
            None
        };
        let mut x = XServer::new(clock.clone(), config.x.clone());
        x.install_tracer(tracer.clone());
        Ok(System {
            clock,
            kernel,
            x,
            x_pid,
            x_conn,
            integrated_dm: config.integrated_dm,
            tracer,
        })
    }

    /// Authenticates the display manager's netlink connection, retrying
    /// transient failures a bounded number of times with exponential
    /// virtual-time backoff.
    fn connect_channel(
        clock: &Clock,
        kernel: &mut Kernel,
        x_pid: Pid,
    ) -> Result<ConnId, BootError> {
        let backoff = kernel.config().channel_retry_backoff;
        let mut attempt = 0u32;
        loop {
            match kernel.netlink_connect(x_pid) {
                Ok(conn) => return Ok(conn),
                Err(NetlinkError::AuthTransient) if attempt + 1 < Self::BOOT_AUTH_ATTEMPTS => {
                    attempt += 1;
                    clock.advance(backoff.saturating_doubled(attempt - 1));
                }
                Err(err) => return Err(BootError::ChannelAuth(err)),
            }
        }
    }

    /// Boots the paper's protected configuration.
    pub fn protected() -> Self {
        System::new(OverhaulConfig::protected())
    }

    /// Boots an unmodified (baseline) machine.
    pub fn baseline() -> Self {
        System::new(OverhaulConfig::baseline())
    }

    /// Boots the Table I grant-all measurement configuration.
    pub fn grant_all() -> Self {
        System::new(OverhaulConfig::grant_all())
    }

    /// Boots a protected machine with a kernel-integrated display manager
    /// (the §III design variant: no netlink channel).
    pub fn integrated() -> Self {
        System::new(OverhaulConfig::integrated())
    }

    /// Runs `f` with the display manager and the wiring-appropriate
    /// monitor link (netlink, in-process, or grant-all for baselines).
    fn with_link<R>(
        &mut self,
        f: impl FnOnce(&mut XServer, &mut dyn overhaul_xserver::protocol::MonitorLink) -> R,
    ) -> R {
        if self.integrated_dm {
            let mut link = DirectMonitorLink::new(&mut self.kernel);
            f(&mut self.x, &mut link)
        } else if let Some(conn) = self.x_conn {
            let mut link = NetlinkMonitorLink::new(&mut self.kernel, conn);
            f(&mut self.x, &mut link)
        } else if self.overhaul_enabled() {
            // Overhaul is on but the channel is gone (display-manager
            // crash): losing the channel must never widen access.
            let mut link = overhaul_xserver::protocol::DenyAllLink;
            f(&mut self.x, &mut link)
        } else {
            let mut link = overhaul_xserver::protocol::GrantAllLink;
            f(&mut self.x, &mut link)
        }
    }

    /// Whether Overhaul is active in the kernel or the display manager.
    fn overhaul_enabled(&self) -> bool {
        self.kernel.overhaul_enabled() || self.x.config().overhaul_enabled
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Advances virtual time and runs kernel housekeeping (the shm wait
    /// list re-arm). If the kernel's fault plan scheduled a display-manager
    /// crash before `now`, the crash fires here. An advance past the end of
    /// time is refused: nothing changes and the result is `None`.
    pub fn advance(&mut self, d: SimDuration) -> Option<Timestamp> {
        let now = self.clock.advance(d)?;
        let crash_due = self
            .kernel
            .fault_plan_mut()
            .is_some_and(|plan| plan.x_crash_due(now));
        if crash_due && self.x_alive() {
            self.crash_x();
        }
        self.kernel.tick();
        Some(now)
    }

    /// The kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable kernel access (syscalls).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// The display manager.
    pub fn xserver(&self) -> &XServer {
        &self.x
    }

    /// Modelled real-world cost the kernel and the display manager have
    /// charged (see [`overhaul_sim::work`]). Never part of a snapshot or
    /// the state hash; zero on a restored machine. Harnesses that need
    /// realistic wall time read it around an operation and wait out the
    /// difference.
    pub fn modelled_cost(&self) -> ModelledCost {
        self.kernel.modelled_cost() + self.x.modelled_cost()
    }

    /// Mutable display-manager access.
    pub fn xserver_mut(&mut self) -> &mut XServer {
        &mut self.x
    }

    /// The X server's kernel process.
    pub fn x_pid(&self) -> Pid {
        self.x_pid
    }

    /// The display manager's netlink connection, if one is up.
    pub fn x_conn(&self) -> Option<ConnId> {
        self.x_conn
    }

    /// Whether the display-manager process is currently running.
    pub fn x_alive(&self) -> bool {
        self.kernel.tasks().is_running(self.x_pid)
    }

    /// Health of the kernel↔display-manager channel.
    pub fn channel_state(&self) -> ChannelState {
        self.kernel.channel_state()
    }

    /// The kernel's fault plan, if one is installed (at boot from the
    /// configuration, or later through [`Kernel::install_fault_plan`]).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.kernel.fault_plan()
    }

    /// The kernel-side audit log (a view of [`System::kernel_ledger`]).
    pub fn kernel_audit(&self) -> AuditLog<'_> {
        self.kernel.audit()
    }

    /// The shared span tracer. Disabled (a no-op handle) unless the
    /// machine was booted with [`OverhaulConfig::with_tracing`].
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The machine's latency-sketch book, kept by the kernel (always
    /// recording; see the [`overhaul_sim::sketch`] module docs for the
    /// two-plane split).
    pub fn sketch_book(&self) -> &SketchBook {
        self.kernel.sketch_book()
    }

    /// Stamps the machine's identity (its shard seed) into every exemplar
    /// it records from now on. Fleet harnesses call this right after boot.
    pub fn set_sketch_seed(&mut self, seed: u64) {
        self.kernel.sketch_book_mut().set_seed(seed);
    }

    /// Installs an exemplar-confirmation watch: while the applied-event
    /// cursor equals `event_idx`, observations of any mechanism in `mechs`
    /// have their `(span id, ledger seq)` captured.
    pub fn sketch_watch(&mut self, mechs: Vec<Mechanism>, event_idx: u64) {
        self.kernel.sketch_book_mut().set_watch(mechs, event_idx);
    }

    /// The coordinates captured by the current sketch watch.
    pub fn sketch_watched(&self) -> &[(u64, u64)] {
        self.kernel.sketch_book().watched()
    }

    /// Renders every span recorded so far as a deterministic JSON tree:
    /// the same configuration, seed, and workload produce byte-identical
    /// output. With tracing disabled this is the empty tree (`[]`).
    pub fn trace_dump(&self) -> String {
        self.tracer.render_json()
    }

    /// The unified metrics page, exactly as a process would read it from
    /// `/proc/overhaul/metrics`.
    pub fn metrics(&self) -> String {
        self.kernel.render_metrics()
    }

    /// The unified metrics as a structured registry (the same data behind
    /// [`System::metrics`]). Fleet harnesses merge these across shards
    /// instead of re-parsing rendered pages.
    pub fn metrics_registry(&self) -> overhaul_sim::MetricsRegistry {
        self.kernel.metrics_registry()
    }

    /// The display-manager audit log (a view of [`System::x_ledger`]).
    pub fn x_audit(&self) -> AuditLog<'_> {
        self.x.audit()
    }

    // ---------------------------------------------------------------
    // Authoritative ledger
    // ---------------------------------------------------------------

    /// The kernel's hash-chained ledger (the authoritative history the
    /// kernel audit log reads).
    pub fn kernel_ledger(&self) -> &Ledger {
        self.kernel.ledger()
    }

    /// The display manager's hash-chained ledger.
    pub fn x_ledger(&self) -> &Ledger {
        self.x.ledger()
    }

    /// A compact digest of the kernel's ledger (chain anchors, effect
    /// histogram, reduced control plane) — what a shard ships to the
    /// fleet's ledger aggregation/diff view.
    pub fn ledger_summary(&self) -> overhaul_sim::LedgerSummary {
        overhaul_sim::LedgerSummary::of(self.kernel.ledger())
    }

    /// The machine's sealed chain head: [`hash64`] over the kernel and
    /// display-manager chain heads. Two machines with equal ledger heads
    /// recorded byte-identical histories.
    pub fn ledger_head(&self) -> u64 {
        let mut enc = Enc::new();
        self.kernel.ledger().head().pack(&mut enc);
        self.x.ledger().head().pack(&mut enc);
        hash64(enc.bytes())
    }

    /// Chain-verifies both component ledgers.
    ///
    /// # Errors
    ///
    /// The first [`LedgerError`] found in either chain.
    pub fn verify_ledgers(&self) -> Result<(), LedgerError> {
        self.kernel.ledger().verify_chain()?;
        self.x.ledger().verify_chain()
    }

    /// The kernel's live control-plane state (policy switches, channel
    /// health, device map, quarantine set) — the reduction target the
    /// ledger must re-derive.
    pub fn control_plane(&self) -> ControlPlane {
        self.kernel.control_plane()
    }

    /// Re-derives the control-plane state by folding the kernel ledger's
    /// effects over the boot state. On an uncorrupted machine this is
    /// byte-identical (same [`ControlPlane::state_hash`]) to
    /// [`System::control_plane`]: control-plane state is verifiably a
    /// deterministic reduction of the ledger.
    pub fn reduce(&self) -> ControlPlane {
        self.kernel.ledger().reduce(ControlPlane::default())
    }

    // ---------------------------------------------------------------
    // Process / app lifecycle
    // ---------------------------------------------------------------

    /// Spawns a process running `exe` as a child of `parent`
    /// (init if `None`).
    ///
    /// # Errors
    ///
    /// Propagates kernel spawn errors.
    pub fn spawn_process(&mut self, parent: Option<Pid>, exe: &str) -> SysResult<Pid> {
        self.kernel.sys_spawn(parent.unwrap_or(Pid::INIT), exe)
    }

    /// Connects a process to the X server (the server learns the pid from
    /// kernel socket introspection, modeled here by the core doing the
    /// lookup).
    pub fn connect_x(&mut self, pid: Pid) -> ClientId {
        self.x.connect_client(pid)
    }

    /// Launches a GUI application: spawns the process, connects it to X,
    /// and creates + maps its main window. The window is *not* yet "stable"
    /// for the clickjacking gate; call [`System::settle`] before clicking.
    ///
    /// # Errors
    ///
    /// [`Errno::Einval`] before anything is spawned if `rect` is not
    /// [`Rect::in_x11_range`], which `CreateWindow` would refuse; otherwise
    /// propagates kernel errors, and X errors cannot occur for a fresh
    /// client.
    pub fn launch_gui_app(&mut self, exe: &str, rect: Rect) -> SysResult<Gui> {
        if !rect.in_x11_range() {
            return Err(Errno::Einval);
        }
        let pid = self.spawn_process(None, exe)?;
        let client = self.connect_x(pid);
        let window = match self.x_request(client, Request::CreateWindow { rect }) {
            Ok(Reply::Window(w)) => w,
            _ => unreachable!("CreateWindow on a fresh client cannot fail"),
        };
        let _ = self.x_request(client, Request::MapWindow { window });
        Ok(Gui {
            pid,
            client,
            window,
        })
    }

    /// Advances past the clickjacking visibility threshold so freshly
    /// mapped windows accept trusted input.
    pub fn settle(&mut self) {
        let threshold = self.x.config().visibility_threshold;
        self.advance(threshold + SimDuration::from_millis(1));
    }

    // ---------------------------------------------------------------
    // User input
    // ---------------------------------------------------------------

    /// A hardware click at screen coordinates.
    pub fn click_at(&mut self, p: Point) -> Option<WindowId> {
        let hit = self.with_link(|x, link| x.hardware_click(p, link));
        self.pump_alerts();
        hit
    }

    /// A hardware click on the center of `window`. Returns `false` if the
    /// click actually landed on another window (occlusion).
    pub fn click_window(&mut self, window: WindowId) -> bool {
        let Ok(rect) = self.x.windows().get(window).map(|w| w.rect()) else {
            return false;
        };
        let center = Point::new(
            rect.x + rect.width as i32 / 2,
            rect.y + rect.height as i32 / 2,
        );
        self.click_at(center) == Some(window)
    }

    /// A hardware key press (goes to the focus window).
    pub fn key(&mut self, ch: char) -> Option<WindowId> {
        let hit = self.with_link(|x, link| x.hardware_key(ch, link));
        self.pump_alerts();
        hit
    }

    // ---------------------------------------------------------------
    // Requests & devices
    // ---------------------------------------------------------------

    /// Issues an X request on behalf of `client`, with the kernel monitor
    /// wired in, then pumps any resulting alert pushes onto the overlay.
    ///
    /// # Errors
    ///
    /// The X server's protocol errors, including `BadAccess` for Overhaul
    /// denials.
    pub fn x_request(&mut self, client: ClientId, request: Request) -> Result<Reply, XError> {
        let result = self.with_link(|x, link| x.request(client, request, link));
        self.pump_alerts();
        result
    }

    /// Opens a device node on behalf of `pid` (read-only), pumping alerts.
    ///
    /// # Errors
    ///
    /// `EACCES` when Overhaul blocks the access, plus ordinary path errors.
    pub fn open_device(&mut self, pid: Pid, path: &str) -> SysResult<Fd> {
        let result = self.kernel.sys_open(pid, path, OpenMode::ReadOnly);
        self.pump_alerts();
        result
    }

    /// Opens a device under the §IV-A *prompt-based* policy variant: if
    /// the temporal-proximity check denies, an unforgeable prompt is shown
    /// on the trusted output path and `user_approves` models the user's
    /// hardware answer on the trusted input path. An approval is itself an
    /// authentic interaction, so the retried open succeeds.
    ///
    /// # Errors
    ///
    /// `EACCES` when the user denies the prompt (or a prompt was already
    /// pending); ordinary path errors otherwise.
    pub fn open_device_prompted(
        &mut self,
        pid: Pid,
        path: &str,
        user_approves: bool,
    ) -> SysResult<Fd> {
        match self.open_device(pid, path) {
            Ok(fd) => Ok(fd),
            Err(overhaul_kernel::error::Errno::Eacces) => {
                let process = self
                    .kernel
                    .tasks()
                    .get(pid)
                    .map(|t| t.name().to_string())
                    .unwrap_or_else(|_| "<unknown>".into());
                let op = if path.contains("video") { "cam" } else { "mic" };
                if self.x.ask_prompt(&process, op).is_none() {
                    return Err(overhaul_kernel::error::Errno::Eacces);
                }
                let answered = self.x.hardware_prompt_answer(user_approves);
                debug_assert!(answered.is_some());
                if !user_approves {
                    return Err(overhaul_kernel::error::Errno::Eacces);
                }
                // The hardware-verified approval is an authentic
                // interaction with (on behalf of) the requesting process.
                if let Some(conn) = self.x_conn {
                    let now = self.clock.now();
                    let _ = self.kernel.netlink_send(
                        conn,
                        overhaul_kernel::netlink::NetlinkMessage::InteractionNotification {
                            pid,
                            at: now,
                        },
                    );
                }
                self.open_device(pid, path)
            }
            Err(other) => Err(other),
        }
    }

    /// Forwards pending kernel alert requests (`V_{A,op}`) to the display
    /// manager's overlay. Called automatically by the input/request/device
    /// helpers.
    pub fn pump_alerts(&mut self) {
        let alerts = if self.integrated_dm {
            // Integrated display managers read the monitor queue directly.
            self.kernel.take_alerts_direct()
        } else if let Some(conn) = self.x_conn {
            self.kernel.netlink_take_pushes(conn).unwrap_or_default()
        } else {
            return;
        };
        self.show_alerts(alerts, false);
    }

    /// Renders kernel alert requests on the overlay, `replayed` marking
    /// those buffered across a display-manager restart. Returns how many
    /// were shown.
    fn show_alerts(&mut self, alerts: Vec<AlertRequest>, replayed: bool) -> usize {
        let shown = alerts.len();
        for alert in alerts {
            self.x.show_alert(
                &alert.process_name,
                &alert.op.to_string(),
                alert.granted,
                alert.reason.as_deref(),
                replayed,
            );
        }
        shown
    }

    // ---------------------------------------------------------------
    // Display-manager crash & recovery
    // ---------------------------------------------------------------

    /// Kills the display manager mid-run. The exit path eagerly invalidates
    /// its netlink connections (the channel transitions to *down*), and
    /// until [`System::restart_x`] succeeds every channel-dependent
    /// decision fails closed. Pending kernel alert pushes stay buffered
    /// kernel-side for replay. No-op if the display manager is already
    /// dead.
    pub fn crash_x(&mut self) {
        if !self.x_alive() {
            return;
        }
        // 139 = 128 + SIGSEGV, the classic display-server crash exit.
        let _ = self.kernel.sys_exit(self.x_pid, 139);
        self.x_conn = None;
        self.kernel.record_event(
            AuditCategory::ChannelEvent,
            Some(self.x_pid),
            "display manager crashed; channel severed",
        );
    }

    /// Restarts a crashed display manager: respawns the X server process,
    /// re-authenticates the netlink channel via VM-map introspection (with
    /// bounded retries of transient failures), and replays kernel-buffered
    /// alert pushes onto the overlay exactly once, marked as delayed.
    /// Returns the number of replayed alerts.
    ///
    /// # Errors
    ///
    /// [`BootError`] when the respawn or the re-authentication fails; the
    /// channel then stays down and the monitor keeps failing closed.
    pub fn restart_x(&mut self) -> Result<usize, BootError> {
        let x_pid = self
            .kernel
            .sys_spawn(Pid::INIT, XORG_PATH)
            .map_err(BootError::Spawn)?;
        self.x_pid = x_pid;
        let wants_channel = !self.integrated_dm && self.overhaul_enabled();
        if !wants_channel {
            self.x_conn = None;
            return Ok(0);
        }
        let conn = Self::connect_channel(&self.clock, &mut self.kernel, x_pid)?;
        self.x_conn = Some(conn);
        // Replay decisions made while the display manager was down. The
        // kernel's sequence-number dedup plus its push buffer guarantee
        // each alert reaches the overlay exactly once.
        let pushes = self.kernel.netlink_take_pushes(conn).unwrap_or_default();
        Ok(self.show_alerts(pushes, true))
    }

    /// Every alert shown so far.
    pub fn alert_history(&self) -> &[Alert] {
        self.x.alerts().history()
    }

    // ---------------------------------------------------------------
    // Checkpoint / restore
    // ---------------------------------------------------------------

    /// Writes the machine's primary state (a snapshot's state section):
    /// virtual time, the display-manager wiring and identity, and the full
    /// kernel (its fault plan first) and X-server state, each with its own
    /// configuration. Derived caches are excluded — restore rebuilds them.
    /// In digest mode ([`Enc::digest`]) the same field list writes what
    /// [`System::state_hash`] hashes.
    fn export_state(&self, enc: &mut Enc) {
        self.clock.now().pack(enc);
        self.integrated_dm.pack(enc);
        self.x_pid.pack(enc);
        self.x_conn.pack(enc);
        self.kernel.export_snapshot(enc);
        self.x.export_snapshot(enc);
    }

    /// Serializes the aux section: observability state that restores
    /// verbatim but is deliberately excluded from [`System::state_hash`]
    /// (the tracer's span buffer, then the kernel's metrics registry and
    /// sketch book).
    fn export_aux(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.tracer.export(&mut enc);
        self.kernel.export_aux(&mut enc);
        enc.into_bytes()
    }

    /// Canonical hash of the machine's primary state: [`hash64`] over the
    /// state section written in digest mode, where each cached component
    /// is its digest and each ledger its chain anchors. Only components
    /// borrowed mutably since the last call are encoded again. Two machines
    /// with equal hashes decide, trace, and evolve identically from here
    /// on.
    pub fn state_hash(&self) -> u64 {
        let mut enc = Enc::digest();
        self.export_state(&mut enc);
        hash64(enc.bytes())
    }

    /// Checkpoints the machine into a versioned [`Snapshot`]. The exported
    /// byte count is credited to the kernel's snapshot counters (aux state,
    /// so taking a checkpoint never perturbs [`System::state_hash`]).
    pub fn snapshot(&mut self) -> Snapshot {
        let t0 = std::time::Instant::now();
        let mut state = Enc::new();
        self.export_state(&mut state);
        let state = state.into_bytes();
        let aux = self.export_aux();
        self.kernel.note_snapshot_bytes(state.len() as u64);
        let snapshot = Snapshot::new(state, aux);
        // Recorded after the export so the observation is not baked into
        // the snapshot it measures (the aux book stays a prefix of the
        // live one).
        let seq = self.kernel.ledger().next_seq().saturating_sub(1);
        self.kernel.sketch_book_mut().record(
            Mechanism::SnapshotExport,
            0,
            t0.elapsed().as_nanos() as u64,
            0,
            seq,
        );
        snapshot
    }

    /// Rebuilds a machine from a snapshot.
    ///
    /// Derived caches (the kernel's verdict cache, `explain_last`, and the
    /// channel's duplicate-suppression sets) are rebuilt empty rather than
    /// restored — a restore therefore doubles as a cache-coherence check:
    /// any divergence a cold cache could cause shows up as a
    /// [`System::state_hash`] or [`System::trace_dump`] mismatch in the
    /// replay-determinism suite.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from a truncated or corrupt snapshot.
    pub fn from_snapshot(snapshot: &Snapshot) -> Result<System, SnapshotError> {
        // Aux first: the shared tracer handle feeds the kernel and X
        // imports so all three write into one restored span buffer.
        let mut aux = Dec::new(snapshot.aux());
        let tracer = Tracer::import(&mut aux)?;
        let mut dec = Dec::new(snapshot.state());
        let now = Timestamp::unpack(&mut dec)?;
        let integrated_dm = bool::unpack(&mut dec)?;
        let x_pid = Pid::unpack(&mut dec)?;
        let x_conn = Option::<ConnId>::unpack(&mut dec)?;
        let clock = Clock::starting_at(now);
        let mut kernel = Kernel::import_snapshot(&mut dec, clock.clone(), tracer.clone())?;
        let x = XServer::import_snapshot(&mut dec, clock.clone(), tracer.clone())?;
        dec.finish()?;
        kernel.import_aux(&mut aux)?;
        aux.finish()?;
        Ok(System {
            clock,
            kernel,
            x,
            x_pid,
            x_conn,
            integrated_dm,
            tracer,
        })
    }

    /// Restores this machine in place from a snapshot (rollback). The
    /// instance-lifetime snapshot counters survive the restore and keep
    /// accumulating.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from a truncated or corrupt snapshot; on
    /// error the machine is left unchanged.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let t0 = std::time::Instant::now();
        let prior = self.kernel.snapshot_stats();
        let mut restored = System::from_snapshot(snapshot)?;
        restored.kernel.absorb_snapshot_stats(prior);
        *self = restored;
        // Into the restored book: the rollback's cost is an observation of
        // the machine that lives on, not of the discarded instance.
        let seq = self.kernel.ledger().next_seq().saturating_sub(1);
        self.kernel.sketch_book_mut().record(
            Mechanism::SnapshotRestore,
            0,
            t0.elapsed().as_nanos() as u64,
            0,
            seq,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_kernel::error::Errno;
    use overhaul_sim::AuditCategory;

    fn gui(system: &mut System, exe: &str, x: i32) -> Gui {
        let gui = system
            .launch_gui_app(exe, Rect::new(x, 0, 100, 100))
            .expect("launch");
        system.settle();
        gui
    }

    #[test]
    fn figure1_end_to_end_mic_access() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/recorder", 0);
        // (1) user clicks the app; (2) notification; (3) event delivered.
        assert!(system.click_window(app.window));
        // (4–5) app opens the mic within δ: granted.
        system.advance(SimDuration::from_millis(200));
        let fd = system
            .open_device(app.pid, "/dev/snd/mic0")
            .expect("granted");
        // (6) the user sees an alert on the trusted overlay.
        assert_eq!(system.alert_history().len(), 1);
        assert!(system.alert_history()[0].granted);
        assert_eq!(system.alert_history()[0].op, "mic");
        // The device works.
        let sample = system.kernel_mut().sys_read(app.pid, fd, 64).unwrap();
        assert!(sample.starts_with(b"pcm:"));
    }

    #[test]
    fn background_process_is_blocked_with_alert() {
        let mut system = System::protected();
        let spy = system.spawn_process(None, "/usr/bin/spy").unwrap();
        assert_eq!(system.open_device(spy, "/dev/video0"), Err(Errno::Eacces));
        assert_eq!(system.alert_history().len(), 1);
        assert!(!system.alert_history()[0].granted);
        assert!(system.alert_history()[0]
            .render()
            .contains("was blocked from"));
    }

    #[test]
    fn expired_interaction_denies_device() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/recorder", 0);
        system.click_window(app.window);
        system.advance(SimDuration::from_secs(3));
        assert_eq!(
            system.open_device(app.pid, "/dev/snd/mic0"),
            Err(Errno::Eacces)
        );
    }

    #[test]
    fn baseline_system_has_no_mediation_or_alerts() {
        let mut system = System::baseline();
        let spy = system.spawn_process(None, "/usr/bin/spy").unwrap();
        assert!(system.open_device(spy, "/dev/video0").is_ok());
        assert!(system.alert_history().is_empty());
    }

    #[test]
    fn key_events_route_through_focus_and_notify() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/editor", 0);
        system
            .x_request(app.client, Request::SetInputFocus { window: app.window })
            .unwrap();
        assert_eq!(system.key('v'), Some(app.window));
        assert_eq!(
            system
                .x_audit()
                .count(AuditCategory::InteractionNotification),
            1
        );
        // The keystroke correlates a subsequent device open.
        assert!(system.open_device(app.pid, "/dev/snd/mic0").is_ok());
    }

    #[test]
    fn overlapping_apps_click_lands_on_top() {
        let mut system = System::protected();
        let below = gui(&mut system, "/usr/bin/below", 0);
        let above = gui(&mut system, "/usr/bin/above", 0); // same rect, later map → on top
        assert!(
            !system.click_window(below.window),
            "occluded window cannot be clicked"
        );
        assert!(system.click_window(above.window));
        // Only the top app gained interaction credit.
        assert!(system.open_device(above.pid, "/dev/snd/mic0").is_ok());
        assert_eq!(
            system.open_device(below.pid, "/dev/video0"),
            Err(Errno::Eacces)
        );
    }

    #[test]
    fn advance_ticks_kernel_housekeeping() {
        let mut system = System::protected();
        let a = system.spawn_process(None, "/usr/bin/a").unwrap();
        let shm = system.kernel_mut().sys_shm_open(a, "/seg", 1).unwrap();
        let vma = system.kernel_mut().sys_shmat(a, shm).unwrap();
        system.kernel_mut().sys_shm_write(a, vma, 0, b"x").unwrap();
        let faults_before = system.kernel().mm_stats().faults;
        system.advance(SimDuration::from_millis(600));
        system.kernel_mut().sys_shm_write(a, vma, 0, b"y").unwrap();
        assert_eq!(
            system.kernel().mm_stats().faults,
            faults_before + 1,
            "re-armed after wait"
        );
    }

    #[test]
    fn prompt_mode_approval_grants_access() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/recorder", 0);
        // No click: the plain open would be denied, but the user approves
        // the unforgeable prompt.
        let fd = system
            .open_device_prompted(app.pid, "/dev/snd/mic0", true)
            .expect("approved prompt grants");
        assert!(system.kernel_mut().sys_read(app.pid, fd, 8).is_ok());
        assert_eq!(system.xserver().prompts().history().len(), 1);
        assert!(system.xserver().prompts().history()[0]
            .render()
            .starts_with("[cat.png]"));
    }

    #[test]
    fn prompt_mode_denial_blocks_access() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/recorder", 0);
        assert_eq!(
            system.open_device_prompted(app.pid, "/dev/video0", false),
            Err(Errno::Eacces)
        );
        assert_eq!(system.xserver().prompts().history().len(), 1);
    }

    #[test]
    fn prompt_skipped_when_proximity_already_grants() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/recorder", 0);
        system.click_window(app.window);
        system.advance(SimDuration::from_millis(100));
        system
            .open_device_prompted(app.pid, "/dev/snd/mic0", false)
            .expect("no prompt needed");
        assert_eq!(
            system.xserver().prompts().asked_count(),
            0,
            "transparent when input-driven"
        );
    }

    #[test]
    fn prompt_approval_is_per_process() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/recorder", 0);
        let other = system.spawn_process(None, "/usr/bin/other").unwrap();
        system
            .open_device_prompted(app.pid, "/dev/snd/mic0", true)
            .unwrap();
        assert_eq!(
            system.open_device(other, "/dev/snd/mic0"),
            Err(Errno::Eacces),
            "an approval must not leak to other processes"
        );
    }

    #[test]
    fn integrated_dm_enforces_the_same_policy() {
        // Each wiring, booted and restored from its boot snapshot: whether
        // it denies, with EACCES, a request no fresh click stands behind,
        // and how many alerts its overlay shows for the script's three opens.
        let wirings = [
            ("protected", OverhaulConfig::protected(), true, 3),
            ("integrated", OverhaulConfig::integrated(), true, 3),
            ("grant-all", OverhaulConfig::grant_all(), false, 3),
            ("baseline", OverhaulConfig::baseline(), false, 0),
        ];
        for (name, config, denies, alerts) in wirings {
            let restored =
                System::from_snapshot(&System::new(config.clone()).snapshot()).expect("restore");
            for mut system in [System::new(config), restored] {
                let app = gui(&mut system, "/usr/bin/recorder", 0);
                assert_eq!(
                    system.open_device(app.pid, "/dev/snd/mic0").err(),
                    denies.then_some(Errno::Eacces),
                    "{name}: no click yet"
                );
                system.click_window(app.window);
                system.advance(SimDuration::from_millis(100));
                assert!(
                    system.open_device(app.pid, "/dev/snd/mic0").is_ok(),
                    "{name}: within δ of a click"
                );
                system.advance(SimDuration::from_secs(3));
                assert_eq!(
                    system.open_device(app.pid, "/dev/snd/mic0").err(),
                    denies.then_some(Errno::Eacces),
                    "{name}: the click is stale"
                );
                assert_eq!(system.alert_history().len(), alerts, "{name}");
            }
        }
    }

    #[test]
    fn integrated_dm_has_no_netlink_channel_but_alerts_work() {
        let mut system = System::integrated();
        assert!(
            system.x_conn.is_none(),
            "integrated DM must not open a channel"
        );
        let spy = system.spawn_process(None, "/usr/bin/.spy").unwrap();
        assert_eq!(system.open_device(spy, "/dev/video0"), Err(Errno::Eacces));
        assert_eq!(
            system.alert_history().len(),
            1,
            "alerts flow without netlink"
        );
        assert!(!system.alert_history()[0].granted);
    }

    #[test]
    fn x_process_exists_in_kernel() {
        let system = System::protected();
        let task = system.kernel().tasks().get(system.x_pid()).unwrap();
        assert_eq!(task.exe_path(), XORG_PATH);
    }

    #[test]
    fn crash_fails_closed_even_with_fresh_credit() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/recorder", 0);
        system.click_window(app.window);
        system.crash_x();
        assert!(!system.x_alive());
        assert_eq!(system.channel_state(), ChannelState::Down);
        system.advance(SimDuration::from_millis(10));
        // The click was within δ, but the channel is down: fail closed.
        assert_eq!(
            system.open_device(app.pid, "/dev/snd/mic0"),
            Err(Errno::Eacces)
        );
        assert!(system.kernel().monitor_stats().fail_closed_denies >= 1);
        assert!(
            system.kernel_audit().matching("channel down").count() >= 1,
            "fail-closed denial must be audited"
        );
    }

    #[test]
    fn crash_x_twice_is_a_noop() {
        let mut system = System::protected();
        system.crash_x();
        let events = system.kernel_audit().len();
        system.crash_x();
        assert_eq!(system.kernel_audit().len(), events);
    }

    #[test]
    fn restart_reconnects_and_replays_buffered_alerts_once() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/recorder", 0);
        system.crash_x();
        // A denied open while down queues an alert nobody can display.
        assert_eq!(
            system.open_device(app.pid, "/dev/snd/mic0"),
            Err(Errno::Eacces)
        );
        assert_eq!(system.alert_history().len(), 0, "no overlay while down");
        assert_eq!(system.kernel().pending_push_count(), 1);

        let replayed = system.restart_x().expect("restart succeeds");
        assert_eq!(replayed, 1);
        assert_eq!(system.channel_state(), ChannelState::Up);
        assert_eq!(system.kernel().monitor_stats().channel_reconnects, 1);
        assert_eq!(system.alert_history().len(), 1);
        assert!(system.alert_history()[0].replayed);
        assert!(system.alert_history()[0].render().ends_with("(delayed)"));

        // Pumping again must not duplicate the replayed alert.
        system.pump_alerts();
        assert_eq!(system.alert_history().len(), 1);
        assert_eq!(system.kernel().pending_push_count(), 0);
    }

    #[test]
    fn input_during_crash_grants_no_credit() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/recorder", 0);
        system.crash_x();
        // The (dying) display manager still sees the click, but with no
        // channel the deny-all link drops the notification.
        system.click_window(app.window);
        system.restart_x().expect("restart succeeds");
        system.advance(SimDuration::from_millis(10));
        assert_eq!(
            system.open_device(app.pid, "/dev/snd/mic0"),
            Err(Errno::Eacces),
            "a notification lost to the crash must not turn into credit"
        );
    }

    #[test]
    fn scheduled_crash_fires_during_advance() {
        let config = OverhaulConfig::protected().with_fault(
            overhaul_sim::FaultSpec::quiet(2).with_x_crashes(vec![Timestamp::from_millis(500)]),
        );
        let mut system = System::new(config);
        assert!(system.x_alive());
        system.advance(SimDuration::from_millis(600));
        assert!(!system.x_alive(), "scheduled crash fired");
        assert_eq!(system.channel_state(), ChannelState::Down);
        let replayed = system.restart_x().expect("restart succeeds");
        assert_eq!(replayed, 0);
        assert_eq!(system.channel_state(), ChannelState::Up);
    }

    #[test]
    fn boot_fails_cleanly_under_persistent_auth_fault() {
        let config = OverhaulConfig::protected()
            .with_fault(overhaul_sim::FaultSpec::quiet(1).with_vfs_stat_fail_p(1.0));
        let err = System::try_new(config).expect_err("boot must fail");
        assert_eq!(err, BootError::ChannelAuth(NetlinkError::AuthTransient));
        assert!(err.to_string().contains("authentication"));
    }

    #[test]
    fn baseline_restart_needs_no_channel() {
        let mut system = System::baseline();
        system.crash_x();
        let replayed = system.restart_x().expect("restart succeeds");
        assert_eq!(replayed, 0);
        assert!(system.x_alive());
        assert!(system.x_conn().is_none());
    }

    #[test]
    fn snapshot_restore_rolls_back_to_identical_state() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/recorder", 0);
        system.click_window(app.window);
        let _ = system.open_device(app.pid, "/dev/snd/mic0");
        let hash = system.state_hash();
        let snap = system.snapshot();
        assert_eq!(
            System::from_snapshot(&snap).expect("restore").state_hash(),
            hash,
            "snapshot holds the same state"
        );

        // Diverge, then roll back.
        system.advance(SimDuration::from_secs(9));
        system.click_window(app.window);
        assert_ne!(system.state_hash(), hash);
        system.restore(&snap).expect("restore");
        assert_eq!(system.state_hash(), hash);

        // Counters survive the in-place restore and record the rebuilds.
        let stats = system.kernel().snapshot_stats();
        assert_eq!(stats.snapshot_bytes, snap.state().len() as u64);
        assert_eq!(stats.restore_rebuild_verdict_cache, 1);
        assert!(stats.restore_rebuild_dup_suppress >= 1);
    }

    #[test]
    fn state_hash_depends_only_on_state_section() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/recorder", 0);
        system.click_window(app.window);
        // A checkpoint records its own export in the sketch book, so two
        // back-to-back snapshots share a state section but not an aux one.
        let a = system.snapshot();
        let b = system.snapshot();
        assert_eq!(a.state(), b.state());
        assert_ne!(a.aux(), b.aux());
        let restored_hash =
            |snap: &Snapshot| System::from_snapshot(snap).expect("restore").state_hash();
        assert_eq!(restored_hash(&a), system.state_hash());
        assert_eq!(restored_hash(&b), system.state_hash());

        // The state section opens with the clock: a clock one millisecond
        // off restores to another hash.
        let mut state = a.state().to_vec();
        state[0] ^= 1;
        let moved = Snapshot::new(state, a.aux().to_vec());
        assert_ne!(restored_hash(&moved), system.state_hash());
    }

    #[test]
    fn refused_creates_leave_the_state_hash_unchanged() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/editor", 0);
        let kernel = system.kernel_mut();
        kernel.sys_mkdir(app.pid, "/tmp/d", 0o755).expect("mkdir");
        kernel.sys_creat(app.pid, "/tmp/f", 0o644).expect("creat");
        kernel.sys_mkfifo(app.pid, "/tmp/p", 0o644).expect("mkfifo");
        let before = system.state_hash();
        let kernel = system.kernel_mut();
        assert_eq!(
            kernel.sys_mkdir(app.pid, "/tmp/f", 0o755),
            Err(Errno::Eexist)
        );
        assert_eq!(system.state_hash(), before, "refused mkdir");
        let kernel = system.kernel_mut();
        assert_eq!(
            kernel.sys_creat(app.pid, "/tmp/p", 0o644),
            Err(Errno::Eexist)
        );
        assert_eq!(system.state_hash(), before, "refused creat");
        let kernel = system.kernel_mut();
        assert_eq!(
            kernel.sys_mkfifo(app.pid, "/tmp/d", 0o644),
            Err(Errno::Eexist)
        );
        assert_eq!(system.state_hash(), before, "refused mkfifo");
    }

    #[test]
    fn control_plane_is_a_reduction_of_the_ledger() {
        let mut system = System::protected();
        assert_eq!(
            system.reduce().state_hash(),
            system.control_plane().state_hash(),
            "boot state must already be derivable from the ledger"
        );
        let app = gui(&mut system, "/usr/bin/recorder", 0);
        system.click_window(app.window);
        let _ = system.open_device(app.pid, "/dev/snd/mic0");
        system
            .kernel_mut()
            .attach_device(
                overhaul_kernel::device::DeviceClass::Camera,
                "usbcam",
                "/dev/video9",
            )
            .expect("attach");
        system
            .kernel_mut()
            .udev_rename_device("/dev/video9", "/dev/video10")
            .expect("rename");
        system.crash_x();
        system.restart_x().expect("restart");
        system.verify_ledgers().expect("chain verifies");
        assert_eq!(
            system.reduce().state_hash(),
            system.control_plane().state_hash(),
            "folding ledger effects must re-derive the live control plane"
        );
    }

    #[test]
    fn reduction_survives_a_mid_run_snapshot_restore() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/recorder", 0);
        system.click_window(app.window);
        let _ = system.open_device(app.pid, "/dev/snd/mic0");
        let snap = system.snapshot();
        let head = system.ledger_head();

        let restored = System::from_snapshot(&snap).expect("restore");
        assert_eq!(restored.ledger_head(), head, "snapshot carries the chain");
        restored.verify_ledgers().expect("restored chain verifies");
        assert_eq!(
            restored.reduce().state_hash(),
            restored.control_plane().state_hash(),
            "reduction must hold from a mid-run snapshot"
        );
    }

    #[test]
    fn from_snapshot_round_trips_through_bytes() {
        let mut system = System::protected();
        let app = gui(&mut system, "/usr/bin/recorder", 0);
        system.click_window(app.window);
        let snap = system.snapshot();
        let decoded =
            overhaul_sim::snapshot::Snapshot::from_bytes(&snap.to_bytes()).expect("decode");
        let restored = System::from_snapshot(&decoded).expect("restore");
        assert_eq!(restored.state_hash(), system.state_hash());

        // Both machines must evolve identically from here.
        let mut a = system;
        let mut b = restored;
        a.advance(SimDuration::from_secs(3));
        b.advance(SimDuration::from_secs(3));
        a.click_window(app.window);
        b.click_window(app.window);
        assert_eq!(
            a.open_device(app.pid, "/dev/snd/mic0"),
            b.open_device(app.pid, "/dev/snd/mic0")
        );
        assert_eq!(a.state_hash(), b.state_hash());
    }
}
