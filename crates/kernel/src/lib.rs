//! User-space Linux-kernel simulator hosting the Overhaul permission
//! monitor.
//!
//! This crate reproduces every kernel-side mechanism of *Overhaul:
//! Input-Driven Access Control for Better Privacy on Traditional Operating
//! Systems* (DSN 2016):
//!
//! * a process table whose [`task::Task`] carries the per-process
//!   interaction timestamp (and duplicates it on `fork` — policy **P1**),
//! * an `open(2)` path that mediates sensitive device nodes through the
//!   [`monitor::PermissionMonitor`] (Figure 1),
//! * the [`netlink`] secure channel with VM-map peer authentication,
//! * the trusted udev helper's [`devfs::DeviceMap`],
//! * every IPC family with interaction-timestamp propagation — policy
//!   **P2** ([`ipc`]), including page-fault-interposed shared memory
//!   ([`mm`]) and pseudo-terminals for CLI workflows,
//! * [`ptrace`] hardening and its procfs toggle.
//!
//! The entry point is [`Kernel`], which owns all subsystems and exposes the
//! syscall surface.
//!
//! # Example
//!
//! ```
//! use overhaul_kernel::{Kernel, KernelConfig, OpenMode};
//! use overhaul_kernel::device::DeviceClass;
//! use overhaul_sim::{Clock, Pid, SimDuration};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let clock = Clock::new();
//! let mut kernel = Kernel::new(clock.clone(), KernelConfig::default());
//! let mic = kernel.attach_device(DeviceClass::Microphone, "mic", "/dev/snd/mic0")?;
//!
//! let app = kernel.sys_spawn(Pid::INIT, "/usr/bin/recorder")?;
//! // No user interaction yet: Overhaul denies the open.
//! assert!(kernel.sys_open(app, "/dev/snd/mic0", OpenMode::ReadOnly).is_err());
//! # let _ = mic;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod devfs;
pub mod device;
pub mod error;
pub mod ipc;
pub mod mm;
pub mod monitor;
pub mod netlink;
pub mod policy;
pub mod process;
pub mod procfs;
pub mod ptrace;
pub mod snapshot;
pub mod syscall;
pub mod task;
pub mod vfs;

use std::borrow::Cow;
use std::collections::VecDeque;

use overhaul_sim::snapshot::Hashed;
use overhaul_sim::work::{self, ModelledCost};
use overhaul_sim::{
    AuditCategory, AuditLog, ChannelFault, Clock, ConfigKey, ControlPlane, Effect, FaultPlan,
    Ledger, LedgerEntry, Mechanism, MetricsRegistry, Pid, RuleKind, SimDuration, SketchBook,
    SpanId, Timestamp, TraceValue, Tracer, Uid,
};

use crate::devfs::DeviceMap;
use crate::device::{DeviceClass, DeviceId, DeviceRegistry};
use crate::error::{Errno, SysResult};
use crate::ipc::msgqueue::MsgQueueTable;
use crate::ipc::pipe::PipeTable;
use crate::ipc::pty::PtyTable;
use crate::ipc::shm::ShmTable;
use crate::ipc::unix_socket::SocketTable;
use crate::mm::MemoryManager;
use crate::monitor::{AlertRequest, Decision, MonitorConfig, PermissionMonitor, ResourceOp};
use crate::netlink::{ChannelState, ConnId, Netlink, NetlinkError, NetlinkMessage, NetlinkReply};
use crate::policy::{
    CacheStats, DecisionOutcome, DecisionTrace, IngestEvent, OpRequest, PolicyEngine,
    PolicySnapshot, TaskPolicyView, VerdictCache,
};
use crate::process::ProcessTable;
use crate::vfs::{InodeKind, Vfs};

pub use crate::error::SysResult as KernelResult;
pub use crate::snapshot::SnapshotStats;
pub use crate::syscall::OpenMode;

/// Well-known path of the X server binary (netlink-trusted).
pub const XORG_PATH: &str = "/usr/lib/xorg/Xorg";

/// Well-known path of the trusted udev helper (netlink-trusted).
pub const UDEV_HELPER_PATH: &str = "/usr/lib/overhaul/udev-helper";

/// Kernel-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelConfig {
    /// Master switch: with `false` the kernel behaves like an unmodified
    /// Linux (the Table I baseline).
    pub overhaul_enabled: bool,
    /// Permission-monitor tunables (δ, grant-all benchmark mode).
    pub monitor: MonitorConfig,
    /// Shared-memory wait-list window (paper: 500 ms).
    pub shm_wait: SimDuration,
    /// ptrace hardening (paper: on by default).
    pub ptrace_hardening: bool,
    /// Interaction-timestamp propagation across IPC (**P2**). On by
    /// default; the ablation benches switch it off to measure how much of
    /// the paper's applicability depends on it. (**P1** — fork
    /// inheritance — is structural and cannot be disabled.)
    pub ipc_propagation: bool,
    /// Queue visual-alert requests on device decisions (on by default; the
    /// paper suppresses alerts only for clipboard operations, which are
    /// display-manager territory anyway).
    pub device_alerts: bool,
    /// Executable paths allowed to authenticate on the netlink channel.
    pub trusted_netlink_paths: Vec<String>,
    /// How many times a lost channel message is retried before the sender
    /// gives up and the channel is declared down.
    pub channel_max_retries: u32,
    /// Base virtual-time backoff between channel retries (doubles per
    /// attempt).
    pub channel_retry_backoff: SimDuration,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            overhaul_enabled: true,
            monitor: MonitorConfig::default(),
            shm_wait: SimDuration::from_millis(500),
            ptrace_hardening: true,
            ipc_propagation: true,
            device_alerts: true,
            trusted_netlink_paths: vec![XORG_PATH.to_string(), UDEV_HELPER_PATH.to_string()],
            channel_max_retries: 3,
            channel_retry_backoff: SimDuration::from_millis(10),
        }
    }
}

impl KernelConfig {
    /// The unmodified-Linux baseline used for Table I comparisons.
    pub fn baseline() -> Self {
        KernelConfig {
            overhaul_enabled: false,
            ..KernelConfig::default()
        }
    }
}

/// The simulated kernel.
#[derive(Debug)]
pub struct Kernel {
    clock: Clock,
    // Components behind `Hashed` cache their state-hash digest until next
    // borrowed mutably (see `overhaul_sim::snapshot::Hashed`).
    /// The kernel's one copy of its settings: the monitor, the memory
    /// manager, the ptrace code and netlink read theirs from here.
    config: Hashed<KernelConfig>,
    pub(crate) tasks: Hashed<ProcessTable>,
    pub(crate) vfs: Hashed<Vfs>,
    pub(crate) devices: Hashed<DeviceRegistry>,
    pub(crate) device_map: Hashed<DeviceMap>,
    pub(crate) monitor: Hashed<PermissionMonitor>,
    pub(crate) netlink: Hashed<Netlink>,
    pub(crate) pipes: Hashed<PipeTable>,
    pub(crate) sockets: Hashed<SocketTable>,
    pub(crate) msgqueues: Hashed<MsgQueueTable>,
    pub(crate) shm: Hashed<ShmTable>,
    pub(crate) mm: Hashed<MemoryManager>,
    pub(crate) ptys: Hashed<PtyTable>,
    /// The authoritative hash-chained history. Every audited event and
    /// every control-plane mutation is appended here as a typed entry; the
    /// audit log is a view of its non-silent entries.
    pub(crate) ledger: Ledger,
    /// Optional fault plan governing channel faults, boot-time stat
    /// failures and scheduled display-manager crashes. `None` (the default)
    /// injects nothing. The kernel is its only owner, and it is the first
    /// thing [`Kernel::export_snapshot`] writes.
    fault: Option<FaultPlan>,
    /// Whether mediation requires a live display channel: when set, every
    /// decision while the channel is [`ChannelState::Down`] is a fail-closed
    /// deny. Set by the system harness when it wires a channel-based
    /// display manager; off for integrated designs.
    channel_required: bool,
    /// Alerts drained from the monitor but not yet delivered to the display
    /// manager (lost in flight or awaiting a reconnect). Replayed on the
    /// next successful drain — the structural exactly-once buffer.
    push_buffer: VecDeque<AlertRequest>,
    /// Notifications overtaken by later traffic: stashed here and delivered
    /// after the next channel message completes.
    reorder_buffer: Vec<(ConnId, u64, NetlinkMessage)>,
    /// Kernel-wide contribution to the global policy epoch, bumped on
    /// configuration changes that can alter verdicts (δ, grant-all mode,
    /// the overhaul master switch, channel-required wiring). Channel-state
    /// and device-map changes contribute via their own generation counters;
    /// see [`Kernel::policy_epoch`].
    policy_epoch: u64,
    /// Epoch-keyed verdict cache over the pure policy engine, stored
    /// densely per process-arena slot. Also holds each live task's most
    /// recent outcome per op (the [`Kernel::explain_last`] store); both
    /// are evicted when the process exits, so per-task derived state is
    /// bounded by the live task count.
    verdict_cache: VerdictCache,
    /// Monotone count of traced decisions, driving the deterministic
    /// head-sampling of cache-hit `kernel.decide` spans.
    decide_serial: u64,
    /// Virtual-time span tracer. Disabled (no-op) by default; the system
    /// harness installs a shared enabled handle when tracing is on, so the
    /// kernel and the display manager record into one trace.
    tracer: Tracer,
    /// Tracing-native metrics with no legacy counterpart struct:
    /// propagation hops per IPC mechanism, credit-chain saturation,
    /// virtual-time histograms. Legacy counters ([`monitor::MonitorStats`],
    /// [`mm::MmStats`], [`CacheStats`]) are mirrored into the procfs
    /// metrics page at render time, so the two can never drift.
    metrics: MetricsRegistry,
    /// Checkpoint/restore counters (bytes exported, derived caches
    /// rebuilt, replay divergences). Never serialized — they describe this
    /// kernel instance's snapshot activity, not simulation state.
    snapshot_stats: SnapshotStats,
    /// The machine's latency-sketch book (the observability plane). Always
    /// recording: the deterministic plane is a pure function of the event
    /// sequence, and the wall plane is head-sampled on the hot path. Not
    /// state: it rides in the snapshot's aux section after the metrics
    /// registry ([`Kernel::export_aux`]).
    sketch: SketchBook,
    /// Modelled real-world cost charged by driver opens, netlink exchanges
    /// and file creations. Never serialized, like `snapshot_stats`.
    cost: ModelledCost,
}

impl Kernel {
    /// Boots a kernel: process table with init, a VFS with the standard
    /// directory layout, the trusted binaries installed root-owned, and all
    /// subsystems configured per `config`.
    pub fn new(clock: Clock, config: KernelConfig) -> Self {
        let mut vfs = Vfs::new();
        // Install the trusted binaries so netlink authentication can verify
        // superuser ownership of the on-disk images.
        for path in &config.trusted_netlink_paths {
            let _ = ensure_parent_dirs(&mut vfs, path);
            let _ = vfs.create_file(path, Uid::ROOT, 0o755);
        }
        // Seed the ledger with the boot configuration as silent entries so
        // a reduction from the genesis head re-derives the control plane of
        // a freshly booted kernel (state-as-reduction holds from boot).
        let boot = clock.now();
        let mut ledger = Ledger::new();
        for (key, value) in [
            (
                ConfigKey::OverhaulEnabled,
                u64::from(config.overhaul_enabled),
            ),
            (
                ConfigKey::PtraceHardening,
                u64::from(config.ptrace_hardening),
            ),
            (ConfigKey::DeltaMs, config.monitor.delta.as_millis()),
            (ConfigKey::GrantAll, u64::from(config.monitor.grant_all)),
        ] {
            ledger.append(LedgerEntry::silent(boot, Effect::Config { key, value }));
        }
        Kernel {
            tasks: Hashed::new(ProcessTable::new()),
            devices: Hashed::new(DeviceRegistry::new()),
            device_map: Hashed::new(DeviceMap::new()),
            monitor: Hashed::new(PermissionMonitor::default()),
            netlink: Hashed::new(Netlink::default()),
            pipes: Hashed::new(PipeTable::new()),
            sockets: Hashed::new(SocketTable::new()),
            msgqueues: Hashed::new(MsgQueueTable::new()),
            shm: Hashed::new(ShmTable::new()),
            mm: Hashed::new(MemoryManager::default()),
            ptys: Hashed::new(PtyTable::new()),
            ledger,
            fault: None,
            channel_required: false,
            push_buffer: VecDeque::new(),
            reorder_buffer: Vec::new(),
            policy_epoch: 0,
            verdict_cache: VerdictCache::new(),
            decide_serial: 0,
            tracer: Tracer::disabled(),
            metrics: MetricsRegistry::new(),
            snapshot_stats: SnapshotStats::default(),
            sketch: SketchBook::new(),
            cost: ModelledCost::default(),
            vfs: Hashed::new(vfs),
            clock,
            config: Hashed::new(config),
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// The kernel's configuration: the one copy of every kernel setting,
    /// including those set after boot through procfs or
    /// [`Kernel::set_monitor_config`].
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Whether Overhaul mediation is active.
    pub fn overhaul_enabled(&self) -> bool {
        self.config.overhaul_enabled
    }

    /// The shared-memory re-arm window while Overhaul interposes on shared
    /// mappings; `None` on a stock kernel.
    pub(crate) fn shm_wait(&self) -> Option<SimDuration> {
        self.config.overhaul_enabled.then_some(self.config.shm_wait)
    }

    /// Reconfigures the permission monitor (δ sweeps, grant-all mode).
    pub fn set_monitor_config(&mut self, monitor: MonitorConfig) {
        self.config.monitor = monitor;
        self.policy_epoch += 1;
        let at = self.clock.now();
        self.ledger.append(LedgerEntry::silent(
            at,
            Effect::Config {
                key: ConfigKey::DeltaMs,
                value: monitor.delta.as_millis(),
            },
        ));
        self.ledger.append(LedgerEntry::silent(
            at,
            Effect::Config {
                key: ConfigKey::GrantAll,
                value: u64::from(monitor.grant_all),
            },
        ));
    }

    /// The audit log: a view of the ledger's non-silent entries.
    pub fn audit(&self) -> AuditLog<'_> {
        self.ledger.audit()
    }

    /// The authoritative hash-chained history the audit log reads.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Appends an informational audit row to the ledger (system harness
    /// events such as a display-manager crash).
    pub fn record_event(
        &mut self,
        category: AuditCategory,
        pid: Option<Pid>,
        detail: impl Into<Cow<'static, str>>,
    ) {
        self.ledger
            .append(LedgerEntry::event(self.clock.now(), category, pid, detail));
    }

    /// Discards retained ledger entries, and with them the audit log
    /// (measurement harnesses bound history growth). The chain head and
    /// sequence numbering stay monotone across the clear.
    pub fn clear_history(&mut self) {
        self.ledger.clear();
    }

    /// The live control-plane state in the ledger reduction's vocabulary:
    /// [`Ledger::reduce`] over this kernel's full history must re-derive a
    /// [`ControlPlane`] whose `state_hash` equals this one's.
    pub fn control_plane(&self) -> ControlPlane {
        ControlPlane {
            overhaul_enabled: self.config.overhaul_enabled,
            ptrace_hardening: self.config.ptrace_hardening,
            channel_required: self.channel_required,
            delta_ms: self.config.monitor.delta.as_millis(),
            grant_all: self.config.monitor.grant_all,
            channel: self.netlink.state(),
            devices_by_path: self
                .device_map
                .iter()
                .map(|(path, device)| (path.to_string(), device.as_raw()))
                .collect(),
            quarantined: self
                .device_map
                .quarantined_iter()
                .map(DeviceId::as_raw)
                .collect(),
        }
    }

    /// Read-only view of the process table.
    pub fn tasks(&self) -> &ProcessTable {
        &self.tasks
    }

    /// Read-only view of the device registry.
    pub fn devices(&self) -> &DeviceRegistry {
        &self.devices
    }

    /// Read-only view of the filesystem.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Permission-monitor counters.
    pub fn monitor_stats(&self) -> monitor::MonitorStats {
        self.monitor.stats()
    }

    /// Memory-manager counters.
    pub fn mm_stats(&self) -> mm::MmStats {
        self.mm.stats()
    }

    /// The kernel-side sensitive-device path map.
    pub fn device_map(&self) -> &DeviceMap {
        &self.device_map
    }

    /// Installs a fault plan governing channel sends, kernel pushes, VM-map
    /// re-authentication and scheduled display-manager crashes, replacing
    /// any earlier plan. The plan is state from here on: snapshots carry it
    /// and the state hash covers it.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// The installed fault plan, mutably (arming, crash-schedule draws).
    pub fn fault_plan_mut(&mut self) -> Option<&mut FaultPlan> {
        self.fault.as_mut()
    }

    /// Installs a (shared) tracer handle. Every mediation path — decisions,
    /// channel exchanges, page-fault interposition, IPC propagation hops —
    /// records spans and events into it at virtual-time granularity.
    pub fn install_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The kernel's tracer handle (disabled unless one was installed).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The machine's latency-sketch book. The mediation hot path
    /// (head-sampled), channel exchanges, page faults, and ledger appends
    /// record per-mechanism latency observations into it.
    pub fn sketch_book(&self) -> &SketchBook {
        &self.sketch
    }

    /// The sketch book, mutably (the event cursor, the exemplar seed and
    /// watch, and observations made outside the kernel).
    pub fn sketch_book_mut(&mut self) -> &mut SketchBook {
        &mut self.sketch
    }

    /// Modelled cost this kernel instance has charged (see
    /// [`overhaul_sim::work`]): device-node opens, netlink exchanges and
    /// file creations. Zero on a kernel rebuilt from a snapshot.
    pub fn modelled_cost(&self) -> ModelledCost {
        self.cost
    }

    /// Declares whether mediation depends on a live display channel. When
    /// set, every permission decision taken while the channel is
    /// [`ChannelState::Down`] is a fail-closed deny (and audited as such).
    pub fn set_channel_required(&mut self, required: bool) {
        self.channel_required = required;
        self.policy_epoch += 1;
        self.ledger.append(LedgerEntry::silent(
            self.clock.now(),
            Effect::Config {
                key: ConfigKey::ChannelRequired,
                value: u64::from(required),
            },
        ));
    }

    /// Whether mediation fails closed while the display channel is down.
    pub fn channel_required(&self) -> bool {
        self.channel_required
    }

    /// Health of the kernel↔display-manager channel.
    pub fn channel_state(&self) -> ChannelState {
        self.netlink.state()
    }

    /// Alerts waiting kernel-side for the display manager: the monitor's
    /// fresh queue plus the retained (lost-in-flight) push buffer.
    pub fn pending_push_count(&self) -> usize {
        self.monitor.pending_alert_count() + self.push_buffer.len()
    }

    /// In-kernel display-manager entry point (§III's integrated design):
    /// records an interaction notification without a channel.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] for dead processes.
    pub fn record_interaction_direct(&mut self, pid: Pid, at: Timestamp) -> SysResult<bool> {
        let changed = self.monitor.record_interaction(&mut self.tasks, pid, at)?;
        if changed {
            self.ledger.append(LedgerEntry::event(
                at,
                AuditCategory::InteractionNotification,
                Some(pid),
                "interaction recorded in task_struct (integrated DM)",
            ));
        }
        Ok(changed)
    }

    /// In-kernel display-manager entry point: answers a permission query
    /// without a channel. A query about a dead process is a deny.
    pub fn decide_direct(&mut self, pid: Pid, at: Timestamp, op: ResourceOp) -> Decision {
        self.decide(pid, at, op)
    }

    /// Drains pending visual-alert requests without a channel (integrated
    /// display managers read the monitor's queue in-process).
    pub fn take_alerts_direct(&mut self) -> Vec<AlertRequest> {
        self.monitor.take_alerts()
    }

    /// Harness helper: clears a process's stored interaction timestamp
    /// (used by chain tests to isolate message-carried propagation from
    /// fork-inherited credit).
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] for unknown processes.
    pub fn reset_interaction(&mut self, pid: Pid) -> SysResult<()> {
        self.tasks.get_mut(pid)?.clear_interaction();
        Ok(())
    }

    /// Periodic housekeeping: processes the shared-memory wait list.
    /// Harnesses call this as virtual time advances.
    pub fn tick(&mut self) {
        let now = self.clock.now();
        let rearms = self.mm.tick(now);
        if rearms > 0 {
            self.tracer.event(
                "mm.rearm",
                now,
                &[("count", TraceValue::U64(rearms as u64))],
            );
        }
    }

    // ---------------------------------------------------------------
    // Device attachment & udev simulation
    // ---------------------------------------------------------------

    /// Attaches a new hardware device: registers it, creates its `/dev`
    /// node (and any missing parent directories), and has the trusted
    /// helper record the path mapping.
    ///
    /// # Errors
    ///
    /// [`Errno::Eexist`] if `path` already names a node, and the path
    /// walk's errors ([`Errno::Enotdir`] through a non-directory,
    /// [`Errno::Einval`] for a relative path). The path is checked first,
    /// so a refused attach changes nothing.
    pub fn attach_device(
        &mut self,
        class: DeviceClass,
        label: &str,
        path: &str,
    ) -> SysResult<DeviceId> {
        match self.vfs.resolve(path) {
            Ok(_) => return Err(Errno::Eexist),
            Err(Errno::Enoent) => {}
            Err(err) => return Err(err),
        }
        ensure_parent_dirs(&mut self.vfs, path)?;
        let device = self.devices.register(class, label);
        self.vfs.mknod_device(path, device, 0o666)?;
        self.device_map.insert(path, device);
        self.ledger.append(
            LedgerEntry::event(
                self.clock.now(),
                AuditCategory::Info,
                None,
                format!("udev: attached {class} '{label}' at {path}"),
            )
            .with_effect(Effect::DeviceAttached {
                path: path.to_string(),
                device: device.as_raw(),
            }),
        );
        Ok(device)
    }

    /// Simulates udev renaming a device node, with the trusted helper
    /// propagating the change to the kernel map (the normal case).
    pub fn udev_rename_device(&mut self, old_path: &str, new_path: &str) -> SysResult<()> {
        self.vfs.rename(old_path, new_path)?;
        self.device_map.rename(old_path, new_path);
        self.ledger.append(
            LedgerEntry::event(
                self.clock.now(),
                AuditCategory::Info,
                None,
                format!("udev: renamed {old_path} -> {new_path} (helper synced)"),
            )
            .with_effect(Effect::DeviceRenamed {
                old: old_path.to_string(),
                new: new_path.to_string(),
            }),
        );
        Ok(())
    }

    /// The trusted helper catches up on a rename it previously missed,
    /// replaying the event into the kernel map (closing the lag window).
    pub fn device_map_catch_up(&mut self, old_path: &str, new_path: &str) {
        self.device_map.rename(old_path, new_path);
        self.ledger.append(
            LedgerEntry::event(
                self.clock.now(),
                AuditCategory::Info,
                None,
                format!("udev: helper caught up {old_path} -> {new_path}"),
            )
            .with_effect(Effect::DeviceRenamed {
                old: old_path.to_string(),
                new: new_path.to_string(),
            }),
        );
    }

    /// Simulates udev renaming a device node with the trusted helper
    /// propagating the change over the real netlink channel — so the update
    /// is subject to the installed fault plan. The kernel revokes (and
    /// quarantines) the old mapping *before* the helper's update is sent:
    /// if the update is lost, the device stays unreachable (fail closed)
    /// rather than reachable under a stale path.
    ///
    /// # Errors
    ///
    /// Propagates channel errors from [`Kernel::netlink_send`]; on
    /// [`NetlinkError::ChannelDown`] the device remains quarantined until a
    /// later update gets through.
    ///
    /// # Panics
    ///
    /// Panics if `old_path` does not exist or `new_path` is taken (harness
    /// bug).
    pub fn udev_rename_device_via_channel(
        &mut self,
        helper_conn: ConnId,
        old_path: &str,
        new_path: &str,
    ) -> Result<(), NetlinkError> {
        self.vfs
            .rename(old_path, new_path)
            .expect("udev rename: source node exists, target path free");
        if self.device_map.revoke(old_path).is_some() {
            self.ledger.append(
                LedgerEntry::event(
                    self.clock.now(),
                    AuditCategory::ChannelEvent,
                    None,
                    format!("devmap: {old_path} revoked; device quarantined pending helper update"),
                )
                .with_effect(Effect::DeviceRevoked {
                    path: old_path.to_string(),
                }),
            );
        }
        let update = NetlinkMessage::DeviceMapUpdate {
            old_path: old_path.to_string(),
            new_path: new_path.to_string(),
        };
        match self.netlink_send(helper_conn, update) {
            Ok(_) => Ok(()),
            Err(err) => {
                self.ledger.append(LedgerEntry::event(
                    self.clock.now(),
                    AuditCategory::ChannelEvent,
                    None,
                    "devmap: helper update lost; device remains quarantined (fail closed)",
                ));
                Err(err)
            }
        }
    }

    /// Simulates udev renaming a device node while the trusted helper is
    /// *lagging*: the filesystem changes but the kernel map does not. Used
    /// by tests to demonstrate the design's dependence on the helper.
    pub fn udev_rename_device_without_helper(
        &mut self,
        old_path: &str,
        new_path: &str,
    ) -> SysResult<()> {
        self.vfs.rename(old_path, new_path)?;
        self.ledger.append(LedgerEntry::event(
            self.clock.now(),
            AuditCategory::Info,
            None,
            format!("udev: renamed {old_path} -> {new_path} (helper lagging)"),
        ));
        Ok(())
    }

    // ---------------------------------------------------------------
    // Netlink: the secure kernel <-> display-manager channel
    // ---------------------------------------------------------------

    /// Establishes an authenticated netlink connection for `pid`
    /// (VM-map introspection per §IV-B).
    ///
    /// A connecting X server supersedes any previous display connection:
    /// the stale [`ConnId`] is invalidated and the channel comes back up
    /// (crash/restart recovery).
    ///
    /// # Errors
    ///
    /// See [`Netlink::connect`]; additionally
    /// [`NetlinkError::AuthTransient`] when the installed fault plan fails
    /// the VFS stat backing the introspection (callers may retry).
    pub fn netlink_connect(&mut self, pid: Pid) -> Result<ConnId, NetlinkError> {
        if self.fault.as_mut().is_some_and(|f| f.vfs_stat_fails()) {
            self.ledger.append(LedgerEntry::event(
                self.clock.now(),
                AuditCategory::ChannelEvent,
                Some(pid),
                "netlink: VM-map authentication failed transiently (vfs stat fault)",
            ));
            return Err(NetlinkError::AuthTransient);
        }
        let reconnects_before = self.netlink.display_reconnects();
        let state_before = self.netlink.state();
        let conn = self.netlink.connect(
            &self.tasks,
            &self.vfs,
            pid,
            &self.config.trusted_netlink_paths,
        )?;
        self.ledger.append(LedgerEntry::event(
            self.clock.now(),
            AuditCategory::Info,
            Some(pid),
            "netlink: peer authenticated",
        ));
        if self.netlink.is_display(conn) {
            if self.netlink.display_reconnects() > reconnects_before {
                self.monitor.note_channel_reconnect();
                self.ledger.append(LedgerEntry::event(
                    self.clock.now(),
                    AuditCategory::ChannelEvent,
                    Some(pid),
                    "netlink: display channel re-authenticated",
                ));
            }
            if state_before != ChannelState::Up {
                self.ledger.append(
                    LedgerEntry::event(
                        self.clock.now(),
                        AuditCategory::ChannelEvent,
                        Some(pid),
                        channel_transition_detail(state_before, ChannelState::Up),
                    )
                    .with_effect(Effect::Channel {
                        to: ChannelState::Up,
                    }),
                );
            }
        }
        Ok(conn)
    }

    /// Handles one userspace→kernel message on an established channel,
    /// subject to the installed fault plan: the message may be delayed,
    /// duplicated (and deduplicated by sequence number), reordered behind
    /// later traffic, or lost and retried with virtual-time backoff.
    ///
    /// # Errors
    ///
    /// [`NetlinkError::UnknownConnection`] for unauthenticated senders;
    /// [`NetlinkError::ChannelDown`] when the message is lost and every
    /// retry fails (the display channel then reads as down and mediation
    /// fails closed). The per-message semantics never fail (a query about a
    /// dead process is answered with a deny).
    pub fn netlink_send(
        &mut self,
        conn: ConnId,
        msg: NetlinkMessage,
    ) -> Result<NetlinkReply, NetlinkError> {
        let start = self.clock.now();
        let wall_start = std::time::Instant::now();
        let retries_before = self.monitor.stats().channel_retries;
        let span = self.tracer.span_enter("kernel.channel.exchange", start);
        self.tracer
            .add_field(span, "kind", TraceValue::Static(netlink_msg_kind(&msg)));
        let result = self.netlink_send_inner(conn, msg, span);
        let end = self.clock.now();
        self.tracer.add_field(
            span,
            "outcome",
            TraceValue::Static(match &result {
                Ok(_) => "ok",
                Err(NetlinkError::ChannelDown) => "channel-down",
                Err(_) => "error",
            }),
        );
        self.tracer.span_exit(span, end);
        if self.tracer.is_enabled() {
            self.metrics.observe_ms(
                "overhaul_channel_exchange_ms",
                end.saturating_since(start).as_millis(),
            );
        }
        // Channel exchanges are rare relative to decisions, so every one
        // lands in the sketch: virtual RTT (fault delays included) in the
        // deterministic plane, host cost in the wall plane, and the retry
        // count of a degraded exchange as its own mechanism.
        let span_raw = span.map_or(0, |s| s.as_raw());
        let seq = self.ledger.next_seq().saturating_sub(1);
        self.sketch.record(
            Mechanism::ChannelExchange,
            end.saturating_since(start).as_millis(),
            wall_start.elapsed().as_nanos() as u64,
            span_raw,
            seq,
        );
        let retries = self.monitor.stats().channel_retries - retries_before;
        if retries > 0 {
            self.sketch
                .record(Mechanism::ChannelRetry, retries, retries, span_raw, seq);
        }
        result
    }

    /// [`Kernel::netlink_send`] minus the exchange span bookkeeping (the
    /// wrapper owns enter/exit so the early returns below can never leak an
    /// open span).
    fn netlink_send_inner(
        &mut self,
        conn: ConnId,
        msg: NetlinkMessage,
        span: Option<overhaul_sim::SpanId>,
    ) -> Result<NetlinkReply, NetlinkError> {
        self.cost.netlink_rtt_ns += work::NETLINK_RTT_NS;
        self.netlink.authenticate(conn)?;
        let seq = self.netlink.assign_seq(conn)?;
        self.tracer.add_field(span, "seq", TraceValue::U64(seq));

        let mut attempt: u32 = 0;
        let mut degraded = false;
        let mut duplicated = false;
        loop {
            let fault = self
                .fault
                .as_mut()
                .map_or(ChannelFault::Deliver, |f| f.next_channel_fault());
            match fault {
                ChannelFault::Deliver => break,
                ChannelFault::Delay(d) => {
                    self.clock.advance(d);
                    degraded = true;
                    self.tracer.event(
                        "channel.fault",
                        self.clock.now(),
                        &[
                            ("fault", TraceValue::Static("delay")),
                            ("delay_ms", TraceValue::U64(d.as_millis())),
                        ],
                    );
                    self.ledger.append(LedgerEntry::event(
                        self.clock.now(),
                        AuditCategory::ChannelEvent,
                        None,
                        "channel: message delayed in flight",
                    ));
                    break;
                }
                ChannelFault::Duplicate => {
                    duplicated = true;
                    degraded = true;
                    self.tracer.event(
                        "channel.fault",
                        self.clock.now(),
                        &[("fault", TraceValue::Static("duplicate"))],
                    );
                    break;
                }
                ChannelFault::Reorder
                    if matches!(msg, NetlinkMessage::InteractionNotification { .. }) =>
                {
                    // The notification is overtaken by later traffic: stash
                    // it and deliver it after the next message completes.
                    // The sender sees a normal Ack. A stash is not a
                    // delivery, so it degrades a working channel but
                    // leaves a down one down.
                    self.reorder_buffer.push((conn, seq, msg));
                    if self.netlink.state() != ChannelState::Down {
                        self.channel_transition(conn, ChannelState::Degraded);
                    }
                    self.tracer.event(
                        "channel.fault",
                        self.clock.now(),
                        &[("fault", TraceValue::Static("reorder-stash"))],
                    );
                    self.ledger.append(LedgerEntry::event(
                        self.clock.now(),
                        AuditCategory::ChannelEvent,
                        None,
                        "channel: notification reordered behind later traffic",
                    ));
                    return Ok(NetlinkReply::Ack);
                }
                ChannelFault::Drop | ChannelFault::Reorder => {
                    attempt += 1;
                    degraded = true;
                    self.monitor.note_channel_retry();
                    if attempt > self.config.channel_max_retries {
                        self.monitor.note_channel_drop();
                        self.channel_transition(conn, ChannelState::Down);
                        self.tracer.event(
                            "channel.fault",
                            self.clock.now(),
                            &[
                                ("fault", TraceValue::Static("drop-giveup")),
                                ("attempts", TraceValue::U64(u64::from(attempt))),
                            ],
                        );
                        self.ledger.append(LedgerEntry::event(
                            self.clock.now(),
                            AuditCategory::ChannelEvent,
                            None,
                            "channel: message lost after retries; giving up",
                        ));
                        return Err(NetlinkError::ChannelDown);
                    }
                    self.ledger.append(LedgerEntry::event(
                        self.clock.now(),
                        AuditCategory::ChannelEvent,
                        None,
                        "channel: message lost in flight; retrying",
                    ));
                    let backoff = self
                        .config
                        .channel_retry_backoff
                        .saturating_doubled(attempt - 1);
                    self.tracer.event(
                        "channel.fault",
                        self.clock.now(),
                        &[
                            ("fault", TraceValue::Static("drop-retry")),
                            ("attempt", TraceValue::U64(u64::from(attempt))),
                            ("backoff_ms", TraceValue::U64(backoff.as_millis())),
                        ],
                    );
                    self.clock.advance(backoff);
                }
            }
        }

        let reply = self.netlink_deliver(conn, seq, msg.clone())?;
        if duplicated {
            // The second copy is suppressed by the sequence-number dedup.
            let _ = self.netlink_deliver(conn, seq, msg)?;
        }
        let to = if degraded {
            ChannelState::Degraded
        } else {
            ChannelState::Up
        };
        self.channel_transition(conn, to);
        self.flush_reordered();
        Ok(reply)
    }

    /// Delivers one in-order message to the kernel: idempotent on the
    /// per-connection sequence number, then dispatches on the message kind.
    fn netlink_deliver(
        &mut self,
        conn: ConnId,
        seq: u64,
        msg: NetlinkMessage,
    ) -> Result<NetlinkReply, NetlinkError> {
        if !self.netlink.mark_delivered(conn, seq)? {
            self.monitor.note_dup_suppressed();
            self.tracer.event(
                "channel.dup-suppressed",
                self.clock.now(),
                &[("seq", TraceValue::U64(seq))],
            );
            self.ledger.append(LedgerEntry::event(
                self.clock.now(),
                AuditCategory::ChannelEvent,
                None,
                "channel: duplicate delivery suppressed",
            ));
            return Ok(NetlinkReply::Ack);
        }
        match msg {
            NetlinkMessage::InteractionNotification { pid, at } => {
                match self.monitor.record_interaction(&mut self.tasks, pid, at) {
                    Ok(changed) => {
                        if changed {
                            self.ledger.append(LedgerEntry::event(
                                at,
                                AuditCategory::InteractionNotification,
                                Some(pid),
                                "interaction recorded in task_struct",
                            ));
                        }
                    }
                    Err(_) => {
                        // Notification for a pid that died in flight: drop.
                        self.ledger.append(LedgerEntry::event(
                            at,
                            AuditCategory::Info,
                            Some(pid),
                            "interaction notification for dead process dropped",
                        ));
                    }
                }
                Ok(NetlinkReply::Ack)
            }
            NetlinkMessage::PermissionQuery { pid, op, at } => {
                let decision = self.decide(pid, at, op);
                Ok(NetlinkReply::QueryResponse(decision))
            }
            NetlinkMessage::DeviceMapUpdate { old_path, new_path } => {
                self.apply_device_map_update(&old_path, &new_path);
                Ok(NetlinkReply::Ack)
            }
        }
    }

    /// Applies a trusted-helper device-map update: revokes (and
    /// quarantines) the old path, then trusts the new path only if it
    /// resolves to a registered device node right now. Shared by the
    /// netlink channel and integrated (in-process) display managers.
    pub fn apply_device_map_update(&mut self, old_path: &str, new_path: &str) {
        if !old_path.is_empty() {
            // Fail closed: drop (and quarantine) the old mapping before
            // trusting anything about the new path.
            if self.device_map.revoke(old_path).is_some() {
                self.ledger.append(
                    LedgerEntry::event(
                        self.clock.now(),
                        AuditCategory::ChannelEvent,
                        None,
                        "devmap: stale path revoked by helper update",
                    )
                    .with_effect(Effect::DeviceRevoked {
                        path: old_path.to_string(),
                    }),
                );
            }
        }
        // Inserting clears any quarantine.
        let device = self
            .vfs
            .resolve(new_path)
            .and_then(|id| self.vfs.inode(id))
            .ok()
            .and_then(|inode| match inode.kind() {
                InodeKind::DeviceNode { device } => Some(*device),
                _ => None,
            });
        if let Some(device) = device {
            self.device_map.insert(new_path, device);
            // Historically unaudited: record the insert as a silent entry so
            // the reduction tracks the map without changing the rendered log.
            self.ledger.append(LedgerEntry::silent(
                self.clock.now(),
                Effect::DeviceInserted {
                    path: new_path.to_string(),
                    device: device.as_raw(),
                },
            ));
        }
    }

    /// Delivers notifications that were stashed by a reorder fault, now
    /// that later traffic has overtaken them. A stashed message whose
    /// connection died in the meantime is dropped (fail closed: losing a
    /// notification can only deny, never grant).
    fn flush_reordered(&mut self) {
        if self.reorder_buffer.is_empty() {
            return;
        }
        let stashed = std::mem::take(&mut self.reorder_buffer);
        for (conn, seq, msg) in stashed {
            if self.netlink.authenticate(conn).is_err() {
                self.monitor.note_channel_drop();
                self.ledger.append(LedgerEntry::event(
                    self.clock.now(),
                    AuditCategory::ChannelEvent,
                    None,
                    "channel: reordered message dropped (connection gone)",
                ));
                continue;
            }
            let _ = self.netlink_deliver(conn, seq, msg);
        }
    }

    /// Drains kernel→userspace pushes (visual-alert requests) for an
    /// authenticated connection. Pushes are buffered kernel-side until a
    /// drain actually delivers them: a push lost in flight (or orphaned by
    /// an X-server crash) stays buffered and is replayed — exactly once —
    /// on the next successful drain, including the drain restart-style
    /// recovery performs after re-authentication.
    ///
    /// # Errors
    ///
    /// [`NetlinkError::UnknownConnection`] for unauthenticated callers.
    pub fn netlink_take_pushes(&mut self, conn: ConnId) -> Result<Vec<AlertRequest>, NetlinkError> {
        self.netlink.authenticate(conn)?;
        self.push_buffer.extend(self.monitor.take_alerts());

        let mut delivered = Vec::new();
        let mut degraded = false;
        // Reorder faults re-queue items, so bound the number of draws.
        let mut budget = self.push_buffer.len().saturating_mul(2) + 4;
        while let Some(alert) = self.push_buffer.pop_front() {
            if budget == 0 {
                self.push_buffer.push_front(alert);
                break;
            }
            budget -= 1;
            let fault = self
                .fault
                .as_mut()
                .map_or(ChannelFault::Deliver, |f| f.next_channel_fault());
            match fault {
                ChannelFault::Deliver => delivered.push(alert),
                ChannelFault::Delay(d) => {
                    self.clock.advance(d);
                    degraded = true;
                    delivered.push(alert);
                }
                ChannelFault::Duplicate => {
                    // The duplicate copy is suppressed receiver-side;
                    // deliver once and count the suppression.
                    self.monitor.note_dup_suppressed();
                    degraded = true;
                    delivered.push(alert);
                }
                ChannelFault::Drop => {
                    // Lost in flight: keep it buffered for the next drain
                    // (or for post-restart replay) — never lost for good.
                    self.monitor.note_channel_retry();
                    degraded = true;
                    self.ledger.append(LedgerEntry::event(
                        self.clock.now(),
                        AuditCategory::ChannelEvent,
                        None,
                        "channel: alert push lost in flight; retained for replay",
                    ));
                    self.push_buffer.push_front(alert);
                    break;
                }
                ChannelFault::Reorder => {
                    degraded = true;
                    self.push_buffer.push_back(alert);
                }
            }
        }
        // Only a delivery says the channel works: a drain that delivered
        // nothing may degrade a working channel, but it never lifts a down
        // one, whether it was empty or lost every push.
        if !delivered.is_empty() {
            let to = if degraded {
                ChannelState::Degraded
            } else {
                ChannelState::Up
            };
            self.channel_transition(conn, to);
        } else if degraded && self.netlink.state() != ChannelState::Down {
            self.channel_transition(conn, ChannelState::Degraded);
        }
        Ok(delivered)
    }

    /// Audits a display-channel state transition (no-op unless `conn` is
    /// the display connection and the state actually changes).
    fn channel_transition(&mut self, conn: ConnId, to: ChannelState) {
        if let Some((from, to)) = self.netlink.transition_display(conn, to) {
            self.ledger.append(
                LedgerEntry::event(
                    self.clock.now(),
                    AuditCategory::ChannelEvent,
                    None,
                    channel_transition_detail(from, to),
                )
                .with_effect(Effect::Channel { to }),
            );
        }
    }

    /// The kernel's global policy epoch: changes whenever *any* non-task
    /// state a verdict can depend on changes — monitor/config updates,
    /// display-channel state transitions, device-map mutations. Combined
    /// with the per-task interaction epoch, an unchanged pair proves a
    /// cached verdict is still derived from current state.
    pub fn policy_epoch(&self) -> u64 {
        // Each term is monotone, so the sum is monotone and changes
        // whenever any contributor changes.
        self.policy_epoch + self.netlink.state_generation() + self.device_map.generation()
    }

    /// Builds the immutable [`PolicySnapshot`] a verdict for `pid` depends
    /// on. This is the only part of a decision that reads kernel state;
    /// [`PolicyEngine::decide`] is a pure function of the snapshot.
    pub fn policy_snapshot(&self, pid: Pid, quarantined: bool) -> PolicySnapshot {
        PolicySnapshot {
            delta: self.config.monitor.delta,
            grant_all: self.config.monitor.grant_all,
            channel_required: self.channel_required,
            channel_state: self.netlink.state(),
            quarantined,
            task: self.tasks.get(pid).ok().map(|t| TaskPolicyView {
                frozen: t.permissions_frozen(),
                interaction: t.raw_interaction(),
                chain: t.credit_chain(),
            }),
        }
    }

    /// Runs a permission decision for `pid` performing `op` at `at`,
    /// recording audit events. Used by the device-open path internally and
    /// by netlink queries from the display manager.
    ///
    /// When the kernel is wired to an external display manager
    /// (`channel_required`) and that channel is down, the decision is a
    /// fail-closed deny: no authentic interaction evidence can be reaching
    /// the monitor, so nothing may be granted.
    pub(crate) fn decide(&mut self, pid: Pid, at: Timestamp, op: ResourceOp) -> Decision {
        self.decide_traced(pid, at, op, false).decision
    }

    /// The traced decision path behind every mediation site: consults the
    /// epoch-keyed verdict cache, falls back to a snapshot + pure-engine
    /// evaluation on a miss, then applies the side effects (stats, audit)
    /// identically either way and records the outcome for
    /// [`Kernel::explain_last`].
    pub(crate) fn decide_traced(
        &mut self,
        pid: Pid,
        at: Timestamp,
        op: ResourceOp,
        quarantined: bool,
    ) -> DecisionOutcome {
        let global_epoch = self.policy_epoch();
        // The serial advances on every decision: it drives both the
        // head-sampled `kernel.decide` span and the head-sampled latency
        // sketch. It is plain kernel state and a pure function of the
        // decision sequence — cache temperature and tracer installation
        // never feed it — so a restored run (cold verdict cache) samples
        // the exact same decisions as the uninterrupted one.
        self.decide_serial = self.decide_serial.wrapping_add(1);
        let sampled = self.decide_serial % Self::DECIDE_HIT_SAMPLE == 1;
        // Wall-clock timing only exists on sampled decisions, so the
        // unsampled hot path never touches the host clock.
        let t0 = sampled.then(std::time::Instant::now);
        // The cache is only consulted for pids the process table knows:
        // the pid resolves to a generation-checked arena slot, and reading
        // the live task's epoch through it is what makes a hit sound. It
        // also means unknown-pid outcomes can never be served stale after
        // that pid is later spawned (pids are never reused, and a reused
        // *slot* fails the generation check).
        let slot_entry = self.tasks.slot_entry(pid);
        let slot = slot_entry.map(|(id, _)| id);
        let task_epoch = slot_entry.map(|(_, t)| t.interaction_epoch());
        let cached = match (slot, task_epoch) {
            (Some(id), Some(epoch)) => {
                self.verdict_cache
                    .lookup(id, op, quarantined, at, epoch, global_epoch)
            }
            _ => None,
        };
        let cache_hit = cached.is_some();
        let outcome = match cached {
            Some(outcome) => outcome,
            None => {
                let snapshot = self.policy_snapshot(pid, quarantined);
                let outcome = PolicyEngine::decide(&snapshot, &OpRequest { pid, op, at });
                if let (Some(id), Some(epoch)) = (slot, task_epoch) {
                    if !matches!(outcome.trace, DecisionTrace::UnknownProcess) {
                        self.verdict_cache.store(
                            id,
                            op,
                            quarantined,
                            epoch,
                            global_epoch,
                            snapshot.delta,
                            &outcome,
                        );
                    }
                }
                outcome
            }
        };
        let seq = self.apply_decision_effects(pid, at, op, &outcome, sampled);
        let mut span_id = 0u64;
        if self.tracer.is_enabled() {
            // Decisions are head-sampled 1-in-N so tracing stays within its
            // overhead budget. The condition never reads the cache-hit bit,
            // so the spans a run records are a pure function of the
            // decision sequence: a restored run (whose verdict cache is
            // rebuilt cold) traces byte-identically to the uninterrupted
            // one. Every decision still lands in the monitor and cache
            // counters exactly; only the per-decision span is thinned.
            if sampled {
                span_id = self
                    .record_decide_span(pid, op, at, &outcome)
                    .map_or(0, |s| s.as_raw());
            }
            if !cache_hit {
                if let DecisionTrace::WithinThreshold { elapsed, .. }
                | DecisionTrace::Stale { elapsed, .. } = outcome.trace
                {
                    self.metrics
                        .observe_ms("overhaul_interaction_age_ms", elapsed.as_millis());
                }
            }
        }
        if sampled {
            // The sampled decision's full cost (cache or engine, effects,
            // ledger append) lands in the sketch with its replay
            // coordinate: the span just recorded (0 when untraced) and the
            // ledger entry the decision sealed.
            let wall = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            let mech = if cache_hit {
                Mechanism::DecideCached
            } else {
                Mechanism::DecideUncached
            };
            self.sketch.record(mech, 0, wall, span_id, seq);
        }
        if outcome.trace.chain().is_some_and(|c| c.saturated()) {
            self.metrics
                .inc_counter("overhaul_credit_chain_saturated_total");
        }
        if let Some(id) = slot {
            self.verdict_cache.record_last(id, op, &outcome);
        }
        outcome
    }

    /// Every how-many-th decision gets a span (the first one always does,
    /// since the serial is pre-incremented before the `% N == 1` check).
    const DECIDE_HIT_SAMPLE: u64 = 64;

    /// Records the `kernel.decide` leaf span — out of line so the sampled
    /// fast path in [`Kernel::decide_traced`] stays small. Deliberately
    /// carries no cache-hit/miss field: the span stream must not depend on
    /// verdict-cache temperature, or a snapshot restore (cold cache) would
    /// diverge from the uninterrupted run it replays.
    #[inline(never)]
    fn record_decide_span(
        &self,
        pid: Pid,
        op: ResourceOp,
        at: Timestamp,
        outcome: &DecisionOutcome,
    ) -> Option<SpanId> {
        // One-lock leaf span: decisions are instantaneous in virtual
        // time, so enter == exit and the span carries the evidence. The
        // returned id becomes the sketch exemplar's replay coordinate.
        self.tracer.record_span(
            "kernel.decide",
            at,
            at,
            &[
                ("pid", TraceValue::U64(u64::from(pid.as_raw()))),
                ("op", TraceValue::Static(op.as_str())),
                (
                    "verdict",
                    TraceValue::Static(if outcome.decision.verdict.is_grant() {
                        "grant"
                    } else {
                        "deny"
                    }),
                ),
                ("rule", TraceValue::Static(outcome.trace.kind_str())),
            ],
        )
    }

    /// Applies a decision's side effects — monitor counters and the audit
    /// record — identically for cache hits and misses. The verdict entry
    /// stores only its `Copy`-sized effect and renders its audit row from
    /// it, so the mediation hot path seals no text. Returns the ledger
    /// sequence number the decision sealed; on sampled
    /// decisions the append is also wall-timed into the
    /// [`Mechanism::LedgerAppend`] sketch.
    fn apply_decision_effects(
        &mut self,
        pid: Pid,
        at: Timestamp,
        op: ResourceOp,
        outcome: &DecisionOutcome,
        sampled: bool,
    ) -> u64 {
        let granted = outcome.decision.verdict.is_grant();
        let rule = outcome.trace.rule();
        match rule {
            RuleKind::ChannelDown | RuleKind::Quarantined => self.monitor.note_fail_closed(),
            // A query about a dead process is answered (deny) but not
            // counted: the monitor never saw a checkable task.
            RuleKind::UnknownProcess => {}
            _ => self.monitor.note_verdict(granted),
        }
        let entry = LedgerEntry::verdict(at, pid, granted, op.tag(), rule);
        // Ledger-append cost is only timed on the decisions the sketch
        // samples anyway; unsampled decisions append untimed.
        let seq = self.ledger.next_seq();
        let t0 = sampled.then(std::time::Instant::now);
        self.ledger.append(entry);
        if sampled {
            let wall = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            self.sketch.record(Mechanism::LedgerAppend, 0, wall, 0, seq);
        }
        seq
    }

    /// Feeds a mixed stream of interaction notifications and permission
    /// requests through the kernel, one event at a time: a loop over the
    /// per-event calls that stays only for the repository benchmark's
    /// `decide_hot` workload and layer probe. Each request is decided
    /// through the traced path (cache + audit + stats) as it is read;
    /// interactions flow through [`Kernel::record_interaction_direct`]
    /// (notifications for dead pids are dropped, exactly like the
    /// per-event call).
    ///
    /// The returned vector is aligned with the input: `Some(outcome)` for
    /// each request, `None` for each interaction. Every observable effect
    /// (monitor counters, ledger entries, cache state, trace spans) is
    /// byte-identical to issuing the same events one call at a time in the
    /// same order.
    pub fn ingest_batch(&mut self, events: &[IngestEvent]) -> Vec<Option<DecisionOutcome>> {
        events
            .iter()
            .map(|event| match event {
                IngestEvent::Request(r) => Some(self.decide_traced(r.pid, r.at, r.op, false)),
                IngestEvent::Interaction { pid, at } => {
                    let _ = self.record_interaction_direct(*pid, *at);
                    None
                }
            })
            .collect()
    }

    /// The most recent traced outcome for `(pid, op)`: why the last
    /// mediation of that pair granted or denied. Per-task explain state
    /// lives in the slot-indexed cache and is dropped when the process
    /// exits, so only live-or-zombie tasks are explainable.
    pub fn explain_last(&self, pid: Pid, op: ResourceOp) -> Option<&DecisionOutcome> {
        let id = self.tasks.slot_of(pid)?;
        self.verdict_cache.last(id, op)
    }

    /// Verdict-cache hit/miss/size counters.
    pub fn verdict_cache_stats(&self) -> CacheStats {
        self.verdict_cache.stats()
    }

    /// Queues a device-access visual alert if configured. The alert carries
    /// the trace's deny cause so the overlay renders the same reason the
    /// audit log recorded.
    pub(crate) fn queue_device_alert(
        &mut self,
        pid: Pid,
        op: ResourceOp,
        outcome: &DecisionOutcome,
        at: Timestamp,
    ) {
        if !self.config.device_alerts {
            return;
        }
        let process_name = self
            .tasks
            .get(pid)
            .map(|t| t.name().to_string())
            .unwrap_or_else(|_| "<dead>".to_string());
        self.monitor.request_alert(AlertRequest {
            pid,
            process_name,
            op,
            granted: outcome.decision.verdict.is_grant(),
            at,
            reason: outcome.trace.rule().deny_cause().map(str::to_string),
        });
    }

    // ---------------------------------------------------------------
    // procfs
    // ---------------------------------------------------------------

    /// Reads an Overhaul procfs node.
    ///
    /// # Errors
    ///
    /// [`Errno::Enoent`] for unknown nodes.
    pub fn sys_procfs_read(&self, path: &str) -> SysResult<String> {
        match path {
            procfs::PTRACE_HARDENING => Ok(if self.config.ptrace_hardening {
                "1"
            } else {
                "0"
            }
            .to_string()),
            procfs::DELTA_MS => Ok(self.config.monitor.delta.as_millis().to_string()),
            procfs::STATS => {
                let s = self.monitor.stats();
                Ok(format!(
                    "notifications={} grants={} denies={} retries={} drops={} \
                     reconnects={} dup_suppressed={} fail_closed={} alerts_queued={}",
                    s.notifications,
                    s.grants,
                    s.denies,
                    s.channel_retries,
                    s.channel_drops,
                    s.channel_reconnects,
                    s.channel_dup_suppressed,
                    s.fail_closed_denies,
                    s.alerts_queued
                ))
            }
            procfs::METRICS => Ok(self.render_metrics()),
            _ => Err(Errno::Enoent),
        }
    }

    /// Renders the unified Prometheus-style metrics page behind
    /// [`procfs::METRICS`].
    ///
    /// Legacy counters ([`monitor::MonitorStats`], [`mm::MmStats`],
    /// [`CacheStats`], fault-plan tallies) are read from their
    /// authoritative structs *at render time* and mirrored into the
    /// registry, so the page agrees with the legacy structs by
    /// construction; the tracing-native metrics (propagation hops,
    /// credit-chain saturation, histograms) are then absorbed from the
    /// kernel's persistent registry.
    pub fn render_metrics(&self) -> String {
        self.metrics_registry().render()
    }

    /// Builds the unified metrics registry behind [`Kernel::render_metrics`]
    /// as a value, so callers that aggregate across machines (the fleet
    /// harness) can [`MetricsRegistry::merge`] registries instead of
    /// re-parsing rendered text pages.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let s = self.monitor.stats();
        reg.set_counter("overhaul_monitor_notifications_total", s.notifications);
        reg.set_counter("overhaul_monitor_grants_total", s.grants);
        reg.set_counter("overhaul_monitor_denies_total", s.denies);
        reg.set_counter(
            "overhaul_monitor_fail_closed_denies_total",
            s.fail_closed_denies,
        );
        reg.set_counter("overhaul_monitor_alerts_queued_total", s.alerts_queued);
        reg.set_counter("overhaul_channel_retries_total", s.channel_retries);
        reg.set_counter("overhaul_channel_drops_total", s.channel_drops);
        reg.set_counter("overhaul_channel_reconnects_total", s.channel_reconnects);
        reg.set_counter(
            "overhaul_channel_dup_suppressed_total",
            s.channel_dup_suppressed,
        );
        let m = self.mm.stats();
        reg.set_counter("overhaul_mm_faults_total", m.faults);
        reg.set_counter("overhaul_mm_direct_total", m.direct);
        reg.set_counter("overhaul_mm_rearms_total", m.rearms);
        if m.rearms > 0 {
            reg.set_counter("overhaul_mm_rearm_events_total", m.rearms);
        }
        let c = self.verdict_cache.stats();
        reg.set_counter("overhaul_verdict_cache_hits_total", c.hits);
        reg.set_counter("overhaul_verdict_cache_misses_total", c.misses);
        reg.set_gauge("overhaul_verdict_cache_entries", c.entries as i64);
        if let Some(plan) = &self.fault {
            let f = plan.stats();
            reg.set_counter("overhaul_fault_channel_draws_total", f.drawn);
            reg.set_counter("overhaul_fault_drops_total", f.drops);
            reg.set_counter("overhaul_fault_delays_total", f.delays);
            reg.set_counter("overhaul_fault_duplicates_total", f.duplicates);
            reg.set_counter("overhaul_fault_reorders_total", f.reorders);
            reg.set_counter(
                "overhaul_fault_vfs_stat_failures_total",
                f.vfs_stat_failures,
            );
            reg.set_counter("overhaul_fault_crashes_fired_total", f.crashes_fired);
        }
        reg.set_gauge(
            "overhaul_channel_state",
            match self.netlink.state() {
                ChannelState::Up => 2,
                ChannelState::Degraded => 1,
                ChannelState::Down => 0,
            },
        );
        reg.set_gauge("overhaul_trace_spans", self.tracer.span_count() as i64);
        reg.set_gauge(
            "overhaul_trace_dropped_spans",
            self.tracer.dropped_spans() as i64,
        );
        // Same value as the legacy gauge above, exported with Prometheus
        // counter semantics (monotone within a tracer lifetime) under the
        // conventional `_total` name.
        reg.set_counter(
            "overhaul_trace_spans_dropped_total",
            self.tracer.dropped_spans(),
        );
        let snap = self.snapshot_stats;
        reg.set_counter("overhaul_snapshot_bytes_total", snap.snapshot_bytes);
        reg.set_counter(
            "overhaul_restore_rebuild_verdict_cache_total",
            snap.restore_rebuild_verdict_cache,
        );
        reg.set_counter(
            "overhaul_restore_rebuild_dup_suppress_total",
            snap.restore_rebuild_dup_suppress,
        );
        reg.set_gauge(
            "overhaul_replay_divergence_total",
            snap.replay_divergence as i64,
        );
        reg.absorb(&self.metrics);
        reg
    }

    /// Writes an Overhaul procfs node. Superuser only.
    ///
    /// # Errors
    ///
    /// [`Errno::Eacces`] for non-root writers, [`Errno::Einval`] for
    /// malformed values, [`Errno::Enoent`] for unknown nodes.
    pub fn sys_procfs_write(&mut self, pid: Pid, path: &str, value: &str) -> SysResult<()> {
        let uid = self.tasks.get(pid)?.uid();
        if !uid.is_root() {
            return Err(Errno::Eacces);
        }
        match path {
            procfs::PTRACE_HARDENING => {
                let enabled = match value.trim() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(Errno::Einval),
                };
                self.config.ptrace_hardening = enabled;
                self.ledger.append(
                    LedgerEntry::event(
                        self.clock.now(),
                        AuditCategory::PtraceHardening,
                        Some(pid),
                        format!("hardening toggled to {enabled}"),
                    )
                    .with_effect(Effect::Config {
                        key: ConfigKey::PtraceHardening,
                        value: u64::from(enabled),
                    }),
                );
                Ok(())
            }
            procfs::DELTA_MS => {
                let ms: u64 = value.trim().parse().map_err(|_| Errno::Einval)?;
                let mut cfg = self.config.monitor;
                cfg.delta = SimDuration::from_millis(ms);
                self.set_monitor_config(cfg);
                Ok(())
            }
            _ => Err(Errno::Enoent),
        }
    }
}

/// Static span-field label for a channel message kind.
fn netlink_msg_kind(msg: &NetlinkMessage) -> &'static str {
    match msg {
        NetlinkMessage::InteractionNotification { .. } => "notify",
        NetlinkMessage::PermissionQuery { .. } => "query",
        NetlinkMessage::DeviceMapUpdate { .. } => "devmap",
    }
}

/// Allocation-free audit detail for a display-channel state transition.
fn channel_transition_detail(from: ChannelState, to: ChannelState) -> &'static str {
    match (from, to) {
        (ChannelState::Up, ChannelState::Degraded) => "channel state: up -> degraded",
        (ChannelState::Up, ChannelState::Down) => "channel state: up -> down",
        (ChannelState::Degraded, ChannelState::Up) => "channel state: degraded -> up",
        (ChannelState::Degraded, ChannelState::Down) => "channel state: degraded -> down",
        (ChannelState::Down, ChannelState::Up) => "channel state: down -> up",
        (ChannelState::Down, ChannelState::Degraded) => "channel state: down -> degraded",
        _ => "channel state: unchanged",
    }
}

fn ensure_parent_dirs(vfs: &mut Vfs, path: &str) -> SysResult<()> {
    let components: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
    let mut prefix = String::new();
    for component in components.iter().take(components.len().saturating_sub(1)) {
        prefix.push('/');
        prefix.push_str(component);
        if vfs.resolve(&prefix).is_err() {
            vfs.mkdir(&prefix, Uid::ROOT, 0o755)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Verdict;

    fn kernel() -> Kernel {
        Kernel::new(Clock::new(), KernelConfig::default())
    }

    #[test]
    fn boot_installs_trusted_binaries_root_owned() {
        let k = kernel();
        let stat = k.vfs().stat(XORG_PATH).unwrap();
        assert!(stat.owner.is_root());
        assert!(k.vfs().stat(UDEV_HELPER_PATH).is_ok());
    }

    #[test]
    fn attach_device_creates_node_and_map_entry() {
        let mut k = kernel();
        let id = k
            .attach_device(DeviceClass::Camera, "webcam", "/dev/video0")
            .expect("attach");
        assert!(k.vfs().stat("/dev/video0").unwrap().is_device);
        assert_eq!(k.device_map().lookup("/dev/video0"), Some(id));
    }

    #[test]
    fn netlink_round_trip_interaction_and_query() {
        let mut k = kernel();
        let x = k.sys_spawn(Pid::INIT, XORG_PATH).unwrap();
        let app = k.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        let conn = k.netlink_connect(x).unwrap();
        let t = Timestamp::from_millis(100);
        let reply = k
            .netlink_send(
                conn,
                NetlinkMessage::InteractionNotification { pid: app, at: t },
            )
            .unwrap();
        assert_eq!(reply, NetlinkReply::Ack);
        let reply = k
            .netlink_send(
                conn,
                NetlinkMessage::PermissionQuery {
                    pid: app,
                    op: ResourceOp::Paste,
                    at: Timestamp::from_millis(500),
                },
            )
            .unwrap();
        match reply {
            NetlinkReply::QueryResponse(d) => assert!(d.verdict.is_grant()),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn netlink_rejects_untrusted_connector() {
        let mut k = kernel();
        let mallory = k.sys_spawn(Pid::INIT, "/home/mallory/spy").unwrap();
        assert_eq!(k.netlink_connect(mallory), Err(NetlinkError::UntrustedPeer));
    }

    #[test]
    fn query_for_dead_process_is_denied_not_error() {
        let mut k = kernel();
        let x = k.sys_spawn(Pid::INIT, XORG_PATH).unwrap();
        let conn = k.netlink_connect(x).unwrap();
        let reply = k
            .netlink_send(
                conn,
                NetlinkMessage::PermissionQuery {
                    pid: Pid::from_raw(999),
                    op: ResourceOp::Copy,
                    at: Timestamp::ZERO,
                },
            )
            .unwrap();
        match reply {
            NetlinkReply::QueryResponse(d) => assert!(!d.verdict.is_grant()),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn procfs_ptrace_toggle_requires_root() {
        let mut k = kernel();
        let user_proc = k
            .sys_spawn_as(Pid::INIT, "/usr/bin/app", Uid::from_raw(1000))
            .unwrap();
        assert_eq!(
            k.sys_procfs_write(user_proc, procfs::PTRACE_HARDENING, "0"),
            Err(Errno::Eacces)
        );
        assert_eq!(
            k.sys_procfs_write(Pid::INIT, procfs::PTRACE_HARDENING, "0"),
            Ok(())
        );
        assert_eq!(k.sys_procfs_read(procfs::PTRACE_HARDENING).unwrap(), "0");
    }

    #[test]
    fn procfs_delta_write_reconfigures_monitor() {
        let mut k = kernel();
        k.sys_procfs_write(Pid::INIT, procfs::DELTA_MS, "750")
            .unwrap();
        assert_eq!(k.config().monitor.delta, SimDuration::from_millis(750));
        assert_eq!(k.sys_procfs_read(procfs::DELTA_MS).unwrap(), "750");
    }

    #[test]
    fn unknown_procfs_node_is_enoent() {
        let k = kernel();
        assert_eq!(
            k.sys_procfs_read("/proc/overhaul/bogus").err(),
            Some(Errno::Enoent)
        );
    }

    #[test]
    fn udev_rename_with_helper_keeps_mediation_map_in_sync() {
        let mut k = kernel();
        let id = k
            .attach_device(DeviceClass::Microphone, "mic", "/dev/snd/mic0")
            .expect("attach");
        k.udev_rename_device("/dev/snd/mic0", "/dev/snd/mic1")
            .unwrap();
        assert_eq!(k.device_map().lookup("/dev/snd/mic1"), Some(id));
        assert_eq!(k.device_map().lookup("/dev/snd/mic0"), None);
    }

    use overhaul_sim::FaultSpec;

    #[test]
    fn dropped_messages_exhaust_retries_and_fail_closed() {
        let mut k = kernel();
        k.install_fault_plan(FaultPlan::new(FaultSpec::quiet(1).with_drop_p(1.0)));
        k.set_channel_required(true);
        let x = k.sys_spawn(Pid::INIT, XORG_PATH).unwrap();
        let app = k.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        let conn = k.netlink_connect(x).unwrap();
        assert_eq!(k.channel_state(), ChannelState::Up);

        let err = k
            .netlink_send(
                conn,
                NetlinkMessage::InteractionNotification {
                    pid: app,
                    at: Timestamp::from_millis(1),
                },
            )
            .unwrap_err();
        assert_eq!(err, NetlinkError::ChannelDown);
        assert_eq!(k.channel_state(), ChannelState::Down);

        // Every decision while down is a fail-closed deny, audited.
        let d = k.decide_direct(app, k.now(), ResourceOp::Mic);
        assert_eq!(d.reason, monitor::DecisionReason::ChannelDown);
        let s = k.monitor_stats();
        assert!(s.channel_retries >= 3);
        assert_eq!(s.channel_drops, 1);
        assert_eq!(s.fail_closed_denies, 1);
        assert_eq!(s.denies, 1);
        assert_eq!(k.audit().matching("(channel down)").count(), 1);
    }

    #[test]
    fn duplicate_delivery_is_suppressed_by_seq_dedup() {
        let mut k = kernel();
        k.install_fault_plan(FaultPlan::new(FaultSpec::quiet(2).with_duplicate_p(1.0)));
        let x = k.sys_spawn(Pid::INIT, XORG_PATH).unwrap();
        let app = k.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        let conn = k.netlink_connect(x).unwrap();
        k.netlink_send(
            conn,
            NetlinkMessage::InteractionNotification {
                pid: app,
                at: Timestamp::from_millis(100),
            },
        )
        .unwrap();
        let s = k.monitor_stats();
        assert_eq!(s.notifications, 1, "second copy suppressed");
        assert_eq!(s.channel_dup_suppressed, 1);
        assert_eq!(k.channel_state(), ChannelState::Degraded);
    }

    #[test]
    fn reordered_notification_lands_after_later_traffic() {
        let mut k = kernel();
        k.install_fault_plan(FaultPlan::new(FaultSpec::quiet(3).with_reorder_p(1.0)));
        let x = k.sys_spawn(Pid::INIT, XORG_PATH).unwrap();
        let app = k.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        let conn = k.netlink_connect(x).unwrap();

        // The notification is stashed; the sender still sees an Ack.
        let reply = k
            .netlink_send(
                conn,
                NetlinkMessage::InteractionNotification {
                    pid: app,
                    at: Timestamp::from_millis(100),
                },
            )
            .unwrap();
        assert_eq!(reply, NetlinkReply::Ack);
        assert_eq!(k.monitor_stats().notifications, 0, "not delivered yet");

        // The next message overtakes it: the query is answered *before* the
        // notification arrives, so it must deny.
        k.fault_plan_mut().expect("plan installed").set_armed(false);
        let reply = k
            .netlink_send(
                conn,
                NetlinkMessage::PermissionQuery {
                    pid: app,
                    op: ResourceOp::Paste,
                    at: Timestamp::from_millis(200),
                },
            )
            .unwrap();
        match reply {
            NetlinkReply::QueryResponse(d) => assert!(!d.verdict.is_grant()),
            other => panic!("unexpected reply {other:?}"),
        }
        // ... and afterwards the stashed notification was flushed.
        assert_eq!(k.monitor_stats().notifications, 1);
    }

    #[test]
    fn delayed_message_advances_virtual_time_and_degrades() {
        let mut k = kernel();
        k.install_fault_plan(FaultPlan::new(
            FaultSpec::quiet(4)
                .with_delay_p(1.0)
                .with_delay_window(SimDuration::from_millis(20), SimDuration::from_millis(21)),
        ));
        let x = k.sys_spawn(Pid::INIT, XORG_PATH).unwrap();
        let conn = k.netlink_connect(x).unwrap();
        let before = k.now();
        k.netlink_send(
            conn,
            NetlinkMessage::InteractionNotification { pid: x, at: before },
        )
        .unwrap();
        assert_eq!(
            k.now().saturating_since(before),
            SimDuration::from_millis(20)
        );
        assert_eq!(k.channel_state(), ChannelState::Degraded);
    }

    #[test]
    fn dropped_pushes_stay_buffered_until_redelivered() {
        let mut k = kernel();
        k.install_fault_plan(FaultPlan::new(FaultSpec::quiet(5).with_drop_p(1.0)));
        let x = k.sys_spawn(Pid::INIT, XORG_PATH).unwrap();
        let conn = k.netlink_connect(x).unwrap();
        let outcome = DecisionOutcome {
            decision: Decision {
                verdict: Verdict::Deny,
                reason: monitor::DecisionReason::NoInteraction,
            },
            trace: DecisionTrace::NoInteraction,
        };
        k.queue_device_alert(x, ResourceOp::Cam, &outcome, k.now());
        assert_eq!(k.pending_push_count(), 1);

        let delivered = k.netlink_take_pushes(conn).unwrap();
        assert!(delivered.is_empty(), "push lost in flight");
        assert_eq!(k.pending_push_count(), 1, "still buffered kernel-side");

        k.fault_plan_mut().expect("plan installed").set_armed(false);
        let delivered = k.netlink_take_pushes(conn).unwrap();
        assert_eq!(delivered.len(), 1, "replayed exactly once");
        assert_eq!(k.pending_push_count(), 0);
        let s = k.monitor_stats();
        assert_eq!(s.alerts_queued, 1);
    }

    #[test]
    fn channel_down_rename_keeps_device_quarantined() {
        let mut k = kernel();
        let id = k
            .attach_device(DeviceClass::Microphone, "mic", "/dev/snd/mic0")
            .expect("attach");
        let helper = k.sys_spawn(Pid::INIT, UDEV_HELPER_PATH).unwrap();
        let conn = k.netlink_connect(helper).unwrap();
        k.install_fault_plan(FaultPlan::new(FaultSpec::quiet(6).with_drop_p(1.0)));

        let err = k
            .udev_rename_device_via_channel(conn, "/dev/snd/mic0", "/dev/snd/mic1")
            .unwrap_err();
        assert_eq!(err, NetlinkError::ChannelDown);
        assert_eq!(k.device_map().lookup("/dev/snd/mic0"), None, "revoked");
        assert_eq!(k.device_map().lookup("/dev/snd/mic1"), None, "not trusted");
        assert!(k.device_map().is_quarantined(id));

        // A later update that gets through restores the mapping.
        k.fault_plan_mut().expect("plan installed").set_armed(false);
        k.netlink_send(
            conn,
            NetlinkMessage::DeviceMapUpdate {
                old_path: String::new(),
                new_path: "/dev/snd/mic1".to_string(),
            },
        )
        .unwrap();
        assert_eq!(k.device_map().lookup("/dev/snd/mic1"), Some(id));
        assert!(!k.device_map().is_quarantined(id));
    }

    #[test]
    fn procfs_stats_exposes_channel_counters() {
        let k = kernel();
        let stats = k.sys_procfs_read(procfs::STATS).unwrap();
        assert!(stats.contains("retries=0"));
        assert!(stats.contains("fail_closed=0"));
    }

    #[test]
    fn explain_last_reports_the_justifying_interaction() {
        let mut k = kernel();
        let app = k.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        k.record_interaction_direct(app, Timestamp::from_millis(100))
            .unwrap();
        let d = k.decide_direct(app, Timestamp::from_millis(600), ResourceOp::Mic);
        assert!(d.verdict.is_grant());
        let outcome = k.explain_last(app, ResourceOp::Mic).expect("recorded");
        match outcome.trace {
            DecisionTrace::WithinThreshold { interaction_at, .. } => {
                assert_eq!(interaction_at, Timestamp::from_millis(100));
            }
            other => panic!("unexpected trace {other:?}"),
        }
        assert_eq!(k.explain_last(app, ResourceOp::Cam), None);
    }

    #[test]
    fn repeated_queries_hit_the_verdict_cache_with_identical_outcomes() {
        let mut k = kernel();
        let app = k.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        k.record_interaction_direct(app, Timestamp::from_millis(100))
            .unwrap();
        let first = k.decide_direct(app, Timestamp::from_millis(200), ResourceOp::Mic);
        let stats_before = k.verdict_cache_stats();
        let second = k.decide_direct(app, Timestamp::from_millis(200), ResourceOp::Mic);
        assert_eq!(first, second);
        let stats_after = k.verdict_cache_stats();
        assert_eq!(stats_after.hits, stats_before.hits + 1);
        // Stats and audit accrue identically on the hit.
        assert_eq!(k.monitor_stats().grants, 2);
        assert_eq!(k.audit().matching("op=mic granted").count(), 2);
    }

    #[test]
    fn task_churn_keeps_verdict_cache_and_slot_table_bounded() {
        // Regression: cached verdicts and `explain_last` cells used to be
        // keyed by pid and never evicted, so a spawn/decide/exit loop grew
        // kernel state without bound. Eviction on exit/reap plus arena
        // slot reuse must keep both bounded by the *live* task count.
        let mut k = kernel();
        let t = Timestamp::from_millis(100);
        let baseline_slots = k.tasks().slot_capacity();
        for round in 0..200 {
            let app = k
                .sys_spawn(Pid::INIT, &format!("/usr/bin/churn{round}"))
                .unwrap();
            k.record_interaction_direct(app, t).unwrap();
            assert!(k
                .decide_direct(app, Timestamp::from_millis(200), ResourceOp::Mic)
                .verdict
                .is_grant());
            k.decide_direct(app, Timestamp::from_millis(200), ResourceOp::Cam);
            assert!(k.verdict_cache_stats().entries <= 2, "live task only");
            k.sys_exit(app, 0).unwrap();
            k.sys_waitpid(Pid::INIT, app).unwrap();
            assert_eq!(
                k.verdict_cache_stats().entries,
                0,
                "exit must evict the task's cached verdicts (round {round})"
            );
            assert_eq!(
                k.explain_last(app, ResourceOp::Mic),
                None,
                "explain_last must not outlive the task"
            );
        }
        // 200 spawned-and-reaped tasks reuse one arena slot, so the slot
        // table must not have grown past the churn task plus slack.
        assert!(
            k.tasks().slot_capacity() <= baseline_slots + 2,
            "slot table grew under churn: {} -> {}",
            baseline_slots,
            k.tasks().slot_capacity()
        );
    }

    #[test]
    fn ingest_batch_is_equivalent_to_per_event_calls() {
        let mk = || {
            let mut k = kernel();
            let a = k.sys_spawn(Pid::INIT, "/usr/bin/a").unwrap();
            let b = k.sys_spawn(Pid::INIT, "/usr/bin/b").unwrap();
            (k, a, b)
        };
        let req = |pid, ms, op| {
            IngestEvent::Request(OpRequest {
                pid,
                op,
                at: Timestamp::from_millis(ms),
            })
        };
        let (mut batched, a, b) = mk();
        let events = vec![
            req(a, 50, ResourceOp::Mic), // no interaction yet: deny
            IngestEvent::Interaction {
                pid: a,
                at: Timestamp::from_millis(100),
            },
            req(a, 150, ResourceOp::Mic),
            req(a, 160, ResourceOp::Mic), // cache hit
            req(b, 170, ResourceOp::Cam), // still deny
            IngestEvent::Interaction {
                pid: Pid::from_raw(9999), // dead pid: dropped, not an error
                at: Timestamp::from_millis(180),
            },
            req(b, 200, ResourceOp::Cam),
        ];
        let outcomes = batched.ingest_batch(&events);
        assert_eq!(outcomes.len(), events.len());
        assert!(!outcomes[0].as_ref().unwrap().decision.verdict.is_grant());
        assert!(outcomes[1].is_none());
        assert!(outcomes[2].as_ref().unwrap().decision.verdict.is_grant());
        assert!(outcomes[3].as_ref().unwrap().decision.verdict.is_grant());

        // Same stream issued one call at a time on a fresh kernel.
        let (mut serial, a2, b2) = mk();
        assert_eq!((a, b), (a2, b2), "spawns are deterministic");
        for event in &events {
            match event {
                IngestEvent::Request(r) => {
                    serial.decide_direct(r.pid, r.at, r.op);
                }
                IngestEvent::Interaction { pid, at } => {
                    let _ = serial.record_interaction_direct(*pid, *at);
                }
            }
        }
        assert_eq!(batched.monitor_stats(), serial.monitor_stats());
        assert_eq!(batched.verdict_cache_stats(), serial.verdict_cache_stats());
        assert_eq!(batched.ledger().head(), serial.ledger().head());
    }

    #[test]
    fn cache_does_not_serve_grants_past_the_delta_window() {
        let mut k = kernel();
        let app = k.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        k.record_interaction_direct(app, Timestamp::from_millis(100))
            .unwrap();
        assert!(k
            .decide_direct(app, Timestamp::from_millis(200), ResourceOp::Mic)
            .verdict
            .is_grant());
        // Same epoch, but past t + δ: must re-evaluate to a stale deny.
        let late = k.decide_direct(app, Timestamp::from_millis(5_000), ResourceOp::Mic);
        assert!(!late.verdict.is_grant());
        assert_eq!(
            late.reason,
            monitor::DecisionReason::Expired {
                elapsed: SimDuration::from_millis(4_900)
            }
        );
    }

    #[test]
    fn new_interaction_invalidates_cached_denies() {
        let mut k = kernel();
        let app = k.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        assert!(!k
            .decide_direct(app, Timestamp::from_millis(50), ResourceOp::Cam)
            .verdict
            .is_grant());
        k.record_interaction_direct(app, Timestamp::from_millis(60))
            .unwrap();
        assert!(k
            .decide_direct(app, Timestamp::from_millis(70), ResourceOp::Cam)
            .verdict
            .is_grant());
    }

    #[test]
    fn unknown_pid_is_never_cached_so_a_later_spawn_decides_fresh() {
        let mut k = kernel();
        let future_pid = Pid::from_raw(4_242);
        assert!(!k
            .decide_direct(future_pid, Timestamp::from_millis(10), ResourceOp::Mic)
            .verdict
            .is_grant());
        // Spawn processes until that pid exists, interact, and re-query.
        let pid = loop {
            let p = k.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
            if p.as_raw() >= future_pid.as_raw() {
                break p;
            }
        };
        assert_eq!(pid, future_pid, "pids allocate sequentially");
        k.record_interaction_direct(pid, Timestamp::from_millis(20))
            .unwrap();
        assert!(k
            .decide_direct(pid, Timestamp::from_millis(30), ResourceOp::Mic)
            .verdict
            .is_grant());
    }

    #[test]
    fn ingest_batch_matches_sequential_decides() {
        let mut k = kernel();
        let app = k.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        k.record_interaction_direct(app, Timestamp::from_millis(100))
            .unwrap();
        let requests: Vec<OpRequest> = [ResourceOp::Mic, ResourceOp::Cam, ResourceOp::Paste]
            .iter()
            .map(|&op| OpRequest {
                pid: app,
                op,
                at: Timestamp::from_millis(300),
            })
            .collect();
        let events: Vec<IngestEvent> = requests.iter().map(|&r| IngestEvent::Request(r)).collect();
        let outcomes = k.ingest_batch(&events);
        assert_eq!(outcomes.len(), 3);
        for (request, outcome) in requests.iter().zip(&outcomes) {
            let outcome = outcome.as_ref().expect("a request yields an outcome");
            assert!(outcome.decision.verdict.is_grant());
            assert_eq!(
                k.explain_last(request.pid, request.op),
                Some(outcome),
                "explain_last sees each batched decision"
            );
        }
    }

    #[test]
    fn lagging_helper_leaves_map_stale() {
        let mut k = kernel();
        let id = k
            .attach_device(DeviceClass::Microphone, "mic", "/dev/snd/mic0")
            .expect("attach");
        k.udev_rename_device_without_helper("/dev/snd/mic0", "/dev/snd/mic1")
            .unwrap();
        assert_eq!(
            k.device_map().lookup("/dev/snd/mic0"),
            Some(id),
            "map is stale"
        );
        assert_eq!(k.device_map().lookup("/dev/snd/mic1"), None);
    }
}
