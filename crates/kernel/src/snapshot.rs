//! Kernel checkpoint/restore: the [`Kernel`] half of the versioned
//! snapshot format.
//!
//! The codec splits kernel state along the *primary vs. derived* line:
//!
//! * **Primary state** — everything a replay cannot reconstruct: the
//!   process table with interaction timestamps and credit chains, the
//!   VFS, devices and the udev path map, monitor counters and pending
//!   alerts, the channel registry (sequence numbers and suppression
//!   watermarks), every IPC table, the shm wait list, the hash-chained
//!   ledger (the audit log is a view of it), and the in-flight
//!   push/reorder buffers. Serialized field by field in a fixed order.
//! * **Derived state** — the epoch-keyed [`crate::policy::VerdictCache`]
//!   (which also holds the per-task `explain_last` cells) and the
//!   per-connection duplicate-suppression sets. Never serialized; [`Kernel::import_snapshot`] rebuilds them
//!   empty and counts the rebuilds in [`SnapshotStats`], so a restore
//!   doubles as a cache-coherence check: if a rebuilt-cold cache could
//!   change any verdict, span, or watermark, the replay-determinism suite
//!   would catch the divergence.
//!
//! The kernel owns its fault plan, which opens its state, and its
//! latency-sketch book, which rides in the aux section after the metrics
//! registry. The shared virtual clock and tracer are serialized once by the
//! system harness, which hands the imported handles back in. The
//! modelled-cost counter, like [`SnapshotStats`], is not state: a restored
//! kernel starts it at zero.

use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};
use overhaul_sim::work::ModelledCost;
use overhaul_sim::{impl_pack, Clock, MetricsRegistry, SketchBook, Tracer};

use crate::policy::VerdictCache;
use crate::{Kernel, KernelConfig};

/// Counters for the checkpoint/restore subsystem, mirrored onto the
/// `/proc/overhaul/metrics` page.
///
/// Deliberately *not* part of any snapshot: the counters describe what
/// this kernel instance did (bytes checkpointed, caches rebuilt,
/// divergences observed), not simulation state, so serializing them
/// would make `state_hash` depend on how often an identical run was
/// checkpointed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Total bytes of snapshot state this kernel has exported.
    pub snapshot_bytes: u64,
    /// Times the verdict cache was rebuilt (cleared) by a restore.
    pub restore_rebuild_verdict_cache: u64,
    /// Per-connection duplicate-suppression sets rebuilt by restores.
    pub restore_rebuild_dup_suppress: u64,
    /// Replays whose final `state_hash` differed from the recorded one.
    pub replay_divergence: u64,
}

impl_pack!(KernelConfig {
    overhaul_enabled,
    monitor,
    shm_wait,
    ptrace_hardening,
    ipc_propagation,
    device_alerts,
    trusted_netlink_paths
});

impl Kernel {
    /// Checkpoint/restore counters.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.snapshot_stats
    }

    /// Credits exported snapshot bytes to [`SnapshotStats`] (called by the
    /// system harness, which owns the full encoded buffer).
    pub fn note_snapshot_bytes(&mut self, bytes: u64) {
        self.snapshot_stats.snapshot_bytes += bytes;
    }

    /// Records a replay whose final state hash diverged from the recording.
    pub fn note_replay_divergence(&mut self) {
        self.snapshot_stats.replay_divergence += 1;
    }

    /// Folds a prior instance's counters into this one. In-place restore
    /// uses this so instance-lifetime counters (bytes checkpointed, caches
    /// rebuilt) keep accumulating across the restore instead of resetting.
    pub fn absorb_snapshot_stats(&mut self, prior: SnapshotStats) {
        self.snapshot_stats.snapshot_bytes += prior.snapshot_bytes;
        self.snapshot_stats.restore_rebuild_verdict_cache += prior.restore_rebuild_verdict_cache;
        self.snapshot_stats.restore_rebuild_dup_suppress += prior.restore_rebuild_dup_suppress;
        self.snapshot_stats.replay_divergence += prior.replay_divergence;
    }

    /// Serializes the kernel's primary state into `enc`.
    ///
    /// Pure state only: derived caches are skipped (see the module docs)
    /// and the shared clock and tracer are serialized by the system
    /// harness.
    pub fn export_snapshot(&self, enc: &mut Enc) {
        self.fault.pack(enc);
        self.config.pack(enc);
        self.channel_required.pack(enc);
        self.policy_epoch.pack(enc);
        self.decide_serial.pack(enc);
        self.tasks.pack(enc);
        self.vfs.pack(enc);
        self.devices.pack(enc);
        self.device_map.pack(enc);
        self.monitor.pack(enc);
        self.netlink.pack(enc);
        self.pipes.pack(enc);
        self.sockets.pack(enc);
        self.msgqueues.pack(enc);
        self.shm.pack(enc);
        self.mm.pack(enc);
        self.ptys.pack(enc);
        self.ledger.pack(enc);
        self.push_buffer.pack(enc);
        self.reorder_buffer.pack(enc);
    }

    /// Rebuilds a kernel from state serialized by
    /// [`Kernel::export_snapshot`], wiring in the shared `clock` and
    /// `tracer` handles the system harness imported.
    ///
    /// The verdict cache (including its `explain_last` cells) and
    /// per-connection dup-suppression sets come back *empty* (counted in
    /// [`SnapshotStats`]); metrics and the sketch book start empty until
    /// [`Kernel::import_aux`] replays the aux section.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from a truncated or corrupt state section.
    pub fn import_snapshot(
        dec: &mut Dec<'_>,
        clock: Clock,
        tracer: Tracer,
    ) -> Result<Kernel, SnapshotError> {
        let mut kernel = Kernel {
            fault: Pack::unpack(dec)?,
            config: Pack::unpack(dec)?,
            channel_required: Pack::unpack(dec)?,
            policy_epoch: Pack::unpack(dec)?,
            decide_serial: Pack::unpack(dec)?,
            tasks: Pack::unpack(dec)?,
            vfs: Pack::unpack(dec)?,
            devices: Pack::unpack(dec)?,
            device_map: Pack::unpack(dec)?,
            monitor: Pack::unpack(dec)?,
            netlink: Pack::unpack(dec)?,
            pipes: Pack::unpack(dec)?,
            sockets: Pack::unpack(dec)?,
            msgqueues: Pack::unpack(dec)?,
            shm: Pack::unpack(dec)?,
            mm: Pack::unpack(dec)?,
            ptys: Pack::unpack(dec)?,
            ledger: Pack::unpack(dec)?,
            push_buffer: Pack::unpack(dec)?,
            reorder_buffer: Pack::unpack(dec)?,
            verdict_cache: VerdictCache::new(),
            metrics: MetricsRegistry::new(),
            snapshot_stats: SnapshotStats::default(),
            sketch: SketchBook::new(),
            cost: ModelledCost::default(),
            clock,
            tracer,
        };
        kernel.snapshot_stats.restore_rebuild_verdict_cache += 1;
        kernel.snapshot_stats.restore_rebuild_dup_suppress +=
            kernel.netlink.connection_count() as u64;
        Ok(kernel)
    }

    /// Serializes the kernel's persistent metrics registry, then its
    /// sketch book (aux section: restored verbatim but excluded from the
    /// state hash).
    pub fn export_aux(&self, enc: &mut Enc) {
        self.metrics.pack(enc);
        self.sketch.pack(enc);
    }

    /// Restores the persistent metrics registry and the sketch book from
    /// the aux section.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from a truncated or corrupt aux section.
    pub fn import_aux(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapshotError> {
        self.metrics = Pack::unpack(dec)?;
        self.sketch = Pack::unpack(dec)?;
        Ok(())
    }
}
