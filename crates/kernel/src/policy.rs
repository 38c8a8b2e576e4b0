//! The unified policy engine: one pure decision core for every Overhaul
//! verdict (§III-B).
//!
//! Overhaul's single rule — grant iff an authentic interaction happened
//! within δ before the operation — used to be re-implemented at each
//! mediation site (the monitor, the device-open path, the quarantine
//! check, the channel fail-closed check). This module centralizes all of
//! it behind [`PolicyEngine::decide`], a *pure, side-effect-free*
//! function from an immutable [`PolicySnapshot`] and an [`OpRequest`] to
//! a [`DecisionOutcome`]:
//!
//! * the snapshot captures everything a verdict may depend on —
//!   interaction timestamp, freeze bit, δ/grant-all config, channel
//!   state, device quarantine;
//! * the outcome bundles the wire-compatible [`Decision`] with a
//!   structured [`DecisionTrace`] explaining *why*: which interaction
//!   justified a grant and through which propagation chain it arrived
//!   ([`CreditChain`]), or the precise deny reason (no interaction,
//!   stale-by-N ms, frozen, channel down, quarantined).
//!
//! Because the engine is pure, verdicts are cacheable: [`VerdictCache`]
//! keys entries by `(pid, op, quarantined)` plus a per-task interaction
//! epoch and a global policy epoch, and bounds each entry's time validity
//! with a [`Validity`] window so grants expire exactly at `t + δ` without
//! any invalidation traffic. Repeated mediation of the same `(pid, op)`
//! within one epoch is an O(1) lookup instead of a full state walk.
//!
//! The interaction-timestamp propagation protocol (policy **P2**,
//! [`embed_on_send`] / [`adopt_on_receive`]) lives here too: it is the
//! other half of the same temporal-proximity policy, and keeping both in
//! one module means there is exactly one place where timestamps are
//! compared.

use std::fmt;

use overhaul_sim::{Pid, RuleKind, SimDuration, SlotId, Timestamp};

use crate::monitor::{Decision, ResourceOp, Verdict};
use crate::netlink::ChannelState;

/// Maximum number of hops a [`CreditChain`] records before saturating.
pub const MAX_CREDIT_HOPS: usize = 16;

/// The IPC mechanism an interaction timestamp propagated through
/// (policy **P2**).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpcMechanism {
    /// Anonymous pipe or FIFO.
    Pipe,
    /// UNIX domain socket pair.
    UnixSocket,
    /// POSIX (named) message queue.
    PosixMq,
    /// SysV (keyed) message queue.
    SysvMsgq,
    /// POSIX/SysV shared-memory segment.
    Shm,
    /// Pseudo-terminal pair.
    Pty,
}

impl IpcMechanism {
    /// The mechanism name as it appears in audit-log details.
    pub fn as_str(self) -> &'static str {
        match self {
            IpcMechanism::Pipe => "pipe",
            IpcMechanism::UnixSocket => "unix-socket",
            IpcMechanism::PosixMq => "posix-mq",
            IpcMechanism::SysvMsgq => "sysv-msgq",
            IpcMechanism::Shm => "shm",
            IpcMechanism::Pty => "pty",
        }
    }
}

impl fmt::Display for IpcMechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One hop in the provenance of a task's interaction credit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditHop {
    /// The display manager notified this task directly (hardware input).
    Direct,
    /// Inherited from the parent on `fork` (policy **P1**).
    Fork,
    /// Adopted from an IPC resource slot (policy **P2**).
    Ipc(IpcMechanism),
}

/// The propagation chain behind a task's current interaction credit:
/// how the timestamp travelled from the hardware input to this task.
///
/// Fixed-capacity and `Copy` so snapshots, traces, and cache entries
/// never allocate; chains longer than [`MAX_CREDIT_HOPS`] saturate. A
/// saturated chain keeps its correct prefix and — so decision traces can
/// never silently misreport provenance on long IPC chains — records that
/// hops were dropped in [`CreditChain::saturated`].
#[derive(Clone, Copy)]
pub struct CreditChain {
    len: u8,
    saturated: bool,
    hops: [CreditHop; MAX_CREDIT_HOPS],
}

impl CreditChain {
    /// An empty chain (no interaction credit, or provenance unknown).
    pub const fn empty() -> Self {
        CreditChain {
            len: 0,
            saturated: false,
            hops: [CreditHop::Direct; MAX_CREDIT_HOPS],
        }
    }

    /// A single-hop chain for a direct hardware-input notification.
    pub fn direct() -> Self {
        CreditChain::empty().extended(CreditHop::Direct)
    }

    /// A single-hop chain for a timestamp adopted from an IPC resource.
    pub fn via(mechanism: IpcMechanism) -> Self {
        CreditChain::empty().extended(CreditHop::Ipc(mechanism))
    }

    /// This chain with `hop` appended; saturates at [`MAX_CREDIT_HOPS`].
    /// A hop dropped by saturation is recorded in
    /// [`CreditChain::saturated`] rather than lost silently.
    pub fn extended(mut self, hop: CreditHop) -> Self {
        if (self.len as usize) < MAX_CREDIT_HOPS {
            self.hops[self.len as usize] = hop;
            self.len += 1;
        } else {
            self.saturated = true;
        }
        self
    }

    /// The recorded hops, oldest first.
    pub fn hops(&self) -> &[CreditHop] {
        &self.hops[..self.len as usize]
    }

    /// Number of recorded hops.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no hops are recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether hops beyond [`MAX_CREDIT_HOPS`] were dropped: the recorded
    /// prefix is correct but the chain's tail is not fully known.
    pub fn saturated(&self) -> bool {
        self.saturated
    }
}

impl Default for CreditChain {
    fn default() -> Self {
        CreditChain::empty()
    }
}

impl PartialEq for CreditChain {
    fn eq(&self, other: &Self) -> bool {
        self.saturated == other.saturated && self.hops() == other.hops()
    }
}

impl Eq for CreditChain {}

impl fmt::Debug for CreditChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.hops()).finish()?;
        if self.saturated {
            f.write_str(" (saturated: hops dropped)")?;
        }
        Ok(())
    }
}

/// One permission query: "may `pid` perform `op` at time `at`?"
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRequest {
    /// The requesting process.
    pub pid: Pid,
    /// The operation class.
    pub op: ResourceOp,
    /// The operation time (`t + n` in the paper).
    pub at: Timestamp,
}

/// One element of a batched ingestion feed (`Kernel::ingest_batch`): an
/// authentic-interaction notification or a permission request. `Copy` and
/// integer-only so a batch moves through the kernel without touching the
/// heap per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestEvent {
    /// An authentic user interaction observed for `pid` at `at`.
    Interaction {
        /// The interacting process.
        pid: Pid,
        /// When the input arrived (`t` in the paper).
        at: Timestamp,
    },
    /// A permission query, answered through the traced decide path.
    Request(OpRequest),
}

/// The policy-relevant view of one task, lifted out of the process table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskPolicyView {
    /// Whether ptrace hardening currently freezes the task's permissions.
    pub frozen: bool,
    /// The raw stored interaction timestamp (ignoring the freeze bit; the
    /// engine applies the freeze itself so the trace can say *frozen*
    /// rather than *no interaction*).
    pub interaction: Option<Timestamp>,
    /// Provenance of the stored interaction credit.
    pub chain: CreditChain,
}

/// An immutable view of everything a verdict may depend on.
///
/// Building a snapshot is the *only* part of a decision that touches
/// kernel state; [`PolicyEngine::decide`] itself is a pure function of
/// this value, which is what makes verdicts cacheable and the engine
/// trivially testable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicySnapshot {
    /// Temporal-proximity threshold δ.
    pub delta: SimDuration,
    /// Benchmark grant-all mode (Table I setup).
    pub grant_all: bool,
    /// Whether this configuration requires a live display-manager channel
    /// (fail closed while it is down).
    pub channel_required: bool,
    /// Health of the kernel↔display-manager channel.
    pub channel_state: ChannelState,
    /// Whether the target device is quarantined pending a helper update.
    pub quarantined: bool,
    /// The requesting task, or `None` if the pid does not exist.
    pub task: Option<TaskPolicyView>,
}

/// Structured explanation of a decision: exactly which rule fired, with
/// the evidence (timestamps, gaps, propagation chain) that fired it.
///
/// Deny reasons are ordered: quarantine wins over channel state, which
/// wins over everything task-local — mirroring the pre-refactor layering
/// where the device-open path checked quarantine before ever consulting
/// the monitor, and the kernel checked the channel before the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionTrace {
    /// Granted: an authentic interaction at `interaction_at` happened
    /// within δ before the operation.
    WithinThreshold {
        /// The justifying interaction timestamp (`t`).
        interaction_at: Timestamp,
        /// The gap `n = (t+n) - t`.
        elapsed: SimDuration,
        /// The threshold the gap was compared against.
        delta: SimDuration,
        /// How the interaction credit reached this task.
        chain: CreditChain,
    },
    /// Granted unconditionally (benchmark mode, checks still executed).
    GrantAll {
        /// The stored interaction timestamp, if any (too old to justify
        /// the grant on its own, or absent).
        interaction_at: Option<Timestamp>,
    },
    /// Denied: the process never received an authentic interaction.
    NoInteraction,
    /// Denied: the last interaction is older than δ.
    Stale {
        /// The stored interaction timestamp (`t`).
        interaction_at: Timestamp,
        /// The stale gap.
        elapsed: SimDuration,
        /// The threshold the gap was compared against.
        delta: SimDuration,
        /// How far past δ the operation came: `elapsed - delta`.
        over_by: SimDuration,
        /// How the (now stale) credit had reached this task.
        chain: CreditChain,
    },
    /// Denied: ptrace hardening froze this task's permissions.
    PermissionsFrozen,
    /// Denied: the kernel↔display-manager channel is down — fail closed.
    ChannelDown,
    /// Denied: the device is quarantined pending a helper map update.
    Quarantined,
    /// Denied: the pid does not exist in the process table.
    UnknownProcess,
}

impl DecisionTrace {
    /// The verdict this trace implies.
    pub fn verdict(&self) -> Verdict {
        match self {
            DecisionTrace::WithinThreshold { .. } | DecisionTrace::GrantAll { .. } => {
                Verdict::Grant
            }
            _ => Verdict::Deny,
        }
    }

    /// The rule that fired, in the ledger's vocabulary: its label names
    /// the rule on spans and metrics, and its deny cause is what audit
    /// rows and overlay alerts both show for a fail-closed deny.
    pub fn rule(&self) -> RuleKind {
        match self {
            DecisionTrace::WithinThreshold { .. } => RuleKind::WithinThreshold,
            DecisionTrace::GrantAll { .. } => RuleKind::GrantAll,
            DecisionTrace::NoInteraction => RuleKind::NoInteraction,
            DecisionTrace::Stale { .. } => RuleKind::Stale,
            DecisionTrace::PermissionsFrozen => RuleKind::PermissionsFrozen,
            DecisionTrace::ChannelDown => RuleKind::ChannelDown,
            DecisionTrace::Quarantined => RuleKind::Quarantined,
            DecisionTrace::UnknownProcess => RuleKind::UnknownProcess,
        }
    }

    /// A short static label naming the rule that fired, for span fields
    /// and metrics labels.
    pub fn kind_str(&self) -> &'static str {
        self.rule().label()
    }

    /// The propagation chain behind the decision's evidence, when the
    /// fired rule consulted one.
    pub fn chain(&self) -> Option<&CreditChain> {
        match self {
            DecisionTrace::WithinThreshold { chain, .. } | DecisionTrace::Stale { chain, .. } => {
                Some(chain)
            }
            _ => None,
        }
    }

    /// A human-readable one-line explanation (the `explain_last` hook).
    pub fn describe(&self) -> String {
        match self {
            DecisionTrace::WithinThreshold {
                interaction_at,
                elapsed,
                delta,
                chain,
            } => format!(
                "granted: interaction at {interaction_at} was {}ms ago (δ = {}ms), via {:?}",
                elapsed.as_millis(),
                delta.as_millis(),
                chain
            ),
            DecisionTrace::GrantAll { interaction_at } => match interaction_at {
                Some(at) => format!("granted: benchmark grant-all (stale interaction at {at})"),
                None => "granted: benchmark grant-all (no interaction)".to_string(),
            },
            DecisionTrace::NoInteraction => {
                "denied: no authentic interaction on record".to_string()
            }
            DecisionTrace::Stale {
                interaction_at,
                elapsed,
                delta,
                over_by,
                chain,
            } => format!(
                "denied: interaction at {interaction_at} is stale by {}ms \
                 ({}ms elapsed, δ = {}ms), via {:?}",
                over_by.as_millis(),
                elapsed.as_millis(),
                delta.as_millis(),
                chain
            ),
            DecisionTrace::PermissionsFrozen => {
                "denied: permissions frozen by ptrace hardening".to_string()
            }
            DecisionTrace::ChannelDown => {
                "denied: display-manager channel down (fail closed)".to_string()
            }
            DecisionTrace::Quarantined => {
                "denied: device quarantined pending helper update".to_string()
            }
            DecisionTrace::UnknownProcess => "denied: no such process".to_string(),
        }
    }
}

/// A verdict plus its structured explanation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionOutcome {
    /// The wire-compatible decision (what mediation sites act on).
    pub decision: Decision,
    /// Why — the structured trace behind the decision.
    pub trace: DecisionTrace,
}

impl DecisionOutcome {
    /// Rebuilds this outcome for a different operation time within the
    /// same validity window, recomputing the time-dependent fields
    /// (`elapsed`, `over_by`) so a cache hit is byte-identical to a fresh
    /// evaluation at `at`.
    pub fn refreshed_at(mut self, at: Timestamp) -> Self {
        match &mut self.trace {
            DecisionTrace::WithinThreshold {
                interaction_at,
                elapsed,
                ..
            } => {
                *elapsed = at.saturating_since(*interaction_at);
            }
            DecisionTrace::Stale {
                interaction_at,
                elapsed,
                delta,
                over_by,
                ..
            } => {
                *elapsed = at.saturating_since(*interaction_at);
                *over_by =
                    SimDuration::from_millis(elapsed.as_millis().saturating_sub(delta.as_millis()));
            }
            _ => {}
        }
        self
    }
}

/// The pure decision core. All of Overhaul's verdict logic lives in
/// [`PolicyEngine::evaluate_at`]; everything else in the kernel is
/// snapshot construction and effect application (stats, audit, alerts).
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyEngine;

impl PolicyEngine {
    /// Decides one request against a snapshot. Pure: same inputs, same
    /// outcome, no side effects.
    pub fn decide(snapshot: &PolicySnapshot, request: &OpRequest) -> DecisionOutcome {
        Self::evaluate_at(snapshot, request.at)
    }

    /// The op-agnostic evaluation core: decides an operation at `at`.
    ///
    /// Rule order (semantics-preserving with the pre-refactor sites):
    /// quarantine → channel fail-closed → unknown pid → ptrace freeze →
    /// within-δ grant → benchmark grant-all → stale deny → no-interaction
    /// deny. The freeze wins over grant-all; a fresh interaction wins
    /// over grant-all so traces carry the real justification.
    pub fn evaluate_at(snapshot: &PolicySnapshot, at: Timestamp) -> DecisionOutcome {
        let trace = if snapshot.quarantined {
            DecisionTrace::Quarantined
        } else if snapshot.channel_required && snapshot.channel_state == ChannelState::Down {
            DecisionTrace::ChannelDown
        } else {
            match snapshot.task {
                None => DecisionTrace::UnknownProcess,
                Some(task) if task.frozen => DecisionTrace::PermissionsFrozen,
                Some(task) => match task.interaction {
                    Some(t) => {
                        let elapsed = at.saturating_since(t);
                        if elapsed < snapshot.delta {
                            DecisionTrace::WithinThreshold {
                                interaction_at: t,
                                elapsed,
                                delta: snapshot.delta,
                                chain: task.chain,
                            }
                        } else if snapshot.grant_all {
                            DecisionTrace::GrantAll {
                                interaction_at: Some(t),
                            }
                        } else {
                            DecisionTrace::Stale {
                                interaction_at: t,
                                elapsed,
                                delta: snapshot.delta,
                                over_by: SimDuration::from_millis(
                                    elapsed
                                        .as_millis()
                                        .saturating_sub(snapshot.delta.as_millis()),
                                ),
                                chain: task.chain,
                            }
                        }
                    }
                    None if snapshot.grant_all => DecisionTrace::GrantAll {
                        interaction_at: None,
                    },
                    None => DecisionTrace::NoInteraction,
                },
            }
        };
        DecisionOutcome {
            decision: Decision {
                verdict: trace.verdict(),
            },
            trace,
        }
    }
}

/// The operation-time window over which a cached verdict stays correct.
///
/// Epochs invalidate cached verdicts when *state* changes; the validity
/// window invalidates them when *time alone* changes the answer — a
/// within-δ grant silently becomes a stale deny at exactly `t + δ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validity {
    /// Correct at any operation time (frozen / no-interaction / channel /
    /// quarantine outcomes: time does not change them).
    Always,
    /// Correct for operation times strictly before the boundary
    /// (within-δ grants: valid until `t + δ`).
    Before(Timestamp),
    /// Correct for operation times at or after the boundary
    /// (stale denies and stale grant-alls: valid from `t + δ` on).
    AtOrAfter(Timestamp),
}

impl Validity {
    /// Whether the window covers an operation at `at`.
    pub fn covers(self, at: Timestamp) -> bool {
        match self {
            Validity::Always => true,
            Validity::Before(boundary) => at < boundary,
            Validity::AtOrAfter(boundary) => at >= boundary,
        }
    }

    /// The validity window of a freshly evaluated trace.
    ///
    /// `delta` must be the threshold the trace was evaluated under (it is
    /// only consulted for [`DecisionTrace::GrantAll`] with a stale
    /// interaction, whose own variant does not carry δ).
    pub fn for_trace(trace: &DecisionTrace, delta: SimDuration) -> Validity {
        match *trace {
            DecisionTrace::WithinThreshold {
                interaction_at,
                delta,
                ..
            } => Validity::Before(interaction_at + delta),
            DecisionTrace::Stale {
                interaction_at,
                delta,
                ..
            } => Validity::AtOrAfter(interaction_at + delta),
            DecisionTrace::GrantAll {
                interaction_at: Some(t),
            } => Validity::AtOrAfter(t + delta),
            _ => Validity::Always,
        }
    }
}

/// One cached verdict with the epochs and time window it is valid for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedVerdict {
    /// The task's interaction epoch when the verdict was computed.
    pub task_epoch: u64,
    /// The kernel's global policy epoch when the verdict was computed.
    pub global_epoch: u64,
    /// The operation-time window the verdict covers.
    pub validity: Validity,
    /// The cached outcome (time-dependent fields are refreshed on hits).
    pub outcome: DecisionOutcome,
}

/// Hit/miss counters of a [`VerdictCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a full evaluation.
    pub misses: u64,
    /// Verdicts currently stored.
    pub entries: usize,
}

/// Number of [`ResourceOp`] variants (the width of per-task slot arrays).
const OP_WAYS: usize = ResourceOp::ALL.len();
/// Verdict cells per task: one per `(op, quarantined)` pair.
const VERDICT_WAYS: usize = OP_WAYS * 2;

/// Per-task verdict and last-decision storage, parallel to one process
/// arena slot. `gen` records which arena generation wrote the cells; a
/// mismatch means the slot was reused by a later task and the cells are
/// logically empty.
#[derive(Debug, Clone)]
struct TaskSlots {
    gen: u32,
    verdicts: [Option<CachedVerdict>; VERDICT_WAYS],
    last: [Option<DecisionOutcome>; OP_WAYS],
}

impl TaskSlots {
    const EMPTY: TaskSlots = TaskSlots {
        gen: 0,
        verdicts: [None; VERDICT_WAYS],
        last: [None; OP_WAYS],
    };

    fn live_verdicts(&self) -> usize {
        self.verdicts.iter().filter(|v| v.is_some()).count()
    }
}

/// The epoch-keyed verdict cache, stored densely per process-arena slot.
///
/// Each task slot holds a fixed array of `(op, quarantined)` verdict
/// cells plus the task's last decision per op, indexed by the
/// generation-checked [`SlotId`] the process table issued — a lookup is
/// two array indexes and an epoch compare, with no hashing. An entry is a
/// hit only when the slot generation and both epochs still match *and*
/// its [`Validity`] window covers the queried operation time.
/// Unknown-process outcomes are never cached by the kernel (a later spawn
/// of that pid would not bump any epoch). The kernel explicitly
/// [`evict`](VerdictCache::evict)s a slot when its process exits, so the
/// cache footprint is bounded by the *live* task count even under
/// unbounded task churn; the generation check makes even a missed
/// eviction harmless when a slot is reused.
#[derive(Debug, Clone, Default)]
pub struct VerdictCache {
    slots: Vec<TaskSlots>,
    hits: u64,
    misses: u64,
    entries: usize,
}

impl VerdictCache {
    /// An empty cache.
    pub fn new() -> Self {
        VerdictCache::default()
    }

    /// Mutable access to the cells for `id`, growing the side table and
    /// resetting reused slots as needed. Only called on the store path.
    fn slot_mut(&mut self, id: SlotId) -> &mut TaskSlots {
        let index = id.index() as usize;
        if self.slots.len() <= index {
            self.slots.resize(index + 1, TaskSlots::EMPTY);
        }
        if self.slots[index].gen != id.gen() {
            self.entries -= self.slots[index].live_verdicts();
            self.slots[index] = TaskSlots::EMPTY;
            self.slots[index].gen = id.gen();
        }
        &mut self.slots[index]
    }

    /// Shared access to the cells for `id`, if present and current.
    fn slot(&self, id: SlotId) -> Option<&TaskSlots> {
        self.slots
            .get(id.index() as usize)
            .filter(|s| s.gen == id.gen())
    }

    /// Looks up a verdict for `(slot, op, quarantined)` at operation time
    /// `at`, requiring both epochs to match. On a hit, time-dependent
    /// trace fields are refreshed so the outcome is byte-identical to a
    /// fresh evaluation.
    #[inline]
    pub fn lookup(
        &mut self,
        id: SlotId,
        op: ResourceOp,
        quarantined: bool,
        at: Timestamp,
        task_epoch: u64,
        global_epoch: u64,
    ) -> Option<DecisionOutcome> {
        let hit = match self
            .slot(id)
            .and_then(|s| s.verdicts[usize::from(op.tag()) * 2 + quarantined as usize].as_ref())
        {
            Some(entry)
                if entry.task_epoch == task_epoch
                    && entry.global_epoch == global_epoch
                    && entry.validity.covers(at) =>
            {
                Some(entry.outcome.refreshed_at(at))
            }
            _ => None,
        };
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Stores a freshly evaluated outcome. `delta` must be the threshold
    /// the outcome was evaluated under (see [`Validity::for_trace`]).
    #[allow(clippy::too_many_arguments)] // the cache key is wide by design
    pub fn store(
        &mut self,
        id: SlotId,
        op: ResourceOp,
        quarantined: bool,
        task_epoch: u64,
        global_epoch: u64,
        delta: SimDuration,
        outcome: &DecisionOutcome,
    ) {
        let cached = CachedVerdict {
            task_epoch,
            global_epoch,
            validity: Validity::for_trace(&outcome.trace, delta),
            outcome: *outcome,
        };
        let fresh = self.slot_mut(id).verdicts[usize::from(op.tag()) * 2 + quarantined as usize]
            .replace(cached)
            .is_none();
        if fresh {
            self.entries += 1;
        }
    }

    /// Records the task's most recent decision for `op` (the backing
    /// store of `Kernel::explain_last`).
    #[inline]
    pub fn record_last(&mut self, id: SlotId, op: ResourceOp, outcome: &DecisionOutcome) {
        self.slot_mut(id).last[usize::from(op.tag())] = Some(*outcome);
    }

    /// The task's most recent decision for `op`, if any.
    pub fn last(&self, id: SlotId, op: ResourceOp) -> Option<&DecisionOutcome> {
        self.slot(id)?.last[usize::from(op.tag())].as_ref()
    }

    /// Drops every cell belonging to `id` (process exit / reap). Stale
    /// ids (slot already reused) are a no-op.
    pub fn evict(&mut self, id: SlotId) {
        let index = id.index() as usize;
        if index < self.slots.len() && self.slots[index].gen == id.gen() {
            self.entries -= self.slots[index].live_verdicts();
            self.slots[index] = TaskSlots::EMPTY;
            self.slots[index].gen = id.gen();
        }
    }

    /// Hit/miss/size counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries,
        }
    }

    /// Drops every entry (counters survive).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.entries = 0;
    }
}

/// Step (2) of the propagation protocol: embed the sender's interaction
/// timestamp into the IPC resource slot, keeping the most recent value.
///
/// Returns `true` if the slot changed.
pub fn embed_on_send(slot: &mut Option<Timestamp>, sender: Option<Timestamp>) -> bool {
    match (slot.as_ref(), sender) {
        (_, None) => false,
        (Some(existing), Some(new)) if *existing >= new => false,
        (_, Some(new)) => {
            *slot = Some(new);
            true
        }
    }
}

/// Step (3) of the propagation protocol: the receiving process adopts the
/// resource timestamp if it is more recent than its own.
///
/// Returns the adopted timestamp, or `None` if nothing changed.
pub fn adopt_on_receive(receiver: Option<Timestamp>, slot: Option<Timestamp>) -> Option<Timestamp> {
    match (receiver, slot) {
        (_, None) => None,
        (Some(own), Some(embedded)) if own >= embedded => None,
        (_, Some(embedded)) => Some(embedded),
    }
}

mod pack {
    //! Snapshot codec for credit chains. Verdict-cache entries and last
    //! decisions are *derived* state — rebuilt after restore, never
    //! serialized — so only the provenance types get codecs.

    use overhaul_sim::impl_pack;
    use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};

    use super::{CreditChain, CreditHop, IpcMechanism};

    impl Pack for IpcMechanism {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u8(match self {
                IpcMechanism::Pipe => 0,
                IpcMechanism::UnixSocket => 1,
                IpcMechanism::PosixMq => 2,
                IpcMechanism::SysvMsgq => 3,
                IpcMechanism::Shm => 4,
                IpcMechanism::Pty => 5,
            });
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => IpcMechanism::Pipe,
                1 => IpcMechanism::UnixSocket,
                2 => IpcMechanism::PosixMq,
                3 => IpcMechanism::SysvMsgq,
                4 => IpcMechanism::Shm,
                5 => IpcMechanism::Pty,
                _ => return Err(SnapshotError::BadValue("ipc mechanism")),
            })
        }
    }

    impl Pack for CreditHop {
        fn pack(&self, enc: &mut Enc) {
            match self {
                CreditHop::Direct => enc.put_u8(0),
                CreditHop::Fork => enc.put_u8(1),
                CreditHop::Ipc(mechanism) => {
                    enc.put_u8(2);
                    mechanism.pack(enc);
                }
            }
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => CreditHop::Direct,
                1 => CreditHop::Fork,
                2 => CreditHop::Ipc(Pack::unpack(dec)?),
                _ => return Err(SnapshotError::BadValue("credit hop")),
            })
        }
    }

    impl_pack!(CreditChain {
        len,
        saturated,
        hops
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(task: Option<TaskPolicyView>) -> PolicySnapshot {
        PolicySnapshot {
            delta: SimDuration::from_secs(2),
            grant_all: false,
            channel_required: false,
            channel_state: ChannelState::Up,
            quarantined: false,
            task,
        }
    }

    fn live_task(interaction_ms: Option<u64>) -> TaskPolicyView {
        TaskPolicyView {
            frozen: false,
            interaction: interaction_ms.map(Timestamp::from_millis),
            chain: CreditChain::direct(),
        }
    }

    fn at(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn grant_within_delta_with_trace_evidence() {
        let snap = snapshot(Some(live_task(Some(1_000))));
        let out = PolicyEngine::evaluate_at(&snap, at(2_500));
        assert_eq!(out.decision.verdict, Verdict::Grant);
        match out.trace {
            DecisionTrace::WithinThreshold {
                interaction_at,
                elapsed,
                chain,
                ..
            } => {
                assert_eq!(interaction_at, at(1_000));
                assert_eq!(elapsed, SimDuration::from_millis(1_500));
                assert_eq!(chain.hops(), &[CreditHop::Direct]);
            }
            other => panic!("unexpected trace {other:?}"),
        }
    }

    #[test]
    fn deny_at_exactly_delta_is_stale() {
        // Paper: grant iff n < δ, so n == δ is a deny.
        let snap = snapshot(Some(live_task(Some(0))));
        let out = PolicyEngine::evaluate_at(&snap, at(2_000));
        assert_eq!(out.decision.verdict, Verdict::Deny);
        match out.trace {
            DecisionTrace::Stale {
                elapsed, over_by, ..
            } => {
                assert_eq!(elapsed, SimDuration::from_secs(2));
                assert_eq!(over_by, SimDuration::from_millis(0));
            }
            other => panic!("unexpected trace {other:?}"),
        }
    }

    #[test]
    fn operation_before_interaction_grants_with_zero_elapsed() {
        // saturating_since clamps to 0, which is < δ — matches the
        // pre-refactor monitor exactly.
        let snap = snapshot(Some(live_task(Some(5_000))));
        let out = PolicyEngine::evaluate_at(&snap, at(4_000));
        assert!(matches!(
            out.trace,
            DecisionTrace::WithinThreshold { elapsed, .. } if elapsed == SimDuration::from_millis(0)
        ));
    }

    #[test]
    fn quarantine_wins_over_everything() {
        let mut snap = snapshot(Some(live_task(Some(1_000))));
        snap.quarantined = true;
        snap.channel_required = true;
        snap.channel_state = ChannelState::Down;
        let out = PolicyEngine::evaluate_at(&snap, at(1_100));
        assert_eq!(out.trace, DecisionTrace::Quarantined);
        assert_eq!(out.decision.verdict, Verdict::Deny);
    }

    #[test]
    fn channel_down_fails_closed_before_task_lookup() {
        let mut snap = snapshot(None);
        snap.channel_required = true;
        snap.channel_state = ChannelState::Down;
        let out = PolicyEngine::evaluate_at(&snap, at(10));
        assert_eq!(out.trace, DecisionTrace::ChannelDown);
        assert_eq!(out.decision.verdict, Verdict::Deny);
    }

    #[test]
    fn degraded_channel_does_not_fail_closed() {
        let mut snap = snapshot(Some(live_task(Some(0))));
        snap.channel_required = true;
        snap.channel_state = ChannelState::Degraded;
        let out = PolicyEngine::evaluate_at(&snap, at(100));
        assert_eq!(out.decision.verdict, Verdict::Grant);
    }

    #[test]
    fn frozen_wins_over_grant_all() {
        let mut snap = snapshot(Some(TaskPolicyView {
            frozen: true,
            interaction: Some(at(90)),
            chain: CreditChain::direct(),
        }));
        snap.grant_all = true;
        let out = PolicyEngine::evaluate_at(&snap, at(100));
        assert_eq!(out.trace, DecisionTrace::PermissionsFrozen);
        assert_eq!(out.decision.verdict, Verdict::Deny);
    }

    #[test]
    fn grant_all_covers_stale_and_absent_interactions() {
        let mut stale = snapshot(Some(live_task(Some(0))));
        stale.grant_all = true;
        let out = PolicyEngine::evaluate_at(&stale, at(10_000));
        assert_eq!(
            out.trace,
            DecisionTrace::GrantAll {
                interaction_at: Some(at(0))
            }
        );

        let mut absent = snapshot(Some(live_task(None)));
        absent.grant_all = true;
        let out = PolicyEngine::evaluate_at(&absent, at(10));
        assert_eq!(
            out.trace,
            DecisionTrace::GrantAll {
                interaction_at: None
            }
        );
        assert_eq!(out.decision.verdict, Verdict::Grant);
    }

    #[test]
    fn fresh_interaction_wins_over_grant_all() {
        let mut snap = snapshot(Some(live_task(Some(1_000))));
        snap.grant_all = true;
        let out = PolicyEngine::evaluate_at(&snap, at(1_100));
        assert!(matches!(out.trace, DecisionTrace::WithinThreshold { .. }));
    }

    #[test]
    fn unknown_process_maps_to_no_interaction_reason() {
        let out = PolicyEngine::evaluate_at(&snapshot(None), at(10));
        assert_eq!(out.trace, DecisionTrace::UnknownProcess);
        assert_eq!(out.trace.rule().deny_cause(), None);
        assert_eq!(out.decision.verdict, Verdict::Deny);

        // A live task that never interacted is denied the same way: an
        // ordinary deny, naming no fail-closed cause.
        let out = PolicyEngine::evaluate_at(&snapshot(Some(live_task(None))), at(10));
        assert_eq!(out.trace, DecisionTrace::NoInteraction);
        assert_eq!(out.trace.rule().deny_cause(), None);
        assert_eq!(out.decision.verdict, Verdict::Deny);
    }

    #[test]
    fn audit_details_match_the_legacy_strings() {
        use overhaul_sim::LedgerEntry;

        let grant = PolicyEngine::evaluate_at(&snapshot(Some(live_task(Some(0)))), at(100));
        let deny = PolicyEngine::evaluate_at(&snapshot(Some(live_task(None))), at(100));
        let names = ["mic", "cam", "sensor", "scr", "copy", "paste"];
        for (op, name) in ResourceOp::ALL.into_iter().zip(names) {
            let detail = |trace: DecisionTrace| {
                let granted = trace.verdict().is_grant();
                LedgerEntry::verdict(at(100), Pid::from_raw(2), granted, op.tag(), trace.rule())
                    .detail()
                    .into_owned()
            };
            assert_eq!(detail(grant.trace), format!("op={name} granted"));
            for denied in [
                deny.trace,
                DecisionTrace::PermissionsFrozen,
                DecisionTrace::UnknownProcess,
            ] {
                assert_eq!(detail(denied), format!("op={name} denied"));
            }
            assert_eq!(
                detail(DecisionTrace::ChannelDown),
                format!("op={name} denied (channel down)")
            );
            assert_eq!(
                detail(DecisionTrace::Quarantined),
                format!("op={name} denied (quarantined pending helper update)")
            );
        }
        assert_eq!(
            DecisionTrace::Quarantined.rule().deny_cause(),
            Some("quarantined pending helper update")
        );
        assert_eq!(DecisionTrace::NoInteraction.rule().deny_cause(), None);
    }

    #[test]
    fn credit_chain_saturates_without_losing_prefix() {
        let mut chain = CreditChain::direct();
        for _ in 0..MAX_CREDIT_HOPS + 4 {
            chain = chain.extended(CreditHop::Fork);
        }
        assert_eq!(chain.len(), MAX_CREDIT_HOPS);
        assert_eq!(chain.hops()[0], CreditHop::Direct);
        assert_eq!(chain.hops()[MAX_CREDIT_HOPS - 1], CreditHop::Fork);
    }

    #[test]
    fn credit_chain_saturation_is_recorded_not_silent() {
        let mut chain = CreditChain::direct();
        for _ in 1..MAX_CREDIT_HOPS {
            chain = chain.extended(CreditHop::Fork);
        }
        // Exactly full: nothing dropped yet.
        assert_eq!(chain.len(), MAX_CREDIT_HOPS);
        assert!(!chain.saturated());

        let full = chain;
        chain = chain.extended(CreditHop::Ipc(IpcMechanism::Pipe));
        assert!(chain.saturated(), "dropped hop must set the flag");
        assert_eq!(chain.hops(), full.hops(), "prefix stays intact");
        assert_ne!(chain, full, "saturation is visible to equality");

        // Saturation is rendered, so decision traces and audit output
        // can never silently misreport a truncated chain.
        let rendered = format!("{chain:?}");
        assert!(rendered.contains("saturated"), "{rendered}");
        assert!(!format!("{full:?}").contains("saturated"));
        let trace = DecisionTrace::Stale {
            interaction_at: Timestamp::from_millis(100),
            elapsed: SimDuration::from_millis(5000),
            delta: SimDuration::from_millis(2000),
            over_by: SimDuration::from_millis(3000),
            chain,
        };
        assert!(
            trace.describe().contains("saturated"),
            "{}",
            trace.describe()
        );
    }

    #[test]
    fn ipc_mechanism_names_match_audit_strings() {
        assert_eq!(IpcMechanism::Pipe.as_str(), "pipe");
        assert_eq!(IpcMechanism::UnixSocket.as_str(), "unix-socket");
        assert_eq!(IpcMechanism::PosixMq.as_str(), "posix-mq");
        assert_eq!(IpcMechanism::SysvMsgq.as_str(), "sysv-msgq");
        assert_eq!(IpcMechanism::Shm.as_str(), "shm");
        assert_eq!(IpcMechanism::Pty.to_string(), "pty");
    }

    #[test]
    fn validity_windows_track_the_delta_boundary() {
        let delta = SimDuration::from_secs(2);
        let snap = snapshot(Some(live_task(Some(1_000))));
        let grant = PolicyEngine::evaluate_at(&snap, at(1_500));
        assert_eq!(
            Validity::for_trace(&grant.trace, delta),
            Validity::Before(at(3_000))
        );
        let stale = PolicyEngine::evaluate_at(&snap, at(4_000));
        assert_eq!(
            Validity::for_trace(&stale.trace, delta),
            Validity::AtOrAfter(at(3_000))
        );
        assert!(Validity::Before(at(3_000)).covers(at(2_999)));
        assert!(!Validity::Before(at(3_000)).covers(at(3_000)));
        assert!(Validity::AtOrAfter(at(3_000)).covers(at(3_000)));
        assert!(!Validity::AtOrAfter(at(3_000)).covers(at(2_999)));
    }

    #[test]
    fn cache_hit_refreshes_elapsed_to_match_fresh_evaluation() {
        let delta = SimDuration::from_secs(2);
        let snap = snapshot(Some(live_task(Some(1_000))));
        let mut cache = VerdictCache::new();
        let id = SlotId::new(0, 0);

        let first = PolicyEngine::evaluate_at(&snap, at(1_100));
        cache.store(id, ResourceOp::Mic, false, 1, 1, delta, &first);

        // Same epoch, later op time, still within the window: the hit
        // must equal a fresh evaluation at the new time.
        let hit = cache
            .lookup(id, ResourceOp::Mic, false, at(2_200), 1, 1)
            .expect("hit");
        assert_eq!(hit, PolicyEngine::evaluate_at(&snap, at(2_200)));
        assert!(matches!(
            hit.trace,
            DecisionTrace::WithinThreshold { elapsed, .. } if elapsed == SimDuration::from_millis(1_200)
        ));

        // Past the window the grant must NOT hit: time alone flipped it.
        assert!(cache
            .lookup(id, ResourceOp::Mic, false, at(3_000), 1, 1)
            .is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn cache_misses_on_epoch_changes() {
        let delta = SimDuration::from_secs(2);
        let snap = snapshot(Some(live_task(Some(1_000))));
        let mut cache = VerdictCache::new();
        let id = SlotId::new(0, 0);
        let out = PolicyEngine::evaluate_at(&snap, at(1_100));
        cache.store(id, ResourceOp::Mic, false, 3, 9, delta, &out);

        assert!(cache
            .lookup(id, ResourceOp::Mic, false, at(1_200), 4, 9)
            .is_none());
        assert!(cache
            .lookup(id, ResourceOp::Mic, false, at(1_200), 3, 10)
            .is_none());
        assert!(cache
            .lookup(id, ResourceOp::Cam, false, at(1_200), 3, 9)
            .is_none());
        assert!(cache
            .lookup(id, ResourceOp::Mic, true, at(1_200), 3, 9)
            .is_none());
        assert!(cache
            .lookup(id, ResourceOp::Mic, false, at(1_200), 3, 9)
            .is_some());
    }

    #[test]
    fn stale_deny_hits_refresh_over_by() {
        let delta = SimDuration::from_secs(2);
        let snap = snapshot(Some(live_task(Some(0))));
        let mut cache = VerdictCache::new();
        let id = SlotId::new(0, 0);
        let stale = PolicyEngine::evaluate_at(&snap, at(5_000));
        cache.store(id, ResourceOp::Cam, false, 1, 1, delta, &stale);
        let hit = cache
            .lookup(id, ResourceOp::Cam, false, at(9_000), 1, 1)
            .expect("hit");
        assert_eq!(hit, PolicyEngine::evaluate_at(&snap, at(9_000)));
        match hit.trace {
            DecisionTrace::Stale { over_by, .. } => {
                assert_eq!(over_by, SimDuration::from_secs(7));
            }
            other => panic!("unexpected trace {other:?}"),
        }
    }

    #[test]
    fn cache_clear_drops_entries_but_keeps_counters() {
        let delta = SimDuration::from_secs(2);
        let snap = snapshot(Some(live_task(None)));
        let mut cache = VerdictCache::new();
        let id = SlotId::new(0, 0);
        let out = PolicyEngine::evaluate_at(&snap, at(10));
        cache.store(id, ResourceOp::Mic, false, 1, 1, delta, &out);
        assert!(cache
            .lookup(id, ResourceOp::Mic, false, at(20), 1, 1)
            .is_some());
        cache.clear();
        assert!(cache
            .lookup(id, ResourceOp::Mic, false, at(20), 1, 1)
            .is_none());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn describe_names_the_evidence() {
        let snap = snapshot(Some(live_task(Some(1_000))));
        let grant = PolicyEngine::evaluate_at(&snap, at(1_500));
        let text = grant.trace.describe();
        assert!(text.contains("granted"));
        assert!(text.contains("500ms"));
        assert!(DecisionTrace::ChannelDown
            .describe()
            .contains("fail closed"));
    }
}
