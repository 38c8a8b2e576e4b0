//! The kernel permission monitor (§III-B, §IV-B).
//!
//! The monitor stores interaction notifications from the display manager in
//! each task's `task_struct` and answers permission queries by *temporal
//! proximity*: a privileged operation at time `t+n` is correlated with the
//! latest authentic input at time `t`, and granted iff `n < δ`. The paper
//! empirically sets δ = 2 s ("less than 1 second could lead to falsely
//! revoked permissions, but 2 seconds is sufficient").
//!
//! For Table I the authors "temporarily modified OVERHAUL's permission
//! monitor to grant access to resources even when there is no user
//! interaction, in order to exercise the entire execution path" — that mode
//! is [`MonitorConfig::grant_all`].

use std::fmt;

use overhaul_sim::{Pid, SimDuration, Timestamp};

use crate::error::SysResult;
use crate::netlink::ChannelState;
use crate::policy::{PolicyEngine, PolicySnapshot, TaskPolicyView};
use crate::process::ProcessTable;

/// A privileged operation class, the paper's
/// `op ∈ {copy, paste, scr, mic, cam}` (plus generic sensors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceOp {
    /// Microphone access.
    Mic,
    /// Camera access.
    Cam,
    /// Other sensor access.
    Sensor,
    /// Screen-contents capture.
    Screen,
    /// Clipboard copy (selection ownership).
    Copy,
    /// Clipboard paste (selection conversion).
    Paste,
}

impl ResourceOp {
    /// The paper's short name for the operation class — static, so trace
    /// spans and metric labels on the mediation hot path never allocate.
    pub fn as_str(self) -> &'static str {
        match self {
            ResourceOp::Mic => "mic",
            ResourceOp::Cam => "cam",
            ResourceOp::Sensor => "sensor",
            ResourceOp::Screen => "scr",
            ResourceOp::Copy => "copy",
            ResourceOp::Paste => "paste",
        }
    }
}

impl fmt::Display for ResourceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Grant or deny.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The operation may proceed.
    Grant,
    /// The operation is blocked.
    Deny,
}

impl Verdict {
    /// Whether this is a grant.
    pub fn is_grant(self) -> bool {
        matches!(self, Verdict::Grant)
    }
}

/// Why the monitor decided the way it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// Granted: the operation followed an authentic interaction within δ.
    WithinThreshold {
        /// `n = (t+n) - t`, the interaction-to-operation gap.
        elapsed: SimDuration,
    },
    /// Granted unconditionally (benchmark mode, checks still executed).
    GrantAll,
    /// Denied: the process never received an authentic interaction.
    NoInteraction,
    /// Denied: the last interaction is older than δ.
    Expired {
        /// The stale gap.
        elapsed: SimDuration,
    },
    /// Denied: ptrace hardening froze this task's permissions.
    PermissionsFrozen,
    /// Denied: the kernel↔display-manager channel is down, so no authentic
    /// interaction evidence can reach the monitor — fail closed.
    ChannelDown,
    /// Denied: the device is quarantined pending a helper map update.
    Quarantined,
}

/// The monitor's answer to a permission query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Grant or deny.
    pub verdict: Verdict,
    /// Why.
    pub reason: DecisionReason,
}

/// A pending visual-alert request from the kernel to the display manager
/// (`V_{A,op}` in the paper; step 6 of Figure 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertRequest {
    /// Process that performed (or attempted) the operation.
    pub pid: Pid,
    /// Process name, resolved kernel-side so the display manager can render
    /// a meaningful alert even for processes that are not X clients.
    pub process_name: String,
    /// The operation class.
    pub op: ResourceOp,
    /// Whether the access was granted (alerts fire for blocked attempts
    /// too, as in the §V-B camera-probe experiment).
    pub granted: bool,
    /// When the decision was made.
    pub at: Timestamp,
    /// For denials with an out-of-band cause (channel down, device
    /// quarantine), the cause exactly as the overlay should render it.
    /// `None` for plain temporal-proximity outcomes.
    pub reason: Option<String>,
}

/// Tunables of the permission monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Temporal-proximity threshold δ. Paper default: 2 s.
    pub delta: SimDuration,
    /// Benchmark mode: run every check but always grant (Table I setup).
    pub grant_all: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            delta: SimDuration::from_secs(2),
            grant_all: false,
        }
    }
}

/// Running counters kept by the monitor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Interaction notifications recorded.
    pub notifications: u64,
    /// Queries answered `Grant`.
    pub grants: u64,
    /// Queries answered `Deny`.
    pub denies: u64,
    /// Channel messages that needed at least one retry to get through.
    pub channel_retries: u64,
    /// Channel messages lost for good (all retries exhausted).
    pub channel_drops: u64,
    /// Times a restarted display manager re-authenticated the channel.
    pub channel_reconnects: u64,
    /// Duplicate channel deliveries suppressed by sequence-number dedup.
    pub channel_dup_suppressed: u64,
    /// Denials issued purely because the channel was down (fail closed).
    /// Every one of these is also counted in `denies`.
    pub fail_closed_denies: u64,
    /// Visual-alert requests queued for the display manager.
    pub alerts_queued: u64,
}

/// The kernel permission monitor.
///
/// ```
/// use overhaul_kernel::monitor::{MonitorConfig, PermissionMonitor};
/// use overhaul_kernel::process::ProcessTable;
/// use overhaul_sim::{Pid, Timestamp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut tasks = ProcessTable::new();
/// let app = tasks.fork(Pid::INIT)?;
/// let mut monitor = PermissionMonitor::new(MonitorConfig::default());
///
/// monitor.record_interaction(&mut tasks, app, Timestamp::from_millis(1_000))?;
/// // 500 ms later: within δ = 2 s, granted.
/// assert!(monitor.check(&tasks, app, Timestamp::from_millis(1_500))?.verdict.is_grant());
/// // 5 s later: expired, denied.
/// assert!(!monitor.check(&tasks, app, Timestamp::from_millis(6_000))?.verdict.is_grant());
/// # Ok(())
/// # }
/// ```
/// The kernel permission monitor.
#[derive(Debug, Clone, Default)]
pub struct PermissionMonitor {
    config: MonitorConfig,
    stats: MonitorStats,
    pending_alerts: Vec<AlertRequest>,
}

impl PermissionMonitor {
    /// Creates a monitor with the given tunables.
    pub fn new(config: MonitorConfig) -> Self {
        PermissionMonitor {
            config,
            stats: MonitorStats::default(),
            pending_alerts: Vec::new(),
        }
    }

    /// Current configuration.
    pub fn config(&self) -> MonitorConfig {
        self.config
    }

    /// Replaces the configuration (δ sweeps in the ablation benches).
    pub fn set_config(&mut self, config: MonitorConfig) {
        self.config = config;
    }

    /// Counters.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Records an interaction notification `N_{A,t}` for `pid` inside its
    /// task structure. Returns whether the stored timestamp changed.
    ///
    /// # Errors
    ///
    /// [`crate::error::Errno::Esrch`] if `pid` does not exist — the binding
    /// between notifications and processes is by pid, so a stale pid is
    /// simply dropped.
    pub fn record_interaction(
        &mut self,
        tasks: &mut ProcessTable,
        pid: Pid,
        at: Timestamp,
    ) -> SysResult<bool> {
        let task = tasks.get_mut(pid)?;
        self.stats.notifications += 1;
        Ok(task.observe_interaction(at))
    }

    /// Answers a permission query `Q_{A,t+n}`: compares the task's stored
    /// interaction time `t` with the operation time `op_at = t+n` and grants
    /// iff `n < δ`.
    ///
    /// # Errors
    ///
    /// [`crate::error::Errno::Esrch`] if `pid` does not exist.
    pub fn check(
        &mut self,
        tasks: &ProcessTable,
        pid: Pid,
        op_at: Timestamp,
    ) -> SysResult<Decision> {
        let task = tasks.get(pid)?;
        // The monitor answers pure temporal-proximity queries: channel state
        // and device quarantine are the kernel's concern (handled before the
        // query ever reaches the monitor), so the snapshot is benign there.
        let snapshot = PolicySnapshot {
            delta: self.config.delta,
            grant_all: self.config.grant_all,
            channel_required: false,
            channel_state: ChannelState::Up,
            quarantined: false,
            task: Some(TaskPolicyView {
                frozen: task.permissions_frozen(),
                interaction: task.raw_interaction(),
                chain: task.credit_chain(),
            }),
        };
        let outcome = PolicyEngine::evaluate_at(&snapshot, op_at);
        self.note_verdict(outcome.decision.verdict.is_grant());
        Ok(outcome.decision)
    }

    /// Counts a verdict computed outside the monitor (the kernel's unified
    /// decision path) so `grants`/`denies` stay authoritative regardless of
    /// which layer evaluated the policy.
    pub(crate) fn note_verdict(&mut self, granted: bool) {
        if granted {
            self.stats.grants += 1;
        } else {
            self.stats.denies += 1;
        }
    }

    /// Records a channel message retry.
    pub fn note_channel_retry(&mut self) {
        self.stats.channel_retries += 1;
    }

    /// Records a channel message lost after exhausting its retries.
    pub fn note_channel_drop(&mut self) {
        self.stats.channel_drops += 1;
    }

    /// Records a display-manager channel re-authentication.
    pub fn note_channel_reconnect(&mut self) {
        self.stats.channel_reconnects += 1;
    }

    /// Records a duplicate delivery suppressed by sequence-number dedup.
    pub fn note_dup_suppressed(&mut self) {
        self.stats.channel_dup_suppressed += 1;
    }

    /// Records a denial issued because the channel was down (fail closed).
    /// Counts in both `fail_closed_denies` and the overall `denies`.
    pub fn note_fail_closed(&mut self) {
        self.stats.fail_closed_denies += 1;
        self.stats.denies += 1;
    }

    /// Queues a visual alert request `V_{A,op}` for the display manager.
    pub fn request_alert(&mut self, alert: AlertRequest) {
        self.stats.alerts_queued += 1;
        self.pending_alerts.push(alert);
    }

    /// Drains queued alert requests (read by the secure channel / core).
    pub fn take_alerts(&mut self) -> Vec<AlertRequest> {
        std::mem::take(&mut self.pending_alerts)
    }

    /// Number of alerts waiting to be delivered.
    pub fn pending_alert_count(&self) -> usize {
        self.pending_alerts.len()
    }
}

mod pack {
    //! Snapshot codec for the monitor (hashed state: stats and queued
    //! alerts are part of the event-history-determined kernel state).

    use overhaul_sim::impl_pack;
    use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};

    use super::{
        AlertRequest, Decision, DecisionReason, MonitorConfig, MonitorStats, PermissionMonitor,
        ResourceOp, Verdict,
    };

    impl Pack for ResourceOp {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u8(match self {
                ResourceOp::Mic => 0,
                ResourceOp::Cam => 1,
                ResourceOp::Sensor => 2,
                ResourceOp::Screen => 3,
                ResourceOp::Copy => 4,
                ResourceOp::Paste => 5,
            });
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => ResourceOp::Mic,
                1 => ResourceOp::Cam,
                2 => ResourceOp::Sensor,
                3 => ResourceOp::Screen,
                4 => ResourceOp::Copy,
                5 => ResourceOp::Paste,
                _ => return Err(SnapshotError::BadValue("resource op")),
            })
        }
    }

    impl Pack for Verdict {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u8(match self {
                Verdict::Grant => 0,
                Verdict::Deny => 1,
            });
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => Verdict::Grant,
                1 => Verdict::Deny,
                _ => return Err(SnapshotError::BadValue("verdict")),
            })
        }
    }

    impl Pack for DecisionReason {
        fn pack(&self, enc: &mut Enc) {
            match self {
                DecisionReason::WithinThreshold { elapsed } => {
                    enc.put_u8(0);
                    elapsed.pack(enc);
                }
                DecisionReason::GrantAll => enc.put_u8(1),
                DecisionReason::NoInteraction => enc.put_u8(2),
                DecisionReason::Expired { elapsed } => {
                    enc.put_u8(3);
                    elapsed.pack(enc);
                }
                DecisionReason::PermissionsFrozen => enc.put_u8(4),
                DecisionReason::ChannelDown => enc.put_u8(5),
                DecisionReason::Quarantined => enc.put_u8(6),
            }
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => DecisionReason::WithinThreshold {
                    elapsed: Pack::unpack(dec)?,
                },
                1 => DecisionReason::GrantAll,
                2 => DecisionReason::NoInteraction,
                3 => DecisionReason::Expired {
                    elapsed: Pack::unpack(dec)?,
                },
                4 => DecisionReason::PermissionsFrozen,
                5 => DecisionReason::ChannelDown,
                6 => DecisionReason::Quarantined,
                _ => return Err(SnapshotError::BadValue("decision reason")),
            })
        }
    }

    impl_pack!(Decision { verdict, reason });
    impl_pack!(AlertRequest {
        pid,
        process_name,
        op,
        granted,
        at,
        reason
    });
    impl_pack!(MonitorConfig { delta, grant_all });
    impl_pack!(MonitorStats {
        notifications,
        grants,
        denies,
        channel_retries,
        channel_drops,
        channel_reconnects,
        channel_dup_suppressed,
        fail_closed_denies,
        alerts_queued
    });
    impl_pack!(PermissionMonitor {
        config,
        stats,
        pending_alerts
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Errno;

    fn setup() -> (PermissionMonitor, ProcessTable, Pid) {
        let mut tasks = ProcessTable::new();
        let pid = tasks.fork(Pid::INIT).unwrap();
        (PermissionMonitor::new(MonitorConfig::default()), tasks, pid)
    }

    #[test]
    fn grant_within_delta() {
        let (mut monitor, mut tasks, pid) = setup();
        monitor
            .record_interaction(&mut tasks, pid, Timestamp::from_millis(1000))
            .unwrap();
        let d = monitor
            .check(&tasks, pid, Timestamp::from_millis(2500))
            .unwrap();
        assert_eq!(d.verdict, Verdict::Grant);
        assert_eq!(
            d.reason,
            DecisionReason::WithinThreshold {
                elapsed: SimDuration::from_millis(1500)
            }
        );
    }

    #[test]
    fn deny_at_exactly_delta() {
        // Paper: grant iff n < δ, so n == δ is a deny.
        let (mut monitor, mut tasks, pid) = setup();
        monitor
            .record_interaction(&mut tasks, pid, Timestamp::from_millis(0))
            .unwrap();
        let d = monitor
            .check(&tasks, pid, Timestamp::from_millis(2000))
            .unwrap();
        assert_eq!(d.verdict, Verdict::Deny);
    }

    #[test]
    fn deny_without_interaction() {
        let (mut monitor, tasks, pid) = setup();
        let d = monitor
            .check(&tasks, pid, Timestamp::from_millis(10))
            .unwrap();
        assert_eq!(d.verdict, Verdict::Deny);
        assert_eq!(d.reason, DecisionReason::NoInteraction);
    }

    #[test]
    fn deny_after_expiry() {
        let (mut monitor, mut tasks, pid) = setup();
        monitor
            .record_interaction(&mut tasks, pid, Timestamp::from_millis(0))
            .unwrap();
        let d = monitor
            .check(&tasks, pid, Timestamp::from_millis(5000))
            .unwrap();
        assert_eq!(d.verdict, Verdict::Deny);
        assert_eq!(
            d.reason,
            DecisionReason::Expired {
                elapsed: SimDuration::from_secs(5)
            }
        );
    }

    #[test]
    fn grant_all_mode_grants_but_still_counts() {
        let (mut monitor, tasks, pid) = setup();
        monitor.set_config(MonitorConfig {
            grant_all: true,
            ..MonitorConfig::default()
        });
        let d = monitor
            .check(&tasks, pid, Timestamp::from_millis(10))
            .unwrap();
        assert_eq!(d.verdict, Verdict::Grant);
        assert_eq!(d.reason, DecisionReason::GrantAll);
        assert_eq!(monitor.stats().grants, 1);
    }

    #[test]
    fn frozen_task_denied_even_in_grant_all() {
        let (mut monitor, mut tasks, pid) = setup();
        monitor.set_config(MonitorConfig {
            grant_all: true,
            ..MonitorConfig::default()
        });
        tasks.get_mut(pid).unwrap().set_permissions_frozen(true);
        let d = monitor
            .check(&tasks, pid, Timestamp::from_millis(10))
            .unwrap();
        assert_eq!(d.verdict, Verdict::Deny);
        assert_eq!(d.reason, DecisionReason::PermissionsFrozen);
    }

    #[test]
    fn unknown_pid_is_esrch() {
        let (mut monitor, tasks, _) = setup();
        assert_eq!(
            monitor
                .check(&tasks, Pid::from_raw(999), Timestamp::ZERO)
                .err(),
            Some(Errno::Esrch)
        );
    }

    #[test]
    fn stats_track_grants_and_denies() {
        let (mut monitor, mut tasks, pid) = setup();
        monitor
            .record_interaction(&mut tasks, pid, Timestamp::from_millis(100))
            .unwrap();
        monitor
            .check(&tasks, pid, Timestamp::from_millis(200))
            .unwrap();
        monitor
            .check(&tasks, pid, Timestamp::from_millis(9000))
            .unwrap();
        let stats = monitor.stats();
        assert_eq!(stats.notifications, 1);
        assert_eq!(stats.grants, 1);
        assert_eq!(stats.denies, 1);
    }

    #[test]
    fn alerts_queue_and_drain() {
        let (mut monitor, _, pid) = setup();
        monitor.request_alert(AlertRequest {
            pid,
            process_name: "spy".into(),
            op: ResourceOp::Cam,
            granted: false,
            at: Timestamp::from_millis(5),
            reason: None,
        });
        assert_eq!(monitor.pending_alert_count(), 1);
        let alerts = monitor.take_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].op, ResourceOp::Cam);
        assert_eq!(monitor.pending_alert_count(), 0);
    }

    #[test]
    fn channel_counters_accumulate() {
        let (mut monitor, _, _) = setup();
        monitor.note_channel_retry();
        monitor.note_channel_retry();
        monitor.note_channel_drop();
        monitor.note_channel_reconnect();
        monitor.note_dup_suppressed();
        monitor.note_fail_closed();
        let stats = monitor.stats();
        assert_eq!(stats.channel_retries, 2);
        assert_eq!(stats.channel_drops, 1);
        assert_eq!(stats.channel_reconnects, 1);
        assert_eq!(stats.channel_dup_suppressed, 1);
        assert_eq!(stats.fail_closed_denies, 1);
        assert_eq!(stats.denies, 1, "fail-closed denials count as denials");
    }

    #[test]
    fn queued_alerts_are_counted() {
        let (mut monitor, _, pid) = setup();
        monitor.request_alert(AlertRequest {
            pid,
            process_name: "spy".into(),
            op: ResourceOp::Mic,
            granted: true,
            at: Timestamp::from_millis(1),
            reason: None,
        });
        monitor.take_alerts();
        assert_eq!(monitor.stats().alerts_queued, 1, "survives the drain");
    }

    #[test]
    fn resource_op_display_matches_paper_notation() {
        assert_eq!(ResourceOp::Screen.to_string(), "scr");
        assert_eq!(ResourceOp::Mic.to_string(), "mic");
        assert_eq!(ResourceOp::Paste.to_string(), "paste");
    }
}
