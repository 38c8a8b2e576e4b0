//! The kernel permission monitor (§III-B, §IV-B).
//!
//! The monitor stores interaction notifications from the display manager in
//! each task's `task_struct`, and permission queries are answered by
//! *temporal proximity*: a privileged operation at time `t+n` is correlated
//! with the latest authentic input at time `t`, and granted iff `n < δ`
//! (evaluated by [`crate::policy::PolicyEngine`] on the kernel's decide
//! path, which counts every verdict here). The paper
//! empirically sets δ = 2 s ("less than 1 second could lead to falsely
//! revoked permissions, but 2 seconds is sufficient").
//!
//! For Table I the authors "temporarily modified OVERHAUL's permission
//! monitor to grant access to resources even when there is no user
//! interaction, in order to exercise the entire execution path" — that mode
//! is [`MonitorConfig::grant_all`].

use std::fmt;

use overhaul_sim::{Pid, SimDuration, Timestamp, OP_NAMES};

use crate::error::SysResult;
use crate::process::ProcessTable;

/// A privileged operation class, the paper's
/// `op ∈ {copy, paste, scr, mic, cam}` (plus generic sensors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceOp {
    /// Microphone access.
    Mic = 0,
    /// Camera access.
    Cam = 1,
    /// Other sensor access.
    Sensor = 2,
    /// Screen-contents capture.
    Screen = 3,
    /// Clipboard copy (selection ownership).
    Copy = 4,
    /// Clipboard paste (selection conversion).
    Paste = 5,
}

impl ResourceOp {
    /// Every operation class, in [`ResourceOp::tag`] order.
    pub(crate) const ALL: [ResourceOp; 6] = [
        ResourceOp::Mic,
        ResourceOp::Cam,
        ResourceOp::Sensor,
        ResourceOp::Screen,
        ResourceOp::Copy,
        ResourceOp::Paste,
    ];

    /// The stable one-byte tag of the operation class (its discriminant):
    /// its snapshot encoding, the `op` of a ledger verdict, and its index
    /// into [`OP_NAMES`].
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The paper's short name for the operation class — static, so trace
    /// spans and metric labels on the mediation hot path never allocate.
    pub fn as_str(self) -> &'static str {
        OP_NAMES[usize::from(self.tag())]
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

/// The monitor's answer to a permission query. Why it was given is
/// recorded once, in the [`crate::policy::DecisionTrace`] of the same
/// [`crate::policy::DecisionOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Grant or deny.
    pub verdict: Verdict,
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

/// The kernel permission monitor: it records interaction notifications
/// in the task structure, keeps the decision and channel counters, and
/// queues visual alerts. Its tunables are the kernel's
/// [`crate::KernelConfig::monitor`], which the decide path reads.
///
/// ```
/// use overhaul_kernel::monitor::PermissionMonitor;
/// use overhaul_kernel::process::ProcessTable;
/// use overhaul_sim::{Pid, Timestamp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut tasks = ProcessTable::new();
/// let app = tasks.fork(Pid::INIT)?;
/// let mut monitor = PermissionMonitor::default();
///
/// let at = Timestamp::from_millis(1_000);
/// assert!(monitor.record_interaction(&mut tasks, app, at)?);
/// assert_eq!(tasks.get(app)?.interaction(), Some(at));
/// assert_eq!(monitor.stats().notifications, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PermissionMonitor {
    stats: MonitorStats,
    pending_alerts: Vec<AlertRequest>,
}

impl PermissionMonitor {
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

    /// Counts a verdict of the kernel's decision path.
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

    use super::{AlertRequest, MonitorConfig, MonitorStats, PermissionMonitor, ResourceOp};

    impl Pack for ResourceOp {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u8(self.tag());
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            ResourceOp::ALL
                .get(usize::from(dec.take_u8()?))
                .copied()
                .ok_or(SnapshotError::BadValue("resource op"))
        }
    }

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
        stats,
        pending_alerts
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PermissionMonitor, ProcessTable, Pid) {
        let mut tasks = ProcessTable::new();
        let pid = tasks.fork(Pid::INIT).unwrap();
        (PermissionMonitor::default(), tasks, pid)
    }

    #[test]
    fn deny_without_interaction() {
        // A live task the monitor never saw an interaction for is denied on
        // the kernel's decide path, and the deny is counted here.
        let mut kernel = crate::Kernel::new(overhaul_sim::Clock::new(), Default::default());
        let pid = kernel.sys_fork(Pid::INIT).unwrap();
        let d = kernel.decide_direct(pid, Timestamp::from_millis(10), ResourceOp::Mic);
        assert_eq!(d.verdict, Verdict::Deny);
        assert_eq!(
            kernel.explain_last(pid, ResourceOp::Mic).map(|o| o.trace),
            Some(crate::policy::DecisionTrace::NoInteraction)
        );
        let stats = kernel.monitor_stats();
        assert_eq!((stats.grants, stats.denies), (0, 1));
    }

    #[test]
    fn stats_track_grants_and_denies() {
        let (mut monitor, mut tasks, pid) = setup();
        monitor
            .record_interaction(&mut tasks, pid, Timestamp::from_millis(100))
            .unwrap();
        monitor.note_verdict(true);
        monitor.note_verdict(false);
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
        use overhaul_sim::{Dec, Enc, Pack, SnapshotError};

        assert_eq!(ResourceOp::Screen.to_string(), "scr");
        assert_eq!(ResourceOp::Mic.to_string(), "mic");
        assert_eq!(ResourceOp::Paste.to_string(), "paste");
        // `ALL` lists the ops in tag order, each tag round-trips through
        // the snapshot codec, and a tag past the last op is rejected.
        for (i, op) in ResourceOp::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(op.tag()), i);
            let mut enc = Enc::new();
            op.pack(&mut enc);
            assert_eq!(ResourceOp::unpack(&mut Dec::new(enc.bytes())), Ok(op));
        }
        assert_eq!(
            ResourceOp::unpack(&mut Dec::new(&[6])),
            Err(SnapshotError::BadValue("resource op"))
        );
    }
}
