//! Structured audit log.
//!
//! Section V of the paper repeatedly relies on Overhaul's logs: the
//! applicability study (§V-C) "verified correct functionality by inspecting
//! the logs produced by our system", and the empirical study (§V-D) checked
//! "OVERHAUL's logs ... that attempts to access the protected resources were
//! detected and blocked". This module is that log: every layer appends
//! [`AuditEvent`]s, and the experiment harnesses query them to produce the
//! reported numbers.

use std::borrow::Cow;
use std::fmt;

use crate::ids::Pid;
use crate::time::Timestamp;

/// The kind of event recorded in the audit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditCategory {
    /// The display manager authenticated a hardware input event and notified
    /// the kernel permission monitor (an `N_{A,t}` in the paper's notation).
    InteractionNotification,
    /// The permission monitor granted a privileged operation.
    PermissionGranted,
    /// The permission monitor denied a privileged operation.
    PermissionDenied,
    /// A synthetic input event was filtered by the trusted input path.
    SyntheticInputFiltered,
    /// An interaction notification was suppressed by the clickjacking
    /// visibility-threshold defense.
    ClickjackingSuppressed,
    /// A visual alert was rendered on the trusted output path.
    AlertDisplayed,
    /// An interaction timestamp propagated across a process boundary
    /// (fork, IPC message, shared-memory fault, or pseudo-terminal write).
    InteractionPropagated,
    /// A protocol-level attack was detected and blocked by the display
    /// manager (e.g. a forged `SelectionRequest` via `SendEvent`).
    ProtocolAttackBlocked,
    /// ptrace hardening intervened (permissions of a traced process frozen,
    /// or an attach rejected).
    PtraceHardening,
    /// The kernel↔display-manager channel changed health (retry, loss,
    /// state transition, reconnect) or a fault was injected into it.
    ChannelEvent,
    /// Free-form informational event from a harness or app.
    Info,
}

impl fmt::Display for AuditCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AuditCategory::InteractionNotification => "interaction-notification",
            AuditCategory::PermissionGranted => "permission-granted",
            AuditCategory::PermissionDenied => "permission-denied",
            AuditCategory::SyntheticInputFiltered => "synthetic-input-filtered",
            AuditCategory::ClickjackingSuppressed => "clickjacking-suppressed",
            AuditCategory::AlertDisplayed => "alert-displayed",
            AuditCategory::InteractionPropagated => "interaction-propagated",
            AuditCategory::ProtocolAttackBlocked => "protocol-attack-blocked",
            AuditCategory::PtraceHardening => "ptrace-hardening",
            AuditCategory::ChannelEvent => "channel-event",
            AuditCategory::Info => "info",
        };
        f.write_str(name)
    }
}

/// One record in the audit log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEvent {
    /// Virtual time at which the event occurred.
    pub at: Timestamp,
    /// What happened.
    pub category: AuditCategory,
    /// The process the event concerns, when one is identifiable.
    pub pid: Option<Pid>,
    /// Human-readable detail (resource name, operation, reason).
    /// `Cow` keeps the mediation hot path allocation-free: common details
    /// are static strings.
    pub detail: Cow<'static, str>,
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pid {
            Some(pid) => write!(
                f,
                "[{}] {} {}: {}",
                self.at, self.category, pid, self.detail
            ),
            None => write!(f, "[{}] {}: {}", self.at, self.category, self.detail),
        }
    }
}

/// An append-only, queryable event log.
///
/// ```
/// use overhaul_sim::{AuditCategory, AuditLog, Pid, Timestamp};
///
/// let mut log = AuditLog::new();
/// log.record(Timestamp::from_millis(10), AuditCategory::PermissionDenied,
///            Some(Pid::from_raw(7)), "mic open without interaction");
/// assert_eq!(log.count(AuditCategory::PermissionDenied), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    events: Vec<AuditEvent>,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        AuditLog::default()
    }

    /// Appends an event.
    #[inline]
    pub fn record(
        &mut self,
        at: Timestamp,
        category: AuditCategory,
        pid: Option<Pid>,
        detail: impl Into<Cow<'static, str>>,
    ) {
        self.events.push(AuditEvent {
            at,
            category,
            pid,
            detail: detail.into(),
        });
    }

    /// All events, in insertion (and therefore virtual-time) order.
    pub fn events(&self) -> &[AuditEvent] {
        &self.events
    }

    /// Number of events in `category`.
    pub fn count(&self, category: AuditCategory) -> usize {
        self.events
            .iter()
            .filter(|e| e.category == category)
            .count()
    }

    /// Number of events in `category` attributed to `pid`.
    pub fn count_for(&self, category: AuditCategory, pid: Pid) -> usize {
        self.events
            .iter()
            .filter(|e| e.category == category && e.pid == Some(pid))
            .count()
    }

    /// Iterator over events in `category`.
    pub fn in_category(&self, category: AuditCategory) -> impl Iterator<Item = &AuditEvent> {
        self.events.iter().filter(move |e| e.category == category)
    }

    /// Iterator over events whose detail contains `needle`.
    pub fn matching<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a AuditEvent> + 'a {
        self.events
            .iter()
            .filter(move |e| e.detail.contains(needle))
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Moves all events out of `other` into `self`, preserving order.
    pub fn absorb(&mut self, other: &mut AuditLog) {
        self.events.append(&mut other.events);
    }

    /// Drops all events.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

mod pack {
    //! Snapshot codecs for the parts of an audit record the ledger
    //! persists: the category and the detail string. The log itself is
    //! never packed; the ledger serializes the history and the audit view
    //! is rebuilt from it.

    use std::borrow::Cow;

    use super::AuditCategory;
    use crate::snapshot::{Dec, Enc, Pack, SnapshotError};

    impl Pack for AuditCategory {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u8(match self {
                AuditCategory::InteractionNotification => 0,
                AuditCategory::PermissionGranted => 1,
                AuditCategory::PermissionDenied => 2,
                AuditCategory::SyntheticInputFiltered => 3,
                AuditCategory::ClickjackingSuppressed => 4,
                AuditCategory::AlertDisplayed => 5,
                AuditCategory::InteractionPropagated => 6,
                AuditCategory::ProtocolAttackBlocked => 7,
                AuditCategory::PtraceHardening => 8,
                AuditCategory::ChannelEvent => 9,
                AuditCategory::Info => 10,
            });
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => AuditCategory::InteractionNotification,
                1 => AuditCategory::PermissionGranted,
                2 => AuditCategory::PermissionDenied,
                3 => AuditCategory::SyntheticInputFiltered,
                4 => AuditCategory::ClickjackingSuppressed,
                5 => AuditCategory::AlertDisplayed,
                6 => AuditCategory::InteractionPropagated,
                7 => AuditCategory::ProtocolAttackBlocked,
                8 => AuditCategory::PtraceHardening,
                9 => AuditCategory::ChannelEvent,
                10 => AuditCategory::Info,
                _ => return Err(SnapshotError::BadValue("audit category")),
            })
        }
    }

    /// `Cow` details encode by content; restore owns the string. Equality
    /// and rendering only see the content, so this is transparent.
    impl Pack for Cow<'static, str> {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u64(self.len() as u64);
            enc.put_slice(self.as_bytes());
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(Cow::Owned(String::unpack(dec)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AuditLog {
        let mut log = AuditLog::new();
        log.record(
            Timestamp::from_millis(1),
            AuditCategory::InteractionNotification,
            Some(Pid::from_raw(10)),
            "click on window",
        );
        log.record(
            Timestamp::from_millis(2),
            AuditCategory::PermissionGranted,
            Some(Pid::from_raw(10)),
            "mic",
        );
        log.record(
            Timestamp::from_millis(3),
            AuditCategory::PermissionDenied,
            Some(Pid::from_raw(11)),
            "cam",
        );
        log
    }

    #[test]
    fn record_and_count() {
        let log = sample();
        assert_eq!(log.len(), 3);
        assert_eq!(log.count(AuditCategory::PermissionGranted), 1);
        assert_eq!(log.count(AuditCategory::AlertDisplayed), 0);
    }

    #[test]
    fn count_for_filters_by_pid() {
        let log = sample();
        assert_eq!(
            log.count_for(AuditCategory::PermissionDenied, Pid::from_raw(11)),
            1
        );
        assert_eq!(
            log.count_for(AuditCategory::PermissionDenied, Pid::from_raw(10)),
            0
        );
    }

    #[test]
    fn matching_searches_detail() {
        let log = sample();
        assert_eq!(log.matching("mic").count(), 1);
        assert_eq!(log.matching("nothing").count(), 0);
    }

    #[test]
    fn events_preserve_order() {
        let log = sample();
        let times: Vec<u64> = log.events().iter().map(|e| e.at.as_millis()).collect();
        assert_eq!(times, vec![1, 2, 3]);
    }

    #[test]
    fn absorb_moves_events() {
        let mut a = sample();
        let mut b = AuditLog::new();
        b.record(Timestamp::from_millis(4), AuditCategory::Info, None, "x");
        a.absorb(&mut b);
        assert_eq!(a.len(), 4);
        assert!(b.is_empty());
    }

    #[test]
    fn display_includes_pid_when_present() {
        let log = sample();
        let rendered = log.events()[0].to_string();
        assert!(rendered.contains("pid:10"));
        assert!(rendered.contains("interaction-notification"));
    }

    #[test]
    fn clear_empties_log() {
        let mut log = sample();
        log.clear();
        assert!(log.is_empty());
    }
}
