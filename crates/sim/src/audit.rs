//! Structured audit log.
//!
//! Section V of the paper repeatedly relies on Overhaul's logs: the
//! applicability study (§V-C) "verified correct functionality by inspecting
//! the logs produced by our system", and the empirical study (§V-D) checked
//! "OVERHAUL's logs ... that attempts to access the protected resources were
//! detected and blocked". That log is the hash-chained [`crate::Ledger`]:
//! every layer appends categorized [`LedgerEntry`]s to it, and
//! [`AuditLog`] is the view the experiment harnesses query to produce the
//! reported numbers.

use std::fmt;

use crate::ids::Pid;
use crate::ledger::{LedgerEntry, SealedEntry};

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

/// The audit log of one ledger: a borrowed view over its sealed entries
/// that yields the non-silent ones, in append order.
///
/// The view owns nothing and is `Copy`; the iterators it returns borrow
/// the ledger, not the view, so a view returned by value can be queried
/// in place.
///
/// ```
/// use overhaul_sim::{AuditCategory, Ledger, LedgerEntry, Pid, Timestamp};
///
/// let mut ledger = Ledger::new();
/// ledger.append(LedgerEntry::event(
///     Timestamp::from_millis(10),
///     AuditCategory::PermissionDenied,
///     Some(Pid::from_raw(7)),
///     "mic open without interaction",
/// ));
/// assert_eq!(ledger.audit().count(AuditCategory::PermissionDenied), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AuditLog<'a> {
    entries: &'a [SealedEntry],
}

impl<'a> AuditLog<'a> {
    /// The view over `entries` (a ledger's retained history).
    pub(crate) fn new(entries: &'a [SealedEntry]) -> Self {
        AuditLog { entries }
    }

    /// All audit rows, in append (and therefore virtual-time) order.
    pub fn events(self) -> impl Iterator<Item = &'a LedgerEntry> {
        self.entries
            .iter()
            .map(|sealed| &sealed.entry)
            .filter(|entry| !entry.silent)
    }

    /// Number of rows in `category`.
    pub fn count(self, category: AuditCategory) -> usize {
        self.in_category(category).count()
    }

    /// Number of rows in `category` attributed to `pid`.
    pub fn count_for(self, category: AuditCategory, pid: Pid) -> usize {
        self.in_category(category)
            .filter(|e| e.pid == Some(pid))
            .count()
    }

    /// Iterator over rows in `category`.
    pub fn in_category(self, category: AuditCategory) -> impl Iterator<Item = &'a LedgerEntry> {
        self.events().filter(move |e| e.category == category)
    }

    /// Iterator over rows whose detail contains `needle`.
    pub fn matching(self, needle: &'a str) -> impl Iterator<Item = &'a LedgerEntry> {
        self.events().filter(move |e| e.detail().contains(needle))
    }

    /// Total number of rows.
    pub fn len(self) -> usize {
        self.events().count()
    }

    /// Whether the log has no rows.
    pub fn is_empty(self) -> bool {
        self.events().next().is_none()
    }
}

mod pack {
    //! Snapshot codecs for the parts of an audit row the ledger persists:
    //! the category and the detail string.

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
    use crate::ledger::{ConfigKey, Effect, Ledger};
    use crate::time::Timestamp;

    fn row(ms: u64, category: AuditCategory, pid: u32, detail: &'static str) -> LedgerEntry {
        LedgerEntry::event(
            Timestamp::from_millis(ms),
            category,
            Some(Pid::from_raw(pid)),
            detail,
        )
    }

    /// Three audit rows with a silent entry between the first two.
    fn sample() -> Ledger {
        let mut ledger = Ledger::new();
        ledger.append(row(
            1,
            AuditCategory::InteractionNotification,
            10,
            "click on window",
        ));
        ledger.append(LedgerEntry::silent(
            Timestamp::from_millis(1),
            Effect::Config {
                key: ConfigKey::GrantAll,
                value: 0,
            },
        ));
        ledger.append(row(2, AuditCategory::PermissionGranted, 10, "mic"));
        ledger.append(row(3, AuditCategory::PermissionDenied, 11, "cam"));
        ledger
    }

    #[test]
    fn record_and_count() {
        let ledger = sample();
        let log = ledger.audit();
        assert_eq!(log.len(), 3, "the silent entry is not an audit row");
        assert_eq!(log.count(AuditCategory::PermissionGranted), 1);
        assert_eq!(log.count(AuditCategory::AlertDisplayed), 0);
        assert_eq!(log.count(AuditCategory::Info), 0);
    }

    #[test]
    fn count_for_filters_by_pid() {
        let ledger = sample();
        assert_eq!(
            ledger
                .audit()
                .count_for(AuditCategory::PermissionDenied, Pid::from_raw(11)),
            1
        );
        assert_eq!(
            ledger
                .audit()
                .count_for(AuditCategory::PermissionDenied, Pid::from_raw(10)),
            0
        );
    }

    #[test]
    fn matching_searches_detail() {
        let ledger = sample();
        assert_eq!(ledger.audit().matching("mic").count(), 1);
        assert_eq!(ledger.audit().matching("nothing").count(), 0);
    }

    #[test]
    fn events_preserve_order() {
        let ledger = sample();
        let times: Vec<u64> = ledger.audit().events().map(|e| e.at.as_millis()).collect();
        assert_eq!(times, vec![1, 2, 3]);
    }

    #[test]
    fn display_includes_pid_when_present() {
        let ledger = sample();
        let first = ledger.audit().events().next().expect("a row");
        assert_eq!(
            first.to_string(),
            "[t+1ms] interaction-notification pid:10: click on window"
        );
        let anonymous =
            LedgerEntry::event(Timestamp::from_millis(4), AuditCategory::Info, None, "x");
        assert_eq!(anonymous.to_string(), "[t+4ms] info: x");
    }

    #[test]
    fn clear_empties_log() {
        let mut ledger = sample();
        ledger.clear();
        assert!(ledger.audit().is_empty());
        assert_eq!(ledger.audit().len(), 0);
    }
}
