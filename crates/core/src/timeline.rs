//! Unified audit timeline.
//!
//! Both halves of the system keep their own audit logs (the kernel's
//! permission monitor and the display manager's trusted paths). The §V-C
//! and §V-D analyses work by "inspecting the logs produced by our system";
//! [`merge`] interleaves the two logs into one chronological view so a
//! single pass answers questions like *which interaction led to this
//! grant* or *which component blocked this attack*.

use std::fmt;

use overhaul_sim::{LedgerEntry, Pid};

use crate::system::System;

/// Which component recorded an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// The kernel (permission monitor, propagation, ptrace).
    Kernel,
    /// The display manager (trusted input/output, display mediation).
    DisplayManager,
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Source::Kernel => "kernel",
            Source::DisplayManager => "xserver",
        })
    }
}

/// One entry in the merged timeline: an audit row and the component
/// whose ledger holds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEntry<'a> {
    /// Recording component.
    pub source: Source,
    /// The audit row.
    pub entry: &'a LedgerEntry,
}

impl fmt::Display for TimelineEntry<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = self.entry;
        write!(f, "[{}] {:>7} {}", e.at, self.source, e.category)?;
        if let Some(pid) = e.pid {
            write!(f, " {pid}")?;
        }
        write!(f, ": {}", e.detail())
    }
}

/// Merges both audit logs into one chronological timeline. Entries with
/// equal timestamps keep kernel-before-display order (notifications reach
/// the monitor before the decision they enable).
pub fn merge(system: &System) -> Vec<TimelineEntry<'_>> {
    let kernel = system.kernel_audit().events().map(|entry| TimelineEntry {
        source: Source::Kernel,
        entry,
    });
    let x = system.x_audit().events().map(|entry| TimelineEntry {
        source: Source::DisplayManager,
        entry,
    });
    let mut entries: Vec<TimelineEntry<'_>> = kernel.chain(x).collect();
    entries.sort_by_key(|e| (e.entry.at, matches!(e.source, Source::DisplayManager)));
    entries
}

/// Renders a timeline, optionally filtered to one pid.
pub fn render(entries: &[TimelineEntry<'_>], only_pid: Option<Pid>) -> String {
    entries
        .iter()
        .filter(|e| only_pid.is_none() || e.entry.pid == only_pid)
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_sim::{AuditCategory, SimDuration};
    use overhaul_xserver::geometry::Rect;

    #[test]
    fn merge_is_chronological_and_complete() {
        let mut system = System::protected();
        let app = system
            .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
            .unwrap();
        system.settle();
        system.click_window(app.window);
        system.advance(SimDuration::from_millis(100));
        let _ = system.open_device(app.pid, "/dev/snd/mic0");

        let timeline = merge(&system);
        assert_eq!(
            timeline.len(),
            system.kernel_audit().len() + system.x_audit().len()
        );
        for pair in timeline.windows(2) {
            assert!(
                pair[0].entry.at <= pair[1].entry.at,
                "out of order: {pair:?}"
            );
        }
        // The story reads in causal order: notification before grant
        // before alert.
        let interaction = timeline
            .iter()
            .position(|e| e.entry.category == AuditCategory::InteractionNotification)
            .expect("interaction present");
        let grant = timeline
            .iter()
            .position(|e| e.entry.category == AuditCategory::PermissionGranted)
            .expect("grant present");
        let alert = timeline
            .iter()
            .position(|e| e.entry.category == AuditCategory::AlertDisplayed)
            .expect("alert present");
        assert!(interaction < grant, "notification precedes the grant");
        assert!(grant < alert, "grant precedes the alert");
    }

    #[test]
    fn render_filters_by_pid() {
        let mut system = System::protected();
        let spy = system.spawn_process(None, "/usr/bin/.spy").unwrap();
        let other = system.spawn_process(None, "/usr/bin/other").unwrap();
        let _ = system.open_device(spy, "/dev/video0");
        let _ = system.open_device(other, "/dev/snd/mic0");
        let timeline = merge(&system);
        let spy_only = render(&timeline, Some(spy));
        assert!(spy_only.contains(&spy.to_string()));
        assert!(!spy_only.contains(&other.to_string()));
    }

    #[test]
    fn sources_are_labeled() {
        let mut system = System::protected();
        let spy = system.spawn_process(None, "/usr/bin/.spy").unwrap();
        let _ = system.open_device(spy, "/dev/video0");
        let rendered = render(&merge(&system), None);
        assert!(rendered.contains("kernel"));
        assert!(rendered.contains("xserver"));
    }
}
