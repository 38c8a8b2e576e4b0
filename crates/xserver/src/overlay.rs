//! The trusted output path: overlay alerts (§IV-A, *Trusted output*).
//!
//! Alerts are "rendered on top of all other windows, and cannot be blocked,
//! obscured, or manipulated by other X clients" — in this simulation they
//! live outside the window tree entirely, in a layer only the server can
//! write. Alerts "make use of a visual shared secret set by the user of the
//! system to prevent malicious applications from forging fake alerts"
//! (the cat image in the paper's Figure 5).

use overhaul_sim::Timestamp;

/// One alert shown on the trusted overlay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Name of the process that accessed (or attempted) the resource.
    pub process: String,
    /// The resource operation, in the paper's notation (`mic`, `cam`,
    /// `scr`, ...).
    pub op: String,
    /// Whether the access was granted (`true`) or blocked (`false`).
    pub granted: bool,
    /// When the alert appeared.
    pub shown_at: Timestamp,
    /// When it disappears.
    pub expires: Timestamp,
    /// The user's visual shared secret, embedded in the rendering.
    pub secret: String,
    /// Whether this alert was replayed after a display-manager restart
    /// (the decision it reports predates the crash). Replayed alerts are
    /// visually marked so the user knows they are late.
    pub replayed: bool,
    /// For denials with an out-of-band cause (channel down, device
    /// quarantine): the cause, rendered verbatim so the overlay, the audit
    /// log, and procfs agree. `None` for plain temporal-proximity outcomes.
    pub reason: Option<String>,
}

impl Alert {
    /// The on-screen text of the alert, secret included.
    pub fn render(&self) -> String {
        let verb = if self.granted {
            "is using"
        } else {
            "was blocked from"
        };
        let cause = match &self.reason {
            Some(reason) => format!(" ({reason})"),
            None => String::new(),
        };
        let suffix = if self.replayed { " (delayed)" } else { "" };
        format!(
            "[{}] {} {} the {}{}{}",
            self.secret, self.process, verb, self.op, cause, suffix
        )
    }

    /// Whether `rendered` could be an authentic alert under `secret`.
    /// A forged alert drawn by a regular client cannot include the secret
    /// (it never leaves the server).
    pub fn looks_authentic(rendered: &str, secret: &str) -> bool {
        rendered.starts_with(&format!("[{secret}]"))
    }
}

/// The overlay alert surface: every alert shown, oldest first. The server
/// stamps each alert with its configured shared secret and display
/// duration ([`crate::XConfig`]) before showing it.
///
/// ```
/// use overhaul_sim::Timestamp;
/// use overhaul_xserver::overlay::{Alert, AlertManager};
///
/// let mut alerts = AlertManager::default();
/// let at = Timestamp::from_millis(5);
/// let alert = alerts.show(Alert {
///     process: "skype".into(),
///     op: "mic".into(),
///     granted: true,
///     shown_at: at,
///     expires: Timestamp::from_millis(3_005),
///     secret: "cat.png".into(),
///     replayed: false,
///     reason: None,
/// });
/// assert!(Alert::looks_authentic(&alert.render(), "cat.png"));
/// assert_eq!(alerts.active(Timestamp::from_millis(100)).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AlertManager {
    history: Vec<Alert>,
}

impl AlertManager {
    /// Shows `alert`, returning it.
    pub fn show(&mut self, alert: Alert) -> &Alert {
        self.history.push(alert);
        self.history.last().expect("just pushed")
    }

    /// Alerts currently on screen at `now`.
    pub fn active(&self, now: Timestamp) -> Vec<&Alert> {
        self.history
            .iter()
            .filter(|a| a.shown_at <= now && now < a.expires)
            .collect()
    }

    /// Every alert ever shown (the experiment harnesses read this).
    pub fn history(&self) -> &[Alert] {
        &self.history
    }

    /// Number of alerts shown so far.
    pub fn shown_count(&self) -> usize {
        self.history.len()
    }
}

mod pack {
    //! Snapshot codec for the overlay alert surface.

    use overhaul_sim::impl_pack;

    use super::{Alert, AlertManager};

    impl_pack!(Alert {
        process,
        op,
        granted,
        shown_at,
        expires,
        secret,
        replayed,
        reason
    });
    impl_pack!(AlertManager { history });
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_sim::SimDuration;

    fn mgr() -> AlertManager {
        AlertManager::default()
    }

    /// An alert as a server with the default configuration shows it.
    fn alert(
        process: &str,
        op: &str,
        granted: bool,
        at: Timestamp,
        reason: Option<&str>,
        replayed: bool,
    ) -> Alert {
        Alert {
            process: process.into(),
            op: op.into(),
            granted,
            shown_at: at,
            expires: at + SimDuration::from_secs(3),
            secret: "cat.png".into(),
            replayed,
            reason: reason.map(str::to_string),
        }
    }

    #[test]
    fn show_and_expire() {
        let mut m = mgr();
        m.show(alert(
            "spy",
            "cam",
            false,
            Timestamp::from_millis(1000),
            None,
            false,
        ));
        assert_eq!(m.active(Timestamp::from_millis(1000)).len(), 1);
        assert_eq!(m.active(Timestamp::from_millis(3999)).len(), 1);
        assert_eq!(m.active(Timestamp::from_millis(4000)).len(), 0);
        assert_eq!(m.history().len(), 1, "expired alerts stay in history");
    }

    #[test]
    fn render_distinguishes_grant_and_block() {
        let mut m = mgr();
        let granted = m
            .show(alert("skype", "mic", true, Timestamp::ZERO, None, false))
            .render();
        assert!(granted.contains("is using"));
        let blocked = m
            .show(alert("spy", "cam", false, Timestamp::ZERO, None, false))
            .render();
        assert!(blocked.contains("was blocked from"));
    }

    #[test]
    fn render_embeds_shared_secret() {
        let mut m = mgr();
        let rendered = m
            .show(alert("skype", "mic", true, Timestamp::ZERO, None, false))
            .render();
        assert!(Alert::looks_authentic(&rendered, "cat.png"));
    }

    #[test]
    fn forged_alert_without_secret_is_not_authentic() {
        let forged = "spoofed-app is using the mic (totally real)";
        assert!(!Alert::looks_authentic(forged, "cat.png"));
        // Even guessing the bracket format fails without the right secret.
        assert!(!Alert::looks_authentic(
            "[dog.png] x is using the mic",
            "cat.png"
        ));
    }

    #[test]
    fn replayed_alert_is_marked_but_still_authentic() {
        let mut m = mgr();
        let rendered = m
            .show(alert("skype", "mic", true, Timestamp::ZERO, None, true))
            .render();
        assert!(rendered.ends_with("(delayed)"));
        assert!(Alert::looks_authentic(&rendered, "cat.png"));
        assert!(m.history()[0].replayed);
    }

    #[test]
    fn detailed_alert_renders_the_deny_cause_before_the_delay_marker() {
        let mut m = mgr();
        let rendered = m
            .show(alert(
                "spy",
                "mic",
                false,
                Timestamp::ZERO,
                Some("channel down"),
                false,
            ))
            .render();
        assert_eq!(
            rendered,
            "[cat.png] spy was blocked from the mic (channel down)"
        );
        let replayed = m
            .show(alert(
                "spy",
                "cam",
                false,
                Timestamp::ZERO,
                Some("quarantined pending helper update"),
                true,
            ))
            .render();
        assert!(replayed.contains("(quarantined pending helper update)"));
        assert!(replayed.ends_with("(delayed)"));
    }

    #[test]
    fn overlapping_alerts_both_active() {
        let mut m = mgr();
        m.show(alert(
            "a",
            "mic",
            true,
            Timestamp::from_millis(0),
            None,
            false,
        ));
        m.show(alert(
            "b",
            "cam",
            true,
            Timestamp::from_millis(1000),
            None,
            false,
        ));
        assert_eq!(m.active(Timestamp::from_millis(1500)).len(), 2);
    }
}
