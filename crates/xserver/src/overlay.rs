//! The trusted output path: overlay alerts (§IV-A, *Trusted output*).
//!
//! Alerts are "rendered on top of all other windows, and cannot be blocked,
//! obscured, or manipulated by other X clients" — in this simulation they
//! live outside the window tree entirely, in a layer only the server can
//! write. Alerts "make use of a visual shared secret set by the user of the
//! system to prevent malicious applications from forging fake alerts"
//! (the cat image in the paper's Figure 5).

use overhaul_sim::{SimDuration, Timestamp};

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

/// ```
/// use overhaul_sim::{SimDuration, Timestamp};
/// use overhaul_xserver::overlay::{Alert, AlertManager};
///
/// let mut alerts = AlertManager::new("cat.png", SimDuration::from_secs(3));
/// let alert = alerts.show("skype", "mic", true, Timestamp::from_millis(5), None, false);
/// assert!(Alert::looks_authentic(&alert.render(), "cat.png"));
/// assert_eq!(alerts.active(Timestamp::from_millis(100)).len(), 1);
/// ```
/// The overlay alert surface.
#[derive(Debug, Clone)]
pub struct AlertManager {
    secret: String,
    duration: SimDuration,
    history: Vec<Alert>,
}

impl AlertManager {
    /// Creates a manager with the user's visual shared secret and the
    /// display duration ("a few seconds at the top of the screen").
    pub fn new(secret: impl Into<String>, duration: SimDuration) -> Self {
        AlertManager {
            secret: secret.into(),
            duration,
            history: Vec::new(),
        }
    }

    /// The configured shared secret. Server-private: it is never exposed to
    /// clients through any X request, which is what makes alert forgery
    /// detectable. Harness code uses it to check authenticity.
    pub fn secret(&self) -> &str {
        &self.secret
    }

    /// Shows an alert, returning it. `reason` is the kernel's deny cause
    /// (channel down, device quarantine), rendered verbatim on the overlay;
    /// `replayed` marks an alert buffered across a display-manager restart,
    /// so the user can tell it reports a pre-crash decision.
    pub fn show(
        &mut self,
        process: impl Into<String>,
        op: impl Into<String>,
        granted: bool,
        now: Timestamp,
        reason: Option<&str>,
        replayed: bool,
    ) -> &Alert {
        self.history.push(Alert {
            process: process.into(),
            op: op.into(),
            granted,
            shown_at: now,
            expires: now + self.duration,
            secret: self.secret.clone(),
            replayed,
            reason: reason.map(str::to_string),
        });
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
    impl_pack!(AlertManager {
        secret,
        duration,
        history
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> AlertManager {
        AlertManager::new("cat.png", SimDuration::from_secs(3))
    }

    #[test]
    fn show_and_expire() {
        let mut m = mgr();
        m.show(
            "spy",
            "cam",
            false,
            Timestamp::from_millis(1000),
            None,
            false,
        );
        assert_eq!(m.active(Timestamp::from_millis(1000)).len(), 1);
        assert_eq!(m.active(Timestamp::from_millis(3999)).len(), 1);
        assert_eq!(m.active(Timestamp::from_millis(4000)).len(), 0);
        assert_eq!(m.history().len(), 1, "expired alerts stay in history");
    }

    #[test]
    fn render_distinguishes_grant_and_block() {
        let mut m = mgr();
        let granted = m
            .show("skype", "mic", true, Timestamp::ZERO, None, false)
            .render();
        assert!(granted.contains("is using"));
        let blocked = m
            .show("spy", "cam", false, Timestamp::ZERO, None, false)
            .render();
        assert!(blocked.contains("was blocked from"));
    }

    #[test]
    fn render_embeds_shared_secret() {
        let mut m = mgr();
        let rendered = m
            .show("skype", "mic", true, Timestamp::ZERO, None, false)
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
            .show("skype", "mic", true, Timestamp::ZERO, None, true)
            .render();
        assert!(rendered.ends_with("(delayed)"));
        assert!(Alert::looks_authentic(&rendered, "cat.png"));
        assert!(m.history()[0].replayed);
    }

    #[test]
    fn detailed_alert_renders_the_deny_cause_before_the_delay_marker() {
        let mut m = mgr();
        let rendered = m
            .show(
                "spy",
                "mic",
                false,
                Timestamp::ZERO,
                Some("channel down"),
                false,
            )
            .render();
        assert_eq!(
            rendered,
            "[cat.png] spy was blocked from the mic (channel down)"
        );
        let replayed = m
            .show(
                "spy",
                "cam",
                false,
                Timestamp::ZERO,
                Some("quarantined pending helper update"),
                true,
            )
            .render();
        assert!(replayed.contains("(quarantined pending helper update)"));
        assert!(replayed.ends_with("(delayed)"));
    }

    #[test]
    fn overlapping_alerts_both_active() {
        let mut m = mgr();
        m.show("a", "mic", true, Timestamp::from_millis(0), None, false);
        m.show("b", "cam", true, Timestamp::from_millis(1000), None, false);
        assert_eq!(m.active(Timestamp::from_millis(1500)).len(), 2);
    }
}
