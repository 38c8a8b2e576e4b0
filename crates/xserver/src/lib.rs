//! X Window System simulator with Overhaul's display-manager enhancements.
//!
//! This crate reproduces the X.Org-side half of *Overhaul* (DSN 2016):
//!
//! * **Trusted input path** (§IV-A): hardware input events are delivered
//!   through [`XServer::hardware_click`] / [`XServer::hardware_key`] and
//!   generate interaction notifications to the kernel permission monitor;
//!   synthetic injections (`SendEvent`, `XTestFakeInput`) are delivered but
//!   *never* generate notifications. A clickjacking gate requires the
//!   receiving client to own a window that has stayed visible beyond a
//!   threshold.
//! * **Trusted output path**: unobscurable overlay alerts with a visual
//!   shared secret ([`overlay`]).
//! * **Display-contents mediation**: `GetImage`, `XShmGetImage`,
//!   `CopyArea`, `CopyPlane` are cleared with the kernel monitor unless a
//!   client reads its own window.
//! * **Clipboard mediation** (Figure 6): `SetSelectionOwner` (copy) and
//!   `ConvertSelection` (paste) are cleared with the monitor; protocol
//!   bypasses — forged `SelectionRequest`/`SelectionNotify` via
//!   `SendEvent`, property snooping on in-flight transfers — are blocked.
//!
//! The kernel is reached through the [`protocol::MonitorLink`] trait (the
//! netlink channel in the prototype); tests may plug in mocks.
//!
//! # Example
//!
//! ```
//! use overhaul_sim::{Clock, Pid};
//! use overhaul_xserver::geometry::Rect;
//! use overhaul_xserver::protocol::{GrantAllLink, Request};
//! use overhaul_xserver::{XConfig, XServer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let clock = Clock::new();
//! let mut x = XServer::new(clock.clone(), XConfig::default());
//! let client = x.connect_client(Pid::from_raw(10));
//! let window = match x.request(client, Request::CreateWindow { rect: Rect::new(0, 0, 100, 100) },
//!                              &mut GrantAllLink)? {
//!     overhaul_xserver::protocol::Reply::Window(w) => w,
//!     _ => unreachable!(),
//! };
//! x.request(client, Request::MapWindow { window }, &mut GrantAllLink)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod geometry;
pub mod overlay;
pub mod prompt;
pub mod protocol;
pub mod selection;
pub mod snapshot;
pub mod window;

use std::borrow::Cow;

use overhaul_sim::snapshot::Hashed;
use overhaul_sim::work::{self, ModelledCost};
use overhaul_sim::{
    AuditCategory, AuditLog, Clock, Ledger, LedgerEntry, Pid, SimDuration, Timestamp, TraceValue,
    Tracer,
};

use crate::client::ClientRegistry;
use crate::geometry::{Point, Rect};
use crate::overlay::{Alert, AlertManager};
use crate::prompt::{Prompt, PromptId, PromptSurface};
use crate::protocol::{
    Atom, ClientId, DisplayOp, InputPayload, MonitorLink, Reply, Request, XError, XEvent,
};
use crate::selection::{SelectionTable, Transfer};
use crate::window::{WindowId, WindowTree};

/// Display-manager configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct XConfig {
    /// Master switch for the Overhaul enhancements; `false` reproduces a
    /// stock X server (the Table I baseline and the unprotected machine of
    /// §V-D).
    pub overhaul_enabled: bool,
    /// How long a client's window must have been continuously visible
    /// before its input events generate interaction notifications (the
    /// clickjacking gate; "a predefined time threshold", §IV-A).
    pub visibility_threshold: SimDuration,
    /// How long overlay alerts stay on screen ("a few seconds").
    pub alert_duration: SimDuration,
    /// The user's visual shared secret (the cat image of Figure 5).
    pub shared_secret: String,
    /// Root-window geometry.
    pub screen: Rect,
}

impl Default for XConfig {
    fn default() -> Self {
        XConfig {
            overhaul_enabled: true,
            visibility_threshold: SimDuration::from_millis(500),
            alert_duration: SimDuration::from_secs(3),
            shared_secret: "cat.png".to_string(),
            screen: Rect::new(0, 0, 1920, 1080),
        }
    }
}

impl XConfig {
    /// A stock (non-Overhaul) X server configuration.
    pub fn baseline() -> Self {
        XConfig {
            overhaul_enabled: false,
            ..XConfig::default()
        }
    }
}

/// The simulated X server.
#[derive(Debug)]
pub struct XServer {
    clock: Clock,
    // Components behind `Hashed` cache their state-hash digest until next
    // borrowed mutably (see `overhaul_sim::snapshot::Hashed`).
    /// The display manager's one copy of its settings: the overlay and the
    /// prompt surface take the shared secret and alert duration from here.
    config: Hashed<XConfig>,
    clients: Hashed<ClientRegistry>,
    windows: Hashed<WindowTree>,
    selections: Hashed<SelectionTable>,
    alerts: Hashed<AlertManager>,
    prompts: Hashed<PromptSurface>,
    focus: Option<WindowId>,
    /// Hash-chained authoritative history; the audit log is a view of its
    /// non-silent entries.
    ledger: Ledger,
    /// Virtual-time span tracer. Disabled (no-op) unless the system harness
    /// installs a shared enabled handle, in which case the display manager
    /// records into the same trace as the kernel.
    tracer: Tracer,
    /// Modelled real-world cost charged by requests, alerts, prompts and
    /// captures. Instance-level: never serialized or hashed.
    cost: ModelledCost,
}

impl XServer {
    /// Starts a server on the shared virtual clock.
    pub fn new(clock: Clock, config: XConfig) -> Self {
        XServer {
            clock,
            config: Hashed::new(config),
            clients: Hashed::new(ClientRegistry::new()),
            windows: Hashed::new(WindowTree::new()),
            selections: Hashed::new(SelectionTable::new()),
            alerts: Hashed::new(AlertManager::default()),
            prompts: Hashed::new(PromptSurface::default()),
            focus: None,
            ledger: Ledger::new(),
            tracer: Tracer::disabled(),
            cost: ModelledCost::default(),
        }
    }

    /// Installs a (shared) tracer handle; input authentication and
    /// clickjacking checks record spans into it.
    pub fn install_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The server's tracer handle (disabled unless one was installed).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Modelled cost this server instance has charged (see
    /// [`overhaul_sim::work`]): request round trips, overlay alerts and
    /// prompts drawn, and captured pixels. Zero on a server rebuilt from a
    /// snapshot.
    pub fn modelled_cost(&self) -> ModelledCost {
        self.cost
    }

    /// Current configuration.
    pub fn config(&self) -> &XConfig {
        &self.config
    }

    /// The display manager's audit log: a view of the hash-chained
    /// ledger's non-silent entries.
    pub fn audit(&self) -> AuditLog<'_> {
        self.ledger.audit()
    }

    /// The display manager's hash-chained ledger (the authoritative
    /// history the audit log reads).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Clears recorded history while preserving chain continuity
    /// (measurement harnesses clear periodically so log growth does not
    /// distort long benchmark loops).
    pub fn clear_history(&mut self) {
        self.ledger.clear();
    }

    /// Appends an informational audit row to the ledger.
    fn record(
        &mut self,
        at: Timestamp,
        category: AuditCategory,
        pid: Option<Pid>,
        detail: impl Into<Cow<'static, str>>,
    ) {
        self.ledger
            .append(LedgerEntry::event(at, category, pid, detail));
    }

    /// The overlay alert surface.
    pub fn alerts(&self) -> &AlertManager {
        &self.alerts
    }

    /// The overlay prompt surface (the §IV-A prompt-based policy variant).
    pub fn prompts(&self) -> &PromptSurface {
        &self.prompts
    }

    /// Displays an unforgeable permission prompt on the trusted output
    /// path. Returns `None` while another prompt is pending.
    pub fn ask_prompt(&mut self, process: &str, op: &str) -> Option<PromptId> {
        let now = self.clock.now();
        let id = self
            .prompts
            .ask(process, op, now, &self.config.shared_secret)?;
        self.cost.alert_render_ns += work::ALERT_RENDER_NS;
        self.record(
            now,
            AuditCategory::AlertDisplayed,
            None,
            format!("prompt {id}: {process} requests {op}"),
        );
        Some(id)
    }

    /// Resolves the pending prompt with the user's *hardware* answer. This
    /// entry point is only reachable from the input-driver path — never
    /// from `SendEvent`/XTest — which is what makes the prompt's answer
    /// trustworthy.
    pub fn hardware_prompt_answer(&mut self, approve: bool) -> Option<Prompt> {
        let prompt = self.prompts.answer(approve)?;
        self.record(
            self.clock.now(),
            AuditCategory::InteractionNotification,
            None,
            format!(
                "prompt {} answered {}",
                prompt.id,
                if approve { "allow" } else { "deny" }
            ),
        );
        Some(prompt)
    }

    /// The window tree (read-only).
    pub fn windows(&self) -> &WindowTree {
        &self.windows
    }

    /// Current virtual time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    // ---------------------------------------------------------------
    // Connection management
    // ---------------------------------------------------------------

    /// Accepts a client connection from process `pid` (the pid comes from
    /// kernel socket introspection, not from the client).
    pub fn connect_client(&mut self, pid: Pid) -> ClientId {
        self.clients.connect(pid)
    }

    /// Disconnects a client, destroying its windows and releasing its
    /// selections.
    ///
    /// # Errors
    ///
    /// [`XError::BadClient`] for unknown clients.
    pub fn disconnect_client(&mut self, client: ClientId) -> Result<(), XError> {
        self.clients.disconnect(client)?;
        self.windows.destroy_all_for(client, self.clock.now());
        self.selections.purge_client(client);
        if let Some(focus) = self.focus {
            if self.windows.get(focus).is_err() {
                self.focus = None;
            }
        }
        Ok(())
    }

    /// The process behind a client connection.
    ///
    /// # Errors
    ///
    /// [`XError::BadClient`] for unknown clients.
    pub fn pid_of(&self, client: ClientId) -> Result<Pid, XError> {
        self.clients.pid_of(client)
    }

    /// The (first) client connection of a process.
    pub fn client_of_pid(&self, pid: Pid) -> Option<ClientId> {
        self.clients.client_of_pid(pid)
    }

    /// Pops the next event queued for `client`.
    ///
    /// # Errors
    ///
    /// [`XError::BadClient`] for unknown clients.
    pub fn next_event(&mut self, client: ClientId) -> Result<Option<XEvent>, XError> {
        self.clients.next_event(client)
    }

    /// Drains all events queued for `client`.
    ///
    /// # Errors
    ///
    /// [`XError::BadClient`] for unknown clients.
    pub fn drain_events(&mut self, client: ClientId) -> Result<Vec<XEvent>, XError> {
        self.clients.drain_events(client)
    }

    // ---------------------------------------------------------------
    // Trusted input path
    // ---------------------------------------------------------------

    /// A hardware pointer click at `p`, as reported by an input driver.
    ///
    /// The event is delivered to the topmost mapped window under the
    /// pointer; if the receiving client passes the clickjacking gate, an
    /// interaction notification is sent to the kernel monitor. Returns the
    /// window hit, if any.
    pub fn hardware_click(&mut self, p: Point, link: &mut dyn MonitorLink) -> Option<WindowId> {
        let window = self.windows.topmost_at(p)?;
        let rect = self.windows.get(window).ok()?.rect();
        let payload = InputPayload::Button {
            x: p.x - rect.x,
            y: p.y - rect.y,
        };
        self.deliver_hardware_input(window, payload, link);
        Some(window)
    }

    /// A hardware key press, delivered to the focus window.
    ///
    /// Returns the window that received the key, if any has focus.
    pub fn hardware_key(&mut self, ch: char, link: &mut dyn MonitorLink) -> Option<WindowId> {
        let window = self.focus.filter(|w| {
            self.windows
                .get(*w)
                .map(|win| win.mapped())
                .unwrap_or(false)
        })?;
        self.deliver_hardware_input(window, InputPayload::Key { ch }, link);
        Some(window)
    }

    fn deliver_hardware_input(
        &mut self,
        window: WindowId,
        payload: InputPayload,
        link: &mut dyn MonitorLink,
    ) {
        let now = self.clock.now();
        let Ok(owner) = self.windows.get(window).map(|w| w.owner()) else {
            return;
        };
        let _ = self.clients.deliver(
            owner,
            XEvent::Input {
                window,
                payload,
                synthetic: false,
            },
        );
        let Ok(pid) = self.clients.pid_of(owner) else {
            return;
        };
        if self.config.overhaul_enabled {
            // Clickjacking gate: the client must own a window that has been
            // continuously visible for at least the threshold. Before
            // `threshold` has elapsed since boot no window can qualify.
            let stable_cutoff = now
                .as_millis()
                .checked_sub(self.config.visibility_threshold.as_millis())
                .map(Timestamp::from_millis);
            let stable = stable_cutoff
                .map(|cutoff| self.windows.client_has_stable_window(owner, cutoff))
                .unwrap_or(false);
            self.tracer.record_span(
                "x.input",
                now,
                now,
                &[
                    ("pid", TraceValue::U64(u64::from(pid.as_raw()))),
                    ("window", TraceValue::U64(window.as_raw())),
                    (
                        "auth",
                        TraceValue::Static(if stable {
                            "notified"
                        } else {
                            "clickjack-suppressed"
                        }),
                    ),
                ],
            );
            if stable {
                link.notify_interaction(pid, now);
                self.record(
                    now,
                    AuditCategory::InteractionNotification,
                    Some(pid),
                    format!("hardware input on {window}"),
                );
            } else {
                self.record(
                    now,
                    AuditCategory::ClickjackingSuppressed,
                    Some(pid),
                    format!("window {window} not stably visible"),
                );
            }
        }
        // A stock X server (baseline) has no trusted input path and sends
        // no notifications at all.
    }

    /// Renders an overlay alert (used by the core when the kernel pushes a
    /// `V_{A,op}` request, and internally for screen-capture decisions).
    /// `reason` is the kernel's deny cause (channel down, device
    /// quarantine), rendered verbatim so the overlay matches the kernel
    /// audit log. `replayed` marks a push buffered across a display-manager
    /// restart: it carries the shared secret like any other alert, but is
    /// visibly marked as delayed so the user knows the decision predates
    /// the crash.
    pub fn show_alert(
        &mut self,
        process: &str,
        op: &str,
        granted: bool,
        reason: Option<&str>,
        replayed: bool,
    ) -> Alert {
        self.cost.alert_render_ns += work::ALERT_RENDER_NS;
        let now = self.clock.now();
        let alert = self
            .alerts
            .show(Alert {
                process: process.to_string(),
                op: op.to_string(),
                granted,
                shown_at: now,
                expires: now + self.config.alert_duration,
                secret: self.config.shared_secret.clone(),
                replayed,
                reason: reason.map(str::to_string),
            })
            .clone();
        self.record(
            now,
            AuditCategory::AlertDisplayed,
            None,
            format!(
                "{process}: {op} {}{}",
                if granted { "granted" } else { "blocked" },
                if replayed { " (replayed)" } else { "" }
            ),
        );
        alert
    }

    // ---------------------------------------------------------------
    // Request dispatch
    // ---------------------------------------------------------------

    /// Handles one client request, consulting the kernel monitor through
    /// `link` where Overhaul requires it.
    ///
    /// # Errors
    ///
    /// [`XError::BadAccess`] for Overhaul denials and blocked protocol
    /// attacks; standard X errors otherwise.
    pub fn request(
        &mut self,
        client: ClientId,
        request: Request,
        link: &mut dyn MonitorLink,
    ) -> Result<Reply, XError> {
        self.cost.x_request_rtt_ns += work::X_REQUEST_RTT_NS;
        // Validate the connection first; everything below may assume it.
        let pid = self.clients.pid_of(client)?;
        let now = self.clock.now();
        match request {
            Request::CreateWindow { rect } => {
                if !rect.in_x11_range() {
                    return Err(XError::BadValue);
                }
                let id = self.windows.create(client, rect);
                Ok(Reply::Window(id))
            }
            Request::MapWindow { window } => {
                self.owned_window(client, window)?;
                self.windows.map(window, now)?;
                Ok(Reply::Ok)
            }
            Request::UnmapWindow { window } => {
                self.owned_window(client, window)?;
                self.windows.unmap(window, now)?;
                Ok(Reply::Ok)
            }
            Request::RaiseWindow { window } => {
                self.owned_window(client, window)?;
                self.windows.raise(window, now)?;
                Ok(Reply::Ok)
            }
            Request::DestroyWindow { window } => {
                self.owned_window(client, window)?;
                self.windows.destroy(window, now)?;
                if self.focus == Some(window) {
                    self.focus = None;
                }
                Ok(Reply::Ok)
            }
            Request::SetInputFocus { window } => {
                // Any client may move focus (simplification: no WM).
                self.windows.get(window)?;
                self.focus = Some(window);
                Ok(Reply::Ok)
            }
            Request::PutImage { window, data } => {
                self.owned_window(client, window)?;
                self.windows.put_image(window, data)?;
                Ok(Reply::Ok)
            }
            Request::GetImage { window } | Request::XShmGetImage { window } => {
                self.capture_image(client, pid, window, link)
            }
            Request::CopyArea { src, dst } | Request::CopyPlane { src, dst } => {
                self.copy_area(client, pid, src, dst, link)
            }
            Request::SetSelectionOwner { selection, window } => {
                self.set_selection_owner(client, pid, selection, window, link)
            }
            Request::GetSelectionOwner { selection } => {
                Ok(Reply::SelectionOwner(self.selections.owner(&selection)))
            }
            Request::ConvertSelection {
                selection,
                requestor,
                property,
            } => self.convert_selection(client, pid, selection, requestor, property, link),
            Request::ChangeProperty {
                window,
                property,
                data,
            } => self.change_property(client, window, property, data),
            Request::GetProperty {
                window,
                property,
                delete,
            } => self.get_property(client, window, property, delete),
            Request::DeleteProperty { window, property } => {
                self.owned_window(client, window)?;
                self.windows.delete_property(window, &property)?;
                Ok(Reply::Ok)
            }
            Request::SelectPropertyEvents { window } => {
                self.windows.get(window)?;
                self.clients.watch_properties(client, window)?;
                Ok(Reply::Ok)
            }
            Request::SendEvent { target, event } => self.send_event(client, pid, target, *event),
            Request::XTestFakeInput { payload, target } => {
                // XTest events carry no wire flag; the server tags their
                // provenance by generating extension (§IV-A) and treats
                // them as synthetic: delivered, never trusted.
                let owner = self.windows.get(target)?.owner();
                self.clients.deliver(
                    owner,
                    XEvent::Input {
                        window: target,
                        payload,
                        synthetic: true,
                    },
                )?;
                if self.config.overhaul_enabled {
                    self.record(
                        now,
                        AuditCategory::SyntheticInputFiltered,
                        Some(pid),
                        format!("XTestFakeInput toward {target}"),
                    );
                }
                Ok(Reply::Ok)
            }
        }
    }

    fn owned_window(&self, client: ClientId, window: WindowId) -> Result<(), XError> {
        if self.windows.get(window)?.owner() == client {
            Ok(())
        } else {
            Err(XError::BadMatch)
        }
    }

    // ---------------------------------------------------------------
    // Display contents
    // ---------------------------------------------------------------

    fn capture_image(
        &mut self,
        client: ClientId,
        pid: Pid,
        window: Option<WindowId>,
        link: &mut dyn MonitorLink,
    ) -> Result<Reply, XError> {
        let now = self.clock.now();
        let own_window = match window {
            Some(w) => self.windows.get(w)?.owner() == client,
            None => false,
        };
        if !own_window && self.config.overhaul_enabled {
            let granted = link.query(pid, DisplayOp::Screen, now);
            let process = format!("pid {}", pid.as_raw());
            let target = window
                .map(|w| w.to_string())
                .unwrap_or_else(|| "root".into());
            if granted {
                self.record(
                    now,
                    AuditCategory::PermissionGranted,
                    Some(pid),
                    format!("GetImage on {target}"),
                );
                self.show_alert(&process, "scr", true, None, false);
            } else {
                self.record(
                    now,
                    AuditCategory::PermissionDenied,
                    Some(pid),
                    format!("GetImage on {target}"),
                );
                self.show_alert(&process, "scr", false, None, false);
                return Err(XError::BadAccess);
            }
        }
        let pixels = match window {
            Some(w) => self.windows.get(w)?.pixels().into_owned(),
            None => self.composite_root(),
        };
        self.cost.framebuffer_copy_ns += pixels.len() as u64 * work::CAPTURE_NS_PER_PIXEL;
        Ok(Reply::Image(pixels))
    }

    fn copy_area(
        &mut self,
        client: ClientId,
        pid: Pid,
        src: Option<WindowId>,
        dst: WindowId,
        link: &mut dyn MonitorLink,
    ) -> Result<Reply, XError> {
        // Destination must be the requestor's own drawable.
        self.owned_window(client, dst)?;
        let now = self.clock.now();
        let src_is_own = match src {
            Some(w) => self.windows.get(w)?.owner() == client,
            None => false,
        };
        // "If the owners of both buffers are identical ... the request is
        // allowed to proceed" — otherwise input-driven access control.
        if !src_is_own && self.config.overhaul_enabled {
            let granted = link.query(pid, DisplayOp::Screen, now);
            let target = src.map(|w| w.to_string()).unwrap_or_else(|| "root".into());
            if granted {
                self.record(
                    now,
                    AuditCategory::PermissionGranted,
                    Some(pid),
                    format!("CopyArea from {target}"),
                );
                self.show_alert(&format!("pid {}", pid.as_raw()), "scr", true, None, false);
            } else {
                self.record(
                    now,
                    AuditCategory::PermissionDenied,
                    Some(pid),
                    format!("CopyArea from {target}"),
                );
                self.show_alert(&format!("pid {}", pid.as_raw()), "scr", false, None, false);
                return Err(XError::BadAccess);
            }
        }
        let data = match src {
            Some(w) => self.windows.get(w)?.pixels().into_owned(),
            None => self.composite_root(),
        };
        let mut merged = self.windows.get(dst)?.pixels().into_owned();
        let n = merged.len().min(data.len());
        merged[..n].copy_from_slice(&data[..n]);
        self.windows.put_image(dst, merged)?;
        Ok(Reply::Ok)
    }

    /// Composites all mapped windows into a root-window image.
    fn composite_root(&self) -> Vec<u8> {
        let screen = self.config.screen;
        let mut root = vec![0u8; screen.area() as usize];
        for id in self.windows.stacking_order() {
            let Ok(window) = self.windows.get(*id) else {
                continue;
            };
            if !window.mapped() {
                continue;
            }
            let Some(clip) = screen.intersect(&window.rect()) else {
                continue;
            };
            let rect = window.rect();
            let cols = (clip.x - rect.x) as usize..(clip.right() - rect.x) as usize;
            for row in clip.y..clip.bottom() {
                let start = ((row - screen.y) as usize) * screen.width as usize
                    + (clip.x - screen.x) as usize;
                window.copy_row(
                    (row - rect.y) as usize,
                    cols.clone(),
                    &mut root[start..start + cols.len()],
                );
            }
        }
        root
    }

    // ---------------------------------------------------------------
    // Selections (Figure 6)
    // ---------------------------------------------------------------

    fn set_selection_owner(
        &mut self,
        client: ClientId,
        pid: Pid,
        selection: Atom,
        window: WindowId,
        link: &mut dyn MonitorLink,
    ) -> Result<Reply, XError> {
        self.owned_window(client, window)?;
        let now = self.clock.now();
        if self.config.overhaul_enabled {
            // Step 2 of Figure 6: a copy must be preceded by user input.
            if !link.query(pid, DisplayOp::Copy, now) {
                self.record(
                    now,
                    AuditCategory::PermissionDenied,
                    Some(pid),
                    format!("SetSelectionOwner {selection}"),
                );
                return Err(XError::BadAccess);
            }
            self.record(
                now,
                AuditCategory::PermissionGranted,
                Some(pid),
                format!("SetSelectionOwner {selection}"),
            );
        }
        let state = self.selections.state_mut(&selection);
        let previous = state.owner;
        state.owner = Some((client, window));
        if let Some((old_client, _)) = previous {
            if old_client != client {
                let _ = self
                    .clients
                    .deliver(old_client, XEvent::SelectionClear { selection });
            }
        }
        Ok(Reply::Ok)
    }

    fn convert_selection(
        &mut self,
        client: ClientId,
        pid: Pid,
        selection: Atom,
        requestor: WindowId,
        property: Atom,
        link: &mut dyn MonitorLink,
    ) -> Result<Reply, XError> {
        self.owned_window(client, requestor)?;
        let now = self.clock.now();
        if self.config.overhaul_enabled {
            // Step 6 of Figure 6: a paste must be preceded by user input.
            if !link.query(pid, DisplayOp::Paste, now) {
                self.record(
                    now,
                    AuditCategory::PermissionDenied,
                    Some(pid),
                    format!("ConvertSelection {selection}"),
                );
                return Err(XError::BadAccess);
            }
            self.record(
                now,
                AuditCategory::PermissionGranted,
                Some(pid),
                format!("ConvertSelection {selection}"),
            );
        }
        let Some((owner_client, owner_window)) = self.selections.state_mut(&selection).owner else {
            // No owner: ICCCM answers with a notify carrying no property.
            self.clients.deliver(
                client,
                XEvent::SelectionNotify {
                    selection,
                    property: Atom::new("NONE"),
                },
            )?;
            return Ok(Reply::Ok);
        };
        // Fail closed on a stale owner: if the owning client is gone (its
        // connection died without the full disconnect cleanup) or the window
        // it asserted ownership through no longer exists, the interaction
        // evidence behind the ownership is stale — clear the record and deny
        // rather than brokering a paste sourced from it.
        if self.clients.get(owner_client).is_err() || self.windows.get(owner_window).is_err() {
            let state = self.selections.state_mut(&selection);
            state.owner = None;
            state.transfer = None;
            self.tracer.event(
                "x.selection.stale-owner",
                now,
                &[("pid", TraceValue::U64(u64::from(pid.as_raw())))],
            );
            self.record(
                now,
                AuditCategory::PermissionDenied,
                Some(pid),
                format!("ConvertSelection {selection}: stale owner, failing closed"),
            );
            return Err(XError::BadAccess);
        }
        self.selections.state_mut(&selection).transfer = Some(Transfer {
            source: owner_client,
            target: client,
            requestor,
            property: property.clone(),
            data_stored: false,
            notified: false,
        });
        // Step 7: the server relays a SelectionRequest to the owner.
        self.clients.deliver(
            owner_client,
            XEvent::SelectionRequest {
                selection,
                requestor,
                property,
            },
        )?;
        Ok(Reply::Ok)
    }

    fn change_property(
        &mut self,
        client: ClientId,
        window: WindowId,
        property: Atom,
        data: Vec<u8>,
    ) -> Result<Reply, XError> {
        let is_owner = self.windows.get(window)?.owner() == client;
        let in_flight_source = self
            .selections
            .transfer_for_property(window, &property)
            .map(|(_, t)| t.source == client)
            .unwrap_or(false);
        // Stock X11 lets any client write properties anywhere; Overhaul
        // tightens cross-client writes to step 8 of Figure 6 (the transfer
        // *source* writing into the requestor's window).
        if self.config.overhaul_enabled && !is_owner && !in_flight_source {
            return Err(XError::BadMatch);
        }
        self.windows.set_property(window, property.clone(), data)?;
        if in_flight_source {
            if let Some((_, transfer)) =
                self.selections.transfer_for_property_mut(window, &property)
            {
                transfer.data_stored = true;
            }
        }
        self.notify_property_change(window, &property);
        Ok(Reply::Ok)
    }

    fn get_property(
        &mut self,
        client: ClientId,
        window: WindowId,
        property: Atom,
        delete: bool,
    ) -> Result<Reply, XError> {
        let now = self.clock.now();
        if self.config.overhaul_enabled {
            if let Some((_, transfer)) = self.selections.transfer_for_property(window, &property) {
                if transfer.data_stored && transfer.target != client {
                    // Anti-snooping: in-flight clipboard data is only
                    // readable by the paste target.
                    let pid = self.clients.pid_of(client)?;
                    self.record(
                        now,
                        AuditCategory::ProtocolAttackBlocked,
                        Some(pid),
                        format!("GetProperty snoop on in-flight {property}"),
                    );
                    return Err(XError::BadAccess);
                }
            }
        }
        let value = self.windows.take_property(window, &property, delete)?;
        if delete && value.is_some() {
            // Step 13: the target removes the consumed clipboard property;
            // this also closes the transfer window.
            let finished: Option<Atom> = self
                .selections
                .transfer_for_property(window, &property)
                .map(|(atom, _)| atom.clone());
            if let Some(selection) = finished {
                self.selections.finish_transfer(&selection);
            }
            self.notify_property_change(window, &property);
        }
        Ok(Reply::Property(value))
    }

    fn send_event(
        &mut self,
        client: ClientId,
        pid: Pid,
        target: WindowId,
        event: XEvent,
    ) -> Result<Reply, XError> {
        let now = self.clock.now();
        let target_owner = self.windows.get(target)?.owner();
        match event {
            XEvent::Input { payload, .. } => {
                // Core-protocol SendEvent: deliverable, but the synthetic
                // flag is forced on — receivers and the trusted input path
                // can always tell.
                self.clients.deliver(
                    target_owner,
                    XEvent::Input {
                        window: target,
                        payload,
                        synthetic: true,
                    },
                )?;
                if self.config.overhaul_enabled {
                    self.record(
                        now,
                        AuditCategory::SyntheticInputFiltered,
                        Some(pid),
                        format!("SendEvent input toward {target}"),
                    );
                }
                Ok(Reply::Ok)
            }
            XEvent::SelectionNotify {
                selection,
                property,
            } => {
                // Legitimate only as step 9 of an in-flight transfer the
                // server initiated; anything else is the bypass attack.
                let valid = self
                    .selections
                    .state(&selection)
                    .and_then(|s| s.transfer.as_ref())
                    .map(|t| {
                        t.source == client
                            && t.requestor == target
                            && t.property == property
                            && t.data_stored
                    })
                    .unwrap_or(false);
                if valid || !self.config.overhaul_enabled {
                    if let Some(state) = self.selections.state_mut(&selection).transfer.as_mut() {
                        state.notified = true;
                    }
                    self.clients.deliver(
                        target_owner,
                        XEvent::SelectionNotify {
                            selection,
                            property,
                        },
                    )?;
                    Ok(Reply::Ok)
                } else {
                    self.record(
                        now,
                        AuditCategory::ProtocolAttackBlocked,
                        Some(pid),
                        format!("forged SelectionNotify for {selection}"),
                    );
                    Err(XError::BadAccess)
                }
            }
            XEvent::SelectionRequest {
                selection,
                requestor,
                property,
            } => {
                if self.config.overhaul_enabled {
                    // Only the server issues SelectionRequest (step 7); a
                    // client sending one is bypassing the paste check.
                    self.record(
                        now,
                        AuditCategory::ProtocolAttackBlocked,
                        Some(pid),
                        format!("forged SelectionRequest for {selection}"),
                    );
                    Err(XError::BadAccess)
                } else {
                    // Stock X relays the event as-is; the attack works.
                    self.clients.deliver(
                        target_owner,
                        XEvent::SelectionRequest {
                            selection,
                            requestor,
                            property,
                        },
                    )?;
                    Ok(Reply::Ok)
                }
            }
            other @ (XEvent::PropertyNotify { .. } | XEvent::SelectionClear { .. }) => {
                // Harmless event classes pass through, flagged synthetic by
                // construction (they arrive via SendEvent).
                self.clients.deliver(target_owner, other)?;
                Ok(Reply::Ok)
            }
        }
    }

    /// Delivers `PropertyNotify` to watchers, suppressing delivery to
    /// everyone but the paste target while clipboard data is in flight.
    fn notify_property_change(&mut self, window: WindowId, property: &Atom) {
        let restricted_to = if self.config.overhaul_enabled {
            self.selections
                .transfer_for_property(window, property)
                .filter(|(_, t)| t.data_stored)
                .map(|(_, t)| t.target)
        } else {
            None
        };
        let now = self.clock.now();
        for watcher in self.clients.property_watchers(window) {
            if let Some(target) = restricted_to {
                if watcher != target {
                    let pid = self.clients.pid_of(watcher).ok();
                    self.record(
                        now,
                        AuditCategory::ProtocolAttackBlocked,
                        pid,
                        format!("PropertyNotify for in-flight {property} suppressed"),
                    );
                    continue;
                }
            }
            let _ = self.clients.deliver(
                watcher,
                XEvent::PropertyNotify {
                    window,
                    property: property.clone(),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests;
