//! X11 protocol surface: requests, events, errors, and the monitor link.
//!
//! This is the slice of the core X protocol (plus the XTest and MIT-SHM
//! extensions) that Overhaul interposes on, per §IV-A:
//!
//! * input injection: `SendEvent`, `XTestFakeInput`;
//! * display contents: `GetImage`, `XShmGetImage`, `CopyArea`, `CopyPlane`,
//!   `PutImage`;
//! * the ICCCM selection protocol: `SetSelectionOwner`, `ConvertSelection`,
//!   `ChangeProperty`, `GetProperty`, `DeleteProperty`, plus `SendEvent`
//!   for `SelectionNotify`;
//! * window management needed for stacking/visibility: `CreateWindow`,
//!   `MapWindow`, `UnmapWindow`, `RaiseWindow`, `DestroyWindow`,
//!   `SetInputFocus`.

use std::fmt;

use overhaul_sim::{Pid, Timestamp};

use crate::geometry::Rect;
use crate::window::WindowId;

/// Identifier of a connected X client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(u32);

impl ClientId {
    /// Creates a `ClientId` from its raw value.
    pub const fn from_raw(raw: u32) -> Self {
        ClientId(raw)
    }

    /// The raw value.
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client:{}", self.0)
    }
}

/// An interned atom name (property names, selection names).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom(String);

impl Atom {
    /// Creates an atom.
    pub fn new(name: impl Into<String>) -> Self {
        Atom(name.into())
    }

    /// The atom's name.
    pub fn name(&self) -> &str {
        &self.0
    }

    /// The CLIPBOARD selection.
    pub fn clipboard() -> Atom {
        Atom::new("CLIPBOARD")
    }

    /// The PRIMARY selection.
    pub fn primary() -> Atom {
        Atom::new("PRIMARY")
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Atom {
    fn from(s: &str) -> Self {
        Atom::new(s)
    }
}

/// A display-resource operation the X server must clear with the kernel
/// permission monitor (`op ∈ {copy, paste, scr}` of the paper's notation;
/// device ops never transit this interface — the kernel mediates those
/// internally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DisplayOp {
    /// Clipboard copy (selection-ownership assertion).
    Copy,
    /// Clipboard paste (selection conversion).
    Paste,
    /// Screen-contents capture.
    Screen,
}

impl fmt::Display for DisplayOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DisplayOp::Copy => "copy",
            DisplayOp::Paste => "paste",
            DisplayOp::Screen => "scr",
        })
    }
}

/// The display manager's channel to the kernel permission monitor.
///
/// In the prototype this is the authenticated netlink socket; the core
/// crate implements it over [`overhaul-kernel`]'s netlink facade, and unit
/// tests substitute mocks.
///
/// [`overhaul-kernel`]: https://docs.rs/overhaul-kernel
pub trait MonitorLink {
    /// Sends an interaction notification `N_{A,t}` for the process owning
    /// the client that just received an authentic hardware input event.
    fn notify_interaction(&mut self, pid: Pid, at: Timestamp);

    /// Sends a permission query `Q_{A,t}` and returns whether the monitor
    /// granted the operation.
    fn query(&mut self, pid: Pid, op: DisplayOp, at: Timestamp) -> bool;
}

/// A no-op link for baseline (non-Overhaul) configurations: everything is
/// granted and nothing is recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct GrantAllLink;

impl MonitorLink for GrantAllLink {
    fn notify_interaction(&mut self, _pid: Pid, _at: Timestamp) {}

    fn query(&mut self, _pid: Pid, _op: DisplayOp, _at: Timestamp) -> bool {
        true
    }
}

/// A fail-closed link for protected configurations whose channel to the
/// kernel is unavailable (not yet established, or lost to a crash):
/// notifications are dropped and every query is denied. Losing the channel
/// must never widen access.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenyAllLink;

impl MonitorLink for DenyAllLink {
    fn notify_interaction(&mut self, _pid: Pid, _at: Timestamp) {}

    fn query(&mut self, _pid: Pid, _op: DisplayOp, _at: Timestamp) -> bool {
        false
    }
}

/// An input event as delivered to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputPayload {
    /// A key press (simplified to a character).
    Key {
        /// The key.
        ch: char,
    },
    /// A pointer button press at window-relative coordinates.
    Button {
        /// X within the window.
        x: i32,
        /// Y within the window.
        y: i32,
    },
}

/// An event queued for delivery to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XEvent {
    /// An input event. `synthetic` is the core-protocol `SendEvent` flag:
    /// true for anything not generated by a hardware device.
    Input {
        /// Target window.
        window: WindowId,
        /// Key or button payload.
        payload: InputPayload,
        /// The `send_event` flag.
        synthetic: bool,
    },
    /// The selection owner is asked to convert the selection for a
    /// requestor (step 7 of Figure 6).
    SelectionRequest {
        /// The selection being converted.
        selection: Atom,
        /// Window of the requesting client.
        requestor: WindowId,
        /// Property the data should be written to.
        property: Atom,
    },
    /// The requestor is told the converted data is available
    /// (step 10 of Figure 6).
    SelectionNotify {
        /// The selection.
        selection: Atom,
        /// Property holding the data.
        property: Atom,
    },
    /// A property changed on a window the client is interested in.
    PropertyNotify {
        /// Window whose property changed.
        window: WindowId,
        /// The property.
        property: Atom,
    },
    /// Selection ownership was taken away (new copy supersedes the old).
    SelectionClear {
        /// The selection lost.
        selection: Atom,
    },
}

/// A request from a client to the X server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Creates an (unmapped) window; `BadValue` unless the geometry is
    /// [`Rect::in_x11_range`].
    CreateWindow {
        /// Geometry.
        rect: Rect,
    },
    /// Maps (shows) a window.
    MapWindow {
        /// Target.
        window: WindowId,
    },
    /// Unmaps (hides) a window.
    UnmapWindow {
        /// Target.
        window: WindowId,
    },
    /// Raises a window to the top of the stacking order.
    RaiseWindow {
        /// Target.
        window: WindowId,
    },
    /// Destroys a window.
    DestroyWindow {
        /// Target.
        window: WindowId,
    },
    /// Gives a window keyboard focus.
    SetInputFocus {
        /// Target.
        window: WindowId,
    },
    /// Draws pixel data into the client's own window.
    PutImage {
        /// Target (must be owned by the requestor).
        window: WindowId,
        /// Pixel bytes (row-major, 1 byte per pixel).
        data: Vec<u8>,
    },
    /// Captures the contents of a drawable (core protocol screen capture).
    GetImage {
        /// A window, or `None` for the root window (whole screen).
        window: Option<WindowId>,
    },
    /// MIT-SHM variant of `GetImage`; identical semantics, interposed the
    /// same way.
    XShmGetImage {
        /// A window, or `None` for the root window.
        window: Option<WindowId>,
    },
    /// Copies a region between drawables.
    CopyArea {
        /// Source window, or `None` for the root.
        src: Option<WindowId>,
        /// Destination window (must be owned by the requestor).
        dst: WindowId,
    },
    /// Single-plane variant of `CopyArea`; interposed identically.
    CopyPlane {
        /// Source window, or `None` for the root.
        src: Option<WindowId>,
        /// Destination window.
        dst: WindowId,
    },
    /// Asserts ownership of a selection (step 2 of Figure 6 — a *copy*).
    SetSelectionOwner {
        /// The selection.
        selection: Atom,
        /// The owner's window.
        window: WindowId,
    },
    /// Queries the current owner of a selection.
    GetSelectionOwner {
        /// The selection.
        selection: Atom,
    },
    /// Asks for a selection to be converted into a property on the
    /// requestor's window (step 6 of Figure 6 — a *paste*).
    ConvertSelection {
        /// The selection.
        selection: Atom,
        /// The requestor's window.
        requestor: WindowId,
        /// Property to receive the data.
        property: Atom,
    },
    /// Stores a property on a window (step 8 of Figure 6 when in-flight).
    ChangeProperty {
        /// Target window.
        window: WindowId,
        /// Property name.
        property: Atom,
        /// Data.
        data: Vec<u8>,
    },
    /// Reads (and optionally deletes) a property (steps 11–13 of Figure 6).
    GetProperty {
        /// Target window.
        window: WindowId,
        /// Property name.
        property: Atom,
        /// Delete after reading.
        delete: bool,
    },
    /// Removes a property.
    DeleteProperty {
        /// Target window.
        window: WindowId,
        /// Property name.
        property: Atom,
    },
    /// Subscribes to `PropertyNotify` events on a window.
    SelectPropertyEvents {
        /// Watched window.
        window: WindowId,
    },
    /// Core-protocol `SendEvent`: asks the server to deliver `event` to
    /// `target`'s owner as if it came from the server. Always flagged
    /// synthetic; filtered when it would break the selection protocol.
    SendEvent {
        /// Target window.
        target: WindowId,
        /// The event to deliver.
        event: Box<XEvent>,
    },
    /// XTest extension fake input: injects an input event for testing.
    XTestFakeInput {
        /// Key or button payload.
        payload: InputPayload,
        /// Screen location for button events / focus target for keys.
        target: WindowId,
    },
}

/// A successful reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Nothing to return.
    Ok,
    /// A new window id.
    Window(WindowId),
    /// Captured or copied pixel data.
    Image(Vec<u8>),
    /// The owner of a selection, if any.
    SelectionOwner(Option<ClientId>),
    /// Property contents, if present.
    Property(Option<Vec<u8>>),
}

/// An X protocol error returned to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XError {
    /// `BadWindow`: unknown window id.
    BadWindow,
    /// `BadAccess`: the operation was denied — this is what an Overhaul
    /// deny looks like to an unmodified client.
    BadAccess,
    /// `BadMatch`: structurally invalid request (e.g. drawing into a
    /// foreign window).
    BadMatch,
    /// `BadAtom`: missing property.
    BadAtom,
    /// `BadValue`: malformed request contents.
    BadValue,
    /// Unknown client.
    BadClient,
}

impl fmt::Display for XError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            XError::BadWindow => "bad window",
            XError::BadAccess => "bad access",
            XError::BadMatch => "bad match",
            XError::BadAtom => "bad atom",
            XError::BadValue => "bad value",
            XError::BadClient => "bad client",
        })
    }
}

impl std::error::Error for XError {}

mod pack {
    //! Snapshot codec for the protocol types that appear in persistent
    //! server state (client event queues, selection tables) or in recorded
    //! event logs ([`Request`]). [`Reply`] and [`XError`] are transient
    //! wire values and are never serialized.

    use overhaul_sim::impl_pack_newtype;
    use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};

    use super::{Atom, ClientId, InputPayload, Request, XEvent};

    impl_pack_newtype!(ClientId, u32);
    impl_pack_newtype!(Atom, String);

    impl Pack for InputPayload {
        fn pack(&self, enc: &mut Enc) {
            match self {
                InputPayload::Key { ch } => {
                    enc.put_u8(0);
                    ch.pack(enc);
                }
                InputPayload::Button { x, y } => {
                    enc.put_u8(1);
                    x.pack(enc);
                    y.pack(enc);
                }
            }
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => InputPayload::Key {
                    ch: Pack::unpack(dec)?,
                },
                1 => InputPayload::Button {
                    x: Pack::unpack(dec)?,
                    y: Pack::unpack(dec)?,
                },
                _ => return Err(SnapshotError::BadValue("input payload")),
            })
        }
    }

    impl Pack for XEvent {
        fn pack(&self, enc: &mut Enc) {
            match self {
                XEvent::Input {
                    window,
                    payload,
                    synthetic,
                } => {
                    enc.put_u8(0);
                    window.pack(enc);
                    payload.pack(enc);
                    synthetic.pack(enc);
                }
                XEvent::SelectionRequest {
                    selection,
                    requestor,
                    property,
                } => {
                    enc.put_u8(1);
                    selection.pack(enc);
                    requestor.pack(enc);
                    property.pack(enc);
                }
                XEvent::SelectionNotify {
                    selection,
                    property,
                } => {
                    enc.put_u8(2);
                    selection.pack(enc);
                    property.pack(enc);
                }
                XEvent::PropertyNotify { window, property } => {
                    enc.put_u8(3);
                    window.pack(enc);
                    property.pack(enc);
                }
                XEvent::SelectionClear { selection } => {
                    enc.put_u8(4);
                    selection.pack(enc);
                }
            }
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => XEvent::Input {
                    window: Pack::unpack(dec)?,
                    payload: Pack::unpack(dec)?,
                    synthetic: Pack::unpack(dec)?,
                },
                1 => XEvent::SelectionRequest {
                    selection: Pack::unpack(dec)?,
                    requestor: Pack::unpack(dec)?,
                    property: Pack::unpack(dec)?,
                },
                2 => XEvent::SelectionNotify {
                    selection: Pack::unpack(dec)?,
                    property: Pack::unpack(dec)?,
                },
                3 => XEvent::PropertyNotify {
                    window: Pack::unpack(dec)?,
                    property: Pack::unpack(dec)?,
                },
                4 => XEvent::SelectionClear {
                    selection: Pack::unpack(dec)?,
                },
                _ => return Err(SnapshotError::BadValue("x event")),
            })
        }
    }

    impl Pack for Request {
        fn pack(&self, enc: &mut Enc) {
            match self {
                Request::CreateWindow { rect } => {
                    enc.put_u8(0);
                    rect.pack(enc);
                }
                Request::MapWindow { window } => {
                    enc.put_u8(1);
                    window.pack(enc);
                }
                Request::UnmapWindow { window } => {
                    enc.put_u8(2);
                    window.pack(enc);
                }
                Request::RaiseWindow { window } => {
                    enc.put_u8(3);
                    window.pack(enc);
                }
                Request::DestroyWindow { window } => {
                    enc.put_u8(4);
                    window.pack(enc);
                }
                Request::SetInputFocus { window } => {
                    enc.put_u8(5);
                    window.pack(enc);
                }
                Request::PutImage { window, data } => {
                    enc.put_u8(6);
                    window.pack(enc);
                    data.pack(enc);
                }
                Request::GetImage { window } => {
                    enc.put_u8(7);
                    window.pack(enc);
                }
                Request::XShmGetImage { window } => {
                    enc.put_u8(8);
                    window.pack(enc);
                }
                Request::CopyArea { src, dst } => {
                    enc.put_u8(9);
                    src.pack(enc);
                    dst.pack(enc);
                }
                Request::CopyPlane { src, dst } => {
                    enc.put_u8(10);
                    src.pack(enc);
                    dst.pack(enc);
                }
                Request::SetSelectionOwner { selection, window } => {
                    enc.put_u8(11);
                    selection.pack(enc);
                    window.pack(enc);
                }
                Request::GetSelectionOwner { selection } => {
                    enc.put_u8(12);
                    selection.pack(enc);
                }
                Request::ConvertSelection {
                    selection,
                    requestor,
                    property,
                } => {
                    enc.put_u8(13);
                    selection.pack(enc);
                    requestor.pack(enc);
                    property.pack(enc);
                }
                Request::ChangeProperty {
                    window,
                    property,
                    data,
                } => {
                    enc.put_u8(14);
                    window.pack(enc);
                    property.pack(enc);
                    data.pack(enc);
                }
                Request::GetProperty {
                    window,
                    property,
                    delete,
                } => {
                    enc.put_u8(15);
                    window.pack(enc);
                    property.pack(enc);
                    delete.pack(enc);
                }
                Request::DeleteProperty { window, property } => {
                    enc.put_u8(16);
                    window.pack(enc);
                    property.pack(enc);
                }
                Request::SelectPropertyEvents { window } => {
                    enc.put_u8(17);
                    window.pack(enc);
                }
                Request::SendEvent { target, event } => {
                    enc.put_u8(18);
                    target.pack(enc);
                    event.as_ref().pack(enc);
                }
                Request::XTestFakeInput { payload, target } => {
                    enc.put_u8(19);
                    payload.pack(enc);
                    target.pack(enc);
                }
            }
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => Request::CreateWindow {
                    rect: Pack::unpack(dec)?,
                },
                1 => Request::MapWindow {
                    window: Pack::unpack(dec)?,
                },
                2 => Request::UnmapWindow {
                    window: Pack::unpack(dec)?,
                },
                3 => Request::RaiseWindow {
                    window: Pack::unpack(dec)?,
                },
                4 => Request::DestroyWindow {
                    window: Pack::unpack(dec)?,
                },
                5 => Request::SetInputFocus {
                    window: Pack::unpack(dec)?,
                },
                6 => Request::PutImage {
                    window: Pack::unpack(dec)?,
                    data: Pack::unpack(dec)?,
                },
                7 => Request::GetImage {
                    window: Pack::unpack(dec)?,
                },
                8 => Request::XShmGetImage {
                    window: Pack::unpack(dec)?,
                },
                9 => Request::CopyArea {
                    src: Pack::unpack(dec)?,
                    dst: Pack::unpack(dec)?,
                },
                10 => Request::CopyPlane {
                    src: Pack::unpack(dec)?,
                    dst: Pack::unpack(dec)?,
                },
                11 => Request::SetSelectionOwner {
                    selection: Pack::unpack(dec)?,
                    window: Pack::unpack(dec)?,
                },
                12 => Request::GetSelectionOwner {
                    selection: Pack::unpack(dec)?,
                },
                13 => Request::ConvertSelection {
                    selection: Pack::unpack(dec)?,
                    requestor: Pack::unpack(dec)?,
                    property: Pack::unpack(dec)?,
                },
                14 => Request::ChangeProperty {
                    window: Pack::unpack(dec)?,
                    property: Pack::unpack(dec)?,
                    data: Pack::unpack(dec)?,
                },
                15 => Request::GetProperty {
                    window: Pack::unpack(dec)?,
                    property: Pack::unpack(dec)?,
                    delete: Pack::unpack(dec)?,
                },
                16 => Request::DeleteProperty {
                    window: Pack::unpack(dec)?,
                    property: Pack::unpack(dec)?,
                },
                17 => Request::SelectPropertyEvents {
                    window: Pack::unpack(dec)?,
                },
                18 => Request::SendEvent {
                    target: Pack::unpack(dec)?,
                    event: Box::new(Pack::unpack(dec)?),
                },
                19 => Request::XTestFakeInput {
                    payload: Pack::unpack(dec)?,
                    target: Pack::unpack(dec)?,
                },
                _ => return Err(SnapshotError::BadValue("x request")),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_compare_by_name() {
        assert_eq!(Atom::new("CLIPBOARD"), Atom::clipboard());
        assert_ne!(Atom::clipboard(), Atom::primary());
        assert_eq!(Atom::from("X").name(), "X");
    }

    #[test]
    fn display_op_matches_paper_notation() {
        assert_eq!(DisplayOp::Screen.to_string(), "scr");
        assert_eq!(DisplayOp::Copy.to_string(), "copy");
    }

    #[test]
    fn grant_all_link_grants_everything() {
        let mut link = GrantAllLink;
        assert!(link.query(Pid::from_raw(1), DisplayOp::Paste, Timestamp::ZERO));
    }

    #[test]
    fn xerror_display_is_lowercase() {
        assert_eq!(XError::BadAccess.to_string(), "bad access");
    }

    #[test]
    fn client_id_round_trip() {
        assert_eq!(ClientId::from_raw(7).as_raw(), 7);
        assert_eq!(ClientId::from_raw(7).to_string(), "client:7");
    }
}
