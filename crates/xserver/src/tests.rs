//! Integration-style tests for the X server's Overhaul enhancements,
//! using a mock monitor link in place of the kernel.

use overhaul_sim::work::ALERT_RENDER_NS;
use overhaul_sim::{AuditCategory, Clock, Pid, SimDuration, Timestamp};

use crate::geometry::{Point, Rect};
use crate::overlay::Alert;
use crate::protocol::{
    Atom, ClientId, DisplayOp, InputPayload, MonitorLink, Reply, Request, XError, XEvent,
};
use crate::window::WindowId;
use crate::{XConfig, XServer};

/// A scriptable stand-in for the kernel permission monitor.
#[derive(Debug, Default)]
struct MockLink {
    grant: bool,
    notifications: Vec<(Pid, Timestamp)>,
    queries: Vec<(Pid, DisplayOp, Timestamp)>,
}

impl MockLink {
    fn granting() -> Self {
        MockLink {
            grant: true,
            ..MockLink::default()
        }
    }

    fn denying() -> Self {
        MockLink::default()
    }
}

impl MonitorLink for MockLink {
    fn notify_interaction(&mut self, pid: Pid, at: Timestamp) {
        self.notifications.push((pid, at));
    }

    fn query(&mut self, pid: Pid, op: DisplayOp, at: Timestamp) -> bool {
        self.queries.push((pid, op, at));
        self.grant
    }
}

struct Rig {
    x: XServer,
    clock: Clock,
}

impl Rig {
    fn new() -> Self {
        let clock = Clock::new();
        let x = XServer::new(clock.clone(), XConfig::default());
        Rig { x, clock }
    }

    fn baseline() -> Self {
        let clock = Clock::new();
        let x = XServer::new(clock.clone(), XConfig::baseline());
        Rig { x, clock }
    }

    fn client(&mut self, pid: u32) -> ClientId {
        self.x.connect_client(Pid::from_raw(pid))
    }

    /// Creates and maps a window, then waits out the clickjacking
    /// visibility threshold so clicks on it are trusted.
    fn stable_window(&mut self, client: ClientId, rect: Rect) -> WindowId {
        let window = match self
            .x
            .request(
                client,
                Request::CreateWindow { rect },
                &mut MockLink::granting(),
            )
            .unwrap()
        {
            Reply::Window(w) => w,
            other => panic!("unexpected reply {other:?}"),
        };
        self.x
            .request(
                client,
                Request::MapWindow { window },
                &mut MockLink::granting(),
            )
            .unwrap();
        self.clock.advance(SimDuration::from_millis(600));
        window
    }
}

// ------------------------------------------------------------ input path

#[test]
fn hardware_click_delivers_event_and_notifies() {
    let mut rig = Rig::new();
    let c = rig.client(10);
    let w = rig.stable_window(c, Rect::new(0, 0, 100, 100));
    let mut link = MockLink::granting();
    assert_eq!(rig.x.hardware_click(Point::new(5, 5), &mut link), Some(w));
    assert_eq!(link.notifications.len(), 1);
    assert_eq!(link.notifications[0].0, Pid::from_raw(10));
    let events = rig.x.drain_events(c).unwrap();
    assert!(matches!(
        events.as_slice(),
        [XEvent::Input {
            synthetic: false,
            payload: InputPayload::Button { x: 5, y: 5 },
            ..
        }]
    ));
}

#[test]
fn hardware_key_goes_to_focus_window() {
    let mut rig = Rig::new();
    let c = rig.client(10);
    let w = rig.stable_window(c, Rect::new(0, 0, 100, 100));
    rig.x
        .request(
            c,
            Request::SetInputFocus { window: w },
            &mut MockLink::granting(),
        )
        .unwrap();
    let mut link = MockLink::granting();
    assert_eq!(rig.x.hardware_key('v', &mut link), Some(w));
    assert_eq!(link.notifications.len(), 1);
}

#[test]
fn key_without_focus_goes_nowhere() {
    let mut rig = Rig::new();
    let c = rig.client(10);
    rig.stable_window(c, Rect::new(0, 0, 10, 10));
    let mut link = MockLink::granting();
    assert_eq!(rig.x.hardware_key('x', &mut link), None);
    assert!(link.notifications.is_empty());
}

#[test]
fn click_outside_all_windows_is_ignored() {
    let mut rig = Rig::new();
    let c = rig.client(10);
    rig.stable_window(c, Rect::new(0, 0, 10, 10));
    let mut link = MockLink::granting();
    assert_eq!(rig.x.hardware_click(Point::new(500, 500), &mut link), None);
    assert!(link.notifications.is_empty());
}

#[test]
fn sendevent_input_is_delivered_but_never_trusted() {
    let mut rig = Rig::new();
    let victim = rig.client(10);
    let attacker = rig.client(66);
    let w = rig.stable_window(victim, Rect::new(0, 0, 100, 100));
    let mut link = MockLink::granting();
    rig.x
        .request(
            attacker,
            Request::SendEvent {
                target: w,
                event: Box::new(XEvent::Input {
                    window: w,
                    payload: InputPayload::Button { x: 1, y: 1 },
                    synthetic: false, // attacker lies; server forces the flag
                }),
            },
            &mut link,
        )
        .unwrap();
    assert!(
        link.notifications.is_empty(),
        "S2: no notification for synthetic input"
    );
    let events = rig.x.drain_events(victim).unwrap();
    assert!(matches!(
        events.as_slice(),
        [XEvent::Input {
            synthetic: true,
            ..
        }]
    ));
    assert_eq!(
        rig.x.audit().count(AuditCategory::SyntheticInputFiltered),
        1
    );
}

#[test]
fn xtest_fake_input_is_tagged_and_untrusted() {
    let mut rig = Rig::new();
    let victim = rig.client(10);
    let attacker = rig.client(66);
    let w = rig.stable_window(victim, Rect::new(0, 0, 100, 100));
    let mut link = MockLink::granting();
    rig.x
        .request(
            attacker,
            Request::XTestFakeInput {
                payload: InputPayload::Key { ch: 'a' },
                target: w,
            },
            &mut link,
        )
        .unwrap();
    assert!(link.notifications.is_empty());
    assert_eq!(
        rig.x.audit().count(AuditCategory::SyntheticInputFiltered),
        1
    );
}

// ------------------------------------------------------------ clickjacking

#[test]
fn click_on_freshly_mapped_window_is_suppressed() {
    let mut rig = Rig::new();
    let c = rig.client(10);
    let w = match rig
        .x
        .request(
            c,
            Request::CreateWindow {
                rect: Rect::new(0, 0, 100, 100),
            },
            &mut MockLink::granting(),
        )
        .unwrap()
    {
        Reply::Window(w) => w,
        _ => unreachable!(),
    };
    rig.x
        .request(
            c,
            Request::MapWindow { window: w },
            &mut MockLink::granting(),
        )
        .unwrap();
    // Click immediately: window not yet stable.
    let mut link = MockLink::granting();
    rig.x.hardware_click(Point::new(5, 5), &mut link);
    assert!(
        link.notifications.is_empty(),
        "S3: clickjack gate suppressed the notification"
    );
    assert_eq!(
        rig.x.audit().count(AuditCategory::ClickjackingSuppressed),
        1
    );
    // Event still delivered (only the notification is withheld).
    assert_eq!(rig.x.drain_events(c).unwrap().len(), 1);
}

#[test]
fn popup_overlay_attack_raised_window_is_not_stable() {
    let mut rig = Rig::new();
    let victim = rig.client(10);
    let attacker = rig.client(66);
    let _legit = rig.stable_window(victim, Rect::new(0, 0, 100, 100));
    // Attacker maps an invisible (unmapped) window, then pops it over the
    // victim right before the user's click lands.
    let trap = match rig
        .x
        .request(
            attacker,
            Request::CreateWindow {
                rect: Rect::new(0, 0, 100, 100),
            },
            &mut MockLink::granting(),
        )
        .unwrap()
    {
        Reply::Window(w) => w,
        _ => unreachable!(),
    };
    rig.x
        .request(
            attacker,
            Request::MapWindow { window: trap },
            &mut MockLink::granting(),
        )
        .unwrap();
    let mut link = MockLink::granting();
    let hit = rig.x.hardware_click(Point::new(5, 5), &mut link);
    assert_eq!(hit, Some(trap), "the trap window steals the click");
    assert!(
        link.notifications.is_empty(),
        "but gains no interaction credit"
    );
}

#[test]
fn occluded_window_loses_stability() {
    let mut rig = Rig::new();
    let victim = rig.client(10);
    let attacker = rig.client(66);
    let v = rig.stable_window(victim, Rect::new(0, 0, 100, 100));
    let _cover = rig.stable_window(attacker, Rect::new(0, 0, 100, 100));
    // Victim raises its window back and is clicked immediately: its
    // visibility clock restarted when raised, so it is not stable yet.
    rig.x
        .request(
            victim,
            Request::RaiseWindow { window: v },
            &mut MockLink::granting(),
        )
        .unwrap();
    let mut link = MockLink::granting();
    rig.x.hardware_click(Point::new(5, 5), &mut link);
    assert!(link.notifications.is_empty());
}

// ------------------------------------------------------------ screen capture

#[test]
fn get_image_of_own_window_needs_no_query() {
    let mut rig = Rig::new();
    let c = rig.client(10);
    let w = rig.stable_window(c, Rect::new(0, 0, 4, 4));
    let mut link = MockLink::denying();
    let reply = rig
        .x
        .request(c, Request::GetImage { window: Some(w) }, &mut link)
        .unwrap();
    assert!(matches!(reply, Reply::Image(_)));
    assert!(link.queries.is_empty());
}

#[test]
fn root_capture_requires_grant_and_alerts() {
    let mut rig = Rig::new();
    let c = rig.client(10);
    rig.stable_window(c, Rect::new(0, 0, 4, 4));
    let mut link = MockLink::granting();
    let reply = rig
        .x
        .request(c, Request::GetImage { window: None }, &mut link)
        .unwrap();
    assert!(matches!(reply, Reply::Image(_)));
    assert_eq!(link.queries.len(), 1);
    assert_eq!(link.queries[0].1, DisplayOp::Screen);
    assert_eq!(rig.x.alerts().shown_count(), 1);
    assert!(rig.x.alerts().history()[0].granted);
}

#[test]
fn root_capture_denied_shows_blocked_alert() {
    let mut rig = Rig::new();
    let c = rig.client(10);
    rig.stable_window(c, Rect::new(0, 0, 4, 4));
    let mut link = MockLink::denying();
    assert_eq!(
        rig.x
            .request(c, Request::GetImage { window: None }, &mut link),
        Err(XError::BadAccess)
    );
    let alert = &rig.x.alerts().history()[0];
    assert!(!alert.granted);
    assert!(alert.render().contains("was blocked from"));
}

#[test]
fn xshm_get_image_takes_the_same_path() {
    let mut rig = Rig::new();
    let c = rig.client(10);
    rig.stable_window(c, Rect::new(0, 0, 4, 4));
    let mut link = MockLink::denying();
    assert_eq!(
        rig.x
            .request(c, Request::XShmGetImage { window: None }, &mut link),
        Err(XError::BadAccess)
    );
}

#[test]
fn foreign_window_capture_is_mediated() {
    let mut rig = Rig::new();
    let victim = rig.client(10);
    let spy = rig.client(66);
    let vw = rig.stable_window(victim, Rect::new(0, 0, 4, 4));
    let mut link = MockLink::denying();
    assert_eq!(
        rig.x
            .request(spy, Request::GetImage { window: Some(vw) }, &mut link),
        Err(XError::BadAccess)
    );
    assert_eq!(link.queries.len(), 1);
}

#[test]
fn copy_area_within_own_windows_is_free() {
    let mut rig = Rig::new();
    let c = rig.client(10);
    let a = rig.stable_window(c, Rect::new(0, 0, 4, 4));
    let b = rig.stable_window(c, Rect::new(10, 0, 4, 4));
    let mut link = MockLink::denying();
    rig.x
        .request(
            c,
            Request::CopyArea {
                src: Some(a),
                dst: b,
            },
            &mut link,
        )
        .unwrap();
    assert!(link.queries.is_empty(), "same-owner copy needs no check");
}

#[test]
fn copy_area_from_foreign_window_is_mediated() {
    let mut rig = Rig::new();
    let victim = rig.client(10);
    let spy = rig.client(66);
    let vw = rig.stable_window(victim, Rect::new(0, 0, 4, 4));
    let sw = rig.stable_window(spy, Rect::new(10, 0, 4, 4));
    let mut link = MockLink::denying();
    assert_eq!(
        rig.x.request(
            spy,
            Request::CopyArea {
                src: Some(vw),
                dst: sw
            },
            &mut link
        ),
        Err(XError::BadAccess)
    );
    // Granted path actually copies the pixels.
    let mut granting = MockLink::granting();
    rig.x
        .request(
            spy,
            Request::CopyPlane {
                src: Some(vw),
                dst: sw,
            },
            &mut granting,
        )
        .unwrap();
    let victim_pixels = match rig.x.request(
        victim,
        Request::GetImage { window: Some(vw) },
        &mut granting,
    ) {
        Ok(Reply::Image(p)) => p,
        other => panic!("unexpected {other:?}"),
    };
    let spy_pixels = match rig
        .x
        .request(spy, Request::GetImage { window: Some(sw) }, &mut granting)
    {
        Ok(Reply::Image(p)) => p,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(victim_pixels, spy_pixels);
}

#[test]
fn copy_area_into_foreign_destination_is_bad_match() {
    let mut rig = Rig::new();
    let a = rig.client(1);
    let b = rig.client(2);
    let wa = rig.stable_window(a, Rect::new(0, 0, 4, 4));
    let wb = rig.stable_window(b, Rect::new(10, 0, 4, 4));
    assert_eq!(
        rig.x.request(
            a,
            Request::CopyArea {
                src: Some(wa),
                dst: wb
            },
            &mut MockLink::granting()
        ),
        Err(XError::BadMatch)
    );
}

#[test]
fn composite_root_shows_topmost_window() {
    let mut rig = Rig::new();
    let c = rig.client(10);
    let w = rig.stable_window(c, Rect::new(0, 0, 2, 2));
    rig.x
        .request(
            c,
            Request::PutImage {
                window: w,
                data: vec![9, 9, 9, 9],
            },
            &mut MockLink::granting(),
        )
        .unwrap();
    let mut link = MockLink::granting();
    let root = match rig
        .x
        .request(c, Request::GetImage { window: None }, &mut link)
        .unwrap()
    {
        Reply::Image(p) => p,
        _ => unreachable!(),
    };
    assert_eq!(root[0], 9);
    assert_eq!(root[1], 9);
    let width = rig.x.config().screen.width as usize;
    assert_eq!(root[width], 9, "second row of the window");
    assert_eq!(root[2], 0, "outside the window is background");
}

// ------------------------------------------------------------ clipboard

/// Drives the full Figure 6 protocol between a source and a target client.
fn run_copy_paste(rig: &mut Rig, link_grant: bool) -> Result<Vec<u8>, XError> {
    let source = rig.client(20);
    let target = rig.client(21);
    let sw = rig.stable_window(source, Rect::new(0, 0, 10, 10));
    let tw = rig.stable_window(target, Rect::new(20, 0, 10, 10));
    let mut link = if link_grant {
        MockLink::granting()
    } else {
        MockLink::denying()
    };
    let selection = Atom::clipboard();
    let property = Atom::new("XSEL_DATA");

    // Steps 1–2: copy.
    rig.x.request(
        source,
        Request::SetSelectionOwner {
            selection: selection.clone(),
            window: sw,
        },
        &mut link,
    )?;
    // Steps 5–6: paste.
    rig.x.request(
        target,
        Request::ConvertSelection {
            selection: selection.clone(),
            requestor: tw,
            property: property.clone(),
        },
        &mut link,
    )?;
    // Step 7: the source receives the relayed SelectionRequest.
    let ev = rig
        .x
        .next_event(source)?
        .expect("selection request relayed");
    let (requestor, prop) = match ev {
        XEvent::SelectionRequest {
            requestor,
            property,
            ..
        } => (requestor, property),
        other => panic!("unexpected event {other:?}"),
    };
    // Step 8: source stores the data on the requestor's window.
    rig.x.request(
        source,
        Request::ChangeProperty {
            window: requestor,
            property: prop.clone(),
            data: b"hunter2".to_vec(),
        },
        &mut link,
    )?;
    // Step 9: source asks the server to notify the target.
    rig.x.request(
        source,
        Request::SendEvent {
            target: requestor,
            event: Box::new(XEvent::SelectionNotify {
                selection: selection.clone(),
                property: prop.clone(),
            }),
        },
        &mut link,
    )?;
    // Step 10: target receives SelectionNotify.
    let ev = rig.x.next_event(target)?.expect("selection notify");
    assert!(matches!(ev, XEvent::SelectionNotify { .. }));
    // Steps 11–13: target retrieves and deletes the property.
    match rig.x.request(
        target,
        Request::GetProperty {
            window: tw,
            property: prop,
            delete: true,
        },
        &mut link,
    )? {
        Reply::Property(Some(data)) => Ok(data),
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn full_copy_paste_round_trip_with_grants() {
    let mut rig = Rig::new();
    let data = run_copy_paste(&mut rig, true).unwrap();
    assert_eq!(data, b"hunter2");
    // Two queries: one copy, one paste.
    assert_eq!(rig.x.audit().count(AuditCategory::PermissionGranted), 2);
}

#[test]
fn copy_paste_denied_without_interaction() {
    let mut rig = Rig::new();
    assert_eq!(run_copy_paste(&mut rig, false), Err(XError::BadAccess));
    assert!(rig.x.audit().count(AuditCategory::PermissionDenied) >= 1);
}

#[test]
fn baseline_copy_paste_needs_no_grants() {
    let mut rig = Rig::baseline();
    let data = run_copy_paste(&mut rig, false).unwrap();
    assert_eq!(data, b"hunter2");
}

#[test]
fn paste_after_owner_disconnect_fails_closed() {
    // Regression: a paste brokered after the owning client's connection
    // died (without the full disconnect cleanup running first) used to
    // reuse the stale ownership record — and with it the owner's stale
    // interaction evidence. It must deny and clear the record instead.
    let mut rig = Rig::new();
    let owner = rig.client(20);
    let target = rig.client(21);
    let ow = rig.stable_window(owner, Rect::new(0, 0, 10, 10));
    let tw = rig.stable_window(target, Rect::new(20, 0, 10, 10));
    let mut link = MockLink::granting();
    rig.x
        .request(
            owner,
            Request::SetSelectionOwner {
                selection: Atom::clipboard(),
                window: ow,
            },
            &mut link,
        )
        .unwrap();
    // Tear down only the connection record (crash-style teardown ordering),
    // leaving the selection table's owner entry stale.
    rig.x.clients.disconnect(owner).unwrap();
    let result = rig.x.request(
        target,
        Request::ConvertSelection {
            selection: Atom::clipboard(),
            requestor: tw,
            property: Atom::new("XSEL_DATA"),
        },
        &mut link,
    );
    assert_eq!(result, Err(XError::BadAccess), "must fail closed");
    assert!(
        rig.x
            .audit()
            .events()
            .any(|e| e.detail().contains("stale owner")),
        "deny is audited with its cause"
    );
    // The stale record is gone: a retry sees "no owner" and gets the
    // ordinary ICCCM empty notify, not a brokered transfer.
    rig.x
        .request(
            target,
            Request::ConvertSelection {
                selection: Atom::clipboard(),
                requestor: tw,
                property: Atom::new("XSEL_DATA"),
            },
            &mut link,
        )
        .unwrap();
    let ev = rig.x.next_event(target).unwrap().expect("empty notify");
    assert!(
        matches!(ev, XEvent::SelectionNotify { property, .. } if property == Atom::new("NONE"))
    );
}

#[test]
fn paste_after_owner_window_destroyed_fails_closed() {
    let mut rig = Rig::new();
    let owner = rig.client(20);
    let target = rig.client(21);
    let ow = rig.stable_window(owner, Rect::new(0, 0, 10, 10));
    let tw = rig.stable_window(target, Rect::new(20, 0, 10, 10));
    let mut link = MockLink::granting();
    rig.x
        .request(
            owner,
            Request::SetSelectionOwner {
                selection: Atom::clipboard(),
                window: ow,
            },
            &mut link,
        )
        .unwrap();
    // The owner destroys the window it asserted ownership through: the
    // evidence backing the ownership is gone.
    rig.x
        .request(owner, Request::DestroyWindow { window: ow }, &mut link)
        .unwrap();
    let result = rig.x.request(
        target,
        Request::ConvertSelection {
            selection: Atom::clipboard(),
            requestor: tw,
            property: Atom::new("XSEL_DATA"),
        },
        &mut link,
    );
    assert_eq!(result, Err(XError::BadAccess), "must fail closed");
}

#[test]
fn forged_selection_request_is_blocked() {
    let mut rig = Rig::new();
    let owner = rig.client(20);
    let attacker = rig.client(66);
    let ow = rig.stable_window(owner, Rect::new(0, 0, 10, 10));
    let aw = rig.stable_window(attacker, Rect::new(20, 0, 10, 10));
    let mut link = MockLink::granting();
    rig.x
        .request(
            owner,
            Request::SetSelectionOwner {
                selection: Atom::clipboard(),
                window: ow,
            },
            &mut link,
        )
        .unwrap();
    // Attacker skips ConvertSelection (which would be checked) and sends a
    // SelectionRequest straight to the owner via SendEvent.
    let result = rig.x.request(
        attacker,
        Request::SendEvent {
            target: ow,
            event: Box::new(XEvent::SelectionRequest {
                selection: Atom::clipboard(),
                requestor: aw,
                property: Atom::new("LOOT"),
            }),
        },
        &mut link,
    );
    assert_eq!(result, Err(XError::BadAccess));
    assert_eq!(rig.x.audit().count(AuditCategory::ProtocolAttackBlocked), 1);
    assert_eq!(
        rig.x.drain_events(owner).unwrap().len(),
        0,
        "owner never hears about it"
    );
}

#[test]
fn forged_selection_notify_is_blocked() {
    let mut rig = Rig::new();
    let victim = rig.client(20);
    let attacker = rig.client(66);
    let vw = rig.stable_window(victim, Rect::new(0, 0, 10, 10));
    let mut link = MockLink::granting();
    let result = rig.x.request(
        attacker,
        Request::SendEvent {
            target: vw,
            event: Box::new(XEvent::SelectionNotify {
                selection: Atom::clipboard(),
                property: Atom::new("FAKE"),
            }),
        },
        &mut link,
    );
    assert_eq!(result, Err(XError::BadAccess));
}

#[test]
fn property_snooping_on_in_flight_transfer_is_blocked() {
    let mut rig = Rig::new();
    let source = rig.client(20);
    let target = rig.client(21);
    let spy = rig.client(66);
    let sw = rig.stable_window(source, Rect::new(0, 0, 10, 10));
    let tw = rig.stable_window(target, Rect::new(20, 0, 10, 10));
    rig.stable_window(spy, Rect::new(40, 0, 10, 10));
    let mut link = MockLink::granting();
    let property = Atom::new("XSEL_DATA");
    // Spy watches the target window's properties ahead of time.
    rig.x
        .request(spy, Request::SelectPropertyEvents { window: tw }, &mut link)
        .unwrap();
    rig.x
        .request(
            source,
            Request::SetSelectionOwner {
                selection: Atom::clipboard(),
                window: sw,
            },
            &mut link,
        )
        .unwrap();
    rig.x
        .request(
            target,
            Request::ConvertSelection {
                selection: Atom::clipboard(),
                requestor: tw,
                property: property.clone(),
            },
            &mut link,
        )
        .unwrap();
    rig.x.next_event(source).unwrap(); // SelectionRequest
    rig.x
        .request(
            source,
            Request::ChangeProperty {
                window: tw,
                property: property.clone(),
                data: b"secret".to_vec(),
            },
            &mut link,
        )
        .unwrap();
    // The spy's PropertyNotify was suppressed...
    assert_eq!(rig.x.drain_events(spy).unwrap().len(), 0);
    // ...and a direct read of the in-flight property is denied.
    assert_eq!(
        rig.x.request(
            spy,
            Request::GetProperty {
                window: tw,
                property: property.clone(),
                delete: false
            },
            &mut link
        ),
        Err(XError::BadAccess)
    );
    // The legitimate target still completes the paste.
    match rig
        .x
        .request(
            target,
            Request::GetProperty {
                window: tw,
                property,
                delete: true,
            },
            &mut link,
        )
        .unwrap()
    {
        Reply::Property(Some(data)) => assert_eq!(data, b"secret"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn baseline_property_snooping_succeeds() {
    // The same attack on a stock X server works — this asymmetry is what
    // the §V-D unprotected machine demonstrates.
    let mut rig = Rig::baseline();
    let source = rig.client(20);
    let target = rig.client(21);
    let spy = rig.client(66);
    let sw = rig.stable_window(source, Rect::new(0, 0, 10, 10));
    let tw = rig.stable_window(target, Rect::new(20, 0, 10, 10));
    let mut link = MockLink::denying();
    let property = Atom::new("XSEL_DATA");
    rig.x
        .request(
            source,
            Request::SetSelectionOwner {
                selection: Atom::clipboard(),
                window: sw,
            },
            &mut link,
        )
        .unwrap();
    rig.x
        .request(
            target,
            Request::ConvertSelection {
                selection: Atom::clipboard(),
                requestor: tw,
                property: property.clone(),
            },
            &mut link,
        )
        .unwrap();
    rig.x.next_event(source).unwrap();
    rig.x
        .request(
            source,
            Request::ChangeProperty {
                window: tw,
                property: property.clone(),
                data: b"secret".to_vec(),
            },
            &mut link,
        )
        .unwrap();
    match rig
        .x
        .request(
            spy,
            Request::GetProperty {
                window: tw,
                property,
                delete: false,
            },
            &mut link,
        )
        .unwrap()
    {
        Reply::Property(Some(data)) => assert_eq!(data, b"secret", "stock X leaks the clipboard"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn selection_owner_change_sends_clear_to_old_owner() {
    let mut rig = Rig::new();
    let a = rig.client(1);
    let b = rig.client(2);
    let wa = rig.stable_window(a, Rect::new(0, 0, 10, 10));
    let wb = rig.stable_window(b, Rect::new(20, 0, 10, 10));
    let mut link = MockLink::granting();
    rig.x
        .request(
            a,
            Request::SetSelectionOwner {
                selection: Atom::clipboard(),
                window: wa,
            },
            &mut link,
        )
        .unwrap();
    rig.x
        .request(
            b,
            Request::SetSelectionOwner {
                selection: Atom::clipboard(),
                window: wb,
            },
            &mut link,
        )
        .unwrap();
    let events = rig.x.drain_events(a).unwrap();
    assert!(matches!(events.as_slice(), [XEvent::SelectionClear { .. }]));
    match rig
        .x
        .request(
            a,
            Request::GetSelectionOwner {
                selection: Atom::clipboard(),
            },
            &mut link,
        )
        .unwrap()
    {
        Reply::SelectionOwner(owner) => assert_eq!(owner, Some(b)),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn paste_with_no_owner_yields_none_property() {
    let mut rig = Rig::new();
    let c = rig.client(1);
    let w = rig.stable_window(c, Rect::new(0, 0, 10, 10));
    let mut link = MockLink::granting();
    rig.x
        .request(
            c,
            Request::ConvertSelection {
                selection: Atom::primary(),
                requestor: w,
                property: Atom::new("P"),
            },
            &mut link,
        )
        .unwrap();
    let ev = rig.x.next_event(c).unwrap().unwrap();
    assert!(
        matches!(ev, XEvent::SelectionNotify { property, .. } if property == Atom::new("NONE"))
    );
}

// ------------------------------------------------------------ misc

#[test]
fn disconnect_cleans_up_windows_and_selections() {
    let mut rig = Rig::new();
    let c = rig.client(1);
    let w = rig.stable_window(c, Rect::new(0, 0, 10, 10));
    let mut link = MockLink::granting();
    rig.x
        .request(
            c,
            Request::SetSelectionOwner {
                selection: Atom::clipboard(),
                window: w,
            },
            &mut link,
        )
        .unwrap();
    rig.x.disconnect_client(c).unwrap();
    assert!(rig.x.windows().is_empty());
    let c2 = rig.client(2);
    match rig
        .x
        .request(
            c2,
            Request::GetSelectionOwner {
                selection: Atom::clipboard(),
            },
            &mut link,
        )
        .unwrap()
    {
        Reply::SelectionOwner(owner) => assert_eq!(owner, None),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn request_from_unknown_client_is_bad_client() {
    let mut rig = Rig::new();
    let ghost = ClientId::from_raw(99);
    assert_eq!(
        rig.x.request(
            ghost,
            Request::CreateWindow {
                rect: Rect::new(0, 0, 1, 1)
            },
            &mut MockLink::granting()
        ),
        Err(XError::BadClient)
    );
}

#[test]
fn create_window_outside_the_x11_range_is_bad_value() {
    let mut rig = Rig::new();
    let c = rig.client(1);
    for rect in [
        Rect::new(0, 0, u32::MAX, u32::MAX),
        Rect::new(0, 0, 32_768, 1),
        Rect::new(i32::MAX - 10, 0, 40, 30),
        Rect::new(0, -32_769, 40, 30),
    ] {
        assert_eq!(
            rig.x
                .request(c, Request::CreateWindow { rect }, &mut MockLink::granting()),
            Err(XError::BadValue),
            "{rect:?}"
        );
    }
    assert!(rig.x.windows().is_empty());
    let edge = Rect::new(-32_768, 32_767, 32_767, 32_767);
    assert!(matches!(
        rig.x.request(
            c,
            Request::CreateWindow { rect: edge },
            &mut MockLink::granting()
        ),
        Ok(Reply::Window(_))
    ));
}

#[test]
fn foreign_window_management_is_bad_match() {
    let mut rig = Rig::new();
    let a = rig.client(1);
    let b = rig.client(2);
    let wa = rig.stable_window(a, Rect::new(0, 0, 10, 10));
    for request in [
        Request::MapWindow { window: wa },
        Request::UnmapWindow { window: wa },
        Request::RaiseWindow { window: wa },
        Request::DestroyWindow { window: wa },
        Request::PutImage {
            window: wa,
            data: vec![0; 100],
        },
    ] {
        assert_eq!(
            rig.x.request(b, request, &mut MockLink::granting()),
            Err(XError::BadMatch)
        );
    }
}

#[test]
fn fake_alert_window_is_distinguishable_from_overlay() {
    let mut rig = Rig::new();
    let attacker = rig.client(66);
    let w = rig.stable_window(attacker, Rect::new(0, 0, 300, 40));
    // The attacker renders something alert-shaped into its own window, but
    // it cannot know the shared secret.
    let fake_text = b"[???] totally-legit is using the mic".to_vec();
    let mut padded = vec![0u8; 300 * 40];
    padded[..fake_text.len()].copy_from_slice(&fake_text);
    rig.x
        .request(
            attacker,
            Request::PutImage {
                window: w,
                data: padded,
            },
            &mut MockLink::granting(),
        )
        .unwrap();
    let real = rig.x.show_alert("skype", "mic", true);
    assert!(Alert::looks_authentic(
        &real.render(),
        rig.x.alerts().secret()
    ));
    assert!(!Alert::looks_authentic(
        "[???] totally-legit is using the mic",
        rig.x.alerts().secret()
    ));
}

#[test]
fn refused_prompt_is_not_charged() {
    let mut rig = Rig::new();
    assert!(rig.x.ask_prompt("skype", "mic").is_some());
    let charged = rig.x.modelled_cost();
    assert_eq!(charged.alert_render_ns, ALERT_RENDER_NS);
    // Another prompt is pending: nothing is drawn, so nothing is charged.
    assert!(rig.x.ask_prompt("zoom", "cam").is_none());
    assert_eq!(rig.x.modelled_cost(), charged);
}
