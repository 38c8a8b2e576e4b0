//! Dynamic device management end-to-end (§IV-B, *Device mediation*):
//! udev renames, the trusted helper, hot-plug, and the helper-lag window.

use overhaul_core::System;
use overhaul_kernel::device::DeviceClass;
use overhaul_kernel::error::Errno;
use overhaul_kernel::netlink::NetlinkMessage;
use overhaul_kernel::UDEV_HELPER_PATH;
use overhaul_sim::{FaultPlan, FaultSpec, SimDuration};
use overhaul_xserver::geometry::Rect;

#[test]
fn hotplugged_device_is_mediated_immediately() {
    let mut machine = System::protected();
    // A USB webcam appears at runtime.
    machine
        .kernel_mut()
        .attach_device(DeviceClass::Camera, "usb webcam", "/dev/video9")
        .expect("attach");
    let spy = machine.spawn_process(None, "/usr/bin/.spy").unwrap();
    assert_eq!(
        machine.open_device(spy, "/dev/video9"),
        Err(Errno::Eacces),
        "hot-plugged devices are protected from the first instant"
    );
}

#[test]
fn rename_with_helper_keeps_protection() {
    let mut machine = System::protected();
    machine
        .kernel_mut()
        .udev_rename_device("/dev/video0", "/dev/video-front")
        .unwrap();
    let spy = machine.spawn_process(None, "/usr/bin/.spy").unwrap();
    // Old path is gone; new path is mediated.
    assert_eq!(machine.open_device(spy, "/dev/video0"), Err(Errno::Enoent));
    assert_eq!(
        machine.open_device(spy, "/dev/video-front"),
        Err(Errno::Eacces)
    );

    // And a legitimate interactive app still works at the new path.
    let app = machine
        .launch_gui_app("/usr/bin/cheese", Rect::new(0, 0, 100, 100))
        .unwrap();
    machine.settle();
    machine.click_window(app.window);
    machine.advance(SimDuration::from_millis(100));
    assert!(machine.open_device(app.pid, "/dev/video-front").is_ok());
}

#[test]
fn helper_lag_window_is_the_documented_gap() {
    let mut machine = System::protected();
    machine
        .kernel_mut()
        .udev_rename_device_without_helper("/dev/video0", "/dev/video-renamed")
        .unwrap();
    let spy = machine.spawn_process(None, "/usr/bin/.spy").unwrap();
    // While the helper lags, the node exists but is unknown to the
    // mediation map: the open proceeds under plain UNIX semantics.
    assert!(
        machine.open_device(spy, "/dev/video-renamed").is_ok(),
        "the lag window is a real (documented) exposure"
    );
    // Once the helper catches up, protection resumes.
    machine
        .kernel_mut()
        .device_map_catch_up("/dev/video0", "/dev/video-renamed");
    let spy2 = machine.spawn_process(None, "/usr/bin/.spy2").unwrap();
    assert_eq!(
        machine.open_device(spy2, "/dev/video-renamed"),
        Err(Errno::Eacces)
    );
}

#[test]
fn sensor_class_devices_are_protected_too() {
    // "These devices could include arbitrary sensors attached to the
    // system" (§III-C).
    let mut machine = System::protected();
    machine
        .kernel_mut()
        .attach_device(DeviceClass::Sensor, "gps", "/dev/gps0")
        .expect("attach");
    let tracker = machine.spawn_process(None, "/usr/bin/.tracker").unwrap();
    assert_eq!(
        machine.open_device(tracker, "/dev/gps0"),
        Err(Errno::Eacces)
    );

    let maps = machine
        .launch_gui_app("/usr/bin/maps", Rect::new(0, 0, 100, 100))
        .unwrap();
    machine.settle();
    machine.click_window(maps.window);
    let fd = machine.open_device(maps.pid, "/dev/gps0").unwrap();
    let reading = machine.kernel_mut().sys_read(maps.pid, fd, 64).unwrap();
    assert!(reading.starts_with(b"reading:gps"));
    assert_eq!(machine.alert_history().last().unwrap().op, "sensor");
}

#[test]
fn dropped_helper_update_keeps_device_quarantined() {
    let mut machine = System::protected();
    let helper = machine.spawn_process(None, UDEV_HELPER_PATH).unwrap();
    let conn = machine.kernel_mut().netlink_connect(helper).unwrap();

    // A legitimate app earns interaction credit before the fault storm.
    let app = machine
        .launch_gui_app("/usr/bin/cheese", Rect::new(0, 0, 100, 100))
        .unwrap();
    machine.settle();
    machine.click_window(app.window);

    // From here on, every channel message is dropped: the helper's
    // DeviceMapUpdate for the rename never arrives.
    let plan = FaultPlan::new(FaultSpec::quiet(11).with_drop_p(1.0));
    machine.kernel_mut().install_fault_plan(plan);
    machine
        .kernel_mut()
        .udev_rename_device_via_channel(conn, "/dev/video0", "/dev/video-front")
        .expect_err("the update must be lost");

    // Old path is gone from the VFS; new path exists but the device is
    // quarantined — denied even with fresh interaction credit.
    assert_eq!(
        machine.open_device(app.pid, "/dev/video0"),
        Err(Errno::Enoent)
    );
    assert_eq!(
        machine.open_device(app.pid, "/dev/video-front"),
        Err(Errno::Eacces),
        "a lost helper update must fail closed, not fall into the lag gap"
    );
    assert!(
        machine.kernel_audit().matching("quarantined").count() >= 1,
        "the quarantine denial is audited"
    );

    // The helper retransmits once the channel heals: protection resumes
    // at the new path and the quarantine lifts.
    machine
        .kernel_mut()
        .fault_plan_mut()
        .expect("plan installed")
        .set_armed(false);
    machine
        .kernel_mut()
        .netlink_send(
            conn,
            NetlinkMessage::DeviceMapUpdate {
                old_path: "/dev/video0".into(),
                new_path: "/dev/video-front".into(),
            },
        )
        .expect("retransmission delivers");
    assert!(
        machine.open_device(app.pid, "/dev/video-front").is_ok(),
        "fresh credit grants once the map converges"
    );
}

#[test]
fn delayed_helper_update_converges_without_a_gap() {
    let mut machine = System::protected();
    let helper = machine.spawn_process(None, UDEV_HELPER_PATH).unwrap();
    let conn = machine.kernel_mut().netlink_connect(helper).unwrap();

    let plan = FaultPlan::new(FaultSpec::quiet(12).with_delay_p(1.0));
    machine.kernel_mut().install_fault_plan(plan);
    machine
        .kernel_mut()
        .udev_rename_device_via_channel(conn, "/dev/video0", "/dev/video-front")
        .expect("a delayed update still arrives");

    // The mapping converged after the in-flight delay: the new path is
    // mediated, and at no point was the device reachable unmediated.
    let spy = machine.spawn_process(None, "/usr/bin/.spy").unwrap();
    assert_eq!(machine.open_device(spy, "/dev/video0"), Err(Errno::Enoent));
    assert_eq!(
        machine.open_device(spy, "/dev/video-front"),
        Err(Errno::Eacces)
    );
}

#[test]
fn unplugged_device_path_stops_existing() {
    let mut machine = System::protected();
    machine
        .kernel_mut()
        .sys_unlink(overhaul_sim::Pid::INIT, "/dev/video0")
        .unwrap();
    let app = machine
        .launch_gui_app("/usr/bin/cheese", Rect::new(0, 0, 100, 100))
        .unwrap();
    machine.settle();
    machine.click_window(app.window);
    assert_eq!(
        machine.open_device(app.pid, "/dev/video0"),
        Err(Errno::Enoent)
    );
}
