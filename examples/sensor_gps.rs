//! Arbitrary sensors (§III-C): Overhaul's device mediation is not limited
//! to cameras and microphones — any sensor node gets the same
//! input-driven protection. This example attaches a GPS receiver at
//! runtime (hot-plug through the udev path) and shows a location tracker
//! being blocked while a maps app the user actually clicked works.
//!
//! ```text
//! cargo run -p overhaul-apps --example sensor_gps
//! ```

use overhaul_core::System;
use overhaul_kernel::device::DeviceClass;
use overhaul_sim::SimDuration;
use overhaul_xserver::geometry::Rect;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut machine = System::protected();

    // A USB GPS receiver is plugged in at runtime; udev creates the node
    // and the trusted helper registers it with the kernel map.
    machine
        .kernel_mut()
        .attach_device(DeviceClass::Sensor, "usb gps", "/dev/gps0")
        .expect("attach");
    println!("hot-plugged /dev/gps0 (sensor class) — mediated from the first instant");

    // A stealthy location tracker polls the GPS in the background.
    let tracker = machine.spawn_process(None, "/usr/bin/.tracker")?;
    for attempt in 1..=3 {
        machine.advance(SimDuration::from_secs(60));
        match machine.open_device(tracker, "/dev/gps0") {
            Err(e) => println!("tracker poll #{attempt}: {e}"),
            Ok(_) => unreachable!("background polls must be blocked"),
        }
    }

    // The user opens a maps app and clicks "locate me".
    let maps = machine.launch_gui_app("/usr/bin/maps", Rect::new(0, 0, 800, 600))?;
    machine.settle();
    machine.click_window(maps.window);
    machine.advance(SimDuration::from_millis(150));
    let fd = machine.open_device(maps.pid, "/dev/gps0")?;
    let reading = machine.kernel_mut().sys_read(maps.pid, fd, 64)?;
    println!(
        "\nmaps clicked 'locate me' -> {}",
        String::from_utf8_lossy(&reading)
    );

    // The udev rename path: the receiver re-enumerates as /dev/gps1.
    machine
        .kernel_mut()
        .udev_rename_device("/dev/gps0", "/dev/gps1")?;
    println!("\nudev re-enumerated the receiver as /dev/gps1 (helper synced)");
    machine.advance(SimDuration::from_secs(5));
    match machine.open_device(tracker, "/dev/gps1") {
        Err(e) => println!("tracker poll at the new path: {e}"),
        Ok(_) => unreachable!("protection follows the rename"),
    }

    println!("\nalerts shown:");
    for alert in machine.alert_history() {
        println!("  {}", alert.render());
    }
    Ok(())
}
