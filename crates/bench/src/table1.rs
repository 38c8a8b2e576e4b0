//! Table I: performance overhead micro-benchmarks.
//!
//! The paper stresses each mediated operation under an artificial workload
//! and compares a stock stack against Overhaul with the permission monitor
//! "temporarily modified ... to grant access to resources even when there
//! is no user interaction, in order to exercise the entire execution path".
//!
//! | Benchmark      | Paper workload                          | Paper overhead |
//! |----------------|------------------------------------------|----------------|
//! | Device Access  | open the mic node 10 M times             | 2.17 %         |
//! | Clipboard      | 100 k paste operations                   | 2.96 %         |
//! | Screen Capture | 1 000 root-window captures               | 2.34 %         |
//! | Shared Memory  | 10 B writes, 1–10 000 pages              | 0.63 %         |
//! | Bonnie++       | create/stat/delete 102 400 files         | 0.11 %         |
//!
//! This module defines each row's operation once: a `*_setup` building a
//! baseline or a protected machine, and a `*_iter` running one operation
//! on it. The repository benchmark's `table1` workload (`benchmark/`)
//! times them, interleaving the two sides, and reports each row's
//! overhead; the *relative* overhead is the reproduction target, since the
//! simulator is not the authors' testbed. Alert rendering is excluded from
//! the measured path — on the real system the display manager renders
//! asynchronously — by disabling device alerts in the measurement
//! configuration.
//!
//! The machines charge the modelled real-world cost of driver opens, X
//! and netlink round trips, alert rendering, framebuffer copies and file
//! creation ([`overhaul_sim::work`]) instead of waiting it out. Each
//! `*_iter` below spins what its operation charged, so every row times
//! the paper's baseline per-operation cost plus the simulator's own work.

use std::time::Duration;

use overhaul_core::{OverhaulConfig, System};
use overhaul_kernel::syscall::OpenMode;
use overhaul_sim::{Pid, SimDuration};
use overhaul_xserver::geometry::Rect;
use overhaul_xserver::protocol::{Atom, ClientId, Reply, Request, XEvent};
use overhaul_xserver::window::WindowId;

use crate::spin;

/// Clear audit logs every this many operations so unbounded log growth
/// does not distort long measurement loops.
const AUDIT_CLEAR_INTERVAL: u64 = 8192;

fn measurement_config(protected: bool) -> OverhaulConfig {
    let mut config = if protected {
        OverhaulConfig::grant_all()
    } else {
        OverhaulConfig::baseline()
    };
    // Device-grant alerts are rendered asynchronously on the real system
    // and are excluded from the open(2) path the paper times.
    config.kernel.device_alerts = false;
    config
}

/// Wall time for the cost `system` charged since its total read `before`.
fn charged_since(system: &System, before: u64) -> Duration {
    Duration::from_nanos(system.modelled_cost().total_ns() - before)
}

// ------------------------------------------------------------------
// Device access
// ------------------------------------------------------------------

/// State for the device-access benchmark.
#[derive(Debug)]
pub struct DeviceBench {
    /// The machine under test.
    pub system: System,
    pid: Pid,
    ops: u64,
}

/// Prepares the device-access benchmark.
pub fn device_setup(protected: bool) -> DeviceBench {
    let mut system = System::new(measurement_config(protected));
    let pid = system.spawn_process(None, "/usr/bin/bench").expect("spawn");
    DeviceBench {
        system,
        pid,
        ops: 0,
    }
}

/// One iteration: open the microphone node and close it again.
pub fn device_iter(bench: &mut DeviceBench) {
    let before = bench.system.modelled_cost().total_ns();
    let kernel = bench.system.kernel_mut();
    let fd = kernel
        .sys_open(bench.pid, "/dev/snd/mic0", OpenMode::ReadOnly)
        .expect("grant-all open");
    kernel.sys_close(bench.pid, fd).expect("close");
    bench.ops += 1;
    if bench.ops.is_multiple_of(AUDIT_CLEAR_INTERVAL) {
        kernel.clear_history();
    }
    spin(charged_since(&bench.system, before));
}

// ------------------------------------------------------------------
// Clipboard (paste, the worst case)
// ------------------------------------------------------------------

/// State for the clipboard benchmark.
#[derive(Debug)]
pub struct ClipboardBench {
    /// The machine under test.
    pub system: System,
    source: ClientId,
    target: ClientId,
    target_window: WindowId,
    ops: u64,
}

/// Prepares the clipboard benchmark: a source client already owning the
/// CLIPBOARD selection and a target client that will paste repeatedly.
pub fn clipboard_setup(protected: bool) -> ClipboardBench {
    let mut system = System::new(measurement_config(protected));
    let source = system
        .launch_gui_app("/usr/bin/source", Rect::new(0, 0, 50, 50))
        .expect("launch source");
    let target = system
        .launch_gui_app("/usr/bin/target", Rect::new(60, 0, 50, 50))
        .expect("launch target");
    system.settle();
    system.click_window(source.window);
    system
        .x_request(
            source.client,
            Request::SetSelectionOwner {
                selection: Atom::clipboard(),
                window: source.window,
            },
        )
        .expect("copy");
    // Drain setup-time events (the click) so iterations see only the
    // selection protocol.
    let _ = system.xserver_mut().drain_events(source.client);
    let _ = system.xserver_mut().drain_events(target.client);
    ClipboardBench {
        system,
        source: source.client,
        target: target.client,
        target_window: target.window,
        ops: 0,
    }
}

/// One iteration: a full ICCCM paste (steps 6–13 of Figure 6).
pub fn clipboard_iter(bench: &mut ClipboardBench) {
    let before = bench.system.modelled_cost().total_ns();
    // Grant-all mode answers the paste query positively even without
    // clicks, exercising the whole path.
    let property = Atom::new("XSEL_DATA");
    bench
        .system
        .x_request(
            bench.target,
            Request::ConvertSelection {
                selection: Atom::clipboard(),
                requestor: bench.target_window,
                property: property.clone(),
            },
        )
        .expect("paste allowed");
    // Source answers the relayed request.
    let event = bench
        .system
        .xserver_mut()
        .next_event(bench.source)
        .expect("source alive")
        .expect("selection request relayed");
    if let XEvent::SelectionRequest {
        selection,
        requestor,
        property,
    } = event
    {
        bench
            .system
            .x_request(
                bench.source,
                Request::ChangeProperty {
                    window: requestor,
                    property: property.clone(),
                    data: b"payload".to_vec(),
                },
            )
            .expect("store data");
        bench
            .system
            .x_request(
                bench.source,
                Request::SendEvent {
                    target: requestor,
                    event: Box::new(XEvent::SelectionNotify {
                        selection,
                        property,
                    }),
                },
            )
            .expect("notify");
    }
    let _ = bench.system.xserver_mut().next_event(bench.target);
    match bench
        .system
        .x_request(
            bench.target,
            Request::GetProperty {
                window: bench.target_window,
                property,
                delete: true,
            },
        )
        .expect("retrieve")
    {
        Reply::Property(Some(_)) => {}
        other => panic!("paste lost its data: {other:?}"),
    }
    bench.ops += 1;
    if bench.ops.is_multiple_of(AUDIT_CLEAR_INTERVAL) {
        bench.system.kernel_mut().clear_history();
        bench.system.xserver_mut().clear_history();
    }
    spin(charged_since(&bench.system, before));
}

// ------------------------------------------------------------------
// Screen capture
// ------------------------------------------------------------------

/// State for the screen-capture benchmark.
#[derive(Debug)]
pub struct ScreenBench {
    /// The machine under test.
    pub system: System,
    client: ClientId,
}

/// Prepares the screen-capture benchmark (one client, one mapped window).
pub fn screen_setup(protected: bool) -> ScreenBench {
    let mut system = System::new(measurement_config(protected));
    let gui = system
        .launch_gui_app("/usr/bin/imlib2-grab", Rect::new(0, 0, 100, 100))
        .expect("launch");
    system.settle();
    ScreenBench {
        system,
        client: gui.client,
    }
}

/// One iteration: capture the root window (`GetImage`).
pub fn screen_iter(bench: &mut ScreenBench) {
    let before = bench.system.modelled_cost().total_ns();
    match bench
        .system
        .x_request(bench.client, Request::GetImage { window: None })
        .expect("grant-all capture")
    {
        Reply::Image(pixels) => assert!(!pixels.is_empty()),
        other => panic!("unexpected reply {other:?}"),
    }
    spin(charged_since(&bench.system, before));
}

// ------------------------------------------------------------------
// Shared memory
// ------------------------------------------------------------------

/// State for the shared-memory benchmark.
#[derive(Debug)]
pub struct ShmBench {
    /// The machine under test.
    pub system: System,
    pid: Pid,
    vma: overhaul_kernel::mm::VmaId,
    segment_bytes: usize,
    cursor: usize,
    ops: u64,
}

/// Prepares the shared-memory benchmark with a segment of `pages` pages.
pub fn shm_setup(protected: bool, pages: usize) -> ShmBench {
    let mut system = System::new(measurement_config(protected));
    let pid = system
        .spawn_process(None, "/usr/bin/shm-bench")
        .expect("spawn");
    let shm = system
        .kernel_mut()
        .sys_shmget(pid, 0x5eed, pages)
        .expect("shmget");
    let vma = system.kernel_mut().sys_shmat(pid, shm).expect("shmat");
    ShmBench {
        system,
        pid,
        vma,
        segment_bytes: pages * overhaul_kernel::ipc::shm::PAGE_SIZE,
        cursor: 0,
        ops: 0,
    }
}

/// One iteration: an 8-byte write at a rotating offset. Every 4 096 writes
/// virtual time advances past the wait window so the fault machinery
/// re-arms, as it would under a real clock.
pub fn shm_iter(bench: &mut ShmBench) {
    let before = bench.system.modelled_cost().total_ns();
    let offset = bench.cursor % (bench.segment_bytes - 8);
    bench.cursor = bench.cursor.wrapping_add(4097);
    bench
        .system
        .kernel_mut()
        .sys_shm_write(bench.pid, bench.vma, offset, b"01234567")
        .expect("write");
    bench.ops += 1;
    if bench.ops.is_multiple_of(4096) {
        bench.system.advance(SimDuration::from_millis(600));
    }
    spin(charged_since(&bench.system, before));
}

// ------------------------------------------------------------------
// Filesystem (Bonnie++-style)
// ------------------------------------------------------------------

/// State for the filesystem benchmark.
#[derive(Debug)]
pub struct FsBench {
    /// The machine under test.
    pub system: System,
    pid: Pid,
    counter: u64,
}

/// Prepares the filesystem benchmark.
pub fn fs_setup(protected: bool) -> FsBench {
    let mut system = System::new(measurement_config(protected));
    let pid = system
        .spawn_process(None, "/usr/bin/bonnie")
        .expect("spawn");
    system
        .kernel_mut()
        .sys_mkdir(pid, "/tmp/bonnie", 0o755)
        .expect("mkdir");
    FsBench {
        system,
        pid,
        counter: 0,
    }
}

/// One iteration: create, stat, and delete one empty file.
pub fn fs_iter(bench: &mut FsBench) {
    let before = bench.system.modelled_cost().total_ns();
    let path = format!("/tmp/bonnie/f{}", bench.counter);
    bench.counter += 1;
    let kernel = bench.system.kernel_mut();
    let fd = kernel.sys_creat(bench.pid, &path, 0o644).expect("creat");
    kernel.sys_close(bench.pid, fd).expect("close");
    kernel.sys_stat(bench.pid, &path).expect("stat");
    kernel.sys_unlink(bench.pid, &path).expect("unlink");
    spin(charged_since(&bench.system, before));
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;

    #[test]
    fn device_iterations_grant_in_grant_all_mode() {
        let mut bench = device_setup(true);
        for _ in 0..100 {
            device_iter(&mut bench);
        }
        assert!(bench.system.kernel().monitor_stats().grants >= 100);
    }

    #[test]
    fn baseline_device_iterations_skip_the_monitor() {
        let mut bench = device_setup(false);
        for _ in 0..100 {
            device_iter(&mut bench);
        }
        assert_eq!(bench.system.kernel().monitor_stats().grants, 0);
    }

    #[test]
    fn clipboard_iterations_round_trip_data() {
        let mut bench = clipboard_setup(true);
        for _ in 0..20 {
            clipboard_iter(&mut bench);
        }
    }

    #[test]
    fn shm_bench_faults_only_under_overhaul() {
        let mut protected = shm_setup(true, 4);
        let mut baseline = shm_setup(false, 4);
        for _ in 0..10_000 {
            shm_iter(&mut protected);
            shm_iter(&mut baseline);
        }
        assert!(protected.system.kernel().mm_stats().faults > 0);
        assert_eq!(baseline.system.kernel().mm_stats().faults, 0);
    }

    /// Modelled nanoseconds one iteration charges: the Table I
    /// denominator its spin waits out.
    fn charge<B>(mut bench: B, system: fn(&B) -> &System, iter: fn(&mut B)) -> u64 {
        let before = system(&bench).modelled_cost().total_ns();
        iter(&mut bench);
        system(&bench).modelled_cost().total_ns() - before
    }

    #[test]
    fn iterations_charge_the_modelled_per_operation_costs() {
        // (row, baseline ns, protected ns)
        let rows = [
            // Four X request round trips; protected adds the paste query.
            ("paste", 920_000, 950_000),
            ("device open", 4_500, 4_500),
            ("file cycle", 20_000, 20_000),
            ("shm store", 0, 0),
            // One request round trip plus 1920x1080 pixels at 33 ns;
            // protected adds the netlink query and the capture alert.
            ("root capture", 68_658_800, 70_188_800),
        ];
        for protected in [false, true] {
            let charged = [
                charge(clipboard_setup(protected), |b| &b.system, clipboard_iter),
                charge(device_setup(protected), |b| &b.system, device_iter),
                charge(fs_setup(protected), |b| &b.system, fs_iter),
                charge(shm_setup(protected, 4), |b| &b.system, shm_iter),
                charge(screen_setup(protected), |b| &b.system, screen_iter),
            ];
            for ((row, base, prot), ns) in rows.into_iter().zip(charged) {
                let want = if protected { prot } else { base };
                assert_eq!(ns, want, "{row} charge (protected: {protected})");
            }
        }
    }

    #[test]
    fn protected_paste_spins_its_modelled_cost() {
        let mut bench = clipboard_setup(true);
        let start = Instant::now();
        clipboard_iter(&mut bench);
        // A lower bound only: a slow host can never fail it.
        assert!(start.elapsed() >= Duration::from_micros(950));
    }
}
