//! Application behavior model and the generic session driver.
//!
//! The applicability study (§V-C) ran 58 device/screen applications and 50
//! clipboard applications under Overhaul and watched for broken
//! functionality and spurious alerts. Real applications differ in *when*
//! and *through which process* they touch a protected resource; an
//! [`AppSpec`] captures exactly that — the resource, the triggering
//! pattern, and the expected outcome — and [`run_session`] drives one
//! simulated usage session of the app on a [`System`].

use overhaul_core::{Gui, System};
use overhaul_kernel::error::Errno;
use overhaul_sim::{Pid, SimDuration};
use overhaul_xserver::geometry::Rect;
use overhaul_xserver::protocol::{Atom, Reply, Request, XError};

/// A protected resource an application uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Microphone device.
    Mic,
    /// Camera device.
    Cam,
    /// Screen contents (GetImage on the root window).
    Screen,
    /// Clipboard copy (selection ownership).
    ClipboardCopy,
    /// Clipboard paste (selection conversion).
    ClipboardPaste,
}

impl ResourceKind {
    /// Device node, for hardware resources.
    pub fn device_path(self) -> Option<&'static str> {
        match self {
            ResourceKind::Mic => Some("/dev/snd/mic0"),
            ResourceKind::Cam => Some("/dev/video0"),
            _ => None,
        }
    }
}

/// Which IPC mechanism a multi-process app uses internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpcKind {
    /// Anonymous pipe.
    Pipe,
    /// UNIX domain socket pair.
    Socket,
    /// Shared memory (the Figure 4 browser pattern).
    SharedMemory,
    /// SysV message queue.
    MessageQueue,
}

/// When/how the application performs a resource access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Immediately at program start, before any user interaction
    /// (Skype's autostart camera probe).
    OnLaunch,
    /// Shortly after the user clicks the app (the normal GUI pattern).
    OnClick,
    /// A user-configured delay after the click (delayed screenshot tools);
    /// delays beyond δ are the paper's documented limitation.
    DelayedAfterClick(SimDuration),
    /// The click lands on the main process, which then spawns a worker
    /// that performs the access (the Figure 3 launcher pattern, via P1).
    ViaChildProcess,
    /// The click lands on the main process, which commands a pre-existing
    /// worker over IPC (the Figure 4 browser pattern, via P2).
    ViaIpc(IpcKind),
    /// The user types a command into a terminal; the shell runs a CLI tool
    /// that performs the access (the pseudo-terminal pattern).
    ViaCli,
}

/// Whether Overhaul is expected to allow the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The access follows user intent and must be granted.
    Granted,
    /// The access is not input-driven; Overhaul is expected to block it
    /// (and that block is correct behavior, not a false positive).
    Blocked,
}

impl Expectation {
    /// Whether an observed grant/deny satisfies this expectation. The
    /// campaign engine's richer taxonomy ([`crate::campaign::Expectation`])
    /// mirrors this predicate and adds the expected-bypass case.
    pub fn satisfied_by(self, granted: bool) -> bool {
        match self {
            Expectation::Granted => granted,
            Expectation::Blocked => !granted,
        }
    }
}

/// One scripted resource access of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The resource touched.
    pub resource: ResourceKind,
    /// How the access is triggered.
    pub trigger: Trigger,
    /// The expected decision under Overhaul.
    pub expect: Expectation,
}

/// Application category (for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Video conferencing (Skype, Jitsi, ...).
    VideoConferencing,
    /// Audio/video editors (Audacity, Kwave, ...).
    AvEditor,
    /// Audio/video recorders (Cheese, ZArt, ...).
    AvRecorder,
    /// Screenshot utilities (Shutter, GNOME Screenshot, ...).
    Screenshot,
    /// Screencasting tools (Istanbul, recordMyDesktop, ...).
    Screencast,
    /// Web browsers running media web apps.
    Browser,
    /// Office suites, editors, mail clients, terminals (clipboard corpus).
    Productivity,
}

/// A scripted application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSpec {
    /// Display name ("Skype").
    pub name: String,
    /// Executable path in the simulated filesystem.
    pub exe: String,
    /// Category for reporting.
    pub category: Category,
    /// The accesses one usage session performs.
    pub accesses: Vec<Access>,
}

impl AppSpec {
    /// Creates a spec; the executable path is derived from the name.
    pub fn new(name: &str, category: Category, accesses: Vec<Access>) -> Self {
        let exe = format!(
            "/usr/bin/{}",
            name.to_lowercase().replace([' ', '(', ')'], "-")
        );
        AppSpec {
            name: name.to_string(),
            exe,
            category,
            accesses,
        }
    }
}

/// The observed result of one access during a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessResult {
    /// What was attempted.
    pub access: Access,
    /// Whether it was granted.
    pub granted: bool,
}

/// The result of driving one app session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutcome {
    /// App name.
    pub app: String,
    /// Per-access results, in script order.
    pub results: Vec<AccessResult>,
    /// Alerts shown during the session.
    pub alerts: usize,
}

impl SessionOutcome {
    /// A *false positive*: an access the user initiated (expected granted)
    /// was blocked — this would break the app.
    pub fn false_positives(&self) -> usize {
        self.results
            .iter()
            .filter(|r| {
                r.access.expect == Expectation::Granted && !r.access.expect.satisfied_by(r.granted)
            })
            .count()
    }

    /// A *spurious-but-correct block*: an access not driven by user input
    /// was blocked, as designed (Skype's autostart probe).
    pub fn expected_blocks(&self) -> usize {
        self.results
            .iter()
            .filter(|r| {
                r.access.expect == Expectation::Blocked && r.access.expect.satisfied_by(r.granted)
            })
            .count()
    }

    /// An expected block that was *granted* — a protection failure
    /// (only possible on baseline systems).
    pub fn protection_failures(&self) -> usize {
        self.results
            .iter()
            .filter(|r| {
                r.access.expect == Expectation::Blocked && !r.access.expect.satisfied_by(r.granted)
            })
            .count()
    }

    /// Whether the app worked as its users expect.
    pub fn functional(&self) -> bool {
        self.false_positives() == 0
    }
}

/// Drives one usage session of `spec` on `system`.
///
/// The session launches the app's GUI, waits for the window to become
/// stable, then performs each scripted access with its trigger pattern.
///
/// # Panics
///
/// Panics only on simulator-internal inconsistencies (e.g. the spawn of a
/// fresh process failing), never on access denials.
pub fn run_session(system: &mut System, spec: &AppSpec) -> SessionOutcome {
    let alerts_before = system.alert_history().len();
    let gui = system
        .launch_gui_app(&spec.exe, Rect::new(0, 0, 400, 300))
        .expect("spawn app process");
    let mut results = Vec::new();

    // OnLaunch accesses happen before the window is even stable.
    for access in &spec.accesses {
        if matches!(access.trigger, Trigger::OnLaunch) {
            let granted = attempt_resource(system, gui.pid, gui, access.resource);
            results.push(AccessResult {
                access: *access,
                granted,
            });
        }
    }
    system.settle();

    for access in &spec.accesses {
        let granted = match access.trigger {
            Trigger::OnLaunch => continue, // handled above
            Trigger::OnClick => {
                system.click_window(gui.window);
                system.advance(SimDuration::from_millis(150));
                attempt_resource(system, gui.pid, gui, access.resource)
            }
            Trigger::DelayedAfterClick(delay) => {
                system.click_window(gui.window);
                system.advance(delay);
                attempt_resource(system, gui.pid, gui, access.resource)
            }
            Trigger::ViaChildProcess => {
                system.click_window(gui.window);
                system.advance(SimDuration::from_millis(100));
                let worker = system
                    .kernel_mut()
                    .sys_spawn(gui.pid, &format!("{}-worker", spec.exe))
                    .expect("spawn worker");
                attempt_resource(system, worker, gui, access.resource)
            }
            Trigger::ViaIpc(kind) => run_ipc_access(system, &spec.exe, gui, kind, access.resource),
            Trigger::ViaCli => run_cli_access(system, &spec.exe, access.resource),
        };
        results.push(AccessResult {
            access: *access,
            granted,
        });
        // Space accesses apart so earlier interactions do not mask later
        // trigger patterns.
        system.advance(SimDuration::from_secs(5));
    }

    SessionOutcome {
        app: spec.name.clone(),
        results,
        alerts: system.alert_history().len() - alerts_before,
    }
}

/// Attempts one resource access from `pid` (devices) or through the app's
/// X client (display resources). Returns whether it was granted.
fn attempt_resource(system: &mut System, pid: Pid, gui: Gui, resource: ResourceKind) -> bool {
    match resource {
        ResourceKind::Mic | ResourceKind::Cam => {
            let path = resource.device_path().expect("hardware resource");
            match system.open_device(pid, path) {
                Ok(fd) => {
                    // Exercise the device, then release it.
                    let _ = system.kernel_mut().sys_read(pid, fd, 64);
                    let _ = system.kernel_mut().sys_close(pid, fd);
                    true
                }
                Err(Errno::Eacces) => false,
                Err(other) => panic!("unexpected device error {other}"),
            }
        }
        ResourceKind::Screen => {
            // Display requests must come from the process's own client; a
            // worker gets its own connection.
            let client = match system.xserver().client_of_pid(pid) {
                Some(c) => c,
                None => system.connect_x(pid),
            };
            match system.x_request(client, Request::GetImage { window: None }) {
                Ok(Reply::Image(_)) => true,
                Err(XError::BadAccess) => false,
                other => panic!("unexpected GetImage outcome {other:?}"),
            }
        }
        ResourceKind::ClipboardCopy => {
            let client = match system.xserver().client_of_pid(pid) {
                Some(c) => c,
                None => system.connect_x(pid),
            };
            let window = if client == gui.client {
                gui.window
            } else {
                match system.x_request(
                    client,
                    Request::CreateWindow {
                        rect: Rect::new(0, 0, 10, 10),
                    },
                ) {
                    Ok(Reply::Window(w)) => w,
                    other => panic!("unexpected CreateWindow outcome {other:?}"),
                }
            };
            match system.x_request(
                client,
                Request::SetSelectionOwner {
                    selection: Atom::clipboard(),
                    window,
                },
            ) {
                Ok(_) => true,
                Err(XError::BadAccess) => false,
                Err(other) => panic!("unexpected copy error {other}"),
            }
        }
        ResourceKind::ClipboardPaste => {
            let client = match system.xserver().client_of_pid(pid) {
                Some(c) => c,
                None => system.connect_x(pid),
            };
            let window = if client == gui.client {
                gui.window
            } else {
                match system.x_request(
                    client,
                    Request::CreateWindow {
                        rect: Rect::new(0, 0, 10, 10),
                    },
                ) {
                    Ok(Reply::Window(w)) => w,
                    other => panic!("unexpected CreateWindow outcome {other:?}"),
                }
            };
            match system.x_request(
                client,
                Request::ConvertSelection {
                    selection: Atom::clipboard(),
                    requestor: window,
                    property: Atom::new("XSEL_DATA"),
                },
            ) {
                Ok(_) => true,
                Err(XError::BadAccess) => false,
                Err(other) => panic!("unexpected paste error {other}"),
            }
        }
    }
}

/// The Figure 4 pattern: the main process sets up the IPC channel and
/// *then* forks its worker (so descriptors are inherited, as real
/// multi-process apps do). The fork happens long before any interaction,
/// leaving P1 nothing useful to copy; only the post-click IPC message (P2)
/// can carry the interaction to the worker.
fn run_ipc_access(
    system: &mut System,
    exe: &str,
    gui: Gui,
    kind: IpcKind,
    resource: ResourceKind,
) -> bool {
    let command = b"start-media".to_vec();
    let kernel = system.kernel_mut();

    // Channel setup + worker fork, all pre-interaction.
    enum Channel {
        Pipe {
            r: overhaul_sim::Fd,
            w: overhaul_sim::Fd,
        },
        Socket {
            a: overhaul_sim::Fd,
            b: overhaul_sim::Fd,
        },
        Shm {
            main_vma: overhaul_kernel::mm::VmaId,
            worker_vma: overhaul_kernel::mm::VmaId,
        },
        Queue {
            q: overhaul_kernel::ipc::msgqueue::MsgqId,
        },
    }
    let (worker, channel) = match kind {
        IpcKind::Pipe => {
            let (r, w) = kernel.sys_pipe(gui.pid).expect("pipe");
            let worker = kernel.sys_fork(gui.pid).expect("fork worker");
            kernel
                .sys_execve(worker, &format!("{exe}-tab"))
                .expect("exec worker");
            (worker, Channel::Pipe { r, w })
        }
        IpcKind::Socket => {
            let (a, b) = kernel.sys_socketpair(gui.pid).expect("socketpair");
            let worker = kernel.sys_fork(gui.pid).expect("fork worker");
            kernel
                .sys_execve(worker, &format!("{exe}-tab"))
                .expect("exec worker");
            (worker, Channel::Socket { a, b })
        }
        IpcKind::SharedMemory => {
            let shm = kernel
                .sys_shmget(gui.pid, exe.len() as i32 + 7, 1)
                .expect("shmget");
            let main_vma = kernel.sys_shmat(gui.pid, shm).expect("shmat main");
            let worker = kernel.sys_fork(gui.pid).expect("fork worker");
            kernel
                .sys_execve(worker, &format!("{exe}-tab"))
                .expect("exec worker");
            let worker_vma = kernel.sys_shmat(worker, shm).expect("shmat worker");
            (
                worker,
                Channel::Shm {
                    main_vma,
                    worker_vma,
                },
            )
        }
        IpcKind::MessageQueue => {
            let q = kernel
                .sys_msgget(gui.pid, exe.len() as i32 + 11)
                .expect("msgget");
            let worker = kernel.sys_fork(gui.pid).expect("fork worker");
            kernel
                .sys_execve(worker, &format!("{exe}-tab"))
                .expect("exec worker");
            (worker, Channel::Queue { q })
        }
    };

    // Let anything the fork copied expire, then interact and command the
    // worker.
    system.advance(SimDuration::from_secs(10));
    system.click_window(gui.window);
    system.advance(SimDuration::from_millis(50));
    let kernel = system.kernel_mut();
    match channel {
        Channel::Pipe { r, w } => {
            kernel.sys_write(gui.pid, w, &command).expect("pipe write");
            let _ = kernel.sys_read(worker, r, 64);
        }
        Channel::Socket { a, b } => {
            kernel.sys_write(gui.pid, a, &command).expect("socket send");
            let _ = kernel.sys_read(worker, b, 64);
        }
        Channel::Shm {
            main_vma,
            worker_vma,
        } => {
            kernel
                .sys_shm_write(gui.pid, main_vma, 0, &command)
                .expect("shm write");
            let _ = kernel.sys_shm_read(worker, worker_vma, 0, command.len());
        }
        Channel::Queue { q } => {
            kernel.sys_msgsnd(gui.pid, q, 1, &command).expect("msgsnd");
            let _ = kernel.sys_msgrcv(worker, q, 1);
        }
    }
    attempt_resource(system, worker, gui, resource)
}

/// The CLI pattern: the user types into a terminal emulator; the shell —
/// which only ever sees the command through the pseudo-terminal — spawns
/// the tool.
fn run_cli_access(system: &mut System, exe: &str, resource: ResourceKind) -> bool {
    let xterm = system
        .launch_gui_app("/usr/bin/xterm", Rect::new(500, 0, 300, 200))
        .expect("launch terminal");
    let (master, slave) = system.kernel_mut().sys_openpty(xterm.pid).expect("openpty");
    let shell = system.kernel_mut().sys_fork(xterm.pid).expect("fork shell");
    system
        .kernel_mut()
        .sys_execve(shell, "/bin/bash")
        .expect("exec bash");
    // The shell has been idle long before the user types.
    system.advance(SimDuration::from_secs(10));
    system.settle();

    // The user clicks the terminal and types the command.
    system.click_window(xterm.window);
    system
        .kernel_mut()
        .sys_write(xterm.pid, master, format!("{exe}\n").as_bytes())
        .expect("terminal write");
    let _ = system.kernel_mut().sys_read(shell, slave, 128);
    let tool = system
        .kernel_mut()
        .sys_spawn(shell, exe)
        .expect("spawn CLI tool");
    system.advance(SimDuration::from_millis(50));
    attempt_resource(system, tool, xterm, resource)
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_core::System;

    fn spec_with(name: &str, accesses: Vec<Access>) -> AppSpec {
        AppSpec::new(name, Category::AvRecorder, accesses)
    }

    fn granted(resource: ResourceKind, trigger: Trigger) -> Access {
        Access {
            resource,
            trigger,
            expect: Expectation::Granted,
        }
    }

    #[test]
    fn on_click_access_is_granted_and_functional() {
        let mut system = System::protected();
        let spec = spec_with("rec", vec![granted(ResourceKind::Mic, Trigger::OnClick)]);
        let outcome = run_session(&mut system, &spec);
        assert!(outcome.functional(), "{outcome:?}");
        assert_eq!(outcome.false_positives(), 0);
        assert!(outcome.alerts >= 1, "device grants alert the user");
    }

    #[test]
    fn on_launch_access_is_blocked_as_expected() {
        let mut system = System::protected();
        let spec = spec_with(
            "autostart",
            vec![Access {
                resource: ResourceKind::Cam,
                trigger: Trigger::OnLaunch,
                expect: Expectation::Blocked,
            }],
        );
        let outcome = run_session(&mut system, &spec);
        assert!(outcome.functional());
        assert_eq!(outcome.expected_blocks(), 1);
        assert_eq!(outcome.protection_failures(), 0);
    }

    #[test]
    fn delayed_screenshot_beyond_delta_is_blocked() {
        let mut system = System::protected();
        let spec = spec_with(
            "delayed-shot",
            vec![Access {
                resource: ResourceKind::Screen,
                trigger: Trigger::DelayedAfterClick(SimDuration::from_secs(5)),
                expect: Expectation::Blocked,
            }],
        );
        let outcome = run_session(&mut system, &spec);
        assert_eq!(outcome.expected_blocks(), 1);
    }

    #[test]
    fn delayed_access_within_delta_is_granted() {
        let mut system = System::protected();
        let spec = spec_with(
            "slow-but-ok",
            vec![granted(
                ResourceKind::Screen,
                Trigger::DelayedAfterClick(SimDuration::from_millis(1500)),
            )],
        );
        let outcome = run_session(&mut system, &spec);
        assert!(outcome.functional(), "{outcome:?}");
    }

    #[test]
    fn child_process_pattern_works_via_p1() {
        let mut system = System::protected();
        let spec = spec_with(
            "launcher-tool",
            vec![granted(ResourceKind::Screen, Trigger::ViaChildProcess)],
        );
        let outcome = run_session(&mut system, &spec);
        assert!(outcome.functional(), "{outcome:?}");
    }

    #[test]
    fn every_ipc_kind_propagates_via_p2() {
        for kind in [
            IpcKind::Pipe,
            IpcKind::Socket,
            IpcKind::SharedMemory,
            IpcKind::MessageQueue,
        ] {
            let mut system = System::protected();
            let spec = spec_with(
                "browser",
                vec![granted(ResourceKind::Cam, Trigger::ViaIpc(kind))],
            );
            let outcome = run_session(&mut system, &spec);
            assert!(outcome.functional(), "{kind:?}: {outcome:?}");
        }
    }

    #[test]
    fn cli_pattern_works_via_pty_propagation() {
        let mut system = System::protected();
        let spec = spec_with(
            "scrot",
            vec![granted(ResourceKind::Screen, Trigger::ViaCli)],
        );
        let outcome = run_session(&mut system, &spec);
        assert!(outcome.functional(), "{outcome:?}");
    }

    #[test]
    fn clipboard_copy_paste_on_click_is_granted() {
        let mut system = System::protected();
        let spec = spec_with(
            "editor",
            vec![
                granted(ResourceKind::ClipboardCopy, Trigger::OnClick),
                granted(ResourceKind::ClipboardPaste, Trigger::OnClick),
            ],
        );
        let outcome = run_session(&mut system, &spec);
        assert!(outcome.functional(), "{outcome:?}");
    }

    #[test]
    fn baseline_session_shows_protection_failures_for_launch_probes() {
        let mut system = System::baseline();
        let spec = spec_with(
            "autostart",
            vec![Access {
                resource: ResourceKind::Cam,
                trigger: Trigger::OnLaunch,
                expect: Expectation::Blocked,
            }],
        );
        let outcome = run_session(&mut system, &spec);
        assert_eq!(
            outcome.protection_failures(),
            1,
            "baseline grants the probe"
        );
    }

    #[test]
    fn exe_paths_are_sanitized() {
        let spec = AppSpec::new("GNOME Screenshot (delayed)", Category::Screenshot, vec![]);
        assert!(!spec.exe.contains(' '));
        assert!(!spec.exe.contains('('));
    }
}
