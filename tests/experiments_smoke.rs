//! End-to-end tests over every experiment harness. The paper's evaluation
//! is pinned number by number against its committed artifact, and so is
//! EXPERIMENTS.md's quotation of it; the other harnesses run at reduced
//! scale, with their headline directions and replay goldens asserted.

use std::collections::{BTreeMap, BTreeSet};

use overhaul_apps::campaign::{outcome_granted, CampaignDriver, CampaignKind};
use overhaul_apps::workload::{run_empirical_experiment, WorkloadConfig};
use overhaul_bench::ablation::{sweep_delta, sweep_propagation, sweep_shm_wait, sweep_visibility};
use overhaul_bench::paper;
use overhaul_bench::table1::{self, Scale};
use overhaul_core::{
    replay, replay_from, timeline, Event, EventLog, OverhaulConfig, Recorder, System,
};
use overhaul_kernel::device::DeviceClass;
use overhaul_sim::snapshot::hash64;
use overhaul_sim::SimDuration;
use overhaul_xserver::geometry::Rect;
use overhaul_xserver::protocol::{Atom, Reply, Request, XEvent};

fn small_screen(mut config: OverhaulConfig) -> OverhaulConfig {
    config.x.screen = Rect::new(0, 0, 160, 100);
    config
}

#[test]
fn table1_smoke_all_rows_measurable() {
    let rows = table1::run_all(Scale {
        device_opens: 500,
        pastes: 30,
        captures: 3,
        shm_writes: 5_000,
        files: 200,
    });
    assert_eq!(rows.len(), 5);
    for row in &rows {
        assert!(row.baseline.as_nanos() > 0);
        // At tiny scales jitter dominates; the assertion is only that the
        // measurement machinery produces finite overheads.
        assert!(row.overhead_pct().is_finite(), "{}", row.name);
    }
}

/// The committed paper artifact, which EXPERIMENTS.md quotes.
const PAPER_BASELINE: &str = include_str!("../crates/bench/baselines/BENCH_paper.json");

/// Runs the whole paper evaluation and compares it, key by key, with the
/// committed baseline. Every harness is seeded, so any difference is a
/// change in what the code computes: a change that moves a paper number on
/// purpose regenerates the baseline with the `paper` bin, updates
/// EXPERIMENTS.md, and says why in CHANGES.md.
#[test]
fn paper_evaluation_matches_its_committed_baseline() {
    let fresh = paper::evaluate().to_json();
    let now: BTreeMap<&str, &str> = paper::fields(&fresh).into_iter().collect();
    let pinned: BTreeMap<&str, &str> = paper::fields(PAPER_BASELINE).into_iter().collect();
    let keys: BTreeSet<&str> = pinned.keys().chain(now.keys()).copied().collect();
    let moved: Vec<String> = keys
        .into_iter()
        .filter(|key| pinned.get(key) != now.get(key))
        .map(|key| {
            let show = |value: Option<&&str>| value.map_or("absent".to_string(), |v| v.to_string());
            format!(
                "  {key}: baseline {}, now {}",
                show(pinned.get(key)),
                show(now.get(key))
            )
        })
        .collect();
    assert!(
        moved.is_empty(),
        "paper numbers moved against crates/bench/baselines/BENCH_paper.json:\n{}",
        moved.join("\n")
    );
}

/// The first number in a table cell: `46/46` reads 46, `82.5 %` reads
/// 82.5, and `**yes** (1)` reads 1.
fn first_number(cell: &str) -> Option<f64> {
    let start = cell.find(|c: char| c.is_ascii_digit())?;
    let digits = &cell[start..];
    let end = digits
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// Every EXPERIMENTS.md table row that names a `BENCH_paper.json` key in
/// backticks shows, in its value cells (all but the first and the cells
/// naming keys), exactly the baseline's numbers for the keys it names, in
/// order: the paper's value first where the baseline has one. Every
/// measured key is named by some row.
#[test]
fn experiments_md_quotes_the_paper_baseline() {
    let pinned: BTreeMap<&str, f64> = paper::fields(PAPER_BASELINE)
        .into_iter()
        .filter_map(|(key, value)| Some((key, value.parse().ok()?)))
        .collect();
    let mut named = BTreeSet::new();
    let mut wrong = Vec::new();
    for row in include_str!("../EXPERIMENTS.md")
        .lines()
        .filter(|line| line.starts_with('|'))
    {
        let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
        let keys: Vec<&str> = cells
            .iter()
            .flat_map(|cell| cell.split('`').skip(1).step_by(2))
            .filter(|key| pinned.contains_key(key))
            .collect();
        if keys.is_empty() {
            continue;
        }
        let shown: Vec<f64> = cells[1..]
            .iter()
            .filter(|cell| !cell.contains('`'))
            .filter_map(|cell| first_number(cell))
            .collect();
        let expected: Vec<f64> = keys
            .iter()
            .flat_map(|key| {
                named.insert(*key);
                let paper = pinned.get(format!("{key}_paper").as_str()).copied();
                paper.into_iter().chain([pinned[key]])
            })
            .collect();
        if shown != expected {
            wrong.push(format!(
                "  {row}\n    shows {shown:?}, baseline {expected:?}"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "EXPERIMENTS.md rows disagree with BENCH_paper.json:\n{}",
        wrong.join("\n")
    );
    let unnamed: Vec<&str> = pinned
        .keys()
        .filter(|key| !key.ends_with("_paper") && !named.contains(*key))
        .copied()
        .collect();
    assert!(
        unnamed.is_empty(),
        "BENCH_paper.json keys no EXPERIMENTS.md row names: {unnamed:?}"
    );
}

#[test]
fn empirical_smoke_protected_vs_baseline() {
    let config = WorkloadConfig {
        days: 1,
        actions_per_day: 30,
        spy_interval: SimDuration::from_secs(1200),
        seed: 99,
    };
    let mut protected = System::new(small_screen(OverhaulConfig::protected()));
    let p = run_empirical_experiment(&mut protected, config);
    assert_eq!(p.items_stolen, 0);
    assert_eq!(p.legit_denied, 0);

    let mut baseline = System::new(small_screen(OverhaulConfig::baseline()));
    let b = run_empirical_experiment(&mut baseline, config);
    assert!(b.items_stolen > 0, "{b:?}");
}

// ------------------------------------------------------------------
// Record/replay goldens: each example program's workload, scripted
// through the Recorder, must replay to a byte-identical state hash —
// including from the serialized event log.
// ------------------------------------------------------------------

/// Replays a sealed recording twice — from the in-memory log and from its
/// serialized bytes — and asserts both land on the recorded hash.
fn assert_replay_golden(recorded: &System, log: &EventLog) {
    let recorded_hash = recorded.state_hash();
    assert_eq!(log.final_state_hash, Some(recorded_hash));
    let replayed = replay(log).expect("replay boots");
    assert_eq!(replayed.state_hash(), recorded_hash, "replay diverged");
    assert_eq!(replayed.kernel().snapshot_stats().replay_divergence, 0);

    let decoded = EventLog::from_bytes(&log.to_bytes()).expect("log round-trip");
    let replayed = replay(&decoded).expect("replay boots");
    assert_eq!(
        replayed.state_hash(),
        recorded_hash,
        "replay from serialized log diverged"
    );
}

fn launch(rec: &mut Recorder, exe: &str, rect: Rect) -> overhaul_core::Gui {
    rec.apply(Event::LaunchGuiApp {
        exe: exe.into(),
        rect,
    })
    .gui()
    .expect("launch")
}

fn open(
    rec: &mut Recorder,
    pid: overhaul_sim::Pid,
    path: &str,
) -> overhaul_core::replay::ApplyOutcome {
    rec.apply(Event::OpenDevice {
        pid,
        path: path.into(),
    })
}

#[test]
fn replay_golden_quickstart() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let app = launch(&mut rec, "/usr/bin/recorder", Rect::new(0, 0, 640, 480));
    rec.apply(Event::Settle);
    assert!(open(&mut rec, app.pid, "/dev/snd/mic0").fd().is_err());
    rec.apply(Event::ClickWindow { window: app.window });
    rec.apply(Event::Advance(SimDuration::from_millis(300)));
    let fd = open(&mut rec, app.pid, "/dev/snd/mic0").fd().expect("open");
    rec.apply(Event::SysRead {
        pid: app.pid,
        fd,
        max: 64,
    });
    rec.apply(Event::Advance(SimDuration::from_secs(3)));
    assert!(open(&mut rec, app.pid, "/dev/snd/mic0").fd().is_err());
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

#[test]
fn replay_golden_audit_timeline() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let app = launch(&mut rec, "/usr/bin/recorder", Rect::new(0, 0, 300, 200));
    rec.apply(Event::Settle);
    rec.apply(Event::ClickWindow { window: app.window });
    rec.apply(Event::Advance(SimDuration::from_millis(120)));
    let fd = open(&mut rec, app.pid, "/dev/snd/mic0").fd().expect("open");
    rec.apply(Event::SysClose { pid: app.pid, fd });
    rec.apply(Event::XRequest {
        client: app.client,
        request: Request::SetSelectionOwner {
            selection: Atom::clipboard(),
            window: app.window,
        },
    });
    rec.apply(Event::Advance(SimDuration::from_secs(30)));
    let spy = rec
        .apply(Event::SpawnProcess {
            parent: None,
            exe: "/usr/bin/.spy".into(),
        })
        .pid()
        .expect("spawn");
    assert!(open(&mut rec, spy, "/dev/video0").fd().is_err());
    let spy_client = rec.apply(Event::ConnectX { pid: spy }).client();
    rec.apply(Event::XRequest {
        client: spy_client,
        request: Request::GetImage { window: None },
    });
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

/// Pins the `audit_timeline` example's output as constants, so a change
/// that alters the merged timeline, the state hash, the ledger head or the
/// metrics page fails here instead of only when two runs of one build are
/// compared. A change that moves these on purpose updates them and says
/// why in CHANGES.md.
#[test]
fn audit_timeline_example_output_is_pinned() {
    let mut machine = System::protected();
    let recorder = machine
        .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 300, 200))
        .expect("launch");
    machine.settle();
    machine.click_window(recorder.window);
    machine.advance(SimDuration::from_millis(120));
    let fd = machine
        .open_device(recorder.pid, "/dev/snd/mic0")
        .expect("open");
    machine
        .kernel_mut()
        .sys_close(recorder.pid, fd)
        .expect("close");
    machine
        .x_request(
            recorder.client,
            Request::SetSelectionOwner {
                selection: Atom::clipboard(),
                window: recorder.window,
            },
        )
        .ok();
    machine.advance(SimDuration::from_secs(30));
    let spy = machine.spawn_process(None, "/usr/bin/.spy").expect("spawn");
    let _ = machine.open_device(spy, "/dev/video0");
    let spy_client = machine.connect_x(spy);
    let _ = machine.x_request(spy_client, Request::GetImage { window: None });

    let rendered = timeline::render(&timeline::merge(&machine), None);
    assert_eq!(rendered, AUDIT_TIMELINE_GOLDEN);
    assert_eq!(
        (
            machine.state_hash(),
            machine.ledger_head(),
            hash64(machine.metrics().as_bytes()),
        ),
        (
            0x2562_9e59_a702_1721,
            0xcb79_e7f9_9813_b7b6,
            0x2723_a1a9_6cea_21dd
        ),
        "state hash, ledger head, metrics page"
    );
}

/// Pins the state section of a machine whose byte buffers are not their
/// initial fill: pixels drawn with `PutImage`, pixels copied across
/// clients with `CopyArea`, a window property and unread pipe bytes. A
/// change to how any byte sequence lands in the state section fails here.
#[test]
fn drawn_windows_and_pipe_state_section_is_pinned() {
    let mut machine = System::protected();
    let painter = machine
        .launch_gui_app("/usr/bin/painter", Rect::new(0, 0, 40, 30))
        .expect("launch painter");
    let viewer = machine
        .launch_gui_app("/usr/bin/viewer", Rect::new(60, 20, 64, 48))
        .expect("launch viewer");
    machine.settle();
    let drawing: Vec<u8> = (0..40 * 30).map(|i| (i * 7 % 251) as u8).collect();
    machine
        .x_request(
            painter.client,
            Request::PutImage {
                window: painter.window,
                data: drawing,
            },
        )
        .expect("put image");
    machine.click_window(viewer.window);
    machine.advance(SimDuration::from_millis(50));
    machine
        .x_request(
            viewer.client,
            Request::CopyArea {
                src: Some(painter.window),
                dst: viewer.window,
            },
        )
        .expect("copy area after a click");
    machine
        .x_request(
            viewer.client,
            Request::ChangeProperty {
                window: viewer.window,
                property: Atom::new("WM_NAME"),
                data: b"viewer: copied".to_vec(),
            },
        )
        .expect("change property");
    let (_read, write) = machine.kernel_mut().sys_pipe(painter.pid).expect("pipe");
    machine
        .kernel_mut()
        .sys_write(painter.pid, write, b"unread pipe bytes")
        .expect("pipe write");

    let snapshot = machine.snapshot();
    assert_eq!(
        (snapshot.state().len(), hash64(snapshot.state())),
        (7_507, 0x4e86_2264_eb6d_b3fd),
        "state section length and hash"
    );
}

/// Pins what clients see of three overlapping mapped windows: `plain` is
/// never drawn, `painter` is drawn with `PutImage`, and `viewer` is the
/// target of a `CopyArea` whose source is `plain`. `plain` crosses the top
/// of the screen and `painter` its left edge, so the root capture clips
/// both. A change to how window pixels are stored must not change a reply
/// byte, so the window capture, the root capture and the copied pixels are
/// pinned as hashes.
#[test]
fn captured_and_copied_pixels_are_pinned() {
    let mut machine = System::new(small_screen(OverhaulConfig::protected()));
    let plain = machine
        .launch_gui_app("/usr/bin/plain", Rect::new(10, -6, 48, 36))
        .expect("launch plain");
    let painter = machine
        .launch_gui_app("/usr/bin/painter", Rect::new(-20, 20, 80, 40))
        .expect("launch painter");
    let viewer = machine
        .launch_gui_app("/usr/bin/viewer", Rect::new(50, 40, 64, 48))
        .expect("launch viewer");
    machine.settle();
    let drawing: Vec<u8> = (0..80 * 40).map(|i| (i * 13 % 251) as u8).collect();
    machine
        .x_request(
            painter.client,
            Request::PutImage {
                window: painter.window,
                data: drawing,
            },
        )
        .expect("put image");
    assert!(machine.click_window(viewer.window));
    machine
        .x_request(
            viewer.client,
            Request::CopyArea {
                src: Some(plain.window),
                dst: viewer.window,
            },
        )
        .expect("copy area after a click");
    let mut capture = |client, window| match machine.x_request(client, Request::GetImage { window })
    {
        Ok(Reply::Image(pixels)) => hash64(&pixels),
        other => panic!("GetImage on {window:?}: {other:?}"),
    };
    let window = capture(plain.client, Some(plain.window));
    let root = capture(viewer.client, None);
    let copied = hash64(
        &machine
            .xserver()
            .windows()
            .get(viewer.window)
            .expect("viewer window")
            .pixels(),
    );
    assert_eq!(
        (window, root, copied),
        (
            0x6d58_f711_24e7_48f3,
            0x4e68_1f28_9fad_8d51,
            0xeadd_2c61_1cbe_ddb9
        ),
        "window capture, root capture, copied pixels"
    );
}

/// An undrawn window stores no pixels, so two machines that differ only
/// in the size of one undrawn window have state sections of one length.
#[test]
fn an_undrawn_window_costs_the_same_state_bytes_at_any_size() {
    let state_len = |rect| {
        let mut machine = System::protected();
        machine
            .launch_gui_app("/usr/bin/editor", rect)
            .expect("launch");
        machine.settle();
        machine.snapshot().state().len()
    };
    assert_eq!(
        state_len(Rect::new(0, 0, 10, 10)),
        state_len(Rect::new(0, 0, 1000, 700))
    );
}

const AUDIT_TIMELINE_GOLDEN: &str = "\
[t+0ms] kernel info: udev: attached microphone 'built-in mic' at /dev/snd/mic0
[t+0ms] kernel info: udev: attached camera 'webcam' at /dev/video0
[t+0ms] kernel info pid:2: netlink: peer authenticated
[t+0ms] kernel channel-event pid:2: channel state: down -> up
[t+501ms] kernel interaction-notification pid:3: interaction recorded in task_struct
[t+501ms] xserver interaction-notification pid:3: hardware input on win:1
[t+621ms] kernel permission-granted pid:3: op=mic granted
[t+621ms] kernel permission-granted pid:3: op=copy granted
[t+621ms] xserver alert-displayed: recorder: mic granted
[t+621ms] xserver permission-granted pid:3: SetSelectionOwner CLIPBOARD
[t+30621ms] kernel permission-denied pid:4: op=cam denied
[t+30621ms] kernel permission-denied pid:4: op=scr denied
[t+30621ms] xserver alert-displayed: .spy: cam blocked
[t+30621ms] xserver permission-denied pid:4: GetImage on root
[t+30621ms] xserver alert-displayed: pid 4: scr blocked";

#[test]
fn replay_golden_malware_blocked() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let mail = launch(&mut rec, "/usr/bin/thunderbird", Rect::new(0, 0, 320, 200));
    rec.apply(Event::Settle);
    let spy = rec
        .apply(Event::SpawnProcess {
            parent: None,
            exe: "/usr/bin/.spy".into(),
        })
        .pid()
        .expect("spawn");
    let spy_client = rec.apply(Event::ConnectX { pid: spy }).client();
    for _ in 0..3 {
        rec.apply(Event::Advance(SimDuration::from_secs(60)));
        assert!(open(&mut rec, spy, "/dev/snd/mic0").fd().is_err());
        assert!(open(&mut rec, spy, "/dev/video0").fd().is_err());
        assert!(rec
            .apply(Event::XRequest {
                client: spy_client,
                request: Request::GetImage { window: None },
            })
            .x()
            .is_err());
    }
    // The user's own app still works right after a click.
    rec.apply(Event::ClickWindow {
        window: mail.window,
    });
    assert!(open(&mut rec, mail.pid, "/dev/snd/mic0").fd().is_ok());
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

#[test]
fn replay_golden_multiprocess_browser() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let browser = launch(&mut rec, "/usr/bin/chromium", Rect::new(0, 0, 1024, 700));
    let shm = rec
        .apply(Event::SysShmGet {
            pid: browser.pid,
            key: 0xbeef,
            pages: 16,
        })
        .shm()
        .expect("shmget");
    let main_vma = rec
        .apply(Event::SysShmAt {
            pid: browser.pid,
            shm,
        })
        .vma()
        .expect("shmat");
    let tab = rec
        .apply(Event::SysFork { pid: browser.pid })
        .pid()
        .expect("fork");
    rec.apply(Event::SysExecve {
        pid: tab,
        exe: "/usr/bin/chromium-tab".into(),
    });
    let tab_vma = rec
        .apply(Event::SysShmAt { pid: tab, shm })
        .vma()
        .expect("shmat");
    rec.apply(Event::Advance(SimDuration::from_secs(30)));
    rec.apply(Event::Settle);
    assert!(open(&mut rec, tab, "/dev/video0").fd().is_err());
    rec.apply(Event::ClickWindow {
        window: browser.window,
    });
    rec.apply(Event::SysShmWrite {
        pid: browser.pid,
        vma: main_vma,
        offset: 0,
        data: b"start-video".to_vec(),
    });
    rec.apply(Event::SysShmRead {
        pid: tab,
        vma: tab_vma,
        offset: 0,
        len: 11,
    });
    let fd = open(&mut rec, tab, "/dev/video0").fd().expect("P2 carries");
    rec.apply(Event::SysRead {
        pid: tab,
        fd,
        max: 64,
    });
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

#[test]
fn replay_golden_sensor_gps() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    rec.apply(Event::AttachDevice {
        class: DeviceClass::Sensor,
        label: "usb gps".into(),
        path: "/dev/gps0".into(),
    });
    let tracker = rec
        .apply(Event::SpawnProcess {
            parent: None,
            exe: "/usr/bin/.tracker".into(),
        })
        .pid()
        .expect("spawn");
    for _ in 0..3 {
        rec.apply(Event::Advance(SimDuration::from_secs(60)));
        assert!(open(&mut rec, tracker, "/dev/gps0").fd().is_err());
    }
    let maps = launch(&mut rec, "/usr/bin/maps", Rect::new(0, 0, 800, 600));
    rec.apply(Event::Settle);
    rec.apply(Event::ClickWindow {
        window: maps.window,
    });
    rec.apply(Event::Advance(SimDuration::from_millis(150)));
    let fd = open(&mut rec, maps.pid, "/dev/gps0").fd().expect("open");
    rec.apply(Event::SysRead {
        pid: maps.pid,
        fd,
        max: 64,
    });
    rec.apply(Event::UdevRename {
        old: "/dev/gps0".into(),
        new: "/dev/gps1".into(),
    });
    rec.apply(Event::Advance(SimDuration::from_secs(5)));
    assert!(open(&mut rec, tracker, "/dev/gps1").fd().is_err());
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

#[test]
fn replay_golden_terminal_workflow() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let xterm = launch(&mut rec, "/usr/bin/xterm", Rect::new(0, 0, 640, 400));
    let (master, slave) = rec
        .apply(Event::SysOpenPty { pid: xterm.pid })
        .fds()
        .expect("openpty");
    let bash = rec
        .apply(Event::SysFork { pid: xterm.pid })
        .pid()
        .expect("fork");
    rec.apply(Event::SysExecve {
        pid: bash,
        exe: "/bin/bash".into(),
    });
    rec.apply(Event::Advance(SimDuration::from_secs(20)));
    rec.apply(Event::Settle);
    let stale = rec
        .apply(Event::SysSpawn {
            parent: bash,
            exe: "/usr/bin/scrot".into(),
        })
        .pid()
        .expect("spawn");
    let stale_client = rec.apply(Event::ConnectX { pid: stale }).client();
    assert!(rec
        .apply(Event::XRequest {
            client: stale_client,
            request: Request::GetImage { window: None },
        })
        .x()
        .is_err());
    rec.apply(Event::ClickWindow {
        window: xterm.window,
    });
    rec.apply(Event::SysWrite {
        pid: xterm.pid,
        fd: master,
        data: b"scrot\n".to_vec(),
    });
    rec.apply(Event::SysRead {
        pid: bash,
        fd: slave,
        max: 64,
    });
    let scrot = rec
        .apply(Event::SysSpawn {
            parent: bash,
            exe: "/usr/bin/scrot".into(),
        })
        .pid()
        .expect("spawn");
    let scrot_client = rec.apply(Event::ConnectX { pid: scrot }).client();
    assert!(matches!(
        rec.apply(Event::XRequest {
            client: scrot_client,
            request: Request::GetImage { window: None },
        })
        .x(),
        Ok(Reply::Image(_))
    ));
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

#[test]
fn replay_golden_video_conference() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let skype = launch(&mut rec, "/usr/bin/skype", Rect::new(100, 100, 800, 600));
    assert!(open(&mut rec, skype.pid, "/dev/video0").fd().is_err());
    rec.apply(Event::Settle);
    rec.apply(Event::ClickWindow {
        window: skype.window,
    });
    rec.apply(Event::Advance(SimDuration::from_millis(400)));
    let cam = open(&mut rec, skype.pid, "/dev/video0").fd().expect("cam");
    let mic = open(&mut rec, skype.pid, "/dev/snd/mic0")
        .fd()
        .expect("mic");
    for _ in 0..3 {
        rec.apply(Event::SysRead {
            pid: skype.pid,
            fd: cam,
            max: 64,
        });
        rec.apply(Event::SysRead {
            pid: skype.pid,
            fd: mic,
            max: 64,
        });
        rec.apply(Event::Advance(SimDuration::from_millis(33)));
    }
    rec.apply(Event::Advance(SimDuration::from_secs(60)));
    rec.apply(Event::SysRead {
        pid: skype.pid,
        fd: cam,
        max: 64,
    });
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

#[test]
fn replay_golden_clipboard_protection() {
    const SECRET: &[u8] = b"correct-horse-battery-staple";
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let manager = launch(&mut rec, "/usr/bin/keepassx", Rect::new(0, 0, 300, 200));
    let browser = launch(&mut rec, "/usr/bin/firefox", Rect::new(400, 0, 600, 400));
    rec.apply(Event::Settle);

    // Copy after a real click...
    rec.apply(Event::ClickWindow {
        window: manager.window,
    });
    rec.apply(Event::XRequest {
        client: manager.client,
        request: Request::SetSelectionOwner {
            selection: Atom::clipboard(),
            window: manager.window,
        },
    });
    // ...then paste into the browser, running the full selection protocol
    // (owner answers the SelectionRequest, browser fetches the property).
    rec.apply(Event::Advance(SimDuration::from_millis(500)));
    rec.apply(Event::ClickWindow {
        window: browser.window,
    });
    rec.apply(Event::XRequest {
        client: browser.client,
        request: Request::ConvertSelection {
            selection: Atom::clipboard(),
            requestor: browser.window,
            property: Atom::new("XSEL_DATA"),
        },
    })
    .x()
    .expect("paste allowed after click");
    let requests = rec
        .apply(Event::DrainEvents {
            client: manager.client,
        })
        .events()
        .expect("owner queue");
    for event in requests {
        if let XEvent::SelectionRequest {
            selection,
            requestor,
            property,
        } = event
        {
            rec.apply(Event::XRequest {
                client: manager.client,
                request: Request::ChangeProperty {
                    window: requestor,
                    property: property.clone(),
                    data: SECRET.to_vec(),
                },
            });
            rec.apply(Event::XRequest {
                client: manager.client,
                request: Request::SendEvent {
                    target: requestor,
                    event: Box::new(XEvent::SelectionNotify {
                        selection,
                        property,
                    }),
                },
            });
        }
    }
    let notify = rec
        .apply(Event::DrainEvents {
            client: browser.client,
        })
        .events()
        .expect("browser queue")
        .into_iter()
        .find_map(|e| match e {
            XEvent::SelectionNotify { property, .. } => Some(property),
            _ => None,
        })
        .expect("notify delivered");
    let pasted = rec
        .apply(Event::XRequest {
            client: browser.client,
            request: Request::GetProperty {
                window: browser.window,
                property: notify,
                delete: true,
            },
        })
        .x()
        .expect("fetch");
    assert!(matches!(pasted, Reply::Property(Some(ref d)) if d == SECRET));

    // A fresh copy, then the background sniffer strikes — and is blocked.
    rec.apply(Event::ClickWindow {
        window: manager.window,
    });
    rec.apply(Event::XRequest {
        client: manager.client,
        request: Request::SetSelectionOwner {
            selection: Atom::clipboard(),
            window: manager.window,
        },
    });
    rec.apply(Event::Advance(SimDuration::from_secs(30)));
    let sniffer = rec
        .apply(Event::SpawnProcess {
            parent: None,
            exe: "/usr/bin/.sniffer".into(),
        })
        .pid()
        .expect("spawn");
    let sniffer_client = rec.apply(Event::ConnectX { pid: sniffer }).client();
    let sniffer_window = match rec
        .apply(Event::XRequest {
            client: sniffer_client,
            request: Request::CreateWindow {
                rect: Rect::new(0, 0, 1, 1),
            },
        })
        .x()
        .expect("create")
    {
        Reply::Window(w) => w,
        other => panic!("expected a window, got {other:?}"),
    };
    assert!(rec
        .apply(Event::XRequest {
            client: sniffer_client,
            request: Request::ConvertSelection {
                selection: Atom::clipboard(),
                requestor: sniffer_window,
                property: Atom::new("LOOT"),
            },
        })
        .x()
        .is_err());
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

// ------------------------------------------------------------------
// Campaign goldens: the multi-stage attack-campaign scripts must replay
// to byte-identical state hashes, trace dumps, and ledger heads — from
// boot AND from a snapshot taken mid-campaign, with the driver's actor
// handles re-derived purely from the replayed outcomes.
// ------------------------------------------------------------------

/// Drives one catalog campaign stage by stage over a tracing recorder,
/// checkpointing halfway, then asserts all three replay paths (boot,
/// serialized bytes, mid-campaign snapshot) land on the recorded
/// `state_hash`, `trace_dump`, and ledger head. Returns each stage's
/// observed grant/deny for the caller's semantic assertions.
fn assert_campaign_golden(kind: CampaignKind) -> Vec<(&'static str, Option<bool>)> {
    let campaign = kind.build();
    let mut rec = Recorder::new(OverhaulConfig::protected().with_tracing());
    let mut driver = CampaignDriver::new();
    let mid = campaign.stages.len() / 2;
    let mut checkpoint = None;
    let mut outcomes = Vec::new();
    for (i, stage) in campaign.stages.iter().enumerate() {
        if i == mid {
            checkpoint = Some((rec.snapshot(), rec.events_recorded()));
        }
        let event = driver
            .resolve(rec.system(), &stage.action)
            .expect("every catalog stage resolves on a protected machine");
        let outcome = rec.apply(event.clone());
        driver.absorb(&stage.action, &outcome);
        outcomes.push((stage.label, outcome_granted(&event, &outcome)));
    }
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);

    let from_boot = replay(&log).expect("replay boots");
    assert_eq!(
        from_boot.trace_dump(),
        recorded.trace_dump(),
        "trace dump diverged on boot replay"
    );
    assert_eq!(from_boot.ledger_head(), recorded.ledger_head());

    let (snapshot, at) = checkpoint.expect("campaign has stages");
    let restored =
        replay_from(&snapshot, log.suffix(at), log.final_state_hash).expect("snapshot replay");
    assert_eq!(
        restored.state_hash(),
        recorded.state_hash(),
        "state hash diverged from the mid-campaign snapshot"
    );
    assert_eq!(
        restored.trace_dump(),
        recorded.trace_dump(),
        "trace dump diverged from the mid-campaign snapshot"
    );
    assert_eq!(restored.ledger_head(), recorded.ledger_head());
    outcomes
}

#[test]
fn replay_golden_hover_theft_campaign() {
    let outcomes = assert_campaign_golden(CampaignKind::HoverTheft);
    let granted = |label: &str| outcomes.iter().find(|(l, _)| *l == label).expect(label).1;
    assert_eq!(granted("mic after suppressed click"), Some(false));
    assert_eq!(granted("cam after forged input"), Some(false));
    assert_eq!(granted("mic within delta of the stolen click"), Some(true));
}

#[test]
fn replay_golden_delegation_abuse_campaign() {
    let outcomes = assert_campaign_golden(CampaignKind::DelegationAbuse);
    let granted = |label: &str| outcomes.iter().find(|(l, _)| *l == label).expect(label).1;
    assert_eq!(granted("cam before any hop"), Some(false));
    assert_eq!(granted("cam via fresh delegation hop"), Some(true));
    assert_eq!(granted("cam via stale hop"), Some(false));
}

#[test]
fn ablation_smoke_directions_hold() {
    let delta = sweep_delta(&[500, 2000], 20, 5);
    assert!(delta[0].false_deny_rate >= delta[1].false_deny_rate);

    let shm = sweep_shm_wait(&[100, 1000], 10, 5);
    assert!(shm[0].faults_per_10k >= shm[1].faults_per_10k);

    let vis = sweep_visibility(&[0, 500], 20, 5);
    assert!(vis[0].popup_attack_succeeds);
    assert!(!vis[1].popup_attack_succeeds);

    let prop = sweep_propagation();
    assert_eq!(prop.functional_without_p2, 0);
}
