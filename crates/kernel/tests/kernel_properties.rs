//! Property-based tests over the kernel simulator: random syscall
//! sequences must preserve the structural invariants Overhaul's security
//! argument rests on.

use overhaul_kernel::device::DeviceClass;
use overhaul_kernel::{Kernel, KernelConfig, OpenMode};
use overhaul_sim::{Clock, Pid, SimDuration, Timestamp};
use proptest::prelude::*;

/// The operations the fuzzer may perform.
#[derive(Debug, Clone)]
enum Op {
    Fork(usize),
    Exit(usize),
    Pipe(usize),
    WritePipe(usize),
    ReadPipe(usize),
    Msg(usize, usize),
    Shm(usize, usize),
    Interact(usize, u64),
    OpenMic(usize),
    Advance(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..6).prop_map(Op::Fork),
        (0usize..6).prop_map(Op::Exit),
        (0usize..6).prop_map(Op::Pipe),
        (0usize..6).prop_map(Op::WritePipe),
        (0usize..6).prop_map(Op::ReadPipe),
        (0usize..6, 0usize..6).prop_map(|(a, b)| Op::Msg(a, b)),
        (0usize..6, 0usize..6).prop_map(|(a, b)| Op::Shm(a, b)),
        (0usize..6, 1u64..5_000).prop_map(|(a, t)| Op::Interact(a, t)),
        (0usize..6).prop_map(Op::OpenMic),
        (1u64..3_000).prop_map(Op::Advance),
    ]
}

struct Fuzz {
    kernel: Kernel,
    clock: Clock,
    pids: Vec<Pid>,
    pipes: Vec<(Pid, overhaul_sim::Fd, overhaul_sim::Fd)>,
}

impl Fuzz {
    fn new() -> Self {
        let clock = Clock::new();
        let mut kernel = Kernel::new(clock.clone(), KernelConfig::default());
        kernel
            .attach_device(DeviceClass::Microphone, "mic", "/dev/snd/mic0")
            .expect("attach");
        let pids: Vec<Pid> = (0..6)
            .map(|i| {
                kernel
                    .sys_spawn(Pid::INIT, &format!("/usr/bin/p{i}"))
                    .unwrap()
            })
            .collect();
        Fuzz {
            kernel,
            clock,
            pids,
            pipes: Vec::new(),
        }
    }

    fn pid(&self, index: usize) -> Pid {
        self.pids[index % self.pids.len()]
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Fork(i) => {
                if let Ok(child) = self.kernel.sys_fork(self.pid(*i)) {
                    self.pids.push(child);
                }
            }
            Op::Exit(i) => {
                let _ = self.kernel.sys_exit(self.pid(*i), 0);
            }
            Op::Pipe(i) => {
                let pid = self.pid(*i);
                if let Ok((r, w)) = self.kernel.sys_pipe(pid) {
                    self.pipes.push((pid, r, w));
                }
            }
            Op::WritePipe(i) => {
                if let Some((pid, _, w)) = self.pipes.get(*i % self.pipes.len().max(1)).copied() {
                    let _ = self.kernel.sys_write(pid, w, b"x");
                }
            }
            Op::ReadPipe(i) => {
                if let Some((pid, r, _)) = self.pipes.get(*i % self.pipes.len().max(1)).copied() {
                    let _ = self.kernel.sys_read(pid, r, 8);
                }
            }
            Op::Msg(a, b) => {
                let from = self.pid(*a);
                let to = self.pid(*b);
                if let Ok(q) = self.kernel.sys_msgget(from, 42) {
                    let _ = self.kernel.sys_msgsnd(from, q, 1, b"m");
                    let _ = self.kernel.sys_msgrcv(to, q, 0);
                }
            }
            Op::Shm(a, b) => {
                let from = self.pid(*a);
                let to = self.pid(*b);
                if let Ok(shm) = self.kernel.sys_shmget(from, 7, 1) {
                    if let (Ok(va), Ok(vb)) = (
                        self.kernel.sys_shmat(from, shm),
                        self.kernel.sys_shmat(to, shm),
                    ) {
                        let _ = self.kernel.sys_shm_write(from, va, 0, b"y");
                        let _ = self.kernel.sys_shm_read(to, vb, 0, 1);
                        let _ = self.kernel.sys_shmdt(from, va);
                        let _ = self.kernel.sys_shmdt(to, vb);
                    }
                }
            }
            Op::Interact(i, _at) => {
                // Interactions arrive through the monitor in real flows; the
                // fuzz uses the harness reset + re-observe path.
                let pid = self.pid(*i);
                let now = self.clock.now();
                // Observing through the netlink channel requires the X
                // process; fuzz directly at the task level instead.
                let _ = self.kernel.reset_interaction(pid);
                let _ = self.kernel.netlink_connect(pid).err(); // untrusted: must never authenticate
                let _ = now;
            }
            Op::OpenMic(i) => {
                let pid = self.pid(*i);
                if let Ok(fd) = self
                    .kernel
                    .sys_open(pid, "/dev/snd/mic0", OpenMode::ReadOnly)
                {
                    let _ = self.kernel.sys_close(pid, fd);
                }
            }
            Op::Advance(ms) => {
                self.clock.advance(SimDuration::from_millis(*ms));
                self.kernel.tick();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No syscall sequence panics, and structural invariants hold
    /// afterwards: init lives, zombie-free fd bookkeeping, and no task
    /// carries an interaction timestamp from the future.
    #[test]
    fn random_syscall_sequences_preserve_invariants(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut fuzz = Fuzz::new();
        for op in &ops {
            fuzz.apply(op);
        }
        let kernel = &fuzz.kernel;
        // Init is immortal.
        prop_assert!(kernel.tasks().is_running(Pid::INIT));
        let now = kernel.now();
        for task in kernel.tasks().iter() {
            // No timestamps from the future.
            if let Some(ts) = task.raw_interaction() {
                prop_assert!(ts <= now, "{}: {ts} > {now}", task.pid());
            }
            // Zombies hold no descriptors.
            if !task.is_running() {
                prop_assert_eq!(task.fd_count(), 0, "{} is a zombie with fds", task.pid());
            }
        }
    }

    /// Untrusted processes can never authenticate on the netlink channel,
    /// no matter what else happened before.
    #[test]
    fn netlink_never_authenticates_untrusted(ops in prop::collection::vec(op_strategy(), 0..30)) {
        let mut fuzz = Fuzz::new();
        for op in &ops {
            fuzz.apply(op);
        }
        for pid in fuzz.pids.clone() {
            prop_assert!(fuzz.kernel.netlink_connect(pid).is_err());
        }
    }

    /// Device opens without interactions are always denied under the
    /// protected configuration, regardless of history.
    #[test]
    fn no_interaction_no_device(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let mut fuzz = Fuzz::new();
        for op in &ops {
            // Skip ops that could create interactions (none of the fuzz ops
            // record any — Interact only resets — so all opens must fail).
            fuzz.apply(op);
        }
        let fresh = fuzz.kernel.sys_spawn(Pid::INIT, "/usr/bin/fresh").unwrap();
        prop_assert!(fuzz.kernel.sys_open(fresh, "/dev/snd/mic0", OpenMode::ReadOnly).is_err());
    }
}

/// δ is exact: an op at `interaction + delta - 1` grants, at
/// `interaction + delta` denies — for arbitrary interaction times.
#[test]
fn delta_boundary_is_exact_for_many_offsets() {
    for base in [0u64, 1, 999, 12_345, 86_400_000] {
        let clock = Clock::starting_at(Timestamp::from_millis(base));
        let mut kernel = Kernel::new(clock.clone(), KernelConfig::default());
        kernel
            .attach_device(DeviceClass::Microphone, "mic", "/dev/snd/mic0")
            .expect("attach");
        let x = kernel
            .sys_spawn(Pid::INIT, overhaul_kernel::XORG_PATH)
            .unwrap();
        let conn = kernel.netlink_connect(x).unwrap();
        let app = kernel.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        kernel
            .netlink_send(
                conn,
                overhaul_kernel::netlink::NetlinkMessage::InteractionNotification {
                    pid: app,
                    at: Timestamp::from_millis(base),
                },
            )
            .unwrap();
        clock.advance(SimDuration::from_millis(1999));
        assert!(
            kernel
                .sys_open(app, "/dev/snd/mic0", OpenMode::ReadOnly)
                .is_ok(),
            "base {base}"
        );
        clock.advance(SimDuration::from_millis(1));
        assert!(
            kernel
                .sys_open(app, "/dev/snd/mic0", OpenMode::ReadOnly)
                .is_err(),
            "base {base}"
        );
    }
}
