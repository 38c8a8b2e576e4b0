//! Per-mechanism IPC propagation overhead.
//!
//! ```text
//! cargo run --release -p overhaul-bench --bin ipc_propagation
//! ```
//!
//! The paper notes its "preliminary measurements indicated that the shared
//! memory communication incurred the highest overhead" among the IPC
//! mechanisms — which is why Table I stresses shared memory specifically.
//! This bin times one send+receive round trip per mechanism on the
//! baseline and the grant-all Overhaul stacks, so the per-mechanism
//! ranking is visible. Each figure is the best of three timed loops.

use std::hint::black_box;
use std::time::Instant;

use overhaul_core::System;
use overhaul_sim::{Pid, SimDuration};

/// Round trips per timed loop.
const ROUND_TRIPS: u64 = 200_000;

/// Timed loops per figure; the fastest is reported.
const ROUNDS: u32 = 3;

/// Mechanism labels, in the order [`measure`] returns them.
const MECHANISMS: [&str; 5] = ["pipe", "sysv_msgq", "unix_socket", "shared_memory", "pty"];

struct Pair {
    system: System,
    a: Pid,
    b: Pid,
}

fn pair(protected: bool) -> Pair {
    let mut system = if protected {
        System::grant_all()
    } else {
        System::baseline()
    };
    let a = system.spawn_process(None, "/usr/bin/a").expect("spawn a");
    let b = system.spawn_process(None, "/usr/bin/b").expect("spawn b");
    Pair { system, a, b }
}

/// Best nanoseconds per call of `round_trip` over [`ROUNDS`] loops.
fn best_ns(mut round_trip: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..ROUND_TRIPS {
            round_trip();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / ROUND_TRIPS as f64);
    }
    best
}

/// Nanoseconds per round trip of each mechanism on one stack.
fn measure(protected: bool) -> [f64; 5] {
    let pipe = {
        let mut p = pair(protected);
        let (r, w) = p.system.kernel_mut().sys_pipe(p.a).expect("pipe");
        best_ns(|| {
            p.system.kernel_mut().sys_write(p.a, w, b"m").unwrap();
            black_box(p.system.kernel_mut().sys_read(p.a, r, 8).unwrap());
        })
    };
    let msgq = {
        let mut p = pair(protected);
        let q = p.system.kernel_mut().sys_msgget(p.a, 1).expect("msgget");
        best_ns(|| {
            p.system.kernel_mut().sys_msgsnd(p.a, q, 1, b"m").unwrap();
            black_box(p.system.kernel_mut().sys_msgrcv(p.b, q, 1).unwrap());
        })
    };
    let socket = {
        let mut p = pair(protected);
        let (sa, sb) = p
            .system
            .kernel_mut()
            .sys_socketpair(p.a)
            .expect("socketpair");
        best_ns(|| {
            p.system.kernel_mut().sys_write(p.a, sa, b"m").unwrap();
            black_box(p.system.kernel_mut().sys_read(p.a, sb, 8).unwrap());
        })
    };
    // Shared-memory write+read with periodic re-arming (the paper's
    // highest-overhead mechanism).
    let shm = {
        let mut p = pair(protected);
        let shm = p.system.kernel_mut().sys_shmget(p.a, 9, 1).expect("shmget");
        let va = p.system.kernel_mut().sys_shmat(p.a, shm).expect("shmat a");
        let vb = p.system.kernel_mut().sys_shmat(p.b, shm).expect("shmat b");
        let mut ops = 0u64;
        best_ns(|| {
            p.system
                .kernel_mut()
                .sys_shm_write(p.a, va, 0, b"m")
                .unwrap();
            black_box(p.system.kernel_mut().sys_shm_read(p.b, vb, 0, 1).unwrap());
            ops += 1;
            if ops.is_multiple_of(2048) {
                p.system.advance(SimDuration::from_millis(600));
            }
        })
    };
    let pty = {
        let mut p = pair(protected);
        let (master, slave) = p.system.kernel_mut().sys_openpty(p.a).expect("openpty");
        best_ns(|| {
            p.system.kernel_mut().sys_write(p.a, master, b"m").unwrap();
            black_box(p.system.kernel_mut().sys_read(p.a, slave, 8).unwrap());
        })
    };
    [pipe, msgq, socket, shm, pty]
}

fn main() {
    println!(
        "IPC propagation round trips (best of {ROUNDS} loops of {ROUND_TRIPS}, \
         baseline vs. grant-all Overhaul)\n"
    );
    let baseline = measure(false);
    let overhaul = measure(true);
    println!(
        "{:>14} {:>12} {:>12} {:>10}",
        "mechanism", "baseline", "overhaul", "overhead"
    );
    for (i, name) in MECHANISMS.iter().enumerate() {
        println!(
            "{:>14} {:>10.1}ns {:>10.1}ns {:>9.1}%",
            name,
            baseline[i],
            overhaul[i],
            (overhaul[i] / baseline[i] - 1.0) * 100.0
        );
    }
}
