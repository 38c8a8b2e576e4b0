//! `decide_hot` and `decide_churn`: the permission-decision layer, read
//! through its cache and written around it.
//!
//! Both boot one kernel with an authenticated display channel and 1024
//! tasks (every eighth a fresh spawn, the rest fork chains), one of four
//! operations (mic, camera, screen, paste) per task. One task in eight is
//! idle: its only interaction is far in the past, so its requests must be
//! denied. The benchmark keeps its own model of every task's last
//! interaction and checks each verdict against the paper's rule: grant
//! when the interaction is at most δ/2 old, deny when it is more than 2δ
//! old. The generators never produce ages in between, so the expected
//! verdict never depends on which side of δ a boundary case falls. One
//! request in 64 is also checked against a fresh, uncached evaluation of
//! the pure policy engine on a snapshot of the kernel.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use overhaul_kernel::monitor::{ResourceOp, Verdict};
use overhaul_kernel::netlink::ConnId;
use overhaul_kernel::policy::{IngestEvent, OpRequest, PolicyEngine};
use overhaul_kernel::{Kernel, KernelConfig, XORG_PATH};
use overhaul_sim::{Clock, Pid, SimRng, Timestamp};

use super::{Checks, Round, Workload};
use crate::hist::Histogram;
use crate::spans::Spans;

/// The kernel's default temporal-proximity threshold δ, milliseconds.
pub const DELTA_MS: u64 = 2_000;
/// Virtual time the timed traffic starts at.
const START_MS: u64 = 20_000;
/// The idle tasks' one interaction (more than 2δ before `START_MS`).
const IDLE_AT_MS: u64 = 1_000;
/// Operations the tasks request.
const OPS: [ResourceOp; 4] = [
    ResourceOp::Mic,
    ResourceOp::Cam,
    ResourceOp::Screen,
    ResourceOp::Paste,
];
/// Events per ingested batch.
const BATCH: usize = 4_096;
/// One interaction per this many events.
const INTERACTION_EVERY: usize = 64;
/// Virtual time per `decide_hot` batch.
const HOT_STEP_MS: u64 = 50;
/// One request in this many is re-decided by the uncached engine.
const ORACLE_EVERY: u64 = 64;
/// Events between ledger clears: the cadence the Table I harness clears
/// the kernel's history at, so the retained ledger stays bounded.
const CLEAR_EVERY: usize = 8_192;

/// The verdict the paper's rule gives a task whose last interaction is
/// `age_ms` old.
///
/// # Panics
///
/// Panics on an age in (δ/2, 2δ]: the generators never produce one, so
/// reaching it is a bug in the benchmark, not in the program.
pub fn expected_grant(age_ms: u64) -> bool {
    if age_ms <= DELTA_MS / 2 {
        true
    } else if age_ms > 2 * DELTA_MS {
        false
    } else {
        panic!("generator produced an interaction age of {age_ms} ms, inside (δ/2, 2δ]")
    }
}

/// Checks one verdict against the model.
pub fn check_verdict(checks: &mut Checks, pid: Pid, expect_grant: bool, got: Verdict) {
    checks.check(got.is_grant() == expect_grant, || {
        format!("pid {pid:?}: expected grant={expect_grant}, kernel said {got:?}")
    });
}

/// Checks the kernel's recorded outcome for `(pid, op)` against a fresh
/// evaluation of the pure engine on a snapshot of the same state.
fn check_oracle(checks: &mut Checks, kernel: &Kernel, pid: Pid, op: ResourceOp, at: Timestamp) {
    let fresh = PolicyEngine::decide(
        &kernel.policy_snapshot(pid, false),
        &OpRequest { pid, op, at },
    );
    let recorded = kernel.explain_last(pid, op);
    checks.check(recorded == Some(&fresh), || {
        format!("pid {pid:?} {op}: kernel recorded {recorded:?}, uncached engine says {fresh:?}")
    });
}

/// Which tasks to pick from.
#[derive(Debug, Clone, Copy)]
enum Pool {
    Active,
    Idle,
}

/// A booted kernel, its tasks, and the benchmark's model of them.
pub struct Tasks {
    /// The kernel under test.
    pub kernel: Kernel,
    /// The display manager's authenticated channel.
    pub conn: ConnId,
    /// Every task's pid.
    pub pids: Vec<Pid>,
    /// Every task's operation.
    pub op_of: Vec<ResourceOp>,
    /// Model: every task's last interaction, virtual milliseconds. It
    /// must match what the kernel was told, so only this module writes it.
    last: Vec<u64>,
    /// Indices of the active tasks.
    pub active: Vec<usize>,
    /// Indices of the idle tasks.
    idle: Vec<usize>,
    /// Round-robin cursor over `active` for interactions.
    cursor: usize,
    /// Input generator.
    rng: SimRng,
    /// Current virtual time, milliseconds.
    pub now: u64,
}

impl Tasks {
    /// Boots the kernel and `n` tasks; every active task interacts at
    /// `START_MS`, every idle one at `IDLE_AT_MS`.
    pub fn boot(seed: u64, n: usize) -> Tasks {
        let mut rng = SimRng::seeded(seed);
        let mut kernel = Kernel::new(Clock::new(), KernelConfig::default());
        let x = kernel
            .sys_spawn(Pid::INIT, XORG_PATH)
            .expect("spawn display manager");
        let conn = kernel.netlink_connect(x).expect("authenticate channel");
        kernel.set_channel_required(true);
        let mut pids: Vec<Pid> = Vec::with_capacity(n);
        for i in 0..n {
            let pid = match pids.last() {
                Some(&prev) if i % 8 != 0 => kernel.sys_fork(prev).expect("fork"),
                _ => kernel
                    .sys_spawn(Pid::INIT, &format!("/usr/bin/app{i}"))
                    .expect("spawn"),
            };
            pids.push(pid);
        }
        let op_of = (0..n).map(|_| OPS[rng.range(0, 4) as usize]).collect();
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.range(0, i as u64 + 1) as usize);
        }
        let (idle, active) = order.split_at(n / 8);
        let mut last = vec![0; n];
        for &k in idle {
            last[k] = IDLE_AT_MS;
        }
        for &k in active {
            last[k] = START_MS;
        }
        for (k, &pid) in pids.iter().enumerate() {
            kernel
                .record_interaction_direct(pid, Timestamp::from_millis(last[k]))
                .expect("record interaction");
        }
        Tasks {
            kernel,
            conn,
            pids,
            op_of,
            last,
            active: active.to_vec(),
            idle: idle.to_vec(),
            cursor: 0,
            rng,
            now: START_MS,
        }
    }

    /// A random task from `pool`.
    fn pick(&mut self, pool: Pool) -> usize {
        let from = match pool {
            Pool::Active => &self.active,
            Pool::Idle => &self.idle,
        };
        from[self.rng.range(0, from.len() as u64) as usize]
    }

    /// The next active task to interact, round-robin.
    fn next_active(&mut self) -> usize {
        let k = self.active[self.cursor];
        self.cursor = (self.cursor + 1) % self.active.len();
        k
    }

    /// The next `decide_hot` event at the current time: every 64th an
    /// interaction (round-robin over the active tasks), the rest requests
    /// from random tasks. Returns the event and, for a request, the
    /// expected verdict.
    fn hot_event(&mut self, i: usize) -> (IngestEvent, Option<bool>) {
        let at = Timestamp::from_millis(self.now);
        if i % INTERACTION_EVERY == INTERACTION_EVERY - 1 {
            let k = self.next_active();
            self.last[k] = self.now;
            return (
                IngestEvent::Interaction {
                    pid: self.pids[k],
                    at,
                },
                None,
            );
        }
        let k = self.rng.range(0, self.pids.len() as u64) as usize;
        let grant = expected_grant(self.now - self.last[k]);
        let request = OpRequest {
            pid: self.pids[k],
            op: self.op_of[k],
            at,
        };
        (IngestEvent::Request(request), Some(grant))
    }
}

/// `decide_hot` round size.
#[derive(Debug, Clone, Copy)]
pub struct HotSize {
    /// Tasks in the kernel.
    pub tasks: usize,
    /// Phase A: batches of 4096 events through `Kernel::ingest_batch`.
    pub ingest_batches: usize,
    /// Phase B: batches of 4096 events, requests via `Kernel::decide_direct`.
    pub direct_batches: usize,
}

/// The paper's hot path: an application re-opening a device right after
/// a click. Nearly every request is a verdict-cache hit.
pub struct DecideHot {
    t: Tasks,
    size: HotSize,
    batch: Vec<IngestEvent>,
    expect: Vec<bool>,
}

impl DecideHot {
    /// Fills `self.batch` with the next batch and advances virtual time.
    fn fill_batch(&mut self) {
        self.batch.clear();
        self.expect.clear();
        for i in 0..BATCH {
            let (event, expect) = self.t.hot_event(i);
            self.batch.push(event);
            self.expect.extend(expect);
        }
    }
}

impl Workload for DecideHot {
    const NAME: &'static str = "decide_hot";
    const ROUNDS_PER_S: f64 = 11.0;
    const ROUNDS_ALIKE: bool = true;
    type Size = HotSize;

    fn full() -> HotSize {
        HotSize {
            tasks: 1_024,
            ingest_batches: 64,
            direct_batches: 32,
        }
    }

    fn setup(seed: u64, size: HotSize) -> Self {
        let t = Tasks::boot(seed, size.tasks);
        // Every active task must be refreshed within δ/2.
        let refresh_batches = t.active.len().div_ceil(BATCH / INTERACTION_EVERY) as u64;
        assert!(refresh_batches * HOT_STEP_MS <= DELTA_MS / 2 - HOT_STEP_MS);
        DecideHot {
            t,
            size,
            batch: Vec::with_capacity(BATCH),
            expect: Vec::with_capacity(BATCH),
        }
    }

    fn round(&mut self, spans: &mut Spans, lat: &mut Histogram, checks: &mut Checks) -> Round {
        // Phase A: batched ingestion; its throughput is the round's rate.
        let mut ops = 0u64;
        let mut busy = Duration::ZERO;
        for b in 0..self.size.ingest_batches {
            self.fill_batch();
            let span = spans.enter("kernel.ingest_batch");
            let t0 = Instant::now();
            let outcomes = self.t.kernel.ingest_batch(&self.batch);
            busy += t0.elapsed();
            spans.exit(span, BATCH as u64);
            let mut expect = self.expect.iter();
            for (event, outcome) in self.batch.iter().zip(&outcomes) {
                if let (IngestEvent::Request(r), Some(o)) = (event, outcome) {
                    let grant = *expect.next().expect("one expectation per request");
                    check_verdict(checks, r.pid, grant, o.decision.verdict);
                    ops += 1;
                }
            }
            self.t.now += HOT_STEP_MS;
            if (b + 1) % (CLEAR_EVERY / BATCH) == 0 {
                self.t.kernel.clear_history();
            }
        }
        // Phase B: one call at a time; each call's latency is a sample.
        let mut requests = 0u64;
        for _ in 0..self.size.direct_batches {
            for i in 0..BATCH {
                match self.t.hot_event(i) {
                    (IngestEvent::Interaction { pid, at }, _) => {
                        self.t
                            .kernel
                            .record_interaction_direct(pid, at)
                            .expect("live task");
                    }
                    (IngestEvent::Request(r), grant) => {
                        let t0 = Instant::now();
                        let d = self.t.kernel.decide_direct(r.pid, r.at, r.op);
                        lat.record(t0.elapsed().as_nanos() as u64);
                        check_verdict(checks, r.pid, grant.expect("request"), black_box(d).verdict);
                        requests += 1;
                        if requests.is_multiple_of(ORACLE_EVERY) {
                            check_oracle(checks, &self.t.kernel, r.pid, r.op, r.at);
                        }
                        if requests.is_multiple_of(CLEAR_EVERY as u64) {
                            self.t.kernel.clear_history();
                        }
                    }
                }
            }
            self.t.now += HOT_STEP_MS;
        }
        Round { ops, busy }
    }
}

/// `decide_churn` round size.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSize {
    /// Tasks in the kernel.
    pub tasks: usize,
    /// Segments of 4096 requests (the ledger is cleared between them).
    pub segments: usize,
}

/// Recently refreshed tasks `decide_churn` forks children from.
const RING: usize = 32;

/// The decision layer used write-heavy: every request follows a state
/// change that defeats the verdict cache.
pub struct DecideChurn {
    t: Tasks,
    size: ChurnSize,
    ring: VecDeque<usize>,
}

impl Workload for DecideChurn {
    const NAME: &'static str = "decide_churn";
    const ROUNDS_PER_S: f64 = 23.0;
    const ROUNDS_ALIKE: bool = true;
    type Size = ChurnSize;

    fn full() -> ChurnSize {
        ChurnSize {
            tasks: 1_024,
            segments: 16,
        }
    }

    fn setup(seed: u64, size: ChurnSize) -> Self {
        DecideChurn {
            t: Tasks::boot(seed, size.tasks),
            size,
            ring: VecDeque::with_capacity(RING),
        }
    }

    fn round(&mut self, spans: &mut Spans, lat: &mut Histogram, checks: &mut Checks) -> Round {
        let mut busy = Duration::ZERO;
        let mut ops = 0u64;
        for _ in 0..self.size.segments {
            let span = spans.enter("kernel.churn_segment");
            for _ in 0..BATCH {
                self.t.now += 1;
                let now = self.t.now;
                let at = Timestamp::from_millis(now);
                let (k, fork) = match self.t.rng.range(0, 10) {
                    // A fresh interaction, then a request: a miss, granted.
                    0..=3 => {
                        let k = self.t.pick(Pool::Active);
                        self.t.last[k] = now;
                        if self.ring.len() == RING {
                            self.ring.pop_front();
                        }
                        self.ring.push_back(k);
                        (k, false)
                    }
                    // A short-lived child of a recently active task
                    // (granted, by inheritance) or of an idle one (denied).
                    4..=7 => {
                        let k = if !self.ring.is_empty() && self.t.rng.chance(0.75) {
                            self.ring[self.t.rng.range(0, self.ring.len() as u64) as usize]
                        } else {
                            self.t.pick(Pool::Idle)
                        };
                        (k, true)
                    }
                    // A late notice of an interaction still more than 2δ
                    // old: the task's epoch moves, so the request misses,
                    // and is denied.
                    _ => {
                        let k = self.t.pick(Pool::Idle);
                        self.t.last[k] += 1;
                        (k, false)
                    }
                };
                let grant = expected_grant(now - self.t.last[k]);
                let (task, op) = (self.t.pids[k], self.t.op_of[k]);
                let kernel = &mut self.t.kernel;
                let t0 = Instant::now();
                let pid = if fork {
                    kernel.sys_fork(task).expect("fork")
                } else {
                    let seen = Timestamp::from_millis(self.t.last[k]);
                    kernel
                        .record_interaction_direct(task, seen)
                        .expect("live task");
                    task
                };
                let t1 = Instant::now();
                let d = kernel.decide_direct(pid, at, op);
                let t2 = Instant::now();
                lat.record((t2 - t1).as_nanos() as u64);
                busy += t2 - t0;
                ops += 1;
                check_verdict(checks, pid, grant, d.verdict);
                if ops.is_multiple_of(ORACLE_EVERY) {
                    check_oracle(checks, kernel, pid, op, at);
                }
                if fork {
                    let t3 = Instant::now();
                    kernel.sys_exit(pid, 0).expect("exit");
                    kernel.sys_waitpid(task, pid).expect("reap");
                    busy += t3.elapsed();
                }
            }
            spans.exit(span, BATCH as u64);
            self.t.kernel.clear_history();
        }
        Round { ops, busy }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Sizes for smoke tests only.
    pub fn tiny_hot() -> HotSize {
        HotSize {
            tasks: 64,
            ingest_batches: 2,
            direct_batches: 1,
        }
    }

    /// Sizes for smoke tests only.
    pub fn tiny_churn() -> ChurnSize {
        ChurnSize {
            tasks: 64,
            segments: 1,
        }
    }

    #[test]
    fn model_follows_the_paper_rule() {
        assert!(expected_grant(0));
        assert!(expected_grant(DELTA_MS / 2));
        assert!(!expected_grant(2 * DELTA_MS + 1));
    }

    #[test]
    #[should_panic(expected = "inside (δ/2, 2δ]")]
    fn model_refuses_boundary_ages() {
        expected_grant(DELTA_MS);
    }

    #[test]
    fn a_flipped_verdict_is_counted() {
        let mut checks = Checks::default();
        check_verdict(&mut checks, Pid::INIT, true, Verdict::Grant);
        check_verdict(&mut checks, Pid::INIT, true, Verdict::Deny);
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert!(checks.first_failure.is_some());
    }

    #[test]
    fn hot_rounds_mostly_hit_and_churn_rounds_miss() {
        let mut hot = DecideHot::setup(7, tiny_hot());
        let mut checks = Checks::default();
        let mut lat = Histogram::default();
        hot.round(&mut Spans::off(), &mut lat, &mut checks);
        let s = hot.t.kernel.verdict_cache_stats();
        assert!(s.hits * 10 > (s.hits + s.misses) * 8, "{s:?}");

        let mut churn = DecideChurn::setup(7, tiny_churn());
        let before = churn.t.kernel.verdict_cache_stats();
        churn.round(&mut Spans::off(), &mut lat, &mut checks);
        let s = churn.t.kernel.verdict_cache_stats();
        assert_eq!(s.hits, before.hits, "churn requests never hit");
        assert_eq!(checks.failed, 0, "{:?}", checks.first_failure);
    }
}
