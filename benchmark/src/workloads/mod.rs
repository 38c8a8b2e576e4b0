//! The five workloads and the loop that measures them.
//!
//! Every workload is a single-threaded closed loop (a mediated call blocks
//! its caller until decided), except `fleet`, whose pool uses at most two
//! worker threads. A workload runs in fixed-size rounds, and a run runs a
//! fixed number of them (`--seconds` × the workload's `ROUNDS_PER_S`), so
//! both commits of a comparison do the same work. Metrics summarise the
//! rounds: their fast end when every round does the same work, their
//! median otherwise (`Workload::ROUNDS_ALIKE`).

pub mod decide;
pub mod fleet;
pub mod session;
pub mod table1;

use std::time::{Duration, Instant};

use crate::hist::Histogram;
use crate::report::Metric;
use crate::spans::Spans;
use crate::stats::{quantile, quartiles};

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed rounds per run, at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// What a run of alike rounds reports: the upper decile of the rounds'
/// rates, and the lower decile of their median latencies.
const FAST_RATE_Q: f64 = 0.9;
const FAST_LATENCY_Q: f64 = 0.1;

/// Output checks: every checked output counts as attempted, every wrong
/// one as failed.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong.
    pub failed: u64,
    /// The first wrong output, described.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Counts one checked output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }
}

/// What one round did: `ops` workload operations in `busy` wall time.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Operations completed.
    pub ops: u64,
    /// Wall time the operations took. Output checks are left out, except
    /// `fleet`'s triple replays, which are part of what a soak does.
    pub busy: Duration,
}

impl Round {
    /// Operations per second.
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.busy.as_secs_f64()
    }
}

/// One workload.
pub trait Workload: Sized {
    /// Name on the command line.
    const NAME: &'static str;
    /// Timed rounds per second of `--seconds`. A constant, not a clock, so
    /// a faster commit runs the same rounds; set from the round time of
    /// `full()` on a 2-vCPU VM, so a run lasts about `--seconds` there.
    const ROUNDS_PER_S: f64;
    /// Whether every round does the same work. Alike rounds differ only by
    /// how much other tenants of a shared host slowed them, which comes in
    /// bursts of a second or more and only ever slows a round, so a run
    /// reports its fast rounds (`FAST_RATE_Q`, `FAST_LATENCY_Q`): the speed
    /// the code reaches when the host leaves it alone. Rounds that differ
    /// in work (a new fleet each round) are summarised by their median.
    const ROUNDS_ALIKE: bool;
    /// Round size.
    type Size: Copy;
    /// The size the command line runs.
    fn full() -> Self::Size;
    /// Builds the fixtures and inputs from `seed`.
    fn setup(seed: u64, size: Self::Size) -> Self;
    /// Runs one round: records each operation's latency (nanoseconds) in
    /// `lat`, checks outputs into `checks`, and opens spans around layer
    /// calls when `spans` is on.
    fn round(&mut self, spans: &mut Spans, lat: &mut Histogram, checks: &mut Checks) -> Round;
}

/// Run settings from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Run length: the run times `seconds × ROUNDS_PER_S` rounds.
    pub seconds: f64,
}

impl RunConfig {
    /// Timed rounds of `W` in this run.
    pub fn rounds<W: Workload>(&self) -> usize {
        ((self.seconds * W::ROUNDS_PER_S).round() as usize).max(MIN_ROUNDS)
    }
}

/// A measured run.
pub struct Measured<W> {
    /// The workload after its last round.
    pub workload: W,
    /// Output checks over every round, warm-up included.
    pub checks: Checks,
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
}

/// Sets the workload up `SETUPS` times, keeping the last. A set-up builds
/// the fixtures and inputs from the seed and runs one untimed warm-up
/// round, so caches fill and lazy set-up finishes before timing; `setup_s`
/// covers both.
pub fn prepare<W: Workload>(size: W::Size, cfg: &RunConfig) -> Measured<W> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut checks = Checks::default();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        let mut w = W::setup(cfg.seed, size);
        w.round(&mut Spans::off(), &mut Histogram::default(), &mut checks);
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some(w);
    }
    Measured {
        workload: built.expect("at least one set-up"),
        checks,
        setup_s,
    }
}

/// The untraced run. Returns the end-to-end metrics.
pub fn measure<W: Workload>(m: &mut Measured<W>, cfg: &RunConfig) -> Vec<Metric> {
    let (rate_q, latency_q) = if W::ROUNDS_ALIKE {
        (FAST_RATE_Q, FAST_LATENCY_Q)
    } else {
        (0.5, 0.5)
    };
    let mut rates = Vec::new();
    let mut p50s_us = Vec::new();
    for _ in 0..cfg.rounds::<W>() {
        let mut lat = Histogram::default();
        let r = m.workload.round(&mut Spans::off(), &mut lat, &mut m.checks);
        rates.push(r.rate());
        p50s_us.push(lat.quantile(0.5).unwrap_or(f64::NAN) / 1_000.0);
    }
    vec![
        Metric::of_samples("setup_s", "s", &m.setup_s),
        Metric::at_quantile("ops_per_s", "1/s", &rates, rate_q),
        Metric::at_quantile("op_p50_us", "us", &p50s_us, latency_q),
    ]
}

/// The traced run's workload part: as many rounds as the untraced run, as
/// pairs of an untraced and a traced round, alternating which goes first.
/// Returns the per-layer metrics the workload itself yields, and leaves its
/// spans in `spans`.
pub fn measure_traced<W: Workload>(
    m: &mut Measured<W>,
    cfg: &RunConfig,
    spans: &mut Spans,
) -> Vec<Metric> {
    let mut lat = Histogram::default();
    let mut scratch = Histogram::default();
    let mut overheads = Vec::new();
    for pair in 0..cfg.rounds::<W>().div_ceil(2) {
        let traced_first = pair % 2 == 1;
        let mut bare = None;
        let mut traced = None;
        for traced_turn in [traced_first, !traced_first] {
            if traced_turn {
                traced = Some(m.workload.round(spans, &mut scratch, &mut m.checks));
            } else {
                bare = Some(m.workload.round(&mut Spans::off(), &mut lat, &mut m.checks));
            }
        }
        let (bare, traced) = (bare.expect("ran"), traced.expect("ran"));
        overheads.push((bare.rate() / traced.rate() - 1.0) * 100.0);
    }
    vec![
        Metric::of_samples("bench.trace_overhead_pct", "%", &overheads),
        Metric::of_quantile("workload.op_p99_us", &lat, 0.99),
        Metric::single("workload.op_samples", "count", lat.count() as f64),
    ]
}

impl Metric {
    /// A metric summarising repeated samples by their median, with their
    /// quartiles and count.
    pub fn of_samples(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::at_quantile(name, unit, samples, 0.5)
    }

    /// A metric summarising repeated samples by their `q`-quantile, with
    /// their quartiles and count.
    pub fn at_quantile(name: &str, unit: &'static str, samples: &[f64], q: f64) -> Metric {
        let (q1, _, q3) = quartiles(samples);
        Metric {
            name: name.into(),
            unit,
            value: quantile(samples, q),
            q1,
            q3,
            n: samples.len() as u64,
        }
    }

    /// A latency quantile of `lat` (nanoseconds), reported in µs, with the
    /// histogram's quartiles beside it.
    pub fn of_quantile(name: &str, lat: &Histogram, q: f64) -> Metric {
        let us = |q: f64| lat.quantile(q).unwrap_or(f64::NAN) / 1_000.0;
        Metric {
            name: name.into(),
            unit: "us",
            value: us(q),
            q1: us(0.25),
            q3: us(0.75),
            n: lat.count(),
        }
    }
}
