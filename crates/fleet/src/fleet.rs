//! The fleet: a worker pool of supervised shards plus aggregation.
//!
//! [`run_fleet`] derives one decorrelated [`ShardPlan`] per shard index,
//! runs them on a named worker pool, supervises wall-clock progress
//! (cancelling shards whose heartbeat stalls), enforces a failure budget
//! (past it the fleet stops claiming new shards instead of aborting),
//! shrinks every failure triple on the worker that found it, and merges
//! per-shard Prometheus pages into a single fleet registry with
//! shard/failure counters on top.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use overhaul_apps::campaign::DefenseMatrix;
use overhaul_sim::{label_metric, LedgerSummary, MetricsRegistry, SketchBook};

use crate::archive::ShardArchive;
use crate::schedule::{FleetWorkload, ShardPlan};
use crate::shard::{quiet_injected_panics, run_shard, ShardBeat, ShardOutcome, ShardReport};
use crate::shrink::{shrink_triple, ShrinkReport};

/// Fleet-level knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Master seed every shard seed streams from.
    pub master_seed: u64,
    /// Number of shards to run.
    pub shards: usize,
    /// Worker threads (`0` = one per available core, capped at 16).
    pub workers: usize,
    /// Per-shard workload shape.
    pub workload: FleetWorkload,
    /// Failures tolerated before the fleet degrades (stops claiming new
    /// shards). Shards already running still finish and report.
    pub failure_budget: usize,
    /// Whether to shrink failure triples (each on the worker that found
    /// it).
    pub shrink: bool,
    /// Replay budget per shrink.
    pub shrink_replays: usize,
    /// Supervisor poll interval.
    pub stall_poll: Duration,
    /// Wall time without heartbeat progress before a shard is cancelled.
    pub stall_timeout: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            master_seed: 0,
            shards: 256,
            workers: 0,
            workload: FleetWorkload::default(),
            failure_budget: 64,
            shrink: true,
            shrink_replays: 200,
            stall_poll: Duration::from_millis(20),
            stall_timeout: Duration::from_millis(400),
        }
    }
}

impl FleetConfig {
    fn worker_count(&self) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16);
        let chosen = if self.workers == 0 {
            auto
        } else {
            self.workers
        };
        chosen.clamp(1, self.shards.max(1))
    }
}

/// What a whole fleet run produced.
#[derive(Debug)]
pub struct FleetReport {
    /// Shards requested.
    pub shards: usize,
    /// Shards that completed cleanly (self-replay verified).
    pub ok: usize,
    /// Shards that failed (each carries a triple below).
    pub failed: usize,
    /// Shards never started because the failure budget ran out.
    pub skipped: usize,
    /// Whether the failure budget was exhausted.
    pub degraded: bool,
    /// Every failure, shrunk (or passed through when shrinking is off or
    /// inapplicable), sorted by shard index.
    pub failures: Vec<ShrinkReport>,
    /// Events applied across all shards.
    pub events_total: u64,
    /// Virtual milliseconds simulated across all shards.
    pub sim_ms_total: u64,
    /// Merged fleet metrics (per-shard registries + fleet counters).
    pub metrics: MetricsRegistry,
    /// Defense matrix aggregated over every completed campaign.
    pub matrix: DefenseMatrix,
    /// Shards whose scheduled campaign ran to completion.
    pub campaign_shards: usize,
    /// Per-shard sketch books merged in canonical (shard index) order.
    /// The deterministic plane of this book is byte-identical across two
    /// same-master-seed runs ([`SketchBook::canonical_bytes`]).
    pub sketches: SketchBook,
    /// Per-shard kernel-ledger digests, sorted by shard index — the
    /// cross-shard ledger aggregation/diff view.
    pub ledgers: Vec<(usize, LedgerSummary)>,
    /// One replayable archive per clean shard (log, last-good snapshot,
    /// and sketches), sorted by shard index; `fleet_soak --out` persists
    /// these for `ovq` exemplar forensics.
    pub archives: Vec<ShardArchive>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

impl FleetReport {
    /// The fleet Prometheus page.
    pub fn render_metrics(&self) -> String {
        self.metrics.render()
    }

    /// Shards simulated per wall-clock second.
    pub fn shards_per_sec(&self) -> f64 {
        self.shards_attempted() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Virtual machine-hours simulated per wall-clock hour (the fleet's
    /// time-compression factor).
    pub fn machine_hours_per_wall_hour(&self) -> f64 {
        (self.sim_ms_total as f64 / 3_600_000.0) / (self.wall.as_secs_f64() / 3_600.0).max(1e-12)
    }

    fn shards_attempted(&self) -> usize {
        self.ok + self.failed
    }

    /// Renders the fleet's merged per-mechanism wall-latency percentile
    /// table (what `fleet_soak` prints).
    pub fn render_latency(&self) -> String {
        self.sketches.render_table()
    }

    /// How many distinct kernel-ledger chain heads the fleet produced.
    /// Shards run decorrelated seeds, so heads are normally all distinct;
    /// a *collision* here means two different shards recorded
    /// byte-identical histories.
    pub fn distinct_ledger_heads(&self) -> usize {
        let mut heads: Vec<u64> = self.ledgers.iter().map(|(_, l)| l.head).collect();
        heads.sort_unstable();
        heads.dedup();
        heads.len()
    }
}

/// Runs the whole fleet and aggregates. See [`FleetConfig`] for knobs.
pub fn run_fleet(config: &FleetConfig) -> FleetReport {
    quiet_injected_panics();
    let start = Instant::now();

    let plans: Vec<ShardPlan> = (0..config.shards)
        .map(|i| ShardPlan::derive(config.master_seed, i, &config.workload))
        .collect();
    let beats: Vec<Arc<ShardBeat>> = (0..config.shards)
        .map(|_| Arc::new(ShardBeat::new()))
        .collect();

    let next = AtomicUsize::new(0);
    let failures_seen = AtomicUsize::new(0);
    // Each worker holds a sender and nothing is ever sent: the channel
    // disconnects when the last worker exits (or unwinds), which wakes
    // the supervisor at once instead of after its next poll.
    let (worker_alive, workers_done) = mpsc::channel::<()>();
    let degraded = AtomicBool::new(false);
    // Each failed shard's triple comes with its shrink, done on the
    // worker while the other workers keep running shards.
    let reports: Mutex<Vec<(ShardReport, Option<ShrinkReport>)>> =
        Mutex::new(Vec::with_capacity(config.shards));

    std::thread::scope(|s| {
        for w in 0..config.worker_count() {
            let plans = &plans;
            let beats = &beats;
            let next = &next;
            let failures_seen = &failures_seen;
            let worker_alive = worker_alive.clone();
            let degraded = &degraded;
            let reports = &reports;
            std::thread::Builder::new()
                // The "overhaul-shard-" prefix opts these threads into the
                // quiet panic hook: contained shard panics do not spew.
                .name(format!("overhaul-shard-worker-{w}"))
                .spawn_scoped(s, move || {
                    let _alive = worker_alive;
                    loop {
                        if failures_seen.load(Ordering::Relaxed) >= config.failure_budget {
                            degraded.store(true, Ordering::Relaxed);
                            break;
                        }
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= plans.len() {
                            break;
                        }
                        let report = run_shard(&plans[idx], &beats[idx]);
                        let shrunk = match &report.outcome {
                            ShardOutcome::Ok { .. } => None,
                            ShardOutcome::Failed(triple) => {
                                failures_seen.fetch_add(1, Ordering::Relaxed);
                                config
                                    .shrink
                                    .then(|| shrink_triple(triple, config.shrink_replays))
                            }
                        };
                        reports.lock().unwrap().push((report, shrunk));
                    }
                })
                .expect("spawn fleet worker");
        }
        drop(worker_alive);

        // The calling thread is the wall-clock supervisor: any active
        // shard whose heartbeat does not move for `stall_timeout` gets a
        // cancel (the spin chaos op, or a genuinely wedged shard).
        let mut last_seen: Vec<(u64, Instant)> = beats
            .iter()
            .map(|b| (b.progress(), Instant::now()))
            .collect();
        while workers_done.recv_timeout(config.stall_poll) != Err(RecvTimeoutError::Disconnected) {
            let now = Instant::now();
            for (i, beat) in beats.iter().enumerate() {
                if !beat.is_active() {
                    last_seen[i] = (beat.progress(), now);
                    continue;
                }
                let progress = beat.progress();
                if progress != last_seen[i].0 {
                    last_seen[i] = (progress, now);
                } else if now.duration_since(last_seen[i].1) >= config.stall_timeout {
                    beat.request_cancel();
                }
            }
        }
    });

    let mut reports = reports.into_inner().unwrap();
    reports.sort_by_key(|(r, _)| r.index);

    let mut metrics = MetricsRegistry::new();
    let mut failures = Vec::new();
    let mut ok = 0usize;
    let mut events_total = 0u64;
    let mut sim_ms_total = 0u64;
    let mut matrix = DefenseMatrix::new();
    let mut campaign_shards = 0usize;
    // Reports are index-sorted above, so the sketch merge order is
    // canonical: two same-master-seed runs merge the same books in the
    // same order and produce byte-identical deterministic planes (the
    // merge is order-independent anyway; sorting makes it auditable).
    let mut sketches = SketchBook::new();
    let mut ledgers: Vec<(usize, LedgerSummary)> = Vec::with_capacity(reports.len());
    let mut archives: Vec<ShardArchive> = Vec::new();
    let attempted = reports.len();
    for (report, shrunk) in reports {
        metrics.merge(&report.metrics);
        sketches.merge(&report.sketches);
        ledgers.push((report.index, report.ledger.clone()));
        events_total += report.events as u64;
        sim_ms_total += report.sim_ms;
        if let Some(campaign) = &report.campaign {
            matrix.absorb(campaign);
            campaign_shards += 1;
        }
        match report.outcome {
            ShardOutcome::Ok { .. } => {
                ok += 1;
                if let (Some(log), Some(snapshot)) = (report.log, report.snapshot) {
                    archives.push(ShardArchive {
                        index: report.index,
                        seed: report.seed,
                        sketches: report.sketches,
                        ledger: report.ledger,
                        log,
                        snap_idx: report.snap_idx,
                        snapshot,
                    });
                }
            }
            ShardOutcome::Failed(triple) => {
                failures.push(shrunk.unwrap_or_else(|| ShrinkReport::unshrunk(*triple)));
            }
        }
    }
    let failed = failures.len();
    let skipped = config.shards - attempted;
    let degraded = degraded.into_inner() || skipped > 0;

    metrics.set_counter("overhaul_fleet_shards_total", config.shards as u64);
    metrics.set_counter("overhaul_fleet_shards_ok_total", ok as u64);
    metrics.set_counter("overhaul_fleet_shards_failed_total", failed as u64);
    metrics.set_counter("overhaul_fleet_shards_skipped_total", skipped as u64);
    metrics.set_counter("overhaul_fleet_events_total", events_total);
    metrics.set_counter("overhaul_fleet_sim_ms_total", sim_ms_total);
    metrics.set_counter(
        "overhaul_fleet_campaign_shards_total",
        campaign_shards as u64,
    );
    metrics.set_counter(
        "overhaul_fleet_campaign_regressions_total",
        matrix.regressions() as u64,
    );
    metrics.set_gauge("overhaul_fleet_degraded", i64::from(degraded));
    for shrunk in &failures {
        metrics.add_counter(
            &label_metric(
                "overhaul_fleet_failures_total",
                "kind",
                shrunk.triple.kind.label(),
            ),
            1,
        );
    }

    // The observability plane on the merged Prometheus page: wall-latency
    // quantiles and sample counts per mechanism, plus the cross-shard
    // ledger view (per-shard chain heads, entry counts, effect classes).
    for mech in sketches.recorded() {
        let sketch = sketches.wall_merged(&[mech]);
        for (label, q) in overhaul_sim::FLEET_QUANTILES {
            metrics.set_gauge(
                &format!(
                    "overhaul_fleet_latency_ns{{mech=\"{}\",q=\"{label}\"}}",
                    mech.label()
                ),
                sketch.quantile(q) as i64,
            );
        }
        metrics.set_counter(
            &label_metric("overhaul_fleet_latency_samples_total", "mech", mech.label()),
            sketch.count(),
        );
    }
    let mut ledger_entries = 0u64;
    for (index, summary) in &ledgers {
        ledger_entries += summary.entries;
        metrics.set_gauge(
            &label_metric("overhaul_fleet_ledger_head", "shard", &index.to_string()),
            // Chain heads are opaque 64-bit seals; the page carries the
            // low 63 bits (gauges are signed).
            (summary.head & (i64::MAX as u64)) as i64,
        );
        for (class, count) in &summary.effects {
            metrics.add_counter(
                &label_metric(
                    "overhaul_fleet_ledger_effects_total",
                    "class",
                    overhaul_sim::Effect::class_label(*class),
                ),
                *count,
            );
        }
    }
    metrics.set_counter("overhaul_fleet_ledger_entries_total", ledger_entries);
    let mut report = FleetReport {
        shards: config.shards,
        ok,
        failed,
        skipped,
        degraded,
        failures,
        events_total,
        sim_ms_total,
        metrics,
        matrix,
        campaign_shards,
        sketches,
        ledgers,
        archives,
        wall: start.elapsed(),
    };
    let distinct = report.distinct_ledger_heads();
    report
        .metrics
        .set_gauge("overhaul_fleet_ledger_heads_distinct", distinct as i64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::replay_triple;
    use crate::schedule::ChaosSpec;

    #[test]
    fn small_clean_fleet_all_ok() {
        let config = FleetConfig {
            master_seed: 7,
            shards: 8,
            workload: FleetWorkload {
                steps: 40,
                ..FleetWorkload::default()
            },
            ..FleetConfig::default()
        };
        let report = run_fleet(&config);
        assert_eq!(report.ok, 8, "failures: {:?}", report.failures);
        assert_eq!(report.failed, 0);
        assert_eq!(report.skipped, 0);
        assert!(!report.degraded);
        assert_eq!(report.metrics.counter("overhaul_fleet_shards_ok_total"), 8);
        assert!(report.events_total > 0);
        // Merged per-shard kernel counters survive into the fleet page.
        assert!(
            report
                .metrics
                .counter("overhaul_monitor_notifications_total")
                > 0
        );
        assert!(report
            .render_metrics()
            .contains("overhaul_fleet_shards_total 8"));
    }

    #[test]
    fn chaotic_fleet_contains_failures_and_every_triple_replays() {
        let config = FleetConfig {
            master_seed: 42,
            shards: 24,
            workload: FleetWorkload {
                steps: 50,
                chaos: ChaosSpec {
                    panic_p: 0.3,
                    stall_p: 0.2,
                    spin_p: 0.0,
                    fault_intensity: 0.5,
                },
                ..FleetWorkload::default()
            },
            shrink_replays: 40,
            ..FleetConfig::default()
        };
        let report = run_fleet(&config);
        assert!(report.failed > 0, "chaos fleet produced no failures");
        assert_eq!(report.ok + report.failed + report.skipped, report.shards);
        for shrunk in &report.failures {
            let repro = replay_triple(&shrunk.triple);
            assert!(
                repro.is_reproduced(),
                "shard {} triple did not reproduce: {repro:?}",
                shrunk.triple.index
            );
        }
    }

    #[test]
    fn campaign_fleet_aggregates_a_defense_matrix() {
        let config = FleetConfig {
            master_seed: 77,
            shards: 12,
            workload: FleetWorkload {
                steps: 40,
                campaign_p: 1.0,
                ..FleetWorkload::default()
            },
            ..FleetConfig::default()
        };
        let report = run_fleet(&config);
        assert_eq!(report.failed, 0, "failures: {:?}", report.failures);
        assert!(
            report.campaign_shards >= 10,
            "campaign_p=1.0 should complete campaigns on almost every shard"
        );
        assert_eq!(report.matrix.regressions(), 0);
        assert!(report.matrix.bypasses() > 0, "{}", report.matrix.render());
        assert_eq!(
            report
                .metrics
                .counter("overhaul_fleet_campaign_shards_total"),
            report.campaign_shards as u64
        );
    }

    #[test]
    fn failure_budget_degrades_gracefully() {
        let config = FleetConfig {
            master_seed: 9,
            shards: 16,
            workers: 2,
            failure_budget: 2,
            shrink: false,
            workload: FleetWorkload {
                steps: 30,
                chaos: ChaosSpec {
                    panic_p: 1.0, // every shard panics
                    stall_p: 0.0,
                    spin_p: 0.0,
                    fault_intensity: 0.0,
                },
                ..FleetWorkload::default()
            },
            ..FleetConfig::default()
        };
        let report = run_fleet(&config);
        assert!(report.degraded, "budget of 2 with all-panic shards");
        assert!(report.skipped > 0, "degraded fleet must skip shards");
        assert!(report.failed >= 2);
        assert_eq!(report.metrics.gauge("overhaul_fleet_degraded"), 1);
        assert_eq!(report.ok + report.failed + report.skipped, report.shards);
    }
}
