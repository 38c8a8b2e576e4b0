//! The repository benchmark.
//!
//! ```text
//! benchmark run --workload <name|all> --seed <u64> [--seconds <s>] [--trace [0|1]] [--out DIR]
//! benchmark compare PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]
//! ```
//!
//! `run` drives one workload (or all five) from outside the Overhaul
//! crates, timing only calls into their public functions, checks every
//! output it can, prints a table and, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Untraced runs
//! report the end-to-end metrics; `--trace` runs report the per-layer
//! ones: each workload's own, plus those of one layer probe per run.
//! `--seconds` sets the run length (default: `run_seconds` in
//! `BENCHMARK.json`, which harnesses reading that file pass explicitly).
//! With `--out DIR` it also writes the results (with quartiles and sample
//! counts) and, when traced, the spans. It exits non-zero when an output
//! check fails. See `README.md` for the metric dictionary.

mod compare;
mod hist;
mod json;
mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;

use report::{Metric, Outcome};
use spans::Spans;
use workloads::decide::{DecideChurn, DecideHot};
use workloads::fleet::Fleet;
use workloads::session::Session;
use workloads::table1::Table1;
use workloads::{measure, measure_traced, prepare, Checks, RunConfig, Workload};

/// Workload names, in run order for `--workload all`.
const WORKLOADS: [&str; 5] = ["decide_hot", "decide_churn", "table1", "session", "fleet"];

/// `--seconds` when not given: `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  benchmark run --workload <decide_hot|decide_churn|table1|session|fleet|all> --seed <u64>
                [--seconds <s>] [--trace [0|1]] [--out DIR]
  benchmark compare PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(opts) => run(&opts),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        },
        Some("compare") => compare::main(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Checked `run` options.
struct RunOpts {
    workloads: Vec<&'static str>,
    cfg: RunConfig,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                workload = Some(value(i)?.clone());
                i += 1;
            }
            "--seed" => {
                seed = value(i)?.parse().map_err(|_| "--seed takes a u64")?;
                i += 1;
            }
            "--seconds" => {
                seconds = value(i)?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3_600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    trace = true;
                    i += 1;
                }
                _ => trace = true,
            },
            "--out" => {
                out = Some(PathBuf::from(value(i)?));
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![*WORKLOADS
            .iter()
            .find(|w| **w == workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?]
    };
    Ok(RunOpts {
        workloads,
        cfg: RunConfig { seed, seconds },
        trace,
        out,
    })
}

/// Name under which the layer probe reports.
const PROBE: &str = "probe";

fn outcome(
    workload: &'static str,
    seed: u64,
    trace: bool,
    checks: Checks,
    metrics: Vec<Metric>,
) -> Outcome {
    Outcome {
        workload,
        seed,
        trace,
        attempted: checks.attempted,
        failed: checks.failed,
        first_failure: checks.first_failure,
        metrics,
    }
}

/// Measures one workload at `size`: the end-to-end metrics, or with
/// `trace` the per-layer ones the workload itself yields.
fn run_workload<W: Workload>(size: W::Size, cfg: &RunConfig, trace: bool) -> (Outcome, Spans) {
    let mut m = prepare::<W>(size, cfg);
    let mut spans = if trace { Spans::on() } else { Spans::off() };
    let metrics = if trace {
        measure_traced(&mut m, cfg, &mut spans)
    } else {
        measure(&mut m, cfg)
    };
    (outcome(W::NAME, cfg.seed, trace, m.checks, metrics), spans)
}

/// The layer probe. It does not depend on the workload, so a traced run
/// runs it once, whatever its workloads.
fn run_probe(seed: u64) -> (Outcome, Spans) {
    let mut spans = Spans::on();
    let mut checks = Checks::default();
    let metrics = layers::probe(seed, &mut spans, &mut checks);
    (outcome(PROBE, seed, true, checks, metrics), spans)
}

fn run_named(name: &str, cfg: &RunConfig, trace: bool) -> (Outcome, Spans) {
    match name {
        "decide_hot" => run_workload::<DecideHot>(DecideHot::full(), cfg, trace),
        "decide_churn" => run_workload::<DecideChurn>(DecideChurn::full(), cfg, trace),
        "table1" => run_workload::<Table1>(Table1::full(), cfg, trace),
        "session" => run_workload::<Session>(Session::full(), cfg, trace),
        "fleet" => run_workload::<Fleet>(Fleet::full(), cfg, trace),
        PROBE => run_probe(cfg.seed),
        other => unreachable!("workload names are checked at parse time: {other}"),
    }
}

/// Writes the results file (and the spans) under `dir`.
fn write_out(dir: &std::path::Path, o: &Outcome, spans: &Spans) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let tag = format!(
        "{}-{}{}",
        o.workload,
        o.seed,
        if o.trace { "-trace" } else { "" }
    );
    std::fs::write(dir.join(format!("results-{tag}.json")), o.results_json())?;
    if o.trace {
        std::fs::write(
            dir.join(format!("spans-{tag}.jsonl")),
            spans.to_jsonl(o.workload, o.seed),
        )?;
    }
    Ok(())
}

/// One outcome covering all of `outcomes`, for the result line. With
/// `prefix` (a run of several workloads) each workload's metrics are named
/// `<workload>/<metric>`; the probe's are never prefixed.
fn merge(outcomes: &[Outcome], prefix: bool) -> Outcome {
    Outcome {
        workload: "all",
        seed: outcomes[0].seed,
        trace: outcomes[0].trace,
        attempted: outcomes.iter().map(|o| o.attempted).sum(),
        failed: outcomes.iter().map(|o| o.failed).sum(),
        first_failure: outcomes.iter().find_map(|o| o.first_failure.clone()),
        metrics: outcomes
            .iter()
            .flat_map(|o| {
                o.metrics.iter().map(move |m| Metric {
                    name: if prefix && o.workload != PROBE {
                        format!("{}/{}", o.workload, m.name)
                    } else {
                        m.name.clone()
                    },
                    ..m.clone()
                })
            })
            .collect(),
    }
}

fn run(opts: &RunOpts) -> i32 {
    let probe = opts.trace.then_some(PROBE);
    let mut outcomes = Vec::new();
    for name in opts.workloads.iter().copied().chain(probe) {
        let (outcome, spans) = run_named(name, &opts.cfg, opts.trace);
        print!("{}", outcome.render());
        if let Some(dir) = &opts.out {
            if let Err(e) = write_out(dir, &outcome, &spans) {
                eprintln!("could not write results under {}: {e}", dir.display());
                return 1;
            }
        }
        outcomes.push(outcome);
    }
    println!(
        "{}",
        merge(&outcomes, opts.workloads.len() > 1).result_line()
    );
    i32::from(!outcomes.iter().all(Outcome::correct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workloads::{decide, fleet, session, table1};

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("valid BENCHMARK.json")
    }

    /// Names and units a section of `BENCHMARK.json` lists.
    fn listed(section: &str) -> Vec<(String, String)> {
        spec()
            .get(section)
            .and_then(Json::arr)
            .expect("section")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn reported(o: &Outcome) -> Vec<(String, String)> {
        let mut v: Vec<_> = o
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        v.sort();
        v
    }

    fn tiny_run<W: Workload>(size: W::Size, trace: bool) -> Outcome {
        let cfg = RunConfig {
            seed: 11,
            seconds: 0.01,
        };
        run_workload::<W>(size, &cfg, trace).0
    }

    #[test]
    fn every_workload_runs_at_a_tiny_size_and_reports_the_listed_metrics() {
        let mut e2e = listed("end_to_end");
        e2e.sort();
        let outcomes = [
            tiny_run::<DecideHot>(decide::tests::tiny_hot(), false),
            tiny_run::<DecideChurn>(decide::tests::tiny_churn(), false),
            tiny_run::<Table1>(table1::tests::tiny(), false),
            tiny_run::<Session>(session::tests::tiny(), false),
            tiny_run::<Fleet>(fleet::tests::tiny(), false),
        ];
        for o in &outcomes {
            assert!(o.correct(), "{}", o.render());
            assert!(o.attempted > 0);
            assert_eq!(reported(o), e2e, "{}", o.workload);
            assert!(o.metrics.iter().all(|m| m.value > 0.0), "{}", o.render());
        }
    }

    #[test]
    fn the_traced_run_reports_every_listed_per_layer_metric_once() {
        let mut per_layer = listed("per_layer");
        per_layer.sort();
        let hot = tiny_run::<DecideHot>(decide::tests::tiny_hot(), true);
        let churn = tiny_run::<DecideChurn>(decide::tests::tiny_churn(), true);
        let (probe, _) = run_probe(11);
        assert!(probe.correct(), "{}", probe.render());

        let one = merge(&[hot.clone(), probe.clone()], false);
        assert!(one.correct(), "{}", one.render());
        assert_eq!(reported(&one), per_layer);

        // Two workloads: their own metrics per workload, the probe's once.
        let two = merge(&[hot, churn, probe.clone()], true);
        let names: Vec<String> = reported(&two).into_iter().map(|(n, _)| n).collect();
        for m in &probe.metrics {
            assert_eq!(
                names.iter().filter(|n| **n == m.name).count(),
                1,
                "{}",
                m.name
            );
        }
        assert!(names.contains(&"decide_churn/bench.trace_overhead_pct".to_string()));
        assert_eq!(names.len(), probe.metrics.len() + 2 * 3);
    }

    #[test]
    fn run_length_is_a_round_count_not_a_clock() {
        let run_seconds = spec().get("run_seconds").and_then(Json::num);
        assert_eq!(
            run_seconds,
            Some(RUN_SECONDS),
            "the default matches BENCHMARK.json"
        );
        let cfg = |seconds| RunConfig { seed: 1, seconds };
        assert_eq!(cfg(RUN_SECONDS).rounds::<Session>(), 8);
        assert_eq!(cfg(2.0).rounds::<DecideHot>(), 22);
        assert_eq!(cfg(0.01).rounds::<Fleet>(), 3, "at least three rounds");
    }

    #[test]
    fn run_arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_run(&args("--workload fleet --seed 3 --seconds 2 --trace 1")).expect("valid");
        assert_eq!((o.workloads, o.cfg.seed, o.trace), (vec!["fleet"], 3, true));
        assert_eq!(o.cfg.seconds, 2.0);
        let o = parse_run(&args("--trace 0 --workload all")).expect("valid");
        assert!(!o.trace && o.workloads.len() == 5);
        assert_eq!(o.cfg.seconds, RUN_SECONDS);
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload fleet --seed x",
            "--workload fleet --seconds 0",
            "--workload fleet --bogus",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad}");
        }
    }
}
