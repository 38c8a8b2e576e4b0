//! `benchmark compare PARENT_DIR CHANGE_DIR`: judges a change against its
//! parent from saved untraced results.
//!
//! Runs are paired by workload and seed. For every end-to-end metric in
//! `BENCHMARK.json` and every workload, a change is:
//!
//! - *better* when it wins at least nine of ten pairs (ties count for
//!   neither side) and its median beats the parent's by more than the
//!   parent's interquartile distance;
//! - *unresolved* when the parent's own runs spread wider than the
//!   metric's bound, unless every change run beats every parent run;
//! - *worse* when its median is worse than the parent's by more than the
//!   bound;
//! - *no worse* otherwise.
//!
//! A pairing with fewer than ten pairs is unresolved. A rising error rate
//! (failed ÷ attempted over all runs of a workload) is worse.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::stats::{median, quartiles};

/// Pairs a claim needs.
const MIN_PAIRS: usize = 10;

/// The judgement on one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    /// Improved by the rule above.
    Better,
    /// Within the bound.
    NoWorse,
    /// Worse by more than the bound.
    Worse,
    /// The spread or the pair count does not allow a judgement.
    Unresolved,
}

impl Judgement {
    fn label(self) -> &'static str {
        match self {
            Judgement::Better => "better",
            Judgement::NoWorse => "no worse",
            Judgement::Worse => "worse",
            Judgement::Unresolved => "unresolved",
        }
    }
}

/// How a metric is judged.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Judges paired samples (`parent[i]` and `change[i]` share a seed).
pub fn judge(parent: &[f64], change: &[f64], rule: Rule) -> Judgement {
    let n = parent.len().min(change.len());
    if n < MIN_PAIRS {
        return Judgement::Unresolved;
    }
    let (parent, change) = (&parent[..n], &change[..n]);
    // Positive = the change is better.
    let gain = |p: f64, c: f64| if rule.higher_is_better { c - p } else { p - c };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| gain(**p, **c) > 0.0)
        .count();
    let (q1, pm, q3) = quartiles(parent);
    let improvement = gain(pm, median(change));
    if wins * 10 >= 9 * n && improvement > q3 - q1 {
        return Judgement::Better;
    }
    let worst_change = change
        .iter()
        .map(|&c| gain(0.0, c))
        .fold(f64::INFINITY, f64::min);
    let best_parent = parent
        .iter()
        .map(|&p| gain(0.0, p))
        .fold(f64::NEG_INFINITY, f64::max);
    if (q3 - q1) / pm.abs() > rule.bound && worst_change <= best_parent {
        return Judgement::Unresolved;
    }
    if -improvement > rule.bound * pm.abs() {
        Judgement::Worse
    } else {
        Judgement::NoWorse
    }
}

/// Judges error rates: any rise is worse.
pub fn judge_errors(parent: (u64, u64), change: (u64, u64)) -> Judgement {
    let rate = |(failed, attempted): (u64, u64)| failed as f64 / attempted.max(1) as f64;
    if rate(change) > rate(parent) {
        Judgement::Worse
    } else {
        Judgement::NoWorse
    }
}

/// One saved untraced run.
struct Run {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs in `dir`, by workload, then seed.
fn load(dir: &Path) -> Result<BTreeMap<String, BTreeMap<u64, Run>>, String> {
    let mut out: BTreeMap<String, BTreeMap<u64, Run>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if v.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::num)
                .ok_or(format!("{}: no {k}", path.display()))
        };
        let workload = v
            .get("workload")
            .and_then(Json::str)
            .ok_or(format!("{}: no workload", path.display()))?;
        let metrics = v
            .get("metrics")
            .and_then(Json::obj)
            .ok_or(format!("{}: no metrics", path.display()))?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.num()?)))
            .collect();
        out.entry(workload.to_string()).or_default().insert(
            field("seed")? as u64,
            Run {
                attempted: field("attempted")? as u64,
                failed: field("failed")? as u64,
                metrics,
            },
        );
    }
    Ok(out)
}

/// The end-to-end rules in `BENCHMARK.json`.
fn rules(spec: &Path) -> Result<Vec<(String, Rule)>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    v.get("end_to_end")
        .and_then(Json::arr)
        .ok_or("no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Json::str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Json::num)
                .ok_or("metric without bound")?;
            Ok((
                name.to_string(),
                Rule {
                    higher_is_better: better == "higher",
                    bound,
                },
            ))
        })
        .collect()
}

/// Runs the subcommand; returns the exit code (1 when anything is worse).
pub fn main(args: &[String]) -> i32 {
    let mut dirs = Vec::new();
    let mut spec = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => match it.next() {
                Some(p) => spec = p.clone(),
                None => return usage(),
            },
            _ => dirs.push(a.clone()),
        }
    }
    let [parent_dir, change_dir] = dirs.as_slice() else {
        return usage();
    };
    let loaded = rules(Path::new(&spec)).and_then(|r| {
        Ok((
            r,
            load(Path::new(parent_dir))?,
            load(Path::new(change_dir))?,
        ))
    });
    let (rules, parent, change) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let mut any_worse = false;
    println!(
        "{:<14} {:<12} {:>5} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            continue;
        };
        let seeds: Vec<u64> = p_runs
            .keys()
            .filter(|s| c_runs.contains_key(s))
            .copied()
            .collect();
        for (name, rule) in &rules {
            let values = |runs: &BTreeMap<u64, Run>| -> Vec<f64> {
                seeds
                    .iter()
                    .filter_map(|s| runs[s].metrics.get(name).copied())
                    .collect()
            };
            let (p, c) = (values(p_runs), values(c_runs));
            if p.is_empty() || c.is_empty() || p.len() != c.len() {
                continue;
            }
            let verdict = judge(&p, &c, *rule);
            any_worse |= verdict == Judgement::Worse;
            let wins = p
                .iter()
                .zip(&c)
                .filter(|(p, c)| if rule.higher_is_better { c > p } else { c < p })
                .count();
            let fmt = |v: &[f64]| {
                let (q1, m, q3) = quartiles(v);
                format!("{m:.6} [{q1:.6}, {q3:.6}]")
            };
            println!(
                "{:<14} {:<12} {:>5} {:>34} {:>34} {:>3}/{:<2}  {}",
                workload,
                name,
                p.len(),
                fmt(&p),
                fmt(&c),
                wins,
                p.len(),
                verdict.label()
            );
        }
        let errors = |runs: &BTreeMap<u64, Run>| {
            seeds.iter().fold((0, 0), |(f, a), s| {
                (f + runs[s].failed, a + runs[s].attempted)
            })
        };
        let (pe, ce) = (errors(p_runs), errors(c_runs));
        let verdict = judge_errors(pe, ce);
        any_worse |= verdict == Judgement::Worse;
        println!(
            "{:<14} {:<12} {:>5} {:>34} {:>34} {:>6}  {}",
            workload,
            "error_rate",
            seeds.len(),
            format!("{}/{}", pe.0, pe.1),
            format!("{}/{}", ce.0, ce.1),
            "",
            verdict.label()
        );
    }
    i32::from(any_worse)
}

fn usage() -> i32 {
    eprintln!("usage: benchmark compare PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: Rule = Rule {
        higher_is_better: true,
        bound: 0.10,
    };

    fn parent() -> Vec<f64> {
        vec![
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
        ]
    }

    #[test]
    fn nine_wins_of_ten_with_a_clear_gap_is_better() {
        let mut change: Vec<f64> = parent().iter().map(|p| p * 1.05).collect();
        change[3] = 99.0;
        assert_eq!(judge(&parent(), &change, HIGHER), Judgement::Better);
    }

    #[test]
    fn eight_wins_of_ten_is_not_a_gain() {
        let mut change: Vec<f64> = parent().iter().map(|p| p * 1.05).collect();
        change[3] = 99.0;
        change[7] = 99.0;
        assert_eq!(judge(&parent(), &change, HIGHER), Judgement::NoWorse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        // Parent quartiles 80..120 (40% of the median), change shifted down
        // but overlapping: neither a gain nor a regression can be told.
        let parent = [
            60.0, 80.0, 90.0, 120.0, 100.0, 140.0, 75.0, 110.0, 95.0, 130.0,
        ];
        let change: Vec<f64> = parent.iter().map(|p| p * 0.85).collect();
        assert_eq!(judge(&parent, &change, HIGHER), Judgement::Unresolved);
    }

    #[test]
    fn a_median_beyond_the_bound_is_worse_and_too_few_pairs_unresolved() {
        let change: Vec<f64> = parent().iter().map(|p| p * 0.8).collect();
        assert_eq!(judge(&parent(), &change, HIGHER), Judgement::Worse);
        let lower = Rule {
            higher_is_better: false,
            ..HIGHER
        };
        assert_eq!(judge(&parent(), &change, lower), Judgement::Better);
        assert_eq!(
            judge(&parent()[..9], &change[..9], HIGHER),
            Judgement::Unresolved
        );
    }

    #[test]
    fn a_rising_error_rate_is_worse() {
        assert_eq!(judge_errors((0, 1_000), (1, 1_000)), Judgement::Worse);
        assert_eq!(judge_errors((0, 1_000), (0, 2_000)), Judgement::NoWorse);
    }
}
