//! Diffs a fresh `BENCH_*.json` artifact against a committed baseline.
//!
//! ```text
//! bench_diff <baseline.json> <current.json> <key>[:lower|:higher][:threshold_pct]|<key>:eq ...
//! ```
//!
//! Each checked key names one numeric field present in both files. The
//! direction says which way "better" points: `lower` (the default, for
//! per-op nanoseconds) or `higher` (for speedup ratios). A key regresses
//! when it moves in the *worse* direction by more than the threshold
//! (default 20%), in which case the tool prints the offending key and
//! exits non-zero. CI's one such gate is the fleet soak's throughput;
//! speed is otherwise judged by `benchmark compare` on one runner. `eq`
//! takes no threshold: any difference fails, in either direction. It
//! gates seeded counts, which a correct change leaves exactly as they
//! are.
//!
//! The parser is hand-rolled for the flat artifact format
//! ([`overhaul_sim::BenchArtifact`]): one JSON object, string keys,
//! scalar values. It is not a general JSON parser and does not try to be.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Default allowed regression before the diff fails, in percent.
const DEFAULT_THRESHOLD_PCT: f64 = 20.0;

/// Which direction counts as an improvement for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    /// Smaller numbers are better (latencies, sizes).
    Lower,
    /// Larger numbers are better (ratios, throughputs).
    Higher,
    /// Only the baseline's value is right (seeded counts).
    Equal,
}

/// One `key[:direction][:threshold]` check from the command line.
#[derive(Debug, Clone, PartialEq)]
struct Check {
    key: String,
    better: Better,
    threshold_pct: f64,
}

fn parse_check(spec: &str) -> Result<Check, String> {
    let mut parts = spec.split(':');
    let key = parts
        .next()
        .filter(|k| !k.is_empty())
        .ok_or_else(|| format!("empty key in check spec {spec:?}"))?
        .to_string();
    let mut better = Better::Lower;
    let mut threshold_pct = None;
    for part in parts {
        match part {
            "lower" => better = Better::Lower,
            "higher" => better = Better::Higher,
            "eq" => better = Better::Equal,
            other => {
                threshold_pct = Some(
                    other
                        .parse::<f64>()
                        .map_err(|_| format!("bad check component {other:?} in {spec:?}"))?,
                );
            }
        }
    }
    if better == Better::Equal && threshold_pct.is_some() {
        return Err(format!("`eq` takes no threshold in {spec:?}"));
    }
    Ok(Check {
        key,
        better,
        threshold_pct: threshold_pct.unwrap_or(DEFAULT_THRESHOLD_PCT),
    })
}

/// Parses the flat one-object artifact format into key → numeric value.
/// Non-numeric fields (`mode`, `name`, `null`) are skipped; structural
/// damage is an error.
fn parse_flat_json(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let body = text.trim();
    let inner = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("artifact is not a single JSON object")?;
    let mut rest = inner;
    while !rest.trim().is_empty() {
        let open = rest.find('"').ok_or("expected a quoted key")?;
        let after_open = &rest[open + 1..];
        let close = scan_string_end(after_open)?;
        let key = unescape(&after_open[..close]);
        let after_key = after_open[close + 1..].trim_start();
        let after_colon = after_key
            .strip_prefix(':')
            .ok_or_else(|| format!("missing ':' after key {key:?}"))?
            .trim_start();
        let (value_text, remainder) = scan_value(after_colon)?;
        if let Ok(v) = value_text.parse::<f64>() {
            out.insert(key, v);
        }
        rest = remainder
            .trim_start()
            .strip_prefix(',')
            .unwrap_or(remainder.trim_start());
    }
    Ok(out)
}

/// Index of the closing quote of a string whose opening quote has been
/// consumed, honoring backslash escapes.
fn scan_string_end(s: &str) -> Result<usize, String> {
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => return Ok(i),
            _ => {}
        }
    }
    Err("unterminated string".to_string())
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Splits one scalar value (quoted string, number, or bare word) off the
/// front of `s`, returning `(value_text, remainder)`. Quoted strings come
/// back with their quotes stripped so they never parse as numbers.
fn scan_value(s: &str) -> Result<(&str, &str), String> {
    if let Some(body) = s.strip_prefix('"') {
        let end = scan_string_end(body)?;
        return Ok(("", &body[end + 1..]));
    }
    let end = s
        .find([',', '}'])
        .unwrap_or(s.len())
        .min(s.find(char::is_whitespace).unwrap_or(s.len()));
    if end == 0 {
        return Err(format!("expected a value at {s:?}"));
    }
    Ok((&s[..end], &s[end..]))
}

/// Signed regression percentage: positive means `current` is worse than
/// `baseline` by that much. For `eq`, any move counts as worse.
fn regression_pct(check: &Check, baseline: f64, current: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    let delta = match check.better {
        Better::Lower => current - baseline,
        Better::Higher => baseline - current,
        Better::Equal => (current - baseline).abs(),
    };
    delta / baseline.abs() * 100.0
}

/// Whether `current` fails the check against `baseline`.
fn regressed(check: &Check, baseline: f64, current: f64) -> bool {
    match check.better {
        Better::Equal => current != baseline,
        Better::Lower | Better::Higher => {
            regression_pct(check, baseline, current) > check.threshold_pct
        }
    }
}

fn load(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_flat_json(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn run(args: &[String]) -> Result<bool, String> {
    let [baseline_path, current_path, checks @ ..] = args else {
        return Err("usage: bench_diff <baseline.json> <current.json> \
             <key>[:lower|:higher][:threshold_pct]|<key>:eq ..."
            .to_string());
    };
    if checks.is_empty() {
        return Err("no keys to check".to_string());
    }
    let baseline = load(baseline_path)?;
    let current = load(current_path)?;
    let mut failed = false;
    for spec in checks {
        let check = parse_check(spec)?;
        let base = *baseline
            .get(&check.key)
            .ok_or_else(|| format!("baseline {baseline_path} has no key {:?}", check.key))?;
        let cur = *current
            .get(&check.key)
            .ok_or_else(|| format!("current {current_path} has no key {:?}", check.key))?;
        let pct = regression_pct(&check, base, cur);
        let verdict = if regressed(&check, base, cur) {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        let budget = match check.better {
            Better::Equal => "equal".to_string(),
            Better::Lower | Better::Higher => format!("{:.0}%", check.threshold_pct),
        };
        println!(
            "{:<28} baseline {:>12.3}  current {:>12.3}  change {:>+7.1}%  (budget {budget})  {}",
            check.key, base, cur, pct, verdict
        );
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            eprintln!("bench_diff: regression over budget");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_artifacts() {
        let parsed = parse_flat_json(
            "{\"name\":\"decision_path\",\"mode\":\"quick\",\
             \"tasks\":1024,\"traced_hit_ns\":82.5,\"bad\":null}",
        )
        .expect("parse");
        assert_eq!(parsed.get("tasks"), Some(&1024.0));
        assert_eq!(parsed.get("traced_hit_ns"), Some(&82.5));
        assert!(!parsed.contains_key("mode"));
        assert!(!parsed.contains_key("bad"));
    }

    #[test]
    fn rejects_structural_damage() {
        assert!(parse_flat_json("not json").is_err());
        assert!(parse_flat_json("{\"unterminated).is_err()").is_err());
        assert!(parse_flat_json("{\"k\" 1}").is_err());
    }

    #[test]
    fn check_specs_parse() {
        assert_eq!(
            parse_check("traced_hit_ns").unwrap(),
            Check {
                key: "traced_hit_ns".into(),
                better: Better::Lower,
                threshold_pct: DEFAULT_THRESHOLD_PCT,
            }
        );
        assert_eq!(
            parse_check("wire_vs_hit_ratio:higher:35").unwrap(),
            Check {
                key: "wire_vs_hit_ratio".into(),
                better: Better::Higher,
                threshold_pct: 35.0,
            }
        );
        assert!(parse_check(":lower").is_err());
        assert!(parse_check("k:sideways").is_err());
        assert_eq!(parse_check("ok:eq").unwrap().better, Better::Equal);
        assert!(parse_check("ok:eq:5").is_err(), "eq takes no threshold");
    }

    #[test]
    fn eq_fails_any_difference_in_either_direction() {
        let eq = parse_check("failed:eq").unwrap();
        assert!(!regressed(&eq, 5.0, 5.0));
        assert!(regressed(&eq, 5.0, 6.0));
        assert!(regressed(&eq, 5.0, 4.0), "a drop is a change too");
        assert!(regressed(&eq, 0.0, 1.0), "a zero baseline still gates");
        assert!(regressed(&eq, 3068.0, 3068.5));
        // A rise that `higher:0` would wave through.
        let higher = parse_check("ok:higher:0").unwrap();
        assert!(!regressed(&higher, 59.0, 60.0));
        assert!(regressed(&eq, 59.0, 60.0));
    }

    #[test]
    fn regression_direction_is_honored() {
        let lower = parse_check("ns:lower:20").unwrap();
        assert!(regression_pct(&lower, 100.0, 130.0) > 20.0);
        assert!(regression_pct(&lower, 100.0, 110.0) < 20.0);
        // Improvements are negative, never a failure.
        assert!(regression_pct(&lower, 100.0, 50.0) < 0.0);

        let higher = parse_check("ratio:higher:20").unwrap();
        assert!(regression_pct(&higher, 10.0, 7.0) > 20.0);
        assert!(regression_pct(&higher, 10.0, 9.5) < 20.0);
        assert!(regression_pct(&higher, 10.0, 20.0) < 0.0);
    }

    #[test]
    fn end_to_end_diff_flags_only_over_budget_keys() {
        let dir = std::env::temp_dir().join(format!("overhaul-bench-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cur = dir.join("cur.json");
        std::fs::write(&base, "{\"name\":\"d\",\"hit_ns\":100,\"ratio\":10}\n").unwrap();
        std::fs::write(&cur, "{\"name\":\"d\",\"hit_ns\":115,\"ratio\":9}\n").unwrap();
        let args: Vec<String> = [
            base.to_str().unwrap(),
            cur.to_str().unwrap(),
            "hit_ns:lower:20",
            "ratio:higher:20",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(run(&args), Ok(false));

        std::fs::write(&cur, "{\"name\":\"d\",\"hit_ns\":140,\"ratio\":9}\n").unwrap();
        assert_eq!(run(&args), Ok(true));

        // An `eq` key passes only on the baseline's exact value.
        let eq_args = |key: &str| -> Vec<String> {
            [base.to_str().unwrap(), cur.to_str().unwrap(), key]
                .iter()
                .map(|s| s.to_string())
                .collect()
        };
        std::fs::write(&cur, "{\"name\":\"d\",\"hit_ns\":100,\"ratio\":11}\n").unwrap();
        assert_eq!(run(&eq_args("hit_ns:eq")), Ok(false));
        assert_eq!(run(&eq_args("ratio:eq")), Ok(true));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A CI operator staring at a red gate must see *which file* is
    /// missing *which key* — both sides, by name.
    #[test]
    fn missing_key_errors_name_artifact_and_key() {
        let dir = std::env::temp_dir().join(format!("overhaul-bd-misskey-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cur = dir.join("cur.json");
        std::fs::write(&base, "{\"name\":\"d\",\"hit_ns\":100}\n").unwrap();
        std::fs::write(
            &cur,
            "{\"name\":\"d\",\"hit_ns\":101,\"decide_p99_ns\":9}\n",
        )
        .unwrap();
        let args = |key: &str| -> Vec<String> {
            [base.to_str().unwrap(), cur.to_str().unwrap(), key]
                .iter()
                .map(|s| s.to_string())
                .collect()
        };

        let err = run(&args("decide_p99_ns:lower:50")).expect_err("baseline lacks the key");
        assert!(err.contains("baseline"), "side named: {err}");
        assert!(
            err.contains(base.to_str().unwrap()),
            "artifact named: {err}"
        );
        assert!(err.contains("decide_p99_ns"), "key named: {err}");

        std::fs::write(&base, "{\"name\":\"d\",\"hit_ns\":100,\"only_here\":1}\n").unwrap();
        let err = run(&args("only_here")).expect_err("current lacks the key");
        assert!(err.contains("current"), "side named: {err}");
        assert!(err.contains(cur.to_str().unwrap()), "artifact named: {err}");
        assert!(err.contains("only_here"), "key named: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Unreadable or structurally-damaged artifacts fail with the path in
    /// the message, never a bare parser error.
    #[test]
    fn read_and_parse_failures_name_the_artifact() {
        let dir = std::env::temp_dir().join(format!("overhaul-bd-badfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        let bad = dir.join("bad.json");
        let missing = dir.join("nonexistent.json");
        std::fs::write(&good, "{\"hit_ns\":100}\n").unwrap();
        std::fs::write(&bad, "this is not an artifact\n").unwrap();
        let args = |a: &std::path::Path, b: &std::path::Path| -> Vec<String> {
            [a.to_str().unwrap(), b.to_str().unwrap(), "hit_ns"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        };

        let err = run(&args(&bad, &good)).expect_err("corrupt baseline");
        assert!(err.starts_with("parse "), "parse failure labeled: {err}");
        assert!(err.contains(bad.to_str().unwrap()), "artifact named: {err}");

        let err = run(&args(&good, &bad)).expect_err("corrupt current");
        assert!(err.starts_with("parse "), "parse failure labeled: {err}");
        assert!(err.contains(bad.to_str().unwrap()), "artifact named: {err}");

        let err = run(&args(&missing, &good)).expect_err("missing baseline");
        assert!(err.starts_with("read "), "read failure labeled: {err}");
        assert!(
            err.contains(missing.to_str().unwrap()),
            "artifact named: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
