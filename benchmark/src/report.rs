//! Run results: the JSON result line, the results file, and the printed
//! table.

use std::fmt::Write as _;

/// One reported metric: the value plus the quartiles and sample count
/// behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (a median, unless the name says otherwise).
    pub value: f64,
    /// First quartile of the samples behind `value`.
    pub q1: f64,
    /// Third quartile of the samples behind `value`.
    pub q3: f64,
    /// Samples behind `value`.
    pub n: u64,
}

impl Metric {
    /// A single measured value (a count or a ratio taken once).
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong.
    pub failed: u64,
    /// The first wrong output, described.
    pub first_failure: Option<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

/// A finite `f64` as a JSON number (`null` otherwise).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Outcome {
    /// Whether every output check passed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (each metric's value and unit).
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The results file: the result line's content plus workload, seed,
    /// trace flag, and each metric's quartiles and sample count.
    pub fn results_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                    m.name,
                    num(m.value),
                    m.unit,
                    num(m.q1),
                    num(m.q3),
                    m.n
                )
            })
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"trace\": {},\n  \"correct\": {},\n  \
             \"attempted\": {},\n  \"failed\": {},\n  \"first_failure\": {},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
            self.workload,
            self.seed,
            self.trace,
            self.correct(),
            self.attempted,
            self.failed,
            self.first_failure
                .as_deref()
                .map_or("null".into(), |f| format!("\"{}\"", escape(f))),
            metrics.join(",\n")
        )
    }

    /// A human-readable table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} (seed {}, {}): {} outputs checked, {} wrong\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        if let Some(f) = &self.first_failure {
            let _ = writeln!(out, "  first wrong output: {f}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<40} {:>16.6} {:<6} (q1 {:.6}, q3 {:.6}, n {})",
                m.name, m.value, m.unit, m.q1, m.q3, m.n
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn outcome() -> Outcome {
        Outcome {
            workload: "decide_hot",
            seed: 3,
            trace: false,
            attempted: 10,
            failed: 0,
            first_failure: Some("a \"quoted\"\nline".into()),
            metrics: vec![Metric::single("ops_per_s", "1/s", 1234.5)],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let v = parse(&outcome().result_line()).expect("valid JSON");
        let keys: Vec<&String> = v.obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("ops_per_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Json::num), Some(1234.5));
        assert_eq!(m.get("unit").and_then(Json::str), Some("1/s"));
    }

    #[test]
    fn results_file_parses_and_a_nan_is_not_correct() {
        let mut o = outcome();
        assert!(parse(&o.results_json()).is_ok());
        o.metrics[0].value = f64::NAN;
        assert!(!o.correct());
        assert!(parse(&o.result_line()).is_ok());
    }
}
