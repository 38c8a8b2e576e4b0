//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! Overhaul crates; nothing inside the crates is instrumented. A span
//! covers `calls` calls of the same layer function, so calls far below a
//! microsecond are spanned per batch and divided by the batch size. Self
//! time is a span's duration minus the time its child spans cover.
//! Recording is a no-op (no clock reads) when the recorder is off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per recorder; later spans are not stored.
const SPAN_LIMIT: usize = 500_000;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer calls the span covers.
    pub calls: u64,
}

/// Handle of an open span.
#[derive(Debug)]
#[must_use = "an opened span must be closed with Spans::exit"]
pub struct Open(Option<usize>);

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on || self.spans.len() >= SPAN_LIMIT {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            calls: 1,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `span`, which covered `calls` layer calls.
    pub fn exit(&mut self, span: Open, calls: u64) {
        let Some(idx) = span.0 else { return };
        let end_ns = self.now_ns();
        let s = &mut self.spans[idx];
        s.end_ns = end_ns;
        s.calls = calls.max(1);
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
    }

    /// Runs `f` inside a span covering `calls` calls.
    pub fn time<T>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open, calls);
        out
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (nanoseconds) of every span, aligned with [`Spans::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per-name aggregates of self time.
    pub fn by_name(&self) -> BTreeMap<&'static str, Agg> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let agg = out.entry(s.name).or_default();
            agg.calls += s.calls;
            agg.self_ns += self_ns;
            agg.per_call_ns.push(self_ns as f64 / s.calls as f64);
        }
        out
    }

    /// The spans as JSON lines tagged with `workload` (or `probe`) and
    /// `seed`.
    pub fn to_jsonl(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"calls\":{},\"workload\":\"{workload}\",\"seed\":{seed}}}",
                s.name, s.start_ns, s.end_ns, s.calls
            );
        }
        out
    }
}

/// Aggregated self time of every span with one name.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    /// Layer calls covered.
    pub calls: u64,
    /// Total self time, nanoseconds.
    pub self_ns: u64,
    /// Self time per call of each span, nanoseconds.
    pub per_call_ns: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::on();
        let outer = s.enter("outer");
        let inner = s.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.exit(inner, 10);
        s.exit(outer, 1);
        let own = s.self_times();
        let total_outer = s.spans()[0].end_ns - s.spans()[0].start_ns;
        assert!(own[1] >= 5_000_000);
        assert_eq!(own[0] + own[1], total_outer);
        let by = s.by_name();
        assert_eq!(by["inner"].calls, 10);
        assert!(by["inner"].per_call_ns[0] >= 500_000.0);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert!(s.to_jsonl("w", 7).lines().count() == 2);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut s = Spans::off();
        let x = s.time("a", 3, || 41 + 1);
        assert_eq!(x, 42);
        assert!(s.spans().is_empty());
    }
}
