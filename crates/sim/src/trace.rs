//! Deterministic virtual-time tracing and metrics.
//!
//! The paper's evaluation (§V) is a story about *where mediation time goes*:
//! page-fault interposition, channel round-trips, permission checks. This
//! module gives every mediation path a shared vocabulary for that story —
//! parent-linked [`Span`]s entered and exited at [`Timestamp`] granularity,
//! instant events, and a [`MetricsRegistry`] of counters, gauges, and
//! virtual-time histograms rendered as a Prometheus-style text page.
//!
//! Everything here is deterministic: spans carry only virtual time and
//! structured fields, the registry is BTreeMap-backed so rendering order is
//! fixed, and no wall-clock or ambient randomness is consulted anywhere.
//! Two runs with the same seed therefore produce byte-identical
//! [`Tracer::render_json`] output — a property the test suite pins down.
//!
//! [`Tracer`] follows the shared-handle idiom of [`crate::Clock`]: clones
//! share one buffer, and a disabled tracer (the default) costs a branch per
//! call site. The span buffer is bounded; once [`Tracer::span_limit`] nodes
//! are recorded, further spans are counted but not stored, so tracing an
//! unbounded workload cannot exhaust memory.
//!
//! [`Span`]: SpanNode

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::snapshot::{intern, Dec, Enc, Pack, SnapshotError};
use crate::time::Timestamp;
use crate::{impl_pack, impl_pack_newtype};

/// Default bound on stored span nodes per tracer.
pub const DEFAULT_SPAN_LIMIT: usize = 65_536;

/// A structured field value attached to a span or event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
    /// Owned string (escaped when rendered).
    Str(String),
    /// Static string — the common case on hot paths; never allocates.
    Static(&'static str),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Static(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::Static(v) => write!(f, "{v}"),
        }
    }
}

impl Value {
    fn render_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(v) => json_string(v, out),
            Value::Static(v) => json_string(v, out),
        }
    }
}

fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Identifier of a recorded span node, in recording order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw recording index.
    pub fn as_raw(self) -> u64 {
        self.0
    }
}

/// Whether a node is a duration span or an instant event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Entered and exited; `exit >= enter`.
    Span,
    /// Instantaneous; `exit == enter`.
    Event,
}

/// Most structured fields one span node can carry.
pub const MAX_SPAN_FIELDS: usize = 6;

/// Filler for unused inline field slots.
const EMPTY_FIELD: (&str, Value) = ("", Value::Bool(false));

/// Structured fields of one node, stored inline so the recording path
/// never allocates (a heap `Vec` here costs more than the rest of the
/// hot-path span record combined). Fields beyond [`MAX_SPAN_FIELDS`] are
/// dropped; no instrumentation site exceeds the bound.
#[derive(Debug, Clone)]
pub struct FieldSet {
    len: u8,
    slots: [(&'static str, Value); MAX_SPAN_FIELDS],
}

impl FieldSet {
    fn new() -> Self {
        FieldSet {
            len: 0,
            slots: [EMPTY_FIELD; MAX_SPAN_FIELDS],
        }
    }

    fn from_slice(fields: &[(&'static str, Value)]) -> Self {
        let mut set = FieldSet::new();
        for (key, value) in fields {
            set.push(key, value.clone());
        }
        set
    }

    fn push(&mut self, key: &'static str, value: Value) {
        if (self.len as usize) < MAX_SPAN_FIELDS {
            self.slots[self.len as usize] = (key, value);
            self.len += 1;
        }
    }

    /// The fields in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, (&'static str, Value)> {
        self.slots[..self.len as usize].iter()
    }

    /// Whether no fields are attached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of attached fields.
    pub fn len(&self) -> usize {
        self.len as usize
    }
}

/// One recorded span or event.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name, dot-separated by subsystem (`kernel.decide`, `x.input`).
    pub name: &'static str,
    /// Span vs. instant event.
    pub kind: SpanKind,
    /// Virtual time the span was entered.
    pub enter: Timestamp,
    /// Virtual time the span was exited (None while still open).
    pub exit: Option<Timestamp>,
    /// Parent span in the open-span stack at record time.
    pub parent: Option<SpanId>,
    /// Structured fields in insertion order.
    pub fields: FieldSet,
}

#[derive(Debug, Default)]
struct TraceBuf {
    spans: Vec<SpanNode>,
    open: Vec<SpanId>,
    dropped: u64,
    limit: usize,
}

impl TraceBuf {
    fn push(&mut self, node: SpanNode) -> Option<SpanId> {
        if self.spans.len() >= self.limit {
            self.dropped += 1;
            return None;
        }
        let id = SpanId(self.spans.len() as u64);
        self.spans.push(node);
        Some(id)
    }
}

/// A shared handle onto one trace buffer.
///
/// Cheap to clone (clones share state, like [`crate::Clock`]); the
/// default handle is disabled and records nothing. All methods take `&self`.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TraceBuf>>>,
}

impl Tracer {
    /// A disabled tracer: every call is a cheap no-op.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// An enabled tracer with the default span limit.
    pub fn enabled() -> Self {
        Tracer::with_limit(DEFAULT_SPAN_LIMIT)
    }

    /// An enabled tracer storing at most `limit` span nodes; further spans
    /// are counted in [`Tracer::dropped_spans`] but not stored.
    pub fn with_limit(limit: usize) -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(TraceBuf {
                limit,
                ..TraceBuf::default()
            }))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The maximum number of stored span nodes (0 when disabled).
    pub fn span_limit(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.lock().unwrap().limit)
    }

    /// Opens a span at `at` and pushes it on the open-span stack. Returns
    /// `None` when disabled or the buffer is full.
    pub fn span_enter(&self, name: &'static str, at: Timestamp) -> Option<SpanId> {
        let inner = self.inner.as_ref()?;
        let mut buf = inner.lock().unwrap();
        let parent = buf.open.last().copied();
        let id = buf.push(SpanNode {
            name,
            kind: SpanKind::Span,
            enter: at,
            exit: None,
            parent,
            fields: FieldSet::new(),
        });
        if let Some(id) = id {
            buf.open.push(id);
        }
        id
    }

    /// Closes `span` at `at` and pops it (and anything opened after it that
    /// was left open) off the open-span stack. No-op for `None`.
    pub fn span_exit(&self, span: Option<SpanId>, at: Timestamp) {
        let (Some(inner), Some(span)) = (self.inner.as_ref(), span) else {
            return;
        };
        let mut buf = inner.lock().unwrap();
        if let Some(pos) = buf.open.iter().rposition(|s| *s == span) {
            buf.open.truncate(pos);
        }
        if let Some(node) = buf.spans.get_mut(span.0 as usize) {
            node.exit = Some(at);
        }
    }

    /// Attaches a structured field to `span`. No-op for `None`.
    pub fn add_field(&self, span: Option<SpanId>, key: &'static str, value: impl Into<Value>) {
        let (Some(inner), Some(span)) = (self.inner.as_ref(), span) else {
            return;
        };
        let mut buf = inner.lock().unwrap();
        if let Some(node) = buf.spans.get_mut(span.0 as usize) {
            node.fields.push(key, value.into());
        }
    }

    /// Records a complete leaf span in one call — one lock, no stack
    /// traffic. The parent is whatever span is open at record time. This is
    /// the hot-path entry point (`kernel.decide` uses it).
    pub fn record_span(
        &self,
        name: &'static str,
        enter: Timestamp,
        exit: Timestamp,
        fields: &[(&'static str, Value)],
    ) -> Option<SpanId> {
        let inner = self.inner.as_ref()?;
        let mut buf = inner.lock().unwrap();
        let parent = buf.open.last().copied();
        buf.push(SpanNode {
            name,
            kind: SpanKind::Span,
            enter,
            exit: Some(exit),
            parent,
            fields: FieldSet::from_slice(fields),
        })
    }

    /// Records an instant event under the currently open span.
    pub fn event(
        &self,
        name: &'static str,
        at: Timestamp,
        fields: &[(&'static str, Value)],
    ) -> Option<SpanId> {
        let inner = self.inner.as_ref()?;
        let mut buf = inner.lock().unwrap();
        let parent = buf.open.last().copied();
        buf.push(SpanNode {
            name,
            kind: SpanKind::Event,
            enter: at,
            exit: Some(at),
            parent,
            fields: FieldSet::from_slice(fields),
        })
    }

    /// Number of span nodes stored so far.
    pub fn span_count(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.lock().unwrap().spans.len())
    }

    /// Number of spans dropped after the buffer filled.
    pub fn dropped_spans(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.lock().unwrap().dropped)
    }

    /// Snapshot of every recorded node, in recording order.
    pub fn nodes(&self) -> Vec<SpanNode> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.lock().unwrap().spans.clone())
    }

    /// Discards all recorded nodes (the limit is kept).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            let mut buf = inner.lock().unwrap();
            buf.spans.clear();
            buf.open.clear();
            buf.dropped = 0;
        }
    }

    /// Renders the span tree as deterministic JSON, suitable for flamegraph
    /// tooling: nodes nest by parent link, children in recording order,
    /// fields in insertion order. Same recorded trace ⇒ byte-identical
    /// output.
    pub fn render_json(&self) -> String {
        let nodes = self.nodes();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut roots = Vec::new();
        for (idx, node) in nodes.iter().enumerate() {
            match node.parent {
                Some(parent) => children[parent.0 as usize].push(idx),
                None => roots.push(idx),
            }
        }
        let mut out = String::new();
        out.push_str("{\"spans\":");
        out.push_str(&nodes.len().to_string());
        out.push_str(",\"dropped\":");
        out.push_str(&self.dropped_spans().to_string());
        out.push_str(",\"trace\":[");
        for (i, &root) in roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_node(&nodes, &children, root, &mut out);
        }
        out.push_str("]}");
        out
    }
}

fn render_node(nodes: &[SpanNode], children: &[Vec<usize>], idx: usize, out: &mut String) {
    let node = &nodes[idx];
    out.push_str("{\"name\":");
    json_string(node.name, out);
    out.push_str(",\"kind\":");
    json_string(
        match node.kind {
            SpanKind::Span => "span",
            SpanKind::Event => "event",
        },
        out,
    );
    out.push_str(",\"enter_ms\":");
    out.push_str(&node.enter.as_millis().to_string());
    if let Some(exit) = node.exit {
        out.push_str(",\"exit_ms\":");
        out.push_str(&exit.as_millis().to_string());
    }
    if !node.fields.is_empty() {
        out.push_str(",\"fields\":{");
        for (i, (key, value)) in node.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(key, out);
            out.push(':');
            value.render_json(out);
        }
        out.push('}');
    }
    if !children[idx].is_empty() {
        out.push_str(",\"children\":[");
        for (i, &child) in children[idx].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_node(nodes, children, child, out);
        }
        out.push(']');
    }
    out.push('}');
}

/// Upper bucket bounds (milliseconds of virtual time) for histograms.
pub const HISTOGRAM_BOUNDS_MS: [u64; 12] = [1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000];

/// A fixed-bucket histogram over virtual-time durations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BOUNDS_MS.len()],
    sum_ms: u64,
    count: u64,
}

impl Histogram {
    /// Records one observation of `ms` milliseconds.
    pub fn observe_ms(&mut self, ms: u64) {
        for (i, bound) in HISTOGRAM_BOUNDS_MS.iter().enumerate() {
            if ms <= *bound {
                self.buckets[i] += 1;
            }
        }
        self.sum_ms += ms;
        self.count += 1;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, in milliseconds.
    pub fn sum_ms(&self) -> u64 {
        self.sum_ms
    }

    /// Cumulative count at or below each bound in [`HISTOGRAM_BOUNDS_MS`].
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }
}

/// A registry of named counters, gauges, and virtual-time histograms.
///
/// Names follow Prometheus conventions (`overhaul_<subsystem>_<what>_total`
/// for counters); label sets are written inline in the name
/// (`overhaul_propagation_hops_total{mechanism="pipe"}`). BTreeMap storage
/// makes [`MetricsRegistry::render`] output deterministic and sorted.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments counter `name` by 1 (creating it at 0 first).
    pub fn inc_counter(&mut self, name: &str) {
        self.add_counter(name, 1);
    }

    /// Adds `v` to counter `name` (creating it at 0 first).
    pub fn add_counter(&mut self, name: &str, v: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += v;
        } else {
            self.counters.insert(name.to_string(), v);
        }
    }

    /// Sets counter `name` to the absolute value `v` (used when mirroring
    /// an authoritative legacy struct into the registry).
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    /// Reads counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: i64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Reads gauge `name` (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records a virtual-time observation in histogram `name`.
    pub fn observe_ms(&mut self, name: &str, ms: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe_ms(ms);
        } else {
            let mut h = Histogram::default();
            h.observe_ms(ms);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Reads histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Copies every metric of `other` into `self`. Counters and histograms
    /// accumulate; gauges take `other`'s value.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            self.add_counter(name, *v);
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            let entry = self.histograms.entry(name.clone()).or_default();
            for (mine, theirs) in entry.buckets.iter_mut().zip(h.buckets.iter()) {
                *mine += theirs;
            }
            entry.sum_ms += h.sum_ms;
            entry.count += h.count;
        }
    }

    /// Folds a *peer* registry into this one, for fleet-level aggregation
    /// across shards. Counters and histograms accumulate exactly like
    /// [`MetricsRegistry::absorb`]; gauges **sum** instead of taking the
    /// other side's value, because across independent shards a gauge like
    /// `overhaul_trace_spans_live` is a per-machine quantity and the fleet
    /// total is the meaningful aggregate. Use `absorb` when layering two
    /// views of the *same* machine, `merge` when combining *different*
    /// machines.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            self.add_counter(name, *v);
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += *v;
        }
        for (name, h) in &other.histograms {
            let entry = self.histograms.entry(name.clone()).or_default();
            for (mine, theirs) in entry.buckets.iter_mut().zip(h.buckets.iter()) {
                *mine += theirs;
            }
            entry.sum_ms += h.sum_ms;
            entry.count += h.count;
        }
    }

    /// Renders the whole registry as a Prometheus text-format page, sorted
    /// by metric name. Deterministic: same contents ⇒ byte-identical page.
    /// Each metric family gets exactly one `# HELP` and one `# TYPE`
    /// comment before its samples, per the exposition-format spec.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, v) in &self.counters {
            let base = base_name(name);
            if base != last_base {
                push_header(&mut out, base, "counter");
                last_base = base.to_string();
            }
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        last_base.clear();
        for (name, v) in &self.gauges {
            let base = base_name(name);
            if base != last_base {
                push_header(&mut out, base, "gauge");
                last_base = base.to_string();
            }
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            push_header(&mut out, name, "histogram");
            for (i, bound) in HISTOGRAM_BOUNDS_MS.iter().enumerate() {
                out.push_str(name);
                out.push_str("_bucket{le=\"");
                out.push_str(&bound.to_string());
                out.push_str("\"} ");
                out.push_str(&h.buckets[i].to_string());
                out.push('\n');
            }
            out.push_str(name);
            out.push_str("_bucket{le=\"+Inf\"} ");
            out.push_str(&h.count.to_string());
            out.push('\n');
            out.push_str(name);
            out.push_str("_sum ");
            out.push_str(&h.sum_ms.to_string());
            out.push('\n');
            out.push_str(name);
            out.push_str("_count ");
            out.push_str(&h.count.to_string());
            out.push('\n');
        }
        out
    }
}

fn base_name(name: &str) -> &str {
    match name.find('{') {
        Some(idx) => &name[..idx],
        None => name,
    }
}

/// Emits the `# HELP` / `# TYPE` comment pair for one metric family.
fn push_header(out: &mut String, base: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(base);
    out.push(' ');
    out.push_str(help_for(base));
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(base);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Help text per metric family. Families without a curated line get a
/// generic description — the exposition format requires the comment to
/// exist, not to be bespoke.
fn help_for(base: &str) -> &'static str {
    match base {
        "overhaul_decisions_total" => "Permission decisions taken by the monitor.",
        "overhaul_trace_spans" => "Span nodes currently held in the trace buffer.",
        "overhaul_trace_dropped_spans" => {
            "Spans dropped after the trace buffer filled (gauge view)."
        }
        "overhaul_trace_spans_dropped_total" => "Spans dropped after the trace buffer filled.",
        "overhaul_channel_state" => "Display channel health (2 up, 1 degraded, 0 down).",
        "overhaul_channel_exchange_ms" => "Virtual-time cost of one netlink channel exchange.",
        "overhaul_interaction_age_ms" => "Age of the interaction evidence at decision time.",
        "overhaul_snapshot_bytes_total" => "Bytes exported by machine checkpoints.",
        "overhaul_fleet_latency_ns" => "Fleet-merged wall-clock latency quantiles per mechanism.",
        "overhaul_fleet_latency_samples_total" => {
            "Fleet-merged latency observations per mechanism."
        }
        "overhaul_fleet_ledger_head" => "Per-shard sealed ledger chain head (low 63 bits).",
        "overhaul_fleet_ledger_entries_total" => "Ledger entries retained across the fleet.",
        "overhaul_fleet_ledger_effects_total" => "Fleet ledger entries per effect class.",
        _ => "Overhaul simulation metric.",
    }
}

/// Builds a labeled sample name `family{key="value"}` with the label
/// value escaped per the Prometheus text exposition format (backslash,
/// double quote, and newline must be escaped inside label values).
pub fn label_metric(family: &str, key: &str, value: &str) -> String {
    let mut out = String::with_capacity(family.len() + key.len() + value.len() + 5);
    out.push_str(family);
    out.push('{');
    out.push_str(key);
    out.push_str("=\"");
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out.push_str("\"}");
    out
}

// ---------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------
//
// The trace buffer is serialized into a checkpoint's *aux* section: a
// restored run must carry the recorded span prefix forward so that a
// replay-from-snapshot renders the same `render_json` as the uninterrupted
// run. Span and field names are `&'static str` in live form; they encode
// by content and are re-leaked through `snapshot::intern` on restore (the
// name set is bounded by the fixed instrumentation sites).

impl_pack_newtype!(SpanId, u64);

impl Pack for SpanKind {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u8(match self {
            SpanKind::Span => 0,
            SpanKind::Event => 1,
        });
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        match dec.take_u8()? {
            0 => Ok(SpanKind::Span),
            1 => Ok(SpanKind::Event),
            _ => Err(SnapshotError::BadValue("span kind")),
        }
    }
}

impl Pack for Value {
    fn pack(&self, enc: &mut Enc) {
        match self {
            Value::U64(v) => {
                enc.put_u8(0);
                v.pack(enc);
            }
            Value::I64(v) => {
                enc.put_u8(1);
                v.pack(enc);
            }
            Value::Bool(v) => {
                enc.put_u8(2);
                v.pack(enc);
            }
            Value::Str(v) => {
                enc.put_u8(3);
                v.pack(enc);
            }
            Value::Static(v) => {
                enc.put_u8(4);
                enc.put_u64(v.len() as u64);
                enc.put_slice(v.as_bytes());
            }
        }
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(match dec.take_u8()? {
            0 => Value::U64(u64::unpack(dec)?),
            1 => Value::I64(i64::unpack(dec)?),
            2 => Value::Bool(bool::unpack(dec)?),
            3 => Value::Str(String::unpack(dec)?),
            4 => Value::Static(intern(&String::unpack(dec)?)),
            _ => return Err(SnapshotError::BadValue("trace value tag")),
        })
    }
}

impl Pack for FieldSet {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u8(self.len);
        for (key, value) in self.iter() {
            enc.put_u64(key.len() as u64);
            enc.put_slice(key.as_bytes());
            value.pack(enc);
        }
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let len = dec.take_u8()?;
        if usize::from(len) > MAX_SPAN_FIELDS {
            return Err(SnapshotError::BadValue("field count"));
        }
        let mut set = FieldSet::new();
        for _ in 0..len {
            let key = intern(&String::unpack(dec)?);
            let value = Value::unpack(dec)?;
            set.push(key, value);
        }
        Ok(set)
    }
}

impl Pack for SpanNode {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u64(self.name.len() as u64);
        enc.put_slice(self.name.as_bytes());
        self.kind.pack(enc);
        self.enter.pack(enc);
        self.exit.pack(enc);
        self.parent.pack(enc);
        self.fields.pack(enc);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let name = intern(&String::unpack(dec)?);
        Ok(SpanNode {
            name,
            kind: SpanKind::unpack(dec)?,
            enter: Timestamp::unpack(dec)?,
            exit: Option::<Timestamp>::unpack(dec)?,
            parent: Option::<SpanId>::unpack(dec)?,
            fields: FieldSet::unpack(dec)?,
        })
    }
}

impl Tracer {
    /// Serializes this handle's state — enabled flag, span limit, recorded
    /// nodes, open-span stack, drop counter — for a checkpoint.
    pub fn export(&self, enc: &mut Enc) {
        match &self.inner {
            None => false.pack(enc),
            Some(inner) => {
                true.pack(enc);
                let buf = inner.lock().unwrap();
                buf.limit.pack(enc);
                buf.dropped.pack(enc);
                buf.spans.pack(enc);
                buf.open.pack(enc);
            }
        }
    }

    /// Rebuilds a tracer from [`Tracer::export`] state. The restored handle
    /// is a fresh buffer (not shared with the exporting tracer) whose
    /// rendered output is byte-identical to the exporter's at export time.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] raised by malformed input.
    pub fn import(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        if !bool::unpack(dec)? {
            return Ok(Tracer::disabled());
        }
        let limit = usize::unpack(dec)?;
        let dropped = u64::unpack(dec)?;
        let spans = Vec::<SpanNode>::unpack(dec)?;
        let open = Vec::<SpanId>::unpack(dec)?;
        Ok(Tracer {
            inner: Some(Arc::new(Mutex::new(TraceBuf {
                spans,
                open,
                dropped,
                limit,
            }))),
        })
    }
}

impl_pack!(Histogram {
    buckets,
    sum_ms,
    count
});

impl_pack!(MetricsRegistry {
    counters,
    gauges,
    histograms
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Dec, Enc, Pack};
    use crate::time::SimDuration;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let span = tracer.span_enter("kernel.decide", t(5));
        assert!(span.is_none());
        tracer.add_field(span, "pid", 3u64);
        tracer.span_exit(span, t(5));
        assert!(tracer.event("mm.fault", t(6), &[]).is_none());
        assert_eq!(tracer.span_count(), 0);
        assert_eq!(
            tracer.render_json(),
            "{\"spans\":0,\"dropped\":0,\"trace\":[]}"
        );
    }

    #[test]
    fn clones_share_the_buffer() {
        let tracer = Tracer::enabled();
        let view = tracer.clone();
        tracer.record_span("kernel.decide", t(1), t(1), &[]);
        assert_eq!(view.span_count(), 1);
    }

    #[test]
    fn spans_nest_by_open_stack() {
        let tracer = Tracer::enabled();
        let outer = tracer.span_enter("channel.exchange", t(10));
        tracer.event("channel.fault", t(11), &[("kind", Value::Static("drop"))]);
        let inner = tracer.span_enter("channel.retry", t(12));
        tracer.span_exit(inner, t(13));
        tracer.span_exit(outer, t(14));
        let after = tracer.record_span("kernel.decide", t(20), t(20), &[]);

        let nodes = tracer.nodes();
        assert_eq!(nodes.len(), 4);
        assert_eq!(nodes[1].parent, outer);
        assert_eq!(nodes[2].parent, outer);
        assert_eq!(nodes[0].parent, None);
        assert_eq!(nodes[after.unwrap().as_raw() as usize].parent, None);
        assert_eq!(nodes[0].exit, Some(t(14)));
    }

    #[test]
    fn render_json_nests_children_and_escapes() {
        let tracer = Tracer::enabled();
        let outer = tracer.span_enter("x.input", t(1));
        tracer.add_field(outer, "kind", "click");
        tracer.event(
            "x.clickjack",
            t(1),
            &[("window", Value::Str("\"evil\"\n".to_string()))],
        );
        tracer.span_exit(outer, t(2));
        let json = tracer.render_json();
        assert_eq!(
            json,
            "{\"spans\":2,\"dropped\":0,\"trace\":[{\"name\":\"x.input\",\"kind\":\"span\",\
             \"enter_ms\":1,\"exit_ms\":2,\"fields\":{\"kind\":\"click\"},\"children\":[\
             {\"name\":\"x.clickjack\",\"kind\":\"event\",\"enter_ms\":1,\"exit_ms\":1,\
             \"fields\":{\"window\":\"\\\"evil\\\"\\n\"}}]}]}"
        );
    }

    #[test]
    fn span_limit_bounds_memory_and_counts_drops() {
        let tracer = Tracer::with_limit(2);
        assert!(tracer.record_span("a", t(1), t(1), &[]).is_some());
        assert!(tracer.record_span("b", t(2), t(2), &[]).is_some());
        assert!(tracer.record_span("c", t(3), t(3), &[]).is_none());
        assert!(tracer.span_enter("d", t(4)).is_none());
        assert_eq!(tracer.span_count(), 2);
        assert_eq!(tracer.dropped_spans(), 2);
    }

    #[test]
    fn identical_recordings_render_identically() {
        let run = || {
            let tracer = Tracer::enabled();
            let s = tracer.span_enter("kernel.decide", t(100));
            tracer.add_field(s, "op", "mic");
            tracer.add_field(s, "verdict", "grant");
            tracer.event("mm.rearm", t(150), &[("count", Value::U64(2))]);
            tracer.span_exit(s, t(150));
            tracer.render_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clear_discards_nodes_but_keeps_limit() {
        let tracer = Tracer::with_limit(8);
        tracer.record_span("a", t(1), t(1), &[]);
        tracer.clear();
        assert_eq!(tracer.span_count(), 0);
        assert_eq!(tracer.dropped_spans(), 0);
        assert_eq!(tracer.span_limit(), 8);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::default();
        h.observe_ms(1);
        h.observe_ms(30);
        h.observe_ms(9_999);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_ms(), 10_030);
        // 1ms lands in every bucket; 30ms from the 50ms bucket up; 9 999ms
        // only in +Inf (i.e. no finite bucket).
        assert_eq!(h.bucket_counts()[0], 1); // le=1
        assert_eq!(h.bucket_counts()[5], 2); // le=50
        assert_eq!(h.bucket_counts()[11], 2); // le=5000
    }

    #[test]
    fn registry_render_is_sorted_and_typed() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("overhaul_monitor_grants_total", 3);
        reg.inc_counter("overhaul_propagation_hops_total{mechanism=\"pipe\"}");
        reg.inc_counter("overhaul_propagation_hops_total{mechanism=\"pty\"}");
        reg.set_gauge("overhaul_channel_state", 2);
        reg.observe_ms("overhaul_decision_interaction_age_ms", 120);
        let page = reg.render();
        let grants = page.find("overhaul_monitor_grants_total 3").unwrap();
        let pipe = page
            .find("overhaul_propagation_hops_total{mechanism=\"pipe\"} 1")
            .unwrap();
        let pty = page
            .find("overhaul_propagation_hops_total{mechanism=\"pty\"} 1")
            .unwrap();
        assert!(grants < pipe && pipe < pty, "sorted by name");
        assert!(page.contains("# TYPE overhaul_propagation_hops_total counter"));
        assert_eq!(
            page.matches("# TYPE overhaul_propagation_hops_total counter")
                .count(),
            1,
            "one TYPE line per metric family"
        );
        assert!(page.contains("# TYPE overhaul_channel_state gauge"));
        assert!(page.contains("overhaul_decision_interaction_age_ms_bucket{le=\"250\"} 1"));
        assert!(page.contains("overhaul_decision_interaction_age_ms_sum 120"));
        assert!(page.contains("overhaul_decision_interaction_age_ms_count 1"));
    }

    #[test]
    fn registry_render_is_deterministic() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            reg.add_counter("b_total", 2);
            reg.add_counter("a_total", 1);
            reg.observe_ms("h_ms", 7);
            reg.render()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn absorb_accumulates_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.add_counter("c_total", 2);
        a.observe_ms("h_ms", 10);
        let mut b = MetricsRegistry::new();
        b.add_counter("c_total", 3);
        b.set_gauge("g", 9);
        b.observe_ms("h_ms", 20);
        a.absorb(&b);
        assert_eq!(a.counter("c_total"), 5);
        assert_eq!(a.gauge("g"), 9);
        let h = a.histogram("h_ms").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_ms(), 30);
    }

    #[test]
    fn merge_sums_gauges_across_shards() {
        // Fleet aggregation: same counters/histograms as absorb, but gauges
        // from different machines add up instead of overwriting.
        let mut fleet = MetricsRegistry::new();
        fleet.add_counter("c_total", 2);
        fleet.set_gauge("g", 4);
        fleet.observe_ms("h_ms", 10);
        let mut shard = MetricsRegistry::new();
        shard.add_counter("c_total", 3);
        shard.set_gauge("g", 9);
        shard.set_gauge("only_shard", -2);
        shard.observe_ms("h_ms", 20);
        fleet.merge(&shard);
        assert_eq!(fleet.counter("c_total"), 5);
        assert_eq!(fleet.gauge("g"), 13);
        assert_eq!(fleet.gauge("only_shard"), -2);
        let h = fleet.histogram("h_ms").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_ms(), 30);
    }

    #[test]
    fn merge_of_identical_shards_scales_linearly() {
        let mut shard = MetricsRegistry::new();
        shard.add_counter("ops_total", 7);
        shard.set_gauge("live", 3);
        shard.observe_ms("lat_ms", 5);
        let mut fleet = MetricsRegistry::new();
        for _ in 0..4 {
            fleet.merge(&shard);
        }
        assert_eq!(fleet.counter("ops_total"), 28);
        assert_eq!(fleet.gauge("live"), 12);
        assert_eq!(fleet.histogram("lat_ms").unwrap().count(), 4);
    }

    #[test]
    fn values_render_all_variants() {
        let tracer = Tracer::enabled();
        tracer.record_span(
            "probe",
            t(0),
            t(0),
            &[
                ("u", Value::U64(7)),
                ("i", Value::I64(-2)),
                ("b", Value::Bool(true)),
                ("s", Value::Static("x")),
            ],
        );
        let json = tracer.render_json();
        assert!(json.contains("\"u\":7"));
        assert!(json.contains("\"i\":-2"));
        assert!(json.contains("\"b\":true"));
        assert!(json.contains("\"s\":\"x\""));
    }

    #[test]
    fn tracer_export_import_renders_identically() {
        let tracer = Tracer::with_limit(16);
        let outer = tracer.span_enter("channel.exchange", t(10));
        tracer.add_field(outer, "kind", "notify");
        tracer.event("channel.fault", t(11), &[("kind", Value::Static("drop"))]);
        tracer.record_span(
            "kernel.decide",
            t(12),
            t(12),
            &[
                ("verdict", Value::Str("grant".into())),
                ("pid", Value::U64(7)),
            ],
        );
        // Leave `outer` open: the open stack must survive the roundtrip so
        // post-restore spans nest identically.
        let mut enc = Enc::new();
        tracer.export(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let restored = Tracer::import(&mut dec).expect("import");
        dec.finish().expect("fully consumed");
        assert_eq!(restored.render_json(), tracer.render_json());
        assert_eq!(restored.span_limit(), 16);
        // New spans keep nesting under the still-open parent on both sides.
        tracer.event("channel.retry", t(13), &[]);
        restored.event("channel.retry", t(13), &[]);
        assert_eq!(restored.render_json(), tracer.render_json());
    }

    #[test]
    fn disabled_tracer_exports_as_disabled() {
        let mut enc = Enc::new();
        Tracer::disabled().export(&mut enc);
        let bytes = enc.into_bytes();
        let restored = Tracer::import(&mut Dec::new(&bytes)).expect("import");
        assert!(!restored.is_enabled());
    }

    #[test]
    fn metrics_registry_roundtrips_byte_identically() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("overhaul_monitor_grants_total", 3);
        reg.set_gauge("overhaul_channel_state", 2);
        reg.observe_ms("overhaul_channel_exchange_ms", 42);
        let mut enc = Enc::new();
        reg.pack(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let restored = MetricsRegistry::unpack(&mut dec).expect("unpack");
        dec.finish().expect("fully consumed");
        assert_eq!(restored.render(), reg.render());
    }

    #[test]
    fn virtual_durations_feed_histograms() {
        let mut reg = MetricsRegistry::new();
        let d = SimDuration::from_millis(40);
        reg.observe_ms("w_ms", d.as_millis());
        assert_eq!(reg.histogram("w_ms").unwrap().sum_ms(), 40);
    }
}
