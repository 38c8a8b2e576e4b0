//! The fleet observability plane, pinned end to end.
//!
//! Four guarantees from the latency-sketch / exemplar / ledger-view work:
//!
//! 1. **Determinism** — two fleets run from the same master seed merge
//!    byte-identical deterministic sketch planes
//!    ([`SketchBook::canonical_bytes`]) and identical per-shard ledger
//!    digests, even though shards run on a racing worker pool and the
//!    wall-clock plane differs run to run.
//! 2. **Exemplar forensics** — a sketch exemplar is a *replayable
//!    coordinate*: re-executing its shard up to the recorded event index
//!    (from boot, and from a mid-run snapshot) reproduces the exact
//!    `(span id, ledger seq)` pair the exemplar carries. Property-tested
//!    across seeds and workload shapes on a traced machine, so span ids
//!    are non-trivial.
//! 3. **Span-drop hygiene** — overflowing the tracer's span buffer bumps
//!    `overhaul_trace_spans_dropped_total` but never perturbs decide
//!    head-sampling or trace/metrics determinism.
//! 4. **Prometheus conformance** — every exported metrics page parses
//!    under the text exposition format: `# HELP`/`# TYPE` precede every
//!    family, types are legal, label values are escaped, histogram
//!    series agree with their declared family.

use std::collections::{BTreeSet, HashMap};

use overhaul_core::{Event, OverhaulConfig, Recorder, System};
use overhaul_fleet::{resolve_exemplar_via, run_fleet, FleetConfig, FleetWorkload, ShardArchive};
use overhaul_sim::{label_metric, Mechanism, MetricsRegistry, SimDuration, Tracer};
use overhaul_xserver::geometry::Rect;
use proptest::prelude::*;

fn decide_mechs() -> Vec<Mechanism> {
    Mechanism::parse("decide").expect("decide parses")
}

// ---------------------------------------------------------------------
// 1. Fleet-level determinism of the merged sketch plane.
// ---------------------------------------------------------------------

fn small_fleet(master_seed: u64) -> FleetConfig {
    FleetConfig {
        master_seed,
        shards: 6,
        workers: 3,
        workload: FleetWorkload::default(),
        shrink: false,
        ..FleetConfig::default()
    }
}

#[test]
fn merged_sketches_byte_identical_across_same_seed_runs() {
    let a = run_fleet(&small_fleet(0x0b5e7));
    let b = run_fleet(&small_fleet(0x0b5e7));
    assert_eq!(
        a.sketches.canonical_bytes(),
        b.sketches.canonical_bytes(),
        "same master seed must merge a byte-identical deterministic plane"
    );
    assert!(
        a.sketches.wall_merged(&decide_mechs()).count() > 0,
        "the fleet must sample decides"
    );
    let heads = |r: &overhaul_fleet::FleetReport| -> Vec<(usize, u64)> {
        r.ledgers.iter().map(|(i, l)| (*i, l.head)).collect()
    };
    assert_eq!(heads(&a), heads(&b), "per-shard chain heads must agree");
    // A different master seed must move the deterministic plane (the
    // exemplar coordinates alone differ).
    let c = run_fleet(&small_fleet(0x0b5e8));
    assert_ne!(a.sketches.canonical_bytes(), c.sketches.canonical_bytes());
}

// ---------------------------------------------------------------------
// 2. Exemplar -> replay round trip on a traced machine.
// ---------------------------------------------------------------------

/// Records a traced machine: launch + settle, mid-run checkpoint, then
/// `opens` device decisions spaced `gap_ms` apart. Returns the archive
/// `ovq` would query.
fn traced_archive(seed: u64, opens: usize, gap_ms: u64) -> ShardArchive {
    let mut rec = Recorder::new(OverhaulConfig::protected().with_tracing());
    rec.set_sketch_seed(seed);
    let gui = rec
        .apply(Event::LaunchGuiApp {
            exe: "/usr/bin/recorder".into(),
            rect: Rect::new(0, 0, 200, 150),
        })
        .gui()
        .expect("launch");
    rec.apply(Event::Settle);
    let snap_idx = rec.events_recorded();
    let snapshot = rec.snapshot();
    let device = if seed.is_multiple_of(2) {
        "/dev/snd/mic0"
    } else {
        "/dev/video0"
    };
    for _ in 0..opens {
        rec.apply(Event::Advance(SimDuration::from_millis(gap_ms)));
        rec.apply(Event::OpenDevice {
            pid: gui.pid,
            path: device.into(),
        });
    }
    let (system, log) = rec.finish();
    ShardArchive {
        index: 0,
        seed,
        sketches: system.sketch_book().clone(),
        ledger: system.ledger_summary(),
        log,
        snap_idx,
        snapshot,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    #[test]
    fn exemplar_replay_round_trip(
        seed in any::<u64>(),
        opens in 66usize..96,
        gap_ms in 20u64..400,
    ) {
        let archive = traced_archive(seed, opens, gap_ms);
        let mechs = decide_mechs();
        let sketch = archive.sketches.wall_merged(&mechs);
        prop_assert!(sketch.count() >= 2, "want >=2 sampled decides, got {}", sketch.count());
        let mut seen = BTreeSet::new();
        for q in [0.01, 0.50, 0.90, 0.99, 0.999] {
            let Some(exemplar) = sketch.exemplar_at(q) else { continue };
            if !seen.insert((exemplar.event_idx, exemplar.span, exemplar.ledger_seq)) {
                continue;
            }
            prop_assert_eq!(exemplar.seed, seed, "exemplar stamped with the shard seed");
            // Every decide here happens past the checkpoint, so both
            // replay paths apply and must confirm the same coordinate.
            prop_assert!(exemplar.event_idx as usize > archive.snap_idx);
            for from_snapshot in [false, true] {
                let res = resolve_exemplar_via(&archive, &mechs, &exemplar, from_snapshot)
                    .unwrap_or_else(|e| panic!("resolve (from_snapshot={from_snapshot}): {e}"));
                prop_assert!(
                    res.confirmed,
                    "path from_snapshot={} must reproduce (span {}, seq {}) at event {}, \
                     watched {:?}",
                    from_snapshot, exemplar.span, exemplar.ledger_seq, exemplar.event_idx,
                    res.watched
                );
            }
        }
        prop_assert!(!seen.is_empty(), "at least one exemplar must resolve");
        // Span ids are recording indices, so 0 is a legitimate id for the
        // very first span — but a traced machine with several sampled
        // decides must stamp a non-zero id on at least one exemplar.
        prop_assert!(
            seen.len() < 2 || seen.iter().any(|(_, span, _)| *span != 0),
            "traced machines stamp real span ids: {:?}",
            seen
        );
    }
}

// ---------------------------------------------------------------------
// 3. Span drops: counted, deterministic, sampling-neutral.
// ---------------------------------------------------------------------

fn drop_workload(system: &mut System) {
    let gui = system
        .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
        .expect("launch");
    system.settle();
    for _ in 0..12 {
        // Past the proximity window every round re-interacts (a traced
        // channel exchange) and decides uncached (a head-sampled span).
        system.advance(SimDuration::from_millis(5_000));
        let _ = system.click_window(gui.window);
        let _ = system.open_device(gui.pid, "/dev/snd/mic0");
    }
}

#[test]
fn span_drops_counted_without_perturbing_sampling_or_dumps() {
    let run = |limit: Option<usize>| {
        let mut system = System::new(OverhaulConfig::protected().with_tracing());
        if let Some(limit) = limit {
            system
                .kernel_mut()
                .install_tracer(Tracer::with_limit(limit));
        }
        drop_workload(&mut system);
        (
            system.kernel().metrics_registry().render(),
            system
                .kernel()
                .metrics_registry()
                .counter("overhaul_trace_spans_dropped_total"),
            system.sketch_book().clone(),
            system.trace_dump(),
        )
    };
    let (page1, dropped1, book1, dump1) = run(Some(3));
    let (page2, dropped2, book2, dump2) = run(Some(3));
    assert!(
        dropped1 > 0,
        "a 3-span buffer must overflow under this workload"
    );
    assert_eq!(dropped1, dropped2, "drop counts are deterministic");
    assert_eq!(page1, page2, "metrics pages identical across dropping runs");
    assert_eq!(dump1, dump2, "trace dumps identical across dropping runs");
    assert_eq!(
        book1.canonical_bytes(),
        book2.canonical_bytes(),
        "sketch planes identical across dropping runs"
    );

    let (_, dropped0, book0, _) = run(None);
    assert_eq!(dropped0, 0, "the default buffer must not drop here");
    let mechs = decide_mechs();
    assert!(book0.wall_merged(&mechs).count() > 0, "decides are sampled");
    assert_eq!(
        book0.wall_merged(&mechs).count(),
        book1.wall_merged(&mechs).count(),
        "span drops must not perturb decide head-sampling"
    );
}

// ---------------------------------------------------------------------
// 4. Prometheus text-format conformance.
// ---------------------------------------------------------------------

/// Minimal exposition-format checker: families announced before samples,
/// legal types, well-formed names, escaped label values, histogram
/// series tied to a declared histogram family.
fn check_prometheus_page(page: &str) {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    /// Parses `k="v",...` with `\\`, `\"`, and `\n` escapes.
    fn check_labels(s: &str) {
        let mut chars = s.chars().peekable();
        loop {
            let mut name = String::new();
            while chars.peek().is_some_and(|c| *c != '=') {
                name.push(chars.next().unwrap());
            }
            assert!(valid_name(&name), "bad label name {name:?} in {s:?}");
            assert_eq!(chars.next(), Some('='), "label {name} missing '=' in {s:?}");
            assert_eq!(
                chars.next(),
                Some('"'),
                "label {name} missing '\"' in {s:?}"
            );
            loop {
                match chars.next() {
                    Some('\\') => {
                        let esc = chars.next();
                        assert!(
                            matches!(esc, Some('\\' | '"' | 'n')),
                            "bad escape \\{esc:?} in {s:?}"
                        );
                    }
                    Some('"') => break,
                    Some('\n') | None => panic!("unterminated label value in {s:?}"),
                    Some(_) => {}
                }
            }
            match chars.next() {
                None => return,
                Some(',') => {}
                Some(c) => panic!("unexpected {c:?} after label value in {s:?}"),
            }
        }
    }

    let mut helps: BTreeSet<String> = BTreeSet::new();
    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples = 0usize;
    for line in page.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, text) = rest.split_once(' ').expect("HELP carries text");
            assert!(valid_name(name), "bad HELP name {name:?}");
            assert!(!text.trim().is_empty(), "empty HELP for {name}");
            helps.insert(name.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE carries a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "illegal type {kind:?} for {name}"
            );
            assert!(
                helps.contains(name),
                "# TYPE {name} not preceded by its # HELP"
            );
            assert!(
                types.insert(name.to_string(), kind.to_string()).is_none(),
                "family {name} announced twice"
            );
        } else if line.starts_with('#') {
            panic!("unknown comment line {line:?}");
        } else {
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value {value:?} in {line:?}"
            );
            let base = match series.split_once('{') {
                Some((base, labels)) => {
                    let labels = labels.strip_suffix('}').expect("labels close");
                    check_labels(labels);
                    base
                }
                None => series,
            };
            assert!(valid_name(base), "bad metric name {base:?}");
            // A histogram exports base_bucket/base_sum/base_count under
            // the family name announced as `histogram`.
            let family = if types.contains_key(base) {
                base.to_string()
            } else {
                let stripped = base
                    .strip_suffix("_bucket")
                    .or_else(|| base.strip_suffix("_sum"))
                    .or_else(|| base.strip_suffix("_count"))
                    .unwrap_or(base);
                assert_eq!(
                    types.get(stripped).map(String::as_str),
                    Some("histogram"),
                    "sample {base} has no announced family"
                );
                stripped.to_string()
            };
            assert!(
                helps.contains(&family),
                "sample {base} missing HELP for {family}"
            );
            samples += 1;
        }
    }
    assert!(samples > 0, "page exported no samples");
}

#[test]
fn machine_metrics_page_conforms() {
    let mut system = System::new(OverhaulConfig::protected().with_tracing());
    drop_workload(&mut system);
    check_prometheus_page(&system.metrics_registry().render());
}

#[test]
fn fleet_metrics_page_conforms() {
    let report = run_fleet(&small_fleet(0x0b5e7));
    let page = report.render_metrics();
    check_prometheus_page(&page);
    assert!(
        page.contains("overhaul_fleet_latency_ns{mech=\"decide_uncached\",q=\"p99\"}"),
        "fleet page exports merged latency quantiles"
    );
    assert!(
        page.contains("overhaul_fleet_ledger_head{shard=\"0\"}"),
        "fleet page exports per-shard chain heads"
    );
}

#[test]
fn hostile_label_values_are_escaped_and_still_parse() {
    let mut reg = MetricsRegistry::new();
    let name = label_metric(
        "overhaul_test_hostile",
        "path",
        "quote\" backslash\\ newline\n end",
    );
    reg.set_counter(&name, 7);
    let page = reg.render();
    assert!(
        page.contains(r#"path="quote\" backslash\\ newline\n end""#),
        "escapes must be literal in the page: {page}"
    );
    check_prometheus_page(&page);
}
