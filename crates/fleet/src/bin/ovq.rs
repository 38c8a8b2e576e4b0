//! `ovq` — query a saved soak artifact dir.
//!
//! ```text
//! ovq [--dir DIR] p50|p90|p99|p999 <mechanism>
//! ovq [--dir DIR] exemplar <mechanism> [--p 99]
//! ovq [--dir DIR] ledger-diff <shardA> <shardB>
//! ovq why --triple <path>
//! ```
//!
//! `DIR` is the output of `fleet_soak --out DIR` (defaults to `.`): the
//! fleet's merged latency sketch book, one replayable archive per clean
//! shard, and any forced failure triple.
//!
//! * The percentile commands read the merged book and print the fleet's
//!   wall-clock quantile for a mechanism (`decide`, `decide_cached`,
//!   `channel_exchange`, `ledger_append`, `mm_fault`, `snapshot`, ...).
//! * `exemplar` resolves the exemplar riding the requested percentile
//!   bucket: it prints the `(shard seed, event index, span, ledger seq)`
//!   replay coordinate, then *re-executes* the owning shard up to that
//!   event and confirms the same span and ledger sequence reappear —
//!   turning a tail-latency number into a verified forensic artifact.
//!   Exits non-zero if the re-execution does not confirm.
//! * `ledger-diff` compares two shards' ledger digests and localizes
//!   any divergence (chain anchors, effect-class counts, control plane).
//! * `why` replays a failure triple from boot and from its snapshot and
//!   reports the reproduction verdict plus the sealed history digest.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use overhaul_fleet::{
    find_archive, load_archives, load_merged, replay_triple, replay_triple_from_snapshot,
    resolve_exemplar, FailureTriple,
};
use overhaul_sim::Mechanism;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ovq [--dir DIR] p50|p90|p99|p999 <mechanism>\n\
         \x20      ovq [--dir DIR] exemplar <mechanism> [--p 50|90|99|999]\n\
         \x20      ovq [--dir DIR] ledger-diff <shardA> <shardB>\n\
         \x20      ovq why --triple <path>"
    );
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("ovq: {msg}");
    ExitCode::from(2)
}

/// Strips `--flag value` out of the argument list, returning the value.
fn take_flag(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        return None;
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

fn parse_quantile(p: &str) -> Option<(&'static str, f64)> {
    match p {
        "50" => Some(("p50", 0.50)),
        "90" => Some(("p90", 0.90)),
        "99" => Some(("p99", 0.99)),
        "999" => Some(("p999", 0.999)),
        _ => None,
    }
}

fn parse_mechs(name: &str) -> Result<Vec<Mechanism>, String> {
    Mechanism::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Mechanism::ALL.iter().map(Mechanism::label).collect();
        format!(
            "unknown mechanism {name:?} (try: decide, {})",
            known.join(", ")
        )
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let dir = PathBuf::from(take_flag(&mut args, "--dir").unwrap_or_else(|| ".".into()));
    let percentile = take_flag(&mut args, "--p");
    let triple_path = take_flag(&mut args, "--triple");

    match args.first().map(String::as_str) {
        Some(q @ ("p50" | "p90" | "p99" | "p999")) => {
            let Some(mech) = args.get(1) else {
                return usage();
            };
            cmd_quantile(&dir, q, mech)
        }
        Some("exemplar") => {
            let Some(mech) = args.get(1) else {
                return usage();
            };
            cmd_exemplar(&dir, mech, percentile.as_deref().unwrap_or("99"))
        }
        Some("ledger-diff") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let (Ok(a), Ok(b)) = (a.parse::<usize>(), b.parse::<usize>()) else {
                return fail("ledger-diff takes two shard indices");
            };
            cmd_ledger_diff(&dir, a, b)
        }
        Some("why") => {
            let Some(path) = triple_path else {
                return usage();
            };
            cmd_why(Path::new(&path))
        }
        _ => usage(),
    }
}

fn cmd_quantile(dir: &Path, q: &str, mech: &str) -> ExitCode {
    let (label, quantile) = parse_quantile(&q[1..]).expect("matched above");
    let mechs = match parse_mechs(mech) {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    let merged = match load_merged(dir) {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    let sketch = merged.wall_merged(&mechs);
    if sketch.count() == 0 {
        return fail(&format!("no samples recorded for mechanism {mech:?}"));
    }
    println!(
        "{mech} {label} = {} ns ({} samples, max {} ns)",
        sketch.quantile(quantile),
        sketch.count(),
        sketch.max()
    );
    ExitCode::SUCCESS
}

fn cmd_exemplar(dir: &Path, mech: &str, p: &str) -> ExitCode {
    let Some((label, quantile)) = parse_quantile(p) else {
        return fail("--p takes 50, 90, 99, or 999");
    };
    let mechs = match parse_mechs(mech) {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    let merged = match load_merged(dir) {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    let sketch = merged.wall_merged(&mechs);
    let Some(exemplar) = sketch.exemplar_at(quantile) else {
        return fail(&format!("no {label} exemplar recorded for {mech:?}"));
    };
    println!(
        "{mech} {label} exemplar: {} ns at shard seed {:#018x}, event {}, span {}, ledger seq {}",
        exemplar.value, exemplar.seed, exemplar.event_idx, exemplar.span, exemplar.ledger_seq
    );
    let archives = match load_archives(dir) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let Some(archive) = find_archive(&archives, exemplar.seed) else {
        eprintln!(
            "ovq: no archive for shard seed {:#018x} (failed shard, or dir written without \
             archives)",
            exemplar.seed
        );
        return ExitCode::from(2);
    };
    match resolve_exemplar(archive, &mechs, &exemplar) {
        Ok(res) if res.confirmed => {
            println!(
                "confirmed: shard {} re-executed from {} reproduces span {} / ledger seq {} \
                 at event {}",
                res.shard_index,
                if res.from_snapshot {
                    "last-good snapshot"
                } else {
                    "boot"
                },
                exemplar.span,
                exemplar.ledger_seq,
                exemplar.event_idx
            );
            ExitCode::SUCCESS
        }
        Ok(res) => {
            eprintln!(
                "ovq: NOT confirmed — shard {} replayed event {} but watched {:?}, wanted \
                 (span {}, seq {})",
                res.shard_index,
                exemplar.event_idx,
                res.watched,
                exemplar.span,
                exemplar.ledger_seq
            );
            ExitCode::FAILURE
        }
        Err(e) => fail(&e),
    }
}

fn cmd_ledger_diff(dir: &Path, a: usize, b: usize) -> ExitCode {
    let archives = match load_archives(dir) {
        Ok(ar) => ar,
        Err(e) => return fail(&e),
    };
    let find = |idx: usize| archives.iter().find(|ar| ar.index == idx);
    let (Some(left), Some(right)) = (find(a), find(b)) else {
        return fail(&format!(
            "shard {a} or {b} has no archive in this dir (indices present: {:?})",
            archives.iter().map(|ar| ar.index).collect::<Vec<_>>()
        ));
    };
    println!("shard {a}: {}", left.ledger.render());
    println!("shard {b}: {}", right.ledger.render());
    let diff = left.ledger.diff(&right.ledger);
    if diff.is_empty() {
        println!("ledgers agree");
    } else {
        println!("divergence localized ({} fields):", diff.len());
        for line in diff {
            println!("  {line}");
        }
    }
    ExitCode::SUCCESS
}

fn cmd_why(path: &Path) -> ExitCode {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return fail(&format!("read {}: {e}", path.display())),
    };
    let triple = match FailureTriple::from_bytes(&bytes) {
        Ok(t) => t,
        Err(e) => return fail(&format!("parse {}: {e:?}", path.display())),
    };
    overhaul_fleet::quiet_injected_panics();
    println!(
        "shard {} seed {:#018x}: {:?}",
        triple.index, triple.seed, triple.kind
    );
    let sealed = |v: Option<u64>| v.map_or("<unsealed>".into(), |h| format!("{h:016x}"));
    println!(
        "  {} recorded events, snapshot covers {}, sealed state hash {}, ledger head {}",
        triple.log.events.len(),
        triple.snap_idx,
        sealed(triple.sealed_hash()),
        sealed(triple.log.final_ledger_head),
    );
    if let Some(op) = &triple.failing_op {
        println!("  failing op: {op:?}");
    }
    let from_boot = replay_triple(&triple);
    let from_snap = replay_triple_from_snapshot(&triple);
    println!("  replay from boot:     {from_boot:?}");
    println!("  replay from snapshot: {from_snap:?}");
    if from_boot.is_reproduced() && from_snap == from_boot {
        println!("reproduced: the sealed log explains this failure byte-identically");
        ExitCode::SUCCESS
    } else {
        println!("NOT reproduced: the triple no longer explains the failure");
        ExitCode::FAILURE
    }
}
