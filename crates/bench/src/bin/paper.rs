//! Runs the paper's evaluation and writes `BENCH_paper.json`.
//!
//! ```text
//! cargo run --release -p overhaul-bench --bin paper
//! ```
//!
//! Prints one line per key of [`overhaul_bench::paper::evaluate`], with
//! the paper's value beside it where the paper gives one. The committed
//! `crates/bench/baselines/BENCH_paper.json` pins every key: `cargo test`
//! fails when one moves, and EXPERIMENTS.md quotes it.

use overhaul_bench::paper;

fn main() {
    let artifact = paper::evaluate();
    let json = artifact.to_json();
    let fields = paper::fields(&json);
    for &(key, value) in &fields {
        if key == "name" || key.ends_with("_paper") {
            continue;
        }
        let paper_key = format!("{key}_paper");
        match fields.iter().find(|(k, _)| *k == paper_key) {
            Some((_, paper)) => println!("{key:<44} {value:>6}   paper {paper}"),
            None => println!("{key:<44} {value:>6}"),
        }
    }
    match artifact.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write bench artifact: {e}"),
    }
}
