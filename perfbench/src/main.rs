//! The benchmark command.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload query|ingest|maintain --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints the run's input sizes and every metric by name with its unit,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when any answer disagreed with the
//! oracle or any operation failed, 2 on a usage or set-up error.

use perfbench::inputs::Sizes;
use perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use perfbench::{run, RunConfig, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload query|ingest|maintain --seed N --seconds S --trace 0|1";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let workload = flag(args, "--workload")
        .and_then(Workload::parse)
        .ok_or("--workload must be query, ingest or maintain")?;
    let seed = flag(args, "--seed")
        .and_then(|s| s.parse().ok())
        .ok_or("--seed must be an unsigned integer")?;
    let seconds: f64 = flag(args, "--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(RunConfig {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::standard(),
        work_dir: PathBuf::from(".bench_out"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let config = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{} failed: {e}", config.workload.name());
            return ExitCode::from(2);
        }
    };
    let i = &outcome.inputs;
    println!(
        "workload {} seed {}: {} docs, {} elements, {} links, {} cover entries",
        config.workload.name(),
        config.seed,
        i.docs,
        i.elements,
        i.links,
        i.cover_entries
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    let defs = if config.trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        if let Some(v) = outcome.values.get(d.name) {
            println!("  {:<44} {v:>14.4} {}", d.name, d.unit);
        }
    }
    let t = &outcome.tally;
    println!(
        "  failed/attempted: {}/{} (failed_ratio {})",
        t.failed,
        t.attempted,
        t.failed_ratio()
    );
    for r in &t.reasons {
        eprintln!("FAILED: {r}");
    }
    match result_line(outcome.correct(), t, config.trace, &outcome.values) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
