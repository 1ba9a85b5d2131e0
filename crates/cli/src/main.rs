//! `hopi` — command-line interface for the HOPI XML connection index.
//!
//! ```text
//! hopi gen   --kind dblp|inex --scale 0.01 --out DIR     generate a sample collection
//! hopi stats --dir DIR                                    Table-1 style statistics
//! hopi build --dir DIR --out FILE [--mode default|flat|old]
//! hopi query --dir DIR --index FILE [--explain | --ranked [--k N]] EXPR
//!                                                         evaluate a path expression
//! hopi check --dir DIR --index FILE [--samples N]         verify index vs BFS oracle
//! hopi serve --dir DIR [--index FILE] [--port N] [--threads N] [--frozen]
//! ```
//!
//! A "collection directory" is a directory of `*.xml` files; the file stem
//! is the document name used for cross-document `href` resolution.

#![forbid(unsafe_code)]

mod commands;
mod load;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "gen" => commands::generate(rest),
        "stats" => commands::stats(rest),
        "build" => commands::build(rest),
        "query" => commands::query(rest),
        "check" => commands::check(rest),
        "serve" => commands::serve(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
hopi — 2-hop connection index for XML document collections (ICDE 2005)

USAGE:
  hopi gen   --kind dblp|inex --scale F --out DIR   generate a sample collection
  hopi stats --dir DIR [--index FILE]               collection statistics (Table 1)
                                                    (--index: engine + snapshot stats)
  hopi stats --addr HOST:PORT                       a running server's health + stats
                                                    (degraded/read-only, WAL health)
  hopi stats --slow [--addr HOST:PORT]              a running server's slow-query log
                                                    (trace ids + per-stage breakdowns)
  hopi build --dir DIR --out FILE [--mode default|flat|old]
                                                    build and persist the index
  hopi query --dir DIR --index FILE [--explain | --ranked [--k N]] EXPR
                                                    evaluate a path expression, e.g.
                                                    \"//article//sec[contains(., \\\"xml\\\")]\"
                                                    (--explain: per-step plan on stderr;
                                                    --ranked: fused distance+BM25 top-k)
  hopi check --dir DIR --index FILE [--samples N]   verify the index against a
                                                    BFS reachability oracle
  hopi serve --dir DIR [--index FILE] [--port N] [--threads N] [--frozen] [--distance]
             [--slow-threshold MS] [--queue-capacity N] [--queue-deadline MS]
                                                    serve the collection over HTTP
                                                    (--frozen: read-only; --slow-threshold:
                                                    slow-query log cutoff, default 10ms;
                                                    --queue-capacity/--queue-deadline:
                                                    admission control, overflow answers 429;
                                                    shutdown on stdin EOF or 'quit' line)";
