//! `waco-cli` — the command-line face of WACO-rs.
//!
//! ```text
//! waco-cli gen      --family kronecker --size 512 --out graph.mtx
//! waco-cli inspect  graph.mtx
//! waco-cli bench    --kernel spmm graph.mtx
//! waco-cli train    --kernel spmm --out model.ckpt
//! waco-cli tune     --kernel spmm --model model.ckpt graph.mtx
//! waco-cli serve    --cache /var/tmp/waco-cache --addr 127.0.0.1:7470
//! waco-cli route    --shards 127.0.0.1:7470,127.0.0.1:7471
//! waco-cli query    --addr 127.0.0.1:7470 graph.mtx
//! waco-cli verify   --seed 42 --budget smoke
//! waco-cli plan     --kernel spmv --rows 1024 --cols 1024
//! ```
//!
//! All tuning runs against the deterministic machine simulator (see the
//! `waco-sim` crate); `tune` prints the chosen SuperSchedule and compares it
//! with the Fixed CSR, MKL-like, and BestFormat baselines.
//!
//! A global `--trace <path>` flag (any command) installs the `waco-obs`
//! subscriber: at exit the span tree is printed to stderr and the full
//! trace is written to `<path>` as JSON.
//!
//! Exit codes: 0 on success, 2 on any error (bad flags, missing files,
//! malformed checkpoints, infeasible tuning) — always with a one-line
//! `error: …` message on stderr.

mod commands;
mod loadgen;

use std::process::ExitCode;
use waco_core::WacoError;

/// Removes a global `--trace <path>` flag pair from the argument list,
/// returning the path when present.
fn extract_trace(args: &mut Vec<String>) -> Result<Option<String>, WacoError> {
    let Some(i) = args.iter().position(|a| a == "--trace") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(WacoError::InvalidConfig("--trace needs a file path".into()));
    }
    let path = args.remove(i + 1);
    args.remove(i);
    Ok(Some(path))
}

fn run(args: Vec<String>) -> Result<(), WacoError> {
    let Some(cmd) = args.first() else {
        eprintln!("{}", commands::USAGE);
        return Err(WacoError::InvalidConfig("no command given".into()));
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "gen" => commands::gen(rest),
        "inspect" => commands::inspect(rest),
        "bench" => commands::bench(rest),
        "train" => commands::train(rest),
        "tune" => commands::tune(rest),
        "serve" => commands::serve(rest),
        "route" => commands::route(rest),
        "query" => commands::query(rest),
        "verify" => commands::verify(rest),
        "loadgen" => loadgen::loadgen(rest),
        "plan" => commands::plan(rest),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => {
            eprintln!("{}", commands::USAGE);
            Err(WacoError::InvalidConfig(format!(
                "unknown command `{other}`"
            )))
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace = match extract_trace(&mut args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if trace.is_some() {
        waco_obs::install();
    }
    let result = run(args);
    if let Some(path) = trace {
        waco_obs::print_tree();
        match waco_obs::snapshot().to_json().write_file(&path) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => eprintln!("error: writing trace {path}: {e}"),
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
