//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the root of a repository checkout and prints
//! the host record, then one JSON result line as the last line of
//! standard output. Exits 0 when every output checked out, 1 when a
//! check failed, 2 when the run could not be made.
//!
//! `perfbench simdize <args>` runs the simdize command line instead;
//! `serve-mixed` starts its server child this way.

use perfbench::{run_workload, RunConfig};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{}", usage());
    let cfg = RunConfig {
        seed: seed.ok_or_else(|| missing("--seed"))?,
        root: std::path::PathBuf::from("."),
        measure: Duration::from_secs(seconds.ok_or_else(|| missing("--seconds"))?),
        trace: trace.unwrap_or(false),
        server_exe: std::env::current_exe().map_err(|e| format!("own executable: {e}"))?,
    };
    Ok((workload.ok_or_else(|| missing("--workload"))?, cfg))
}

/// Runs the simdize command line, as the `simdize` binary does.
fn simdize(args: &[String]) -> ExitCode {
    let read_file = |path: &str| -> Result<String, Box<dyn std::error::Error>> {
        Ok(std::fs::read_to_string(simdize_cli::resolve_loop_path(
            path,
        ))?)
    };
    match simdize_cli::parse_args(args, &read_file).and_then(|o| simdize_cli::run(&o)) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simdize: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("simdize") {
        return simdize(&args[1..]);
    }
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run_workload(&workload, &cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    let result = outcome.render(cfg.trace);
    for problem in &outcome.problems {
        eprintln!("perfbench: {workload}: {problem}");
    }
    eprintln!(
        "perfbench: {workload}: {} of {} checked operations failed",
        outcome.failed, outcome.attempted
    );
    println!("{}", perfbench::metrics::host_record());
    println!("{result}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
