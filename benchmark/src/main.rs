//! End-to-end benchmark of the `anomex` command line.
//!
//! ```text
//! benchmark [run]   --workload quiet|alarm|fanin --seed N [--seconds S]   end-to-end metrics
//! benchmark [trace] --workload W --seed N                                 per-layer metrics + span file
//! benchmark selfcheck [--sets 2] [--runs 5] [--workload W]                do two sets of runs agree?
//! benchmark manifest                                                      print BENCHMARK.json
//! ```
//!
//! The driver's form, `--workload W --seed N --seconds S --trace 0|1`,
//! selects `run` or `trace` by the `--trace` value. The last line of
//! standard output is the result as one JSON object; everything above
//! it is for people. See `README.md` beside this crate.

mod alloc;
mod check;
mod child;
mod json;
mod manifest;
mod parse;
mod replica;
mod run;
mod selfcheck;
mod stats;
mod tracer;
mod workload;

use std::process::ExitCode;

use crate::manifest::RUN_SECONDS;
use crate::run::Outcome;
use crate::workload::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The command line after parsing.
struct Cli {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    sets: usize,
    runs: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: String::new(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        sets: 2,
        runs: 5,
    };
    let mut trace = false;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let Some(key) = arg.strip_prefix("--") else {
            if !cli.command.is_empty() {
                return Err(format!("unexpected argument {arg:?}"));
            }
            cli.command.clone_from(arg);
            continue;
        };
        let value = rest
            .next()
            .ok_or_else(|| format!("--{key} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("--{key} {value:?}: expected a whole number"))
        };
        match key {
            "workload" => {
                cli.workload =
                    Some(Workload::parse(value).ok_or_else(|| {
                        format!("unknown workload {value:?} (quiet|alarm|fanin)")
                    })?);
            }
            "seed" => cli.seed = number()?,
            "seconds" => cli.seconds = number()?,
            "sets" => cli.sets = number()? as usize,
            "runs" => cli.runs = number()? as usize,
            "trace" => trace = number()? != 0,
            other => return Err(format!("unknown option --{other}")),
        }
    }
    if cli.command.is_empty() {
        cli.command = if trace { "trace" } else { "run" }.into();
    }
    Ok(cli)
}

/// Print every metric by name with its unit, then the result line.
fn report(outcome: &Outcome) {
    for (metric, value) in &outcome.metrics {
        println!("{:<44} {value:>16.4} {}", metric.name, metric.unit);
    }
    let metrics = outcome.metrics.iter().map(|(metric, value)| {
        let fields = [
            ("value", json::number(*value)),
            ("unit", json::string(metric.unit)),
        ];
        (metric.name, json::object(fields))
    });
    println!(
        "{}",
        json::object([
            ("correct", outcome.correct.to_string()),
            ("attempted", outcome.attempted.to_string()),
            ("failed", outcome.failed.to_string()),
            ("metrics", json::object(metrics)),
        ])
    );
}

fn dispatch(cli: &Cli) -> Result<bool, String> {
    let workload = || {
        cli.workload
            .ok_or("--workload quiet|alarm|fanin is required")
    };
    match cli.command.as_str() {
        "manifest" => {
            print!("{}", manifest::manifest_json());
            Ok(true)
        }
        "run" => {
            let outcome = run::run(&run::prepare()?, workload()?, cli.seed, cli.seconds)?;
            report(&outcome);
            Ok(true)
        }
        "trace" => {
            let outcome = replica::trace(&run::prepare()?, workload()?, cli.seed)?;
            report(&outcome);
            Ok(true)
        }
        "selfcheck" => selfcheck::selfcheck(
            &run::prepare()?,
            cli.workload,
            cli.sets,
            cli.runs,
            cli.seconds,
        ),
        other => Err(format!(
            "unknown command {other:?} (run|trace|selfcheck|manifest)"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| dispatch(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
