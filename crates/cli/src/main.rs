//! `anomex` — command-line anomaly extraction.
//!
//! ```text
//! anomex generate --out trace.nfv5 [--seed 42] [--scenario small|two-weeks] [--scale 0.25]
//! anomex extract  --in trace.nfv5 [--interval-min 15] [--training 48] [--support 50]
//!                 [--miner apriori|fpgrowth|eclat] [--prefixes] [--intersection]
//! anomex stream   --in trace.nfv5|- [--interval-min 15] [--training 48] [--support 50]
//!                 [--miner apriori|fpgrowth|eclat] [--threads N] [--verbose]
//!                 [--checkpoint-dir DIR] [--checkpoint-every N] [--resume] [--stop-after N]
//! anomex analyze  --in trace.nfv5 --metadata "dstPort=7000,#packets=12" [--support 50]
//!                 [--top N] [--prefixes] [--intersection]
//! anomex table2   [--scale 1.0]
//! anomex help
//! ```
//!
//! Traces are concatenated NetFlow v5 datagrams — the same bytes a 2007
//! router would export — so `generate` output is also a fixture for any
//! other NetFlow tool.

#![forbid(unsafe_code)]

mod args;
mod commands;

use std::process::ExitCode;

use args::Args;

fn main() -> ExitCode {
    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    let result = match parsed.command.as_str() {
        "generate" => commands::generate(&parsed),
        "extract" => commands::extract(&parsed),
        "stream" => commands::stream(&parsed),
        "analyze" => commands::analyze(&parsed),
        "table2" => commands::table2(&parsed),
        "help" | "--help" | "-h" => commands::help_to(&mut std::io::stdout().lock()),
        other => Err(format!("unknown command {other:?}\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
