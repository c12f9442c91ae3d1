//! `anomex` — command-line anomaly extraction: `generate`, `extract`,
//! `stream`, `analyze` and `table2`. `anomex help` prints every command
//! and option (the `USAGE` text in `commands.rs`).
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
            commands::note(format_args!("error: {e}"));
            commands::note(commands::USAGE);
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
            commands::note(format_args!("error: {e}"));
            ExitCode::FAILURE
        }
    }
}
