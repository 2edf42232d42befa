//! `profit-mining` — command-line profit mining.
//!
//! `profit-mining help` prints every command and the flags it takes
//! ([`pm_cli::usage`]); any other flag is a usage error.
//!
//! Datasets are the JSON produced by `gen` (or by
//! [`pm_txn::TransactionSet::to_json`]); models serialize the trained
//! rule list plus catalog/hierarchy so `recommend` works without
//! retraining.

use pm_cli::{run, CliError};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
