//! The `autocomm` command-line compiler.
//!
//! `autocomm compile <file.qasm> --nodes N [--ablation ...] [--json]`
//! drives QASM parsing → partitioning → the AutoComm compiler →
//! metrics end to end; `autocomm batch <dir|--suite> --nodes N [--jobs J]`
//! fans a whole workload set across a worker pool; `autocomm serve` keeps
//! a persistent compile daemon with a content-addressed artifact cache
//! (`submit`/`stats`/`shutdown` are its clients). See [`dqc_cli::USAGE`]
//! for the full surface.

use std::process::ExitCode;

use dqc_cli::batch::{run_batch, BatchArgs};
use dqc_cli::serve::{
    parse_addr, run_serve, run_shutdown, run_stats, run_submit, ServeArgs, SubmitArgs,
};
use dqc_cli::{compile, CliError, CompileArgs, USAGE};

/// The one error printer: usage errors get the usage text and exit 2,
/// every other error exits 1.
fn exit_code(result: Result<ExitCode, CliError>) -> ExitCode {
    match result {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("autocomm: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let done = |()| ExitCode::SUCCESS;
    exit_code(match args.next().as_deref() {
        Some("compile") => CompileArgs::parse(args).and_then(compile).map(|report| {
            if report.args.json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.to_text());
            }
            ExitCode::SUCCESS
        }),
        Some("batch") => BatchArgs::parse(args).and_then(run_batch).map(|report| {
            if report.args.json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.to_text());
            }
            if report.failures() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }),
        Some("serve") => ServeArgs::parse(args).and_then(run_serve).map(done),
        Some("submit") => SubmitArgs::parse(args).and_then(|a| run_submit(&a)).map(done),
        Some("stats") => parse_addr(args).and_then(|a| run_stats(&a)).map(done),
        Some("shutdown") => parse_addr(args).and_then(|a| run_shutdown(&a)).map(done),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(CliError::Usage(format!("autocomm: unknown command '{other}'"))),
        None => {
            eprint!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    })
}
