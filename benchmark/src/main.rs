//! End-to-end and per-layer benchmark of the AutoComm reproduction.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <table2|random-1m|sparse-2048-topo|serve-zipf|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures what a user sees and prints the end-to-end
//! metrics; `--trace 1` repeats the same work call by call with a span
//! around each call into a crate and prints the per-layer metrics. The
//! last line of standard output is the result object. `--workload all`
//! runs every workload in its own process (so no workload inherits
//! another's peak memory) and prints a table. See README.md.

#![forbid(unsafe_code)]

mod compile_wl;
mod inputs;
mod mirror;
mod outcome;
mod serve_wl;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use inputs::Workload;
use outcome::{result_line, Metric, Tally};

/// Scratch space for generated inputs and traces, relative to the
/// directory the benchmark runs from.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

fn run_one(workload: Workload, args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let dir = Path::new(WORK_DIR).join(format!(
        "{}-s{}-p{}",
        workload.name(),
        args.seed,
        std::process::id()
    ));
    let out = match (workload, args.trace) {
        (Workload::ServeZipf, false) => serve_wl::run(args.seed, args.seconds, &dir),
        (_, false) => compile_wl::run(workload, args.seed, args.seconds, &dir),
        (w, true) => {
            let traced = match w {
                Workload::ServeZipf => serve_wl::run_traced(args.seed, args.seconds, &dir),
                _ => compile_wl::run_traced(w, args.seed, args.seconds, &dir),
            };
            traced.and_then(|(tally, metrics, tracer)| {
                let path = PathBuf::from(WORK_DIR).join(format!(
                    "trace-{}-s{}.jsonl",
                    w.name(),
                    args.seed
                ));
                std::fs::write(&path, tracer.to_jsonl())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!(
                    "benchmark: {} spans written to {}",
                    tracer.spans().len(),
                    path.display()
                );
                Ok((tally, metrics))
            })
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Runs every workload as a child process and prints one table.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failed = false;
    for w in inputs::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        if !out.status.success() || line.is_empty() {
            println!("{:<18} FAILED ({})", w.name(), out.status);
            failed = true;
            continue;
        }
        let parsed = dqc_cli::json::Json::parse(line).map_err(|e| format!("{}: {e}", w.name()))?;
        let num = |k: &str| parsed.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        let (attempted, fails) = (num("attempted"), num("failed"));
        println!(
            "{:<18} correct={} attempted={attempted} failed={fails} failed_frac={}",
            w.name(),
            parsed.get("correct").and_then(|v| v.as_bool()).unwrap_or(false),
            fails / attempted
        );
        if let Some(dqc_cli::json::Json::Object(metrics)) = parsed.get("metrics") {
            for (name, m) in metrics {
                let value = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(|v| v.as_str()).unwrap_or("");
                println!("    {name:<30} {value:>16.4} {unit}");
                // The paper states its results as reductions.
                if let Some(paper) = match name.as_str() {
                    "comm_ratio" => Some("comm_reduction_pct"),
                    "latency_ratio" => Some("latency_reduction_pct"),
                    _ => None,
                } {
                    println!("    {paper:<30} {:>16.4} %", 100.0 * (1.0 - value));
                }
            }
        }
        failed |= fails > 0.0;
    }
    if failed {
        Err("at least one workload failed".into())
    } else {
        Ok(())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("benchmark: unknown workload '{}'", args.workload);
        return ExitCode::from(2);
    };
    match run_one(workload, &args) {
        Ok((tally, metrics)) => {
            println!("{}", result_line(&tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}
