//! Operation accounting, output checks shared by every workload, and the
//! result line.

use std::fmt::Write as _;

use autocomm::{ArtifactCircuitStats, ArtifactConfig, CompiledArtifact, ScheduleOptions};
use dqc_baselines::compile_ferrari;
use dqc_circuit::{from_qasm, unroll_circuit, CircuitStats};
use dqc_cli::json::Json;
use dqc_cli::CompileReport;
use dqc_hardware::validate_events;

/// Attempted and failed operations. A failure is an error, a panic, or a
/// failed output check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation; reports and counts it as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: check failed: {}", what());
        }
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.check(false, what);
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints every digit of the f64 (and keeps a `.0` on whole
        // numbers, so the value stays a JSON number either way).
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The report's JSON without the wall-clock `passes` array: the part of a
/// compile's output that must repeat exactly.
pub fn deterministic_json(rendered: &str) -> String {
    match Json::parse(rendered) {
        Ok(Json::Object(fields)) => {
            Json::Object(fields.into_iter().filter(|(k, _)| k != "passes").collect()).to_string()
        }
        Ok(other) => other.to_string(),
        Err(e) => format!("unparseable report: {e}"),
    }
}

/// Captures the compile's artifact the way the daemon does on a miss.
pub fn artifact_of(report: &CompileReport, key: String) -> CompiledArtifact {
    let args = &report.args;
    CompiledArtifact::capture(
        ArtifactConfig {
            key,
            nodes: args.nodes,
            comm_qubits: args.comm_qubits,
            strategy: args.strategy.name().to_string(),
            refine_iters: args.refine_iters,
            buffer: args.buffer,
            ablations: args.ablations.clone(),
            ..ArtifactConfig::default()
        },
        ArtifactCircuitStats {
            qubits: report.partition.num_qubits(),
            gates: report.stats.num_gates,
            two_qubit_gates: report.stats.num_2q,
            remote_cx: report.stats.num_remote_2q,
        },
        &report.hardware,
        &report.placement,
        &report.result,
    )
}

/// Sums over the compiled programs of a workload, with their ratio to the
/// sparse per-gate baseline.
#[derive(Default)]
pub struct Quality {
    pub epr_pairs: f64,
    pub makespan_cx: f64,
    comm_ratios: Vec<f64>,
    latency_ratios: Vec<f64>,
}

impl Quality {
    /// Mean over programs of AutoComm comms ÷ baseline comms; the paper's
    /// "communication reduction" is `1 −` this.
    pub fn comm_ratio(&self) -> f64 {
        mean(&self.comm_ratios)
    }

    /// Mean over programs of AutoComm makespan ÷ baseline makespan; the
    /// paper's "latency reduction" is `1 −` this.
    pub fn latency_ratio(&self) -> f64 {
        mean(&self.latency_ratios)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Output checks on finished compiles, each against a reference other than
/// the code that produced the output, plus the paper-facing quality sums:
///
/// * the schedule, recomputed with event recording, has the same makespan
///   and EPR count and replays cleanly through `validate_events`;
/// * the artifact round-trips through its text form;
/// * the remote-CX total equals an independent count
///   (`CircuitStats::of` over a fresh unroll of the input file, and the
///   sparse baseline's own count), and comms never exceed it.
pub fn check_compiles(reports: &[CompileReport], tally: &mut Tally) -> Quality {
    let mut q = Quality::default();
    for r in reports {
        let label = r.args.file.display().to_string();
        let m = &r.result.metrics;
        let s = &r.result.schedule;
        q.epr_pairs += m.total_epr_cost as f64;
        q.makespan_cx += s.makespan;

        let options = ScheduleOptions {
            record_events: true,
            ..ScheduleOptions::default().with_buffer(r.args.buffer)
        };
        let replay =
            autocomm::schedule(&r.result.assigned, &r.result.placement, &r.hardware, options);
        tally.check(replay.makespan == s.makespan && replay.epr_pairs == s.epr_pairs, || {
            format!("{label}: recorded schedule differs from the compiled one")
        });
        match replay.events.as_deref().map(|e| validate_events(e, &r.hardware)) {
            Some(Ok(())) => tally.ok(),
            Some(Err(e)) => tally.fail(|| format!("{label}: schedule replay invalid: {e}")),
            None => tally.fail(|| format!("{label}: no events recorded")),
        }

        let artifact = artifact_of(r, label.clone());
        let round_trip = CompiledArtifact::from_text(&artifact.to_text());
        tally.check(round_trip.is_ok_and(|a| a == artifact), || {
            format!("{label}: artifact does not round-trip")
        });

        let independent = std::fs::read_to_string(&r.args.file)
            .map_err(|e| e.to_string())
            .and_then(|t| from_qasm(&t).map_err(|e| e.to_string()));
        let circuit = match independent {
            Ok(c) => c,
            Err(e) => {
                tally.fail(|| format!("{label}: cannot re-read input: {e}"));
                continue;
            }
        };
        let remote = unroll_circuit(&circuit)
            .map(|u| CircuitStats::of(&u, Some(&r.partition)).num_remote_2q)
            .map_err(|e| e.to_string());
        tally.check(
            remote.as_ref().is_ok_and(|&n| n == m.total_rem_cx && m.total_comms <= n),
            || {
                format!(
                    "{label}: remote CX {} / comms {} vs independent count {remote:?}",
                    m.total_rem_cx, m.total_comms
                )
            },
        );
        match compile_ferrari(&circuit, r.result.placement.physical_partition(), &r.hardware) {
            Ok(base) => {
                tally.check(base.total_rem_cx == m.total_rem_cx, || {
                    format!(
                        "{label}: baseline counts {} remote CX, AutoComm {}",
                        base.total_rem_cx, m.total_rem_cx
                    )
                });
                q.comm_ratios.push(m.total_comms as f64 / base.total_comms as f64);
                q.latency_ratios.push(s.makespan / base.makespan);
            }
            Err(e) => tally.fail(|| format!("{label}: baseline compile failed: {e}")),
        }
    }
    q
}
