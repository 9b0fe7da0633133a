//! The traced run: `dqc_cli::compile` repeated call by call, with a span
//! around each call into a crate's public API.
//!
//! The composition mirrors `dqc_cli::compile`: read → `from_qasm` → the
//! partition's `unroll_circuit` → `InteractionGraph::from_circuit` →
//! `oee_partition` → hardware → `compile_placed` → `CircuitStats::of` →
//! render. `compile_placed` is the placement driver the CLI runs under
//! every strategy (zero refinement rounds for `oee`); it supplies the
//! report, as one span. To split its work by layer, the identity-placement
//! run it starts with (`orient_symmetric_gates` → `unroll_circuit` →
//! `CommIr::build_shared` → `aggregate_ir_with_stats` → `assign_on` →
//! `CommMetrics::of` → `schedule`) is also run step by step just before
//! it, each step in its own span; whatever the driver spends beyond that
//! run is `partition.refine_s`. The caller checks that the rendered report
//! equals the untraced one, so the trace always measures the program the
//! CLI runs.

use std::sync::Arc;
use std::time::Duration;

use autocomm::{
    aggregate_ir_with_stats, assign_on, orient_symmetric_gates, schedule, AggregateOptions,
    AggregateStats, AutoComm, AutoCommOptions, CommIr, CommMetrics, PassReport, Placement,
    PlacementConfig, ScheduleOptions, ScheduleSummary,
};
use dqc_circuit::{from_qasm, unroll_circuit, Circuit, CircuitStats, Partition};
use dqc_cli::{resolve_topology, CompileArgs, CompileReport, PartitionStrategy};
use dqc_hardware::HardwareSpec;
use dqc_partition::{oee_partition, InteractionGraph};

use crate::trace::Tracer;

/// A traced compile's outputs.
pub struct Traced {
    pub report: CompileReport,
    /// `report.to_json().to_string()`, as rendered inside the trace.
    pub rendered: String,
    pub aggregate_stats: AggregateStats,
    /// Bytes of QASM parsed.
    pub qasm_bytes: usize,
    /// What the step-by-step identity-placement run produced.
    pub identity: Identity,
}

/// The outputs of the step-by-step identity-placement run that the caller
/// compares with `compile_placed`'s: its starting cost always, and its
/// whole result when no refinement round was accepted.
pub struct Identity {
    pub metrics: CommMetrics,
    pub schedule: ScheduleSummary,
}

/// Root span name of one traced compile.
pub const ROOT: &str = "compile";

/// Span around the step-by-step identity-placement run, its frees
/// included. The CLI does not make this run, so it is the trace's extra
/// work.
pub const IDENTITY_RUN: &str = "core.identity_run";

/// Compiles `args` like `dqc_cli::compile`, recording spans in `tr`.
pub fn traced_compile(tr: &mut Tracer, args: CompileArgs) -> Result<Traced, String> {
    tr.begin(ROOT);
    let out = compile_steps(tr, args);
    tr.end();
    out
}

fn compile_steps(tr: &mut Tracer, args: CompileArgs) -> Result<Traced, String> {
    assert!(args.ablations.is_empty(), "the benchmark compiles without ablations");
    let text = tr
        .span("cli.read", || std::fs::read_to_string(&args.file))
        .map_err(|e| format!("cannot read {}: {e}", args.file.display()))?;
    tr.begin("circuit.parse");
    let circuit = from_qasm(&text);
    let parse_s = tr.end();
    let circuit = circuit.map_err(|e| format!("{}: {e}", args.file.display()))?;
    if circuit.num_qubits() < args.nodes {
        return Err(format!(
            "cannot spread {} qubits over {} nodes",
            circuit.num_qubits(),
            args.nodes
        ));
    }
    tr.begin("cli.build_partition");
    let partition = build_partition(tr, &circuit, args.nodes, args.strategy);
    tr.end();
    let partition = partition?;
    let hw = tr.span("hardware.spec", || {
        let topology = resolve_topology(args.topology.as_deref(), partition.num_nodes())
            .map_err(|e| e.to_string())?;
        HardwareSpec::for_partition(&partition)
            .with_comm_qubits(args.comm_qubits)
            .and_then(|hw| hw.with_topology(topology))
            .map_err(|e| e.to_string())
    })?;
    let mut options = AutoCommOptions::default();
    options.schedule.buffer = args.buffer;

    tr.begin(IDENTITY_RUN);
    let identity = identity_steps(tr, &circuit, &partition, &hw, options.schedule);
    tr.end();
    let (identity, aggregate_stats) = identity?;
    let refine_iters = match args.strategy {
        PartitionStrategy::Topo => args.refine_iters,
        _ => 0,
    };
    let config = PlacementConfig { refine_iters, ..Default::default() };
    let (mut result, placement) = tr
        .span("partition.compile_placed", || {
            AutoComm::with_options(options).compile_placed(&circuit, &partition, &hw, &config)
        })
        .map_err(|e| e.to_string())?;
    result.passes.insert(
        0,
        PassReport { pass: "parse", duration: Duration::from_secs_f64(parse_s), metric: None },
    );
    let partition = result.placement.partition().clone();
    let stats = tr.span("circuit.stats", || CircuitStats::of(&result.unrolled, Some(&partition)));
    let report = CompileReport { args, stats, partition, hardware: hw, placement, result };
    let rendered = tr.span("cli.render", || report.to_json().to_string());
    let qasm_bytes = text.len();
    // `dqc_cli::compile` frees its input before it returns.
    tr.span("cli.free_input", move || drop((text, circuit)));
    Ok(Traced { report, rendered, aggregate_stats, qasm_bytes, identity })
}

/// The CLI's `build_partition` for the strategies the benchmark uses.
fn build_partition(
    tr: &mut Tracer,
    circuit: &Circuit,
    nodes: usize,
    strategy: PartitionStrategy,
) -> Result<Partition, String> {
    if strategy == PartitionStrategy::Block {
        return Partition::block(circuit.num_qubits(), nodes).map_err(|e| e.to_string());
    }
    let unrolled = tr
        .span("circuit.unroll_partition", || unroll_circuit(circuit))
        .map_err(|e| e.to_string())?;
    let graph = tr.span("partition.graph", || InteractionGraph::from_circuit(&unrolled));
    tr.span("partition.oee", || oee_partition(&graph, nodes)).map_err(|e| e.to_string())
}

/// The default pipeline (orient → unroll → comm-ir → aggregate → assign →
/// metrics → schedule) under the identity placement, the run
/// `compile_placed` starts with. Only the outputs the caller compares are
/// kept, so the artifacts are freed before the driver runs.
fn identity_steps(
    tr: &mut Tracer,
    circuit: &Circuit,
    partition: &Partition,
    hw: &HardwareSpec,
    schedule_options: ScheduleOptions,
) -> Result<(Identity, AggregateStats), String> {
    let placement = Placement::identity(partition);
    let oriented = tr.span("core.orient", || orient_symmetric_gates(circuit, partition));
    let unrolled = tr
        .span("circuit.unroll_pipeline", move || {
            let unrolled = unroll_circuit(&oriented);
            drop(oriented);
            unrolled
        })
        .map_err(|e| e.to_string())?;
    let ir = tr.span("core.comm_ir", || CommIr::build_shared(&unrolled, partition));
    let (aggregated, stats) = tr.span("core.aggregate", || {
        aggregate_ir_with_stats(Arc::clone(&ir), AggregateOptions::default())
    });
    let assigned = tr.span("core.assign", || assign_on(&aggregated, &placement, hw.topology()));
    let metrics = tr.span("core.metrics", || CommMetrics::of(&assigned));
    let schedule =
        tr.span("core.schedule", || schedule(&assigned, &placement, hw, schedule_options));
    Ok((Identity { metrics, schedule }, stats))
}
