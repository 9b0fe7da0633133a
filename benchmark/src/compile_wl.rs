//! The compile workloads (table2, random-1m, sparse-2048-topo): each input
//! goes through `dqc_cli::compile` and `CompileReport::to_json`, the CLI's
//! library path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use dqc_cli::{compile, CompileReport};

use crate::inputs::{self, Input, Workload};
use crate::mirror::{self, Traced};
use crate::outcome::{check_compiles, deterministic_json, metric, Metric, Tally};
use crate::stats::{median, peak_rss_mb, percentile, ratio};
use crate::trace::{Span, Tracer};

/// One untraced pass over every input.
pub struct Pass {
    /// The last report per input that compiled, when the pass was asked
    /// to keep them.
    pub reports: Vec<CompileReport>,
    /// Deterministic JSON per input (`None` where the compile failed).
    pub outputs: Vec<Option<String>>,
    /// Compile + render times per input, ms, one per repeat that succeeded.
    pub latency_ms: Vec<Vec<f64>>,
}

/// Compiles and renders every input `input.repeats` times, counting each
/// compile as one operation; the repeats must render identical reports.
/// Unless `keep_reports`, each report is dropped as soon as it is
/// rendered, so the process holds no more than one compile's memory.
pub fn untraced_pass(inputs: &[Input], keep_reports: bool, tally: &mut Tally) -> Pass {
    let mut pass = Pass { reports: Vec::new(), outputs: Vec::new(), latency_ms: Vec::new() };
    for input in inputs {
        let mut output: Option<String> = None;
        let mut samples = Vec::new();
        let mut last = None;
        for _ in 0..input.repeats {
            let args = input.compile_args();
            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                compile(args).map(|report| {
                    let rendered = report.to_json().to_string();
                    (report, rendered)
                })
            }));
            let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
            match outcome {
                Ok(Ok((report, rendered))) => {
                    let rendered = deterministic_json(&rendered);
                    let same = output.get_or_insert_with(|| rendered.clone()) == &rendered;
                    tally.check(same, || {
                        format!("{}: a repeated compile rendered differently", input.label)
                    });
                    samples.push(elapsed_ms);
                    last = keep_reports.then_some(report);
                }
                Ok(Err(e)) => tally.fail(|| format!("{}: {e}", input.label)),
                Err(_) => tally.fail(|| format!("{}: compile panicked", input.label)),
            }
        }
        pass.reports.extend(last);
        pass.outputs.push(output);
        pass.latency_ms.push(samples);
    }
    pass
}

/// Per-input latency samples across passes.
#[derive(Default)]
pub struct Latencies(Vec<Vec<f64>>);

impl Latencies {
    pub fn record(&mut self, pass: &Pass) {
        self.0.resize(pass.latency_ms.len(), Vec::new());
        for (samples, latency) in self.0.iter_mut().zip(&pass.latency_ms) {
            samples.extend(latency);
        }
    }

    /// The time of one pass over every input, in s: the sum of each
    /// input's median, so a transient stall in one pass does not move it.
    pub fn pass_s(&self) -> f64 {
        self.typical_ms().iter().sum::<f64>() / 1e3
    }

    /// Each input's median latency, ms: what one compile of that input
    /// typically takes in this run.
    pub fn typical_ms(&self) -> Vec<f64> {
        self.0.iter().map(|s| median(s)).collect()
    }

    pub fn samples(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }
}

/// Set-up shared by both modes: inputs plus the seed checks.
fn prepare(
    workload: Workload,
    seed: u64,
    dir: &Path,
    tally: &mut Tally,
) -> Result<inputs::Setup, String> {
    let setup = inputs::setup(workload, seed, dir)?;
    tally.check(setup.repeatable, || "the same seed generated different inputs".into());
    if workload.seeded() {
        let hashes: Vec<_> = setup.inputs.iter().map(|i| i.hash).collect();
        tally.check(workload.input_hash(seed.wrapping_add(1)) != hashes, || {
            "a different seed generated the same inputs".into()
        });
    }
    Ok(setup)
}

/// The untraced run: whole passes until `seconds` have elapsed, then the
/// output checks on the last pass.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let run_started = Instant::now();
    let setup = prepare(workload, seed, dir, &mut tally)?;
    let setup_wall = run_started.elapsed().as_secs_f64();
    let deadline = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut latencies = Latencies::default();
    let mut passes = 0usize;
    let mut first: Option<Vec<Option<String>>> = None;
    let outputs = loop {
        let pass = untraced_pass(&setup.inputs, false, &mut tally);
        latencies.record(&pass);
        passes += 1;
        match &first {
            None => first = Some(pass.outputs),
            Some(outputs) => tally.check(*outputs == pass.outputs, || {
                "a repeated compile of the same input produced different output".into()
            }),
        }
        if started.elapsed() >= deadline {
            break first.expect("at least one pass");
        }
    };
    let loop_s = started.elapsed().as_secs_f64();
    // Read before the checked pass below, which holds every report at once.
    let peak_mb = peak_rss_mb()?;
    let checks_started = Instant::now();
    let checked = untraced_pass(&setup.inputs, true, &mut tally);
    tally.check(checked.outputs == outputs, || {
        "the checked recompile rendered differently from the timed passes".into()
    });
    // The checked pass compiles like a timed one, so its times are samples
    // too (random-1m gets three instead of two); the throughput below
    // counts the timed loop only.
    let loop_samples = latencies.samples();
    latencies.record(&checked);
    let quality = check_compiles(&checked.reports, &mut tally);
    let typical_ms = latencies.typical_ms();
    eprintln!(
        "benchmark: {}: {passes} pass(es), {} compiles of {} inputs; set-up {setup_wall:.1} s, \
         timed loop {loop_s:.1} s, checked pass and output checks {:.1} s",
        workload.name(),
        loop_samples,
        typical_ms.len(),
        checks_started.elapsed().as_secs_f64()
    );
    let metrics = vec![
        metric("compile_s", latencies.pass_s(), "s"),
        metric("peak_rss_mb", peak_mb, "MB"),
        metric("epr_pairs", quality.epr_pairs, "pairs"),
        metric("makespan_cx", quality.makespan_cx, "CX"),
        metric("comm_ratio", quality.comm_ratio(), "ratio"),
        metric("latency_ratio", quality.latency_ratio(), "ratio"),
        metric("latency_ms_p50", percentile(&typical_ms, 50.0), "ms"),
        metric("latency_ms_p95", percentile(&typical_ms, 95.0), "ms"),
        metric("requests_per_s", loop_samples as f64 / loop_s, "1/s"),
        metric("setup_s", setup.setup_s, "s"),
    ];
    Ok((tally, metrics))
}

/// Per-layer numbers gathered from traced compiles.
#[derive(Default)]
pub struct LayerTotals {
    pub qasm_bytes: f64,
    pub arena_bytes: f64,
    pub ir_gates: f64,
    pub oee_exchanges: f64,
    pub oee_scanned: f64,
    pub oee_cache_hits: f64,
    pub rounds: f64,
    pub peak_tracked: f64,
    pub remote_cx: f64,
    pub blocks: f64,
    pub tp_blocks: f64,
    pub fell_back: f64,
    pub prefetch_hits: f64,
    pub prefetch_requests: f64,
    pub swaps: f64,
    pub link_epr_pairs: f64,
    pub render_bytes: f64,
    pub artifact_bytes: f64,
}

impl LayerTotals {
    pub fn add(&mut self, t: &Traced) {
        let r = &t.report.result;
        let w = &t.report.placement.work;
        let s = &r.schedule;
        self.qasm_bytes += t.qasm_bytes as f64;
        self.arena_bytes += r.ir.table().arena_bytes() as f64;
        self.ir_gates += r.ir.len() as f64;
        self.oee_exchanges += w.oee_exchanges as f64;
        self.oee_scanned += w.oee_scanned as f64;
        self.oee_cache_hits += w.oee_cache_hits as f64;
        self.rounds += t.report.placement.iterations as f64;
        self.peak_tracked = self.peak_tracked.max(t.aggregate_stats.peak_tracked_entries as f64);
        self.remote_cx += r.metrics.total_rem_cx as f64;
        self.blocks += r.metrics.num_blocks as f64;
        self.tp_blocks +=
            r.assigned.blocks().filter(|b| b.scheme == autocomm::Scheme::Tp).count() as f64;
        self.fell_back += f64::from(u8::from(s.buffering.fell_back));
        self.prefetch_hits += s.buffering.prefetch_hits as f64;
        self.prefetch_requests +=
            if s.buffering.policy.is_buffered() { s.buffering.requests as f64 } else { 0.0 };
        self.swaps += s.swaps as f64;
        self.link_epr_pairs += s.link_traffic.iter().map(|&(_, _, n)| n as f64).sum::<f64>();
        self.render_bytes += t.rendered.len() as f64;
    }
}

/// Total duration of the spans named `name`, in s.
fn span_total(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::duration_s).sum()
}

/// Traces every input once; checks each traced output against the
/// untraced one and returns the traced results.
pub fn traced_pass(
    tr: &mut Tracer,
    inputs: &[Input],
    untraced: &[Option<String>],
    tally: &mut Tally,
    refine_s: &mut f64,
) -> Vec<Traced> {
    let mut out = Vec::new();
    for (input, expected) in inputs.iter().zip(untraced) {
        let before = tr.spans().len();
        match catch_unwind(AssertUnwindSafe(|| mirror::traced_compile(tr, input.compile_args()))) {
            Ok(Ok(traced)) => {
                let same =
                    expected.as_deref() == Some(deterministic_json(&traced.rendered).as_str());
                tally.check(same, || {
                    format!("{}: traced output differs from dqc_cli::compile", input.label)
                });
                let placement = &traced.report.placement;
                let result = &traced.report.result;
                let identity = &traced.identity;
                tally.check(identity.metrics.total_epr_cost == placement.initial_epr_cost, || {
                    format!(
                        "{}: traced identity steps disagree with compile_placed's start",
                        input.label
                    )
                });
                // With no accepted round the driver returns its identity run.
                if placement.iterations == 0 {
                    tally.check(
                        identity.metrics == result.metrics && identity.schedule == result.schedule,
                        || {
                            format!(
                                "{}: traced identity steps disagree with compile_placed's result",
                                input.label
                            )
                        },
                    );
                }
                let spans = &tr.spans()[before..];
                let placed = span_total(spans, "partition.compile_placed");
                let identity = span_total(spans, mirror::IDENTITY_RUN);
                *refine_s += (placed - identity).max(0.0);
                out.push(traced);
            }
            Ok(Err(e)) => tally.fail(|| format!("{}: traced compile failed: {e}", input.label)),
            Err(_) => tally.fail(|| format!("{}: traced compile panicked", input.label)),
        }
    }
    out
}

/// Root span of the artifact capture that follows each traced compile.
pub const ARTIFACT_ROOT: &str = "artifact";

/// Captures and serializes each traced compile's artifact inside spans
/// (`core.artifact`); `key_of` names the cache key the artifact carries.
pub fn traced_artifacts(
    tr: &mut Tracer,
    traced: &[Traced],
    totals: &mut LayerTotals,
    key_of: impl Fn(&Traced) -> String,
) {
    for t in traced {
        let key = key_of(t);
        tr.begin(ARTIFACT_ROOT);
        let text =
            tr.span("core.artifact", || crate::outcome::artifact_of(&t.report, key).to_text());
        tr.end();
        totals.artifact_bytes += text.len() as f64;
    }
}

/// One more untraced pass, run after the traced ones so that the untraced
/// side of `trace.overhead_s` also has a warm sample; its outputs must
/// still match.
pub fn warm_untraced(
    inputs: &[Input],
    outputs: &[Option<String>],
    latencies: &mut Latencies,
    tally: &mut Tally,
) {
    let pass = untraced_pass(inputs, false, tally);
    tally.check(pass.outputs == outputs, || "an untraced recompile rendered differently".into());
    latencies.record(&pass);
}

/// The traced run: one untraced reference pass (for the output
/// comparison), traced passes until `seconds` have elapsed, then one more
/// untraced pass; `trace.overhead_s` compares with the median of the two
/// untraced ones.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<(Tally, Vec<Metric>, Tracer), String> {
    let mut tally = Tally::default();
    let setup = prepare(workload, seed, dir, &mut tally)?;
    let reference = untraced_pass(&setup.inputs, true, &mut tally);
    check_compiles(&reference.reports, &mut tally);
    let mut untraced = Latencies::default();
    untraced.record(&reference);
    let outputs = reference.outputs;
    drop(reference.reports);

    let mut tr = Tracer::default();
    let deadline = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut passes = 0usize;
    let mut refine_s = 0.0;
    let last = loop {
        let traced = traced_pass(&mut tr, &setup.inputs, &outputs, &mut tally, &mut refine_s);
        passes += 1;
        if started.elapsed() >= deadline {
            break traced;
        }
    };
    let mut totals = LayerTotals::default();
    for t in &last {
        totals.add(t);
    }
    traced_artifacts(&mut tr, &last, &mut totals, |t| t.report.args.file.display().to_string());
    drop(last);
    warm_untraced(&setup.inputs, &outputs, &mut untraced, &mut tally);
    let metrics =
        layer_metrics(&tr, passes, &totals, refine_s, untraced.pass_s(), None, &mut tally);
    Ok((tally, metrics, tr))
}

/// Least share of the traced wall time the named spans must cover.
const MIN_COVERAGE: f64 = 0.95;

/// Per-layer metrics from the spans (self time per traced pass) and the
/// traced outputs. `serve` carries the service-layer metrics, which only
/// serve-zipf measures; elsewhere they read 0. Coverage below
/// [`MIN_COVERAGE`] counts as a failed check.
pub fn layer_metrics(
    tr: &Tracer,
    passes: usize,
    totals: &LayerTotals,
    refine_s: f64,
    untraced_s: f64,
    serve: Option<[f64; SERVE_LAYER.len()]>,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut self_time = tr.self_time_by_name(mirror::ROOT);
    let artifact_self = tr.self_time_by_name(ARTIFACT_ROOT);
    let compile_wall = tr.root_time(mirror::ROOT);
    let traced_wall = compile_wall + tr.root_time(ARTIFACT_ROOT);
    let compile_covered: f64 = self_time.values().sum();
    let covered = compile_covered + artifact_self.values().sum::<f64>();
    self_time.extend(artifact_self);
    let n = passes.max(1) as f64;
    let layer = |name: &str| self_time.get(name).copied().unwrap_or(0.0) / n;
    // The traced compile without the step-by-step identity run, which the
    // CLI does not make: what the untraced pass should have cost.
    let identity_s = span_total(tr.spans(), mirror::IDENTITY_RUN) / n;
    let coverage = ratio(covered, traced_wall);
    tally.check(coverage >= MIN_COVERAGE, || {
        format!("named spans cover only {coverage:.3} of the traced wall time")
    });
    let parse_s = layer("circuit.parse");
    let mut m = vec![
        metric("circuit.parse_s", parse_s, "s"),
        metric("circuit.parse_mb_per_s", ratio(totals.qasm_bytes / 1e6, parse_s), "MB/s"),
        metric("circuit.unroll_partition_s", layer("circuit.unroll_partition"), "s"),
        metric("circuit.unroll_pipeline_s", layer("circuit.unroll_pipeline"), "s"),
        metric(
            "circuit.arena_bytes_per_gate",
            ratio(totals.arena_bytes, totals.ir_gates),
            "B/gate",
        ),
        metric("partition.graph_s", layer("partition.graph"), "s"),
        metric("partition.oee_s", layer("partition.oee"), "s"),
        metric("partition.refine_s", refine_s / n, "s"),
        metric("partition.oee_exchanges", totals.oee_exchanges, "count"),
        metric("partition.oee_scanned", totals.oee_scanned, "count"),
        metric("partition.oee_cache_hits", totals.oee_cache_hits, "count"),
        metric(
            "partition.exchange_yield",
            ratio(totals.oee_exchanges, totals.oee_scanned),
            "ratio",
        ),
        metric("partition.rounds", totals.rounds, "count"),
        metric("core.orient_s", layer("core.orient"), "s"),
        metric("core.comm_ir_s", layer("core.comm_ir"), "s"),
        metric("core.aggregate_s", layer("core.aggregate"), "s"),
        metric("core.aggregate_peak_tracked", totals.peak_tracked, "count"),
        metric("core.burst_size", ratio(totals.remote_cx, totals.blocks), "cx/block"),
        metric("core.assign_s", layer("core.assign"), "s"),
        metric("core.tp_share", ratio(totals.tp_blocks, totals.blocks), "ratio"),
        metric("core.schedule_s", layer("core.schedule"), "s"),
        metric("core.buffer_fell_back", totals.fell_back, "count"),
        metric(
            "core.prefetch_hit_rate",
            ratio(totals.prefetch_hits, totals.prefetch_requests),
            "ratio",
        ),
        metric("core.artifact_s", layer("core.artifact"), "s"),
        metric("core.artifact_bytes", totals.artifact_bytes, "bytes"),
        metric("hardware.swaps", totals.swaps, "count"),
        metric("hardware.link_epr_pairs", totals.link_epr_pairs, "pairs"),
        metric("cli.read_s", layer("cli.read"), "s"),
        metric("cli.render_s", layer("cli.render"), "s"),
        metric("cli.render_bytes", totals.render_bytes, "bytes"),
    ];
    let serve = serve.unwrap_or_default();
    for ((name, unit), value) in SERVE_LAYER.into_iter().zip(serve) {
        m.push(metric(name, value, unit));
    }
    m.push(metric("trace.coverage", coverage, "ratio"));
    m.push(metric(
        "trace.coverage_untraced",
        ratio(compile_covered / n - identity_s, untraced_s),
        "ratio",
    ));
    m.push(metric("trace.overhead_s", compile_wall / n - identity_s - untraced_s, "s"));
    m
}

/// The service-layer metrics, measured on serve-zipf only (0 elsewhere).
pub const SERVE_LAYER: [(&str, &str); 7] = [
    ("cli.serve_hit_rate", "ratio"),
    ("cli.serve_hit_ms_p50", "ms"),
    ("cli.serve_hit_ms_p95", "ms"),
    ("cli.serve_miss_ms_p50", "ms"),
    ("cli.serve_miss_ms_p90", "ms"),
    ("cli.serve_queue_ms_p90", "ms"),
    ("cli.serve_coalesced", "count"),
];
