//! The end-to-end AutoComm compiler.
//!
//! [`AutoComm`] runs the paper's fixed stage order (Figure 1) as two
//! straight-line functions: an *analysis* — orient → unroll → comm-ir →
//! aggregate → assign → metrics — and a *schedule* that turns the analysis
//! plus a placement into a [`CompileResult`]. Each stage is timed into a
//! [`PassReport`]. Every paper ablation (Fig. 17) is an [`Ablation`]
//! applied to the [`AutoCommOptions`] — one code path, many
//! configurations.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dqc_circuit::{unroll_circuit, Circuit, NodeId, Partition};
use dqc_hardware::HardwareSpec;
use dqc_partition::{
    oee_refine_cached, oee_refine_on_stats, place_blocks_stats, OeeCache, OeeOptions, PlaceOptions,
};

use crate::{
    aggregate_ir, aggregate_no_commute_ir, assign_cat_only_on, assign_on, comm_weighted_graph,
    orient_symmetric_gates, AggregateOptions, AggregatedProgram, AssignedProgram, CommIr,
    CommMetrics, CompileError, Placement, ScheduleOptions, ScheduleSummary, Scheme,
};

/// Compiler configuration; the defaults reproduce full AutoComm, and each
/// toggle corresponds to one ablation of paper Fig. 17.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AutoCommOptions {
    /// Use commutation rules during aggregation (off = Fig. 17a's
    /// “No Commute”).
    pub commutation_aggregation: bool,
    /// Orient symmetric diagonal gates (CZ/CP/RZZ) so the heavier burst
    /// pair gets the Cat-friendly control side before unrolling.
    pub orient_symmetric: bool,
    /// Use the hybrid Cat/TP assignment (off = Fig. 17b's “Cat-Comm only”).
    pub hybrid_assignment: bool,
    /// Aggregation tuning.
    pub aggregate: AggregateOptions,
    /// Scheduler tuning ([`ScheduleOptions::plain_greedy`] = Fig. 17c's
    /// “Greedy”).
    pub schedule: ScheduleOptions,
}

impl Default for AutoCommOptions {
    fn default() -> Self {
        AutoCommOptions {
            commutation_aggregation: true,
            orient_symmetric: true,
            hybrid_assignment: true,
            aggregate: AggregateOptions::default(),
            schedule: ScheduleOptions::default(),
        }
    }
}

impl AutoCommOptions {
    /// These options with one ablation applied.
    pub fn with_ablation(self, ablation: Ablation) -> Self {
        ablation.apply(self)
    }

    /// These options with `policy` selecting the scheduler's EPR-buffering
    /// engine (threads into [`ScheduleOptions::buffer`];
    /// [`crate::BufferPolicy::OnDemand`] is the bit-identical default).
    #[must_use]
    pub fn with_buffer(mut self, policy: crate::BufferPolicy) -> Self {
        self.schedule.buffer = policy;
        self
    }
}

/// The single-knob pipeline ablations of paper Fig. 17, each disabling
/// exactly one optimization of the full compiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ablation {
    /// Fig. 17(a): aggregation without commutation rules — every remote
    /// gate becomes a singleton block.
    NoCommute,
    /// Fig. 17(b): Cat-Comm-only assignment (no TP fallback).
    CatOnly,
    /// Fig. 17(c): plain as-soon-as-possible scheduling — no prefetching,
    /// no parallel commutable blocks, no TP fusion.
    PlainGreedy,
    /// Skip the symmetric-gate orientation pre-pass.
    NoOrient,
}

impl Ablation {
    /// Every ablation, in paper order.
    pub fn all() -> [Ablation; 4] {
        [Ablation::NoCommute, Ablation::CatOnly, Ablation::PlainGreedy, Ablation::NoOrient]
    }

    /// The kebab-case name used by the CLI (`--ablation <name>`).
    pub fn name(self) -> &'static str {
        match self {
            Ablation::NoCommute => "no-commute",
            Ablation::CatOnly => "cat-only",
            Ablation::PlainGreedy => "plain-greedy",
            Ablation::NoOrient => "no-orient",
        }
    }

    /// Parses the kebab-case [`Ablation::name`] form.
    pub fn parse(name: &str) -> Option<Ablation> {
        Ablation::all().into_iter().find(|a| a.name() == name)
    }

    /// Applies this ablation to a configuration.
    pub fn apply(self, mut options: AutoCommOptions) -> AutoCommOptions {
        match self {
            Ablation::NoCommute => options.commutation_aggregation = false,
            Ablation::CatOnly => options.hybrid_assignment = false,
            Ablation::PlainGreedy => options.schedule = ScheduleOptions::plain_greedy(),
            Ablation::NoOrient => options.orient_symmetric = false,
        }
        options
    }
}

/// Timing and headline metric of one executed compiler stage.
#[derive(Clone, Debug)]
pub struct PassReport {
    /// The stage name.
    pub pass: &'static str,
    /// Wall-clock time the stage took.
    pub duration: Duration,
    /// The stage's headline metric, if it reports one.
    pub metric: Option<String>,
}

/// Runs one stage, appending its timing and headline metric to `passes`
/// (the metric is computed after the clock stops).
fn timed<T>(
    passes: &mut Vec<PassReport>,
    pass: &'static str,
    run: impl FnOnce() -> T,
    metric: impl FnOnce(&T) -> Option<String>,
) -> T {
    let start = Instant::now();
    let out = run();
    passes.push(PassReport { pass, duration: start.elapsed(), metric: metric(&out) });
    out
}

/// The schedule stage's headline metric line.
fn schedule_metric(s: &ScheduleSummary) -> String {
    if s.buffering.policy.is_buffered() {
        format!(
            "makespan {:.1}, {} epr, {} buffering ({}/{} hits{})",
            s.makespan,
            s.epr_pairs,
            s.buffering.policy.name(),
            s.buffering.prefetch_hits,
            s.buffering.requests,
            if s.buffering.fell_back { ", fell back" } else { "" }
        )
    } else {
        format!("makespan {:.1}, {} epr", s.makespan, s.epr_pairs)
    }
}

/// Every pre-schedule artifact of one compile against one placement — all
/// a candidate placement's EPR cost needs — plus the stage reports.
struct Analysis {
    unrolled: Circuit,
    ir: Arc<CommIr>,
    aggregated: AggregatedProgram,
    assigned: AssignedProgram,
    metrics: CommMetrics,
    passes: Vec<PassReport>,
}

/// The AutoComm compiler: the fixed stage order, configured by
/// [`AutoCommOptions`].
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Clone, Debug, Default)]
pub struct AutoComm {
    options: AutoCommOptions,
}

/// Everything the compiler produces for one program.
#[derive(Clone, Debug)]
pub struct CompileResult {
    /// The input circuit in the CX+U3 basis.
    pub unrolled: Circuit,
    /// The placement (partition + block→node map) the program was compiled
    /// against. Identity for the plain [`AutoComm::compile`] path.
    pub placement: Placement,
    /// The shared indexed IR every artifact resolves against.
    pub ir: Arc<CommIr>,
    /// Burst blocks after aggregation.
    pub aggregated: AggregatedProgram,
    /// Blocks with assigned communication schemes.
    pub assigned: AssignedProgram,
    /// Paper Table-3 style communication metrics.
    pub metrics: CommMetrics,
    /// Latency schedule on the two-comm-qubit hardware model.
    pub schedule: ScheduleSummary,
    /// Per-pass timing and headline metrics.
    pub passes: Vec<PassReport>,
}

impl AutoComm {
    /// A compiler with the paper's full optimization set.
    pub fn new() -> Self {
        AutoComm { options: AutoCommOptions::default() }
    }

    /// A compiler with explicit options (used by the ablation benches).
    pub fn with_options(options: AutoCommOptions) -> Self {
        AutoComm { options }
    }

    /// A compiler with `ablations` applied to the full optimization set.
    pub fn with_ablations(ablations: &[Ablation]) -> Self {
        let options =
            ablations.iter().fold(AutoCommOptions::default(), |opts, &a| opts.with_ablation(a));
        AutoComm { options }
    }

    /// The active options.
    pub fn options(&self) -> &AutoCommOptions {
        &self.options
    }

    /// Compiles `circuit` for the machine implied by `partition` (one node
    /// per partition class, two communication qubits each).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::RegisterMismatch`] when the partition does
    /// not cover the circuit, and propagates unrolling failures (e.g. a
    /// multi-controlled gate without ancillas).
    pub fn compile(
        &self,
        circuit: &Circuit,
        partition: &Partition,
    ) -> Result<CompileResult, CompileError> {
        self.compile_on(circuit, partition, &HardwareSpec::for_partition(partition))
    }

    /// Compiles for an explicit hardware model (more communication qubits,
    /// different latency constants, …).
    ///
    /// # Errors
    ///
    /// See [`AutoComm::compile`].
    pub fn compile_on(
        &self,
        circuit: &Circuit,
        partition: &Partition,
        hw: &HardwareSpec,
    ) -> Result<CompileResult, CompileError> {
        let placement = Placement::identity(partition);
        let analysis = self.analyze(circuit, &placement, hw)?;
        Ok(self.schedule(analysis, placement, hw))
    }

    /// Compiles against an explicit placement — the caller owns the
    /// block→node map.
    ///
    /// # Errors
    ///
    /// See [`AutoComm::compile`].
    pub fn compile_with_placement(
        &self,
        circuit: &Circuit,
        placement: &Placement,
        hw: &HardwareSpec,
    ) -> Result<CompileResult, CompileError> {
        let analysis = self.analyze(circuit, placement, hw)?;
        Ok(self.schedule(analysis, placement.clone(), hw))
    }

    /// The analysis stages against `placement`: orient (when
    /// `orient_symmetric` is on) → unroll → comm-ir → aggregate → assign →
    /// metrics, each timed into a [`PassReport`].
    fn analyze(
        &self,
        circuit: &Circuit,
        placement: &Placement,
        hw: &HardwareSpec,
    ) -> Result<Analysis, CompileError> {
        if circuit.num_qubits() != placement.num_qubits() {
            return Err(CompileError::RegisterMismatch {
                circuit_qubits: circuit.num_qubits(),
                partition_qubits: placement.num_qubits(),
            });
        }
        let options = &self.options;
        let partition = placement.partition();
        let topology = hw.topology();
        let mut passes = Vec::with_capacity(7);
        // The oriented circuit is dropped as soon as it is unrolled; an
        // unoriented compile borrows its input and never clones it.
        let unrolled = {
            let oriented = if options.orient_symmetric {
                Cow::Owned(timed(
                    &mut passes,
                    "orient",
                    || orient_symmetric_gates(circuit, partition),
                    |_| None,
                ))
            } else {
                Cow::Borrowed(circuit)
            };
            timed(
                &mut passes,
                "unroll",
                || unroll_circuit(&oriented),
                |r| r.as_ref().ok().map(|c| format!("{} gates", c.len())),
            )?
        };
        // The conflict DAG is lazy: the default compile streams predecessor
        // sets during aggregation, so it is never built when this metric is
        // read.
        let ir = timed(
            &mut passes,
            "comm-ir",
            || CommIr::build_shared(&unrolled, partition),
            |ir| Some(format!("{} gates ({} unique), lazy dag", ir.len(), ir.unique_gates())),
        );
        let aggregated = timed(
            &mut passes,
            "aggregate",
            || {
                if options.commutation_aggregation {
                    aggregate_ir(Arc::clone(&ir), options.aggregate)
                } else {
                    aggregate_no_commute_ir(Arc::clone(&ir))
                }
            },
            |a| Some(format!("{} blocks", a.block_count())),
        );
        let assigned = timed(
            &mut passes,
            "assign",
            || {
                if options.hybrid_assignment {
                    assign_on(&aggregated, placement, topology)
                } else {
                    assign_cat_only_on(&aggregated, placement, topology)
                }
            },
            |a| {
                let tp = a.blocks().filter(|b| b.scheme == Scheme::Tp).count();
                let cat = a.blocks().count() - tp;
                Some(format!("{cat} cat / {tp} tp blocks"))
            },
        );
        let metrics = timed(
            &mut passes,
            "metrics",
            || CommMetrics::of(&assigned),
            |m| Some(format!("{} comms ({} tp)", m.total_comms, m.tp_comms)),
        );
        Ok(Analysis { unrolled, ir, aggregated, assigned, metrics, passes })
    }

    /// The schedule stage: lays `analysis`, compiled against `placement`,
    /// onto the hardware model.
    fn schedule(
        &self,
        analysis: Analysis,
        placement: Placement,
        hw: &HardwareSpec,
    ) -> CompileResult {
        let Analysis { unrolled, ir, aggregated, assigned, metrics, mut passes } = analysis;
        let schedule = timed(
            &mut passes,
            "schedule",
            || crate::schedule(&assigned, &placement, hw, self.options.schedule),
            |s| Some(schedule_metric(s)),
        );
        CompileResult { unrolled, placement, ir, aggregated, assigned, metrics, schedule, passes }
    }

    /// The topology- and traffic-aware iterative placement driver: compile,
    /// read the *measured* per-pair communication traffic out of
    /// [`CommMetrics::pair_comms`], re-weight the interaction graph with
    /// post-aggregation comm counts, re-place (block→node map via
    /// `dqc_partition::place_blocks`, qubit partition via hop-weighted
    /// `oee_refine_on`), and recompile — until the assignment-level EPR
    /// cost ([`CommMetrics::total_epr_cost`]) stops improving, bounded by
    /// `config.refine_iters` recompiles.
    ///
    /// Rounds that do not strictly improve are discarded, so the returned
    /// result never costs more EPR pairs than the identity placement of
    /// `partition` — and on all-to-all machines (where every map costs the
    /// same) the identity compile is returned untouched.
    ///
    /// # Errors
    ///
    /// See [`AutoComm::compile`].
    pub fn compile_placed(
        &self,
        circuit: &Circuit,
        partition: &Partition,
        hw: &HardwareSpec,
        config: &PlacementConfig,
    ) -> Result<(CompileResult, PlacementReport), CompileError> {
        if config.force_full {
            return self.compile_placed_full(circuit, partition, hw, config);
        }
        let topology = hw.topology();
        let mut placement = Placement::identity(partition);
        // Round state: the identity run's analysis, moved (never cloned)
        // into each accepted round's artifacts. Evaluating a candidate
        // placement needs only the aggregated program, the assignment and
        // its metrics — never the schedule, which runs once, after the
        // loop, for the winning placement. The interaction graph is hoisted
        // out of the loop and recomputed only when an accepted round
        // changed the logical partition: it depends on the aggregated
        // program alone, not on the block→node map.
        let mut state = self.analyze(circuit, &placement, hw)?;
        let initial_epr_cost = state.metrics.total_epr_cost;
        let mut graph = comm_weighted_graph(&state.aggregated);
        let mut iterations = 0usize;
        let mut work = PlacementWork::default();
        // Warm-start state for the hop-weighted OEE: carried across rounds
        // so a round re-refining an unchanged (graph, partition, map) state
        // resumes from the cached candidate set instead of a cold O(n²)
        // scan. The sparse traffic fingerprint of the round that produced
        // the current placement lets an unchanged-traffic round skip
        // re-refinement entirely (see below).
        let mut oee_cache = OeeCache::new();
        let mut prev_pair_comms: Option<Vec<(NodeId, NodeId, usize)>> = None;
        for _ in 0..config.refine_iters {
            // Unchanged traffic graph ⇒ guaranteed fixed point: the round
            // that produced the current placement saw these exact pair
            // comms, so the deterministic place_blocks returns the same
            // map, and re-refining the already-converged partition under
            // the same metric finds no improving exchange — the round
            // would compute `candidate == placement` and break. Skip the
            // whole round. (Only armed by a partition-preserving accepted
            // round whose refinement terminated naturally: a changed
            // partition rebuilds the graph, and a saturated refinement is
            // not a fixed point.)
            if prev_pair_comms.as_ref() == Some(&state.metrics.pair_comms) {
                work.rounds_skipped += 1;
                break;
            }
            // Measured communication traffic over logical blocks — what the
            // compiled program actually pays per pair, post-aggregation
            // (dense form of the sparse `CommMetrics::pair_comms`).
            let traffic = state.metrics.traffic_matrix(placement.num_nodes());
            let (node_map, place_stats) = place_blocks_stats(
                &traffic,
                topology.num_nodes(),
                topology,
                PlaceOptions::default(),
            );
            work.place_exchanges += place_stats.exchanges;
            work.saturated |= place_stats.saturated;
            // Refine the partition under the candidate map's hop metric.
            let (refined, oee_stats) = oee_refine_cached(
                &graph,
                placement.partition().clone(),
                &node_map,
                topology,
                OeeOptions::default(),
                &mut oee_cache,
            );
            work.oee_exchanges += oee_stats.exchanges;
            work.oee_scanned += oee_stats.scanned;
            work.oee_cache_hits += oee_stats.cache_hits;
            work.saturated |= oee_stats.saturated;
            let refine_converged = !oee_stats.saturated;
            let candidate = Placement::new(refined, node_map)?;
            if candidate == placement {
                break; // fixed point
            }
            // Refinement rounds usually permute the block→node map and
            // leave the logical partition alone; then only blocks whose
            // physical endpoints moved are re-assigned (incremental
            // recompilation). A changed partition invalidates aggregation
            // and reruns the whole analysis. A round that does not
            // strictly improve ends the loop with the best-so-far state.
            if candidate.partition() == placement.partition() {
                let assigned = crate::assign_incremental(
                    &state.assigned,
                    &placement,
                    &candidate,
                    topology,
                    self.options.hybrid_assignment,
                );
                let metrics = CommMetrics::of(&assigned);
                if metrics.total_epr_cost >= state.metrics.total_epr_cost {
                    break;
                }
                // Arm the unchanged-traffic skip only when its fixed-point
                // argument holds for the next round: the interaction graph
                // survives (partition-preserving round) and the refinement
                // above converged rather than hitting its safety valve.
                let measured = std::mem::replace(&mut state.metrics, metrics);
                prev_pair_comms = refine_converged.then_some(measured.pair_comms);
                state.assigned = assigned;
            } else {
                let rebuilt = self.analyze(circuit, &candidate, hw)?;
                if rebuilt.metrics.total_epr_cost >= state.metrics.total_epr_cost {
                    break;
                }
                prev_pair_comms = None;
                graph = comm_weighted_graph(&rebuilt.aggregated);
                state = rebuilt;
            }
            placement = candidate;
            iterations += 1;
        }
        let report = PlacementReport {
            iterations,
            cut_weight: graph.cut_weight(placement.partition()),
            weighted_cost: graph.placed_cut_weight(
                placement.partition(),
                placement.node_map(),
                topology,
            ),
            node_map: placement.node_map().to_vec(),
            initial_epr_cost,
            final_epr_cost: state.metrics.total_epr_cost,
            work,
        };
        // Schedule once, for the winning placement: the loop already holds
        // every pre-schedule artifact (`assigned` shares the same
        // `Arc<CommIr>` the scheduler resolves against). `force_full`
        // keeps the full driver as the verification rail, the property
        // suite pins both drivers artifact-for-artifact, and debug builds
        // cross-check against a full recompile below.
        let best = self.schedule(state, placement, hw);
        #[cfg(debug_assertions)]
        if iterations > 0 {
            let full = self.compile_with_placement(circuit, &best.placement, hw)?;
            assert_eq!(
                full.metrics, best.metrics,
                "incremental round metrics drifted from the full recompile"
            );
            assert_eq!(
                full.schedule, best.schedule,
                "reused schedule drifted from the full recompile"
            );
        }
        Ok((best, report))
    }

    /// The historical full-recompile placement driver, kept verbatim as the
    /// strict bit-identity rail behind [`PlacementConfig::force_full`]: the
    /// property suite asserts the incremental [`AutoComm::compile_placed`]
    /// matches it artifact-for-artifact on every topology. (Work counters
    /// are the one exception — they trace execution, not results, and the
    /// full driver never skips a round or warms a cache — which is why
    /// [`PlacementReport`] equality excludes them.)
    fn compile_placed_full(
        &self,
        circuit: &Circuit,
        partition: &Partition,
        hw: &HardwareSpec,
        config: &PlacementConfig,
    ) -> Result<(CompileResult, PlacementReport), CompileError> {
        let topology = hw.topology();
        let mut placement = Placement::identity(partition);
        let mut best = self.compile_with_placement(circuit, &placement, hw)?;
        let initial_epr_cost = best.metrics.total_epr_cost;
        let mut iterations = 0usize;
        let mut work = PlacementWork::default();
        for _ in 0..config.refine_iters {
            // Measured communication traffic over logical blocks — what the
            // compiled program actually pays per pair, post-aggregation.
            let traffic = best.metrics.traffic_matrix(placement.num_nodes());
            let (node_map, place_stats) = place_blocks_stats(
                &traffic,
                topology.num_nodes(),
                topology,
                PlaceOptions::default(),
            );
            work.place_exchanges += place_stats.exchanges;
            work.saturated |= place_stats.saturated;
            // Re-weight the qubit interaction graph by burst blocks and
            // refine the partition under the candidate map's hop metric.
            let graph = comm_weighted_graph(&best.aggregated);
            let (refined, oee_stats) = oee_refine_on_stats(
                &graph,
                placement.partition().clone(),
                &node_map,
                topology,
                OeeOptions::default(),
            );
            work.oee_exchanges += oee_stats.exchanges;
            work.oee_scanned += oee_stats.scanned;
            work.oee_cache_hits += oee_stats.cache_hits;
            work.saturated |= oee_stats.saturated;
            let candidate = Placement::new(refined, node_map)?;
            if candidate == placement {
                break; // fixed point
            }
            let result = self.compile_with_placement(circuit, &candidate, hw)?;
            if result.metrics.total_epr_cost < best.metrics.total_epr_cost {
                best = result;
                placement = candidate;
                iterations += 1;
            } else {
                break; // no improvement: keep the best-so-far compile
            }
        }
        let graph = comm_weighted_graph(&best.aggregated);
        let report = PlacementReport {
            iterations,
            cut_weight: graph.cut_weight(placement.partition()),
            weighted_cost: graph.placed_cut_weight(
                placement.partition(),
                placement.node_map(),
                topology,
            ),
            node_map: placement.node_map().to_vec(),
            initial_epr_cost,
            final_epr_cost: best.metrics.total_epr_cost,
            work,
        };
        Ok((best, report))
    }
}

/// Bounds for the iterative placement driver
/// ([`AutoComm::compile_placed`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementConfig {
    /// Maximum re-place + recompile rounds (the loop also stops at a fixed
    /// point or on the first non-improving round, so this is a ceiling,
    /// not a target).
    pub refine_iters: usize,
    /// Run the historical full-recompile driver instead of the incremental
    /// one. The two produce bit-identical results (the property suite
    /// asserts it across every topology); this flag exists as the strict
    /// reference rail and for measuring the incremental speedup.
    pub force_full: bool,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig { refine_iters: 3, force_full: false }
    }
}

/// Work counters from the placement stage — how much the optimizer did,
/// not what it decided. Summed across every round the driver ran (accepted
/// or rejected).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlacementWork {
    /// Qubit exchanges the hop-weighted OEE applied.
    pub oee_exchanges: usize,
    /// Candidate gains OEE computed (cold scans plus delta updates).
    pub oee_scanned: u64,
    /// Candidate gains OEE reused from its cache instead of recomputing —
    /// the work the gain cache and warm start saved over a full rescan.
    pub oee_cache_hits: u64,
    /// Block swaps the map-placement refinement applied.
    pub place_exchanges: usize,
    /// Rounds skipped outright because the traffic graph was unchanged
    /// from the round that produced the current placement (a guaranteed
    /// fixed point). Always 0 on the `force_full` driver.
    pub rounds_skipped: usize,
    /// True when any exchange loop hit its `max_exchanges` safety valve —
    /// the result may be under-refined.
    pub saturated: bool,
}

/// What the iterative placement driver did and achieved.
///
/// Equality deliberately *excludes* [`PlacementReport::work`]: the work
/// counters trace execution (cache hits, skipped rounds), and the
/// incremental and `force_full` drivers legitimately differ there while
/// producing identical placements — the property suite pins every other
/// field across both drivers.
#[derive(Clone, Debug)]
pub struct PlacementReport {
    /// Accepted re-place + recompile rounds (0 = the identity placement
    /// was already optimal, or the topology made placement irrelevant).
    pub iterations: usize,
    /// Unweighted cut of the final partition over the communication
    /// weighted interaction graph (cross-block burst communications).
    pub cut_weight: u64,
    /// Hop-weighted cut of the final placement — `Σ comm-weight × hops`
    /// between the physical nodes the blocks landed on.
    pub weighted_cost: u64,
    /// The final block→node map.
    pub node_map: Vec<NodeId>,
    /// Assignment-level EPR cost of the identity-placement compile the
    /// driver started from.
    pub initial_epr_cost: usize,
    /// Assignment-level EPR cost of the returned compile (≤ initial).
    pub final_epr_cost: usize,
    /// Optimizer work counters (excluded from equality — see the type
    /// docs).
    pub work: PlacementWork,
}

impl PartialEq for PlacementReport {
    fn eq(&self, other: &Self) -> bool {
        self.iterations == other.iterations
            && self.cut_weight == other.cut_weight
            && self.weighted_cost == other.weighted_cost
            && self.node_map == other.node_map
            && self.initial_epr_cost == other.initial_epr_cost
            && self.final_epr_cost == other.final_epr_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_circuit::{Gate, QubitId};

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn register_mismatch_is_reported() {
        let c = Circuit::new(4);
        let p = Partition::block(6, 2).unwrap();
        let err = AutoComm::new().compile(&c, &p).unwrap_err();
        assert!(matches!(err, CompileError::RegisterMismatch { .. }));
    }

    #[test]
    fn pipeline_produces_consistent_artifacts() {
        let c = dqc_workloads::qft(8);
        let p = Partition::block(8, 2).unwrap();
        let r = AutoComm::new().compile(&c, &p).unwrap();
        // Remote CX conservation across passes.
        let remote = r.unrolled.gates().iter().filter(|g| p.is_remote(g)).count();
        assert_eq!(remote, r.metrics.total_rem_cx);
        assert!(r.metrics.total_comms <= remote, "aggregation never hurts");
        assert!(r.schedule.makespan > 0.0);
        assert!(r.metrics.improvement_factor() >= 1.0);
    }

    #[test]
    fn ablations_are_ordered_sensibly() {
        let c = dqc_workloads::qft(10);
        let p = Partition::block(10, 2).unwrap();
        let full = AutoComm::new().compile(&c, &p).unwrap();
        let no_commute = AutoComm::with_ablations(&[Ablation::NoCommute]).compile(&c, &p).unwrap();
        let cat_only = AutoComm::with_ablations(&[Ablation::CatOnly]).compile(&c, &p).unwrap();
        let plain_sched =
            AutoComm::with_ablations(&[Ablation::PlainGreedy]).compile(&c, &p).unwrap();

        assert!(no_commute.metrics.total_comms >= full.metrics.total_comms);
        assert!(cat_only.metrics.total_comms >= full.metrics.total_comms);
        assert!(plain_sched.schedule.makespan >= full.schedule.makespan);
        // QFT is TP-heavy under the hybrid assignment (paper Table 3).
        assert!(full.metrics.tp_comms > 0);
    }

    #[test]
    fn cheap_local_program_costs_nothing() {
        let mut c = Circuit::new(4);
        c.push(Gate::cx(q(0), q(1))).unwrap();
        c.push(Gate::cx(q(2), q(3))).unwrap();
        let p = Partition::block(4, 2).unwrap();
        let r = AutoComm::new().compile(&c, &p).unwrap();
        assert_eq!(r.metrics.total_comms, 0);
        assert_eq!(r.schedule.epr_pairs, 0);
    }

    #[test]
    fn bv_compiles_to_all_cat() {
        let c = dqc_workloads::bv(16);
        let p = Partition::block(16, 4).unwrap();
        let r = AutoComm::new().compile(&c, &p).unwrap();
        assert_eq!(r.metrics.tp_comms, 0, "BV is all target-form Cat (paper Table 3)");
        assert_eq!(r.metrics.total_comms, 3, "one comm per remote node");
    }

    #[test]
    fn compile_reports_every_pass_in_order() {
        let c = dqc_workloads::qft(6);
        let p = Partition::block(6, 2).unwrap();
        let r = AutoComm::new().compile(&c, &p).unwrap();
        let names: Vec<&str> = r.passes.iter().map(|p| p.pass).collect();
        assert_eq!(
            names,
            ["orient", "unroll", "comm-ir", "aggregate", "assign", "metrics", "schedule"]
        );
        let no_orient = AutoComm::with_ablations(&[Ablation::NoOrient]).compile(&c, &p).unwrap();
        let names: Vec<&str> = no_orient.passes.iter().map(|p| p.pass).collect();
        assert_eq!(names, ["unroll", "comm-ir", "aggregate", "assign", "metrics", "schedule"]);
    }

    #[test]
    fn lower_stage_composes() {
        let c = dqc_workloads::bv(8);
        let p = Partition::block(8, 2).unwrap();
        let hw = HardwareSpec::for_partition(&p);
        let r = AutoComm::new().compile_on(&c, &p, &hw).unwrap();
        let lowered = crate::lower_assigned_on(&r.assigned, &r.placement, hw.topology()).unwrap();
        assert_eq!(lowered.epr_pairs, r.schedule.epr_pairs);
    }

    #[test]
    fn timed_reports_name_and_metric() {
        let mut passes = Vec::new();
        let out = timed(&mut passes, "unroll", || 1 + 1, |n| Some(format!("{n} gates")));
        assert_eq!(out, 2);
        assert_eq!(passes.len(), 1);
        assert_eq!(passes[0].pass, "unroll");
        assert_eq!(passes[0].metric.as_deref(), Some("2 gates"));
    }

    #[test]
    fn compile_placed_never_loses_to_identity_and_improves_on_a_chain() {
        // Heavy traffic between blocks 0 and 2 of a 3-chain: the identity
        // map pays 2 hops per comm; placement pulls the pair adjacent.
        let mut c = Circuit::new(6);
        for _ in 0..4 {
            c.push(Gate::cx(q(0), q(4))).unwrap();
            c.push(Gate::h(q(4))).unwrap();
        }
        c.push(Gate::cx(q(2), q(3))).unwrap();
        let p = Partition::block(6, 3).unwrap();
        let hw = HardwareSpec::for_partition(&p)
            .with_topology(dqc_hardware::NetworkTopology::linear(3).unwrap())
            .unwrap();
        let identity = AutoComm::new().compile_on(&c, &p, &hw).unwrap();
        let (placed, report) =
            AutoComm::new().compile_placed(&c, &p, &hw, &PlacementConfig::default()).unwrap();
        assert_eq!(report.initial_epr_cost, identity.metrics.total_epr_cost);
        assert!(
            placed.metrics.total_epr_cost < identity.metrics.total_epr_cost,
            "placement must help here: {} vs {}",
            placed.metrics.total_epr_cost,
            identity.metrics.total_epr_cost
        );
        assert_eq!(report.final_epr_cost, placed.metrics.total_epr_cost);
        assert!(report.iterations >= 1);
        assert!(!placed.placement.is_identity());
        // The map is a permutation of the three nodes.
        let mut nodes: Vec<usize> = report.node_map.iter().map(|n| n.index()).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2]);
    }

    #[test]
    fn compile_placed_is_bit_identical_on_all_to_all() {
        let c = dqc_workloads::qft(12);
        let p = Partition::block(12, 4).unwrap();
        let hw = HardwareSpec::for_partition(&p);
        let plain = AutoComm::new().compile_on(&c, &p, &hw).unwrap();
        let (placed, report) =
            AutoComm::new().compile_placed(&c, &p, &hw, &PlacementConfig::default()).unwrap();
        assert_eq!(placed.metrics, plain.metrics);
        assert_eq!(placed.schedule, plain.schedule);
        assert_eq!(placed.assigned, plain.assigned);
        assert_eq!(report.initial_epr_cost, report.final_epr_cost);
    }

    #[test]
    fn zero_refine_iters_is_the_identity_compile() {
        let c = dqc_workloads::bv(12);
        let p = Partition::block(12, 3).unwrap();
        let hw = HardwareSpec::for_partition(&p)
            .with_topology(dqc_hardware::NetworkTopology::linear(3).unwrap())
            .unwrap();
        let plain = AutoComm::new().compile_on(&c, &p, &hw).unwrap();
        let (placed, report) = AutoComm::new()
            .compile_placed(&c, &p, &hw, &PlacementConfig { refine_iters: 0, force_full: false })
            .unwrap();
        assert_eq!(report.iterations, 0);
        assert_eq!(placed.metrics, plain.metrics);
        assert_eq!(placed.schedule, plain.schedule);
    }

    /// The incremental placement driver is bit-identical to the historical
    /// full-recompile driver on all five topology families, across suite
    /// and random workloads — the acceptance rail for incremental
    /// recompilation.
    #[test]
    fn incremental_compile_placed_matches_full_on_all_topologies() {
        use dqc_hardware::NetworkTopology;
        let nodes = 4;
        let mut programs: Vec<Circuit> = vec![dqc_workloads::qft(8), dqc_workloads::bv(8)];
        for seed in 0..3 {
            let (c, _) = dqc_workloads::random_distributed_circuit(8, nodes, 40, seed);
            programs.push(c);
        }
        let p = Partition::block(8, nodes).unwrap();
        let topologies = [
            ("all-to-all", NetworkTopology::all_to_all(nodes)),
            ("linear", NetworkTopology::linear(nodes).unwrap()),
            ("ring", NetworkTopology::ring(nodes).unwrap()),
            ("grid", NetworkTopology::grid(2, 2).unwrap()),
            ("star", NetworkTopology::star(nodes).unwrap()),
        ];
        for c in &programs {
            for (name, topology) in &topologies {
                let hw = HardwareSpec::for_partition(&p).with_topology(topology.clone()).unwrap();
                let incremental = AutoComm::new()
                    .compile_placed(c, &p, &hw, &PlacementConfig::default())
                    .unwrap();
                let full = AutoComm::new()
                    .compile_placed(
                        c,
                        &p,
                        &hw,
                        &PlacementConfig { force_full: true, ..Default::default() },
                    )
                    .unwrap();
                assert_eq!(incremental.1, full.1, "report differs on {name}");
                assert_eq!(incremental.0.metrics, full.0.metrics, "metrics differ on {name}");
                assert_eq!(incremental.0.schedule, full.0.schedule, "schedule differs on {name}");
                assert_eq!(incremental.0.assigned, full.0.assigned, "assignment differs on {name}");
                assert_eq!(
                    incremental.0.placement, full.0.placement,
                    "placement differs on {name}"
                );
            }
        }
    }

    /// Cat-only configurations ride the same incremental path (the
    /// incremental re-assignment must respect `hybrid_assignment`).
    #[test]
    fn incremental_compile_placed_matches_full_under_cat_only() {
        use dqc_hardware::NetworkTopology;
        let c = dqc_workloads::qft(8);
        let p = Partition::block(8, 4).unwrap();
        let hw = HardwareSpec::for_partition(&p)
            .with_topology(NetworkTopology::ring(4).unwrap())
            .unwrap();
        let compiler = AutoComm::with_ablations(&[Ablation::CatOnly]);
        let incremental =
            compiler.compile_placed(&c, &p, &hw, &PlacementConfig::default()).unwrap();
        let full = compiler
            .compile_placed(
                &c,
                &p,
                &hw,
                &PlacementConfig { force_full: true, ..Default::default() },
            )
            .unwrap();
        assert_eq!(incremental.1, full.1);
        assert_eq!(incremental.0.metrics, full.0.metrics);
        assert_eq!(incremental.0.assigned, full.0.assigned);
    }

    fn pass_lines(r: &CompileResult) -> Vec<String> {
        r.passes
            .iter()
            .map(|p| format!("{}: {}", p.pass, p.metric.as_deref().unwrap_or("-")))
            .collect()
    }

    /// Stage names and headline metrics are output: the CLI prints them
    /// under `passes` and keys `--timings` on the names.
    #[test]
    fn pass_names_and_metrics_are_pinned() {
        let c = dqc_workloads::qft(8);
        let p = Partition::block(8, 2).unwrap();
        let analysis = |aggregate: &str, assign: &str, metrics: &str| {
            [
                "orient: -".to_string(),
                "unroll: 160 gates".to_string(),
                "comm-ir: 160 gates (112 unique), lazy dag".to_string(),
                format!("aggregate: {aggregate}"),
                format!("assign: {assign}"),
                format!("metrics: {metrics}"),
            ]
        };
        let full = analysis("7 blocks", "3 cat / 4 tp blocks", "11 comms (8 tp)");
        let mut no_orient = full[1..].to_vec();
        no_orient.push("schedule: makespan 198.9, 11 epr".into());
        let expected: [(Option<Ablation>, Vec<String>); 5] = [
            (None, [&full[..], &["schedule: makespan 198.9, 11 epr".into()]].concat()),
            (
                Some(Ablation::NoCommute),
                [
                    &analysis("44 blocks", "44 cat / 0 tp blocks", "44 comms (0 tp)")[..],
                    &["schedule: makespan 586.7, 44 epr".into()],
                ]
                .concat(),
            ),
            (
                Some(Ablation::CatOnly),
                [
                    &analysis("7 blocks", "7 cat / 0 tp blocks", "16 comms (0 tp)")[..],
                    &["schedule: makespan 283.8, 17 epr".into()],
                ]
                .concat(),
            ),
            (
                Some(Ablation::PlainGreedy),
                [&full[..], &["schedule: makespan 283.3, 11 epr".into()]].concat(),
            ),
            (Some(Ablation::NoOrient), no_orient),
        ];
        for (ablation, lines) in expected {
            let r = AutoComm::with_ablations(ablation.as_slice()).compile(&c, &p).unwrap();
            assert_eq!(pass_lines(&r), lines, "{ablation:?}");
        }

        // The placement driver after accepted rounds: seed 2 takes one
        // partition-preserving round, seed 4 two rounds that end on a new
        // partition. A partition-preserving round re-assigns incrementally
        // but leaves the assign/metrics reports of the run that built the
        // analysis in place, so seed 2's `assign` and `metrics` lines below
        // are stale: they describe the identity run, not the returned
        // assignment. That is a known defect (a FOUND entry in CHANGES.md),
        // pinned here only because the CLI prints these lines; fixing it
        // changes these two expectations.
        let p = Partition::block(8, 4).unwrap();
        let hw = HardwareSpec::for_partition(&p)
            .with_topology(dqc_hardware::NetworkTopology::linear(4).unwrap())
            .unwrap();
        let compiler = AutoComm::with_options(
            AutoCommOptions::default().with_buffer(crate::BufferPolicy::Prefetch { depth: 4 }),
        );
        for (seed, iterations, lines) in [
            (
                2,
                1,
                [
                    "orient: -",
                    "unroll: 76 gates",
                    "comm-ir: 76 gates (55 unique), lazy dag",
                    "aggregate: 18 blocks",
                    "assign: 16 cat / 2 tp blocks",
                    "metrics: 20 comms (4 tp)",
                    "schedule: makespan 317.3, 30 epr, prefetch:4 buffering (19/20 hits)",
                ],
            ),
            (
                4,
                2,
                [
                    "orient: -",
                    "unroll: 69 gates",
                    "comm-ir: 69 gates (52 unique), lazy dag",
                    "aggregate: 10 blocks",
                    "assign: 8 cat / 2 tp blocks",
                    "metrics: 14 comms (4 tp)",
                    "schedule: makespan 214.3, 20 epr, prefetch:4 buffering (13/14 hits)",
                ],
            ),
        ] {
            let (c, _) = dqc_workloads::random_distributed_circuit(8, 4, 40, seed);
            let (r, report) =
                compiler.compile_placed(&c, &p, &hw, &PlacementConfig::default()).unwrap();
            assert_eq!(report.iterations, iterations, "seed {seed}");
            assert_eq!(pass_lines(&r), lines, "seed {seed}");
            let last = r.passes.last().unwrap();
            assert_eq!(last.pass, "schedule");
            assert_eq!(last.metric.as_deref(), Some(schedule_metric(&r.schedule).as_str()));
            for pass in &r.passes {
                assert_eq!(r.passes.iter().filter(|p| p.pass == pass.pass).count(), 1);
            }
        }
    }

    #[test]
    fn ablation_names_round_trip() {
        for a in Ablation::all() {
            assert_eq!(Ablation::parse(a.name()), Some(a));
        }
        assert_eq!(Ablation::parse("bogus"), None);
    }
}
