//! The one compile request behind `compile`, `batch`, `submit` and
//! `serve`.
//!
//! Every front end reads the same seven compile options — from argv flags
//! ([`CompileRequest::take_flag`]) or from a `serve` JSON request
//! ([`CompileRequest::from_json`]) — through one table ([`OPTIONS`]) and
//! one per-option validator ([`CompileRequest::set`]), so a value one
//! front end rejects is rejected by all of them. The request then renders
//! its own `submit` JSON, its cache key and its artifact echo, and
//! compiles through [`CompileRequest::compile`], the single call into
//! [`AutoComm::compile_placed`].

use autocomm::{
    Ablation, ArtifactConfig, AutoComm, AutoCommOptions, BufferPolicy, CompileResult,
    PlacementConfig, PlacementReport,
};
use dqc_circuit::{bytes_content_hash, unroll_circuit, Circuit, CircuitStats, Partition};
use dqc_hardware::{HardwareSpec, NetworkTopology};
use dqc_partition::{oee_partition, InteractionGraph};

use crate::json::Json;
use crate::CliError;

/// How logical qubits are placed onto physical nodes
/// (`--placement block|oee|topo`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Contiguous blocks of equal size (deterministic, layout-agnostic),
    /// block `i` on node `i`.
    Block,
    /// The paper's Static Overall Extreme Exchange refinement, block `i`
    /// on node `i` (the default; bit-identical to the pre-placement
    /// pipeline).
    Oee,
    /// OEE plus the topology- and traffic-aware iterative placement driver:
    /// re-weights the interaction graph with measured communication counts
    /// and optimizes the block→node map until the hop-weighted EPR cost
    /// stops improving (bounded by `--refine-iters`).
    Topo,
}

impl PartitionStrategy {
    /// The kebab-case flag value.
    pub fn name(self) -> &'static str {
        match self {
            PartitionStrategy::Block => "block",
            PartitionStrategy::Oee => "oee",
            PartitionStrategy::Topo => "topo",
        }
    }
}

/// One compile option.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Opt {
    Nodes,
    CommQubits,
    Topology,
    Placement,
    RefineIters,
    Buffer,
    Ablation,
}

/// Every compile option with its argv flag and JSON key, in the order the
/// JSON decoder checks them and the `submit` renderer writes them.
const OPTIONS: [(Opt, &str, &str); 7] = [
    (Opt::Nodes, "--nodes", "nodes"),
    (Opt::CommQubits, "--comm-qubits", "comm_qubits"),
    (Opt::Topology, "--topology", "topology"),
    (Opt::Placement, "--placement", "placement"),
    (Opt::RefineIters, "--refine-iters", "refine_iters"),
    (Opt::Buffer, "--buffer", "buffer"),
    (Opt::Ablation, "--ablation", "ablations"),
];

/// Everything that changes a compile's output: what `compile`, `batch`,
/// `submit` and `serve` all compile through.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileRequest {
    /// Number of hardware nodes. `0` until set; no validator accepts it.
    pub nodes: usize,
    /// Communication qubits per node (the paper's budget is 2).
    pub comm_qubits: usize,
    /// Interconnect topology spec: a name (`all-to-all`, `linear`, `ring`,
    /// `star`, `grid`, `grid:RxC`) or a topology file path. `None` =
    /// all-to-all, the paper's model.
    pub topology: Option<String>,
    /// Placement strategy (default: OEE, as in the paper).
    pub strategy: PartitionStrategy,
    /// Re-place + recompile rounds for `--placement topo` (default 3).
    pub refine_iters: usize,
    /// EPR buffering policy for the scheduler (default on-demand, the
    /// bit-identical legacy engine).
    pub buffer: BufferPolicy,
    /// Ablations applied to the full optimization set, in flag order.
    pub ablations: Vec<Ablation>,
}

impl Default for CompileRequest {
    /// The documented flag defaults, with `nodes` still unset.
    fn default() -> Self {
        CompileRequest {
            nodes: 0,
            comm_qubits: 2,
            topology: None,
            strategy: PartitionStrategy::Oee,
            refine_iters: 3,
            buffer: BufferPolicy::OnDemand,
            ablations: Vec::new(),
        }
    }
}

/// What one compile produced, before any front end renders it.
#[derive(Debug)]
pub(crate) struct Compiled {
    /// Unrolled-circuit statistics under the final partition.
    pub(crate) stats: CircuitStats,
    /// The hardware model (comm-qubit budget + resolved topology).
    pub(crate) hardware: HardwareSpec,
    /// What the placement driver did.
    pub(crate) placement: PlacementReport,
    /// The full pipeline result.
    pub(crate) result: CompileResult,
}

/// The value following `flag` on the command line.
pub(crate) fn flag_value(
    flag: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Result<String, CliError> {
    rest.next().ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
}

/// The value following `flag`, checked by `parse`; a rejection reads
/// `{flag}: {reason}`.
pub(crate) fn parse_flag<T>(
    flag: &str,
    rest: &mut impl Iterator<Item = String>,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, CliError> {
    let value = flag_value(flag, rest)?;
    parse(&value).map_err(|reason| CliError::Usage(format!("{flag}: {reason}")))
}

/// Parses a count that must be at least one.
pub(crate) fn positive(value: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("'{value}' is not a positive integer"))
}

fn compile_error(e: impl std::fmt::Display) -> CliError {
    CliError::Compile(e.to_string())
}

/// The usage error for an argument no front end knows.
pub(crate) fn unknown_option(arg: &str) -> CliError {
    CliError::Usage(format!("unknown option '{arg}'"))
}

impl CompileRequest {
    /// Validates one option value and stores it; the error is the reason
    /// only, which each front end prefixes with the flag or key name.
    fn set(&mut self, opt: Opt, value: &str) -> Result<(), String> {
        match opt {
            Opt::Nodes => self.nodes = positive(value)?,
            Opt::CommQubits => self.comm_qubits = positive(value)?,
            Opt::Topology => self.topology = Some(value.to_string()),
            Opt::Placement => {
                self.strategy = match value {
                    "block" => PartitionStrategy::Block,
                    "oee" => PartitionStrategy::Oee,
                    "topo" => PartitionStrategy::Topo,
                    other => {
                        return Err(format!(
                            "unknown strategy '{other}' (expected 'block', 'oee', or 'topo')"
                        ))
                    }
                }
            }
            Opt::RefineIters => {
                self.refine_iters = value
                    .parse()
                    .map_err(|_| format!("'{value}' is not a non-negative integer"))?;
            }
            Opt::Buffer => {
                self.buffer = BufferPolicy::parse(value).ok_or_else(|| {
                    format!(
                        "unknown policy '{value}' (expected 'on-demand', 'prefetch', \
                         'prefetch:N' with N >= 1, or 'greedy')"
                    )
                })?;
            }
            Opt::Ablation => {
                let ablation = Ablation::parse(value).ok_or_else(|| {
                    let known: Vec<&str> = Ablation::all().iter().map(|a| a.name()).collect();
                    format!("unknown ablation '{value}' (expected one of {})", known.join(", "))
                })?;
                if !self.ablations.contains(&ablation) {
                    self.ablations.push(ablation);
                }
            }
        }
        Ok(())
    }

    /// Applies `arg` if it is one of the seven compile flags, reading its
    /// value from `rest`. `Ok(false)` leaves the argument to the front end.
    /// `--ablation` is repeatable and comma-separable.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for a missing or rejected value.
    pub(crate) fn take_flag(
        &mut self,
        arg: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, CliError> {
        let Some(&(opt, flag, _)) = OPTIONS.iter().find(|(_, flag, _)| *flag == arg) else {
            return Ok(false);
        };
        parse_flag(flag, rest, |value| match opt {
            Opt::Ablation => {
                value.split(',').filter(|s| !s.is_empty()).try_for_each(|name| self.set(opt, name))
            }
            _ => self.set(opt, value),
        })?;
        Ok(true)
    }

    /// The request once argv parsing is done.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when `--nodes` was never given.
    pub(crate) fn require_nodes(self) -> Result<CompileRequest, CliError> {
        if self.nodes == 0 {
            return Err(CliError::Usage("missing required --nodes <N>".into()));
        }
        Ok(self)
    }

    /// Decodes the compile options of a `serve` request. Absent keys take
    /// the flag defaults and every value goes through the flag validators.
    ///
    /// # Errors
    ///
    /// A short message for a missing `nodes`, a mistyped value, or a value
    /// the flags would reject.
    pub(crate) fn from_json(req: &Json) -> Result<CompileRequest, String> {
        let mut request = CompileRequest::default();
        for &(opt, _, key) in &OPTIONS {
            let mut set =
                |value: &str| request.set(opt, value).map_err(|r| format!("'{key}': {r}"));
            match (opt, req.get(key)) {
                (Opt::Nodes, None) => return Err("compile request needs a 'nodes' count".into()),
                (_, None) | (Opt::Topology, Some(Json::Null)) => {}
                (Opt::Nodes | Opt::CommQubits | Opt::RefineIters, Some(v)) => {
                    let n = v.as_f64().ok_or_else(|| format!("'{key}' must be a number"))?;
                    if n < 0.0 || n.fract() != 0.0 {
                        return Err(format!("'{key}' must be a non-negative integer"));
                    }
                    set(&(n as usize).to_string())?;
                }
                (Opt::Ablation, Some(v)) => {
                    let Json::Array(items) = v else {
                        return Err("'ablations' must be an array of strings".into());
                    };
                    for item in items {
                        set(item.as_str().ok_or("'ablations' must be an array of strings")?)?;
                    }
                }
                (_, Some(v)) => {
                    set(v.as_str().ok_or_else(|| format!("'{key}' must be a string"))?)?
                }
            }
        }
        Ok(request)
    }

    /// The request as `serve` JSON fields, in [`OPTIONS`] order; an unset
    /// topology is left out.
    pub(crate) fn json_fields(&self) -> impl Iterator<Item = (&'static str, Json)> + '_ {
        OPTIONS.iter().filter_map(move |&(opt, _, key)| {
            let value = match opt {
                Opt::Nodes => Json::number(self.nodes as f64),
                Opt::CommQubits => Json::number(self.comm_qubits as f64),
                Opt::Topology => Json::string(self.topology.clone()?),
                Opt::Placement => Json::string(self.strategy.name()),
                Opt::RefineIters => Json::number(self.refine_iters as f64),
                Opt::Buffer => Json::string(self.buffer.name()),
                Opt::Ablation => Json::array(self.ablations.iter().map(|a| Json::string(a.name()))),
            };
            Some((key, value))
        })
    }

    /// The content-addressed cache key: the circuit hash plus every option
    /// that changes the output, with the topology as its
    /// [`TopologySpec::key`] text.
    pub(crate) fn cache_key(&self, circuit_hash: &str, topology_key: &str) -> String {
        let ablations = if self.ablations.is_empty() {
            "-".to_string()
        } else {
            self.ablations.iter().map(|a| a.name()).collect::<Vec<_>>().join("+")
        };
        format!(
            "{circuit_hash}:{}n:{}c:{topology_key}:{}:r{}:{}:{ablations}",
            self.nodes,
            self.comm_qubits,
            self.strategy.name(),
            self.refine_iters,
            self.buffer.name(),
        )
    }

    /// The options a compiled artifact echoes; `CompiledArtifact::capture`
    /// fills in the topology from the hardware.
    pub(crate) fn artifact_config(&self, key: String) -> ArtifactConfig {
        ArtifactConfig {
            key,
            nodes: self.nodes,
            comm_qubits: self.comm_qubits,
            strategy: self.strategy.name().to_string(),
            refine_iters: self.refine_iters,
            buffer: self.buffer,
            ablations: self.ablations.clone(),
            ..ArtifactConfig::default()
        }
    }

    /// Partitions, places and compiles `circuit` on the interconnect that
    /// `topology` builds. `topology` is called only once the circuit has
    /// passed the qubits-vs-nodes check and been partitioned, so an
    /// oversized node count is rejected before any O(n³) table is built.
    ///
    /// Every strategy funnels through the placement driver: `block` and
    /// `oee` run it with zero refinement rounds (bit-identical to the
    /// historical pipeline), `topo` iterates up to `refine_iters` times.
    /// Ablations apply to the full optimization set, then the buffering
    /// policy is threaded into the scheduler, so they compose.
    ///
    /// # Errors
    ///
    /// [`CliError::Compile`] when the circuit has fewer qubits than nodes
    /// or partitioning or the pipeline fails; any error of `topology`;
    /// [`CliError::Usage`] when the comm-qubit budget does not fit the
    /// topology.
    pub(crate) fn compile(
        &self,
        circuit: &Circuit,
        topology: impl FnOnce() -> Result<NetworkTopology, CliError>,
    ) -> Result<Compiled, CliError> {
        if circuit.num_qubits() < self.nodes {
            return Err(CliError::Compile(format!(
                "cannot spread {} qubits over {} nodes",
                circuit.num_qubits(),
                self.nodes
            )));
        }
        let partition = match self.strategy {
            PartitionStrategy::Block => {
                Partition::block(circuit.num_qubits(), self.nodes).map_err(compile_error)?
            }
            PartitionStrategy::Oee | PartitionStrategy::Topo => {
                let unrolled = unroll_circuit(circuit).map_err(compile_error)?;
                oee_partition(&InteractionGraph::from_circuit(&unrolled), self.nodes)
                    .map_err(compile_error)?
            }
        };
        let topology = topology()?;
        let hardware = HardwareSpec::for_partition(&partition)
            .with_comm_qubits(self.comm_qubits)
            .and_then(|hw| hw.with_topology(topology))
            .map_err(|e| CliError::Usage(format!("invalid hardware configuration: {e}")))?;
        let config = PlacementConfig {
            refine_iters: match self.strategy {
                PartitionStrategy::Topo => self.refine_iters,
                _ => 0,
            },
            ..Default::default()
        };
        let mut options = self
            .ablations
            .iter()
            .fold(AutoCommOptions::default(), |opts, &a| opts.with_ablation(a));
        options.schedule.buffer = self.buffer;
        let (result, placement) = AutoComm::with_options(options)
            .compile_placed(circuit, &partition, &hardware, &config)
            .map_err(compile_error)?;
        let stats = CircuitStats::of(&result.unrolled, Some(result.placement.partition()));
        Ok(Compiled { stats, hardware, placement, result })
    }
}

/// Resolves a `--topology` spec: a known name (`linear`, `grid:2x3`, …) or
/// a path to a topology file; `None` means the paper's all-to-all.
///
/// # Errors
///
/// [`CliError::Usage`] for unknown names or node-count mismatches;
/// [`CliError::Io`] when a file path cannot be read.
pub fn resolve_topology(spec: Option<&str>, nodes: usize) -> Result<NetworkTopology, CliError> {
    TopologySpec::read(spec)?.build(nodes)
}

/// A `--topology` spec with any file already read, but no topology built
/// yet: building one for `n` nodes costs O(n³), so it waits until a
/// compile has passed its qubits-vs-nodes check.
#[derive(Debug)]
pub(crate) enum TopologySpec {
    /// No spec: the paper's all-to-all.
    AllToAll,
    /// A topology name such as `ring` or `grid:2x3`.
    Named(String),
    /// A topology file: its path as written and its text.
    File {
        /// The path as the request gave it.
        path: String,
        /// The file's contents at the time of the request.
        text: String,
    },
}

impl TopologySpec {
    /// Reads `spec`: an existing file is read now, anything else is kept
    /// as a name.
    ///
    /// # Errors
    ///
    /// [`CliError::Io`] when an existing file cannot be read.
    pub(crate) fn read(spec: Option<&str>) -> Result<TopologySpec, CliError> {
        let Some(spec) = spec else {
            return Ok(TopologySpec::AllToAll);
        };
        let path = std::path::Path::new(spec);
        if !path.is_file() {
            return Ok(TopologySpec::Named(spec.to_string()));
        }
        let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(path.into(), e))?;
        Ok(TopologySpec::File { path: spec.to_string(), text })
    }

    /// The cache-key text: the spec as written for a name (`all-to-all`
    /// when unset), `file-<content hash>` for a file, so editing the file
    /// changes the key.
    pub(crate) fn key(&self) -> String {
        match self {
            TopologySpec::AllToAll => "all-to-all".into(),
            TopologySpec::Named(name) => name.clone(),
            TopologySpec::File { text, .. } => {
                format!("file-{}", bytes_content_hash(text.as_bytes()))
            }
        }
    }

    /// Builds the topology for `nodes` nodes.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for unknown names, unparsable files and
    /// node-count mismatches.
    pub(crate) fn build(&self, nodes: usize) -> Result<NetworkTopology, CliError> {
        match self {
            TopologySpec::AllToAll => Ok(NetworkTopology::all_to_all(nodes)),
            TopologySpec::Named(name) => NetworkTopology::parse_spec(name, nodes)
                .map_err(|e| CliError::Usage(format!("--topology: {e}"))),
            TopologySpec::File { path, text } => {
                let topology = NetworkTopology::from_text(text)
                    .map_err(|e| CliError::Usage(format!("--topology {path}: {e}")))?;
                if topology.num_nodes() != nodes {
                    return Err(CliError::Usage(format!(
                        "--topology {path}: file covers {} node(s) but --nodes is {nodes}",
                        topology.num_nodes()
                    )));
                }
                Ok(topology)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchArgs;
    use crate::serve::{decode_compile, SubmitArgs};
    use crate::CompileArgs;

    /// Every option value the front ends are checked on: flag, value, and
    /// whether it is accepted. Topology names resolve after parsing, so
    /// any spec text parses.
    const VALUES: &[(&str, &str, bool)] = &[
        ("--nodes", "1", true),
        ("--nodes", "4", true),
        ("--nodes", "0", false),
        ("--nodes", "x", false),
        ("--nodes", "-1", false),
        ("--nodes", "2.5", false),
        ("--comm-qubits", "1", true),
        ("--comm-qubits", "3", true),
        ("--comm-qubits", "0", false),
        ("--comm-qubits", "two", false),
        ("--topology", "linear", true),
        ("--topology", "grid:2x2", true),
        ("--topology", "moebius", true),
        ("--placement", "block", true),
        ("--placement", "oee", true),
        ("--placement", "topo", true),
        ("--placement", "spectral", false),
        ("--placement", "", false),
        ("--refine-iters", "0", true),
        ("--refine-iters", "7", true),
        ("--refine-iters", "many", false),
        ("--refine-iters", "-1", false),
        ("--buffer", "on-demand", true),
        ("--buffer", "prefetch", true),
        ("--buffer", "prefetch:4", true),
        ("--buffer", "greedy", true),
        ("--buffer", "psychic", false),
        ("--buffer", "prefetch:0", false),
        ("--ablation", "no-commute", true),
        ("--ablation", "no-commute,cat-only", true),
        ("--ablation", "plain-greedy,no-orient,plain-greedy", true),
        ("--ablation", "bogus", false),
        ("--ablation", "no-commute,bogus", false),
    ];

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// The argv of one table row (with `--nodes 2` unless the row sets it).
    fn argv(file: &str, flag: &str, value: &str) -> Vec<String> {
        let nodes: &[&str] = if flag == "--nodes" { &[] } else { &["--nodes", "2"] };
        strings(&[&[file][..], nodes, &[flag, value]].concat())
    }

    /// The `serve` request of one table row: numbers for the counts when
    /// the text is numeric, one string per ablation name, else a string.
    fn request(flag: &str, value: &str) -> Json {
        let &(opt, _, key) = OPTIONS.iter().find(|(_, f, _)| *f == flag).unwrap();
        let json = match (opt, value.parse::<f64>()) {
            (Opt::Nodes | Opt::CommQubits | Opt::RefineIters, Ok(n)) => Json::number(n),
            (Opt::Ablation, _) => Json::array(value.split(',').map(Json::string)),
            _ => Json::string(value),
        };
        let nodes = (opt != Opt::Nodes).then(|| ("nodes", Json::number(2.0)));
        Json::object(
            [("op", Json::string("compile")), ("qasm", Json::string("qreg q[4];"))]
                .into_iter()
                .chain(nodes)
                .chain([(key, json)]),
        )
    }

    #[test]
    fn argv_and_json_agree_on_every_option_value() {
        for &(flag, value, accepted) in VALUES {
            let compile = CompileArgs::parse(argv("c.qasm", flag, value)).map(|a| a.request);
            let batch = BatchArgs::parse(argv("dir", flag, value)).map(|a| a.request);
            let req = request(flag, value);
            let json = decode_compile(&req).map(|(_, request, _)| request);
            assert_eq!(compile.is_ok(), accepted, "compile {flag} {value:?}: {compile:?}");
            assert!(matches!(compile, Ok(_) | Err(CliError::Usage(_))), "{compile:?}");
            assert_eq!(batch.as_ref().ok(), compile.as_ref().ok(), "batch {flag} {value:?}");
            assert_eq!(json.as_ref().ok(), compile.as_ref().ok(), "serve {req}: {json:?}");
        }
    }

    #[test]
    fn submit_request_lines_decode_to_the_same_request_and_key() {
        let path =
            std::env::temp_dir().join(format!("autocomm-request-{}.qasm", std::process::id()));
        std::fs::write(&path, "qreg q[4];\ncx q[0], q[2];\n").unwrap();
        let file = path.display().to_string();
        for &(flag, value, _) in VALUES.iter().filter(|row| row.2) {
            for verbose in [false, true] {
                let mut args = argv(&file, flag, value);
                if verbose {
                    args.push("--verbose".into());
                }
                let submit = SubmitArgs::parse(args).unwrap();
                let line = Json::parse(&submit.request_line().unwrap()).unwrap();
                let (qasm, decoded, decoded_verbose) = decode_compile(&line).unwrap();
                assert_eq!(qasm, "qreg q[4];\ncx q[0], q[2];\n");
                assert_eq!(decoded_verbose, verbose);
                assert_eq!(decoded, submit.compile.request, "{line}");
                let topology = TopologySpec::read(decoded.topology.as_deref()).unwrap().key();
                assert_eq!(
                    decoded.cache_key("h", &topology),
                    submit.compile.request.cache_key("h", &topology)
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn defaults_are_shared_by_every_front_end() {
        let expect = CompileRequest { nodes: 2, ..CompileRequest::default() };
        let req = Json::parse(r#"{"op":"compile","qasm":"qreg q[4];","nodes":2}"#).unwrap();
        let (_, json, verbose) = decode_compile(&req).unwrap();
        assert_eq!(json, expect);
        assert!(!verbose);
        assert_eq!(
            CompileArgs::parse(strings(&["c.qasm", "--nodes", "2"])).unwrap().request,
            expect
        );
        assert_eq!(
            BatchArgs::parse(strings(&["--suite", "--nodes", "2"])).unwrap().request,
            expect
        );
        assert_eq!(expect.comm_qubits, 2);
        assert_eq!(expect.strategy, PartitionStrategy::Oee);
        assert_eq!(expect.refine_iters, 3);
        assert_eq!(expect.buffer, BufferPolicy::OnDemand);
    }

    #[test]
    fn front_end_specific_input_is_rejected() {
        for bad in [
            &["--nodes", "2"][..],                                 // no file
            &["c.qasm"][..],                                       // no nodes
            &["c.qasm", "--nodes"][..],                            // no value
            &["c.qasm", "--nodes", "2", "--frob"][..],             // unknown flag
            &["a.qasm", "b.qasm", "--nodes", "2"][..],             // two files
            &["c.qasm", "--nodes", "2", "--partition", "oee"][..], // removed alias
            &["c.qasm", "--nodes", "2", "--partition", "block"][..],
            &["c.qasm", "--nodes", "2", "--partition", "topo"][..],
            &["c.qasm", "--nodes", "2", "--partition", "spectral"][..],
        ] {
            let parsed = CompileArgs::parse(strings(bad));
            assert!(matches!(parsed, Err(CliError::Usage(_))), "compile accepted: {bad:?}");
        }
        for bad in [
            &["--nodes", "2"][..],                   // no input
            &["--suite"][..],                        // no nodes
            &["dir", "--suite", "--nodes", "2"][..], // both inputs
            &["dir", "extra", "--nodes", "2"][..],   // two dirs
            &["--suite", "--nodes", "0"][..],        // zero nodes
            &["--suite", "--nodes", "2", "--jobs", "0"][..],
            &["--suite", "--nodes", "2", "--frob"][..],
            &["--suite", "--nodes", "2", "--partition", "oee"][..],
        ] {
            let parsed = BatchArgs::parse(strings(bad));
            assert!(matches!(parsed, Err(CliError::Usage(_))), "batch accepted: {bad:?}");
        }
        for bad in [
            r#"{"op":"compile","nodes":2}"#,
            r#"{"op":"compile","qasm":"x","nodes":0}"#,
            r#"{"op":"compile","qasm":"x"}"#,
            r#"{"op":"compile","qasm":"x","nodes":2,"placement":"mystery"}"#,
            r#"{"op":"compile","qasm":"x","nodes":2,"placement":null}"#,
            r#"{"op":"compile","qasm":"x","nodes":2,"ablations":["nope"]}"#,
            r#"{"op":"compile","qasm":"x","nodes":2,"ablations":"cat-only"}"#,
            r#"{"op":"compile","qasm":"x","nodes":2,"ablations":["no-commute,cat-only"]}"#,
            r#"{"op":"compile","qasm":"x","nodes":2.5}"#,
            r#"{"op":"compile","qasm":"x","nodes":"2"}"#,
            r#"{"op":"compile","qasm":"x","nodes":2,"comm_qubits":0}"#,
        ] {
            let req = Json::parse(bad).unwrap();
            assert!(decode_compile(&req).is_err(), "serve accepted: {bad}");
        }
    }

    #[test]
    fn topology_is_built_only_after_the_qubit_count_check() {
        let circuit = dqc_circuit::from_qasm("qreg q[2];\ncx q[0], q[1];").unwrap();
        let request = CompileRequest { nodes: 100_000, ..CompileRequest::default() };
        for strategy in [PartitionStrategy::Block, PartitionStrategy::Oee] {
            let request = CompileRequest { strategy, ..request.clone() };
            match request.compile(&circuit, || unreachable!("topology built")).unwrap_err() {
                CliError::Compile(msg) => {
                    assert_eq!(msg, "cannot spread 2 qubits over 100000 nodes")
                }
                other => panic!("expected a compile error, got {other:?}"),
            }
        }
    }

    #[test]
    fn file_topologies_are_keyed_by_content() {
        let path = std::env::temp_dir().join(format!("autocomm-keyed-{}.txt", std::process::id()));
        let spec = path.display().to_string();
        std::fs::write(&path, "nodes 3\nlink 0 1\nlink 1 2\n").unwrap();
        let key = || TopologySpec::read(Some(&spec)).unwrap().key();
        let before = key();
        std::fs::write(&path, "nodes 3\nlink 0 1\nlink 1 2\nlink 0 2\n").unwrap();
        let after = key();
        std::fs::remove_file(&path).ok();
        assert!(before.starts_with("file-") && !before.contains(&spec), "{before}");
        assert_ne!(before, after);
        // Named specs keep their key text exactly.
        assert_eq!(TopologySpec::read(None).unwrap().key(), "all-to-all");
        assert_eq!(TopologySpec::read(Some("grid:2x2")).unwrap().key(), "grid:2x2");
    }
}
