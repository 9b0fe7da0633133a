//! Seeded workload inputs, written out as QASM files.
//!
//! The program under test only ever sees these files (or the request
//! lines built from them); the generators run here, in the benchmark.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dqc_circuit::{circuit_content_hash, to_qasm, Circuit, ContentHash};
use dqc_cli::CompileArgs;
use dqc_workloads::{
    generate, large_sparse_circuit, random_circuit, random_distributed_circuit, table2_configs,
};

use crate::stats::median;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 18 Table-2 rows under its own setup (OEE placement,
    /// all-to-all, 2 comm qubits, on-demand EPR).
    Table2,
    /// One 1M-gate random circuit on a ring with prefetch buffering.
    Random1m,
    /// Two 2048-qubit sparse circuits on a 4x4 grid with topology-aware
    /// placement.
    Sparse2048Topo,
    /// A Zipf request mix against the in-process compile daemon.
    ServeZipf,
}

pub const ALL: [Workload; 4] =
    [Workload::Table2, Workload::Random1m, Workload::Sparse2048Topo, Workload::ServeZipf];

/// Distinct jobs in the serve-zipf working set.
pub const SERVE_JOBS: usize = 24;
/// Gates per serve-zipf job before unrolling.
const SERVE_JOB_GATES: usize = 10_000;
/// Small inputs are compiled several times per pass (up to
/// `MAX_REPEATS`, about `REPEAT_GATES` gates' worth), so the latency of a
/// millisecond compile is a median over many samples rather than one.
const REPEAT_GATES: usize = 10_000;
const MAX_REPEATS: usize = 8;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2 => "table2",
            Workload::Random1m => "random-1m",
            Workload::Sparse2048Topo => "sparse-2048-topo",
            Workload::ServeZipf => "serve-zipf",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the inputs depend on the seed (table2 is the paper's fixed
    /// suite).
    pub fn seeded(self) -> bool {
        self != Workload::Table2
    }

    /// The circuits of this workload with their `autocomm compile` flags
    /// (everything but the input file).
    fn circuits(self, seed: u64) -> Vec<(String, Circuit, Vec<String>)> {
        let flags = |f: &[&str]| f.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        match self {
            Workload::Table2 => table2_configs()
                .into_iter()
                .map(|config| {
                    let nodes = config.num_nodes.to_string();
                    (
                        config.label(),
                        generate(&config),
                        flags(&["--nodes", &nodes, "--placement", "oee", "--comm-qubits", "2"]),
                    )
                })
                .collect(),
            Workload::Random1m => {
                let (circuit, _) = random_distributed_circuit(32, 4, 1_000_000, seed);
                vec![(
                    "random-32q-1m".to_string(),
                    circuit,
                    flags(&["--nodes", "4", "--topology", "ring", "--buffer", "prefetch:4"]),
                )]
            }
            // Two circuits, so the quality metrics average over two
            // interaction graphs and vary less from seed to seed.
            Workload::Sparse2048Topo => [seed, seed ^ 0x9e37_79b9_7f4a_7c15]
                .into_iter()
                .enumerate()
                .map(|(i, s)| {
                    (
                        format!("sparse-2048q-32768-{i}"),
                        large_sparse_circuit(2048, 32_768, s),
                        flags(&["--nodes", "16", "--topology", "grid", "--placement", "topo"]),
                    )
                })
                .collect(),
            // Jobs of one shape, so a miss costs about the same whichever
            // job the seed makes cold.
            Workload::ServeZipf => (0..SERVE_JOBS)
                .map(|j| {
                    let job_seed = seed.wrapping_mul(1_000_003).wrapping_add(j as u64);
                    (
                        format!("job{j:02}"),
                        random_circuit(24, SERVE_JOB_GATES, job_seed),
                        flags(&["--nodes", "4"]),
                    )
                })
                .collect(),
        }
    }

    /// A hash over every input circuit — what "same inputs" means.
    pub fn input_hash(self, seed: u64) -> Vec<ContentHash> {
        self.circuits(seed).iter().map(|(_, c, _)| circuit_content_hash(c)).collect()
    }
}

/// One generated input file and how to compile it.
#[derive(Clone, Debug)]
pub struct Input {
    pub label: String,
    pub path: PathBuf,
    pub flags: Vec<String>,
    pub hash: ContentHash,
    /// Compiles of this input per pass.
    pub repeats: usize,
}

impl Input {
    /// The `autocomm compile <file> <flags>` invocation for this input.
    pub fn compile_args(&self) -> CompileArgs {
        let args = std::iter::once(self.path.display().to_string()).chain(self.flags.clone());
        CompileArgs::parse(args).expect("benchmark flags are valid")
    }
}

/// What set-up produced.
pub struct Setup {
    pub inputs: Vec<Input>,
    /// Median wall time of one generate-and-write round.
    pub setup_s: f64,
    /// Every round generated the same circuits.
    pub repeatable: bool,
}

/// Generates the workload's inputs and writes them as QASM into `dir`,
/// several times (at least three rounds and at least 3 s), so the
/// set-up time is a median over the host's fast and slow spells and the
/// rounds double as a determinism check.
pub fn setup(workload: Workload, seed: u64, dir: &Path) -> Result<Setup, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut times = Vec::new();
    let mut rounds: Vec<Vec<Input>> = Vec::new();
    let started = Instant::now();
    while rounds.len() < 3 || (started.elapsed().as_secs_f64() < 3.0 && rounds.len() < 50) {
        let t = Instant::now();
        let mut inputs = Vec::new();
        for (label, circuit, flags) in workload.circuits(seed) {
            let path = dir.join(format!("{label}.qasm"));
            std::fs::write(&path, to_qasm(&circuit))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            let repeats = (REPEAT_GATES / circuit.len().max(1)).clamp(1, MAX_REPEATS);
            inputs.push(Input {
                label,
                path,
                flags,
                hash: circuit_content_hash(&circuit),
                repeats,
            });
        }
        times.push(t.elapsed().as_secs_f64());
        rounds.push(inputs);
    }
    let hashes = |r: &[Input]| r.iter().map(|i| i.hash).collect::<Vec<_>>();
    let repeatable = rounds.windows(2).all(|w| hashes(&w[0]) == hashes(&w[1]));
    Ok(Setup {
        inputs: rounds.pop().expect("at least one round"),
        setup_s: median(&times),
        repeatable,
    })
}
