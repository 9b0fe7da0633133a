//! serve-zipf: a closed loop of two client connections against an
//! in-process `dqc_cli::serve::serve_on` daemon. Each client sends its
//! next verbose compile request, drawn from a seeded Zipf over the
//! distinct jobs, only after the previous response arrived. The daemon's
//! cache holds fewer artifacts than there are jobs, so the mix has both
//! cheap hits and misses that compile, insert and evict.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dqc_circuit::{circuit_content_hash, from_qasm};
use dqc_cli::json::Json;
use dqc_cli::sections::artifact_json;
use dqc_cli::serve::{roundtrip, serve_on, ServeArgs, SubmitArgs};
use dqc_cli::{CliError, CompileReport};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::compile_wl::{self, traced_artifacts, traced_pass, untraced_pass, LayerTotals};
use crate::inputs::{self, Input, Workload, SERVE_JOBS};
use crate::outcome::{artifact_of, check_compiles, metric, Metric, Tally};
use crate::stats::{median, peak_rss_mb, percentile, ratio};
use crate::trace::Tracer;

/// Client connections (and daemon workers): the machine's 2 cores.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Artifacts the daemon may cache: below the working set, so the mix has
/// misses that compile and evict. Three quarters is a free choice, not
/// taken from observed traffic (README.md says which parameters are).
const CACHE_CAPACITY: usize = SERVE_JOBS * 3 / 4;
/// Zipf exponent of the job popularity, from the 0.64–0.83 range Breslau
/// et al. measured on web-proxy traces ("Web Caching and Zipf-like
/// Distributions", 1999); the mix is assumed, not measured here.
const ZIPF_S: f64 = 0.8;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// In-process passes over the distinct jobs after the loop; `compile_s`
/// sums each job's median.
const REFERENCE_PASSES: usize = 8;

struct Daemon {
    addr: String,
    handle: JoinHandle<Result<(), CliError>>,
}

impl Daemon {
    /// Starts the daemon on an ephemeral port and waits until it answers.
    fn start() -> Result<Daemon, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
        let args = ServeArgs {
            port: 0,
            workers: WORKERS,
            cache_capacity: CACHE_CAPACITY,
            port_file: None,
        };
        let handle = std::thread::spawn(move || serve_on(listener, args));
        let daemon = Daemon { addr, handle };
        match roundtrip(&daemon.addr, "{\"op\":\"stats\"}") {
            Ok(r) if r.contains("\"status\":\"ok\"") => Ok(daemon),
            other => {
                let _ = daemon.stop();
                Err(format!("daemon did not become ready: {other:?}"))
            }
        }
    }

    /// Shuts the daemon down and waits for its thread.
    fn stop(self) -> Result<(), String> {
        let sent = roundtrip(&self.addr, "{\"op\":\"shutdown\"}").map_err(|e| e.to_string());
        let joined = self.handle.join().map_err(|_| "daemon thread panicked".to_string())?;
        sent?;
        joined.map_err(|e| e.to_string())
    }
}

/// One request/response exchange of the closed loop.
struct Exchange {
    job: usize,
    rtt_ms: f64,
    response: String,
}

/// A persistent client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { reader, writer })
    }

    fn exchange(&mut self, job: usize, request: &str) -> Result<Exchange, String> {
        let started = Instant::now();
        self.writer.write_all(request.as_bytes()).map_err(|e| format!("send failed: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(Exchange {
                job,
                rtt_ms: started.elapsed().as_secs_f64() * 1e3,
                response: response.trim_end().to_string(),
            }),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }
}

/// Seeded Zipf draws over the jobs; which job is most popular also
/// depends on the seed.
struct Zipf {
    cdf: Vec<f64>,
    job_of_rank: Vec<usize>,
    rng: StdRng,
}

impl Zipf {
    fn new(jobs: usize, seed: u64, client: usize) -> Zipf {
        let weights: Vec<f64> = (1..=jobs).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        let mut job_of_rank: Vec<usize> = (0..jobs).collect();
        let mut perm = StdRng::seed_from_u64(seed);
        for i in (1..jobs).rev() {
            job_of_rank.swap(i, perm.random_range(0..i + 1));
        }
        let rng = StdRng::seed_from_u64(seed ^ (0x5eed_0000 + client as u64));
        Zipf { cdf, job_of_rank, rng }
    }

    fn next(&mut self) -> usize {
        let u: f64 = self.rng.random_range(0.0..1.0);
        let rank = self.cdf.iter().position(|&c| u < c).unwrap_or(self.cdf.len() - 1);
        self.job_of_rank[rank]
    }
}

/// Runs `f` on each client connection, each in its own thread, and
/// gathers their exchanges.
fn with_clients(
    addr: &str,
    f: impl Fn(usize, &mut Client) -> Result<Vec<Exchange>, String> + Sync,
) -> Result<Vec<Exchange>, String> {
    std::thread::scope(|scope| {
        let f = &f;
        let workers: Vec<_> =
            (0..CLIENTS).map(|c| scope.spawn(move || f(c, &mut Client::connect(addr)?))).collect();
        let mut all = Vec::new();
        for w in workers {
            all.extend(w.join().map_err(|_| "client thread panicked".to_string())??);
        }
        Ok(all)
    })
}

/// Starts the daemon and cold-compiles every distinct job once through it,
/// the jobs split over the client connections.
fn start_and_prefill(requests: &[String]) -> Result<(Daemon, Vec<Exchange>), String> {
    let daemon = Daemon::start()?;
    let filled = with_clients(&daemon.addr, |c, client| {
        (c..requests.len()).step_by(CLIENTS).map(|j| client.exchange(j, &requests[j])).collect()
    });
    match filled {
        Ok(exchanges) => Ok((daemon, exchanges)),
        Err(e) => {
            let _ = daemon.stop();
            Err(e)
        }
    }
}

/// The closed loop: every client sends requests until `seconds` elapse.
fn closed_loop(
    daemon: &Daemon,
    requests: &[String],
    seed: u64,
    seconds: f64,
) -> Result<(Vec<Exchange>, f64), String> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let exchanges = with_clients(&daemon.addr, |c, client| {
        let mut zipf = Zipf::new(requests.len(), seed, c);
        let mut out = Vec::new();
        while Instant::now() < deadline {
            let job = zipf.next();
            out.push(client.exchange(job, &requests[job])?);
        }
        Ok(out)
    })?;
    Ok((exchanges, started.elapsed().as_secs_f64()))
}

/// The daemon's cache key for a job (circuit content hash plus every flag
/// that changes the output), derived from the input file.
fn cache_key(report: &CompileReport) -> Result<String, String> {
    let text = std::fs::read_to_string(&report.args.file).map_err(|e| e.to_string())?;
    let circuit = from_qasm(&text).map_err(|e| e.to_string())?;
    let a = &report.args;
    let ablations = if a.ablations.is_empty() {
        "-".to_string()
    } else {
        a.ablations.iter().map(|x| x.name()).collect::<Vec<_>>().join("+")
    };
    Ok(format!(
        "{}:{}n:{}c:{}:{}:r{}:{}:{}",
        circuit_content_hash(&circuit),
        a.nodes,
        a.comm_qubits,
        a.topology.as_deref().unwrap_or("all-to-all"),
        a.strategy.name(),
        a.refine_iters,
        a.buffer.name(),
        ablations
    ))
}

/// What one response's verbose `service` object says.
struct Service {
    cache: String,
    e2e_ms: f64,
    compile_ms: f64,
}

fn service_of(response: &str) -> Option<Service> {
    let parsed = Json::parse(response).ok()?;
    let s = parsed.get("service")?;
    Some(Service {
        cache: s.get("cache")?.as_str()?.to_string(),
        e2e_ms: s.get("e2e_ms")?.as_f64()?,
        compile_ms: s.get("compile_ms")?.as_f64()?,
    })
}

/// Checks every response byte for byte (all but its `service` object)
/// against the in-process compile of the same job.
fn check_responses(exchanges: &[Exchange], expected: &[String], tally: &mut Tally) {
    for x in exchanges {
        tally.check(x.response.starts_with(&expected[x.job]), || {
            let shown: String = x.response.chars().take(200).collect();
            format!("job{:02}: response differs from the in-process compile: {shown}", x.job)
        });
    }
}

struct Prepared {
    inputs: Vec<Input>,
    requests: Vec<String>,
}

fn prepare(seed: u64, dir: &Path, tally: &mut Tally) -> Result<Prepared, String> {
    let setup = inputs::setup(Workload::ServeZipf, seed, dir)?;
    tally.check(setup.repeatable, || "the same seed generated different jobs".into());
    let hashes: Vec<_> = setup.inputs.iter().map(|i| i.hash).collect();
    tally.check(Workload::ServeZipf.input_hash(seed.wrapping_add(1)) != hashes, || {
        "a different seed generated the same jobs".into()
    });
    let requests = setup
        .inputs
        .iter()
        .map(|input| {
            let args = std::iter::once(input.path.display().to_string())
                .chain(input.flags.iter().cloned())
                .chain(["--verbose".to_string()]);
            // One write per request, newline included.
            SubmitArgs::parse(args)
                .and_then(|s| s.request_line())
                .map(|line| line + "\n")
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Prepared { inputs: setup.inputs, requests })
}

/// The set-up rounds; the last round's daemon stays up for the loop.
fn setup_daemon(
    requests: &[String],
    rounds: usize,
    tally: &mut Tally,
) -> Result<(Daemon, Vec<Exchange>, f64), String> {
    let mut times = Vec::new();
    let mut prefills = Vec::new();
    for round in 0..rounds {
        let started = Instant::now();
        let (daemon, prefill) = start_and_prefill(requests)?;
        times.push(started.elapsed().as_secs_f64());
        prefills.extend(prefill);
        if round + 1 == rounds {
            return Ok((daemon, prefills, median(&times)));
        }
        if let Err(e) = daemon.stop() {
            tally.fail(|| format!("daemon shutdown failed: {e}"));
        }
    }
    unreachable!("rounds >= 1")
}

/// The expected response prefix per job, from in-process compiles.
struct Reference {
    expected: Vec<String>,
    /// Compile times of the jobs (see [`compile_wl::Latencies::pass_s`]).
    latencies: compile_wl::Latencies,
    reports: Vec<CompileReport>,
    outputs: Vec<Option<String>>,
}

fn reference(inputs: &[Input], passes: usize, tally: &mut Tally) -> Result<Reference, String> {
    let mut latencies = compile_wl::Latencies::default();
    let mut last = None;
    for i in 0..passes {
        let pass = untraced_pass(inputs, i + 1 == passes, tally);
        latencies.record(&pass);
        last = Some(pass);
    }
    let pass = last.ok_or("no reference pass")?;
    if pass.reports.len() != inputs.len() {
        return Err("a reference compile failed".into());
    }
    let expected = pass
        .reports
        .iter()
        .map(|r| {
            let key = cache_key(r)?;
            let artifact = artifact_json(&artifact_of(r, key.clone()));
            Ok(format!(
                "{{\"status\":\"ok\",\"key\":{},\"artifact\":{artifact},\"service\":",
                Json::string(key)
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(Reference { expected, latencies, reports: pass.reports, outputs: pass.outputs })
}

/// Latency, outcome and queueing numbers of the loop.
struct LoopStats {
    hit_rate: f64,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    coalesced: f64,
}

fn loop_stats(exchanges: &[Exchange], tally: &mut Tally) -> LoopStats {
    let mut s = LoopStats {
        hit_rate: 0.0,
        hit_ms: vec![],
        miss_ms: vec![],
        queue_ms: vec![],
        coalesced: 0.0,
    };
    for x in exchanges {
        match service_of(&x.response) {
            Some(svc) => match svc.cache.as_str() {
                "hit" => s.hit_ms.push(svc.e2e_ms),
                "miss" => {
                    s.miss_ms.push(svc.e2e_ms);
                    s.queue_ms.push(svc.e2e_ms - svc.compile_ms);
                }
                _ => s.coalesced += 1.0,
            },
            None => tally.fail(|| format!("job{:02}: response has no service object", x.job)),
        }
    }
    let lookups = s.hit_ms.len() as f64 + s.miss_ms.len() as f64 + s.coalesced;
    s.hit_rate = ratio(s.hit_ms.len() as f64, lookups);
    s
}

fn serve_loop(
    p: &Prepared,
    seed: u64,
    seconds: f64,
    rounds: usize,
    tally: &mut Tally,
) -> Result<(Vec<Exchange>, Vec<Exchange>, f64, f64), String> {
    let (daemon, prefill, setup_s) = setup_daemon(&p.requests, rounds, tally)?;
    let looped = closed_loop(&daemon, &p.requests, seed, seconds);
    if let Err(e) = daemon.stop() {
        tally.fail(|| format!("daemon shutdown failed: {e}"));
    }
    let (exchanges, loop_s) = looped?;
    // Each exchange is an operation; its response is checked later.
    tally.attempted += exchanges.len() as u64;
    Ok((prefill, exchanges, loop_s, setup_s))
}

pub fn run(seed: u64, seconds: f64, dir: &Path) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let p = prepare(seed, dir, &mut tally)?;
    let (prefill, exchanges, loop_s, setup_s) =
        serve_loop(&p, seed, seconds, SETUP_ROUNDS, &mut tally)?;
    let peak_mb = peak_rss_mb()?;
    let rtt: Vec<f64> = exchanges.iter().map(|x| x.rtt_ms).collect();
    let stats = loop_stats(&exchanges, &mut tally);
    let reference = reference(&p.inputs, REFERENCE_PASSES, &mut tally)?;
    check_responses(&prefill, &reference.expected, &mut tally);
    check_responses(&exchanges, &reference.expected, &mut tally);
    let quality = check_compiles(&reference.reports, &mut tally);
    eprintln!(
        "benchmark: serve-zipf: {} requests (latency samples) over {loop_s:.2} s, hit rate {:.3}",
        rtt.len(),
        stats.hit_rate
    );
    let metrics = vec![
        metric("compile_s", reference.latencies.pass_s(), "s"),
        metric("peak_rss_mb", peak_mb, "MB"),
        metric("epr_pairs", quality.epr_pairs, "pairs"),
        metric("makespan_cx", quality.makespan_cx, "CX"),
        metric("comm_ratio", quality.comm_ratio(), "ratio"),
        metric("latency_ratio", quality.latency_ratio(), "ratio"),
        metric("latency_ms_p50", percentile(&rtt, 50.0), "ms"),
        metric("latency_ms_p95", percentile(&rtt, 95.0), "ms"),
        metric("requests_per_s", rtt.len() as f64 / loop_s, "1/s"),
        metric("setup_s", setup_s, "s"),
    ];
    Ok((tally, metrics))
}

/// The traced run: the same loop (its service-layer numbers come from the
/// verbose `service` objects), then one traced compile of every distinct
/// job, the daemon's miss path, checked against the untraced reference.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<(Tally, Vec<Metric>, Tracer), String> {
    let mut tally = Tally::default();
    let p = prepare(seed, dir, &mut tally)?;
    let (prefill, exchanges, _, _) = serve_loop(&p, seed, seconds, 1, &mut tally)?;
    let stats = loop_stats(&exchanges, &mut tally);
    let mut reference = reference(&p.inputs, 1, &mut tally)?;
    check_responses(&prefill, &reference.expected, &mut tally);
    check_responses(&exchanges, &reference.expected, &mut tally);

    let mut tr = Tracer::default();
    let mut refine_s = 0.0;
    let traced = traced_pass(&mut tr, &p.inputs, &reference.outputs, &mut tally, &mut refine_s);
    let mut totals = LayerTotals::default();
    for t in &traced {
        totals.add(t);
    }
    traced_artifacts(&mut tr, &traced, &mut totals, |t| cache_key(&t.report).unwrap_or_default());
    drop(traced);
    let outputs = &reference.outputs;
    compile_wl::warm_untraced(&p.inputs, outputs, &mut reference.latencies, &mut tally);
    let untraced_s = reference.latencies.pass_s();
    // In the order of `compile_wl::SERVE_LAYER`.
    let serve = [
        stats.hit_rate,
        percentile(&stats.hit_ms, 50.0),
        percentile(&stats.hit_ms, 95.0),
        percentile(&stats.miss_ms, 50.0),
        percentile(&stats.miss_ms, 90.0),
        percentile(&stats.queue_ms, 90.0),
        stats.coalesced,
    ];
    let metrics =
        compile_wl::layer_metrics(&tr, 1, &totals, refine_s, untraced_s, Some(serve), &mut tally);
    Ok((tally, metrics, tr))
}
