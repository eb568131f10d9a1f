//! The three serving workloads: `lj-private`, `lj-lenient`, `wiki-churn`.
//!
//! **Drain rounds** give the end-to-end metrics. Each round pushes its
//! own request sample (plus, on `wiki-churn`, its own interleaved
//! mutation batches) unpaced through `run_daemon` with two workers: the
//! `psr serve` path. Every round runs on a fresh service, which bounds
//! memory to one round (the service caches every served target's state
//! for the life of its epoch). After one pass over the distinct inputs,
//! rounds repeat them until `--seconds` have passed, and each repeat
//! must reproduce its input's first outcomes. `throughput_rps` is the
//! median over all rounds, and the set-ups behind `setup_s` are spread
//! over the same time.
//!
//! The traced run (`--trace 1`) gives the per-layer metrics. It times
//! identical drains with and without a live `psr_obs::Telemetry` plus
//! benchmark spans (their ratio is `obs.overhead_ratio`). It then runs an
//! **open loop**: Poisson arrivals at a fixed offered rate, each one a
//! single-request `serve_batch_pinned`, dispatched on an absolute
//! schedule (`due_i = start + offset_i`) to two workers, with mutation
//! batches applied at their own due times by a writer thread. Every
//! request is timed from its due time, so a stall counts against the
//! requests queued behind it; at least 1000 requests give the p99 ten
//! samples beyond it. Last, it replays the loop's requests stage by
//! stage through the public functions `EpochState::evaluate` calls:
//! `CandidateSet::for_target`, `UtilityFunction::utilities`,
//! `topk_with_engine` and `resolve_zero_class_distinct`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use psr_core::serving::daemon::{multiplex, run_daemon, DaemonConfig, DaemonEvent, DaemonRun};
use psr_core::serving::{
    BatchRequest, Epoch, JournalLedger, RecommendationService, ServeError, Served, ServiceConfig,
};
use psr_datasets::{livejournal_like_snapshot, wiki_vote_like, PresetConfig};
use psr_gen::seed::{rng_from_seed, split_seed};
use psr_gen::stream::{edge_stream, StreamEvent, StreamParams};
use psr_graph::{
    CompressedCsr, EdgeMutation, Graph, GraphBackend, GraphView, MutableGraph, NodeId,
};
use psr_obs::Telemetry;
use psr_privacy::{resolve_zero_class_distinct, topk_with_engine, TopKEngine};
use psr_utility::{CandidateSet, CommonNeighbors, UtilityFunction, UtilityVector};

use crate::inputs::{as_requests, poisson_offsets, request_events, retime, Zipf};
use crate::reference::{Checker, Decoded, Outcome, Replayed};
use crate::report::{mean, median, peak_rss_mb, quantile, Fnv, Metrics};
use crate::spans::{Span, SpanBuf};
use crate::RunResult;

/// Where a workload's graph comes from.
#[derive(Clone, Copy)]
enum Source {
    /// `livejournal_like_snapshot` at this scale, served mmap'd through
    /// the compressed backend.
    LiveJournalSnapshot { scale: f64 },
    /// `wiki_vote_like` at full scale on the in-RAM CSR backend.
    WikiVote,
}

/// One serving workload's fixed parameters. The count of distinct drain
/// inputs is for `--seconds 20` and scales linearly with it.
pub struct Spec {
    source: Source,
    epsilon: f64,
    budget: f64,
    k: usize,
    /// Mutations per request (0 = static graph).
    mutations_per_request: f64,
    mutation_batch: usize,
    request_batch: usize,
    /// Requests of one drain round.
    drain_requests: usize,
    /// Distinct drain-round inputs.
    drain_rounds: usize,
    /// Open-loop offered rate, fixed per workload well below the
    /// single-request capacity the baseline commit reached on two cores
    /// (about 190, 2450 and 11,000 requests/s for `lj-private`,
    /// `lj-lenient` and `wiki-churn`).
    open_rate: f64,
    /// Per-request latency limit of the open loop.
    latency_limit_ms: f64,
    /// Set-ups per untraced run, spread over its drain rounds; `setup_s`
    /// is their median.
    setups: usize,
}

/// Zipf exponent of the target popularity.
const ZIPF_S: f64 = 1.0;
/// Insert share of the mutation streams.
const INSERT_FRACTION: f64 = 0.7;
/// Daemon and open-loop worker threads.
const WORKERS: usize = 2;
/// Timed requests of the open loop: its p99 has ten samples beyond it.
const OPEN_REQUESTS: usize = 1000;
/// Buffered arcs of the out-of-core snapshot builder (16 bytes each).
const ARC_BUDGET: usize = 1 << 18;
/// Shards of the snapshot manifest.
const SHARDS: usize = 8;
/// Seed of each workload's dataset: the graph and which users are
/// popular. The dataset is fixed, like a recorded snapshot would be;
/// `--seed` draws the traffic on it (request targets, arrival times,
/// per-request randomness and the mutation streams), so runs with
/// different seeds differ in their inputs but not in their kind.
pub const DATASET_SEED: u64 = 0x5EED_DA7A;

/// The workload's parameters, or `None` for an unknown name.
///
/// The `lj-*` sizes are also bounded by memory: the service caches every
/// served target's candidates and utilities for the life of its epoch,
/// about 150 KiB per target on this graph, so resident memory grows with
/// the distinct targets one drain round or open loop serves.
pub fn spec(name: &str) -> Option<Spec> {
    let lj = |epsilon, drain_requests, drain_rounds, open_rate, latency_limit_ms| Spec {
        source: Source::LiveJournalSnapshot { scale: 0.05 },
        epsilon,
        budget: f64::INFINITY,
        k: 5,
        mutations_per_request: 0.0,
        mutation_batch: 1,
        request_batch: 32,
        drain_requests,
        drain_rounds,
        open_rate,
        latency_limit_ms,
        setups: 5,
    };
    match name {
        "lj-private" => Some(lj(1.0, 192, 15, 90.0, 100.0)),
        "lj-lenient" => Some(lj(100.0, 2048, 21, 700.0, 20.0)),
        "wiki-churn" => Some(Spec {
            source: Source::WikiVote,
            epsilon: 100.0,
            budget: 100.0 * 300.0,
            k: 5,
            mutations_per_request: 0.5,
            mutation_batch: 10,
            request_batch: 20,
            drain_requests: 6000,
            drain_rounds: 15,
            open_rate: 2000.0,
            latency_limit_ms: 10.0,
            setups: 29,
        }),
        _ => None,
    }
}

/// The graph the services are built over.
enum Backend {
    Snapshot(PathBuf),
    Csr(Arc<Graph>),
}

/// One drain round's input.
struct DrainInput {
    events: Vec<DaemonEvent>,
}

struct Arrival {
    offset: f64,
    request: BatchRequest,
    seed: u64,
}

/// One open loop's input.
struct OpenInput {
    arrivals: Vec<Arrival>,
    /// Mutation batches with their due offsets (seconds).
    mutations: Vec<(f64, Vec<EdgeMutation>)>,
}

/// Everything the measured phases need, built during set-up.
struct Prepared {
    backend: Backend,
    drains: Vec<DrainInput>,
    /// The open loop's input (traced runs only).
    open: Option<OpenInput>,
    /// The service of the first drain round.
    service: Option<RecommendationService>,
}

/// One open-loop request as the client saw it.
struct OpenRecord {
    epoch: u64,
    result: Result<Served, ServeError>,
    /// Completion minus due time.
    latency_ns: u64,
    /// Duration of the `serve_batch_pinned` call alone.
    serve_ns: u64,
}

/// What one open loop observed; `records[i]` answers `arrivals[i]`.
struct OpenLoop {
    records: Vec<Option<OpenRecord>>,
    late_ns: Vec<u64>,
    applies: Vec<(Epoch, u64)>,
    apply_error: Option<String>,
    spans: Vec<Span>,
}

impl OpenLoop {
    fn answered(&self) -> impl Iterator<Item = (usize, &OpenRecord)> {
        self.records.iter().enumerate().filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
    }

    /// Latencies of the served (not refused) requests, in milliseconds.
    fn served_latencies_ms(&self) -> Vec<f64> {
        self.answered()
            .filter(|(_, r)| r.result.is_ok())
            .map(|(_, r)| r.latency_ns as f64 / 1e6)
            .collect()
    }
}

fn service_config(spec: &Spec) -> ServiceConfig {
    ServiceConfig {
        epsilon_per_request: spec.epsilon,
        budget_per_target: spec.budget,
        threads: Some(WORKERS),
        engine: TopKEngine::Gumbel,
        ..ServiceConfig::default()
    }
}

/// A fresh service over the workload's graph. With `ledger` its budget
/// ledger is an empty journal there (fsynced once per admitted batch);
/// without, the volatile in-memory accountant.
fn build_service(
    spec: &Spec,
    backend: &Backend,
    ledger: Option<&Path>,
) -> Result<RecommendationService, String> {
    let backend = match backend {
        Backend::Snapshot(path) => GraphBackend::from(
            CompressedCsr::open_path(path).map_err(|e| format!("opening snapshot: {e}"))?,
        ),
        Backend::Csr(graph) => GraphBackend::Csr(Arc::clone(graph)),
    };
    let utility = Box::new(CommonNeighbors);
    let Some(ledger) = ledger else {
        return Ok(RecommendationService::with_backend(backend, utility, service_config(spec)));
    };
    let _ = std::fs::remove_file(ledger);
    let journal = JournalLedger::open(ledger, spec.budget)
        .map_err(|e| format!("opening ledger {}: {e}", ledger.display()))?;
    Ok(RecommendationService::with_backend_and_ledger(
        backend,
        utility,
        service_config(spec),
        Box::new(journal),
    ))
}

/// `count` mutations from the base graph, valid in order.
fn mutations(graph: &Graph, count: usize, seed: u64) -> Vec<StreamEvent> {
    edge_stream(
        graph,
        StreamParams { events: count, insert_fraction: INSERT_FRACTION },
        &mut rng_from_seed(seed),
    )
}

/// Builds the graph, every drain round's input (and, for a traced run,
/// the open loop's), and the first service: everything `setup_s` times.
fn set_up(
    spec: &Spec,
    seed: u64,
    scale: f64,
    traced: bool,
    work: &Path,
) -> Result<Prepared, String> {
    let (backend, eligible, base) = match spec.source {
        Source::LiveJournalSnapshot { scale } => {
            let path = work.join("graph.psrz");
            // Each set-up writes a new file rather than truncating the
            // last one, whose cost varies with the filesystem's state.
            let _ = std::fs::remove_file(&path);
            livejournal_like_snapshot(
                PresetConfig::scaled(scale, DATASET_SEED),
                ARC_BUDGET,
                SHARDS,
                &path,
            )
            .map_err(|e| format!("building snapshot: {e}"))?;
            // Eligibility comes from a second handle: `degree` reads one
            // varint and never fills a decode cache.
            let probe = CompressedCsr::open_path(&path).map_err(|e| format!("{e}"))?;
            let eligible: Vec<NodeId> = probe.nodes().filter(|&v| probe.degree(v) > 0).collect();
            (Backend::Snapshot(path), eligible, None)
        }
        Source::WikiVote => {
            let (graph, _) =
                wiki_vote_like(PresetConfig::full(DATASET_SEED)).map_err(|e| e.to_string())?;
            let eligible: Vec<NodeId> = graph.nodes().filter(|&v| graph.degree(v) > 0).collect();
            let graph = Arc::new(graph);
            (Backend::Csr(Arc::clone(&graph)), eligible, Some(graph))
        }
    };
    let zipf = Zipf::new(eligible, ZIPF_S, &mut rng_from_seed(split_seed(DATASET_SEED, 0x21_9F)));
    let per_request = spec.mutations_per_request;
    let churn = base.as_deref().filter(|_| per_request > 0.0);
    let count = |n: usize| ((n as f64 * scale).round() as usize).max(1);

    let drains = (0..count(spec.drain_rounds))
        .map(|round| {
            let round_seed = split_seed(seed, 0xD0_0000 + round as u64);
            let mut rng = rng_from_seed(round_seed);
            let requests = request_events(&zipf, spec.drain_requests, spec.k, &mut rng);
            let stream = churn.map_or_else(Vec::new, |graph| {
                let m = (spec.drain_requests as f64 * per_request).round() as usize;
                let span = requests.last().map_or(1, |r| r.time);
                retime(&mutations(graph, m, split_seed(round_seed, 1)), span)
            });
            let events = multiplex(
                &requests,
                spec.request_batch,
                &stream,
                spec.mutation_batch,
                split_seed(round_seed, 2),
            );
            DrainInput { events }
        })
        .collect();

    let open = traced.then(|| {
        let loop_seed = split_seed(seed, 0x0E_0000);
        let mut rng = rng_from_seed(loop_seed);
        let n = OPEN_REQUESTS;
        let requests = as_requests(&request_events(&zipf, n, spec.k, &mut rng));
        let offsets = poisson_offsets(n, spec.open_rate, &mut rng);
        let arrivals: Vec<Arrival> = requests
            .into_iter()
            .zip(offsets)
            .enumerate()
            .map(|(i, (request, offset))| Arrival {
                offset,
                request,
                seed: split_seed(loop_seed, 0x1000 + i as u64),
            })
            .collect();
        let mutations = churn.map_or_else(Vec::new, |graph| {
            let m = (n as f64 * per_request).round() as usize;
            let requests_per_batch = spec.mutation_batch as f64 / per_request;
            mutations(graph, m, split_seed(loop_seed, 1))
                .chunks(spec.mutation_batch)
                .enumerate()
                .map(|(j, chunk)| {
                    let at = (((j + 1) as f64 * requests_per_batch) as usize).min(n - 1);
                    (arrivals[at].offset, chunk.iter().map(|e| e.mutation).collect())
                })
                .collect()
        });
        OpenInput { arrivals, mutations }
    });

    let service = build_service(spec, &backend, Some(&work.join("ledger.journal")))?;
    Ok(Prepared { backend, drains, open, service: Some(service) })
}

/// Dispatches the arrivals on their absolute schedule to `WORKERS`
/// threads while a writer thread applies the mutation batches at their
/// due times.
fn open_loop(
    service: &RecommendationService,
    input: &OpenInput,
    traced: Option<Instant>,
) -> OpenLoop {
    let arrivals = &input.arrivals;
    let start = Instant::now() + Duration::from_millis(20);
    let due = |offset: f64| start + Duration::from_secs_f64(offset);
    let (tx, rx) = mpsc::channel::<usize>();
    let rx = Mutex::new(rx);
    let mut late_ns = Vec::with_capacity(arrivals.len());
    let (served, writer) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let rx = &rx;
                scope.spawn(move || {
                    let mut buf = traced.map(|epoch| SpanBuf::new(epoch, 1 + w as u64));
                    let mut out = Vec::new();
                    loop {
                        let next = rx.lock().expect("dispatch channel").recv();
                        let Ok(i) = next else { break };
                        let arrival = &arrivals[i];
                        let opened = buf.as_mut().map(SpanBuf::open);
                        let began = Instant::now();
                        let pin = service.pin();
                        let request = std::slice::from_ref(&arrival.request);
                        let result = service
                            .serve_batch_pinned(&pin, request, arrival.seed)
                            .pop()
                            .expect("one request, one outcome");
                        let done = Instant::now();
                        if let (Some(buf), Some(opened)) = (buf.as_mut(), opened) {
                            buf.close(opened, "serving.serve_batch", None, Some(i as u64));
                        }
                        let latency = done.duration_since(due(arrival.offset));
                        out.push((
                            i,
                            OpenRecord {
                                epoch: pin.version(),
                                result,
                                latency_ns: latency.as_nanos() as u64,
                                serve_ns: done.duration_since(began).as_nanos() as u64,
                            },
                        ));
                    }
                    (out, buf.map(|b| b.spans).unwrap_or_default())
                })
            })
            .collect();
        let writer = scope.spawn(move || {
            let mut buf = traced.map(|epoch| SpanBuf::new(epoch, 100));
            let mut applies = Vec::new();
            let mut error = None;
            for (offset, batch) in &input.mutations {
                sleep_until(due(*offset));
                let opened = buf.as_mut().map(SpanBuf::open);
                let began = Instant::now();
                let applied = service.apply_mutations(batch);
                let ns = began.elapsed().as_nanos() as u64;
                if let (Some(buf), Some(opened)) = (buf.as_mut(), opened) {
                    buf.close(opened, "epoch.apply_mutations", None, None);
                }
                match applied {
                    Ok(epoch) => applies.push((epoch, ns)),
                    Err(e) => {
                        error = Some(format!("open-loop mutation batch rejected: {e}"));
                        break;
                    }
                }
            }
            (applies, error, buf.map(|b| b.spans).unwrap_or_default())
        });
        for (i, arrival) in arrivals.iter().enumerate() {
            let at = due(arrival.offset);
            sleep_until(at);
            late_ns.push(Instant::now().duration_since(at).as_nanos() as u64);
            tx.send(i).expect("workers outlive the dispatcher");
        }
        drop(tx);
        let served: Vec<_> =
            workers.into_iter().map(|w| w.join().expect("open-loop worker")).collect();
        (served, writer.join().expect("open-loop writer"))
    });

    let mut records: Vec<Option<OpenRecord>> = (0..arrivals.len()).map(|_| None).collect();
    let mut spans = Vec::new();
    for (answered, worker_spans) in served {
        for (i, record) in answered {
            records[i] = Some(record);
        }
        spans.extend(worker_spans);
    }
    let (applies, apply_error, writer_spans) = writer;
    spans.extend(writer_spans);
    OpenLoop { records, late_ns, applies, apply_error, spans }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Drains the events through the daemon loop; returns the run and its
/// wall time.
fn drain(
    service: &RecommendationService,
    events: &[DaemonEvent],
) -> Result<(DaemonRun, f64), String> {
    let config =
        DaemonConfig { queue_capacity: 8, workers: Some(WORKERS), clock: None, heartbeat: None };
    let began = Instant::now();
    let run = run_daemon(service, events, &config).map_err(|e| format!("daemon: {e}"))?;
    Ok((run, began.elapsed().as_secs_f64()))
}

/// Folds a drain's outcomes (epochs, recommendations and refusals, in
/// admission order) into `digest`.
fn fold_digest(digest: &mut Fnv, run: &DaemonRun) {
    for batch in &run.batches {
        digest.feed_u64(batch.epoch);
        for outcome in &batch.outcomes {
            match outcome {
                Ok(s) => {
                    digest.feed_u64(s.recommendations.len() as u64);
                    for &r in &s.recommendations {
                        digest.feed_u64(u64::from(r));
                    }
                }
                Err(e) => digest.feed(format!("err:{e}").as_bytes()),
            }
        }
    }
}

/// A phase's outcomes with the mutation batches that opened its epochs
/// (`batches[i]` opened epoch `i + 1`).
struct Phase<'a> {
    outcomes: Vec<Outcome>,
    batches: Vec<&'a [EdgeMutation]>,
}

/// Checks outcomes against the reference adjacency of the epoch each was
/// pinned to. A static graph has one epoch, so all phases are checked in
/// one pass grouped by target (each target's utilities are computed
/// once); under churn every phase replays its own epochs.
fn check_outputs(
    checker: &mut Checker,
    backend: &Backend,
    phases: Vec<Phase>,
) -> Result<(), String> {
    match backend {
        Backend::Snapshot(path) => {
            let mut outcomes: Vec<Outcome> = phases.into_iter().flat_map(|p| p.outcomes).collect();
            outcomes.sort_by_key(|o| (o.epoch, o.target));
            let csr = CompressedCsr::open_path(path).map_err(|e| format!("{e}"))?;
            checker.check_epochs(
                &mut Decoded::new(csr),
                |_, e| Err(format!("static workload reached epoch {e}")),
                &outcomes,
            );
        }
        Backend::Csr(graph) => {
            for mut phase in phases {
                phase.outcomes.sort_by_key(|o| (o.epoch, o.target));
                let mut adj = Replayed::new(MutableGraph::from(graph.as_ref()));
                let batches = &phase.batches;
                checker.check_epochs(
                    &mut adj,
                    |adj, e| adj.apply(batches[e as usize - 1]),
                    &phase.outcomes,
                );
            }
        }
    }
    Ok(())
}

/// Epochs must advance one per applied batch.
fn check_versions(checker: &mut Checker, batches: usize, applied_versions: &[u64]) {
    if applied_versions != (1..=batches as u64).collect::<Vec<_>>() {
        checker.violation(format!("epochs advanced out of order: {applied_versions:?}"));
    }
}

/// Checks a drain: every request answered, refusals equal to an
/// independent replay of the admission order, epochs in order. Returns
/// the outcomes for the output checks.
fn check_drain<'a>(
    checker: &mut Checker,
    spec: &Spec,
    input: &'a DrainInput,
    run: &DaemonRun,
) -> Phase<'a> {
    let requests: Vec<&BatchRequest> = input
        .events
        .iter()
        .filter_map(|e| match e {
            DaemonEvent::Requests { requests, .. } => Some(requests),
            DaemonEvent::Mutations { .. } => None,
        })
        .flatten()
        .collect();
    let answered: Vec<(u64, &Result<Served, ServeError>)> =
        run.batches.iter().flat_map(|b| b.outcomes.iter().map(move |o| (b.epoch, o))).collect();
    if answered.len() != requests.len() {
        let (n, m) = (answered.len(), requests.len());
        checker.violation(format!("drain answered {n} of {m} requests"));
    }
    checker.check_refusals(
        spec.budget,
        spec.epsilon,
        requests.iter().map(|r| r.target).zip(answered.iter().map(|(_, o)| *o)),
    );
    let batches: Vec<&[EdgeMutation]> = input
        .events
        .iter()
        .filter_map(|e| match e {
            DaemonEvent::Mutations { mutations, .. } => Some(mutations.as_slice()),
            DaemonEvent::Requests { .. } => None,
        })
        .collect();
    let versions: Vec<u64> = run.applied.iter().map(|a| a.epoch.version).collect();
    check_versions(checker, batches.len(), &versions);
    let outcomes = requests
        .iter()
        .zip(answered)
        .map(|(r, (epoch, o))| Outcome { epoch, target: r.target, k: r.k, result: o.clone() })
        .collect();
    Phase { outcomes, batches }
}

/// Checks an open loop: every arrival answered, epochs in order. Returns
/// the outcomes for the output checks.
fn check_open<'a>(checker: &mut Checker, input: &'a OpenInput, open: &OpenLoop) -> Phase<'a> {
    let answered = open.answered().count();
    if answered != input.arrivals.len() {
        let n = input.arrivals.len();
        checker.violation(format!("open loop answered {answered} of {n} requests"));
    }
    if let Some(e) = &open.apply_error {
        checker.violation(e.clone());
    }
    let batches: Vec<&[EdgeMutation]> =
        input.mutations[..open.applies.len()].iter().map(|(_, m)| m.as_slice()).collect();
    let versions: Vec<u64> = open.applies.iter().map(|(e, _)| e.version).collect();
    check_versions(checker, batches.len(), &versions);
    let outcomes = open
        .answered()
        .map(|(i, rec)| {
            let request = input.arrivals[i].request;
            Outcome {
                epoch: rec.epoch,
                target: request.target,
                k: request.k,
                result: rec.result.clone(),
            }
        })
        .collect();
    Phase { outcomes, batches }
}

/// Runs one serving workload.
pub fn run(
    name: &str,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> Result<RunResult, String> {
    let scale = seconds / 20.0;
    // Repeated set-ups write their snapshot apart, leaving the file the
    // measured services read alone.
    let repeat_dir = work.join("repeat");
    let timed_set_up = |dir: &Path| -> Result<(Prepared, f64), String> {
        let began = Instant::now();
        let prepared = set_up(spec, seed, scale, traced, dir)?;
        Ok((prepared, began.elapsed().as_secs_f64()))
    };
    let (mut prepared, first_setup_s) = timed_set_up(work)?;
    let mut setup_s = vec![first_setup_s];

    let mut metrics = Metrics::default();
    let mut checker = Checker::default();
    let mut digest = Fnv::default();
    let mut attempted = 0u64;
    let (drains, open, spans) = if traced {
        traced_phases(name, spec, &mut prepared, work, &mut metrics)?
    } else {
        let mut throughput = Vec::new();
        let mut drains = Vec::new();
        let rounds = prepared.drains.len();
        // Each input's outcome digest from its first round. Later rounds
        // repeat the inputs on fresh services and must match it.
        let mut round_digests = Vec::with_capacity(rounds);
        let began = Instant::now();
        let elapsed = || began.elapsed().as_secs_f64();
        let mut round = 0;
        while round < rounds || elapsed() < seconds {
            // The other set-ups are spread evenly over the measured time,
            // so that their median samples the same stretch of host time
            // as the throughput rather than one burst at the start.
            while setup_s.len() < spec.setups
                && elapsed() >= seconds * setup_s.len() as f64 / spec.setups as f64
            {
                std::fs::create_dir_all(&repeat_dir).map_err(|e| e.to_string())?;
                setup_s.push(timed_set_up(&repeat_dir)?.1);
            }
            let input = &prepared.drains[round % rounds];
            let service = match prepared.service.take() {
                Some(service) => service,
                None => build_service(spec, &prepared.backend, Some(&work.join("ledger.journal")))?,
            };
            let (run, wall) = drain(&service, &input.events)?;
            drop(service);
            throughput.push(run.metrics.requests as f64 / wall);
            let mut round_digest = Fnv::default();
            fold_digest(&mut round_digest, &run);
            if round < rounds {
                round_digests.push(round_digest.0);
                drains.push((round, run));
            } else {
                attempted += run.metrics.requests as u64;
                if round_digest.0 != round_digests[round % rounds] {
                    checker.violation(format!(
                        "drain round {round} repeats round {} with other outcomes",
                        round % rounds
                    ));
                }
            }
            round += 1;
        }
        // Set-ups still due when the first pass overran the time.
        while setup_s.len() < spec.setups {
            std::fs::create_dir_all(&repeat_dir).map_err(|e| e.to_string())?;
            setup_s.push(timed_set_up(&repeat_dir)?.1);
        }
        let rss = peak_rss_mb();
        eprintln!("[{name}] drain rounds: {throughput:.0?} requests/s");
        eprintln!("[{name}] set-ups: {setup_s:.4?} s");
        metrics.set("setup_s", median(&setup_s), "s");
        metrics.set("throughput_rps", median(&throughput), "1/s");
        metrics.set("peak_rss_mb", rss, "MiB");
        (drains, None, Vec::new())
    };

    let began = Instant::now();
    let mut phases = Vec::new();
    for (round, run) in &drains {
        let input = &prepared.drains[*round];
        phases.push(check_drain(&mut checker, spec, input, run));
        fold_digest(&mut digest, run);
        attempted += run.metrics.requests as u64;
    }
    if let (Some(open), Some(input)) = (&open, &prepared.open) {
        phases.push(check_open(&mut checker, input, open));
        attempted += input.arrivals.len() as u64;
    }
    check_outputs(&mut checker, &prepared.backend, phases)?;
    eprintln!("[{name}] checks {:.2} s", began.elapsed().as_secs_f64());
    if !traced {
        metrics.set("accuracy_mean", mean(&checker.accuracies), "ratio");
    }
    Ok(RunResult {
        attempted,
        failed: checker.failed,
        messages: checker.messages,
        metrics,
        digest: Some(format!("{:016x}", digest.0)),
        spans,
    })
}

type Phases = (Vec<(usize, DaemonRun)>, Option<OpenLoop>, Vec<Span>);

/// The traced run: identical drains of round 0 with and without live
/// telemetry (a warm-up, then untraced, traced, traced, untraced; the
/// ratio of the traced to the untraced sum is `obs.overhead_ratio`), one
/// traced open loop, and the stage replay of its requests.
fn traced_phases(
    name: &str,
    spec: &Spec,
    prepared: &mut Prepared,
    work: &Path,
    metrics: &mut Metrics,
) -> Result<Phases, String> {
    let epoch = Instant::now();
    let events = &prepared.drains[0].events;
    // One live telemetry shared by every traced service: the registry
    // aggregates them.
    let telemetry = Telemetry::enabled();
    let service = |traced: bool, ledger: Option<&Path>| -> Result<RecommendationService, String> {
        let mut service = build_service(spec, &prepared.backend, ledger)?;
        if traced {
            service.set_telemetry(Arc::clone(&telemetry));
        }
        Ok(service)
    };
    let warm_up = prepared.service.take().expect("set-up builds the first service");
    drain(&warm_up, events)?;
    drop(warm_up);

    let mut main_spans = SpanBuf::new(epoch, 0);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut traced_run = None;
    let mut cache = None;
    let ledger = work.join("ledger.journal");
    for traced in [false, true, true, false] {
        let service = service(traced, Some(&ledger))?;
        if !traced {
            untraced_s += drain(&service, events)?.1;
            continue;
        }
        let opened = main_spans.open();
        let (run, wall) = drain(&service, events)?;
        main_spans.close(opened, "daemon.run_daemon", None, None);
        traced_s += wall;
        // Decode-cache figures of a drain, the phase `throughput_rps`
        // comes from.
        cache = service.pin().graph().base().cache_stats();
        service.export_gauges();
        traced_run.get_or_insert(run);
    }
    let run = traced_run.expect("two traced drains");

    let open_service = service(true, None)?;
    let input = prepared.open.as_ref().expect("traced set-ups build the open loop");
    let open = open_loop(&open_service, input, Some(epoch));
    open_service.export_gauges();
    let snapshot = telemetry.metrics().snapshot();
    let snapshot_bytes = serde_json::to_string(&snapshot).map_or(0, |s| s.len());
    let histogram = |n: &str| snapshot.histograms.iter().find(|h| h.name == n).map(|h| h.latency);
    let counter =
        |n: &str| snapshot.counters.iter().find(|c| c.name == n).map_or(0, |c| c.value) as f64;

    let (replay_spans, replay) = replay(spec, &open_service, &input.arrivals, &open, epoch);
    let stage_ns = replay.target_state_ns + replay.topk_ns + replay.zero_ns;
    let served_ns: f64 = replay
        .replayed
        .iter()
        .filter_map(|&i| open.records[i].as_ref())
        .map(|r| r.serve_ns as f64)
        .sum();

    let served = run.batches.iter().flat_map(|b| &b.outcomes).filter_map(|o| o.as_ref().ok());
    let (zero_slots, slots) =
        served.fold((0, 0), |(z, s), x| (z + x.zero_class_picks, s + x.recommendations.len()));
    let open_refused = open
        .answered()
        .filter(|(_, r)| matches!(r.result, Err(ServeError::BudgetExhausted { .. })))
        .count();
    let epochs: Vec<&Epoch> =
        run.applied.iter().map(|a| &a.epoch).chain(open.applies.iter().map(|(e, _)| e)).collect();
    let apply_ms: Vec<f64> = open.applies.iter().map(|&(_, ns)| ns as f64 / 1e6).collect();
    let serve_ms: Vec<f64> = open.answered().map(|(_, r)| r.serve_ns as f64 / 1e6).collect();
    let late_ms: Vec<f64> = open.late_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let dirty: Vec<f64> = epochs.iter().map(|e| e.dirty_targets.len() as f64).collect();
    let per_call = |ns: u64, calls: usize| ns as f64 / 1e3 / calls.max(1) as f64;
    let share = |ns: u64| ns as f64 / stage_ns.max(1) as f64;
    let (hit_ratio, cache_bytes) = cache.map_or((0.0, 0.0), |c| {
        (c.hits as f64 / (c.hits + c.misses).max(1) as f64, c.cached_bytes as f64)
    });
    let fsync = histogram("ledger.fsync_ns");
    let replayed = replay.replayed.len();

    metrics.set("privacy.zero_class_resolve_us", per_call(replay.zero_ns, replayed), "us");
    metrics.set("privacy.zero_class_slot_frac", zero_slots as f64 / slots.max(1) as f64, "ratio");
    metrics.set("privacy.zero_class_share", share(replay.zero_ns), "ratio");
    metrics.set("privacy.topk_us", per_call(replay.topk_ns, replayed), "us");
    metrics.set("utility.target_state_us", per_call(replay.target_state_ns, replay.computed), "us");
    metrics.set("utility.nonzero_per_target", mean(&replay.nonzero), "count");
    metrics.set("graph.decode_cache.hit_ratio", hit_ratio, "ratio");
    metrics.set("graph.decode_cache.bytes", cache_bytes, "bytes");
    metrics.set("ledger.fsync_us_p50", fsync.map_or(0.0, |h| h.p50_ns as f64 / 1e3), "us");
    metrics.set("ledger.fsync_us_p99", fsync.map_or(0.0, |h| h.p99_ns as f64 / 1e3), "us");
    metrics.set("epoch.apply_ms_p50", quantile(&apply_ms, 0.50), "ms");
    metrics.set("epoch.apply_ms_p99", quantile(&apply_ms, 0.99), "ms");
    metrics.set("epoch.dirty_targets_mean", mean(&dirty), "count");
    metrics.set("epoch.invalidated_total", counter("epoch.invalidated_targets"), "count");
    metrics.set("epoch.compactions", epochs.iter().filter(|e| e.compacted).count() as f64, "count");
    metrics.set("serving.serve_batch_ms_p50", quantile(&serve_ms, 0.50), "ms");
    metrics.set("serving.serve_batch_ms_p99", quantile(&serve_ms, 0.99), "ms");
    let rejected = (run.metrics.rejected_for_budget + open_refused) as f64;
    metrics.set("serving.rejected_budget", rejected, "count");
    metrics.set("daemon.queue_depth_max", run.metrics.max_queue_depth as f64, "count");
    metrics.set("daemon.batch_latency_p50_ms", run.metrics.latency.p50_ns as f64 / 1e6, "ms");
    metrics.set("obs.overhead_ratio", traced_s / untraced_s, "ratio");
    metrics.set("obs.snapshot_bytes", snapshot_bytes as f64, "bytes");
    metrics.set("loadgen.late_ms_p99", quantile(&late_ms, 0.99), "ms");
    let latencies = open.served_latencies_ms();
    metrics.set("latency_p50_ms", quantile(&latencies, 0.50), "ms");
    metrics.set("latency_p99_ms", quantile(&latencies, 0.99), "ms");
    let misses = open
        .answered()
        .filter(|(_, r)| r.result.is_err() || r.latency_ns as f64 / 1e6 > spec.latency_limit_ms)
        .count()
        + open.records.iter().filter(|r| r.is_none()).count();
    let slo_miss = misses as f64 / open.records.len().max(1) as f64;
    metrics.set("loadgen.slo_miss_frac", slo_miss, "ratio");
    metrics.set("trace.coverage_ratio", stage_ns as f64 / served_ns.max(1.0), "ratio");

    eprintln!(
        "[{name}] replayed {replayed} requests: target_state {:.1}%, topk {:.1}%, \
         zero_class {:.1}% of {:.1} ms",
        100.0 * share(replay.target_state_ns),
        100.0 * share(replay.topk_ns),
        100.0 * share(replay.zero_ns),
        stage_ns as f64 / 1e6,
    );

    let mut spans = main_spans.spans;
    spans.extend(open.spans.iter().cloned());
    spans.extend(replay_spans);
    Ok((vec![(0, run)], Some(open), spans))
}

#[derive(Default)]
struct Replay {
    /// Open-loop indices replayed.
    replayed: Vec<usize>,
    /// Target states computed (cache misses).
    computed: usize,
    nonzero: Vec<f64>,
    target_state_ns: u64,
    topk_ns: u64,
    zero_ns: u64,
}

/// Replays served open-loop requests stage by stage on the final epoch,
/// single-threaded, with the service's per-target caching mirrored (a
/// repeated target reuses its candidates and utilities). Stops after a
/// fixed time budget; outcomes are not compared bit for bit.
fn replay(
    spec: &Spec,
    service: &RecommendationService,
    arrivals: &[Arrival],
    open: &OpenLoop,
    epoch: Instant,
) -> (Vec<Span>, Replay) {
    const BUDGET: Duration = Duration::from_secs(2);
    let pin = service.pin();
    let graph = pin.graph();
    let mut buf = SpanBuf::new(epoch, 200);
    let mut out = Replay::default();
    let mut cache: HashMap<NodeId, Arc<(CandidateSet, UtilityVector)>> = HashMap::new();
    let began = Instant::now();
    for (i, arrival) in arrivals.iter().enumerate() {
        if began.elapsed() > BUDGET {
            break;
        }
        if !matches!(open.records.get(i), Some(Some(r)) if r.result.is_ok()) {
            continue;
        }
        let request = Some(i as u64);
        let target = arrival.request.target;
        let root = buf.open();
        let mut rng = rng_from_seed(split_seed(arrival.seed, 0xBA_0000));
        let state_span = buf.open();
        let state = match cache.get(&target) {
            Some(state) => Arc::clone(state),
            None => {
                let c = buf.time("utility.candidates", Some(state_span.0), request, || {
                    CandidateSet::for_target(graph, target)
                });
                let u = buf.time("utility.utilities", Some(state_span.0), request, || {
                    CommonNeighbors.utilities(graph, target, &c)
                });
                out.computed += 1;
                out.nonzero.push(u.nonzero().len() as f64);
                let state = Arc::new((c, u));
                cache.insert(target, Arc::clone(&state));
                state
            }
        };
        out.target_state_ns += buf.close(state_span, "utility.target_state", Some(root.0), request);
        let (candidates, u) = (&state.0, &state.1);
        let k = arrival.request.k.min(u.len());
        let topk_span = buf.open();
        let top =
            topk_with_engine(TopKEngine::Gumbel, u, k, spec.epsilon, pin.sensitivity(), &mut rng);
        out.topk_ns += buf.close(topk_span, "privacy.topk", Some(root.0), request);
        let zero_slots = top.picks.iter().filter(|p| p.is_none()).count();
        let zero_span = buf.open();
        let picks = resolve_zero_class_distinct(zero_slots, u, candidates, &mut rng);
        out.zero_ns += buf.close(zero_span, "privacy.zero_class", Some(root.0), request);
        std::hint::black_box(picks);
        buf.close(root, "replay.request", None, request);
        out.replayed.push(i);
    }
    (buf.spans, out)
}
