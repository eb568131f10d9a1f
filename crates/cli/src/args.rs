//! Hand-rolled argument parsing (no CLI crates in the allowed set).

/// Usage text shown on parse errors.
pub const USAGE: &str = "\
usage:
  psr figure <1a|1b|2a|2b|2c|lap-vs-exp|lemma3|smoothing> [options]
  psr claims [options]            re-derive the §7.2 headline claims
  psr bounds <example|theorems|planner>
  psr dataset <wiki|twitter> [options]
  psr recommend --target <id> [--target <id> ...] [recommend options]
  psr serve --requests <path> [serve options]
  psr daemon [daemon options]     always-on serving over generated streams
  psr attack [attack options]     run the edge-inference adversaries
  psr frontier [frontier options] sweep the privacy-utility frontier from
                                  a resumable experiment plan
  psr build-snapshot --out <path> [build-snapshot options]
                                  build a compressed PSRZ graph snapshot

recommend options:
  --input <path>    SNAP edge list to serve from (default: generated preset)
  --directed        treat the input file as directed
  --preset <name>   wiki|twitter when no --input (default wiki)
  --utility <name>  common-neighbors|weighted-paths (default common-neighbors)
  --gamma <f64>     weighted-paths damping (default 0.005)
  --mechanism <m>   exponential|laplace (default exponential)
  --epsilon <f64>   privacy budget (default 1.0)

serve options (batch serving over a worker pool):
  --requests <path> JSON array of {\"target\": N, \"k\": M} requests (required)
  --mutations <path> JSON array of mutation batches (arrays of
                    {\"op\": \"Insert\"|\"Delete\", \"u\": N, \"v\": M});
                    batch i is applied after request chunk i, opening a new
                    graph epoch for the remaining chunks
  --input, --directed, --preset, --scale, --utility, --gamma   as for recommend
                    (--preset also accepts livejournal here)
  --backend <b>     csr|compressed graph backing (default csr; compressed
                    round-trips the graph through the PSRZ codec in RAM)
  --snapshot <path> serve straight from a PSRZ snapshot built with
                    build-snapshot (mmap-backed; implies
                    --backend compressed, excludes --input/--preset)
  --epsilon <f64>   privacy cost of one request, split over its k slots
                    (default 1.0)
  --budget <f64>    total ε each target may spend before the service
                    refuses it (default 10.0)
  --engine <name>   peel|gumbel top-k sampler; same distribution, gumbel
                    is the one-pass fast path (default gumbel)
  --threads <n>     worker threads (default: all cores)
  --seed <u64>      master seed (default 42)
  --json <path>     write the JSON outcome report here instead of stdout
  --metrics-out <path>  enable telemetry and write the metrics snapshot
                    (counters, gauges, latency histograms) as JSON here;
                    the report embeds the same snapshot
  --trace <path>    enable telemetry and write the structured trace ring
                    as JSONL here (one event per line, sequence-ordered)

daemon options (always-on serving over generated request/mutation streams):
  --input, --directed, --preset, --scale, --utility, --gamma, --backend,
  --snapshot, --epsilon, --budget, --engine, --threads, --seed, --json,
  --metrics-out, --trace
                    as for serve
  --request-events <n>   requests to generate (default 256)
  --mutation-events <n>  edge mutations to interleave (default 32)
  --insert-fraction <f>  insert share of mutations in [0,1] (default 0.7)
  --k <n>           slots per generated request (default 5)
  --batch <n>       requests per dispatched batch (default 16)
  --mutation-batch <n>   mutations per apply_mutations call (default 8)
  --queue <n>       bounded job-queue capacity; ingestion blocks when
                    full (backpressure) (default 8)
  --ledger <path>   persistent budget journal; replayed on startup so
                    ε spend survives restarts (default: in-memory)
  --rate <f64>      replay pacing in stream ticks per second
                    (default: no pacing, drain as fast as possible)
  --heartbeat <secs>  print an ingestion-progress line (events ingested,
                    batches drained, ETA) to stderr every <secs> seconds

attack options (empirical edge- and node-inference adversaries):
  --input, --directed, --scale, --seed  as for recommend
  --preset <name>   karate|wiki|twitter|livejournal when no --input
                    (default karate)
  --backend <b>     csr|compressed — compressed attacks the graph after a
                    PSRZ encode->open->materialise round trip, proving the
                    attack surface is backing-oblivious (default csr)
  --snapshot <path> attack the graph stored in a PSRZ snapshot (implies
                    --backend compressed, excludes --input/--preset)
  --utility <name>  common-neighbors|weighted-paths (default common-neighbors)
  --gamma <f64>     weighted-paths damping (default 0.005)
  --engine <name>   peel|gumbel top-k sampler for exponential observations
                    (default gumbel)
  --adjacency <a>   edge|node — Definition 1's single-edge worlds or
                    Appendix A's whole-neighbourhood rewire (default edge)
  --mechanism <m>   exponential|laplace|smoothing|non-private
                    (default exponential)
  --epsilon <f64>   per-observation ε for exponential/laplace (default 0.5)
  --smoothing-x <f64>  smoothing mixing weight x in [0,1) (default 0.05)
  --adversary <a>   reconstruction|mia|frequency|all (default all)
  --edge <u,v>      the secret edge, edge adjacency only (default: search
                    for a pair whose insertion flips a non-private answer)
  --node <v>        the rewired node, node adjacency only (default: search
                    for a rewire that flips a non-private answer; the
                    replacement neighbourhood is the disjoint default)
  --observer-cap <n>  max observers watched (default 4)
  --rounds <n>      request batches per trial (default 4)
  --k <n>           slots per request; must be 1 for laplace/smoothing
                    (default 1)
  --trials <n>      Monte-Carlo trials per world (default 48)
  --epoch <style>   edge adjacency: static|insert|delete (insert/delete
                    apply the secret edge mid-stream); node adjacency:
                    static|rewire (rewire applies the whole batch
                    mid-stream through apply_mutations) (default static)
  --prefix-rounds <n>  rounds before the mutation epoch (default 1)
  --threads <n>     harness worker threads (default: all cores)
  --json <path>     write the JSON attack report here instead of stdout

frontier options (orchestrated privacy-utility sweep lab):
  --plan <path>     experiment-plan JSON declaring the sweep grid
                    (default: the built-in toy plan; see --write-plan)
  --write-plan <path>  write the built-in toy plan as an editable
                    template to <path> and exit
  --out <path>      where frontier.json is written once the sweep is
                    complete (default frontier.json)
  --journal <path>  append-only results journal for checkpoint/resume
                    (default: <out> with a .journal extension)
  --no-journal      compute in memory without checkpointing (no resume)
  --max-cells <n>   stop after computing n new cells; the sweep reports
                    itself incomplete and the same command resumes it
  --threads <n>     worker threads (default: all cores); any value
                    produces a byte-identical report
  --heartbeat <secs>  print a sweep-progress line (cells done, ETA) to
                    stderr every <secs> seconds
  --metrics-out <path>  enable telemetry and write the metrics snapshot
                    (fsync latency, resume counters) as JSON here
  --trace <path>    enable telemetry and write per-cell start/finish/
                    resume events as JSONL here

build-snapshot options (out-of-core PSRZ snapshot builder):
  --out <path>      where to write the snapshot (required)
  --input <path>    SNAP edge list to encode (default: generated preset)
  --directed        treat the input file as directed
  --preset <name>   wiki|twitter|livejournal when no --input
                    (default livejournal; livejournal streams R-MAT arcs
                    through the out-of-core builder and never materialises
                    the graph in RAM)
  --scale <0..1]    dataset scale (default 1.0)
  --seed <u64>      generator seed (default 42)
  --shards <n>      degree-balanced shard count in the manifest (default 8)
  --arc-budget <n>  arcs buffered in RAM before spilling a sorted run
                    (16 bytes each; default 4194304 = 64 MiB)
  --json <path>     write the build stats as JSON here instead of stdout

options:
  --scale <0..1]   dataset scale relative to the paper (default 1.0)
  --seed <u64>     master seed (default 42)
  --laplace        also evaluate the Laplace mechanism (slower)
  --trials <u32>   Laplace Monte-Carlo trials (default 1000)
  --threads <n>    worker threads (default: all cores)
  --json <path>    also write the result as JSON";

/// Utility functions every serving/attack surface accepts.
const UTILITIES: [&str; 2] = ["common-neighbors", "weighted-paths"];
/// Top-k engines every serving/attack surface accepts.
const ENGINES: [&str; 2] = ["peel", "gumbel"];
/// Mechanisms the attack harness (and frontier sweeps) cover.
const ATTACK_MECHANISMS: [&str; 4] = ["exponential", "laplace", "smoothing", "non-private"];
/// Generated presets the batch/stream serving surfaces accept.
const SERVING_PRESETS: [&str; 3] = ["wiki", "twitter", "livejournal"];
/// Presets the attack harness accepts (karate is the demo graph).
const ATTACK_PRESETS: [&str; 4] = ["karate", "wiki", "twitter", "livejournal"];

/// Validated `--utility` parse shared by `recommend`, `serve`, `daemon`,
/// `attack` and `frontier` — one allow-list instead of a copy per
/// subcommand.
fn parse_utility(raw: &str) -> Result<String, String> {
    if !UTILITIES.contains(&raw) {
        return Err(format!("unknown utility {raw:?}"));
    }
    Ok(raw.to_owned())
}

/// Validated `--engine` parse shared by the same subcommands.
fn parse_engine(raw: &str) -> Result<String, String> {
    if !ENGINES.contains(&raw) {
        return Err(format!("unknown top-k engine {raw:?} (expected peel|gumbel)"));
    }
    Ok(raw.to_owned())
}

/// Validated `--mechanism` parse against a caller-chosen allow-list
/// (`recommend` serves only exponential/laplace; `attack` and `frontier`
/// cover the full panel).
fn parse_mechanism(raw: &str, allowed: &[&str]) -> Result<String, String> {
    if !allowed.contains(&raw) {
        return Err(format!("unknown mechanism {raw:?} (expected one of {allowed:?})"));
    }
    Ok(raw.to_owned())
}

/// Validated `--preset` parse against a caller-chosen allow-list.
fn parse_preset(raw: &str, allowed: &[&str]) -> Result<String, String> {
    if !allowed.contains(&raw) {
        return Err(format!("unknown preset {raw:?} (expected one of {allowed:?})"));
    }
    Ok(raw.to_owned())
}

/// Validated `--epsilon` parse: a positive, finite budget.
fn parse_epsilon(raw: &str) -> Result<f64, String> {
    let epsilon: f64 = raw.parse().map_err(|e| format!("--epsilon: {e}"))?;
    if !(epsilon > 0.0 && epsilon.is_finite()) {
        return Err("--epsilon must be positive".into());
    }
    Ok(epsilon)
}

/// Validated `--heartbeat` parse: a positive whole number of seconds.
fn parse_heartbeat(raw: &str) -> Result<u64, String> {
    let secs: u64 = raw.parse().map_err(|e| format!("--heartbeat: {e}"))?;
    if secs == 0 {
        return Err("--heartbeat must be at least 1 second".into());
    }
    Ok(secs)
}

/// Validated `--scale` parse: a fraction of the paper-scale dataset.
fn parse_scale(raw: &str) -> Result<f64, String> {
    let scale: f64 = raw.parse().map_err(|e| format!("--scale: {e}"))?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    Ok(scale)
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `psr figure <id> …`
    Figure {
        /// Figure identifier.
        id: String,
        /// Common options.
        opts: Options,
    },
    /// `psr claims …`
    Claims {
        /// Common options.
        opts: Options,
    },
    /// `psr bounds <topic>`
    Bounds {
        /// Which bound table to print.
        topic: String,
    },
    /// `psr dataset <name> …`
    Dataset {
        /// Preset name.
        name: String,
        /// Common options.
        opts: Options,
    },
    /// `psr recommend …`
    Recommend {
        /// Serving options.
        opts: RecommendOptions,
    },
    /// `psr serve …`
    Serve {
        /// Batch-serving options.
        opts: ServeOptions,
    },
    /// `psr attack …`
    Attack {
        /// Edge-inference options.
        opts: AttackOptions,
    },
    /// `psr daemon …`
    Daemon {
        /// Stream-serving options.
        opts: DaemonOptions,
    },
    /// `psr build-snapshot …`
    BuildSnapshot {
        /// Snapshot-builder options.
        opts: BuildSnapshotOptions,
    },
    /// `psr frontier …`
    Frontier {
        /// Sweep-lab options.
        opts: FrontierOptions,
    },
}

/// Options for the `frontier` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierOptions {
    /// Experiment-plan JSON path (None = the built-in toy plan).
    pub plan: Option<String>,
    /// Where the frontier report is written on completion.
    pub out: String,
    /// Results-journal path (None = derived from `out`).
    pub journal: Option<String>,
    /// Disable checkpointing entirely.
    pub no_journal: bool,
    /// Stop after computing this many new cells.
    pub max_cells: Option<usize>,
    /// Worker threads (None = all cores).
    pub threads: Option<usize>,
    /// Write the built-in toy plan to this path and exit.
    pub write_plan: Option<String>,
    /// Stderr progress-line period in seconds (None = silent).
    pub heartbeat: Option<u64>,
    /// Telemetry metrics-snapshot path (None = telemetry stays off
    /// unless `--trace` enables it).
    pub metrics_out: Option<String>,
    /// Telemetry trace JSONL path (None = no trace export).
    pub trace: Option<String>,
}

impl Default for FrontierOptions {
    fn default() -> Self {
        FrontierOptions {
            plan: None,
            out: "frontier.json".to_owned(),
            journal: None,
            no_journal: false,
            max_cells: None,
            threads: None,
            write_plan: None,
            heartbeat: None,
            metrics_out: None,
            trace: None,
        }
    }
}

fn parse_frontier(rest: &[String]) -> Result<FrontierOptions, String> {
    let mut opts = FrontierOptions::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--plan" => opts.plan = Some(value("--plan")?.clone()),
            "--out" => opts.out = value("--out")?.clone(),
            "--journal" => opts.journal = Some(value("--journal")?.clone()),
            "--no-journal" => opts.no_journal = true,
            "--max-cells" => {
                opts.max_cells =
                    Some(value("--max-cells")?.parse().map_err(|e| format!("--max-cells: {e}"))?);
                if opts.max_cells == Some(0) {
                    return Err("--max-cells must be at least 1".into());
                }
            }
            "--threads" => {
                opts.threads =
                    Some(value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?);
            }
            "--write-plan" => opts.write_plan = Some(value("--write-plan")?.clone()),
            "--heartbeat" => opts.heartbeat = Some(parse_heartbeat(value("--heartbeat")?)?),
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?.clone()),
            "--trace" => opts.trace = Some(value("--trace")?.clone()),
            other => return Err(format!("unknown frontier option {other:?}")),
        }
    }
    if opts.no_journal && opts.journal.is_some() {
        return Err("--no-journal and --journal are mutually exclusive".into());
    }
    if opts.no_journal && opts.max_cells.is_some() {
        return Err("--max-cells needs a journal to resume from (drop --no-journal)".into());
    }
    Ok(opts)
}

/// Options for the `build-snapshot` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildSnapshotOptions {
    /// Output snapshot path.
    pub out: String,
    /// SNAP edge-list path (None = preset).
    pub input: Option<String>,
    /// Whether the input file is directed.
    pub directed: bool,
    /// Preset name when no input file.
    pub preset: String,
    /// Dataset scale for presets.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Degree-balanced shard count.
    pub shards: usize,
    /// Arcs buffered in RAM before spilling a sorted run.
    pub arc_budget: usize,
    /// Optional JSON stats path (stdout when absent).
    pub json: Option<String>,
}

impl Default for BuildSnapshotOptions {
    fn default() -> Self {
        BuildSnapshotOptions {
            out: String::new(),
            input: None,
            directed: false,
            preset: "livejournal".to_owned(),
            scale: 1.0,
            seed: 42,
            shards: 8,
            arc_budget: 4 * 1024 * 1024,
            json: None,
        }
    }
}

fn parse_build_snapshot(rest: &[String]) -> Result<BuildSnapshotOptions, String> {
    let mut opts = BuildSnapshotOptions::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--out" => opts.out = value("--out")?.clone(),
            "--input" => opts.input = Some(value("--input")?.clone()),
            "--directed" => opts.directed = true,
            "--preset" => opts.preset = parse_preset(value("--preset")?, &SERVING_PRESETS)?,
            "--scale" => opts.scale = parse_scale(value("--scale")?)?,
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--shards" => {
                opts.shards = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?;
                if opts.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--arc-budget" => {
                opts.arc_budget =
                    value("--arc-budget")?.parse().map_err(|e| format!("--arc-budget: {e}"))?;
                if opts.arc_budget == 0 {
                    return Err("--arc-budget must be at least 1".into());
                }
            }
            "--json" => opts.json = Some(value("--json")?.clone()),
            other => return Err(format!("unknown build-snapshot option {other:?}")),
        }
    }
    if opts.out.is_empty() {
        return Err("build-snapshot: --out <path> is required".into());
    }
    Ok(opts)
}

/// Validates a `--backend` value and resolves the `--snapshot` implication
/// shared by `serve`, `daemon` and `attack`: a snapshot path forces the
/// compressed backend and excludes `--input` (the snapshot *is* the
/// input).
fn resolve_backend(
    backend: &mut String,
    backend_explicit: bool,
    snapshot: Option<&str>,
    input: Option<&str>,
) -> Result<(), String> {
    if !["csr", "compressed"].contains(&backend.as_str()) {
        return Err(format!("unknown backend {backend:?} (expected csr|compressed)"));
    }
    if snapshot.is_some() {
        if input.is_some() {
            return Err("--snapshot and --input are mutually exclusive".into());
        }
        if backend_explicit && backend == "csr" {
            return Err("--snapshot requires the compressed backend (drop --backend csr)".into());
        }
        *backend = "compressed".to_owned();
    }
    Ok(())
}

/// Flags `serve` and `daemon` share: the graph source and backing, the
/// utility, the privacy parameters, the top-k engine, the worker pool and
/// the report/telemetry outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingFlags {
    /// SNAP edge-list path (None = preset).
    pub input: Option<String>,
    /// Whether the input file is directed.
    pub directed: bool,
    /// Preset name when no input file.
    pub preset: String,
    /// Dataset scale for presets.
    pub scale: f64,
    /// Graph backing: csr|compressed.
    pub backend: String,
    /// PSRZ snapshot to serve from (implies the compressed backend).
    pub snapshot: Option<String>,
    /// Utility function name.
    pub utility: String,
    /// Weighted-paths damping.
    pub gamma: f64,
    /// Privacy cost ε of one request.
    pub epsilon: f64,
    /// Total ε each target may spend.
    pub budget: f64,
    /// Top-k engine name: peel|gumbel.
    pub engine: String,
    /// Worker threads (None = all cores).
    pub threads: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Optional JSON report path (stdout when absent).
    pub json: Option<String>,
    /// Telemetry metrics-snapshot path (None = telemetry stays off
    /// unless `--trace` enables it).
    pub metrics_out: Option<String>,
    /// Telemetry trace JSONL path (None = no trace export).
    pub trace: Option<String>,
}

impl Default for ServingFlags {
    fn default() -> Self {
        ServingFlags {
            input: None,
            directed: false,
            preset: "wiki".to_owned(),
            scale: 1.0,
            backend: "csr".to_owned(),
            snapshot: None,
            utility: "common-neighbors".to_owned(),
            gamma: 0.005,
            epsilon: 1.0,
            budget: 10.0,
            engine: "gumbel".to_owned(),
            threads: None,
            seed: 42,
            json: None,
            metrics_out: None,
            trace: None,
        }
    }
}

/// Parses a `serve`/`daemon` argument list: the shared [`ServingFlags`]
/// are handled here, every other flag goes to `other` along with the
/// argument iterator (to take its value from). After the last flag the
/// `--backend`/`--snapshot` combination is resolved.
fn parse_serving(
    rest: &[String],
    mut other: impl FnMut(&str, &mut std::slice::Iter<'_, String>) -> Result<(), String>,
) -> Result<ServingFlags, String> {
    let mut flags = ServingFlags::default();
    let mut backend_explicit = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--input" => flags.input = Some(value("--input")?.clone()),
            "--directed" => flags.directed = true,
            "--preset" => flags.preset = parse_preset(value("--preset")?, &SERVING_PRESETS)?,
            "--backend" => {
                flags.backend = value("--backend")?.clone();
                backend_explicit = true;
            }
            "--snapshot" => flags.snapshot = Some(value("--snapshot")?.clone()),
            "--scale" => flags.scale = parse_scale(value("--scale")?)?,
            "--utility" => flags.utility = parse_utility(value("--utility")?)?,
            "--gamma" => {
                flags.gamma = value("--gamma")?.parse().map_err(|e| format!("--gamma: {e}"))?
            }
            "--epsilon" => flags.epsilon = parse_epsilon(value("--epsilon")?)?,
            "--budget" => {
                flags.budget = value("--budget")?.parse().map_err(|e| format!("--budget: {e}"))?;
                if !(flags.budget > 0.0 && flags.budget.is_finite()) {
                    return Err("--budget must be positive and finite".into());
                }
            }
            "--engine" => flags.engine = parse_engine(value("--engine")?)?,
            "--threads" => {
                flags.threads =
                    Some(value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?);
            }
            "--seed" => {
                flags.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--json" => flags.json = Some(value("--json")?.clone()),
            "--metrics-out" => flags.metrics_out = Some(value("--metrics-out")?.clone()),
            "--trace" => flags.trace = Some(value("--trace")?.clone()),
            _ => other(flag, &mut it)?,
        }
    }
    resolve_backend(
        &mut flags.backend,
        backend_explicit,
        flags.snapshot.as_deref(),
        flags.input.as_deref(),
    )?;
    Ok(flags)
}

/// Options for the `daemon` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonOptions {
    /// Flags shared with `serve`.
    pub serving: ServingFlags,
    /// Requests to generate.
    pub request_events: usize,
    /// Edge mutations to interleave.
    pub mutation_events: usize,
    /// Insert share of generated mutations.
    pub insert_fraction: f64,
    /// Slots per generated request.
    pub k: usize,
    /// Requests per dispatched batch.
    pub batch: usize,
    /// Mutations per `apply_mutations` call.
    pub mutation_batch: usize,
    /// Bounded job-queue capacity.
    pub queue: usize,
    /// Persistent budget-journal path (None = in-memory).
    pub ledger: Option<String>,
    /// Replay pacing in stream ticks per second (None = no pacing).
    pub rate: Option<f64>,
    /// Stderr progress-line period in seconds (None = silent).
    pub heartbeat: Option<u64>,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            serving: ServingFlags::default(),
            request_events: 256,
            mutation_events: 32,
            insert_fraction: 0.7,
            k: 5,
            batch: 16,
            mutation_batch: 8,
            queue: 8,
            ledger: None,
            rate: None,
            heartbeat: None,
        }
    }
}

fn parse_daemon(rest: &[String]) -> Result<DaemonOptions, String> {
    let mut opts = DaemonOptions::default();
    opts.serving = parse_serving(rest, |flag, it| {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} expects a value"))
        };
        match flag {
            "--request-events" => {
                opts.request_events = value("--request-events")?
                    .parse()
                    .map_err(|e| format!("--request-events: {e}"))?;
                if opts.request_events == 0 {
                    return Err("--request-events must be at least 1".into());
                }
            }
            "--mutation-events" => {
                opts.mutation_events = value("--mutation-events")?
                    .parse()
                    .map_err(|e| format!("--mutation-events: {e}"))?;
            }
            "--insert-fraction" => {
                opts.insert_fraction = value("--insert-fraction")?
                    .parse()
                    .map_err(|e| format!("--insert-fraction: {e}"))?;
                if !(0.0..=1.0).contains(&opts.insert_fraction) {
                    return Err("--insert-fraction must be in [0, 1]".into());
                }
            }
            "--k" => {
                opts.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?;
                if opts.k == 0 {
                    return Err("--k must be at least 1".into());
                }
            }
            "--batch" => {
                opts.batch = value("--batch")?.parse().map_err(|e| format!("--batch: {e}"))?;
                if opts.batch == 0 {
                    return Err("--batch must be at least 1".into());
                }
            }
            "--mutation-batch" => {
                opts.mutation_batch = value("--mutation-batch")?
                    .parse()
                    .map_err(|e| format!("--mutation-batch: {e}"))?;
                if opts.mutation_batch == 0 {
                    return Err("--mutation-batch must be at least 1".into());
                }
            }
            "--queue" => {
                opts.queue = value("--queue")?.parse().map_err(|e| format!("--queue: {e}"))?;
                if opts.queue == 0 {
                    return Err("--queue must be at least 1".into());
                }
            }
            "--ledger" => opts.ledger = Some(value("--ledger")?.clone()),
            "--rate" => {
                let rate: f64 = value("--rate")?.parse().map_err(|e| format!("--rate: {e}"))?;
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err("--rate must be positive and finite".into());
                }
                opts.rate = Some(rate);
            }
            "--heartbeat" => opts.heartbeat = Some(parse_heartbeat(value("--heartbeat")?)?),
            other => return Err(format!("unknown daemon option {other:?}")),
        }
        Ok(())
    })?;
    Ok(opts)
}

/// Options for the `attack` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOptions {
    /// SNAP edge-list path (None = preset).
    pub input: Option<String>,
    /// Whether the input file is directed.
    pub directed: bool,
    /// Preset name when no input file (`karate` allowed here).
    pub preset: String,
    /// Dataset scale for generated presets.
    pub scale: f64,
    /// Graph backing: csr|compressed.
    pub backend: String,
    /// PSRZ snapshot to attack (implies the compressed backend).
    pub snapshot: Option<String>,
    /// Utility function name.
    pub utility: String,
    /// Weighted-paths damping.
    pub gamma: f64,
    /// Top-k engine name for exponential observations: peel|gumbel.
    pub engine: String,
    /// Mechanism under attack.
    pub mechanism: String,
    /// Per-observation ε for exponential/laplace.
    pub epsilon: f64,
    /// Smoothing mixing weight `x`.
    pub smoothing_x: f64,
    /// Adjacency notion: edge|node.
    pub adjacency: String,
    /// Which adversaries to run.
    pub adversary: String,
    /// The secret edge, if given explicitly (edge adjacency).
    pub edge: Option<(u32, u32)>,
    /// The rewired node, if given explicitly (node adjacency).
    pub node: Option<u32>,
    /// Maximum observers watched.
    pub observer_cap: usize,
    /// Request batches per trial.
    pub rounds: usize,
    /// Slots per request.
    pub k: usize,
    /// Monte-Carlo trials per world.
    pub trials: usize,
    /// Epoch style: static|insert|delete.
    pub epoch: String,
    /// Rounds before the mid-stream mutation.
    pub prefix_rounds: usize,
    /// Harness worker threads.
    pub threads: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Optional JSON report path (stdout when absent).
    pub json: Option<String>,
}

impl Default for AttackOptions {
    fn default() -> Self {
        AttackOptions {
            input: None,
            directed: false,
            preset: "karate".to_owned(),
            scale: 1.0,
            backend: "csr".to_owned(),
            snapshot: None,
            utility: "common-neighbors".to_owned(),
            gamma: 0.005,
            engine: "gumbel".to_owned(),
            mechanism: "exponential".to_owned(),
            epsilon: 0.5,
            smoothing_x: 0.05,
            adjacency: "edge".to_owned(),
            adversary: "all".to_owned(),
            edge: None,
            node: None,
            observer_cap: 4,
            rounds: 4,
            k: 1,
            trials: 48,
            epoch: "static".to_owned(),
            prefix_rounds: 1,
            threads: None,
            seed: 42,
            json: None,
        }
    }
}

fn parse_attack(rest: &[String]) -> Result<AttackOptions, String> {
    let mut opts = AttackOptions::default();
    let mut backend_explicit = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--input" => opts.input = Some(value("--input")?.clone()),
            "--directed" => opts.directed = true,
            "--preset" => opts.preset = parse_preset(value("--preset")?, &ATTACK_PRESETS)?,
            "--backend" => {
                opts.backend = value("--backend")?.clone();
                backend_explicit = true;
            }
            "--snapshot" => opts.snapshot = Some(value("--snapshot")?.clone()),
            "--scale" => opts.scale = parse_scale(value("--scale")?)?,
            "--utility" => opts.utility = parse_utility(value("--utility")?)?,
            "--gamma" => {
                opts.gamma = value("--gamma")?.parse().map_err(|e| format!("--gamma: {e}"))?
            }
            "--engine" => opts.engine = parse_engine(value("--engine")?)?,
            "--mechanism" => {
                opts.mechanism = parse_mechanism(value("--mechanism")?, &ATTACK_MECHANISMS)?
            }
            "--epsilon" => opts.epsilon = parse_epsilon(value("--epsilon")?)?,
            "--smoothing-x" => {
                opts.smoothing_x =
                    value("--smoothing-x")?.parse().map_err(|e| format!("--smoothing-x: {e}"))?;
                if !(0.0..1.0).contains(&opts.smoothing_x) {
                    return Err("--smoothing-x must be in [0, 1)".into());
                }
            }
            "--adjacency" => {
                opts.adjacency = value("--adjacency")?.clone();
                if !["edge", "node"].contains(&opts.adjacency.as_str()) {
                    return Err(format!("unknown adjacency {:?}", opts.adjacency));
                }
            }
            "--adversary" => {
                opts.adversary = value("--adversary")?.clone();
                if !["reconstruction", "mia", "frequency", "all"].contains(&opts.adversary.as_str())
                {
                    return Err(format!("unknown adversary {:?}", opts.adversary));
                }
            }
            "--edge" => {
                let raw = value("--edge")?;
                let (u, v) = raw
                    .split_once(',')
                    .ok_or_else(|| format!("--edge expects \"u,v\", got {raw:?}"))?;
                let u = u.trim().parse().map_err(|e| format!("--edge u: {e}"))?;
                let v = v.trim().parse().map_err(|e| format!("--edge v: {e}"))?;
                opts.edge = Some((u, v));
            }
            "--node" => {
                opts.node = Some(value("--node")?.parse().map_err(|e| format!("--node: {e}"))?);
            }
            "--observer-cap" => {
                opts.observer_cap =
                    value("--observer-cap")?.parse().map_err(|e| format!("--observer-cap: {e}"))?;
                if opts.observer_cap == 0 {
                    return Err("--observer-cap must be at least 1".into());
                }
            }
            "--rounds" => {
                opts.rounds = value("--rounds")?.parse().map_err(|e| format!("--rounds: {e}"))?;
                if opts.rounds == 0 {
                    return Err("--rounds must be at least 1".into());
                }
            }
            "--k" => {
                opts.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?;
                if opts.k == 0 {
                    return Err("--k must be at least 1".into());
                }
            }
            "--trials" => {
                opts.trials = value("--trials")?.parse().map_err(|e| format!("--trials: {e}"))?;
                if opts.trials == 0 {
                    return Err("--trials must be at least 1".into());
                }
            }
            "--epoch" => {
                opts.epoch = value("--epoch")?.clone();
                if !["static", "insert", "delete", "rewire"].contains(&opts.epoch.as_str()) {
                    return Err(format!("unknown epoch style {:?}", opts.epoch));
                }
            }
            "--prefix-rounds" => {
                opts.prefix_rounds = value("--prefix-rounds")?
                    .parse()
                    .map_err(|e| format!("--prefix-rounds: {e}"))?;
            }
            "--threads" => {
                opts.threads =
                    Some(value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?);
            }
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--json" => opts.json = Some(value("--json")?.clone()),
            other => return Err(format!("unknown attack option {other:?}")),
        }
    }
    resolve_backend(
        &mut opts.backend,
        backend_explicit,
        opts.snapshot.as_deref(),
        opts.input.as_deref(),
    )?;
    if opts.k != 1 && ["laplace", "smoothing"].contains(&opts.mechanism.as_str()) {
        return Err("--k must be 1 for the single-draw laplace/smoothing mechanisms".into());
    }
    if opts.epoch != "static" && !(1..opts.rounds).contains(&opts.prefix_rounds) {
        return Err("--prefix-rounds must be in 1..--rounds for mid-stream epochs".into());
    }
    match opts.adjacency.as_str() {
        "edge" => {
            if opts.node.is_some() {
                return Err("--node is a node-adjacency option (pass --adjacency node)".into());
            }
            if opts.epoch == "rewire" {
                return Err("--epoch rewire is a node-adjacency style (pass --adjacency node; \
                            edge adjacency uses insert/delete)"
                    .into());
            }
            if opts.epoch == "delete" && opts.edge.is_none() {
                return Err(
                    "--epoch delete needs an explicit --edge that exists in the graph".into()
                );
            }
        }
        "node" => {
            if opts.edge.is_some() {
                return Err("--edge is an edge-adjacency option (node adjacency rewires a \
                            whole neighbourhood; pass --node)"
                    .into());
            }
            if ["insert", "delete"].contains(&opts.epoch.as_str()) {
                return Err("--epoch insert/delete are edge-adjacency styles (node adjacency \
                            uses static|rewire)"
                    .into());
            }
        }
        _ => unreachable!("validated above"),
    }
    Ok(opts)
}

/// Options for the `serve` subcommand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeOptions {
    /// Path to the JSON request list (array of `{"target": N, "k": M}`).
    pub requests: String,
    /// Optional JSON mutation schedule (array of mutation batches)
    /// interleaved with the request chunks.
    pub mutations: Option<String>,
    /// Flags shared with `daemon`.
    pub serving: ServingFlags,
}

fn parse_serve(rest: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions::default();
    opts.serving = parse_serving(rest, |flag, it| {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} expects a value"))
        };
        match flag {
            "--requests" => opts.requests = value("--requests")?.clone(),
            "--mutations" => opts.mutations = Some(value("--mutations")?.clone()),
            other => return Err(format!("unknown serve option {other:?}")),
        }
        Ok(())
    })?;
    if opts.requests.is_empty() {
        return Err("serve: --requests <path> is required".into());
    }
    Ok(opts)
}

/// Options for the `recommend` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendOptions {
    /// Targets to serve.
    pub targets: Vec<u32>,
    /// SNAP edge-list path (None = preset).
    pub input: Option<String>,
    /// Whether the input file is directed.
    pub directed: bool,
    /// Preset name when no input file.
    pub preset: String,
    /// Dataset scale for presets.
    pub scale: f64,
    /// Utility function name.
    pub utility: String,
    /// Weighted-paths damping.
    pub gamma: f64,
    /// Mechanism name.
    pub mechanism: String,
    /// Privacy budget ε.
    pub epsilon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RecommendOptions {
    fn default() -> Self {
        RecommendOptions {
            targets: Vec::new(),
            input: None,
            directed: false,
            preset: "wiki".to_owned(),
            scale: 1.0,
            utility: "common-neighbors".to_owned(),
            gamma: 0.005,
            mechanism: "exponential".to_owned(),
            epsilon: 1.0,
            seed: 42,
        }
    }
}

fn parse_recommend(rest: &[String]) -> Result<RecommendOptions, String> {
    let mut opts = RecommendOptions::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--target" => {
                opts.targets.push(value("--target")?.parse().map_err(|e| format!("--target: {e}"))?)
            }
            "--input" => opts.input = Some(value("--input")?.clone()),
            "--directed" => opts.directed = true,
            "--preset" => opts.preset = parse_preset(value("--preset")?, &["wiki", "twitter"])?,
            "--scale" => opts.scale = parse_scale(value("--scale")?)?,
            "--utility" => opts.utility = parse_utility(value("--utility")?)?,
            "--gamma" => {
                opts.gamma = value("--gamma")?.parse().map_err(|e| format!("--gamma: {e}"))?
            }
            "--mechanism" => {
                opts.mechanism =
                    parse_mechanism(value("--mechanism")?, &["exponential", "laplace"])?
            }
            "--epsilon" => opts.epsilon = parse_epsilon(value("--epsilon")?)?,
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            other => return Err(format!("unknown recommend option {other:?}")),
        }
    }
    if opts.targets.is_empty() {
        return Err("recommend: at least one --target is required".into());
    }
    Ok(opts)
}

/// Options shared by data-bearing subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Dataset scale in (0, 1].
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Evaluate the Laplace mechanism.
    pub laplace: bool,
    /// Laplace trials.
    pub trials: u32,
    /// Worker threads.
    pub threads: Option<usize>,
    /// Optional JSON output path.
    pub json: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options { scale: 1.0, seed: 42, laplace: false, trials: 1000, threads: None, json: None }
    }
}

/// Parses argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let sub = it.next().ok_or("missing subcommand")?;
    match sub.as_str() {
        "figure" => {
            let id = it.next().ok_or("figure: missing id")?.clone();
            const KNOWN: [&str; 8] =
                ["1a", "1b", "2a", "2b", "2c", "lap-vs-exp", "lemma3", "smoothing"];
            if !KNOWN.contains(&id.as_str()) {
                return Err(format!("unknown figure {id:?} (expected one of {KNOWN:?})"));
            }
            Ok(Command::Figure { id, opts: parse_options(it.as_slice())? })
        }
        "claims" => Ok(Command::Claims { opts: parse_options(it.as_slice())? }),
        "bounds" => {
            let topic = it.next().ok_or("bounds: missing topic")?.clone();
            if !["example", "theorems", "planner"].contains(&topic.as_str()) {
                return Err(format!("unknown bounds topic {topic:?}"));
            }
            if it.next().is_some() {
                return Err("bounds takes no options".into());
            }
            Ok(Command::Bounds { topic })
        }
        "recommend" => Ok(Command::Recommend { opts: parse_recommend(it.as_slice())? }),
        "serve" => Ok(Command::Serve { opts: parse_serve(it.as_slice())? }),
        "attack" => Ok(Command::Attack { opts: parse_attack(it.as_slice())? }),
        "daemon" => Ok(Command::Daemon { opts: parse_daemon(it.as_slice())? }),
        "frontier" => Ok(Command::Frontier { opts: parse_frontier(it.as_slice())? }),
        "build-snapshot" => {
            Ok(Command::BuildSnapshot { opts: parse_build_snapshot(it.as_slice())? })
        }
        "dataset" => {
            let name = it.next().ok_or("dataset: missing name")?.clone();
            if !["wiki", "twitter"].contains(&name.as_str()) {
                return Err(format!("unknown dataset {name:?} (expected wiki|twitter)"));
            }
            Ok(Command::Dataset { name, opts: parse_options(it.as_slice())? })
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn parse_options(rest: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--scale" => opts.scale = parse_scale(value("--scale")?)?,
            "--seed" => {
                opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--trials" => {
                opts.trials = value("--trials")?.parse().map_err(|e| format!("--trials: {e}"))?;
            }
            "--threads" => {
                opts.threads =
                    Some(value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?);
            }
            "--json" => opts.json = Some(value("--json")?.clone()),
            "--laplace" => opts.laplace = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_figure_with_options() {
        let cmd = parse(&argv("figure 1a --scale 0.5 --seed 7 --laplace --json out.json")).unwrap();
        match cmd {
            Command::Figure { id, opts } => {
                assert_eq!(id, "1a");
                assert_eq!(opts.scale, 0.5);
                assert_eq!(opts.seed, 7);
                assert!(opts.laplace);
                assert_eq!(opts.json.as_deref(), Some("out.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_figure_and_flag() {
        assert!(parse(&argv("figure 9z")).is_err());
        assert!(parse(&argv("figure 1a --bogus")).is_err());
        assert!(parse(&argv("figure 1a --scale nope")).is_err());
        assert!(parse(&argv("figure 1a --scale 2.0")).is_err());
    }

    #[test]
    fn parses_other_subcommands() {
        assert!(matches!(parse(&argv("claims")).unwrap(), Command::Claims { .. }));
        assert!(matches!(parse(&argv("bounds example")).unwrap(), Command::Bounds { .. }));
        assert!(matches!(
            parse(&argv("dataset wiki --scale 0.1")).unwrap(),
            Command::Dataset { .. }
        ));
        assert!(parse(&argv("bounds nope")).is_err());
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("nonsense")).is_err());
    }

    #[test]
    fn parses_recommend() {
        let cmd = parse(&argv(
            "recommend --target 3 --target 9 --mechanism laplace --epsilon 0.5 --preset twitter",
        ))
        .unwrap();
        match cmd {
            Command::Recommend { opts } => {
                assert_eq!(opts.targets, vec![3, 9]);
                assert_eq!(opts.mechanism, "laplace");
                assert_eq!(opts.epsilon, 0.5);
                assert_eq!(opts.preset, "twitter");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn recommend_requires_targets_and_validates() {
        assert!(parse(&argv("recommend")).is_err());
        assert!(parse(&argv("recommend --target 1 --mechanism bogus")).is_err());
        assert!(parse(&argv("recommend --target 1 --epsilon -1")).is_err());
        assert!(parse(&argv("recommend --target 1 --utility nope")).is_err());
    }

    #[test]
    fn parses_serve() {
        let cmd = parse(&argv(
            "serve --requests reqs.json --preset twitter --epsilon 0.5 --budget 2.5 \
             --engine peel --threads 4 --seed 9 --json out.json",
        ))
        .unwrap();
        match cmd {
            Command::Serve { opts } => {
                assert_eq!(opts.requests, "reqs.json");
                assert_eq!(opts.serving.preset, "twitter");
                assert_eq!(opts.serving.epsilon, 0.5);
                assert_eq!(opts.serving.budget, 2.5);
                assert_eq!(opts.serving.engine, "peel");
                assert_eq!(opts.serving.threads, Some(4));
                assert_eq!(opts.serving.seed, 9);
                assert_eq!(opts.serving.json.as_deref(), Some("out.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_requires_requests_and_validates() {
        assert!(parse(&argv("serve")).is_err());
        assert!(parse(&argv("serve --requests r.json --epsilon 0")).is_err());
        assert!(parse(&argv("serve --requests r.json --budget -1")).is_err());
        assert!(parse(&argv("serve --requests r.json --budget inf")).is_err());
        assert!(parse(&argv("serve --requests r.json --utility nope")).is_err());
        assert!(parse(&argv("serve --requests r.json --mechanism laplace")).is_err());
        assert!(parse(&argv("serve --requests r.json --engine bogus")).is_err());
        assert!(parse(&argv("serve --requests r.json --engine")).is_err());
    }

    #[test]
    fn serve_defaults() {
        let cmd = parse(&argv("serve --requests r.json")).unwrap();
        match cmd {
            Command::Serve { opts } => {
                assert_eq!(opts.serving.epsilon, 1.0);
                assert_eq!(opts.serving.budget, 10.0);
                assert_eq!(opts.serving.engine, "gumbel");
                assert_eq!(opts.serving.preset, "wiki");
                assert_eq!(opts.serving.threads, None);
                assert_eq!(opts.serving.json, None);
                assert_eq!(opts.mutations, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_accepts_a_mutation_schedule() {
        let cmd = parse(&argv("serve --requests r.json --mutations muts.json")).unwrap();
        match cmd {
            Command::Serve { opts } => {
                assert_eq!(opts.mutations.as_deref(), Some("muts.json"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --requests r.json --mutations")).is_err());
    }

    #[test]
    fn parses_daemon() {
        let cmd = parse(&argv(
            "daemon --preset twitter --request-events 64 --mutation-events 8 \
             --insert-fraction 0.5 --k 3 --batch 4 --mutation-batch 2 --queue 5 \
             --ledger spend.ledger --rate 100 --engine peel --threads 2 --seed 9 \
             --json out.json",
        ))
        .unwrap();
        match cmd {
            Command::Daemon { opts } => {
                assert_eq!(opts.serving.preset, "twitter");
                assert_eq!(opts.request_events, 64);
                assert_eq!(opts.mutation_events, 8);
                assert_eq!(opts.insert_fraction, 0.5);
                assert_eq!(opts.k, 3);
                assert_eq!(opts.batch, 4);
                assert_eq!(opts.mutation_batch, 2);
                assert_eq!(opts.queue, 5);
                assert_eq!(opts.ledger.as_deref(), Some("spend.ledger"));
                assert_eq!(opts.rate, Some(100.0));
                assert_eq!(opts.serving.engine, "peel");
                assert_eq!(opts.serving.threads, Some(2));
                assert_eq!(opts.serving.seed, 9);
                assert_eq!(opts.serving.json.as_deref(), Some("out.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn daemon_defaults() {
        let cmd = parse(&argv("daemon")).unwrap();
        match cmd {
            Command::Daemon { opts } => {
                assert_eq!(opts, DaemonOptions::default());
                assert_eq!(opts.request_events, 256);
                assert_eq!(opts.mutation_events, 32);
                assert_eq!(opts.batch, 16);
                assert_eq!(opts.queue, 8);
                assert_eq!(opts.ledger, None);
                assert_eq!(opts.rate, None);
                assert_eq!(opts.serving.engine, "gumbel");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn daemon_validates_options() {
        assert!(parse(&argv("daemon --request-events 0")).is_err());
        assert!(parse(&argv("daemon --insert-fraction 1.5")).is_err());
        assert!(parse(&argv("daemon --k 0")).is_err());
        assert!(parse(&argv("daemon --batch 0")).is_err());
        assert!(parse(&argv("daemon --mutation-batch 0")).is_err());
        assert!(parse(&argv("daemon --queue 0")).is_err());
        assert!(parse(&argv("daemon --rate 0")).is_err());
        assert!(parse(&argv("daemon --rate inf")).is_err());
        assert!(parse(&argv("daemon --engine bogus")).is_err());
        assert!(parse(&argv("daemon --budget -1")).is_err());
        assert!(parse(&argv("daemon --ledger")).is_err());
        assert!(parse(&argv("daemon --bogus")).is_err());
    }

    #[test]
    fn attack_accepts_an_engine() {
        let cmd = parse(&argv("attack --engine peel")).unwrap();
        match cmd {
            Command::Attack { opts } => assert_eq!(opts.engine, "peel"),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("attack --engine bogus")).is_err());
    }

    #[test]
    fn parses_attack_with_options() {
        let cmd = parse(&argv(
            "attack --preset wiki --scale 0.1 --mechanism non-private --adversary mia \
             --edge 3,9 --rounds 6 --trials 32 --epoch insert --prefix-rounds 2 \
             --observer-cap 3 --seed 7 --json out.json",
        ))
        .unwrap();
        match cmd {
            Command::Attack { opts } => {
                assert_eq!(opts.preset, "wiki");
                assert_eq!(opts.scale, 0.1);
                assert_eq!(opts.mechanism, "non-private");
                assert_eq!(opts.adversary, "mia");
                assert_eq!(opts.edge, Some((3, 9)));
                assert_eq!(opts.rounds, 6);
                assert_eq!(opts.trials, 32);
                assert_eq!(opts.epoch, "insert");
                assert_eq!(opts.prefix_rounds, 2);
                assert_eq!(opts.observer_cap, 3);
                assert_eq!(opts.seed, 7);
                assert_eq!(opts.json.as_deref(), Some("out.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attack_defaults_are_the_karate_demo() {
        let cmd = parse(&argv("attack")).unwrap();
        match cmd {
            Command::Attack { opts } => {
                assert_eq!(opts, AttackOptions::default());
                assert_eq!(opts.preset, "karate");
                assert_eq!(opts.mechanism, "exponential");
                assert_eq!(opts.epsilon, 0.5);
                assert_eq!(opts.adversary, "all");
                assert_eq!(opts.edge, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attack_rejects_inconsistent_options() {
        assert!(parse(&argv("attack --mechanism bogus")).is_err());
        assert!(parse(&argv("attack --adversary bogus")).is_err());
        assert!(parse(&argv("attack --edge 3")).is_err());
        assert!(parse(&argv("attack --edge 3,x")).is_err());
        assert!(parse(&argv("attack --epsilon 0")).is_err());
        assert!(parse(&argv("attack --smoothing-x 1.0")).is_err());
        assert!(parse(&argv("attack --mechanism laplace --k 2")).is_err());
        assert!(parse(&argv("attack --epoch insert --rounds 2 --prefix-rounds 2")).is_err());
        assert!(parse(&argv("attack --epoch insert --prefix-rounds 0")).is_err());
        assert!(parse(&argv("attack --epoch delete")).is_err(), "delete needs --edge");
        assert!(parse(&argv("attack --preset bogus")).is_err());
        assert!(parse(&argv("attack --trials 0")).is_err());
    }

    #[test]
    fn parses_node_adjacency_attack() {
        let cmd = parse(&argv(
            "attack --adjacency node --node 5 --epoch rewire --rounds 4 --prefix-rounds 2",
        ))
        .unwrap();
        match cmd {
            Command::Attack { opts } => {
                assert_eq!(opts.adjacency, "node");
                assert_eq!(opts.node, Some(5));
                assert_eq!(opts.epoch, "rewire");
                assert_eq!(opts.prefix_rounds, 2);
            }
            other => panic!("{other:?}"),
        }
        // Default adjacency stays edge, with node search available.
        let cmd = parse(&argv("attack --adjacency node")).unwrap();
        match cmd {
            Command::Attack { opts } => assert_eq!(opts.node, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attack_rejects_mixed_adjacency_options() {
        assert!(parse(&argv("attack --adjacency bogus")).is_err());
        assert!(parse(&argv("attack --node 5")).is_err(), "--node needs --adjacency node");
        assert!(parse(&argv("attack --epoch rewire")).is_err(), "rewire is node-only");
        assert!(parse(&argv("attack --adjacency node --edge 3,9")).is_err());
        assert!(parse(&argv("attack --adjacency node --epoch insert")).is_err());
        assert!(parse(&argv("attack --adjacency node --epoch delete --node 3")).is_err());
        assert!(parse(&argv(
            "attack --adjacency node --epoch rewire --rounds 2 --prefix-rounds 2"
        ))
        .is_err());
    }

    #[test]
    fn parses_build_snapshot() {
        let cmd = parse(&argv(
            "build-snapshot --out lj.psrz --preset livejournal --scale 0.01 --seed 7 \
             --shards 16 --arc-budget 1000000 --json stats.json",
        ))
        .unwrap();
        match cmd {
            Command::BuildSnapshot { opts } => {
                assert_eq!(opts.out, "lj.psrz");
                assert_eq!(opts.preset, "livejournal");
                assert_eq!(opts.scale, 0.01);
                assert_eq!(opts.seed, 7);
                assert_eq!(opts.shards, 16);
                assert_eq!(opts.arc_budget, 1_000_000);
                assert_eq!(opts.json.as_deref(), Some("stats.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn build_snapshot_defaults_and_validation() {
        let cmd = parse(&argv("build-snapshot --out g.psrz")).unwrap();
        match cmd {
            Command::BuildSnapshot { opts } => {
                assert_eq!(opts.preset, "livejournal");
                assert_eq!(opts.shards, 8);
                assert_eq!(opts.arc_budget, 4 * 1024 * 1024);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("build-snapshot")).is_err(), "--out is required");
        assert!(parse(&argv("build-snapshot --out g --preset bogus")).is_err());
        assert!(parse(&argv("build-snapshot --out g --shards 0")).is_err());
        assert!(parse(&argv("build-snapshot --out g --arc-budget 0")).is_err());
        assert!(parse(&argv("build-snapshot --out g --scale 2")).is_err());
    }

    #[test]
    fn serve_accepts_backend_and_snapshot() {
        let cmd = parse(&argv("serve --requests r.json --backend compressed")).unwrap();
        match cmd {
            Command::Serve { opts } => assert_eq!(opts.serving.backend, "compressed"),
            other => panic!("{other:?}"),
        }
        // --snapshot implies the compressed backend and excludes --input.
        let cmd = parse(&argv("serve --requests r.json --snapshot g.psrz")).unwrap();
        match cmd {
            Command::Serve { opts } => {
                assert_eq!(opts.serving.backend, "compressed");
                assert_eq!(opts.serving.snapshot.as_deref(), Some("g.psrz"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --requests r.json --backend bogus")).is_err());
        assert!(parse(&argv("serve --requests r.json --snapshot g --backend csr")).is_err());
        assert!(parse(&argv("serve --requests r.json --snapshot g --input e.txt")).is_err());
        // The snapshot implication is argument-order independent.
        assert!(parse(&argv("serve --requests r.json --backend csr --snapshot g")).is_err());
    }

    #[test]
    fn daemon_and_attack_accept_backends() {
        match parse(&argv("daemon --backend compressed --preset livejournal --scale 0.01")).unwrap()
        {
            Command::Daemon { opts } => {
                assert_eq!(opts.serving.backend, "compressed");
                assert_eq!(opts.serving.preset, "livejournal");
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("attack --snapshot g.psrz")).unwrap() {
            Command::Attack { opts } => {
                assert_eq!(opts.backend, "compressed");
                assert_eq!(opts.snapshot.as_deref(), Some("g.psrz"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("daemon --backend bogus")).is_err());
        assert!(parse(&argv("attack --backend csr --snapshot g")).is_err());
        // Defaults stay csr with no snapshot.
        match parse(&argv("daemon")).unwrap() {
            Command::Daemon { opts } => {
                assert_eq!(opts.serving.backend, "csr");
                assert_eq!(opts.serving.snapshot, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_frontier() {
        let cmd = parse(&argv(
            "frontier --plan plan.json --out f.json --journal f.journal \
             --max-cells 2 --threads 3",
        ))
        .unwrap();
        match cmd {
            Command::Frontier { opts } => {
                assert_eq!(opts.plan.as_deref(), Some("plan.json"));
                assert_eq!(opts.out, "f.json");
                assert_eq!(opts.journal.as_deref(), Some("f.journal"));
                assert_eq!(opts.max_cells, Some(2));
                assert_eq!(opts.threads, Some(3));
                assert!(!opts.no_journal);
                assert_eq!(opts.write_plan, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frontier_defaults_and_validation() {
        let cmd = parse(&argv("frontier")).unwrap();
        match cmd {
            Command::Frontier { opts } => {
                assert_eq!(opts, FrontierOptions::default());
                assert_eq!(opts.out, "frontier.json");
                assert_eq!(opts.plan, None);
                assert_eq!(opts.journal, None);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("frontier --write-plan plan.json")).unwrap() {
            Command::Frontier { opts } => {
                assert_eq!(opts.write_plan.as_deref(), Some("plan.json"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("frontier --max-cells 0")).is_err());
        assert!(parse(&argv("frontier --no-journal --journal j")).is_err());
        assert!(parse(&argv("frontier --no-journal --max-cells 1")).is_err());
        assert!(parse(&argv("frontier --plan")).is_err());
        assert!(parse(&argv("frontier --bogus")).is_err());
    }

    #[test]
    fn telemetry_flags_parse_on_serve_daemon_and_frontier() {
        match parse(&argv("serve --requests r.json --metrics-out m.json --trace t.jsonl")).unwrap()
        {
            Command::Serve { opts } => {
                assert_eq!(opts.serving.metrics_out.as_deref(), Some("m.json"));
                assert_eq!(opts.serving.trace.as_deref(), Some("t.jsonl"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("daemon --metrics-out m.json --trace t.jsonl --heartbeat 5")).unwrap() {
            Command::Daemon { opts } => {
                assert_eq!(opts.serving.metrics_out.as_deref(), Some("m.json"));
                assert_eq!(opts.serving.trace.as_deref(), Some("t.jsonl"));
                assert_eq!(opts.heartbeat, Some(5));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("frontier --metrics-out m.json --trace t.jsonl --heartbeat 2")).unwrap() {
            Command::Frontier { opts } => {
                assert_eq!(opts.metrics_out.as_deref(), Some("m.json"));
                assert_eq!(opts.trace.as_deref(), Some("t.jsonl"));
                assert_eq!(opts.heartbeat, Some(2));
            }
            other => panic!("{other:?}"),
        }
        // Telemetry stays off by default, and heartbeats must be positive.
        match parse(&argv("daemon")).unwrap() {
            Command::Daemon { opts } => {
                assert_eq!(opts.serving.metrics_out, None);
                assert_eq!(opts.serving.trace, None);
                assert_eq!(opts.heartbeat, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("daemon --heartbeat 0")).is_err());
        assert!(parse(&argv("frontier --heartbeat x")).is_err());
        assert!(parse(&argv("daemon --metrics-out")).is_err());
        assert!(parse(&argv("serve --requests r.json --trace")).is_err());
    }

    #[test]
    fn shared_axis_parsers_reject_consistently() {
        // The same allow-lists guard every subcommand that takes the axis.
        for cmd in ["recommend --target 1", "serve --requests r.json", "daemon", "attack"] {
            assert!(parse(&argv(&format!("{cmd} --utility nope"))).is_err(), "{cmd}");
            assert!(parse(&argv(&format!("{cmd} --epsilon 0"))).is_err(), "{cmd}");
            assert!(parse(&argv(&format!("{cmd} --epsilon inf"))).is_err(), "{cmd}");
            assert!(parse(&argv(&format!("{cmd} --scale 2"))).is_err(), "{cmd}");
        }
        for cmd in ["serve --requests r.json", "daemon", "attack"] {
            assert!(parse(&argv(&format!("{cmd} --engine bogus"))).is_err(), "{cmd}");
        }
    }

    #[test]
    fn defaults_are_paper_scale() {
        let cmd = parse(&argv("figure 2a")).unwrap();
        match cmd {
            Command::Figure { opts, .. } => {
                assert_eq!(opts.scale, 1.0);
                assert_eq!(opts.seed, 42);
                assert!(!opts.laplace);
                assert_eq!(opts.trials, 1000);
            }
            other => panic!("{other:?}"),
        }
    }
}
