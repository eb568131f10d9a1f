//! Schema gate for the committed `BENCH_*.json` perf snapshots.
//!
//! The snapshots are produced by real bench runs (`cargo bench -p
//! psr-bench --bench serving` / `--bench kernels`) and committed at the
//! repository root as the perf baseline. CI cannot re-time them reliably,
//! but it can — cheaply and deterministically — check that the committed
//! artifacts are well-formed, cover every case the benches emit, and
//! still record the optimised kernels winning their baselines. A bench
//! rename or a regression snapshot fails here before it lands.

use serde::Deserialize;

#[derive(Debug, Deserialize)]
struct Snapshot {
    bench: String,
    git_sha: String,
    date: String,
    cases: Vec<Case>,
    gauges: Vec<Gauge>,
}

#[derive(Debug, Deserialize)]
struct Case {
    id: String,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

/// A point-in-time measurement next to the timed cases. Every snapshot
/// must carry the array (empty is fine), and every entry must carry an
/// explicit unit — an unlabelled number in a committed baseline is
/// unreadable later, so the gate rejects it.
#[derive(Debug, Deserialize)]
struct Gauge {
    id: String,
    value: f64,
    unit: String,
}

fn load(bench: &str) -> Snapshot {
    let path = psr_bench::snapshot::repo_root().join(format!("BENCH_{bench}.json"));
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed snapshot {}: {e}", path.display()));
    let snapshot: Snapshot =
        serde_json::from_str(&raw).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
    assert_eq!(snapshot.bench, bench, "snapshot names the wrong bench");
    assert_eq!(snapshot.git_sha.len(), 40, "git_sha must be a full commit SHA");
    assert!(snapshot.git_sha.bytes().all(|b| b.is_ascii_hexdigit()), "{}", snapshot.git_sha);
    let date = snapshot.date.as_bytes();
    assert!(
        date.len() == 10 && date[4] == b'-' && date[7] == b'-',
        "date must be YYYY-MM-DD, got {}",
        snapshot.date
    );
    for case in &snapshot.cases {
        assert!(
            case.median_ns.is_finite() && case.median_ns > 0.0,
            "{}: bad median {}",
            case.id,
            case.median_ns
        );
        assert!(
            case.min_ns <= case.median_ns && case.median_ns <= case.max_ns,
            "{}: min {} / median {} / max {} out of order",
            case.id,
            case.min_ns,
            case.median_ns,
            case.max_ns
        );
    }
    for gauge in &snapshot.gauges {
        assert!(gauge.value.is_finite(), "{}: non-finite gauge value", gauge.id);
        assert!(
            !gauge.unit.trim().is_empty(),
            "{}: unitless gauge (every gauge must name its unit)",
            gauge.id
        );
    }
    snapshot
}

fn median(snapshot: &Snapshot, id: &str) -> f64 {
    snapshot
        .cases
        .iter()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("snapshot {} is missing case {id}", snapshot.bench))
        .median_ns
}

#[test]
fn serving_snapshot_covers_every_case() {
    let snapshot = load("serving");
    for id in [
        "serving_k1/batch_pool",
        "serving_k1/sequential_recommender",
        "serving_k5/batch_pool",
        "serving_k5/sequential_recommender",
        "serving_topk_peel/k1",
        "serving_topk_peel/k8",
        "serving_topk_peel/k32",
        "serving_topk_gumbel/k1",
        "serving_topk_gumbel/k8",
        "serving_topk_gumbel/k32",
        "serving_engines_ba10k/peel_k5",
        "serving_engines_ba10k/gumbel_k5",
    ] {
        median(&snapshot, id);
    }
}

#[test]
fn serving_snapshot_shows_gumbel_beating_peel_at_large_k() {
    // The committed run must record the one-pass engine winning where the
    // peel's O(k·|C|) rescans dominate; re-snapshotting a regression is a
    // visible act, not a silent drift.
    let snapshot = load("serving");
    for k in ["k8", "k32"] {
        let peel = median(&snapshot, &format!("serving_topk_peel/{k}"));
        let gumbel = median(&snapshot, &format!("serving_topk_gumbel/{k}"));
        assert!(
            gumbel < peel,
            "committed snapshot has gumbel {gumbel} ns >= peel {peel} ns at {k}"
        );
    }
}

#[test]
fn daemon_snapshot_covers_every_case_and_stays_near_the_one_shot_path() {
    // The committed run must record the daemon's queueing machinery
    // costing at most 2x the bare one-shot replay of the same events —
    // the pipeline buys always-on ingestion, not a throughput regression.
    let snapshot = load("daemon");
    let daemon = median(&snapshot, "daemon_pipeline/daemon_loop");
    let oneshot = median(&snapshot, "daemon_pipeline/oneshot_replay");
    assert!(
        daemon <= 2.0 * oneshot,
        "committed snapshot has the daemon loop at {daemon} ns, past 2x one-shot {oneshot} ns"
    );
    median(&snapshot, "daemon_ledger/memory_ledger");
    median(&snapshot, "daemon_ledger/journal_fsync");
}

fn gauge(snapshot: &Snapshot, id: &str) -> f64 {
    let gauge = snapshot
        .gauges
        .iter()
        .find(|g| g.id == id)
        .unwrap_or_else(|| panic!("snapshot {} is missing gauge {id}", snapshot.bench));
    assert!(gauge.value.is_finite() && gauge.value > 0.0, "{id}: bad value {}", gauge.value);
    assert!(!gauge.unit.is_empty(), "{id}: empty unit");
    gauge.value
}

#[test]
fn graph_backend_snapshot_covers_every_case_and_keeps_the_wins() {
    let snapshot = load("graph_backend");
    let csr = median(&snapshot, "graph_backend_scan/csr");
    let warm = median(&snapshot, "graph_backend_scan/compressed_warm");
    let cold = median(&snapshot, "graph_backend_scan/compressed_workspace");
    median(&snapshot, "graph_backend_open/validate_open");
    // Mirrors the in-bench gates: steady-state compressed reads must stay
    // cheap, and the committed artifact must prove it.
    assert!(warm <= 3.0 * csr, "committed warm compressed scan {warm} ns vs csr {csr} ns");
    assert!(cold <= 25.0 * csr, "committed workspace decode {cold} ns vs csr {csr} ns");

    let snapshot_bytes = gauge(&snapshot, "graph_backend/snapshot_bytes");
    let csr_bytes = gauge(&snapshot, "graph_backend/csr_resident_bytes");
    gauge(&snapshot, "graph_backend/peak_rss_bytes");
    assert!(
        snapshot_bytes < csr_bytes,
        "the compressed snapshot ({snapshot_bytes} B) must beat the resident CSR ({csr_bytes} B)"
    );
}

#[test]
fn frontier_snapshot_covers_every_case_and_keeps_the_replay_win() {
    // Resuming a finished sweep must beat recomputing it — the committed
    // baseline proves the journal replay path pays for its fsyncs.
    let snapshot = load("frontier");
    let memory = median(&snapshot, "frontier_sweep/toy_memory");
    let journalled = median(&snapshot, "frontier_sweep/toy_journalled");
    let replay = median(&snapshot, "frontier_sweep/journal_replay");
    assert!(
        replay < memory,
        "committed snapshot has journal replay at {replay} ns, not beating recompute {memory} ns"
    );
    assert!(journalled > 0.0);
    let cells = gauge(&snapshot, "frontier/cells");
    assert_eq!(cells, 3.0, "the toy plan expands to 3 cells");
    gauge(&snapshot, "frontier/report_bytes");
    gauge(&snapshot, "frontier/journal_bytes");
}

#[test]
fn obs_snapshot_keeps_telemetry_overhead_within_five_percent() {
    // The telemetry layer's contract: watching the serving hot path may
    // cost at most 5% — the committed baseline must prove it, so a
    // regression snapshot is a visible act, not a silent drift.
    let snapshot = load("obs");
    let plain = median(&snapshot, "obs_overhead/uninstrumented_serving");
    let instrumented = median(&snapshot, "obs_overhead/instrumented_serving");
    assert!(
        instrumented <= 1.05 * plain,
        "committed snapshot has instrumented serving at {instrumented} ns, past 5% over \
         uninstrumented {plain} ns"
    );
    // Record ops stay single-RMW cheap, and the disabled handles cost
    // (much) less than the live ones — zero-cost-when-off, committed.
    let inc = median(&snapshot, "obs_ops/counter_inc");
    median(&snapshot, "obs_ops/histogram_record");
    median(&snapshot, "obs_ops/disabled_counter_inc");
    assert!(inc < 1_000.0, "a live counter inc must stay nanoseconds-cheap, got {inc} ns");
    gauge(&snapshot, "obs/counter_inc_ns");
    gauge(&snapshot, "obs/histogram_record_ns");
    gauge(&snapshot, "obs/disabled_counter_inc_ns");
}

#[test]
fn kernels_snapshot_covers_every_case_and_keeps_the_wins() {
    let snapshot = load("kernels");
    let gallop = median(&snapshot, "kernels_intersection/gallop_hub_leaf");
    let linear = median(&snapshot, "kernels_intersection/linear_merge_baseline");
    assert!(gallop < linear, "committed snapshot lost the galloping win: {gallop} vs {linear}");
    let reused = median(&snapshot, "kernels_counter/reused_workspace");
    let fresh = median(&snapshot, "kernels_counter/fresh_workspace");
    assert!(reused < fresh, "committed snapshot lost the reuse win: {reused} vs {fresh}");
}
