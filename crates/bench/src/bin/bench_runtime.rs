//! End-to-end runtime throughput benchmark for the batched transport.
//!
//! Two workloads:
//! * **chain** — a spout → shuffle map stage → shuffle aggregation stage,
//!   pure transport with trivial per-message work, measured at
//!   several batch sizes. This isolates the per-envelope costs the
//!   micro-batching amortizes.
//! * **join** — the real Fig. 2 join topology on nbData, batched vs
//!   unbatched.
//! * **sched** — the unbatched join topology at m ∈ {4, 16, 64} joiners:
//!   the scheduling cost of m ≫ cores tasks on the work-stealing pool.
//! * **sliding** — the join topology covering the same window span chained
//!   from 1, 4, or 16 panes. `--check` gates the 16-pane over the 1-pane
//!   run, the observable consequence of O(pane) eviction.
//!
//! Modes:
//! * no args: run the smoke *and* full suites and write `BENCH_runtime.json`
//!   at the repository root;
//! * `--smoke`: run only the (fast) smoke suite, write the same file;
//! * `--check FILE`: rerun the smoke suite (twice if need be), print every
//!   rate next to the baseline's in FILE, and exit non-zero if one of the
//!   in-process ratios in [`GATED`] stays below 0.75x of the baseline's;
//! * `--overhead`: run the paired metrics-off / metrics-on join comparison
//!   and exit non-zero if the metrics-enabled run falls more than 5% behind
//!   (observability overhead budget).
//!
//! The JSON is written one measurement per line so the `--check` mode (and
//! shell tooling) can parse it without a JSON library.

use ssj_bench::report::{best_of, check_ratios, write_report, Measurement};
use ssj_bench::DataSet;
use ssj_core::{run_topology, run_topology_collect, DistRuntime, Reader, StreamJoinConfig};
use ssj_runtime::{fn_bolt, run, Bolt, FaultPlan, Grouping, Outbox, TopologyBuilder, VecSpout};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Terminal aggregation stage: sums locally, publishes once on shutdown.
struct SumBolt {
    local: u64,
    total: Arc<AtomicU64>,
}

impl Bolt<u64> for SumBolt {
    fn execute(&mut self, msg: u64, _out: &mut Outbox<u64>) {
        self.local += msg;
    }
    fn finish(&mut self, _out: &mut Outbox<u64>) {
        self.total.fetch_add(self.local, Ordering::SeqCst);
    }
}

/// spout → map x3 (shuffle) → sum x3 (shuffle): transport-bound chain. The
/// total does not depend on which sum task gets each tuple.
fn chain_run(n: u64, batch: usize) -> Measurement {
    let total = Arc::new(AtomicU64::new(0));
    let t2 = Arc::clone(&total);
    let t = TopologyBuilder::new()
        .batch_size(batch)
        .spout("src", 1, move |_| {
            VecSpout::boxed((0..n).collect::<Vec<u64>>())
        })
        .bolt("map", 3, |_| {
            fn_bolt(|x: u64, out: &mut Outbox<u64>| out.emit(x))
        })
        .subscribe("src", Grouping::Shuffle)
        .done()
        .bolt("sum", 3, move |_| {
            Box::new(SumBolt {
                local: 0,
                total: Arc::clone(&t2),
            })
        })
        .subscribe("map", Grouping::Shuffle)
        .done()
        .build()
        .unwrap();
    let start = Instant::now();
    let report = run(t).unwrap();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(
        total.load(Ordering::SeqCst),
        n * (n - 1) / 2,
        "chain lost or duplicated tuples"
    );
    // Tuples crossing an edge: n into map, n into sum.
    let tuples = report.received("map") + report.received("sum");
    Measurement {
        id: format!("chain/batch={batch}"),
        tuples_per_sec: tuples as f64 / secs,
        tuples,
        secs,
        avg_batch: report.avg_batch_size("src"),
    }
}

/// The real join topology on nbData documents, with or without the full
/// observability layer (histograms + per-window snapshots + trace).
fn join_run(docs_n: usize, window: usize, batch: usize, metrics: bool) -> Measurement {
    let (dict, docs) = DataSet::NbData.generate(docs_n, 42);
    let cfg = StreamJoinConfig::default()
        .with_m(4)
        .with_window_spec(ssj_core::WindowSpec::tumbling(window))
        .with_expansion(false)
        .with_batch_size(batch)
        .with_metrics(metrics)
        .build()
        .unwrap();
    let start = Instant::now();
    let report = run_topology(cfg, &dict, docs).unwrap();
    let secs = start.elapsed().as_secs_f64();
    // NoBench documents share wide attribute sets with mostly distinct
    // values, so the natural join is near-empty — the bench measures the
    // transport+routing cost, and only window conservation is asserted.
    assert_eq!(
        report.joins_per_window.len(),
        docs_n / window,
        "join topology lost windows"
    );
    if metrics {
        assert!(
            !report.runtime.windows.is_empty(),
            "metrics run produced no per-window snapshots"
        );
    }
    let tag = if metrics { "/metrics" } else { "" };
    Measurement {
        id: format!("join/nbData{tag}/batch={batch}"),
        tuples_per_sec: docs_n as f64 / secs,
        tuples: docs_n as u64,
        secs,
        avg_batch: report.runtime.avg_batch_size("reader"),
    }
}

/// Scheduling cost (DESIGN.md §4e): the real join topology at `m` joiners.
/// At m=64 some 75 tasks share one pool worker per core — the m ≫ cores
/// regime the end-to-end benchmark (m=4) cannot see.
///
/// Runs unbatched (batch=1): scheduling cost is paid per envelope, so this
/// is the configuration where it is visible rather than amortized away.
/// Batching amortization is the chain suite's measurement, not this one's.
fn sched_run(docs_n: usize, window: usize, m: usize) -> Measurement {
    let (dict, docs) = DataSet::NbData.generate(docs_n, 42);
    let cfg = StreamJoinConfig::default()
        .with_m(m)
        .with_window_spec(ssj_core::WindowSpec::tumbling(window))
        .with_expansion(false)
        .with_batch_size(1)
        .build()
        .unwrap();
    let start = Instant::now();
    let report = run_topology(cfg, &dict, docs).unwrap();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(
        report.joins_per_window.len(),
        docs_n / window,
        "join topology lost windows"
    );
    Measurement {
        id: format!("sched/m={m}"),
        tuples_per_sec: docs_n as f64 / secs,
        tuples: docs_n as u64,
        secs,
        avg_batch: report.runtime.avg_batch_size("reader"),
    }
}

/// Edge-transport comparison (DESIGN.md §4f): the same Fig. 2 join topology
/// with every edge in-process (`workers=1`) versus sharded over a 2-member
/// Unix-socket group, cross-worker edges paying the full binary-codec +
/// frame + kernel-socket path. Group members run as threads here — like the
/// core `distributed_equivalence` suite — sharing no dictionary and talking
/// only through the socket mesh, so the measured delta is the wire cost,
/// not process-spawn cost.
fn transport_run(docs_n: usize, window: usize, socket: bool) -> Measurement {
    let workers = if socket { 2 } else { 1 };
    let cfg = StreamJoinConfig::default()
        .with_m(4)
        .with_window_spec(ssj_core::WindowSpec::tumbling(window))
        .with_expansion(false)
        .with_batch_size(64)
        .with_workers(workers)
        .build()
        .unwrap();
    let (secs, report) = if socket {
        let dir = std::env::temp_dir().join(format!("ssj-bench-transport-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Each member builds its own dictionary before the clock starts:
        // deploy-time work, not steady-state transport.
        let streams: Vec<_> = (0..workers)
            .map(|_| DataSet::NbData.generate(docs_n, 42))
            .collect();
        let start = Instant::now();
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(w, (dict, docs))| {
                let dir = dir.clone();
                let cfg = cfg.clone();
                std::thread::spawn(move || {
                    let dr = DistRuntime {
                        workers,
                        my_worker: w,
                        socket_dir: dir,
                        attempt: 0,
                    };
                    let reader = Reader::Docs(docs.into_iter().map(Arc::new).collect());
                    run_topology_collect(cfg, &dict, reader, FaultPlan::new(), Some(&dr)).unwrap()
                })
            })
            .collect();
        let mut reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let secs = start.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        (secs, reports.remove(0))
    } else {
        let (dict, docs) = DataSet::NbData.generate(docs_n, 42);
        let start = Instant::now();
        let report = run_topology(cfg, &dict, docs).unwrap();
        (start.elapsed().as_secs_f64(), report)
    };
    assert_eq!(
        report.joins_per_window.len(),
        docs_n / window,
        "transport topology lost windows"
    );
    let tag = if socket { "socket" } else { "inproc" };
    Measurement {
        id: format!("transport/{tag}/batch=64"),
        tuples_per_sec: docs_n as f64 / secs,
        tuples: docs_n as u64,
        secs,
        avg_batch: report.runtime.avg_batch_size("reader"),
    }
}

/// Sliding-window comparison (DESIGN.md §4g): the join topology covering
/// the same `window` span of documents chained from 1, 4, or 16 panes.
/// Pane-chained state makes eviction O(pane) — a boundary freezes the open
/// pane and drops exactly one expired pane — so slicing a window 16 ways
/// buys fine-grained slides without rebuilding per-window state from
/// scratch 16 times. The `--check` gate on panes=16 over panes=1 is what
/// guards that claim: O(window)-per-boundary eviction would pay the full
/// window cost at every slide and collapse the ratio. (The cost that does
/// remain with more panes is punctuation cadence: 16x more alignments and
/// 16x smaller effective batches at the pane-boundary flushes.)
fn sliding_run(docs_n: usize, window: usize, panes: usize) -> Measurement {
    let (dict, docs) = DataSet::NbData.generate(docs_n, 42);
    let spec = ssj_core::WindowSpec::sliding(window / panes, panes);
    let cfg = StreamJoinConfig::default()
        .with_m(4)
        .with_window_spec(spec)
        .with_expansion(false)
        .with_batch_size(64)
        .build()
        .unwrap();
    let start = Instant::now();
    let report = run_topology(cfg, &dict, docs).unwrap();
    let secs = start.elapsed().as_secs_f64();
    // Under sliding windows join output is keyed per pane.
    assert_eq!(
        report.joins_per_window.len(),
        docs_n / spec.pane_docs(),
        "sliding topology lost panes"
    );
    Measurement {
        id: format!("sliding/panes={panes}"),
        tuples_per_sec: docs_n as f64 / secs,
        tuples: docs_n as u64,
        secs,
        avg_batch: report.runtime.avg_batch_size("reader"),
    }
}

/// Same window span sliced into 1, 4, and 16 panes.
fn sliding_suite(name: &str, reps: usize, docs_n: usize, window: usize) -> Vec<Measurement> {
    let mut out = Vec::new();
    for &panes in &[1usize, 4, 16] {
        let meas = best_of(reps, || sliding_run(docs_n, window, panes));
        println!(
            "{name}: {} -> {:.0} docs/s ({} docs in {:.3}s)",
            meas.id, meas.tuples_per_sec, meas.tuples, meas.secs
        );
        out.push(meas);
    }
    out
}

/// Paired in-process vs 2-worker-socket measurements of the join topology.
fn transport_suite(name: &str, reps: usize, join_n: usize) -> Vec<Measurement> {
    let mut out = Vec::new();
    for socket in [false, true] {
        let meas = best_of(reps, || transport_run(join_n, join_n / 3, socket));
        println!(
            "{name}: {} -> {:.0} docs/s ({} docs in {:.3}s)",
            meas.id, meas.tuples_per_sec, meas.tuples, meas.secs
        );
        out.push(meas);
    }
    out
}

/// Unbatched join measurements at m ∈ {4, 16, 64}.
fn sched_suite(name: &str, reps: usize, join_n: usize) -> Vec<Measurement> {
    let mut out = Vec::new();
    for &m in &[4usize, 16, 64] {
        let meas = best_of(reps, || sched_run(join_n, join_n / 3, m));
        println!(
            "{name}: {} -> {:.0} docs/s ({} docs in {:.3}s)",
            meas.id, meas.tuples_per_sec, meas.tuples, meas.secs
        );
        out.push(meas);
    }
    out
}

fn run_suite(
    name: &str,
    reps: usize,
    chain_n: u64,
    chain_batches: &[usize],
    join_n: usize,
) -> Vec<Measurement> {
    let mut out = Vec::new();
    for &b in chain_batches {
        let m = best_of(reps, || chain_run(chain_n, b));
        println!(
            "{name}: {} -> {:.0} tuples/s ({} tuples in {:.3}s, avg batch {:.1})",
            m.id, m.tuples_per_sec, m.tuples, m.secs, m.avg_batch
        );
        out.push(m);
    }
    for &b in &[1usize, 64] {
        let m = best_of(reps, || join_run(join_n, join_n / 3, b, false));
        println!(
            "{name}: {} -> {:.0} docs/s ({} docs in {:.3}s, avg batch {:.1})",
            m.id, m.tuples_per_sec, m.tuples, m.secs, m.avg_batch
        );
        out.push(m);
    }
    // The same join with the full observability layer on: histograms on the
    // hot path, a collector snapshotting per punctuation, and the trace
    // ring. Its rate versus the metrics-off run above is the overhead gate.
    let m = best_of(reps, || join_run(join_n, join_n / 3, 64, true));
    println!(
        "{name}: {} -> {:.0} docs/s ({} docs in {:.3}s, avg batch {:.1})",
        m.id, m.tuples_per_sec, m.tuples, m.secs, m.avg_batch
    );
    out.push(m);
    out
}

/// Paired metrics-off / metrics-on comparison; returns the on/off ratio.
///
/// Each rep runs off then on back-to-back and the *best* paired ratio is
/// reported — the same reasoning as `best_of`: external load on a shared
/// machine only ever slows a run down, so the cleanest pair is the one
/// closest to the true overhead, and an unlucky off/on pairing across
/// independent best-ofs would measure noise, not instrumentation.
fn overhead_ratio(reps: usize, join_n: usize) -> f64 {
    let mut best = f64::MIN;
    for _ in 0..reps {
        let off = join_run(join_n, join_n / 3, 64, false);
        let on = join_run(join_n, join_n / 3, 64, true);
        let ratio = on.tuples_per_sec / off.tuples_per_sec;
        println!(
            "overhead: metrics off {:.0} docs/s, on {:.0} docs/s ({:.3}x)",
            off.tuples_per_sec, on.tuples_per_sec, ratio
        );
        best = best.max(ratio);
    }
    println!("overhead: best paired ratio {best:.3}x over {reps} reps");
    best
}

/// Exit code for the 5% observability-overhead budget.
fn overhead_gate(ratio: f64) -> i32 {
    if ratio < 0.95 {
        eprintln!(
            "metrics overhead exceeds the 5% budget ({:.1}% slower)",
            (1.0 - ratio) * 100.0
        );
        1
    } else {
        println!("metrics overhead within the 5% budget");
        0
    }
}

fn smoke() -> Vec<Measurement> {
    // Five reps and a fairly large chain keep the fastest run stable enough
    // for the ratio gates on a shared machine. The scheduler rows
    // use fewer reps but a longer stream: the rate only stabilizes once
    // per-window scheduling costs dominate fixed startup.
    let mut s = run_suite("smoke", 5, 400_000, &[1, 32], 4_500);
    s.extend(sched_suite("smoke", 3, 12_000));
    s.extend(transport_suite("smoke", 3, 12_000));
    // Window span divisible by 16 so every pane count tiles it exactly.
    s.extend(sliding_suite("smoke", 3, 4_800, 1_600));
    s
}

fn full() -> Vec<Measurement> {
    let mut f = run_suite("full", 3, 600_000, &[1, 8, 32, 128], 12_000);
    f.extend(sched_suite("full", 2, 12_000));
    f.extend(transport_suite("full", 2, 24_000));
    f.extend(sliding_suite("full", 2, 12_800, 1_600));
    f
}

const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");

fn speedup_summary(ms: &[Measurement]) {
    let rate = |id: &str| ms.iter().find(|m| m.id == id).map(|m| m.tuples_per_sec);
    if let (Some(b1), Some(b32)) = (rate("chain/batch=1"), rate("chain/batch=32")) {
        println!("chain speedup batch=32 vs batch=1: {:.2}x", b32 / b1);
    }
    if let (Some(b1), Some(b64)) = (rate("join/nbData/batch=1"), rate("join/nbData/batch=64")) {
        println!("join speedup batch=64 vs batch=1: {:.2}x", b64 / b1);
    }
    if let (Some(inproc), Some(socket)) = (
        rate("transport/inproc/batch=64"),
        rate("transport/socket/batch=64"),
    ) {
        println!(
            "transport socket vs inproc: {:.2}x (wire cost of the 2-worker split)",
            socket / inproc
        );
    }
    if let (Some(one), Some(sixteen)) = (rate("sliding/panes=1"), rate("sliding/panes=16")) {
        println!(
            "sliding 16 panes vs 1: {:.2}x (slide granularity cost at O(pane) eviction)",
            sixteen / one
        );
    }
}

/// What `--check` gates: `(numerator, denominator)` rows of one smoke run.
/// Each is a cost the runtime is designed to keep bounded — O(pane)
/// eviction, the wire path of a 2-worker split, batching amortization — as a
/// ratio of two rates measured seconds apart, so the host's speed of the day
/// cancels. An absolute per-row gate was red on 4 of 5 runs of untouched
/// code here, on different rows each time (EXPERIMENTS.md "One group build").
const GATED: [(&str, &str); 3] = [
    ("sliding/panes=16", "sliding/panes=1"),
    ("transport/socket/batch=64", "transport/inproc/batch=64"),
    ("chain/batch=32", "chain/batch=1"),
];

fn check(baseline_path: &str) -> i32 {
    let pairs = GATED.map(|(num, den)| (num.to_string(), den.to_string()));
    check_ratios(baseline_path, &pairs, smoke)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") => {
            let Some(path) = args.get(1) else {
                eprintln!("--check requires a baseline file path");
                std::process::exit(2);
            };
            std::process::exit(check(path));
        }
        Some("--smoke") => {
            let s = smoke();
            speedup_summary(&s);
            write_report(REPORT_PATH, "runtime", &[("smoke", &s)]);
        }
        Some("--overhead") => {
            // Longer paired runs than the smoke suite: the on/off ratio sits
            // within a couple percent of 1.0, so per-run constant noise on a
            // short stream dominates the signal.
            let ratio = overhead_ratio(5, 12_000);
            std::process::exit(overhead_gate(ratio));
        }
        None => {
            let s = smoke();
            let f = full();
            speedup_summary(&s);
            speedup_summary(&f);
            write_report(REPORT_PATH, "runtime", &[("smoke", &s), ("full", &f)]);
        }
        Some(other) => {
            eprintln!(
                "unknown argument {other}; usage: bench_runtime [--smoke | --overhead | --check FILE]"
            );
            std::process::exit(2);
        }
    }
}
