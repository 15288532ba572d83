//! Open-loop tail-latency benchmark for the Fig. 2 join topology.
//!
//! A deterministic arrival schedule (see [`ssj_bench::traffic`]) is
//! replayed by a paced spout against real time; every document's
//! end-to-end latency — intended arrival to window report — lands in a
//! histogram per window, and this binary reports the pooled p50/p99/p999.
//! Three workloads:
//!
//! * **constant** — uniform sessionized stream at a constant rate,
//!   replication off: the baseline tail the regression gate tracks.
//! * **zipf** — heavily skewed stream (Zipf s=1.5 over 8 sessions), paced
//!   identically with replication OFF and ON. The hot session's quadratic
//!   join load lands on one joiner without replication and spreads over
//!   the replica cells with it, which is what the paired gate measures.
//! * **bursty** — on/off arrival bursts with a small shed budget: reports
//!   the drop counters and asserts their conservation
//!   (`offered == dropped + passed`).
//!
//! Modes:
//! * no args: run all workloads, print per-window quantiles, write
//!   `BENCH_latency.json` at the repository root;
//! * `--check FILE`: rerun and exit non-zero when (a) the constant-profile
//!   p99 exceeds 4x the committed baseline (tail latency on a shared
//!   machine is noisy; 4x still catches an accidental sync stall), or
//!   (b) under the Zipf workload, the straggler joiner's p99 probe load
//!   with replication ON exceeds 0.7x the replication-OFF value — the
//!   scale-out claim of DESIGN.md §4h, gated on one seed and one schedule
//!   so the comparison is paired.
//!
//! Gate (b) deliberately measures probe load (candidate pairs per
//! window-close join, `probe_pairs_p99`) rather than a wall-clock tail.
//! On a core-starved CI runner every topology thread time-slices on the
//! same CPUs, so each joiner's wall-clock probe duration — and the
//! end-to-end tail behind it — approaches the *total* work of all
//! concurrent joiners, which systematically hides the straggler effect
//! replication removes. The probe load is what a Zipfian hot group
//! inflates (one joiner holds the whole quadratic blow-up) and what
//! replication provably splits across replica cells; with one joiner per
//! core it is proportional to the deployed window-close latency, and
//! being a pure count it is deterministic per seed, so the gate never
//! flakes. Wall-clock quantiles are still reported for context.
//!
//! Latencies are written in microseconds, one measurement per line, so
//! `--check` (and shell tooling) can parse the file without a JSON
//! library.

use ssj_bench::report::extract_num;
use ssj_bench::traffic::{sessionized_docs, ArrivalProfile, SkewConfig};
use ssj_core::{run_topology_paced, LatencyReport, StreamJoinConfig, WindowSpec};
use ssj_runtime::FaultPlan;

const REPORT_PATH: &str = "BENCH_latency.json";
const WINDOW: usize = 3000;
const WINDOWS: usize = 6;
const N: usize = WINDOW * WINDOWS;

/// One latency measurement: pooled quantiles plus the shed counters of the
/// run (zero with shedding off).
struct LatencyRow {
    id: String,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    /// Straggler probe p99: max over joiners of the per-window
    /// window-close join duration p99. Wall-clock — context only.
    probe_p99_us: f64,
    /// Straggler probe load p99: p99 over the per-(joiner, window)
    /// candidate-pair counts of the steady-state windows (window 0 is the
    /// detection window — hot lists computed from it take effect from
    /// window 1). Deterministic per seed; the gated value.
    probe_pairs_p99: u64,
    shed_offered: u64,
    shed_dropped: u64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Run one paced topology and collect quantiles + shed counters. Panics if
/// the shed counters fail conservation — no run may lose envelopes
/// unaccounted.
fn paced_run(
    id: &str,
    cfg: StreamJoinConfig,
    skew: SkewConfig,
    profile: ArrivalProfile,
    jitter: f64,
) -> (LatencyRow, LatencyReport) {
    let (dict, docs) = sessionized_docs(N, skew);
    let schedule = profile.schedule(N, skew.seed, jitter);
    let (report, lat) = run_topology_paced(cfg, &dict, docs, schedule, FaultPlan::new()).unwrap();

    let (mut offered, mut dropped, mut passed) = (0u64, 0u64, 0u64);
    let mut probe_p99 = 0u64;
    for t in report
        .runtime
        .tasks
        .iter()
        .filter(|t| t.component == "joiner")
    {
        offered += t.counter("shed_offered");
        dropped += t.counter("shed_dropped");
        passed += t.counter("shed_passed");
        if let Some(h) = t.histogram("probe_ns") {
            probe_p99 = probe_p99.max(h.quantile_ns(0.99));
        }
    }

    // Straggler probe load: per-(joiner, window) candidate-pair counts as
    // reported in each joiner's JoinStats — exact and deterministic per
    // seed. Window 0 is skipped: it is the detection window, whose hot
    // lists govern routing from window 1 onward, so replication cannot
    // engage before it by construction.
    let probe_pairs_p99 = report
        .pairs_per_joiner
        .iter()
        .skip(1)
        .flatten()
        .map(|&p| p as u64)
        .max()
        .unwrap_or(0);
    assert_eq!(
        offered,
        dropped + passed,
        "{id}: shed counters must be conserved"
    );
    // The cold path's traffic: how often the θ-signal fired, how often the
    // creators rebuilt groups for it (the bootstrap counts once per creator).
    let rt = &report.runtime;
    println!(
        "{id}: repartition_signals {}, group_computations {}",
        rt.component_counter("assigner", "repartition_signals"),
        rt.component_counter("creator", "group_computations"),
    );

    let row = LatencyRow {
        id: id.to_string(),
        p50_us: us(lat.quantile_ns(0.50)),
        p99_us: us(lat.quantile_ns(0.99)),
        p999_us: us(lat.quantile_ns(0.999)),
        probe_p99_us: us(probe_p99),
        probe_pairs_p99,
        shed_offered: offered,
        shed_dropped: dropped,
    };
    (row, lat)
}

fn print_windows(id: &str, lat: &LatencyReport) {
    for (w, h) in &lat.per_window {
        println!(
            "{id} window {w}: n={} p50={:.0}us p99={:.0}us p999={:.0}us",
            h.count,
            us(h.quantile_ns(0.50)),
            us(h.quantile_ns(0.99)),
            us(h.quantile_ns(0.999)),
        );
    }
}

fn base_cfg() -> ssj_core::ConfigBuilder {
    StreamJoinConfig::default()
        .with_m(6)
        .with_window_spec(WindowSpec::tumbling(WINDOW))
        .with_partition_creators(2)
        .with_assigners(2)
        .with_expansion(false)
        .with_metrics(true)
}

/// Constant-rate uniform baseline: all sessions equally likely.
fn constant_run() -> LatencyRow {
    let skew = SkewConfig {
        seed: 11,
        keys: 6,
        s: 0.0,
        attach: 0.8,
    };
    let profile = ArrivalProfile::Constant { rate: 400_000.0 };
    let cfg = base_cfg().build().unwrap();
    let (row, lat) = paced_run("constant/rep_off", cfg, skew, profile, 0.0);
    print_windows(&row.id, &lat);
    row
}

/// Paired skewed runs: identical stream and schedule, replication toggled.
fn zipf_runs() -> (LatencyRow, LatencyRow) {
    // Bare session documents (attach 0): each document carries exactly the
    // session pair, so the hot session's quadratic join lands on a single
    // joiner without replication — the cleanest PanJoin-style scenario.
    let skew = SkewConfig {
        seed: 42,
        keys: 8,
        s: 1.5,
        attach: 0.0,
    };
    let profile = ArrivalProfile::Constant { rate: 300_000.0 };
    let off = base_cfg().build().unwrap();
    let on = base_cfg()
        .with_replicate_hot(true)
        .with_hot_factor(1.2)
        .build()
        .unwrap();
    let (row_off, lat_off) = paced_run("zipf/rep_off", off, skew, profile, 0.0);
    let (row_on, lat_on) = paced_run("zipf/rep_on", on, skew, profile, 0.0);
    print_windows(&row_off.id, &lat_off);
    print_windows(&row_on.id, &lat_on);
    (row_off, row_on)
}

/// Bursty arrivals against a small shed budget: probe-only documents are
/// dropped under queue pressure; table state and punctuation never are.
fn bursty_shed_run() -> LatencyRow {
    let skew = SkewConfig {
        seed: 7,
        keys: 4,
        s: 1.1,
        attach: 0.9,
    };
    let profile = ArrivalProfile::Bursty {
        trough: 20_000.0,
        peak: 2_000_000.0,
        period_ns: 4_000_000,
        duty: 0.25,
    };
    let cfg = base_cfg().with_shed_budget(32).build().unwrap();
    let (row, lat) = paced_run("bursty/shed_budget=32", cfg, skew, profile, 0.1);
    print_windows(&row.id, &lat);
    row
}

fn write_latency_report(path: &str, rows: &[LatencyRow]) {
    let body = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"id\": \"{}\", \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"p999_us\": {:.1}, \"probe_p99_us\": {:.1}, \
                 \"probe_pairs_p99\": {}, \
                 \"shed_offered\": {}, \"shed_dropped\": {}}}",
                r.id,
                r.p50_us,
                r.p99_us,
                r.p999_us,
                r.probe_p99_us,
                r.probe_pairs_p99,
                r.shed_offered,
                r.shed_dropped
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let text = format!("{{\n  \"bench\": \"latency\",\n  \"latency\": [\n{body}\n  ]\n}}\n");
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// The committed baseline's quantile for one id, parsed without a JSON
/// library (one measurement per line).
fn baseline_quantile(text: &str, id: &str, key: &str) -> Option<f64> {
    let tag = format!("\"id\": \"{id}\"");
    text.lines()
        .find(|l| l.contains(&tag))
        .and_then(|l| extract_num(l, &format!("\"{key}\": ")))
}

fn check(path: &str) -> i32 {
    let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("read {path}: {e}");
        std::process::exit(2);
    });
    let mut ok = true;

    // Gate 1: constant-profile p99 within 4x of the committed baseline.
    let fresh = constant_run();
    match baseline_quantile(&baseline, &fresh.id, "p99_us") {
        Some(base) => {
            let ratio = fresh.p99_us / base;
            let verdict = if ratio > 4.0 {
                ok = false;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "check {}: baseline p99 {base:.0}us, now {:.0}us ({ratio:.2}x) {verdict}",
                fresh.id, fresh.p99_us
            );
        }
        None => {
            eprintln!("baseline id {} missing from {path}", fresh.id);
            ok = false;
        }
    }

    // Gate 2 (paired, same run): replication must cut the straggler
    // joiner's p99 probe load under skew. Pair counts are deterministic
    // per seed, so this comparison cannot flake under CPU contention.
    let (off, on) = zipf_runs();
    let ratio = on.probe_pairs_p99 as f64 / off.probe_pairs_p99 as f64;
    let verdict = if ratio > 0.7 {
        ok = false;
        "FAIL"
    } else {
        "ok"
    };
    println!(
        "check zipf replication: straggler probe load p99 off {} pairs, on {} pairs \
         ({ratio:.2}x, need <= 0.70); wall probe p99 off {:.0}us, on {:.0}us {verdict}",
        off.probe_pairs_p99, on.probe_pairs_p99, off.probe_p99_us, on.probe_p99_us
    );

    if ok {
        0
    } else {
        1
    }
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
        None => {
            let constant = constant_run();
            let (off, on) = zipf_runs();
            let shed = bursty_shed_run();
            write_latency_report(REPORT_PATH, &[constant, off, on, shed]);
        }
        Some(other) => {
            eprintln!("unknown argument {other}; usage: bench_latency [--check FILE]");
            std::process::exit(2);
        }
    }
}
