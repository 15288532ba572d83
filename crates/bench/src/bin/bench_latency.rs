//! Open-loop tail-latency benchmark for the Fig. 2 join topology.
//!
//! A deterministic arrival schedule (see [`ssj_bench::traffic`]) is
//! replayed by a paced spout against real time; every document's
//! end-to-end latency — intended arrival to window report — lands in a
//! histogram per window, and this binary reports the pooled p50/p99/p999.
//! Three workloads, the same topology and configuration for each:
//!
//! * **constant** — uniform sessionized stream at a constant rate: the
//!   baseline tail the regression gate tracks.
//! * **zipf** — heavily skewed stream (Zipf s=1.5 over 8 sessions) at a
//!   constant rate: the hot session's quadratic join lands on one joiner.
//! * **bursty** — on/off arrival bursts over a moderately skewed stream.
//!
//! Modes:
//! * no args: run all workloads, print per-window quantiles, write
//!   `BENCH_latency.json` at the repository root;
//! * `--check FILE`: rerun the constant workload and exit non-zero when its
//!   p99 exceeds 4x the committed baseline (tail latency on a shared
//!   machine is noisy; 4x still catches an accidental sync stall).
//!
//! Latencies are written in microseconds, one measurement per line, so
//! `--check` (and shell tooling) can parse the file without a JSON
//! library.

use ssj_bench::report::extract_num;
use ssj_bench::traffic::{sessionized_docs, ArrivalProfile, SkewConfig};
use ssj_core::{run_topology_paced, StreamJoinConfig, WindowSpec};
use ssj_runtime::FaultPlan;

const REPORT_PATH: &str = "BENCH_latency.json";
const WINDOW: usize = 3000;
const WINDOWS: usize = 6;
const N: usize = WINDOW * WINDOWS;

/// One latency measurement: pooled quantiles.
struct LatencyRow {
    id: String,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    /// Straggler probe p99: max over joiners of the per-window
    /// window-close join duration p99. Wall-clock — context only.
    probe_p99_us: f64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Run one paced topology over `skew`'s stream on the shared configuration
/// (m = 6, 2 creators, 2 assigners, expansion off), print its per-window
/// quantiles and return the pooled ones.
fn paced_run(id: &str, skew: SkewConfig, profile: ArrivalProfile, jitter: f64) -> LatencyRow {
    let cfg = StreamJoinConfig::default()
        .with_m(6)
        .with_window_spec(WindowSpec::tumbling(WINDOW))
        .with_partition_creators(2)
        .with_assigners(2)
        .with_expansion(false)
        .with_metrics(true)
        .build()
        .unwrap();
    let (dict, docs) = sessionized_docs(N, skew);
    let schedule = profile.schedule(N, skew.seed, jitter);
    let (report, lat) = run_topology_paced(cfg, &dict, docs, schedule, FaultPlan::new()).unwrap();

    let mut probe_p99 = 0u64;
    for t in report
        .runtime
        .tasks
        .iter()
        .filter(|t| t.component == "joiner")
    {
        if let Some(h) = t.histogram("probe_ns") {
            probe_p99 = probe_p99.max(h.quantile_ns(0.99));
        }
    }
    // The cold path's traffic: how often the θ-signal fired, how often the
    // creators rebuilt groups for it (the bootstrap counts once per creator).
    let rt = &report.runtime;
    println!(
        "{id}: repartition_signals {}, group_computations {}",
        rt.component_counter("assigner", "repartition_signals"),
        rt.component_counter("creator", "group_computations"),
    );

    for (w, h) in &lat.per_window {
        println!(
            "{id} window {w}: n={} p50={:.0}us p99={:.0}us p999={:.0}us",
            h.count,
            us(h.quantile_ns(0.50)),
            us(h.quantile_ns(0.99)),
            us(h.quantile_ns(0.999)),
        );
    }
    LatencyRow {
        id: id.to_string(),
        p50_us: us(lat.quantile_ns(0.50)),
        p99_us: us(lat.quantile_ns(0.99)),
        p999_us: us(lat.quantile_ns(0.999)),
        probe_p99_us: us(probe_p99),
    }
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
    paced_run("constant", skew, profile, 0.0)
}

/// Skewed stream at a constant rate.
fn zipf_run() -> LatencyRow {
    // Bare session documents (attach 0): each document carries exactly the
    // session pair, so the hot session's quadratic join lands on a single
    // joiner.
    let skew = SkewConfig {
        seed: 42,
        keys: 8,
        s: 1.5,
        attach: 0.0,
    };
    let profile = ArrivalProfile::Constant { rate: 300_000.0 };
    paced_run("zipf", skew, profile, 0.0)
}

/// On/off bursts: 2M docs/s for a quarter of every 4 ms, 20k docs/s between.
fn bursty_run() -> LatencyRow {
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
    paced_run("bursty", skew, profile, 0.1)
}

fn write_latency_report(path: &str, rows: &[LatencyRow]) {
    let body = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"id\": \"{}\", \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"p999_us\": {:.1}, \"probe_p99_us\": {:.1}}}",
                r.id, r.p50_us, r.p99_us, r.p999_us, r.probe_p99_us
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

    // The gate: constant-profile p99 within 4x of the committed baseline.
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
            let rows = [constant_run(), zipf_run(), bursty_run()];
            write_latency_report(REPORT_PATH, &rows);
        }
        Some(other) => {
            eprintln!("unknown argument {other}; usage: bench_latency [--check FILE]");
            std::process::exit(2);
        }
    }
}
