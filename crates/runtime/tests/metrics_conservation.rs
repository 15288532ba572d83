//! Conservation invariants of the metrics registry: nothing the collector
//! reports may invent or lose tuples. Sums of per-task counters must equal
//! what the spout emitted, the hot-path `handle_ns` histogram must account
//! for every received tuple, and the per-window snapshot series (cumulative
//! counters) must be monotone — no matter how upstream task speeds are
//! jittered.

use parking_lot::Mutex;
use proptest::prelude::*;
use ssj_runtime::{
    run, Bolt, Grouping, Outbox, RunReport, TaskInfo, TopologyBuilder, TraceKind, VecSpout,
};
use std::sync::Arc;

/// A middle-stage bolt that perturbs thread interleaving (same scheme as
/// `tests/batching.rs`): each task spins for a pseudo-random, seeded number
/// of iterations per message and occasionally yields, so upstream tasks run
/// at uneven, racy speeds.
struct Jitter {
    state: u64,
}

impl Bolt<i64> for Jitter {
    fn prepare(&mut self, info: &TaskInfo) {
        self.state ^= (info.task_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn execute(&mut self, msg: i64, out: &mut Outbox<i64>) {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let spin = (self.state >> 59) as u32; // 0..32
        if spin >= 30 {
            std::thread::yield_now();
        }
        for i in 0..spin * 17 {
            std::hint::black_box(i);
        }
        out.emit(msg);
    }
}

/// Terminal stage: counts per window, emits nothing.
struct CountSink {
    cur: u64,
    out: Arc<Mutex<Vec<u64>>>,
}

impl Bolt<i64> for CountSink {
    fn execute(&mut self, _msg: i64, _out: &mut Outbox<i64>) {
        self.cur += 1;
    }

    fn on_punct(&mut self, _p: u64, _out: &mut Outbox<i64>) {
        self.out.lock().push(std::mem::take(&mut self.cur));
    }
}

/// Pool workers of every metered run (fixed so the `scheduler` rows of the
/// report are the same on any machine).
const POOL_WORKERS: usize = 2;

/// spout → 3-way jittered stage → counting sink, metrics collection ON.
fn metered_run(n: i64, window: usize, batch: usize, seed: u64) -> (RunReport, Vec<u64>) {
    let per_window = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&per_window);
    let t = TopologyBuilder::new()
        .batch_size(batch)
        .metrics(true)
        .pool_workers(POOL_WORKERS)
        .spout("src", 1, move |_| {
            Box::new(VecSpout::with_punctuation((0..n).collect(), window))
        })
        .bolt("mid", 3, move |task| {
            Box::new(Jitter {
                state: seed ^ (task as u64),
            })
        })
        .subscribe("src", Grouping::Shuffle)
        .done()
        .bolt("sink", 1, move |_| {
            Box::new(CountSink {
                cur: 0,
                out: Arc::clone(&p2),
            })
        })
        .subscribe("mid", Grouping::Global)
        .done()
        .build()
        .unwrap();
    let report = run(t).unwrap();
    let got = per_window.lock().clone();
    (report, got)
}

/// Every tuple the spout emitted is accounted for at every stage, and the
/// hot-path `handle_ns` histogram has recorded exactly the tuples each bolt
/// task received.
fn assert_conserved(report: &RunReport, n: u64) {
    assert_eq!(report.emitted("src"), n, "spout emits");
    assert_eq!(report.received("mid"), n, "mid receives all spout emits");
    assert_eq!(report.emitted("mid"), n, "mid forwards 1:1");
    assert_eq!(report.received("sink"), n, "sink receives all mid emits");
    for t in report.tasks.iter().filter(|t| t.component != "src") {
        let hist = t
            .histogram("handle_ns")
            .unwrap_or_else(|| panic!("{}[{}] has no handle_ns histogram", t.component, t.task));
        assert_eq!(
            hist.count,
            t.counter("received"),
            "{}[{}]: histogram count != received",
            t.component,
            t.task
        );
        assert!(hist.buckets.iter().map(|&(_, c)| c).sum::<u64>() == hist.count);
    }
}

/// Cumulative counters never decrease across the per-window snapshot
/// series, and the final snapshot dominates the last window snapshot.
fn assert_monotone(report: &RunReport) {
    let windows = &report.windows;
    assert!(
        !windows.is_empty(),
        "metrics on must yield window snapshots"
    );
    for pair in windows.windows(2) {
        assert!(pair[0].window < pair[1].window, "window ids ascend");
    }
    // Compare counter-by-counter between consecutive snapshots of the same
    // task; the final report.tasks snapshot is the supremum of the series.
    let dominates = |earlier: &[ssj_runtime::TaskSnapshot], later: &[ssj_runtime::TaskSnapshot]| {
        for (a, b) in earlier.iter().zip(later.iter()) {
            assert_eq!((&a.component, a.task), (&b.component, b.task));
            for (name, v) in &a.counters {
                assert!(
                    b.counter(name) >= *v,
                    "{}[{}] counter {name} decreased across snapshots: {} < {v}",
                    a.component,
                    a.task,
                    b.counter(name)
                );
            }
        }
    };
    for pair in windows.windows(2) {
        dominates(&pair[0].tasks, &pair[1].tasks);
    }
    dominates(&windows.last().unwrap().tasks, &report.tasks);
}

#[test]
fn counters_conserve_tuples_end_to_end() {
    let n = 3 * 120;
    let (report, per_window) = metered_run(n as i64, 120, 16, 0xDEAD_BEEF);
    assert_conserved(&report, n as u64);
    assert_eq!(per_window.iter().sum::<u64>(), n as u64);
    // One aligned snapshot per punctuated window.
    assert_eq!(report.windows.len(), 3);
}

/// The run report carries the per-worker `scheduler_*` counter family
/// (steals, parks, wakeups) under the `scheduler` component — the
/// observability surface `ssj run --metrics-out` serializes.
#[test]
fn run_exposes_scheduler_counters() {
    let (report, _) = metered_run(3 * 120, 120, 16, 0xBEEF_CAFE);
    let sched_rows: Vec<_> = report
        .tasks
        .iter()
        .filter(|t| t.component == "scheduler")
        .collect();
    assert_eq!(
        sched_rows.len(),
        POOL_WORKERS,
        "one scheduler instrument row per pool worker"
    );
    for row in &sched_rows {
        for family in ["scheduler_steals", "scheduler_parks", "scheduler_wakeups"] {
            assert!(
                row.counters.iter().any(|(name, _)| name == family),
                "scheduler[{}] misses counter {family}: {:?}",
                row.task,
                row.counters
            );
        }
    }
    // The pool actually moved work: across all workers at least one task
    // was claimed from the injector (seeding alone queues 4 bolt tasks).
    let steals: u64 = sched_rows
        .iter()
        .map(|r| r.counter("scheduler_steals"))
        .sum();
    assert!(steals > 0, "no injector/sibling steals recorded");
}

#[test]
fn window_snapshots_are_monotone() {
    let (report, _) = metered_run(4 * 100, 100, 8, 42);
    assert_monotone(&report);
    // The last window snapshot covers everything: by then the whole stream
    // was punctuated, so the sink's cumulative received equals the total.
    let last = report.windows.last().unwrap();
    let sink_received: u64 = last
        .tasks
        .iter()
        .filter(|t| t.component == "sink")
        .map(|t| t.counter("received"))
        .sum();
    assert_eq!(sink_received, 400);
}

#[test]
fn trace_records_window_lifecycle() {
    let (report, _) = metered_run(2 * 150, 150, 32, 7);
    let closes: Vec<_> = report
        .trace
        .iter()
        .filter(|e| e.kind == TraceKind::WindowClose)
        .collect();
    // Every task observes every punctuation: 5 tasks x 2 windows.
    assert_eq!(closes.len(), 10, "one WindowClose per task per window");
    for w in [0u64, 1] {
        assert_eq!(
            closes.iter().filter(|e| e.window == w).count(),
            5,
            "window {w} closes"
        );
    }
    assert!(
        report.trace.iter().any(|e| e.kind == TraceKind::Eos),
        "EOS events retained"
    );
}

#[test]
fn metrics_off_keeps_counters_but_no_windows() {
    let t = TopologyBuilder::new()
        .batch_size(16)
        .metrics(false)
        .spout("src", 1, |_| {
            Box::new(VecSpout::with_punctuation((0..200i64).collect(), 100))
        })
        .bolt("sink", 1, |_| {
            Box::new(CountSink {
                cur: 0,
                out: Arc::new(Mutex::new(Vec::new())),
            })
        })
        .subscribe("src", Grouping::Shuffle)
        .done()
        .build()
        .unwrap();
    let report = run(t).unwrap();
    assert_eq!(report.received("sink"), 200, "core counters always on");
    assert!(report.windows.is_empty(), "no snapshots when disabled");
    assert!(report.trace.is_empty(), "no trace when disabled");
    for t in &report.tasks {
        assert!(t.histograms.is_empty(), "no histograms when disabled");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation and monotonicity hold for every batch size, window
    /// size, and upstream speed interleaving.
    #[test]
    fn conservation_invariant_under_jitter(
        seed in 0u64..u64::MAX,
        window in 16usize..64,
        nwindows in 2usize..5,
        batch_idx in 0usize..3,
    ) {
        let batch = [1usize, 7, 64][batch_idx];
        let n = (window * nwindows) as u64;
        let (report, per_window) = metered_run(n as i64, window, batch, seed);
        assert_conserved(&report, n);
        assert_monotone(&report);
        prop_assert_eq!(per_window.iter().sum::<u64>(), n);
        prop_assert_eq!(report.windows.len(), nwindows);
    }
}
