//! Chaos suite: deterministic fault injection and supervised recovery.
//!
//! The chaos topology is a miniature of the paper's Fig. 2 shape —
//! two-task spout → relay (shuffle) → keyed pair-join (direct, the relay
//! picks the joiner by key as Fig. 2's Assigner does) → sink (global) —
//! with every stage crash-recoverable: the joiner carries
//! cross-window state through `Bolt::snapshot`/`restore`, mid-window
//! duplicates are absorbed by id-dedup (joiner) and idempotent inserts
//! (sink), exactly like the real components. The core property: per-window
//! join output is **identical** with and without a recovered crash, across
//! seeds × crash positions × batch sizes.

use parking_lot::Mutex;
use proptest::prelude::*;
use ssj_bench::testutil::{assert_runs_equal, assert_windows_equal, RunWindows};
use ssj_runtime::{
    run, Bolt, BoltState, FaultPlan, Grouping, Outbox, RecoveryPolicy, RunError, RunReport,
    TaskInfo, TopologyBuilder, VecSpout,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

const KEYS: u64 = 7;

#[derive(Clone, Debug)]
enum Cm {
    Doc {
        id: u64,
        key: u64,
    },
    Stats {
        window: u64,
        joiner: usize,
        pairs: Vec<(u64, u64)>,
        cum_docs: u64,
    },
}

/// Joiner tasks of the chaos topology.
const JOINERS: u64 = 3;

/// Keyed relay — a cheap supervised stage to crash in front of the join:
/// sends each document straight to the joiner that owns its key.
struct Relay;

impl Bolt<Cm> for Relay {
    fn execute(&mut self, msg: Cm, out: &mut Outbox<Cm>) {
        if let Cm::Doc { key, .. } = msg {
            out.emit_direct((key % JOINERS) as usize, msg);
        }
    }
}

/// Windowed pair-join by key with per-window dedup by id (the at-least-once
/// mid-window contract) and a cumulative doc count — cross-window state
/// that only survives crashes if `snapshot`/`restore` work.
struct PairJoiner {
    task: usize,
    window: BTreeMap<u64, BTreeSet<u64>>,
    cum_docs: u64,
}

impl PairJoiner {
    fn new() -> Self {
        PairJoiner {
            task: 0,
            window: BTreeMap::new(),
            cum_docs: 0,
        }
    }
}

impl Bolt<Cm> for PairJoiner {
    fn prepare(&mut self, info: &TaskInfo) {
        self.task = info.task_index;
    }

    fn execute(&mut self, msg: Cm, _out: &mut Outbox<Cm>) {
        if let Cm::Doc { id, key } = msg {
            self.window.entry(key).or_default().insert(id);
        }
    }

    fn on_punct(&mut self, p: u64, out: &mut Outbox<Cm>) {
        let mut pairs = Vec::new();
        let mut docs = 0u64;
        for ids in self.window.values() {
            docs += ids.len() as u64;
            let v: Vec<u64> = ids.iter().copied().collect();
            for i in 0..v.len() {
                for j in i + 1..v.len() {
                    pairs.push((v[i], v[j]));
                }
            }
        }
        self.cum_docs += docs;
        out.emit(Cm::Stats {
            window: p,
            joiner: self.task,
            pairs,
            cum_docs: self.cum_docs,
        });
        self.window.clear();
    }

    fn snapshot(&self) -> Option<BoltState> {
        Some(Box::new(self.cum_docs))
    }

    fn restore(&mut self, state: &BoltState) -> Result<(), String> {
        self.cum_docs = *state
            .downcast_ref::<u64>()
            .ok_or_else(|| "PairJoiner snapshot type mismatch".to_string())?;
        self.window.clear();
        Ok(())
    }
}

/// Final results keyed by `(window, joiner)` so replayed duplicates
/// overwrite identical entries (idempotent external effects).
type Shared = Arc<Mutex<BTreeMap<(u64, usize), (Vec<(u64, u64)>, u64)>>>;

struct Sink {
    out: Shared,
}

impl Bolt<Cm> for Sink {
    fn execute(&mut self, msg: Cm, _out: &mut Outbox<Cm>) {
        if let Cm::Stats {
            window,
            joiner,
            pairs,
            cum_docs,
        } = msg
        {
            self.out.lock().insert((window, joiner), (pairs, cum_docs));
        }
    }
}

/// Run the chaos topology: `n` docs (key = id mod 7), tumbling windows of
/// `window` docs, split evens/odds over two spout tasks. Returns the
/// canonical per-window join output, the per-window sum of the joiners'
/// cumulative doc counters, and the run report.
fn chaos_run(
    n: u64,
    window: usize,
    batch: usize,
    plan: FaultPlan,
    policy: RecoveryPolicy,
) -> Result<(RunWindows, Vec<u64>, RunReport), RunError> {
    chaos_run_on(n, window, batch, plan, policy, 0)
}

/// [`chaos_run`] with an explicit pool size (0 = one worker per core):
/// recovery semantics must not depend on how many workers share the tasks.
fn chaos_run_on(
    n: u64,
    window: usize,
    batch: usize,
    plan: FaultPlan,
    policy: RecoveryPolicy,
    workers: usize,
) -> Result<(RunWindows, Vec<u64>, RunReport), RunError> {
    assert!(window.is_multiple_of(2) && n.is_multiple_of(window as u64));
    let shared: Shared = Arc::new(Mutex::new(BTreeMap::new()));
    let s2 = Arc::clone(&shared);
    let doc = |id: u64| Cm::Doc { id, key: id % KEYS };
    let evens: Vec<Cm> = (0..n).step_by(2).map(doc).collect();
    let odds: Vec<Cm> = (1..n).step_by(2).map(doc).collect();
    let per_spout = window / 2;
    let t = TopologyBuilder::new()
        .batch_size(batch)
        .fault_plan(plan)
        .recovery(policy)
        .pool_workers(workers)
        .spout("src", 2, move |task| {
            let items = if task == 0 {
                evens.clone()
            } else {
                odds.clone()
            };
            Box::new(VecSpout::with_punctuation(items, per_spout))
        })
        .bolt("relay", 2, |_| Box::new(Relay))
        .subscribe("src", Grouping::Shuffle)
        .done()
        .bolt("joiner", JOINERS as usize, |_| Box::new(PairJoiner::new()))
        .subscribe("relay", Grouping::Direct)
        .done()
        .bolt("sink", 1, move |_| {
            Box::new(Sink {
                out: Arc::clone(&s2),
            })
        })
        .subscribe("joiner", Grouping::Global)
        .done()
        .build()
        .unwrap();
    let report = run(t)?;
    let map = shared.lock();
    let nwin = map.keys().map(|(w, _)| w + 1).max().unwrap_or(0) as usize;
    let mut pairs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nwin];
    let mut cums = vec![0u64; nwin];
    for ((w, _joiner), (ps, cum)) in map.iter() {
        pairs[*w as usize].extend(ps.iter().copied());
        cums[*w as usize] += cum;
    }
    Ok((RunWindows::from_pairs(pairs), cums, report))
}

fn baseline(n: u64, window: usize, batch: usize) -> (RunWindows, Vec<u64>) {
    let (w, c, _) = chaos_run(
        n,
        window,
        batch,
        FaultPlan::new(),
        RecoveryPolicy::default(),
    )
    .expect("baseline run");
    (w, c)
}

fn quick_policy(retries: u32) -> RecoveryPolicy {
    RecoveryPolicy::default()
        .retries(retries)
        .backoff(Duration::from_millis(1))
}

const N: u64 = 192;
const WINDOW: usize = 48; // 4 windows

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// THE acceptance property: a single recovered crash — any supervised
    /// stage, any window/tuple coordinate, batch 1 or 64, 1/2/8 pool
    /// workers — leaves every window's join output AND the joiners'
    /// cross-window counters exactly equal to the fault-free run.
    #[test]
    fn crash_once_recovers_exactly(
        seed in 0u64..1 << 40,
        comp_pick in 0usize..3,
        crash_window in 0u64..4,
        workers_pick in 0usize..3,
        batch_big in any::<bool>(),
    ) {
        let batch = if batch_big { 64 } else { 1 };
        let workers = [1usize, 2, 8][workers_pick];
        // Tuple coordinates bounded by each component's per-window share so
        // most cases actually fire (the sink sees 3 Stats per window).
        let (comp, par, max_tuple) =
            [("relay", 2, 20), ("joiner", 3, 6), ("sink", 1, 3)][comp_pick];
        let task = (seed % par as u64) as usize;
        let tuple = seed % max_tuple as u64;
        let plan = FaultPlan::new().crash(comp, task, crash_window, tuple);
        let (base, base_cum) = baseline(N, WINDOW, batch);
        let (got, cum, report) =
            chaos_run_on(N, WINDOW, batch, plan, quick_policy(3), workers).unwrap();
        assert_runs_equal(&base, &got);
        assert_windows_equal("cumulative docs", &base_cum, &cum);
        let crashes = report.counter_total("faults_crashes");
        if crashes > 0 {
            prop_assert!(
                report.counter_total("recoveries_succeeded") >= 1,
                "crashed {crashes}× but never recovered"
            );
        }
    }
}

#[test]
fn single_crash_is_recovered_and_counted() {
    let plan = FaultPlan::new().crash("joiner", 1, 1, 2);
    let (base, base_cum) = baseline(N, WINDOW, 64);
    let (got, cum, report) = chaos_run(N, WINDOW, 64, plan, quick_policy(2)).unwrap();
    assert_runs_equal(&base, &got);
    assert_windows_equal("cumulative docs", &base_cum, &cum);
    assert_eq!(report.counter_total("faults_crashes"), 1);
    assert_eq!(report.counter_total("recoveries_attempted"), 1);
    assert_eq!(report.counter_total("recoveries_succeeded"), 1);
    assert!(report.counter_total("recoveries_replayed") >= 1);
    assert_eq!(report.component_counter("joiner", "faults_crashes"), 1);
    // attempted + succeeded + replayed envelopes
    assert!(report.total_recoveries() >= 2);
}

#[test]
fn repeated_crash_exhausts_retries_and_fails_cleanly() {
    let plan = FaultPlan::new().crash_repeating("joiner", 1, 1, 2);
    let err = chaos_run(N, WINDOW, 64, plan, quick_policy(1)).unwrap_err();
    let RunError::TaskPanicked(tasks) = err else {
        panic!("expected TaskPanicked, got {err}");
    };
    assert!(
        tasks.iter().any(|t| t.contains("joiner")),
        "panic should name the joiner: {tasks:?}"
    );
}

#[test]
fn unsupervised_crash_still_propagates() {
    // No retries: a targeted fault behaves like any
    // other panic — it surfaces through `RunError::TaskPanicked` under the
    // task's `component[task]` label.
    let plan = FaultPlan::new().crash("relay", 0, 0, 0);
    let err = chaos_run(N, WINDOW, 64, plan, RecoveryPolicy::default()).unwrap_err();
    let RunError::TaskPanicked(tasks) = err else {
        panic!("expected TaskPanicked, got {err}");
    };
    assert!(tasks.iter().any(|t| t.contains("relay")), "{tasks:?}");
}

#[test]
fn fault_free_run_is_identical_across_pool_sizes() {
    let (base, base_cum) = baseline(N, WINDOW, 64);
    for workers in [1usize, 2, 8] {
        let (got, cum, _) = chaos_run_on(
            N,
            WINDOW,
            64,
            FaultPlan::new(),
            RecoveryPolicy::default(),
            workers,
        )
        .unwrap();
        assert_runs_equal(&base, &got);
        assert_windows_equal("cumulative docs", &base_cum, &cum);
    }
}

#[test]
fn supervised_run_without_faults_matches_fast_path() {
    let (base, base_cum) = baseline(N, WINDOW, 64);
    let (got, cum, report) = chaos_run(N, WINDOW, 64, FaultPlan::new(), quick_policy(3)).unwrap();
    assert_runs_equal(&base, &got);
    assert_windows_equal("cumulative docs", &base_cum, &cum);
    assert_eq!(report.total_faults(), 0);
    assert_eq!(report.total_recoveries(), 0);
}

#[test]
fn crash_somewhere_is_deterministic_and_recovered() {
    let mk = || FaultPlan::new().crash_somewhere("joiner", 3, 4, 8, 0xDEAD_BEEF);
    assert_eq!(mk().specs(), mk().specs(), "same seed, same fault");
    let (base, base_cum) = baseline(N, WINDOW, 1);
    let (got, cum, _) = chaos_run(N, WINDOW, 1, mk(), quick_policy(3)).unwrap();
    assert_runs_equal(&base, &got);
    assert_windows_equal("cumulative docs", &base_cum, &cum);
}

/// Regression (Aligner EOS-before-punctuation): an upstream task that
/// reaches EOS while its peers keep punctuating must stop counting toward
/// the alignment quorum — previously windows after the EOS never closed
/// and their contents were silently lost.
#[test]
fn windows_keep_closing_after_an_upstream_eos() {
    struct WinSink {
        cur: Vec<u64>,
        out: Arc<Mutex<Vec<Vec<u64>>>>,
    }
    impl Bolt<u64> for WinSink {
        fn execute(&mut self, msg: u64, _out: &mut Outbox<u64>) {
            self.cur.push(msg);
        }
        fn on_punct(&mut self, _p: u64, _out: &mut Outbox<u64>) {
            let mut w = std::mem::take(&mut self.cur);
            w.sort_unstable();
            self.out.lock().push(w);
        }
    }
    for supervised in [false, true] {
        let windows = Arc::new(Mutex::new(Vec::new()));
        let w2 = Arc::clone(&windows);
        let policy = if supervised {
            quick_policy(1)
        } else {
            RecoveryPolicy::default()
        };
        let t = TopologyBuilder::new()
            .recovery(policy)
            .spout("src", 2, |task| {
                // Task 1 is empty: it delivers EOS before ever punctuating.
                let items: Vec<u64> = if task == 0 {
                    (0..300).collect()
                } else {
                    Vec::new()
                };
                Box::new(VecSpout::with_punctuation(items, 10))
            })
            .bolt("win", 1, move |_| {
                Box::new(WinSink {
                    cur: Vec::new(),
                    out: Arc::clone(&w2),
                })
            })
            .subscribe("src", Grouping::Global)
            .done()
            .build()
            .unwrap();
        run(t).unwrap();
        let got = windows.lock().clone();
        assert_eq!(
            got.len(),
            30,
            "supervised={supervised}: every window closes"
        );
        for (i, w) in got.iter().enumerate() {
            let expect: Vec<u64> = (i as u64 * 10..(i as u64 + 1) * 10).collect();
            assert_eq!(w, &expect, "supervised={supervised}: window {i}");
        }
    }
}
