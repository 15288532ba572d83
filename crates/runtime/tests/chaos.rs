//! Chaos suite: deterministic fault injection.
//!
//! The chaos topology is a miniature of the paper's Fig. 2 shape —
//! two-task spout → relay (shuffle) → keyed pair-join (direct, the relay
//! picks the joiner by key as Fig. 2's Assigner does) → sink (global). A
//! crash fired from a [`FaultPlan`] kills its task and ends the run in
//! [`RunError::TaskPanicked`] naming that task; the runtime recovers
//! nothing itself (`ssj-core`'s driver resumes a failed run, and its
//! differential harness checks that). Without a fault, the output does not
//! depend on the pool size.

use parking_lot::Mutex;
use ssj_bench::testutil::{assert_runs_equal, RunWindows};
use ssj_runtime::{
    run, Bolt, FaultPlan, Grouping, Outbox, RunError, TaskInfo, TopologyBuilder, VecSpout,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
    },
}

/// Joiner tasks of the chaos topology.
const JOINERS: u64 = 3;

/// Keyed relay: sends each document straight to the joiner that owns its
/// key.
struct Relay;

impl Bolt<Cm> for Relay {
    fn execute(&mut self, msg: Cm, out: &mut Outbox<Cm>) {
        if let Cm::Doc { key, .. } = msg {
            out.emit_direct((key % JOINERS) as usize, msg);
        }
    }
}

/// Windowed pair-join by key.
#[derive(Default)]
struct PairJoiner {
    task: usize,
    window: BTreeMap<u64, BTreeSet<u64>>,
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
        for ids in self.window.values() {
            let v: Vec<u64> = ids.iter().copied().collect();
            for i in 0..v.len() {
                for j in i + 1..v.len() {
                    pairs.push((v[i], v[j]));
                }
            }
        }
        out.emit(Cm::Stats {
            window: p,
            joiner: self.task,
            pairs,
        });
        self.window.clear();
    }
}

/// Results keyed by `(window, joiner)`.
type Shared = Arc<Mutex<BTreeMap<(u64, usize), Vec<(u64, u64)>>>>;

struct Sink {
    out: Shared,
}

impl Bolt<Cm> for Sink {
    fn execute(&mut self, msg: Cm, _out: &mut Outbox<Cm>) {
        if let Cm::Stats {
            window,
            joiner,
            pairs,
        } = msg
        {
            self.out.lock().insert((window, joiner), pairs);
        }
    }
}

/// Run the chaos topology on `workers` pool workers (0 = one per core):
/// `n` docs (key = id mod 7), tumbling windows of `window` docs, split
/// evens/odds over two spout tasks. Returns the canonical per-window join
/// output.
fn chaos_run(
    n: u64,
    window: usize,
    batch: usize,
    plan: FaultPlan,
    workers: usize,
) -> Result<RunWindows, RunError> {
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
        .bolt("joiner", JOINERS as usize, |_| Box::<PairJoiner>::default())
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
    run(t)?;
    let map = shared.lock();
    let nwin = map.keys().map(|(w, _)| w + 1).max().unwrap_or(0) as usize;
    let mut pairs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nwin];
    for ((w, _joiner), ps) in map.iter() {
        pairs[*w as usize].extend(ps.iter().copied());
    }
    Ok(RunWindows::from_pairs(pairs))
}

const N: u64 = 192;
const WINDOW: usize = 48; // 4 windows

/// The task a crash fired in, from the run's error.
fn crashed(plan: FaultPlan, batch: usize) -> Vec<String> {
    match chaos_run(N, WINDOW, batch, plan, 0) {
        Err(RunError::TaskPanicked(tasks)) => tasks,
        other => panic!("expected TaskPanicked, got {other:?}"),
    }
}

#[test]
fn crash_coordinate_is_deterministic() {
    let mk = || FaultPlan::new().crash_somewhere("joiner", 3, 4, 8, 0xDEAD_BEEF);
    assert_eq!(mk().specs(), mk().specs(), "same seed, same fault");
    let task = vec![format!("joiner[{}]", mk().specs()[0].task)];
    for batch in [1, 64] {
        assert_eq!(crashed(mk(), batch), task);
        assert_eq!(crashed(mk(), batch), task);
    }
}

#[test]
fn a_crash_ends_the_run_in_task_panicked() {
    // A targeted fault behaves like any other panic — it surfaces through
    // `RunError::TaskPanicked` under the task's `component[task]` label.
    assert_eq!(
        crashed(FaultPlan::new().crash("relay", 0, 0, 0), 64),
        ["relay[0]"]
    );
    // A coordinate the task never reaches fires nothing.
    let never = FaultPlan::new().crash("joiner", 1, 9, 0);
    assert!(chaos_run(N, WINDOW, 64, never, 0).is_ok());
}

#[test]
fn fault_free_run_is_identical_across_pool_sizes() {
    let base = chaos_run(N, WINDOW, 64, FaultPlan::new(), 0).unwrap();
    for workers in [1usize, 2, 8] {
        let got = chaos_run(N, WINDOW, 64, FaultPlan::new(), workers).unwrap();
        assert_runs_equal(&base, &got);
    }
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
    let windows = Arc::new(Mutex::new(Vec::new()));
    let w2 = Arc::clone(&windows);
    let t = TopologyBuilder::new()
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
    assert_eq!(got.len(), 30, "every window closes");
    for (i, w) in got.iter().enumerate() {
        let expect: Vec<u64> = (i as u64 * 10..(i as u64 + 1) * 10).collect();
        assert_eq!(w, &expect, "window {i}");
    }
}
