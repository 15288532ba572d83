//! The one differential harness. Every run of the Fig. 2 topology here must
//! report, pane for pane, exactly the brute-force join of its stream
//! ([`oracle`]: every joinable pair less than a window apart, in the pane of
//! its later document) — whatever the window shape, `m`, batch, parallelism,
//! pool, expansion, partitioner, reader lead, source, process group, spill
//! budget or injected crash — and deliver each window exactly once, in order,
//! with the reader never more than the case's lead ahead of the sink, each
//! pair reported by exactly one joiner (the owner rule). A case
//! with a group, a spill budget or a crash must also equal the same case
//! without it — and, without a crash, route every pane exactly as it does:
//! the control plane rides the reader's credit, so routing is a function of
//! the stream — and passes that axis's own check: a budget engages the spill
//! tier (and no budget never does), a group's non-leaders report nothing, a
//! crash fails an attempt and the run resumes at the first pane of its
//! first undelivered window's lookback.
//!
//! The axes are [`Case`]'s fields. The named tests pin regressions; the
//! proptests sample the axis table.

use proptest::prelude::*;
use ssj_bench::testutil::{
    assert_runs_equal, assert_windows_equal, churn_stream, lockstep_reader, oracle,
    shifting_stream, Churn, RunWindows,
};
use ssj_bench::traffic::{sessionized_docs, skewed_docs, SkewConfig};
use ssj_bench::DataSet;
use ssj_core::joiner::ARRIVAL_BATCH;
use ssj_core::{
    run_topology_collect, DistRuntime, PaneRouting, Reader, StreamJoinConfig, TopologyRunReport,
    WindowSpec, READER_LEAD,
};
use ssj_join::SlidingJoiner;
use ssj_json::{write_documents_jsonl, Dictionary, Document};
use ssj_partition::PartitionerKind::{self, Ag, Sc};
use ssj_runtime::FaultPlan;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Where a case's documents come from. Only worker 0 of a group reads
/// them; the other members start with an empty dictionary, as a process of
/// the group does.
#[derive(Debug, Clone, Copy)]
enum Stream {
    /// [`churn_stream`].
    Churn(Churn),
    /// [`shifting_stream`] in the case's panes, shifting at pane 5.
    Shifting,
    /// `sessionized_docs`: every pair recurs, so documents route through
    /// the table (closed world).
    Sessions(SkewConfig),
    /// `skewed_docs` over rwData: novel pairs force broadcasts.
    Skewed(SkewConfig),
}

/// How the reader gets a case's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// The generated documents, in memory.
    Memory,
    /// The stream written as JSON Lines and streamed back from the file into
    /// a fresh dictionary, which grows while the topology runs (expansion's
    /// synthetic pairs included); results compare by `DocId`.
    File,
}

/// The churn most cases join: a fresh pair on every 7th document.
fn churn(seed: u64) -> Stream {
    Stream::Churn(Churn {
        seed,
        fresh_every: 7,
        window: None,
        window_shift: 0,
    })
}

/// Churn whose fresh pairs (every 5th document) are new in every window.
fn windowed_churn(seed: u64, window: usize) -> Stream {
    Stream::Churn(Churn {
        seed,
        fresh_every: 5,
        window: Some(window),
        window_shift: 1,
    })
}

/// One run of the topology: the stream, and every axis it can vary.
#[derive(Debug, Clone)]
struct Case {
    stream: Stream,
    docs: usize,
    spec: WindowSpec,
    m: usize,
    batch: usize,
    creators: usize,
    assigners: usize,
    /// Pool workers (0 = one per core), and whether they are pinned.
    pool: usize,
    pin: bool,
    expansion: bool,
    partitioner: PartitionerKind,
    /// Panes the reader may run ahead of the sink: 1 is
    /// [`Reader::Lockstep`], [`READER_LEAD`] the free-running reader.
    lead: usize,
    source: Source,
    /// Members of a socket-linked group, one thread each (1 = solo).
    group: usize,
    /// `mem_budget` in bytes (0 = resident).
    spill: u64,
    /// `(component, task, window, tuple)` of one crash in the first attempt.
    crash: Option<(&'static str, usize, u64, u64)>,
}

impl Case {
    /// `docs` documents of `stream` under `spec`: m 3, batch 16, two
    /// creators, two Assigners, expansion off, AG, free-running over the
    /// documents in memory, solo, resident, no crash.
    fn new(stream: Stream, docs: usize, spec: WindowSpec) -> Case {
        Case {
            stream,
            docs,
            spec,
            m: 3,
            batch: 16,
            creators: 2,
            assigners: 2,
            pool: 0,
            pin: false,
            expansion: false,
            partitioner: Ag,
            lead: READER_LEAD,
            source: Source::Memory,
            group: 1,
            spill: 0,
            crash: None,
        }
    }

    fn generate(&self) -> (Dictionary, Vec<Document>) {
        let dict = Dictionary::new();
        let docs = match self.stream {
            Stream::Churn(c) => churn_stream(&dict, self.docs, c),
            Stream::Shifting => {
                let pane = self.spec.pane_docs();
                shifting_stream(&dict, self.docs / pane, pane, 5)
            }
            Stream::Sessions(skew) => return sessionized_docs(self.docs, skew),
            Stream::Skewed(skew) => return skewed_docs(DataSet::RwData, self.docs, skew),
        };
        (dict, docs)
    }

    fn config(&self, spill_dir: &Path) -> StreamJoinConfig {
        let config = StreamJoinConfig::default()
            .with_m(self.m)
            .with_window_spec(self.spec)
            .with_batch_size(self.batch)
            .with_partition_creators(self.creators)
            .with_assigners(self.assigners)
            .with_pool_workers(self.pool)
            .with_pin_cores(self.pin)
            .with_expansion(self.expansion)
            .with_partitioner(self.partitioner)
            .with_workers(self.group)
            .with_mem_budget(self.spill);
        let config = if self.spill > 0 {
            config.with_spill_dir(spill_dir)
        } else {
            config
        };
        config.build().unwrap()
    }
}

/// Run `case`, one thread per group member; returns worker 0's report (the
/// Reporter lives there) after checking that the others reported nothing.
fn run(case: &Case) -> TopologyRunReport {
    // A fresh directory for the run's sockets and spilled segments.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ssj-differential-{}-{run}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = case.config(&dir.join("spill"));
    let plan = match case.crash {
        Some((component, task, window, tuple)) => {
            FaultPlan::new().crash(component, task, window, tuple)
        }
        None => FaultPlan::new(),
    };
    let members: Vec<_> = (0..case.group)
        .map(|w| {
            let (case, config, plan) = (case.clone(), config.clone(), plan.clone());
            let member = DistRuntime {
                workers: case.group,
                my_worker: w,
                socket_dir: dir.clone(),
                attempt: 0,
            };
            let input = dir.join("input.jsonl");
            std::thread::spawn(move || {
                // A member starts empty: only worker 0 hosts the reader.
                if w > 0 {
                    let reader = Reader::Docs(Vec::new());
                    return run_topology_collect(
                        config,
                        &Dictionary::new(),
                        reader,
                        plan,
                        Some(&member),
                    );
                }
                let (dict, docs) = case.generate();
                let (dict, reader) = match (case.source, case.lead) {
                    (Source::File, _) => {
                        let ids = docs.iter().map(|d| d.id().0);
                        assert!(ids.eq(0..docs.len() as u64), "file ids are line numbers");
                        let mut file = std::fs::File::create(&input).unwrap();
                        write_documents_jsonl(&mut file, &docs, &dict).unwrap();
                        (Dictionary::new(), Reader::File(input))
                    }
                    (Source::Memory, 1) => {
                        (dict, lockstep_reader(docs.chunks(case.spec.pane_docs())))
                    }
                    (Source::Memory, _) => {
                        (dict, Reader::Docs(docs.into_iter().map(Arc::new).collect()))
                    }
                };
                assert_eq!(reader.lead(), case.lead, "no such reader");
                run_topology_collect(config, &dict, reader, plan, Some(&member))
            })
        })
        .collect();
    let mut reports: Vec<_> = members
        .into_iter()
        .map(|h| h.join().expect("member panicked").expect("run failed"))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    for r in &reports[1..] {
        assert!(r.joins_per_window.is_empty(), "a non-leader reported");
    }
    reports.swap_remove(0)
}

/// Names the case a failed assertion belongs to.
struct Describe<'a>(&'a Case);

impl Drop for Describe<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: {:?}", self.0);
        }
    }
}

type Memo<T> = OnceLock<Mutex<HashMap<String, Arc<T>>>>;

/// `windows()` computed once per `key` of `memo`: cases of one stream share
/// its oracle, and crash coordinates share their plain run.
fn memoized<T>(memo: &'static Memo<T>, key: String, windows: impl FnOnce() -> T) -> Arc<T> {
    let memo = memo.get_or_init(Default::default);
    if let Some(hit) = memo.lock().unwrap().get(&key) {
        return Arc::clone(hit);
    }
    let windows = Arc::new(windows());
    memo.lock().unwrap().insert(key, Arc::clone(&windows));
    windows
}

/// Run `case` and hold it to the oracle and to its axes' checks. The
/// oracle and the plain run are computed next to the case's run.
fn check(case: &Case) -> TopologyRunReport {
    static ORACLES: Memo<RunWindows> = OnceLock::new();
    static PLAIN_RUNS: Memo<(RunWindows, Vec<PaneRouting>)> = OnceLock::new();
    let _describe = Describe(case);
    // The same case without a group, a spill budget or a crash.
    let plain = Case {
        group: 1,
        spill: 0,
        crash: None,
        ..case.clone()
    };
    let stream = format!("{:?} {} {:?}", case.stream, case.docs, case.spec);
    let (report, truth, base) = std::thread::scope(|s| {
        let truth =
            s.spawn(|| memoized(&ORACLES, stream, || oracle(&case.generate().1, case.spec)));
        let base = (case.group > 1 || case.spill > 0 || case.crash.is_some()).then(|| {
            s.spawn(|| {
                memoized(&PLAIN_RUNS, format!("{plain:?}"), || {
                    let plain = run(&plain);
                    let windows = plain.joins_per_window;
                    (RunWindows { windows }, plain.routing)
                })
            })
        });
        let report = run(case);
        fn join<T>(h: std::thread::ScopedJoinHandle<T>) -> T {
            h.join().expect("reference panicked")
        }
        (report, join(truth), base.map(join))
    });
    let panes = truth.windows.len() as u64;
    assert_eq!(report.windows, (0..panes).collect::<Vec<_>>(), "delivery");
    assert_runs_equal(&*truth, &report);
    // The owner rule: every pair is reported by exactly one joiner.
    let windows = report.joins_per_window.iter().zip(&report.pairs_per_joiner);
    for (w, (pairs, per_joiner)) in windows.enumerate() {
        let emitted: usize = per_joiner.iter().sum();
        assert_eq!(emitted, pairs.len(), "window {w}: pairs emitted vs unique");
    }
    // One copy per (document, joiner): the joiners hold what was routed.
    let windows = report.docs_per_joiner.iter().zip(&report.routing);
    for (w, (per_joiner, routing)) in windows.enumerate() {
        let held: usize = per_joiner.iter().sum();
        assert_eq!(held, routing.copies, "window {w}: copies held vs routed");
    }
    if let Some(base) = base {
        assert_runs_equal(&base.0, &report);
        // A resumed attempt bootstraps its routing afresh.
        if case.crash.is_none() {
            assert_windows_equal("routing", &base.1, &report.routing);
        }
    }
    let rt = &report.runtime;
    let lead = rt.component_counter("reporter", "reader_lead");
    assert!(
        lead as usize <= case.lead,
        "the reader ran {lead} panes ahead"
    );
    if case.spill > 0 {
        assert!(
            rt.counter_total("spill_bytes") > 0,
            "the tier never spilled"
        );
        assert!(rt.counter_total("segment_reads") > 0, "nothing read back");
    } else {
        assert_eq!(rt.counter_total("spill_bytes"), 0, "spilled without budget");
    }
    if case.crash.is_some() {
        assert!(rt.attempts >= 2, "the crash never fired");
        let (delivered, start) = rt.resumed.expect("the last attempt resumed");
        let lookback = case.spec.panes_per_window() as u64 - 1;
        assert_eq!(start, delivered.saturating_sub(lookback), "resume pane");
    }
    report
}

#[test]
fn join_output_identical_across_batch_sizes() {
    let stream = Stream::Churn(Churn {
        seed: 0,
        fresh_every: 7,
        window: Some(90),
        window_shift: 0,
    });
    for batch in [1, 7, 64] {
        check(&Case {
            batch,
            assigners: 6,
            ..Case::new(stream, 360, WindowSpec::tumbling(90))
        });
    }
}

/// m ≫ workers: many joiners multiplex onto a single worker and the run
/// still terminates (the cooperative step/park protocol cannot deadlock on
/// one thread).
#[test]
fn many_joiners_on_one_worker_stay_exact() {
    check(&Case {
        m: 32,
        batch: 64,
        assigners: 3,
        pool: 1,
        ..Case::new(windowed_churn(7, 80), 240, WindowSpec::tumbling(80))
    });
}

/// Core pinning is a hint, not a semantics change (a silent no-op off
/// Linux).
#[test]
fn pinned_run_stays_exact() {
    check(&Case {
        m: 4,
        batch: 64,
        assigners: 3,
        pin: true,
        ..Case::new(windowed_churn(11, 60), 120, WindowSpec::tumbling(60))
    });
}

/// The mask's full width: window 0 is broadcast to all 64 joiners, and
/// once a table is deployed the 64th partition (the mask's top bit) gets
/// routed documents of its own.
#[test]
fn sixty_four_joiners_use_the_whole_mask() {
    let skew = SkewConfig {
        seed: 64,
        keys: 200,
        s: 0.0,
        attach: 0.8,
    };
    let report = check(&Case {
        m: 64,
        pool: 2,
        ..Case::new(Stream::Sessions(skew), 1600, WindowSpec::tumbling(400))
    });
    assert_eq!(report.routing[0].broadcasts, 400);
    assert_eq!(report.docs_per_joiner[0], vec![400; 64]);
    let routed_to_the_top_bit =
        |w: usize| report.routing[w].broadcasts < 400 && report.docs_per_joiner[w][63] > 0;
    assert!((1..4).any(routed_to_the_top_bit));
}

/// A 1-pane sliding spec degenerates to tumbling: same pairs, pane = window.
#[test]
fn single_pane_sliding_equals_tumbling() {
    let case = |spec| Case {
        assigners: 3,
        ..Case::new(churn(7), 200, spec)
    };
    let tumbling = check(&case(WindowSpec::tumbling(50)));
    let sliding = check(&case(WindowSpec::sliding(50, 1)));
    assert_runs_equal(&tumbling, &sliding);
}

/// Socket-linked groups, sliding and tumbling; the third under SC, whose
/// creators ship their shares' documents to the Merger, and creator 1 sits
/// on worker 1, so half of every build crosses a socket; the last streams
/// its file on worker 0 while worker 1 starts with an empty dictionary.
#[test]
fn group_runs_match_single_process() {
    for (seed, docs, spec, m, partitioner, source) in [
        (
            20260808,
            180,
            WindowSpec::sliding(30, 3),
            4,
            Ag,
            Source::Memory,
        ),
        (12345, 100, WindowSpec::tumbling(50), 3, Ag, Source::Memory),
        (99, 180, WindowSpec::tumbling(60), 3, Sc, Source::Memory),
        (7, 240, WindowSpec::tumbling(60), 3, Ag, Source::File),
    ] {
        check(&Case {
            m,
            assigners: 3,
            partitioner,
            source,
            group: 2,
            ..Case::new(churn(seed), docs, spec)
        });
    }
}

/// Expansion's synthetic pairs get their ids where the chain is decided, in
/// document order: the tables break ties by pair id, so a group — whose
/// creator 1 interns into its own dictionary and ships its views back — must
/// route every pane as the solo run does, whichever creator meets a
/// synthetic value first. When each creator interned its own, the order
/// was a race between them, and a group's pane 1 routed a few copies more
/// or fewer than the solo run's (seeds 4 and 16 at m 4 to 8): the loop
/// repeats each case ten times, which failed every time then.
#[test]
fn expansion_routes_a_group_like_a_solo_run() {
    for _ in 0..10 {
        for seed in [4, 16] {
            for m in [4, 6, 8] {
                check(&Case {
                    m,
                    expansion: true,
                    group: 2,
                    ..Case::new(churn(seed), 1200, WindowSpec::tumbling(300))
                });
            }
        }
    }
}

/// A θ signal rebuilds the partitions mid-run (pane 3's boundary) under a
/// sliding lock-step run: pairs spanning the rebuild meet only through the
/// table each Assigner retains for the lookback. Found by the sampled table
/// with that retention removed.
#[test]
fn pane_spanning_pairs_meet_across_a_rebuild() {
    let skew = SkewConfig {
        seed: 114538025574,
        keys: 6,
        s: 0.9,
        attach: 0.8,
    };
    let report = check(&Case {
        m: 4,
        batch: 64,
        creators: 1,
        assigners: 3,
        lead: 1,
        ..Case::new(Stream::Sessions(skew), 300, WindowSpec::sliding(60, 3))
    });
    let rebuilt: Vec<bool> = report.routing.iter().map(|r| r.rebuilt).collect();
    assert_eq!(rebuilt, [false, false, false, true, false]);
}

/// A sliding run of 7 panes of `pane` with one crash: the resumed attempt
/// rebuilds every piece of cross-pane state — the Joiner's frozen pane
/// ring, the creator's retained panes, the Assigner's retained tables — by
/// re-reading the first undelivered pane's lookback, and drops the windows
/// it re-reads that the sink already has.
fn sliding_crash(seed: u64, pane: usize, crash: (&'static str, usize, u64, u64)) -> Case {
    Case {
        batch: 8,
        crash: Some(crash),
        ..Case::new(churn(seed), pane * 7, WindowSpec::sliding(pane, 3))
    }
}

/// Mid-pane (tuple 5 of pane 3: two panes frozen, a third open) and at a
/// pane boundary (tuple 0 of pane 4: the ring just rotated).
#[test]
fn joiner_crash_recovers_pane_ring() {
    check(&sliding_crash(11, 40, ("joiner", 1, 3, 5)));
    check(&sliding_crash(12, 40, ("joiner", 0, 4, 0)));
}

/// A joiner joins on arrival, so a crash deep inside a pane lands after
/// whole micro-batches were probed, inserted into the open tree and turned
/// into pairs. The resumed joiner starts from the lookback under the empty
/// attribute order, which may change the rebuilt trees' shape but not one
/// pair. The crash fires only if the task really received more than
/// `ARRIVAL_BATCH` tuples in that pane.
#[test]
fn joiner_crash_after_a_joined_micro_batch_recovers() {
    let (pane, tuple) = (2 * ARRIVAL_BATCH, ARRIVAL_BATCH as u64 + 40);
    check(&sliding_crash(15, pane, ("joiner", 2, 3, tuple)));
    check(&sliding_crash(15, pane, ("joiner", 0, 1, tuple)));
}

#[test]
fn creator_and_assigner_crashes_recover_their_retained_state() {
    check(&sliding_crash(13, 40, ("creator", 0, 3, 5)));
    check(&sliding_crash(14, 40, ("assigner", 1, 3, 5)));
}

/// The sink is the world outside the topology: a window handed to it cannot
/// be taken back. Crash the Reporter on its `tuple`-th `JoinStats` of pane
/// `window` (some joiners have reported, the punctuation has not aligned).
fn reporter_crash(spec: WindowSpec, seed: u64, window: u64, tuple: u64) -> Case {
    Case {
        batch: 8,
        crash: Some(("reporter", 0, window, tuple)),
        ..Case::new(churn(seed), 280, spec)
    }
}

#[test]
fn reporter_crash_mid_window_delivers_every_window_once() {
    check(&reporter_crash(WindowSpec::tumbling(40), 16, 2, 1));
    check(&reporter_crash(WindowSpec::sliding(40, 4), 17, 3, 2));
}

/// [`check`] a lock-step run of a [`shifting_stream`] (batch 1, as in root
/// `vocabulary_shift_forces_a_repartition`): the vocabulary shifts at pane
/// 5, both Assigners signal, and at boundary 6 each creator builds groups a
/// second time, over its half of every pane in the lookback.
///
/// With a creator crashed in its window `w` (`w ≤ 6`), lock-step has
/// delivered exactly panes `0..w`: everything a creator gets in window `w`
/// comes from the reader — the control it broadcasts as it begins pane `w`
/// (the `Repartition` behind boundary 6, say), then the pane's documents —
/// and the reader begins pane `w` only once pane
/// `w − 1` has reached the sink. The run resumes at pane
/// `max(0, w − 3) ≤ 3`: the last attempt's creators bootstrap on that pane
/// and re-read the whole lookback before boundary 6, so their counters are
/// the plain run's.
fn assert_second_build_over_the_lookback(case: &Case) -> TopologyRunReport {
    let report = check(case);
    if let Some((_, _, window, _)) = case.crash {
        let (delivered, _) = report.runtime.resumed.expect("resumed");
        assert_eq!(delivered, window, "resumed after the wrong window");
    }
    let (pane, lookback) = (case.spec.pane_docs(), case.spec.panes_per_window());
    let tasks = report.runtime.tasks.iter();
    for c in tasks.filter(|t| t.component == "creator") {
        assert_eq!(c.counter("group_computations"), 2, "creator {}", c.task);
        assert_eq!(
            c.counter("group_build_docs") as usize,
            pane / 2 + lookback * pane / 2,
            "creator {} lost part of its lookback",
            c.task
        );
    }
    report
}

/// A creator crashed between the bootstrap and the repartition: the resumed
/// attempt's creators hold the whole lookback again by the second build.
fn creator_lookback_crash(crash: Option<(&'static str, usize, u64, u64)>) -> Case {
    Case {
        m: 4,
        batch: 1,
        lead: 1,
        crash,
        ..Case::new(Stream::Shifting, 640, WindowSpec::sliding(64, 4))
    }
}

/// Pane 3, mid-pane: three panes are in the ring, the build is three
/// boundaries away.
#[test]
fn creator_crash_before_a_repartition_keeps_the_lookback() {
    assert_second_build_over_the_lookback(&creator_lookback_crash(None));
    assert_second_build_over_the_lookback(&creator_lookback_crash(Some(("creator", 1, 3, 9))));
}

/// A budget small enough that every pane spills several chunks but large
/// enough that a chunk holds a handful of documents, so cross-chunk probes
/// are exercised, not just within-chunk joins.
const BUDGET: u64 = 2048;

/// Sealed window state spilled to segments and probed back through the
/// block cache, tumbling and sliding, batch 1 and 64; with expansion, the
/// creators' share of the bootstrap window spills too and is read back
/// wholesale for the one group build.
#[test]
fn spilled_runs_match_resident() {
    for (spec, batch, expansion, seed) in [
        (WindowSpec::tumbling(40), 1, true, 21),
        (WindowSpec::tumbling(40), 64, false, 22),
        (WindowSpec::sliding(40, 3), 1, false, 23),
        (WindowSpec::sliding(40, 3), 64, false, 24),
    ] {
        check(&Case {
            batch,
            expansion,
            spill: BUDGET,
            ..Case::new(churn(seed), 240, spec)
        });
    }
}

/// The creators' retained panes under a budget: by the second build the
/// 4-pane lookback lives in sealed runs only (a creator's half pane is 1.3x
/// the budget: one run sealed mid-pane, one at the boundary). The runs are
/// read back, and the groups — hence tables, routing and join output — are
/// those of the resident run.
#[test]
fn sliding_repartition_reads_the_creators_spilled_lookback() {
    for spill in [0, BUDGET] {
        let case = Case {
            batch: 1,
            lead: 1,
            spill,
            ..Case::new(Stream::Shifting, 960, WindowSpec::sliding(96, 4))
        };
        let report = assert_second_build_over_the_lookback(&case);
        let tasks = report.runtime.tasks.iter();
        for c in tasks.filter(|t| t.component == "creator") {
            // Every pane was sealed in two runs, and the second build read
            // those of the three retained panes back.
            let spilled = spill > 0;
            assert_eq!(c.counter("spill_segments") >= 2 * 10, spilled);
            assert_eq!(c.counter("segment_reads") >= 2 * 3, spilled);
        }
    }
}

/// A joiner crashed mid-pane under a spilling budget: the resumed attempt
/// spills its re-read lookback afresh.
#[test]
fn spilled_crash_recovery_matches_resident() {
    check(&Case {
        docs: 240,
        spill: BUDGET,
        ..sliding_crash(25, 40, ("joiner", 1, 3, 5))
    });
}

/// The file source under expansion: the reader interns a build pane's
/// synthetic pairs into the dictionary its loader is still filling,
/// tumbling; and sliding under a spill budget.
#[test]
fn streamed_file_runs_match_the_oracle() {
    check(&Case {
        expansion: true,
        source: Source::File,
        ..Case::new(churn(31), 400, WindowSpec::tumbling(50))
    });
    check(&Case {
        spill: BUDGET,
        source: Source::File,
        ..Case::new(churn(32), 240, WindowSpec::sliding(40, 3))
    });
}

/// A crash over the file source: the resumed attempt reopens the file and
/// skips to its start pane. In pane 1 of 7 the reader has begun its lead
/// and waits for credit, which the crash must end rather than hang; in
/// pane 4 the Reporter dies with a window half reported.
#[test]
fn file_source_crash_reopens_the_file() {
    for crash in [
        ("joiner", 0, 1, 5),
        ("creator", 1, 4, 3),
        ("reporter", 0, 4, 1),
    ] {
        check(&Case {
            source: Source::File,
            ..sliding_crash(33, 40, crash)
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The sampled axis table: stream (churn, per-window churn, Zipf
    /// sessions, Zipf-skewed rwData), pane, window shape, `m`, batch,
    /// creators, Assigners, pool size and pinning, expansion, partitioner,
    /// reader lead, source (a file only for a free-running reader),
    /// group size and spill budget.
    #[test]
    fn any_case_matches_the_oracle(
        seed in 0u64..1 << 40,
        shape in (0usize..4, 0usize..3, 0usize..5, 3usize..7),
        width in (2usize..7, 0usize..4, 1usize..3, 1usize..4),
        schedule in (0usize..4, 0usize..4, any::<bool>(), any::<bool>()),
        placement in (0usize..5, 0usize..4, 0usize..3, any::<bool>()),
        file in any::<bool>(),
    ) {
        let (stream, pane, panes, run_panes) = shape;
        let (m, batch, creators, assigners) = width;
        let (pool, partitioner, expansion, lockstep) = schedule;
        let (group, spill, zipf, pin) = placement;
        let group = [1, 1, 1, 2, 3][group];
        let pane = [40, 60, 80][pane];
        let skew = SkewConfig { seed, keys: 6, s: [0.0, 0.9, 1.2][zipf], attach: 0.8 };
        let spec = match panes {
            0 | 1 => WindowSpec::tumbling(pane),
            p => WindowSpec::sliding(pane, p),
        };
        let streams = [
            churn(seed),
            windowed_churn(seed, pane),
            Stream::Sessions(skew),
            Stream::Skewed(skew),
        ];
        check(&Case {
            stream: streams[stream],
            docs: pane * run_panes,
            spec,
            m,
            batch: [1, 7, 16, 64][batch],
            creators,
            assigners,
            pool: [0, 1, 2, 8][pool],
            pin,
            expansion: expansion && !spec.is_sliding(),
            partitioner: PartitionerKind::with_baselines()[partitioner],
            lead: if lockstep { 1 } else { READER_LEAD },
            source: if file && !lockstep { Source::File } else { Source::Memory },
            group,
            spill: if spill == 0 { BUDGET } else { 0 },
            crash: None,
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any single crash of a sliding run — any component, pane and tuple
    /// offset, on 1, 2 or 8 pool workers — recovers to the oracle.
    #[test]
    fn any_sliding_crash_recovers_exactly(
        seed in 0u64..1 << 32,
        comp_idx in 0usize..3,
        task in 0usize..2,
        window in 2u64..6,
        tuple in 0u64..10,
        pool in 0usize..3,
    ) {
        let comp = ["joiner", "creator", "assigner"][comp_idx];
        check(&Case {
            pool: [1, 2, 8][pool],
            ..sliding_crash(seed, 40, (comp, task, window, tuple))
        });
    }

    /// Any single Reporter crash — either window shape, any pane, any of the
    /// pane's `m = 3` `JoinStats` — still delivers every pane exactly once.
    #[test]
    fn any_reporter_crash_delivers_every_window_once(
        seed in 0u64..1 << 32,
        sliding in any::<bool>(),
        window in 1u64..6,
        tuple in 0u64..3,
    ) {
        let spec = if sliding {
            WindowSpec::sliding(40, 4)
        } else {
            WindowSpec::tumbling(40)
        };
        check(&reporter_crash(spec, seed, window, tuple));
    }

    /// Any single creator crash between the bootstrap (boundary 0) and the
    /// repartition build (boundary 6), either creator, any tuple of its
    /// 32-document share: the build still covers the whole lookback.
    #[test]
    fn any_creator_crash_before_a_repartition_keeps_the_lookback(
        task in 0usize..2,
        window in 1u64..7,
        tuple in 0u64..32,
    ) {
        let case = creator_lookback_crash(Some(("creator", task, window, tuple)));
        assert_second_build_over_the_lookback(&case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The oracle itself: the local pane-chained `SlidingJoiner`, pairs
    /// keyed by the pane of the later (probing) document, finds exactly the
    /// brute-force pairs.
    #[test]
    fn sliding_joiner_matches_the_oracle(seed in 0u64..1 << 40, panes in 1usize..5) {
        let spec = WindowSpec::sliding(40, panes);
        let (_, docs) = Case::new(churn(seed), 40 * (panes + 3), spec).generate();
        let mut joiner = SlidingJoiner::new(spec);
        let found = RunWindows::from_pairs(docs.chunks(40).map(|pane| {
            pane.iter()
                .flat_map(|d| {
                    let partners = joiner.insert_and_probe(d.clone());
                    partners.into_iter().map(|p| (p.0, d.id().0)).collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        }));
        assert_runs_equal(&found, &oracle(&docs, spec));
    }
}
