//! Sliding-window crash recovery: a supervised task crashed mid-pane or at
//! a pane boundary must recover to output byte-identical to the fault-free
//! run. This is the proof that the bolts' snapshots capture
//! every piece of *cross-pane* state — the Joiner's frozen pane ring, the
//! PartitionCreator's ring of retained panes, and the Assigner's retained
//! pane tables — because post-crash replay rebuilds only the open pane.

use proptest::prelude::*;
use ssj_bench::testutil::{assert_runs_equal, run_lockstep, shifting_stream};
use ssj_core::joiner::ARRIVAL_BATCH;
use ssj_core::{
    ground_truth_pairs, run_topology, run_topology_chaos, run_topology_with, Reader,
    StreamJoinConfig, WindowSpec,
};
use ssj_json::{Dictionary, DocId, Document};
use ssj_runtime::FaultPlan;
use std::sync::{Arc, Mutex};

const PANE: usize = 40;
const PANES: usize = 3;
const RUN_PANES: usize = 7; // crashes land well inside the run

fn stream(dict: &Dictionary, seed: u64, n: usize) -> Vec<Document> {
    (0..n as u64)
        .map(|i| {
            let x = i.wrapping_mul(seed | 1);
            let json = if i.is_multiple_of(7) {
                format!(r#"{{"fresh{}":"x{}","grp":{}}}"#, x % 5, x % 4, x % 3)
            } else {
                format!(
                    r#"{{"user":"u{}","sev":"s{}","grp":{}}}"#,
                    x % 6,
                    x % 4,
                    x % 3
                )
            };
            Document::from_json(DocId(i), &json, dict).unwrap()
        })
        .collect()
}

fn chaos_cfg(pane: usize) -> StreamJoinConfig {
    chaos_cfg_for(WindowSpec::sliding(pane, PANES))
}

fn chaos_cfg_for(spec: WindowSpec) -> StreamJoinConfig {
    StreamJoinConfig::default()
        .with_m(3)
        .with_window_spec(spec)
        .with_partition_creators(2)
        .with_assigners(2)
        .with_expansion(false)
        .with_batch_size(8)
        .with_retries(2) // arms supervised window-boundary snapshots
        .with_backoff_ms(1)
        .build()
        .unwrap()
}

/// One crash at the given (component, task, window, tuple) coordinate must
/// leave the pane-keyed join output identical to the fault-free run, and
/// the supervisor must actually have recovered something.
fn assert_crash_recovers(seed: u64, comp: &'static str, task: usize, window: u64, tuple: u64) {
    assert_crash_recovers_with(PANE, seed, comp, task, window, tuple);
}

fn assert_crash_recovers_with(
    pane: usize,
    seed: u64,
    comp: &'static str,
    task: usize,
    window: u64,
    tuple: u64,
) {
    let cfg = chaos_cfg(pane);
    let dict = Dictionary::new();
    let docs = stream(&dict, seed, pane * RUN_PANES);
    let clean = run_topology(cfg.clone(), &dict, docs.clone()).unwrap();

    let plan = FaultPlan::new().crash(comp, task, window, tuple);
    let faulted = run_topology_chaos(cfg, &dict, docs, plan).unwrap();
    assert!(
        faulted.runtime.total_faults() > 0,
        "{comp}[{task}] crash at w={window},t={tuple} never fired"
    );
    assert_runs_equal(&clean, &faulted);
}

/// The joiner holds the frozen pane ring — the heart of the sliding
/// tentpole. Crash it mid-pane (tuple 5 of pane 3: two panes are frozen
/// and a third is open) and at a pane boundary (tuple 0 of pane 4: the
/// ring just rotated).
#[test]
fn joiner_crash_mid_pane_recovers_pane_ring() {
    assert_crash_recovers(11, "joiner", 1, 3, 5);
}

#[test]
fn joiner_crash_at_pane_boundary_recovers_pane_ring() {
    assert_crash_recovers(12, "joiner", 0, 4, 0);
}

/// A joiner joins on arrival, so a crash deep inside a pane lands *after*
/// whole micro-batches were probed, inserted into the open tree and turned
/// into pairs. Replay must rebuild exactly that — the restored joiner starts
/// its open pane over under the empty attribute order, not the one the
/// crashed incarnation ran under, which may change the rebuilt tree's shape
/// but not one pair. The crash fires only if the task really received more
/// than `ARRIVAL_BATCH` tuples in that pane.
#[test]
fn joiner_crash_after_a_joined_micro_batch_recovers() {
    let tuple = ARRIVAL_BATCH as u64 + 40;
    assert_crash_recovers_with(2 * ARRIVAL_BATCH, 15, "joiner", 2, 3, tuple);
    assert_crash_recovers_with(2 * ARRIVAL_BATCH, 15, "joiner", 0, 1, tuple);
}

/// The creator's cross-pane state is the ring of panes it retains for the
/// next group build. Nothing reads the ring on this stream after the
/// bootstrap; `creator_crash_before_a_repartition_*` below does.
#[test]
fn creator_crash_mid_pane_recovers_pane_ring() {
    assert_crash_recovers(13, "creator", 0, 3, 5);
}

/// Brute force for pane `p`: the pairs of its window whose later document
/// lies in the pane.
fn pane_truth(docs: &[Document], pane: usize, panes: usize, p: usize) -> Vec<(u64, u64)> {
    let first = (p + 1).saturating_sub(panes) * pane;
    let mut truth = ground_truth_pairs(&docs[first..(p + 1) * pane]);
    truth.retain(|&(_, later)| later as usize / pane == p);
    truth
}

/// A creator crashed between the bootstrap and a repartition must come back
/// holding its whole lookback: the vocabulary shifts at pane 5, both
/// Assigners signal, and at boundary 6 each creator builds groups over its
/// half of the 4 retained panes — `group_build_docs` says how many documents
/// that was, for the restored creator as for the other. Lock-step and
/// `batch_size` 1 as in root `vocabulary_shift_forces_a_repartition`.
fn assert_creator_crash_keeps_the_lookback(task: usize, window: u64, tuple: u64) {
    const PANE: usize = 64;
    const LOOKBACK: usize = 4;
    let cfg = StreamJoinConfig::default()
        .with_m(4)
        .with_window_spec(WindowSpec::sliding(PANE, LOOKBACK))
        .with_partition_creators(2)
        .with_assigners(2)
        .with_expansion(false)
        .with_batch_size(1)
        .with_retries(2)
        .with_backoff_ms(1)
        .build()
        .unwrap();
    let dict = Dictionary::new();
    let docs = shifting_stream(&dict, 10, PANE, 5);
    let clean = run_lockstep(cfg.clone(), &dict, docs.clone(), FaultPlan::new()).unwrap();
    let plan = FaultPlan::new().crash("creator", task, window, tuple);
    let faulted = run_lockstep(cfg, &dict, docs.clone(), plan).unwrap();
    assert!(
        faulted.runtime.total_faults() > 0 && faulted.runtime.total_recoveries() > 0,
        "creator[{task}] crash at w={window},t={tuple} never fired"
    );
    for run in [&clean, &faulted] {
        for c in run
            .runtime
            .tasks
            .iter()
            .filter(|t| t.component == "creator")
        {
            assert_eq!(c.counter("group_computations"), 2, "creator {}", c.task);
            assert_eq!(
                c.counter("group_build_docs") as usize,
                PANE / 2 + LOOKBACK * PANE / 2,
                "creator {} lost part of its lookback",
                c.task
            );
        }
    }
    assert_runs_equal(&clean, &faulted);
    for (p, got) in faulted.joins_per_window.iter().enumerate() {
        assert_eq!(got, &pane_truth(&docs, PANE, LOOKBACK, p), "pane {p}");
    }
}

/// Pane 3, mid-pane: three panes are in the ring, the build is three
/// boundaries away.
#[test]
fn creator_crash_before_a_repartition_keeps_the_lookback() {
    assert_creator_crash_keeps_the_lookback(1, 3, 9);
}

/// The assigner's cross-pane state includes the retained pane tables that
/// make pane-spanning pairs route exactly.
#[test]
fn assigner_crash_mid_pane_recovers_retained_tables() {
    assert_crash_recovers(14, "assigner", 1, 3, 5);
}

/// The reporter's sink is the world outside the topology: a window handed
/// to it cannot be taken back. Crash the reporter on its `tuple`-th
/// `JoinStats` of pane `window` — mid-window: some joiners have reported,
/// the punctuation has not aligned — and the sink must still see every pane
/// exactly once, in order, equal to the fault-free run and to brute force
/// (a pane's pairs are those of its window whose later document is in it).
fn assert_reporter_crash_delivers_once(spec: WindowSpec, seed: u64, window: u64, tuple: u64) {
    let (pane, cfg) = (spec.pane_docs(), chaos_cfg_for(spec));
    let dict = Dictionary::new();
    let docs = stream(&dict, seed, pane * RUN_PANES);
    let clean = run_topology(cfg.clone(), &dict, docs.clone()).unwrap();

    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = {
        let seen = Arc::clone(&seen);
        move |w: ssj_core::WindowResult| seen.lock().unwrap().push((w.window, w.pairs))
    };
    let reader = Reader::Docs(docs.iter().cloned().map(Arc::new).collect());
    let plan = FaultPlan::new().crash("reporter", 0, window, tuple);
    let runtime = run_topology_with(cfg, &dict, reader, plan, None, sink).unwrap();
    assert!(
        runtime.total_faults() > 0 && runtime.total_recoveries() > 0,
        "reporter crash at w={window},t={tuple} never fired"
    );

    let seen = std::mem::take(&mut *seen.lock().unwrap());
    let ids: Vec<u64> = seen.iter().map(|(w, _)| *w).collect();
    assert_eq!(ids, (0..RUN_PANES as u64).collect::<Vec<_>>());
    for ((p, got), clean) in seen.iter().zip(&clean.joins_per_window) {
        assert_eq!(got, clean, "pane {p} differs from the fault-free run");
        let truth = pane_truth(&docs, pane, spec.panes_per_window(), *p as usize);
        assert_eq!(got, &truth, "pane {p} differs from brute force");
    }
}

#[test]
fn reporter_crash_mid_window_delivers_every_window_once() {
    assert_reporter_crash_delivers_once(WindowSpec::tumbling(PANE), 16, 2, 1);
    assert_reporter_crash_delivers_once(WindowSpec::sliding(PANE, 4), 17, 3, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any single reporter crash — either window shape, any pane, any of the
    /// pane's `m = 3` `JoinStats` — still delivers every pane exactly once.
    #[test]
    fn any_reporter_crash_delivers_every_window_once(
        seed in 0u64..1 << 32,
        sliding in any::<bool>(),
        window in 1u64..6,
        tuple in 0u64..3,
    ) {
        let spec = if sliding { WindowSpec::sliding(PANE, 4) } else { WindowSpec::tumbling(PANE) };
        assert_reporter_crash_delivers_once(spec, seed, window, tuple);
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
        assert_creator_crash_keeps_the_lookback(task, window, tuple);
    }

    /// Any single supervised crash — any sliding component, pane, and
    /// tuple offset — recovers byte-identically.
    #[test]
    fn any_sliding_crash_recovers_exactly(
        seed in 0u64..1 << 32,
        comp_idx in 0usize..3,
        task in 0usize..2,
        window in 2u64..6,
        tuple in 0u64..10,
    ) {
        let comp = ["joiner", "creator", "assigner"][comp_idx];
        assert_crash_recovers(seed, comp, task, window, tuple);
    }
}
