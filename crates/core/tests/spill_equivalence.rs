//! Out-of-core differential (§4i acceptance): a run under a tiny
//! `--mem-budget` — which forces sealed window state out to disk segments
//! and probes it back lazily through the block cache — must produce
//! byte-identical per-window join output to the fully-resident run.
//!
//! The matrix covers tumbling and sliding windows, batch sizes 1 and 64,
//! expansion on and off, a forced repartition that reads the creators'
//! spilled lookback back, and a recovered crash. Every spilled run asserts
//! `spill_bytes > 0` (the tier
//! actually engaged — a trivially-passing test would be one that never
//! spilled), and every resident run asserts `spill_bytes == 0` (budget 0
//! provably installs nothing).

use ssj_bench::testutil::{assert_runs_equal, run_lockstep, shifting_stream};
use ssj_core::{run_topology, run_topology_chaos, StreamJoinConfig, WindowSpec};
use ssj_json::{Dictionary, DocId, Document};
use ssj_runtime::FaultPlan;
use std::path::PathBuf;

const PANE: usize = 40;
const N: usize = PANE * 6;

/// Keep the budget small enough that every pane spills several chunks but
/// large enough that a chunk holds a handful of documents (so cross-chunk
/// probes, not just within-chunk joins, are exercised).
const BUDGET: u64 = 2048;

fn stream(dict: &Dictionary, seed: u64) -> Vec<Document> {
    (0..N as u64)
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

fn spill_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ssj-spill-eq-{}-{tag}", std::process::id()))
}

fn cfg(
    spec: WindowSpec,
    batch: usize,
    expansion: bool,
    budget: u64,
    tag: &str,
) -> StreamJoinConfig {
    let b = StreamJoinConfig::default()
        .with_m(3)
        .with_window_spec(spec)
        .with_partition_creators(2)
        .with_assigners(2)
        .with_batch_size(batch)
        .with_expansion(expansion);
    let b = if budget > 0 {
        b.with_mem_budget(budget).with_spill_dir(spill_dir(tag))
    } else {
        b
    };
    b.build().unwrap()
}

/// Run the same stream resident and spilled; assert identical join output
/// and that the tier engaged exactly when a budget was set.
fn assert_spilled_matches_resident(
    spec: WindowSpec,
    batch: usize,
    expansion: bool,
    seed: u64,
    tag: &str,
) {
    let dict = Dictionary::new();
    let docs = stream(&dict, seed);

    let resident_cfg = cfg(spec, batch, expansion, 0, tag);
    let resident = run_topology(resident_cfg, &dict, docs.clone()).unwrap();
    assert_eq!(
        resident.runtime.counter_total("spill_bytes"),
        0,
        "{tag}: budget 0 must never spill"
    );

    let spilled_cfg = cfg(spec, batch, expansion, BUDGET, tag);
    let spilled = run_topology(spilled_cfg, &dict, docs).unwrap();
    assert!(
        spilled.runtime.counter_total("spill_bytes") > 0,
        "{tag}: the tier never engaged — the differential is vacuous"
    );
    assert!(
        spilled.runtime.counter_total("segment_reads") > 0,
        "{tag}: no segment was ever read back"
    );

    assert_runs_equal(&resident, &spilled);
    let _ = std::fs::remove_dir_all(spill_dir(tag));
}

#[test]
fn tumbling_batch1_expansion_matches() {
    // The creators' share of the bootstrap window spills too, and is read
    // back wholesale at the boundary for the one group build.
    assert_spilled_matches_resident(WindowSpec::tumbling(PANE), 1, true, 21, "tb1pe");
}

#[test]
fn tumbling_batch64_matches() {
    assert_spilled_matches_resident(WindowSpec::tumbling(PANE), 64, false, 22, "tb64t");
}

#[test]
fn sliding_batch1_matches() {
    assert_spilled_matches_resident(WindowSpec::sliding(PANE, 3), 1, false, 23, "sb1t");
}

#[test]
fn sliding_batch64_matches() {
    assert_spilled_matches_resident(WindowSpec::sliding(PANE, 3), 64, false, 24, "sb64p");
}

/// The creators' retained panes under a budget: the vocabulary shifts at
/// pane 5 (root `vocabulary_shift_forces_a_repartition`, same lock-step
/// setup), so at boundary 6 each creator builds groups a second time, over
/// its half of a 4-pane lookback that by then lives in sealed runs only.
/// The runs are read back, the groups — hence tables, hence routing and join
/// output — are those of the resident run.
#[test]
fn sliding_repartition_reads_the_creators_spilled_lookback() {
    // A creator's half pane is 1.3x the budget: one run sealed mid-pane,
    // one at the boundary.
    const PANE: usize = 96;
    const LOOKBACK: usize = 4;
    let run = |budget: u64| {
        let dict = Dictionary::new();
        let docs = shifting_stream(&dict, 10, PANE, 5);
        let cfg = cfg(
            WindowSpec::sliding(PANE, LOOKBACK),
            1,
            false,
            budget,
            "repart",
        );
        run_lockstep(cfg, &dict, docs, FaultPlan::new()).unwrap()
    };
    let (resident, spilled) = (run(0), run(BUDGET));
    for (report, budgeted) in [(&resident, false), (&spilled, true)] {
        for c in report
            .runtime
            .tasks
            .iter()
            .filter(|t| t.component == "creator")
        {
            assert_eq!(c.counter("group_computations"), 2, "creator {}", c.task);
            assert_eq!(
                c.counter("group_build_docs") as usize,
                PANE / 2 + LOOKBACK * PANE / 2,
                "creator {} did not scan its whole lookback",
                c.task
            );
            // Every pane was sealed in two runs, and the second build read
            // those of the three retained panes back.
            assert_eq!(
                c.counter("spill_segments") >= 2 * 10,
                budgeted,
                "creator {}",
                c.task
            );
            assert_eq!(
                c.counter("segment_reads") >= 2 * (LOOKBACK as u64 - 1),
                budgeted,
                "creator {}",
                c.task
            );
        }
    }
    assert_runs_equal(&resident, &spilled);
    let _ = std::fs::remove_dir_all(spill_dir("repart"));
}

/// A joiner crashed mid-pane under a spilling budget recovers (segment
/// manifests restored, open-pane chunks rebuilt by replay) to output
/// byte-identical to the fault-free *resident* run.
#[test]
fn spilled_crash_recovery_matches_resident() {
    let dict = Dictionary::new();
    let docs = stream(&dict, 25);

    let resident_cfg = cfg(WindowSpec::sliding(PANE, 3), 8, false, 0, "chaos");
    let resident = run_topology(resident_cfg, &dict, docs.clone()).unwrap();

    let spilled_cfg = {
        let b = StreamJoinConfig::default()
            .with_m(3)
            .with_window_spec(WindowSpec::sliding(PANE, 3))
            .with_partition_creators(2)
            .with_assigners(2)
            .with_batch_size(8)
            .with_expansion(false)
            .with_retries(2) // arms supervised window-boundary snapshots
            .with_backoff_ms(1)
            .with_mem_budget(BUDGET)
            .with_spill_dir(spill_dir("chaos"));
        b.build().unwrap()
    };
    let plan = FaultPlan::new().crash("joiner", 1, 3, 5);
    let faulted = run_topology_chaos(spilled_cfg, &dict, docs, plan).unwrap();
    assert!(
        faulted.runtime.total_faults() > 0,
        "the planned crash never fired"
    );
    assert!(
        faulted.runtime.total_recoveries() > 0,
        "the supervisor never recovered the crashed task"
    );
    assert!(
        faulted.runtime.counter_total("spill_bytes") > 0,
        "the tier never engaged under chaos"
    );
    assert_runs_equal(&resident, &faulted);
    let _ = std::fs::remove_dir_all(spill_dir("chaos"));
}
