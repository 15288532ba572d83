//! The lock-step topology as the figures and `ssj pipeline` run it: one
//! Assigner, batch 1, pane `p + 1` read only once pane `p` reached the sink.
//! Each window is routed with the table deployed at the close of the one
//! before (window 0 is homed by an empty one), a θ signal at window `k`
//! rebuilds at the close of `k + 1`, and a pair no table knows goes to its
//! hash home. Every window carries its routing quality, and its join output
//! equals brute force.

use ssj_bench::testutil::{lockstep_reader, oracle};
use ssj_core::{
    run_topology, run_topology_collect, StreamJoinConfig, TopologyRunReport, WindowSpec,
};
use ssj_json::{Dictionary, DocId, Document};
use ssj_partition::{PartitionerKind, WindowQuality};
use ssj_runtime::{FaultPlan, RunError};
use std::time::{Duration, Instant};

fn doc(dict: &Dictionary, id: u64, json: &str) -> Document {
    Document::from_json(DocId(id), json, dict).unwrap()
}

/// A small synthetic log-like window.
fn window(dict: &Dictionary, base: u64, n: usize) -> Vec<Document> {
    (0..n as u64)
        .map(|i| {
            let user = (base + i) % 5;
            let sev = ["W", "E", "C"][((base + i) % 3) as usize];
            doc(
                dict,
                base + i,
                &format!(
                    r#"{{"User":"u{user}","Severity":"{sev}","MsgId":{}}}"#,
                    i % 7
                ),
            )
        })
        .collect()
}

/// `cfg` with the one Assigner and batch 1 of the lock-step pipeline.
fn pipeline_config(cfg: ssj_core::ConfigBuilder) -> StreamJoinConfig {
    cfg.with_assigners(1).with_batch_size(1).build().unwrap()
}

fn run(cfg: StreamJoinConfig, dict: &Dictionary, windows: Vec<Vec<Document>>) -> TopologyRunReport {
    let reader = lockstep_reader(windows.iter().map(Vec::as_slice));
    run_topology_collect(cfg, dict, reader, FaultPlan::new(), None).expect("run")
}

fn quality(r: &TopologyRunReport, w: usize) -> WindowQuality {
    r.routing[w].quality(&r.docs_per_joiner[w])
}

/// The windows that rebuilt the partitions after a θ signal.
fn repartitioned(r: &TopologyRunReport) -> Vec<usize> {
    (0..r.routing.len())
        .filter(|&w| r.routing[w].rebuilt)
        .collect()
}

#[test]
fn exactness_every_joinable_pair_colocated() {
    let dict = Dictionary::new();
    let cfg = pipeline_config(
        StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(WindowSpec::tumbling(40)),
    );
    let windows: Vec<_> = (0..3).map(|w| window(&dict, w * 1000, 40)).collect();
    let report = run(cfg, &dict, windows.clone());
    let truth = oracle(&windows.concat(), WindowSpec::tumbling(40));
    assert_eq!(
        report.joins_per_window, truth.windows,
        "join incomplete or inflated"
    );
}

#[test]
fn all_partitioners_preserve_exactness() {
    for kind in PartitionerKind::with_baselines() {
        let dict = Dictionary::new();
        let cfg = pipeline_config(
            StreamJoinConfig::default()
                .with_m(3)
                .with_window_spec(WindowSpec::tumbling(30))
                .with_partitioner(kind),
        );
        // Window 0 is homed; window 1 is routed with its table.
        let windows: Vec<_> = [500, 530].map(|base| window(&dict, base, 30)).into();
        let report = run(cfg, &dict, windows.clone());
        let truth = oracle(&windows.concat(), WindowSpec::tumbling(30));
        assert_eq!(
            report.joins_per_window,
            truth.windows,
            "{} loses join results",
            kind.name()
        );
    }
}

#[test]
fn replication_bounded_by_m() {
    let dict = Dictionary::new();
    let cfg = pipeline_config(
        StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(WindowSpec::tumbling(50)),
    );
    let report = run(
        cfg,
        &dict,
        vec![window(&dict, 0, 50), window(&dict, 50, 50)],
    );
    // No table yet: everything is homed, one copy per distinct home.
    let q = quality(&report, 0);
    assert_eq!(q.homed_fraction, 1.0);
    assert!((1.0..=4.0).contains(&q.replication));
    assert_eq!(
        report.docs_per_joiner[0].iter().sum::<usize>(),
        report.routing[0].copies
    );
    let q = quality(&report, 1);
    assert!(q.replication >= 1.0);
    assert!(q.replication < 4.0);
    assert_eq!(
        report.docs_per_joiner[1].iter().sum::<usize>() as f64,
        50.0 * q.replication
    );
}

/// Window 0 establishes partitions on users u0..u4; window 1, routed with
/// them, is the baseline. Later windows use entirely new attribute values →
/// every document is homed → window 2 signals, and the partitions
/// are rebuilt from window 3's documents at its close.
#[test]
fn drifting_stream_triggers_repartition() {
    let dict = Dictionary::new();
    let cfg = pipeline_config(
        StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(WindowSpec::tumbling(30))
            .with_theta(0.1)
            .with_expansion(false),
    );
    let mut windows = vec![window(&dict, 0, 30), window(&dict, 30, 30)];
    for w in 2..6u64 {
        windows.push(
            (0..30u64)
                .map(|i| {
                    doc(
                        &dict,
                        w * 10_000 + i,
                        &format!(r#"{{"Fresh{w}":"v{i}","Other{w}":{i}}}"#),
                    )
                })
                .collect(),
        );
    }
    let report = run(cfg, &dict, windows);
    assert_eq!(
        repartitioned(&report),
        vec![3],
        "drift must rebuild exactly once"
    );
}

#[test]
fn stable_stream_does_not_repartition() {
    let dict = Dictionary::new();
    let cfg = pipeline_config(
        StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(WindowSpec::tumbling(40))
            .with_theta(0.2),
    );
    // Identical distribution each window.
    let windows = (0..5).map(|w| window(&dict, w * 40, 40)).collect();
    let report = run(cfg, &dict, windows);
    assert_eq!(
        repartitioned(&report),
        Vec::<usize>::new(),
        "stable stream must not repartition"
    );
}

/// A new pair that recurs is homed in every window it appears in — one
/// copy per document, never all `m` — and no table is deployed for it.
#[test]
fn recurring_unseen_pairs_stay_at_their_home() {
    let dict = Dictionary::new();
    let cfg = pipeline_config(
        StreamJoinConfig::default()
            .with_m(2)
            .with_window_spec(WindowSpec::tumbling(20))
            .with_theta(5.0) // effectively disable repartitioning
            .with_expansion(false),
    );
    let brand = |w: u64| -> Vec<Document> {
        (0..20u64)
            .map(|i| doc(&dict, w * 1000 + i, r#"{"Brand":"new"}"#))
            .collect()
    };
    let windows = vec![window(&dict, 0, 20), brand(1), brand(2), brand(3)];
    let report = run(cfg, &dict, windows);
    for w in 1..4 {
        let q = quality(&report, w);
        assert_eq!((q.homed_fraction, q.replication), (1.0, 1.0), "window {w}");
        assert!(!report.routing[w].rebuilt);
    }
    // Every copy goes to the one home.
    assert!(report.docs_per_joiner[1..].windows(2).all(|w| w[0] == w[1]));
}

/// A stream that does not fill its last window still closes it.
#[test]
fn partial_last_window_closes() {
    let dict = Dictionary::new();
    let cfg = pipeline_config(
        StreamJoinConfig::default()
            .with_m(2)
            .with_window_spec(WindowSpec::tumbling(10)),
    );
    let docs = window(&dict, 0, 25);
    let report = run(cfg, &dict, docs.chunks(10).map(<[_]>::to_vec).collect());
    assert_eq!(report.joins_per_window.len(), 3); // 10 + 10 + 5
    let routed: Vec<usize> = report.routing.iter().map(|r| r.docs).collect();
    assert_eq!(routed, vec![10, 10, 5]);
}

#[test]
fn run_summary_aggregates() {
    let dict = Dictionary::new();
    let cfg = StreamJoinConfig::default()
        .with_m(2)
        .with_window_spec(WindowSpec::tumbling(10))
        .build()
        .unwrap();
    let panes = window(&dict, 0, 30).chunks(10).map(<[_]>::to_vec).collect();
    // What the figures measure: the lock-step run's `RunSummary`.
    let summary = ssj_bench::measure(cfg, &dict, panes);
    assert_eq!(summary.windows, 3);
    assert!(summary.mean_replication() >= 1.0);
    assert!(summary.mean_max_load() > 0.0);
    assert!(summary.repartition_fraction() >= 0.0);
    assert!(summary.mean_load_balance() >= 0.0);
}

/// The Assigners' routed copies of a window are exactly the documents the
/// joiners held, summed over several Assigners in a free-running run, under
/// a creator-built (AG) and a Merger-built (SC) table.
#[test]
fn routed_copies_equal_the_joiners_documents() {
    for kind in [PartitionerKind::Ag, PartitionerKind::Sc] {
        let dict = Dictionary::new();
        let docs: Vec<_> = (0..4).flat_map(|w| window(&dict, w * 100, 60)).collect();
        let cfg = StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(WindowSpec::tumbling(60))
            .with_partitioner(kind)
            .with_assigners(3)
            .build()
            .unwrap();
        let report = run_topology(cfg, &dict, docs).unwrap();
        assert_eq!(report.routing.len(), 4);
        for (w, routing) in report.routing.iter().enumerate() {
            let held: usize = report.docs_per_joiner[w].iter().sum();
            assert_eq!(routing.copies, held, "{}: window {w}", kind.name());
            assert_eq!(routing.docs, 60, "{}: window {w}", kind.name());
        }
    }
}

/// A lock-step reader whose Reporter died waits for no more results: the
/// attempt ends within seconds, and the reader does not panic. A one-shot
/// crash is resumed and every window equals the oracle; a crash that
/// fires in every attempt ends the run in the Reporter's own error.
#[test]
fn reporter_crash_ends_a_lockstep_run() {
    let dict = Dictionary::new();
    let windows: Vec<_> = (0..4).map(|w| window(&dict, w * 20, 20)).collect();
    for repeating in [false, true] {
        let cfg = StreamJoinConfig::default()
            .with_m(2)
            .with_window_spec(WindowSpec::tumbling(20));
        let plan = if repeating {
            FaultPlan::new().crash_repeating("reporter", 0, 1, 0)
        } else {
            FaultPlan::new().crash("reporter", 0, 1, 0)
        };
        let t0 = Instant::now();
        let reader = lockstep_reader(windows.iter().map(Vec::as_slice));
        let run = run_topology_collect(pipeline_config(cfg), &dict, reader, plan, None);
        assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
        match run {
            Err(RunError::TaskPanicked(tasks)) if repeating => {
                assert_eq!(tasks, vec!["reporter[0]".to_string()])
            }
            Ok(report) if !repeating => {
                let truth = oracle(&windows.concat(), WindowSpec::tumbling(20));
                assert_eq!(report.joins_per_window, truth.windows);
                assert_eq!(report.runtime.attempts, 2);
            }
            other => panic!("repeating {repeating}: {other:?}"),
        }
    }
}
