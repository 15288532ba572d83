//! In-process shared-nothing equivalence: the same Fig. 2 topology run as a
//! 2- or 3-member socket-linked group (each member on its own thread, each
//! with its *own* dictionary built from the same stream) must produce
//! per-window join output byte-identical to the plain single-process run.
//!
//! Threads stand in for processes here — they share no dictionary, no
//! channels, and talk only through the Unix-socket mesh — which keeps the
//! test fast; true multi-process runs are covered by the CLI's
//! `distributed` test.

use proptest::prelude::*;
use ssj_bench::testutil::{assert_runs_equal, RunWindows};
use ssj_core::{
    ground_truth_pairs, run_topology, run_topology_distributed, DistRuntime, StreamJoinConfig,
};
use ssj_json::{Dictionary, DocId, Document};
use ssj_partition::PartitionerKind;
use std::path::PathBuf;

fn stream(dict: &Dictionary, n: usize, seed: u64) -> Vec<Document> {
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

fn cfg(window: usize, m: usize, workers: usize) -> StreamJoinConfig {
    StreamJoinConfig::default()
        .with_m(m)
        .with_window_spec(ssj_core::WindowSpec::tumbling(window))
        .with_partition_creators(2)
        .with_assigners(3)
        .with_expansion(false)
        .with_batch_size(16)
        .with_workers(workers)
        .build()
        .unwrap()
}

fn socket_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssj-dist-eq-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the topology as a `workers`-member socket group, one thread per
/// member, each with an independently built dictionary; returns worker 0's
/// report (the reporter lives there).
fn group_run(
    config: StreamJoinConfig,
    n: usize,
    seed: u64,
    dir: PathBuf,
) -> ssj_core::TopologyRunReport {
    let handles: Vec<_> = (0..config.workers)
        .map(|w| {
            let dir = dir.clone();
            let config = config.clone();
            std::thread::Builder::new()
                .name(format!("ssj-worker-{w}"))
                .spawn(move || {
                    // Each "process" builds its own dictionary and stream,
                    // exactly as real worker processes do at deploy time.
                    let dict = Dictionary::new();
                    let docs = stream(&dict, n, seed);
                    let dr = DistRuntime {
                        workers: config.workers,
                        my_worker: w,
                        socket_dir: dir,
                        attempt: 0,
                    };
                    run_topology_distributed(config, &dict, docs, &dr)
                })
                .unwrap()
        })
        .collect();
    let mut reports: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread panicked").unwrap())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    reports.remove(0)
}

/// `config` as a socket group over a 3-window stream equals the
/// single-process run, window for window, and both equal brute force.
fn assert_group_matches_solo(config: StreamJoinConfig, window: usize, seed: u64, tag: &str) {
    let nwin = 3;
    let dict = Dictionary::new();
    let docs = stream(&dict, nwin * window, seed);
    let solo_cfg = config.clone().with_workers(1).build().unwrap();
    let solo = run_topology(solo_cfg, &dict, docs.clone()).unwrap();
    let grouped = group_run(config, nwin * window, seed, socket_dir(tag));
    assert_runs_equal(&solo, &grouped);
    let truth = RunWindows::from_pairs(
        (0..nwin).map(|w| ground_truth_pairs(&docs[w * window..(w + 1) * window])),
    );
    assert_runs_equal(&truth, &grouped);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// THE §4f tentpole property: a socket-linked group run equals the
    /// single-process pooled run, window for window, pair for pair — and
    /// both are exact versus brute force.
    #[test]
    fn group_run_matches_single_process(
        seed in 0u64..1 << 40,
        workers in 2usize..4,
        m in 2usize..5,
    ) {
        let tag = format!("{seed}-{workers}-{m}");
        assert_group_matches_solo(cfg(60, m, workers), 60, seed, &tag);
    }
}

/// Non-leader workers return empty join output (the reporter is placed on
/// worker 0), and every worker's run terminates cleanly.
#[test]
fn non_leader_reports_are_empty() {
    let config = cfg(50, 3, 2);
    let dir = socket_dir("empty");
    let handles: Vec<_> = (0..2)
        .map(|w| {
            let dir = dir.clone();
            let config = config.clone();
            std::thread::spawn(move || {
                let dict = Dictionary::new();
                let docs = stream(&dict, 100, 12345);
                let dr = DistRuntime {
                    workers: 2,
                    my_worker: w,
                    socket_dir: dir,
                    attempt: 0,
                };
                run_topology_distributed(config, &dict, docs, &dr).unwrap()
            })
        })
        .collect();
    let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(reports[0].joins_per_window.len(), 2);
    assert!(reports[1].joins_per_window.is_empty());
}

/// A centralized partitioner across the socket mesh: under SC the creators
/// ship their shares' documents to the Merger, and creator 1 sits on worker
/// 1, so half of every build crosses a socket. The output equals the solo
/// run and brute force.
#[test]
fn sc_group_run_ships_creator_documents_across_the_mesh() {
    let config = StreamJoinConfig {
        partitioner: PartitionerKind::Sc,
        ..cfg(60, 3, 2)
    };
    assert_group_matches_solo(config, 60, 99, "sc");
}
