//! Sliding-window exactness: the pane-chained distributed runtime must
//! produce, pane for pane, exactly the pairs of the local [`SlidingJoiner`]
//! oracle — which in turn must agree with brute force (NLJ over the whole
//! stream, filtered to pairs at most `panes_per_window - 1` panes apart).
//!
//! Each pair is attributed to the pane of its *later* document, matching
//! the runtime's JoinStats keying (a cross-pane pair is found when the
//! later document probes the frozen panes).

use proptest::prelude::*;
use ssj_bench::testutil::{assert_runs_equal, RunWindows};
use ssj_core::{run_topology, run_topology_distributed, DistRuntime, StreamJoinConfig, WindowSpec};
use ssj_join::SlidingJoiner;
use ssj_json::{Dictionary, DocId, Document};
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

fn sliding_cfg(spec: WindowSpec, m: usize) -> StreamJoinConfig {
    StreamJoinConfig::default()
        .with_m(m)
        .with_window_spec(spec)
        .with_partition_creators(2)
        .with_assigners(3)
        .with_expansion(false)
        .with_batch_size(16)
        .build()
        .unwrap()
}

/// Oracle A: the local pane-chained joiner, pairs keyed by the pane of the
/// later (probing) document.
fn oracle_windows(docs: &[Document], spec: WindowSpec) -> RunWindows {
    let mut joiner = SlidingJoiner::new(spec);
    let panes = docs.len() / spec.pane_docs();
    let mut windows: Vec<Vec<(u64, u64)>> = vec![Vec::new(); panes];
    for (i, d) in docs.iter().enumerate() {
        let pane = i / spec.pane_docs();
        for p in joiner.insert_and_probe(d.clone()) {
            windows[pane].push((p.0, d.id().0));
        }
    }
    RunWindows::from_pairs(windows)
}

/// Oracle B: brute force — every joinable pair of the whole stream whose
/// documents are at most `panes_per_window - 1` panes apart.
fn brute_force_windows(docs: &[Document], spec: WindowSpec) -> RunWindows {
    let panes = docs.len() / spec.pane_docs();
    let lookback = (spec.panes_per_window() - 1) as u64;
    let mut windows: Vec<Vec<(u64, u64)>> = vec![Vec::new(); panes];
    for (a, b) in ssj_join::nlj::join_batch(docs) {
        let (lo, hi) = (a.0.min(b.0), a.0.max(b.0));
        let (pane_lo, pane_hi) = (lo / spec.pane_docs() as u64, hi / spec.pane_docs() as u64);
        if pane_hi - pane_lo <= lookback {
            windows[pane_hi as usize].push((lo, hi));
        }
    }
    RunWindows::from_pairs(windows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// THE tentpole property: across batch sizes, the distributed sliding
    /// runtime ≡ SlidingJoiner oracle ≡ brute force.
    #[test]
    fn sliding_runtime_matches_oracle_and_brute_force(
        seed in 0u64..1 << 40,
        m in 2usize..5,
        panes in 2usize..5,
    ) {
        let pane = 40;
        let spec = WindowSpec::sliding(pane, panes);
        let n = pane * (panes + 3); // several full windows worth of panes
        let dict = Dictionary::new();
        let docs = stream(&dict, n, seed);

        let oracle = oracle_windows(&docs, spec);
        let brute = brute_force_windows(&docs, spec);
        assert_runs_equal(&oracle, &brute);

        for batch in [1usize, 64] {
            let cfg = sliding_cfg(spec, m)
                .with_batch_size(batch)
                .build()
                .unwrap();
            let report = run_topology(cfg, &dict, docs.clone()).unwrap();
            assert_runs_equal(&report, &oracle);
        }
    }
}

/// A 2-process (thread-isolated, socket-linked) sliding group run produces
/// the same pane-keyed pairs as the single-process run and the oracle.
#[test]
fn sliding_group_run_matches_single_process() {
    let spec = WindowSpec::sliding(30, 3);
    let n = 30 * 6;
    let seed = 20260808;
    let config = sliding_cfg(spec, 4).with_workers(2).build().unwrap();

    let dict = Dictionary::new();
    let docs = stream(&dict, n, seed);
    let solo_cfg = config.clone().with_workers(1).build().unwrap();
    let solo = run_topology(solo_cfg, &dict, docs.clone()).unwrap();

    let dir: PathBuf = std::env::temp_dir().join(format!("ssj-slide-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let handles: Vec<_> = (0..config.workers)
        .map(|w| {
            let dir = dir.clone();
            let config = config.clone();
            std::thread::Builder::new()
                .name(format!("ssj-worker-{w}"))
                .spawn(move || {
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
    let grouped = reports.remove(0);

    assert_runs_equal(&solo, &grouped);
    assert_runs_equal(&grouped, &oracle_windows(&docs, spec));
}

/// A 1-pane sliding spec degenerates to tumbling: same pairs, pane = window.
#[test]
fn single_pane_sliding_equals_tumbling() {
    let dict = Dictionary::new();
    let docs = stream(&dict, 200, 7);
    let tumbling = run_topology(
        sliding_cfg(WindowSpec::tumbling(50), 3),
        &dict,
        docs.clone(),
    )
    .unwrap();
    let sliding = run_topology(
        sliding_cfg(WindowSpec::sliding(50, 1), 3),
        &dict,
        docs.clone(),
    )
    .unwrap();
    assert_runs_equal(&tumbling, &sliding);
    assert_runs_equal(&sliding, &oracle_windows(&docs, WindowSpec::sliding(50, 1)));
}
