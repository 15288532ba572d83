//! The work-stealing scheduler must be invisible in the results: the full
//! Fig. 2 topology produces per-window join output equal to brute force for
//! any worker count and batch size.

use proptest::prelude::*;
use ssj_bench::testutil::{assert_runs_equal, RunWindows};
use ssj_core::{ground_truth_pairs, run_topology, StreamJoinConfig};
use ssj_json::{Dictionary, DocId, Document};

/// A joinable stream with per-window churn (fresh attribute pairs) so the
/// repartition feedback loop fires.
fn stream(dict: &Dictionary, windows: usize, per_window: usize, seed: u64) -> Vec<Document> {
    let mut out = Vec::new();
    for w in 0..windows as u64 {
        for i in 0..per_window as u64 {
            let id = w * per_window as u64 + i;
            let x = i.wrapping_mul(seed | 1).wrapping_add(w);
            let json = if i.is_multiple_of(5) {
                format!(r#"{{"w{w}":"fresh{}","grp":{}}}"#, x % 4, x % 3)
            } else {
                format!(
                    r#"{{"user":"u{}","sev":"s{}","grp":{}}}"#,
                    x % 6,
                    x % 4,
                    x % 3
                )
            };
            out.push(Document::from_json(DocId(id), &json, dict).unwrap());
        }
    }
    out
}

fn cfg(per_window: usize, m: usize, batch: usize) -> StreamJoinConfig {
    StreamJoinConfig::default()
        .with_m(m)
        .with_window_spec(ssj_core::WindowSpec::tumbling(per_window))
        .with_assigners(3)
        .with_expansion(false)
        .with_batch_size(batch)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// THE scheduler property: any pool size (workers ∈ {1, 2, 8}) ×
    /// batch ∈ {1, 64} produces per-window join output equal to brute
    /// force over the same stream.
    #[test]
    fn join_output_is_exact_for_any_pool_size(
        seed in 0u64..1 << 40,
        workers_pick in 0usize..3,
        batch_big in any::<bool>(),
        m in 2usize..6,
    ) {
        let workers = [1usize, 2, 8][workers_pick];
        let batch = if batch_big { 64 } else { 1 };
        let (nwin, per_window) = (3, 60);
        let dict = Dictionary::new();
        let docs = stream(&dict, nwin, per_window, seed);

        let pooled_cfg = cfg(per_window, m, batch)
            .with_pool_workers(workers)
            .build()
            .unwrap();
        let pooled = run_topology(pooled_cfg, &dict, docs.clone()).unwrap();

        let truth = RunWindows::from_pairs((0..nwin).map(|w| {
            ground_truth_pairs(&docs[w * per_window..(w + 1) * per_window])
                .into_iter()
                .collect::<Vec<_>>()
        }));
        assert_runs_equal(&truth, &pooled);
    }
}

/// m ≫ workers: many joiners multiplex onto a single worker and the run
/// still terminates with exact output (the cooperative step/park protocol
/// cannot deadlock on one thread).
#[test]
fn many_joiners_on_one_worker_stay_exact() {
    let (nwin, per_window) = (3, 80);
    let dict = Dictionary::new();
    let docs = stream(&dict, nwin, per_window, 7);
    let pooled = run_topology(
        cfg(per_window, 32, 64)
            .with_pool_workers(1)
            .build()
            .unwrap(),
        &dict,
        docs.clone(),
    )
    .unwrap();
    let truth = RunWindows::from_pairs((0..nwin).map(|w| {
        ground_truth_pairs(&docs[w * per_window..(w + 1) * per_window])
            .into_iter()
            .collect::<Vec<_>>()
    }));
    assert_runs_equal(&truth, &pooled);
}

/// Core pinning is a hint, not a semantics change: a pinned run (on Linux;
/// a silent no-op elsewhere) produces the same output.
#[test]
fn pinned_run_stays_exact() {
    let (nwin, per_window) = (2, 60);
    let dict = Dictionary::new();
    let docs = stream(&dict, nwin, per_window, 11);
    let pinned = run_topology(
        cfg(per_window, 4, 64).with_pin_cores(true).build().unwrap(),
        &dict,
        docs.clone(),
    )
    .unwrap();
    let plain = run_topology(cfg(per_window, 4, 64), &dict, docs).unwrap();
    assert_runs_equal(&plain, &pinned);
}
