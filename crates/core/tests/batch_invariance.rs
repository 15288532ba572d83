//! Transport batching must not change join results: the full Fig. 2
//! topology produces identical per-window output for any batch size, on
//! uniform and on Zipf-skewed streams, and that output is the brute-force
//! join.

use proptest::prelude::*;
use ssj_bench::testutil::{assert_runs_equal, RunWindows};
use ssj_bench::traffic::{sessionized_docs, skewed_docs, SkewConfig};
use ssj_bench::DataSet;
use ssj_core::{ground_truth_pairs, run_topology, StreamJoinConfig};
use ssj_json::{Dictionary, DocId, Document};

/// A stream with enough shared attribute-value pairs to join densely and
/// enough churn to exercise the repartition feedback loop.
fn stream(dict: &Dictionary, windows: usize, per_window: usize) -> Vec<Document> {
    let mut out = Vec::new();
    for w in 0..windows as u64 {
        for i in 0..per_window as u64 {
            let id = w * per_window as u64 + i;
            // A rotating minority of fresh pairs per window keeps the
            // assigners signalling without overwhelming the join.
            let json = if i.is_multiple_of(7) {
                format!(r#"{{"w{w}":"fresh{}","grp":{}}}"#, i % 4, i % 3)
            } else {
                format!(
                    r#"{{"user":"u{}","sev":"s{}","grp":{}}}"#,
                    i % 6,
                    i % 4,
                    i % 3
                )
            };
            out.push(Document::from_json(DocId(id), &json, dict).unwrap());
        }
    }
    out
}

#[test]
fn join_output_identical_across_batch_sizes() {
    let dict = Dictionary::new();
    let (windows, per_window) = (4, 90);
    let docs = stream(&dict, windows, per_window);
    let base_cfg = StreamJoinConfig::default()
        .with_m(3)
        .with_window_spec(ssj_core::WindowSpec::tumbling(per_window))
        .with_expansion(false);

    let unbatched = run_topology(
        base_cfg.clone().with_batch_size(1).build().unwrap(),
        &dict,
        docs.clone(),
    )
    .unwrap();

    // The unbatched run must itself be exact versus brute force.
    let truth = RunWindows::from_pairs((0..windows).map(|w| {
        ground_truth_pairs(&docs[w * per_window..(w + 1) * per_window])
            .into_iter()
            .collect::<Vec<_>>()
    }));
    assert_runs_equal(&truth, &unbatched);

    for bs in [7usize, 64] {
        let batched = run_topology(
            base_cfg.clone().with_batch_size(bs).build().unwrap(),
            &dict,
            docs.clone(),
        )
        .unwrap();
        assert_runs_equal(&unbatched, &batched);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Skew puts a hot session's quadratic join on one joiner: the topology
    /// stays exact for Zipf s ∈ {0, 0.9, 1.2} × batch ∈ {1, 64} × m ∈ 3..=6,
    /// on a closed-world stream (every pair table-known, so documents route
    /// through the table) and on rwData (novel pairs force the exactness
    /// broadcast).
    #[test]
    fn skewed_streams_join_exactly(
        seed in 0u64..1 << 40,
        s_pick in 0usize..3,
        batch_big in any::<bool>(),
        m in 3usize..7,
        closed_world in any::<bool>(),
    ) {
        let s = [0.0, 0.9, 1.2][s_pick];
        let (windows, per_window) = (3, 80);
        let skew = SkewConfig { seed, keys: 6, s, attach: 0.8 };
        let (dict, docs) = if closed_world {
            sessionized_docs(windows * per_window, skew)
        } else {
            skewed_docs(DataSet::RwData, windows * per_window, skew)
        };
        let cfg = StreamJoinConfig::default()
            .with_m(m)
            .with_window_spec(ssj_core::WindowSpec::tumbling(per_window))
            .with_assigners(2)
            .with_expansion(false)
            .with_batch_size(if batch_big { 64 } else { 1 })
            .with_pool_workers(2)
            .build()
            .unwrap();
        let run = run_topology(cfg, &dict, docs.clone()).unwrap();
        let truth = RunWindows::from_pairs((0..windows).map(|w| {
            ground_truth_pairs(&docs[w * per_window..(w + 1) * per_window])
        }));
        assert_runs_equal(&truth, &run);
    }
}
