//! Hot-group replication must be invisible in the results: for Zipfian
//! streams of any skew, the full Fig. 2 topology with `replicate_hot` on
//! produces per-window join output byte-identical to the unreplicated run
//! and exact versus the brute-force nested-loop oracle — across batch
//! sizes (DESIGN.md §4h).

use proptest::prelude::*;
use ssj_bench::testutil::{assert_runs_equal, RunWindows};
use ssj_bench::traffic::{sessionized_docs, skewed_docs, SkewConfig};
use ssj_bench::DataSet;
use ssj_core::{ground_truth_pairs, run_topology, StreamJoinConfig};

fn cfg(per_window: usize, m: usize, batch: usize) -> StreamJoinConfig {
    StreamJoinConfig::default()
        .with_m(m)
        .with_window_spec(ssj_core::WindowSpec::tumbling(per_window))
        .with_assigners(2)
        .with_expansion(false)
        .with_batch_size(batch)
        .with_pool_workers(2)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole property: replicated ≡ unreplicated ≡ brute force, for
    /// Zipf s ∈ {0, 0.9, 1.2} × batch ∈ {1, 64}.
    #[test]
    fn replicated_join_output_matches_unreplicated(
        seed in 0u64..1 << 40,
        s_pick in 0usize..3,
        batch_big in any::<bool>(),
        m in 3usize..7,
        hot_factor_low in any::<bool>(),
        closed_world in any::<bool>(),
    ) {
        let s = [0.0, 0.9, 1.2][s_pick];
        let batch = if batch_big { 64 } else { 1 };
        // A low threshold flags many groups hot (stress the replica
        // routing); the default flags only true outliers.
        let hot_factor = if hot_factor_low { 1.2 } else { 4.0 };
        let (nwin, per_window) = (3, 80);
        let skew = SkewConfig { seed, keys: 6, s, attach: 0.8 };
        // The closed-world stream keeps every pair table-known, so the
        // replica cells actually carry traffic; the open dataset adds
        // novelty churn and exercises the exactness broadcast instead.
        let (dict, docs) = if closed_world {
            sessionized_docs(nwin * per_window, skew)
        } else {
            skewed_docs(DataSet::RwData, nwin * per_window, skew)
        };

        let base_cfg = cfg(per_window, m, batch);
        let base = run_topology(base_cfg, &dict, docs.clone()).unwrap();

        let rep_cfg = cfg(per_window, m, batch)
            .with_replicate_hot(true)
            .with_hot_factor(hot_factor)
            .build()
            .unwrap();
        let rep = run_topology(rep_cfg, &dict, docs.clone()).unwrap();

        assert_runs_equal(&base, &rep);

        // Both must also be exact versus brute force, not merely agree.
        let truth = RunWindows::from_pairs((0..nwin).map(|w| {
            ground_truth_pairs(&docs[w * per_window..(w + 1) * per_window])
        }));
        assert_runs_equal(&truth, &rep);
    }
}

/// The equivalence above is only meaningful if replica routing actually
/// engages: under heavy skew with an aggressive threshold, the assigners
/// must route documents through hot-pair replica cells.
#[test]
fn replication_engages_under_skew() {
    let (dict, docs) = sessionized_docs(
        400,
        SkewConfig {
            seed: 42,
            keys: 4,
            s: 1.2,
            attach: 0.9,
        },
    );
    let cfg = StreamJoinConfig::default()
        .with_m(4)
        .with_window_spec(ssj_core::WindowSpec::tumbling(100))
        .with_assigners(2)
        .with_expansion(false)
        .with_replicate_hot(true)
        .with_hot_factor(1.2)
        .with_metrics(true)
        .build()
        .unwrap();
    let report = run_topology(cfg, &dict, docs.clone()).unwrap();
    let hot_routed: u64 = report
        .runtime
        .tasks
        .iter()
        .filter(|t| t.component == "assigner")
        .map(|t| t.counter("hot_routed"))
        .sum();
    assert!(
        hot_routed > 0,
        "aggressive threshold under heavy skew must trigger replica routing"
    );
    // And the routed results are still exact.
    for (w, found) in report.joins_per_window.iter().enumerate() {
        let truth = ground_truth_pairs(&docs[w * 100..(w + 1) * 100]);
        assert_eq!(found, &truth, "window {w}");
    }
}

/// Replication across pane-chained sliding windows: retired tables carry
/// their own hot lists, so replica routing must stay exact when a document
/// probes both current and retired tables.
#[test]
fn replication_stays_exact_with_sliding_windows() {
    let (dict, docs) = skewed_docs(
        DataSet::RwData,
        360,
        SkewConfig {
            seed: 7,
            keys: 5,
            s: 1.1,
            attach: 0.8,
        },
    );
    let spec = ssj_core::WindowSpec::sliding(60, 2);
    let base = StreamJoinConfig::default()
        .with_m(4)
        .with_window_spec(spec)
        .with_assigners(2)
        .with_expansion(false)
        .build()
        .unwrap();
    let rep = base
        .clone()
        .with_replicate_hot(true)
        .with_hot_factor(1.3)
        .build()
        .unwrap();
    let a = run_topology(base, &dict, docs.clone()).unwrap();
    let b = run_topology(rep, &dict, docs).unwrap();
    assert_runs_equal(&a, &b);
}
