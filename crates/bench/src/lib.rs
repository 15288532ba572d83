//! # ssj-bench — the experiment harness
//!
//! Shared machinery for regenerating every figure of the paper's evaluation
//! (§VII). The `figures` binary drives it; the Criterion benches reuse the
//! dataset builders.
//!
//! Scaling: the paper streams a day of logs per 3-minute window on an
//! 8-node cluster. Here a "minute" maps to [`Scale::docs_per_minute`]
//! documents, so the paper's `w ∈ {3, 6, 9}` minutes become windows of
//! `3·dpm / 6·dpm / 9·dpm` documents. Shapes (who wins, by what factor) are
//! preserved; absolute numbers are not comparable to the paper's cluster.

#![warn(missing_docs)]

#[cfg(feature = "count-allocs")]
pub mod alloc_counter;
pub mod report;
pub mod traffic;

use ssj_core::{run_topology_with, Reader, RunSummary, StreamJoinConfig};
use ssj_data::{
    ideal_stream, IdealConfig, NoBenchConfig, NoBenchGen, ServerLogConfig, ServerLogGen,
};
use ssj_json::{Dictionary, Document};
use ssj_partition::PartitionerKind;
use ssj_runtime::FaultPlan;
use std::sync::{Arc, Mutex};

/// The two datasets of §VII-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataSet {
    /// Server-log substitute for the proprietary real-world data.
    RwData,
    /// NoBench-style synthetic data.
    NbData,
}

impl DataSet {
    /// Paper-style label ("rwData" / "nbData").
    pub fn label(self) -> &'static str {
        match self {
            DataSet::RwData => "rwData",
            DataSet::NbData => "nbData",
        }
    }

    /// Both datasets in presentation order.
    pub fn all() -> [DataSet; 2] {
        [DataSet::RwData, DataSet::NbData]
    }

    /// Generate `n` documents into a fresh dictionary.
    pub fn generate(self, n: usize, seed: u64) -> (Dictionary, Vec<Document>) {
        let dict = Dictionary::new();
        let docs = match self {
            DataSet::RwData => ServerLogGen::new(
                ServerLogConfig {
                    seed,
                    ..Default::default()
                },
                dict.clone(),
            )
            .take_docs(n),
            DataSet::NbData => NoBenchGen::new(
                NoBenchConfig {
                    seed,
                    ..Default::default()
                },
                dict.clone(),
            )
            .take_docs(n),
        };
        (dict, docs)
    }
}

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Documents per simulated "minute" (the paper's window unit).
    pub docs_per_minute: usize,
    /// Number of windows per experiment run.
    pub windows: usize,
    /// Multiplier on Fig. 11 document counts (1.0 = the paper's 100k–500k /
    /// 10k–50k axis values).
    pub join_scale: f64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            docs_per_minute: 250,
            windows: 8,
            join_scale: 0.1,
        }
    }
}

/// What the figures measure (one bar in Figs. 6–10): the whole-run quality
/// of a lock-step topology over `panes` with one Assigner and batch 1 — the
/// single Router the paper's figures model.
pub fn measure(
    config: StreamJoinConfig,
    dict: &Dictionary,
    panes: Vec<Vec<Document>>,
) -> RunSummary {
    let config = StreamJoinConfig {
        assigners: 1,
        batch_size: 1,
        ..config
    };
    let panes = panes
        .into_iter()
        .map(|pane| pane.into_iter().map(Arc::new).collect())
        .collect();
    let summary = Arc::new(Mutex::new(RunSummary::default()));
    let sink = {
        let summary = Arc::clone(&summary);
        move |w| summary.lock().expect("summary lock").add(&w)
    };
    run_topology_with(
        config,
        dict,
        Reader::Lockstep(panes),
        FaultPlan::new(),
        None,
        sink,
    )
    .expect("experiment run");
    let summary = summary.lock().expect("summary lock").clone();
    summary
}

/// Run the streaming partitioning experiment behind Figs. 6–9.
pub fn partition_experiment(
    dataset: DataSet,
    kind: PartitionerKind,
    m: usize,
    w_minutes: usize,
    theta: f64,
    scale: Scale,
) -> RunSummary {
    let window_docs = w_minutes * scale.docs_per_minute;
    let total = window_docs * scale.windows;
    let (dict, docs) = dataset.generate(total, 42);
    let cfg = StreamJoinConfig::default()
        .with_m(m)
        .with_window_spec(ssj_core::WindowSpec::tumbling(window_docs))
        .with_theta(theta)
        .with_partitioner(kind)
        .with_expansion(true)
        // Figs. 6–9 compare the partitioners' replication and load, which
        // a routing key would flatten to about 1.0 for all of them.
        .with_key_routing(false)
        .build()
        .expect("valid experiment config");
    let panes = docs.chunks(window_docs).map(<[Document]>::to_vec).collect();
    measure(cfg, &dict, panes)
}

/// Run the ideal-execution experiment of Fig. 10.
pub fn ideal_experiment(kind: PartitionerKind, m: usize, scale: Scale) -> RunSummary {
    let dict = Dictionary::new();
    // A stable base window: no novelty, so co-occurrence characteristics
    // repeat exactly (§VII-E-4).
    let base = ServerLogGen::new(
        ServerLogConfig {
            seed: 42,
            novelty: 0.0,
            ..Default::default()
        },
        dict.clone(),
    )
    .take_docs(6 * scale.docs_per_minute);
    let windows = ideal_stream(
        &base,
        IdealConfig {
            windows: scale.windows,
            novel_per_window: (base.len() / 100).max(1),
        },
        &dict,
    );
    let cfg = StreamJoinConfig::default()
        .with_m(m)
        .with_window_spec(ssj_core::WindowSpec::tumbling(
            base.len() + base.len() / 100,
        ))
        .with_partitioner(kind)
        .with_expansion(true)
        .build()
        .expect("valid experiment config");
    measure(cfg, &dict, windows)
}

pub mod testutil {
    //! What the differential tests share: the brute-force [`oracle`] every
    //! run is compared with, run-equivalence assertions with a readable
    //! per-window diff, the [`churn_stream`] most of them join, and what the
    //! tests of the §VI-A control loop need: [`shifting_stream`], on which
    //! a θ signal must fire, and [`lockstep_reader`], which makes its timing
    //! deterministic.

    use ssj_core::{canonicalize, Reader, TopologyRunReport, WindowSpec};
    use ssj_json::{Dictionary, DocId, Document};
    use std::fmt::Debug;
    use std::sync::Arc;

    /// The shape of a [`churn_stream`].
    #[derive(Debug, Clone, Copy)]
    pub struct Churn {
        /// Multiplier seed: document `i` draws its values from
        /// `x = i * (seed | 1)`.
        pub seed: u64,
        /// Every `fresh_every`-th document carries a fresh pair instead of
        /// the common `user` / `sev` pairs.
        pub fresh_every: u64,
        /// `Some(w)`: the stream is cut into windows of `w` documents, `i`
        /// restarts in each, window `k` keys its fresh pairs `w{k}` and adds
        /// `k * window_shift` to `x`. `None`: `i` is the stream position and
        /// the fresh pairs are `fresh{x % 5}`.
        pub window: Option<usize>,
        /// See [`Churn::window`].
        pub window_shift: u64,
    }

    /// A joinable stream with churn: `n` documents with ids `0..n`, each a
    /// `grp` of three plus either a `user` / `sev` pair or (every
    /// `fresh_every`-th) a fresh pair that keeps the hash homes and the
    /// repartition control loop busy.
    pub fn churn_stream(dict: &Dictionary, n: usize, churn: Churn) -> Vec<Document> {
        (0..n as u64)
            .map(|id| {
                let (k, i) = match churn.window {
                    Some(w) => (id / w as u64, id % w as u64),
                    None => (0, id),
                };
                let x = i
                    .wrapping_mul(churn.seed | 1)
                    .wrapping_add(k * churn.window_shift);
                let json = if !i.is_multiple_of(churn.fresh_every) {
                    format!(
                        r#"{{"user":"u{}","sev":"s{}","grp":{}}}"#,
                        x % 6,
                        x % 4,
                        x % 3
                    )
                } else if churn.window.is_some() {
                    format!(r#"{{"w{k}":"fresh{}","grp":{}}}"#, x % 4, x % 3)
                } else {
                    format!(r#"{{"fresh{}":"x{}","grp":{}}}"#, x % 5, x % 4, x % 3)
                };
                Document::from_json(DocId(id), &json, dict).expect("generated JSON is valid")
            })
            .collect()
    }

    /// The brute-force join a run of `docs` under `spec` must report: every
    /// joinable pair of documents less than `spec.panes_per_window()` panes
    /// apart (panes cut by stream position), attributed to the pane of its
    /// later document — the pane the run reports it in. Tumbling is the
    /// one-pane case: each window's pairs.
    pub fn oracle(docs: &[Document], spec: WindowSpec) -> RunWindows {
        let (pane, lookback) = (spec.pane_docs(), spec.panes_per_window());
        RunWindows::from_pairs(docs.chunks(pane).enumerate().map(|(p, later)| {
            let mut pairs = Vec::new();
            let first = p.saturating_sub(lookback - 1) * pane;
            for (j, b) in later.iter().enumerate() {
                for a in &docs[first..p * pane + j] {
                    if a.joins_with(b) {
                        pairs.push((a.id().0, b.id().0));
                    }
                }
            }
            pairs
        }))
    }

    /// A stream whose value vocabulary shifts mid-run — the situation the
    /// θ-threshold exists for, in its cleanest form: `panes * pane_docs`
    /// documents with ids `0..`; those of pane `shift_at` and later draw
    /// their values from a second vocabulary. Every pane before the shift is
    /// the same multiset of documents (the routing quality the Assigners
    /// measure is constant, so nothing is signalled by accident); a table
    /// computed before the shift knows none of the later values, so every
    /// later document is homed until the partitions are recomputed.
    ///
    /// A document carries a `Host` and a `Rack` that determine each other
    /// (8 values) and a `Mode` (2 values — with `m > 2` it forces §VI-B
    /// expansion); two documents join exactly when they agree on all three.
    /// Consecutive document pairs are identical, so two round-robin
    /// consumers see the same mix.
    pub fn shifting_stream(
        dict: &Dictionary,
        panes: usize,
        pane_docs: usize,
        shift_at: usize,
    ) -> Vec<Document> {
        (0..(panes * pane_docs) as u64)
            .map(|i| {
                let era = if (i as usize) / pane_docs < shift_at {
                    'a'
                } else {
                    'b'
                };
                let j = i % pane_docs as u64 / 2;
                let (host, mode) = (j % 8, j / 8 % 2);
                let json = format!(
                    r#"{{"Host":"{era}h{host}","Rack":"{era}r{host}","Mode":"{era}m{mode}"}}"#
                );
                Document::from_json(DocId(i), &json, dict).expect("generated JSON is valid")
            })
            .collect()
    }

    /// A [`Reader::Lockstep`] over `panes`: pane `p + 1` is read only once
    /// pane `p` has reached the sink.
    pub fn lockstep_reader<'a>(panes: impl IntoIterator<Item = &'a [Document]>) -> Reader {
        let panes = panes.into_iter();
        Reader::Lockstep(
            panes
                .map(|p| p.iter().cloned().map(Arc::new).collect())
                .collect(),
        )
    }

    /// Per-window join output in the topology's canonical form
    /// ([`canonicalize`]), one `Vec` per window in window order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RunWindows {
        /// Sorted unique `(min, max)` pairs per window.
        pub windows: Vec<Vec<(u64, u64)>>,
    }

    impl RunWindows {
        /// Bring an oracle's raw per-window pair collections into the
        /// canonical form a run reports.
        pub fn from_pairs<I>(windows: I) -> RunWindows
        where
            I: IntoIterator,
            I::Item: IntoIterator<Item = (u64, u64)>,
        {
            let windows = windows
                .into_iter()
                .map(|w| {
                    let mut pairs = w.into_iter().collect();
                    canonicalize(&mut pairs);
                    pairs
                })
                .collect();
            RunWindows { windows }
        }
    }

    /// Anything comparable as canonical per-window join output.
    pub trait AsRunWindows {
        /// The canonical per-window pairs of this run.
        fn run_windows(&self) -> &[Vec<(u64, u64)>];
    }

    impl AsRunWindows for RunWindows {
        fn run_windows(&self) -> &[Vec<(u64, u64)>] {
            &self.windows
        }
    }

    impl AsRunWindows for TopologyRunReport {
        fn run_windows(&self) -> &[Vec<(u64, u64)>] {
            &self.joins_per_window
        }
    }

    /// Assert that two runs produced identical join output in every window;
    /// panics with the first differing window and both sides' pairs.
    pub fn assert_runs_equal(a: &impl AsRunWindows, b: &impl AsRunWindows) {
        assert_windows_equal("join pairs", a.run_windows(), b.run_windows());
    }

    /// Generic per-window equality with a readable per-window diff:
    /// compares lengths first, then each window, naming `what` differs.
    pub fn assert_windows_equal<T: PartialEq + Debug>(what: &str, a: &[T], b: &[T]) {
        assert_eq!(
            a.len(),
            b.len(),
            "window counts differ for {what}: {} vs {}",
            a.len(),
            b.len()
        );
        for (w, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x, y,
                "window {w}: {what} differ\n  left: {x:?}\n right: {y:?}"
            );
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn panes_repeat_until_the_vocabulary_shifts() {
            let dict = Dictionary::new();
            let docs = shifting_stream(&dict, 4, 32, 2);
            let pairs = |p: usize| -> Vec<Vec<_>> {
                docs[p * 32..(p + 1) * 32]
                    .iter()
                    .map(|d| d.avps().collect())
                    .collect()
            };
            assert_eq!(pairs(0), pairs(1));
            assert_eq!(pairs(2), pairs(3));
            // No pair survives the shift, so nothing joins across it.
            assert!(docs[..64]
                .iter()
                .all(|a| docs[64..].iter().all(|b| !a.joins_with(b))));
            assert!(docs[0].joins_with(&docs[1]) && !docs[0].joins_with(&docs[2]));
        }

        #[test]
        fn canonicalization_flips_sorts_and_dedups() {
            let a = RunWindows::from_pairs(vec![vec![(2, 1), (1, 2), (3, 4)]]);
            let b = RunWindows::from_pairs(vec![vec![(3, 4), (1, 2)]]);
            assert_eq!(a, b);
            assert_runs_equal(&a, &b);
        }

        #[test]
        #[should_panic(expected = "window 1")]
        fn differing_window_is_named() {
            let a = RunWindows::from_pairs(vec![vec![(1, 2)], vec![(3, 4)]]);
            let b = RunWindows::from_pairs(vec![vec![(1, 2)], vec![(3, 5)]]);
            assert_runs_equal(&a, &b);
        }

        #[test]
        #[should_panic(expected = "window counts differ")]
        fn differing_window_count_is_named() {
            let a = RunWindows::from_pairs(vec![vec![(1, 2)]]);
            let b = RunWindows::from_pairs(Vec::<Vec<(u64, u64)>>::new());
            assert_runs_equal(&a, &b);
        }
    }
}

/// Print a paper-style table: rows = x-axis values, columns = algorithms.
pub fn print_table<T: std::fmt::Display>(
    title: &str,
    x_label: &str,
    xs: &[T],
    columns: &[(&str, Vec<f64>)],
) {
    println!("\n# {title}");
    print!("{x_label:<8}");
    for (name, _) in columns {
        print!("{name:>10}");
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{:<8}", x.to_string());
        for (_, values) in columns {
            print!("{:>10.3}", values[i]);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            docs_per_minute: 40,
            windows: 3,
            join_scale: 0.01,
        }
    }

    #[test]
    fn partition_experiment_runs_all_combinations() {
        for dataset in DataSet::all() {
            for kind in PartitionerKind::all() {
                let m = partition_experiment(dataset, kind, 4, 3, 0.2, tiny());
                assert!(m.mean_replication() >= 1.0, "{dataset:?} {kind:?}: {m:?}");
                assert!(m.mean_replication() <= 4.0 + 1e-9);
                assert!((0.0..=1.0).contains(&m.mean_load_balance()));
                assert!((0.0..=1.0).contains(&m.mean_max_load()));
                assert!((0.0..=1.0).contains(&m.repartition_fraction()));
            }
        }
    }

    #[test]
    fn ideal_experiment_runs() {
        let m = ideal_experiment(PartitionerKind::Ag, 4, tiny());
        assert!(m.mean_replication() >= 1.0);
    }

    #[test]
    fn ds_has_best_replication_ag_has_better_balance_than_ds() {
        // Shape check from the paper on the ideal (stable) workload:
        // DS ≈ 1 replication but concentrated load; AG balances better.
        let scale = Scale {
            docs_per_minute: 80,
            windows: 4,
            join_scale: 0.01,
        };
        let ag = ideal_experiment(PartitionerKind::Ag, 4, scale);
        let ds = ideal_experiment(PartitionerKind::Ds, 4, scale);
        assert!(
            ds.mean_replication() <= ag.mean_replication() + 1e-9,
            "DS replication {} vs AG {}",
            ds.mean_replication(),
            ag.mean_replication()
        );
        assert!(
            ag.mean_max_load() <= ds.mean_max_load() + 1e-9,
            "AG max load {} vs DS {}",
            ag.mean_max_load(),
            ds.mean_max_load()
        );
    }

    #[test]
    fn dataset_generation_deterministic() {
        let (d1, a) = DataSet::RwData.generate(50, 1);
        let (d2, b) = DataSet::RwData.generate(50, 1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_json(&d1), y.to_json(&d2));
        }
    }
}
