//! The deterministic window-by-window pipeline driver.
//!
//! Runs the topology's cadence synchronously, through the same code, so
//! experiment results are bit-reproducible and are the numbers the running
//! system would produce. One [`Router`] — the Assigner's — sees what an
//! Assigner of a lock-step run sees, window `k` after window `k`:
//!
//! 1. **Assignment**: every document of window `k` is routed with the table
//!    deployed at the close of `k − 1` (window 0 has none: it is broadcast).
//!    Documents with pairs the table does not know are broadcast too
//!    (§VI-A); a pair's δ-th sighting becomes an update request.
//! 2. **Merger**, at the close of `k`: a partition build from window `k`'s
//!    own documents at the close of window 0 and at the close of `k` after a
//!    θ signal at `k − 1` (§IV-A — AG builds local groups per
//!    PartitionCreator share and consolidates them; SC, DS and HASH are
//!    centralized); otherwise the pairs requested during `k − 1` — an
//!    Assigner sends them as it closes a pane, so they reach the Merger
//!    during the next one — are applied ([`PartitionTable::apply_update`])
//!    and deployed as one δ-refresh.
//! 3. **Quality**: the Router closes the pane — replication / Gini /
//!    max processing load, whether they degraded past θ against the
//!    baseline taken right after the last build, and the pane's requests.
//! 4. **Join**: each machine joins its window batch locally (§V); unique
//!    result pairs are counted globally.

use crate::assign::Router;
use crate::config::StreamJoinConfig;
use crate::msg::TableMsg;
use ssj_json::{AvpId, Dictionary, Document, FxHashSet};
use ssj_partition::{
    association_groups, batch_views, merge_and_assign, Expansion, PartitionTable, PartitionerKind,
    View, WindowQuality,
};
use std::sync::Arc;

/// Per-window outcome.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Window index (0-based).
    pub window: usize,
    /// Routing quality of this window.
    pub quality: WindowQuality,
    /// Copies of the window's documents each machine received.
    pub docs_per_joiner: Vec<usize>,
    /// Partitions were rebuilt at the close of this window after a θ signal
    /// (never window 0: the bootstrap build is not a repartition).
    pub repartitioned: bool,
    /// Pairs the last window requested, added to the table at the close of
    /// this one.
    pub updates: usize,
    /// Join pairs summed over machines (duplicates across machines count).
    pub join_pairs: usize,
    /// Globally unique join pairs.
    pub unique_join_pairs: usize,
}

/// Whole-run outcome.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// One report per window, in order.
    pub windows: Vec<WindowReport>,
}

impl PipelineReport {
    /// Mean replication over the windows routed with a table (all but 0).
    pub fn mean_replication(&self) -> f64 {
        self.mean(|q| q.replication)
    }

    /// Mean Gini load balance over the windows routed with a table.
    pub fn mean_load_balance(&self) -> f64 {
        self.mean(|q| q.load_balance)
    }

    /// Mean maximal processing load over the windows routed with a table.
    pub fn mean_max_load(&self) -> f64 {
        self.mean(|q| q.max_processing_load)
    }

    /// Fraction of windows (after the first) that repartitioned — Fig. 9's
    /// "Repartitions (%)" divided by 100.
    pub fn repartition_fraction(&self) -> f64 {
        self.mean_routed(|w| if w.repartitioned { 1.0 } else { 0.0 })
    }

    /// Total unique join pairs over the run.
    pub fn total_unique_joins(&self) -> usize {
        self.windows.iter().map(|w| w.unique_join_pairs).sum()
    }

    fn mean(&self, metric: impl Fn(&WindowQuality) -> f64) -> f64 {
        self.mean_routed(|w| metric(&w.quality))
    }

    /// Mean of `f` over windows 1.., 0 when there are none.
    fn mean_routed(&self, f: impl Fn(&WindowReport) -> f64) -> f64 {
        let routed = self.windows.get(1..).unwrap_or_default();
        if routed.is_empty() {
            return 0.0;
        }
        routed.iter().map(f).sum::<f64>() / routed.len() as f64
    }
}

/// The synchronous pipeline state machine.
pub struct Pipeline {
    config: StreamJoinConfig,
    dict: Dictionary,
    /// The Assigner's state.
    router: Router,
    /// The Merger's: the table as built and δ-updated, and its expansion.
    table: PartitionTable,
    expansion: Option<Expansion>,
    /// The window the table was built at.
    built: u64,
    /// The last window signalled θ: build at the close of this one.
    rebuild: bool,
    /// The last window's δ-update requests: apply at the close of this one.
    requests: Vec<AvpId>,
    window_idx: usize,
    /// Skip the (expensive) local joins — the partitioning figures only
    /// need routing statistics.
    pub compute_joins: bool,
}

impl Pipeline {
    /// A fresh pipeline; `dict` is shared with the data source.
    pub fn new(config: StreamJoinConfig, dict: Dictionary) -> Self {
        config.validate().expect("invalid configuration");
        Pipeline {
            router: Router::new(&config),
            table: PartitionTable::empty(config.m),
            expansion: None,
            built: 0,
            rebuild: false,
            requests: Vec::new(),
            window_idx: 0,
            compute_joins: true,
            config,
            dict,
        }
    }

    /// The currently deployed partition table.
    pub fn table(&self) -> &PartitionTable {
        &self.table
    }

    /// Process one tumbling window of documents.
    pub fn process_window(&mut self, docs: &[Document]) -> WindowReport {
        let m = self.config.m;
        let window = self.window_idx as u64;
        let mut machine_docs: Vec<Vec<Document>> = vec![Vec::new(); m];
        for doc in docs {
            let targets = self.router.route(doc, &self.dict);
            if self.compute_joins {
                match targets {
                    Some(targets) => {
                        for &t in targets {
                            machine_docs[t as usize].push(doc.clone());
                        }
                    }
                    None => machine_docs.iter_mut().for_each(|b| b.push(doc.clone())),
                }
            }
        }

        let repartitioned = self.rebuild;
        let mut updates = 0;
        if window == 0 || repartitioned {
            self.create_partitions(docs);
            self.built = window;
            self.deploy();
        } else {
            updates = self
                .requests
                .iter()
                .filter(|&&avp| self.table.apply_update(avp))
                .count();
            if updates > 0 {
                self.deploy();
            }
        }
        let close = self.router.close_pane(window);
        self.rebuild = close.signal;
        self.requests = close.requests;

        // Local joins.
        let mut join_pairs = 0;
        let mut unique: FxHashSet<(u64, u64)> = FxHashSet::default();
        for batch in &machine_docs {
            let pairs = ssj_join::join_batch(self.config.join_algo, batch);
            join_pairs += pairs.len();
            unique.extend(pairs.iter().map(|(a, b)| (a.0, b.0)));
        }

        self.window_idx += 1;
        WindowReport {
            window: window as usize,
            quality: close.quality,
            docs_per_joiner: close.counts.stats.per_machine,
            repartitioned,
            updates,
            join_pairs,
            unique_join_pairs: unique.len(),
        }
    }

    /// Hand the Router the Merger's table, as the Merger's broadcast does.
    fn deploy(&mut self) {
        self.router.deploy(Arc::new(TableMsg {
            window: self.built,
            table: self.table.clone(),
            expansion: self.expansion.clone(),
        }));
    }

    fn create_partitions(&mut self, docs: &[Document]) {
        self.expansion = if self.config.expansion {
            Expansion::detect(docs, &self.dict, self.config.m)
        } else {
            None
        };
        let views = batch_views(docs, self.expansion.as_ref(), &self.dict);
        let usable: Vec<View> = views.into_iter().flatten().collect();

        self.table = match self.config.partitioner {
            PartitionerKind::Ag => {
                // Distributed creation: chunk across PartitionCreators, then
                // consolidate at the Merger (§IV-A).
                let n = self.config.partition_creators.max(1);
                let mut chunks: Vec<Vec<View>> = vec![Vec::new(); n];
                for (i, v) in usable.into_iter().enumerate() {
                    chunks[i % n].push(v);
                }
                let locals: Vec<_> = chunks.iter().map(|c| association_groups(c)).collect();
                merge_and_assign(locals, self.config.m)
            }
            kind => kind.create(&usable, self.config.m),
        };
    }

    /// Drive an entire stream, chunking it into tumbling windows of
    /// `config.window_docs()` documents. Sliding specs are a runtime-only
    /// mode (`run_topology`): the batch pipeline is the deterministic
    /// tumbling reference and rejects them up front.
    pub fn run(mut self, stream: impl IntoIterator<Item = Document>) -> PipelineReport {
        assert!(
            !self.config.is_sliding(),
            "the batch pipeline is tumbling-only; run sliding windows on the topology"
        );
        let mut windows = Vec::new();
        let mut buf: Vec<Document> = Vec::with_capacity(self.config.window_docs());
        for doc in stream {
            buf.push(doc);
            if buf.len() == self.config.window_docs() {
                windows.push(self.process_window(&buf));
                buf.clear();
            }
        }
        if !buf.is_empty() {
            windows.push(self.process_window(&buf));
        }
        PipelineReport { windows }
    }
}

/// Ground-truth join pairs of one window (NLJ over all documents, canonical
/// form) — tests verify with it that partitioning preserves the exact join.
pub fn ground_truth_pairs(docs: &[Document]) -> Vec<(u64, u64)> {
    let mut pairs = ssj_join::nlj::join_batch(docs)
        .into_iter()
        .map(|(a, b)| (a.0, b.0))
        .collect();
    crate::topology::canonicalize(&mut pairs);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_join::JoinAlgo;
    use ssj_json::DocId;

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

    #[test]
    fn exactness_every_joinable_pair_colocated() {
        let dict = Dictionary::new();
        let cfg = StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(crate::WindowSpec::tumbling(40))
            .with_join(JoinAlgo::FpTree)
            .build()
            .unwrap();
        let mut p = Pipeline::new(cfg, dict.clone());
        for w in 0..3 {
            let docs = window(&dict, w * 1000, 40);
            let report = p.process_window(&docs);
            let truth = ground_truth_pairs(&docs);
            // The distributed join found exactly the ground-truth pairs.
            assert_eq!(
                report.unique_join_pairs,
                truth.len(),
                "window {w}: join incomplete or inflated"
            );
        }
    }

    #[test]
    fn all_partitioners_preserve_exactness() {
        let dict = Dictionary::new();
        for kind in PartitionerKind::all() {
            let cfg = StreamJoinConfig::default()
                .with_m(3)
                .with_window_spec(crate::WindowSpec::tumbling(30))
                .with_partitioner(kind)
                .build()
                .unwrap();
            let mut p = Pipeline::new(cfg, dict.clone());
            // Window 0 is broadcast; window 1 is routed with its table.
            for base in [500, 530] {
                let docs = window(&dict, base, 30);
                let report = p.process_window(&docs);
                let truth = ground_truth_pairs(&docs);
                assert_eq!(
                    report.unique_join_pairs,
                    truth.len(),
                    "{} loses join results",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn replication_bounded_by_m() {
        let dict = Dictionary::new();
        let cfg = StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(crate::WindowSpec::tumbling(50))
            .build()
            .unwrap();
        let mut p = Pipeline::new(cfg, dict.clone());
        // No table yet: everything is broadcast.
        let r = p.process_window(&window(&dict, 0, 50));
        assert_eq!(r.quality.replication, 4.0);
        assert_eq!(r.docs_per_joiner, vec![50; 4]);
        let r = p.process_window(&window(&dict, 50, 50));
        assert!(r.quality.replication >= 1.0);
        assert!(r.quality.replication < 4.0);
        assert_eq!(
            r.docs_per_joiner.iter().sum::<usize>() as f64,
            50.0 * r.quality.replication
        );
    }

    #[test]
    fn drifting_stream_triggers_repartition() {
        let dict = Dictionary::new();
        let cfg = StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(crate::WindowSpec::tumbling(30))
            .with_theta(0.1)
            .with_expansion(false)
            .build()
            .unwrap();
        let mut p = Pipeline::new(cfg, dict.clone());
        p.compute_joins = false;
        // Window 0 establishes partitions on users u0..u4; window 1, routed
        // with them, is the baseline.
        let mut reports = vec![
            p.process_window(&window(&dict, 0, 30)),
            p.process_window(&window(&dict, 30, 30)),
        ];
        // Later windows use entirely new attribute values → broadcasts →
        // replication explodes → window 2 signals, and the partitions are
        // rebuilt from window 3's documents at its close.
        for w in 2..6 {
            let docs: Vec<Document> = (0..30u64)
                .map(|i| {
                    doc(
                        &dict,
                        w * 10_000 + i,
                        &format!(r#"{{"Fresh{w}":"v{i}","Other{w}":{i}}}"#),
                    )
                })
                .collect();
            reports.push(p.process_window(&docs));
        }
        let repartitioned: Vec<usize> = reports
            .iter()
            .filter(|r| r.repartitioned)
            .map(|r| r.window)
            .collect();
        assert_eq!(repartitioned, vec![3], "drift must rebuild exactly once");
    }

    #[test]
    fn stable_stream_does_not_repartition() {
        let dict = Dictionary::new();
        let cfg = StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(crate::WindowSpec::tumbling(40))
            .with_theta(0.2)
            .build()
            .unwrap();
        let mut p = Pipeline::new(cfg, dict.clone());
        p.compute_joins = false;
        let mut reparts = 0;
        for w in 0..5 {
            // Identical distribution each window.
            let r = p.process_window(&window(&dict, w * 40, 40));
            reparts += r.repartitioned as usize;
        }
        assert_eq!(reparts, 0, "stable stream must not repartition");
    }

    #[test]
    fn delta_updates_fire_for_recurring_unseen_pairs() {
        let dict = Dictionary::new();
        let cfg = StreamJoinConfig::default()
            .with_m(2)
            .with_window_spec(crate::WindowSpec::tumbling(20))
            .with_theta(5.0) // effectively disable repartitioning
            .with_expansion(false)
            .build()
            .unwrap();
        let mut p = Pipeline::new(cfg, dict.clone());
        p.compute_joins = false;
        p.process_window(&window(&dict, 0, 20));
        // A new pair recurring ≥ δ (=3) times is requested in window 1,
        // added at the close of window 2 and routed in window 3.
        let docs = |w: u64| -> Vec<Document> {
            (0..20u64)
                .map(|i| doc(&dict, w * 1000 + i, r#"{"Brand":"new"}"#))
                .collect()
        };
        let pair = dict.intern("Brand", ssj_json::Scalar::Str("new".into()));
        let r = p.process_window(&docs(1));
        assert_eq!(r.updates, 0);
        assert!(p.table().partitions_of(pair.avp).is_empty());
        let r = p.process_window(&docs(2));
        assert_eq!((r.updates, r.quality.broadcast_fraction), (1, 1.0));
        assert_eq!(p.table().partitions_of(pair.avp).len(), 1);
        let r = p.process_window(&docs(3));
        assert_eq!((r.updates, r.quality.replication), (0, 1.0));
    }

    #[test]
    fn run_chunks_stream_into_windows() {
        let dict = Dictionary::new();
        let cfg = StreamJoinConfig::default()
            .with_m(2)
            .with_window_spec(crate::WindowSpec::tumbling(10))
            .build()
            .unwrap();
        let docs = window(&dict, 0, 25);
        let report = Pipeline::new(cfg, dict).run(docs);
        assert_eq!(report.windows.len(), 3); // 10 + 10 + 5
        assert_eq!(report.windows[2].window, 2);
    }

    #[test]
    fn report_aggregates() {
        let dict = Dictionary::new();
        let cfg = StreamJoinConfig::default()
            .with_m(2)
            .with_window_spec(crate::WindowSpec::tumbling(10))
            .build()
            .unwrap();
        let report = Pipeline::new(cfg, dict.clone()).run(window(&dict, 0, 30));
        assert!(report.mean_replication() >= 1.0);
        assert!(report.mean_max_load() > 0.0);
        assert!(report.repartition_fraction() >= 0.0);
        assert!(report.mean_load_balance() >= 0.0);
    }
}
