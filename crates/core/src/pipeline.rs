//! The deterministic window-by-window pipeline driver.
//!
//! Runs the *same component logic* as the threaded Fig. 2 topology, but
//! synchronously, so experiment results are bit-reproducible. The cadence
//! per tumbling window `k`:
//!
//! 1. **Partition creation** (window 0, and whenever a repartition is
//!    pending): detect attribute expansion if enabled, split the window
//!    across the PartitionCreators, compute local association groups, and
//!    consolidate them at the Merger (§IV-A). The SC and DS competitors are
//!    centralized algorithms and create their partitions from the full
//!    window directly.
//! 2. **Assignment**: route every document of the window with the current
//!    table. Documents matching no partition are broadcast (§VI-A);
//!    table-unknown pairs are counted and, at the δ-th sighting, added to
//!    the least-loaded partition (the Merger's update path).
//! 3. **Quality**: compute replication / Gini / max-processing-load; compare
//!    against the baseline measured right after the last creation and set
//!    the repartition flag when either degraded by more than θ.
//! 4. **Join**: each machine joins its window batch locally (§V); unique
//!    result pairs are counted globally.

use crate::config::StreamJoinConfig;
use ssj_json::{Dictionary, Document, FxHashSet};
use ssj_partition::{
    association_groups, batch_views, merge_and_assign, Expansion, PartitionTable, PartitionerKind,
    RepartitionPolicy, Route, RoutingStats, UnseenTracker, View, WindowQuality,
};

/// Per-window outcome.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Window index (0-based).
    pub window: usize,
    /// Routing quality of this window.
    pub quality: WindowQuality,
    /// Whether partitions were recomputed *at the start of* this window
    /// (never true for window 0 — initial creation is not a repartition).
    pub repartitioned: bool,
    /// δ-triggered single-pair table updates performed during the window.
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
    /// Mean replication over all windows.
    pub fn mean_replication(&self) -> f64 {
        mean(self.windows.iter().map(|w| w.quality.replication))
    }

    /// Mean Gini load balance over all windows.
    pub fn mean_load_balance(&self) -> f64 {
        mean(self.windows.iter().map(|w| w.quality.load_balance))
    }

    /// Mean maximal processing load over all windows.
    pub fn mean_max_load(&self) -> f64 {
        mean(self.windows.iter().map(|w| w.quality.max_processing_load))
    }

    /// Fraction of windows (after the first) that began with a repartition —
    /// Fig. 9's "Repartitions (%)" divided by 100.
    pub fn repartition_fraction(&self) -> f64 {
        if self.windows.len() <= 1 {
            return 0.0;
        }
        let n = self.windows.len() - 1;
        let r = self.windows.iter().filter(|w| w.repartitioned).count();
        r as f64 / n as f64
    }

    /// Total unique join pairs over the run.
    pub fn total_unique_joins(&self) -> usize {
        self.windows.iter().map(|w| w.unique_join_pairs).sum()
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in it {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The synchronous pipeline state machine.
pub struct Pipeline {
    config: StreamJoinConfig,
    dict: Dictionary,
    table: PartitionTable,
    expansion: Option<Expansion>,
    unseen: UnseenTracker,
    policy: RepartitionPolicy,
    baseline: Option<WindowQuality>,
    repartition_pending: bool,
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
            table: PartitionTable::empty(config.m),
            expansion: None,
            unseen: UnseenTracker::new(config.delta),
            policy: RepartitionPolicy::new(config.theta),
            baseline: None,
            repartition_pending: false,
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

    /// The currently active attribute expansion, if any.
    pub fn expansion(&self) -> Option<&Expansion> {
        self.expansion.as_ref()
    }

    /// Process one tumbling window of documents.
    pub fn process_window(&mut self, docs: &[Document]) -> WindowReport {
        let m = self.config.m;
        let creating = self.window_idx == 0 || self.repartition_pending;
        let repartitioned = creating && self.window_idx > 0;

        if creating {
            self.create_partitions(docs);
        }

        // Assignment with δ-threshold updates.
        let views = batch_views(docs, self.expansion.as_ref(), &self.dict);
        let mut per_machine = vec![0usize; m];
        let mut total_sends = 0usize;
        let mut broadcasts = 0usize;
        let mut updates = 0usize;
        let mut targets_per_doc: Vec<Vec<u32>> = Vec::with_capacity(docs.len());
        for view in &views {
            let route = match view {
                Some(v) => {
                    // Track pairs the table does not know; the δ-th sighting
                    // adds the pair to the least-loaded partition (§VI-A).
                    let mut unknown = false;
                    for avp in v {
                        if self.table.partitions_of(*avp).is_empty() {
                            if self.unseen.observe(*avp) {
                                let p = self.table.least_loaded();
                                self.table.add_avp(p, *avp);
                                self.table.bump_load(p, 1);
                                self.unseen.clear(*avp);
                                updates += 1;
                            } else {
                                unknown = true;
                            }
                        }
                    }
                    if unknown {
                        // The paper's exactness guarantee: a document whose
                        // pairs are not all covered could join a partner
                        // through an uncovered pair — emit it to all Joiners.
                        Route::Broadcast
                    } else {
                        self.table.route(v)
                    }
                }
                // Expansion could not build the synthetic value (§VI-B).
                None => Route::Broadcast,
            };
            if route.is_broadcast() {
                broadcasts += 1;
            }
            let targets = route.targets(m);
            for &t in &targets {
                per_machine[t as usize] += 1;
                total_sends += 1;
            }
            targets_per_doc.push(targets);
        }
        let stats = RoutingStats {
            per_machine,
            total_sends,
            broadcasts,
            docs: docs.len(),
        };
        let quality = WindowQuality::from_stats(&stats);

        match &self.baseline {
            None => self.baseline = Some(quality),
            Some(base) => {
                if self.policy.should_repartition(base, &quality) {
                    self.repartition_pending = true;
                }
            }
        }

        // Local joins.
        let (join_pairs, unique_join_pairs) = if self.compute_joins {
            let mut machine_docs: Vec<Vec<Document>> = vec![Vec::new(); m];
            for (doc, targets) in docs.iter().zip(&targets_per_doc) {
                for &t in targets {
                    machine_docs[t as usize].push(doc.clone());
                }
            }
            let mut total = 0usize;
            let mut unique: FxHashSet<(u64, u64)> = FxHashSet::default();
            for batch in &machine_docs {
                let pairs = ssj_join::join_batch(self.config.join_algo, batch);
                total += pairs.len();
                unique.extend(pairs.iter().map(|(a, b)| (a.0, b.0)));
            }
            (total, unique.len())
        } else {
            (0, 0)
        };

        let report = WindowReport {
            window: self.window_idx,
            quality,
            repartitioned,
            updates,
            join_pairs,
            unique_join_pairs,
        };
        self.window_idx += 1;
        report
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
        self.unseen.reset();
        self.baseline = None;
        self.repartition_pending = false;
    }

    /// Snapshot the pipeline's adaptive state — the deployed partition
    /// table, the active expansion, the baseline quality and the window
    /// counter — together with the dictionary, as one JSON value. Restoring
    /// with [`Pipeline::restore`] resumes routing without a bootstrap
    /// window. (The δ-tracker's partial counts are deliberately excluded:
    /// below-threshold pairs are rare by definition and re-counting them is
    /// the conservative choice after a failure.)
    pub fn snapshot(&self) -> ssj_json::Value {
        use ssj_json::Value;
        let mut out = Value::object();
        out.insert("dictionary", self.dict.export());
        out.insert("table", self.table.export());
        out.insert("window", Value::Int(self.window_idx as i64));
        if let Some(exp) = &self.expansion {
            let mut e = Value::object();
            e.insert(
                "chain",
                Value::Array(exp.chain.iter().map(|a| Value::Int(a.0 as i64)).collect()),
            );
            e.insert("synth_attr", Value::Int(exp.synth_attr.0 as i64));
            e.insert("pna", Value::Float(exp.pna));
            out.insert("expansion", e);
        }
        if let Some(b) = &self.baseline {
            let mut q = Value::object();
            q.insert("replication", Value::Float(b.replication));
            q.insert("load_balance", Value::Float(b.load_balance));
            q.insert("max_processing_load", Value::Float(b.max_processing_load));
            q.insert("broadcast_fraction", Value::Float(b.broadcast_fraction));
            out.insert("baseline", q);
        }
        out
    }

    /// Rebuild a pipeline from a [`snapshot`](Self::snapshot). The returned
    /// pipeline shares the restored dictionary (exposed via
    /// [`Pipeline::dictionary`]); feed it documents interned through that
    /// dictionary.
    pub fn restore(config: StreamJoinConfig, snapshot: &ssj_json::Value) -> Result<Self, String> {
        use ssj_json::Value;
        config.validate()?;
        let dict = Dictionary::import(
            snapshot
                .get("dictionary")
                .ok_or("snapshot missing 'dictionary'")?,
        )?;
        let table =
            PartitionTable::import(snapshot.get("table").ok_or("snapshot missing 'table'")?)?;
        if table.m() != config.m {
            return Err(format!(
                "snapshot has m={}, configuration wants m={}",
                table.m(),
                config.m
            ));
        }
        let window_idx = snapshot
            .get("window")
            .and_then(Value::as_int)
            .filter(|&w| w >= 0)
            .ok_or("snapshot missing 'window'")? as usize;
        let expansion = match snapshot.get("expansion") {
            None => None,
            Some(e) => {
                let chain = match e.get("chain") {
                    Some(Value::Array(items)) => items
                        .iter()
                        .map(|v| {
                            v.as_int()
                                .filter(|&x| x >= 0)
                                .map(|x| ssj_json::AttrId(x as u32))
                                .ok_or("invalid attr id in expansion chain")
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err("expansion missing 'chain'".into()),
                };
                let synth_attr = e
                    .get("synth_attr")
                    .and_then(Value::as_int)
                    .filter(|&x| x >= 0)
                    .ok_or("expansion missing 'synth_attr'")?;
                let pna = match e.get("pna") {
                    Some(Value::Float(f)) => *f,
                    Some(Value::Int(i)) => *i as f64,
                    _ => 0.0,
                };
                Some(Expansion {
                    chain,
                    synth_attr: ssj_json::AttrId(synth_attr as u32),
                    pna,
                })
            }
        };
        let baseline = snapshot.get("baseline").map(|q| {
            let f = |k: &str| match q.get(k) {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(i)) => *i as f64,
                _ => 0.0,
            };
            WindowQuality {
                replication: f("replication"),
                load_balance: f("load_balance"),
                max_processing_load: f("max_processing_load"),
                broadcast_fraction: f("broadcast_fraction"),
            }
        });
        Ok(Pipeline {
            table,
            expansion,
            unseen: UnseenTracker::new(config.delta),
            policy: RepartitionPolicy::new(config.theta),
            baseline,
            repartition_pending: false,
            window_idx,
            compute_joins: true,
            config,
            dict,
        })
    }

    /// The dictionary this pipeline interns through (needed to feed a
    /// restored pipeline documents with matching pair ids).
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
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
            let docs = window(&dict, 500, 30);
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

    #[test]
    fn replication_bounded_by_m() {
        let dict = Dictionary::new();
        let cfg = StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(crate::WindowSpec::tumbling(50))
            .build()
            .unwrap();
        let mut p = Pipeline::new(cfg, dict.clone());
        let r = p.process_window(&window(&dict, 0, 50));
        assert!(r.quality.replication >= 1.0);
        assert!(r.quality.replication <= 4.0);
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
        // Window 0 establishes partitions on users u0..u4.
        p.process_window(&window(&dict, 0, 30));
        // Later windows use entirely new attribute values → broadcasts →
        // replication explodes → repartition must fire.
        let mut saw_repartition = false;
        for w in 1..5 {
            let docs: Vec<Document> = (0..30u64)
                .map(|i| {
                    doc(
                        &dict,
                        w * 10_000 + i,
                        &format!(r#"{{"Fresh{w}":"v{i}","Other{w}":{i}}}"#),
                    )
                })
                .collect();
            let r = p.process_window(&docs);
            saw_repartition |= r.repartitioned;
        }
        assert!(saw_repartition, "drift never triggered a repartition");
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
        // A new pair recurring ≥ δ (=3) times must be added to the table.
        let docs: Vec<Document> = (0..20u64)
            .map(|i| doc(&dict, 1000 + i, r#"{"Brand":"new"}"#))
            .collect();
        let r = p.process_window(&docs);
        assert!(r.updates >= 1, "δ update never fired");
        let pair = dict
            .lookup("Brand", &ssj_json::Scalar::Str("new".into()))
            .unwrap();
        assert!(!p.table().partitions_of(pair.avp).is_empty());
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
