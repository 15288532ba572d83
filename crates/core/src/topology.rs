//! Assembling the Fig. 2 topology on the Storm-like runtime.
//!
//! ```text
//!            shuffle                    global
//! JsonReader ───────► PartitionCreator ───────► Merger (1)
//!      │                                          │ all
//!      │ shuffle                                  ▼
//!      └────────────────────────────────────► Assigner ──direct──► Joiner (m)
//!                                               │  ▲                  │
//!                 feedback (updates, repartition)│  │                  │ global
//!                                               ▼  │                  ▼
//!                                             Merger              Reporter
//! ```
//!
//! Forward edges form a DAG; the Assigner → Merger control traffic rides a
//! feedback edge. Punctuation alignment gives the run streaming-consistent
//! semantics: the Assigner routes window *k* documents with the table the
//! Merger computed from window *k−1* (window 0 is broadcast — no table has
//! been deployed yet).

use crate::components::{Assigner, Joiner, Merger, PartitionCreator};
use crate::config::StreamJoinConfig;
use crate::msg::Msg;
use crate::spill::SpillSettings;
use crate::wire::{dict_epoch, MsgCodec};
use ssj_json::{Dictionary, DocId, Document, FxHashMap, FxHashSet};
use ssj_runtime::{
    join_group, metrics::Histogram, run, run_distributed, Bolt, CollectorBolt, CollectorHandle,
    FaultPlan, GroupSetup, Grouping, HistogramSnapshot, Outbox, PacedSpout, RunError, RunReport,
    Spout, TopologyBuilder, VecSpout,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Results of one full topology run.
#[derive(Debug)]
pub struct TopologyRunReport {
    /// Runtime task metrics (received / emitted per task).
    pub runtime: RunReport,
    /// Unique join pairs per window, in window order.
    pub joins_per_window: Vec<FxHashSet<(u64, u64)>>,
    /// Documents held per joiner per window (window → joiner → docs).
    pub docs_per_joiner: Vec<Vec<usize>>,
    /// Candidate pairs produced per joiner per window, before global
    /// dedup (window → joiner → pairs). This is each joiner's probe load —
    /// the quantity hot-group replication spreads — and it is exact and
    /// deterministic per seed, unlike wall-clock probe timings.
    pub pairs_per_joiner: Vec<Vec<usize>>,
}

impl TopologyRunReport {
    /// All unique join pairs of the whole run.
    pub fn all_pairs(&self) -> FxHashSet<(u64, u64)> {
        let mut out = FxHashSet::default();
        for w in &self.joins_per_window {
            out.extend(w.iter().copied());
        }
        out
    }
}

/// Materialize join pairs as merged result documents (the natural-join
/// output tuples): for each `(a, b)` pair whose both sides are present in
/// `docs`, produce `a ⋈ b` with a fresh id starting at `first_id`. Pairs
/// referencing unknown ids are skipped.
pub fn materialize_joins(
    pairs: &FxHashSet<(u64, u64)>,
    docs: &[Document],
    first_id: u64,
) -> Vec<Document> {
    let by_id: FxHashMap<u64, &Document> = docs.iter().map(|d| (d.id().0, d)).collect();
    let mut sorted: Vec<(u64, u64)> = pairs.iter().copied().collect();
    sorted.sort_unstable();
    let mut out = Vec::with_capacity(sorted.len());
    let mut id = first_id;
    for (a, b) in sorted {
        if let (Some(da), Some(db)) = (by_id.get(&a), by_id.get(&b)) {
            out.push(da.merge(db, DocId(id)));
            id += 1;
        }
    }
    out
}

/// Render the Fig. 2 topology (for the given configuration) as Graphviz
/// DOT without running it.
pub fn topology_dot(config: StreamJoinConfig) -> String {
    let dict = Dictionary::new();
    build(config, &dict, Vec::new(), CollectorBolt::new()).to_dot()
}

fn build(
    config: StreamJoinConfig,
    dict: &Dictionary,
    docs: Vec<Document>,
    reporter: CollectorBolt<Msg>,
) -> ssj_runtime::Topology<Msg> {
    build_faulted(config, dict, docs, reporter, FaultPlan::new())
}

fn build_faulted(
    config: StreamJoinConfig,
    dict: &Dictionary,
    docs: Vec<Document>,
    reporter: CollectorBolt<Msg>,
    plan: FaultPlan,
) -> ssj_runtime::Topology<Msg> {
    // Punctuation is pane-granular: tumbling windows punctuate per window
    // (the 1-pane case), sliding windows per pane (DESIGN.md §4g).
    let window = config.pane_docs();
    let msgs = reader_msgs(docs);
    build_custom(
        config,
        dict,
        move |_| Box::new(VecSpout::with_punctuation(msgs(), window)),
        move |_| Box::new(reporter.clone()),
        plan,
    )
}

/// The reader's stream as messages, built once and *moved* into the spout:
/// the topology has one reader task and spouts are never restarted, so the
/// spout factory runs once and takes ownership instead of cloning.
fn reader_msgs(docs: Vec<Document>) -> impl Fn() -> Vec<Msg> + Send + 'static {
    let msgs: Vec<Msg> = docs.into_iter().map(|d| Msg::Doc(Arc::new(d))).collect();
    let msgs = Mutex::new(Some(msgs));
    move || {
        let mut slot = msgs.lock().expect("the slot is only ever locked here");
        slot.take().expect("the reader spout is built once")
    }
}

/// The Fig. 2 topology with a pluggable reader spout and reporter bolt —
/// the paced latency harness swaps in [`PacedSpout`] and a latency-aware
/// reporter without duplicating the wiring.
fn build_custom(
    config: StreamJoinConfig,
    dict: &Dictionary,
    spout: impl Fn(usize) -> Box<dyn Spout<Msg>> + Send + 'static,
    reporter: impl Fn(usize) -> Box<dyn Bolt<Msg>> + Send + Sync + 'static,
    plan: FaultPlan,
) -> ssj_runtime::Topology<Msg> {
    let window = config.pane_docs();
    let dict_creator = dict.clone();
    let dict_assigner = dict.clone();
    // Out-of-core tiering (DESIGN.md §4i): with a non-zero budget the
    // stateful bolts get shared spill settings — segment files are stamped
    // with the dictionary's content epoch, exactly like socket frames, so
    // a file can never be decoded against a different interning epoch.
    // With `mem_budget == 0` nothing is installed at all.
    let spill = (config.mem_budget > 0).then(|| {
        let dir = config.resolved_spill_dir();
        std::fs::create_dir_all(&dir).expect("spill: cannot create --spill-dir");
        Arc::new(SpillSettings {
            budget: config.mem_budget,
            dir,
            epoch: dict_epoch(dict),
        })
    });
    let creator_cfg = config.clone();
    let creator_spill = spill.clone();
    let merger_cfg = config.clone();
    let assigner_cfg = config.clone();
    let joiner_cfg = config.clone();
    let joiner_spill = spill;
    // Backpressure: keep the reader within roughly one window of the
    // slowest Assigner so the Merger's adaptive feedback loop stays in
    // (event-time) sync with the data path. Channel capacity counts
    // envelopes, and with batched transport one envelope holds up to
    // `batch_size` tuples, so the tuple budget is split between batch
    // size and slot count. The batch itself is clamped to a fraction of
    // the per-assigner window share: a batch the size of a whole window
    // would let the reader run a full window ahead of the repartition
    // signals, silently disabling §VI-A adaptivity.
    let share = (window / config.assigners.max(1)).clamp(16, 1024);
    let batch = config.batch_size.min((share / 4).max(1));
    let capacity = (share / batch).max(4);
    let mut builder = TopologyBuilder::new()
        .fault_plan(plan)
        .channel_capacity(capacity)
        .batch_size(batch)
        .metrics(config.metrics)
        .pool_workers(config.pool_workers)
        .pin_cores(config.pin_cores)
        .recovery(
            ssj_runtime::RecoveryPolicy::default()
                .retries(config.retries)
                .backoff(std::time::Duration::from_millis(config.backoff_ms.max(1)))
                .degraded(config.degraded),
        );
    if config.shed_budget > 0 {
        // Overload protection on the joiners (DESIGN.md §4h): only
        // document probes are sheddable; tables, group exchanges, and
        // JoinStats (control and result state) always pass. Off by
        // default — with `shed_budget == 0` no shedder is installed and
        // the receive path is byte-identical to before.
        builder = builder.shed("joiner", config.shed_budget, |m: &Msg| {
            matches!(m, Msg::Doc(_))
        });
    }
    builder
        .spout("reader", 1, spout)
        .bolt("creator", config.partition_creators, move |_| {
            Box::new(PartitionCreator::new(
                creator_cfg.clone(),
                dict_creator.clone(),
                creator_spill.clone(),
            ))
        })
        .subscribe("reader", Grouping::Shuffle)
        // Repartition signals from the Assigners (§VI-A).
        .subscribe_feedback("assigner", Grouping::All)
        .done()
        .bolt("merger", 1, move |_| {
            Box::new(Merger::new(merger_cfg.clone()))
        })
        .subscribe("creator", Grouping::Global)
        .subscribe_feedback("assigner", Grouping::Global)
        .done()
        .bolt("assigner", config.assigners, move |_| {
            Box::new(Assigner::new(assigner_cfg.clone(), dict_assigner.clone()))
        })
        .subscribe("reader", Grouping::Shuffle)
        .subscribe("merger", Grouping::All)
        .done()
        .bolt("joiner", config.m, move |_| {
            Box::new(Joiner::new(joiner_cfg.clone(), joiner_spill.clone()))
        })
        .subscribe("assigner", Grouping::Direct)
        .done()
        .bolt("reporter", 1, reporter)
        .subscribe("joiner", Grouping::Global)
        .done()
        .build()
        .expect("Fig. 2 topology is valid")
}

/// Per-pane end-to-end latency distributions from a paced run
/// ([`run_topology_paced`]). Latency of a tuple is measured from its
/// *intended* (scheduled) arrival to the moment the reporter holds the
/// pane's last `JoinStats` — open-loop accounting, so queueing delay in an
/// overloaded topology is charged to the tuples that waited.
#[derive(Debug, Clone)]
pub struct LatencyReport {
    /// `(pane id, latency histogram)` in pane order.
    pub per_window: Vec<(u64, HistogramSnapshot)>,
}

impl LatencyReport {
    /// The given latency quantile (e.g. 0.99) pooled over all panes, in
    /// nanoseconds; 0 when no pane closed. Merges the per-pane bucket
    /// counts, so the result has the same bucket-bound granularity as the
    /// per-pane quantiles.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let mut merged = [0u64; ssj_runtime::metrics::HISTOGRAM_BUCKETS];
        let mut total = 0u64;
        for (_, h) in &self.per_window {
            for &(i, c) in &h.buckets {
                merged[i as usize] += c;
                total += c;
            }
        }
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in merged.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                return ssj_runtime::metrics::bucket_bound(i);
            }
        }
        0
    }
}

/// The reporter of a paced run: collects `JoinStats` like the plain
/// [`CollectorBolt`] reporter and, once the `m`-th joiner reported a pane,
/// records every tuple of that pane's end-to-end latency against the
/// arrival schedule.
struct LatencyReporter {
    inner: CollectorBolt<Msg>,
    m: usize,
    pane: usize,
    schedule: Arc<Vec<u64>>,
    anchor: Arc<OnceLock<Instant>>,
    seen: FxHashMap<u64, usize>,
    out: Arc<Mutex<Vec<(u64, HistogramSnapshot)>>>,
}

impl Bolt<Msg> for LatencyReporter {
    fn execute(&mut self, msg: Msg, out: &mut Outbox<Msg>) {
        if let Msg::JoinStats { window, .. } = &msg {
            let w = *window;
            let seen = self.seen.entry(w).or_insert(0);
            *seen += 1;
            if *seen == self.m {
                if let Some(anchor) = self.anchor.get() {
                    let now = anchor.elapsed().as_nanos() as u64;
                    let h = Histogram::new();
                    let lo = (w as usize) * self.pane;
                    let hi = (lo + self.pane).min(self.schedule.len());
                    for i in lo..hi {
                        h.record_ns(now.saturating_sub(self.schedule[i]));
                    }
                    self.out.lock().unwrap().push((w, h.snapshot()));
                }
            }
        }
        self.inner.execute(msg, out);
    }
}

/// [`run_topology_chaos`] with an open-loop paced reader: document `i`
/// enters the topology `schedule[i]` nanoseconds after the first emission
/// (see [`PacedSpout`]), and the reporter measures per-pane end-to-end
/// latency from the *intended* arrivals. Join results are folded exactly
/// as in [`run_topology`]; the latency report rides alongside.
pub fn run_topology_paced(
    config: StreamJoinConfig,
    dict: &Dictionary,
    docs: Vec<Document>,
    schedule: Vec<u64>,
    plan: FaultPlan,
) -> Result<(TopologyRunReport, LatencyReport), RunError> {
    config.validate().expect("invalid configuration");
    assert_eq!(docs.len(), schedule.len(), "one arrival time per document");
    let collector = CollectorBolt::new();
    let handle: CollectorHandle<Msg> = collector.handle();
    let pane = config.pane_docs();
    let m = config.m;
    let schedule = Arc::new(schedule);
    let anchor: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    let lat_out: Arc<Mutex<Vec<(u64, HistogramSnapshot)>>> = Arc::new(Mutex::new(Vec::new()));
    let msgs = reader_msgs(docs);
    let spout_schedule = Arc::clone(&schedule);
    let spout_anchor = Arc::clone(&anchor);
    let rep_out = Arc::clone(&lat_out);
    let rep_anchor = Arc::clone(&anchor);
    let topology = build_custom(
        config.clone(),
        dict,
        move |_| {
            Box::new(PacedSpout::new(
                msgs(),
                spout_schedule.as_ref().clone(),
                pane,
                Arc::clone(&spout_anchor),
            ))
        },
        move |_| {
            Box::new(LatencyReporter {
                inner: collector.clone(),
                m,
                pane,
                schedule: Arc::clone(&schedule),
                anchor: Arc::clone(&rep_anchor),
                seen: FxHashMap::default(),
                out: Arc::clone(&rep_out),
            })
        },
        plan,
    );
    let runtime = run(topology)?;
    let report = fold_join_stats(&config, runtime, handle);
    let mut per_window = lat_out.lock().unwrap().clone();
    per_window.sort_by_key(|(w, _)| *w);
    Ok((report, LatencyReport { per_window }))
}

/// Run the full stream-join topology over `docs` and gather every window's
/// join result.
///
/// The reader punctuates every `config.pane_docs()` documents (one pane =
/// one window for tumbling specs); all topology
/// parallelism comes from `config` (`partition_creators`, `assigners`,
/// `m` joiners).
pub fn run_topology(
    config: StreamJoinConfig,
    dict: &Dictionary,
    docs: Vec<Document>,
) -> Result<TopologyRunReport, RunError> {
    run_topology_chaos(config, dict, docs, FaultPlan::new())
}

/// [`run_topology`] with deterministic fault injection: chaos tests crash
/// supervised tasks mid-run and assert the recovered output is
/// byte-identical to the fault-free run. Set `config.retries > 0` so the
/// supervisor arms window-boundary snapshots.
pub fn run_topology_chaos(
    config: StreamJoinConfig,
    dict: &Dictionary,
    docs: Vec<Document>,
    plan: FaultPlan,
) -> Result<TopologyRunReport, RunError> {
    config.validate().expect("invalid configuration");
    let reporter = CollectorBolt::new();
    let handle: CollectorHandle<Msg> = reporter.handle();
    let topology = build_faulted(config.clone(), dict, docs, reporter, plan);
    let runtime = run(topology)?;
    Ok(fold_join_stats(&config, runtime, handle))
}

/// Fold the reporter's JoinStats messages into per-window results.
fn fold_join_stats(
    config: &StreamJoinConfig,
    runtime: RunReport,
    handle: CollectorHandle<Msg>,
) -> TopologyRunReport {
    let mut by_window: FxHashMap<u64, FxHashSet<(u64, u64)>> = FxHashMap::default();
    let mut docs_by_window: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    let mut pairs_by_window: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    for msg in handle.take() {
        if let Msg::JoinStats {
            window,
            joiner,
            docs,
            pairs,
        } = msg
        {
            by_window.entry(window).or_default().extend(
                pairs
                    .iter()
                    .map(|(a, b): &(DocId, DocId)| (a.0.min(b.0), a.0.max(b.0))),
            );
            let slot = docs_by_window
                .entry(window)
                .or_insert_with(|| vec![0; config.m]);
            slot[joiner] = docs;
            let slot = pairs_by_window
                .entry(window)
                .or_insert_with(|| vec![0; config.m]);
            slot[joiner] = pairs.len();
        }
    }
    let mut windows: Vec<u64> = by_window.keys().copied().collect();
    windows.sort();
    let joins_per_window = windows
        .iter()
        .map(|w| by_window.remove(w).unwrap_or_default())
        .collect();
    let docs_per_joiner = windows
        .iter()
        .map(|w| docs_by_window.remove(w).unwrap_or_default())
        .collect();
    let pairs_per_joiner = windows
        .iter()
        .map(|w| pairs_by_window.remove(w).unwrap_or_default())
        .collect();
    TopologyRunReport {
        runtime,
        joins_per_window,
        docs_per_joiner,
        pairs_per_joiner,
    }
}

/// Deterministic task placement for an `N`-worker group (DESIGN.md §4f).
///
/// Singleton control/collection components (`reader`, `merger`, `reporter`)
/// live on worker 0 — the reader feeds the whole group, the merger's table
/// broadcast and the reporter's fold are already global sync points. Data
/// parallel components (`creator`, `assigner`, `joiner`) stripe round-robin
/// over the workers, so each worker carries an equal share of every stage.
///
/// Every group member computes this identically from the topology alone; it
/// is the deploy-time control plane, no coordination needed.
pub fn placement_for(component: &str, task: usize, workers: usize) -> usize {
    match component {
        "reader" | "merger" | "reporter" => 0,
        _ => task % workers,
    }
}

/// Identity of one worker process in a shared-nothing group.
#[derive(Debug, Clone)]
pub struct DistRuntime {
    /// Total processes in the group.
    pub workers: usize,
    /// This process's rank in `0..workers`.
    pub my_worker: usize,
    /// Directory holding the group's Unix sockets.
    pub socket_dir: PathBuf,
    /// Launch attempt (bumped by the leader when re-running after a worker
    /// death); namespaces the socket files so stale sockets of a previous
    /// attempt cannot cross-connect.
    pub attempt: u32,
}

/// Fingerprint of everything that shapes the topology graph and placement:
/// two processes with different values would wire incompatible meshes, so
/// the handshake rejects the pairing up front.
fn topo_fingerprint(config: &StreamJoinConfig) -> u64 {
    let fields: [u64; 7] = [
        config.m as u64,
        config.pane_docs() as u64,
        config.panes_per_window() as u64,
        config.partition_creators as u64,
        config.assigners as u64,
        config.batch_size as u64,
        config.workers as u64,
    ];
    let mut h = ssj_runtime::wire::fnv1a(b"ssj-topology", 0xcbf2_9ce4_8422_2325);
    for f in fields {
        h = ssj_runtime::wire::fnv1a(&f.to_le_bytes(), h);
    }
    h
}

/// Run this process's shard of the stream-join topology as one member of a
/// multi-process group.
///
/// Every worker must call this with the *same* `config`, `dict` content and
/// `docs` (the deploy-time contract — enforced by the handshake's topology
/// fingerprint and dictionary epoch). Tasks are placed by [`placement_for`];
/// edges crossing workers become Unix-socket links carrying the [`MsgCodec`]
/// wire format. The reporter lives on worker 0, so only worker 0's report
/// carries join results; other workers return empty windows.
pub fn run_topology_distributed(
    config: StreamJoinConfig,
    dict: &Dictionary,
    docs: Vec<Document>,
    dr: &DistRuntime,
) -> Result<TopologyRunReport, RunError> {
    config.validate().expect("invalid configuration");
    assert_eq!(config.workers, dr.workers, "config/group size mismatch");
    if dr.workers == 1 {
        return run_topology(config, dict, docs);
    }
    let reporter = CollectorBolt::new();
    let handle: CollectorHandle<Msg> = reporter.handle();
    let topology = build(config.clone(), dict, docs, reporter);
    let codec = MsgCodec::new(dict);
    let setup = GroupSetup {
        workers: dr.workers,
        my_worker: dr.my_worker,
        socket_dir: dr.socket_dir.clone(),
        attempt: dr.attempt,
        topo_fingerprint: topo_fingerprint(&config),
        dict_epoch: dict_epoch(dict),
    };
    let group = join_group(&setup)
        .map_err(|e| RunError::Transport(vec![format!("worker {}: {e}", dr.my_worker)]))?;
    // Chaos hook for the kill-and-recover differential test: abort this
    // process *after* the handshake, so peers observe a mid-run disconnect
    // rather than a failed join.
    if let Ok(kill) = std::env::var("SSJ_KILL_WORKER") {
        if kill == format!("{}:{}", dr.my_worker, dr.attempt) {
            std::process::abort();
        }
    }
    let workers = dr.workers;
    let runtime = run_distributed(topology, Arc::new(codec), group, &|component, task| {
        placement_for(component, task, workers)
    })?;
    Ok(fold_join_stats(&config, runtime, handle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ground_truth_pairs;

    fn stream(dict: &Dictionary, n: usize) -> Vec<Document> {
        (0..n as u64)
            .map(|i| {
                Document::from_json(
                    DocId(i),
                    &format!(
                        r#"{{"User":"u{}","Severity":"{}","MsgId":{}}}"#,
                        i % 6,
                        ["W", "E", "C"][(i % 3) as usize],
                        i % 5
                    ),
                    dict,
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn topology_produces_exact_join_results() {
        let dict = Dictionary::new();
        let docs = stream(&dict, 120);
        let cfg = StreamJoinConfig::default()
            .with_m(3)
            .with_window_spec(crate::WindowSpec::tumbling(40))
            .with_expansion(false)
            .with_partition_creators(2)
            .with_assigners(3)
            .build()
            .unwrap();
        let report = run_topology(cfg, &dict, docs.clone()).unwrap();
        assert_eq!(report.joins_per_window.len(), 3);
        for (w, found) in report.joins_per_window.iter().enumerate() {
            let truth = ground_truth_pairs(&docs[w * 40..(w + 1) * 40]);
            assert_eq!(
                found, &truth,
                "window {w}: distributed join differs from ground truth"
            );
        }
    }

    #[test]
    fn topology_with_expansion_stays_exact() {
        let dict = Dictionary::new();
        // Every doc has a Boolean attribute → expansion engages.
        let docs: Vec<Document> = (0..90u64)
            .map(|i| {
                Document::from_json(
                    DocId(i),
                    &format!(
                        r#"{{"ok":{},"grp":"g{}","val":{}}}"#,
                        i % 2 == 0,
                        i % 4,
                        i % 10
                    ),
                    &dict,
                )
                .unwrap()
            })
            .collect();
        let cfg = StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(crate::WindowSpec::tumbling(30))
            .with_partition_creators(2)
            .with_assigners(2)
            .build()
            .unwrap();
        let report = run_topology(cfg, &dict, docs.clone()).unwrap();
        for (w, found) in report.joins_per_window.iter().enumerate() {
            let truth = ground_truth_pairs(&docs[w * 30..(w + 1) * 30]);
            assert_eq!(found, &truth, "window {w}");
        }
    }

    #[test]
    fn runtime_metrics_reported() {
        let dict = Dictionary::new();
        let docs = stream(&dict, 60);
        let cfg = StreamJoinConfig::default()
            .with_m(2)
            .with_window_spec(crate::WindowSpec::tumbling(30))
            .with_expansion(false)
            .build()
            .unwrap();
        let report = run_topology(cfg, &dict, docs).unwrap();
        assert_eq!(report.runtime.received("creator"), 60);
        assert!(report.runtime.received("joiner") > 0);
        assert!(!report.docs_per_joiner.is_empty());
    }

    #[test]
    fn metrics_enabled_topology_conserves_counts() {
        let dict = Dictionary::new();
        let docs = stream(&dict, 120);
        let cfg = StreamJoinConfig::default()
            .with_m(3)
            .with_window_spec(crate::WindowSpec::tumbling(40))
            .with_expansion(false)
            .with_metrics(true)
            .build()
            .unwrap();
        let report = run_topology(cfg, &dict, docs.clone()).unwrap();
        let rt = &report.runtime;
        // Per-window snapshots and the lifecycle trace exist when metrics on.
        assert_eq!(rt.windows.len(), 3, "one snapshot per punctuated window");
        assert!(!rt.trace.is_empty(), "window-lifecycle trace retained");
        // Conservation through the document path: every doc the reader
        // emits reaches the creators (plus any feedback control messages),
        // and every doc window-counted by the joiners matches the join
        // results' basis.
        assert!(rt.received("creator") >= 120);
        let window_docs: u64 = rt
            .tasks
            .iter()
            .filter(|t| t.component == "joiner")
            .map(|t| t.counter("window_docs"))
            .sum();
        assert!(window_docs >= 120, "joiners saw every routed document");
        // Domain counters line up with the join report itself.
        let join_pairs: u64 = rt
            .tasks
            .iter()
            .filter(|t| t.component == "joiner")
            .map(|t| t.counter("join_pairs"))
            .sum();
        let reported: usize = report.joins_per_window.iter().map(|w| w.len()).sum();
        assert!(
            join_pairs as usize >= reported,
            "join_pairs counter {join_pairs} below reported pairs {reported}"
        );
        // Every joiner task's probe histogram accounts for its probes.
        for t in rt.tasks.iter().filter(|t| t.component == "joiner") {
            if let Some(h) = t.histogram("probe_ns") {
                assert!(h.count > 0);
                assert_eq!(h.buckets.iter().map(|&(_, c)| c).sum::<u64>(), h.count);
            }
        }
    }
}

#[cfg(test)]
mod materialize_tests {
    use super::*;

    #[test]
    fn materializes_known_pairs_and_skips_unknown() {
        let dict = Dictionary::new();
        let docs = vec![
            Document::from_json(DocId(1), r#"{"a":1,"b":2}"#, &dict).unwrap(),
            Document::from_json(DocId(2), r#"{"a":1,"c":3}"#, &dict).unwrap(),
        ];
        let mut pairs = FxHashSet::default();
        pairs.insert((1u64, 2u64));
        pairs.insert((1u64, 99u64)); // unknown side: skipped
        let merged = materialize_joins(&pairs, &docs, 1000);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].id(), DocId(1000));
        assert_eq!(merged[0].len(), 3); // a, b, c
        let v = merged[0].to_value(&dict);
        assert_eq!(v.get("c").and_then(ssj_json::Value::as_int), Some(3));
    }

    #[test]
    fn materialize_is_deterministic() {
        let dict = Dictionary::new();
        let docs: Vec<Document> = (0..6u64)
            .map(|i| {
                Document::from_json(DocId(i), &format!(r#"{{"k":{}}}"#, i % 2), &dict).unwrap()
            })
            .collect();
        let pairs = crate::pipeline::ground_truth_pairs(&docs);
        let a = materialize_joins(&pairs, &docs, 0);
        let b = materialize_joins(&pairs, &docs, 0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pairs(), y.pairs());
            assert_eq!(x.id(), y.id());
        }
    }
}
