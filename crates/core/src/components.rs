//! The bolts of the Fig. 2 topology.
//!
//! * **PartitionCreator** (n): keeps its shuffle-share of the window and,
//!   at a boundary where a (re)partitioning is pending, runs phase 1 of the
//!   partitioning algorithm (equivalence → association groups) on it,
//!   forwarding the local groups to the Merger.
//! * **Merger** (1): consolidates local groups into the global partitions
//!   (subset merging + duplicate elimination + greedy placement) and
//!   broadcasts the table to the Assigners; applies the Assigners' δ-update
//!   requests and broadcasts the refreshed table at the next boundary.
//! * **Joiner** (m): joins its window share as it arrives, in micro-batches,
//!   and emits the pane's pairs at the boundary.
//!
//! The Assigner, and the routing and adaptation logic the deterministic
//! pipeline shares with it, live in [`crate::assign`].

use crate::config::StreamJoinConfig;
use crate::msg::{Msg, TableMsg};
use crate::spill::{BlockCache, Segment, SpillSettings, SpillStore};
use ssj_join::{FpTree, JoinAlgo};
use ssj_json::{Dictionary, DocRef, FxHashSet};
use ssj_partition::{association_groups, batch_views, merge_and_assign, Expansion, View};
use ssj_runtime::{Bolt, BoltState, Outbox, TaskInfo, TaskInstruments, TraceKind};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// One pane of a creator's shuffle share: the documents still on the heap
/// and, under a memory budget, the runs sealed from the pane before them
/// (DESIGN.md §4i). Arrival order is `runs` in seal order, then `docs`.
#[derive(Default)]
struct CreatorPane {
    runs: Vec<Arc<Segment>>,
    docs: Vec<DocRef>,
}

/// PartitionCreator bolt (§IV-A phase 1).
///
/// Runs the (expensive) association-group computation only when asked: on
/// the very first window, and whenever an Assigner has signalled a
/// repartition (§VI-A: "they inform the Partition Creators and the Merger
/// that in the next window a recalculation of the partitions should be
/// performed"). Between computations a document costs one push of its
/// shared handle: the creator keeps its share of the lookback as a ring of
/// panes (tumbling is the 1-pane ring) and builds views and groups from
/// scratch, over exactly the retained panes, at a boundary that has a
/// computation pending.
pub struct PartitionCreator {
    config: StreamJoinConfig,
    dict: Dictionary,
    task: usize,
    /// The open pane of this creator's shuffle share.
    open: CreatorPane,
    /// Closed panes still inside the lookback, oldest first: at most
    /// `panes_per_window - 1`, so empty for tumbling windows. Shared so a
    /// recovery snapshot copies handles, not documents.
    ring: VecDeque<Arc<CreatorPane>>,
    /// Compute local groups at the next window boundary.
    compute_pending: bool,
    /// Deployment spill settings; `None` when `mem_budget == 0`.
    spill_settings: Option<Arc<SpillSettings>>,
    /// Per-task spill machinery (created in `prepare`); `None` at budget 0.
    spill: Option<SpillStore>,
    /// Approximate bytes buffered since the last run was sealed.
    open_bytes: u64,
    inst: Option<Arc<TaskInstruments>>,
}

/// Pane-boundary snapshot of the [`PartitionCreator`]'s cross-pane state.
/// A spilled run travels as its handle, which keeps the file alive.
#[derive(Clone)]
struct CreatorState {
    compute_pending: bool,
    ring: VecDeque<Arc<CreatorPane>>,
}

impl PartitionCreator {
    /// One creator task. `spill` is `Some` only when the topology runs
    /// with a non-zero memory budget.
    pub fn new(
        config: StreamJoinConfig,
        dict: Dictionary,
        spill: Option<Arc<SpillSettings>>,
    ) -> Self {
        PartitionCreator {
            config,
            dict,
            task: 0,
            open: CreatorPane::default(),
            ring: VecDeque::new(),
            compute_pending: true, // bootstrap window
            spill_settings: spill,
            spill: None,
            open_bytes: 0,
            inst: None,
        }
    }

    /// Seal the open pane's heap documents as one sorted run and let go of
    /// the handles; a no-op without a memory budget.
    fn seal_run(&mut self) {
        let Some(store) = &self.spill else { return };
        self.open_bytes = 0;
        if self.open.docs.is_empty() {
            return;
        }
        let segment = store
            .write_segment(std::mem::take(&mut self.open.docs))
            .expect("spill: failed to write creator segment");
        if let Some(inst) = &self.inst {
            inst.counter("spill_bytes").add(segment.bytes());
            inst.counter("spill_segments").inc();
        }
        self.open.runs.push(segment);
    }

    /// This creator's share of the lookback: the retained panes oldest
    /// first, then the open one.
    fn lookback(&self) -> impl Iterator<Item = &CreatorPane> {
        self.ring.iter().map(|p| &**p).chain([&self.open])
    }

    /// Hand `f` the share in arrival order, a chunk at a time: resident
    /// documents through their shared handles, a spilled run read back
    /// (lossless — raw interned ids, same dictionary epoch) and dropped
    /// again before the next one is read.
    fn for_each_chunk(&self, mut f: impl FnMut(&[DocRef])) {
        for pane in self.lookback() {
            for seg in &pane.runs {
                let run = seg
                    .read_all()
                    .expect("spill: failed to read creator segment");
                if let Some(inst) = &self.inst {
                    inst.counter("segment_reads").add(seg.block_count() as u64);
                }
                f(&run.into_iter().map(Arc::new).collect::<Vec<_>>());
            }
            f(&pane.docs);
        }
    }
}

impl Bolt<Msg> for PartitionCreator {
    fn attach_instruments(&mut self, inst: &Arc<TaskInstruments>) {
        self.inst = Some(Arc::clone(inst));
    }

    fn prepare(&mut self, info: &TaskInfo) {
        self.task = info.task_index;
        if let Some(settings) = &self.spill_settings {
            self.spill = Some(SpillStore::new(
                Arc::clone(settings),
                format!("c{}", info.task_index),
            ));
        }
    }

    fn execute(&mut self, msg: Msg, _out: &mut Outbox<Msg>) {
        match msg {
            Msg::Doc(doc) => {
                self.open_bytes += doc.approx_bytes() as u64;
                self.open.docs.push(doc);
                // The open pane's heap documents are all a creator keeps
                // resident, so they may fill the whole budget before they
                // are sealed (a joiner seals at a quarter of it: its sealed
                // chunks stay resident until tiering evicts them).
                if self
                    .spill
                    .as_ref()
                    .is_some_and(|s| self.open_bytes >= s.settings().budget)
                {
                    self.seal_run();
                }
            }
            Msg::Repartition => self.compute_pending = true,
            _ => {}
        }
    }

    fn on_punct(&mut self, window: u64, out: &mut Outbox<Msg>) {
        let share: usize = self
            .lookback()
            .map(|p| p.docs.len() + p.runs.iter().map(|s| s.doc_count()).sum::<usize>())
            .sum();
        // An empty share keeps the computation pending.
        if self.compute_pending && share > 0 {
            let t0 = self
                .inst
                .as_deref()
                .filter(|i| i.enabled())
                .map(|_| Instant::now());
            let mut views: Vec<View> = Vec::with_capacity(share);
            let mut expansion = None;
            if self.config.expansion {
                // §VI-B picks the chain from statistics over the whole
                // share, so it is needed at once — one pane: config
                // validation keeps expansion to tumbling windows.
                let mut docs = Vec::with_capacity(share);
                self.for_each_chunk(|chunk| docs.extend_from_slice(chunk));
                expansion = Expansion::detect(&docs, &self.dict, self.config.m);
                let expanded = batch_views(&docs, expansion.as_ref(), &self.dict);
                views.extend(expanded.into_iter().flatten());
            } else {
                // Views are all the build needs: under a budget at most
                // one run of documents is on the heap next to them.
                self.for_each_chunk(|chunk| {
                    views.extend(chunk.iter().map(|d| d.avps().collect::<View>()));
                });
            }
            out.emit(Msg::LocalGroups {
                window,
                creator: self.task,
                groups: association_groups(&views),
                expansion,
            });
            self.compute_pending = false;
            if let Some(inst) = &self.inst {
                inst.counter("group_computations").inc();
                inst.counter("group_build_docs").add(share as u64);
                if let Some(t0) = t0 {
                    inst.histogram("groups_ns")
                        .record_ns(t0.elapsed().as_nanos() as u64);
                }
            }
        }
        // The filled pane joins the ring and the pane that falls out of the
        // `panes_per_window` lookback leaves it, taking its runs along
        // (segment files unlink with their last handle). A tumbling window
        // is the 1-pane case: the pane it pushes is the one it evicts. A
        // pane that stays is sealed whole, so under a budget the ring holds
        // run headers only and nothing but the open pane counts against it.
        if self.config.panes_per_window() > 1 {
            self.seal_run();
        }
        self.open_bytes = 0;
        self.ring
            .push_back(Arc::new(std::mem::take(&mut self.open)));
        while self.ring.len() >= self.config.panes_per_window() {
            self.ring.pop_front();
        }
    }

    // Cross-pane state: the compute flag and the ring of closed panes (they
    // span punctuations, so replay of the open pane alone cannot rebuild
    // them). The open pane IS rebuilt by replay and deliberately not
    // captured.
    fn snapshot(&self) -> Option<BoltState> {
        Some(Box::new(CreatorState {
            compute_pending: self.compute_pending,
            ring: self.ring.clone(),
        }))
    }

    // Called on a fresh instance: the open pane starts empty and replay
    // refills it.
    fn restore(&mut self, state: &BoltState) -> Result<(), String> {
        let s = state
            .downcast_ref::<CreatorState>()
            .ok_or_else(|| "PartitionCreator snapshot type mismatch".to_string())?;
        self.compute_pending = s.compute_pending;
        self.ring = s.ring.clone();
        Ok(())
    }
}

/// The [`Merger`]'s cross-window state, and its recovery snapshot.
#[derive(Clone, Default)]
struct MergerState {
    /// The last table broadcast. A δ-refresh repeats its window id, the
    /// window the partitions were built at ([`TableMsg::window`]).
    deployed: Option<Arc<TableMsg>>,
    /// The δ-updates applied since, to a copy of the deployed table taken
    /// at the first of them — during a pane, so the boundary that
    /// broadcasts the refresh (and that every Assigner's close waits on)
    /// copies nothing.
    updated: Option<ssj_partition::PartitionTable>,
}

/// One creator's window contribution buffered by the [`Merger`]:
/// `(creator, groups, expansion)`.
type PendingGroups = (
    usize,
    Vec<ssj_partition::AssociationGroup>,
    Option<Expansion>,
);

/// Merger bolt (§IV-A consolidation + §VI-A updates). Exactly one instance.
///
/// Creators send local groups only on windows where a (re)computation was
/// requested, so the Merger rebuilds exactly when fresh groups arrived.
pub struct Merger {
    config: StreamJoinConfig,
    /// Groups received for the current window, per creator.
    pending: Vec<PendingGroups>,
    state: MergerState,
    inst: Option<Arc<TaskInstruments>>,
}

impl Merger {
    /// The single Merger task.
    pub fn new(config: StreamJoinConfig) -> Self {
        Merger {
            state: MergerState::default(),
            pending: Vec::new(),
            inst: None,
            config,
        }
    }
}

impl Bolt<Msg> for Merger {
    fn attach_instruments(&mut self, inst: &Arc<TaskInstruments>) {
        self.inst = Some(Arc::clone(inst));
    }

    fn prepare(&mut self, info: &TaskInfo) {
        assert_eq!(
            info.parallelism, 1,
            "the Merger must have exactly one instance (§III-A)"
        );
    }

    fn execute(&mut self, msg: Msg, _out: &mut Outbox<Msg>) {
        match msg {
            Msg::LocalGroups {
                creator,
                groups,
                expansion,
                ..
            } => {
                self.pending.push((creator, groups, expansion));
            }
            Msg::UpdateRequest(avp) => {
                let s = &mut self.state;
                let Some(deployed) = &s.deployed else { return };
                if !deployed.table.partitions_of(avp).is_empty() {
                    return;
                }
                let table = s.updated.get_or_insert_with(|| deployed.table.clone());
                if table.apply_update(avp) {
                    if let Some(inst) = &self.inst {
                        inst.counter("delta_updates").inc();
                    }
                }
            }
            // Repartition signals go to the PartitionCreators (which decide
            // to compute); the Merger reacts to the groups they send.
            _ => {}
        }
    }

    /// A rebuild when groups arrived, else a δ-refresh when updates did.
    fn on_punct(&mut self, window: u64, out: &mut Outbox<Msg>) {
        let s = &mut self.state;
        let table = if !self.pending.is_empty() {
            // Deterministic creator order.
            self.pending.sort_by_key(|(c, _, _)| *c);
            // Adopt the first creator's expansion proposal (creators see
            // shuffle-shares of the same window, so they virtually always
            // agree on the disabling/combining chain).
            let expansion = self.pending.iter().find_map(|(_, _, e)| e.clone());
            let locals = self.pending.drain(..).map(|(_, gs, _)| gs).collect();
            s.updated = None;
            TableMsg {
                window,
                table: merge_and_assign(locals, self.config.m),
                expansion,
            }
        } else if let Some(table) = s.updated.take() {
            let last = s
                .deployed
                .as_ref()
                .expect("updates follow a deployed table");
            TableMsg {
                window: last.window,
                table,
                expansion: last.expansion.clone(),
            }
        } else {
            return;
        };
        let table = Arc::new(table);
        s.deployed = Some(Arc::clone(&table));
        out.emit(Msg::Table(table));
        if let Some(inst) = &self.inst {
            inst.counter("table_broadcasts").inc();
            inst.trace(TraceKind::Table, window, std::time::Duration::ZERO);
        }
    }

    // The deployed table survives crashes; per-window `pending` groups are
    // reconstructed by replay.
    fn snapshot(&self) -> Option<BoltState> {
        Some(Box::new(self.state.clone()))
    }

    fn restore(&mut self, state: &BoltState) -> Result<(), String> {
        let s = state
            .downcast_ref::<MergerState>()
            .ok_or_else(|| "Merger snapshot type mismatch".to_string())?;
        self.state = s.clone();
        self.pending.clear();
        Ok(())
    }
}

/// How many arrivals a [`Joiner`] collects before one `drain` joins them.
/// 1 walks every frozen tree once per document; 256 walks each once per
/// micro-batch (tree-major, the tree stays cache-hot) and still leaves a
/// boundary at most 255 documents to join. Swept on the repository
/// benchmark at 1 / 64 / 256 / 1024 (EXPERIMENTS.md "Join on arrival"): 64
/// closes 0.13 ms sooner, 256 moves ~6 % more documents on `rw-tumbling`,
/// 1024 adds 0.5–1.1 ms of close for ~3 % more throughput.
pub const ARRIVAL_BATCH: usize = 256;

/// One sealed chunk of a Joiner pane: either a resident arena (the chunk's
/// deduplicated documents plus the FP-tree over them) or a spilled immutable
/// segment file with only its compact header in memory (DESIGN.md §4i).
/// Without a memory budget every pane is exactly one resident chunk.
// Resident is much larger than Spilled, but a chunk ring holds only a
// handful of entries and probing goes straight through the tree — boxing
// would buy nothing except an extra hop on the hot path.
#[allow(clippy::large_enum_variant)]
enum FrozenPane {
    /// In-memory arena: documents + FP-tree for cross-chunk probing.
    Resident { docs: Vec<DocRef>, tree: FpTree },
    /// Tiered out: only the segment header (Bloom summary + block index)
    /// stays resident; probes lazily read blocks back through the cache.
    Spilled { segment: Arc<Segment> },
}

impl FrozenPane {
    /// Approximate resident footprint: the full arena for resident chunks,
    /// just the header for spilled ones. This is what the budget meters.
    fn resident_bytes(&self) -> u64 {
        match self {
            FrozenPane::Resident { docs, tree } => {
                (docs.iter().map(|d| d.approx_bytes()).sum::<usize>() + tree.approx_bytes()) as u64
            }
            FrozenPane::Spilled { segment } => segment.header_bytes() as u64,
        }
    }

    /// Probe every doc in `docs` against this chunk, appending partner
    /// pairs as `(chunk partner, probing doc)` — chunk docs are always the
    /// earlier ones. Resident chunks use the FP-tree; spilled chunks gate
    /// on the Bloom summary and linearly scan cached/read-back blocks with
    /// `Document::joins_with` — the exact predicate the FP-tree probe
    /// implements, so the partner set is identical either way.
    fn probe(
        &self,
        docs: &[DocRef],
        scratch: &mut ssj_join::ProbeScratch,
        probe_buf: &mut Vec<ssj_json::DocId>,
        cache: Option<&mut BlockCache>,
        pairs: &mut Vec<(ssj_json::DocId, ssj_json::DocId)>,
        inst: Option<&TaskInstruments>,
    ) {
        match self {
            FrozenPane::Resident { tree, .. } => {
                // A sealed chunk never holds a later chunk's document.
                for d in docs {
                    ssj_join::fp_probe_absent(tree, d, true, scratch, probe_buf);
                    pairs.extend(probe_buf.iter().map(|&p| (p, d.id())));
                }
            }
            FrozenPane::Spilled { segment } => {
                let cache = cache.expect("spilled chunk without a spill store");
                let timed = inst.is_some_and(|i| i.enabled());
                for d in docs {
                    if !segment.may_contain_any(d) {
                        continue;
                    }
                    probe_buf.clear();
                    let t0 = timed.then(Instant::now);
                    let disk_blocks = segment
                        .probe_into(d, cache, probe_buf)
                        .expect("spill: segment probe read-back failed");
                    if let Some(inst) = inst {
                        inst.counter("segment_reads").add(disk_blocks);
                        if let Some(t0) = t0 {
                            inst.histogram("readback_ns")
                                .record_ns(t0.elapsed().as_nanos() as u64);
                        }
                    }
                    pairs.extend(probe_buf.iter().map(|&p| (p, d.id())));
                }
            }
        }
    }

    /// Segment id of a spilled chunk (keys the block cache).
    fn segment_id(&self) -> Option<u64> {
        match self {
            FrozenPane::Spilled { segment } => Some(segment.id()),
            FrozenPane::Resident { .. } => None,
        }
    }
}

/// Snapshot form of one chunk: resident docs travel as shared handles
/// (trees are rebuilt on restore), spilled chunks travel as segment
/// manifests — the `Arc` keeps the file alive across the crash, so recovery
/// replays cheaply without re-serializing window state.
#[derive(Clone)]
enum ChunkManifest {
    Resident(Vec<DocRef>),
    Spilled(Arc<Segment>),
}

/// Pane-boundary snapshot of the [`Joiner`]'s frozen pane ring: per pane,
/// the manifests of its chunks. FP-trees are rebuilt deterministically on
/// restore ([`FpTree::build`] is a pure function of the chunk's documents).
#[derive(Clone)]
struct JoinerState {
    frozen: Vec<Vec<ChunkManifest>>,
}

/// Deep copies of shared documents, for the few consumers that take owned
/// ones: the NLJ/HBJ baselines and snapshot restore.
fn owned(docs: &[DocRef]) -> Vec<ssj_json::Document> {
    docs.iter().map(|d| (**d).clone()).collect()
}

/// Joiner bolt (§V): local window join, computed as the documents arrive.
///
/// Arrivals are collected into micro-batches of [`ARRIVAL_BATCH`]; one
/// `drain` per micro-batch (and one for the remainder at the boundary)
/// drops duplicates, probes every earlier chunk with the whole micro-batch,
/// then probes and inserts each document into the open pane's FP-tree
/// ([`ssj_join::OpenPane`], ordered by the previous pane). A punctuation
/// therefore has at most one micro-batch left to join: it emits the pane's
/// pairs and rotates the ring. Tumbling windows drop the pane; sliding
/// windows freeze it next to the newest `panes_per_window - 1` and evict
/// the oldest — O(pane) eviction, never a window rebuild.
///
/// The NLJ/HBJ baselines (`--algo`, Fig. 11) have no incremental index:
/// their open chunk is only buffered and joined when it is sealed.
///
/// With a memory budget (`--mem-budget`, DESIGN.md §4i) the open tree is
/// additionally sealed as a *chunk* of the open pane whenever the share
/// that arrived since the last seal reaches the chunk target; the oldest
/// resident chunks then spill to sorted segment files until the resident
/// footprint fits the budget. The pair set is invariant under chunking —
/// each unordered pair is found exactly once, when its later document is
/// drained against the chunk (sealed or open) holding the earlier one.
pub struct Joiner {
    config: StreamJoinConfig,
    task: usize,
    /// Arrivals not joined yet — at most [`ARRIVAL_BATCH`].
    arrivals: Vec<DocRef>,
    /// The open chunk, joined on arrival (FPJ only), and its documents
    /// (only when `keeps_docs`).
    open: ssj_join::OpenPane,
    open_docs: Vec<DocRef>,
    /// Chunks of the open pane sealed so far (spill mode only).
    sealed: Vec<FrozenPane>,
    /// Frozen panes still inside the sliding lookback, oldest first; empty
    /// for tumbling windows. One chunk per pane without a budget.
    frozen: VecDeque<Vec<FrozenPane>>,
    /// Pairs of the open pane found so far.
    pairs: Vec<(ssj_json::DocId, ssj_json::DocId)>,
    /// Reused working memory for probes of sealed chunks.
    probe_scratch: ssj_join::ProbeScratch,
    probe_buf: Vec<ssj_json::DocId>,
    /// Deployment spill settings; `None` when `mem_budget == 0`.
    spill_settings: Option<Arc<SpillSettings>>,
    /// Per-task spill machinery, created in `prepare` (needs the task
    /// index for segment names). `None` when `mem_budget == 0`.
    spill: Option<SpillStore>,
    /// Ids drained into the open pane: duplicates can arrive when an
    /// updated table re-routes a pair the broadcast path already delivered;
    /// one copy per document is kept. Cleared at every pane boundary.
    pane_seen: FxHashSet<u64>,
    /// Approximate bytes arrived since the last chunk seal.
    open_bytes: u64,
    /// Join time accumulated across this pane's drains (instrument-gated),
    /// flushed into `probe_ns` at the boundary.
    probe_ns_acc: u64,
    inst: Option<Arc<TaskInstruments>>,
}

impl Joiner {
    /// One joiner task. `spill` is `Some` only when the topology runs with
    /// a non-zero memory budget.
    pub fn new(config: StreamJoinConfig, spill: Option<Arc<SpillSettings>>) -> Self {
        Joiner {
            config,
            task: 0,
            arrivals: Vec::with_capacity(ARRIVAL_BATCH),
            open: ssj_join::OpenPane::new(),
            open_docs: Vec::new(),
            sealed: Vec::new(),
            frozen: VecDeque::new(),
            pairs: Vec::new(),
            probe_scratch: ssj_join::ProbeScratch::new(),
            probe_buf: Vec::new(),
            spill_settings: spill,
            spill: None,
            pane_seen: FxHashSet::default(),
            open_bytes: 0,
            probe_ns_acc: 0,
            inst: None,
        }
    }

    /// True when out-of-core tiering is installed on this task.
    #[cfg(test)]
    fn spilling(&self) -> bool {
        self.spill_settings.is_some() || self.spill.is_some()
    }

    /// Whether a later seal needs the open chunk's documents: to freeze
    /// them (sliding), to spill them, or for a baseline's join. A resident
    /// tumbling FPJ pane does not — its tree holds ids — and lets each
    /// micro-batch go as soon as it is joined, so the boundary has no
    /// pane's worth of `Arc`s to release either.
    fn keeps_docs(&self) -> bool {
        self.config.panes_per_window() > 1
            || self.spill.is_some()
            || self.config.join_algo != JoinAlgo::FpTree
    }

    /// Spill mode: the share arrived since the last seal fills a chunk.
    fn chunk_full(&self) -> bool {
        self.spill
            .as_ref()
            .is_some_and(|s| self.open_bytes >= s.settings().chunk_target())
    }

    /// Join the collected arrivals: drop duplicates, probe every earlier
    /// chunk — frozen panes oldest first, then this pane's seals — with the
    /// whole micro-batch (tree-major: one tree stays hot), then probe and
    /// insert each document into the open tree.
    fn drain(&mut self) {
        let mut docs = std::mem::take(&mut self.arrivals);
        docs.retain(|d| self.pane_seen.insert(d.id().0));
        if !docs.is_empty() {
            let inst = self.inst.as_deref();
            let t0 = inst.filter(|i| i.enabled()).map(|_| Instant::now());
            let mut cache = self.spill.as_mut().map(|s| &mut s.cache);
            for chunk in self.frozen.iter().flatten().chain(&self.sealed) {
                chunk.probe(
                    &docs,
                    &mut self.probe_scratch,
                    &mut self.probe_buf,
                    cache.as_deref_mut(),
                    &mut self.pairs,
                    inst,
                );
            }
            if self.config.join_algo == JoinAlgo::FpTree {
                for d in &docs {
                    self.open.join(d, &mut self.pairs);
                }
            }
            if let Some(t0) = t0 {
                self.probe_ns_acc += t0.elapsed().as_nanos() as u64;
            }
            if self.keeps_docs() {
                self.open_docs.append(&mut docs);
            }
        }
        docs.clear();
        self.arrivals = docs;
        if self.chunk_full() {
            self.seal_open(true);
            self.tier();
        }
    }

    /// Close the open chunk; `keep` seals it as a resident chunk of the
    /// open pane. The baselines join their buffered chunk here.
    fn seal_open(&mut self, keep: bool) {
        self.open_bytes = 0;
        let tree = if self.config.join_algo == JoinAlgo::FpTree {
            self.open.close(keep)
        } else {
            let t0 = Instant::now();
            let docs = owned(&self.open_docs);
            self.pairs
                .append(&mut ssj_join::join_batch(self.config.join_algo, &docs));
            self.probe_ns_acc += t0.elapsed().as_nanos() as u64;
            (keep && !docs.is_empty()).then(|| FpTree::build(&docs))
        };
        match tree {
            Some(tree) => self.sealed.push(FrozenPane::Resident {
                docs: std::mem::take(&mut self.open_docs),
                tree,
            }),
            None => self.open_docs.clear(),
        }
    }

    /// Spill mode, after a seal or a ring rotation: spill the oldest
    /// resident chunks (oldest frozen pane first, then this pane's seals)
    /// until resident state fits the budget, then service the compactor.
    fn tier(&mut self) {
        let Some(store) = self.spill.as_mut() else {
            return;
        };
        let budget = store.settings().budget;
        let mut spilled_bytes = 0u64;
        let mut spilled_runs = 0u64;
        loop {
            let resident: u64 = self
                .frozen
                .iter()
                .flatten()
                .chain(&self.sealed)
                .map(FrozenPane::resident_bytes)
                .sum();
            if resident <= budget {
                break;
            }
            let Some(chunk) = self
                .frozen
                .iter_mut()
                .flatten()
                .chain(&mut self.sealed)
                .find(|c| matches!(c, FrozenPane::Resident { .. }))
            else {
                break; // headers alone exceed the budget; nothing to do
            };
            let FrozenPane::Resident { docs, .. } = chunk else {
                unreachable!()
            };
            let segment = store
                .write_segment(std::mem::take(docs))
                .expect("spill: failed to write segment");
            spilled_bytes += segment.bytes();
            spilled_runs += 1;
            *chunk = FrozenPane::Spilled { segment };
        }
        if let Some(inst) = &self.inst {
            if spilled_runs > 0 {
                inst.counter("spill_bytes").add(spilled_bytes);
                inst.counter("spill_segments").add(spilled_runs);
            }
        }
        self.drain_compactions();
        self.maybe_request_compaction();
    }

    /// Swap finished background merges into whichever pane still holds all
    /// of their input runs. A merge whose inputs were evicted meanwhile is
    /// simply dropped (its segment file unlinks with the `Arc`).
    fn drain_compactions(&mut self) {
        let Some(store) = self.spill.as_mut() else {
            return;
        };
        while let Some(res) = store.poll_compaction() {
            let Ok(merged) = res.merged else { continue };
            let mut merged = Some(merged);
            for pane in self
                .frozen
                .iter_mut()
                .chain(std::iter::once(&mut self.sealed))
            {
                let positions: Vec<usize> = pane
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.segment_id().is_some_and(|id| res.input_ids.contains(&id)))
                    .map(|(i, _)| i)
                    .collect();
                if positions.len() != res.input_ids.len() {
                    continue;
                }
                // The merged run holds exactly the union of the replaced
                // runs' (disjoint) doc sets, so probe results are
                // unchanged; position within the pane does not matter.
                if let Some(m) = merged.take() {
                    pane[positions[0]] = FrozenPane::Spilled { segment: m };
                }
                for &i in positions[1..].iter().rev() {
                    pane.remove(i);
                }
                store.cache.evict_segments(&res.input_ids);
                if let Some(inst) = &self.inst {
                    inst.counter("compactions").inc();
                }
                break;
            }
        }
    }

    /// Hand the first pane holding `COMPACT_MIN_RUNS`+ small spilled runs
    /// to the background compactor (one merge in flight at a time).
    fn maybe_request_compaction(&mut self) {
        let Some(store) = self.spill.as_mut() else {
            return;
        };
        if store.compactions_in_flight() > 0 {
            return;
        }
        for pane in self.frozen.iter().chain(std::iter::once(&self.sealed)) {
            let runs: Vec<Arc<Segment>> = pane
                .iter()
                .filter_map(|c| match c {
                    FrozenPane::Spilled { segment } => Some(Arc::clone(segment)),
                    FrozenPane::Resident { .. } => None,
                })
                .collect();
            if runs.len() >= crate::spill::COMPACT_MIN_RUNS {
                store.request_compaction(runs);
                return;
            }
        }
    }
}

impl Bolt<Msg> for Joiner {
    fn attach_instruments(&mut self, inst: &Arc<TaskInstruments>) {
        self.inst = Some(Arc::clone(inst));
    }

    fn prepare(&mut self, info: &TaskInfo) {
        self.task = info.task_index;
        if let Some(settings) = &self.spill_settings {
            self.spill = Some(SpillStore::new(
                Arc::clone(settings),
                format!("j{}", info.task_index),
            ));
        }
    }

    fn execute(&mut self, msg: Msg, _out: &mut Outbox<Msg>) {
        if let Msg::Doc(doc) = msg {
            self.open_bytes += doc.approx_bytes() as u64;
            self.arrivals.push(doc);
            if self.arrivals.len() >= ARRIVAL_BATCH || self.chunk_full() {
                self.drain();
            }
        }
    }

    /// Pane boundary: join the remainder, emit the pane's pairs, rotate the
    /// ring. A tumbling window is the 1-pane ring — the pane it pushes is
    /// the one it evicts.
    fn on_punct(&mut self, window: u64, out: &mut Outbox<Msg>) {
        let t0 = self
            .inst
            .as_deref()
            .filter(|i| i.enabled())
            .map(|_| Instant::now());
        self.drain();
        self.seal_open(self.config.panes_per_window() > 1);
        let docs = self.pane_seen.len();
        self.pane_seen.clear();
        let reserve = self.pairs.len();
        let pairs = std::mem::replace(&mut self.pairs, Vec::with_capacity(reserve));
        if let Some(inst) = &self.inst {
            inst.counter("join_pairs").add(pairs.len() as u64);
            inst.counter("window_docs").add(docs as u64);
            // Per-window probe load in candidate pairs: the deterministic
            // straggler measure — unlike probe_ns it is immune to CPU
            // contention, so benchmarks can gate on it reproducibly.
            inst.histogram("probe_pairs").record_ns(pairs.len() as u64);
            if inst.enabled() {
                let dt = std::time::Duration::from_nanos(self.probe_ns_acc);
                inst.histogram("probe_ns").record_ns(self.probe_ns_acc);
                inst.trace(TraceKind::Probe, window, dt);
            }
            if let Some(store) = &mut self.spill {
                let (hits, misses) = store.cache.take_counters();
                inst.counter("block_cache_hits").add(hits);
                inst.counter("block_cache_misses").add(misses);
            }
        }
        self.probe_ns_acc = 0;
        out.emit(Msg::JoinStats {
            window,
            joiner: self.task,
            docs,
            pairs,
        });
        self.frozen.push_back(std::mem::take(&mut self.sealed));
        while self.frozen.len() >= self.config.panes_per_window() {
            let dead = self.frozen.pop_front();
            if let Some(store) = self.spill.as_mut() {
                let ids: Vec<u64> = dead
                    .iter()
                    .flatten()
                    .filter_map(FrozenPane::segment_id)
                    .collect();
                store.cache.evict_segments(&ids);
            }
        }
        self.tier();
        if let (Some(inst), Some(t0)) = (&self.inst, t0) {
            // What a boundary still costs: one remainder drain + the seal.
            inst.histogram("close_ns")
                .record_ns(t0.elapsed().as_nanos() as u64);
        }
    }

    // The frozen pane ring spans punctuations, so replay of the open pane
    // alone cannot rebuild it — it must be captured. Spilled chunks are
    // captured as segment manifests (the Arc keeps the file alive). The open
    // pane — arrivals, open tree, sealed chunks, pairs — IS rebuilt by
    // replay; so is the attribute order it runs under, which affects only
    // the rebuilt tree's shape, never its pairs. Tumbling windows snapshot
    // an empty ring.
    fn snapshot(&self) -> Option<BoltState> {
        Some(Box::new(JoinerState {
            frozen: self
                .frozen
                .iter()
                .map(|pane| {
                    pane.iter()
                        .map(|chunk| match chunk {
                            FrozenPane::Resident { docs, .. } => {
                                ChunkManifest::Resident(docs.clone())
                            }
                            FrozenPane::Spilled { segment } => {
                                ChunkManifest::Spilled(Arc::clone(segment))
                            }
                        })
                        .collect()
                })
                .collect(),
        }))
    }

    // Called on a fresh instance: the open pane starts empty, under the
    // empty order, and replay refills it.
    fn restore(&mut self, state: &BoltState) -> Result<(), String> {
        let s = state
            .downcast_ref::<JoinerState>()
            .ok_or_else(|| "Joiner snapshot type mismatch".to_string())?;
        self.frozen = s
            .frozen
            .iter()
            .map(|pane| {
                pane.iter()
                    .map(|manifest| match manifest {
                        ChunkManifest::Resident(docs) => FrozenPane::Resident {
                            tree: FpTree::build(&owned(docs)),
                            docs: docs.clone(),
                        },
                        ChunkManifest::Spilled(segment) => FrozenPane::Spilled {
                            segment: Arc::clone(segment),
                        },
                    })
                    .collect()
            })
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance guard: `--mem-budget 0` installs nothing — no settings,
    /// no store (before or after `prepare`), so the hot path is the exact
    /// pre-tiering code.
    #[test]
    fn budget_zero_installs_no_spill_machinery() {
        let cfg = StreamJoinConfig::default();
        assert_eq!(cfg.mem_budget, 0);
        let mut j = Joiner::new(cfg, None);
        assert!(!j.spilling());
        j.prepare(&TaskInfo {
            component: "joiner".into(),
            task_index: 0,
            parallelism: 1,
        });
        assert!(!j.spilling());

        let cfg = StreamJoinConfig::default()
            .with_mem_budget(1 << 20)
            .build()
            .unwrap();
        let settings = Arc::new(SpillSettings {
            budget: cfg.mem_budget,
            dir: std::env::temp_dir(),
            epoch: 0,
        });
        let mut j = Joiner::new(cfg, Some(settings));
        assert!(j.spilling());
        j.prepare(&TaskInfo {
            component: "joiner".into(),
            task_index: 3,
            parallelism: 4,
        });
        assert!(j.spill.is_some());
    }
}
