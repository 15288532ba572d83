//! The Joiner bolt of the Fig. 2 topology (§V): joins its window share as it
//! arrives, in micro-batches, and emits the pane's pairs at the boundary.
//!
//! A document reaches every joiner its route names, so a pair whose two
//! documents share several joiners could be found on each of them. Every
//! routed copy carries its target mask ([`Msg::Copy`]), and joiner `j` finds
//! a pair `(a, b)` only if `j` is the lowest set bit of `mask(a) & mask(b)` —
//! the *owner rule*. Both documents reached every joiner of that
//! intersection, so exactly one joiner reports each pair and the joiners'
//! lists are disjoint.
//!
//! The rule is applied inside the probe. Joiner `j` tags each copy with
//! `mask & below`, `below` being the joiners under `j`; it owns `(a, b)`
//! exactly when `tag(a) & tag(b) == 0`. The FP-trees store each document's
//! tag, and every probe skips the probing copy's tag
//! ([`ssj_join::fpjoin::probe_absent`]), so it never walks into a subtree
//! whose documents all belong to a lower joiner. A spilled chunk tests the
//! same `tag(a) & tag(b) == 0` on what it finds.
//!
//! The Joiner runs FPTreeJoin only: NLJ and HBJ are Fig. 11's local
//! baselines, timed through `ssj_join` directly.

use crate::config::StreamJoinConfig;
use crate::msg::Msg;
use crate::spill::{BlockCache, Segment, SpillSettings, SpillStore};
use ssj_join::{FpTree, ProbeStats};
use ssj_json::{DocId, DocRef};
use ssj_runtime::{Bolt, Outbox, TaskInfo, TaskInstruments, TraceKind};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// How many arrivals a [`Joiner`] collects before one `drain` joins them.
/// 1 walks every frozen tree once per document; 256 walks each once per
/// micro-batch (tree-major, the tree stays cache-hot) and still leaves a
/// boundary at most 255 documents to join. Swept on the repository
/// benchmark at 1 / 64 / 256 / 1024 (EXPERIMENTS.md "Join on arrival"): 64
/// closes 0.13 ms sooner, 256 moves ~6 % more documents on `rw-tumbling`,
/// 1024 adds 0.5–1.1 ms of close for ~3 % more throughput.
pub const ARRIVAL_BATCH: usize = 256;

/// A routed copy as the Joiner holds it: the document and its owner-rule
/// tag (module docs).
type Tagged = (DocRef, u64);

/// The FP-tree nodes a probe visited, fast-path hops included.
fn nodes(stats: ProbeStats) -> u64 {
    stats.visited + stats.fast_levels
}

/// One sealed chunk of a Joiner pane: either a resident arena (the chunk's
/// tagged documents plus the FP-tree over them) or a spilled immutable
/// segment file with only its compact header and its documents' tags in
/// memory (DESIGN.md §4i). Without a memory budget every pane is exactly one
/// resident chunk.
// Resident is much larger than Spilled, but a chunk ring holds only a
// handful of entries and probing goes straight through the tree — boxing
// would buy nothing except an extra hop on the hot path.
#[allow(clippy::large_enum_variant)]
enum FrozenPane {
    /// In-memory arena: documents + FP-tree for cross-chunk probing.
    Resident { docs: Vec<Tagged>, tree: FpTree },
    /// Tiered out: only the segment header (Bloom summary + block index)
    /// and the documents' tags, sorted by id, stay resident; probes lazily
    /// read blocks back through the cache.
    Spilled {
        segment: Arc<Segment>,
        tags: Vec<(DocId, u64)>,
    },
}

impl FrozenPane {
    /// Approximate resident footprint: the full arena for resident chunks,
    /// just the header for spilled ones. This is what the budget meters.
    fn resident_bytes(&self) -> u64 {
        match self {
            FrozenPane::Resident { docs, tree } => {
                (docs.iter().map(|(d, _)| d.approx_bytes()).sum::<usize>() + tree.approx_bytes())
                    as u64
            }
            FrozenPane::Spilled { segment, tags } => {
                (segment.header_bytes() + tags.len() * std::mem::size_of::<(DocId, u64)>()) as u64
            }
        }
    }

    /// Probe every doc in `docs` against this chunk, appending the partner
    /// pairs this joiner owns as `(chunk partner, probing doc)` — chunk docs
    /// are always the earlier ones. Resident chunks use the FP-tree, pruned
    /// by the probing copy's tag; spilled chunks gate on the Bloom summary,
    /// linearly scan cached/read-back blocks with `Document::joins_with` —
    /// the exact predicate the FP-tree probe implements — and keep the
    /// partners whose tag misses the probing copy's, so the pair set is
    /// identical either way. Returns the FP-tree nodes visited.
    fn probe(
        &self,
        docs: &[Tagged],
        scratch: &mut ssj_join::ProbeScratch,
        probe_buf: &mut Vec<DocId>,
        cache: Option<&mut BlockCache>,
        pairs: &mut Vec<(DocId, DocId)>,
        inst: Option<&TaskInstruments>,
    ) -> u64 {
        let mut visited = 0;
        match self {
            FrozenPane::Resident { tree, .. } => {
                // A sealed chunk never holds a later chunk's document.
                for (d, tag) in docs {
                    let stats = ssj_join::fp_probe_absent(tree, d, *tag, true, scratch, probe_buf);
                    visited += nodes(stats);
                    pairs.extend(probe_buf.iter().map(|&p| (p, d.id())));
                }
            }
            FrozenPane::Spilled { segment, tags } => {
                let cache = cache.expect("spilled chunk without a spill store");
                let timed = inst.is_some_and(|i| i.enabled());
                let tag_of = |id: DocId| {
                    let at = tags.binary_search_by_key(&id, |&(d, _)| d);
                    tags[at.expect("a spilled chunk keeps every document's tag")].1
                };
                for (d, tag) in docs {
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
                    if *tag != 0 {
                        probe_buf.retain(|&p| tag_of(p) & tag == 0);
                    }
                    pairs.extend(probe_buf.iter().map(|&p| (p, d.id())));
                }
            }
        }
        visited
    }

    /// Segment id of a spilled chunk (keys the block cache).
    fn segment_id(&self) -> Option<u64> {
        match self {
            FrozenPane::Spilled { segment, .. } => Some(segment.id()),
            FrozenPane::Resident { .. } => None,
        }
    }
}

/// Joiner bolt (§V): local window join, computed as the documents arrive.
///
/// Arrivals are collected into micro-batches of [`ARRIVAL_BATCH`]; one
/// `drain` per micro-batch (and one for the remainder at the boundary)
/// probes every earlier chunk with the whole micro-batch, then probes and
/// inserts each document into the open pane's FP-tree
/// ([`ssj_join::OpenPane`], ordered by the previous pane). A punctuation
/// therefore has at most one micro-batch left to join: it emits the pane's
/// pairs and rotates the ring. Tumbling windows drop the pane; sliding
/// windows freeze it next to the newest `panes_per_window - 1` and evict
/// the oldest — O(pane) eviction, never a window rebuild.
///
/// With a memory budget (`--mem-budget`, DESIGN.md §4i) the open tree is
/// additionally sealed as a *chunk* of the open pane whenever the share
/// that arrived since the last seal reaches the chunk target; the oldest
/// resident chunks then spill to sorted segment files until the resident
/// footprint fits the budget. The pair set is invariant under chunking —
/// each unordered pair is found exactly once, when its later document is
/// drained against the chunk (sealed or open) holding the earlier one.
///
/// Every probe finds only the pairs this joiner owns (module docs), so the
/// boundary emits them as they are.
pub struct Joiner {
    config: StreamJoinConfig,
    task: usize,
    /// The joiners below this one, as a mask (owner rule).
    below: u64,
    /// Arrivals not joined yet — at most [`ARRIVAL_BATCH`].
    arrivals: Vec<Tagged>,
    /// The open chunk, joined on arrival, and its documents (only when
    /// `keeps_docs`).
    open: ssj_join::OpenPane,
    open_docs: Vec<Tagged>,
    /// Chunks of the open pane sealed so far (spill mode only).
    sealed: Vec<FrozenPane>,
    /// Frozen panes still inside the sliding lookback, oldest first, each
    /// as its chunks; empty for tumbling windows. One chunk per pane without
    /// a budget.
    frozen: VecDeque<Vec<FrozenPane>>,
    /// Pairs of the open pane found so far (all of them owned).
    pairs: Vec<(DocId, DocId)>,
    /// Copies of the open pane received so far — one per document: the
    /// Assigner sends each joiner a document once.
    docs: usize,
    /// FP-tree nodes the open pane's probes visited so far.
    probe_nodes: u64,
    /// Reused working memory for probes of sealed chunks.
    probe_scratch: ssj_join::ProbeScratch,
    probe_buf: Vec<DocId>,
    /// Deployment spill settings; `None` when `mem_budget == 0`.
    spill_settings: Option<Arc<SpillSettings>>,
    /// Per-task spill machinery, created in `prepare` (needs the task
    /// index for segment names). `None` when `mem_budget == 0`.
    spill: Option<SpillStore>,
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
            below: 0,
            arrivals: Vec::with_capacity(ARRIVAL_BATCH),
            open: ssj_join::OpenPane::new(),
            open_docs: Vec::new(),
            sealed: Vec::new(),
            frozen: VecDeque::new(),
            pairs: Vec::new(),
            docs: 0,
            probe_nodes: 0,
            probe_scratch: ssj_join::ProbeScratch::new(),
            probe_buf: Vec::new(),
            spill_settings: spill,
            spill: None,
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
    /// them (sliding) or to spill them. A resident tumbling pane does not —
    /// its tree holds ids — and lets each micro-batch go as soon as it is
    /// joined, so the boundary has no pane's worth of `Arc`s to release
    /// either.
    fn keeps_docs(&self) -> bool {
        self.config.panes_per_window() > 1 || self.spill.is_some()
    }

    /// Spill mode: the share arrived since the last seal fills a chunk.
    fn chunk_full(&self) -> bool {
        self.spill
            .as_ref()
            .is_some_and(|s| self.open_bytes >= s.settings().chunk_target())
    }

    /// Join the collected arrivals: probe every earlier chunk — frozen panes
    /// oldest first, then this pane's seals — with the whole micro-batch
    /// (tree-major: one tree stays hot), then probe and insert each document
    /// into the open tree. Every probe finds only the pairs this joiner owns.
    fn drain(&mut self) {
        let mut docs = std::mem::take(&mut self.arrivals);
        if !docs.is_empty() {
            let inst = self.inst.as_deref();
            let t0 = inst.filter(|i| i.enabled()).map(|_| Instant::now());
            let mut cache = self.spill.as_mut().map(|s| &mut s.cache);
            for chunk in self.frozen.iter().flatten().chain(&self.sealed) {
                self.probe_nodes += chunk.probe(
                    &docs,
                    &mut self.probe_scratch,
                    &mut self.probe_buf,
                    cache.as_deref_mut(),
                    &mut self.pairs,
                    inst,
                );
            }
            for (d, tag) in &docs {
                self.probe_nodes += nodes(self.open.join(d, *tag, &mut self.pairs));
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
    /// open pane.
    fn seal_open(&mut self, keep: bool) {
        self.open_bytes = 0;
        match self.open.close(keep) {
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
            let mut tags: Vec<(DocId, u64)> = docs.iter().map(|(d, t)| (d.id(), *t)).collect();
            tags.sort_unstable();
            let docs: Vec<DocRef> = std::mem::take(docs).into_iter().map(|(d, _)| d).collect();
            let segment = store
                .write_segment(docs)
                .expect("spill: failed to write segment");
            spilled_bytes += segment.bytes();
            spilled_runs += 1;
            *chunk = FrozenPane::Spilled { segment, tags };
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
                    let mut tags: Vec<(DocId, u64)> = positions
                        .iter()
                        .flat_map(|&i| match &pane[i] {
                            FrozenPane::Spilled { tags, .. } => tags.as_slice(),
                            FrozenPane::Resident { .. } => &[],
                        })
                        .copied()
                        .collect();
                    tags.sort_unstable();
                    pane[positions[0]] = FrozenPane::Spilled { segment: m, tags };
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
                    FrozenPane::Spilled { segment, .. } => Some(Arc::clone(segment)),
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
        self.below = (1u64 << info.task_index) - 1;
        if let Some(settings) = &self.spill_settings {
            self.spill = Some(SpillStore::new(
                Arc::clone(settings),
                format!("j{}", info.task_index),
            ));
        }
    }

    fn execute(&mut self, msg: Msg, _out: &mut Outbox<Msg>) {
        if let Msg::Copy { doc, targets } = msg {
            self.docs += 1;
            self.open_bytes += doc.approx_bytes() as u64;
            self.arrivals.push((doc, targets & self.below));
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
        let docs = std::mem::take(&mut self.docs);
        let reserve = self.pairs.len();
        let pairs = std::mem::replace(&mut self.pairs, Vec::with_capacity(reserve));
        let probe_nodes = std::mem::take(&mut self.probe_nodes);
        if let Some(inst) = &self.inst {
            inst.counter("join_pairs").add(pairs.len() as u64);
            inst.counter("window_docs").add(docs as u64);
            // Per-window probe load in FP-tree nodes visited: the
            // deterministic straggler measure — unlike probe_ns it is immune
            // to CPU contention, so benchmarks can gate on it reproducibly.
            inst.histogram("probe_nodes").record_ns(probe_nodes);
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
            let Some(dead) = self.frozen.pop_front() else {
                break;
            };
            if let Some(store) = self.spill.as_mut() {
                let ids: Vec<u64> = dead.iter().filter_map(FrozenPane::segment_id).collect();
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
