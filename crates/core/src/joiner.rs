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
//! whose documents all belong to a lower joiner.
//!
//! The Joiner runs FPTreeJoin only: NLJ and HBJ are Fig. 11's local
//! baselines, timed through `ssj_join` directly.

use crate::config::StreamJoinConfig;
use crate::msg::Msg;
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

/// Joiner bolt (§V): local window join, computed as the documents arrive.
///
/// Arrivals are collected into micro-batches of [`ARRIVAL_BATCH`]; one
/// `drain` per micro-batch (and one for the remainder at the boundary)
/// probes every frozen pane with the whole micro-batch, then probes and
/// inserts each document into the open pane's FP-tree
/// ([`ssj_join::OpenPane`], ordered by the previous pane). A punctuation
/// therefore has at most one micro-batch left to join: it emits the pane's
/// pairs and rotates the ring. Tumbling windows drop the pane; sliding
/// windows freeze its tree next to the newest `panes_per_window - 1` and
/// evict the oldest — O(pane) eviction, never a window rebuild. A tree
/// holds ids, tags and pairs only, so each micro-batch's document handles
/// are released as soon as it is joined.
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
    /// The open pane, joined on arrival.
    open: ssj_join::OpenPane,
    /// Frozen panes still inside the sliding lookback, oldest first; empty
    /// for tumbling windows.
    frozen: VecDeque<FpTree>,
    /// Pairs of the open pane found so far (all of them owned).
    pairs: Vec<(DocId, DocId)>,
    /// Copies of the open pane received so far — one per document: the
    /// Assigner sends each joiner a document once.
    docs: usize,
    /// FP-tree nodes the open pane's probes visited so far.
    probe_nodes: u64,
    /// Reused working memory for probes of frozen panes.
    probe_scratch: ssj_join::ProbeScratch,
    probe_buf: Vec<DocId>,
    /// Join time accumulated across this pane's drains (instrument-gated),
    /// flushed into `probe_ns` at the boundary.
    probe_ns_acc: u64,
    inst: Option<Arc<TaskInstruments>>,
}

impl Joiner {
    /// One joiner task.
    pub fn new(config: StreamJoinConfig) -> Self {
        Joiner {
            config,
            task: 0,
            below: 0,
            arrivals: Vec::with_capacity(ARRIVAL_BATCH),
            open: ssj_join::OpenPane::new(),
            frozen: VecDeque::new(),
            pairs: Vec::new(),
            docs: 0,
            probe_nodes: 0,
            probe_scratch: ssj_join::ProbeScratch::new(),
            probe_buf: Vec::new(),
            probe_ns_acc: 0,
            inst: None,
        }
    }

    /// Join the collected arrivals: probe every frozen pane, oldest first,
    /// with the whole micro-batch (tree-major: one tree stays hot), then
    /// probe and insert each document into the open tree, and release the
    /// handles. Every probe finds only the pairs this joiner owns.
    fn drain(&mut self) {
        if self.arrivals.is_empty() {
            return;
        }
        let t0 = self
            .inst
            .as_deref()
            .filter(|i| i.enabled())
            .map(|_| Instant::now());
        for tree in &self.frozen {
            // A frozen pane never holds a later pane's document.
            for (d, tag) in &self.arrivals {
                let stats = ssj_join::fp_probe_absent(
                    tree,
                    d,
                    *tag,
                    true,
                    &mut self.probe_scratch,
                    &mut self.probe_buf,
                );
                self.probe_nodes += nodes(stats);
                self.pairs
                    .extend(self.probe_buf.iter().map(|&p| (p, d.id())));
            }
        }
        for (d, tag) in &self.arrivals {
            self.probe_nodes += nodes(self.open.join(d, *tag, &mut self.pairs));
        }
        if let Some(t0) = t0 {
            self.probe_ns_acc += t0.elapsed().as_nanos() as u64;
        }
        self.arrivals.clear();
    }
}

impl Bolt<Msg> for Joiner {
    fn attach_instruments(&mut self, inst: &Arc<TaskInstruments>) {
        self.inst = Some(Arc::clone(inst));
    }

    fn prepare(&mut self, info: &TaskInfo) {
        self.task = info.task_index;
        self.below = (1u64 << info.task_index) - 1;
    }

    fn execute(&mut self, msg: Msg, _out: &mut Outbox<Msg>) {
        if let Msg::Copy { doc, targets } = msg {
            self.docs += 1;
            self.arrivals.push((doc, targets & self.below));
            if self.arrivals.len() >= ARRIVAL_BATCH {
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
        let tree = self.open.close(self.config.panes_per_window() > 1);
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
        }
        self.probe_ns_acc = 0;
        out.emit(Msg::JoinStats {
            window,
            joiner: self.task,
            docs,
            pairs,
        });
        // An empty pane still takes its place in the lookback.
        self.frozen.push_back(tree.unwrap_or_default());
        while self.frozen.len() >= self.config.panes_per_window() {
            self.frozen.pop_front();
        }
        if let (Some(inst), Some(t0)) = (&self.inst, t0) {
            // What a boundary still costs: one remainder drain + the seal.
            inst.histogram("close_ns")
                .record_ns(t0.elapsed().as_nanos() as u64);
        }
    }
}
