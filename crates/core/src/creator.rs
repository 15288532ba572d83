//! The PartitionCreator bolt of the Fig. 2 topology (§IV-A phase 1): keeps
//! its shuffle-share of the window and, at a boundary where a
//! (re)partitioning is pending, runs phase 1 of the partitioning algorithm
//! (equivalence → association groups) on it, forwarding the local groups to
//! the Merger — or, for a centralized partitioner (SC, DS, Hash), forwards
//! the share's documents for the Merger to build from. Creator 0 is also
//! the Merger's one way to hear the reader's control: the δ-requests and
//! the §VI-B chain of each build.

use crate::config::StreamJoinConfig;
use crate::msg::Msg;
use crate::spill::{Segment, SpillSettings, SpillStore};
use ssj_json::{Dictionary, DocRef};
use ssj_partition::{association_groups, batch_views, Expansion, PartitionerKind, View};
use ssj_runtime::{Bolt, Outbox, TaskInfo, TaskInstruments};
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
/// Runs the (expensive) association-group computation only when asked: in a
/// window the reader began with a [`Msg::Repartition`] — the attempt's
/// first, and one after an Assigner's θ signal (§VI-A: "they inform the
/// Partition Creators and the Merger that in the next window a
/// recalculation of the partitions should be performed"). Its views are
/// under the §VI-B chain that message carried, which the reader decided
/// over the whole pane, so every creator builds under the same one. Between
/// computations a document costs one push of its
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
    /// `panes_per_window - 1`, so empty for tumbling windows.
    ring: VecDeque<CreatorPane>,
    /// The pane the last boundary evicted, freed on the next message so
    /// the boundary frees nothing.
    evicted: Option<CreatorPane>,
    /// Compute local groups at the next window boundary.
    compute_pending: bool,
    /// The chain of the last [`Msg::Repartition`].
    expansion: Option<Arc<Expansion>>,
    /// Deployment spill settings; `None` when `mem_budget == 0`.
    spill_settings: Option<Arc<SpillSettings>>,
    /// Per-task spill machinery (created in `prepare`); `None` at budget 0.
    spill: Option<SpillStore>,
    /// Approximate bytes buffered since the last run was sealed.
    open_bytes: u64,
    inst: Option<Arc<TaskInstruments>>,
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
            evicted: None,
            compute_pending: false,
            expansion: None,
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
        self.ring.iter().chain([&self.open])
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

    fn execute(&mut self, msg: Msg, out: &mut Outbox<Msg>) {
        self.evicted = None;
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
            Msg::Repartition(_) | Msg::UpdateRequest(_) => {
                if let Msg::Repartition(expansion) = &msg {
                    self.expansion = expansion.clone();
                    self.compute_pending = true;
                }
                // Creator 0 passes the control on to the Merger at once, not
                // with the boundary's batch: the Merger applies δ-requests
                // while the pane is read, off the close path.
                if self.task == 0 {
                    out.emit(msg);
                    out.flush();
                }
            }
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
            if self.config.partitioner != PartitionerKind::Ag {
                // A centralized build needs the whole window at once: ship
                // the share's documents for the Merger to build from.
                self.for_each_chunk(|chunk| {
                    for doc in chunk {
                        out.emit(Msg::Doc(Arc::clone(doc)));
                    }
                });
            } else {
                // Views are all the build needs: under a budget at most one
                // run of documents is on the heap next to them. A document
                // that lacks a chained attribute has none.
                let mut views: Vec<View> = Vec::with_capacity(share);
                let expansion = self.expansion.as_deref();
                self.for_each_chunk(|chunk| {
                    views.extend(
                        batch_views(chunk, expansion, &self.dict)
                            .into_iter()
                            .flatten(),
                    );
                });
                out.emit(Msg::LocalGroups {
                    window,
                    creator: self.task,
                    groups: association_groups(&views),
                });
            }
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
        // `panes_per_window` lookback leaves it, taking its runs along on the
        // next message (segment files unlink with their last handle). A
        // tumbling window is the 1-pane case: the pane it pushes is the one
        // it evicts. A pane that stays is sealed whole, so under a budget the
        // ring holds run headers only and nothing but the open pane counts
        // against it.
        if self.config.panes_per_window() > 1 {
            self.seal_run();
        }
        self.open_bytes = 0;
        self.ring.push_back(std::mem::take(&mut self.open));
        if self.ring.len() >= self.config.panes_per_window() {
            self.evicted = self.ring.pop_front();
        }
    }
}
