//! The PartitionCreator bolt of the Fig. 2 topology (§IV-A phase 1): keeps
//! its shuffle-share of the window and, at a boundary where a
//! (re)partitioning is pending, runs phase 1 of the partitioning algorithm
//! (equivalence → association groups) on it, forwarding the local groups to
//! the Merger — or, for a centralized partitioner (SC, DS, Hash), forwards
//! the share's documents for the Merger to build from. Creator 0 is also
//! the Merger's one way to hear the reader's control: the §VI-B chain and
//! the routing key of each build.

use crate::config::StreamJoinConfig;
use crate::msg::Msg;
use ssj_json::{Dictionary, DocRef};
use ssj_partition::{association_groups, batch_views, Expansion, PartitionerKind, View};
use ssj_runtime::{Bolt, Outbox, TaskInfo, TaskInstruments};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// PartitionCreator bolt (§IV-A phase 1).
///
/// Runs the (expensive) association-group computation only when asked: in a
/// window the reader began with a [`Msg::Repartition`] — the attempt's
/// first, and one after the Reporter's θ signal (§VI-A: "they inform the
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
    open: Vec<DocRef>,
    /// Closed panes still inside the lookback, oldest first: at most
    /// `panes_per_window - 1`, so empty for tumbling windows.
    ring: VecDeque<Vec<DocRef>>,
    /// The pane the last boundary evicted, freed on the next message so
    /// the boundary frees nothing.
    evicted: Option<Vec<DocRef>>,
    /// Compute local groups at the next window boundary.
    compute_pending: bool,
    /// The chain of the last [`Msg::Repartition`].
    expansion: Option<Arc<Expansion>>,
    inst: Option<Arc<TaskInstruments>>,
}

impl PartitionCreator {
    /// One creator task.
    pub fn new(config: StreamJoinConfig, dict: Dictionary) -> Self {
        PartitionCreator {
            config,
            dict,
            task: 0,
            open: Vec::new(),
            ring: VecDeque::new(),
            evicted: None,
            compute_pending: false,
            expansion: None,
            inst: None,
        }
    }

    /// This creator's share of the lookback: the retained panes oldest
    /// first, then the open one.
    fn lookback(&self) -> impl Iterator<Item = &Vec<DocRef>> {
        self.ring.iter().chain([&self.open])
    }
}

impl Bolt<Msg> for PartitionCreator {
    fn attach_instruments(&mut self, inst: &Arc<TaskInstruments>) {
        self.inst = Some(Arc::clone(inst));
    }

    fn prepare(&mut self, info: &TaskInfo) {
        self.task = info.task_index;
    }

    fn execute(&mut self, msg: Msg, out: &mut Outbox<Msg>) {
        self.evicted = None;
        match msg {
            Msg::Doc(doc) => self.open.push(doc),
            Msg::Repartition(expansion, key) => {
                self.expansion = expansion.clone();
                self.compute_pending = true;
                // Creator 0 passes the chain and the key on to the Merger at
                // once, not with the boundary's batch.
                if self.task == 0 {
                    out.emit(Msg::Repartition(expansion, key));
                    out.flush();
                }
            }
            _ => {}
        }
    }

    fn on_punct(&mut self, window: u64, out: &mut Outbox<Msg>) {
        let share: usize = self.lookback().map(Vec::len).sum();
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
                for doc in self.lookback().flatten() {
                    out.emit(Msg::Doc(Arc::clone(doc)));
                }
            } else {
                // A document that lacks a chained attribute has no view.
                let mut views: Vec<View> = Vec::with_capacity(share);
                let expansion = self.expansion.as_deref();
                for pane in self.lookback() {
                    views.extend(
                        batch_views(pane, expansion, &self.dict)
                            .into_iter()
                            .flatten(),
                    );
                }
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
        // `panes_per_window` lookback leaves it, its handles released on the
        // next message. A tumbling window is the 1-pane case: the pane it
        // pushes is the one it evicts.
        self.ring.push_back(std::mem::take(&mut self.open));
        if self.ring.len() >= self.config.panes_per_window() {
            self.evicted = self.ring.pop_front();
        }
    }
}
