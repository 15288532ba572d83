//! The Merger bolt of the Fig. 2 topology (§IV-A consolidation):
//! consolidates local groups into the global partitions (subset merging +
//! duplicate elimination + greedy placement) and broadcasts the table, with
//! the §VI-B chain and the routing key the reader decided for the build, to
//! the Assigners.

use crate::config::StreamJoinConfig;
use crate::msg::{Msg, PaneRouting, TableMsg};
use ssj_json::{Dictionary, DocRef};
use ssj_partition::{
    batch_views, merge_and_assign, AssociationGroup, Expansion, PartitionTable, RouteKey, View,
};
use ssj_runtime::{Bolt, Outbox, TaskInfo, TaskInstruments, TraceKind};
use std::sync::Arc;

/// Merger bolt (§IV-A consolidation). Exactly one instance.
///
/// Creators send their share only on windows where a (re)computation was
/// requested, so the Merger rebuilds exactly when a share arrived. Under AG
/// a share is the creator's local groups, which the Merger consolidates.
/// The centralized partitioners (SC, DS, Hash) build over the whole window,
/// so their creators ship the share's documents: the Merger puts them back
/// in stream (id) order and builds. Either way the table deploys the chain
/// and the key of the last [`Msg::Repartition`] creator 0 forwarded, the
/// chain the creators built under.
pub struct Merger {
    config: StreamJoinConfig,
    dict: Dictionary,
    /// Groups received for the current window, as `(creator, groups)`.
    pending: Vec<(usize, Vec<AssociationGroup>)>,
    /// The chain of the last [`Msg::Repartition`].
    expansion: Option<Arc<Expansion>>,
    /// The routing key of the last [`Msg::Repartition`].
    key: Option<Arc<RouteKey>>,
    /// Documents received for the current window (centralized builds).
    docs: Vec<DocRef>,
    inst: Option<Arc<TaskInstruments>>,
}

impl Merger {
    /// The single Merger task.
    pub fn new(config: StreamJoinConfig, dict: Dictionary) -> Self {
        Merger {
            pending: Vec::new(),
            expansion: None,
            key: None,
            docs: Vec::new(),
            inst: None,
            config,
            dict,
        }
    }

    /// The table the shares that arrived build, if any did: the creators'
    /// local groups consolidated (AG), or a central build over the window's
    /// documents in stream (id) order (SC, DS, Hash).
    fn build(&mut self) -> Option<PartitionTable> {
        if !self.pending.is_empty() {
            // Deterministic creator order.
            self.pending.sort_by_key(|(c, _)| *c);
            let locals = self.pending.drain(..).map(|(_, gs)| gs).collect();
            return Some(merge_and_assign(locals, self.config.m));
        }
        if self.docs.is_empty() {
            return None;
        }
        let mut docs = std::mem::take(&mut self.docs);
        docs.sort_unstable_by_key(|d| d.id());
        let views: Vec<View> = batch_views(&docs, self.expansion.as_deref(), &self.dict)
            .into_iter()
            .flatten()
            .collect();
        Some(self.config.partitioner.create(&views, self.config.m))
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
                creator, groups, ..
            } => self.pending.push((creator, groups)),
            Msg::Repartition(expansion, key) => (self.expansion, self.key) = (expansion, key),
            Msg::Doc(doc) => self.docs.push(doc),
            _ => {}
        }
    }

    /// A build when a share arrived; either way the boundary's counts go
    /// to the Reporter, which tells the bootstrap from a rebuild.
    fn on_punct(&mut self, window: u64, out: &mut Outbox<Msg>) {
        let mut routing = PaneRouting::default();
        if let Some(table) = self.build() {
            // Every build: the Reporter clears it on the bootstrap.
            routing.rebuilt = true;
            out.emit(Msg::Table(Arc::new(TableMsg {
                window,
                table,
                expansion: self.expansion.as_deref().cloned(),
                key: self.key.as_deref().cloned(),
            })));
            if let Some(inst) = &self.inst {
                inst.counter("table_broadcasts").inc();
                inst.counter("keyed_tables").add(self.key.is_some() as u64);
                inst.trace(TraceKind::Table, window, std::time::Duration::ZERO);
            }
        }
        out.emit(Msg::Routing { window, routing });
    }
}
