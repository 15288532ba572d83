//! The Merger bolt of the Fig. 2 topology (§IV-A consolidation, §VI-A
//! updates): consolidates local groups into the global partitions (subset
//! merging + duplicate elimination + greedy placement) and broadcasts the
//! table, with the §VI-B chain the reader decided for the build, to the
//! Assigners; applies the δ-update requests the reader broadcast at the
//! start of the pane (creator 0 forwards both) and broadcasts the refreshed
//! table at the pane's boundary.

use crate::config::StreamJoinConfig;
use crate::msg::{Msg, PaneRouting, TableMsg};
use ssj_json::{Dictionary, DocRef};
use ssj_partition::{
    batch_views, merge_and_assign, AssociationGroup, Expansion, PartitionTable, View,
};
use ssj_runtime::{Bolt, Outbox, TaskInfo, TaskInstruments, TraceKind};
use std::sync::Arc;

/// The [`Merger`]'s cross-window state.
#[derive(Default)]
struct MergerState {
    /// The last table broadcast. A δ-refresh repeats its window id, the
    /// window the partitions were built at ([`TableMsg::window`]).
    deployed: Option<Arc<TableMsg>>,
    /// The δ-updates applied since, to a copy of the deployed table taken
    /// at the first of them. They arrive at the start of the pane whose
    /// boundary broadcasts the refresh; the flat table keeps the copy at
    /// O(m) allocations.
    updated: Option<PartitionTable>,
}

/// Merger bolt (§IV-A consolidation + §VI-A updates). Exactly one instance.
///
/// Creators send their share only on windows where a (re)computation was
/// requested, so the Merger rebuilds exactly when a share arrived. Under AG
/// a share is the creator's local groups, which the Merger consolidates.
/// The centralized partitioners (SC, DS, Hash) build over the whole window,
/// so their creators ship the share's documents: the Merger puts them back
/// in stream (id) order and builds. Either way the table deploys the chain
/// of the last [`Msg::Repartition`] creator 0 forwarded, the one the
/// creators built under.
pub struct Merger {
    config: StreamJoinConfig,
    dict: Dictionary,
    /// Groups received for the current window, as `(creator, groups)`.
    pending: Vec<(usize, Vec<AssociationGroup>)>,
    /// The chain of the last [`Msg::Repartition`].
    expansion: Option<Arc<Expansion>>,
    /// Documents received for the current window (centralized builds).
    docs: Vec<DocRef>,
    state: MergerState,
    inst: Option<Arc<TaskInstruments>>,
}

impl Merger {
    /// The single Merger task.
    pub fn new(config: StreamJoinConfig, dict: Dictionary) -> Self {
        Merger {
            state: MergerState::default(),
            pending: Vec::new(),
            expansion: None,
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
            Msg::Repartition(expansion) => self.expansion = expansion,
            Msg::Doc(doc) => self.docs.push(doc),
            Msg::UpdateRequest(avps) => {
                let s = &mut self.state;
                let Some(deployed) = &s.deployed else { return };
                if avps.iter().all(|&a| deployed.table.avp_mask(a) != 0) {
                    return;
                }
                let table = s.updated.get_or_insert_with(|| deployed.table.clone());
                let applied = avps.into_iter().filter(|&a| table.apply_update(a)).count();
                if let Some(inst) = &self.inst {
                    inst.counter("delta_updates").add(applied as u64);
                }
            }
            _ => {}
        }
    }

    /// A rebuild when a share arrived, else a δ-refresh when updates did;
    /// either way the boundary's counts go to the Reporter.
    fn on_punct(&mut self, window: u64, out: &mut Outbox<Msg>) {
        let built = self.build();
        let s = &mut self.state;
        let mut routing = PaneRouting::default();
        let table = if let Some(table) = built {
            // The bootstrap build is not a repartition.
            routing.rebuilt = s.deployed.is_some();
            s.updated = None;
            Some(TableMsg {
                window,
                table,
                expansion: self.expansion.as_deref().cloned(),
            })
        } else if let Some(table) = s.updated.take() {
            let last = s
                .deployed
                .as_ref()
                .expect("updates follow a deployed table");
            routing.updates = table.pair_count() - last.table.pair_count();
            Some(TableMsg {
                window: last.window,
                table,
                expansion: last.expansion.clone(),
            })
        } else {
            None
        };
        if let Some(table) = table {
            let table = Arc::new(table);
            s.deployed = Some(Arc::clone(&table));
            out.emit(Msg::Table(table));
            if let Some(inst) = &self.inst {
                inst.counter("table_broadcasts").inc();
                inst.trace(TraceKind::Table, window, std::time::Duration::ZERO);
            }
        }
        out.emit(Msg::Routing {
            window,
            routing,
            control: None,
        });
    }
}
