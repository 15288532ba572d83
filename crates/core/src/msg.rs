//! The tuple type flowing through the Fig. 2 topology.

use ssj_json::{AvpId, DocId, DocRef};
use ssj_partition::{AssociationGroup, Expansion, PartitionTable, RoutingStats, WindowQuality};
use std::sync::Arc;

/// Everything the topology's components exchange. Documents travel behind
/// `Arc`s, so fan-out (all-grouping, broadcasts) is reference counting, not
/// copying.
#[derive(Clone)]
pub enum Msg {
    /// A schema-free document from the JsonReader.
    Doc(DocRef),
    /// One routed copy of a document, Assigner → Joiner: `targets` is the
    /// set of joiners this copy was sent to (bit `j` ⇔ joiner `j`, all `m`
    /// bits for a broadcast). A pair found on several joiners is reported
    /// only by the lowest joiner both documents reached (the owner rule,
    /// [`crate::joiner`]).
    Copy {
        /// The document.
        doc: DocRef,
        /// Every joiner this document was sent to, never empty.
        targets: u64,
    },
    /// Local association groups from one PartitionCreator for one window
    /// (phase 1 of §IV-A), over views under the chain of the last
    /// [`Msg::Repartition`].
    LocalGroups {
        /// Window (punctuation) id the groups were computed from.
        window: u64,
        /// Task index of the producing PartitionCreator.
        creator: usize,
        /// The phase-1 association groups over the creator's sample.
        groups: Vec<AssociationGroup>,
    },
    /// The consolidated partition table broadcast by the Merger.
    Table(Arc<TableMsg>),
    /// The reader, as it begins a pane, passing on [`Control::requests`]
    /// (never empty); creator 0 forwards it to the Merger.
    UpdateRequest(Vec<AvpId>),
    /// The reader, as it begins a pane the creators build at (the attempt's
    /// first, or one after [`Control::repartition`]): the §VI-B chain it
    /// detected over that pane, if any; creator 0 forwards it to the Merger.
    Repartition(Option<Arc<Expansion>>),
    /// One pane's routing counts for the Reporter: an Assigner's as it
    /// closes the pane, or the Merger's boundary.
    Routing {
        /// Window (punctuation) id.
        window: u64,
        /// The sender's share of the pane's counts.
        routing: PaneRouting,
        /// An Assigner's task index and what its pane asks of the control
        /// plane; `None` from the Merger. Boxed, so that a `Msg` — every
        /// document in a batch is one — stays as small as before.
        control: Option<Box<(usize, Control)>>,
    },
    /// One Joiner's results for one window.
    JoinStats {
        /// Window (punctuation) id.
        window: u64,
        /// Task index of the producing Joiner.
        joiner: usize,
        /// Documents the Joiner held in this window.
        docs: usize,
        /// The joinable pairs found that this Joiner owns, as
        /// `(earlier, later)` ids: each pair is in one Joiner's list.
        pairs: Vec<(DocId, DocId)>,
    },
}

/// The Merger's broadcast: the deployed table and the active expansion.
#[derive(Debug)]
pub struct TableMsg {
    /// Window id the partitions were built at. A δ-refresh repeats its
    /// build's id, so a new id means a rebuild ([`crate::assign`]).
    pub window: u64,
    /// The partition table.
    pub table: PartitionTable,
    /// The attribute expansion routing must apply, if any.
    pub expansion: Option<Expansion>,
}

/// What a pane asks of the §VI-A control plane, which its credit carries
/// back to the reader (DESIGN.md §4 "Control plane").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Control {
    /// δ-frequent pairs the deployed table does not know, in request order.
    pub requests: Vec<AvpId>,
    /// Quality degraded past θ: recompute the partitions.
    pub repartition: bool,
}

impl Control {
    /// Every Assigner's `(task, control)` of a pane as one: the requests
    /// concatenated in task order, the signals OR-ed.
    pub(crate) fn merge(mut parts: Vec<(usize, Control)>) -> Control {
        parts.sort_unstable_by_key(|part| part.0);
        let repartition = parts.iter().any(|(_, c)| c.repartition);
        let requests = parts.into_iter().flat_map(|(_, c)| c.requests).collect();
        Control {
            requests,
            repartition,
        }
    }
}

/// What routing did to one pane. The Reporter sums the Assigners' closes
/// (documents, copies, broadcasts) and the Merger's boundary (rebuild,
/// δ-updates) into `WindowResult::routing`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaneRouting {
    /// Documents routed.
    pub docs: usize,
    /// Copies sent to the joiners.
    pub copies: usize,
    /// Documents broadcast to every joiner.
    pub broadcasts: usize,
    /// The Merger rebuilt the partitions at this pane's boundary after a θ
    /// signal (never the bootstrap build).
    pub rebuilt: bool,
    /// δ-updates the Merger applied at this pane's boundary.
    pub updates: usize,
}

impl PaneRouting {
    /// The pane's §VII-C quality, given the copies each joiner held.
    pub fn quality(&self, docs_per_joiner: &[usize]) -> WindowQuality {
        WindowQuality::from_stats(&RoutingStats {
            per_machine: docs_per_joiner.to_vec(),
            total_sends: self.copies,
            broadcasts: self.broadcasts,
            docs: self.docs,
        })
    }
}

impl std::ops::AddAssign for PaneRouting {
    fn add_assign(&mut self, other: PaneRouting) {
        self.docs += other.docs;
        self.copies += other.copies;
        self.broadcasts += other.broadcasts;
        self.rebuilt |= other.rebuilt;
        self.updates += other.updates;
    }
}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Msg::Doc(d) => write!(f, "Doc({})", d.id()),
            Msg::Copy { doc, targets } => write!(f, "Copy({}, {targets:#b})", doc.id()),
            Msg::LocalGroups {
                window,
                creator,
                groups,
                ..
            } => write!(
                f,
                "LocalGroups(w={window}, c={creator}, n={})",
                groups.len()
            ),
            Msg::Table(t) => write!(f, "Table(w={})", t.window),
            Msg::UpdateRequest(avps) => write!(f, "UpdateRequest(n={})", avps.len()),
            Msg::Repartition(e) => write!(f, "Repartition(expansion={})", e.is_some()),
            Msg::Routing {
                window, routing, ..
            } => write!(f, "Routing(w={window}, {routing:?})"),
            Msg::JoinStats {
                window,
                joiner,
                docs,
                pairs,
            } => write!(
                f,
                "JoinStats(w={window}, j={joiner}, docs={docs}, pairs={})",
                pairs.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every document in a batch is a `Msg`, so its size is per-document
    /// memory traffic: an inline expansion in `LocalGroups` made it 80 bytes.
    #[test]
    fn a_msg_stays_small() {
        assert!(
            std::mem::size_of::<Msg>() < 80,
            "{}",
            std::mem::size_of::<Msg>()
        );
    }
}
