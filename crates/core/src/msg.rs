//! The tuple type flowing through the Fig. 2 topology.

use ssj_json::{DocId, DocRef};
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
    /// set of joiners this copy was sent to (bit `j` ⇔ joiner `j`). A pair found on several joiners is reported
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
    /// The reader, as it begins a pane the creators build at (the attempt's
    /// first, or one after a θ signal): the §VI-B chain it
    /// detected over that pane, if any; creator 0 forwards it to the Merger.
    Repartition(Option<Arc<Expansion>>),
    /// One pane's routing counts for the Reporter: an Assigner's as it
    /// closes the pane, or the Merger's boundary. The Reporter judges θ
    /// over their sum (DESIGN.md §4 "Control plane").
    Routing {
        /// Window (punctuation) id.
        window: u64,
        /// The sender's share of the pane's counts.
        routing: PaneRouting,
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
    /// Window id the partitions were built at. Every deployed table is a
    /// rebuild ([`crate::assign`]).
    pub window: u64,
    /// The partition table.
    pub table: PartitionTable,
    /// The attribute expansion routing must apply, if any.
    pub expansion: Option<Expansion>,
}

/// What routing did to one pane. The Reporter sums the Assigners' closes
/// (documents, copies, homed documents) and the Merger's boundary (a
/// build) into `WindowResult::routing`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaneRouting {
    /// Documents routed.
    pub docs: usize,
    /// Copies sent to the joiners.
    pub copies: usize,
    /// Documents with a pair the table did not know, or with no §VI-B
    /// view.
    pub homed: usize,
    /// The partitions were rebuilt at this pane's boundary after a θ
    /// signal. The Merger sets it on every build; the Reporter, which
    /// judges θ, clears it on the bootstrap.
    pub rebuilt: bool,
}

impl PaneRouting {
    /// The pane's §VII-C quality, given the copies each joiner held.
    pub fn quality(&self, docs_per_joiner: &[usize]) -> WindowQuality {
        WindowQuality::from_stats(&RoutingStats {
            per_machine: docs_per_joiner.to_vec(),
            total_sends: self.copies,
            homed: self.homed,
            docs: self.docs,
        })
    }
}

impl std::ops::AddAssign for PaneRouting {
    fn add_assign(&mut self, other: PaneRouting) {
        self.docs += other.docs;
        self.copies += other.copies;
        self.homed += other.homed;
        self.rebuilt |= other.rebuilt;
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
