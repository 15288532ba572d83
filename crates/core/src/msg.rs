//! The tuple type flowing through the Fig. 2 topology.

use ssj_json::{AvpId, DocId, DocRef};
use ssj_partition::{AssociationGroup, Expansion, PartitionTable};
use std::sync::Arc;

/// Everything the topology's components exchange. Documents travel behind
/// `Arc`s, so fan-out (all-grouping, broadcasts) is reference counting, not
/// copying.
#[derive(Clone)]
pub enum Msg {
    /// A schema-free document from the JsonReader.
    Doc(DocRef),
    /// Local association groups from one PartitionCreator for one window
    /// (phase 1 of §IV-A), plus the expansion the creator detected.
    LocalGroups {
        /// Window (punctuation) id the groups were computed from.
        window: u64,
        /// Task index of the producing PartitionCreator.
        creator: usize,
        /// The phase-1 association groups over the creator's sample.
        groups: Vec<AssociationGroup>,
        /// The creator's locally detected attribute expansion, if enabled.
        expansion: Option<Expansion>,
    },
    /// The consolidated partition table broadcast by the Merger.
    Table(Arc<TableMsg>),
    /// An Assigner asking the Merger to add a δ-frequent unseen pair.
    UpdateRequest(AvpId),
    /// An Assigner signalling that partition quality degraded past θ.
    Repartition,
    /// One Joiner's results for one window.
    JoinStats {
        /// Window (punctuation) id.
        window: u64,
        /// Task index of the producing Joiner.
        joiner: usize,
        /// Documents the Joiner held in this window.
        docs: usize,
        /// The joinable pairs found, as `(earlier, later)` ids.
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

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Msg::Doc(d) => write!(f, "Doc({})", d.id()),
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
            Msg::UpdateRequest(a) => write!(f, "UpdateRequest({a})"),
            Msg::Repartition => write!(f, "Repartition"),
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
