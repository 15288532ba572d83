//! # ssj-partition — partitioning schema-free document streams
//!
//! The partitioning half of the paper: the Association-Groups algorithm
//! (§IV) plus the two competitors it is evaluated against (set cover and
//! disjoint sets, §VII-A), attribute-value expansion for low value variety
//! (§VI-B) and the routing key that carries its argument further
//! ([`RouteKey`]), the Merger's consolidation of locally computed groups
//! (§IV-A), and the quality metrics / adaptation thresholds of §VI-A and
//! §VII-C.
//!
//! ```
//! use ssj_partition::{AgPartitioner, Partitioner, RouteOutcome, RouteScratch};
//! use ssj_json::{Dictionary, Scalar};
//!
//! let dict = Dictionary::new();
//! let mut avp = |a: &str, v: i64| dict.intern(a, Scalar::Int(v)).avp;
//! // Fig. 3: four documents, three association groups.
//! let views = vec![
//!     vec![avp("A", 2), avp("B", 3), avp("C", 7)],
//!     vec![avp("A", 7), avp("B", 3), avp("C", 4)],
//!     vec![avp("D", 13)],
//!     vec![avp("A", 7), avp("C", 4)],
//! ];
//! let table = AgPartitioner.create(&views, 2);
//! let mut scratch = RouteScratch::new();
//! assert_eq!(table.route_into(&views[0], &mut scratch), RouteOutcome::Matched);
//! ```

#![warn(missing_docs)]

pub mod ag;
pub mod ds;
pub mod expansion;
pub mod fingerprint;
pub mod groups;
pub mod hashpart;
pub mod incremental;
pub mod key;
pub mod merger;
pub mod partitions;
pub mod quality;
pub mod sc;

pub use ag::AgPartitioner;
pub use ds::{component_count, DsPartitioner, UnionFind};
pub use expansion::{batch_views, Expansion};
pub use fingerprint::{fingerprint_docs, Fp128};
pub use groups::{
    association_groups, association_groups_from, equivalence_groups, AssociationGroup,
    EquivalenceGroup, View,
};
pub use hashpart::HashPartitioner;
pub use incremental::{GroupIndex, IndexStats};
pub use key::RouteKey;
pub use merger::{consolidate, merge_and_assign};
pub use partitions::{
    assign_groups, home_bit, route_batch, PartitionTable, Route, RouteOutcome, RouteScratch,
    RoutingStats, MAX_PARTITIONS,
};
pub use quality::{gini, RepartitionPolicy, WindowQuality};
pub use sc::ScPartitioner;

/// A partitioning algorithm: turn one batch of document views into `m`
/// partitions.
pub trait Partitioner {
    /// Short display name ("AG", "SC", "DS").
    fn name(&self) -> &'static str;
    /// Create the `m` partitions from the batch.
    fn create(&self, views: &[View], m: usize) -> PartitionTable;
}

/// The three partitioners of the evaluation, selectable by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionerKind {
    /// Association groups (the paper's approach).
    Ag,
    /// Set cover (competitor).
    Sc,
    /// Disjoint sets (competitor).
    Ds,
    /// Per-pair hash partitioning (ablation baseline, §II related work;
    /// not part of the paper's AG/SC/DS comparison).
    Hash,
}

impl PartitionerKind {
    /// The paper's three competitors, in presentation order. The hash
    /// baseline is excluded here (the evaluation compares AG/SC/DS); use
    /// [`PartitionerKind::with_baselines`] to include it.
    pub fn all() -> [PartitionerKind; 3] {
        [
            PartitionerKind::Ag,
            PartitionerKind::Sc,
            PartitionerKind::Ds,
        ]
    }

    /// All partitioners including the hash ablation baseline.
    pub fn with_baselines() -> [PartitionerKind; 4] {
        [
            PartitionerKind::Ag,
            PartitionerKind::Sc,
            PartitionerKind::Ds,
            PartitionerKind::Hash,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PartitionerKind::Ag => "AG",
            PartitionerKind::Sc => "SC",
            PartitionerKind::Ds => "DS",
            PartitionerKind::Hash => "HASH",
        }
    }

    /// Create partitions with the selected algorithm.
    pub fn create(self, views: &[View], m: usize) -> PartitionTable {
        match self {
            PartitionerKind::Ag => AgPartitioner.create(views, m),
            PartitionerKind::Sc => ScPartitioner.create(views, m),
            PartitionerKind::Ds => DsPartitioner.create(views, m),
            PartitionerKind::Hash => HashPartitioner.create(views, m),
        }
    }
}

impl std::str::FromStr for PartitionerKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ag" => Ok(PartitionerKind::Ag),
            "sc" => Ok(PartitionerKind::Sc),
            "ds" => Ok(PartitionerKind::Ds),
            "hash" => Ok(PartitionerKind::Hash),
            other => Err(format!("unknown partitioner '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_json::Scalar;

    #[test]
    fn kind_roundtrip() {
        for k in PartitionerKind::with_baselines() {
            let parsed: PartitionerKind = k.name().parse().unwrap();
            assert_eq!(parsed, k);
        }
        assert!("xx".parse::<PartitionerKind>().is_err());
    }

    #[test]
    fn all_partitioners_cover_creation_batch() {
        let dict = ssj_json::Dictionary::new();
        let avp = |a: &str, v: i64| dict.intern(a, Scalar::Int(v)).avp;
        let views = vec![
            vec![avp("a", 1), avp("b", 2)],
            vec![avp("b", 2), avp("c", 3)],
            vec![avp("d", 4)],
        ];
        for kind in PartitionerKind::all() {
            let table = kind.create(&views, 2);
            for v in &views {
                assert!(
                    !table.route(v).is_broadcast(),
                    "{} broadcasts a creation-batch view",
                    kind.name()
                );
            }
        }
    }
}
