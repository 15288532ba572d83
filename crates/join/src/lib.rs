//! # ssj-join — local natural-join algorithms for schema-free documents
//!
//! The paper's core contribution at the Joiner nodes: an FP-tree–based join
//! ([`fpjoin`], §V) plus the two baselines it is evaluated against, the
//! Nested Loop Join ([`nlj`]) and the Hash-Based Join ([`hbj`]). The
//! [`sliding`] module extends the paper's tumbling windows to sliding
//! windows via chained FP-tree panes.
//!
//! ```
//! use ssj_json::{Dictionary, DocId, Document};
//! use ssj_join::{fptree::FpTree, fpjoin};
//!
//! let dict = Dictionary::new();
//! let docs: Vec<Document> = [
//!     r#"{"a":3,"b":7,"c":1}"#,
//!     r#"{"a":3,"b":8}"#,
//!     r#"{"a":3,"b":7}"#,
//!     r#"{"b":8,"c":2}"#,
//! ]
//! .iter()
//! .enumerate()
//! .map(|(i, s)| Document::from_json(DocId(i as u64 + 1), s, &dict).unwrap())
//! .collect();
//!
//! let tree = FpTree::build(&docs);
//! // Fig. 5: the only join partner of d1 is d3.
//! assert_eq!(fpjoin::probe(&tree, &docs[0]), vec![DocId(3)]);
//! ```

#![warn(missing_docs)]

pub mod fpjoin;
pub mod fptree;
pub mod hbj;
pub mod joiner;
pub mod nlj;
pub mod order;
pub mod sliding;
pub mod tree_stats;
pub mod windowspec;

pub use fpjoin::{
    join_batch as fp_join_batch, probe as fp_probe, probe_absent as fp_probe_absent,
    probe_into as fp_probe_into, FrozenPane, OpenPane, ProbeScratch, ProbeStats,
};
pub use fptree::{FpTree, NodeId};
pub use joiner::{join_batch, split_timings, BatchJoiner, JoinAlgo, JoinTimings};
pub use order::{AttrOrder, PairSet};
pub use sliding::SlidingJoiner;
pub use tree_stats::TreeStats;
pub use windowspec::{WindowError, WindowSpec};
