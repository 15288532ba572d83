//! # ssj-core — the scale-out schema-free stream-join system
//!
//! Ties the substrates together into the paper's system:
//!
//! * [`config`] — all tunables with the paper's defaults (§VII-D);
//! * [`assign`] — the Assigner and its [`assign::Router`], the one copy of
//!   the routing and §VI-A adaptation logic;
//! * [`creator`] / [`merger`] / [`joiner`] / [`topology`] — the threaded
//!   Fig. 2 topology (JsonReader → PartitionCreators → Merger → Assigners → Joiners →
//!   Reporter) on the Storm-like `ssj-runtime`: one runner
//!   ([`run_topology_with`]) whose Reporter folds each window once, as it
//!   closes, into a [`WindowResult`] for the run's sink;
//! * [`reader`] — the one reader spout, at most [`READER_LEAD`] panes ahead
//!   of the sink, and the §VI-A control plane. Its lock-step source
//!   ([`Reader::Lockstep`], lead 1) runs §VI-A's "next window" timing: the
//!   figures and `ssj pipeline` take their numbers from it;
//! * [`stats`] — the whole-run aggregates and report sinks over
//!   [`WindowResult`]s;
//! * [`msg`] — the tuple type those components exchange.
//!
//! ```
//! use ssj_core::{run_topology_collect, Reader, StreamJoinConfig};
//! use ssj_json::{Dictionary, DocId, Document};
//! use ssj_runtime::FaultPlan;
//! use std::sync::Arc;
//!
//! let dict = Dictionary::new();
//! let docs: Vec<Document> = (0..20u64)
//!     .map(|i| Document::from_json(
//!         DocId(i),
//!         &format!(r#"{{"user":"u{}","sev":"{}"}}"#, i % 3, i % 2),
//!         &dict,
//!     ).unwrap())
//!     .collect();
//! let cfg = StreamJoinConfig::default()
//!     .with_m(2)
//!     .with_window_spec(ssj_core::WindowSpec::tumbling(10))
//!     .build()
//!     .unwrap();
//! let panes = docs
//!     .chunks(10)
//!     .map(|pane| pane.iter().cloned().map(Arc::new).collect())
//!     .collect();
//! let reader = Reader::Lockstep(panes);
//! let report = run_topology_collect(cfg, &dict, reader, FaultPlan::new(), None).unwrap();
//! assert_eq!(report.joins_per_window.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod assign;
pub mod config;
pub mod creator;
pub mod joiner;
pub mod merger;
pub mod msg;
pub mod reader;
pub mod spill;
pub mod stats;
pub mod topology;
pub mod window;
pub mod wire;

pub use config::{ConfigBuilder, ConfigError, StreamJoinConfig};
pub use msg::{Msg, PaneRouting, TableMsg};
pub use reader::{Reader, READER_LEAD};
pub use spill::{SpillSettings, SpillStore};
pub use ssj_join::{WindowError, WindowSpec};
pub use stats::{Format, ReportSink, RunSummary};
pub use topology::{
    canonicalize, ground_truth_pairs, materialize_joins, placement_for, run_topology,
    run_topology_collect, run_topology_paced, run_topology_relaunching, run_topology_with,
    topology_dot, DistRuntime, LatencyReport, TopologyRunReport, WindowResult, RUN_ATTEMPTS,
};
pub use window::{windows, SegmentSpec};
pub use wire::MsgCodec;
