//! # ssj-core — the scale-out schema-free stream-join system
//!
//! Ties the substrates together into the paper's system:
//!
//! * [`config`] — all tunables with the paper's defaults (§VII-D);
//! * [`assign`] — the Assigner and its [`assign::Router`], the one copy of
//!   the routing and §VI-A adaptation logic;
//! * [`pipeline`] — the deterministic window-by-window driver used by the
//!   experiment harness: the topology's cadence through the same Router,
//!   synchronously, so results are bit-reproducible;
//! * [`components`] / [`topology`] — the threaded Fig. 2 topology
//!   (JsonReader → PartitionCreators → Merger → Assigners → Joiners →
//!   Reporter) on the Storm-like `ssj-runtime`: one runner
//!   ([`run_topology_with`]) whose Reporter folds each window once, as it
//!   closes, into a [`WindowResult`] for the run's sink;
//! * [`msg`] — the tuple type those components exchange.
//!
//! ```
//! use ssj_core::{Pipeline, StreamJoinConfig};
//! use ssj_json::{Dictionary, DocId, Document};
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
//! let report = Pipeline::new(cfg, dict).run(docs);
//! assert_eq!(report.windows.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod assign;
pub mod components;
pub mod config;
pub mod msg;
pub mod pipeline;
pub mod spill;
pub mod stats;
pub mod topology;
pub mod window;
pub mod wire;

pub use config::{ConfigBuilder, ConfigError, StreamJoinConfig};
pub use msg::{Msg, TableMsg};
pub use pipeline::{ground_truth_pairs, Pipeline, PipelineReport, WindowReport};
pub use spill::{SpillSettings, SpillStore};
pub use ssj_join::{WindowError, WindowSpec};
pub use stats::{CsvSink, HumanSummarySink, JsonlSink, ReportSink};
pub use topology::{
    canonicalize, materialize_joins, placement_for, run_topology, run_topology_chaos,
    run_topology_distributed, run_topology_paced, run_topology_with, topology_dot, DistRuntime,
    LatencyReport, Reader, TopologyRunReport, WindowResult,
};
pub use window::{windows, SegmentSpec, Windower};
pub use wire::MsgCodec;
