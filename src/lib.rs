//! # Scaling Out Schema-free Stream Joins
//!
//! Umbrella crate re-exporting the whole system — a from-scratch Rust
//! implementation of the ICDE 2020 paper: exact natural joins over streams
//! of schema-free JSON documents, scaled out across `m` join workers by
//! association-group partitioning, with FP-tree–based local joins, on a
//! Storm-like runtime.
//!
//! The layers, bottom up:
//!
//! * [`ssj_json`] — JSON parsing, flattening, interning, [`ssj_json::Document`];
//! * [`ssj_join`] — FPTreeJoin and the NLJ / HBJ baselines;
//! * [`ssj_partition`] — AG / SC / DS partitioners, attribute expansion,
//!   quality metrics;
//! * [`ssj_runtime`] — the Storm-like topology runtime;
//! * [`ssj_core`] — the Fig. 2 topology, free-running or in lock-step;
//! * [`ssj_data`] — workload generators.
//!
//! End to end in a few lines:
//!
//! ```
//! use schema_free_stream_joins::ssj_core::{run_topology, StreamJoinConfig, WindowSpec};
//! use schema_free_stream_joins::ssj_data::{ServerLogConfig, ServerLogGen};
//! use schema_free_stream_joins::ssj_json::Dictionary;
//!
//! // A schema-free server-log stream…
//! let dict = Dictionary::new();
//! let docs = ServerLogGen::new(ServerLogConfig::default(), dict.clone()).take_docs(400);
//!
//! // …joined exactly across 4 partitions, windows of 200 documents.
//! let cfg = StreamJoinConfig::default().with_m(4).with_window_spec(WindowSpec::tumbling(200)).build().unwrap();
//! let report = run_topology(cfg, &dict, docs).unwrap();
//!
//! assert_eq!(report.joins_per_window.len(), 2);
//! assert!(report.joins_per_window.iter().any(|pairs| !pairs.is_empty()));
//! let quality = report.routing[1].quality(&report.docs_per_joiner[1]);
//! assert!(quality.replication >= 1.0);
//! ```

pub use ssj_core;
pub use ssj_data;
pub use ssj_join;
pub use ssj_json;
pub use ssj_partition;
pub use ssj_runtime;
