//! Configuration of the stream-join system (§VII-D).

use ssj_join::{WindowError, WindowSpec};
use ssj_partition::{PartitionerKind, MAX_PARTITIONS};
use std::fmt;

/// All tunables of the topology, with the paper's defaults
/// (`m = 8`, `w = 6`, `θ = 0.2`, six Assigners). The paper's δ-updates
/// are gone: a pair the table does not know is routed to its hash home.
///
/// Construct via the builder — `StreamJoinConfig::default().with_m(4)`
/// starts a [`ConfigBuilder`], and every chain terminates in
/// [`ConfigBuilder::build`], which validates and returns
/// `Result<StreamJoinConfig, ConfigError>`. A constructed config is
/// therefore always valid.
///
/// The config is `Clone` but deliberately not `Copy`: silent implicit
/// copies of a many-field config are a code smell.
#[derive(Debug, Clone)]
pub struct StreamJoinConfig {
    /// Number of partitions = number of Joiner instances (`m`).
    pub m: usize,
    /// Window shape (`w`; the paper's minutes map to document counts, see
    /// DESIGN.md). Tumbling is the 1-pane special case; sliding windows
    /// chain `panes_per_window` panes and make runtime punctuation
    /// pane-granular (DESIGN.md §4g).
    pub window: WindowSpec,
    /// Repartitioning threshold `θ` (§VI-A).
    pub theta: f64,
    /// Partitioning algorithm (AG / SC / DS / hash). AG builds local groups
    /// at the creators; the others build centrally at the Merger. Only the
    /// figures and `ssj pipeline` choose it: `ssj run` always uses AG.
    pub partitioner: PartitionerKind,
    /// Enable attribute-value expansion (§VI-B).
    pub expansion: bool,
    /// Route by a key the reader finds at each build pane
    /// ([`ssj_partition::RouteKey`]; DESIGN.md §4): a document that carries
    /// the attributes every document of the pane carried goes to the one
    /// joiner of its key tuple. Exact either way; off, every table routes
    /// by the paper's view, which the figures and `ssj pipeline` report.
    pub key_routing: bool,
    /// Parallelism of the PartitionCreator component.
    pub partition_creators: usize,
    /// Parallelism of the Assigner component.
    pub assigners: usize,
    /// Micro-batch size for forward-edge transport in the runtime
    /// (`TopologyBuilder::batch_size`); 1 disables batching.
    pub batch_size: usize,
    /// Enable full metrics collection in the runtime: latency histograms,
    /// the window-lifecycle trace, and per-punctuation registry snapshots.
    pub metrics: bool,
    /// Worker threads of the pool that schedules the bolt tasks (DESIGN.md
    /// §4e; 0 = auto: one per available core, capped at the number of
    /// bolt tasks).
    pub pool_workers: usize,
    /// Pin pool workers to CPU cores, worker `w` to core `w mod cores`
    /// (Linux only; a no-op elsewhere).
    pub pin_cores: bool,
    /// Process-group size for shared-nothing scale-out (DESIGN.md §4f).
    /// 1 (the default) runs everything in this process; `N > 1` shards the
    /// topology's tasks across `N` worker processes linked by Unix-socket
    /// transports.
    pub workers: usize,
}

impl Default for StreamJoinConfig {
    fn default() -> Self {
        StreamJoinConfig {
            m: 8,
            window: WindowSpec::tumbling(6_000),
            theta: 0.2,
            partitioner: PartitionerKind::Ag,
            expansion: true,
            key_routing: true,
            partition_creators: 2,
            assigners: 6,
            batch_size: 64,
            metrics: false,
            pool_workers: 0,
            pin_cores: false,
            workers: 1,
        }
    }
}

/// Why a [`ConfigBuilder::build`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `m` (partitions / Joiners) must lie in `1..=64`
    /// ([`MAX_PARTITIONS`]: a partition set is one `u64` mask); carries the
    /// rejected value.
    PartitionsOutOfRange(usize),
    /// The window shape is invalid; carries the [`WindowError`] detail.
    Window(WindowError),
    /// Sliding windows require expansion off: an Assigner routes each
    /// document with the tables of every pane still in the lookback, and
    /// tables built under different expansions (each redefines the views
    /// wholesale) cannot be combined.
    SlidingWithExpansion,
    /// Every component needs at least one task.
    ZeroParallelism,
    /// `θ` must lie in `[0, 10]`; carries the rejected value.
    ThetaOutOfRange(f64),
    /// The transport micro-batch must hold at least 1 message.
    ZeroBatchSize,
    /// `pool_workers` exceeds the sanity cap (1024); carries the rejected
    /// value. 0 means auto, so any real machine fits well under the cap.
    PoolWorkersOutOfRange(usize),
    /// `workers` must lie in `1..=64` (a process group needs at least this
    /// process, and the mesh is all-pairs); carries the rejected value.
    WorkersOutOfRange(usize),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::PartitionsOutOfRange(m) => {
                write!(f, "m {m} out of range (expected 1..={MAX_PARTITIONS})")
            }
            ConfigError::Window(e) => write!(f, "invalid window: {e}"),
            ConfigError::SlidingWithExpansion => f.write_str(
                "sliding windows require expansion off (retained pane tables cannot mix expansions)",
            ),
            ConfigError::ZeroParallelism => f.write_str("component parallelism must be at least 1"),
            ConfigError::ThetaOutOfRange(t) => {
                write!(f, "theta {t} out of range (expected 0.0..=10.0)")
            }
            ConfigError::ZeroBatchSize => f.write_str("batch_size must be at least 1"),
            ConfigError::PoolWorkersOutOfRange(n) => {
                write!(f, "pool_workers {n} out of range (expected 0..=1024)")
            }
            ConfigError::WorkersOutOfRange(n) => {
                write!(f, "workers {n} out of range (expected 1..=64)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<WindowError> for ConfigError {
    fn from(e: WindowError) -> ConfigError {
        ConfigError::Window(e)
    }
}

impl From<ConfigError> for String {
    fn from(e: ConfigError) -> String {
        e.to_string()
    }
}

/// Fluent builder for [`StreamJoinConfig`]; obtained from any `with_*`
/// method on the config (which seeds the builder with that config's values)
/// and terminated with [`ConfigBuilder::build`].
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    cfg: StreamJoinConfig,
}

/// `with_*` overrides of one config field each.
macro_rules! setters {
    ($($(#[$doc:meta])* $name:ident($field:ident: $ty:ty);)*) => {
        $(
            $(#[$doc])*
            pub fn $name(self, $field: $ty) -> ConfigBuilder {
                let mut b = self.into_builder();
                b.cfg.$field = $field;
                b
            }
        )*
    };
}

macro_rules! builder_setters {
    () => {
        setters! {
            /// Override `m` (partitions / Joiner instances).
            with_m(m: usize);
            /// Override the window shape (tumbling or pane-chained sliding).
            with_window_spec(window: WindowSpec);
            /// Override the repartitioning threshold `θ`.
            with_theta(theta: f64);
            /// Override the partitioning algorithm.
            with_partitioner(partitioner: PartitionerKind);
            /// Override attribute-value expansion.
            with_expansion(expansion: bool);
            /// Override key routing.
            with_key_routing(key_routing: bool);
            /// Override the PartitionCreator parallelism.
            with_partition_creators(partition_creators: usize);
            /// Override the Assigner parallelism.
            with_assigners(assigners: usize);
            /// Override the transport micro-batch size.
            with_batch_size(batch_size: usize);
            /// Enable or disable full metrics collection.
            with_metrics(metrics: bool);
            /// Override the pool's worker count (0 = auto).
            with_pool_workers(pool_workers: usize);
            /// Enable or disable pinning pool workers to CPU cores.
            with_pin_cores(pin_cores: bool);
            /// Override the process-group size for shared-nothing scale-out.
            with_workers(workers: usize);
        }
    };
}

impl StreamJoinConfig {
    fn into_builder(self) -> ConfigBuilder {
        ConfigBuilder { cfg: self }
    }

    /// Start a builder seeded with this config's values.
    pub fn builder(self) -> ConfigBuilder {
        self.into_builder()
    }

    builder_setters!();

    /// Documents spanned by one full window (all panes).
    pub fn window_docs(&self) -> usize {
        self.window.window_docs()
    }

    /// Documents per pane — the runtime's punctuation granularity.
    pub fn pane_docs(&self) -> usize {
        self.window.pane_docs()
    }

    /// Panes spanned by one window (1 for tumbling).
    pub fn panes_per_window(&self) -> usize {
        self.window.panes_per_window()
    }

    /// True when the window is a multi-pane sliding window.
    pub fn is_sliding(&self) -> bool {
        self.window.is_sliding()
    }

    /// Check the invariants a built config must satisfy. Configs coming out
    /// of [`ConfigBuilder::build`] always pass; this re-check exists for
    /// configs restored from external state (snapshots, deserialization).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1..=MAX_PARTITIONS).contains(&self.m) {
            return Err(ConfigError::PartitionsOutOfRange(self.m));
        }
        self.window.validate()?;
        if self.window.is_sliding() && self.expansion {
            return Err(ConfigError::SlidingWithExpansion);
        }
        if self.partition_creators == 0 || self.assigners == 0 {
            return Err(ConfigError::ZeroParallelism);
        }
        if !(0.0..=10.0).contains(&self.theta) {
            return Err(ConfigError::ThetaOutOfRange(self.theta));
        }
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if self.pool_workers > 1024 {
            return Err(ConfigError::PoolWorkersOutOfRange(self.pool_workers));
        }
        if !(1..=64).contains(&self.workers) {
            return Err(ConfigError::WorkersOutOfRange(self.workers));
        }
        Ok(())
    }
}

impl ConfigBuilder {
    fn into_builder(self) -> ConfigBuilder {
        self
    }

    builder_setters!();

    /// Validate and return the finished config.
    pub fn build(self) -> Result<StreamJoinConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = StreamJoinConfig::default();
        assert_eq!(c.m, 8);
        assert!((c.theta - 0.2).abs() < 1e-12);
        assert_eq!(c.assigners, 6);
        assert!(c.key_routing);
        assert!(!c.metrics);
        c.validate().unwrap();
    }

    #[test]
    fn builder_overrides() {
        let c = StreamJoinConfig::default()
            .with_m(20)
            .with_window_spec(WindowSpec::tumbling(3000))
            .with_theta(0.6)
            .with_partitioner(PartitionerKind::Ds)
            .with_expansion(false)
            .with_partition_creators(3)
            .with_assigners(4)
            .with_metrics(true)
            .build()
            .unwrap();
        assert_eq!(c.m, 20);
        assert_eq!(c.window_docs(), 3000);
        assert!((c.theta - 0.6).abs() < 1e-12);
        assert_eq!(c.partitioner, PartitionerKind::Ds);
        assert!(!c.expansion);
        assert_eq!(c.partition_creators, 3);
        assert_eq!(c.assigners, 4);
        assert!(c.metrics);
    }

    #[test]
    fn invalid_configs_rejected_with_typed_errors() {
        for m in [0, 65] {
            assert_eq!(
                StreamJoinConfig::default().with_m(m).build().unwrap_err(),
                ConfigError::PartitionsOutOfRange(m)
            );
        }
        StreamJoinConfig::default().with_m(64).build().unwrap();
        assert_eq!(
            StreamJoinConfig::default()
                .with_window_spec(WindowSpec::tumbling(0))
                .build()
                .unwrap_err(),
            ConfigError::Window(WindowError::ZeroWindow)
        );
        assert_eq!(
            StreamJoinConfig::default()
                .with_expansion(false)
                .with_window_spec(WindowSpec::sliding(0, 4))
                .build()
                .unwrap_err(),
            ConfigError::Window(WindowError::ZeroPane)
        );
        // Retained pane tables cannot mix expansions, so expansion (on by
        // default) must be rejected with a sliding window.
        assert_eq!(
            StreamJoinConfig::default()
                .with_window_spec(WindowSpec::sliding(100, 4))
                .build()
                .unwrap_err(),
            ConfigError::SlidingWithExpansion
        );
        assert_eq!(
            StreamJoinConfig::default()
                .with_assigners(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroParallelism
        );
        assert_eq!(
            StreamJoinConfig::default()
                .with_batch_size(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroBatchSize
        );
        match StreamJoinConfig::default().with_theta(-1.0).build() {
            Err(ConfigError::ThetaOutOfRange(t)) => assert!((t + 1.0).abs() < 1e-12),
            other => panic!("expected theta error, got {other:?}"),
        }
    }

    #[test]
    fn pool_knobs_validate() {
        let c = StreamJoinConfig::default();
        assert_eq!(c.pool_workers, 0);
        assert!(!c.pin_cores);

        let c = StreamJoinConfig::default()
            .with_pool_workers(8)
            .build()
            .unwrap();
        assert_eq!(c.pool_workers, 8);

        assert_eq!(
            StreamJoinConfig::default()
                .with_pool_workers(4096)
                .build()
                .unwrap_err(),
            ConfigError::PoolWorkersOutOfRange(4096)
        );
        let c = StreamJoinConfig::default()
            .with_pin_cores(true)
            .build()
            .unwrap();
        assert!(c.pin_cores);
    }

    #[test]
    fn window_shape_accessors() {
        let c = StreamJoinConfig::default()
            .with_window_spec(WindowSpec::tumbling(123))
            .build()
            .unwrap();
        assert!(!c.is_sliding());
        assert_eq!(c.pane_docs(), 123);
        assert_eq!(c.panes_per_window(), 1);
        assert_eq!(c.window_docs(), 123);

        let c = StreamJoinConfig::default()
            .with_expansion(false)
            .with_window_spec(WindowSpec::sliding(150, 4))
            .build()
            .unwrap();
        assert!(c.is_sliding());
        assert_eq!(c.pane_docs(), 150);
        assert_eq!(c.panes_per_window(), 4);
        assert_eq!(c.window_docs(), 600);
    }

    #[test]
    fn config_error_converts_to_string() {
        let e = StreamJoinConfig::default().with_m(0).build().unwrap_err();
        let s: String = e.into();
        assert!(s.contains("m 0 out of range (expected 1..=64)"), "{s}");
    }
}
