//! Topology description: components, parallelism, and stream groupings.
//!
//! Mirrors the Storm concepts of §III-B: a topology is a graph of **spouts**
//! (stream sources) and **bolts** (processors), each instantiated as
//! `parallelism` independent *tasks*. Bolts subscribe to the output stream
//! of other components under one of the Storm groupings the Fig. 2
//! topology wires:
//!
//! * **shuffle** — round-robin across the subscriber's tasks;
//! * **all** — replicate to every task;
//! * **direct** — the *producer* names the receiving task;
//! * **global** — everything to task 0.
//!
//! The graph must be acyclic: every edge takes part in punctuation
//! alignment and end-of-stream accounting. A control loop is closed outside
//! the graph, back to a spout, which broadcasts what it is told like a
//! punctuation ([`crate::SpoutEmit::Broadcast`]).

use crate::fault::FaultPlan;
use crate::{Bolt, Spout};
use std::collections::HashMap;
use std::fmt;

/// How a subscription distributes messages over the subscriber's tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// Round-robin (Storm randomizes; round-robin gives the same balance
    /// deterministically).
    Shuffle,
    /// Replicate to all tasks.
    All,
    /// Producer picks the task via `Outbox::emit_direct`.
    Direct,
    /// Everything to task 0.
    Global,
}

/// A subscription of one component to another's output stream.
pub(crate) struct Subscription {
    pub source: String,
    pub grouping: Grouping,
}

/// Factory producing one spout instance per task.
pub type SpoutFactory<M> = Box<dyn Fn(usize) -> Box<dyn Spout<M>> + Send>;
/// Factory producing one bolt instance per task.
pub type BoltFactory<M> = Box<dyn Fn(usize) -> Box<dyn Bolt<M>> + Send>;

pub(crate) enum ComponentKind<M> {
    Spout(SpoutFactory<M>),
    Bolt(BoltFactory<M>),
}

pub(crate) struct Component<M> {
    pub name: String,
    pub parallelism: usize,
    pub kind: ComponentKind<M>,
    pub subscriptions: Vec<Subscription>,
}

/// Errors detected while building or validating a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A component name was used twice.
    DuplicateComponent(String),
    /// A subscription references an unknown component.
    UnknownSource {
        /// The subscribing component.
        component: String,
        /// The missing source name.
        source: String,
    },
    /// The graph contains a cycle.
    ForwardCycle(Vec<String>),
    /// The topology has no spout.
    NoSpout,
    /// Parallelism must be at least 1.
    ZeroParallelism(String),
    /// A component subscribed to itself.
    SelfLoop(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateComponent(c) => write!(f, "duplicate component '{c}'"),
            TopologyError::UnknownSource { component, source } => {
                write!(
                    f,
                    "'{component}' subscribes to unknown component '{source}'"
                )
            }
            TopologyError::ForwardCycle(path) => {
                write!(f, "forward-edge cycle: {}", path.join(" -> "))
            }
            TopologyError::NoSpout => f.write_str("topology has no spout"),
            TopologyError::ZeroParallelism(c) => {
                write!(f, "component '{c}' has parallelism 0")
            }
            TopologyError::SelfLoop(c) => {
                write!(f, "component '{c}' has a forward self-subscription")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Builder for a [`Topology`].
pub struct TopologyBuilder<M> {
    components: Vec<Component<M>>,
    channel_capacity: usize,
    batch_size: usize,
    metrics: bool,
    fault_plan: FaultPlan,
    pool_workers: usize,
    pin_cores: bool,
}

impl<M> Default for TopologyBuilder<M> {
    fn default() -> Self {
        TopologyBuilder {
            components: Vec::new(),
            channel_capacity: 1024,
            batch_size: 1,
            metrics: false,
            fault_plan: FaultPlan::new(),
            pool_workers: 0,
            pin_cores: false,
        }
    }
}

impl<M> TopologyBuilder<M> {
    /// Start an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity of the bounded forward channels (default 1024). Smaller
    /// capacities throttle fast producers closer to the pace of the
    /// slowest consumer.
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = capacity.max(1);
        self
    }

    /// Messages per transport batch on forward edges (default 1 =
    /// unbatched). Producers buffer up to `n` messages per target and ship
    /// them as one envelope, amortizing the per-message channel cost;
    /// buffers always flush before punctuation and EOS, so window contents
    /// are identical to an unbatched run and latency is bounded by window
    /// boundaries.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }

    /// Enable full metrics collection (default off): latency histograms on
    /// the task loop, the window-lifecycle trace ring, and one registry
    /// snapshot per aligned punctuation, all surfaced through
    /// [`RunReport`](crate::RunReport). Core throughput counters are
    /// maintained either way; with collection off the hot path carries no
    /// extra cost.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Attach a deterministic [`FaultPlan`]: injected crashes fire at the
    /// plan's logical stream coordinates when the topology runs. An empty
    /// plan (the default) injects nothing and costs nothing.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Worker threads of the pool that schedules the bolt tasks (DESIGN.md
    /// §4e); 0 (the default) = auto: the machine's available parallelism,
    /// capped at the number of bolt tasks.
    pub fn pool_workers(mut self, workers: usize) -> Self {
        self.pool_workers = workers;
        self
    }

    /// Pin pool worker `i` to core `i % cores` (default off; Linux only,
    /// ignored elsewhere).
    pub fn pin_cores(mut self, on: bool) -> Self {
        self.pin_cores = on;
        self
    }

    /// Add a spout named `name` with `parallelism` tasks.
    pub fn spout(
        mut self,
        name: impl Into<String>,
        parallelism: usize,
        factory: impl Fn(usize) -> Box<dyn Spout<M>> + Send + 'static,
    ) -> Self {
        self.components.push(Component {
            name: name.into(),
            parallelism,
            kind: ComponentKind::Spout(Box::new(factory)),
            subscriptions: Vec::new(),
        });
        self
    }

    /// Add a bolt named `name` with `parallelism` tasks; attach
    /// subscriptions with [`BoltHandle::subscribe`] via the returned handle
    /// pattern: `builder.bolt(..).subscribe(..)`.
    pub fn bolt(
        mut self,
        name: impl Into<String>,
        parallelism: usize,
        factory: impl Fn(usize) -> Box<dyn Bolt<M>> + Send + 'static,
    ) -> BoltHandle<M> {
        self.components.push(Component {
            name: name.into(),
            parallelism,
            kind: ComponentKind::Bolt(Box::new(factory)),
            subscriptions: Vec::new(),
        });
        BoltHandle { builder: self }
    }

    /// Validate and freeze the topology.
    pub fn build(self) -> Result<Topology<M>, TopologyError> {
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut has_spout = false;
        for (i, c) in self.components.iter().enumerate() {
            if index.insert(c.name.clone(), i).is_some() {
                return Err(TopologyError::DuplicateComponent(c.name.clone()));
            }
            if c.parallelism == 0 {
                return Err(TopologyError::ZeroParallelism(c.name.clone()));
            }
            if matches!(c.kind, ComponentKind::Spout(_)) {
                has_spout = true;
            }
        }
        if !has_spout {
            return Err(TopologyError::NoSpout);
        }
        for c in &self.components {
            for s in &c.subscriptions {
                if !index.contains_key(&s.source) {
                    return Err(TopologyError::UnknownSource {
                        component: c.name.clone(),
                        source: s.source.clone(),
                    });
                }
                if s.source == c.name {
                    return Err(TopologyError::SelfLoop(c.name.clone()));
                }
            }
        }
        // Cycle detection over the edges (source → subscriber).
        let n = self.components.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (ci, c) in self.components.iter().enumerate() {
            for s in &c.subscriptions {
                adj[index[&s.source]].push(ci);
            }
        }
        let mut state = vec![0u8; n]; // 0 unseen, 1 in-stack, 2 done
        let mut stack = Vec::new();
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            if let Some(cycle) = dfs_cycle(start, &adj, &mut state, &mut stack) {
                let names = cycle
                    .into_iter()
                    .map(|i| self.components[i].name.clone())
                    .collect();
                return Err(TopologyError::ForwardCycle(names));
            }
        }
        Ok(Topology {
            components: self.components,
            index,
            channel_capacity: self.channel_capacity,
            batch_size: self.batch_size,
            metrics: self.metrics,
            fault_plan: self.fault_plan,
            pool_workers: self.pool_workers,
            pin_cores: self.pin_cores,
        })
    }
}

fn dfs_cycle(
    node: usize,
    adj: &[Vec<usize>],
    state: &mut [u8],
    stack: &mut Vec<usize>,
) -> Option<Vec<usize>> {
    state[node] = 1;
    stack.push(node);
    for &next in &adj[node] {
        match state[next] {
            0 => {
                if let Some(c) = dfs_cycle(next, adj, state, stack) {
                    return Some(c);
                }
            }
            1 => {
                let pos = stack.iter().position(|&x| x == next).unwrap_or(0);
                let mut cycle: Vec<usize> = stack[pos..].to_vec();
                cycle.push(next);
                return Some(cycle);
            }
            _ => {}
        }
    }
    stack.pop();
    state[node] = 2;
    None
}

/// Fluent handle returned by [`TopologyBuilder::bolt`] for attaching the
/// new bolt's subscriptions.
pub struct BoltHandle<M> {
    builder: TopologyBuilder<M>,
}

impl<M> BoltHandle<M> {
    /// Subscribe the bolt to `source`'s stream under `grouping`.
    pub fn subscribe(mut self, source: impl Into<String>, grouping: Grouping) -> Self {
        self.builder
            .components
            .last_mut()
            .expect("bolt just added")
            .subscriptions
            .push(Subscription {
                source: source.into(),
                grouping,
            });
        self
    }

    /// Return to the builder.
    pub fn done(self) -> TopologyBuilder<M> {
        self.builder
    }
}

/// A validated topology, ready to run.
pub struct Topology<M> {
    pub(crate) components: Vec<Component<M>>,
    pub(crate) index: HashMap<String, usize>,
    pub(crate) channel_capacity: usize,
    pub(crate) batch_size: usize,
    pub(crate) metrics: bool,
    pub(crate) fault_plan: FaultPlan,
    pub(crate) pool_workers: usize,
    pub(crate) pin_cores: bool,
}

impl<M> Topology<M> {
    /// Component names in declaration order.
    pub fn component_names(&self) -> Vec<&str> {
        self.components.iter().map(|c| c.name.as_str()).collect()
    }

    /// Parallelism of a component, if it exists.
    pub fn parallelism(&self, name: &str) -> Option<usize> {
        self.index
            .get(name)
            .map(|&i| self.components[i].parallelism)
    }

    /// Render the topology as Graphviz DOT: spouts as double circles, bolts
    /// as boxes, one edge per subscription labelled with its grouping.
    /// Paste into `dot -Tsvg` to visualize.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph topology {\n  rankdir=LR;\n");
        for c in &self.components {
            let shape = match c.kind {
                ComponentKind::Spout(_) => "doublecircle",
                ComponentKind::Bolt(_) => "box",
            };
            let _ = writeln!(
                out,
                "  \"{}\" [shape={shape}, label=\"{} (x{})\"];",
                c.name, c.name, c.parallelism
            );
        }
        for c in &self.components {
            for s in &c.subscriptions {
                let _ = writeln!(
                    out,
                    "  \"{}\" -> \"{}\" [label=\"{:?}\"];",
                    s.source, c.name, s.grouping
                );
            }
        }
        out.push_str("}\n");
        out
    }
}
