//! The executor: crossbeam channels for tuple transport, punctuation
//! alignment, and end-of-stream termination, scheduled one way (DESIGN.md
//! §4e): every bolt task is a cooperative [`CoopBolt`] state machine run by
//! a fixed pool of work-stealing workers (`crate::sched`), and every spout
//! task keeps a dedicated thread — its bounded forward sends are the
//! topology's ingress backpressure and may block. Every successful send
//! notifies the receiving task through the scheduler hub (an edge-triggered
//! ready queue in place of blocking receives). Forward channels whose
//! producers include a bolt are unbounded, so a cooperative task never
//! blocks its worker on a send; spout-fed channels stay bounded.
//!
//! Semantics:
//! * Delivery is reliable and in order per (sender task, receiver task) —
//!   in-process channels give us the exactly-once processing Storm is
//!   configured to guarantee in the paper.
//! * A **punctuation** emitted by the spouts (window boundary) is aligned:
//!   a bolt task sees `on_punct(p)` only after receiving punctuation `p`
//!   from *every* forward upstream task, then forwards it downstream —
//!   windows therefore tumble consistently across the whole topology.
//! * **End of stream**: when every spout finishes, EOS tokens flow along
//!   the edges; a bolt task finishes after EOS from all upstream tasks.
//! * A spout's **broadcast** ([`SpoutEmit::Broadcast`]) reaches every
//!   downstream task the way a punctuation does — pending buffers flushed
//!   first, the shuffle cursor untouched — so it lands at the start of the
//!   window the spout is about to open, on every task.
//! * A panicking task is reported in [`RunError::TaskPanicked`] and aborts
//!   the run: the remaining tasks stop at their next step, so no window
//!   closes without the dead task's share.
//!
//! Transport batching: tuples crossing a forward edge are accumulated in
//! per-target output buffers and shipped as one [`Envelope::Batch`] once
//! `batch_size` messages are pending for that target, amortizing the
//! per-message channel cost (lock, wakeup, envelope) over the batch.
//! Buffers are flushed *before* every punctuation and EOS token, so window
//! contents are exactly those of an unbatched run and latency is bounded by
//! window boundaries; [`Outbox::flush`] forces delivery mid-window.

use crate::fault::{self, FaultPanic, TaskFaults};
use crate::metrics::{
    self, LocalHistogram, MetricsConfig, MetricsRegistry, TaskInstruments, TaskSnapshot,
    TraceEvent, TraceKind, WindowSnapshot,
};
use crate::sched::{self, Hub, StepOutcome, TaskStep};
use crate::topology::{Component, ComponentKind, Grouping, Subscription, Topology};
use crate::transport::{self, Group, ReaderPlan, WireItem};
use crate::wire::WireCodec;
use crate::{Bolt, Spout, SpoutEmit, TaskInfo};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Internal envelope moving between tasks. `pub(crate)` so the transport
/// layer can carry it across process boundaries (`crate::wire` frames are
/// its public mirror).
pub(crate) enum Envelope<M> {
    /// One data message from global task `from` (the unbatched path:
    /// `batch_size == 1`, broadcasts, and single-message flushes).
    Data(M, usize),
    /// A batch of data messages from global task `from`; never empty.
    Batch(Vec<M>, usize),
    /// Punctuation `id` from global task `from`.
    Punct(u64, usize),
    /// End of stream from global task `from`.
    Eos(usize),
}

impl<M> Envelope<M> {
    fn source_task(&self) -> usize {
        match self {
            Envelope::Data(_, f)
            | Envelope::Batch(_, f)
            | Envelope::Punct(_, f)
            | Envelope::Eos(f) => *f,
        }
    }

    /// Number of data tuples carried (0 for control tokens).
    fn data_len(&self) -> u64 {
        match self {
            Envelope::Data(..) => 1,
            Envelope::Batch(msgs, _) => msgs.len() as u64,
            _ => 0,
        }
    }
}

/// The outcome of a completed run: final per-task instrument snapshots, the
/// per-punctuation time series collected while the run was live (empty
/// unless [`TopologyBuilder::metrics`](crate::TopologyBuilder::metrics) was
/// enabled), and the retained window-lifecycle trace.
#[derive(Debug)]
pub struct RunReport {
    /// Final snapshot of every task's instruments, in global task order.
    pub tasks: Vec<TaskSnapshot>,
    /// One whole-registry snapshot per fully-aligned punctuation, ascending
    /// by window id. Counters are cumulative, so the series is monotone.
    pub windows: Vec<WindowSnapshot>,
    /// Retained window-lifecycle trace events, oldest first.
    pub trace: Vec<TraceEvent>,
    /// Peak resident-set size of this process in bytes, sampled when the
    /// run finished (`VmHWM`; 0 on platforms without `/proc`). A run that
    /// spills should show this staying near the configured budget while
    /// `spill_bytes` grows.
    pub peak_rss: u64,
    /// Attempts a driver that re-runs failed topologies made: 1 unless an
    /// attempt failed (see `ssj_core::run_topology_with`). The report's
    /// other fields are the last attempt's.
    pub attempts: u32,
    /// The last attempt's resume, when there was one: the first window the
    /// sink had not been given, and the punctuation the attempt's reader
    /// started at (as a window of the whole run).
    pub resumed: Option<(u64, u64)>,
}

/// Peak resident-set size (`VmHWM`) of the current process in bytes; 0 when
/// the platform has no `/proc/self/status`.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

impl RunReport {
    /// Sum of one core counter over one component's tasks.
    fn sum(&self, component: &str, counter: &str) -> u64 {
        self.tasks
            .iter()
            .filter(|t| t.component == component)
            .map(|t| t.counter(counter))
            .sum()
    }

    /// Sum of received counts for one component.
    pub fn received(&self, component: &str) -> u64 {
        self.sum(component, "received")
    }

    /// Sum of emitted counts for one component.
    pub fn emitted(&self, component: &str) -> u64 {
        self.sum(component, "emitted")
    }

    /// Sum of sent data-envelope counts for one component.
    pub fn batches(&self, component: &str) -> u64 {
        self.sum(component, "batches")
    }

    /// Average batch size over one component's emissions (0 when idle).
    pub fn avg_batch_size(&self, component: &str) -> f64 {
        let b = self.batches(component);
        if b == 0 {
            0.0
        } else {
            self.emitted(component) as f64 / b as f64
        }
    }

    /// Per-task received counts for one component, ordered by task index.
    pub fn received_per_task(&self, component: &str) -> Vec<u64> {
        let mut v: Vec<(usize, u64)> = self
            .tasks
            .iter()
            .filter(|t| t.component == component)
            .map(|t| (t.task, t.counter("received")))
            .collect();
        v.sort();
        v.into_iter().map(|(_, r)| r).collect()
    }

    /// Sum of one (named or core) counter across every task.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.tasks.iter().map(|t| t.counter(name)).sum()
    }

    /// Sum of one counter over one component's tasks.
    pub fn component_counter(&self, component: &str, name: &str) -> u64 {
        self.sum(component, name)
    }

    /// Write the report as JSON lines: one record per `(window, task)`, one
    /// final record per task, one run-level memory record, then one record
    /// per retained trace event.
    pub fn write_jsonl<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        metrics::write_jsonl(out, &self.windows, &self.tasks, &self.trace)?;
        writeln!(
            out,
            "{{\"run\":{{\"peak_rss_bytes\":{},\"spill_bytes\":{},\"spill_segments\":{},\"compactions\":{}}}}}",
            self.peak_rss,
            self.counter_total("spill_bytes"),
            self.counter_total("spill_segments"),
            self.counter_total("compactions"),
        )
    }

    /// Render the per-component human summary table, with a run-level
    /// memory footer (peak RSS and, when the out-of-core tier engaged,
    /// total spilled bytes and read-back traffic).
    pub fn summary_table(&self) -> String {
        let mut out = metrics::summary_table(&self.tasks);
        out.push_str(&format!(
            "peak rss {:.1} MiB",
            self.peak_rss as f64 / (1024.0 * 1024.0)
        ));
        let spilled = self.counter_total("spill_bytes");
        if spilled > 0 {
            out.push_str(&format!(
                " | spilled {:.1} MiB in {} segments, {} block reads, {} compactions",
                spilled as f64 / (1024.0 * 1024.0),
                self.counter_total("spill_segments"),
                self.counter_total("segment_reads"),
                self.counter_total("compactions"),
            ));
        }
        out.push('\n');
        out
    }
}

/// Errors surfaced by [`run`] / [`run_distributed`].
#[derive(Debug)]
pub enum RunError {
    /// One or more tasks panicked; the payload lists `component[task]`.
    TaskPanicked(Vec<String>),
    /// The transport layer failed: handshake rejection, a peer process
    /// dying mid-run, or a corrupt/mismatched frame. The survivors stop
    /// (no window closes without the dead peer's share) and the run
    /// reports this for its driver to resume.
    Transport(Vec<String>),
    /// The run could not be set up (a spill directory that cannot be
    /// created, a group that cannot be relaunched): nothing more ran.
    Setup(String),
    /// The input failed mid-stream (a bad line, a read error): the windows
    /// before it were delivered, none after. Not resumed.
    Input(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::TaskPanicked(tasks) => {
                write!(f, "tasks panicked: {}", tasks.join(", "))
            }
            RunError::Transport(errs) => {
                write!(f, "transport failed: {}", errs.join("; "))
            }
            RunError::Setup(e) | RunError::Input(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for RunError {}

/// One end of an edge as seen by a producer: either the in-process channel
/// of a task on this worker, or the writer queue of the socket link to the
/// peer process hosting it. Producers route by global task id either way —
/// placement changes which arm an edge takes, never the topology.
pub(crate) enum EdgeTx<M> {
    /// Same process: a crossbeam channel sender.
    Local(Sender<Envelope<M>>),
    /// Peer process: enqueue on the link's writer thread.
    Remote {
        tx: Sender<WireItem<M>>,
        /// Receiving global task id (carried in the frame header).
        target: usize,
    },
}

/// Deliver one envelope and, on success, mark the receiving task ready on
/// the scheduler hub — the single choke point every envelope delivery
/// funnels through. A local send blocks only on a full spout-fed channel
/// (ingress backpressure); `false` means the receiver is gone.
fn send_env<M>(tx: &EdgeTx<M>, env: Envelope<M>, hub: &Hub, target_global: usize) -> bool {
    match tx {
        EdgeTx::Local(tx) => {
            let ok = tx.send(env).is_ok();
            if ok {
                hub.notify(target_global);
            }
            ok
        }
        // The writer queue is unbounded and drained unconditionally (even
        // on a dead link), so remote sends never block a worker and never
        // fail while the run is live — emitted counts stay deterministic
        // regardless of peer health. Backpressure is applied at the
        // *receiving* side, where the reader's blocking forward into a
        // bounded local channel stalls the socket. Notification happens on
        // the receiving worker's hub.
        EdgeTx::Remote { tx, target } => tx
            .send(WireItem::Env {
                target: *target,
                env,
            })
            .is_ok(),
    }
}

/// One outgoing subscription as seen by a producer task.
struct OutEdge<M> {
    grouping: Grouping,
    /// Sender to each task of the subscribing component (local channel or
    /// socket writer queue, per placement).
    targets: Vec<EdgeTx<M>>,
    /// Global task id behind each sender (the hub notifies it on delivery).
    target_globals: Vec<usize>,
    /// Pending messages per target; flushed at `batch_size`, punctuation,
    /// EOS, and [`Outbox::flush`]. Unused (left unallocated) on the
    /// unbatched paths.
    bufs: Vec<Vec<M>>,
    /// Next shuffle target; always `< targets.len()` so target selection
    /// needs no modulo on the send path.
    cursor: usize,
}

impl<M> OutEdge<M> {
    /// Queue `msg` for `target`, shipping the buffer once it holds
    /// `batch_size` messages. Unbatched edges (`batch_size == 1`) send
    /// immediately without touching the buffers.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        target: usize,
        msg: M,
        from: usize,
        batch_size: usize,
        emitted: &mut u64,
        batches: &mut u64,
        hub: &Hub,
    ) {
        if batch_size <= 1 {
            if send_env(
                &self.targets[target],
                Envelope::Data(msg, from),
                hub,
                self.target_globals[target],
            ) {
                *emitted += 1;
                *batches += 1;
            }
            return;
        }
        let buf = &mut self.bufs[target];
        if buf.capacity() == 0 {
            buf.reserve_exact(batch_size);
        }
        buf.push(msg);
        if buf.len() >= batch_size {
            Self::flush_target(
                &self.targets,
                &mut self.bufs,
                &self.target_globals,
                target,
                batch_size,
                from,
                emitted,
                batches,
                hub,
            );
        }
    }

    /// Ship whatever is pending for `target` (no-op on an empty buffer).
    #[allow(clippy::too_many_arguments)]
    fn flush_target(
        targets: &[EdgeTx<M>],
        bufs: &mut [Vec<M>],
        globals: &[usize],
        target: usize,
        batch_size: usize,
        from: usize,
        emitted: &mut u64,
        batches: &mut u64,
        hub: &Hub,
    ) {
        let buf = &mut bufs[target];
        match buf.len() {
            0 => {}
            1 => {
                let msg = buf.pop().expect("length checked");
                if send_env(
                    &targets[target],
                    Envelope::Data(msg, from),
                    hub,
                    globals[target],
                ) {
                    *emitted += 1;
                    *batches += 1;
                }
            }
            n => {
                let full = std::mem::replace(buf, Vec::with_capacity(batch_size));
                if send_env(
                    &targets[target],
                    Envelope::Batch(full, from),
                    hub,
                    globals[target],
                ) {
                    *emitted += n as u64;
                    *batches += 1;
                }
            }
        }
    }

    /// Ship every pending buffer of this edge.
    fn flush_all(
        &mut self,
        from: usize,
        batch_size: usize,
        emitted: &mut u64,
        batches: &mut u64,
        hub: &Hub,
    ) {
        if self.bufs.iter().all(Vec::is_empty) {
            return;
        }
        for t in 0..self.targets.len() {
            Self::flush_target(
                &self.targets,
                &mut self.bufs,
                &self.target_globals,
                t,
                batch_size,
                from,
                emitted,
                batches,
                hub,
            );
        }
    }
}

/// The producer-side API handed to spouts and bolts.
pub struct Outbox<M> {
    my_global: usize,
    edges: Vec<OutEdge<M>>,
    /// Messages per transport batch on forward edges (1 = unbatched).
    batch_size: usize,
    emitted: u64,
    batches: u64,
    /// The scheduler hub: every successful send marks the receiving task
    /// ready through it.
    sched: Arc<Hub>,
}

impl<M: Clone> Outbox<M> {
    /// Emit `msg` to every non-direct subscription, routed per grouping.
    /// The last subscription takes `msg` itself, every delivery before it a
    /// clone — so a message with one subscriber (a joiner's window result,
    /// megabytes of pairs) is moved, never copied. Delivery may be deferred
    /// until the target's buffer fills, the next punctuation/EOS, or
    /// [`Outbox::flush`].
    pub fn emit(&mut self, msg: M) {
        let Outbox {
            my_global,
            edges,
            batch_size,
            emitted,
            batches,
            sched,
        } = self;
        let (from, bs) = (*my_global, *batch_size);
        let sched: &Hub = sched;
        let last = edges.iter().rposition(|e| e.grouping != Grouping::Direct);
        let mut msg = Some(msg);
        for (i, edge) in edges.iter_mut().enumerate() {
            // Taken by the last non-direct edge: only direct ones remain.
            let Some(m) = msg.as_ref() else { break };
            let n = edge.targets.len();
            let target = match edge.grouping {
                Grouping::Direct => continue,
                // Whole batches round-robin across the subscriber's tasks:
                // the cursor advances when the current target's batch ships.
                Grouping::Shuffle => edge.cursor,
                Grouping::Global => 0,
                Grouping::All => {
                    for t in 0..n {
                        edge.push(t, m.clone(), from, bs, emitted, batches, sched);
                    }
                    continue;
                }
            };
            let owned = if Some(i) == last {
                msg.take().expect("checked at the top of the loop")
            } else {
                m.clone()
            };
            edge.push(target, owned, from, bs, emitted, batches, sched);
            if edge.grouping == Grouping::Shuffle && (bs <= 1 || edge.bufs[target].is_empty()) {
                edge.cursor = if target + 1 == n { 0 } else { target + 1 };
            }
        }
    }

    /// Emit `msg` to task `task` of every direct-grouped subscription.
    pub fn emit_direct(&mut self, task: usize, msg: M) {
        for edge in self.edges.iter_mut() {
            if edge.grouping == Grouping::Direct && task < edge.targets.len() {
                edge.push(
                    task,
                    msg.clone(),
                    self.my_global,
                    self.batch_size,
                    &mut self.emitted,
                    &mut self.batches,
                    &self.sched,
                );
            }
        }
    }

    /// Ship every pending output buffer immediately. Emission already
    /// flushes at `batch_size`, punctuation, and EOS; call this to bound
    /// latency mid-window (e.g. before blocking on external work).
    pub fn flush(&mut self) {
        for edge in self.edges.iter_mut() {
            edge.flush_all(
                self.my_global,
                self.batch_size,
                &mut self.emitted,
                &mut self.batches,
                &self.sched,
            );
        }
    }

    /// Data buffered ahead of a token belongs before it: flush, then send
    /// `env(from)` to every task of every subscription, so per-channel FIFO
    /// keeps windows exactly as an unbatched run would see them. Returns
    /// how many were delivered.
    fn send_every_task(&mut self, env: impl Fn(usize) -> Envelope<M>) -> u64 {
        self.flush();
        let mut sent = 0;
        for edge in &self.edges {
            for (t, &g) in edge.targets.iter().zip(&edge.target_globals) {
                sent += send_env(t, env(self.my_global), &self.sched, g) as u64;
            }
        }
        sent
    }

    /// A spout's broadcast: `msg` to every task, like a punctuation; the
    /// shuffle cursors do not move.
    fn broadcast(&mut self, msg: M) {
        let sent = self.send_every_task(|from| Envelope::Data(msg.clone(), from));
        self.emitted += sent;
        self.batches += sent;
    }

    fn punctuate(&mut self, p: u64) {
        self.send_every_task(|from| Envelope::Punct(p, from));
    }

    fn eos(&mut self) {
        self.send_every_task(Envelope::Eos);
    }
}

// Dropping an outbox is how an in-process task signals "no more traffic
// from me" — its channel sender clones disconnect. Remote edges need the
// same signal explicitly: one `Close` frame per remote (target, edge),
// which the peer's reader counts down before dropping its local sender
// clone for that channel. Runs on normal completion and on unwind alike,
// mirroring channel drops — except in an aborted run: without its `Close`
// frames the peer sees the link end with closes outstanding, as if this
// process had died, and its run fails too instead of finishing without
// this process's share.
impl<M> Drop for Outbox<M> {
    fn drop(&mut self) {
        if self.sched.aborted() {
            return;
        }
        for edge in &self.edges {
            for t in &edge.targets {
                if let EdgeTx::Remote { tx, target } = t {
                    let _ = tx.send(WireItem::Close {
                        target: *target,
                        from: self.my_global,
                    });
                }
            }
        }
    }
}

struct TaskWiring<M> {
    info: TaskInfo,
    rx: Receiver<Envelope<M>>,
    outbox: Outbox<M>,
    /// Global ids of upstream tasks (gate punct/EOS).
    upstreams: Vec<usize>,
    kind: TaskKind<M>,
    /// This task's instrument set in the run's metrics registry.
    inst: Arc<TaskInstruments>,
    /// Window-close notifications to the collector thread (present only
    /// when full metrics collection is on).
    notify: Option<Sender<u64>>,
    /// Faults from the run's plan aimed at this task.
    faults: TaskFaults,
}

/// The executor's task-local metering state: plain (non-atomic) counters and
/// histograms on the hot path, published into the shared [`TaskInstruments`]
/// only at window boundaries and at end of stream.
struct TaskMeter {
    /// Data messages received.
    received: u64,
    /// Punctuations processed.
    puncts: u64,
    /// Time spent inside user code (`execute` / `on_punct` / spout `next`),
    /// excluding channel waits.
    busy: Duration,
    handle_hist: LocalHistogram,
    close_hist: LocalHistogram,
    inst: Arc<TaskInstruments>,
    /// Full collection (histograms, traces, per-window snapshots) on?
    enabled: bool,
    /// Windows closed during the current receive step, pending publication
    /// and collector notification (always empty when collection is off).
    closed: Vec<u64>,
}

impl TaskMeter {
    fn new(inst: Arc<TaskInstruments>) -> Self {
        TaskMeter {
            received: 0,
            puncts: 0,
            busy: Duration::ZERO,
            handle_hist: LocalHistogram::new(),
            close_hist: LocalHistogram::new(),
            enabled: inst.enabled(),
            inst,
            closed: Vec::new(),
        }
    }

    /// Record a processed window boundary (close-to-emit span `dur`).
    fn window_closed(&mut self, p: u64, dur: Duration) {
        if !self.enabled {
            return;
        }
        self.close_hist.record_ns(dur.as_nanos() as u64);
        self.inst.trace(TraceKind::WindowClose, p, dur);
        self.closed.push(p);
    }

    /// Publish all task-local state into the shared instrument set.
    fn publish(&self, emitted: u64, batches: u64) {
        self.inst.publish_core(
            self.received,
            emitted,
            batches,
            self.puncts,
            self.busy.as_nanos() as u64,
        );
        if self.enabled {
            self.inst
                .publish_histograms(&self.handle_hist, &self.close_hist);
        }
    }

    /// Window-boundary bookkeeping after a receive step that closed one or
    /// more windows: sample queue depth, publish locals, notify collector.
    #[cold]
    fn flush_windows(
        &mut self,
        emitted: u64,
        batches: u64,
        queue_depth: usize,
        notify: &Option<Sender<u64>>,
    ) {
        self.inst.queue_depth_gauge().set(queue_depth as i64);
        self.publish(emitted, batches);
        for w in self.closed.drain(..) {
            if let Some(tx) = notify {
                let _ = tx.send(w);
            }
        }
    }
}

enum TaskKind<M> {
    Spout(Box<dyn Spout<M>>),
    Bolt(Box<dyn Bolt<M>>),
}

/// Nudges a spout's pooled downstream when its thread exits (normally or by
/// panic) so they observe its dropped senders — pooled tasks never block in
/// `recv`, so a disconnect is only visible on a wakeup. A panic aborts the
/// run, as a bolt's does.
struct RetireGuard {
    hub: Arc<Hub>,
    global: usize,
}

impl Drop for RetireGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.hub.abort();
        }
        self.hub.retire_external(self.global);
    }
}

/// Run a topology to completion and report per-task metrics.
pub fn run<M: Clone + Send + 'static>(topology: Topology<M>) -> Result<RunReport, RunError> {
    run_inner(topology, None)
}

/// This process's slice of a distributed run: the codec each link direction
/// gets a copy of, the joined process group, and the hosting worker per
/// global task id.
struct DistCtx<M> {
    codec: Box<dyn WireCodec<M>>,
    group: Group,
    placement: Vec<usize>,
}

/// Run this worker's shard of `topology` across a joined process group.
///
/// `placement` maps `(component name, task index)` to a hosting worker id
/// and must be the same pure function on every worker: each process derives
/// the identical full placement, wires edges to co-located tasks as
/// in-process channels and edges to remote tasks as socket links, and runs
/// only the tasks placed on it. Global task numbering is unchanged by
/// placement, per-(sender, receiver) FIFO holds across each link, and batch
/// boundaries survive the wire — so punctuation alignment, EOS termination,
/// and per-window contents are exactly those of the single-process run.
///
/// A peer process dying mid-run stops this process's tasks, and the run
/// returns [`RunError::Transport`] for its driver to resume.
pub fn run_distributed<M: Clone + Send + 'static>(
    topology: Topology<M>,
    codec: Box<dyn WireCodec<M>>,
    group: Group,
    placement: &dyn Fn(&str, usize) -> usize,
) -> Result<RunReport, RunError> {
    let workers = group.workers();
    let mut place: Vec<usize> = Vec::new();
    for c in &topology.components {
        for task in 0..c.parallelism {
            let w = placement(&c.name, task);
            assert!(
                w < workers,
                "placement put {}[{task}] on worker {w} of a {workers}-worker group",
                c.name
            );
            place.push(w);
        }
    }
    run_inner(
        topology,
        Some(DistCtx {
            codec,
            group,
            placement: place,
        }),
    )
}

fn run_inner<M: Clone + Send + 'static>(
    topology: Topology<M>,
    dist: Option<DistCtx<M>>,
) -> Result<RunReport, RunError> {
    let mut dist = dist;
    let Topology {
        components,
        index,
        channel_capacity,
        batch_size,
        metrics: metrics_on,
        fault_plan,
        pool_workers,
        pin_cores,
    } = topology;
    let mut registry = MetricsRegistry::new(MetricsConfig {
        enabled: metrics_on,
        ..MetricsConfig::default()
    });

    // Global task numbering: components in order, tasks within.
    let mut base: Vec<usize> = Vec::with_capacity(components.len());
    let mut total = 0usize;
    for c in &components {
        base.push(total);
        total += c.parallelism;
    }

    // Placement: which worker hosts each global task (everything on worker
    // 0 in a single-process run). Only local tasks are instantiated here;
    // remote ones exist as frame targets behind the peer links.
    let my_worker = dist.as_ref().map_or(0, |d| d.group.my_worker());
    let group_workers = dist.as_ref().map_or(1, |d| d.group.workers());
    let placement: Vec<usize> = match &dist {
        Some(d) => d.placement.clone(),
        None => vec![0; total],
    };
    debug_assert_eq!(placement.len(), total);
    let local: Vec<bool> = placement.iter().map(|&w| w == my_worker).collect();
    let n_local = local.iter().filter(|&&l| l).count();

    // Who runs where (DESIGN.md §4e): every local bolt task is scheduled on
    // the pool; spouts get a dedicated thread each, because their bounded
    // forward sends are the topology's ingress backpressure and may block.
    // Remote tasks run in their own process — here they are neither, and
    // notifying them is a no-op. A process that hosts no bolt (a spout-only
    // topology, a group member whose placement gives it none) resolves to
    // zero workers and an already-shut-down hub.
    let is_spout: Vec<bool> = components
        .iter()
        .map(|c| matches!(c.kind, ComponentKind::Spout(_)))
        .collect();
    let mut pooled: Vec<bool> = Vec::with_capacity(total);
    for (ci, c) in components.iter().enumerate() {
        for task in 0..c.parallelism {
            pooled.push(!is_spout[ci] && local[base[ci] + task]);
        }
    }
    let n_pooled = pooled.iter().filter(|&&p| p).count();
    let n_workers = sched::resolve_workers(pool_workers, n_pooled);

    // One channel per task. The graph is a DAG, so bounded sends give
    // deadlock-free backpressure — a flooding spout is throttled by its
    // slowest consumer; with batching, in-flight data is bounded by
    // `capacity × batch_size` per channel.
    //
    // A bolt's send must never block its pool worker (a blocked worker
    // would strand every task queued behind it), so any channel fed by a
    // bolt is unbounded; only purely spout-fed channels keep the bounded
    // ingress backpressure. In-flight data stays proportional to
    // window contents because bolts only emit in response to input the
    // spout boundary already throttles.
    let mut bolt_fed: Vec<bool> = vec![false; components.len()];
    for (ci, c) in components.iter().enumerate() {
        for s in &c.subscriptions {
            if !is_spout[index[&s.source]] {
                bolt_fed[ci] = true;
            }
        }
    }
    let cap = channel_capacity;
    let mut senders: Vec<Sender<Envelope<M>>> = Vec::with_capacity(total);
    let mut receivers: Vec<Option<Receiver<Envelope<M>>>> = Vec::with_capacity(total);
    for (ci, c) in components.iter().enumerate() {
        for _ in 0..c.parallelism {
            let (tx, rx) = if bolt_fed[ci] {
                unbounded()
            } else {
                bounded(cap)
            };
            senders.push(tx);
            receivers.push(Some(rx));
        }
    }

    // One writer queue per peer worker: every local producer's edges to
    // tasks hosted there funnel through one link-owned writer thread.
    // Unbounded so cooperative sends never block (see `EdgeTx::Remote`).
    let mut writer_txs: Vec<Option<Sender<WireItem<M>>>> =
        (0..group_workers).map(|_| None).collect();
    let mut writer_rxs: Vec<Option<Receiver<WireItem<M>>>> =
        (0..group_workers).map(|_| None).collect();
    if dist.is_some() {
        for w in 0..group_workers {
            if w != my_worker {
                let (tx, rx) = unbounded();
                writer_txs[w] = Some(tx);
                writer_rxs[w] = Some(rx);
            }
        }
    }

    // Outgoing edges per component: (grouping, subscriber component index),
    // and upstream task lists per component.
    let mut out_edges: Vec<Vec<(Grouping, usize)>> = vec![Vec::new(); components.len()];
    let mut upstreams: Vec<Vec<usize>> = vec![Vec::new(); components.len()];
    for (ci, c) in components.iter().enumerate() {
        for Subscription { source, grouping } in &c.subscriptions {
            let si = index[source];
            out_edges[si].push((*grouping, ci));
            upstreams[ci].extend((0..components[si].parallelism).map(|t| base[si] + t));
        }
    }

    // Build task wirings.
    let par: Vec<usize> = components.iter().map(|c| c.parallelism).collect();

    // The pool's shared hub: task state machines, the injector, and the
    // parking protocol. Every outbox (the spouts' included) carries it so
    // each successful send notifies its pool-scheduled target;
    // notifications to spouts and remote tasks are no-ops.
    let mut downstream: Vec<Vec<usize>> = Vec::with_capacity(total);
    let mut labels: Vec<String> = Vec::with_capacity(total);
    for (ci, c) in components.iter().enumerate() {
        let targets: Vec<usize> = out_edges[ci]
            .iter()
            .flat_map(|(_, target_ci)| (0..par[*target_ci]).map(|t| base[*target_ci] + t))
            .collect();
        for task in 0..c.parallelism {
            downstream.push(targets.clone());
            labels.push(format!("{}[{}]", c.name, task));
        }
    }
    let hub = Arc::new(Hub::new(pooled, downstream, labels, n_workers));

    let mut wirings: Vec<TaskWiring<M>> = Vec::with_capacity(total);
    for (ci, c) in components.into_iter().enumerate() {
        let Component {
            name,
            parallelism,
            kind,
            subscriptions: _,
        } = c;
        for task in 0..parallelism {
            let global = base[ci] + task;
            if !local[global] {
                continue; // hosted by a peer process
            }
            let edges: Vec<OutEdge<M>> = out_edges[ci]
                .iter()
                .map(|(grouping, target_ci)| {
                    let n = par[*target_ci];
                    // The builder rejects zero parallelism, so every edge
                    // has at least one target; the shuffle cursor relies on
                    // this to advance without re-checking.
                    debug_assert!(n > 0, "edge to component {target_ci} has no target tasks");
                    OutEdge {
                        grouping: *grouping,
                        targets: (0..n)
                            .map(|t| {
                                let g = base[*target_ci] + t;
                                if local[g] {
                                    EdgeTx::Local(senders[g].clone())
                                } else {
                                    EdgeTx::Remote {
                                        tx: writer_txs[placement[g]]
                                            .as_ref()
                                            .expect("writer queue for peer worker")
                                            .clone(),
                                        target: g,
                                    }
                                }
                            })
                            .collect(),
                        target_globals: (0..n).map(|t| base[*target_ci] + t).collect(),
                        bufs: (0..n).map(|_| Vec::new()).collect(),
                        // Stagger shuffle cursors per producer so k producers
                        // doing round-robin do not all hit the same target.
                        cursor: global % n,
                    }
                })
                .collect();
            let outbox = Outbox {
                my_global: global,
                edges,
                batch_size,
                emitted: 0,
                batches: 0,
                sched: Arc::clone(&hub),
            };
            let instance = match &kind {
                ComponentKind::Spout(f) => TaskKind::Spout(f(task)),
                ComponentKind::Bolt(f) => TaskKind::Bolt(f(task)),
            };
            wirings.push(TaskWiring {
                info: TaskInfo {
                    component: name.clone(),
                    task_index: task,
                    parallelism,
                },
                rx: receivers[global].take().expect("receiver unclaimed"),
                outbox,
                upstreams: upstreams[ci].clone(),
                kind: instance,
                inst: registry.register(&name, task),
                notify: None, // filled in below once the collector exists
                faults: fault_plan.for_task(&name, task),
            });
        }
    }
    // Per-peer reader dispatch plans, built while the executor still holds
    // sender clones. The expected-close counts mirror exactly the `Close`
    // frames the peer's outboxes will send — one per (producer task hosted
    // there, edge, local target) — because both sides derive them from the
    // same topology and placement.
    let transport_errors: Arc<std::sync::Mutex<Vec<String>>> =
        Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut reader_plans: Vec<Option<ReaderPlan<M>>> = (0..group_workers).map(|_| None).collect();
    if dist.is_some() {
        for (w, plan_slot) in reader_plans.iter_mut().enumerate() {
            if w == my_worker {
                continue;
            }
            let mut closes = vec![0usize; total];
            for (ci, edges) in out_edges.iter().enumerate() {
                for (_, target_ci) in edges {
                    for task in 0..par[ci] {
                        let pg = base[ci] + task;
                        if placement[pg] != w {
                            continue;
                        }
                        for t in 0..par[*target_ci] {
                            let tg = base[*target_ci] + t;
                            if !local[tg] {
                                continue;
                            }
                            closes[tg] += 1;
                        }
                    }
                }
            }
            let senders = (0..total)
                .map(|g| (closes[g] > 0).then(|| senders[g].clone()))
                .collect();
            *plan_slot = Some(ReaderPlan { senders, closes });
        }
    }
    drop(senders); // tasks own the only senders now (inside outboxes)
    drop(receivers);

    // Pool workers own a `scheduler_*` instrument family (steals, parks,
    // wakeups, injector-depth gauge), one set per worker under the
    // `scheduler` component, registered before the registry freezes.
    let sched_insts: Vec<Arc<TaskInstruments>> = (0..n_workers)
        .map(|w| registry.register("scheduler", w))
        .collect();

    // Each peer link owns a `transport` instrument family (bytes / frames /
    // codec time in both directions), one set per peer worker, registered
    // before the registry freezes and serialized by `--metrics-out` like
    // any task. Links never report window closes, so (like `scheduler`)
    // they sit outside the collector quorum.
    let transport_insts: Vec<Option<Arc<TaskInstruments>>> = (0..group_workers)
        .map(|w| (dist.is_some() && w != my_worker).then(|| registry.register("transport", w)))
        .collect();

    // With full collection on, a collector thread turns per-task
    // window-close notifications into per-punctuation registry snapshots:
    // once every task reported window `w`, all locals covering `w` have
    // been published and a whole-registry snapshot is consistent.
    let registry = Arc::new(registry);
    let collector = if metrics_on {
        let (tx, rx) = unbounded::<u64>();
        for w in &mut wirings {
            w.notify = Some(tx.clone());
        }
        drop(tx); // tasks hold the only senders; disconnect ends the thread
        let reg = Arc::clone(&registry);
        Some(
            std::thread::Builder::new()
                .name(sched::thread_name("collector", 0))
                .spawn(move || collect_windows(rx, reg, n_local))
                .expect("spawn collector thread"),
        )
    } else {
        None
    };

    // Bolt bodies install into the hub, spouts get dedicated threads.
    // Installation and pool spawning happen *before* any spout thread
    // starts, so a producer's first notification can never claim a
    // not-yet-installed body.
    let mut spouts: Vec<TaskWiring<M>> = Vec::new();
    for wiring in wirings {
        if matches!(wiring.kind, TaskKind::Spout(_)) {
            spouts.push(wiring);
        } else {
            // `wirings` holds only locally hosted tasks, so its positional
            // index is NOT the global task id once peers host part of the
            // topology.
            hub.install(wiring.outbox.my_global, Box::new(CoopBolt::new(wiring)));
        }
    }
    let pool_handles = sched::spawn_pool(&hub, n_workers, pin_cores, sched_insts);
    hub.seed();

    // Link threads come up after pooled bodies are installed: a reader's
    // first notification must never hit a not-yet-installed body. (Frames
    // arriving before a reader starts just sit in the socket buffer — the
    // peer's writer blocks on write, which is ordinary backpressure.)
    let mut transport_handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    if let Some(d) = &mut dist {
        for w in 0..group_workers {
            if w == my_worker {
                continue;
            }
            let stream = d.group.peers[w].take().expect("peer stream present");
            let insts = transport_insts[w].clone().expect("transport instruments");
            let wstream = stream.try_clone().expect("clone peer stream");
            let wrx = writer_rxs[w].take().expect("writer queue receiver");
            let wcodec = d.codec.link();
            let winsts = Arc::clone(&insts);
            transport_handles.push(
                std::thread::Builder::new()
                    .name(format!("wire-tx-{w}"))
                    .spawn(move || transport::writer_loop(wstream, wrx, wcodec, winsts))
                    .expect("spawn transport writer thread"),
            );
            let plan = reader_plans[w].take().expect("reader plan present");
            let rcodec = d.codec.link();
            let errors = Arc::clone(&transport_errors);
            let rhub = Arc::clone(&hub);
            transport_handles.push(
                std::thread::Builder::new()
                    .name(format!("wire-rx-{w}"))
                    .spawn(move || {
                        transport::reader_loop(stream, rcodec, plan, rhub, errors, insts, w)
                    })
                    .expect("spawn transport reader thread"),
            );
        }
    }

    let mut handles = Vec::with_capacity(spouts.len());
    for wiring in spouts {
        let label = format!("{}[{}]", wiring.info.component, wiring.info.task_index);
        let global = wiring.outbox.my_global;
        let hub = Arc::clone(&hub);
        let handle = std::thread::Builder::new()
            .name(label.clone())
            .spawn(move || {
                // Declared before the wiring is consumed so it drops last:
                // the nudge must follow the senders' drop — including when
                // `run_spout` unwinds — for pooled downstream to observe the
                // disconnect when they wake.
                let _retire = RetireGuard { hub, global };
                run_spout(wiring)
            })
            .expect("spawn spout thread");
        handles.push((global, label, handle));
    }

    let mut panicked: Vec<(usize, String)> = Vec::new();
    for (global, label, handle) in handles {
        if handle.join().is_err() {
            panicked.push((global, label));
        }
    }
    for handle in pool_handles {
        handle.join().expect("pool worker thread panicked");
    }
    panicked.extend(hub.panicked_labels());
    // Report in global task order, whichever kind of thread a task ran on.
    panicked.sort();
    let panicked: Vec<String> = panicked.into_iter().map(|(_, label)| label).collect();
    // Every local task is done and its outbox dropped: all `Close` frames
    // are queued. Dropping the executor's writer-queue senders lets each
    // writer flush its tail and half-close the link (FIN); our readers then
    // exit once the peers' writers do the same.
    drop(writer_txs);
    for handle in transport_handles {
        handle.join().expect("transport thread panicked");
    }
    // All spout threads and pooled bodies are gone, so all notify senders are
    // dropped and the collector terminates even after a panic.
    let windows = collector
        .map(|h| h.join().expect("collector thread panicked"))
        .unwrap_or_default();
    if !panicked.is_empty() {
        return Err(RunError::TaskPanicked(panicked));
    }
    let transport_errors = transport_errors
        .lock()
        .map(|g| g.clone())
        .unwrap_or_default();
    if !transport_errors.is_empty() {
        return Err(RunError::Transport(transport_errors));
    }
    Ok(RunReport {
        tasks: registry.snapshot_tasks(),
        windows,
        trace: registry.trace().events(),
        peak_rss: peak_rss_bytes(),
        attempts: 1,
        resumed: None,
    })
}

/// Collector loop: count window-close notifications; when all `total` tasks
/// reported window `w`, snapshot the whole registry for it.
fn collect_windows(
    rx: Receiver<u64>,
    registry: Arc<MetricsRegistry>,
    total: usize,
) -> Vec<WindowSnapshot> {
    let mut counts: HashMap<u64, usize> = HashMap::new();
    let mut snaps: Vec<WindowSnapshot> = Vec::new();
    while let Ok(w) = rx.recv() {
        let c = counts.entry(w).or_insert(0);
        *c += 1;
        if *c == total {
            counts.remove(&w);
            snaps.push(WindowSnapshot {
                window: w,
                tasks: registry.snapshot_tasks(),
            });
        }
    }
    // Alignment means completion order is ascending in practice, but the
    // channel interleaving is not guaranteed; keep the series sorted.
    snaps.sort_by_key(|s| s.window);
    snaps
}

/// Alignment state for one upstream task.
struct UpstreamState<M> {
    /// Punctuations processed but not yet aligned; `> 0` means *blocked* —
    /// envelopes from this upstream are buffered, not processed.
    ahead: u32,
    /// Buffered envelopes while blocked, FIFO.
    queue: VecDeque<Envelope<M>>,
    /// Already enqueued in the aligner's ready queue.
    in_ready: bool,
    /// This upstream delivered EOS: it no longer gates alignment.
    closed: bool,
}

/// Punctuation alignment with per-upstream blocking.
///
/// An upstream that has already punctuated the window being aligned is
/// *blocked*: its subsequent envelopes are buffered until the punctuation
/// has arrived from every upstream. This keeps window contents exact
/// even when upstream tasks run at different speeds — without it, data from
/// fast upstreams would leak into the previous window.
///
/// Upstream state lives in a dense `Vec` indexed through a one-time global
/// id → slot map (with a last-sender cache, since consecutive envelopes
/// usually share a sender), and upstreams unblocked by a completed
/// alignment go onto a ready queue — replay is O(1) amortized per buffered
/// envelope instead of a scan over all upstreams per step.
struct Aligner<M> {
    states: Vec<UpstreamState<M>>,
    /// Global upstream task id → slot in `states`.
    index_of: HashMap<usize, usize>,
    /// `(global, slot)` of the last sender seen.
    last: Option<(usize, usize)>,
    needed: usize,
    punct_counts: HashMap<u64, usize>,
    eos_seen: usize,
    /// Upstreams that delivered EOS; alignment needs only `needed -
    /// closed_count` punctuations, so windows keep closing when an
    /// upstream ends mid-window.
    closed_count: usize,
    /// Slots that became unblocked while holding buffered envelopes.
    ready: VecDeque<usize>,
}

impl<M: Clone> Aligner<M> {
    fn new(upstreams: &[usize]) -> Self {
        Aligner {
            states: upstreams
                .iter()
                .map(|_| UpstreamState {
                    ahead: 0,
                    queue: VecDeque::new(),
                    in_ready: false,
                    closed: false,
                })
                .collect(),
            index_of: upstreams
                .iter()
                .enumerate()
                .map(|(slot, &g)| (g, slot))
                .collect(),
            last: None,
            needed: upstreams.len(),
            punct_counts: HashMap::new(),
            eos_seen: 0,
            closed_count: 0,
            ready: VecDeque::new(),
        }
    }

    /// Upstreams still gating alignment (not yet at EOS).
    #[inline]
    fn alive(&self) -> usize {
        self.needed - self.closed_count
    }

    /// Slot of upstream `from`.
    #[inline]
    fn slot_of(&mut self, from: usize) -> usize {
        if let Some((global, slot)) = self.last {
            if global == from {
                return slot;
            }
        }
        let slot = *self
            .index_of
            .get(&from)
            .unwrap_or_else(|| panic!("an envelope from task {from}, which is no upstream"));
        self.last = Some((from, slot));
        slot
    }

    /// Punctuations received from `from` but not yet retired by a completed
    /// alignment — the processed-but-unaligned one (`ahead`) plus any still
    /// buffered behind it. Added to the completed-alignment count, this
    /// gives the window a data envelope from `from` will be *delivered* in,
    /// before the envelope is handed to [`Aligner::handle`]. The fault
    /// clock keys on this: it depends only on the envelope's own upstream
    /// punctuation sequence, not on cross-upstream arrival interleaving.
    fn puncts_ahead_of(&mut self, from: usize) -> u64 {
        let slot = self.slot_of(from);
        let st = &self.states[slot];
        st.ahead as u64
            + st.queue
                .iter()
                .filter(|e| matches!(e, Envelope::Punct(..)))
                .count() as u64
    }

    /// Feed one envelope; returns `true` once every upstream delivered EOS.
    fn handle(
        &mut self,
        env: Envelope<M>,
        bolt: &mut dyn Bolt<M>,
        out: &mut Outbox<M>,
        m: &mut TaskMeter,
    ) -> bool {
        let from = env.source_task();
        let slot = self.slot_of(from);
        if self.states[slot].ahead > 0 {
            self.states[slot].queue.push_back(env);
        } else {
            self.process(slot, env, bolt, out, m);
            self.drain(bolt, out, m);
        }
        self.eos_seen == self.needed
    }

    fn process(
        &mut self,
        slot: usize,
        env: Envelope<M>,
        bolt: &mut dyn Bolt<M>,
        out: &mut Outbox<M>,
        m: &mut TaskMeter,
    ) {
        match env {
            Envelope::Data(msg, _) => {
                m.received += 1;
                bolt.execute(msg, out);
            }
            Envelope::Batch(msgs, _) => {
                m.received += msgs.len() as u64;
                for msg in msgs {
                    bolt.execute(msg, out);
                }
            }
            Envelope::Punct(p, _) => {
                self.states[slot].ahead += 1;
                let c = self.punct_counts.entry(p).or_insert(0);
                *c += 1;
                // Alignment needs the punctuation from every *live*
                // upstream: an upstream that ended mid-window (EOS before
                // punctuating) has left the quorum for good.
                if *c >= self.alive() {
                    self.complete(p, bolt, out, m);
                }
            }
            Envelope::Eos(_) => {
                // Idempotent per upstream: counting a duplicate EOS would
                // satisfy the termination quorum early and truncate the
                // inputs still open.
                if !self.states[slot].closed {
                    self.states[slot].closed = true;
                    self.eos_seen += 1;
                    self.closed_count += 1;
                    // The quorum shrank: outstanding punctuations may now be
                    // satisfied by the survivors alone. Without this
                    // re-check, one upstream ending mid-window would stop
                    // every later window from closing — surviving upstreams'
                    // envelopes would buffer unboundedly and be dropped
                    // unprocessed at disconnect.
                    self.flush_completable(bolt, out, m);
                }
            }
        }
    }

    /// Close window `p`: run the bolt's window logic, forward the
    /// punctuation, and retire each upstream's outstanding punctuation
    /// (unblocking buffered envelopes onto the ready queue).
    fn complete(&mut self, p: u64, bolt: &mut dyn Bolt<M>, out: &mut Outbox<M>, m: &mut TaskMeter) {
        self.punct_counts.remove(&p);
        // Close-to-emit span: window work plus output flush.
        let t0 = m.enabled.then(Instant::now);
        m.puncts += 1;
        bolt.on_punct(p, out);
        out.punctuate(p);
        if let Some(t0) = t0 {
            m.window_closed(p, t0.elapsed());
        }
        // Retire each upstream's oldest outstanding punctuation;
        // upstreams that held buffered envelopes become ready.
        for (i, st) in self.states.iter_mut().enumerate() {
            st.ahead = st.ahead.saturating_sub(1);
            if st.ahead == 0 && !st.queue.is_empty() && !st.in_ready {
                st.in_ready = true;
                self.ready.push_back(i);
            }
        }
    }

    /// Complete every outstanding punctuation the shrunken live quorum now
    /// satisfies, oldest window first (once every upstream has closed,
    /// `alive() == 0` and all outstanding punctuations drain in order).
    fn flush_completable(
        &mut self,
        bolt: &mut dyn Bolt<M>,
        out: &mut Outbox<M>,
        m: &mut TaskMeter,
    ) {
        loop {
            let alive = self.alive();
            let Some(p) = self
                .punct_counts
                .iter()
                .filter(|&(_, &c)| c >= alive)
                .map(|(&p, _)| p)
                .min()
            else {
                break;
            };
            self.complete(p, bolt, out, m);
        }
    }

    /// Replay buffered envelopes from upstreams that are no longer blocked;
    /// an alignment completed during replay can enqueue further upstreams.
    fn drain(&mut self, bolt: &mut dyn Bolt<M>, out: &mut Outbox<M>, m: &mut TaskMeter) {
        while let Some(slot) = self.ready.pop_front() {
            self.states[slot].in_ready = false;
            while self.states[slot].ahead == 0 {
                let Some(env) = self.states[slot].queue.pop_front() else {
                    break;
                };
                self.process(slot, env, bolt, out, m);
            }
        }
    }
}

/// A spout task's dedicated thread: pull emissions until `Done`, shipping
/// data, punctuation and finally EOS through the outbox.
fn run_spout<M: Clone + Send + 'static>(w: TaskWiring<M>) {
    let TaskWiring {
        mut outbox,
        kind,
        inst,
        notify,
        ..
    } = w;
    let TaskKind::Spout(mut spout) = kind else {
        unreachable!("bolts are pool-scheduled, never given a thread");
    };
    let mut meter = TaskMeter::new(inst);
    loop {
        // A task panicked: the run is over, stop reading.
        if outbox.sched.aborted() {
            return;
        }
        let t0 = Instant::now();
        let emission = spout.next();
        meter.busy += t0.elapsed();
        match emission {
            SpoutEmit::Message(msg) => {
                outbox.emit(msg);
            }
            SpoutEmit::Broadcast(msg) => outbox.broadcast(msg),
            SpoutEmit::Punctuate(p) => {
                let t0 = meter.enabled.then(Instant::now);
                meter.puncts += 1;
                outbox.punctuate(p);
                if let Some(t0) = t0 {
                    meter.window_closed(p, t0.elapsed());
                    meter.flush_windows(outbox.emitted, outbox.batches, 0, &notify);
                }
            }
            SpoutEmit::Done => {
                outbox.eos();
                break;
            }
        }
    }
    publish_final_metrics(&meter, &outbox);
    // `notify` (if any) drops here; the collector ends once every task's
    // sender is gone.
}

/// End-of-task metric publication shared by spout threads and pooled bolt
/// bodies: fold outbox totals into the shared instruments and publish all
/// task-local state.
fn publish_final_metrics<M>(meter: &TaskMeter, outbox: &Outbox<M>) {
    if meter.enabled {
        meter.inst.trace(TraceKind::Eos, u64::MAX, Duration::ZERO);
    }
    meter.publish(outbox.emitted, outbox.batches);
}

/// A bolt task (DESIGN.md §4e): aligner, meter and crash clock as a
/// resumable [`TaskStep`] state machine driven by non-blocking receives.
///
/// It receives envelopes, the crash clock ticking if a fault targets the
/// task, until the EOS quorum or a disconnect; then it flushes the bolt,
/// sends EOS, publishes its final metrics and retires. Once any task has
/// panicked every body retires at its next step. Dropping
/// the body — on retirement or after a panic — drops its receivers and
/// outbox senders, which is what downstream and upstream observe as EOS.
struct CoopBolt<M> {
    info: TaskInfo,
    rx: Receiver<Envelope<M>>,
    outbox: Outbox<M>,
    align: Aligner<M>,
    meter: TaskMeter,
    notify: Option<Sender<u64>>,
    bolt: Box<dyn Bolt<M>>,
    /// Crashes the run's fault plan aims at this task (usually none).
    faults: TaskFaults,
    /// `attach_instruments` + `prepare` ran (deferred to the first step so
    /// their panics hit the worker's `catch_unwind` like any user code).
    started: bool,
}

impl<M: Clone + Send + 'static> CoopBolt<M> {
    fn new(w: TaskWiring<M>) -> CoopBolt<M> {
        let TaskWiring {
            info,
            rx,
            outbox,
            upstreams,
            kind,
            inst,
            notify,
            faults,
        } = w;
        let TaskKind::Bolt(bolt) = kind else {
            unreachable!("spouts are never pool-scheduled");
        };
        CoopBolt {
            info,
            rx,
            outbox,
            align: Aligner::new(&upstreams),
            meter: TaskMeter::new(inst),
            notify,
            bolt,
            faults,
            started: false,
        }
    }

    /// Feed one envelope through the crash clock and the aligner, timing it
    /// into busy and the handle histogram (scaled to the tuples it carried)
    /// and running the window-boundary bookkeeping when it closed windows;
    /// true when every upstream has reached EOS. May unwind out of bolt
    /// user code.
    fn handle(&mut self, env: Envelope<M>) -> bool {
        let n = env.data_len();
        if n > 0 && !self.faults.is_empty() {
            // The window the envelope is delivered in: the windows closed
            // so far plus its own upstream's unaligned punctuations.
            let closed = self.meter.puncts;
            let window = closed + self.align.puncts_ahead_of(env.source_task());
            if self.faults.on_data(closed, window, n) {
                fault::crash(FaultPanic {
                    component: self.info.component.clone(),
                    task: self.info.task_index,
                    window,
                });
            }
        }
        let (meter, out) = (&mut self.meter, &mut self.outbox);
        let (t0, before) = (Instant::now(), meter.received);
        let done = self.align.handle(env, self.bolt.as_mut(), out, meter);
        let dt = t0.elapsed();
        meter.busy += dt;
        if meter.enabled {
            let tuples = meter.received - before;
            meter
                .handle_hist
                .record_scaled(dt.as_nanos() as u64, tuples);
            if !meter.closed.is_empty() {
                meter.flush_windows(out.emitted, out.batches, self.rx.len(), &self.notify);
            }
        }
        done
    }
}

impl<M: Clone + Send + 'static> TaskStep for CoopBolt<M> {
    fn step(&mut self) -> StepOutcome {
        if !self.started {
            self.started = true;
            self.bolt.attach_instruments(&self.meter.inst);
            self.bolt.prepare(&self.info);
        }
        if self.outbox.sched.aborted() {
            return StepOutcome::Done;
        }
        for _ in 0..sched::TICK_BUDGET {
            let ended = match self.rx.try_recv() {
                Ok(env) => self.handle(env),
                Err(TryRecvError::Empty) => return StepOutcome::Idle,
                // All senders gone (e.g. upstream panicked).
                Err(TryRecvError::Disconnected) => true,
            };
            if ended {
                self.bolt.finish(&mut self.outbox);
                self.outbox.eos();
                publish_final_metrics(&self.meter, &self.outbox);
                return StepOutcome::Done;
            }
        }
        StepOutcome::More
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fn_bolt;
    use crate::metrics::{MetricsConfig, MetricsRegistry};

    fn test_outbox() -> Outbox<u64> {
        Outbox {
            my_global: 0,
            edges: Vec::new(),
            batch_size: 1,
            emitted: 0,
            batches: 0,
            sched: Arc::new(Hub::new(Vec::new(), Vec::new(), Vec::new(), 0)),
        }
    }

    fn test_meter(reg: &mut MetricsRegistry) -> TaskMeter {
        TaskMeter::new(reg.register("aligner", 0))
    }

    /// A transport reader synthesizes EOS for a dead peer's tasks, which can
    /// duplicate an EOS the peer already delivered. The duplicate must not
    /// count toward the termination quorum or shrink the punctuation quorum
    /// a second time.
    #[test]
    fn duplicate_eos_is_idempotent() {
        let mut reg = MetricsRegistry::new(MetricsConfig::default());
        let mut out = test_outbox();
        let mut m = test_meter(&mut reg);
        let closed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let c = closed.clone();
        let mut bolt = fn_bolt::<u64, _>(move |_msg, _out| {});
        struct ClosedProbe {
            inner: Box<dyn Bolt<u64>>,
            closed: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
        }
        impl Bolt<u64> for ClosedProbe {
            fn execute(&mut self, msg: u64, out: &mut Outbox<u64>) {
                self.inner.execute(msg, out);
            }
            fn on_punct(&mut self, p: u64, _out: &mut Outbox<u64>) {
                self.closed.lock().unwrap().push(p);
            }
        }
        let mut bolt: Box<dyn Bolt<u64>> = Box::new(ClosedProbe {
            inner: std::mem::replace(&mut bolt, fn_bolt(|_m, _o| {})),
            closed: c,
        });

        let mut al = Aligner::<u64>::new(&[10, 11]);
        // Upstream 10 punctuates window 1; quorum is 2, so it stays open.
        assert!(!al.handle(Envelope::Punct(1, 10), bolt.as_mut(), &mut out, &mut m));
        assert!(closed.lock().unwrap().is_empty());
        // Upstream 11 dies (EOS): quorum shrinks to 1 and window 1 closes.
        assert!(!al.handle(Envelope::Eos(11), bolt.as_mut(), &mut out, &mut m));
        assert_eq!(*closed.lock().unwrap(), vec![1]);
        // A synthesized duplicate EOS for 11 must not end the task: the
        // termination quorum still waits on upstream 10.
        assert!(!al.handle(Envelope::Eos(11), bolt.as_mut(), &mut out, &mut m));
        assert!(!al.handle(Envelope::Eos(11), bolt.as_mut(), &mut out, &mut m));
        // Upstream 10's real EOS finishes the task.
        assert!(al.handle(Envelope::Eos(10), bolt.as_mut(), &mut out, &mut m));
        assert_eq!(*closed.lock().unwrap(), vec![1]);
    }

    /// Duplicate EOS must also leave in-flight data from survivors intact:
    /// windows punctuated after the duplicate still close exactly once.
    #[test]
    fn windows_close_once_after_duplicate_eos() {
        let mut reg = MetricsRegistry::new(MetricsConfig::default());
        let mut out = test_outbox();
        let mut m = test_meter(&mut reg);
        let mut bolt = fn_bolt::<u64, _>(|_msg, _out| {});
        let mut al = Aligner::<u64>::new(&[7, 8, 9]);
        assert!(!al.handle(Envelope::Eos(8), bolt.as_mut(), &mut out, &mut m));
        assert!(!al.handle(Envelope::Eos(8), bolt.as_mut(), &mut out, &mut m));
        assert_eq!(al.alive(), 2);
        // Both survivors must still punctuate to close a window.
        assert!(!al.handle(Envelope::Punct(3, 7), bolt.as_mut(), &mut out, &mut m));
        assert_eq!(m.puncts, 0);
        assert!(!al.handle(Envelope::Punct(3, 9), bolt.as_mut(), &mut out, &mut m));
        assert_eq!(m.puncts, 1);
        assert!(!al.handle(Envelope::Eos(7), bolt.as_mut(), &mut out, &mut m));
        assert!(al.handle(Envelope::Eos(9), bolt.as_mut(), &mut out, &mut m));
    }
}
