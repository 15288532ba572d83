//! Observability: a lock-free metrics registry, log-linear latency
//! histograms, and a bounded window-lifecycle trace ring.
//!
//! Design constraints (see DESIGN.md §4c):
//!
//! * **Zero hot-path atomics.** Task threads accumulate counters and
//!   histogram buckets in plain (non-atomic) locals and publish them into
//!   their [`TaskInstruments`] — single-writer atomic cells — only at
//!   window boundaries (punctuation) and at end of stream. The collector
//!   thread reads the atomics with `Relaxed` loads; per-window snapshots
//!   only need punctuation-boundary freshness, which is exactly when the
//!   locals are flushed.
//! * **Zero allocation on the hot path.** Histograms are fixed arrays of
//!   log-linear buckets (each power-of-two octave splits into `2^SUB_BITS`
//!   linear sub-buckets); recording is a leading-zeros, a shift, and an
//!   add. The trace ring has a fixed capacity and recycles slots.
//! * **Per-punctuation time series.** Every task notifies the collector
//!   after flushing at a window boundary; once *all* tasks have reported
//!   window `w`, the collector snapshots the whole registry. Snapshots are
//!   cumulative, hence monotone across punctuations.
//!
//! Bolts hook into the registry through
//! [`Bolt::attach_instruments`](crate::Bolt::attach_instruments): register
//! named counters / gauges / histograms once at startup, hold the `Arc`
//! handles, and record into them directly (they are single-writer too).

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` linear sub-buckets, bounding the quantile error at
/// `1/2^SUB_BITS` (12.5%) instead of the 2x a pure power-of-two layout
/// allows — coarse enough to stay a flat array, fine enough that paired
/// tail-latency gates (see `bench_latency`) can resolve real ratios.
const SUB_BITS: u32 = 3;
const SUBS: u64 = 1 << SUB_BITS;

/// Number of log-linear histogram buckets (covers the full `u64` range):
/// values below `2^SUB_BITS` get exact buckets, every octave above
/// contributes `2^SUB_BITS` linear sub-buckets.
pub const HISTOGRAM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS as usize;

/// Bucket index of a nanosecond value (log-linear; monotone in `ns`).
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns < SUBS {
        ns as usize
    } else {
        let o = 63 - ns.leading_zeros() as u64; // octave, >= SUB_BITS
                                                // The SUB_BITS bits below the leading one select the sub-bucket.
        let sub = (ns >> (o - SUB_BITS as u64)) & (SUBS - 1);
        ((o - SUB_BITS as u64 + 1) * SUBS + sub) as usize
    }
}

/// Inclusive upper bound of bucket `i`, saturating at `u64::MAX`.
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    if i < SUBS as usize {
        i as u64
    } else {
        let o = i as u64 / SUBS + SUB_BITS as u64 - 1;
        let sub = i as u64 % SUBS;
        let width = 1u64 << (o - SUB_BITS as u64);
        (1u64 << o)
            .checked_add((sub + 1) * width)
            .map(|v| v - 1)
            .unwrap_or(u64::MAX)
    }
}

/// A monotone atomic counter.
///
/// Two write disciplines coexist: the executor *publishes* cumulative local
/// values with [`Counter::store`] at window boundaries (single writer), and
/// bolt-registered counters *increment* with [`Counter::add`]. Both are
/// `Relaxed` — cross-counter ordering is established by the collector
/// protocol, not by the cells.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Publish an absolute (cumulative) value.
    #[inline]
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins atomic gauge (e.g. queue depth).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log-linear latency histogram over nanoseconds.
///
/// Shared (atomic) variant; the executor's hot path uses [`LocalHistogram`]
/// and publishes cumulative bucket counts here at window boundaries.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos() as u64);
    }

    /// Record one duration in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
    }

    /// Publish cumulative local state (single-writer discipline).
    pub(crate) fn publish(&self, local: &LocalHistogram) {
        for (i, &c) in local.buckets.iter().enumerate() {
            if c != 0 {
                self.buckets[i].store(c, Ordering::Relaxed);
            }
        }
        self.count.store(local.count, Ordering::Relaxed);
        self.sum.store(local.sum, Ordering::Relaxed);
    }

    /// Read a consistent-enough copy (collector side).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u16, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c != 0).then_some((i as u16, c))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// The executor's thread-local histogram: plain integers, no atomics.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl LocalHistogram {
    /// A fresh empty local histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration in nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum += ns;
    }

    /// Record an envelope of `n` tuples handled in `total_ns` altogether:
    /// each tuple is counted once, at the bucket of the per-tuple average.
    /// This keeps "histogram count == tuples processed" without a second
    /// clock read per tuple.
    #[inline]
    pub fn record_scaled(&mut self, total_ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(total_ns / n)] += n;
        self.count += n;
        self.sum += total_ns;
    }
}

/// A point-in-time copy of one histogram (non-empty buckets only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all recorded nanoseconds.
    pub sum_ns: u64,
    /// `(bucket index, count)` for non-empty buckets, ascending.
    pub buckets: Vec<(u16, u64)>,
}

impl HistogramSnapshot {
    /// Mean recorded value in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`q` in `[0, 1]`); 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_bound(i as usize);
            }
        }
        bucket_bound(self.buckets.last().map(|&(i, _)| i as usize).unwrap_or(0))
    }
}

/// What happened, for [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// First tuple of a window arrived at a task.
    WindowOpen,
    /// A window boundary (punctuation) was processed by a task; `dur_ns` is
    /// the close-to-emit time (window work plus output flush).
    WindowClose,
    /// An output flush outside a window boundary.
    Flush,
    /// A probe/join batch ran; `dur_ns` is its duration.
    Probe,
    /// A repartition signal was raised (§VI-A).
    Repartition,
    /// A partition table was (re)broadcast.
    Table,
    /// A task reached end of stream.
    Eos,
}

impl TraceKind {
    /// Stable lowercase label (used in JSON lines).
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::WindowOpen => "window_open",
            TraceKind::WindowClose => "window_close",
            TraceKind::Flush => "flush",
            TraceKind::Probe => "probe",
            TraceKind::Repartition => "repartition",
            TraceKind::Table => "table",
            TraceKind::Eos => "eos",
        }
    }
}

/// One window-lifecycle event. `Copy`, fixed size — recording never
/// allocates (the ring recycles slots once it is warm).
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Nanoseconds since the run started.
    pub t_ns: u64,
    /// Global task index (resolve via [`RunReport`](crate::RunReport)
    /// task order).
    pub task: u32,
    /// Event kind.
    pub kind: TraceKind,
    /// Window id the event belongs to (`u64::MAX` when not applicable).
    pub window: u64,
    /// Span duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
}

/// A bounded ring buffer of [`TraceEvent`]s shared by all tasks; when full,
/// the oldest events are overwritten. Events are rare (window boundaries,
/// control signals), so one mutex is not a hot-path concern.
pub struct TraceRing {
    cap: usize,
    inner: Mutex<VecDeque<TraceEvent>>,
    /// Events dropped because the ring was full.
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        TraceRing {
            cap: cap.max(1),
            inner: Mutex::new(VecDeque::with_capacity(cap.max(1))),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append an event, evicting the oldest when full.
    pub fn record(&self, ev: TraceEvent) {
        let mut ring = self.inner.lock();
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    }

    /// Copy out the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().iter().copied().collect()
    }

    /// Number of events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The per-task instrument set: core counters the executor publishes into,
/// plus bolt-registered named instruments.
pub struct TaskInstruments {
    /// Component name.
    pub component: String,
    /// Task index within the component.
    pub task: usize,
    /// Global task index (position in the registry).
    pub global: usize,
    pub(crate) received: Counter,
    pub(crate) emitted: Counter,
    pub(crate) batches: Counter,
    pub(crate) puncts: Counter,
    pub(crate) busy_ns: Counter,
    pub(crate) handle_ns: Histogram,
    pub(crate) close_ns: Histogram,
    pub(crate) queue_depth: Gauge,
    named_counters: Mutex<Vec<(String, Arc<Counter>)>>,
    named_gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    named_histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
    trace: Arc<TraceRing>,
    epoch: Instant,
    enabled: bool,
}

impl TaskInstruments {
    /// Whether histogram/trace collection is on for this run. Counters are
    /// always maintained (they feed [`RunReport`](crate::RunReport)).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Publish the executor's cumulative core counters (single writer).
    pub(crate) fn publish_core(
        &self,
        received: u64,
        emitted: u64,
        batches: u64,
        puncts: u64,
        busy_ns: u64,
    ) {
        self.received.store(received);
        self.emitted.store(emitted);
        self.batches.store(batches);
        self.puncts.store(puncts);
        self.busy_ns.store(busy_ns);
    }

    /// Publish the executor's cumulative local histograms (single writer).
    pub(crate) fn publish_histograms(&self, handle: &LocalHistogram, close: &LocalHistogram) {
        self.handle_ns.publish(handle);
        self.close_ns.publish(close);
    }

    /// The core queue-depth gauge, sampled by the executor at window
    /// boundaries.
    pub(crate) fn queue_depth_gauge(&self) -> &Gauge {
        &self.queue_depth
    }

    /// Get or register a named counter (idempotent by name).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.named_counters, name)
    }

    /// Get or register a named gauge (idempotent by name).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.named_gauges, name)
    }

    /// Get or register a named histogram (idempotent by name).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.named_histograms, name)
    }

    /// Record a trace event for this task (no-op when collection is off).
    pub fn trace(&self, kind: TraceKind, window: u64, dur: Duration) {
        if !self.enabled {
            return;
        }
        self.trace.record(TraceEvent {
            t_ns: self.epoch.elapsed().as_nanos() as u64,
            task: self.global as u32,
            kind,
            window,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Snapshot every instrument of this task.
    pub fn snapshot(&self) -> TaskSnapshot {
        let mut counters = vec![
            ("received".to_owned(), self.received.get()),
            ("emitted".to_owned(), self.emitted.get()),
            ("batches".to_owned(), self.batches.get()),
            ("puncts".to_owned(), self.puncts.get()),
            ("busy_ns".to_owned(), self.busy_ns.get()),
        ];
        for (name, c) in self.named_counters.lock().iter() {
            counters.push((name.clone(), c.get()));
        }
        let mut gauges = vec![("queue_depth".to_owned(), self.queue_depth.get())];
        for (name, g) in self.named_gauges.lock().iter() {
            gauges.push((name.clone(), g.get()));
        }
        let mut histograms = Vec::new();
        if self.enabled {
            histograms.push(("handle_ns".to_owned(), self.handle_ns.snapshot()));
            histograms.push(("window_close_ns".to_owned(), self.close_ns.snapshot()));
        }
        for (name, h) in self.named_histograms.lock().iter() {
            histograms.push((name.clone(), h.snapshot()));
        }
        TaskSnapshot {
            component: self.component.clone(),
            task: self.task,
            counters,
            gauges,
            histograms,
        }
    }
}

fn get_or_insert<T: Default>(slot: &Mutex<Vec<(String, Arc<T>)>>, name: &str) -> Arc<T> {
    let mut list = slot.lock();
    if let Some((_, v)) = list.iter().find(|(n, _)| n == name) {
        return Arc::clone(v);
    }
    let v = Arc::new(T::default());
    list.push((name.to_owned(), Arc::clone(&v)));
    v
}

/// A point-in-time copy of one task's instruments.
#[derive(Debug, Clone)]
pub struct TaskSnapshot {
    /// Component name.
    pub component: String,
    /// Task index within the component.
    pub task: usize,
    /// `(name, value)` counters; core names are `received`, `emitted`,
    /// `batches`, `puncts`, `busy_ns`.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges; core name is `queue_depth`.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` histograms; core names are `handle_ns` and
    /// `window_close_ns` (present only when metrics collection is on).
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl TaskSnapshot {
    /// A counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// A gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// A whole-registry snapshot taken after every task flushed window `window`.
/// Counters are cumulative since run start, so successive snapshots are
/// monotone per task and counter.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// The window (punctuation id) this snapshot closes.
    pub window: u64,
    /// One entry per task, in global task order.
    pub tasks: Vec<TaskSnapshot>,
}

/// Metrics configuration of a run.
#[derive(Debug, Clone, Copy)]
pub struct MetricsConfig {
    /// Collect histograms, traces and per-window snapshots. Counters are
    /// maintained regardless; when off, the hot path is identical to an
    /// uninstrumented run.
    pub enabled: bool,
    /// Capacity of the window-lifecycle trace ring.
    pub trace_capacity: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            enabled: false,
            trace_capacity: 4096,
        }
    }
}

/// The registry: one [`TaskInstruments`] per task, a shared trace ring, and
/// the run epoch. Built once before the tasks spawn; thereafter reads and
/// writes are atomics only — no lock is ever taken on the data path.
pub struct MetricsRegistry {
    tasks: Vec<Arc<TaskInstruments>>,
    trace: Arc<TraceRing>,
    epoch: Instant,
    config: MetricsConfig,
}

impl MetricsRegistry {
    /// A fresh registry.
    pub fn new(config: MetricsConfig) -> Self {
        MetricsRegistry {
            tasks: Vec::new(),
            trace: Arc::new(TraceRing::new(config.trace_capacity)),
            epoch: Instant::now(),
            config,
        }
    }

    /// Register the next task (global index = registration order).
    pub fn register(&mut self, component: &str, task: usize) -> Arc<TaskInstruments> {
        let inst = Arc::new(TaskInstruments {
            component: component.to_owned(),
            task,
            global: self.tasks.len(),
            received: Counter::new(),
            emitted: Counter::new(),
            batches: Counter::new(),
            puncts: Counter::new(),
            busy_ns: Counter::new(),
            handle_ns: Histogram::new(),
            close_ns: Histogram::new(),
            queue_depth: Gauge::new(),
            named_counters: Mutex::new(Vec::new()),
            named_gauges: Mutex::new(Vec::new()),
            named_histograms: Mutex::new(Vec::new()),
            trace: Arc::clone(&self.trace),
            epoch: self.epoch,
            enabled: self.config.enabled,
        });
        self.tasks.push(Arc::clone(&inst));
        inst
    }

    /// Whether full collection is on.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Number of registered tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no task registered yet.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Snapshot every task's instruments, in global task order.
    pub fn snapshot_tasks(&self) -> Vec<TaskSnapshot> {
        self.tasks.iter().map(|t| t.snapshot()).collect()
    }

    /// The shared trace ring.
    pub fn trace(&self) -> &Arc<TraceRing> {
        &self.trace
    }
}

// ---------------------------------------------------------------------------
// Report rendering (JSON lines + human table) — shared by the CLI and bench.
// ---------------------------------------------------------------------------

/// Minimal JSON string escaping (component names, labels).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize one task snapshot as the tail of a JSON-lines record (shared
/// between per-window and final lines).
fn task_json(t: &TaskSnapshot) -> String {
    let counters = t
        .counters
        .iter()
        .map(|(n, v)| format!("\"{}\":{}", esc(n), v))
        .collect::<Vec<_>>()
        .join(",");
    let gauges = t
        .gauges
        .iter()
        .map(|(n, v)| format!("\"{}\":{}", esc(n), v))
        .collect::<Vec<_>>()
        .join(",");
    let hists = t
        .histograms
        .iter()
        .map(|(n, h)| {
            let buckets = h
                .buckets
                .iter()
                .map(|&(i, c)| format!("[{},{}]", bucket_bound(i as usize), c))
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "\"{}\":{{\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"buckets\":[{}]}}",
                esc(n),
                h.count,
                h.sum_ns,
                h.quantile_ns(0.50),
                h.quantile_ns(0.99),
                buckets
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "\"component\":\"{}\",\"task\":{},\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}",
        esc(&t.component),
        t.task,
        counters,
        gauges,
        hists
    )
}

/// Write per-window and final metrics as JSON lines: one record per
/// `(window, task)`, then one `"window":"final"` record per task, then one
/// `"trace"` record per retained trace event.
pub fn write_jsonl<W: Write>(
    out: &mut W,
    windows: &[WindowSnapshot],
    finals: &[TaskSnapshot],
    trace: &[TraceEvent],
) -> io::Result<()> {
    for w in windows {
        for t in &w.tasks {
            writeln!(out, "{{\"window\":{},{}}}", w.window, task_json(t))?;
        }
    }
    for t in finals {
        writeln!(out, "{{\"window\":\"final\",{}}}", task_json(t))?;
    }
    for ev in trace {
        let label = finals
            .get(ev.task as usize)
            .map(|t| format!("{}[{}]", t.component, t.task))
            .unwrap_or_else(|| format!("task{}", ev.task));
        writeln!(
            out,
            "{{\"trace\":{{\"t_ns\":{},\"task\":\"{}\",\"kind\":\"{}\",\"window\":{},\"dur_ns\":{}}}}}",
            ev.t_ns,
            esc(&label),
            ev.kind.label(),
            if ev.window == u64::MAX { 0 } else { ev.window },
            ev.dur_ns
        )?;
    }
    Ok(())
}

/// Render a per-component human summary table from final task snapshots:
/// throughput counters plus handle-latency percentiles when collected.
/// "busy/task" is the mean over the component's tasks of `busy_ns`, and
/// "busy sum" its sum over them. `busy_ns` is wall time inside a task's
/// handles, so it counts the time the host preempted the thread: summed
/// over more tasks than cores it can exceed the CPU the run used.
pub fn summary_table(finals: &[TaskSnapshot]) -> String {
    use std::fmt::Write as _;
    let mut components: Vec<&str> = Vec::new();
    for t in finals {
        if !components.contains(&t.component.as_str()) {
            components.push(&t.component);
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>12} {:>12} {:>9} {:>10} {:>10} {:>12} {:>12}",
        "component",
        "tasks",
        "received",
        "emitted",
        "windows",
        "busy/task",
        "busy sum",
        "handle p50",
        "handle p99"
    );
    for comp in components {
        let tasks: Vec<&TaskSnapshot> = finals.iter().filter(|t| t.component == comp).collect();
        let sum = |name: &str| tasks.iter().map(|t| t.counter(name)).sum::<u64>();
        let mut merged = HistogramSnapshot {
            count: 0,
            sum_ns: 0,
            buckets: Vec::new(),
        };
        let mut bucket_acc = [0u64; HISTOGRAM_BUCKETS];
        for t in &tasks {
            if let Some(h) = t.histogram("handle_ns") {
                merged.count += h.count;
                merged.sum_ns += h.sum_ns;
                for &(i, c) in &h.buckets {
                    bucket_acc[i as usize] += c;
                }
            }
        }
        merged.buckets = bucket_acc
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (c != 0).then_some((i as u16, c)))
            .collect();
        let windows = tasks.iter().map(|t| t.counter("puncts")).max().unwrap_or(0);
        let busy = Duration::from_nanos(sum("busy_ns"));
        let per_task = busy / tasks.len().max(1) as u32;
        let (p50, p99) = if merged.count > 0 {
            (
                format!("{:?}", Duration::from_nanos(merged.quantile_ns(0.50))),
                format!("{:?}", Duration::from_nanos(merged.quantile_ns(0.99))),
            )
        } else {
            ("-".to_owned(), "-".to_owned())
        };
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>12} {:>12} {:>9} {:>10} {:>10} {:>12} {:>12}",
            comp,
            tasks.len(),
            sum("received"),
            sum("emitted"),
            windows,
            format!("{:.2?}", per_task),
            format!("{:.2?}", busy),
            p50,
            p99
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math() {
        // Small values get exact buckets.
        for ns in 0..SUBS {
            assert_eq!(bucket_of(ns), ns as usize);
            assert_eq!(bucket_bound(ns as usize), ns);
        }
        // First log-linear octave: [8,16) in unit-width sub-buckets.
        assert_eq!(bucket_of(8), 8);
        assert_eq!(bucket_of(15), 15);
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Monotone, and each value is within its bucket's bounds with
        // log-linear relative error (bound/ns < 1 + 1/SUBS for ns >= SUBS).
        let mut prev = 0usize;
        for ns in [0u64, 1, 7, 8, 100, 1000, 123_456_789, 1 << 40, u64::MAX] {
            let b = bucket_of(ns);
            assert!(b >= prev, "{ns}");
            prev = b;
            let hi = bucket_bound(b);
            assert!(ns <= hi, "{ns}");
            if b > 0 {
                assert!(ns > bucket_bound(b - 1), "{ns}");
            }
            if (SUBS..1 << 62).contains(&ns) {
                assert!(hi as f64 / ns as f64 <= 1.0 + 1.0 / SUBS as f64, "{ns}");
            }
        }
    }

    #[test]
    fn local_histogram_scaled_counts_tuples() {
        let mut h = LocalHistogram::new();
        h.record_scaled(6400, 64);
        h.record_scaled(100, 1);
        assert_eq!(h.count, 65);
        assert_eq!(h.sum, 6500);
        let shared = Histogram::new();
        shared.publish(&h);
        let snap = shared.snapshot();
        assert_eq!(snap.count, 65);
        assert_eq!(snap.sum_ns, 6500);
        // 6400/64 = 100 → both land in the same bucket.
        assert_eq!(snap.buckets.len(), 1);
        assert_eq!(snap.buckets[0].1, 65);
    }

    #[test]
    fn quantiles_walk_buckets() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record_ns(100);
        }
        for _ in 0..10 {
            h.record_ns(100_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!(s.quantile_ns(0.5) < 256, "{}", s.quantile_ns(0.5));
        assert!(s.quantile_ns(0.99) >= 100_000);
        assert_eq!(s.mean_ns(), (90 * 100 + 10 * 100_000) / 100);
    }

    #[test]
    fn trace_ring_bounded_drop_oldest() {
        let ring = TraceRing::new(3);
        for w in 0..5u64 {
            ring.record(TraceEvent {
                t_ns: w,
                task: 0,
                kind: TraceKind::WindowClose,
                window: w,
                dur_ns: 0,
            });
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].window, 2);
        assert_eq!(evs[2].window, 4);
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn registry_snapshot_and_named_instruments() {
        let mut reg = MetricsRegistry::new(MetricsConfig {
            enabled: true,
            trace_capacity: 16,
        });
        let a = reg.register("worker", 0);
        let b = reg.register("worker", 1);
        a.received.store(10);
        b.received.store(20);
        let c = a.counter("join_pairs");
        c.add(7);
        // Same name → same instrument.
        assert_eq!(a.counter("join_pairs").get(), 7);
        let snaps = reg.snapshot_tasks();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].counter("received"), 10);
        assert_eq!(snaps[1].counter("received"), 20);
        assert_eq!(snaps[0].counter("join_pairs"), 7);
        assert_eq!(snaps[1].counter("join_pairs"), 0);
        assert!(snaps[0].histogram("handle_ns").is_some());
    }

    #[test]
    fn jsonl_lines_are_parseable_shape() {
        let mut reg = MetricsRegistry::new(MetricsConfig {
            enabled: true,
            trace_capacity: 16,
        });
        let a = reg.register("joiner", 0);
        a.received.store(5);
        a.handle_ns.record_ns(1000);
        a.trace(TraceKind::Probe, 0, Duration::from_nanos(42));
        let finals = reg.snapshot_tasks();
        let windows = vec![WindowSnapshot {
            window: 0,
            tasks: reg.snapshot_tasks(),
        }];
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &windows, &finals, &reg.trace().events()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.trim_end().lines().collect();
        assert_eq!(lines.len(), 3); // 1 window line + 1 final + 1 trace
        assert!(lines[0].contains("\"window\":0"));
        assert!(lines[0].contains("\"received\":5"));
        assert!(lines[0].contains("\"handle_ns\""));
        assert!(lines[1].contains("\"window\":\"final\""));
        assert!(lines[2].contains("\"kind\":\"probe\""));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn summary_table_lists_components() {
        let mut reg = MetricsRegistry::new(MetricsConfig {
            enabled: true,
            trace_capacity: 16,
        });
        reg.register("reader", 0).emitted.store(100);
        for (task, received, busy_ns) in [(0, 60, 3_000_000), (1, 40, 1_000_000)] {
            let joiner = reg.register("joiner", task);
            joiner.received.store(received);
            joiner.busy_ns.store(busy_ns);
        }
        let table = summary_table(&reg.snapshot_tasks());
        assert!(table.contains("reader"));
        assert!(table.contains("100"));
        // The joiners' busy time per task, then summed over both.
        let joiner = table.lines().find(|l| l.starts_with("joiner")).unwrap();
        let cols: Vec<&str> = joiner.split_whitespace().collect();
        assert_eq!(cols[5..7], ["2.00ms", "4.00ms"], "{table}");
        assert!(table.lines().next().unwrap().contains("busy/task"));
    }
}
