//! Assembling the Fig. 2 topology on the Storm-like runtime, and its one
//! result path.
//!
//! ```text
//!            shuffle                    global
//! JsonReader ───────► PartitionCreator ───────► Merger (1)
//!  ▲   │                                          │ all
//!  ┆   │ shuffle                                  ▼
//!  ┆   └────────────────────────────────────► Assigner ──direct──► Joiner (m)
//!  ┆                                              │ global            │ global
//!  ┆                                              ▼                   ▼
//!  └┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄ credit: δ-requests, θ signal ┄┄┄┄┄┄┄┄┄┄┄┄┄ Reporter ──► sink
//! ```
//!
//! The edges form a DAG. Punctuation alignment gives the run
//! streaming-consistent semantics: the Assigner routes window *k* documents
//! with the table the Merger built at boundary *k−1* (window 0 is broadcast
//! — no table has been deployed yet).
//!
//! The §VI-A control plane is the reader's credit loop (DESIGN.md §4
//! "Control plane"): pane *k*'s δ-requests and θ signal go from the
//! Assigners to the Reporter, back to the reader with pane *k*'s credit,
//! and out as its broadcast at the start of pane *k + L* (`L` =
//! [`Reader::lead`]), so they act at boundary *k + L* in every run.
//!
//! Results leave the topology as the stream goes: when a window's
//! punctuation aligns, the Reporter folds its `JoinStats` once into a
//! [`WindowResult`], hands it to the run's sink and forgets it. The
//! Assigners and the Merger send the Reporter the pane's routing counts, so
//! a result also carries the pane's routing quality.
//! [`run_topology_with`] is the one runner; [`run_topology_collect`] is that
//! runner with a sink that collects a [`TopologyRunReport`].
//!
//! The reader ([`crate::reader`]) runs at most its lead of panes ahead of
//! the sink. Lock-step ([`Reader::Lockstep`], lead 1) with one Assigner and
//! batch 1 is the single Router the paper's figures model, and §VI-A's
//! "next window" timing.

use crate::assign::Assigner;
use crate::config::StreamJoinConfig;
use crate::creator::PartitionCreator;
use crate::joiner::Joiner;
use crate::merger::Merger;
use crate::msg::{Control, Msg, PaneRouting};
use crate::reader::{Credit, Reader, ReaderSpout};
use crate::spill::SpillSettings;
use crate::wire::{dict_epoch, MsgCodec};
use parking_lot::Mutex;
use ssj_json::{Dictionary, DocId, Document, FxHashMap};
use ssj_partition::WindowQuality;
use ssj_runtime::{
    join_group, metrics::Histogram, run, run_distributed, Bolt, FaultPlan, GroupSetup, Grouping,
    HistogramSnapshot, Outbox, RunError, RunReport, TaskInstruments, TopologyBuilder,
};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One closed window (pane, under a sliding spec), as the run's sink gets it.
#[derive(Debug)]
pub struct WindowResult {
    /// Window (punctuation) id.
    pub window: u64,
    /// The window's join pairs in canonical form ([`canonicalize`]).
    pub pairs: Vec<(u64, u64)>,
    /// Documents each joiner held in this window.
    pub docs_per_joiner: Vec<usize>,
    /// Pairs each joiner reported: the pairs it owns, so the counts sum to
    /// `pairs.len()` (the owner rule, [`crate::joiner`]). Exact, unlike
    /// timings.
    pub pairs_per_joiner: Vec<usize>,
    /// What routing did to the pane: the Assigners' counts summed, and the
    /// Merger's boundary.
    pub routing: PaneRouting,
    /// [`Reader::Paced`] runs: every tuple's latency from its *intended*
    /// arrival to the window's `m`-th `JoinStats` reaching the reporter, so
    /// queueing delay is charged to the tuples that waited.
    pub latency: Option<HistogramSnapshot>,
}

impl WindowResult {
    /// The pane's §VII-C routing quality.
    pub fn quality(&self) -> WindowQuality {
        self.routing.quality(&self.docs_per_joiner)
    }
}

/// The canonical form of a window's join result, and the only place it is
/// produced: pairs flipped to `(min, max)`, sorted, unique. Results in this
/// form compare with `==` and, written out, byte for byte.
pub fn canonicalize(pairs: &mut Vec<(u64, u64)>) {
    for p in pairs.iter_mut() {
        *p = (p.0.min(p.1), p.0.max(p.1));
    }
    pairs.sort_unstable();
    pairs.dedup();
}

/// The canonical form of pairs known to be distinct — the joiners' disjoint
/// lists — in time linear in their number: [`canonicalize`] without the
/// `dedup`, sorted by an LSD radix sort over only the bytes in which the
/// keys differ (a pane's ids share their high bytes).
fn canonicalize_distinct(pairs: &mut Vec<(u64, u64)>) {
    let key = |p: &(u64, u64)| (p.0 as u128) << 64 | p.1 as u128;
    for p in pairs.iter_mut() {
        *p = (p.0.min(p.1), p.0.max(p.1));
    }
    let first = pairs.first().map_or(0, key);
    let differ = pairs.iter().fold(0, |d, p| d | (key(p) ^ first));
    let mut from = std::mem::take(pairs);
    let mut to = vec![(0, 0); from.len()];
    for shift in (0..128).step_by(8).filter(|s| (differ >> s) & 0xff != 0) {
        let byte = |p: &(u64, u64)| (key(p) >> shift) as u8 as usize;
        let mut at = [0usize; 256];
        for p in &from {
            at[byte(p)] += 1;
        }
        let mut sum = 0;
        for slot in at.iter_mut() {
            (*slot, sum) = (sum, sum + *slot);
        }
        for p in &from {
            let slot = &mut at[byte(p)];
            to[*slot] = *p;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    *pairs = from;
}

/// Ground-truth join pairs of one window (NLJ over all documents, canonical
/// form): the brute-force oracle tests check a run's windows against.
pub fn ground_truth_pairs(docs: &[Document]) -> Vec<(u64, u64)> {
    let mut pairs = ssj_join::nlj::join_batch(docs)
        .into_iter()
        .map(|(a, b)| (a.0, b.0))
        .collect();
    canonicalize(&mut pairs);
    pairs
}

/// One full topology run: its [`WindowResult`]s side by side.
#[derive(Debug)]
pub struct TopologyRunReport {
    /// Runtime task metrics (received / emitted per task).
    pub runtime: RunReport,
    /// [`WindowResult::window`] of every window, in the order the sink got
    /// them.
    pub windows: Vec<u64>,
    /// [`WindowResult::pairs`] per window.
    pub joins_per_window: Vec<Vec<(u64, u64)>>,
    /// [`WindowResult::docs_per_joiner`] per window.
    pub docs_per_joiner: Vec<Vec<usize>>,
    /// [`WindowResult::pairs_per_joiner`] per window.
    pub pairs_per_joiner: Vec<Vec<usize>>,
    /// [`WindowResult::routing`] per window.
    pub routing: Vec<PaneRouting>,
    /// [`WindowResult::latency`] of every paced window.
    pub latency: LatencyReport,
}

/// Materialize join pairs as merged result documents (the natural-join
/// output tuples): for each `(a, b)` of `pairs`, in the order given, whose
/// both sides are present in `docs`, produce `a ⋈ b` with a fresh id
/// starting at `first_id`. Pairs referencing unknown ids are skipped.
pub fn materialize_joins(pairs: &[(u64, u64)], docs: &[Document], first_id: u64) -> Vec<Document> {
    let by_id: FxHashMap<u64, &Document> = docs.iter().map(|d| (d.id().0, d)).collect();
    let mut out = Vec::with_capacity(pairs.len());
    let mut id = first_id;
    for (a, b) in pairs {
        if let (Some(da), Some(db)) = (by_id.get(a), by_id.get(b)) {
            out.push(da.merge(db, DocId(id)));
            id += 1;
        }
    }
    out
}

type RawPairs = Vec<(DocId, DocId)>;

/// What the [`Reporter`] holds of a window it has not handed over yet.
type OpenWindow = (Vec<RawPairs>, WindowResult, Vec<(usize, Control)>);

/// The Fig. 2 Reporter: accumulates a window's `JoinStats` and, when the
/// window's punctuation aligns (every joiner has reported it), folds them
/// into the [`WindowResult`], gives that to the sink and keeps nothing.
struct Reporter<S> {
    m: usize,
    pane: usize,
    sink: S,
    /// One credit per pane handed to the sink; the reader's largest lead is
    /// counter `reader_lead`. It goes with the Reporter, so the reader
    /// learns when none is left.
    credit: Credit,
    /// Paced runs: document `i` is due `schedule[i]` ns after the anchor,
    /// which the reader sets at its first document.
    schedule: Option<Arc<[u64]>>,
    anchor: Arc<OnceLock<Instant>>,
    /// Per open window: the joiners' pair lists, held as they arrived so a
    /// `JoinStats` costs nothing before the latency stamp; the result so
    /// far; and the Assigners' controls, for the window's credit.
    open: FxHashMap<u64, OpenWindow>,
    inst: Option<Arc<TaskInstruments>>,
}

impl<S: FnMut(WindowResult) + Send + 'static> Bolt<Msg> for Reporter<S> {
    fn attach_instruments(&mut self, inst: &Arc<TaskInstruments>) {
        self.inst = Some(Arc::clone(inst));
    }

    fn execute(&mut self, msg: Msg, _out: &mut Outbox<Msg>) {
        let m = self.m;
        let window = match &msg {
            Msg::JoinStats { window, .. } | Msg::Routing { window, .. } => *window,
            _ => return,
        };
        let (raw, result, controls) = self.open.entry(window).or_insert_with(|| {
            let result = WindowResult {
                window,
                pairs: Vec::new(),
                docs_per_joiner: vec![0; m],
                pairs_per_joiner: vec![0; m],
                routing: PaneRouting::default(),
                latency: None,
            };
            (Vec::new(), result, Vec::new())
        });
        let (joiner, docs, pairs) = match msg {
            Msg::JoinStats {
                joiner,
                docs,
                pairs,
                ..
            } => (joiner, docs, pairs),
            // Each Assigner and the Merger report a pane once.
            Msg::Routing {
                routing, control, ..
            } => {
                result.routing += routing;
                controls.extend(control.map(|c| *c));
                return;
            }
            _ => return,
        };
        result.docs_per_joiner[joiner] = docs;
        result.pairs_per_joiner[joiner] = pairs.len();
        raw.push(pairs);
        // Complete with the `m`-th report: the fold and the sink that follow
        // are not part of a tuple's latency.
        let paced = (raw.len() == m, &self.schedule, self.anchor.get());
        let (true, Some(schedule), Some(anchor)) = paced else {
            return;
        };
        let now = anchor.elapsed().as_nanos() as u64;
        let lo = (window as usize * self.pane).min(schedule.len());
        let hi = (lo + self.pane).min(schedule.len());
        let h = Histogram::new();
        for &due in &schedule[lo..hi] {
            h.record_ns(now.saturating_sub(due));
        }
        result.latency = Some(h.snapshot());
    }

    fn on_punct(&mut self, window: u64, _out: &mut Outbox<Msg>) {
        let mut control = Control::default();
        if let Some((raw, mut result, controls)) = self.open.remove(&window) {
            control = Control::merge(controls);
            let t0 = Instant::now();
            result.pairs.reserve(raw.iter().map(Vec::len).sum());
            for pairs in &raw {
                result.pairs.extend(pairs.iter().map(|(a, b)| (a.0, b.0)));
            }
            // Each pair has one owner: the joiners' lists are disjoint.
            canonicalize_distinct(&mut result.pairs);
            if let Some(inst) = &self.inst {
                // emitted / unique: 1 while each pair is found once.
                let emitted: usize = result.pairs_per_joiner.iter().sum();
                inst.counter("pairs_emitted").add(emitted as u64);
                inst.counter("pairs_unique").add(result.pairs.len() as u64);
                inst.histogram("fold_ns").record(t0.elapsed());
            }
            (self.sink)(result);
        }
        // After the sink: the lead counts the panes it has not been given.
        let grew = self.credit.grant(control);
        if let Some(inst) = &self.inst {
            inst.counter("reader_lead").add(grew);
        }
    }
}

/// Render the Fig. 2 topology (for the given configuration) as Graphviz
/// DOT without running it.
pub fn topology_dot(config: StreamJoinConfig) -> String {
    let dict = Dictionary::new();
    let spout = Reader::Docs(Vec::new()).spout(0, &config, &dict);
    let (topology, _) = build(&config, &dict, spout, FaultPlan::new(), None, |_| {});
    topology.to_dot()
}

/// The Fig. 2 topology, reading with `reader` and reporting to `sink`, and
/// where the reader leaves the input failure that ends its stream, if one
/// does.
fn build(
    config: &StreamJoinConfig,
    dict: &Dictionary,
    (reader, credit): (ReaderSpout, Credit),
    plan: FaultPlan,
    spill: Option<Arc<SpillSettings>>,
    sink: impl FnMut(WindowResult) + Send + 'static,
) -> (ssj_runtime::Topology<Msg>, Arc<Mutex<Option<String>>>) {
    // Punctuation is pane-granular: tumbling windows punctuate per window
    // (the 1-pane case), sliding windows per pane (DESIGN.md §4g).
    let window = config.pane_docs();
    let (anchor, failure) = (Arc::clone(&reader.anchor), Arc::clone(&reader.failure));
    let schedule = reader.schedule.clone();
    // The reader and the Reporter are one task each, built once: they are
    // moved into their tasks.
    let reader = Mutex::new(Some(reader));
    let reporter = Mutex::new(Some(Reporter {
        m: config.m,
        pane: window,
        sink,
        credit,
        schedule,
        anchor,
        open: FxHashMap::default(),
        inst: None,
    }));
    let dict_creator = dict.clone();
    let dict_assigner = dict.clone();
    let creator_cfg = config.clone();
    let creator_spill = spill.clone();
    let merger_cfg = config.clone();
    let dict_merger = dict.clone();
    let assigner_cfg = config.clone();
    let joiner_cfg = config.clone();
    let joiner_spill = spill;
    // The credit loop bounds the reader's lead in panes; these set what
    // the reader's bounded edges hold within a pane. Capacity counts
    // envelopes of up to `batch` tuples, so an edge holds about one
    // Assigner's share of a pane (at most 1024 tuples). The batch is at
    // most a quarter of that share, so documents reach the Assigners while
    // their pane is being read, not in one envelope at its end.
    let share = (window / config.assigners.max(1)).clamp(16, 1024);
    let batch = config.batch_size.min((share / 4).max(1));
    let capacity = (share / batch).max(4);
    let topology = TopologyBuilder::new()
        .fault_plan(plan)
        .channel_capacity(capacity)
        .batch_size(batch)
        .metrics(config.metrics)
        .pool_workers(config.pool_workers)
        .pin_cores(config.pin_cores)
        .spout("reader", 1, move |_| {
            let reader = reader.lock().take();
            Box::new(reader.expect("the reader spout is built once"))
        })
        .bolt("creator", config.partition_creators, move |_| {
            Box::new(PartitionCreator::new(
                creator_cfg.clone(),
                dict_creator.clone(),
                creator_spill.clone(),
            ))
        })
        .subscribe("reader", Grouping::Shuffle)
        .done()
        .bolt("merger", 1, move |_| {
            Box::new(Merger::new(merger_cfg.clone(), dict_merger.clone()))
        })
        .subscribe("creator", Grouping::Global)
        .done()
        .bolt("assigner", config.assigners, move |_| {
            Box::new(Assigner::new(assigner_cfg.clone(), dict_assigner.clone()))
        })
        .subscribe("reader", Grouping::Shuffle)
        .subscribe("merger", Grouping::All)
        .done()
        .bolt("joiner", config.m, move |_| {
            Box::new(Joiner::new(joiner_cfg.clone(), joiner_spill.clone()))
        })
        .subscribe("assigner", Grouping::Direct)
        .done()
        .bolt("reporter", 1, move |_| {
            Box::new(reporter.lock().take().expect("the reporter is built once"))
        })
        .subscribe("joiner", Grouping::Global)
        // Each pane's routing counts, and the Assigners' control.
        .subscribe("assigner", Grouping::Global)
        .subscribe("merger", Grouping::Global)
        .done()
        .build()
        .expect("Fig. 2 topology is valid");
    (topology, failure)
}

/// Out-of-core tiering (DESIGN.md §4i): with a non-zero budget the stateful
/// bolts get shared spill settings, the directory created — segment files
/// are stamped with the dictionary's content epoch, so a file can never be
/// decoded against a different interning epoch. With `mem_budget == 0`
/// nothing is installed at all.
fn spill_settings(
    config: &StreamJoinConfig,
    dict: &Dictionary,
) -> Result<Option<Arc<SpillSettings>>, RunError> {
    if config.mem_budget == 0 {
        return Ok(None);
    }
    let dir = config.resolved_spill_dir();
    std::fs::create_dir_all(&dir)
        .map_err(|e| RunError::Setup(format!("create spill directory {}: {e}", dir.display())))?;
    Ok(Some(Arc::new(SpillSettings {
        budget: config.mem_budget,
        dir,
        epoch: dict_epoch(dict),
    })))
}

/// How many times a run is attempted before its failure is final: the
/// first attempt and two resumes.
pub const RUN_ATTEMPTS: u32 = 3;

/// The pane a failed run resumes at, once the sink has been given windows
/// `0..delivered`: the first pane of the first undelivered window's
/// lookback, `max(0, delivered − (panes_per_window − 1))`.
fn resume_pane(delivered: u64, panes_per_window: usize) -> u64 {
    delivered.saturating_sub(panes_per_window as u64 - 1)
}

/// The sink side of a run across its attempts: the first window the sink
/// has not been given, and the sink.
struct Delivery<S> {
    next: u64,
    sink: S,
}

impl<S: FnMut(WindowResult)> Delivery<S> {
    /// Window `w` of an attempt whose reader started at pane `start` is
    /// window `w + start` of the run. One the sink already has — a warm-up
    /// window of a resumed attempt — is dropped.
    fn deliver(&mut self, start: u64, mut w: WindowResult) {
        w.window += start;
        if w.window >= self.next {
            self.next = w.window + 1;
            (self.sink)(w);
        }
    }
}

/// Run the stream-join topology and hand every window's result to `sink`
/// as the window closes — one call per window, in window order, while later
/// windows are still being read and joined. All topology parallelism comes
/// from `config` (`partition_creators`, `assigners`, `m` joiners).
///
/// A failed attempt — a task panicked ([`RunError::TaskPanicked`]) or a
/// peer died ([`RunError::Transport`]) — is resumed, up to
/// [`RUN_ATTEMPTS`] attempts: the topology is built afresh and its reader
/// starts at the first pane of the first undelivered window's lookback. A
/// window's pairs depend only on its panes, so the resumed windows are
/// exact; the ones the sink already has are dropped (DESIGN.md §4d). A group
/// member's run is not resumed (see [`run_topology_relaunching`]), nor is
/// one whose input failed ([`RunError::Input`]).
///
/// `plan` injects deterministic crashes ([`FaultPlan::for_attempt`]): tests
/// crash tasks mid-run and assert the resumed output equals the plain run.
///
/// With `group`, this process runs its shard as one member of a
/// multi-process group. Every worker must pass the *same* `config`
/// (enforced by the handshake's topology fingerprint). Only worker 0's
/// `reader` is read, since it hosts the reader; the others pass an empty
/// one and an empty `dict`, which fills with the symbols their links bring.
/// Tasks are placed by [`placement_for`]; edges crossing workers become
/// Unix-socket links carrying the [`MsgCodec`] wire format. Only worker 0,
/// which hosts the reporter, has its sink called.
pub fn run_topology_with(
    config: StreamJoinConfig,
    dict: &Dictionary,
    reader: Reader,
    plan: FaultPlan,
    group: Option<&DistRuntime>,
    sink: impl FnMut(WindowResult) + Send + 'static,
) -> Result<RunReport, RunError> {
    run_resuming(config, dict, reader, plan, group, None, sink)
}

/// [`run_topology_with`] as worker 0 of a group it can relaunch. Before
/// attempt `n ≥ 1`, `relaunch(n, failure)` replaces the other members: it
/// stops the survivors and starts fresh ones that join under attempt
/// `leader.attempt + n`. Then the leader resumes. A solo `leader`
/// (`workers == 1`) never calls it.
pub fn run_topology_relaunching(
    config: StreamJoinConfig,
    dict: &Dictionary,
    reader: Reader,
    leader: &DistRuntime,
    relaunch: &mut dyn FnMut(u32, &RunError) -> Result<(), String>,
    sink: impl FnMut(WindowResult) + Send + 'static,
) -> Result<RunReport, RunError> {
    let plan = FaultPlan::new();
    run_resuming(
        config,
        dict,
        reader,
        plan,
        Some(leader),
        Some(relaunch),
        sink,
    )
}

/// A group leader's relaunch step (see [`run_topology_relaunching`]).
type Relaunch<'a> = &'a mut dyn FnMut(u32, &RunError) -> Result<(), String>;

/// The one recovery loop behind [`run_topology_with`] and
/// [`run_topology_relaunching`].
fn run_resuming(
    config: StreamJoinConfig,
    dict: &Dictionary,
    reader: Reader,
    plan: FaultPlan,
    group: Option<&DistRuntime>,
    mut relaunch: Option<Relaunch>,
    sink: impl FnMut(WindowResult) + Send + 'static,
) -> Result<RunReport, RunError> {
    config.validate().expect("invalid configuration");
    let spill = spill_settings(&config, dict)?;
    let group = group.filter(|dr| dr.workers > 1);
    let delivery = Arc::new(Mutex::new(Delivery { next: 0, sink }));
    let attempt_sink = |start: u64| {
        let delivery = Arc::clone(&delivery);
        move |w| delivery.lock().deliver(start, w)
    };
    // A group member cannot rebuild the others: the leader relaunches it.
    let attempts = match (group, &relaunch) {
        (Some(_), None) => 1,
        _ => RUN_ATTEMPTS,
    };
    let mut attempt = 0;
    loop {
        let delivered = delivery.lock().next;
        let start = resume_pane(delivered, config.panes_per_window());
        let spout = reader.spout(start as usize, &config, dict);
        let plan = plan.for_attempt(attempt);
        let sink = attempt_sink(start);
        let (topology, failure) = build(&config, dict, spout, plan, spill.clone(), sink);
        let member = group.map(|dr| DistRuntime {
            attempt: dr.attempt + attempt,
            ..dr.clone()
        });
        let outcome = run_attempt(&config, dict, topology, member.as_ref());
        if let Some(e) = failure.lock().take() {
            return Err(RunError::Input(e));
        }
        match outcome {
            Ok(mut report) => {
                report.attempts = attempt + 1;
                report.resumed = (attempt > 0).then_some((delivered, start));
                return Ok(report);
            }
            Err(e) if attempt + 1 < attempts => {
                attempt += 1;
                if let (Some(relaunch), Some(_)) = (relaunch.as_mut(), group) {
                    relaunch(attempt, &e).map_err(RunError::Setup)?;
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Run one attempt's topology, alone or as this process's shard of `group`.
fn run_attempt(
    config: &StreamJoinConfig,
    dict: &Dictionary,
    topology: ssj_runtime::Topology<Msg>,
    group: Option<&DistRuntime>,
) -> Result<RunReport, RunError> {
    let Some(dr) = group else {
        return run(topology);
    };
    assert_eq!(config.workers, dr.workers, "config/group size mismatch");
    let setup = GroupSetup {
        workers: dr.workers,
        my_worker: dr.my_worker,
        socket_dir: dr.socket_dir.clone(),
        attempt: dr.attempt,
        topo_fingerprint: topo_fingerprint(config),
    };
    let group = join_group(&setup)
        .map_err(|e| RunError::Transport(vec![format!("worker {}: {e}", dr.my_worker)]))?;
    // Chaos hook for the kill-and-recover differential test: abort this
    // process *after* the handshake, so peers observe a mid-run disconnect
    // rather than a failed join.
    if let Ok(kill) = std::env::var("SSJ_KILL_WORKER") {
        if kill == format!("{}:{}", dr.my_worker, dr.attempt) {
            std::process::abort();
        }
    }
    let workers = dr.workers;
    let codec = Box::new(MsgCodec::new(dict).with_m(config.m));
    run_distributed(topology, codec, group, &|component, task| {
        placement_for(component, task, workers)
    })
}

/// [`run_topology_with`], every window's result collected into one
/// [`TopologyRunReport`]: the one collecting run, whatever the reader, the
/// fault plan or the group. Only worker 0 of a group collects windows.
pub fn run_topology_collect(
    config: StreamJoinConfig,
    dict: &Dictionary,
    reader: Reader,
    plan: FaultPlan,
    group: Option<&DistRuntime>,
) -> Result<TopologyRunReport, RunError> {
    let windows = Arc::new(Mutex::new(Vec::new()));
    let sink = {
        let windows = Arc::clone(&windows);
        move |w| windows.lock().push(w)
    };
    let runtime = run_topology_with(config, dict, reader, plan, group, sink)?;
    let mut report = TopologyRunReport {
        runtime,
        windows: Vec::new(),
        joins_per_window: Vec::new(),
        docs_per_joiner: Vec::new(),
        pairs_per_joiner: Vec::new(),
        routing: Vec::new(),
        latency: LatencyReport::default(),
    };
    for w in std::mem::take(&mut *windows.lock()) {
        report.windows.push(w.window);
        report.joins_per_window.push(w.pairs);
        report.docs_per_joiner.push(w.docs_per_joiner);
        report.pairs_per_joiner.push(w.pairs_per_joiner);
        report.routing.push(w.routing);
        report
            .latency
            .per_window
            .extend(w.latency.map(|h| (w.window, h)));
    }
    Ok(report)
}

/// Run the stream-join topology over `docs` and gather every window's result.
pub fn run_topology(
    config: StreamJoinConfig,
    dict: &Dictionary,
    docs: Vec<Document>,
) -> Result<TopologyRunReport, RunError> {
    let reader = Reader::Docs(docs.into_iter().map(Arc::new).collect());
    run_topology_collect(config, dict, reader, FaultPlan::new(), None)
}

/// [`run_topology_collect`] over a [`Reader::Paced`], with its per-pane
/// latencies.
pub fn run_topology_paced(
    config: StreamJoinConfig,
    dict: &Dictionary,
    docs: Vec<Document>,
    schedule: Vec<u64>,
    plan: FaultPlan,
) -> Result<(TopologyRunReport, LatencyReport), RunError> {
    let reader = Reader::Paced(docs.into_iter().map(Arc::new).collect(), schedule);
    let mut report = run_topology_collect(config, dict, reader, plan, None)?;
    let latency = std::mem::take(&mut report.latency);
    Ok((report, latency))
}

/// Per-pane end-to-end latency distributions from a paced run
/// ([`run_topology_paced`]): every [`WindowResult::latency`], in pane order.
#[derive(Debug, Clone, Default)]
pub struct LatencyReport {
    /// `(pane id, latency histogram)` in pane order.
    pub per_window: Vec<(u64, HistogramSnapshot)>,
}

impl LatencyReport {
    /// The given latency quantile (e.g. 0.99) pooled over all panes, in
    /// nanoseconds; 0 when no pane closed. Merges the per-pane bucket
    /// counts, so the result has the same bucket-bound granularity as the
    /// per-pane quantiles.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let mut merged = [0u64; ssj_runtime::metrics::HISTOGRAM_BUCKETS];
        let mut total = 0u64;
        for (_, h) in &self.per_window {
            for &(i, c) in &h.buckets {
                merged[i as usize] += c;
                total += c;
            }
        }
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in merged.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                return ssj_runtime::metrics::bucket_bound(i);
            }
        }
        0
    }
}

/// Deterministic task placement for an `N`-worker group (DESIGN.md §4f).
///
/// Singleton control/collection components (`reader`, `merger`, `reporter`)
/// live on worker 0 — the reader feeds the whole group, the merger's table
/// broadcast and the reporter's fold are already global sync points. Data
/// parallel components (`creator`, `assigner`, `joiner`) stripe round-robin
/// over the workers, so each worker carries an equal share of every stage.
///
/// Every group member computes this identically from the topology alone; it
/// is the deploy-time control plane, no coordination needed.
pub fn placement_for(component: &str, task: usize, workers: usize) -> usize {
    match component {
        "reader" | "merger" | "reporter" => 0,
        _ => task % workers,
    }
}

/// Identity of one worker process in a shared-nothing group.
#[derive(Debug, Clone)]
pub struct DistRuntime {
    /// Total processes in the group.
    pub workers: usize,
    /// This process's rank in `0..workers`.
    pub my_worker: usize,
    /// Directory holding the group's Unix sockets.
    pub socket_dir: PathBuf,
    /// Launch attempt (bumped by the leader when it relaunches the group
    /// after a failed attempt); namespaces the socket files so stale sockets
    /// of a previous attempt cannot cross-connect.
    pub attempt: u32,
}

/// Fingerprint of everything that shapes the topology graph and placement:
/// two processes with different values would wire incompatible meshes, so
/// the handshake rejects the pairing up front.
fn topo_fingerprint(config: &StreamJoinConfig) -> u64 {
    let fields: [u64; 7] = [
        config.m as u64,
        config.pane_docs() as u64,
        config.panes_per_window() as u64,
        config.partition_creators as u64,
        config.assigners as u64,
        config.batch_size as u64,
        config.workers as u64,
    ];
    let mut h = ssj_runtime::wire::fnv1a(b"ssj-topology", 0xcbf2_9ce4_8422_2325);
    for f in fields {
        h = ssj_runtime::wire::fnv1a(&f.to_le_bytes(), h);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(dict: &Dictionary, n: usize) -> Vec<Document> {
        (0..n as u64)
            .map(|i| {
                Document::from_json(
                    DocId(i),
                    &format!(
                        r#"{{"User":"u{}","Severity":"{}","MsgId":{}}}"#,
                        i % 6,
                        ["W", "E", "C"][(i % 3) as usize],
                        i % 5
                    ),
                    dict,
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn topology_produces_exact_join_results() {
        let dict = Dictionary::new();
        let docs = stream(&dict, 120);
        let cfg = StreamJoinConfig::default()
            .with_m(3)
            .with_window_spec(crate::WindowSpec::tumbling(40))
            .with_expansion(false)
            .with_partition_creators(2)
            .with_assigners(3)
            .build()
            .unwrap();
        let report = run_topology(cfg, &dict, docs.clone()).unwrap();
        assert_eq!(report.joins_per_window.len(), 3);
        for (w, found) in report.joins_per_window.iter().enumerate() {
            let truth = ground_truth_pairs(&docs[w * 40..(w + 1) * 40]);
            assert_eq!(
                found, &truth,
                "window {w}: distributed join differs from ground truth"
            );
        }
    }

    #[test]
    fn topology_with_expansion_stays_exact() {
        let dict = Dictionary::new();
        // Every doc has a Boolean attribute → expansion engages.
        let docs: Vec<Document> = (0..90u64)
            .map(|i| {
                Document::from_json(
                    DocId(i),
                    &format!(
                        r#"{{"ok":{},"grp":"g{}","val":{}}}"#,
                        i % 2 == 0,
                        i % 4,
                        i % 10
                    ),
                    &dict,
                )
                .unwrap()
            })
            .collect();
        let cfg = StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(crate::WindowSpec::tumbling(30))
            .with_partition_creators(2)
            .with_assigners(2)
            .build()
            .unwrap();
        let report = run_topology(cfg, &dict, docs.clone()).unwrap();
        for (w, found) in report.joins_per_window.iter().enumerate() {
            let truth = ground_truth_pairs(&docs[w * 30..(w + 1) * 30]);
            assert_eq!(found, &truth, "window {w}");
        }
    }

    /// Pacing: document `i` enters no earlier than `schedule[i]` after the
    /// first, and each pane's latency is charged from its documents' due
    /// times, one sample per document.
    #[test]
    fn paced_run_keeps_its_schedule() {
        let dict = Dictionary::new();
        let docs = stream(&dict, 40);
        let cfg = StreamJoinConfig::default()
            .with_m(2)
            .with_window_spec(crate::WindowSpec::tumbling(10))
            .with_expansion(false)
            .build()
            .unwrap();
        let schedule = (0..40).map(|i| i * 500_000).collect();
        let t0 = Instant::now();
        let (report, latency) =
            run_topology_paced(cfg, &dict, docs.clone(), schedule, FaultPlan::new()).unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(19));
        let panes: Vec<_> = latency
            .per_window
            .iter()
            .map(|(w, h)| (*w, h.count))
            .collect();
        assert_eq!(panes, [(0, 10), (1, 10), (2, 10), (3, 10)]);
        for (w, found) in report.joins_per_window.iter().enumerate() {
            assert_eq!(found, &ground_truth_pairs(&docs[w * 10..(w + 1) * 10]));
        }
    }

    #[test]
    fn runtime_metrics_reported() {
        let dict = Dictionary::new();
        let docs = stream(&dict, 60);
        let cfg = StreamJoinConfig::default()
            .with_m(2)
            .with_window_spec(crate::WindowSpec::tumbling(30))
            .with_expansion(false)
            .build()
            .unwrap();
        let report = run_topology(cfg.clone(), &dict, docs).unwrap();
        // The creators get every document and the bootstrap's
        // `Repartition`, one each: a pane's control would begin pane
        // `k + READER_LEAD`, past the second and last. The Merger gets their
        // bootstrap groups, one per creator, and creator 0's forward.
        let creators = cfg.partition_creators as u64;
        assert_eq!(report.runtime.received("creator"), 60 + creators);
        assert_eq!(report.runtime.received("merger"), creators + 1);
        assert!(report.runtime.received("joiner") > 0);
        assert!(!report.docs_per_joiner.is_empty());
    }

    #[test]
    fn metrics_enabled_topology_conserves_counts() {
        let dict = Dictionary::new();
        let docs = stream(&dict, 120);
        let cfg = StreamJoinConfig::default()
            .with_m(3)
            .with_window_spec(crate::WindowSpec::tumbling(40))
            .with_expansion(false)
            .with_metrics(true)
            .build()
            .unwrap();
        let report = run_topology(cfg, &dict, docs.clone()).unwrap();
        let rt = &report.runtime;
        // Per-window snapshots and the lifecycle trace exist when metrics on.
        assert_eq!(rt.windows.len(), 3, "one snapshot per punctuated window");
        assert!(!rt.trace.is_empty(), "window-lifecycle trace retained");
        // Conservation through the document path: every doc the reader
        // emits reaches the creators (plus any control it broadcasts),
        // and every doc window-counted by the joiners matches the join
        // results' basis.
        assert!(rt.received("creator") >= 120);
        let window_docs: u64 = rt
            .tasks
            .iter()
            .filter(|t| t.component == "joiner")
            .map(|t| t.counter("window_docs"))
            .sum();
        assert!(window_docs >= 120, "joiners saw every routed document");
        // Domain counters line up with the join report itself.
        let join_pairs: u64 = rt
            .tasks
            .iter()
            .filter(|t| t.component == "joiner")
            .map(|t| t.counter("join_pairs"))
            .sum();
        let reported: usize = report.joins_per_window.iter().map(|w| w.len()).sum();
        assert_eq!(join_pairs as usize, reported, "each pair has one owner");
        // Every joiner task's probe histogram accounts for its probes.
        for t in rt.tasks.iter().filter(|t| t.component == "joiner") {
            if let Some(h) = t.histogram("probe_ns") {
                assert!(h.count > 0);
                assert_eq!(h.buckets.iter().map(|&(_, c)| c).sum::<u64>(), h.count);
            }
        }
    }
}

#[cfg(test)]
mod resume_tests {
    use super::*;

    fn result(window: u64) -> WindowResult {
        WindowResult {
            window,
            pairs: Vec::new(),
            docs_per_joiner: Vec::new(),
            pairs_per_joiner: Vec::new(),
            routing: PaneRouting::default(),
            latency: None,
        }
    }

    #[test]
    fn tumbling_resumes_at_the_first_undelivered_window() {
        for d in [0, 1, 7] {
            assert_eq!(resume_pane(d, 1), d);
        }
    }

    #[test]
    fn sliding_resumes_at_its_lookback_clamped_at_zero() {
        assert_eq!(resume_pane(9, 4), 6);
        assert_eq!(resume_pane(3, 4), 0);
        assert_eq!(resume_pane(1, 8), 0);
        assert_eq!(resume_pane(0, 8), 0);
    }

    /// Attempt 0 delivers windows 0..5 and fails; attempt 1 of a 4-pane
    /// window starts at pane 2, so its windows 0..3 (2, 3, 4 of the run)
    /// are dropped and the rest arrive once, in order.
    #[test]
    fn dropped_windows_never_reach_the_sink() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let got = Arc::clone(&got);
            move |w: WindowResult| got.lock().push(w.window)
        };
        let mut delivery = Delivery { next: 0, sink };
        for w in 0..5 {
            delivery.deliver(0, result(w));
        }
        let start = resume_pane(delivery.next, 4);
        assert_eq!(start, 2);
        for w in 0..8 {
            delivery.deliver(start, result(w));
        }
        assert_eq!(*got.lock(), (0..10).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod fold_tests {
    use super::*;

    /// The Reporter's linear fold equals `canonicalize` on distinct pairs in
    /// either orientation: none, ids that differ only in their low byte, ids
    /// a pane apart, ids spread over the whole `u64`.
    #[test]
    fn the_radix_fold_is_canonicalize_on_distinct_pairs() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (n, base, spread) in [
            (0, 0, 1),
            (1, 7, 1),
            (300, 1 << 40, 200),
            (5_000, 240_000, 6_000),
            (2_000, 0, u64::MAX),
        ] {
            let mut pairs: Vec<(u64, u64)> = (0..n)
                .map(|_| (base + next() % spread, base + next() % spread))
                .filter(|(a, b)| a != b)
                .collect();
            canonicalize(&mut pairs);
            let want = pairs.clone();
            // Shuffled and half of them flipped, as the joiners send them.
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, next() as usize % (i + 1));
            }
            for p in pairs.iter_mut().step_by(2) {
                *p = (p.1, p.0);
            }
            canonicalize_distinct(&mut pairs);
            assert_eq!(pairs, want, "{n} pairs over {spread} ids at {base}");
        }
    }
}

#[cfg(test)]
mod materialize_tests {
    use super::*;

    #[test]
    fn materializes_known_pairs_and_skips_unknown() {
        let dict = Dictionary::new();
        let docs = vec![
            Document::from_json(DocId(1), r#"{"a":1,"b":2}"#, &dict).unwrap(),
            Document::from_json(DocId(2), r#"{"a":1,"c":3}"#, &dict).unwrap(),
        ];
        let pairs = [(1u64, 2u64), (1u64, 99u64)]; // unknown side: skipped
        let merged = materialize_joins(&pairs, &docs, 1000);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].id(), DocId(1000));
        assert_eq!(merged[0].len(), 3); // a, b, c
        let v = merged[0].to_value(&dict);
        assert_eq!(v.get("c").and_then(ssj_json::Value::as_int), Some(3));
    }

    #[test]
    fn materialize_is_deterministic() {
        let dict = Dictionary::new();
        let docs: Vec<Document> = (0..6u64)
            .map(|i| {
                Document::from_json(DocId(i), &format!(r#"{{"k":{}}}"#, i % 2), &dict).unwrap()
            })
            .collect();
        let pairs = ground_truth_pairs(&docs);
        let a = materialize_joins(&pairs, &docs, 0);
        let b = materialize_joins(&pairs, &docs, 0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pairs(), y.pairs());
            assert_eq!(x.id(), y.id());
        }
    }
}
