//! # ssj-runtime — a compact Storm-like stream processing runtime
//!
//! The substrate the paper runs on (Apache Storm, §III-B), rebuilt from
//! scratch: topologies of **spouts** and **bolts** with per-component
//! parallelism and the Storm stream groupings the Fig. 2 topology wires
//! (*shuffle*, *all*, *direct*, *global*), executed over crossbeam channels
//! — one thread per spout task, every bolt task on a fixed work-stealing
//! pool. Window
//! boundaries travel as aligned punctuations. The graph is acyclic: a
//! control loop closes outside it, back to a spout, which broadcasts the
//! control to every downstream task like a punctuation
//! ([`SpoutEmit::Broadcast`]).
//!
//! Transport is micro-batched: producers buffer up to
//! [`TopologyBuilder::batch_size`] messages per target and ship them as one
//! envelope, flushing on punctuation and EOS so windows stay exact (see the
//! module docs of the executor).
//!
//! ```
//! use ssj_runtime::{TopologyBuilder, Grouping, VecSpout, CollectorBolt, run};
//!
//! let sink = CollectorBolt::new();
//! let collected = sink.handle();
//! let topology = TopologyBuilder::new()
//!     .spout("numbers", 1, |_| VecSpout::boxed(vec![1, 2, 3]))
//!     .bolt("double", 2, |_| ssj_runtime::fn_bolt(|x: i32, out| out.emit(x * 2)))
//!     .subscribe("numbers", Grouping::Shuffle)
//!     .done()
//!     .bolt("sink", 1, move |_| Box::new(sink.clone()))
//!     .subscribe("double", Grouping::Global)
//!     .done()
//!     .build()
//!     .unwrap();
//! run(topology).unwrap();
//! let mut got = collected.take();
//! got.sort();
//! assert_eq!(got, vec![2, 4, 6]);
//! ```

#![warn(missing_docs)]

mod executor;
pub mod fault;
pub mod metrics;
mod sched;
pub mod topology;
pub mod transport;
pub mod wire;

pub use executor::{run, run_distributed, Outbox, RunError, RunReport};
pub use fault::{FaultPanic, FaultPlan, FaultSpec};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, TaskInstruments, TaskSnapshot, TraceEvent,
    TraceKind, WindowSnapshot,
};
pub use topology::{BoltHandle, Grouping, Topology, TopologyBuilder, TopologyError};
pub use transport::{join_group, Group, GroupSetup};
pub use wire::WireCodec;

use parking_lot::Mutex;
use std::sync::Arc;

/// Identity of a task, passed to [`Bolt::prepare`].
#[derive(Debug, Clone)]
pub struct TaskInfo {
    /// The component this task belongs to.
    pub component: String,
    /// Index of the task within the component (0-based).
    pub task_index: usize,
    /// Total number of tasks of the component.
    pub parallelism: usize,
}

/// What a spout produces on each call to [`Spout::next`].
pub enum SpoutEmit<M> {
    /// A data message.
    Message(M),
    /// A control message for every task of every subscriber, sent like a
    /// punctuation: after the data emitted before it, unbatched, and
    /// without moving a shuffle cursor.
    Broadcast(M),
    /// A punctuation (window boundary) with an id; forwarded and aligned
    /// through the whole topology.
    Punctuate(u64),
    /// The spout is exhausted; triggers end-of-stream shutdown.
    Done,
}

/// A stream source. One instance runs per task.
pub trait Spout<M>: Send {
    /// Produce the next emission. Called in a tight loop by the executor.
    fn next(&mut self) -> SpoutEmit<M>;
}

/// A stream processor. One instance runs per task.
pub trait Bolt<M>: Send {
    /// Called once before [`Bolt::prepare`] with this task's instrument set
    /// in the run's metrics registry. Register named counters, gauges, and
    /// histograms here, keep the returned `Arc` handles, and record into
    /// them from the message path; check
    /// [`TaskInstruments::enabled`](metrics::TaskInstruments::enabled) to
    /// skip work when full collection is off.
    fn attach_instruments(&mut self, _inst: &std::sync::Arc<metrics::TaskInstruments>) {}

    /// Called once before any message, with the task's identity.
    fn prepare(&mut self, _info: &TaskInfo) {}
    /// Handle one message; emit results through `out`.
    fn execute(&mut self, msg: M, out: &mut Outbox<M>);
    /// Handle an aligned punctuation (window boundary).
    fn on_punct(&mut self, _punct: u64, _out: &mut Outbox<M>) {}
    /// Called once after the last message, before shutdown.
    fn finish(&mut self, _out: &mut Outbox<M>) {}
}

/// A spout replaying a vector, punctuating optionally every `punct_every`
/// messages — handy in tests and examples.
pub struct VecSpout<M> {
    items: std::vec::IntoIter<M>,
    punct_every: Option<usize>,
    since_punct: usize,
    next_punct: u64,
    done: bool,
}

impl<M: Send + 'static> VecSpout<M> {
    /// Replay `items` with no punctuation.
    pub fn new(items: Vec<M>) -> Self {
        VecSpout {
            items: items.into_iter(),
            punct_every: None,
            since_punct: 0,
            next_punct: 0,
            done: false,
        }
    }

    /// Replay `items`, punctuating after every `every` messages and once
    /// more before finishing.
    pub fn with_punctuation(items: Vec<M>, every: usize) -> Self {
        let mut s = Self::new(items);
        s.punct_every = Some(every.max(1));
        s
    }

    /// Boxed constructor for use in topology factories.
    pub fn boxed(items: Vec<M>) -> Box<dyn Spout<M>> {
        Box::new(Self::new(items))
    }
}

impl<M: Send + 'static> Spout<M> for VecSpout<M> {
    fn next(&mut self) -> SpoutEmit<M> {
        if self.done {
            return SpoutEmit::Done;
        }
        if let Some(every) = self.punct_every {
            if self.since_punct == every {
                self.since_punct = 0;
                let p = self.next_punct;
                self.next_punct += 1;
                return SpoutEmit::Punctuate(p);
            }
        }
        match self.items.next() {
            Some(m) => {
                self.since_punct += 1;
                SpoutEmit::Message(m)
            }
            None => {
                self.done = true;
                if self.punct_every.is_some() && self.since_punct > 0 {
                    let p = self.next_punct;
                    self.next_punct += 1;
                    return SpoutEmit::Punctuate(p);
                }
                SpoutEmit::Done
            }
        }
    }
}

/// Wrap a closure as a bolt.
pub fn fn_bolt<M, F>(f: F) -> Box<dyn Bolt<M>>
where
    M: Send + 'static,
    F: FnMut(M, &mut Outbox<M>) + Send + 'static,
{
    struct FnBolt<F>(F);
    impl<M: Send + 'static, F: FnMut(M, &mut Outbox<M>) + Send + 'static> Bolt<M> for FnBolt<F> {
        fn execute(&mut self, msg: M, out: &mut Outbox<M>) {
            (self.0)(msg, out)
        }
    }
    Box::new(FnBolt(f))
}

/// A sink bolt collecting every message into a shared vector.
pub struct CollectorBolt<M> {
    sink: Arc<Mutex<Vec<M>>>,
}

impl<M> Clone for CollectorBolt<M> {
    fn clone(&self) -> Self {
        CollectorBolt {
            sink: Arc::clone(&self.sink),
        }
    }
}

impl<M> Default for CollectorBolt<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> CollectorBolt<M> {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        CollectorBolt {
            sink: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A handle to read the collected messages after the run.
    pub fn handle(&self) -> CollectorHandle<M> {
        CollectorHandle {
            sink: Arc::clone(&self.sink),
        }
    }
}

impl<M: Send + 'static> Bolt<M> for CollectorBolt<M> {
    fn execute(&mut self, msg: M, _out: &mut Outbox<M>) {
        self.sink.lock().push(msg);
    }
}

/// Read side of a [`CollectorBolt`].
pub struct CollectorHandle<M> {
    sink: Arc<Mutex<Vec<M>>>,
}

impl<M> CollectorHandle<M> {
    /// Take all collected messages.
    pub fn take(&self) -> Vec<M> {
        std::mem::take(&mut *self.sink.lock())
    }

    /// Number of collected messages.
    pub fn len(&self) -> usize {
        self.sink.lock().len()
    }

    /// True when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.sink.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_ints(topology: Topology<i32>, handle: &CollectorHandle<i32>) -> Vec<i32> {
        run(topology).unwrap();
        let mut v = handle.take();
        v.sort();
        v
    }

    #[test]
    fn linear_pipeline_shuffle() {
        let sink = CollectorBolt::new();
        let handle = sink.handle();
        let t = TopologyBuilder::new()
            .spout("src", 1, |_| VecSpout::boxed((1..=100).collect()))
            .bolt("add", 4, |_| fn_bolt(|x: i32, out| out.emit(x + 1)))
            .subscribe("src", Grouping::Shuffle)
            .done()
            .bolt("sink", 1, move |_| Box::new(sink.clone()))
            .subscribe("add", Grouping::Global)
            .done()
            .build()
            .unwrap();
        assert_eq!(collect_ints(t, &handle), (2..=101).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_balances_across_tasks() {
        let t = TopologyBuilder::new()
            .spout("src", 1, |_| VecSpout::boxed((0..1000).collect()))
            .bolt("work", 4, |_| fn_bolt(|_x: i32, _out| {}))
            .subscribe("src", Grouping::Shuffle)
            .done()
            .build()
            .unwrap();
        let report = run(t).unwrap();
        let per_task = report.received_per_task("work");
        assert_eq!(per_task.len(), 4);
        for &r in &per_task {
            assert_eq!(r, 250, "round-robin must be perfectly even: {per_task:?}");
        }
    }

    #[test]
    fn all_grouping_replicates() {
        let t = TopologyBuilder::new()
            .spout("src", 1, |_| VecSpout::boxed(vec![7; 10]))
            .bolt("bcast", 3, |_| fn_bolt(|_x: i32, _out| {}))
            .subscribe("src", Grouping::All)
            .done()
            .build()
            .unwrap();
        let report = run(t).unwrap();
        assert_eq!(report.received("bcast"), 30);
        assert_eq!(report.received_per_task("bcast"), vec![10, 10, 10]);
    }

    #[test]
    fn direct_grouping_targets_chosen_task() {
        let t = TopologyBuilder::new()
            .spout("src", 1, |_| VecSpout::boxed((0..9).collect()))
            .bolt("router", 1, |_| {
                fn_bolt(|x: i32, out: &mut Outbox<i32>| out.emit_direct((x % 3) as usize, x))
            })
            .subscribe("src", Grouping::Shuffle)
            .done()
            .bolt("worker", 3, |_| fn_bolt(|_x: i32, _out| {}))
            .subscribe("router", Grouping::Direct)
            .done()
            .build()
            .unwrap();
        let report = run(t).unwrap();
        assert_eq!(report.received_per_task("worker"), vec![3, 3, 3]);
    }

    #[test]
    fn global_grouping_hits_task_zero() {
        let t = TopologyBuilder::new()
            .spout("src", 1, |_| VecSpout::boxed((0..5).collect()))
            .bolt("g", 3, |_| fn_bolt(|_x: i32, _out| {}))
            .subscribe("src", Grouping::Global)
            .done()
            .build()
            .unwrap();
        let report = run(t).unwrap();
        assert_eq!(report.received_per_task("g"), vec![5, 0, 0]);
    }

    #[test]
    fn punctuation_aligned_across_parallel_stage() {
        // Windowed counter: counts per punctuated window must survive an
        // intermediate parallel stage (punct seen once per window).
        struct WindowCounter {
            count: u64,
            out: Arc<Mutex<Vec<u64>>>,
        }
        impl Bolt<i32> for WindowCounter {
            fn execute(&mut self, _msg: i32, _out: &mut Outbox<i32>) {
                self.count += 1;
            }
            fn on_punct(&mut self, _p: u64, _out: &mut Outbox<i32>) {
                self.out.lock().push(self.count);
                self.count = 0;
            }
        }
        let windows = Arc::new(Mutex::new(Vec::new()));
        let w2 = Arc::clone(&windows);
        let t = TopologyBuilder::new()
            .spout("src", 1, |_| {
                Box::new(VecSpout::with_punctuation((0..20).collect(), 5))
            })
            .bolt("mid", 3, |_| fn_bolt(|x: i32, out| out.emit(x)))
            .subscribe("src", Grouping::Shuffle)
            .done()
            .bolt("win", 1, move |_| {
                Box::new(WindowCounter {
                    count: 0,
                    out: Arc::clone(&w2),
                })
            })
            .subscribe("mid", Grouping::Global)
            .done()
            .build()
            .unwrap();
        run(t).unwrap();
        let got = windows.lock().clone();
        assert_eq!(got, vec![5, 5, 5, 5]);
    }

    #[test]
    fn multiple_spout_tasks_align_punctuation() {
        struct PunctCount {
            puncts: Arc<Mutex<u64>>,
        }
        impl Bolt<i32> for PunctCount {
            fn execute(&mut self, _m: i32, _o: &mut Outbox<i32>) {}
            fn on_punct(&mut self, _p: u64, _o: &mut Outbox<i32>) {
                *self.puncts.lock() += 1;
            }
        }
        let puncts = Arc::new(Mutex::new(0u64));
        let p2 = Arc::clone(&puncts);
        let t = TopologyBuilder::new()
            .spout("src", 3, |_| {
                Box::new(VecSpout::with_punctuation(vec![1, 2, 3, 4], 2))
            })
            .bolt("win", 1, move |_| {
                Box::new(PunctCount {
                    puncts: Arc::clone(&p2),
                })
            })
            .subscribe("src", Grouping::Global)
            .done()
            .build()
            .unwrap();
        run(t).unwrap();
        // Each of the 3 spout tasks punctuates twice (ids 0 and 1); aligned
        // → the bolt sees each id exactly once.
        assert_eq!(*puncts.lock(), 2);
    }

    /// A broadcast reaches every task of every subscriber between the
    /// windows it was emitted between, and the shuffle deals the documents
    /// around it as if it were not there.
    #[test]
    fn a_spout_broadcast_reaches_every_task_like_a_punctuation() {
        struct Script(std::vec::IntoIter<SpoutEmit<i32>>);
        impl Spout<i32> for Script {
            fn next(&mut self) -> SpoutEmit<i32> {
                self.0.next().unwrap_or(SpoutEmit::Done)
            }
        }
        let seen: Arc<Mutex<Vec<(usize, u64, i32)>>> = Arc::default();
        let mut script = vec![SpoutEmit::Message(1), SpoutEmit::Message(2)];
        script.push(SpoutEmit::Punctuate(0));
        script.push(SpoutEmit::Broadcast(-1));
        script.extend((3..=6).map(SpoutEmit::Message));
        script.push(SpoutEmit::Punctuate(1));
        let spout = Mutex::new(Some(script));
        let probe = Arc::clone(&seen);
        let t = TopologyBuilder::new()
            .batch_size(2)
            .spout("src", 1, move |_| {
                Box::new(Script(spout.lock().take().unwrap().into_iter()))
            })
            .bolt("a", 2, move |task| {
                struct Log(usize, u64, Arc<Mutex<Vec<(usize, u64, i32)>>>);
                impl Bolt<i32> for Log {
                    fn execute(&mut self, x: i32, _: &mut Outbox<i32>) {
                        self.2.lock().push((self.0, self.1, x));
                    }
                    fn on_punct(&mut self, _: u64, _: &mut Outbox<i32>) {
                        self.1 += 1;
                    }
                }
                Box::new(Log(task, 0, Arc::clone(&probe)))
            })
            .subscribe("src", Grouping::Shuffle)
            .done()
            .build()
            .unwrap();
        let report = run(t).unwrap();
        assert_eq!(report.emitted("src"), 8);
        let mut seen = seen.lock().clone();
        seen.sort_unstable();
        // Whole batches of 2 alternate from task 0 (the spout's global id
        // is 0): the broadcast leaves task 1 next in line.
        let want = [
            (0, 0, 1),
            (0, 0, 2),
            (0, 1, -1),
            (0, 1, 5),
            (0, 1, 6),
            (1, 1, -1),
            (1, 1, 3),
            (1, 1, 4),
        ];
        let mut want = want.to_vec();
        want.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn forward_cycle_rejected() {
        let t = TopologyBuilder::new()
            .spout("src", 1, |_| VecSpout::boxed(vec![1]))
            .bolt("a", 1, |_| fn_bolt(|_: i32, _| {}))
            .subscribe("src", Grouping::Shuffle)
            .subscribe("b", Grouping::Shuffle)
            .done()
            .bolt("b", 1, |_| fn_bolt(|_: i32, _| {}))
            .subscribe("a", Grouping::Shuffle)
            .done()
            .build();
        assert!(matches!(t, Err(TopologyError::ForwardCycle(_))));
    }

    #[test]
    fn unknown_source_rejected() {
        let t = TopologyBuilder::new()
            .spout("src", 1, |_| VecSpout::boxed(vec![1]))
            .bolt("a", 1, |_| fn_bolt(|_: i32, _| {}))
            .subscribe("ghost", Grouping::Shuffle)
            .done()
            .build();
        assert!(matches!(t, Err(TopologyError::UnknownSource { .. })));
    }

    #[test]
    fn duplicate_component_rejected() {
        let t = TopologyBuilder::new()
            .spout("x", 1, |_| VecSpout::boxed(vec![1]))
            .bolt("x", 1, |_| fn_bolt(|_: i32, _| {}))
            .subscribe("x", Grouping::Shuffle)
            .done()
            .build();
        assert!(matches!(t, Err(TopologyError::DuplicateComponent(_))));
    }

    #[test]
    fn no_spout_rejected() {
        let t = TopologyBuilder::<i32>::new().build();
        assert!(matches!(t, Err(TopologyError::NoSpout)));
    }

    #[test]
    fn zero_parallelism_rejected() {
        let t = TopologyBuilder::new()
            .spout("src", 0, |_| VecSpout::boxed(vec![1]))
            .build();
        assert!(matches!(t, Err(TopologyError::ZeroParallelism(_))));
    }

    #[test]
    fn panicking_bolt_reported() {
        let t = TopologyBuilder::new()
            .spout("src", 1, |_| VecSpout::boxed(vec![1, 2, 3]))
            .bolt("boom", 1, |_| {
                fn_bolt(|x: i32, _out: &mut Outbox<i32>| {
                    if x == 2 {
                        panic!("injected failure");
                    }
                })
            })
            .subscribe("src", Grouping::Shuffle)
            .done()
            .bolt("down", 1, |_| fn_bolt(|_: i32, _| {}))
            .subscribe("boom", Grouping::Shuffle)
            .done()
            .build()
            .unwrap();
        match run(t) {
            Err(RunError::TaskPanicked(tasks)) => {
                assert!(tasks.iter().any(|t| t.contains("boom")));
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn finish_called_on_shutdown() {
        struct Finisher {
            flag: Arc<Mutex<bool>>,
        }
        impl Bolt<i32> for Finisher {
            fn execute(&mut self, _m: i32, _o: &mut Outbox<i32>) {}
            fn finish(&mut self, _o: &mut Outbox<i32>) {
                *self.flag.lock() = true;
            }
        }
        let flag = Arc::new(Mutex::new(false));
        let f2 = Arc::clone(&flag);
        let t = TopologyBuilder::new()
            .spout("src", 1, |_| VecSpout::boxed(vec![1]))
            .bolt("fin", 1, move |_| {
                Box::new(Finisher {
                    flag: Arc::clone(&f2),
                })
            })
            .subscribe("src", Grouping::Shuffle)
            .done()
            .build()
            .unwrap();
        run(t).unwrap();
        assert!(*flag.lock());
    }

    #[test]
    fn diamond_topology_eos_counts() {
        // src -> (a, b) -> join: join waits for EOS from both branches.
        let sink = CollectorBolt::new();
        let handle = sink.handle();
        let t = TopologyBuilder::new()
            .spout("src", 1, |_| VecSpout::boxed((0..10).collect()))
            .bolt("a", 2, |_| fn_bolt(|x: i32, out| out.emit(x)))
            .subscribe("src", Grouping::Shuffle)
            .done()
            .bolt("b", 2, |_| fn_bolt(|x: i32, out| out.emit(x * 10)))
            .subscribe("src", Grouping::Shuffle)
            .done()
            .bolt("join", 1, move |_| Box::new(sink.clone()))
            .subscribe("a", Grouping::Global)
            .subscribe("b", Grouping::Global)
            .done()
            .build()
            .unwrap();
        run(t).unwrap();
        assert_eq!(handle.len(), 20);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    #[test]
    fn batched_pipeline_matches_unbatched() {
        let mut results = Vec::new();
        for bs in [1usize, 7, 64] {
            let sink = CollectorBolt::new();
            let handle = sink.handle();
            let t = TopologyBuilder::new()
                .batch_size(bs)
                .spout("src", 1, |_| VecSpout::boxed((1..=100).collect()))
                .bolt("add", 4, |_| fn_bolt(|x: i32, out| out.emit(x + 1)))
                .subscribe("src", Grouping::Shuffle)
                .done()
                .bolt("sink", 1, move |_| Box::new(sink.clone()))
                .subscribe("add", Grouping::Global)
                .done()
                .build()
                .unwrap();
            run(t).unwrap();
            let mut v = handle.take();
            v.sort();
            results.push(v);
        }
        assert_eq!(results[0], (2..=101).collect::<Vec<_>>());
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn shuffle_round_robins_whole_batches() {
        let t = TopologyBuilder::new()
            .batch_size(100)
            .spout("src", 1, |_| VecSpout::boxed((0..1200).collect()))
            .bolt("work", 3, |_| fn_bolt(|_x: i32, _out| {}))
            .subscribe("src", Grouping::Shuffle)
            .done()
            .build()
            .unwrap();
        let report = run(t).unwrap();
        // 12 full batches of 100 round-robin across 3 tasks → 4 each.
        assert_eq!(report.received_per_task("work"), vec![400, 400, 400]);
        assert_eq!(report.batches("src"), 12);
        assert!((report.avg_batch_size("src") - 100.0).abs() < 1e-9);
    }

    #[test]
    fn eos_flushes_partial_batches() {
        // batch_size far larger than the stream: everything rides the final
        // EOS flush.
        let sink = CollectorBolt::new();
        let handle = sink.handle();
        let t = TopologyBuilder::new()
            .batch_size(1000)
            .spout("src", 1, |_| VecSpout::boxed((0..10).collect()))
            .bolt("sink", 1, move |_| Box::new(sink.clone()))
            .subscribe("src", Grouping::Global)
            .done()
            .build()
            .unwrap();
        let report = run(t).unwrap();
        let mut v = handle.take();
        v.sort();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
        assert_eq!(report.batches("src"), 1);
        assert!((report.avg_batch_size("src") - 10.0).abs() < 1e-9);
    }

    #[test]
    fn batched_punctuation_windows_exact() {
        struct WindowCounter {
            count: u64,
            out: Arc<Mutex<Vec<u64>>>,
        }
        impl Bolt<i32> for WindowCounter {
            fn execute(&mut self, _msg: i32, _out: &mut Outbox<i32>) {
                self.count += 1;
            }
            fn on_punct(&mut self, _p: u64, _out: &mut Outbox<i32>) {
                self.out.lock().push(self.count);
                self.count = 0;
            }
        }
        for bs in [7usize, 64] {
            let windows = Arc::new(Mutex::new(Vec::new()));
            let w2 = Arc::clone(&windows);
            let t = TopologyBuilder::new()
                .batch_size(bs)
                .spout("src", 1, |_| {
                    Box::new(VecSpout::with_punctuation((0..20).collect(), 5))
                })
                .bolt("mid", 3, |_| fn_bolt(|x: i32, out| out.emit(x)))
                .subscribe("src", Grouping::Shuffle)
                .done()
                .bolt("win", 1, move |_| {
                    Box::new(WindowCounter {
                        count: 0,
                        out: Arc::clone(&w2),
                    })
                })
                .subscribe("mid", Grouping::Global)
                .done()
                .build()
                .unwrap();
            run(t).unwrap();
            let got = windows.lock().clone();
            assert_eq!(got, vec![5, 5, 5, 5], "batch_size={bs}");
        }
    }

    #[test]
    fn direct_grouping_batched() {
        let t = TopologyBuilder::new()
            .batch_size(4)
            .spout("src", 1, |_| VecSpout::boxed((0..9).collect()))
            .bolt("router", 1, |_| {
                fn_bolt(|x: i32, out: &mut Outbox<i32>| out.emit_direct((x % 3) as usize, x))
            })
            .subscribe("src", Grouping::Shuffle)
            .done()
            .bolt("worker", 3, |_| fn_bolt(|_x: i32, _out| {}))
            .subscribe("router", Grouping::Direct)
            .done()
            .build()
            .unwrap();
        let report = run(t).unwrap();
        assert_eq!(report.received_per_task("worker"), vec![3, 3, 3]);
    }

    #[test]
    fn explicit_flush_ships_partial_batch() {
        // A bolt that flushes after every emit produces one batch per message
        // even with a large batch_size configured.
        let t = TopologyBuilder::new()
            .batch_size(64)
            .spout("src", 1, |_| VecSpout::boxed((0..10).collect()))
            .bolt("eager", 1, |_| {
                fn_bolt(|x: i32, out: &mut Outbox<i32>| {
                    out.emit(x);
                    out.flush();
                })
            })
            .subscribe("src", Grouping::Global)
            .done()
            .bolt("sink", 1, |_| fn_bolt(|_x: i32, _out| {}))
            .subscribe("eager", Grouping::Global)
            .done()
            .build()
            .unwrap();
        let report = run(t).unwrap();
        assert_eq!(report.received("sink"), 10);
        assert_eq!(report.batches("eager"), 10);
        assert!((report.avg_batch_size("eager") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_grouping_batched_replicates() {
        let t = TopologyBuilder::new()
            .batch_size(4)
            .spout("src", 1, |_| VecSpout::boxed(vec![7; 10]))
            .bolt("bcast", 3, |_| fn_bolt(|_x: i32, _out| {}))
            .subscribe("src", Grouping::All)
            .done()
            .build()
            .unwrap();
        let report = run(t).unwrap();
        assert_eq!(report.received_per_task("bcast"), vec![10, 10, 10]);
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_export_lists_components_and_edges() {
        let t = TopologyBuilder::new()
            .spout("src", 2, |_| VecSpout::boxed(vec![1]))
            .bolt("work", 3, |_| fn_bolt(|_: i32, _| {}))
            .subscribe("src", Grouping::Shuffle)
            .done()
            .bolt("sink", 1, |_| fn_bolt(|_: i32, _| {}))
            .subscribe("work", Grouping::All)
            .done()
            .build()
            .unwrap();
        let dot = t.to_dot();
        assert!(dot.contains("digraph topology"));
        assert!(dot.contains("\"src\" [shape=doublecircle, label=\"src (x2)\"]"));
        assert!(dot.contains("\"work\" [shape=box"));
        assert!(dot.contains("\"src\" -> \"work\" [label=\"Shuffle\"]"));
        assert!(dot.contains("\"work\" -> \"sink\" [label=\"All\"]"));
        assert!(!dot.contains("style="));
    }
}

#[cfg(test)]
mod busy_tests {
    use super::*;

    #[test]
    fn busy_time_accumulates_for_working_bolts() {
        let t = TopologyBuilder::new()
            .spout("src", 1, |_| VecSpout::boxed((0..200u64).collect()))
            .bolt("worker", 1, |_| {
                fn_bolt(|x: u64, _out: &mut Outbox<u64>| {
                    // A measurable amount of work per message.
                    let mut acc = x;
                    for i in 0..20_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                    }
                    std::hint::black_box(acc);
                })
            })
            .subscribe("src", Grouping::Shuffle)
            .done()
            .build()
            .unwrap();
        let report = run(t).unwrap();
        let worker = report
            .tasks
            .iter()
            .find(|t| t.component == "worker")
            .unwrap();
        assert!(worker.counter("busy_ns") > 0);
        assert_eq!(worker.counter("received"), report.received("worker"));
        assert_eq!(report.received("worker"), 200);
        assert_eq!(report.emitted("src"), 200);
    }
}

/// Processes that host no bolt: the pool has no task, so no worker may be
/// spawned and nothing may wait for one.
#[cfg(test)]
mod no_bolt_tests {
    use super::*;
    use crate::wire::{put_varint, Cursor, WireError};

    #[test]
    fn zero_pooled_tasks_resolve_to_zero_workers() {
        assert_eq!(sched::resolve_workers(0, 0), 0);
        assert_eq!(sched::resolve_workers(8, 0), 0);
        assert_eq!(sched::resolve_workers(8, 3), 3);
        assert_eq!(sched::resolve_workers(2, 3), 2);
        assert!((1..=3).contains(&sched::resolve_workers(0, 3)));
    }

    #[test]
    fn spout_only_topology_runs_to_completion() {
        let t = TopologyBuilder::new()
            .metrics(true)
            .spout("src", 2, |_| {
                Box::new(VecSpout::with_punctuation((0..50u64).collect(), 10))
            })
            .build()
            .unwrap();
        let report = run(t).unwrap();
        // Nothing subscribes, so nothing is delivered — but both tasks ran
        // their streams out, and no pool worker row exists.
        assert_eq!(report.emitted("src"), 0);
        assert_eq!(report.component_counter("src", "puncts"), 10);
        assert!(report.tasks.iter().all(|t| t.component == "src"));
        assert_eq!(report.windows.len(), 5);
    }

    struct U64Codec;

    impl WireCodec<u64> for U64Codec {
        fn encode(&self, msg: &u64, out: &mut Vec<u8>) {
            put_varint(out, *msg);
        }
        fn decode(&self, cur: &mut Cursor) -> Result<u64, WireError> {
            cur.varint()
        }
        fn link(&self) -> Box<dyn WireCodec<u64>> {
            Box::new(U64Codec)
        }
    }

    /// A 2-member group where member 0 hosts only the spout and member 1
    /// only the bolt: one process with no pooled task, one with no spout
    /// thread. Both must start, move every tuple and retire.
    #[test]
    fn group_member_without_a_bolt_runs_to_completion() {
        const N: u64 = 500;
        let dir = std::env::temp_dir().join(format!("ssj-no-bolt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let members: Vec<_> = (0..2)
            .map(|w| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let group = join_group(&GroupSetup {
                        workers: 2,
                        my_worker: w,
                        socket_dir: dir,
                        attempt: 0,
                        topo_fingerprint: 1,
                    })
                    .unwrap();
                    let t = TopologyBuilder::new()
                        .batch_size(16)
                        .spout("src", 1, |_| {
                            Box::new(VecSpout::with_punctuation((0..N).collect(), 100))
                        })
                        .bolt("sink", 1, |_| fn_bolt(|_x: u64, _out| {}))
                        .subscribe("src", Grouping::Shuffle)
                        .done()
                        .build()
                        .unwrap();
                    let place = |c: &str, _task: usize| usize::from(c == "sink");
                    run_distributed(t, Box::new(U64Codec), group, &place).unwrap()
                })
            })
            .collect();
        let reports: Vec<RunReport> = members.into_iter().map(|h| h.join().unwrap()).collect();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(reports[0].emitted("src"), N);
        assert!(reports[0].tasks.iter().all(|t| t.component != "scheduler"));
        assert_eq!(reports[1].received("sink"), N);
        assert_eq!(reports[1].component_counter("sink", "puncts"), 5);
    }
}
