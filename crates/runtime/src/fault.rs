//! Deterministic crash injection.
//!
//! A [`FaultPlan`] is attached to a topology via
//! [`TopologyBuilder::fault_plan`](crate::TopologyBuilder::fault_plan) and
//! crashes tasks at *logical coordinates* of a task's input stream — never
//! from a clock. A coordinate is `(component, task, window, tuple)` where
//! `window` counts punctuation alignments the task has completed and
//! `tuple` counts data tuples of that window. A data envelope is
//! attributed to the window it will be *delivered* in — the alignment
//! count plus the unaligned punctuations of the envelope's own upstream —
//! so a fast edge running ahead of a slow one cannot shift tuples across
//! windows. With a single upstream the mapping from coordinate to document
//! is exact; with several upstreams the arrival interleaving picks which
//! document of the window the coordinate lands on, but whether a
//! coordinate *fires* depends only on the per-window tuple totals (same
//! plan, same logical position — no wall clock, no randomness at runtime).
//! [`FaultPlan::crash_somewhere`] derives a coordinate from a seed so
//! property tests can sweep crash sites.
//!
//! A crash is a panic with a [`FaultPanic`] payload: the task dies, the run
//! stops and ends in [`RunError::TaskPanicked`](crate::RunError::TaskPanicked),
//! like any panic. The runtime recovers nothing itself; a driver that
//! re-runs a failed topology (`ssj-core` resumes it at its first undelivered
//! window) asks [`FaultPlan::for_attempt`] which crashes its next attempt
//! meets.

use std::collections::HashMap;
use std::panic;
use std::sync::Once;

/// A single armed crash at a task-local stream coordinate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Component name the fault targets.
    pub component: String,
    /// Task index within the component.
    pub task: usize,
    /// Window coordinate: number of completed punctuation alignments.
    pub window: u64,
    /// Tuple coordinate: data tuples of the window, counted in receive
    /// order. The crash fires on the envelope *containing* this tuple (a
    /// micro-batch fires as a unit).
    pub tuple: u64,
    /// `false` fires in a run's first attempt only; `true` in every
    /// attempt, so a driver that re-runs the topology runs out of attempts.
    pub repeat: bool,
}

/// A deterministic schedule of crashes for one topology run.
///
/// ```
/// use ssj_runtime::FaultPlan;
/// let plan = FaultPlan::new()
///     .crash("joiner", 1, 0, 7)
///     .crash_repeating("merger", 0, 1, 3);
/// assert_eq!(plan.specs().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    fn arm(mut self, component: &str, task: usize, window: u64, tuple: u64, repeat: bool) -> Self {
        self.specs.push(FaultSpec {
            component: component.to_string(),
            task,
            window,
            tuple,
            repeat,
        });
        self
    }

    /// Arm a one-shot crash: it fires in the first attempt of a run only.
    pub fn crash(self, component: &str, task: usize, window: u64, tuple: u64) -> Self {
        self.arm(component, task, window, tuple, false)
    }

    /// Arm a crash that fires in every attempt of a run, so it exhausts a
    /// driver's attempts.
    pub fn crash_repeating(self, component: &str, task: usize, window: u64, tuple: u64) -> Self {
        self.arm(component, task, window, tuple, true)
    }

    /// Arm a one-shot crash at a pseudorandom coordinate derived from
    /// `seed` (splitmix64): task in `0..parallelism`, window in
    /// `0..windows`, tuple in `0..tuples_per_window`. Same seed, same
    /// coordinate — handy for seeded chaos sweeps.
    pub fn crash_somewhere(
        self,
        component: &str,
        parallelism: usize,
        windows: u64,
        tuples_per_window: u64,
        seed: u64,
    ) -> Self {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let task = (next() % parallelism.max(1) as u64) as usize;
        let window = next() % windows.max(1);
        let tuple = next() % tuples_per_window.max(1);
        self.crash(component, task, window, tuple)
    }

    /// All armed crash specs, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The plan attempt `attempt` of a re-run topology meets: every crash
    /// in attempt 0, the repeating ones after. A coordinate is local to the
    /// attempt (its windows count from the attempt's first punctuation).
    pub fn for_attempt(&self, attempt: u32) -> FaultPlan {
        FaultPlan {
            specs: self
                .specs
                .iter()
                .filter(|s| attempt == 0 || s.repeat)
                .cloned()
                .collect(),
        }
    }

    /// Extract the crashes aimed at one task, as runtime-armed state.
    pub(crate) fn for_task(&self, component: &str, task: usize) -> TaskFaults {
        TaskFaults {
            armed: self
                .specs
                .iter()
                .filter(|s| s.component == component && s.task == task)
                .map(|s| (s.window, s.tuple))
                .collect(),
            tuples_at: HashMap::new(),
        }
    }
}

/// The crashes armed against one task, as `(window, tuple)`, and the
/// task's crash clock: data tuples counted per window they are delivered in.
pub(crate) struct TaskFaults {
    armed: Vec<(u64, u64)>,
    tuples_at: HashMap<u64, u64>,
}

impl TaskFaults {
    pub(crate) fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// Count a data envelope of `count` tuples delivered in window `window`,
    /// once `closed` windows have closed (earlier counts are dropped):
    /// `true` when an armed crash fires on it.
    pub(crate) fn on_data(&mut self, closed: u64, window: u64, count: u64) -> bool {
        self.tuples_at.retain(|&w, _| w >= closed);
        let tuple = self.tuples_at.entry(window).or_insert(0);
        let first = std::mem::replace(tuple, *tuple + count);
        self.armed
            .iter()
            .any(|&(w, t)| w == window && (first..first + count).contains(&t))
    }
}

/// Panic payload used for injected crashes, so tests can tell an injected
/// fault from an organic bolt bug.
#[derive(Debug, Clone)]
pub struct FaultPanic {
    /// Component the fault was armed against.
    pub component: String,
    /// Task index within the component.
    pub task: usize,
    /// Window coordinate the crash fired at.
    pub window: u64,
}

static HOOK: Once = Once::new();

/// Fire an injected crash: unwind with `payload`. The default panic message
/// is left out (the run names the task in its `TaskPanicked`); any other
/// panic prints as before.
pub(crate) fn crash(payload: FaultPanic) -> ! {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<FaultPanic>() {
                prev(info);
            }
        }));
    });
    panic::panic_any(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_coordinate_fires_on_its_tuple_of_its_window() {
        let plan = FaultPlan::new().crash("b", 0, 1, 3);
        let mut tf = plan.for_task("b", 0);
        assert!(!tf.on_data(0, 0, 4));
        assert!(!tf.on_data(1, 1, 3));
        assert!(tf.on_data(1, 1, 1));
        assert!(!tf.on_data(1, 1, 1));
    }

    #[test]
    fn batch_envelope_fires_when_coordinate_inside_range() {
        let plan = FaultPlan::new().crash("b", 2, 0, 10);
        let mut tf = plan.for_task("b", 2);
        assert!(!tf.on_data(0, 0, 10));
        assert!(tf.on_data(0, 0, 64));
    }

    #[test]
    fn later_attempts_meet_only_repeating_crashes() {
        let plan = FaultPlan::new()
            .crash("b", 0, 0, 0)
            .crash_repeating("c", 0, 1, 2);
        assert_eq!(plan.for_attempt(0).specs(), plan.specs());
        for attempt in 1..3 {
            let later = plan.for_attempt(attempt);
            assert_eq!(later.specs().len(), 1);
            assert_eq!(later.specs()[0].component, "c");
        }
    }

    #[test]
    fn faults_filtered_per_task() {
        let plan = FaultPlan::new().crash("b", 1, 0, 0).crash("c", 0, 0, 0);
        assert!(plan.for_task("b", 0).is_empty());
        assert!(!plan.for_task("b", 1).is_empty());
        assert!(!plan.for_task("c", 0).is_empty());
        assert!(plan.for_task("other", 0).is_empty());
    }

    #[test]
    fn crash_somewhere_is_seed_deterministic() {
        let a = FaultPlan::new().crash_somewhere("j", 4, 3, 100, 42);
        let b = FaultPlan::new().crash_somewhere("j", 4, 3, 100, 42);
        let c = FaultPlan::new().crash_somewhere("j", 4, 3, 100, 43);
        assert_eq!(a.specs()[0].task, b.specs()[0].task);
        assert_eq!(a.specs()[0].window, b.specs()[0].window);
        assert_eq!(a.specs()[0].tuple, b.specs()[0].tuple);
        let same = a.specs()[0].task == c.specs()[0].task
            && a.specs()[0].window == c.specs()[0].window
            && a.specs()[0].tuple == c.specs()[0].tuple;
        assert!(!same, "different seeds should move the crash site");
    }
}
