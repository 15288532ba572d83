//! Deterministic crash injection and the recovery policy that counters it.
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
//! [`RecoveryPolicy`] configures the supervisor in the executor: bounded
//! retry-with-backoff restarts from the last window-aligned
//! [`Bolt::snapshot`](crate::Bolt::snapshot). A task that runs out of
//! retries fails the run with
//! [`RunError::TaskPanicked`](crate::RunError::TaskPanicked), exactly like an
//! unsupervised panic: a window is either exact or the run ends in an error.

use std::cell::Cell;
use std::panic;
use std::sync::Once;
use std::time::Duration;

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
    /// `false` fires once ever (surviving restarts and replay); `true`
    /// re-fires every time the coordinate is reached — a repeating crash
    /// re-kills the task during replay and exhausts its retries.
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

    /// Arm a one-shot crash (fires once, never again — including during
    /// replay after the restart it causes).
    pub fn crash(self, component: &str, task: usize, window: u64, tuple: u64) -> Self {
        self.arm(component, task, window, tuple, false)
    }

    /// Arm a crash that re-fires every time its coordinate is reached;
    /// replay re-hits the coordinate, so this exhausts the retry budget.
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

    /// Extract the crashes aimed at one task, as runtime-armed state.
    pub(crate) fn for_task(&self, component: &str, task: usize) -> TaskFaults {
        TaskFaults {
            armed: self
                .specs
                .iter()
                .filter(|s| s.component == component && s.task == task)
                .map(|s| ArmedFault {
                    window: s.window,
                    tuple: s.tuple,
                    repeat: s.repeat,
                    fired: false,
                })
                .collect(),
        }
    }
}

/// How the executor supervises tasks and reacts to failures.
///
/// The default policy is inert: no retries — a panicking bolt kills the run
/// exactly as it did before supervision existed, and the hot path pays
/// nothing.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Restarts granted per task before the failure is terminal.
    pub retries: u32,
    /// Base backoff slept before restart attempt `n` (scaled `2^(n-1)`,
    /// capped at 64x).
    pub backoff: Duration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            retries: 0,
            backoff: Duration::from_millis(20),
        }
    }
}

impl RecoveryPolicy {
    /// The inert default policy (no supervision).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the per-task restart budget.
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Set the base restart backoff.
    pub fn backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// True when supervised restarts are switched on.
    pub(crate) fn armed(&self) -> bool {
        self.retries > 0
    }

    /// Backoff before restart attempt `attempt` (1-based), exponentially
    /// scaled and capped at 64x the base.
    pub(crate) fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(6);
        self.backoff.saturating_mul(factor)
    }
}

#[derive(Debug, Clone)]
struct ArmedFault {
    window: u64,
    tuple: u64,
    repeat: bool,
    fired: bool,
}

/// The crashes armed against one task.
#[derive(Debug, Clone, Default)]
pub(crate) struct TaskFaults {
    armed: Vec<ArmedFault>,
}

impl TaskFaults {
    pub(crate) fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// Consult the plan for a data envelope spanning tuple coordinates
    /// `[first_tuple, first_tuple + count)` of window `window`: `true` when
    /// a crash fires on it.
    pub(crate) fn on_data(&mut self, window: u64, first_tuple: u64, count: u64) -> bool {
        let hit = self.armed.iter_mut().find(|f| {
            (f.repeat || !f.fired)
                && f.window == window
                && f.tuple >= first_tuple
                && f.tuple < first_tuple + count
        });
        match hit {
            Some(f) => {
                f.fired = true;
                true
            }
            None => false,
        }
    }
}

/// Panic payload used for injected crashes, so supervisors and tests can
/// tell an injected fault from an organic bolt bug.
#[derive(Debug, Clone)]
pub struct FaultPanic {
    /// Component the fault was armed against.
    pub component: String,
    /// Task index within the component.
    pub task: usize,
    /// Window coordinate the crash fired at.
    pub window: u64,
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Run `f` with the default panic message suppressed on this thread —
/// used around `catch_unwind` when the supervisor *will* handle the
/// unwind, so injected crashes don't spray backtraces over test output.
/// Unhandled panics (no retries left) are not wrapped and print exactly as
/// before.
pub(crate) fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            QUIET_PANICS.with(|q| q.set(false));
        }
    }
    QUIET_PANICS.with(|q| q.set(true));
    let _reset = Reset;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_fault_fires_once() {
        let plan = FaultPlan::new().crash("b", 0, 1, 3);
        let mut tf = plan.for_task("b", 0);
        assert!(!tf.on_data(0, 3, 1));
        assert!(!tf.on_data(1, 0, 3));
        assert!(tf.on_data(1, 3, 1));
        assert!(!tf.on_data(1, 3, 1));
    }

    #[test]
    fn batch_envelope_fires_when_coordinate_inside_range() {
        let plan = FaultPlan::new().crash("b", 2, 0, 10);
        let mut tf = plan.for_task("b", 2);
        assert!(!tf.on_data(0, 0, 10));
        assert!(tf.on_data(0, 10, 64));
    }

    #[test]
    fn repeating_fault_refires() {
        let plan = FaultPlan::new().crash_repeating("b", 0, 0, 0);
        let mut tf = plan.for_task("b", 0);
        assert!(tf.on_data(0, 0, 1));
        assert!(tf.on_data(0, 0, 1));
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

    #[test]
    fn backoff_scales_exponentially_with_cap() {
        let p = RecoveryPolicy::new().backoff(Duration::from_millis(10));
        assert_eq!(p.backoff_for(1), Duration::from_millis(10));
        assert_eq!(p.backoff_for(2), Duration::from_millis(20));
        assert_eq!(p.backoff_for(4), Duration::from_millis(80));
        assert_eq!(p.backoff_for(40), Duration::from_millis(640));
    }

    #[test]
    fn default_policy_is_inert() {
        let p = RecoveryPolicy::default();
        assert!(!p.armed());
        assert!(RecoveryPolicy::new().retries(1).armed());
    }
}
