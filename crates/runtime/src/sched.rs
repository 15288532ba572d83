//! The work-stealing scheduler (DESIGN.md §4e): a fixed set of optionally
//! core-pinned worker threads cooperatively scheduling every bolt task, so
//! `m ≫ cores` joiners run without one-OS-thread-per-task
//! oversubscription.
//!
//! Architecture:
//! * Each worker owns a FIFO deque of ready task ids; a shared injector
//!   receives tasks made ready by *other* threads (producers notifying
//!   their targets, the initial seeding). A worker pops its own deque
//!   first, then steals from the injector, then from sibling deques.
//! * A task is a type-erased [`TaskStep`]: one `step()` drains up to
//!   [`TICK_BUDGET`] envelopes via non-blocking receives and reports
//!   whether it is out of input (`Idle`), out of budget (`More`), or
//!   retired (`Done`).
//! * Readiness is edge-triggered: every successful envelope send notifies
//!   the receiving task through [`Hub::notify`]. A per-task state machine
//!   (`IDLE → QUEUED → RUNNING → …`) makes the notify/park handshake
//!   lossless — a notification landing *while* the task runs flips it to
//!   `RUNNING_NOTIFIED`, which requeues it instead of idling it, so an
//!   envelope arriving just after the task saw an empty channel is never
//!   stranded.
//! * Workers with no runnable task park on a per-worker condvar after
//!   registering in a sleeper list and re-checking the injector (the
//!   re-check closes the register/notify race). A notify pushes work
//!   *first*, then wakes one sleeper.
//!
//! The scheduler publishes a `scheduler_*` counter family (steals, parks,
//! wakeups) plus a queue-depth gauge per worker, registered in the run's
//! metrics registry under the `scheduler` component.

use crate::metrics::TaskInstruments;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Envelopes one task may drain per scheduling quantum before yielding the
/// worker. Large enough to amortize dispatch, small enough that a flooded
/// joiner cannot starve its siblings.
pub(crate) const TICK_BUDGET: usize = 256;

/// A cooperatively scheduled task, type-erased over the topology's message
/// type.
pub(crate) trait TaskStep: Send {
    /// Run one scheduling quantum.
    fn step(&mut self) -> StepOutcome;
}

/// What a [`TaskStep::step`] call reports back to its worker.
pub(crate) enum StepOutcome {
    /// Input exhausted: park until an upstream notification requeues us.
    Idle,
    /// Budget exhausted with input remaining: requeue immediately.
    More,
    /// Retired: EOS propagation is complete, drop the task.
    Done,
}

// Per-task scheduling states. Only the worker that moved a task to RUNNING
// may move it out; producers may only flip IDLE→QUEUED (enqueueing it) or
// RUNNING→RUNNING_NOTIFIED (demanding a requeue after the current step).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// Naming convention shared by every runtime service thread (pool workers,
/// the metrics collector): `ssj-sched-<role>-<index>`.
pub(crate) fn thread_name(role: &str, idx: usize) -> String {
    format!("ssj-sched-{role}-{idx}")
}

struct Parker {
    flag: Mutex<bool>,
    cv: Condvar,
}

/// Shared scheduler state: task state machines, bodies, the injector, and
/// the parking protocol. Producers hold it (via their outboxes) to notify
/// targets; workers hold it to claim and run tasks.
pub(crate) struct Hub {
    /// Per global task: scheduling state (see the `const` states above).
    states: Vec<AtomicU8>,
    /// Per global task: scheduled on the pool (a bolt hosted by this
    /// process)? Spouts never receive and remote tasks are notified on
    /// their own process's hub, so notifications to them are no-ops.
    pooled: Vec<bool>,
    /// Per global task: the type-erased body, present while live. The state
    /// machine gives the claiming worker exclusive access, so the mutex is
    /// uncontended after installation.
    bodies: Vec<Mutex<Option<Box<dyn TaskStep>>>>,
    /// Per global task: `component[task]` label for panic reporting.
    labels: Vec<String>,
    /// Per global task: downstream global ids,
    /// nudged when the task retires so its dropped senders are observed
    /// without a blocking receive.
    downstream: Vec<Vec<usize>>,
    /// Ready tasks queued by non-worker threads (and the initial seeding).
    injector: Injector<usize>,
    /// Worker ids currently parked (registration order).
    sleepers: Mutex<Vec<usize>>,
    parkers: Vec<Parker>,
    /// Pool-scheduled tasks not yet DONE; the pool shuts down at zero.
    live: AtomicUsize,
    shutdown: AtomicBool,
    /// A task panicked: the run is over, every task stops at its next step.
    aborted: AtomicBool,
    /// `(global, label)` of pooled tasks whose step panicked terminally.
    panicked: Mutex<Vec<(usize, String)>>,
}

impl Hub {
    pub(crate) fn new(
        pooled: Vec<bool>,
        downstream: Vec<Vec<usize>>,
        labels: Vec<String>,
        workers: usize,
    ) -> Hub {
        let total = pooled.len();
        let live = pooled.iter().filter(|&&p| p).count();
        Hub {
            states: (0..total).map(|_| AtomicU8::new(IDLE)).collect(),
            pooled,
            bodies: (0..total).map(|_| Mutex::new(None)).collect(),
            labels,
            downstream,
            injector: Injector::new(),
            sleepers: Mutex::new(Vec::new()),
            parkers: (0..workers)
                .map(|_| Parker {
                    flag: Mutex::new(false),
                    cv: Condvar::new(),
                })
                .collect(),
            live: AtomicUsize::new(live),
            shutdown: AtomicBool::new(live == 0),
            aborted: AtomicBool::new(false),
            panicked: Mutex::new(Vec::new()),
        }
    }

    /// Install a pooled task's body; it stays parked until [`Hub::seed`]
    /// or a notification queues it.
    pub(crate) fn install(&self, global: usize, body: Box<dyn TaskStep>) {
        *self.bodies[global].lock().unwrap() = Some(body);
    }

    /// Queue every pooled task once so each gets an initial step (a task
    /// whose input is already waiting starts immediately; the rest park).
    pub(crate) fn seed(&self) {
        for g in 0..self.pooled.len() {
            if self.pooled[g] {
                self.notify(g);
            }
        }
    }

    /// Edge-triggered readiness: called by producers after every successful
    /// envelope send to `global`, and on upstream retirement. Lossless by
    /// construction: a task in RUNNING is flipped to RUNNING_NOTIFIED so
    /// its worker requeues it instead of idling it.
    pub(crate) fn notify(&self, global: usize) {
        if !self.pooled[global] {
            return;
        }
        let state = &self.states[global];
        loop {
            match state.compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.injector.push(global);
                    self.wake_one();
                    return;
                }
                Err(RUNNING) => {
                    if state
                        .compare_exchange(
                            RUNNING,
                            RUNNING_NOTIFIED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return;
                    }
                    // Raced with the worker releasing the task; retry.
                }
                Err(QUEUED) | Err(RUNNING_NOTIFIED) | Err(DONE) => return,
                Err(_) => unreachable!("invalid scheduler task state"),
            }
        }
    }

    /// A spout thread exited: nudge its pooled downstream so they observe
    /// the channel disconnect.
    pub(crate) fn retire_external(&self, global: usize) {
        for &d in &self.downstream[global] {
            self.notify(d);
        }
    }

    /// End the run early (a task panicked, a peer died): every pooled task
    /// is queued once more and retires at that step, and spouts stop
    /// reading. No window closes after it that had not closed before.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        self.seed();
    }

    /// The run was aborted.
    pub(crate) fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Labels of pooled tasks that panicked, in global task order.
    pub(crate) fn panicked_labels(&self) -> Vec<(usize, String)> {
        let mut v = self.panicked.lock().unwrap().clone();
        v.sort();
        v
    }

    fn wake_one(&self) {
        let Some(w) = self.sleepers.lock().unwrap().pop() else {
            return;
        };
        let mut flag = self.parkers[w].flag.lock().unwrap();
        *flag = true;
        self.parkers[w].cv.notify_one();
    }

    fn wake_all(&self) {
        let sleeping: Vec<usize> = std::mem::take(&mut *self.sleepers.lock().unwrap());
        for w in sleeping {
            let mut flag = self.parkers[w].flag.lock().unwrap();
            *flag = true;
            self.parkers[w].cv.notify_one();
        }
    }

    /// Park worker `w` until notified. Registers in the sleeper list first,
    /// then re-checks the injector: a notification that pushed before the
    /// registration found no sleeper to wake, so the re-check is what keeps
    /// the handshake lossless.
    fn park(&self, w: usize) {
        {
            let mut sleeping = self.sleepers.lock().unwrap();
            *self.parkers[w].flag.lock().unwrap() = false;
            sleeping.push(w);
        }
        if !self.injector.is_empty() || self.shutdown.load(Ordering::Acquire) {
            self.sleepers.lock().unwrap().retain(|&s| s != w);
            return;
        }
        let mut flag = self.parkers[w].flag.lock().unwrap();
        while !*flag {
            flag = self.parkers[w].cv.wait(flag).unwrap();
        }
    }

    /// A pooled task retired (or panicked): notify its downstream, and shut
    /// the pool down when it was the last one.
    fn task_done(&self, global: usize) {
        for &d in &self.downstream[global] {
            self.notify(d);
        }
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shutdown.store(true, Ordering::Release);
            self.wake_all();
        }
    }
}

/// CPU affinity via a direct `pthread_setaffinity_np` declaration (glibc is
/// already linked through std, so no extra dependency is needed). No-op on
/// non-Linux targets.
#[cfg(target_os = "linux")]
mod affinity {
    #[repr(C)]
    struct CpuSet {
        // Matches glibc's cpu_set_t: 1024 bits.
        bits: [u64; 16],
    }

    extern "C" {
        fn pthread_self() -> usize;
        fn pthread_setaffinity_np(thread: usize, cpusetsize: usize, cpuset: *const CpuSet) -> i32;
    }

    /// Pin the calling thread to `cpu`; returns whether the kernel accepted.
    pub(super) fn pin_current(cpu: usize) -> bool {
        let mut set = CpuSet { bits: [0; 16] };
        set.bits[(cpu / 64) % 16] |= 1 << (cpu % 64);
        // SAFETY: `set` is a properly initialized glibc-layout cpu_set_t and
        // outlives the call; pinning the calling thread has no memory-safety
        // implications.
        unsafe { pthread_setaffinity_np(pthread_self(), std::mem::size_of::<CpuSet>(), &set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub(super) fn pin_current(_cpu: usize) -> bool {
        false
    }
}

/// Resolve a requested worker count: 0 means auto (the machine's available
/// parallelism); the result is capped at the number of pooled tasks so
/// tiny topologies don't spawn idle workers — a process that hosts no bolt
/// gets no worker at all.
pub(crate) fn resolve_workers(requested: usize, pooled_tasks: usize) -> usize {
    let auto = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let n = if requested == 0 { auto } else { requested };
    n.min(pooled_tasks)
}

/// Spawn the worker pool. `insts[w]` is worker `w`'s instrument set for the
/// `scheduler_*` counter family; `pin_cores` pins worker `w` to core
/// `w % cores`. Callers must [`Hub::seed`] first and join the returned
/// handles; panicked pooled tasks are reported via [`Hub::panicked_labels`].
pub(crate) fn spawn_pool(
    hub: &Arc<Hub>,
    workers: usize,
    pin_cores: bool,
    insts: Vec<Arc<TaskInstruments>>,
) -> Vec<std::thread::JoinHandle<()>> {
    debug_assert_eq!(insts.len(), workers);
    let locals: Vec<Worker<usize>> = (0..workers).map(|_| Worker::new_fifo()).collect();
    let stealers: Arc<Vec<Stealer<usize>>> = Arc::new(locals.iter().map(Worker::stealer).collect());
    locals
        .into_iter()
        .zip(insts)
        .enumerate()
        .map(|(w, (local, inst))| {
            let hub = Arc::clone(hub);
            let stealers = Arc::clone(&stealers);
            std::thread::Builder::new()
                .name(thread_name("worker", w))
                .spawn(move || worker_loop(&hub, w, local, &stealers, &inst, pin_cores))
                .expect("spawn pool worker thread")
        })
        .collect()
}

fn worker_loop(
    hub: &Hub,
    w: usize,
    local: Worker<usize>,
    stealers: &[Stealer<usize>],
    inst: &TaskInstruments,
    pin_cores: bool,
) {
    if pin_cores {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        if !affinity::pin_current(w % cores) {
            inst.counter("scheduler_pin_failures").inc();
        }
    }
    let steals = inst.counter("scheduler_steals");
    let parks = inst.counter("scheduler_parks");
    let wakeups = inst.counter("scheduler_wakeups");
    loop {
        if hub.shutdown.load(Ordering::Acquire) {
            break;
        }
        let task = local.pop().or_else(|| {
            // Out of local work: steal from the injector, then siblings.
            loop {
                match hub.injector.steal() {
                    Steal::Success(t) => {
                        steals.inc();
                        return Some(t);
                    }
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
            for (s, stealer) in stealers.iter().enumerate() {
                if s == w {
                    continue;
                }
                loop {
                    match stealer.steal() {
                        Steal::Success(t) => {
                            steals.inc();
                            return Some(t);
                        }
                        Steal::Retry => continue,
                        Steal::Empty => break,
                    }
                }
            }
            None
        });
        match task {
            Some(t) => run_one(hub, t, &local),
            None => {
                inst.queue_depth_gauge().set(hub.injector.len() as i64);
                parks.inc();
                hub.park(w);
                wakeups.inc();
            }
        }
    }
}

/// Claim task `t`, run one step, and resolve its post-step state. A panic
/// unwinding out of a step ends the run: the body is dropped (disconnecting
/// its channels), the label recorded for [`crate::RunError::TaskPanicked`],
/// and the hub aborted.
fn run_one(hub: &Hub, t: usize, local: &Worker<usize>) {
    if hub.states[t]
        .compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        // Stale queue entry (task retired since); nothing to run.
        return;
    }
    let Some(mut body) = hub.bodies[t].lock().unwrap().take() else {
        hub.states[t].store(DONE, Ordering::Release);
        return;
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| body.step()));
    match outcome {
        Ok(StepOutcome::Idle) => {
            *hub.bodies[t].lock().unwrap() = Some(body);
            if hub.states[t]
                .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // Notified while running: an envelope landed after the step
                // saw empty channels. Requeue so it is not stranded.
                hub.states[t].store(QUEUED, Ordering::Release);
                local.push(t);
            }
        }
        Ok(StepOutcome::More) => {
            *hub.bodies[t].lock().unwrap() = Some(body);
            hub.states[t].store(QUEUED, Ordering::Release);
            local.push(t);
            // Siblings may be parked while this worker is saturated.
            hub.wake_one();
        }
        Ok(StepOutcome::Done) => {
            hub.states[t].store(DONE, Ordering::Release);
            // Drop the body *before* notifying downstream: its outbox (the
            // only senders to the targets) must disconnect first.
            drop(body);
            hub.task_done(t);
        }
        Err(_) => {
            hub.states[t].store(DONE, Ordering::Release);
            drop(body);
            hub.panicked
                .lock()
                .unwrap()
                .push((t, hub.labels[t].clone()));
            hub.abort();
            hub.task_done(t);
        }
    }
}
