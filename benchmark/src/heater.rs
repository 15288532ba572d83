//! Keeping the machine in one performance state while the benchmark runs.
//!
//! On the 2-core reference VM the same `ssj run` takes 1.0 s when the cores
//! were busy just before and 1.35–1.55 s after a few seconds of partial
//! idleness: the host parks or down-clocks virtual CPUs that look idle, and
//! takes seconds of full load to undo it. The benchmark alternates busy
//! phases (children back to back) with deliberately half-idle ones (the
//! open-loop run sleeps between arrivals), so without a counter-measure each
//! number depends on what ran before it — measured as a 6–9 % quartile
//! spread on throughput and 12–22 % on close latency between identical runs.
//!
//! The counter-measure: one spinning thread per core at `SCHED_IDLE`, the
//! Linux policy that only ever gets cycles nobody else wants and is preempted
//! the moment any normal thread wakes. The cores never look idle to the host;
//! the program under test still gets every cycle it asks for (measured cost:
//! ~3 % on throughput, spread down to ~2 %). The numbers are therefore those
//! of a machine that is not power-managed underneath the program, which is
//! the steady state a loaded server is in anyway.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

const SCHED_IDLE: i32 = 5;

pub struct Heaters {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Heaters {
    /// One idle-priority spinner per available core. If the policy cannot
    /// be set the spinner exits at once — a normal-priority spinner would
    /// steal the cycles it is meant to keep warm.
    pub fn start() -> Heaters {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: plain syscall on the calling thread (pid 0)
                    // with a valid pointer to a live, correctly laid out
                    // `sched_param`.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        eprintln!(
                            "warning: SCHED_IDLE refused ({}); running without heaters",
                            std::io::Error::last_os_error()
                        );
                        return;
                    }
                    // Relaxed: the flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Heaters { stop, threads }
    }
}

impl Drop for Heaters {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A spinner cannot panic; nothing to report either way.
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heaters_start_and_stop() {
        let h = Heaters::start();
        assert!(!h.threads.is_empty());
        drop(h); // joins every spinner: returns only once they have stopped
    }
}
