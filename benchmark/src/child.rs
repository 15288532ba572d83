//! Running the real `ssj` binary as a child process and accounting for it.
//!
//! Wall time runs from just before `spawn` to the return of `wait4`, so
//! loading, the topology, the `--joins-out` write and teardown all count.
//! CPU time comes from the `rusage` that `wait4` fills in: user plus system
//! time of the child *and every descendant it waited for* (the worker
//! processes of `--workers N`).
//!
//! Peak RSS does **not** come from that `rusage`: on Linux a spawned child's
//! `ru_maxrss` starts at the resident set of the process that spawned it, and
//! the benchmark (which holds the whole stream in memory) is larger than the
//! program it measures. When asked to, the watchdog thread samples `VmHWM` of
//! `/proc/<pid>/status` every 10 ms instead; the value is a high-water mark,
//! so the last sample before exit is the peak to within one tick. It covers
//! the spawned process only — the group leader of a `--workers N` run.

use std::io;
use std::os::unix::process::CommandExt;
use std::process::Command;
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the hand-declared rusage layout below is 64-bit Linux only");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs
/// (`ru_maxrss` first) that are not read here.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// What one child run cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildRun {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Sampled `VmHWM` of the child in KiB; 0 unless sampling was asked for.
    pub peak_rss_kb: u64,
    /// Exited by itself with status 0 (not killed, not timed out).
    pub ok: bool,
}

const RSS_TICK: Duration = Duration::from_millis(10);

fn vm_hwm_kb(pid: i32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Spawn `cmd` in its own process group, wait for it, and kill the whole
/// group if it outlives `timeout`. Returns only after the child has been
/// reaped; on a timeout the group has been sent SIGKILL first. With
/// `sample_rss` the child's peak RSS is sampled while it runs — off for
/// timed repetitions, which should not be poked at every 10 ms.
pub fn run_child(cmd: &mut Command, timeout: Duration, sample_rss: bool) -> io::Result<ChildRun> {
    cmd.process_group(0);
    let t0 = Instant::now();
    let child = cmd.spawn()?;
    let pid = child.id() as i32;

    let (done_tx, done_rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        let mut peak_kb = 0u64;
        loop {
            let left = timeout.saturating_sub(t0.elapsed());
            let tick = if sample_rss { RSS_TICK.min(left) } else { left };
            match done_rx.recv_timeout(tick) {
                Err(mpsc::RecvTimeoutError::Timeout) if left > tick => {
                    peak_kb = peak_kb.max(vm_hwm_kb(pid).unwrap_or(0));
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // SAFETY: plain syscall; a negative pid addresses the
                    // process group created above. Should the leader have
                    // been reaped a moment ago, the group is gone and the
                    // call fails with ESRCH, harmlessly.
                    unsafe { kill(-pid, SIGKILL) };
                    return peak_kb;
                }
                _ => return peak_kb,
            }
        }
    });

    let mut status = 0i32;
    let mut ru = RUsage::default();
    let reaped = loop {
        // SAFETY: `status` and `ru` are live, writable and correctly laid
        // out for the 64-bit Linux ABI (checked by the compile_error above);
        // `pid` is our own un-reaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == -1 && io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
            continue;
        }
        break r;
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let wait_error = (reaped != pid).then(io::Error::last_os_error);
    // The child is reaped (or was never ours): release the watchdog.
    let _ = done_tx.send(());
    let peak_rss_kb = watchdog.join().expect("watchdog thread panicked");
    if let Some(e) = wait_error {
        return Err(e);
    }

    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(ChildRun {
        wall_s,
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_kb,
        ok: status == 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_status_and_usage() {
        let ok = run_child(
            Command::new("true").arg("x"),
            Duration::from_secs(30),
            false,
        )
        .unwrap();
        assert!(ok.ok);
        assert!(ok.wall_s > 0.0);
        assert_eq!(ok.peak_rss_kb, 0, "not sampled");
        let bad = run_child(&mut Command::new("false"), Duration::from_secs(30), false).unwrap();
        assert!(!bad.ok);
        let sampled = run_child(
            Command::new("sleep").arg("0.2"),
            Duration::from_secs(30),
            true,
        )
        .unwrap();
        assert!(sampled.ok && sampled.peak_rss_kb > 0);
    }

    #[test]
    fn timeout_kills_the_group_and_reaps() {
        let run = run_child(
            Command::new("sh").args(["-c", "sleep 30 & sleep 30"]),
            Duration::from_millis(200),
            true,
        )
        .unwrap();
        assert!(!run.ok);
        assert!(run.wall_s < 10.0, "killed promptly, took {}", run.wall_s);
    }
}
