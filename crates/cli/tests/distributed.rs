//! True multi-process scale-out, end to end through the `ssj` binary: a
//! `run --workers 2` process group (leader + one spawned worker talking
//! over Unix sockets) must produce per-window join output byte-identical
//! to the plain single-process run — including when one worker process is
//! killed mid-run and the leader relaunches the group. The output compared
//! is the `--joins-out` file itself, which the reporter's sink writes window
//! by window while the run is going.

use proptest::prelude::*;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ssj")
}

fn out_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ssj-cli-dist-{}-{tag}.txt", std::process::id()))
}

/// `ssj run` over the 600-document, 3-window stream of `seed`.
fn ssj_run(seed: u64, m: usize, workers: usize, joins_out: &str) -> Command {
    let mut cmd = Command::new(bin());
    cmd.args(["run", "--dataset", "rwdata", "--count", "600"])
        .args(["--seed", &seed.to_string()])
        .args(["--m", &m.to_string()])
        .args(["--window", "200", "--creators", "2", "--assigners", "2"])
        .args(["--batch", "16", "--no-metrics"])
        .args(["--workers", &workers.to_string()])
        .args(["--joins-out", joins_out])
        .env_remove("SSJ_KILL_WORKER")
        .stdout(std::process::Stdio::null());
    cmd
}

/// Run it and return the `--joins-out` file exactly as the reporter's sink
/// streamed it — one `w: a-b a-b ...` line per window, in window order —
/// and the run's stderr.
fn run_ssj(seed: u64, m: usize, workers: usize, kill: Option<&str>, tag: &str) -> (String, String) {
    let path = out_path(tag);
    let mut cmd = ssj_run(seed, m, workers, path.to_str().unwrap());
    if let Some(spec) = kill {
        // Scoped to this run only: the spec names one (worker, attempt).
        cmd.env("SSJ_KILL_WORKER", spec);
    }
    let out = cmd.output().expect("launch ssj");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "ssj run failed: {}\n{stderr}",
        out.status
    );
    let joins = std::fs::read_to_string(&path).expect("read joins file");
    let _ = std::fs::remove_file(&path);
    let windows: Vec<&str> = joins
        .split_inclusive('\n')
        .map(|line| line.split_once(':').expect("malformed joins line").0)
        .collect();
    assert_eq!(windows, ["0", "1", "2"], "one line per window, ascending");
    assert!(joins.ends_with('\n'), "last line cut short");
    (joins, stderr)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The §4f acceptance property, through real processes: a 2-process
    /// Unix-socket group run equals the single-process pooled run.
    #[test]
    fn two_process_run_matches_single_process(seed in 0u64..1 << 32, m in 2usize..5) {
        let (solo, _) = run_ssj(seed, m, 1, None, &format!("solo-{seed}-{m}"));
        let (group, _) = run_ssj(seed, m, 2, None, &format!("group-{seed}-{m}"));
        prop_assert!(solo == group, "solo:\n{solo}\ngroup:\n{group}");
    }
}

/// Killing worker 1 on the group's first attempt forces the leader through
/// the peer-disconnect path and a full group relaunch; the recovered run's
/// output must still be byte-identical to the single-process run. The
/// leader names where it resumed: pane `s = max(0, d − (k − 1))` for the
/// first undelivered window `d` and `k = 1` pane per window.
#[test]
fn killed_worker_recovers_with_identical_output() {
    let (solo, _) = run_ssj(99, 3, 1, None, "solo-kill");
    let (group, _) = run_ssj(99, 3, 2, None, "group-nokill");
    let (recovered, log) = run_ssj(99, 3, 2, Some("1:0"), "group-kill");
    assert_eq!(solo, group);
    assert_eq!(
        solo, recovered,
        "a dead attempt's lines survived the relaunch"
    );
    let resumed = log
        .lines()
        .find_map(|l| l.strip_prefix("resumed at pane "))
        .and_then(|l| l.split_once(": the first undelivered window was "))
        .map(|(s, d)| (s.parse::<u64>().unwrap(), d.parse::<u64>().unwrap()));
    let (s, d) = resumed.unwrap_or_else(|| panic!("no resume named: {log}"));
    assert_eq!(s, d.saturating_sub(1 - 1), "{log}");
}

/// `--joins-out` is created before any work, so a path that cannot be
/// created fails the command up front; a write error later (here: a full
/// device) is reported once the run is over — exit 1 and `write <path>`,
/// not a panic inside the reporter and not a silently short file.
#[test]
fn joins_out_failures_are_named_errors() {
    let run = |path: &str| {
        let out = ssj_run(5, 3, 1, path).output().expect("launch ssj");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (code, stderr) = run("/nonexistent-dir/joins.txt");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("error: create /nonexistent-dir/joins.txt"),
        "{stderr}"
    );
    if std::path::Path::new("/dev/full").exists() {
        let (code, stderr) = run("/dev/full");
        assert_eq!(code, Some(1), "{stderr}");
        assert!(stderr.contains("error: write /dev/full"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

/// A `--input` file that ends mid-document, or carries one malformed line,
/// is exit 1 with the offending line named, no panic and no relaunch. The
/// reader's process streams its input, solo or as a 2-process group:
/// `--joins-out` holds exactly the windows that end before the bad line,
/// equal to the same prefix of a clean run, and none after.
#[test]
fn bad_input_fails_after_exactly_the_windows_before_it() {
    let lines: Vec<String> = (0..300)
        .map(|i| format!("{{\"a\":{},\"b\":\"x{}\"}}", i % 5, i % 3))
        .collect();
    let clean = lines.join("\n") + "\n";
    let truncated = format!("{}\n{}", lines.join("\n"), &lines[0][..7]);
    let mut malformed = lines.clone();
    malformed[149] = "{\"a\": 1, oops}".into();
    let malformed = malformed.join("\n") + "\n";
    let run = |tag: &str, text: &str, workers: usize| {
        let (input, joins) = (out_path(&format!("{tag}-input")), out_path(tag));
        std::fs::write(&input, text).expect("write input");
        let out = Command::new(bin())
            .args(["run", "--input", input.to_str().unwrap()])
            .args(["--m", "3", "--window", "100", "--no-metrics"])
            .args(["--workers", &workers.to_string()])
            .args(["--joins-out", joins.to_str().unwrap()])
            .env_remove("SSJ_KILL_WORKER")
            .output()
            .expect("launch ssj");
        let written = std::fs::read_to_string(&joins).unwrap_or_default();
        let _ = std::fs::remove_file(&joins);
        let _ = std::fs::remove_file(&input);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), stderr, written)
    };
    let (code, stderr, reference) = run("clean", &clean, 1);
    assert_eq!(code, Some(0), "{stderr}");
    let reference: Vec<&str> = reference.split_inclusive('\n').collect();
    assert_eq!(reference.len(), 3);
    // The bad line, and the windows wholly before it.
    for (tag, text, line, before) in [
        ("truncated", truncated, 301, 3),
        ("malformed", malformed, 150, 1),
    ] {
        for workers in [1, 2] {
            let (code, stderr, written) = run(&format!("{tag}-{workers}"), &text, workers);
            let case = format!("{tag}, {workers} workers: {stderr}");
            assert_eq!(code, Some(1), "{case}");
            assert!(
                stderr.contains(&format!("line {line}: JSON parse error")),
                "{case}"
            );
            assert!(!stderr.contains("panicked"), "{case}");
            assert!(!stderr.contains("relaunching"), "{case}");
            assert_eq!(written, reference[..before].concat(), "{case}");
        }
    }
}

/// Only the leader reads the input: a group whose `--input` is a pipe
/// (`/dev/stdin`, which the member inherits) produces the solo run's
/// `--joins-out` from the file, which it could not if the member read any
/// of the pipe's bytes.
#[test]
fn only_the_leader_reads_the_input() {
    use std::io::Write;
    let input = out_path("pipe-input");
    let generated = Command::new(bin())
        .args([
            "generate",
            "--dataset",
            "rw",
            "--seed",
            "4",
            "--count",
            "3000",
        ])
        .args(["--out", input.to_str().unwrap()])
        .output()
        .expect("launch ssj");
    assert!(generated.status.success(), "{generated:?}");
    let run = |path: &str, workers: &str, tag: &str| {
        let joins = out_path(tag);
        let mut child = Command::new(bin())
            .args(["run", "--input", path, "--m", "3", "--window", "500"])
            .args(["--no-metrics", "--workers", workers])
            .args(["--joins-out", joins.to_str().unwrap()])
            .env_remove("SSJ_KILL_WORKER")
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("launch ssj");
        let text = std::fs::read(&input).expect("read input");
        let mut stdin = child.stdin.take().unwrap();
        let feed = std::thread::spawn(move || {
            let _ = stdin.write_all(&text);
        });
        let out = child.wait_with_output().expect("wait for ssj");
        feed.join().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{workers} workers: {stderr}");
        let written = std::fs::read_to_string(&joins).expect("read joins file");
        let _ = std::fs::remove_file(&joins);
        written
    };
    let solo = run(input.to_str().unwrap(), "1", "pipe-solo");
    let group = run("/dev/stdin", "2", "pipe-group");
    let _ = std::fs::remove_file(&input);
    assert_eq!(solo.lines().count(), 6);
    assert_eq!(solo, group);
}

/// A solo run streams its input, so its memory does not grow with the
/// stream: `ssj run`'s own `peak rss` line (metrics on) for a 40 k-document
/// rwData stream is at most 1.5x that of the first 4 k documents.
#[test]
fn solo_run_memory_is_bounded_on_a_longer_stream() {
    let peak_mib = |count: usize| {
        let input = out_path(&format!("rss-{count}"));
        let generated = Command::new(bin())
            .args(["generate", "--dataset", "rw", "--seed", "1"])
            .args([
                "--count",
                &count.to_string(),
                "--out",
                input.to_str().unwrap(),
            ])
            .output()
            .expect("launch ssj");
        assert!(generated.status.success(), "{generated:?}");
        let out = Command::new(bin())
            .args(["run", "--input", input.to_str().unwrap()])
            .args([
                "--m",
                "4",
                "--creators",
                "1",
                "--assigners",
                "2",
                "--window",
                "1500",
            ])
            .env_remove("SSJ_KILL_WORKER")
            .output()
            .expect("launch ssj");
        let _ = std::fs::remove_file(&input);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{stdout}");
        let mib = stdout
            .lines()
            .find_map(|l| l.strip_prefix("peak rss "))
            .and_then(|l| l.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok());
        mib.unwrap_or_else(|| panic!("no peak rss line: {stdout}"))
    };
    let (short, long) = (peak_mib(4_000), peak_mib(40_000));
    assert!(long <= 1.5 * short, "peak rss {short} MiB -> {long} MiB");
}

/// `m` is capped at 64 (a partition set is one `u64` mask): `run`,
/// `pipeline` and `partition` reject `--m 65` as they reject `--m 0`, and
/// `route` rejects a saved snapshot whose table claims 2^40 partitions
/// before allocating anything — exit 1 with the error named, never a panic
/// or an abort.
#[test]
fn out_of_range_m_is_a_named_error() {
    let ssj = |args: &[&str]| {
        let out = Command::new(bin())
            .args(args)
            .env_remove("SSJ_KILL_WORKER")
            .output()
            .expect("launch ssj");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        (out.status.code(), stderr)
    };
    for cmd in ["run", "pipeline", "partition"] {
        for m in ["0", "65"] {
            let (code, stderr) = ssj(&[cmd, "--count", "100", "--m", m]);
            assert_eq!(code, Some(1), "{cmd} --m {m}: {stderr}");
            let named = format!("error: m {m} out of range (expected 1..=64)");
            assert!(stderr.contains(&named), "{cmd} --m {m}: {stderr}");
        }
    }
    let snapshot = out_path("snapshot");
    let path = snapshot.to_str().unwrap();
    let (code, stderr) = ssj(&["partition", "--count", "100", "--m", "4", "--save", path]);
    assert_eq!(code, Some(0), "{stderr}");
    let saved = std::fs::read_to_string(&snapshot).expect("read snapshot");
    assert!(saved.contains(r#""table":{"m":4,"#), "{saved}");
    let huge = saved.replace(r#""table":{"m":4,"#, r#""table":{"m":1099511627776,"#);
    std::fs::write(&snapshot, huge).expect("write snapshot");
    let (code, stderr) = ssj(&["route", "--load", path, "--count", "10"]);
    let _ = std::fs::remove_file(&snapshot);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("snapshot table: 'm' 1099511627776 out of range (expected 1..=64)"),
        "{stderr}"
    );
}

/// `ssj run`'s routing line — tables deployed, rebuilds, copies per
/// document, homed share — is a function of the stream: two solo runs and a
/// 2-process group over one file print the same line, with one creator and
/// with two, the second hosted on the member, which interns in its own
/// order; and so do 1 and 8 Assigners. The Reporter judges θ once over each
/// whole pane, and its signal rides the reader's credit and acts at a fixed
/// pane, whatever the threads' timing. `--theta` decides whether anything
/// is rebuilt. The tables are keyed: after the bootstrap pane each document
/// reaches the one joiner of its key tuple, the same one in every process
/// of the group.
#[test]
fn the_routing_line_is_the_same_in_every_run() {
    let input = out_path("routing-input");
    let generated = Command::new(bin())
        .args([
            "generate",
            "--dataset",
            "rwdata",
            "--seed",
            "1",
            "--count",
            "6000",
        ])
        .args(["--out", input.to_str().unwrap()])
        .output()
        .expect("launch ssj");
    assert!(generated.status.success(), "{generated:?}");
    let routing = |args: &[&str]| {
        let out = Command::new(bin())
            .args(["run", "--input", input.to_str().unwrap()])
            .args(["--m", "4", "--window", "300", "--no-metrics"])
            .args(args)
            .env_remove("SSJ_KILL_WORKER")
            .output()
            .expect("launch ssj");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{stdout}");
        let line = stdout.lines().find(|l| l.starts_with("routing: "));
        line.unwrap_or_else(|| panic!("no routing line: {stdout}"))
            .to_owned()
    };
    let run = |workers, creators, assigners| {
        routing(&[
            "--workers",
            workers,
            "--creators",
            creators,
            "--assigners",
            assigners,
        ])
    };
    let theta = |theta, assigners| {
        routing(&[
            "--creators",
            "1",
            "--assigners",
            assigners,
            "--theta",
            theta,
        ])
    };
    let lines = [run("1", "1", "2"), run("1", "1", "2"), run("2", "1", "2")];
    let two = [run("1", "2", "2"), run("2", "2", "2")];
    let assigners = [run("1", "1", "1"), run("1", "1", "8")];
    let eager = [theta("0", "1"), theta("0", "8")];
    let never = theta("10", "1");
    let _ = std::fs::remove_file(&input);
    assert_eq!(lines[0], lines[1], "solo runs differ");
    assert_eq!(lines[0], lines[2], "the group differs");
    assert_eq!(
        two[0], two[1],
        "the group differs with a creator on the member"
    );
    assert_eq!(lines[0], assigners[0], "1 Assigner differs from 2");
    assert_eq!(lines[0], assigners[1], "8 Assigners differ from 2");
    // Not vacuous: the tables route some documents and home others.
    let homed = lines[0].rsplit(' ').next().unwrap();
    assert!(homed != "0.0000" && homed != "1.0000", "{}", lines[0]);
    // Keyed tables: the homed bootstrap pane sends a document to about
    // three joiners, every later one to one.
    let copies = lines[0]
        .split(", ")
        .nth(1)
        .and_then(|c| c.split(' ').next());
    let copies: f64 = copies.unwrap().parse().unwrap();
    assert!((1.0..1.2).contains(&copies), "{}", lines[0]);
    // θ = 0 rebuilds on any degradation, the same at 1 and 8 Assigners;
    // θ = 10 never rebuilds.
    assert!(!eager[0].starts_with("routing: 0 "), "{}", eager[0]);
    assert_eq!(eager[0], eager[1], "--theta 0: 1 Assigner differs from 8");
    assert!(never.starts_with("routing: 0 tables"), "{never}");
}
