//! `ssj-benchmark`: end-to-end and per-layer benchmark of `ssj run`.
//!
//! Started by `benchmark/run.sh`, which builds `ssj` and this binary first.
//! Two ways to run (README.md has the details):
//!
//! * **one workload** — `--workload W --seed N --seconds S --trace 0|1`:
//!   sets the workload up, measures for about `S` seconds, checks every
//!   output, and prints one JSON object as the last line of stdout. With
//!   `--trace 0` it holds the end-to-end metrics (tracing off), with
//!   `--trace 1` the per-layer metrics of a separate traced run.
//! * **the suite** — no `--workload`: every workload (or `--only W`), both
//!   kinds of run, repetitions interleaved round-robin across workloads,
//!   every metric printed with median/quartiles/min/n, `out/result.json`
//!   written. `--smoke` is a 10 % stream with one repetition, `--selfcheck`
//!   runs the suite twice and compares the two against the bounds, `--pin`
//!   rewrites `expected.json`.

mod child;
mod heater;
mod joins;
mod layers;
mod metrics;
mod paced;
mod replay;
mod session;
mod stats;
mod trace;
mod workload;

use joins::hex;
use metrics::{Values, END_TO_END};
use session::{Paths, Session};
use ssj_json::Value;
use stats::{median, summarize, Summary};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Workload, WORKLOADS};

/// Set-ups per workload; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest repetitions of each phase in a one-workload run, whatever
/// `--seconds`.
const MIN_REPS: usize = 3;
/// Exact counts that must not differ between two runs of the same code.
const EXACT_COUNTS: [&str; 5] = [
    "join.pairs_per_doc",
    "partition.replication",
    "partition.broadcast_share",
    "json.dict_pairs",
    "cli.total_pairs",
];

struct Options {
    /// `benchmark/`: holds `expected.json`; `out/` below it is scratch.
    dir: PathBuf,
    ssj: PathBuf,
    workload: Option<String>,
    only: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
    smoke: bool,
    selfcheck: bool,
    pin: bool,
    rustc: String,
    git: String,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        dir: PathBuf::from("benchmark"),
        ssj: PathBuf::from("target/release/ssj"),
        workload: None,
        only: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        reps: 5,
        smoke: false,
        selfcheck: false,
        pin: false,
        rustc: "unknown".to_owned(),
        git: "unknown".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--dir" => o.dir = PathBuf::from(value()?),
            "--ssj" => o.ssj = PathBuf::from(value()?),
            "--workload" => o.workload = Some(value()?),
            "--only" => o.only = Some(value()?),
            "--seed" => o.seed = number(value()?)? as u64,
            "--seconds" => o.seconds = number(value()?)?,
            "--trace" => o.trace = number(value()?)? != 0.0,
            "--reps" => o.reps = (number(value()?)? as usize).max(1),
            "--rustc" => o.rustc = value()?,
            "--git" => o.git = value()?,
            "--smoke" => o.smoke = true,
            "--selfcheck" => o.selfcheck = true,
            "--pin" => o.pin = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    for name in o.workload.iter().chain(&o.only) {
        if workload::find(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name} (known: {})",
                known.join(", ")
            ));
        }
    }
    Ok(o)
}

fn main() {
    let result = parse_args().and_then(|o| {
        // Stopped and joined when this closure returns, before any exit.
        let _heaters = heater::Heaters::start();
        let paths = Paths {
            ssj: o.ssj.clone(),
            out_dir: o.dir.join("out"),
        };
        match &o.workload {
            Some(name) => one_workload(&o, &paths, workload::find(name).expect("validated")),
            None if o.pin => write_pins(&o, &paths).map(|()| true),
            None if o.selfcheck => selfcheck(&o, &paths),
            None => suite(&o, &paths).map(|results| {
                let all_correct = results.iter().all(|r| r.correct);
                print_suite(&results);
                all_correct
            }),
        }
    });
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------------------
// Pins
// ---------------------------------------------------------------------------

/// What `expected.json` pins for seed 1 at full scale.
fn pin_record(s: &Session) -> Value {
    let mut v = Value::object();
    v.insert("docs", Value::Int(s.docs.len() as i64));
    v.insert("input_fnv64", Value::from(hex(s.input_hash)));
    v.insert("windows", Value::Int(s.panes() as i64));
    v.insert("joins_fnv64", Value::from(hex(s.joins_hash)));
    v.insert("pairs", Value::Int(s.total_pairs() as i64));
    v
}

/// Compare a seed-1 full-scale session with its pin. `Ok(None)`: not
/// pinned (another seed or scale); `Ok(Some(msg))`: differs.
fn check_pin(o: &Options, s: &Session) -> Result<Option<String>, String> {
    if s.seed != 1 || s.scale != 1.0 {
        return Ok(None);
    }
    let path = o.dir.join("expected.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let pins = ssj_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let want = pins
        .get("workloads")
        .and_then(|w| w.get(s.w.name))
        .ok_or(format!("{}: no pin for {}", path.display(), s.w.name))?;
    let got = pin_record(s);
    Ok((*want != got).then(|| {
        format!(
            "{}: PINNED INPUT/OUTPUT DIFFERS\n  expected {want}\n  got      {got}",
            s.w.name
        )
    }))
}

// ---------------------------------------------------------------------------
// End-to-end values of a session
// ---------------------------------------------------------------------------

struct EndToEnd {
    values: Values,
    /// Per metric: the samples' summary, for the human-readable lines.
    summaries: Vec<Summary>,
}

fn end_to_end(s: &Session, setup_times: &[f64]) -> Result<EndToEnd, String> {
    if s.docs_per_s.is_empty() || s.close_ms.is_empty() {
        return Err(format!("{}: no run completed, nothing to report", s.w.name));
    }
    let samples: [&[f64]; 4] = [&s.docs_per_s, &s.cpu_us_per_doc, &s.close_ms, setup_times];
    let mut values = Values::end_to_end();
    for (m, x) in END_TO_END.iter().zip(samples) {
        values.set(m.0, median(x));
    }
    Ok(EndToEnd {
        values,
        summaries: samples.map(summarize).to_vec(),
    })
}

fn print_rows(name: &str, values: &Values, summaries: Option<&[Summary]>) {
    for (i, (metric, value, unit)) in values.rows().into_iter().enumerate() {
        match summaries.map(|s| s[i]) {
            Some(s) => println!(
                "{name} {metric} {value:.4} {unit}   q1 {:.4} q3 {:.4} min {:.4} n {}",
                s.q1, s.q3, s.min, s.n
            ),
            None => println!("{name} {metric} {value:.4} {unit}"),
        }
    }
}

fn metrics_json(values: &Values) -> Value {
    let mut m = Value::object();
    for (name, value, unit) in values.rows() {
        let mut entry = Value::object();
        entry.insert("value", Value::Float(value));
        entry.insert("unit", Value::from(unit));
        m.insert(name, entry);
    }
    m
}

// ---------------------------------------------------------------------------
// One workload (the contract's entry point)
// ---------------------------------------------------------------------------

/// Setting up is itself measured: `times` times over, every duration
/// returned (their median is `setup_s`), the last session kept.
fn set_up(
    w: &'static Workload,
    seed: u64,
    scale: f64,
    paths: &Paths,
    times: usize,
) -> Result<(Session, Vec<f64>), String> {
    let mut setup_times = Vec::new();
    let mut session = None;
    for _ in 0..times.max(1) {
        // Free the previous stream first: two of them would double the
        // benchmark's own footprint while the warm-up child runs.
        drop(session.take());
        let s = Session::setup(w, seed, scale, paths)?;
        setup_times.push(s.setup_s);
        session = Some(s);
    }
    Ok((session.expect("at least one set-up"), setup_times))
}

fn one_workload(o: &Options, paths: &Paths, w: &'static Workload) -> Result<bool, String> {
    let scale = if o.smoke { 0.1 } else { 1.0 };
    let (mut s, setup_times) = set_up(w, o.seed, scale, paths, if o.trace { 1 } else { SETUPS })?;
    let pin_problem = check_pin(o, &s)?;

    let values = if o.trace {
        let v = layers::traced_run(&mut s, o.seconds)?;
        print_rows(w.name, &v, None);
        v
    } else {
        // Each phase's repetitions back to back: children that follow one
        // another find the machine in the state the previous one left it
        // in, and read ~2x steadier than children that each follow a
        // half-idle paced run. The open loop gets the larger share: its
        // median is over panes, and needs more of them to settle.
        type Phase = fn(&mut Session) -> Result<(), String>;
        let phases: [(Phase, f64); 2] = [(Session::closed_rep, 0.4), (Session::paced_rep, 0.6)];
        for (phase, share) in phases {
            let t0 = Instant::now();
            let mut reps = 0;
            while reps < MIN_REPS || t0.elapsed().as_secs_f64() < o.seconds * share {
                phase(&mut s)?;
                reps += 1;
            }
        }
        let e = end_to_end(&s, &setup_times)?;
        print_rows(w.name, &e.values, Some(&e.summaries));
        e.values
    };
    let failed_share = s.failed as f64 / s.attempted as f64;
    println!("{} failed_share {failed_share} ratio", w.name);
    if let Some(msg) = &pin_problem {
        println!("{msg}");
    }

    let mut out = Value::object();
    out.insert(
        "correct",
        Value::Bool(s.failed == 0 && pin_problem.is_none()),
    );
    out.insert("attempted", Value::Int(s.attempted as i64));
    out.insert("failed", Value::Int(s.failed as i64));
    out.insert("metrics", metrics_json(&values));
    println!("{out}");
    Ok(true)
}

// ---------------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------------

struct WorkloadResult {
    name: &'static str,
    end_to_end: EndToEnd,
    per_layer: Values,
    attempted: u64,
    failed: u64,
    correct: bool,
    pin: Value,
}

fn suite(o: &Options, paths: &Paths) -> Result<Vec<WorkloadResult>, String> {
    let scale = if o.smoke { 0.1 } else { 1.0 };
    let reps = if o.smoke { 1 } else { o.reps };
    let selected = WORKLOADS
        .iter()
        .filter(|w| o.only.as_deref().is_none_or(|only| only == w.name));
    let mut sessions = Vec::new();
    let mut setup_times = Vec::new();
    for w in selected {
        eprintln!("set-up {}: {}", w.name, w.why);
        let (s, times) = set_up(w, o.seed, scale, paths, if o.smoke { 1 } else { SETUPS })?;
        sessions.push(s);
        setup_times.push(times);
    }
    // Two passes over the workloads, so machine drift during the run
    // spreads over all of them instead of landing on the last one; within a
    // pass each phase's repetitions run back to back (see `one_workload`).
    for pass in 0..2 {
        let n = (reps + 1 - pass) / 2;
        for s in &mut sessions {
            eprintln!("pass {} {}: {n} closed + {n} paced", pass + 1, s.w.name);
            for _ in 0..n {
                s.closed_rep()?;
            }
            for _ in 0..n {
                s.paced_rep()?;
            }
        }
    }
    let mut results = Vec::new();
    for (mut s, setup_times) in sessions.into_iter().zip(setup_times) {
        let end_to_end = end_to_end(&s, &setup_times)?;
        eprintln!("traced run {}", s.w.name);
        let per_layer = layers::traced_run(&mut s, if o.smoke { 0.0 } else { 6.0 })?;
        let pin_problem = check_pin(o, &s)?;
        if let Some(msg) = &pin_problem {
            println!("{msg}");
        }
        results.push(WorkloadResult {
            name: s.w.name,
            end_to_end,
            per_layer,
            attempted: s.attempted,
            failed: s.failed,
            correct: s.failed == 0 && pin_problem.is_none(),
            pin: pin_record(&s),
        });
    }
    write_result(o, paths, &results)?;
    Ok(results)
}

fn print_suite(results: &[WorkloadResult]) {
    for r in results {
        print_rows(r.name, &r.end_to_end.values, Some(&r.end_to_end.summaries));
        println!(
            "{} failed_share {} ratio   failed {} attempted {}",
            r.name,
            r.failed as f64 / r.attempted as f64,
            r.failed,
            r.attempted
        );
        print_rows(r.name, &r.per_layer, None);
    }
    println!(r#""claim": null"#);
}

fn write_pins(o: &Options, paths: &Paths) -> Result<(), String> {
    if o.seed != 1 || o.smoke || o.only.is_some() {
        return Err("--pin pins seed 1, full scale, every workload".to_owned());
    }
    // One workload per line, so a changed pin is a one-line diff.
    let mut lines = Vec::new();
    for w in &WORKLOADS {
        let s = Session::setup(w, 1, 1.0, paths)?;
        lines.push(format!("\"{}\":{}", w.name, pin_record(&s)));
    }
    let text = format!(
        "{{\"seed\":1,\"workloads\":{{\n{}\n}}}}\n",
        lines.join(",\n")
    );
    let path = o.dir.join("expected.json");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Where the numbers were taken: they do not travel between machines.
fn fingerprint(o: &Options) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let mut f = Value::object();
    f.insert(
        "nproc",
        Value::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
    );
    f.insert("cpu", Value::from(cpu));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease");
    f.insert(
        "kernel",
        Value::from(kernel.as_deref().map_or("unknown", str::trim)),
    );
    f.insert("rustc", Value::from(o.rustc.as_str()));
    f.insert("git", Value::from(o.git.as_str()));
    f
}

fn write_result(o: &Options, paths: &Paths, results: &[WorkloadResult]) -> Result<(), String> {
    let mut workloads = Value::object();
    for r in results {
        let mut w = Value::object();
        w.insert("correct", Value::Bool(r.correct));
        w.insert("attempted", Value::Int(r.attempted as i64));
        w.insert("failed", Value::Int(r.failed as i64));
        w.insert("end_to_end", metrics_json(&r.end_to_end.values));
        w.insert("per_layer", metrics_json(&r.per_layer));
        w.insert("pin", r.pin.clone());
        workloads.insert(r.name, w);
    }
    let mut out = Value::object();
    out.insert("seed", Value::Int(o.seed as i64));
    out.insert("smoke", Value::Bool(o.smoke));
    out.insert("reps", Value::Int(if o.smoke { 1 } else { o.reps as i64 }));
    out.insert("machine", fingerprint(o));
    out.insert("workloads", workloads);
    // This benchmark defines the measurement; it compares against nothing.
    out.insert("claim", Value::Null);
    let path: &Path = &paths.out_dir.join("result.json");
    std::fs::write(path, format!("{out}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Repeatability self-check
// ---------------------------------------------------------------------------

/// Run the suite twice on the same build and hold the two to the bounds:
/// the second median may not be worse than the first by more than the
/// metric's bound, and the exact counts may not differ at all. Prints a
/// Markdown report (committed as `REPEATABILITY.md`).
fn selfcheck(o: &Options, paths: &Paths) -> Result<bool, String> {
    let first = suite(o, paths)?;
    let second = suite(o, paths)?;
    let mut ok = true;
    println!("# Repeatability self-check\n");
    println!("Two full runs of `benchmark/run.sh --selfcheck` on one build, seed {}, {} repetitions per workload.\n", o.seed, o.reps);
    println!("Machine: `{}`\n", fingerprint(o));
    println!("| workload | metric | run 1 | run 2 | worse by | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for (a, b) in first.iter().zip(&second) {
        for m in END_TO_END {
            let (x, y) = (
                a.end_to_end.values.get(m.0).expect("set"),
                b.end_to_end.values.get(m.0).expect("set"),
            );
            let worse = if m.2 == "higher" {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let pass = worse <= m.3;
            ok &= pass;
            println!(
                "| {} | {} | {x:.4} | {y:.4} | {:+.1}% | {:.0}% | {} |",
                a.name,
                m.0,
                worse * 100.0,
                m.3 * 100.0,
                if pass { "ok" } else { "EXCEEDED" }
            );
        }
    }
    println!("\n| workload | exact count | run 1 | run 2 | |");
    println!("|---|---|---|---|---|");
    for (a, b) in first.iter().zip(&second) {
        let mut rows: Vec<(&str, f64, f64)> = EXACT_COUNTS
            .iter()
            .map(|&n| {
                (
                    n,
                    a.per_layer.get(n).expect("set"),
                    b.per_layer.get(n).expect("set"),
                )
            })
            .collect();
        rows.push(("failed windows", a.failed as f64, b.failed as f64));
        for (name, x, y) in rows {
            let same = x == y;
            ok &= same;
            println!(
                "| {} | {name} | {x} | {y} | {} |",
                a.name,
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    ok &= first.iter().chain(&second).all(|r| r.correct);
    println!("\nResult: {}", if ok { "pass" } else { "FAIL" });
    Ok(ok)
}
