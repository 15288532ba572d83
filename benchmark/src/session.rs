//! One workload's inputs, reference output and end-to-end samples.
//!
//! `setup` makes everything a run needs from the seed alone: the generated
//! stream (in memory and as a JSON Lines file — the only thing the program
//! is ever shown), the brute-force oracle for the sampled panes, and one
//! warm-up run whose output becomes the reference every later run must
//! reproduce byte for byte. `closed_rep` is one phase-A repetition (a real
//! `ssj run` child), `paced_rep` one phase-B repetition (an in-process
//! open-loop run).

use crate::child::{run_child, ChildRun};
use crate::joins::{digest_pairs, fnv64, oracle_pane, parse_joins, WindowDigest};
use crate::paced::{backlog_growth, close_latencies_ms, constant_schedule};
use crate::workload::Workload;
use ssj_core::run_topology_paced;
use ssj_json::{write_documents_jsonl, Dictionary, Document};
use ssj_runtime::FaultPlan;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A child that runs longer than this has failed every window of its run.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Where the program under test lives and where the benchmark may write.
#[derive(Debug, Clone)]
pub struct Paths {
    /// The release `ssj` binary built from this checkout.
    pub ssj: PathBuf,
    /// `benchmark/out`: inputs, outputs, traces, sockets, spill files.
    pub out_dir: PathBuf,
}

pub struct Session {
    pub w: &'static Workload,
    pub seed: u64,
    pub scale: f64,
    pub paths: Paths,
    pub dict: Dictionary,
    pub docs: Vec<Document>,
    pub input_hash: u64,
    /// Whole-file hash of the reference (warm-up) `--joins-out`.
    pub joins_hash: u64,
    pub joins_bytes: u64,
    /// Per pane: the oracle's digest where sampled, the reference run's
    /// elsewhere. Every later run is held to these.
    pub expected: Vec<WindowDigest>,
    /// Panes of the reference run itself that miss `expected`.
    reference_failed: u64,
    pub oracle_panes: usize,
    pub setup_s: f64,
    // Phase A samples, one per repetition.
    pub docs_per_s: Vec<f64>,
    pub cpu_us_per_doc: Vec<f64>,
    // Phase B samples: close latencies pooled over panes, growth per run.
    pub close_ms: Vec<f64>,
    pub backlog: Vec<f64>,
    /// Windows checked so far (both phases) and those that failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Session {
    pub fn panes(&self) -> usize {
        self.docs.len() / self.w.pane_docs
    }

    pub fn total_pairs(&self) -> u64 {
        self.expected.iter().map(|d| d.pairs).sum()
    }

    pub fn input_path(&self) -> PathBuf {
        self.paths.out_dir.join(format!("{}.jsonl", self.w.name))
    }

    fn joins_path(&self) -> PathBuf {
        self.paths.out_dir.join(format!("{}.joins", self.w.name))
    }

    /// Generate, write, compute the oracle, warm up. Everything timed here
    /// is `setup_s`; the cargo builds happened before the process started.
    pub fn setup(
        w: &'static Workload,
        seed: u64,
        scale: f64,
        paths: &Paths,
    ) -> Result<Session, String> {
        let t0 = Instant::now();
        std::fs::create_dir_all(paths.out_dir.join("t"))
            .map_err(|e| format!("create {}: {e}", paths.out_dir.display()))?;
        let n = w.docs_at(scale);
        let (dict, docs) = w.generate(seed, n);
        let mut jsonl = Vec::with_capacity(n * 128);
        write_documents_jsonl(&mut jsonl, &docs, &dict).map_err(|e| e.to_string())?;
        let mut s = Session {
            w,
            seed,
            scale,
            paths: paths.clone(),
            dict,
            docs,
            input_hash: fnv64(&jsonl),
            joins_hash: 0,
            joins_bytes: 0,
            expected: Vec::new(),
            reference_failed: 0,
            oracle_panes: 0,
            setup_s: 0.0,
            docs_per_s: Vec::new(),
            cpu_us_per_doc: Vec::new(),
            close_ms: Vec::new(),
            backlog: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        // Unlink first: rewriting a file in place makes ext4 flush it to
        // disk on close, and that writeback then disturbs the timed runs.
        let _ = std::fs::remove_file(s.input_path());
        std::fs::write(s.input_path(), &jsonl)
            .map_err(|e| format!("write {}: {e}", s.input_path().display()))?;
        drop(jsonl);

        let panes = s.panes();
        let pane = w.pane_docs;
        let oracle: Vec<Option<WindowDigest>> = (0..panes)
            .map(|p| {
                w.oracle_samples(p, panes).then(|| {
                    let extent = p.saturating_sub(w.panes - 1) * pane;
                    oracle_pane(&s.docs, extent, p * pane, (p + 1) * pane)
                })
            })
            .collect();
        s.oracle_panes = oracle.iter().flatten().count();

        // The warm-up run doubles as the reference output.
        let run = s.run_cli(false)?;
        if !run.ok {
            return Err(format!("{}: warm-up `ssj run` failed", w.name));
        }
        let bytes = std::fs::read(s.joins_path()).map_err(|e| e.to_string())?;
        let reference = parse_joins(&bytes)?;
        s.joins_hash = fnv64(&bytes);
        s.joins_bytes = bytes.len() as u64;
        s.expected = (0..panes)
            .map(|p| {
                // A pane the reference run lost keeps an impossible digest,
                // so it fails in every run.
                oracle[p]
                    .or(reference.get(p).copied())
                    .unwrap_or(WindowDigest {
                        pairs: u64::MAX,
                        hash: 0,
                    })
            })
            .collect();
        s.reference_failed = s.mismatches(&reference);
        s.setup_s = t0.elapsed().as_secs_f64();
        Ok(s)
    }

    /// Panes of `got` that are missing or differ from `expected`.
    fn mismatches(&self, got: &[WindowDigest]) -> u64 {
        self.expected
            .iter()
            .enumerate()
            .filter(|(p, want)| got.get(*p) != Some(want))
            .count() as u64
    }

    /// `ssj run --input F --joins-out O --no-metrics <flags>` as a child,
    /// from inside `out_dir` so every path the program touches (its group
    /// socket directory under `$TMPDIR` included) stays in the checkout.
    fn run_cli(&self, sample_rss: bool) -> Result<ChildRun, String> {
        let mut cmd = Command::new(&self.paths.ssj);
        cmd.current_dir(&self.paths.out_dir)
            .env("TMPDIR", "t")
            .arg("run")
            .arg("--input")
            .arg(format!("{}.jsonl", self.w.name))
            .arg("--joins-out")
            .arg(format!("{}.joins", self.w.name))
            .arg("--no-metrics")
            .args(self.w.cli_flags())
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        let _ = std::fs::remove_file(self.joins_path());
        run_child(&mut cmd, CHILD_TIMEOUT, sample_rss)
            .map_err(|e| format!("spawn {}: {e}", self.paths.ssj.display()))
    }

    /// Phase A, one repetition: a timed child, then its output checked
    /// against the reference (byte-identical, or pane by pane if not).
    pub fn closed_rep(&mut self) -> Result<(), String> {
        self.checked_child(false).map(|_| ())
    }

    /// One child with its output checked; a completed run is also a
    /// throughput and CPU sample.
    pub fn checked_child(&mut self, sample_rss: bool) -> Result<ChildRun, String> {
        let run = self.run_cli(sample_rss)?;
        let panes = self.panes() as u64;
        self.attempted += panes;
        if !run.ok {
            // Non-zero exit or timeout: every window of the run failed, and
            // its time is not a throughput sample.
            self.failed += panes;
            return Ok(run);
        }
        let n = self.docs.len() as f64;
        self.docs_per_s.push(n / run.wall_s);
        self.cpu_us_per_doc.push(run.cpu_s * 1e6 / n);
        let bytes = std::fs::read(self.joins_path()).unwrap_or_default();
        self.failed += if fnv64(&bytes) == self.joins_hash {
            self.reference_failed
        } else {
            match parse_joins(&bytes) {
                Ok(got) => self.mismatches(&got),
                Err(_) => panes,
            }
        };
        Ok(run)
    }

    /// Phase B, one repetition: the paced stream through
    /// `run_topology_paced` at the workload's fixed rate, metrics off, pool
    /// workers pinned (see [`Workload::paced_config`]). Its join result is
    /// held to the same expectations as the CLI's.
    pub fn paced_rep(&mut self) -> Result<(), String> {
        let n = self.w.paced_docs_at(self.scale);
        let schedule = constant_schedule(n, self.w.rate);
        let (report, latency) = run_topology_paced(
            self.w.paced_config(),
            &self.dict,
            self.docs[..n].to_vec(),
            schedule.clone(),
            FaultPlan::new(),
        )
        .map_err(|e| format!("{}: paced run failed: {e}", self.w.name))?;
        let ms = close_latencies_ms(&latency, &schedule, self.w.pane_docs);
        self.backlog.push(backlog_growth(&ms));
        self.close_ms.extend(ms);

        let panes = n / self.w.pane_docs;
        self.attempted += panes as u64;
        let got: Vec<WindowDigest> = report
            .joins_per_window
            .iter()
            .map(|set| digest_pairs(set.iter().copied()))
            .collect();
        self.failed += (0..panes)
            .filter(|&p| got.get(p) != Some(&self.expected[p]))
            .count() as u64;
        Ok(())
    }
}
