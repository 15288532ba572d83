//! The four workloads: what stream each one reads, with which flags, and why.

use ssj_core::{StreamJoinConfig, WindowSpec};
use ssj_data::{NoBenchConfig, NoBenchGen, ServerLogConfig, ServerLogGen};
use ssj_json::{Dictionary, Document};

/// Settings every workload shares: `--m 4 --creators 1 --assigners 2`,
/// everything else at the CLI's defaults.
pub const M: usize = 4;
const CREATORS: usize = 1;
const ASSIGNERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// `ssj_data::ServerLogGen` — narrow, skewed, join-heavy ("rwData").
    Rw,
    /// `ssj_data::NoBenchGen` — wide, sparse, joins with nothing ("nbData").
    Nb,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: Dataset,
    /// Documents of the closed-loop (CLI) stream at scale 1.
    pub docs: usize,
    /// Documents of the open-loop (paced) stream at scale 1: a prefix of the
    /// closed-loop stream.
    pub paced_docs: usize,
    /// Documents per pane (= per punctuation).
    pub pane_docs: usize,
    /// Panes per window; 1 is a tumbling window.
    pub panes: usize,
    /// `--workers`: processes in the group.
    pub workers: usize,
    /// Open-loop arrival rate, documents per second.
    pub rate: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rw-tumbling",
        why: "narrow rwData docs that route and join heavily: the joiners' window-close join and result folding dominate the topology",
        dataset: Dataset::Rw,
        docs: 240_000,
        paced_docs: 240_000,
        pane_docs: 6_000,
        panes: 1,
        workers: 1,
        rate: 150_000,
    },
    Workload {
        name: "nb-tumbling",
        why: "wide sparse nbData docs that join with nothing: parse+intern and the broadcast fallback dominate, a joiner change should show little",
        dataset: Dataset::Nb,
        docs: 60_000,
        paced_docs: 60_000,
        pane_docs: 3_000,
        panes: 1,
        workers: 1,
        rate: 50_000,
    },
    Workload {
        name: "rw-sliding8",
        why: "the rw stream over 8 chained 750-doc panes: 8x the punctuations, small batches, every pane probed against 7 frozen FP-trees",
        dataset: Dataset::Rw,
        docs: 144_000,
        paced_docs: 90_000,
        pane_docs: 750,
        panes: 8,
        workers: 1,
        rate: 60_000,
    },
    Workload {
        name: "rw-workers2",
        why: "rw-tumbling's exact file and flags plus --workers 2: the only workload where the wire codec and Unix-socket transport carry traffic",
        dataset: Dataset::Rw,
        docs: 240_000,
        paced_docs: 240_000,
        pane_docs: 6_000,
        panes: 1,
        workers: 2,
        rate: 150_000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn window_docs(&self) -> usize {
        self.pane_docs * self.panes
    }

    pub fn is_sliding(&self) -> bool {
        self.panes > 1
    }

    /// `n` scaled and rounded to whole windows (at least one).
    fn scaled(&self, n: usize, scale: f64) -> usize {
        let w = self.window_docs();
        (((n as f64 * scale) / w as f64).round() as usize).max(1) * w
    }

    pub fn docs_at(&self, scale: f64) -> usize {
        self.scaled(self.docs, scale)
    }

    pub fn paced_docs_at(&self, scale: f64) -> usize {
        self.scaled(self.paced_docs, scale).min(self.docs_at(scale))
    }

    /// Whether the oracle recomputes pane `p` of `total`: every 16th
    /// tumbling window, every 64th sliding pane, and always the last one.
    /// Pane 0 is skipped on purpose — it is broadcast (no table yet), the
    /// least interesting routing case.
    pub fn oracle_samples(&self, p: usize, total: usize) -> bool {
        let stride = if self.is_sliding() { 64 } else { 16 };
        p % stride == stride / 2 - 1 || p + 1 == total
    }

    /// The flags after `ssj run --input F --joins-out O --no-metrics`.
    pub fn cli_flags(&self) -> Vec<String> {
        let mut flags = vec![
            "--m".to_owned(),
            M.to_string(),
            "--creators".to_owned(),
            CREATORS.to_string(),
            "--assigners".to_owned(),
            ASSIGNERS.to_string(),
        ];
        if self.is_sliding() {
            flags.extend(["--pane".to_owned(), self.pane_docs.to_string()]);
            flags.extend(["--slide".to_owned(), self.panes.to_string()]);
        } else {
            flags.extend(["--window".to_owned(), self.pane_docs.to_string()]);
        }
        if self.workers > 1 {
            flags.extend(["--workers".to_owned(), self.workers.to_string()]);
        }
        flags
    }

    /// The in-process configuration equal to what [`cli_flags`] makes the
    /// CLI build (`pipeline_config` in `crates/cli`): expansion is on for
    /// tumbling windows and forced off for sliding ones. `--workers` has no
    /// in-process equivalent — the paced entry point is single-process.
    ///
    /// [`cli_flags`]: Workload::cli_flags
    pub fn config(&self, metrics: bool, pool_workers: usize) -> StreamJoinConfig {
        let spec = if self.is_sliding() {
            WindowSpec::sliding(self.pane_docs, self.panes)
        } else {
            WindowSpec::tumbling(self.pane_docs)
        };
        StreamJoinConfig::default()
            .with_m(M)
            .with_window_spec(spec)
            .with_expansion(!self.is_sliding())
            .with_partition_creators(CREATORS)
            .with_assigners(ASSIGNERS)
            .with_metrics(metrics)
            .with_pool_workers(pool_workers)
            .build()
            .expect("benchmark configuration is valid")
    }

    /// Phase B's configuration: [`config`] with metrics off, plus the pool
    /// workers pinned one per core (`ssj run --pin-cores`). With floating
    /// workers the close latency of `rw-sliding8` sits at one of three
    /// levels (~3.5, ~5, ~7 ms) for 0.5–1 s at a time — which core each
    /// worker happens to share — and which level a run mostly saw moved its
    /// median by 11–27 % between identical runs. Pinned, the same runs agree
    /// within 4–9 % (README.md, "Pinned pool workers in phase B").
    ///
    /// [`config`]: Workload::config
    pub fn paced_config(&self) -> StreamJoinConfig {
        self.config(false, 0)
            .with_pin_cores(true)
            .build()
            .expect("benchmark configuration is valid")
    }

    /// The first `n` documents of the workload's stream for `seed`. The
    /// generators are deterministic, so a shorter stream is a prefix of a
    /// longer one and `rw-workers2` gets `rw-tumbling`'s exact documents.
    pub fn generate(&self, seed: u64, n: usize) -> (Dictionary, Vec<Document>) {
        let dict = Dictionary::new();
        let docs = match self.dataset {
            Dataset::Rw => ServerLogGen::new(
                ServerLogConfig {
                    seed,
                    ..Default::default()
                },
                dict.clone(),
            )
            .take_docs(n),
            Dataset::Nb => NoBenchGen::new(
                NoBenchConfig {
                    seed,
                    ..Default::default()
                },
                dict.clone(),
            )
            .take_docs(n),
        };
        (dict, docs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_streams_are_whole_windows() {
        for w in &WORKLOADS {
            for scale in [1.0, 0.1, 0.01] {
                let n = w.docs_at(scale);
                assert!(n >= w.window_docs());
                assert_eq!(n % w.window_docs(), 0, "{} at {scale}", w.name);
                assert!(w.paced_docs_at(scale) <= n);
            }
            assert_eq!(w.docs_at(1.0), w.docs);
            assert_eq!(w.paced_docs_at(1.0), w.paced_docs);
        }
    }

    #[test]
    fn oracle_samples_some_panes_and_always_the_last() {
        let rw = find("rw-tumbling").unwrap();
        let sampled: Vec<usize> = (0..40).filter(|&p| rw.oracle_samples(p, 40)).collect();
        assert_eq!(sampled, vec![7, 23, 39]);
        let sl = find("rw-sliding8").unwrap();
        let sampled: Vec<usize> = (0..192).filter(|&p| sl.oracle_samples(p, 192)).collect();
        assert_eq!(sampled, vec![31, 95, 159, 191]);
    }

    #[test]
    fn workers2_differs_from_tumbling_only_in_workers() {
        let a = find("rw-tumbling").unwrap();
        let b = find("rw-workers2").unwrap();
        let mut flags = a.cli_flags();
        flags.extend(["--workers".to_owned(), "2".to_owned()]);
        assert_eq!(flags, b.cli_flags());
        assert_eq!(
            (a.docs, a.pane_docs, a.dataset),
            (b.docs, b.pane_docs, b.dataset)
        );
    }
}
