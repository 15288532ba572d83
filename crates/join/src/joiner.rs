//! A common interface over the three local join algorithms.
//!
//! The Joiner component of the topology and the Fig. 11 harness select an
//! algorithm at run time; [`JoinAlgo`] names them and [`join_batch`]
//! dispatches. [`split_timings`] measures the FP-tree's two phases
//! ("Creation" and "Join" in Fig. 11a/b) separately.

use crate::{fpjoin, hbj, nlj, FpTree};
use ssj_json::{DocId, Document};
use std::borrow::Borrow;
use std::time::{Duration, Instant};

/// The local natural-join algorithms evaluated in §VII-E-5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgo {
    /// The paper's FP-tree–based join (FPJ).
    FpTree,
    /// Nested Loop Join baseline.
    Nlj,
    /// Hash-Based Join baseline (inverted index over pairs).
    Hbj,
}

impl JoinAlgo {
    /// Short name used in harness output ("FPJ", "NLJ", "HBJ").
    pub fn name(self) -> &'static str {
        match self {
            JoinAlgo::FpTree => "FPJ",
            JoinAlgo::Nlj => "NLJ",
            JoinAlgo::Hbj => "HBJ",
        }
    }

    /// All algorithms, in the paper's presentation order.
    pub fn all() -> [JoinAlgo; 3] {
        [JoinAlgo::FpTree, JoinAlgo::Nlj, JoinAlgo::Hbj]
    }
}

impl std::str::FromStr for JoinAlgo {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fpj" | "fptree" | "fp" => Ok(JoinAlgo::FpTree),
            "nlj" | "nested" => Ok(JoinAlgo::Nlj),
            "hbj" | "hash" => Ok(JoinAlgo::Hbj),
            other => Err(format!("unknown join algorithm '{other}'")),
        }
    }
}

/// Join one window's documents with the chosen algorithm; every joinable
/// pair appears exactly once as `(earlier, later)`.
pub fn join_batch(algo: JoinAlgo, docs: &[Document]) -> Vec<(DocId, DocId)> {
    BatchJoiner::new().join_batch(algo, docs)
}

/// Per-worker batch-join state: the probe scratch, partner buffer and
/// attribute-order counters live here so consecutive windows handled by one
/// worker (e.g. a Joiner bolt) reuse the same allocations instead of
/// re-growing them every window.
#[derive(Debug, Default)]
pub struct BatchJoiner {
    scratch: fpjoin::JoinScratch,
}

impl BatchJoiner {
    /// Fresh state; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// As [`join_batch`], reusing this worker's scratch buffers.
    pub fn join_batch(&mut self, algo: JoinAlgo, docs: &[Document]) -> Vec<(DocId, DocId)> {
        match algo {
            JoinAlgo::FpTree => {
                let mut pairs = Vec::new();
                self.join_and_freeze(docs, &mut pairs);
                pairs
            }
            JoinAlgo::Nlj => nlj::join_batch(docs),
            JoinAlgo::Hbj => hbj::join_batch(docs),
        }
    }

    /// FPJ over one pane with this worker's scratch: appends the pane's
    /// pairs to `pairs` and returns its sealed tree, ready to be frozen
    /// (see [`fpjoin::join_batch_into`]).
    pub fn join_and_freeze<D: Borrow<Document>>(
        &mut self,
        docs: &[D],
        pairs: &mut Vec<(DocId, DocId)>,
    ) -> FpTree {
        fpjoin::join_batch_into(docs, &mut self.scratch, pairs)
    }
}

/// Timing breakdown of a batch join.
#[derive(Debug, Clone, Copy)]
pub struct JoinTimings {
    /// Index/tree construction time (zero for NLJ).
    pub creation: Duration,
    /// Time spent producing join results.
    pub join: Duration,
    /// Number of result pairs.
    pub pairs: usize,
}

/// Run `algo` over `docs` with the creation/join phases timed separately,
/// matching the stacked bars of Fig. 11a/b.
pub fn split_timings(algo: JoinAlgo, docs: &[Document]) -> JoinTimings {
    match algo {
        JoinAlgo::FpTree => {
            let t0 = Instant::now();
            let tree = FpTree::build(docs);
            let creation = t0.elapsed();
            let t1 = Instant::now();
            let mut pairs = 0usize;
            let mut scratch = fpjoin::ProbeScratch::new();
            let mut partners = Vec::new();
            for doc in docs {
                fpjoin::probe_into(&tree, doc, true, &mut scratch, &mut partners);
                pairs += partners.iter().filter(|&&p| p < doc.id()).count();
            }
            JoinTimings {
                creation,
                join: t1.elapsed(),
                pairs,
            }
        }
        JoinAlgo::Nlj => {
            let t1 = Instant::now();
            let pairs = nlj::join_batch(docs).len();
            JoinTimings {
                creation: Duration::ZERO,
                join: t1.elapsed(),
                pairs,
            }
        }
        JoinAlgo::Hbj => {
            let t0 = Instant::now();
            let mut idx = hbj::HashIndex::build(docs.iter().cloned());
            let creation = t0.elapsed();
            let t1 = Instant::now();
            let mut pairs = 0usize;
            let mut partners = Vec::new();
            for doc in docs {
                idx.probe_into(doc, &mut partners);
                pairs += partners.iter().filter(|&&p| p < doc.id()).count();
            }
            JoinTimings {
                creation,
                join: t1.elapsed(),
                pairs,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_json::{Dictionary, DocId, Document};

    fn sample(dict: &Dictionary) -> Vec<Document> {
        [
            r#"{"u":"A","s":"W"}"#,
            r#"{"u":"A","s":"W","m":2}"#,
            r#"{"u":"A","s":"E"}"#,
            r#"{"ip":"x","s":"W"}"#,
            r#"{"u":"B","s":"C","m":1}"#,
            r#"{"u":"B","s":"C"}"#,
            r#"{"u":"B","s":"W"}"#,
        ]
        .iter()
        .enumerate()
        .map(|(i, s)| Document::from_json(DocId(i as u64 + 1), s, dict).unwrap())
        .collect()
    }

    #[test]
    fn all_algorithms_agree() {
        let dict = Dictionary::new();
        let docs = sample(&dict);
        let mut results: Vec<Vec<(DocId, DocId)>> = JoinAlgo::all()
            .iter()
            .map(|&a| {
                let mut r = join_batch(a, &docs);
                r.sort();
                r
            })
            .collect();
        let reference = results.pop().unwrap();
        for r in results {
            assert_eq!(r, reference);
        }
    }

    #[test]
    fn split_timings_counts_match() {
        let dict = Dictionary::new();
        let docs = sample(&dict);
        let expected = join_batch(JoinAlgo::Nlj, &docs).len();
        for algo in JoinAlgo::all() {
            let t = split_timings(algo, &docs);
            assert_eq!(t.pairs, expected, "{}", algo.name());
        }
    }

    #[test]
    fn algo_from_str() {
        assert_eq!("fpj".parse::<JoinAlgo>().unwrap(), JoinAlgo::FpTree);
        assert_eq!("NLJ".parse::<JoinAlgo>().unwrap(), JoinAlgo::Nlj);
        assert_eq!("hash".parse::<JoinAlgo>().unwrap(), JoinAlgo::Hbj);
        assert!("quantum".parse::<JoinAlgo>().is_err());
    }
}
