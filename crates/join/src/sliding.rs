//! Sliding windows over FP-trees — the paper's "ongoing work" (§V-A).
//!
//! The paper evaluates tumbling windows only and notes that sliding windows
//! "require tree updates or frequent tree evictions and rebuilds". This
//! module implements the natural pane-chaining design: a sliding window of
//! `panes_per_window` panes, each pane itself a tumbling chunk. The open pane
//! buffers raw documents (probed by linear scan); when a pane fills, it is
//! frozen into an FP-tree. Probing consults the open buffer plus every frozen
//! pane; sliding evicts only the oldest pane — never a full rebuild.

use crate::fpjoin::{self, ProbeScratch};
use crate::fptree::FpTree;
use crate::windowspec::WindowSpec;
use ssj_json::{DocId, Document};
use std::collections::VecDeque;

/// A sliding-window joiner built from chained FP-tree panes.
///
/// ```
/// use ssj_join::{SlidingJoiner, WindowSpec};
/// use ssj_json::{Dictionary, DocId, Document};
///
/// let dict = Dictionary::new();
/// let mut joiner = SlidingJoiner::new(WindowSpec::sliding(2, 3)); // 3 panes x 2 docs
/// let d1 = Document::from_json(DocId(1), r#"{"k":1}"#, &dict).unwrap();
/// let d2 = Document::from_json(DocId(2), r#"{"k":1}"#, &dict).unwrap();
/// assert!(joiner.insert_and_probe(d1).is_empty());
/// assert_eq!(joiner.insert_and_probe(d2), vec![DocId(1)]);
/// ```
#[derive(Debug)]
pub struct SlidingJoiner {
    pane_size: usize,
    panes_per_window: usize,
    /// Frozen panes, oldest first.
    frozen: VecDeque<FpTree>,
    /// The open pane's raw documents.
    open: Vec<Document>,
    total_inserted: u64,
    /// Reused probe working memory (zero-alloc steady state).
    scratch: ProbeScratch,
    probe_buf: Vec<DocId>,
}

impl SlidingJoiner {
    /// A pane-chained window shaped by `spec`: `Sliding { pane_docs,
    /// panes_per_window }` chains that many panes; `Tumbling { docs }` is
    /// the 1-pane special case.
    ///
    /// # Panics
    /// When `spec` fails [`WindowSpec::validate`].
    pub fn new(spec: WindowSpec) -> Self {
        spec.validate().expect("invalid WindowSpec");
        let pane_size = spec.pane_docs();
        let panes_per_window = spec.panes_per_window();
        SlidingJoiner {
            pane_size,
            panes_per_window,
            frozen: VecDeque::new(),
            open: Vec::with_capacity(pane_size),
            total_inserted: 0,
            scratch: ProbeScratch::new(),
            probe_buf: Vec::new(),
        }
    }

    /// Probe the whole window for partners of `doc`, then insert it.
    /// Freezes the open pane and evicts the oldest frozen pane as needed.
    pub fn insert_and_probe(&mut self, doc: Document) -> Vec<DocId> {
        let mut partners: Vec<DocId> = Vec::new();
        for pane in &self.frozen {
            // A frozen pane never holds the (later) probing document.
            fpjoin::probe_absent(pane, &doc, 0, true, &mut self.scratch, &mut self.probe_buf);
            partners.extend_from_slice(&self.probe_buf);
        }
        partners.extend(
            self.open
                .iter()
                .filter(|d| d.joins_with(&doc))
                .map(|d| d.id()),
        );
        self.open.push(doc);
        self.total_inserted += 1;
        if self.open.len() >= self.pane_size {
            let docs = std::mem::take(&mut self.open);
            self.frozen.push_back(FpTree::build(&docs));
            // Keep at most panes_per_window - 1 frozen panes plus the open
            // one, so the window always spans panes_per_window panes.
            while self.frozen.len() >= self.panes_per_window {
                self.frozen.pop_front();
            }
            self.open = Vec::with_capacity(self.pane_size);
        }
        partners
    }

    /// Documents currently inside the window.
    pub fn window_len(&self) -> usize {
        self.open.len() + self.frozen.iter().map(|t| t.doc_count()).sum::<usize>()
    }

    /// Total documents ever inserted.
    pub fn total_inserted(&self) -> u64 {
        self.total_inserted
    }

    /// Number of frozen panes currently held.
    pub fn frozen_panes(&self) -> usize {
        self.frozen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_json::{Dictionary, DocId, Document};

    fn doc(dict: &Dictionary, id: u64, key: &str, val: i64) -> Document {
        Document::from_json(DocId(id), &format!(r#"{{"{key}":{val}}}"#), dict).unwrap()
    }

    #[test]
    fn partners_found_across_panes() {
        let dict = Dictionary::new();
        let mut j = SlidingJoiner::new(WindowSpec::sliding(2, 3));
        // Pane 1: d1, d2 share k:1.
        assert!(j.insert_and_probe(doc(&dict, 1, "k", 1)).is_empty());
        assert_eq!(j.insert_and_probe(doc(&dict, 2, "k", 1)), vec![DocId(1)]);
        // Pane 2 open: d3 probes the frozen pane 1.
        let p = j.insert_and_probe(doc(&dict, 3, "k", 1));
        assert_eq!(p.len(), 2);
        assert_eq!(j.frozen_panes(), 1);
    }

    #[test]
    fn eviction_drops_old_panes() {
        let dict = Dictionary::new();
        let mut j = SlidingJoiner::new(WindowSpec::sliding(1, 2)); // window = 2 panes of 1 doc
        j.insert_and_probe(doc(&dict, 1, "k", 7));
        j.insert_and_probe(doc(&dict, 2, "k", 7));
        // d1's pane has been evicted by now (window covers 2 newest panes,
        // one frozen + one open); d3 only sees d2.
        let p = j.insert_and_probe(doc(&dict, 3, "k", 7));
        assert_eq!(p, vec![DocId(2)]);
        assert!(j.window_len() <= 2);
    }

    #[test]
    fn window_len_tracks_contents() {
        let dict = Dictionary::new();
        let mut j = SlidingJoiner::new(WindowSpec::sliding(3, 2));
        for i in 0..7 {
            j.insert_and_probe(doc(&dict, i + 1, "k", i as i64));
        }
        assert_eq!(j.total_inserted(), 7);
        assert!(j.window_len() <= 6, "window holds {} docs", j.window_len());
    }

    #[test]
    fn agrees_with_nlj_within_single_pane_window() {
        let dict = Dictionary::new();
        // One giant pane == tumbling window; compare against NLJ.
        let docs: Vec<Document> = [
            r#"{"u":"A","s":"W"}"#,
            r#"{"u":"A","s":"W","m":2}"#,
            r#"{"u":"A","s":"E"}"#,
            r#"{"ip":"x","s":"W"}"#,
        ]
        .iter()
        .enumerate()
        .map(|(i, s)| Document::from_json(DocId(i as u64 + 1), s, &dict).unwrap())
        .collect();
        let mut j = SlidingJoiner::new(WindowSpec::sliding(100, 1));
        let mut got = Vec::new();
        for d in &docs {
            for p in j.insert_and_probe(d.clone()) {
                got.push((p, d.id()));
            }
        }
        got.sort();
        let mut want = crate::nlj::join_batch(&docs);
        want.sort();
        assert_eq!(got, want);
    }
}
