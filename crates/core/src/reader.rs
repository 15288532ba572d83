//! The Fig. 2 JsonReader, the one spout of every run. It begins a pane only
//! while fewer than [`Reader::lead`] panes are in flight — punctuated but
//! not yet given to the run's sink, which the Reporter counts back with one
//! credit per pane — whatever the source (DESIGN.md §7 "Backpressure").
//!
//! The credit is the control plane too (DESIGN.md §4 "Control plane"): pane
//! `k`'s credit carries the pane's θ signal, and the reader begins pane
//! `k + L` (`L` its lead) as a build on it, whatever the threads' timing.
//! As it begins a pane the creators build at — the attempt's first, or one
//! with a θ signal — it holds the whole pane, so it decides §VI-B's chain
//! there, once, and broadcasts it as [`Msg::Repartition`].

use crate::config::StreamJoinConfig;
use crate::msg::Msg;
use parking_lot::Mutex;
use ssj_json::{Dictionary, DocRef, DocumentReader};
use ssj_partition::Expansion;
use ssj_runtime::{Spout, SpoutEmit};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// Panes a free-running reader may run ahead of the sink; the lock-step
/// reader runs one.
pub const READER_LEAD: usize = 4;

/// Where a run's documents come from. Every source but
/// [`Reader::Lockstep`] punctuates each `config.pane_docs()` documents and
/// once more after a partial pane.
pub enum Reader {
    /// Replay the documents as fast as the credit loop lets them go.
    Docs(Vec<DocRef>),
    /// Open-loop pacing: document `i` enters `schedule[i]` ns after the
    /// first, and [`crate::WindowResult::latency`] charges it from then, so
    /// a stalled topology (or reader) shows as latency, not a slow source.
    Paced(Vec<DocRef>, Vec<u64>),
    /// One pane per inner `Vec`, whatever its length, at a lead of 1: pane
    /// `p + 1` is read once pane `p` has reached the sink, so the θ signal
    /// of pane `p` acts at boundary `p + 1` — §VI-A's "next window".
    Lockstep(Vec<Vec<DocRef>>),
    /// A JSON Lines file streamed into the run's dictionary, with ids `0, 1,
    /// …` in file order. A bad line or a read error ends the stream before
    /// its pane, and the run returns [`ssj_runtime::RunError::Input`].
    File(PathBuf),
}

/// A source's panes, in order; a failure ends them.
type Panes = Box<dyn Iterator<Item = Result<Vec<DocRef>, String>> + Send>;

impl Reader {
    /// Panes the reader may run ahead of the sink.
    pub fn lead(&self) -> usize {
        match self {
            Reader::Lockstep(_) => 1,
            _ => READER_LEAD,
        }
    }

    /// The reader spout of an attempt of `config` that starts at pane `p`,
    /// and the Reporter's end of its credit loop. The attempt reads
    /// documents `[p·pane..]` with the paced schedule rebased to its first
    /// due time, lock-step panes `[p..]`, or the file reopened with its
    /// first `p` panes read again and dropped — their pairs are in `dict`
    /// already, so no id moves.
    pub(crate) fn spout(
        &self,
        p: usize,
        config: &StreamJoinConfig,
        dict: &Dictionary,
    ) -> (ReaderSpout, Credit) {
        let pane = config.pane_docs();
        let at = p * pane;
        let chunks = |docs: &[DocRef]| -> Panes {
            let panes: Vec<_> = docs[at.min(docs.len())..]
                .chunks(pane)
                .map(<[_]>::to_vec)
                .collect();
            Box::new(panes.into_iter().map(Ok))
        };
        let (panes, schedule) = match self {
            Reader::Docs(docs) => (chunks(docs), None),
            Reader::Paced(docs, schedule) => {
                assert_eq!(docs.len(), schedule.len(), "one arrival time per document");
                let at = at.min(docs.len());
                let first = schedule.get(at).copied().unwrap_or(0);
                let rebased = schedule[at..].iter().map(|t| t.saturating_sub(first));
                (chunks(docs), Some(rebased.collect()))
            }
            Reader::Lockstep(panes) => {
                let panes: Vec<_> = panes[p.min(panes.len())..].to_vec();
                (Box::new(panes.into_iter().map(Ok)) as Panes, None)
            }
            Reader::File(path) => (streamed(path, dict, p, pane), None),
        };
        let (grant, credit) = mpsc::channel();
        let begun = Arc::new(AtomicU64::new(0));
        let spout = ReaderSpout {
            panes,
            pane: None,
            control: None,
            expand: config.expansion.then(|| (dict.clone(), config.m)),
            credit,
            lead: self.lead() as u64,
            begun: Arc::clone(&begun),
            schedule,
            anchor: Arc::default(),
            emitted: 0,
            failure: Arc::default(),
        };
        (spout, Credit(grant, begun, 0, 0))
    }
}

/// The panes of `path` from pane `p` on. The chunk-parallel loader reads
/// them on a thread of its own, at most a pane ahead of the reader, so
/// parsing overlaps the run; the panes before `p` are read again and
/// dropped. A failure ends the stream before its pane.
fn streamed(path: &Path, dict: &Dictionary, p: usize, pane: usize) -> Panes {
    let name = path.display().to_string();
    let file = match std::fs::File::open(path) {
        Ok(file) => file,
        Err(e) => return Box::new(std::iter::once(Err(format!("open {name}: {e}")))),
    };
    let reader = DocumentReader::new(file, dict.clone(), 0);
    let (tx, rx) = mpsc::sync_channel(0);
    std::thread::spawn(move || {
        let (mut skip, mut docs) = (p * pane, Vec::with_capacity(pane));
        // Until the file ends or the reader is gone.
        let read = reader.read_blocks(|block| {
            let skipped = skip.min(block.len());
            skip -= skipped;
            for doc in block.into_iter().skip(skipped) {
                docs.push(Arc::new(doc));
                if docs.len() == pane && tx.send(Ok(std::mem::take(&mut docs))).is_err() {
                    return false;
                }
            }
            true
        });
        let last = read.map(|()| docs).map_err(|e| format!("{name}: {e}"));
        if !matches!(&last, Ok(docs) if docs.is_empty()) {
            let _ = tx.send(last);
        }
    });
    Box::new(rx.into_iter())
}

/// The reader spout of one attempt.
pub(crate) struct ReaderSpout {
    panes: Panes,
    /// The rest of the pane being read, if one is.
    pane: Option<std::vec::IntoIter<DocRef>>,
    /// The build's [`Msg::Repartition`], still to broadcast before the
    /// pane's documents.
    control: Option<Msg>,
    /// With expansion on: the run's dictionary and `m`, to detect a build
    /// pane's chain.
    expand: Option<(Dictionary, usize)>,
    /// One credit per pane the sink got, in pane order, with the pane's θ
    /// signal; disconnected once no Reporter is left to grant one.
    credit: mpsc::Receiver<bool>,
    /// Panes the reader may run ahead of the sink.
    lead: u64,
    /// Panes begun, read by the Reporter to report the lead.
    begun: Arc<AtomicU64>,
    /// [`Reader::Paced`]: document `i` is due `schedule[i]` ns after the
    /// anchor, set at the first document.
    pub(crate) schedule: Option<Arc<[u64]>>,
    pub(crate) anchor: Arc<OnceLock<Instant>>,
    emitted: usize,
    /// The failure that ended the stream, which the run then returns.
    pub(crate) failure: Arc<Mutex<Option<String>>>,
}

impl Spout<Msg> for ReaderSpout {
    fn next(&mut self) -> SpoutEmit<Msg> {
        if let Some(msg) = self.control.take() {
            return SpoutEmit::Broadcast(msg);
        }
        let begun = self.begun.load(Ordering::Relaxed);
        if let Some(pane) = &mut self.pane {
            let Some(doc) = pane.next() else {
                self.pane = None;
                return SpoutEmit::Punctuate(begun - 1);
            };
            if let Some(schedule) = &self.schedule {
                let anchor = *self.anchor.get_or_init(Instant::now);
                let due = Duration::from_nanos(schedule[self.emitted]);
                if let Some(early) = due.checked_sub(anchor.elapsed()) {
                    std::thread::sleep(early);
                }
                self.emitted += 1;
            }
            return SpoutEmit::Message(Msg::Doc(doc));
        }
        let pane = match self.panes.next() {
            None => return SpoutEmit::Done,
            Some(Err(e)) => {
                *self.failure.lock() = Some(e);
                return SpoutEmit::Done;
            }
            Some(Ok(pane)) => pane,
        };
        // Pane `begun` needs the credit of pane `begun - lead`, and is a
        // build on its signal. The attempt's first pane is a build.
        let mut build = begun == 0;
        if begun >= self.lead {
            let Ok(repartition) = self.credit.recv() else {
                // The sink side is gone: end the stream, the run reports why.
                return SpoutEmit::Done;
            };
            build = repartition;
        }
        if build {
            // The chain's synthetic pairs get their ids here, in document
            // order: the tables break ties by pair id, so the ids must not
            // depend on which creator interns first.
            let chain = self.expand.as_ref().and_then(|(dict, m)| {
                let chain = Expansion::detect(&pane, dict, *m)?;
                for doc in &pane {
                    chain.synthetic_pair(doc, dict);
                }
                Some(Arc::new(chain))
            });
            self.control = Some(Msg::Repartition(chain));
        }
        self.begun.store(begun + 1, Ordering::Release);
        self.pane = Some(pane.into_iter());
        self.next()
    }
}

/// The Reporter's end of the credit loop: the grants' sender, the panes
/// the reader began, the panes granted and the reader's largest lead.
pub(crate) struct Credit(mpsc::Sender<bool>, Arc<AtomicU64>, u64, u64);

impl Credit {
    /// A pane reached the sink: let the reader begin one more, a build if
    /// the pane signalled `repartition`. Returns how many panes the reader's
    /// largest lead grew by; its lead only grows between grants, so it
    /// peaks just before one.
    pub(crate) fn grant(&mut self, repartition: bool) -> u64 {
        let Credit(grants, begun, granted, largest) = self;
        let lead = begun.load(Ordering::Acquire) - *granted;
        *granted += 1;
        let _ = grants.send(repartition);
        let grew = lead.saturating_sub(*largest);
        *largest += grew;
        grew
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_json::{write_documents_jsonl, DocId, Document};

    /// A run of `pane`-document tumbling windows on the default 8 joiners.
    fn config(pane: usize, expansion: bool) -> StreamJoinConfig {
        StreamJoinConfig::default()
            .with_window_spec(crate::WindowSpec::tumbling(pane))
            .with_expansion(expansion)
            .build()
            .unwrap()
    }

    /// What the spout of `reader` at pane `p` of 2 documents emits: a
    /// document's id, `|` for a punctuation or `R` for the bootstrap
    /// build's broadcast; and its failure. No Reporter is left to grant
    /// credit, so it ends after its lead.
    fn emitted(reader: &Reader, p: usize, dict: &Dictionary) -> (String, Option<String>) {
        let (mut spout, _) = reader.spout(p, &config(2, false), dict);
        let mut out = String::new();
        loop {
            match spout.next() {
                SpoutEmit::Message(Msg::Doc(doc)) => out += &doc.id().0.to_string(),
                SpoutEmit::Punctuate(_) => out += "|",
                SpoutEmit::Broadcast(Msg::Repartition(None)) => out += "R",
                _ => break,
            }
        }
        let failure = spout.failure.lock().take();
        (out, failure)
    }

    #[test]
    fn every_source_starts_at_a_pane() {
        let dict = Dictionary::new();
        let docs: Vec<Document> = (0..5u64)
            .map(|i| Document::from_json(DocId(i), &format!(r#"{{"a":{i}}}"#), &dict).unwrap())
            .collect();
        let refs: Vec<DocRef> = docs.iter().cloned().map(Arc::new).collect();
        let tail = ("R23|4|".to_string(), None);
        let at = |reader: &Reader, p| emitted(reader, p, &dict);
        assert_eq!(at(&Reader::Docs(refs.clone()), 1), tail);
        assert_eq!(at(&Reader::Docs(refs.clone()), 3), (String::new(), None));

        let paced = Reader::Paced(refs.clone(), vec![5, 15, 25, 35, 45]);
        let (spout, _) = paced.spout(1, &config(2, false), &dict);
        assert_eq!(spout.schedule.as_deref(), Some(&[0, 10, 20][..]));
        assert_eq!(at(&paced, 1), tail);

        // A lock-step reader stops after one pane without credit.
        let panes = Reader::Lockstep(vec![refs[..3].to_vec(), Vec::new(), refs[3..].to_vec()]);
        assert_eq!(at(&panes, 1), ("R|".to_string(), None));
        assert_eq!(at(&panes, 2), ("R34|".to_string(), None));
        assert_eq!((panes.lead(), paced.lead()), (1, READER_LEAD));

        // A file reopened at pane 1: the same ids, through a dictionary that
        // already holds the skipped documents' pairs or starts empty.
        let path = std::env::temp_dir().join(format!("ssj-reader-{}.jsonl", std::process::id()));
        let mut file = std::fs::File::create(&path).unwrap();
        write_documents_jsonl(&mut file, &docs, &dict).unwrap();
        let file = Reader::File(path.clone());
        assert_eq!(at(&file, 1), tail);
        assert_eq!(emitted(&file, 1, &Dictionary::new()), tail);
        // A bad line: the panes before its own, then the failure.
        std::fs::write(&path, "{\"a\":0}\n{\"a\":1}\n{\"a\":2}\n{oops\n{\"a\":4}\n").unwrap();
        let (out, failure) = at(&file, 0);
        assert_eq!(out, "R01|");
        let failure = failure.expect("a failure");
        assert!(failure.starts_with(&format!("{}: line 4: ", path.display())));
        std::fs::remove_file(&path).unwrap();
        let (out, failure) = at(&file, 0);
        assert!(out.is_empty() && failure.unwrap().starts_with("open "));
    }

    /// Pane `k + lead` is a build exactly when pane `k`'s credit carried a
    /// θ signal: it begins with a `Repartition`, broadcast to every
    /// downstream task before the pane's documents.
    #[test]
    fn a_pane_begins_with_the_signal_of_the_pane_a_lead_before() {
        let dict = Dictionary::new();
        let refs: Vec<DocRef> = (0..3u64)
            .map(|i| Arc::new(Document::from_json(DocId(i), r#"{"a":1}"#, &dict).unwrap()))
            .collect();
        let reader = Reader::Lockstep(refs.chunks(1).map(<[_]>::to_vec).collect());
        let (mut spout, credit) = reader.spout(0, &config(1, false), &dict);
        // The sink gets each pane as it is punctuated, and its credit
        // carries the signal the Assigners attached; then it is gone.
        let mut credit = Some(credit);
        let mut signals = [true, false].into_iter();
        let mut out = String::new();
        loop {
            match spout.next() {
                SpoutEmit::Message(Msg::Doc(doc)) => out += &doc.id().0.to_string(),
                SpoutEmit::Broadcast(Msg::Repartition(None)) => out += "R",
                SpoutEmit::Punctuate(_) => {
                    out += "|";
                    match signals.next() {
                        Some(signal) => _ = credit.as_mut().unwrap().grant(signal),
                        None => credit = None,
                    }
                }
                SpoutEmit::Done => break,
                _ => panic!("unexpected emission"),
            }
        }
        assert_eq!(out, "R0|R1|2|");
    }

    /// With expansion on, the reader decides §VI-B's chain over the whole
    /// pane of each build — the attempt's first pane and a pane begun with a
    /// θ signal — and broadcasts it before the pane's first document, with
    /// the pane's synthetic pairs already interned. Other panes begin with
    /// no `Repartition`.
    #[test]
    fn a_build_pane_begins_with_the_chain_detected_over_it() {
        const PANE: usize = 8;
        let dict = Dictionary::new();
        // A ubiquitous Boolean and a 4-valued attribute: 8 combinations.
        let refs: Vec<DocRef> = (0..4 * PANE as u64)
            .map(|i| {
                let json = format!(
                    r#"{{"flag":{},"grp":"g{}","id":{i}}}"#,
                    i % 2 == 0,
                    i / 2 % 4
                );
                Arc::new(Document::from_json(DocId(i), &json, &dict).unwrap())
            })
            .collect();
        let panes: Vec<Vec<DocRef>> = refs.chunks(PANE).map(<[_]>::to_vec).collect();
        let want = |pane: &[DocRef]| Expansion::detect(pane, &dict, 8).unwrap().chain;
        let reader = Reader::Lockstep(panes.clone());
        for start in [0, 1] {
            let (mut spout, credit) = reader.spout(start, &config(PANE, true), &dict);
            // Pane `start + 1` signals, so pane `start + 2` is a build.
            let mut signals = [false, true, false, false].into_iter();
            let (mut credit, mut pane, mut out) = (Some(credit), start, String::new());
            loop {
                match spout.next() {
                    SpoutEmit::Message(Msg::Doc(doc)) => {
                        assert_eq!(doc.id().0 as usize / PANE, pane);
                        out += "d";
                    }
                    SpoutEmit::Broadcast(Msg::Repartition(Some(e))) => {
                        assert_eq!(e.chain, want(&panes[pane]), "pane {pane}");
                        let interned = dict.avp_count();
                        for d in &panes[pane] {
                            e.synthetic_pair(d, &dict).unwrap();
                        }
                        assert_eq!(dict.avp_count(), interned, "pane {pane}");
                        out += &format!("E{pane}");
                    }
                    SpoutEmit::Punctuate(_) => {
                        out += "|";
                        pane += 1;
                        let repartition = signals.next().unwrap_or(false);
                        match credit.as_mut() {
                            Some(c) if pane < panes.len() => _ = c.grant(repartition),
                            _ => credit = None,
                        }
                    }
                    SpoutEmit::Done => break,
                    _ => panic!("unexpected emission"),
                }
            }
            let d = "d".repeat(PANE);
            let want = match start {
                0 => format!("E0{d}|{d}|E2{d}|{d}|"),
                _ => format!("E1{d}|{d}|E3{d}|"),
            };
            assert_eq!(out, want, "attempt starting at pane {start}");
        }
    }
}
