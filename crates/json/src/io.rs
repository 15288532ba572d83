//! Streaming JSON Lines I/O.
//!
//! Real document streams arrive as newline-delimited JSON (the format
//! Twitter's APIs and most log shippers emit, cf. §I). [`JsonLinesReader`]
//! turns any `BufRead` into an iterator of parsed [`Value`]s without loading
//! the whole input; [`DocumentReader`] goes from the bytes straight to
//! interned [`Document`]s, a block at a time or on all cores at once.
//! [`write_jsonl`] is the inverse.

use crate::document::{DocError, DocId, Document};
use crate::flatten::Flattener;
use crate::intern::{Pair, Store, Table, Translation};
use crate::parser::{parse, ParseError};
use crate::{Dictionary, Value};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;

/// An error while reading a JSON Lines stream.
#[derive(Debug)]
pub enum JsonLinesError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line failed to parse; carries the 1-based line number.
    Parse {
        /// 1-based line number in the input.
        line: u64,
        /// The parse failure.
        error: ParseError,
    },
    /// A line parsed but was not a usable document (non-object / empty).
    NotADocument {
        /// 1-based line number in the input.
        line: u64,
    },
}

impl std::fmt::Display for JsonLinesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonLinesError::Io(e) => write!(f, "I/O error: {e}"),
            JsonLinesError::Parse { line, error } => {
                write!(f, "line {line}: {error}")
            }
            JsonLinesError::NotADocument { line } => {
                write!(f, "line {line}: not a JSON object with attributes")
            }
        }
    }
}

impl std::error::Error for JsonLinesError {}

impl From<io::Error> for JsonLinesError {
    fn from(e: io::Error) -> Self {
        JsonLinesError::Io(e)
    }
}

/// Iterator of parsed values from newline-delimited JSON. Blank lines are
/// skipped; a reused line buffer keeps allocations to a handful per stream.
pub struct JsonLinesReader<R> {
    reader: R,
    buf: String,
    line: u64,
}

impl<R: BufRead> JsonLinesReader<R> {
    /// Wrap a buffered reader.
    pub fn new(reader: R) -> Self {
        JsonLinesReader {
            reader,
            buf: String::new(),
            line: 0,
        }
    }

    /// Current 1-based line number (of the last yielded line).
    pub fn line(&self) -> u64 {
        self.line
    }
}

impl<R: BufRead> Iterator for JsonLinesReader<R> {
    type Item = Result<Value, JsonLinesError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.buf.clear();
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {
                    self.line += 1;
                    let text = self.buf.trim();
                    if text.is_empty() {
                        continue;
                    }
                    return Some(parse(text).map_err(|error| JsonLinesError::Parse {
                        line: self.line,
                        error,
                    }));
                }
                Err(e) => return Some(Err(e.into())),
            }
        }
    }
}

/// Bytes of input per block: the unit of parallel work and of read-ahead.
/// Large enough that a block's private table absorbs most repeats of a
/// value before they reach the shared dictionary, small enough that a
/// few-megabyte file still splits into work for every core.
const BLOCK_BYTES: usize = 256 * 1024;

/// Blocks read ahead of the oldest unfinished one, per worker. Bounds
/// memory: the loader never holds more input than this, whatever the file.
const BLOCKS_IN_FLIGHT_PER_WORKER: usize = 3;

/// [`DocumentReader::read_blocks`] keeps what it read ahead until its
/// caller takes it, so it reads smaller blocks and fewer ahead: 512 KiB of
/// input on two cores, where `read_all` has 1.5 MiB.
const STREAM_BLOCK_BYTES: usize = 128 * 1024;
const STREAM_BLOCKS_IN_FLIGHT_PER_WORKER: usize = 2;

/// Cuts a byte stream into blocks of whole lines.
struct BlockReader<R> {
    reader: R,
    /// The start of a line whose end was not in the previous block.
    carry: Vec<u8>,
    block_bytes: usize,
    at_end: bool,
    /// A failed read, due after the whole lines read before it.
    failure: Option<io::Error>,
}

impl<R: Read> BlockReader<R> {
    fn new(reader: R, block_bytes: usize) -> Self {
        BlockReader {
            reader,
            carry: Vec::new(),
            block_bytes,
            at_end: false,
            failure: None,
        }
    }

    /// The next block: about `block_bytes` long (longer only when a single
    /// line is), never empty, ending with a newline unless the input ends
    /// without one. `None` at the end of the input.
    fn next_block(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.at_end {
            return self.failure.take().map_or(Ok(None), Err);
        }
        let mut block = std::mem::take(&mut self.carry);
        // No newline in `block[..searched]`.
        let mut searched = 0;
        loop {
            let want = match self.block_bytes.saturating_sub(block.len()) {
                0 => self.block_bytes, // a line longer than a block: keep going
                short => short,
            };
            block.reserve(want);
            let read = (&mut self.reader).take(want as u64).read_to_end(&mut block);
            let got = match read {
                Ok(got) => got,
                // As with `read_line`: the lines that arrived whole still
                // count, the torn one is lost, then the error is reported.
                Err(e) => {
                    self.at_end = true;
                    let whole = block.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                    block.truncate(whole);
                    if block.is_empty() {
                        return Err(e);
                    }
                    self.failure = Some(e);
                    return Ok(Some(block));
                }
            };
            if got < want {
                self.at_end = true;
                return Ok((!block.is_empty()).then_some(block));
            }
            if let Some(newline) = block[searched..].iter().rposition(|&b| b == b'\n') {
                self.carry = block.split_off(searched + newline + 1);
                return Ok(Some(block));
            }
            searched = block.len();
        }
    }
}

/// One block after the first stage: its documents over a table private to
/// the block, which numbers attributes and pairs in order of first
/// appearance.
struct Tokenised {
    keys: Store,
    /// The documents' pairs (private ids), in leaf order, one document
    /// after the other.
    pairs: Vec<Pair>,
    /// Where each document ends in `pairs`.
    ends: Vec<usize>,
    /// Lines consumed: all of the block's, or up to the failing one.
    lines: u64,
    failure: Option<Failure>,
}

/// Why a block stopped early; `line` is 1-based within the block.
enum Failure {
    Parse { line: u64, error: ParseError },
    NotADocument { line: u64 },
    InvalidUtf8,
}

/// The first stage, run by a worker on one block at a time: tokenise each
/// line straight into leaves and intern those in a private table.
#[derive(Default)]
struct Tokeniser {
    flat: Flattener,
    table: Table,
}

impl Tokeniser {
    fn tokenise(&mut self, block: &[u8], lenient: bool) -> Tokenised {
        // Lines are judged in order, so text before an invalid byte is
        // still read; the line holding the byte is the one that fails, as
        // it does for `BufRead::read_line`.
        let (text, invalid) = match std::str::from_utf8(block) {
            Ok(text) => (text, false),
            Err(e) => {
                let valid = std::str::from_utf8(&block[..e.valid_up_to()]);
                (valid.expect("checked up to here"), true)
            }
        };
        let mut out = Tokenised {
            keys: Store::default(),
            pairs: Vec::new(),
            ends: Vec::new(),
            lines: 0,
            failure: None,
        };
        let mut rest = text;
        while !rest.is_empty() {
            let line = match rest.find('\n') {
                Some(newline) => {
                    let line = &rest[..newline];
                    rest = &rest[newline + 1..];
                    line
                }
                // What precedes an invalid byte on its line is not a line.
                None if invalid => break,
                None => std::mem::take(&mut rest),
            };
            out.lines += 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match self.flat.text(line) {
                Ok(true) => {
                    for (path, value) in self.flat.leaves(line) {
                        out.pairs.push(self.table.pair(path, value));
                    }
                    out.ends.push(out.pairs.len());
                }
                Ok(false) if lenient => {}
                Ok(false) => {
                    out.failure = Some(Failure::NotADocument { line: out.lines });
                    break;
                }
                Err(error) => {
                    out.failure = Some(Failure::Parse {
                        line: out.lines,
                        error,
                    });
                    break;
                }
            }
        }
        if invalid && out.failure.is_none() {
            out.lines += 1;
            out.failure = Some(Failure::InvalidUtf8);
        }
        out.keys = self.table.take_store();
        out
    }
}

/// One block after the second stage: its documents still in private ids,
/// with the translation to the dictionary's and its first document's id.
struct Unfinished {
    pairs: Vec<Pair>,
    ends: Vec<usize>,
    translation: Translation,
    first_id: u64,
}

/// The second stage, run on the blocks in input order by one thread: fold
/// a block's keys into the dictionary and number its documents and lines.
struct Merger {
    dict: Dictionary,
    next_id: u64,
    lines: u64,
}

impl Merger {
    /// Returns the block ready for the last stage, and the block's failure
    /// if it had one (its documents before the failing line are still good).
    fn merge(&mut self, block: Tokenised) -> (Unfinished, Option<JsonLinesError>) {
        let failure = block.failure.map(|failure| match failure {
            Failure::Parse { line, error } => JsonLinesError::Parse {
                line: self.lines + line,
                error,
            },
            Failure::NotADocument { line } => JsonLinesError::NotADocument {
                line: self.lines + line,
            },
            Failure::InvalidUtf8 => JsonLinesError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )),
        });
        self.lines += block.lines;
        let first_id = self.next_id;
        self.next_id += block.ends.len() as u64;
        let unfinished = Unfinished {
            translation: self.dict.absorb(&block.keys),
            pairs: block.pairs,
            ends: block.ends,
            first_id,
        };
        (unfinished, failure)
    }
}

/// The last stage, run by a worker: rewrite a block's documents to the
/// dictionary's ids, which also puts their pairs in the final order.
fn finish(block: Unfinished) -> Vec<Document> {
    let mut start = 0;
    (block.first_id..)
        .zip(&block.ends)
        .map(|(id, &end)| {
            let pairs = block.pairs[start..end]
                .iter()
                .map(|&pair| block.translation.pair(pair))
                .collect();
            start = end;
            Document::from_pairs(DocId(id), pairs)
        })
        .collect()
}

/// Interned [`Document`]s from newline-delimited JSON. Ids are assigned
/// sequentially starting at `first_id`; blank lines are skipped.
///
/// The input is cut into blocks of whole lines and every block goes through
/// three stages: *tokenise* (each line straight to leaves, interned in a
/// table private to the block), *merge* (the block's new keys folded into
/// the shared dictionary, blocks strictly in input order) and *finish* (the
/// documents rewritten to dictionary ids). As an [`Iterator`] the reader does
/// this one block at a time on the calling thread and never holds more than
/// a block of input. [`read_all`](Self::read_all) runs the first and last
/// stage of several blocks at once on worker threads. Because a private
/// table numbers keys in order of first appearance and blocks merge in
/// input order, both number attributes, pairs and documents exactly as
/// reading the input line by line would, whatever the block size and the
/// number of threads; and both report the failure of the lowest failing
/// line (DESIGN.md §4j).
pub struct DocumentReader<R> {
    blocks: BlockReader<R>,
    tokeniser: Tokeniser,
    merger: Merger,
    /// Documents of the last block read, not yet yielded.
    ready: std::vec::IntoIter<Document>,
    /// The last block's failure, due once `ready` is drained.
    failure: Option<JsonLinesError>,
    finished: bool,
    /// Skip lines that are valid JSON but not usable documents (arrays,
    /// scalars, empty objects) instead of erroring. Defaults to `false`.
    pub lenient: bool,
    /// Make the worker that tokenises this block panic.
    #[cfg(test)]
    panic_in_block: Option<u64>,
}

impl<R: Read> DocumentReader<R> {
    /// Wrap a reader, interning through `dict`. The reader needs no
    /// buffering of its own: it is read a block at a time.
    pub fn new(reader: R, dict: Dictionary, first_id: u64) -> Self {
        DocumentReader {
            blocks: BlockReader::new(reader, BLOCK_BYTES),
            tokeniser: Tokeniser::default(),
            merger: Merger {
                dict,
                next_id: first_id,
                lines: 0,
            },
            ready: Vec::new().into_iter(),
            failure: None,
            finished: false,
            lenient: false,
            #[cfg(test)]
            panic_in_block: None,
        }
    }

    /// Read the rest of the input with one worker thread per available
    /// core. Same documents, ids and error as collecting the iterator.
    pub fn read_all(self) -> Result<Vec<Document>, JsonLinesError> {
        self.read_all_with(available_workers(), BLOCK_BYTES)
    }

    /// [`read_all`](Self::read_all) without holding the documents: each
    /// block's go to `deliver`, in input order, as soon as they are
    /// finished, and the read stops early once `deliver` returns `false`.
    /// Before a failure `deliver` gets exactly the documents before the
    /// failing line, as the iterator yields them.
    pub fn read_blocks(
        mut self,
        mut deliver: impl FnMut(Vec<Document>) -> bool,
    ) -> Result<(), JsonLinesError> {
        self.blocks.block_bytes = STREAM_BLOCK_BYTES;
        let workers = available_workers();
        let in_flight = workers * STREAM_BLOCKS_IN_FLIGHT_PER_WORKER;
        self.read_blocks_on(workers, in_flight, &mut deliver)
    }

    /// [`read_all`](Self::read_all) with a given number of worker threads
    /// (none are started for `0` or `1`) and block size. The result does
    /// not depend on either; tests and benchmarks vary them to show it.
    pub fn read_all_with(
        mut self,
        workers: usize,
        block_bytes: usize,
    ) -> Result<Vec<Document>, JsonLinesError> {
        self.blocks.block_bytes = block_bytes.max(1);
        if workers <= 1 {
            return self.collect();
        }
        let mut docs = Vec::new();
        let in_flight = workers * BLOCKS_IN_FLIGHT_PER_WORKER;
        self.read_blocks_on(workers, in_flight, &mut |block| {
            docs.extend(block);
            true
        })?;
        Ok(docs)
    }

    /// The threaded pipeline: this thread reads and merges, `workers`
    /// threads tokenise and finish, `max_in_flight` blocks at most. What the
    /// iterator read already goes to `deliver` first, then the documents
    /// block by block.
    fn read_blocks_on(
        &mut self,
        workers: usize,
        max_in_flight: usize,
        deliver: &mut dyn FnMut(Vec<Document>) -> bool,
    ) -> Result<(), JsonLinesError> {
        let ready: Vec<Document> = self.ready.by_ref().collect();
        if !ready.is_empty() && !deliver(ready) {
            return Ok(());
        }
        if let Some(failure) = self.failure.take() {
            return Err(failure);
        }
        if self.finished {
            return Ok(());
        }
        let setup = WorkerSetup {
            lenient: self.lenient,
            #[cfg(test)]
            panic_in_block: self.panic_in_block,
        };
        let (job_tx, job_rx) = mpsc::channel();
        let job_rx = Mutex::new(job_rx);
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (job_rx, done_tx) = (&job_rx, done_tx.clone());
                scope.spawn(move || work(job_rx, done_tx, setup));
            }
            drop(done_tx);
            // `job_tx` goes out of use with this call, which is what lets
            // the workers (and with them the scope) end, error or not.
            self.coordinate(job_tx, done_rx, max_in_flight, deliver)
        })
    }

    fn coordinate(
        &mut self,
        jobs: mpsc::Sender<Job>,
        done: mpsc::Receiver<Done>,
        max_in_flight: usize,
        deliver: &mut dyn FnMut(Vec<Document>) -> bool,
    ) -> Result<(), JsonLinesError> {
        let worker_died =
            || JsonLinesError::Io(io::Error::other("a document-ingest worker thread panicked"));
        // Tokenised blocks that arrived ahead of their turn to merge, and
        // finished ones ahead of their turn to be delivered.
        let mut early: BTreeMap<u64, Tokenised> = BTreeMap::new();
        let mut finished: BTreeMap<u64, Vec<Document>> = BTreeMap::new();
        let (mut next_read, mut next_merge, mut next_out) = (0u64, 0u64, 0u64);
        let mut in_flight = 0;
        let mut input_done = false;
        // The first failure in input order. A failed read counts as a
        // failure of the lines after everything read before it, so a block
        // read before it that fails to merge replaces it. After a merge
        // failure nothing more is read or merged; the blocks before it, and
        // the good lines of the failing one, are still finished.
        let mut failure = None;
        let mut merging = true;
        loop {
            while !input_done && in_flight < max_in_flight {
                match self.blocks.next_block() {
                    Ok(Some(bytes)) => {
                        let job = Job::Tokenise(next_read, bytes);
                        jobs.send(job).map_err(|_| worker_died())?;
                        next_read += 1;
                        in_flight += 1;
                    }
                    Ok(None) => input_done = true,
                    Err(e) => {
                        input_done = true;
                        failure = Some(e.into());
                    }
                }
            }
            if in_flight == 0 {
                break;
            }
            match done.recv().map_err(|_| worker_died())? {
                Done::Panicked => return Err(worker_died()),
                // A block after a failed one.
                Done::Tokenised(..) if !merging => in_flight -= 1,
                Done::Tokenised(seq, block) => {
                    early.insert(seq, block);
                    while let Some(block) = early.remove(&next_merge) {
                        let (unfinished, failed) = self.merger.merge(block);
                        let job = Job::Finish(next_merge, unfinished);
                        jobs.send(job).map_err(|_| worker_died())?;
                        next_merge += 1;
                        if failed.is_some() {
                            (failure, input_done, merging) = (failed, true, false);
                            in_flight -= std::mem::take(&mut early).len();
                        }
                    }
                }
                Done::Finished(seq, docs) => {
                    finished.insert(seq, docs);
                    in_flight -= 1;
                    while let Some(docs) = finished.remove(&next_out) {
                        next_out += 1;
                        if !docs.is_empty() && !deliver(docs) {
                            return Ok(());
                        }
                    }
                }
            }
        }
        self.finished = true;
        failure.map_or(Ok(()), Err)
    }
}

/// One worker per available core.
fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What the coordinating thread asks of a worker; the number is the
/// block's position in the input.
enum Job {
    Tokenise(u64, Vec<u8>),
    Finish(u64, Unfinished),
}

/// What a worker reports back.
enum Done {
    Tokenised(u64, Tokenised),
    Finished(u64, Vec<Document>),
    /// The job panicked; the worker is gone.
    Panicked,
}

#[derive(Clone, Copy)]
struct WorkerSetup {
    lenient: bool,
    #[cfg(test)]
    panic_in_block: Option<u64>,
}

/// A worker thread: take jobs until the coordinator hangs up. A panic in a
/// job is reported instead of unwinding the thread, so that the coordinator
/// fails with an error rather than waiting for a block that never comes.
fn work(jobs: &Mutex<mpsc::Receiver<Job>>, done: mpsc::Sender<Done>, setup: WorkerSetup) {
    let mut tokeniser = Tokeniser::default();
    loop {
        // Waiting inside the lock is fine: whoever waits holds it, and the
        // others have nothing better to do than wait for the lock.
        let Ok(job) = jobs.lock().recv() else {
            return;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| match job {
            Job::Tokenise(seq, bytes) => {
                #[cfg(test)]
                assert_ne!(setup.panic_in_block, Some(seq), "injected worker panic");
                Done::Tokenised(seq, tokeniser.tokenise(&bytes, setup.lenient))
            }
            Job::Finish(seq, block) => Done::Finished(seq, finish(block)),
        }));
        let panicked = outcome.is_err();
        if done.send(outcome.unwrap_or(Done::Panicked)).is_err() || panicked {
            return;
        }
    }
}

impl<R: Read> Iterator for DocumentReader<R> {
    type Item = Result<Document, JsonLinesError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(doc) = self.ready.next() {
                return Some(Ok(doc));
            }
            if let Some(failure) = self.failure.take() {
                self.finished = true;
                return Some(Err(failure));
            }
            if self.finished {
                return None;
            }
            match self.blocks.next_block() {
                Ok(Some(bytes)) => {
                    let block = self.tokeniser.tokenise(&bytes, self.lenient);
                    let (unfinished, failure) = self.merger.merge(block);
                    self.ready = finish(unfinished).into_iter();
                    self.failure = failure;
                }
                Ok(None) => self.finished = true,
                Err(e) => {
                    self.finished = true;
                    return Some(Err(e.into()));
                }
            }
        }
    }
}

/// Write values as newline-delimited JSON.
pub fn write_jsonl<'a, W: Write>(
    out: &mut W,
    values: impl IntoIterator<Item = &'a Value>,
) -> io::Result<usize> {
    let mut n = 0;
    let mut buf = String::with_capacity(256);
    for v in values {
        buf.clear();
        v.write_json(&mut buf);
        buf.push('\n');
        out.write_all(buf.as_bytes())?;
        n += 1;
    }
    out.flush()?;
    Ok(n)
}

/// Write documents as newline-delimited JSON through the dictionary.
pub fn write_documents_jsonl<'a, W: Write>(
    out: &mut W,
    docs: impl IntoIterator<Item = &'a Document>,
    dict: &Dictionary,
) -> io::Result<usize> {
    let mut n = 0;
    for d in docs {
        let line = d.to_json(dict);
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        n += 1;
    }
    out.flush()?;
    Ok(n)
}

/// Parse a full in-memory JSON Lines string into documents (convenience for
/// tests and small inputs).
pub fn documents_from_jsonl(
    text: &str,
    dict: &Dictionary,
    first_id: u64,
) -> Result<Vec<Document>, DocError> {
    let mut out = Vec::new();
    let mut id = first_id;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(Document::from_json(DocId(id), line, dict)?);
        id += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn read_values_skipping_blanks() {
        let input = "{\"a\":1}\n\n  \n{\"b\":2}\n";
        let reader = JsonLinesReader::new(Cursor::new(input));
        let values: Result<Vec<Value>, _> = reader.collect();
        let values = values.unwrap();
        assert_eq!(values.len(), 2);
        assert_eq!(values[1].get("b").and_then(Value::as_int), Some(2));
    }

    #[test]
    fn parse_error_carries_line_number() {
        let input = "{\"a\":1}\n{oops\n";
        let mut reader = JsonLinesReader::new(Cursor::new(input));
        assert!(reader.next().unwrap().is_ok());
        match reader.next().unwrap() {
            Err(JsonLinesError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn document_reader_assigns_sequential_ids() {
        let dict = Dictionary::new();
        let input = "{\"a\":1}\n{\"b\":2}\n";
        let docs: Result<Vec<Document>, _> =
            DocumentReader::new(Cursor::new(input), dict, 100).collect();
        let docs = docs.unwrap();
        assert_eq!(docs[0].id(), DocId(100));
        assert_eq!(docs[1].id(), DocId(101));
    }

    #[test]
    fn strict_reader_rejects_non_documents() {
        let dict = Dictionary::new();
        let input = "{\"a\":1}\n[1,2]\n";
        let mut reader = DocumentReader::new(Cursor::new(input), dict, 0);
        assert!(reader.next().unwrap().is_ok());
        match reader.next().unwrap() {
            Err(JsonLinesError::NotADocument { line }) => assert_eq!(line, 2),
            other => panic!("expected NotADocument, got {other:?}"),
        }
    }

    #[test]
    fn lenient_reader_skips_non_documents() {
        let dict = Dictionary::new();
        let input = "[1]\n{\"a\":1}\n{}\n{\"b\":2}\n";
        let mut reader = DocumentReader::new(Cursor::new(input), dict, 0);
        reader.lenient = true;
        let docs: Result<Vec<Document>, _> = reader.collect();
        assert_eq!(docs.unwrap().len(), 2);
    }

    #[test]
    fn blocks_are_whole_lines_whatever_the_block_size() {
        let input =
            "{\"a\":1}\r\n\n{\"long\":\"0123456789012345678901234567890123456789\"}\n{\"b\":2}";
        for block_bytes in 1..input.len() + 2 {
            let mut blocks = BlockReader::new(Cursor::new(input), block_bytes);
            let mut joined = Vec::new();
            while let Some(block) = blocks.next_block().unwrap() {
                assert!(!block.is_empty());
                joined.extend_from_slice(&block);
                // Every block but the input's last ends a line.
                assert!(block.ends_with(b"\n") || joined.len() == input.len());
            }
            assert_eq!(joined, input.as_bytes(), "block_bytes {block_bytes}");
        }
    }

    #[test]
    fn a_panicking_worker_is_an_error_not_a_hang() {
        let input = "{\"a\":1}\n".repeat(64);
        for block in [0, 5] {
            let mut reader = DocumentReader::new(Cursor::new(&input), Dictionary::new(), 0);
            reader.panic_in_block = Some(block);
            match reader.read_all_with(3, 8) {
                Err(JsonLinesError::Io(e)) => assert!(e.to_string().contains("panicked"), "{e}"),
                other => panic!("expected an I/O error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_failing_read_loses_to_an_earlier_bad_line() {
        /// Yields `good`, then fails.
        struct Failing<'a>(&'a [u8]);
        impl Read for Failing<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Err(io::Error::other("disk on fire"));
                }
                let n = buf.len().min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        for workers in [1, 3] {
            let bad_line =
                DocumentReader::new(Failing(b"{\"a\":1}\n{oops\n"), Dictionary::new(), 0);
            assert!(matches!(
                bad_line.read_all_with(workers, 4),
                Err(JsonLinesError::Parse { line: 2, .. })
            ));
            let good_lines = DocumentReader::new(Failing(b"{\"a\":1}\n"), Dictionary::new(), 0);
            assert!(matches!(
                good_lines.read_all_with(workers, 4),
                Err(JsonLinesError::Io(_))
            ));
        }
    }

    /// `read_blocks` hands over the iterator's documents in input order
    /// block by block, stops when told to, and before a bad line delivers
    /// exactly the good lines before it, however small the blocks.
    #[test]
    fn read_blocks_streams_what_the_iterator_yields() {
        let lines: Vec<String> = (0..200).map(|i| format!("{{\"k\":{}}}", i % 7)).collect();
        let ids = |docs: &[Document]| docs.iter().map(|d| d.id().0).collect::<Vec<_>>();
        for bad in [None, Some(0), Some(57), Some(199)] {
            let mut input = lines.clone();
            if let Some(b) = bad {
                input[b] = "{oops".into();
            }
            let input = input.join("\n");
            let reader = || DocumentReader::new(Cursor::new(&input), Dictionary::new(), 0);
            let truth: Vec<_> = reader().map_while(Result::ok).collect();
            // The pipeline `read_blocks` runs, with small blocks.
            let stream = |block_bytes, deliver: &mut dyn FnMut(Vec<Document>) -> bool| {
                let mut r = reader();
                r.blocks.block_bytes = block_bytes;
                r.read_blocks_on(3, 6, deliver)
            };
            for block_bytes in [16, 64, 4096] {
                let (mut got, mut blocks) = (Vec::new(), 0);
                let read = stream(block_bytes, &mut |block| {
                    blocks += 1;
                    got.extend(block);
                    true
                });
                assert_eq!(ids(&got), ids(&truth), "bad {bad:?}, block {block_bytes}");
                assert_eq!(read.is_err(), bad.is_some());
                assert!(blocks > 1 || block_bytes == 4096 || bad.is_some());
                // Told to stop after the first block, it reads no further.
                let mut first = None;
                let _ = stream(block_bytes, &mut |block| first.replace(block).is_some());
                assert!(first.is_none_or(|b| truth.starts_with(&b) && !b.is_empty()));
            }
            let mut got = Vec::new();
            let read = reader().read_blocks(|block| {
                got.extend(block);
                true
            });
            assert_eq!((ids(&got), read.is_err()), (ids(&truth), bad.is_some()));
        }
    }

    /// A pair's content hash is its home: it must be the hash of its
    /// attribute name and value (written out here as first defined),
    /// whichever way the pair was interned — streamed blocks on one or two
    /// workers, `Document::from_value`, `Dictionary::intern`.
    #[test]
    fn homes_are_hashes_of_the_content_however_interned() {
        use crate::hash::FxHasher;
        use crate::{flatten_value, Scalar};
        use std::hash::{Hash, Hasher};
        fn reference_content_hash(name: &str, value: &Scalar) -> u32 {
            let mut h = FxHasher::default();
            h.write(name.as_bytes());
            h.write_u8(0xff);
            value.as_ref().hash(&mut h);
            let mut x = h.finish();
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            x ^= x >> 33;
            x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            x ^= x >> 33;
            x as u32
        }
        fn check(dict: &Dictionary, how: &str) {
            let content: Vec<(String, Scalar)> = (0..dict.avp_count() as u32)
                .map(|id| {
                    let avp = crate::AvpId(id);
                    (dict.attr_name(dict.avp_attr(avp)), dict.avp_scalar(avp))
                })
                .collect();
            let hashes = dict.content_hashes();
            for (id, (name, value)) in content.iter().enumerate() {
                let of = hashes.of(crate::AvpId(id as u32));
                assert_eq!(
                    of,
                    reference_content_hash(name, value),
                    "{how}: {name}={value:?}"
                );
            }
        }
        let lines: Vec<String> = (0..4000)
            .map(|i| {
                format!(
                    r#"{{"id":{i},"s":"v{}","f":{}.5,"b":{},"n":null,"o":{{"k{}":[{},"x"]}},"sparse_{}":"w{}"}}"#,
                    i % 97,
                    i % 31,
                    i % 3 == 0,
                    i % 11,
                    i % 5,
                    i % 40,
                    i % 13
                )
            })
            .collect();
        let input = lines.join("\n");
        assert!(input.len() > 2 * STREAM_BLOCK_BYTES);
        for workers in [1, 2] {
            let dict = Dictionary::new();
            DocumentReader::new(Cursor::new(&input), dict.clone(), 0)
                .read_all_with(workers, STREAM_BLOCK_BYTES)
                .unwrap();
            check(&dict, &format!("{workers} worker(s)"));
        }
        let (from_value, interned) = (Dictionary::new(), Dictionary::new());
        for line in &lines {
            let value = parse(line).unwrap();
            Document::from_value(DocId(0), &value, &from_value).unwrap();
            for (name, scalar) in flatten_value(&value).unwrap() {
                interned.intern(&name, scalar);
            }
        }
        check(&from_value, "from_value");
        check(&interned, "intern");
        assert!(interned.avp_count() > 4000);
    }

    /// Not a test: prints what each stage of loading `$SSJ_PROFILE_INPUT`
    /// costs on one thread (the numbers of EXPERIMENTS.md §ingest), in the
    /// blocks `ssj run` streams (`read_blocks`) unless `$SSJ_PROFILE_BLOCK`
    /// gives another size in bytes.
    /// `SSJ_PROFILE_INPUT=f.jsonl cargo test --release -p ssj-json --lib stage_profile -- --ignored --nocapture`
    #[test]
    #[ignore]
    fn stage_profile() {
        use std::time::Instant;
        let path = std::env::var("SSJ_PROFILE_INPUT").expect("set SSJ_PROFILE_INPUT");
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        let block_bytes: usize =
            std::env::var("SSJ_PROFILE_BLOCK").map_or(STREAM_BLOCK_BYTES, |v| v.parse().unwrap());

        let t = Instant::now();
        let mut blocks = BlockReader::new(std::fs::File::open(&path).unwrap(), block_bytes);
        let blocks: Vec<Vec<u8>> = std::iter::from_fn(|| blocks.next_block().unwrap()).collect();
        println!("read      {:8.1} ms  ({} blocks)", ms(t), blocks.len());

        let t = Instant::now();
        let mut flat = Flattener::default();
        let mut leaves = 0;
        for block in &blocks {
            for line in std::str::from_utf8(block).unwrap().lines() {
                assert!(flat.text(line.trim()).unwrap());
                leaves += flat.leaves(line.trim()).count();
            }
        }
        println!(
            "tokenise  {:8.1} ms  ({leaves} leaves, no interning)",
            ms(t)
        );

        let t = Instant::now();
        let mut tokeniser = Tokeniser::default();
        let tokenised: Vec<Tokenised> = blocks
            .iter()
            .map(|block| tokeniser.tokenise(block, false))
            .collect();
        let keys: usize = tokenised.iter().map(|b| b.keys.len()).sum();
        println!("  + intern{:8.1} ms  ({keys} block-local keys)", ms(t));

        let t = Instant::now();
        let scratch = Dictionary::new();
        for block in &tokenised {
            scratch.absorb(&block.keys);
        }
        let per_key = |t: Instant| t.elapsed().as_nanos() as f64 / keys as f64;
        println!(
            "merge     {:8.1} ms  ({:.0} ns per block-local key, {} pairs in the dictionary)",
            ms(t),
            per_key(t),
            scratch.avp_count()
        );
        let t = Instant::now();
        for block in &tokenised {
            scratch.absorb(&block.keys);
        }
        println!(
            "  again   {:8.1} ms  ({:.0} ns per block-local key, every key already known)",
            ms(t),
            per_key(t)
        );
        let mut merger = Merger {
            dict: Dictionary::new(),
            next_id: 0,
            lines: 0,
        };
        let unfinished: Vec<Unfinished> = tokenised
            .into_iter()
            .map(|block| merger.merge(block).0)
            .collect();

        let t = Instant::now();
        let docs: usize = unfinished
            .into_iter()
            .map(|block| finish(block).len())
            .sum();
        println!("finish    {:8.1} ms  ({docs} documents)", ms(t));

        for workers in [1, 2] {
            let t = Instant::now();
            let file = std::fs::File::open(&path).unwrap();
            let docs = DocumentReader::new(file, Dictionary::new(), 0)
                .read_all_with(workers, block_bytes)
                .unwrap();
            println!(
                "load      {:8.1} ms  ({workers} worker(s), {} documents)",
                ms(t),
                docs.len()
            );
        }

        let text = std::fs::read_to_string(&path).unwrap();
        let t = Instant::now();
        let values: Vec<Value> = text.lines().map(|l| parse(l).unwrap()).collect();
        println!("parse     {:8.1} ms  (to Value trees)", ms(t));
        let dict = Dictionary::new();
        let t = Instant::now();
        let n = values
            .iter()
            .filter_map(|v| Document::from_value(DocId(0), v, &dict))
            .count();
        println!(
            "from_value{:8.1} ms  ({n} documents, {:.0} ns/doc)",
            ms(t),
            ms(t) * 1e6 / n as f64
        );
        let t = Instant::now();
        let n = values
            .iter()
            .filter_map(|v| Document::from_value(DocId(0), v, &dict))
            .count();
        println!(
            "  again   {:8.1} ms  ({n} documents, {:.0} ns/doc)",
            ms(t),
            ms(t) * 1e6 / n as f64
        );
    }

    #[test]
    fn write_read_roundtrip() {
        let dict = Dictionary::new();
        let docs = vec![
            Document::from_json(DocId(0), r#"{"x":1,"y":"s"}"#, &dict).unwrap(),
            Document::from_json(DocId(1), r#"{"nested":{"k":[1,2]}}"#, &dict).unwrap(),
        ];
        let mut buf = Vec::new();
        let n = write_documents_jsonl(&mut buf, &docs, &dict).unwrap();
        assert_eq!(n, 2);
        let text = String::from_utf8(buf).unwrap();
        let back = documents_from_jsonl(&text, &dict, 0).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].pairs(), docs[0].pairs());
        assert_eq!(back[1].pairs(), docs[1].pairs());
    }

    #[test]
    fn write_values_roundtrip() {
        let values = vec![
            crate::parse(r#"{"a":1}"#).unwrap(),
            crate::parse(r#"[true,null]"#).unwrap(),
        ];
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &values).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let reader = JsonLinesReader::new(Cursor::new(text));
        let back: Result<Vec<Value>, _> = reader.collect();
        assert_eq!(back.unwrap(), values);
    }
}
