//! Out-of-core window state: LSM-tiered sealed segments (DESIGN.md §4i).
//!
//! When a pane/window seals and the configured memory budget is exceeded,
//! its interned document pool is serialized into an **immutable sorted
//! segment file** (varint record format built on the §4f wire primitives,
//! stamped with the dictionary's epoch), the heap arena is dropped,
//! and only a compact header stays resident: doc count, an AVP Bloom
//! summary, and the block offset index. Probes gate on the Bloom filter and
//! lazily read segment blocks back through a small direct-mapped block
//! cache; a background compaction task merges small runs into larger sorted
//! ones.
//!
//! Layout of a `.seg` file (all integers little-endian or LEB128 varints):
//!
//! ```text
//! magic u32 | version u16 | reserved u16 | dict epoch u64
//! doc_count varint | bloom_words varint | block_count varint
//! bloom words: u64 × bloom_words
//! block index: (docs varint, byte_len varint) × block_count
//! blocks: records back to back, ~4 KiB per block
//!   record: id varint (absolute for the first record of a block,
//!           delta from the previous record otherwise)
//!           pair_count varint | (attr varint, avp varint) × pair_count
//! ```
//!
//! Records are sorted by document id across the whole segment, so deltas
//! are non-negative and every block decodes independently of its siblings
//! (the block cache needs that). Segment files are owned by their resident
//! [`Segment`] header and unlinked on drop; `Arc<Segment>` sharing (pane
//! ring, snapshots, in-flight compactions) is what keeps a file alive.

use ssj_json::{AttrId, AvpId, DocId, Document, Pair};
use ssj_runtime::wire::{put_varint, Cursor};
use std::borrow::Borrow;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `"SSJG"`: distinguishes segment files from §4f socket frames (`SSJW`).
pub const SEGMENT_MAGIC: u32 = u32::from_le_bytes(*b"SSJG");
/// Bumped on any incompatible layout change.
pub const SEGMENT_VERSION: u16 = 1;
/// Target encoded size of one block; the unit of lazy read-back.
pub const BLOCK_TARGET_BYTES: usize = 4096;
/// A pane entry with at least this many spilled runs is handed to the
/// background compactor to be merged into one larger sorted run.
pub const COMPACT_MIN_RUNS: usize = 4;

/// Process-wide segment sequence: names files and keys the block cache.
static NEXT_SEGMENT_ID: AtomicU64 = AtomicU64::new(1);

/// Deployment-time spill settings, shared by every stateful task of a
/// topology. Built in `topology::build_custom` only when `mem_budget > 0`;
/// a budget of zero installs nothing at all.
#[derive(Debug, Clone)]
pub struct SpillSettings {
    /// Per-task resident-byte budget for sealed pane/window state.
    pub budget: u64,
    /// Directory segment files are created in.
    pub dir: PathBuf,
    /// Dictionary content fingerprint (`wire::dict_epoch`); stamped into
    /// every segment so stale files can never be decoded against a
    /// different interning epoch.
    pub epoch: u64,
}

impl SpillSettings {
    /// Sealed-chunk target size: budget/4 so the open pane tiers out in a
    /// handful of runs, capped to keep single segments manageable.
    pub fn chunk_target(&self) -> u64 {
        (self.budget / 4).clamp(1, 64 << 20)
    }
}

#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    offset: u64,
    len: u32,
    docs: u32,
}

/// Resident header of one immutable sorted segment file.
///
/// Holds the open read handle, the Bloom summary, and the block index —
/// everything needed to gate and serve probes without touching the heap
/// docs again. Unlinks its file on drop.
#[derive(Debug)]
pub struct Segment {
    id: u64,
    path: PathBuf,
    file: File,
    epoch: u64,
    doc_count: usize,
    bytes: u64,
    bloom: Box<[u64]>,
    blocks: Vec<BlockMeta>,
}

impl Segment {
    /// Serialize `docs` — owned, or shared handles ([`ssj_json::DocRef`]),
    /// which are only read through — into a new segment file under `dir`
    /// and return the resident header. Documents are sorted by id; the
    /// input order does not matter. The write path ends by re-opening the
    /// finished file through [`Segment::open`], so every spill also
    /// exercises the decode path symmetrically.
    pub fn write<D: Borrow<Document>>(
        dir: &Path,
        label: &str,
        epoch: u64,
        mut docs: Vec<D>,
    ) -> io::Result<Segment> {
        docs.sort_by_key(|d| d.borrow().id());
        let docs: Vec<&Document> = docs.iter().map(Borrow::borrow).collect();
        let id = NEXT_SEGMENT_ID.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("ssj-{}-{label}-{id}.seg", std::process::id()));

        let mut bloom = Bloom::with_capacity(docs.iter().map(|d| d.len()).sum());
        for d in &docs {
            for avp in d.avps() {
                bloom.insert(avp);
            }
        }

        // Encode blocks: ~BLOCK_TARGET_BYTES each, first record absolute.
        let mut blocks = Vec::new();
        let mut body = Vec::new();
        let mut block_start = 0usize;
        let mut block_docs = 0u32;
        let mut prev_id = 0u64;
        for d in &docs {
            if block_docs == 0 {
                put_varint(&mut body, d.id().0);
            } else {
                put_varint(&mut body, d.id().0 - prev_id);
            }
            prev_id = d.id().0;
            put_varint(&mut body, d.len() as u64);
            for p in d.pairs() {
                put_varint(&mut body, p.attr.0 as u64);
                put_varint(&mut body, p.avp.0 as u64);
            }
            block_docs += 1;
            if body.len() - block_start >= BLOCK_TARGET_BYTES {
                blocks.push((block_docs, (body.len() - block_start) as u32));
                block_start = body.len();
                block_docs = 0;
            }
        }
        if block_docs > 0 {
            blocks.push((block_docs, (body.len() - block_start) as u32));
        }

        let mut out = Vec::with_capacity(body.len() + bloom.words.len() * 8 + 64);
        out.extend_from_slice(&SEGMENT_MAGIC.to_le_bytes());
        out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
        put_varint(&mut out, docs.len() as u64);
        put_varint(&mut out, bloom.words.len() as u64);
        put_varint(&mut out, blocks.len() as u64);
        for w in bloom.words.iter() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for &(docs, len) in &blocks {
            put_varint(&mut out, docs as u64);
            put_varint(&mut out, len as u64);
        }
        out.extend_from_slice(&body);

        let mut f = File::create(&path)?;
        f.write_all(&out)?;
        drop(f);

        Segment::open_with_id(id, path, epoch)
    }

    /// Open an existing segment file, parse its header, and verify the
    /// dictionary epoch. A mismatched epoch is rejected outright — decoding
    /// interned ids against a different dictionary would silently produce
    /// garbage documents.
    pub fn open(path: PathBuf, expect_epoch: u64) -> io::Result<Segment> {
        let id = NEXT_SEGMENT_ID.fetch_add(1, Ordering::Relaxed);
        Segment::open_with_id(id, path, expect_epoch)
    }

    fn open_with_id(id: u64, path: PathBuf, expect_epoch: u64) -> io::Result<Segment> {
        let bytes = fs::read(&path)?;
        let total = bytes.len() as u64;
        let mut c = Cursor::new(&bytes);
        let err = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let magic = c.u32_le().map_err(|_| err("segment truncated"))?;
        if magic != SEGMENT_MAGIC {
            return Err(err("bad segment magic"));
        }
        let version = c.u16_le().map_err(|_| err("segment truncated"))?;
        if version != SEGMENT_VERSION {
            return Err(err("unsupported segment version"));
        }
        let _reserved = c.u16_le().map_err(|_| err("segment truncated"))?;
        let epoch = c.u64_le().map_err(|_| err("segment truncated"))?;
        if epoch != expect_epoch {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("segment dictionary epoch {epoch:#x} != expected {expect_epoch:#x}"),
            ));
        }
        let doc_count = c.varint().map_err(|_| err("segment truncated"))? as usize;
        let bloom_words = c.varint().map_err(|_| err("segment truncated"))? as usize;
        let block_count = c.varint().map_err(|_| err("segment truncated"))? as usize;
        if bloom_words > (1 << 24) || block_count > (1 << 30) {
            return Err(err("segment header out of range"));
        }
        let mut bloom = Vec::with_capacity(bloom_words);
        for _ in 0..bloom_words {
            bloom.push(c.u64_le().map_err(|_| err("segment truncated"))?);
        }
        let mut blocks = Vec::with_capacity(block_count);
        let mut sizes = Vec::with_capacity(block_count);
        for _ in 0..block_count {
            let docs = c.varint().map_err(|_| err("segment truncated"))? as u32;
            let len = c.varint().map_err(|_| err("segment truncated"))? as u32;
            sizes.push((docs, len));
        }
        let mut offset = (bytes.len() - c.remaining()) as u64;
        for (docs, len) in sizes {
            blocks.push(BlockMeta { offset, len, docs });
            offset += len as u64;
        }
        if offset != total {
            return Err(err("segment body length mismatch"));
        }
        let file = File::open(&path)?;
        Ok(Segment {
            id,
            path,
            file,
            epoch,
            doc_count,
            bytes: total,
            bloom: bloom.into_boxed_slice(),
            blocks,
        })
    }

    /// Unique in-process segment id (block-cache key component).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Dictionary epoch the segment was stamped with.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Documents stored in the segment.
    #[inline]
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// On-disk size in bytes (what `spill_bytes` accounts).
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of read-back blocks.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Resident footprint of the header (Bloom words + block index).
    pub fn header_bytes(&self) -> usize {
        std::mem::size_of::<Segment>()
            + self.bloom.len() * 8
            + self.blocks.len() * std::mem::size_of::<BlockMeta>()
    }

    /// Bloom gate: can this segment possibly hold a join partner for
    /// `probe`? Two documents join only if they share at least one
    /// identical attribute-value pair, so a probe whose AVPs all miss the
    /// summary cannot match anything here. Sound (never skips a real
    /// partner); false positives just cost a block read.
    pub fn may_contain_any(&self, probe: &Document) -> bool {
        probe.avps().any(|avp| self.bloom_contains(avp))
    }

    fn bloom_contains(&self, avp: AvpId) -> bool {
        let mask = (self.bloom.len() as u64 * 64) - 1;
        let (h1, h2) = bloom_hashes(avp);
        for h in [h1, h2] {
            let bit = h & mask;
            if self.bloom[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Decode one block from disk.
    pub fn read_block(&self, block: usize) -> io::Result<Vec<Document>> {
        let meta = self.blocks[block];
        let mut buf = vec![0u8; meta.len as usize];
        self.read_at(meta.offset, &mut buf)?;
        let err = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut c = Cursor::new(&buf);
        let mut docs = Vec::with_capacity(meta.docs as usize);
        let mut prev_id = 0u64;
        for i in 0..meta.docs {
            let raw = c.varint().map_err(|_| err("segment block truncated"))?;
            let id = if i == 0 { raw } else { prev_id + raw };
            prev_id = id;
            let npairs = c.varint().map_err(|_| err("segment block truncated"))? as usize;
            if npairs > meta.len as usize {
                return Err(err("segment record pair count out of range"));
            }
            let mut pairs = Vec::with_capacity(npairs);
            for _ in 0..npairs {
                let attr = c.varint().map_err(|_| err("segment block truncated"))?;
                let avp = c.varint().map_err(|_| err("segment block truncated"))?;
                pairs.push(Pair {
                    attr: AttrId(attr as u32),
                    avp: AvpId(avp as u32),
                });
            }
            docs.push(Document::from_pairs(DocId(id), pairs));
        }
        c.finish()
            .map_err(|_| err("segment block trailing bytes"))?;
        Ok(docs)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = File::open(&self.path)?;
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(buf)
        }
    }

    /// Find every stored document that joins with `probe` (excluding
    /// `probe` itself), appending partner ids to `out`. Blocks come back
    /// through `cache`; returns the number of blocks actually decoded from
    /// disk (0 when everything was cached). Callers should gate on
    /// [`Segment::may_contain_any`] first.
    ///
    /// Exactness: `Document::joins_with` is the very predicate the FP-tree
    /// probe implements (`fpjoin` proves `probe == pairwise definition`),
    /// so a spilled linear scan returns exactly the partner set a resident
    /// `fp_probe_into` would.
    pub fn probe_into(
        &self,
        probe: &Document,
        cache: &mut BlockCache,
        out: &mut Vec<DocId>,
    ) -> io::Result<u64> {
        let mut disk_reads = 0u64;
        for block in 0..self.blocks.len() {
            let (docs, from_disk) = cache.get(self, block)?;
            disk_reads += from_disk as u64;
            for d in docs.iter() {
                if d.id() != probe.id() && d.joins_with(probe) {
                    out.push(d.id());
                }
            }
        }
        Ok(disk_reads)
    }

    /// Read the whole segment back into memory, in id order.
    pub fn read_all(&self) -> io::Result<Vec<Document>> {
        let mut docs = Vec::with_capacity(self.doc_count);
        for block in 0..self.blocks.len() {
            docs.extend(self.read_block(block)?);
        }
        Ok(docs)
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

fn bloom_hashes(avp: AvpId) -> (u64, u64) {
    // Two cheap independent mixes of the 32-bit id (splitmix-style).
    let mut x = avp.0 as u64 + 0x9e37_79b9_7f4a_7c15;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let h1 = x ^ (x >> 31);
    let h2 = h1.rotate_left(32) | 1;
    (h1, h2)
}

struct Bloom {
    words: Vec<u64>,
}

impl Bloom {
    /// Size for ~16 bits per expected element (2 probes → low single-digit
    /// percent false-positive rate), clamped to keep headers compact.
    fn with_capacity(elems: usize) -> Bloom {
        let words = (elems / 4).next_power_of_two().clamp(8, 1 << 16);
        Bloom {
            words: vec![0u64; words],
        }
    }

    fn insert(&mut self, avp: AvpId) {
        let mask = (self.words.len() as u64 * 64) - 1;
        let (h1, h2) = bloom_hashes(avp);
        for h in [h1, h2] {
            let bit = h & mask;
            self.words[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }
}

/// Small direct-mapped cache of decoded segment blocks, keyed by
/// `(segment id, block)`. One per stateful task (bolts are
/// single-threaded), so plain `&mut` access — no locks on the probe path.
#[derive(Debug)]
pub struct BlockCache {
    slots: Box<[Option<CacheSlot>]>,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct CacheSlot {
    seg: u64,
    block: u32,
    docs: Arc<Vec<Document>>,
}

impl BlockCache {
    /// `slots` is rounded up to a power of two (minimum 8).
    pub fn new(slots: usize) -> BlockCache {
        let n = slots.next_power_of_two().max(8);
        BlockCache {
            slots: (0..n).map(|_| None).collect(),
            hits: 0,
            misses: 0,
        }
    }

    /// Fetch a decoded block, reading it from disk on a miss. The second
    /// tuple element is true when the block came from disk.
    #[allow(clippy::type_complexity)]
    pub fn get(&mut self, seg: &Segment, block: usize) -> io::Result<(Arc<Vec<Document>>, bool)> {
        let key_seg = seg.id();
        let key_block = block as u32;
        let idx = ((key_seg
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(key_block as u64))
            % self.slots.len() as u64) as usize;
        if let Some(slot) = &self.slots[idx] {
            if slot.seg == key_seg && slot.block == key_block {
                self.hits += 1;
                return Ok((Arc::clone(&slot.docs), false));
            }
        }
        self.misses += 1;
        let docs = Arc::new(seg.read_block(block)?);
        self.slots[idx] = Some(CacheSlot {
            seg: key_seg,
            block: key_block,
            docs: Arc::clone(&docs),
        });
        Ok((docs, true))
    }

    /// Drain the hit/miss counters (mirrored into task instruments).
    pub fn take_counters(&mut self) -> (u64, u64) {
        let out = (self.hits, self.misses);
        self.hits = 0;
        self.misses = 0;
        out
    }

    /// Drop every cached block that belongs to `seg_ids` (eviction on
    /// segment retirement keeps dead Arcs from pinning memory).
    pub fn evict_segments(&mut self, seg_ids: &[u64]) {
        for slot in self.slots.iter_mut() {
            if slot.as_ref().is_some_and(|s| seg_ids.contains(&s.seg)) {
                *slot = None;
            }
        }
    }
}

struct CompactRequest {
    inputs: Vec<Arc<Segment>>,
    dir: PathBuf,
    label: String,
    epoch: u64,
}

/// Outcome of one background merge: the ids of the consumed runs and the
/// merged replacement segment (already an `Arc` so the caller can splice it
/// straight into a pane entry).
pub struct CompactResult {
    /// Segment ids the merge consumed.
    pub input_ids: Vec<u64>,
    /// The merged sorted run.
    pub merged: io::Result<Arc<Segment>>,
}

/// Background compaction task: merges batches of small sorted runs into
/// one larger sorted run off the hot path. One thread per [`SpillStore`],
/// started lazily on the first request; requests and results flow over
/// channels, so the bolt never blocks on a merge.
struct Compactor {
    tx: Sender<CompactRequest>,
    rx: Receiver<CompactResult>,
    handle: Option<JoinHandle<()>>,
}

impl Compactor {
    fn start() -> Compactor {
        let (tx, req_rx) = channel::<CompactRequest>();
        let (res_tx, rx) = channel::<CompactResult>();
        let handle = std::thread::Builder::new()
            .name("ssj-compactor".into())
            .spawn(move || {
                while let Ok(req) = req_rx.recv() {
                    let input_ids = req.inputs.iter().map(|s| s.id()).collect();
                    let merged = compact(&req);
                    if res_tx.send(CompactResult { input_ids, merged }).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn compactor thread");
        Compactor {
            tx,
            rx,
            handle: Some(handle),
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        // Closing the request channel ends the loop; join so in-flight
        // merges finish writing (their segments drop and unlink cleanly).
        let (tx, _) = channel();
        drop(std::mem::replace(&mut self.tx, tx));
        while self.rx.try_recv().is_ok() {}
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn compact(req: &CompactRequest) -> io::Result<Arc<Segment>> {
    let mut docs = Vec::with_capacity(req.inputs.iter().map(|s| s.doc_count()).sum());
    for seg in &req.inputs {
        docs.extend(seg.read_all()?);
    }
    // Runs from one pane are disjoint; Segment::write re-sorts by id.
    Ok(Arc::new(Segment::write(
        &req.dir, &req.label, req.epoch, docs,
    )?))
}

/// Per-task spill machinery: settings, block cache, and the lazy
/// background compactor. Owned by a stateful bolt task; created only when
/// the topology runs with a non-zero memory budget.
pub struct SpillStore {
    settings: Arc<SpillSettings>,
    label: String,
    /// Probe-side block cache (public: bolts drain its counters).
    pub cache: BlockCache,
    compactor: Option<Compactor>,
    in_flight: usize,
}

impl SpillStore {
    /// `label` names the owning task (e.g. `j3`) inside segment file names.
    pub fn new(settings: Arc<SpillSettings>, label: impl Into<String>) -> SpillStore {
        SpillStore {
            settings,
            label: label.into(),
            cache: BlockCache::new(64),
            compactor: None,
            in_flight: 0,
        }
    }

    /// The deployment-wide settings this store was built from.
    pub fn settings(&self) -> &SpillSettings {
        &self.settings
    }

    /// Serialize `docs` into a fresh segment under the configured dir.
    pub fn write_segment<D: Borrow<Document>>(&self, docs: Vec<D>) -> io::Result<Arc<Segment>> {
        Segment::write(&self.settings.dir, &self.label, self.settings.epoch, docs).map(Arc::new)
    }

    /// Hand a batch of small runs to the background compactor. Starts the
    /// compactor thread on first use.
    pub fn request_compaction(&mut self, inputs: Vec<Arc<Segment>>) {
        let compactor = self.compactor.get_or_insert_with(Compactor::start);
        let req = CompactRequest {
            inputs,
            dir: self.settings.dir.clone(),
            label: self.label.clone(),
            epoch: self.settings.epoch,
        };
        if compactor.tx.send(req).is_ok() {
            self.in_flight += 1;
        }
    }

    /// Non-blocking poll for a finished merge.
    pub fn poll_compaction(&mut self) -> Option<CompactResult> {
        let compactor = self.compactor.as_ref()?;
        match compactor.rx.try_recv() {
            Ok(res) => {
                self.in_flight -= 1;
                Some(res)
            }
            Err(TryRecvError::Empty | TryRecvError::Disconnected) => None,
        }
    }

    /// Number of compaction requests not yet polled back.
    pub fn compactions_in_flight(&self) -> usize {
        self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: u64, pairs: &[(u32, u32)]) -> Document {
        Document::from_pairs(
            DocId(id),
            pairs
                .iter()
                .map(|&(a, v)| Pair {
                    attr: AttrId(a),
                    avp: AvpId(v),
                })
                .collect(),
        )
    }

    fn docs_fixture(n: u64) -> Vec<Document> {
        (0..n)
            .map(|i| {
                let a = (i % 7) as u32;
                let v = (i % 13) as u32;
                doc(i, &[(a, v), (a + 7, v + 13), (a + 20, (i % 3) as u32 + 40)])
            })
            .collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ssj-spill-test-{}-{tag}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn segment_roundtrip_sorted() {
        let dir = tmpdir("roundtrip");
        let mut docs = docs_fixture(2000);
        docs.reverse(); // input order must not matter
        let seg = Segment::write(&dir, "t0", 0xabcd, docs).unwrap();
        assert_eq!(seg.doc_count(), 2000);
        assert_eq!(seg.epoch(), 0xabcd);
        assert!(seg.block_count() > 1, "fixture should span blocks");
        let back = seg.read_all().unwrap();
        assert_eq!(
            back,
            docs_fixture(2000),
            "read-back is id-sorted and lossless"
        );
        let path = seg.path.clone();
        assert!(path.exists());
        drop(seg);
        assert!(!path.exists(), "segment file unlinked on drop");
    }

    #[test]
    fn epoch_mismatch_rejected() {
        let dir = tmpdir("epoch");
        let seg = Segment::write(&dir, "t0", 7, docs_fixture(10)).unwrap();
        // Keep the file alive past the first header's drop.
        let path = seg.path.clone();
        let copy = path.with_extension("copy.seg");
        fs::copy(&path, &copy).unwrap();
        let err = Segment::open(copy.clone(), 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("epoch"), "{err}");
        let ok = Segment::open(copy, 7).unwrap();
        assert_eq!(ok.doc_count(), 10);
    }

    #[test]
    fn bloom_gate_is_sound() {
        let dir = tmpdir("bloom");
        let docs = docs_fixture(200);
        let seg = Segment::write(&dir, "t0", 0, docs.clone()).unwrap();
        // Every stored document must pass its own gate (no false negatives).
        for d in &docs {
            assert!(seg.may_contain_any(d));
        }
        // A document sharing no AVP universe at all overwhelmingly misses.
        let alien = doc(9999, &[(1000, 100_000)]);
        // Not guaranteed false (Bloom), but probing must still be exact:
        let mut cache = BlockCache::new(8);
        let mut out = Vec::new();
        seg.probe_into(&alien, &mut cache, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn probe_matches_pairwise_definition() {
        let dir = tmpdir("probe");
        let docs = docs_fixture(300);
        let seg = Segment::write(&dir, "t0", 0, docs.clone()).unwrap();
        let mut cache = BlockCache::new(16);
        let probe = &docs[17];
        let mut out = Vec::new();
        if seg.may_contain_any(probe) {
            seg.probe_into(probe, &mut cache, &mut out).unwrap();
        }
        let mut expect: Vec<DocId> = docs
            .iter()
            .filter(|o| o.id() != probe.id() && o.joins_with(probe))
            .map(|o| o.id())
            .collect();
        out.sort();
        expect.sort();
        assert_eq!(out, expect);
        assert!(!expect.is_empty(), "fixture should have partners");
    }

    #[test]
    fn block_cache_hits_and_evicts() {
        let dir = tmpdir("cache");
        let seg = Segment::write(&dir, "t0", 0, docs_fixture(400)).unwrap();
        let mut cache = BlockCache::new(64);
        let (_, disk) = cache.get(&seg, 0).unwrap();
        assert!(disk);
        let (_, disk) = cache.get(&seg, 0).unwrap();
        assert!(!disk, "second fetch served from cache");
        let (hits, misses) = cache.take_counters();
        assert_eq!((hits, misses), (1, 1));
        cache.evict_segments(&[seg.id()]);
        let (_, disk) = cache.get(&seg, 0).unwrap();
        assert!(disk, "evicted block re-read from disk");
    }

    #[test]
    fn compactor_merges_runs() {
        let dir = tmpdir("compact");
        let settings = Arc::new(SpillSettings {
            budget: 1 << 20,
            dir: dir.clone(),
            epoch: 42,
        });
        let mut store = SpillStore::new(settings, "t9");
        let a = store.write_segment(docs_fixture(100)).unwrap();
        let b = store
            .write_segment(
                (100..200)
                    .map(|i| docs_fixture(200)[i as usize].clone())
                    .collect(),
            )
            .unwrap();
        store.request_compaction(vec![Arc::clone(&a), Arc::clone(&b)]);
        assert_eq!(store.compactions_in_flight(), 1);
        let res = loop {
            if let Some(res) = store.poll_compaction() {
                break res;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        assert_eq!(store.compactions_in_flight(), 0);
        let mut ids = res.input_ids.clone();
        ids.sort();
        let mut expect = vec![a.id(), b.id()];
        expect.sort();
        assert_eq!(ids, expect);
        let merged = res.merged.unwrap();
        assert_eq!(merged.doc_count(), 200);
        assert_eq!(merged.epoch(), 42);
        assert_eq!(merged.read_all().unwrap(), docs_fixture(200));
    }
}
