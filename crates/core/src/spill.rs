//! Sealed segment files: a pane's interned documents written to disk and
//! read back whole.
//!
//! The live topology keeps every window resident; only the repository
//! benchmark's per-layer replay uses this module, to time one pane's
//! segment write and read-back (`core.spill_*` rows). It can go once the
//! benchmark stops calling it (ROADMAP item 8b).
//!
//! Layout of a `.seg` file (all integers little-endian or LEB128 varints):
//!
//! ```text
//! magic u32 | version u16 | reserved u16 | dict epoch u64
//! doc_count varint
//! records back to back, sorted by document id:
//!   id varint (absolute for the first record, delta from the previous
//!              record otherwise)
//!   pair_count varint | (attr varint, avp varint) × pair_count
//! ```
//!
//! A segment is stamped with the dictionary's epoch (`wire::dict_epoch`):
//! its ids are interned, and decoding them against a different dictionary
//! would silently produce garbage documents. Read-back checks the magic,
//! the version, the epoch and that the records fill the file exactly.
//! Segment files are owned by their [`Segment`] handle and unlinked on
//! drop.

use ssj_json::{AttrId, AvpId, DocId, Document, Pair};
use ssj_runtime::wire::{put_varint, Cursor};
use std::borrow::Borrow;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `"SSJG"`: distinguishes segment files from §4f socket frames (`SSJW`).
const SEGMENT_MAGIC: u32 = u32::from_le_bytes(*b"SSJG");
/// Bumped on any incompatible layout change (2: no Bloom words, no block
/// index).
const SEGMENT_VERSION: u16 = 2;

/// Process-wide segment sequence: names files.
static NEXT_SEGMENT_ID: AtomicU64 = AtomicU64::new(1);

/// Where segments are written and the dictionary they are interned in.
#[derive(Debug, Clone)]
pub struct SpillSettings {
    /// Resident-byte budget the caller meters its state against; segment
    /// writing itself does not read it.
    pub budget: u64,
    /// Directory segment files are created in.
    pub dir: PathBuf,
    /// Dictionary content fingerprint (`wire::dict_epoch`), stamped into
    /// every segment.
    pub epoch: u64,
}

/// Handle of one immutable segment file. Unlinks its file on drop.
#[derive(Debug)]
pub struct Segment {
    path: PathBuf,
    epoch: u64,
    bytes: u64,
}

impl Segment {
    /// Serialize `docs` — owned, or shared handles ([`ssj_json::DocRef`]),
    /// which are only read through — into a new segment file under `dir`.
    /// Documents are sorted by id; the input order does not matter.
    fn write<D: Borrow<Document>>(
        dir: &Path,
        label: &str,
        epoch: u64,
        mut docs: Vec<D>,
    ) -> io::Result<Segment> {
        docs.sort_by_key(|d| d.borrow().id());
        let id = NEXT_SEGMENT_ID.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("ssj-{}-{label}-{id}.seg", std::process::id()));

        let mut out = Vec::new();
        out.extend_from_slice(&SEGMENT_MAGIC.to_le_bytes());
        out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
        put_varint(&mut out, docs.len() as u64);
        let mut prev_id = 0u64;
        for d in &docs {
            let d = d.borrow();
            put_varint(&mut out, d.id().0 - prev_id);
            prev_id = d.id().0;
            put_varint(&mut out, d.len() as u64);
            for p in d.pairs() {
                put_varint(&mut out, p.attr.0 as u64);
                put_varint(&mut out, p.avp.0 as u64);
            }
        }
        fs::write(&path, &out)?;
        Ok(Segment {
            path,
            epoch,
            bytes: out.len() as u64,
        })
    }

    /// On-disk size in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Read the whole segment back into memory, in id order.
    pub fn read_all(&self) -> io::Result<Vec<Document>> {
        decode(&fs::read(&self.path)?, self.epoch)
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Decode a segment file's bytes, rejecting a foreign file (magic), an
/// unknown layout (version), another dictionary's ids (epoch) and a file
/// whose records do not fill it exactly (truncated or trailing bytes).
fn decode(bytes: &[u8], expect_epoch: u64) -> io::Result<Vec<Document>> {
    let err = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    let truncated = |_| err("segment truncated".into());
    let mut c = Cursor::new(bytes);
    if c.u32_le().map_err(truncated)? != SEGMENT_MAGIC {
        return Err(err("bad segment magic".into()));
    }
    if c.u16_le().map_err(truncated)? != SEGMENT_VERSION {
        return Err(err("unsupported segment version".into()));
    }
    let _reserved = c.u16_le().map_err(truncated)?;
    let epoch = c.u64_le().map_err(truncated)?;
    if epoch != expect_epoch {
        return Err(err(format!(
            "segment dictionary epoch {epoch:#x} != expected {expect_epoch:#x}"
        )));
    }
    let doc_count = c.varint().map_err(truncated)? as usize;
    // Every record takes at least two bytes: an id and a pair count.
    if doc_count > c.remaining() / 2 {
        return Err(err("segment truncated".into()));
    }
    let mut docs = Vec::with_capacity(doc_count);
    let mut prev_id = 0u64;
    for _ in 0..doc_count {
        let id = prev_id
            .checked_add(c.varint().map_err(truncated)?)
            .ok_or_else(|| err("segment document id out of range".into()))?;
        prev_id = id;
        let npairs = c.varint().map_err(truncated)? as usize;
        if npairs > c.remaining() / 2 {
            return Err(err("segment truncated".into()));
        }
        let mut pairs = Vec::with_capacity(npairs);
        for _ in 0..npairs {
            let attr = c.varint().map_err(truncated)?;
            let avp = c.varint().map_err(truncated)?;
            pairs.push(Pair {
                attr: AttrId(attr as u32),
                avp: AvpId(avp as u32),
            });
        }
        docs.push(Document::from_pairs(DocId(id), pairs));
    }
    c.finish()
        .map_err(|_| err("segment trailing bytes".into()))?;
    Ok(docs)
}

/// Writes segments under one [`SpillSettings`], naming them after its
/// owner.
pub struct SpillStore {
    settings: Arc<SpillSettings>,
    label: String,
}

impl SpillStore {
    /// `label` names the owner inside segment file names.
    pub fn new(settings: Arc<SpillSettings>, label: impl Into<String>) -> SpillStore {
        SpillStore {
            settings,
            label: label.into(),
        }
    }

    /// Serialize `docs` into a fresh segment under the configured dir.
    pub fn write_segment<D: Borrow<Document>>(&self, docs: Vec<D>) -> io::Result<Arc<Segment>> {
        Segment::write(&self.settings.dir, &self.label, self.settings.epoch, docs).map(Arc::new)
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
        assert_eq!(seg.bytes(), fs::metadata(&seg.path).unwrap().len());
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
        fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn store_writes_under_its_settings() {
        let dir = tmpdir("store");
        let settings = SpillSettings {
            budget: 1 << 20,
            dir: dir.clone(),
            epoch: 42,
        };
        let store = SpillStore::new(Arc::new(settings), "t9");
        let seg = store.write_segment(docs_fixture(100)).unwrap();
        assert!(seg.path.starts_with(&dir));
        assert!(seg.path.to_string_lossy().contains("-t9-"));
        assert_eq!(seg.epoch, 42);
        assert_eq!(seg.read_all().unwrap(), docs_fixture(100));
        drop(seg);
        fs::remove_dir(&dir).unwrap();
    }

    /// Every header check and a cut anywhere in the file are named
    /// `InvalidData` errors, never a panic or a short read-back.
    #[test]
    fn corrupt_segments_are_rejected() {
        let dir = tmpdir("corrupt");
        let seg = Segment::write(&dir, "t0", 7, docs_fixture(10)).unwrap();
        let bytes = fs::read(&seg.path).unwrap();
        let rejects = |bytes: &[u8], epoch: u64, what: &str| {
            let e = decode(bytes, epoch).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(e.to_string().contains(what), "{what}: {e}");
        };
        rejects(&bytes, 8, "epoch");
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        rejects(&bad, 7, "magic");
        let mut bad = bytes.clone();
        bad[4] = 1;
        rejects(&bad, 7, "version");
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut], 7).is_err(), "cut at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        rejects(&long, 7, "trailing");
        assert_eq!(decode(&bytes, 7).unwrap(), docs_fixture(10));
        drop(seg);
        fs::remove_dir(&dir).unwrap();
    }
}
