//! Global interning of attributes and attribute-value pairs.
//!
//! Every hot algorithm in this workspace (partitioning, FP-tree construction,
//! joining) operates on dense `u32` ids instead of strings: [`AttrId`] for an
//! attribute (a flattened path) and [`AvpId`] for one attribute-value pair.
//! The [`Dictionary`] is shared across threads behind an `Arc`.
//!
//! Ids are dense and allocation-ordered, so `Vec`-indexed side tables keyed by
//! id are cheap everywhere else.
//!
//! # Layout: every string is stored once
//!
//! A `Table` is an append-only reverse store (`id → name`, `id → (attr,
//! scalar)`, per-attribute distinct-value counts) plus two `IdIndex`es that
//! map a key's hash back to its id. The indexes hold no keys, only ids and
//! 32 bits of each key's hash; a probe compares the key it was given against
//! the reverse store. So a lookup takes a *borrowed* key — `&str`, or
//! `(AttrId, ScalarRef)` — and a hit is one hash and one probe with no
//! allocation. The store keeps names and string values back to back in one
//! text buffer, so a miss is an append: no allocation of its own either,
//! beyond the buffers' amortised growth.
//!
//! A leaf is hashed once. One Fx pass over its attribute name gives the
//! attribute index's hash and, carried on over the value, the pair's
//! content hash ([`ContentHashes`]): the pair index's tag and home slot, in
//! a worker's private table and in the dictionary alike, and the pair's
//! home partition. The stored pair keeps it, so folding a block into the
//! dictionary hashes nothing.
//!
//! Callers with many keys in hand (a document's leaves, a block's keys)
//! look them up 32 at a time, step by step across the batch
//! (`IdIndex::find_many`): every key's home slot, then every key's walk
//! along its probe cluster to its tag or a free slot, then every
//! comparison. In a table larger than the cache a lookup is a chain of
//! misses, and only misses of different keys can overlap.
//!
//! # Concurrency and locking protocol
//!
//! One `RwLock` guards the whole table. A hit takes it shared; a miss drops
//! it, takes it exclusively and probes again (another thread may have added
//! the key in between) before appending, so an id seen through an index is
//! always resolvable through the store. There is one lock, so there is no
//! lock order.
//!
//! That is enough because nothing interns on a hot parallel path any more.
//! Bulk ingest (`crate::io`) gives every parser thread a private `Table` per
//! block of input and folds the finished blocks into the shared dictionary in
//! file order with `Dictionary::absorb`: one exclusive acquisition per
//! block, by one thread. What is left are occasional callers — the
//! generators, [`Document::from_value`](crate::Document::from_value), the
//! wire codec for a symbol's first arrival on a link, the assigners' one synthetic pair
//! per document — and the reverse getters, which were always behind a single
//! lock. (Earlier versions striped the forward maps over 16 locks and kept a
//! per-thread cache of hot pairs for the parser threads that no longer come
//! here; EXPERIMENTS.md, "Document ingest", has the measurement that retired
//! both.)

use crate::hash::FxHasher;
use crate::scalar::ScalarRef;
use crate::Scalar;
use parking_lot::RwLock;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Dense id of an interned attribute (flattened JSON path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u32);

/// Dense id of an interned attribute-value pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AvpId(pub u32);

impl AttrId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl AvpId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for AvpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One attribute-value pair of a document: the attribute id plus the id of
/// the full pair. Carrying both keeps the hot join paths free of dictionary
/// lookups (conflict tests only compare ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pair {
    /// The attribute this pair belongs to.
    pub attr: AttrId,
    /// The interned (attribute, value) pair id.
    pub avp: AvpId,
}

/// The append-only reverse store: everything indexed by dense id. Names
/// and string values sit back to back in one buffer, so adding one is an
/// append, not an allocation of its own.
#[derive(Default)]
pub(crate) struct Store {
    text: String,
    attrs: Vec<StoredAttr>,
    avps: Vec<StoredPair>,
}

/// An attribute: its name in [`Store::text`] and what is kept with it.
#[derive(Clone, Copy)]
struct StoredAttr {
    name: Span,
    /// The name's tag in the attribute index, kept so that absorbing a
    /// block's attributes hashes none of them again.
    tag: u32,
    /// Count of distinct values seen so far.
    distinct: u32,
}

/// A piece of [`Store::text`].
#[derive(Clone, Copy)]
struct Span {
    start: usize,
    len: usize,
}

#[derive(Clone, Copy)]
struct StoredPair {
    attr: AttrId,
    /// [`content_hash`] of the pair: it sits in the padding after `attr`.
    content: u32,
    value: StoredScalar,
}

/// A [`Scalar`] whose string is in [`Store::text`].
#[derive(Clone, Copy)]
enum StoredScalar {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Span),
}

impl Store {
    fn str(&self, span: Span) -> &str {
        &self.text[span.start..span.start + span.len]
    }

    fn push_str(&mut self, s: &str) -> Span {
        let start = self.text.len();
        self.text.push_str(s);
        Span {
            start,
            len: s.len(),
        }
    }

    fn attr_name(&self, id: AttrId) -> &str {
        self.str(self.attrs[id.index()].name)
    }

    fn value(&self, id: AvpId) -> ScalarRef<'_> {
        self.scalar(self.avps[id.index()].value)
    }

    fn scalar(&self, stored: StoredScalar) -> ScalarRef<'_> {
        match stored {
            StoredScalar::Null => ScalarRef::Null,
            StoredScalar::Bool(b) => ScalarRef::Bool(b),
            StoredScalar::Int(i) => ScalarRef::Int(i),
            StoredScalar::Float(f) => ScalarRef::Float(f),
            StoredScalar::Str(span) => ScalarRef::Str(self.str(span)),
        }
    }

    /// Attributes plus pairs held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.attrs.len() + self.avps.len()
    }
}

/// Hash → id index by open addressing with linear probing. A slot is
/// `tag << 32 | (id + 1)`, zero when free, where the tag is 32 bits of the
/// key's hash; the tag also chooses the home slot, so growing needs no key.
#[derive(Default)]
struct IdIndex {
    /// Power-of-two length (or empty), at most half full.
    slots: Vec<u64>,
    len: usize,
}

impl IdIndex {
    /// The id among those stored under `tag` for which `is_key` holds.
    #[inline]
    fn find(&self, tag: u32, is_key: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.find_from(tag as usize, tag, is_key)
    }

    /// [`find`](Self::find) walking on from slot `at` (the home slot, or
    /// one past it); the index must not be empty.
    fn find_from(&self, mut at: usize, tag: u32, is_key: impl Fn(u32) -> bool) -> Option<u32> {
        let mask = self.slots.len() - 1;
        loop {
            at &= mask;
            let slot = self.slots[at];
            if slot == 0 {
                return None;
            }
            let id = (slot as u32).wrapping_sub(1);
            if (slot >> 32) as u32 == tag && is_key(id) {
                return Some(id);
            }
            at += 1;
        }
    }

    /// [`find`](Self::find) for up to [`LOOKAHEAD`] keys at once:
    /// `found[i]` is the id stored under `tags[i]` for which `is_key(i, id)`
    /// holds.
    ///
    /// One probe in an index that has outgrown the cache is a chain of
    /// dependent misses: the home slot, then what the caller loads to
    /// compare the key. Done key after key the chains run back to back.
    /// Here each step is taken for all keys before the next step of any, so
    /// the misses of a step are independent loads the processor overlaps:
    /// first every key's home slot; then, for each key, the walk along its
    /// cluster up to the first slot with its tag or a free one (mostly in
    /// the home slot's cache line); then the comparisons. Only a tag that
    /// a different key shares walks on alone, from where it stopped.
    fn find_many(
        &self,
        tags: &[u32],
        is_key: impl Fn(usize, u32) -> bool,
        found: &mut [Option<u32>],
    ) {
        assert!(tags.len() <= LOOKAHEAD && tags.len() == found.len());
        if self.slots.is_empty() {
            found.fill(None);
            return;
        }
        let mask = self.slots.len() - 1;
        let mut at = [0; LOOKAHEAD];
        let mut slots = [0; LOOKAHEAD];
        for (i, &tag) in tags.iter().enumerate() {
            at[i] = tag as usize & mask;
            slots[i] = self.slots[at[i]];
        }
        for (i, &tag) in tags.iter().enumerate() {
            while slots[i] != 0 && (slots[i] >> 32) as u32 != tag {
                at[i] = (at[i] + 1) & mask;
                slots[i] = self.slots[at[i]];
            }
        }
        for (i, &tag) in tags.iter().enumerate() {
            let id = (slots[i] as u32).wrapping_sub(1);
            found[i] = match slots[i] {
                0 => None,
                _ if is_key(i, id) => Some(id),
                _ => self.find_from(at[i] + 1, tag, |id| is_key(i, id)),
            };
        }
    }

    /// Add `id` under `tag`; the key must not be present.
    fn insert(&mut self, tag: u32, id: u32) {
        if (self.len + 1) * 2 > self.slots.len() {
            let grown = vec![0; (self.slots.len() * 2).max(16)];
            for slot in std::mem::replace(&mut self.slots, grown) {
                if slot != 0 {
                    self.place(slot);
                }
            }
        }
        self.place(u64::from(tag) << 32 | (u64::from(id) + 1));
        self.len += 1;
    }

    fn place(&mut self, slot: u64) {
        let mask = self.slots.len() - 1;
        let mut at = (slot >> 32) as usize & mask;
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at] = slot;
    }

    /// Forget every id, keeping the allocation.
    fn clear(&mut self) {
        self.slots.fill(0);
        self.len = 0;
    }
}

/// One Fx pass over an attribute name. It is the attribute index's hash,
/// and carried on over a value it is the pair's [`content_hash`]: a leaf is
/// hashed once for both indexes and for its home.
#[derive(Clone, Copy)]
struct NameHash(FxHasher);

impl NameHash {
    #[inline]
    fn new(name: &str) -> Self {
        let mut h = FxHasher::default();
        h.write(name.as_bytes());
        NameHash(h)
    }

    /// The attribute index's tag.
    #[inline]
    fn attr_tag(self) -> u32 {
        (self.0.finish() >> 32) as u32
    }

    /// The [`content_hash`] of the name with `value`.
    #[inline]
    fn content(self, value: ScalarRef<'_>) -> u32 {
        let mut h = self.0;
        h.write_u8(0xff);
        value.hash(&mut h);
        // Fx's low bits depend on few input bits: finish with a full mix
        // (MurmurHash3's fmix64) before the caller reduces modulo `m`.
        let mut x = h.finish();
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        x as u32
    }
}

/// A hash of a pair's attribute name and scalar that no id enters, so
/// every process that interns the pair computes the same value, whatever
/// order its symbols arrived in ([`ContentHashes`]). It is also the tag
/// and home slot of the pair in every `Table`'s pair index.
fn content_hash(attr_name: &str, value: ScalarRef<'_>) -> u32 {
    NameHash::new(attr_name).content(value)
}

/// A pair as the pair index looks it up: by its attribute's id, with its
/// content hash in hand.
#[derive(Clone, Copy)]
struct AvpKey<'a> {
    attr: AttrId,
    value: ScalarRef<'a>,
    content: u32,
}

/// A key no pair has: its attribute id is free (see [`next_id`]).
const NO_KEY: AvpKey<'static> = AvpKey {
    attr: AttrId(u32::MAX),
    value: ScalarRef::Null,
    content: 0,
};

/// How many lookups [`IdIndex::find_many`] takes through each step together:
/// more than the cache misses one core sustains at once, and enough for the
/// leaves of a typical wide document to go in one batch (measured on the
/// 448 k-pair nbData dictionary: 32 is ~1.4x faster than 16, 64 no better).
const LOOKAHEAD: usize = 32;

/// The next dense id of a store column holding `len` entries.
fn next_id(len: usize) -> u32 {
    // `u32::MAX` itself stays free: `IdIndex` stores `id + 1`.
    u32::try_from(len)
        .ok()
        .filter(|&id| id < u32::MAX)
        .expect("a dictionary holds fewer than 2^32 - 1 entries")
}

/// An interning table without a lock: the state behind a [`Dictionary`],
/// and on its own the private table of one ingest worker.
#[derive(Default)]
pub(crate) struct Table {
    store: Store,
    attrs: IdIndex,
    avps: IdIndex,
}

impl Table {
    fn find_attr(&self, name: &str, tag: u32) -> Option<AttrId> {
        self.attrs
            .find(tag, |id| self.store.attr_name(AttrId(id)) == name)
            .map(AttrId)
    }

    /// The key of `(attr, value)`: its content hash comes from the stored
    /// attribute name. Panics when `attr` is not of this table.
    fn avp_key<'v>(&self, attr: AttrId, value: ScalarRef<'v>) -> AvpKey<'v> {
        AvpKey {
            attr,
            value,
            content: content_hash(self.store.attr_name(attr), value),
        }
    }

    fn is_avp(&self, id: u32, key: &AvpKey<'_>) -> bool {
        let pair = &self.store.avps[id as usize];
        pair.attr == key.attr && self.store.scalar(pair.value) == key.value
    }

    fn find_avp(&self, key: AvpKey<'_>) -> Option<AvpId> {
        self.avps
            .find(key.content, |id| self.is_avp(id, &key))
            .map(AvpId)
    }

    /// [`find_avp`](Self::find_avp) for up to [`LOOKAHEAD`] keys at once,
    /// through [`IdIndex::find_many`].
    fn find_avps(&self, keys: &[AvpKey<'_>], found: &mut [Option<AvpId>]) {
        let mut tags = [0; LOOKAHEAD];
        for (tag, key) in tags.iter_mut().zip(keys) {
            *tag = key.content;
        }
        let mut ids = [None; LOOKAHEAD];
        self.avps.find_many(
            &tags[..keys.len()],
            |i, id| self.is_avp(id, &keys[i]),
            &mut ids[..keys.len()],
        );
        for (found, id) in found.iter_mut().zip(ids) {
            *found = id.map(AvpId);
        }
    }

    fn find_pair(&self, attr_name: &str, value: ScalarRef<'_>) -> Option<Pair> {
        let hash = NameHash::new(attr_name);
        let attr = self.find_attr(attr_name, hash.attr_tag())?;
        let avp = self.find_avp(AvpKey {
            attr,
            value,
            content: hash.content(value),
        })?;
        Some(Pair { attr, avp })
    }

    /// Find or add an attribute; `tag` is its name's
    /// [`NameHash::attr_tag`].
    fn attr(&mut self, name: &str, tag: u32) -> AttrId {
        if let Some(id) = self.find_attr(name, tag) {
            return id;
        }
        let id = next_id(self.store.attrs.len());
        self.attrs.insert(tag, id);
        let name = self.store.push_str(name);
        self.store.attrs.push(StoredAttr {
            name,
            tag,
            distinct: 0,
        });
        AttrId(id)
    }

    /// Find or add a pair.
    fn avp(&mut self, key: AvpKey<'_>) -> AvpId {
        match self.find_avp(key) {
            Some(id) => id,
            None => self.push_avp(key),
        }
    }

    /// Add a pair known to be absent.
    fn push_avp(&mut self, key: AvpKey<'_>) -> AvpId {
        let id = next_id(self.store.avps.len());
        self.store.attrs[key.attr.index()].distinct += 1;
        self.avps.insert(key.content, id);
        let value = match key.value {
            ScalarRef::Null => StoredScalar::Null,
            ScalarRef::Bool(b) => StoredScalar::Bool(b),
            ScalarRef::Int(i) => StoredScalar::Int(i),
            ScalarRef::Float(f) => StoredScalar::Float(f),
            ScalarRef::Str(s) => StoredScalar::Str(self.store.push_str(s)),
        };
        self.store.avps.push(StoredPair {
            attr: key.attr,
            content: key.content,
            value,
        });
        AvpId(id)
    }

    /// Find or add `(attribute name, value)`, hashing the leaf once.
    pub(crate) fn pair(&mut self, attr_name: &str, value: ScalarRef<'_>) -> Pair {
        let hash = NameHash::new(attr_name);
        let attr = self.attr(attr_name, hash.attr_tag());
        let avp = self.avp(AvpKey {
            attr,
            value,
            content: hash.content(value),
        });
        Pair { attr, avp }
    }

    /// Move everything interned so far out, in id order, leaving the table
    /// empty (its indexes keep their allocations for the next block).
    pub(crate) fn take_store(&mut self) -> Store {
        self.attrs.clear();
        self.avps.clear();
        std::mem::take(&mut self.store)
    }
}

/// Where the ids of an absorbed [`Store`] ended up: indexed by the absorbed
/// store's ids, holding the dictionary's.
pub(crate) struct Translation {
    attrs: Vec<AttrId>,
    avps: Vec<AvpId>,
}

impl Translation {
    /// The dictionary's pair for a pair of the absorbed store.
    #[inline]
    pub(crate) fn pair(&self, local: Pair) -> Pair {
        Pair {
            attr: self.attrs[local.attr.index()],
            avp: self.avps[local.avp.index()],
        }
    }
}

/// The shared attribute / attribute-value-pair dictionary.
///
/// Cloning is cheap (an `Arc` clone); all clones observe the same ids.
#[derive(Clone, Default)]
pub struct Dictionary {
    inner: Arc<RwLock<Table>>,
}

impl Dictionary {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an attribute name, returning its stable id.
    pub fn intern_attr(&self, name: &str) -> AttrId {
        let tag = NameHash::new(name).attr_tag();
        if let Some(id) = self.inner.read().find_attr(name, tag) {
            return id;
        }
        self.inner.write().attr(name, tag)
    }

    /// Intern an attribute-value pair, returning a [`Pair`]. Panics when
    /// `attr` is not of this dictionary.
    pub fn intern_avp(&self, attr: AttrId, value: Scalar) -> Pair {
        // NB: bind the read result first — an `if let` on the guarded
        // expression would keep the read guard alive into the write.
        let (key, hit) = {
            let table = self.inner.read();
            let key = table.avp_key(attr, value.as_ref());
            (key, table.find_avp(key))
        };
        let avp = match hit {
            Some(avp) => avp,
            None => self.inner.write().avp(key),
        };
        Pair { attr, avp }
    }

    /// Intern an `(attribute name, value)` pair in one step.
    pub fn intern(&self, attr_name: &str, value: Scalar) -> Pair {
        let hit = self.inner.read().find_pair(attr_name, value.as_ref());
        match hit {
            Some(pair) => pair,
            None => self.inner.write().pair(attr_name, value.as_ref()),
        }
    }

    /// Intern the leaves of one document, in order, appending a [`Pair`]
    /// per leaf to `out`: one shared acquisition for the leaves already
    /// known and, only if some are new, one exclusive acquisition for those.
    pub(crate) fn intern_leaves<'a>(
        &self,
        leaves: impl Iterator<Item = (&'a str, ScalarRef<'a>)> + Clone,
        out: &mut Vec<Pair>,
    ) {
        // No pair has these ids: see `next_id`.
        const UNKNOWN: Pair = Pair {
            attr: NO_KEY.attr,
            avp: AvpId(u32::MAX),
        };
        let first = out.len();
        {
            let table = self.inner.read();
            let mut rest = leaves.clone();
            loop {
                // A leaf of an unknown attribute looks up `NO_KEY`.
                let mut keys = [NO_KEY; LOOKAHEAD];
                let mut n = 0;
                for (path, value) in rest.by_ref().take(LOOKAHEAD) {
                    let hash = NameHash::new(path);
                    if let Some(attr) = table.find_attr(path, hash.attr_tag()) {
                        keys[n] = AvpKey {
                            attr,
                            value,
                            content: hash.content(value),
                        };
                    }
                    n += 1;
                }
                if n == 0 {
                    break;
                }
                let mut found = [None; LOOKAHEAD];
                table.find_avps(&keys[..n], &mut found[..n]);
                out.extend(keys.iter().zip(found).take(n).map(|(key, avp)| {
                    avp.map_or(UNKNOWN, |avp| Pair {
                        attr: key.attr,
                        avp,
                    })
                }));
            }
        }
        if out[first..].contains(&UNKNOWN) {
            let mut table = self.inner.write();
            for (pair, (path, value)) in out[first..].iter_mut().zip(leaves) {
                if *pair == UNKNOWN {
                    *pair = table.pair(path, value);
                }
            }
        }
    }

    /// Intern everything in `block`, in its id order, under one exclusive
    /// acquisition, and return where each of its ids went. (`block`'s keys
    /// are distinct, so one found absent stays absent until it is added.)
    pub(crate) fn absorb(&self, block: &Store) -> Translation {
        let mut table = self.inner.write();
        let attrs: Vec<AttrId> = block
            .attrs
            .iter()
            .map(|attr| table.attr(block.str(attr.name), attr.tag))
            .collect();
        let mut avps = Vec::with_capacity(block.avps.len());
        for run in block.avps.chunks(LOOKAHEAD) {
            // The block's worker hashed each pair's content already.
            let mut keys = [NO_KEY; LOOKAHEAD];
            for (key, pair) in keys.iter_mut().zip(run) {
                *key = AvpKey {
                    attr: attrs[pair.attr.index()],
                    value: block.scalar(pair.value),
                    content: pair.content,
                };
            }
            let keys = &keys[..run.len()];
            let mut found = [None; LOOKAHEAD];
            table.find_avps(keys, &mut found[..run.len()]);
            for (&key, found) in keys.iter().zip(found) {
                avps.push(found.unwrap_or_else(|| table.push_avp(key)));
            }
        }
        Translation { attrs, avps }
    }

    /// The pairs' content hashes under one shared acquisition, held until
    /// the returned view is dropped: intern nothing through this dictionary
    /// meanwhile.
    pub fn content_hashes(&self) -> ContentHashes<'_> {
        ContentHashes(self.inner.read())
    }

    /// Look up a pair without interning; `None` when unseen.
    pub fn lookup(&self, attr_name: &str, value: &Scalar) -> Option<Pair> {
        self.inner.read().find_pair(attr_name, value.as_ref())
    }

    /// The attribute name for `id`. Panics on foreign ids.
    pub fn attr_name(&self, id: AttrId) -> String {
        self.inner.read().store.attr_name(id).to_owned()
    }

    /// The attribute an interned pair belongs to.
    pub fn avp_attr(&self, id: AvpId) -> AttrId {
        self.inner.read().store.avps[id.index()].attr
    }

    /// The scalar value of an interned pair.
    pub fn avp_scalar(&self, id: AvpId) -> Scalar {
        self.inner.read().store.value(id).to_owned()
    }

    /// Render an interned pair as `attr:value` (diagnostics, examples).
    pub fn render_avp(&self, id: AvpId) -> String {
        let store = &self.inner.read().store;
        let attr = store.avps[id.index()].attr;
        format!("{}:{}", store.attr_name(attr), store.value(id).to_owned())
    }

    /// Number of distinct values interned for `attr` so far.
    pub fn attr_distinct_values(&self, attr: AttrId) -> usize {
        self.inner.read().store.attrs[attr.index()].distinct as usize
    }

    /// Total number of interned attributes.
    pub fn attr_count(&self) -> usize {
        self.inner.read().store.attrs.len()
    }

    /// Total number of interned attribute-value pairs.
    pub fn avp_count(&self) -> usize {
        self.inner.read().store.avps.len()
    }

    /// Export the whole dictionary as a JSON value:
    /// `{"attrs": [names in id order], "avps": [[attr_id, scalar], …]}`.
    /// Importing the export yields identical ids, so snapshots of id-based
    /// structures (partition tables, FP-trees) stay valid.
    pub fn export(&self) -> crate::Value {
        let store = &self.inner.read().store;
        let attrs = crate::Value::Array(
            store
                .attrs
                .iter()
                .map(|attr| crate::Value::Str(store.str(attr.name).to_owned()))
                .collect(),
        );
        let avps = crate::Value::Array(
            (0..store.avps.len())
                .map(|id| {
                    let id = AvpId(id as u32);
                    let attr = store.avps[id.index()].attr;
                    let value = store.value(id).to_owned().to_value();
                    crate::Value::Array(vec![crate::Value::Int(attr.0 as i64), value])
                })
                .collect(),
        );
        let mut out = crate::Value::object();
        out.insert("attrs", attrs);
        out.insert("avps", avps);
        out
    }

    /// Rebuild a dictionary from an [`export`](Self::export)ed value.
    /// Ids are reassigned in the original order, so they match the export.
    pub fn import(value: &crate::Value) -> Result<Dictionary, String> {
        let dict = Dictionary::new();
        let attrs = match value.get("attrs") {
            Some(crate::Value::Array(items)) => items,
            _ => return Err("missing 'attrs' array".into()),
        };
        for (i, a) in attrs.iter().enumerate() {
            let name = a.as_str().ok_or(format!("attrs[{i}] is not a string"))?;
            let id = dict.intern_attr(name);
            if id.index() != i {
                return Err(format!("duplicate attribute name '{name}'"));
            }
        }
        let avps = match value.get("avps") {
            Some(crate::Value::Array(items)) => items,
            _ => return Err("missing 'avps' array".into()),
        };
        for (i, entry) in avps.iter().enumerate() {
            let crate::Value::Array(pair) = entry else {
                return Err(format!("avps[{i}] is not an array"));
            };
            let [attr, scalar] = pair.as_slice() else {
                return Err(format!("avps[{i}] is not a 2-element array"));
            };
            let attr_id = attr
                .as_int()
                .filter(|&v| (v as usize) < attrs.len() && v >= 0)
                .ok_or(format!("avps[{i}] has an invalid attribute id"))?;
            let scalar =
                Scalar::from_value(scalar).ok_or(format!("avps[{i}] value is not a scalar"))?;
            let pair = dict.intern_avp(AttrId(attr_id as u32), scalar);
            if pair.avp.index() != i {
                return Err(format!("duplicate pair at avps[{i}]"));
            }
        }
        Ok(dict)
    }
}

/// A shared view of a [`Dictionary`]'s pair content hashes: a hash of the
/// attribute name and the scalar, computed once as the pair is interned.
/// Two processes, or two dictionaries that interned the same pairs in
/// different orders, agree on every pair's hash; they need not agree on
/// its [`AvpId`].
pub struct ContentHashes<'a>(parking_lot::RwLockReadGuard<'a, Table>);

impl ContentHashes<'_> {
    /// The content hash of an interned pair. Panics on foreign ids.
    #[inline]
    pub fn of(&self, avp: AvpId) -> u32 {
        self.0.store.avps[avp.index()].content
    }
}

impl fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let store = &self.inner.read().store;
        f.debug_struct("Dictionary")
            .field("attrs", &store.attrs.len())
            .field("avps", &store.avps.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair's content hash sits in the padding after its attribute id:
    /// homes cost the dictionary no memory.
    #[test]
    fn a_stored_pair_stays_32_bytes() {
        assert_eq!(std::mem::size_of::<StoredPair>(), 32);
    }

    #[test]
    fn interning_is_idempotent() {
        let d = Dictionary::new();
        let a1 = d.intern_attr("User");
        let a2 = d.intern_attr("User");
        assert_eq!(a1, a2);
        let p1 = d.intern_avp(a1, Scalar::Str("A".into()));
        let p2 = d.intern_avp(a1, Scalar::Str("A".into()));
        assert_eq!(p1, p2);
        assert_eq!(d.attr_count(), 1);
        assert_eq!(d.avp_count(), 1);
    }

    #[test]
    fn distinct_values_counted_per_attribute() {
        let d = Dictionary::new();
        let user = d.intern_attr("User");
        let sev = d.intern_attr("Severity");
        d.intern_avp(user, Scalar::Str("A".into()));
        d.intern_avp(user, Scalar::Str("B".into()));
        d.intern_avp(user, Scalar::Str("A".into())); // duplicate
        d.intern_avp(sev, Scalar::Str("Warning".into()));
        assert_eq!(d.attr_distinct_values(user), 2);
        assert_eq!(d.attr_distinct_values(sev), 1);
    }

    #[test]
    fn same_value_different_attr_is_different_pair() {
        let d = Dictionary::new();
        let p1 = d.intern("a", Scalar::Int(1));
        let p2 = d.intern("b", Scalar::Int(1));
        assert_ne!(p1.avp, p2.avp);
        assert_ne!(p1.attr, p2.attr);
    }

    #[test]
    fn lookup_does_not_intern() {
        let d = Dictionary::new();
        assert!(d.lookup("x", &Scalar::Int(1)).is_none());
        assert_eq!(d.attr_count(), 0);
        d.intern("x", Scalar::Int(1));
        assert!(d.lookup("x", &Scalar::Int(1)).is_some());
        assert!(d.lookup("x", &Scalar::Int(2)).is_none());
    }

    #[test]
    fn render_and_reverse_lookups() {
        let d = Dictionary::new();
        let p = d.intern("Severity", Scalar::Str("Critical".into()));
        assert_eq!(d.render_avp(p.avp), "Severity:Critical");
        assert_eq!(d.avp_attr(p.avp), p.attr);
        assert_eq!(d.attr_name(p.attr), "Severity");
        assert_eq!(d.avp_scalar(p.avp), Scalar::Str("Critical".into()));
    }

    #[test]
    fn concurrent_interning_converges() {
        let d = Dictionary::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let d = d.clone();
                std::thread::spawn(move || {
                    for i in 0..500i64 {
                        d.intern("k", Scalar::Int(i % 50));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.attr_count(), 1);
        assert_eq!(d.avp_count(), 50);
    }

    /// Many attributes and values interned from several racing threads: ids
    /// must come out dense and consistent.
    #[test]
    fn concurrent_interning_is_dense_and_consistent() {
        let d = Dictionary::new();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let d = d.clone();
                std::thread::spawn(move || {
                    for i in 0..200i64 {
                        // All threads intern the same universe, shifted so
                        // each thread starts on different keys.
                        let k = (i + t * 25) % 200;
                        d.intern(&format!("attr{}", k % 40), Scalar::Int(k));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.attr_count(), 40);
        // Each attribute holds the values k with k % 40 == attr index:
        // 200 / 40 = 5 distinct values per attribute.
        assert_eq!(d.avp_count(), 200);
        for a in 0..40u32 {
            assert_eq!(d.attr_distinct_values(AttrId(a)), 5, "attr{a}");
        }
        // Every id in 0..avp_count resolves through the reverse store, and
        // re-interning maps back to the same id (forward/reverse agree).
        for i in 0..200u32 {
            let attr = d.avp_attr(AvpId(i));
            let scalar = d.avp_scalar(AvpId(i));
            let again = d.intern_avp(attr, scalar);
            assert_eq!(again.avp, AvpId(i));
        }
    }

    /// Distinct dictionaries used by the same thread share nothing.
    #[test]
    fn dictionaries_are_independent() {
        let d1 = Dictionary::new();
        let d2 = Dictionary::new();
        // Same (attr, value) key in both dictionaries, interleaved on one
        // thread.
        let a1 = d1.intern("k", Scalar::Int(1));
        let b1 = d2.intern("other", Scalar::Str("pad".into()));
        let b2 = d2.intern("k", Scalar::Int(1));
        let a2 = d1.intern("k", Scalar::Int(1));
        assert_eq!(a1, a2);
        assert_ne!(b1.avp, b2.avp);
        assert_eq!(d2.avp_attr(b2.avp), b2.attr);
        assert_eq!(d2.avp_scalar(b2.avp), Scalar::Int(1));
        assert_eq!(d1.avp_count(), 1);
        assert_eq!(d2.avp_count(), 2);
    }
}

#[cfg(test)]
mod bulk_tests {
    use super::*;

    /// Absorbing private tables in order numbers everything as interning
    /// the same keys one by one in that order would.
    #[test]
    fn absorbing_blocks_in_order_equals_interning_in_order() {
        let keys = |block: usize| {
            (0..300usize).map(move |i| {
                let attr = format!("attr{}", (i * 7 + block) % 23);
                let value = match i % 4 {
                    0 => Scalar::Int((i % 50) as i64),
                    1 => Scalar::Str(format!("v{}", (i + block * 11) % 90)),
                    2 => Scalar::Float((i % 9) as f64 / 2.0),
                    _ => Scalar::Bool(i % 8 == 3),
                };
                (attr, value)
            })
        };
        let one_by_one = Dictionary::new();
        let absorbed = Dictionary::new();
        let mut private = Table::default();
        for block in 0..5 {
            let expected: Vec<Pair> = keys(block)
                .map(|(attr, value)| one_by_one.intern(&attr, value))
                .collect();
            let local: Vec<Pair> = keys(block)
                .map(|(attr, value)| private.pair(&attr, value.as_ref()))
                .collect();
            let translation = absorbed.absorb(&private.take_store());
            let translated: Vec<Pair> = local.iter().map(|&p| translation.pair(p)).collect();
            assert_eq!(translated, expected, "block {block}");
        }
        assert_eq!(absorbed.export(), one_by_one.export());
        for a in 0..23 {
            assert_eq!(
                absorbed.attr_distinct_values(AttrId(a)),
                one_by_one.attr_distinct_values(AttrId(a))
            );
        }
    }

    /// A document wider than one lookup batch, with a repeated leaf, first
    /// all new, then half known, then all known: as one-by-one interning.
    #[test]
    fn leaves_intern_like_one_by_one_across_batches() {
        let leaves = |from: usize| {
            let mut leaves: Vec<(String, Scalar)> = (from..from + 2 * LOOKAHEAD + 5)
                .map(|i| (format!("attr{}", i % 50), Scalar::Str(format!("v{i}"))))
                .collect();
            leaves.push(leaves[3].clone());
            leaves
        };
        let (batched, one_by_one) = (Dictionary::new(), Dictionary::new());
        for from in [0, LOOKAHEAD + 2, LOOKAHEAD + 2] {
            let leaves = leaves(from);
            let mut pairs = Vec::new();
            batched.intern_leaves(
                leaves.iter().map(|(attr, v)| (attr.as_str(), v.as_ref())),
                &mut pairs,
            );
            let expected: Vec<Pair> = leaves
                .iter()
                .map(|(attr, v)| one_by_one.intern(attr, v.clone()))
                .collect();
            assert_eq!(pairs, expected);
        }
        assert_eq!(batched.export(), one_by_one.export());
    }

    /// 64 distinct tags only: most keys end up away from their home slot.
    fn crafted_tag(id: u32) -> u32 {
        id % 64
    }

    /// The index finds every key again across many doublings, and keys
    /// whose hashes agree in the stored 32 bits are told apart by the store.
    #[test]
    fn index_survives_growth_and_tag_collisions() {
        let mut index = IdIndex::default();
        for id in 0..5000 {
            assert_eq!(index.find(crafted_tag(id), |found| found == id), None);
            index.insert(crafted_tag(id), id);
        }
        for id in 0..5000 {
            assert_eq!(index.find(crafted_tag(id), |found| found == id), Some(id));
        }
        assert!(index.slots.len() >= 2 * 5000);
        index.clear();
        assert_eq!(index.find(crafted_tag(7), |found| found == 7), None);
    }

    /// `find_many` answers as `find` key for key, in batches that mix
    /// present keys displaced from their home slot, absent keys whose home
    /// slot is taken, absent keys under a tag present keys have, and absent
    /// keys with a free home slot; checked each time the index has doubled.
    #[test]
    fn batched_find_agrees_with_one_key_find() {
        let mut index = IdIndex::default();
        let (mut displaced, mut home_taken, mut tag_shared) = (0, 0, 0);
        for len in 1..=5000u32 {
            index.insert(crafted_tag(len - 1), len - 1);
            if !len.is_power_of_two() && len != 5000 {
                continue;
            }
            let present = (0..len).map(|id| (crafted_tag(id), id));
            let absent = (len..len + 100).map(|id| (crafted_tag(id), id));
            let free_tags = (64..200)
                .chain(20_000..20_100)
                .map(|tag| (tag, u32::MAX - tag));
            let mut queries: Vec<(u32, u32)> = present.chain(absent).chain(free_tags).collect();
            // A fixed shuffle, so that every batch mixes the kinds.
            queries.sort_by_key(|&(_, id)| id.wrapping_mul(0x9e37_79b9));
            let mask = index.slots.len() - 1;
            for batch in queries.chunks(LOOKAHEAD) {
                let tags: Vec<u32> = batch.iter().map(|&(tag, _)| tag).collect();
                let mut found = [None; LOOKAHEAD];
                let found = &mut found[..batch.len()];
                index.find_many(&tags, |i, id| id == batch[i].1, found);
                for (&(tag, key), &found) in batch.iter().zip(found.iter()) {
                    assert_eq!(
                        found,
                        index.find(tag, |id| id == key),
                        "len {len}, key {key}"
                    );
                    assert_eq!(found, (key < len).then_some(key), "len {len}, key {key}");
                    let home = index.slots[tag as usize & mask];
                    match found {
                        Some(_) if home as u32 != key + 1 => displaced += 1,
                        None if home != 0 && tag < 64 => tag_shared += 1,
                        None if home != 0 => home_taken += 1,
                        _ => {}
                    }
                }
            }
        }
        assert!(displaced > 1000 && home_taken > 100 && tag_shared > 100);
    }

    /// `Table::find_avps` answers as `find_avp` key for key on a table
    /// grown past several doublings, for pairs present and absent.
    #[test]
    fn batched_pair_lookup_agrees_with_one_key_lookup() {
        let name = |i: usize| format!("attr{}", i % 23);
        let value = |i: usize| match i % 3 {
            0 => Scalar::Int(i as i64),
            1 => Scalar::Str(format!("v{i}")),
            _ => Scalar::Float(i as f64 / 8.0),
        };
        let mut table = Table::default();
        for i in (0..6000).step_by(2) {
            table.pair(&name(i), value(i).as_ref());
        }
        assert!(table.avps.slots.len() >= 16 << 8);
        let values: Vec<(AttrId, Scalar)> = (0..6000)
            .map(|i| {
                let name = name(i);
                let tag = NameHash::new(&name).attr_tag();
                (table.find_attr(&name, tag).unwrap(), value(i))
            })
            .collect();
        let mut hits = 0;
        for batch in values.chunks(LOOKAHEAD) {
            let keys: Vec<AvpKey<'_>> = batch
                .iter()
                .map(|(attr, value)| table.avp_key(*attr, value.as_ref()))
                .collect();
            let mut found = [None; LOOKAHEAD];
            table.find_avps(&keys, &mut found[..keys.len()]);
            for (key, found) in keys.iter().zip(found) {
                assert_eq!(found, table.find_avp(*key));
                hits += usize::from(found.is_some());
            }
        }
        assert_eq!(hits, 3000);
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;

    #[test]
    fn export_import_preserves_ids() {
        let d = Dictionary::new();
        let p1 = d.intern("User", Scalar::Str("A".into()));
        let p2 = d.intern("MsgId", Scalar::Int(7));
        let p3 = d.intern("User", Scalar::Str("B".into()));
        let p4 = d.intern("pi", Scalar::Float(3.25));
        let p5 = d.intern("flag", Scalar::Bool(true));
        let p6 = d.intern("nil", Scalar::Null);

        let exported = d.export();
        // Round-trip through JSON text, as a snapshot file would.
        let text = exported.to_json();
        let reread = crate::parse(&text).unwrap();
        let d2 = Dictionary::import(&reread).unwrap();

        assert_eq!(d2.attr_count(), d.attr_count());
        assert_eq!(d2.avp_count(), d.avp_count());
        for p in [p1, p2, p3, p4, p5, p6] {
            assert_eq!(d2.avp_attr(p.avp), p.attr);
            assert_eq!(d2.avp_scalar(p.avp), d.avp_scalar(p.avp));
            assert_eq!(d2.render_avp(p.avp), d.render_avp(p.avp));
        }
    }

    #[test]
    fn import_rejects_malformed_snapshots() {
        assert!(Dictionary::import(&crate::parse("{}").unwrap()).is_err());
        assert!(
            Dictionary::import(&crate::parse(r#"{"attrs":["a"],"avps":[[5,1]]}"#).unwrap())
                .is_err()
        );
        assert!(
            Dictionary::import(&crate::parse(r#"{"attrs":["a"],"avps":[[0,[1]]]}"#).unwrap())
                .is_err()
        );
        assert!(
            Dictionary::import(&crate::parse(r#"{"attrs":["a","a"],"avps":[]}"#).unwrap()).is_err()
        );
    }

    #[test]
    fn empty_dictionary_roundtrips() {
        let d = Dictionary::new();
        let d2 = Dictionary::import(&d.export()).unwrap();
        assert_eq!(d2.attr_count(), 0);
        assert_eq!(d2.avp_count(), 0);
    }
}
