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
//! beyond the buffers' amortised growth. Callers with many keys in hand (a
//! document's leaves, a block's new keys) look them up 32 at a time,
//! step by step across the batch (`Table::find_avps`), because in a table
//! larger than the cache a lookup is a chain of misses and only misses of
//! different keys can overlap.
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

use crate::hash::{hash_str, FxHasher};
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
    attr_names: Vec<Span>,
    /// Per-attribute count of distinct values seen so far.
    attr_distinct: Vec<u32>,
    avps: Vec<StoredPair>,
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
        self.str(self.attr_names[id.index()])
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
        self.attr_names.len() + self.avps.len()
    }
}

/// Hash → id index by open addressing with linear probing. A slot is
/// `(hash's high 32 bits) << 32 | (id + 1)`, zero when free; the same 32
/// bits choose the home slot, so growing needs no key.
#[derive(Default)]
struct IdIndex {
    /// Power-of-two length (or empty), at most half full.
    slots: Vec<u64>,
    len: usize,
}

impl IdIndex {
    /// The id among those stored under `hash` for which `is_key` holds.
    #[inline]
    fn find(&self, hash: u64, is_key: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let tag = hash >> 32;
        let mut at = tag as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return None;
            }
            let id = (slot as u32).wrapping_sub(1);
            if slot >> 32 == tag && is_key(id) {
                return Some(id);
            }
            at = (at + 1) & mask;
        }
    }

    /// The slot a probe for `hash` looks at first (0: the index is empty).
    #[inline]
    fn home_slot(&self, hash: u64) -> u64 {
        match self.slots.len() {
            0 => 0,
            len => self.slots[(hash >> 32) as usize & (len - 1)],
        }
    }

    /// Add `id` under `hash`; the key must not be present.
    fn insert(&mut self, hash: u64, id: u32) {
        if (self.len + 1) * 2 > self.slots.len() {
            let grown = vec![0; (self.slots.len() * 2).max(16)];
            for slot in std::mem::replace(&mut self.slots, grown) {
                if slot != 0 {
                    self.place(slot);
                }
            }
        }
        self.place(hash >> 32 << 32 | (u64::from(id) + 1));
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

#[inline]
fn hash_avp(attr: AttrId, value: ScalarRef<'_>) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(attr.0);
    value.hash(&mut h);
    h.finish()
}

/// How many lookups [`Table::find_avps`] takes through each step together:
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
    fn find_attr(&self, name: &str) -> Option<AttrId> {
        self.attrs
            .find(hash_str(name), |id| {
                self.store.attr_name(AttrId(id)) == name
            })
            .map(AttrId)
    }

    fn find_avp(&self, attr: AttrId, value: ScalarRef<'_>) -> Option<AvpId> {
        self.avps
            .find(hash_avp(attr, value), |id| {
                self.store.avps[id as usize].attr == attr && self.store.value(AvpId(id)) == value
            })
            .map(AvpId)
    }

    /// [`find_avp`](Self::find_avp) for up to [`LOOKAHEAD`] keys at once.
    ///
    /// One lookup in a table that has outgrown the cache is a chain of
    /// dependent misses: index slot, then the stored pair, then its text.
    /// Done key after key the chains run back to back. Here each step is
    /// taken for all keys before the next step of any, so the misses of a
    /// step are independent loads the processor overlaps. Keys whose home
    /// slot is taken by another key fall back to the ordinary probe.
    fn find_avps(&self, keys: &[(AttrId, ScalarRef<'_>)], found: &mut [Option<AvpId>]) {
        assert!(keys.len() <= LOOKAHEAD && keys.len() == found.len());
        let mut slots = [0u64; LOOKAHEAD];
        let mut same_tag = [false; LOOKAHEAD];
        for (i, &(attr, value)) in keys.iter().enumerate() {
            let hash = hash_avp(attr, value);
            slots[i] = self.avps.home_slot(hash);
            same_tag[i] = slots[i] >> 32 == hash >> 32;
        }
        let mut stored = [None; LOOKAHEAD];
        for i in 0..keys.len() {
            if slots[i] != 0 && same_tag[i] {
                stored[i] = Some(self.store.avps[(slots[i] as u32 - 1) as usize]);
            }
        }
        for (i, &(attr, value)) in keys.iter().enumerate() {
            found[i] = match stored[i] {
                _ if slots[i] == 0 => None, // nothing hashes here: absent
                Some(pair) if pair.attr == attr && self.store.scalar(pair.value) == value => {
                    Some(AvpId(slots[i] as u32 - 1))
                }
                _ => self.find_avp(attr, value),
            };
        }
    }

    fn find_pair(&self, attr_name: &str, value: ScalarRef<'_>) -> Option<Pair> {
        let attr = self.find_attr(attr_name)?;
        let avp = self.find_avp(attr, value)?;
        Some(Pair { attr, avp })
    }

    /// Find or add an attribute.
    fn attr(&mut self, name: &str) -> AttrId {
        if let Some(id) = self.find_attr(name) {
            return id;
        }
        let id = next_id(self.store.attr_names.len());
        self.attrs.insert(hash_str(name), id);
        let name = self.store.push_str(name);
        self.store.attr_names.push(name);
        self.store.attr_distinct.push(0);
        AttrId(id)
    }

    /// Find or add a pair. Panics when `attr` is not of this table.
    fn avp(&mut self, attr: AttrId, value: ScalarRef<'_>) -> AvpId {
        match self.find_avp(attr, value) {
            Some(id) => id,
            None => self.add_avp(attr, value),
        }
    }

    /// Add a pair known to be absent.
    fn add_avp(&mut self, attr: AttrId, value: ScalarRef<'_>) -> AvpId {
        let id = next_id(self.store.avps.len());
        self.store.attr_distinct[attr.index()] += 1;
        self.avps.insert(hash_avp(attr, value), id);
        let value = match value {
            ScalarRef::Null => StoredScalar::Null,
            ScalarRef::Bool(b) => StoredScalar::Bool(b),
            ScalarRef::Int(i) => StoredScalar::Int(i),
            ScalarRef::Float(f) => StoredScalar::Float(f),
            ScalarRef::Str(s) => StoredScalar::Str(self.store.push_str(s)),
        };
        self.store.avps.push(StoredPair { attr, value });
        AvpId(id)
    }

    /// Find or add `(attribute name, value)`.
    pub(crate) fn pair(&mut self, attr_name: &str, value: ScalarRef<'_>) -> Pair {
        let attr = self.attr(attr_name);
        let avp = self.avp(attr, value);
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
        if let Some(id) = self.inner.read().find_attr(name) {
            return id;
        }
        self.inner.write().attr(name)
    }

    /// Intern an attribute-value pair, returning a [`Pair`].
    pub fn intern_avp(&self, attr: AttrId, value: Scalar) -> Pair {
        // NB: bind the read result first — an `if let` on the guarded
        // expression would keep the read guard alive into the write.
        let hit = self.inner.read().find_avp(attr, value.as_ref());
        let avp = match hit {
            Some(avp) => avp,
            None => self.inner.write().avp(attr, value.as_ref()),
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
            attr: AttrId(u32::MAX),
            avp: AvpId(u32::MAX),
        };
        let first = out.len();
        {
            let table = self.inner.read();
            let mut rest = leaves.clone();
            loop {
                // An unknown attribute stays `u32::MAX`, which no pair has.
                let mut keys = [(UNKNOWN.attr, ScalarRef::Null); LOOKAHEAD];
                let mut n = 0;
                for (path, value) in rest.by_ref().take(LOOKAHEAD) {
                    keys[n] = (table.find_attr(path).unwrap_or(UNKNOWN.attr), value);
                    n += 1;
                }
                if n == 0 {
                    break;
                }
                let mut found = [None; LOOKAHEAD];
                table.find_avps(&keys[..n], &mut found[..n]);
                out.extend(
                    keys.iter()
                        .zip(found)
                        .take(n)
                        .map(|(&(attr, _), avp)| avp.map_or(UNKNOWN, |avp| Pair { attr, avp })),
                );
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
            .attr_names
            .iter()
            .map(|&name| table.attr(block.str(name)))
            .collect();
        let mut avps = Vec::with_capacity(block.avps.len());
        for run in block.avps.chunks(LOOKAHEAD) {
            let mut keys = [(AttrId(0), ScalarRef::Null); LOOKAHEAD];
            for (key, pair) in keys.iter_mut().zip(run) {
                *key = (attrs[pair.attr.index()], block.scalar(pair.value));
            }
            let mut found = [None; LOOKAHEAD];
            table.find_avps(&keys[..run.len()], &mut found[..run.len()]);
            for (&(attr, value), found) in keys.iter().zip(found).take(run.len()) {
                avps.push(found.unwrap_or_else(|| table.add_avp(attr, value)));
            }
        }
        Translation { attrs, avps }
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
        self.inner.read().store.attr_distinct[attr.index()] as usize
    }

    /// Total number of interned attributes.
    pub fn attr_count(&self) -> usize {
        self.inner.read().store.attr_names.len()
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
                .attr_names
                .iter()
                .map(|&name| crate::Value::Str(store.str(name).to_owned()))
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

impl fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let store = &self.inner.read().store;
        f.debug_struct("Dictionary")
            .field("attrs", &store.attr_names.len())
            .field("avps", &store.avps.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The index finds every key again across many doublings, and keys
    /// whose hashes agree in the stored 32 bits are told apart by the store.
    #[test]
    fn index_survives_growth_and_tag_collisions() {
        let mut index = IdIndex::default();
        let hash = |id: u32| u64::from(id % 64) << 32 | u64::from(id); // 64 distinct tags only
        for id in 0..5000 {
            assert_eq!(index.find(hash(id), |found| found == id), None);
            index.insert(hash(id), id);
        }
        for id in 0..5000 {
            assert_eq!(index.find(hash(id), |found| found == id), Some(id));
        }
        assert!(index.slots.len() >= 2 * 5000);
        index.clear();
        assert_eq!(index.find(hash(7), |found| found == 7), None);
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
