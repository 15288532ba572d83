//! The global attribute ordering imposed on FP-tree input (§V-A).
//!
//! Attributes are sorted in **descending document frequency** (how many
//! documents of the batch contain the attribute); ties are broken by the
//! **smaller number of distinct values** within the batch, then by attribute
//! id for determinism. Attributes that appear in *every* document of the
//! batch are *ubiquitous* — they occupy the first [`AttrOrder::ubiquitous`]
//! ranks and enable the FPTreeJoin fast path of §V-B.

use ssj_json::{AttrId, AvpId, Document, Pair};

/// A frozen attribute ordering computed from one batch (window) of documents.
/// The default is the empty order: every attribute unseen, ranked by id.
#[derive(Debug, Clone, Default)]
pub struct AttrOrder {
    /// `rank[attr.index()]` = position of the attribute in the global order;
    /// `u32::MAX` for attributes unseen in the batch.
    rank: Vec<u32>,
    /// Attributes in rank order.
    by_rank: Vec<AttrId>,
    /// How many leading ranks belong to attributes present in all documents.
    ubiquitous: usize,
    /// Number of documents the order was computed from.
    docs: usize,
}

/// The counters an [`AttrOrder`] is computed from, reused across batches so
/// a worker's steady state allocates only the order it returns. Feed
/// documents one at a time with [`observe`](OrderScratch::observe) — a
/// streaming joiner does so as it inserts them — and
/// [`finish`](OrderScratch::finish) the batch. Both tables are dense:
/// `counts` is indexed by attribute id, `seen` is a bitmap over pair ids (an
/// `AvpId` identifies attribute *and* value, so one bit per pair counts
/// distinct values without a per-attribute set). The bitmap is sized by the
/// largest pair id met — one bit per dictionary entry, e.g. 56 KB for a
/// 448 k-pair dictionary — and is cleared per batch, or handed out as the
/// batch's [`PairSet`] by [`finish_with_pairs`](OrderScratch::finish_with_pairs).
#[derive(Debug, Default)]
pub struct OrderScratch {
    /// Per attribute: documents of the batch carrying it, and its distinct
    /// values within the batch.
    counts: Vec<(u32, u32)>,
    seen: Vec<u64>,
    /// Documents observed since the last `finish`.
    docs: usize,
}

impl OrderScratch {
    /// Count one document of the current batch.
    pub fn observe(&mut self, doc: &Document) {
        let OrderScratch { counts, seen, docs } = self;
        *docs += 1;
        // A document holds at most one pair per attribute, so counting
        // pairs counts documents.
        for &Pair { attr, avp } in doc.pairs() {
            let (a, word, bit) = (attr.index(), avp.0 as usize / 64, 1u64 << (avp.0 % 64));
            if a >= counts.len() {
                counts.resize(a + 1, (0, 0));
            }
            if word >= seen.len() {
                seen.resize(word + 1, 0);
            }
            let (freq, distinct) = &mut counts[a];
            *freq += 1;
            *distinct += u32::from(seen[word] & bit == 0);
            seen[word] |= bit;
        }
    }

    /// [`finish`](OrderScratch::finish), also handing out the pairs the
    /// batch's documents carried; the next batch starts from a zeroed
    /// bitmap of the same size.
    pub fn finish_with_pairs(&mut self) -> (AttrOrder, PairSet) {
        let zeroed = vec![0; self.seen.len()];
        let pairs = PairSet(std::mem::replace(&mut self.seen, zeroed));
        (self.finish(), pairs)
    }

    /// The order of the documents observed since the last `finish`; the
    /// counters are left cleared for the next batch.
    pub fn finish(&mut self) -> AttrOrder {
        let OrderScratch { counts, seen, docs } = self;
        let mut attrs: Vec<AttrId> = (0..counts.len() as u32)
            .map(AttrId)
            .filter(|a| counts[a.index()].0 > 0)
            .collect();
        // Descending frequency, then ascending distinct values, then id.
        attrs.sort_unstable_by_key(|a| {
            let (freq, distinct) = counts[a.index()];
            (u32::MAX - freq, distinct, *a)
        });
        let ubiquitous = attrs
            .iter()
            .take_while(|a| counts[a.index()].0 as usize == *docs)
            .count();
        let mut rank = vec![u32::MAX; counts.len()];
        for (r, attr) in attrs.iter().enumerate() {
            rank[attr.index()] = r as u32;
        }
        let order = AttrOrder {
            rank,
            by_rank: attrs,
            ubiquitous,
            docs: *docs,
        };
        counts.fill((0, 0));
        seen.fill(0);
        *docs = 0;
        order
    }
}

/// The pairs one batch's documents carried, one bit per pair id (see
/// [`OrderScratch`]); the empty set by default.
#[derive(Debug, Clone, Default)]
pub struct PairSet(Vec<u64>);

impl PairSet {
    /// Whether some document of the batch carried `avp`.
    #[inline]
    pub fn contains(&self, avp: AvpId) -> bool {
        let word = self.0.get(avp.0 as usize / 64).copied().unwrap_or(0);
        word & (1u64 << (avp.0 % 64)) != 0
    }

    /// The pairs in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = AvpId> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits & (1u64 << b) != 0)
                .map(move |b| AvpId((w * 64 + b) as u32))
        })
    }

    /// Heap bytes of the bitmap.
    pub fn approx_bytes(&self) -> usize {
        self.0.len() * std::mem::size_of::<u64>()
    }
}

impl AttrOrder {
    /// Compute the ordering from a batch of documents.
    pub fn compute<'a, I>(docs: I) -> Self
    where
        I: IntoIterator<Item = &'a Document>,
    {
        Self::compute_with(docs, &mut OrderScratch::default())
    }

    /// [`compute`](AttrOrder::compute) with caller-provided counters (which
    /// must hold no unfinished batch).
    pub fn compute_with<'a, I>(docs: I, scratch: &mut OrderScratch) -> Self
    where
        I: IntoIterator<Item = &'a Document>,
    {
        for doc in docs {
            scratch.observe(doc);
        }
        scratch.finish()
    }

    /// Rank of `attr`; `u32::MAX` when the attribute was unseen in the batch
    /// (unseen attributes sort last, in id order, so insertion still works).
    #[inline]
    pub fn rank(&self, attr: AttrId) -> u32 {
        self.rank.get(attr.index()).copied().unwrap_or(u32::MAX)
    }

    /// Attributes of the batch in rank order.
    pub fn attrs(&self) -> &[AttrId] {
        &self.by_rank
    }

    /// Number of attributes that appear in every document of the batch the
    /// order was computed from. For a tree over that same batch this is the
    /// `num` input of FPTreeJoin (Algorithm 2); for a tree holding other
    /// documents it is a prediction, and [`crate::FpTree::ubiquitous`] is
    /// the count probes use.
    #[inline]
    pub fn ubiquitous(&self) -> usize {
        self.ubiquitous
    }

    /// Number of documents the order was computed from.
    pub fn doc_count(&self) -> usize {
        self.docs
    }

    /// Reorder a document's pairs by rank (stable for unseen attributes:
    /// they keep relative id order after all ranked attributes).
    pub fn reorder(&self, doc: &Document) -> Vec<Pair> {
        let mut pairs = Vec::new();
        self.reorder_into(doc, &mut pairs);
        pairs
    }

    /// [`reorder`](AttrOrder::reorder) into a caller-provided buffer, so
    /// hot paths (tree insertion, probing) reuse one allocation. The buffer
    /// is cleared first; its capacity is retained.
    pub fn reorder_into(&self, doc: &Document, out: &mut Vec<Pair>) {
        out.clear();
        out.extend_from_slice(doc.pairs());
        // Sort key includes the attr id so unseen attrs (rank u32::MAX)
        // stay deterministic; sort_unstable is fine because keys are unique
        // (a document holds at most one pair per attribute).
        out.sort_unstable_by_key(|p| (self.rank(p.attr), p.attr));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_json::{Dictionary, DocId, Document};

    fn docs(dict: &Dictionary, srcs: &[&str]) -> Vec<Document> {
        srcs.iter()
            .enumerate()
            .map(|(i, s)| Document::from_json(DocId(i as u64 + 1), s, dict).unwrap())
            .collect()
    }

    /// Table I of the paper: the fixed ordering must be b → a → c.
    #[test]
    fn paper_table1_ordering() {
        let dict = Dictionary::new();
        let ds = docs(
            &dict,
            &[
                r#"{"a":3,"b":7,"c":1}"#,
                r#"{"a":3,"b":8}"#,
                r#"{"a":3,"b":7}"#,
                r#"{"b":8,"c":2}"#,
            ],
        );
        let order = AttrOrder::compute(&ds);
        let names: Vec<String> = order.attrs().iter().map(|&a| dict.attr_name(a)).collect();
        assert_eq!(names, vec!["b", "a", "c"]);
        // b appears in all 4 documents → exactly one ubiquitous attribute.
        assert_eq!(order.ubiquitous(), 1);
    }

    #[test]
    fn tie_broken_by_distinct_values() {
        let dict = Dictionary::new();
        // x and y both appear in 2 docs; x has 1 distinct value, y has 2.
        let ds = docs(&dict, &[r#"{"x":1,"y":1}"#, r#"{"x":1,"y":2}"#]);
        let order = AttrOrder::compute(&ds);
        let names: Vec<String> = order.attrs().iter().map(|&a| dict.attr_name(a)).collect();
        assert_eq!(names, vec!["x", "y"]);
        assert_eq!(order.ubiquitous(), 2);
    }

    #[test]
    fn reorder_follows_ranks() {
        let dict = Dictionary::new();
        let ds = docs(
            &dict,
            &[
                r#"{"a":3,"b":7,"c":1}"#,
                r#"{"a":3,"b":8}"#,
                r#"{"a":3,"b":7}"#,
                r#"{"b":8,"c":2}"#,
            ],
        );
        let order = AttrOrder::compute(&ds);
        let reordered = order.reorder(&ds[0]);
        let names: Vec<String> = reordered.iter().map(|p| dict.attr_name(p.attr)).collect();
        assert_eq!(names, vec!["b", "a", "c"]);
    }

    #[test]
    fn unseen_attributes_rank_last() {
        let dict = Dictionary::new();
        let ds = docs(&dict, &[r#"{"a":1}"#]);
        let order = AttrOrder::compute(&ds);
        let later = Document::from_json(DocId(10), r#"{"z":5,"a":1}"#, &dict).unwrap();
        let reordered = order.reorder(&later);
        assert_eq!(dict.attr_name(reordered[0].attr), "a");
        assert_eq!(dict.attr_name(reordered[1].attr), "z");
        assert_eq!(order.rank(reordered[1].attr), u32::MAX);
    }

    #[test]
    fn empty_batch() {
        let order = AttrOrder::compute(std::iter::empty());
        assert_eq!(order.ubiquitous(), 0);
        assert_eq!(order.doc_count(), 0);
        assert!(order.attrs().is_empty());
    }

    #[test]
    fn no_ubiquitous_when_attrs_disjoint() {
        let dict = Dictionary::new();
        let ds = docs(&dict, &[r#"{"a":1}"#, r#"{"b":2}"#]);
        let order = AttrOrder::compute(&ds);
        assert_eq!(order.ubiquitous(), 0);
    }
}
