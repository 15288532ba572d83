//! Equivalence and association groups (§IV, Definitions 1–2, Algorithm 1).
//!
//! * An **equivalence group** is a maximal set of attribute-value pairs that
//!   appear in exactly the same set of documents (Definition 1). They are
//!   found by fingerprinting each pair's document set.
//! * `eg_i` **implies** `eg_j` when every document containing `eg_i` also
//!   contains `eg_j` — i.e. `docs(eg_i) ⊆ docs(eg_j)` — while `eg_j` also
//!   occurs alone (Definition 2; strict subset, since equal document sets
//!   would have merged into one equivalence group already).
//! * **Association groups** are built by Algorithm 1: scan the equivalence
//!   groups in ascending document-count order and fold every implied group
//!   into the implying one, removing it so no attribute-value pair lands in
//!   two association groups.
//!
//! The pairwise `implies` scan of Algorithm 1 is quadratic in the number of
//! equivalence groups; since `docs(eg_i) ⊆ docs(eg_j)` requires `eg_j` to
//! contain `eg_i`'s first document, we only test the groups posted under that
//! document in an inverted index — same output, far fewer subset tests.

use ssj_json::{AvpId, FxHashMap, FxHashSet};

/// A borrowed equivalence group: what the merge pipeline actually needs.
/// The batch path borrows from owned [`EquivalenceGroup`]s; the incremental
/// [`GroupIndex`](crate::incremental::GroupIndex) borrows straight from its
/// persistent slots, so a derive never clones a docset.
#[derive(Clone, Copy)]
pub(crate) struct EgRef<'a> {
    pub(crate) avps: &'a [AvpId],
    pub(crate) docs: &'a [u32],
}

/// A *partitioning view* of one document: the attribute-value pair ids used
/// for partition creation and routing. Normally the document's own pairs;
/// under attribute expansion (§VI-B) some are replaced by synthetic pairs.
pub type View = Vec<AvpId>;

/// An equivalence group: pairs sharing one exact document set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceGroup {
    /// The member attribute-value pairs.
    pub avps: Vec<AvpId>,
    /// Sorted ids of the containing documents: batch indices on the batch
    /// path, monotone live-document ids under a
    /// [`GroupIndex`](crate::incremental::GroupIndex).
    pub docs: Vec<u32>,
}

/// An association group: the unit assigned to partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssociationGroup {
    /// Member pairs; no pair appears in two association groups.
    pub avps: Vec<AvpId>,
    /// Load `l_i` (Algorithm 1, line 13): number of batch documents
    /// containing at least one member pair.
    pub load: usize,
}

/// Per-pair docsets of a batch: `avp → sorted indices of containing views`.
pub(crate) fn collect_docsets(views: &[View]) -> FxHashMap<AvpId, Vec<u32>> {
    let mut docsets: FxHashMap<AvpId, Vec<u32>> = FxHashMap::default();
    let mut seen: FxHashSet<AvpId> = FxHashSet::default();
    for (i, view) in views.iter().enumerate() {
        seen.clear();
        for &avp in view {
            if seen.insert(avp) {
                docsets.entry(avp).or_default().push(i as u32);
            }
        }
    }
    docsets
}

/// Group pairs with identical docsets (`avInD` of Algorithm 1, line 1).
///
/// Keyed by the docset's 128-bit [fingerprint](crate::fingerprint) rather
/// than the docset vector itself, with a full equality comparison against
/// the bucket's existing groups on fingerprint collision — same output,
/// but lookups hash 16 bytes instead of the whole document set and no
/// docset is ever moved or cloned into a map key.
pub(crate) fn group_by_docset(docsets: FxHashMap<AvpId, Vec<u32>>) -> Vec<EquivalenceGroup> {
    use crate::fingerprint::{fingerprint_docs, Fp128};
    // fp → indices into `groups`; collisions resolved by docset equality.
    let mut buckets: FxHashMap<Fp128, Vec<u32>> = FxHashMap::default();
    let mut groups: Vec<EquivalenceGroup> = Vec::new();
    for (avp, docs) in docsets {
        let bucket = buckets.entry(fingerprint_docs(&docs)).or_default();
        match bucket.iter().find(|&&gi| groups[gi as usize].docs == docs) {
            Some(&gi) => groups[gi as usize].avps.push(avp),
            None => {
                bucket.push(groups.len() as u32);
                groups.push(EquivalenceGroup {
                    avps: vec![avp],
                    docs,
                });
            }
        }
    }
    for g in &mut groups {
        g.avps.sort();
    }
    // Deterministic order independent of hash-map iteration.
    groups.sort_by(|a, b| a.docs.cmp(&b.docs).then_with(|| a.avps.cmp(&b.avps)));
    groups
}

/// Compute the equivalence groups of a batch of views (Definition 1).
pub fn equivalence_groups(views: &[View]) -> Vec<EquivalenceGroup> {
    group_by_docset(collect_docsets(views))
}

/// `true` when every document containing `a` also contains `b` (and `b`
/// occurs in strictly more documents): Definition 2 on document sets.
pub fn implies(a: &EquivalenceGroup, b: &EquivalenceGroup) -> bool {
    if a.docs.len() >= b.docs.len() {
        return false;
    }
    is_subset(&a.docs, &b.docs)
}

/// [`implies`] over borrowed groups — the form the merge scan uses.
pub(crate) fn implies_ref(a: &EgRef, b: &EgRef) -> bool {
    a.docs.len() < b.docs.len() && is_subset(a.docs, b.docs)
}

/// Subset test over sorted slices: two-pointer when the sizes are
/// comparable, galloping binary search when `big` dwarfs `small` (popular
/// pairs sit in docsets spanning most of the window; walking them linearly
/// for every candidate dominated the merge scan).
fn is_subset(small: &[u32], big: &[u32]) -> bool {
    if big.len() >= 8 * small.len() {
        let mut rest = big;
        for &x in small {
            match rest.binary_search(&x) {
                Ok(pos) => rest = &rest[pos + 1..],
                Err(_) => return false,
            }
        }
        return true;
    }
    let mut j = 0usize;
    for &x in small {
        loop {
            match big.get(j) {
                None => return false,
                Some(&y) if y == x => {
                    j += 1;
                    break;
                }
                Some(&y) if y > x => return false,
                _ => j += 1,
            }
        }
    }
    true
}

/// Algorithm 1: association groups from a batch of views.
pub fn association_groups(views: &[View]) -> Vec<AssociationGroup> {
    association_groups_from(equivalence_groups(views))
}

/// Algorithm 1's implies-merge scan over already-computed equivalence
/// groups. Shared by the batch path and the incremental
/// [`GroupIndex`](crate::incremental::GroupIndex), so both produce
/// identical association groups by construction.
pub fn association_groups_from(egs: Vec<EquivalenceGroup>) -> Vec<AssociationGroup> {
    let mut refs: Vec<EgRef> = egs
        .iter()
        .map(|g| EgRef {
            avps: &g.avps,
            docs: &g.docs,
        })
        .collect();
    merge_refs(&mut refs)
}

/// The merge scan over borrowed groups: sort, index, absorb, assemble.
pub(crate) fn merge_refs(refs: &mut [EgRef]) -> Vec<AssociationGroup> {
    sort_egs_for_merge(refs);
    let by_doc = DocIndex::build(refs);
    let absorber = sequential_absorbers(refs, &by_doc);
    assemble_groups(refs, &absorber)
}

/// Sentinel in an absorber table: the group was not absorbed.
pub(crate) const NOT_ABSORBED: u32 = u32::MAX;

/// Algorithm 1 line 3: ascending by document count (determinism: then by
/// contents). The merge scan requires exactly this order. Sorting the
/// 32-byte refs moves no docset data.
pub(crate) fn sort_egs_for_merge(egs: &mut [EgRef]) {
    egs.sort_by(|a, b| {
        a.docs
            .len()
            .cmp(&b.docs.len())
            .then_with(|| a.docs.cmp(b.docs))
            .then_with(|| a.avps.cmp(b.avps))
    });
}

/// Inverted index: document → equivalence groups containing it. Only groups
/// containing `eg_i`'s first document can be implied supersets of `eg_i`.
/// Stored as one sorted vector of packed `doc << 32 | group` keys — a
/// single allocation and an integer sort, against the hash map of per-doc
/// vectors it replaced.
pub(crate) struct DocIndex {
    keys: Vec<u64>,
}

impl DocIndex {
    pub(crate) fn build(egs: &[EgRef]) -> Self {
        let total: usize = egs.iter().map(|eg| eg.docs.len()).sum();
        let mut keys = Vec::with_capacity(total);
        let (mut min_doc, mut max_doc) = (u32::MAX, 0u32);
        for (gi, eg) in egs.iter().enumerate() {
            for &d in eg.docs {
                keys.push(((d as u64) << 32) | gi as u64);
            }
            // Docsets are sorted, so first/last bound the id range.
            if let (Some(&first), Some(&last)) = (eg.docs.first(), eg.docs.last()) {
                min_doc = min_doc.min(first);
                max_doc = max_doc.max(last);
            }
        }
        // Window document ids are near-contiguous (batch indices, or the
        // monotone ids of a tumbling window): a stable counting sort by
        // document beats the comparison sort handily. Keys were pushed in
        // ascending-group order, which the stable scatter preserves — the
        // same order `sort_unstable` on the packed keys yields. Sparse id
        // ranges fall back to the comparison sort.
        let range = (max_doc as usize).saturating_sub(min_doc as usize) + 1;
        if !keys.is_empty() && range <= keys.len().saturating_mul(4) {
            let mut offsets = vec![0u32; range + 1];
            for &k in &keys {
                offsets[((k >> 32) as usize - min_doc as usize) + 1] += 1;
            }
            for i in 1..offsets.len() {
                offsets[i] += offsets[i - 1];
            }
            let mut sorted = vec![0u64; keys.len()];
            for &k in &keys {
                let slot = &mut offsets[(k >> 32) as usize - min_doc as usize];
                sorted[*slot as usize] = k;
                *slot += 1;
            }
            keys = sorted;
        } else {
            keys.sort_unstable();
        }
        DocIndex { keys }
    }

    /// Packed keys of the groups containing `doc`, in ascending group
    /// order; extract the group index with `key as u32`.
    pub(crate) fn groups_of(&self, doc: u32) -> &[u64] {
        let lo = self.keys.partition_point(|&k| k >> 32 < doc as u64);
        let hi = lo + self.keys[lo..].partition_point(|&k| k >> 32 == doc as u64);
        &self.keys[lo..hi]
    }
}

/// The absorption pass of Algorithm 1 (lines 4–10) over merge-sorted
/// groups: `absorber[j]` is the group `j` was folded into, or
/// [`NOT_ABSORBED`]. Each group is absorbed by its *smallest* implying
/// group; that group is itself never absorbed (its own smallest implier
/// would be a smaller implier of `j`, a contradiction).
pub(crate) fn sequential_absorbers(egs: &[EgRef], by_doc: &DocIndex) -> Vec<u32> {
    let mut absorber = vec![NOT_ABSORBED; egs.len()];
    for i in 0..egs.len() {
        if absorber[i] != NOT_ABSORBED {
            continue;
        }
        let Some(&first_doc) = egs[i].docs.first() else {
            continue;
        };
        // Candidates appear after i in ascending order and contain first_doc.
        for &key in by_doc.groups_of(first_doc) {
            let j = key as u32 as usize;
            if j <= i || absorber[j] != NOT_ABSORBED {
                continue;
            }
            if implies_ref(&egs[i], &egs[j]) {
                absorber[j] = i as u32; // line 10: EG = EG \ EG[j]
            }
        }
    }
    absorber
}

/// Fold absorbed groups into their absorbers and emit the association
/// groups in ascending leader order — a pure function of `(egs, absorber)`.
pub(crate) fn assemble_groups(egs: &[EgRef], absorber: &[u32]) -> Vec<AssociationGroup> {
    // `(absorber, member)` pairs sorted by absorber: each leader's members
    // form one contiguous run, in the same ascending-j order the old
    // per-leader member lists had.
    let mut absorbed: Vec<(u32, u32)> = absorber
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a != NOT_ABSORBED)
        .map(|(j, &a)| (a, j as u32))
        .collect();
    absorbed.sort_unstable();
    let mut out = Vec::new();
    let mut load_docs: Vec<u32> = Vec::new();
    for i in 0..egs.len() {
        if absorber[i] != NOT_ABSORBED || egs[i].docs.is_empty() {
            continue;
        }
        let mut avps = egs[i].avps.to_vec();
        // Union of member docsets, for the load l_i.
        load_docs.clear();
        load_docs.extend_from_slice(egs[i].docs);
        let start = absorbed.partition_point(|&(a, _)| a < i as u32);
        for &(_, j) in absorbed[start..]
            .iter()
            .take_while(|&&(a, _)| a == i as u32)
        {
            avps.extend_from_slice(egs[j as usize].avps);
            load_docs.extend_from_slice(egs[j as usize].docs);
        }
        avps.sort();
        load_docs.sort_unstable();
        load_docs.dedup();
        out.push(AssociationGroup {
            avps,
            load: load_docs.len(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_json::{Dictionary, Scalar};

    /// Build views from `attr:int` shorthand lists.
    fn views(dict: &Dictionary, specs: &[&[(&str, i64)]]) -> Vec<View> {
        specs
            .iter()
            .map(|doc| {
                doc.iter()
                    .map(|&(a, v)| dict.intern(a, Scalar::Int(v)).avp)
                    .collect()
            })
            .collect()
    }

    /// The paper's Fig. 3 example end to end.
    #[test]
    fn paper_fig3_example() {
        let dict = Dictionary::new();
        let vs = views(
            &dict,
            &[
                &[("A", 2), ("B", 3), ("C", 7)],
                &[("A", 7), ("B", 3), ("C", 4)],
                &[("D", 13)],
                &[("A", 7), ("C", 4)],
            ],
        );
        let egs = equivalence_groups(&vs);
        // eg1={A:2,C:7} (doc 0), eg2={B:3} (docs 0,1), eg3={A:7,C:4}
        // (docs 1,3), eg4={D:13} (doc 2).
        assert_eq!(egs.len(), 4);
        let sizes: Vec<(usize, usize)> = egs.iter().map(|g| (g.avps.len(), g.docs.len())).collect();
        assert!(sizes.contains(&(2, 1))); // {A:2,C:7}
        assert!(sizes.contains(&(1, 2))); // {B:3}
        assert!(sizes.contains(&(2, 2))); // {A:7,C:4}
        assert!(sizes.contains(&(1, 1))); // {D:13}

        let mut ags = association_groups(&vs);
        ags.sort_by(|a, b| a.avps.cmp(&b.avps));
        // ag1={A:2,C:7,B:3}, ag2={A:7,C:4}, ag3={D:13}.
        assert_eq!(ags.len(), 3);
        let a2 = dict.lookup("A", &Scalar::Int(2)).unwrap().avp;
        let b3 = dict.lookup("B", &Scalar::Int(3)).unwrap().avp;
        let c7 = dict.lookup("C", &Scalar::Int(7)).unwrap().avp;
        let merged = ags
            .iter()
            .find(|g| g.avps.contains(&a2))
            .expect("group containing A:2");
        let mut want = vec![a2, b3, c7];
        want.sort();
        assert_eq!(merged.avps, want);
        // Its load: A:2/C:7 appear in doc 0, B:3 in docs 0 and 1 → 2 docs.
        assert_eq!(merged.load, 2);
    }

    #[test]
    fn equivalence_requires_exact_cooccurrence() {
        let dict = Dictionary::new();
        let vs = views(&dict, &[&[("x", 1), ("y", 1)], &[("x", 1)]]);
        let egs = equivalence_groups(&vs);
        // x:1 in docs {0,1}, y:1 in {0} → two separate groups.
        assert_eq!(egs.len(), 2);
        assert!(egs.iter().all(|g| g.avps.len() == 1));
    }

    #[test]
    fn implies_direction() {
        let a = EquivalenceGroup {
            avps: vec![AvpId(0)],
            docs: vec![1, 3],
        };
        let b = EquivalenceGroup {
            avps: vec![AvpId(1)],
            docs: vec![0, 1, 2, 3],
        };
        assert!(implies(&a, &b));
        assert!(!implies(&b, &a));
        let c = EquivalenceGroup {
            avps: vec![AvpId(2)],
            docs: vec![1, 4],
        };
        assert!(!implies(&a, &c));
        assert!(!implies(&a, &a));
    }

    #[test]
    fn association_groups_are_disjoint() {
        let dict = Dictionary::new();
        let vs = views(
            &dict,
            &[
                &[("a", 1), ("b", 1), ("c", 1)],
                &[("b", 1), ("c", 1)],
                &[("c", 1)],
                &[("d", 9)],
                &[("a", 1), ("b", 1), ("c", 1), ("d", 9)],
            ],
        );
        let ags = association_groups(&vs);
        let mut seen: FxHashSet<AvpId> = FxHashSet::default();
        for g in &ags {
            for &avp in &g.avps {
                assert!(seen.insert(avp), "pair {avp} in two association groups");
            }
        }
    }

    #[test]
    fn all_pairs_covered_by_some_group() {
        let dict = Dictionary::new();
        let vs = views(
            &dict,
            &[
                &[("a", 1), ("b", 2)],
                &[("b", 2), ("c", 3)],
                &[("c", 3), ("a", 1)],
            ],
        );
        let ags = association_groups(&vs);
        let covered: FxHashSet<AvpId> = ags.iter().flat_map(|g| g.avps.iter().copied()).collect();
        for v in &vs {
            for avp in v {
                assert!(covered.contains(avp));
            }
        }
    }

    #[test]
    fn chained_implication_absorbed_transitively() {
        let dict = Dictionary::new();
        // z ⊂ y ⊂ x document sets: z in {0}, y in {0,1}, x in {0,1,2}.
        let vs = views(
            &dict,
            &[
                &[("x", 1), ("y", 1), ("z", 1)],
                &[("x", 1), ("y", 1)],
                &[("x", 1)],
            ],
        );
        let ags = association_groups(&vs);
        // z implies y and x; everything folds into a single group.
        assert_eq!(ags.len(), 1);
        assert_eq!(ags[0].avps.len(), 3);
        assert_eq!(ags[0].load, 3);
    }

    #[test]
    fn empty_input() {
        assert!(equivalence_groups(&[]).is_empty());
        assert!(association_groups(&[]).is_empty());
    }

    #[test]
    fn duplicate_avps_in_view_counted_once() {
        let dict = Dictionary::new();
        let p = dict.intern("a", Scalar::Int(1)).avp;
        let vs = vec![vec![p, p, p]];
        let egs = equivalence_groups(&vs);
        assert_eq!(egs.len(), 1);
        assert_eq!(egs[0].docs, vec![0]);
    }
}
