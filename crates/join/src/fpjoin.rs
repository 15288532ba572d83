//! The FPTreeJoin algorithm (§V-B, Algorithms 2 and 3).
//!
//! Given a probe document and an [`FpTree`], produce every stored document
//! that belongs to the natural join result with the probe:
//!
//! 1. **Fast path** (Algorithm 2): the first `num` levels of the tree hold
//!    only *ubiquitous* attributes (present in every stored document). The
//!    probe's value for each of them selects exactly one child per level —
//!    every sibling branch conflicts on that attribute and is pruned
//!    wholesale. `num` is [`FpTree::ubiquitous`], a fact the tree maintains
//!    about the documents it stores, so the fast path stays exact under an
//!    order computed from some other batch ([`OpenPane`]).
//! 2. **Traversal** (Algorithm 3): below the ubiquitous levels, a DFS visits
//!    children, pruning a whole subtree when the child's attribute exists in
//!    the probe with a *different* value (a conflict), and counting shared
//!    pairs along the path. Documents at a node are reported only when the
//!    path shares at least one pair with the probe — the correction the
//!    paper's remark after Algorithm 3 requires.
//!
//! A leaf's unexpanded tail (see [`crate::fptree`]) is walked as the chain
//! of single-child nodes it stands for: stop at the first conflict, count
//! shared pairs, report the leaf's documents if the path shares any.
//!
//! [`probe_absent`] also takes a *skip* mask over the tree's document tags
//! (see [`crate::fptree`]): it reports only documents whose tag misses the
//! mask, and abandons a fast-path node or a child whose subtree's tag AND
//! meets it. The Joiner probes with its copy's tag, so it walks only towards
//! the pairs it owns. A skip of 0 is the paper's probe.
//!
//! A sliding window's closed pane is a [`FrozenPane`]: the sealed tree and
//! the set of pairs its documents carry. [`FrozenPane::may_join`] tests a
//! probe document against that set before any tree node is read, and skips
//! the panes that cannot hold a partner.
//!
//! # Zero-allocation probing
//!
//! The hot entry point is [`probe_into`]: it takes a reusable
//! [`ProbeScratch`] (DFS stack + an epoch-stamped dense attribute→value
//! table replacing per-node binary searches) and a caller-provided output
//! vector, so a steady-state probe performs no heap allocation once the
//! scratch has warmed up. [`probe`] and [`probe_with_stats`] are thin
//! allocating conveniences over it.

use crate::fptree::{FpTree, NodeId};
use crate::order::{AttrOrder, OrderScratch, PairSet};
use ssj_json::{AttrId, AvpId, DocId, Document, Pair};
use std::borrow::Borrow;

/// Statistics of one probe — used by tests and the ablation benches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProbeStats {
    /// Arena nodes visited during the DFS (excluding fast-path hops).
    pub visited: u64,
    /// Subtrees pruned due to a value conflict, or because every document
    /// in them carries a skipped tag bit.
    pub pruned: u64,
    /// Levels skipped through the ubiquitous-attribute fast path.
    pub fast_levels: u64,
}

/// Reusable probe working memory. Create once per worker (or per thread)
/// and pass to every [`probe_into`] call; all growth is amortised, so
/// steady-state probes allocate nothing.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    /// Explicit DFS stack of `(node, shared-pair count)` frames.
    stack: Vec<(NodeId, u32)>,
    /// `avp[attr.index()]` = the probe's value id for that attribute, valid
    /// only when `stamp[attr.index()] == epoch` (stamping makes clearing
    /// the table O(probe pairs), not O(attribute universe)).
    avp: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl ProbeScratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Load the probe document's pairs into the dense attr→avp table.
    fn load(&mut self, probe_doc: &Document) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch counter wrapped: old stamps could alias; reset once.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        for pair in probe_doc.pairs() {
            let i = pair.attr.index();
            if i >= self.avp.len() {
                self.avp.resize(i + 1, 0);
                self.stamp.resize(i + 1, 0);
            }
            self.avp[i] = pair.avp.0;
            self.stamp[i] = self.epoch;
        }
    }

    /// The probe's value id for `attr`, if the probe carries the attribute.
    #[inline]
    fn probe_avp(&self, attr: AttrId) -> Option<u32> {
        let i = attr.index();
        (i < self.stamp.len() && self.stamp[i] == self.epoch).then(|| self.avp[i])
    }

    /// Extend a path sharing `shared` pairs with the probe by `label`:
    /// the new shared count, or `None` on a value conflict.
    #[inline]
    fn step(&self, shared: u32, label: Pair) -> Option<u32> {
        match self.probe_avp(label.attr) {
            Some(avp) if avp == label.avp.0 => Some(shared + 1),
            Some(_) => None,
            None => Some(shared),
        }
    }
}

/// Find all join partners of `probe` in `tree`, using the fast path.
pub fn probe(tree: &FpTree, probe_doc: &Document) -> Vec<DocId> {
    probe_with_stats(tree, probe_doc, true).0
}

/// As [`probe`], but optionally disabling the fast path (ablation) and
/// reporting traversal statistics.
pub fn probe_with_stats(
    tree: &FpTree,
    probe_doc: &Document,
    fast_path: bool,
) -> (Vec<DocId>, ProbeStats) {
    let mut scratch = ProbeScratch::new();
    let mut out = Vec::new();
    let stats = probe_into(tree, probe_doc, fast_path, &mut scratch, &mut out);
    (out, stats)
}

/// Find all join partners of `probe_doc` in `tree`, writing them into `out`
/// (cleared first). `scratch` carries the DFS stack and conflict table
/// across calls; reusing both makes the steady-state probe allocation-free.
/// The probing document itself is never reported, even when it is stored in
/// `tree`.
pub fn probe_into(
    tree: &FpTree,
    probe_doc: &Document,
    fast_path: bool,
    scratch: &mut ProbeScratch,
    out: &mut Vec<DocId>,
) -> ProbeStats {
    let stats = probe_absent(tree, probe_doc, 0, fast_path, scratch, out);
    out.retain(|&d| d != probe_doc.id());
    stats
}

/// [`probe_into`] for a probe document known not to be stored in `tree`
/// (a batch join probes before it inserts; a frozen pane never holds a
/// later pane's document): skips the scan that drops the probe's own id.
/// Only partners whose tag misses `skip` are reported (module docs).
pub fn probe_absent(
    tree: &FpTree,
    probe_doc: &Document,
    skip: u64,
    fast_path: bool,
    scratch: &mut ProbeScratch,
    out: &mut Vec<DocId>,
) -> ProbeStats {
    out.clear();
    let mut stats = ProbeStats::default();
    if tree.tags_and(NodeId::ROOT) & skip != 0 {
        return stats;
    }
    scratch.load(probe_doc);
    let mut start = NodeId::ROOT;
    let mut shared = 0u32;

    if fast_path {
        // Every stored document carries the first `tree.ubiquitous()` ranks
        // of the order, so the probe's pair for each level is one table
        // load away — no reordering needed. The fast path applies only
        // while the probe carries every ubiquitous attribute; on the first
        // miss we fall back to the general traversal from wherever we got
        // to (sound: levels walked so far matched exactly).
        for &attr in tree.order().attrs().iter().take(tree.ubiquitous()) {
            let Some(avp) = scratch.probe_avp(attr) else {
                // Probe lacks this ubiquitous attribute: no conflict is
                // possible on it, so all children below `start` remain
                // candidates — handled by the general traversal.
                break;
            };
            // No such child: every stored document carries this attribute
            // with some other value — all conflict with the probe.
            let Some(child) = tree.child(start, AvpId(avp)) else {
                return stats;
            };
            // Every candidate lies below `child`.
            if tree.tags_and(child) & skip != 0 {
                stats.pruned += 1;
                return stats;
            }
            start = child;
            shared += 1;
            stats.fast_levels += 1;
            if !tree.tail(start).is_empty() {
                // The rest of the ubiquitous prefix sits in this leaf's
                // tail; the tail walk checks it pair by pair.
                report_leaf(tree, start, shared, skip, scratch, out);
                return stats;
            }
            // Documents ending inside the ubiquitous prefix match the
            // probe exactly on every attribute they carry.
            report(tree, start, skip, out);
        }
    }

    // Algorithm 3 with the shared-pair counter of the paper's remark, run
    // as an explicit-stack DFS over the scratch buffer (no recursion, no
    // per-call allocation).
    debug_assert!(scratch.stack.is_empty());
    scratch.stack.push((start, shared));
    while let Some((node, shared)) = scratch.stack.pop() {
        let mut child_it = tree.first_child(node);
        while let Some(child) = child_it {
            child_it = tree.next_sibling(child);
            stats.visited += 1;
            if tree.tags_and(child) & skip != 0 {
                stats.pruned += 1;
                continue;
            }
            let Some(shared) = scratch.step(shared, tree.pair(child)) else {
                // Conflicting value: every document under `child` carries the
                // conflicting pair — prune the subtree (Alg. 3, l. 5-7).
                stats.pruned += 1;
                continue;
            };
            if tree.first_child(child).is_some() {
                if shared > 0 {
                    report(tree, child, skip, out);
                }
                scratch.stack.push((child, shared));
            } else if !report_leaf(tree, child, shared, skip, scratch, out) {
                stats.pruned += 1;
            }
        }
    }
    stats
}

/// Report the documents at `node` whose tag misses `skip`.
#[inline]
fn report(tree: &FpTree, node: NodeId, skip: u64, out: &mut Vec<DocId>) {
    if skip == 0 {
        out.extend_from_slice(tree.docs(node));
    } else {
        let tagged = tree.docs(node).iter().zip(tree.tags(node));
        out.extend(tagged.filter(|&(_, t)| t & skip == 0).map(|(&d, _)| d));
    }
}

/// Walk `leaf`'s tail from a path sharing `shared` pairs with the probe and
/// report the leaf's documents unless the tail conflicts or nothing is
/// shared. Returns `false` on a conflict.
#[inline]
fn report_leaf(
    tree: &FpTree,
    leaf: NodeId,
    shared: u32,
    skip: u64,
    scratch: &ProbeScratch,
    out: &mut Vec<DocId>,
) -> bool {
    let total = tree
        .tail(leaf)
        .iter()
        .try_fold(shared, |shared, &pair| scratch.step(shared, pair));
    if total.is_some_and(|t| t > 0) {
        report(tree, leaf, skip, out);
    }
    total.is_some()
}

/// Working memory of a probe-then-insert join, reused across batches: probe
/// scratch, partner buffer and the attribute-order counters.
#[derive(Debug, Default)]
pub struct JoinScratch {
    probe: ProbeScratch,
    partners: Vec<DocId>,
    order: OrderScratch,
}

impl JoinScratch {
    /// The §V step: report `doc`'s partners among the documents already in
    /// `tree` whose tag misses `tag` as `(earlier, doc)`, then store it
    /// under `tag`.
    fn join_insert(
        &mut self,
        tree: &mut FpTree,
        doc: &Document,
        tag: u64,
        pairs: &mut Vec<(DocId, DocId)>,
    ) -> ProbeStats {
        let stats = probe_absent(tree, doc, tag, true, &mut self.probe, &mut self.partners);
        pairs.extend(self.partners.iter().map(|&p| (p, doc.id())));
        tree.insert_tagged(doc, tag);
        stats
    }
}

/// Join an entire batch at once: probe each document against the documents
/// before it, then insert it, under the batch's own attribute order. Each
/// joinable pair is appended to `pairs` exactly once, as `(earlier, later)`;
/// the sealed tree over the whole batch is handed back. Document ids must be
/// distinct.
pub fn join_batch_into<D: Borrow<Document>>(
    docs: &[D],
    scratch: &mut JoinScratch,
    pairs: &mut Vec<(DocId, DocId)>,
) -> FpTree {
    let order = AttrOrder::compute_with(docs.iter().map(Borrow::borrow), &mut scratch.order);
    let mut tree = FpTree::new(order);
    for doc in docs {
        scratch.join_insert(&mut tree, doc.borrow(), 0, pairs);
    }
    tree.seal();
    tree
}

/// A pane joined while it fills — the Joiner bolt's open pane. Documents are
/// probed and inserted as they arrive, so nothing is left to join when the
/// pane closes. The tree cannot be ordered by documents it has not seen yet:
/// it is governed by the order of the *previous* pane (the empty order for
/// the first), while the counters of the next order are fed on insert.
/// Exactness never depends on how well that order fits — [`FpTree`] tracks
/// its own fast-path depth — only the tree's compactness does.
#[derive(Debug, Default)]
pub struct OpenPane {
    tree: FpTree,
    scratch: JoinScratch,
}

impl OpenPane {
    /// An empty pane under the empty order.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `doc`'s pairs with the documents already in the pane whose
    /// tag misses `tag` to `pairs` as `(earlier, doc)`, then store it under
    /// `tag` (tag 0 joins with everything). Ids must be distinct.
    pub fn join(
        &mut self,
        doc: &Document,
        tag: u64,
        pairs: &mut Vec<(DocId, DocId)>,
    ) -> ProbeStats {
        self.scratch.order.observe(doc);
        self.scratch.join_insert(&mut self.tree, doc, tag, pairs)
    }

    /// The pane's tree so far.
    pub fn tree(&self) -> &FpTree {
        &self.tree
    }

    /// Close the pane and open the next one, empty, under the order of the
    /// documents this one held (one sort over the attribute list). `keep`
    /// hands the sealed tree back with the pairs its documents carry, for a
    /// sliding window to freeze, and sizes the next tree's arenas to this
    /// one's; otherwise its arenas are reused. An empty pane teaches
    /// nothing and keeps its order.
    pub fn close(&mut self, keep: bool) -> Option<FrozenPane> {
        if self.tree.doc_count() == 0 {
            return None;
        }
        if !keep {
            self.tree.reset(self.scratch.order.finish());
            return None;
        }
        let (order, pairs) = self.scratch.order.finish_with_pairs();
        let next = FpTree::sized_like(order, &self.tree);
        let mut tree = std::mem::replace(&mut self.tree, next);
        tree.seal();
        Some(FrozenPane { tree, pairs })
    }
}

/// A closed pane of a sliding window: its sealed tree and the set of pairs
/// its documents carry. The default is the empty pane, which joins nothing.
#[derive(Debug, Default)]
pub struct FrozenPane {
    tree: FpTree,
    pairs: PairSet,
}

impl FrozenPane {
    /// The pane's sealed tree.
    pub fn tree(&self) -> &FpTree {
        &self.tree
    }

    /// The pairs the pane's documents carry.
    pub fn pairs(&self) -> &PairSet {
        &self.pairs
    }

    /// Whether a probe of the pane with `doc` can find anything: `doc`
    /// shares a pair with the pane, and each of its values for the tree's
    /// ubiquitous attributes is one the pane holds. A `false` is exact: if
    /// `doc` shares no pair with the pane, no stored document joins it; if
    /// it has a value no stored document has for an attribute all of them
    /// carry, every stored document conflicts with it.
    pub fn may_join(&self, doc: &Document) -> bool {
        let (order, ubiquitous) = (self.tree.order(), self.tree.ubiquitous());
        let mut shared = false;
        for &Pair { attr, avp } in doc.pairs() {
            if self.pairs.contains(avp) {
                shared = true;
            } else if (order.rank(attr) as usize) < ubiquitous {
                return false;
            }
        }
        shared
    }
}

/// [`join_batch_into`] with fresh scratch and a fresh result vector.
pub fn join_batch(docs: &[Document]) -> (FpTree, Vec<(DocId, DocId)>) {
    let mut pairs = Vec::new();
    let tree = join_batch_into(docs, &mut JoinScratch::default(), &mut pairs);
    (tree, pairs)
}

/// Split-phase batch join used by the Fig. 11 harness: build the tree first
/// ("creation"), then probe every document ("join"), keeping only pairs
/// `(a, b)` with `a < b` so each result appears once.
pub fn join_batch_prebuilt(docs: &[Document]) -> (FpTree, Vec<(DocId, DocId)>) {
    let tree = FpTree::build(docs);
    let mut scratch = ProbeScratch::new();
    let mut partners = Vec::new();
    let mut pairs = Vec::new();
    for doc in docs {
        probe_into(&tree, doc, true, &mut scratch, &mut partners);
        for &partner in &partners {
            if partner < doc.id() {
                pairs.push((partner, doc.id()));
            }
        }
    }
    (tree, pairs)
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

    fn table1(dict: &Dictionary) -> Vec<Document> {
        docs(
            dict,
            &[
                r#"{"a":3,"b":7,"c":1}"#,
                r#"{"a":3,"b":8}"#,
                r#"{"a":3,"b":7}"#,
                r#"{"b":8,"c":2}"#,
            ],
        )
    }

    /// Fig. 5 of the paper: probing with d1 prunes the b:8 branch at the
    /// first level and reports only d3.
    #[test]
    fn paper_fig5_probe_d1() {
        let dict = Dictionary::new();
        let ds = table1(&dict);
        let tree = FpTree::build(&ds);
        let (found, stats) = probe_with_stats(&tree, &ds[0], true);
        assert_eq!(found, vec![DocId(3)]);
        // One ubiquitous level (b) navigated via the fast path...
        assert_eq!(stats.fast_levels, 1);
        // ...so the b:8 subtree (3 nodes) was never visited.
        assert!(stats.visited <= 2, "visited {} nodes", stats.visited);
    }

    #[test]
    fn fast_path_and_full_traversal_agree() {
        let dict = Dictionary::new();
        let ds = table1(&dict);
        let tree = FpTree::build(&ds);
        for d in &ds {
            let (mut fast, _) = probe_with_stats(&tree, d, true);
            let (mut slow, _) = probe_with_stats(&tree, d, false);
            fast.sort();
            slow.sort();
            assert_eq!(fast, slow, "mismatch probing {}", d.id());
        }
    }

    #[test]
    fn probe_matches_pairwise_definition() {
        let dict = Dictionary::new();
        let ds = docs(
            &dict,
            &[
                r#"{"u":"A","s":"W"}"#,
                r#"{"u":"A","s":"W","m":2}"#,
                r#"{"u":"A","s":"E"}"#,
                r#"{"ip":"10.0.0.1","s":"W"}"#,
                r#"{"u":"B","s":"C","m":1}"#,
                r#"{"u":"B","s":"C"}"#,
                r#"{"u":"B","s":"W"}"#,
            ],
        );
        let tree = FpTree::build(&ds);
        for d in &ds {
            let mut got = probe(&tree, d);
            got.sort();
            let mut want: Vec<DocId> = ds
                .iter()
                .filter(|o| o.id() != d.id() && o.joins_with(d))
                .map(|o| o.id())
                .collect();
            want.sort();
            assert_eq!(got, want, "probe {}", d.id());
        }
    }

    #[test]
    fn docs_sharing_nothing_are_not_reported() {
        let dict = Dictionary::new();
        let ds = docs(&dict, &[r#"{"a":1}"#, r#"{"b":2}"#]);
        let tree = FpTree::build(&ds);
        assert!(probe(&tree, &ds[0]).is_empty());
        assert!(probe(&tree, &ds[1]).is_empty());
    }

    #[test]
    fn probe_excludes_self() {
        let dict = Dictionary::new();
        let ds = table1(&dict);
        let tree = FpTree::build(&ds);
        for d in &ds {
            assert!(!probe(&tree, d).contains(&d.id()));
        }
    }

    #[test]
    fn duplicate_documents_join_each_other() {
        let dict = Dictionary::new();
        let ds = docs(&dict, &[r#"{"x":1}"#, r#"{"x":1}"#]);
        let tree = FpTree::build(&ds);
        assert_eq!(probe(&tree, &ds[0]), vec![DocId(2)]);
        assert_eq!(probe(&tree, &ds[1]), vec![DocId(1)]);
    }

    #[test]
    fn probe_lacking_ubiquitous_attribute_falls_back() {
        let dict = Dictionary::new();
        // b is ubiquitous in the batch; the late probe has no b at all.
        let ds = table1(&dict);
        let tree = FpTree::build(&ds);
        let late = Document::from_json(DocId(50), r#"{"a":3,"c":1}"#, &dict).unwrap();
        let (mut got, stats) = probe_with_stats(&tree, &late, true);
        got.sort();
        // Joinable with every document carrying a:3 or c:1 without conflict:
        // d1 {a3,b7,c1} shares a,c; d2 {a3,b8} shares a; d3 {a3,b7} shares a.
        assert_eq!(got, vec![DocId(1), DocId(2), DocId(3)]);
        assert_eq!(stats.fast_levels, 0, "fast path must not engage");
    }

    #[test]
    fn probe_with_conflicting_ubiquitous_value_returns_empty() {
        let dict = Dictionary::new();
        let ds = table1(&dict);
        let tree = FpTree::build(&ds);
        let probe_doc = Document::from_json(DocId(60), r#"{"b":99,"a":3}"#, &dict).unwrap();
        // b:99 exists nowhere: every stored doc carries b with another value.
        assert!(probe(&tree, &probe_doc).is_empty());
    }

    #[test]
    fn join_batch_reports_each_pair_once() {
        let dict = Dictionary::new();
        let ds = table1(&dict);
        let (_, mut pairs) = join_batch(&ds);
        pairs.sort();
        let mut dedup = pairs.clone();
        dedup.dedup();
        assert_eq!(pairs, dedup);
        for (a, b) in &pairs {
            assert!(a < b, "pair ({a},{b}) not ordered");
        }
    }

    #[test]
    fn incremental_and_prebuilt_agree() {
        let dict = Dictionary::new();
        let ds = docs(
            &dict,
            &[
                r#"{"u":"A","s":"W"}"#,
                r#"{"u":"A","s":"W","m":2}"#,
                r#"{"u":"A","s":"E"}"#,
                r#"{"ip":"x","s":"W"}"#,
                r#"{"u":"B","s":"C","m":1}"#,
            ],
        );
        let (_, mut inc) = join_batch(&ds);
        let (_, mut pre) = join_batch_prebuilt(&ds);
        inc.sort();
        pre.sort();
        assert_eq!(inc, pre);
    }

    /// One scratch reused across many probes (including epoch reuse after
    /// wraparound-adjacent states) must behave like a fresh one per probe.
    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let dict = Dictionary::new();
        let ds = table1(&dict);
        let tree = FpTree::build(&ds);
        let mut scratch = ProbeScratch::new();
        scratch.epoch = u32::MAX - 2; // cross the wraparound reset path
        let mut out = Vec::new();
        for _ in 0..6 {
            for d in &ds {
                probe_into(&tree, d, true, &mut scratch, &mut out);
                let mut got = out.clone();
                got.sort();
                let mut want = probe(&tree, d);
                want.sort();
                assert_eq!(got, want, "probe {}", d.id());
            }
        }
    }

    #[test]
    fn deep_tree_with_many_ubiquitous_levels() {
        let dict = Dictionary::new();
        // Three Boolean-ish ubiquitous attributes → first 3 levels prunable.
        let mut srcs = Vec::new();
        for i in 0..16u32 {
            let bits = i % 8;
            let (b1, b2, b3) = (bits & 1, (bits >> 1) & 1, (bits >> 2) & 1);
            // The extra attribute is sparse (half tag, half note) so exactly
            // f1..f3 are ubiquitous; d_i and d_{i+8} share all three bits.
            let extra = if i < 8 {
                format!(r#""tag":"t{i}""#)
            } else {
                format!(r#""note":"n{i}""#)
            };
            srcs.push(format!(r#"{{"f1":{b1},"f2":{b2},"f3":{b3},{extra}}}"#));
        }
        let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
        let ds = docs(&dict, &refs);
        let tree = FpTree::build(&ds);
        assert_eq!(tree.ubiquitous(), 3);
        for d in &ds {
            let (got, stats) = probe_with_stats(&tree, d, true);
            assert_eq!(stats.fast_levels, 3);
            // Every other doc shares f1..f3 values only if identical bits;
            // tags are unique so partners differ only in tag attribute.
            let want: Vec<DocId> = ds
                .iter()
                .filter(|o| o.id() != d.id() && o.joins_with(d))
                .map(|o| o.id())
                .collect();
            let mut got = got;
            let mut want = want;
            got.sort();
            want.sort();
            assert_eq!(got, want);
        }
    }
}
