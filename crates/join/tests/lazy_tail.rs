//! Differential tests for the lazy-tail FP-tree: whatever shape the arena
//! takes, probing it must return exactly what the nested-loop oracle
//! returns, and the logical tree it presents must be the paper's.
//!
//! The generator is built to hit the tail cases: documents are prefixes of
//! one attribute chain whose rank order is the attribute order (shorter
//! documents make earlier attributes more frequent), values come from a
//! two-element domain, so strict prefixes, identical documents and
//! divergence at the first / a middle / the last tail pair all occur within
//! a handful of documents. A hole punched into some documents removes an
//! otherwise ubiquitous attribute.

use proptest::collection::vec;
use proptest::prelude::*;
use ssj_join::{fpjoin, nlj, AttrOrder, FpTree, TreeStats};
use ssj_json::{AttrId, Dictionary, DocId, Document, FxHashMap, FxHashSet, Pair, Scalar};

const CHAIN: usize = 7;

/// `(length, values, hole)`: attributes `c0..c{length-1}` with the given
/// values, minus attribute `hole` when it is inside the length.
type Spec = (usize, Vec<u8>, usize);

fn spec() -> impl Strategy<Value = Spec> {
    (1..CHAIN + 1, vec(0u8..2, CHAIN..CHAIN + 1), 0..3 * CHAIN)
}

fn doc(dict: &Dictionary, id: u64, (len, vals, hole): &Spec) -> Document {
    let pairs = (0..*len)
        .filter(|i| i != hole || *len == 1)
        .map(|i| dict.intern(&format!("c{i}"), Scalar::Int(vals[i] as i64)))
        .collect();
    Document::from_pairs(DocId(id), pairs)
}

fn docs(dict: &Dictionary, first_id: u64, specs: &[Spec]) -> Vec<Document> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| doc(dict, first_id + i as u64, s))
        .collect()
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

/// The pre-PR-14 `AttrOrder::compute`, kept as the reference the dense
/// implementation is checked against: per-attribute hash sets of values.
fn reference_order(docs: &[Document]) -> (Vec<AttrId>, usize) {
    let mut doc_freq: FxHashMap<AttrId, u32> = FxHashMap::default();
    let mut values: FxHashMap<AttrId, FxHashSet<u32>> = FxHashMap::default();
    for doc in docs {
        for &Pair { attr, avp } in doc.pairs() {
            *doc_freq.entry(attr).or_insert(0) += 1;
            values.entry(attr).or_default().insert(avp.0);
        }
    }
    let mut attrs: Vec<AttrId> = doc_freq.keys().copied().collect();
    attrs.sort_by(|a, b| {
        doc_freq[b]
            .cmp(&doc_freq[a])
            .then_with(|| values[a].len().cmp(&values[b].len()))
            .then_with(|| a.cmp(b))
    });
    let ubiquitous = attrs
        .iter()
        .take_while(|a| doc_freq[a] as usize == docs.len())
        .count();
    (attrs, ubiquitous)
}

proptest! {
    /// Every stored document probes to its NLJ partner set, fast path on
    /// and off, through one reused scratch.
    #[test]
    fn probe_matches_nlj_fast_path_on_and_off(specs in vec(spec(), 1..24)) {
        let dict = Dictionary::new();
        let ds = docs(&dict, 0, &specs);
        let tree = FpTree::build(&ds);
        let mut scratch = fpjoin::ProbeScratch::new();
        let mut out = Vec::new();
        for d in &ds {
            let want = sorted(nlj::probe(&ds, d));
            for fast in [true, false] {
                fpjoin::probe_into(&tree, d, fast, &mut scratch, &mut out);
                prop_assert_eq!(sorted(out.clone()), want.clone(), "fast={} probe {}", fast, d.id());
            }
        }
    }

    /// Probes from outside the batch: lacking attributes every stored
    /// document has, or carrying attributes the order never saw.
    #[test]
    fn foreign_probes_match_nlj(
        specs in vec(spec(), 1..24),
        probes in vec((spec(), any::<bool>()), 1..8)
    ) {
        let dict = Dictionary::new();
        let ds = docs(&dict, 0, &specs);
        let tree = FpTree::build(&ds);
        for (i, (s, unseen)) in probes.iter().enumerate() {
            let mut pairs = doc(&dict, 0, s).pairs().to_vec();
            if *unseen {
                pairs.push(dict.intern("never-ranked", Scalar::Int(i as i64)));
            }
            let p = Document::from_pairs(DocId(10_000 + i as u64), pairs);
            let want = sorted(nlj::probe(&ds, &p));
            for fast in [true, false] {
                let got = fpjoin::probe_with_stats(&tree, &p, fast).0;
                prop_assert_eq!(sorted(got), want.clone(), "fast={} probe {:?}", fast, p.pairs());
            }
        }
    }

    /// Inserting into a sealed tree keeps expanding tails correctly; the
    /// late documents need not carry the attributes the build found
    /// ubiquitous — the tree shortens its fast path itself.
    #[test]
    fn inserts_after_seal_match_nlj(
        specs in vec(spec(), 1..16),
        late in vec(spec(), 1..16)
    ) {
        let dict = Dictionary::new();
        let mut all = docs(&dict, 0, &specs);
        let mut tree = FpTree::build(&all);
        for d in docs(&dict, 1_000, &late) {
            tree.insert(&d);
            all.push(d);
        }
        prop_assert_eq!(tree.doc_count(), all.len());
        for round in 0..2 {
            for d in &all {
                for fast in [true, false] {
                    let got = fpjoin::probe_with_stats(&tree, d, fast).0;
                    prop_assert_eq!(sorted(got), sorted(nlj::probe(&all, d)), "round {} fast={} probe {}", round, fast, d.id());
                }
            }
            tree.seal();
        }
    }

    /// The Joiner's probe-then-insert loop, the split-phase build-then-probe
    /// join and the nested loop find the same pairs.
    #[test]
    fn join_batch_matches_prebuilt_and_nlj(specs in vec(spec(), 0..32)) {
        let dict = Dictionary::new();
        let ds = docs(&dict, 0, &specs);
        let want = sorted(nlj::join_batch(&ds));
        let (tree, pairs) = fpjoin::join_batch(&ds);
        prop_assert_eq!(sorted(pairs), want.clone());
        prop_assert_eq!(sorted(fpjoin::join_batch_prebuilt(&ds).1), want);
        // The tree handed back is the one `build` makes.
        let built = FpTree::build(&ds);
        prop_assert_eq!(tree.node_count(), built.node_count());
        prop_assert_eq!(TreeStats::of(&tree), TreeStats::of(&built));
    }

    /// `TreeStats` and `render` present the fully expanded tree: one node
    /// per distinct rank-ordered path prefix, however few the arena holds.
    #[test]
    fn logical_shape_is_the_prefix_tree(specs in vec(spec(), 0..24)) {
        let dict = Dictionary::new();
        let ds = docs(&dict, 0, &specs);
        let tree = FpTree::build(&ds);
        let mut prefixes: FxHashSet<Vec<Pair>> = FxHashSet::default();
        for d in &ds {
            let path = tree.order().reorder(d);
            for end in 1..=path.len() {
                prefixes.insert(path[..end].to_vec());
            }
        }
        let stats = TreeStats::of(&tree);
        prop_assert_eq!(stats.nodes, prefixes.len());
        prop_assert_eq!(stats.levels.iter().sum::<usize>(), prefixes.len());
        prop_assert_eq!(stats.docs, ds.len());
        prop_assert_eq!(stats.pairs, ds.iter().map(Document::len).sum::<usize>());
        prop_assert_eq!(stats.max_depth, tree.max_depth());
        prop_assert!(tree.node_count() - 1 <= stats.nodes);
        prop_assert_eq!(tree.render(&dict).lines().count(), 1 + prefixes.len());
    }

    /// The dense attribute order is the hash-map one, batch after batch
    /// through one reused scratch.
    #[test]
    fn dense_order_matches_reference(batches in vec(vec(spec(), 0..16), 1..4)) {
        let dict = Dictionary::new();
        let mut scratch = ssj_join::order::OrderScratch::default();
        for specs in &batches {
            let ds = docs(&dict, 0, specs);
            let (attrs, ubiquitous) = reference_order(&ds);
            for order in [AttrOrder::compute(&ds), AttrOrder::compute_with(&ds, &mut scratch)] {
                prop_assert_eq!(order.attrs(), &attrs[..]);
                prop_assert_eq!(order.ubiquitous(), ubiquitous);
                prop_assert_eq!(order.doc_count(), ds.len());
            }
        }
    }
}
