//! Differential tests for FP-trees governed by somebody else's order.
//!
//! A pane joined on arrival ([`OpenPane`]) orders its tree by the *previous*
//! pane's attribute counts, so everything the order says about the stored
//! documents is a prediction: which attributes are ubiquitous (the §V-B fast
//! path), which attributes exist at all. Whatever the order, probing must
//! return exactly what the nested-loop oracle returns, fast path on or off;
//! the tree — not the order — owns the fast-path depth.
//!
//! Documents are prefixes of one attribute chain over a two-value domain (as
//! in `lazy_tail.rs`), optionally with one attribute punched out (`hole`) and
//! an attribute appended that no order ever ranks (`extra`).

use proptest::collection::vec;
use proptest::prelude::*;
use ssj_join::order::OrderScratch;
use ssj_join::{fpjoin, nlj, AttrOrder, FpTree, OpenPane};
use ssj_json::{Dictionary, DocId, Document, Scalar};

const CHAIN: usize = 6;

/// `(length, values, hole, extra)`.
type Spec = (usize, Vec<u8>, usize, bool);

fn spec() -> impl Strategy<Value = Spec> {
    (
        1..CHAIN + 1,
        vec(0u8..2, CHAIN..CHAIN + 1),
        0..3 * CHAIN,
        any::<bool>(),
    )
}

fn doc(dict: &Dictionary, id: u64, (len, vals, hole, extra): &Spec) -> Document {
    let mut pairs: Vec<_> = (0..*len)
        .filter(|i| i != hole || *len == 1)
        .map(|i| dict.intern(&format!("c{i}"), Scalar::Int(vals[i] as i64)))
        .collect();
    if *extra {
        pairs.push(dict.intern("never-ranked", Scalar::Int(vals[0] as i64)));
    }
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

/// Probe-then-insert `stream` into `tree`, checking every probe against NLJ
/// over the documents stored so far, fast path on and off.
fn assert_probe_then_insert_is_exact(mut tree: FpTree, stream: &[Document]) -> FpTree {
    let mut scratch = fpjoin::ProbeScratch::new();
    let mut out = Vec::new();
    for (i, d) in stream.iter().enumerate() {
        let want = sorted(nlj::probe(&stream[..i], d));
        for fast in [true, false] {
            fpjoin::probe_absent(&tree, d, 0, fast, &mut scratch, &mut out);
            assert_eq!(sorted(out.clone()), want, "fast={fast} probe {}", d.id());
        }
        tree.insert(d);
    }
    // And once everything is stored (a frozen pane probed by later panes).
    for d in stream {
        let want = sorted(nlj::probe(stream, d));
        for fast in [true, false] {
            fpjoin::probe_into(&tree, d, fast, &mut scratch, &mut out);
            assert_eq!(sorted(out.clone()), want, "fast={fast} re-probe {}", d.id());
        }
    }
    tree
}

/// The trap the tree's own count closes: the order predicts all of `c0`
/// (first rank), `c1`, `c2` ubiquitous, one stored document lacks `c0`.
/// Following the prediction, the fast path would descend by `c0`'s value and
/// never see that document.
#[test]
fn predicted_ubiquitous_attribute_missing_from_one_document() {
    let dict = Dictionary::new();
    let full = |id: u64, v: u8| doc(&dict, id, &(3, vec![0, v, v, 0, 0, 0], usize::MAX, false));
    let order = AttrOrder::compute(&[full(100, 0), full(101, 1)]);
    assert_eq!(order.ubiquitous(), 3);
    assert_eq!(dict.attr_name(order.attrs()[0]), "c0");
    for missing_at in [0usize, 3, 6] {
        let stream: Vec<Document> = (0..7u64)
            .map(|i| {
                if i as usize == missing_at {
                    // Lacks c0; joins every document with c1 = c2 = 0.
                    doc(&dict, i, &(3, vec![0, 0, 0, 0, 0, 0], 0, false))
                } else {
                    full(i, (i % 2) as u8)
                }
            })
            .collect();
        let mut tree = FpTree::new(order.clone());
        for (i, d) in stream.iter().enumerate() {
            tree.insert(d);
            let want = if i < missing_at { 3 } else { 0 };
            assert_eq!(
                tree.ubiquitous(),
                want,
                "after doc {i}, hole at {missing_at}"
            );
        }
        assert!(!nlj::probe(&stream, &stream[missing_at]).is_empty());
        let tree = assert_probe_then_insert_is_exact(FpTree::new(order.clone()), &stream);
        tree_survives_seal(tree, &stream);
    }
}

fn tree_survives_seal(mut tree: FpTree, stream: &[Document]) {
    let before = tree.ubiquitous();
    tree.seal();
    assert_eq!(tree.ubiquitous(), before);
    for d in stream {
        let got = fpjoin::probe_with_stats(&tree, d, true).0;
        assert_eq!(sorted(got), sorted(nlj::probe(stream, d)));
    }
}

proptest! {
    /// A tree under an order computed from a different batch (possibly an
    /// empty one: the empty order), fed documents with holes and attributes
    /// the order never saw.
    #[test]
    fn probe_then_insert_matches_nlj_under_a_foreign_order(
        order_batch in vec(spec(), 0..12),
        stream in vec(spec(), 1..24),
    ) {
        let dict = Dictionary::new();
        let order = AttrOrder::compute(&docs(&dict, 1_000, &order_batch));
        let stream = docs(&dict, 0, &stream);
        let tree = assert_probe_then_insert_is_exact(FpTree::new(order), &stream);
        prop_assert_eq!(tree.doc_count(), stream.len());
        // The count is a fact about the stored documents.
        let attrs = tree.order().attrs();
        prop_assert!(tree.ubiquitous() <= tree.order().ubiquitous());
        for d in &stream {
            for a in &attrs[..tree.ubiquitous()] {
                prop_assert!(d.pairs().iter().any(|p| p.attr == *a));
            }
        }
    }

    /// For a tree built over its own batch the tree's count and the order's
    /// prediction coincide.
    #[test]
    fn built_tree_counts_what_its_order_predicts(specs in vec(spec(), 0..24)) {
        let dict = Dictionary::new();
        let ds = docs(&dict, 0, &specs);
        let tree = FpTree::build(&ds);
        prop_assert_eq!(tree.ubiquitous(), AttrOrder::compute(&ds).ubiquitous());
        prop_assert_eq!(tree.ubiquitous(), tree.order().ubiquitous());
    }

    /// Panes joined on arrival, each under its predecessor's order: every
    /// pane's pairs are NLJ's, a kept tree is sealed and probes like a built
    /// one, and the order carried into the next pane is the batch order of
    /// the pane just closed (an empty pane keeps the order it had).
    #[test]
    fn open_panes_match_nlj_and_carry_the_batch_order(
        panes in vec((vec(spec(), 0..16), any::<bool>()), 1..5),
        probes in vec(spec(), 1..6),
    ) {
        let dict = Dictionary::new();
        let mut open = OpenPane::new();
        let mut carried = AttrOrder::default();
        let mut counters = OrderScratch::default();
        for (p, (specs, keep)) in panes.iter().enumerate() {
            let ds = docs(&dict, 100 * p as u64, specs);
            prop_assert_eq!(open.tree().order().attrs(), carried.attrs());
            let mut pairs = Vec::new();
            for d in &ds {
                open.join(d, 0, &mut pairs);
                counters.observe(d);
            }
            prop_assert_eq!(sorted(pairs), sorted(nlj::join_batch(&ds)), "pane {}", p);
            let kept = open.close(*keep);
            prop_assert_eq!(kept.is_some(), *keep && !ds.is_empty());
            if let Some(kept) = kept {
                let tree = kept.tree();
                prop_assert_eq!(tree.doc_count(), ds.len());
                for s in &probes {
                    let probe = doc(&dict, 9_999, s);
                    let got = fpjoin::probe_with_stats(tree, &probe, true).0;
                    prop_assert_eq!(sorted(got), sorted(nlj::probe(&ds, &probe)));
                }
            }
            prop_assert_eq!(open.tree().doc_count(), 0);
            if !ds.is_empty() {
                carried = AttrOrder::compute(&ds);
                // The same counters, fed document by document.
                let streamed = counters.finish();
                prop_assert_eq!(streamed.attrs(), carried.attrs());
                prop_assert_eq!(streamed.ubiquitous(), carried.ubiquitous());
                prop_assert_eq!(streamed.doc_count(), ds.len());
            }
            let next = open.tree().order();
            prop_assert_eq!(next.attrs(), carried.attrs());
            prop_assert_eq!(next.ubiquitous(), carried.ubiquitous());
            prop_assert_eq!(open.tree().ubiquitous(), carried.ubiquitous());
        }
    }
}
