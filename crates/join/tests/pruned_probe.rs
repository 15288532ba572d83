//! Differential tests for the pruned probe: an FP-tree whose documents carry
//! tags, probed with a skip mask, must report exactly the stored documents
//! that join the probe and whose tag misses the mask — brute force
//! `joins_with && tag & skip == 0` — whatever the arena's shape.
//!
//! Documents are prefixes of one attribute chain over a two-value domain (as
//! in `lazy_tail.rs`), so a probe-then-insert stream hits every lazy-tail
//! case (equal, ends inside, diverges, outruns); a punched-out attribute
//! (`hole`) and an attribute no order ranks (`extra`) make the order a stale
//! prediction. Tags and masks come from three bits, so they meet often.
//!
//! A frozen pane's pair set ([`FrozenPane::may_join`]) is held to the same
//! standard: it turns a probe away only where every skip mask finds nothing.

use proptest::collection::vec;
use proptest::prelude::*;
use ssj_join::{fpjoin, AttrOrder, FpTree, FrozenPane, NodeId, OpenPane};
use ssj_json::{AvpId, Dictionary, DocId, Document, Scalar};
use std::collections::BTreeSet;

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

/// A spec with a three-bit tag (or skip mask).
fn tagged() -> impl Strategy<Value = (Spec, u64)> {
    (spec(), 0u64..8)
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

fn docs(dict: &Dictionary, first_id: u64, specs: &[(Spec, u64)]) -> Vec<(Document, u64)> {
    specs
        .iter()
        .enumerate()
        .map(|(i, (s, tag))| (doc(dict, first_id + i as u64, s), *tag))
        .collect()
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

/// The stored documents a probe with `skip` must report.
fn brute(stored: &[(Document, u64)], probe: &Document, skip: u64) -> Vec<DocId> {
    let found = stored
        .iter()
        .filter(|(d, tag)| tag & skip == 0 && d.joins_with(probe));
    sorted(found.map(|(d, _)| d.id()).collect())
}

/// Every node's tag AND is the AND over the documents in its subtree.
fn assert_ands(tree: &FpTree, node: NodeId) -> u64 {
    let own = tree.tags(node).iter().fold(u64::MAX, |and, t| and & t);
    let and = tree
        .children(node)
        .fold(own, |and, c| and & assert_ands(tree, c));
    assert_eq!(tree.tags_and(node), and, "tag AND of node {node:?}");
    and
}

/// Probe `tree` with every probe and skip mask, fast path on and off.
fn assert_probes(
    tree: &FpTree,
    stored: &[(Document, u64)],
    probes: &[(Document, u64)],
) -> Result<(), TestCaseError> {
    assert_ands(tree, NodeId::ROOT);
    let mut scratch = fpjoin::ProbeScratch::new();
    let mut out = Vec::new();
    for (p, skip) in probes {
        let want = brute(stored, p, *skip);
        for fast in [true, false] {
            fpjoin::probe_absent(tree, p, *skip, fast, &mut scratch, &mut out);
            prop_assert_eq!(
                sorted(out.clone()),
                want.clone(),
                "fast={} skip={:#b} probe {:?}",
                fast,
                skip,
                p.pairs()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Probe-then-insert, as the Joiner's open pane does: each arrival,
    /// probed with its own tag as the mask, finds exactly the earlier
    /// documents it owns a pair with; then the tree is probed by foreign
    /// documents, sealed, grown after the seal and reset. The order comes
    /// from the stored documents or from another batch.
    #[test]
    fn pruned_probe_matches_brute_force(
        stream in vec(tagged(), 1..24),
        late in vec(tagged(), 0..12),
        probes in vec(tagged(), 1..8),
        stale in any::<bool>(),
        other in vec(spec(), 0..12),
        next in vec(tagged(), 0..16),
    ) {
        let dict = Dictionary::new();
        let stream = docs(&dict, 0, &stream);
        let order = if stale {
            let other: Vec<Document> =
                other.iter().enumerate().map(|(i, s)| doc(&dict, 5_000 + i as u64, s)).collect();
            AttrOrder::compute(&other)
        } else {
            AttrOrder::compute(&stream.iter().map(|(d, _)| d.clone()).collect::<Vec<_>>())
        };
        let probes = docs(&dict, 10_000, &probes);

        let mut tree = FpTree::new(order.clone());
        let mut scratch = fpjoin::ProbeScratch::new();
        let mut out = Vec::new();
        for (i, (d, tag)) in stream.iter().enumerate() {
            for fast in [true, false] {
                fpjoin::probe_absent(&tree, d, *tag, fast, &mut scratch, &mut out);
                prop_assert_eq!(sorted(out.clone()), brute(&stream[..i], d, *tag), "arrival {} fast={}", i, fast);
            }
            tree.insert_tagged(d, *tag);
        }
        assert_probes(&tree, &stream, &probes)?;

        tree.seal();
        assert_probes(&tree, &stream, &probes)?;
        let mut all = stream.clone();
        for (d, tag) in docs(&dict, 1_000, &late) {
            tree.insert_tagged(&d, tag);
            all.push((d, tag));
        }
        assert_probes(&tree, &all, &probes)?;
        tree.seal();
        assert_probes(&tree, &all, &probes)?;

        tree.reset(order);
        assert_probes(&tree, &[], &probes)?;
        let next = docs(&dict, 2_000, &next);
        for (d, tag) in &next {
            tree.insert_tagged(d, *tag);
        }
        assert_probes(&tree, &next, &probes)?;
    }

    /// Panes joined on arrival under the previous pane's order, each
    /// arrival tagged: a pane's pairs are exactly the joining pairs whose
    /// tags are disjoint, and a kept (sealed) pane probed by the next pane's
    /// documents reports the same rule across panes.
    #[test]
    fn open_panes_find_only_disjoint_tags(panes in vec(vec(tagged(), 0..20), 1..4)) {
        let dict = Dictionary::new();
        let mut open = OpenPane::new();
        let mut scratch = fpjoin::ProbeScratch::new();
        let mut out = Vec::new();
        let mut frozen: Option<(FrozenPane, Vec<(Document, u64)>)> = None;
        for (k, specs) in panes.iter().enumerate() {
            let pane = docs(&dict, 100 * k as u64, specs);
            let mut pairs = Vec::new();
            for (d, tag) in &pane {
                open.join(d, *tag, &mut pairs);
            }
            let mut want = Vec::new();
            for (i, (b, tb)) in pane.iter().enumerate() {
                want.extend(brute(&pane[..i], b, *tb).into_iter().map(|a| (a, b.id())));
            }
            prop_assert_eq!(sorted(pairs), sorted(want), "pane {}", k);
            if let Some((frozen, stored)) = &frozen {
                let tree = frozen.tree();
                assert_ands(tree, NodeId::ROOT);
                for (d, tag) in &pane {
                    fpjoin::probe_absent(tree, d, *tag, true, &mut scratch, &mut out);
                    prop_assert_eq!(sorted(out.clone()), brute(stored, d, *tag), "pane {} across", k);
                }
            }
            // Alternate the reset (tumbling) and the kept, sealed tree.
            frozen = open.close(k % 2 == 0).map(|tree| (tree, pane));
        }
    }

    /// Panes joined on arrival and closed as a tumbling (reset) or sliding
    /// (kept) window would, empty ones included: a kept pane's pair set is
    /// exactly the pairs its documents carry, and whenever the set turns a
    /// document away, the pane's tree reports nothing to it under any skip
    /// mask, fast path on or off, and brute force finds no partner.
    #[test]
    fn a_frozen_pane_turns_away_only_probes_that_find_nothing(
        panes in vec((vec(tagged(), 0..16), any::<bool>()), 1..6),
        probes in vec(spec(), 1..8),
    ) {
        let dict = Dictionary::new();
        let probes: Vec<Document> =
            probes.iter().enumerate().map(|(i, s)| doc(&dict, 9_000 + i as u64, s)).collect();
        let mut open = OpenPane::new();
        let mut scratch = fpjoin::ProbeScratch::new();
        let mut out = Vec::new();
        let mut sink = Vec::new();
        for (k, (specs, keep)) in panes.iter().enumerate() {
            let pane = docs(&dict, 100 * k as u64, specs);
            for (d, tag) in &pane {
                open.join(d, *tag, &mut sink);
            }
            let Some(frozen) = open.close(*keep) else {
                prop_assert!(!keep || pane.is_empty());
                continue;
            };
            let carried: BTreeSet<AvpId> =
                pane.iter().flat_map(|(d, _)| d.pairs().iter().map(|p| p.avp)).collect();
            prop_assert_eq!(frozen.pairs().iter().collect::<BTreeSet<_>>(), carried, "pane {}", k);
            for p in &probes {
                if frozen.may_join(p) {
                    continue;
                }
                prop_assert_eq!(brute(&pane, p, 0), Vec::<DocId>::new(), "pane {} probe {:?}", k, p.pairs());
                for skip in 0..8 {
                    for fast in [true, false] {
                        fpjoin::probe_absent(frozen.tree(), p, skip, fast, &mut scratch, &mut out);
                        prop_assert!(out.is_empty(), "pane {} skip {:#b} fast={} probe {:?}", k, skip, fast, p.pairs());
                    }
                }
            }
        }
    }
}
