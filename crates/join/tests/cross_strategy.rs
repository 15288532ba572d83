//! Large randomized cross-checks: all join strategies (top-down FPTreeJoin
//! with and without the fast path, NLJ, HBJ, sliding panes) must produce identical results on sizeable mixed batches.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssj_join::{fpjoin, hbj, nlj, FpTree, JoinAlgo, SlidingJoiner};
use ssj_json::{Dictionary, DocId, Document, Scalar};

/// A mixed batch: log-like docs with hubs, conflicts, and unique tails.
fn batch(dict: &Dictionary, n: usize, seed: u64) -> Vec<Document> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|i| {
            let mut pairs = vec![dict.intern("sev", Scalar::Int(rng.gen_range(0..3)))];
            if rng.gen_bool(0.8) {
                pairs.push(dict.intern("user", Scalar::Int(rng.gen_range(0..12))));
            }
            if rng.gen_bool(0.5) {
                pairs.push(dict.intern("grp", Scalar::Int(rng.gen_range(0..6))));
            }
            if rng.gen_bool(0.3) {
                pairs.push(dict.intern("tag", Scalar::Int(i as i64))); // unique
            }
            if rng.gen_bool(0.4) {
                pairs.push(dict.intern("loc", Scalar::Int(rng.gen_range(0..4))));
            }
            Document::from_pairs(DocId(i), pairs)
        })
        .collect()
}

#[test]
fn five_hundred_docs_all_strategies_agree() {
    let dict = Dictionary::new();
    let docs = batch(&dict, 500, 99);

    let mut reference = nlj::join_batch(&docs);
    reference.sort();

    // Batch APIs.
    let mut via_fp = fpjoin::join_batch(&docs).1;
    via_fp.sort();
    assert_eq!(via_fp, reference, "incremental FPTreeJoin");

    let mut via_prebuilt = fpjoin::join_batch_prebuilt(&docs).1;
    via_prebuilt.sort();
    assert_eq!(via_prebuilt, reference, "prebuilt FPTreeJoin");

    let mut via_hbj = hbj::join_batch(&docs);
    via_hbj.sort();
    assert_eq!(via_hbj, reference, "HBJ");

    // Probe APIs over the full tree.
    let tree = FpTree::build(&docs);
    let mut via_probe = Vec::new();
    let mut via_slow = Vec::new();
    for d in &docs {
        for p in fpjoin::probe(&tree, d) {
            if p < d.id() {
                via_probe.push((p, d.id()));
            }
        }
        for p in fpjoin::probe_with_stats(&tree, d, false).0 {
            if p < d.id() {
                via_slow.push((p, d.id()));
            }
        }
    }
    via_probe.sort();
    via_slow.sort();
    assert_eq!(via_probe, reference, "fast-path probe");
    assert_eq!(via_slow, reference, "no-fast-path probe");

    // Sliding window with a single giant pane == tumbling.
    let mut sliding = SlidingJoiner::new(ssj_join::WindowSpec::sliding(10_000, 1));
    let mut via_sliding = Vec::new();
    for d in &docs {
        for p in sliding.insert_and_probe(d.clone()) {
            via_sliding.push((p.min(d.id()), p.max(d.id())));
        }
    }
    via_sliding.sort();
    assert_eq!(via_sliding, reference, "sliding single pane");

    // Sanity: the batch actually exercises the algorithms.
    assert!(reference.len() > 1_000, "only {} pairs", reference.len());
}

#[test]
fn repeated_seeds_are_deterministic() {
    let d1 = Dictionary::new();
    let d2 = Dictionary::new();
    let a = batch(&d1, 200, 7);
    let b = batch(&d2, 200, 7);
    let mut ra = fpjoin::join_batch(&a).1;
    let mut rb = fpjoin::join_batch(&b).1;
    ra.sort();
    rb.sort();
    assert_eq!(ra, rb);
}

#[test]
fn timings_report_consistent_counts_at_scale() {
    let dict = Dictionary::new();
    let docs = batch(&dict, 400, 3);
    let expected = nlj::join_batch(&docs).len();
    for algo in JoinAlgo::all() {
        let t = ssj_join::split_timings(algo, &docs);
        assert_eq!(t.pairs, expected, "{}", algo.name());
    }
}
