//! Property-based tests over the core invariants of the system.

use proptest::collection::vec;
use proptest::prelude::*;
use schema_free_stream_joins::ssj_core::{
    ground_truth_pairs, run_topology_collect, StreamJoinConfig, WindowSpec,
};
use schema_free_stream_joins::ssj_join::{fpjoin, FpTree, JoinAlgo};
use schema_free_stream_joins::ssj_json::{
    parse, Dictionary, DocId, Document, FxHashSet, Scalar, Value,
};
use schema_free_stream_joins::ssj_partition::{
    association_groups, consolidate, gini, AssociationGroup, PartitionerKind,
};
use schema_free_stream_joins::ssj_runtime::FaultPlan;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// A random schema-free document: up to 6 attributes from a 10-attribute
/// pool, values from a small integer domain (which makes both shared pairs
/// and conflicts likely).
fn doc_strategy() -> impl Strategy<Value = Vec<(u8, u8)>> {
    vec((0u8..10, 0u8..5), 1..6)
}

fn materialize(specs: &[Vec<(u8, u8)>], dict: &Dictionary) -> Vec<Document> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let pairs = spec
                .iter()
                .map(|&(a, v)| dict.intern(&format!("attr{a}"), Scalar::Int(v as i64)))
                .collect();
            Document::from_pairs(DocId(i as u64), pairs)
        })
        .collect()
}

/// Recursive strategy for arbitrary JSON value trees.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e9f64..1e9f64).prop_map(Value::Float),
        "[a-zA-Z0-9 _\\-\\\\\"\n\t]{0,12}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..4).prop_map(Value::Array),
            vec(("[a-z]{1,6}", inner), 0..4).prop_map(|fields| {
                let mut obj = Value::object();
                for (k, v) in fields {
                    obj.insert(k, v);
                }
                obj
            }),
        ]
    })
}

// ---------------------------------------------------------------------
// JSON layer
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn json_serialize_parse_roundtrip(v in value_strategy()) {
        let text = v.to_json();
        let back = parse(&text).expect("serializer must emit valid JSON");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn join_check_is_symmetric_and_merge_commutes(
        specs in vec(doc_strategy(), 2..12)
    ) {
        let dict = Dictionary::new();
        let docs = materialize(&specs, &dict);
        for a in &docs {
            for b in &docs {
                prop_assert_eq!(
                    a.check_join(b).joinable(),
                    b.check_join(a).joinable()
                );
                if a.joins_with(b) {
                    let ab = a.merge(b, DocId(900));
                    let ba = b.merge(a, DocId(901));
                    prop_assert_eq!(ab.pairs(), ba.pairs());
                    // The merge must contain every pair of both inputs.
                    for p in a.pairs().iter().chain(b.pairs()) {
                        prop_assert!(ab.has_avp(*p));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Join algorithms
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn all_join_algorithms_agree(specs in vec(doc_strategy(), 0..30)) {
        let dict = Dictionary::new();
        let docs = materialize(&specs, &dict);
        let mut reference: Vec<_> =
            schema_free_stream_joins::ssj_join::nlj::join_batch(&docs);
        reference.sort();
        for algo in [JoinAlgo::FpTree, JoinAlgo::Hbj] {
            let mut got = schema_free_stream_joins::ssj_join::join_batch(algo, &docs);
            got.sort();
            prop_assert_eq!(&got, &reference, "{} differs from NLJ", algo.name());
        }
    }

    #[test]
    fn fp_probe_matches_pairwise_oracle(
        specs in vec(doc_strategy(), 1..25),
        probe_spec in doc_strategy()
    ) {
        let dict = Dictionary::new();
        let docs = materialize(&specs, &dict);
        let probe_pairs = probe_spec
            .iter()
            .map(|&(a, v)| dict.intern(&format!("attr{a}"), Scalar::Int(v as i64)))
            .collect();
        let probe_doc = Document::from_pairs(DocId(10_000), probe_pairs);
        let tree = FpTree::build(&docs);
        // The probe was not part of the order's batch: exercises the
        // fallback for unseen attributes / missing ubiquitous attributes.
        let mut got = fpjoin::probe(&tree, &probe_doc);
        got.sort();
        let mut want: Vec<DocId> = docs
            .iter()
            .filter(|d| d.joins_with(&probe_doc))
            .map(|d| d.id())
            .collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// The arena probe (reused scratch, fast path on AND off) must return
    /// exactly the NLJ oracle's partner set — including after post-seal
    /// inserts force the shared doc pool to relocate slices.
    #[test]
    fn arena_probe_matches_nlj_oracle_fast_on_and_off(
        specs in vec(doc_strategy(), 1..25),
        late_specs in vec(doc_strategy(), 0..6)
    ) {
        let dict = Dictionary::new();
        let docs = materialize(&specs, &dict);
        let mut tree = FpTree::build(&docs);
        let mut scratch = fpjoin::ProbeScratch::new();
        let mut out = Vec::new();
        for d in &docs {
            for fast in [true, false] {
                fpjoin::probe_into(&tree, d, fast, &mut scratch, &mut out);
                let mut got = out.clone();
                got.sort();
                let mut want =
                    schema_free_stream_joins::ssj_join::nlj::probe(&docs, d);
                want.sort();
                prop_assert_eq!(got, want, "fast={} probe {}", fast, d.id());
            }
        }
        // Grow the sealed arena: late inserts may relocate pool slices. The
        // fast path's ubiquity invariant no longer holds for late docs, so
        // (as in production sliding windows) probe with it disabled.
        let late: Vec<Document> = late_specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let pairs = spec
                    .iter()
                    .map(|&(a, v)| {
                        dict.intern(&format!("attr{a}"), Scalar::Int(v as i64))
                    })
                    .collect();
                Document::from_pairs(DocId(20_000 + i as u64), pairs)
            })
            .collect();
        let mut all = docs.clone();
        for d in &late {
            tree.insert(d);
            all.push(d.clone());
        }
        for d in &all {
            fpjoin::probe_into(&tree, d, false, &mut scratch, &mut out);
            let mut got = out.clone();
            got.sort();
            let mut want = schema_free_stream_joins::ssj_join::nlj::probe(&all, d);
            want.sort();
            prop_assert_eq!(got, want, "post-insert probe {}", d.id());
        }
    }

    #[test]
    fn fast_path_never_changes_results(specs in vec(doc_strategy(), 1..25)) {
        let dict = Dictionary::new();
        let docs = materialize(&specs, &dict);
        let tree = FpTree::build(&docs);
        for d in &docs {
            let (mut fast, _) = fpjoin::probe_with_stats(&tree, d, true);
            let (mut slow, _) = fpjoin::probe_with_stats(&tree, d, false);
            fast.sort();
            slow.sort();
            prop_assert_eq!(fast, slow);
        }
    }
}

// ---------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn association_groups_partition_the_pair_space(
        specs in vec(doc_strategy(), 1..25)
    ) {
        let dict = Dictionary::new();
        let docs = materialize(&specs, &dict);
        let views: Vec<Vec<_>> = docs.iter().map(|d| d.avps().collect()).collect();
        let groups = association_groups(&views);
        // Disjoint...
        let mut seen = FxHashSet::default();
        for g in &groups {
            for &avp in &g.avps {
                prop_assert!(seen.insert(avp), "pair in two association groups");
            }
        }
        // ...and covering.
        for v in &views {
            for avp in v {
                prop_assert!(seen.contains(avp), "pair lost by Algorithm 1");
            }
        }
        // Loads are positive and bounded by the batch size.
        for g in &groups {
            prop_assert!(g.load >= 1 && g.load <= docs.len());
        }
    }

    #[test]
    fn every_partitioner_colocates_joinable_creation_docs(
        specs in vec(doc_strategy(), 2..20),
        m in 1usize..5
    ) {
        let dict = Dictionary::new();
        let docs = materialize(&specs, &dict);
        let views: Vec<Vec<_>> = docs.iter().map(|d| d.avps().collect()).collect();
        for kind in PartitionerKind::with_baselines() {
            let table = kind.create(&views, m);
            for (i, a) in views.iter().enumerate() {
                for b in &views[i + 1..] {
                    if !a.iter().any(|p| b.contains(p)) {
                        continue;
                    }
                    let ta = table.route(a).targets(m);
                    let tb = table.route(b).targets(m);
                    prop_assert!(
                        ta.iter().any(|t| tb.contains(t)),
                        "{}: views sharing a pair never meet",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn merger_consolidation_is_disjoint_and_lossless(
        raw in vec(vec((0u32..40, 1usize..10), 1..6), 1..4)
    ) {
        let locals: Vec<Vec<AssociationGroup>> = raw
            .iter()
            .map(|groups| {
                groups
                    .iter()
                    .map(|&(base, len)| AssociationGroup {
                        avps: (base..base + len as u32)
                            .map(ssj_json_avp)
                            .collect(),
                        load: len,
                    })
                    .collect()
            })
            .collect();
        let all_pairs: FxHashSet<_> = locals
            .iter()
            .flatten()
            .flat_map(|g| g.avps.iter().copied())
            .collect();
        let out = consolidate(locals);
        let mut seen = FxHashSet::default();
        for g in &out {
            for &avp in &g.avps {
                prop_assert!(seen.insert(avp), "duplicate pair after consolidation");
            }
        }
        prop_assert_eq!(seen, all_pairs);
    }

    #[test]
    fn gini_bounds(loads in vec(0usize..1000, 1..20)) {
        let g = gini(&loads);
        prop_assert!((0.0..=1.0).contains(&g), "gini {g} out of bounds");
    }

    #[test]
    fn route_fanout_bounded_and_deterministic(
        specs in vec(doc_strategy(), 1..15),
        probe in doc_strategy(),
        m in 1usize..6
    ) {
        let dict = Dictionary::new();
        let docs = materialize(&specs, &dict);
        let views: Vec<Vec<_>> = docs.iter().map(|d| d.avps().collect()).collect();
        let table = PartitionerKind::Ag.create(&views, m);
        let view: Vec<_> = probe
            .iter()
            .map(|&(a, v)| dict.intern(&format!("attr{a}"), Scalar::Int(v as i64)).avp)
            .collect();
        let r1 = table.route(&view);
        let r2 = table.route(&view);
        prop_assert_eq!(&r1, &r2, "routing must be deterministic");
        let targets = r1.targets(m);
        prop_assert!(targets.len() <= m);
        prop_assert!(targets.iter().all(|&t| (t as usize) < m));
        // Targets are deduplicated and sorted.
        let mut sorted = targets.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(targets, sorted);
    }

    #[test]
    fn attribute_order_is_a_total_ranking(specs in vec(doc_strategy(), 1..20)) {
        let dict = Dictionary::new();
        let docs = materialize(&specs, &dict);
        let order = schema_free_stream_joins::ssj_join::AttrOrder::compute(docs.iter());
        // Every attribute of the batch gets a unique, dense rank.
        let mut ranks: Vec<u32> = order.attrs().iter().map(|&a| order.rank(a)).collect();
        ranks.sort();
        let expect: Vec<u32> = (0..order.attrs().len() as u32).collect();
        prop_assert_eq!(ranks, expect);
        // Reordering any document puts ubiquitous attributes first.
        for d in &docs {
            let reordered = order.reorder(d);
            for w in reordered.windows(2) {
                prop_assert!(
                    order.rank(w[0].attr) <= order.rank(w[1].attr),
                    "reorder not sorted by rank"
                );
            }
        }
    }

    #[test]
    fn sliding_single_pane_equals_tumbling(specs in vec(doc_strategy(), 1..20)) {
        let dict = Dictionary::new();
        let docs = materialize(&specs, &dict);
        let mut sliding =
            schema_free_stream_joins::ssj_join::SlidingJoiner::new(
                schema_free_stream_joins::ssj_join::WindowSpec::sliding(1000, 1),
            );
        let mut got = Vec::new();
        for d in &docs {
            for p in sliding.insert_and_probe(d.clone()) {
                let (a, b) = (p.min(d.id()), p.max(d.id()));
                got.push((a, b));
            }
        }
        got.sort();
        let mut want = schema_free_stream_joins::ssj_join::nlj::join_batch(&docs);
        want.sort();
        prop_assert_eq!(got, want);
    }
}

fn ssj_json_avp(i: u32) -> schema_free_stream_joins::ssj_json::AvpId {
    schema_free_stream_joins::ssj_json::AvpId(i)
}

// ---------------------------------------------------------------------
// Whole pipeline
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn pipeline_preserves_exact_join_result(
        windows in vec(vec(doc_strategy(), 1..20), 1..4),
        m in 1usize..5,
        kind_idx in 0usize..3,
        expansion in any::<bool>()
    ) {
        let dict = Dictionary::new();
        let kind = PartitionerKind::all()[kind_idx];
        let cfg = StreamJoinConfig::default()
            .with_m(m)
            .with_window_spec(WindowSpec::tumbling(1000)) // one pane per window below
            .with_partitioner(kind)
            .with_expansion(expansion)
            .with_assigners(1)
            .with_batch_size(1)
            .build()
            .unwrap();
        let mut id = 0u64;
        let mut panes = Vec::new();
        for specs in &windows {
            let docs: Vec<Document> = specs
                .iter()
                .map(|spec| {
                    let pairs = spec
                        .iter()
                        .map(|&(a, v)| {
                            dict.intern(&format!("attr{a}"), Scalar::Int(v as i64))
                        })
                        .collect();
                    id += 1;
                    Document::from_pairs(DocId(id), pairs)
                })
                .collect();
            panes.push(docs);
        }
        let reader = ssj_bench::testutil::lockstep_reader(panes.iter().map(Vec::as_slice));
        let report = run_topology_collect(cfg, &dict, reader, FaultPlan::new(), None).unwrap();
        prop_assert_eq!(report.joins_per_window.len(), panes.len());
        for (docs, found) in panes.iter().zip(&report.joins_per_window) {
            prop_assert_eq!(
                found,
                &ground_truth_pairs(docs),
                "{} m={} expansion={}: wrong join result",
                kind.name(),
                m,
                expansion
            );
        }
    }
}
