//! Differential tests for the fast partitioning pipeline.
//!
//! Two equivalences, each held across randomized inputs:
//!
//! 1. **Incremental ≡ batch**: a [`GroupIndex`] driven through a random
//!    interleaving of pushes, expiries, and derives produces exactly the
//!    association groups — and `assign_groups` tables for several machine
//!    counts — that a from-scratch batch computation over its live views
//!    produces. Equivalence groups agree modulo the order-preserving
//!    document-id relabeling (the index hands out monotone ids, the batch
//!    uses 0-based indices).
//! 2. **`route_into` ≡ `route`**: the zero-alloc mask path returns the
//!    same targets as the allocating `route`.

use proptest::prelude::*;
use ssj_json::AvpId;
use ssj_partition::{
    assign_groups, association_groups, equivalence_groups, GroupIndex, PartitionTable,
    RouteScratch, View,
};

/// Deterministic pseudo-random views over a small vocabulary (the same LCG
/// as `cross_partitioners.rs`).
fn gen_views(seed: u64, docs: usize, vocab: u32, max_len: usize) -> Vec<View> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..docs)
        .map(|_| {
            let len = 1 + (next() as usize) % max_len;
            let mut view: View = (0..len).map(|_| AvpId((next() as u32) % vocab)).collect();
            view.sort_unstable();
            view.dedup();
            view
        })
        .collect()
}

/// Compare the index against a from-scratch batch over its live views:
/// association groups, tables for several `m`, and equivalence groups
/// modulo the id relabeling.
fn assert_matches_batch(idx: &mut GroupIndex, live: &[(u32, View)]) -> Result<(), TestCaseError> {
    let views: Vec<View> = live.iter().map(|(_, v)| v.clone()).collect();
    prop_assert_eq!(idx.association_groups(), association_groups(&views));
    for m in [2usize, 4, 8] {
        prop_assert_eq!(
            idx.derive_table(m),
            assign_groups(association_groups(&views), m),
            "tables diverge at m={}",
            m
        );
    }
    // Equivalence groups: the index's ids relabel to batch indices by rank
    // (live is kept in ascending-id order), and the relabeling is monotone,
    // so the deterministic group order is preserved exactly.
    let mut relabeled = idx.equivalence_groups();
    for eg in &mut relabeled {
        for d in &mut eg.docs {
            *d = live
                .binary_search_by_key(d, |&(id, _)| id)
                .expect("index docset id is live") as u32;
        }
    }
    prop_assert_eq!(relabeled, equivalence_groups(&views));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Equivalence 1: random delta sequences with interleaved derives.
    #[test]
    fn incremental_matches_batch_over_delta_sequences(
        seed in 0u64..u64::MAX,
        ops in 5usize..60,
        vocab in 3u32..20,
        max_len in 1usize..6,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut idx = GroupIndex::new();
        // Mirror of the live population, ascending by id.
        let mut live: Vec<(u32, View)> = Vec::new();
        for op in 0..ops {
            match next() % 10 {
                // Expire a random live view.
                0..=2 if !live.is_empty() => {
                    let at = (next() as usize) % live.len();
                    let (id, _) = live.remove(at);
                    prop_assert!(idx.expire(id));
                }
                // Derive mid-stream and compare against the batch oracle.
                3 => assert_matches_batch(&mut idx, &live)?,
                // Push a fresh view.
                _ => {
                    let len = 1 + (next() as usize) % max_len;
                    let mut view: View =
                        (0..len).map(|_| AvpId((next() as u32) % vocab)).collect();
                    view.sort_unstable();
                    view.dedup();
                    let id = idx.push(&view);
                    live.push((id, view));
                    prop_assert_eq!(idx.len(), live.len(), "op {}", op);
                }
            }
        }
        assert_matches_batch(&mut idx, &live)?;
    }

    /// Equivalence 2: the mask path agrees with `route` on every
    /// view — creation-batch views (all pairs known) and unseen ones.
    #[test]
    fn route_into_matches_route(
        seed in 0u64..u64::MAX,
        docs in 4usize..40,
        vocab in 3u32..24,
        max_len in 1usize..6,
        m in 1usize..7,
    ) {
        let views = gen_views(seed, docs, vocab, max_len);
        let table = assign_groups(association_groups(&views), m);
        let mut probes = views;
        // Unseen and half-seen probes exercise the broadcast outcome.
        probes.push(vec![AvpId(vocab + 100)]);
        probes.push(vec![AvpId(0), AvpId(vocab + 101)]);
        let mut scratch = RouteScratch::new();
        for view in &probes {
            assert_route_agrees(&table, view, &mut scratch)?;
        }
    }
}

/// One view through both routing paths; targets must agree exactly.
fn assert_route_agrees(
    table: &PartitionTable,
    view: &[AvpId],
    scratch: &mut RouteScratch,
) -> Result<(), TestCaseError> {
    let legacy = table.route(view);
    let outcome = table.route_into(view, scratch);
    prop_assert_eq!(legacy.is_broadcast(), outcome.is_broadcast());
    if !outcome.is_broadcast() {
        let want = legacy.targets(table.m());
        prop_assert_eq!(scratch.targets(), want.as_slice());
    }
    Ok(())
}
