//! Consolidation of local association groups at the Merger (§IV-A).
//!
//! Each PartitionCreator runs only phase 1 of the partitioning algorithm on
//! its disjoint sample of the window; the Merger unifies the local groups:
//!
//! 1. merge every association group that is a *subset* of another, and
//! 2. for a pair present in two different groups, remove it from the group
//!    with *more* elements,
//!
//! then populates the `m` partitions with the greedy placement of §IV-A.

use crate::groups::AssociationGroup;
use crate::partitions::{assign_groups, PartitionTable};
use ssj_json::{AvpId, FxHashMap};

/// Unify local association groups from several PartitionCreators into one
/// global, non-overlapping set.
pub fn consolidate(locals: Vec<Vec<AssociationGroup>>) -> Vec<AssociationGroup> {
    let mut groups: Vec<AssociationGroup> = locals.into_iter().flatten().collect();
    for g in &mut groups {
        g.avps.sort();
        g.avps.dedup();
    }
    // Deterministic processing order: larger groups first so subset checks
    // compare each group against already-kept supersets.
    groups.sort_by(|a, b| {
        b.avps
            .len()
            .cmp(&a.avps.len())
            .then_with(|| a.avps.cmp(&b.avps))
    });

    // Step 1: drop groups fully contained in an already-kept group, folding
    // their load into the first such superset (those documents match it
    // anyway). A superset holds every pair of the group, so it is on the
    // shortest of their posting lists (kept indices, ascending): the first
    // superset there is the first one in kept order.
    let mut kept: Vec<AssociationGroup> = Vec::new();
    let mut postings: FxHashMap<AvpId, Vec<u32>> = FxHashMap::default();
    for g in groups {
        let shortest = g
            .avps
            .iter()
            .map(|a| postings.get(a).map_or(&[][..], Vec::as_slice))
            .min_by_key(|list| list.len());
        let superset = match shortest {
            Some(list) => list
                .iter()
                .find(|&&k| is_subset(&g.avps, &kept[k as usize].avps)),
            // An empty group is a subset of every group.
            None => kept.first().map(|_| &0),
        };
        if let Some(&k) = superset {
            let k = &mut kept[k as usize];
            k.load = k.load.max(g.load);
            continue;
        }
        for &a in &g.avps {
            postings.entry(a).or_default().push(kept.len() as u32);
        }
        kept.push(g);
    }

    // Step 2: a pair in several groups stays only in the one with the
    // fewest elements (ties: the earliest).
    let mut owner: FxHashMap<AvpId, usize> = FxHashMap::default();
    for (gi, g) in kept.iter().enumerate() {
        for &avp in &g.avps {
            let o = owner.entry(avp).or_insert(gi);
            if kept[*o].avps.len() > g.avps.len() {
                *o = gi;
            }
        }
    }
    for (gi, g) in kept.iter_mut().enumerate() {
        g.avps.retain(|a| owner[a] == gi);
    }
    kept.retain(|g| !g.avps.is_empty());
    kept
}

/// Full Merger step: consolidate and place onto `m` partitions.
pub fn merge_and_assign(locals: Vec<Vec<AssociationGroup>>, m: usize) -> PartitionTable {
    assign_groups(consolidate(locals), m)
}

fn is_subset(small: &[AvpId], big: &[AvpId]) -> bool {
    if small.len() > big.len() {
        return false;
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

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_json::FxHashSet;

    fn ag(avps: &[u32], load: usize) -> AssociationGroup {
        AssociationGroup {
            avps: avps.iter().map(|&a| AvpId(a)).collect(),
            load,
        }
    }

    #[test]
    fn subsets_are_absorbed() {
        let locals = vec![vec![ag(&[1, 2, 3], 5)], vec![ag(&[1, 2], 3)]];
        let out = consolidate(locals);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].avps, vec![AvpId(1), AvpId(2), AvpId(3)]);
        assert_eq!(out[0].load, 5);
    }

    #[test]
    fn duplicate_pair_removed_from_larger_group() {
        let locals = vec![vec![ag(&[1, 2, 3], 4)], vec![ag(&[3, 9], 2)]];
        let out = consolidate(locals);
        assert_eq!(out.len(), 2);
        let big = out.iter().find(|g| g.avps.contains(&AvpId(1))).unwrap();
        let small = out.iter().find(|g| g.avps.contains(&AvpId(9))).unwrap();
        assert!(!big.avps.contains(&AvpId(3)), "3 removed from larger group");
        assert!(small.avps.contains(&AvpId(3)));
    }

    #[test]
    fn result_groups_are_disjoint() {
        let locals = vec![
            vec![ag(&[1, 2], 2), ag(&[3, 4, 5], 3)],
            vec![ag(&[2, 3], 2), ag(&[5, 6], 1), ag(&[7], 1)],
        ];
        let out = consolidate(locals);
        let mut seen: FxHashSet<AvpId> = FxHashSet::default();
        for g in &out {
            for &avp in &g.avps {
                assert!(seen.insert(avp), "pair {avp} appears twice");
            }
        }
        // Every original pair survives somewhere.
        for p in 1..=7u32 {
            assert!(seen.contains(&AvpId(p)), "pair {p} lost");
        }
    }

    #[test]
    fn identical_groups_from_two_creators_merge() {
        let locals = vec![vec![ag(&[1, 2], 4)], vec![ag(&[1, 2], 6)]];
        let out = consolidate(locals);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].load, 6);
    }

    #[test]
    fn merge_and_assign_covers_all_pairs() {
        let locals = vec![
            vec![ag(&[1, 2], 5), ag(&[3], 1)],
            vec![ag(&[4, 5], 2), ag(&[2, 6], 3)],
        ];
        let table = merge_and_assign(locals, 2);
        for p in 1..=6u32 {
            assert!(
                !table.partitions_of(AvpId(p)).is_empty(),
                "pair {p} unrouted"
            );
        }
    }

    /// `consolidate` as it was before posting lists: every group scanned
    /// against every kept group, and each shared pair removed as it is
    /// met. The quadratic reference the fast version must equal.
    fn consolidate_by_scan(locals: Vec<Vec<AssociationGroup>>) -> Vec<AssociationGroup> {
        let mut groups: Vec<AssociationGroup> = locals.into_iter().flatten().collect();
        for g in &mut groups {
            g.avps.sort();
            g.avps.dedup();
        }
        groups.sort_by(|a, b| {
            b.avps
                .len()
                .cmp(&a.avps.len())
                .then_with(|| a.avps.cmp(&b.avps))
        });
        let mut kept: Vec<AssociationGroup> = Vec::new();
        'outer: for g in groups {
            for k in kept.iter_mut() {
                if is_subset(&g.avps, &k.avps) {
                    k.load = k.load.max(g.load);
                    continue 'outer;
                }
            }
            kept.push(g);
        }
        let mut owner: FxHashMap<AvpId, usize> = FxHashMap::default();
        let mut remove: Vec<Vec<AvpId>> = vec![Vec::new(); kept.len()];
        for (gi, g) in kept.iter().enumerate() {
            for &avp in &g.avps {
                match owner.get(&avp) {
                    None => {
                        owner.insert(avp, gi);
                    }
                    Some(&prev) => {
                        if kept[prev].avps.len() > g.avps.len() {
                            remove[prev].push(avp);
                            owner.insert(avp, gi);
                        } else {
                            remove[gi].push(avp);
                        }
                    }
                }
            }
        }
        for (g, rm) in kept.iter_mut().zip(remove) {
            if !rm.is_empty() {
                g.avps.retain(|a| !rm.contains(a));
            }
        }
        kept.retain(|g| !g.avps.is_empty());
        kept
    }

    proptest::proptest! {
        #[test]
        fn posting_lists_consolidate_like_the_scan(
            locals in proptest::collection::vec(
                proptest::collection::vec(
                    (proptest::collection::vec(0u32..24, 0..7), 0usize..9),
                    0..16,
                ),
                0..4,
            ),
        ) {
            let locals: Vec<Vec<AssociationGroup>> = locals
                .into_iter()
                .map(|gs| gs.into_iter().map(|(avps, load)| ag(&avps, load)).collect())
                .collect();
            proptest::prop_assert_eq!(consolidate(locals.clone()), consolidate_by_scan(locals));
        }
    }

    #[test]
    fn empty_input() {
        assert!(consolidate(vec![]).is_empty());
        assert!(consolidate(vec![vec![], vec![]]).is_empty());
    }
}
