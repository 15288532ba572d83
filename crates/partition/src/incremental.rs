//! Incremental association-group maintenance.
//!
//! The batch path of [`crate::groups`] recomputes everything from scratch:
//! every view is rescanned into per-pair docsets, every docset is re-hashed
//! into equivalence groups, and only then does Algorithm 1's implies-merge
//! run. A [`GroupIndex`] keeps the first two stages — the expensive,
//! population-proportional ones — *persistent*: it maintains per-pair
//! docsets and a fingerprint-keyed equivalence grouping across window
//! deltas (new and expired views), and on [`GroupIndex::association_groups`]
//! re-derives only the groups whose member docsets actually changed. The
//! implies-merge scan is shared verbatim with the batch path
//! ([`crate::groups::association_groups_from`]), so the derived association
//! groups — and
//! the [`assign_groups`] table built from them — are **identical** to a
//! from-scratch batch computation over the live views (the differential
//! proptests in `tests/incremental_groups.rs` hold it to that).
//!
//! Document ids are assigned monotonically at [`GroupIndex::push`] time.
//! They differ from the 0-based batch indices, but the relabeling is
//! order-preserving, and association groups / partition tables carry no
//! document ids — only equivalence groups do, and those are equal modulo
//! the relabeling.

use crate::fingerprint::{fingerprint_docs, Fp128};
use crate::groups::{merge_refs, AssociationGroup, EgRef, EquivalenceGroup};
use crate::partitions::{assign_groups, PartitionTable};
use ssj_json::{AvpId, FxHashMap, FxHashSet};

/// One pair's live docset plus its incrementally maintained fingerprint —
/// adjusted in O(1) per push/expire, never recomputed by rescanning.
#[derive(Debug, Clone, Default)]
struct DocSet {
    /// Sorted ids of the live documents containing the pair.
    docs: Vec<u32>,
    /// `fingerprint_docs(&docs)`, kept current by add/remove.
    fp: Fp128,
}

/// One cached equivalence group: the pairs currently sharing a docset.
#[derive(Debug, Clone)]
struct Slot {
    /// Fingerprint of the members' common docset at last derive.
    fp: Fp128,
    /// Member pairs, kept sorted.
    avps: Vec<AvpId>,
}

/// Counters describing how much work the index actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Views inserted over the index's lifetime.
    pub pushed: u64,
    /// Views expired over the index's lifetime.
    pub expired: u64,
    /// Derive calls.
    pub derives: u64,
    /// Pairs re-fingerprinted and re-grouped by the last derive.
    pub refreshed_avps: u64,
    /// Equivalence groups reused untouched by the last derive.
    pub reused_groups: u64,
}

/// A persistent docset-fingerprint index over a changing set of views.
///
/// ```
/// use ssj_partition::GroupIndex;
/// use ssj_json::AvpId;
///
/// let mut idx = GroupIndex::new();
/// let a = idx.push(&[AvpId(1), AvpId(2)]);
/// idx.push(&[AvpId(2), AvpId(3)]);
/// let before = idx.association_groups();
/// idx.expire(a);
/// let after = idx.association_groups();
/// assert_ne!(before, after);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GroupIndex {
    /// Next document id to hand out.
    next_doc: u32,
    /// Live documents: id → deduplicated view.
    live: FxHashMap<u32, Vec<AvpId>>,
    /// Pair → its live docset and fingerprint.
    docsets: FxHashMap<AvpId, DocSet>,
    /// Pairs whose docset changed since the last derive.
    dirty: FxHashSet<AvpId>,
    /// Fingerprint → slot indices (collisions resolved by docset equality).
    buckets: FxHashMap<Fp128, Vec<u32>>,
    /// Cached equivalence groups; `None` entries are free slots.
    slots: Vec<Option<Slot>>,
    /// Free slot indices, reused before growing `slots`.
    free: Vec<u32>,
    /// Pair → slot it currently belongs to.
    avp_slot: FxHashMap<AvpId, u32>,
    stats: IndexStats,
}

impl GroupIndex {
    /// An empty index.
    pub fn new() -> Self {
        GroupIndex::default()
    }

    /// Number of live views.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no view is live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Work counters (see [`IndexStats`]).
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Approximate heap footprint in bytes: live views, docsets, the
    /// fingerprint buckets, and the cached group slots (hash maps counted
    /// at entry size, ignoring table load factor).
    pub fn approx_bytes(&self) -> usize {
        let entry = |payload: usize| payload + std::mem::size_of::<u64>();
        let live: usize = self
            .live
            .values()
            .map(|v| {
                entry(v.len() * std::mem::size_of::<AvpId>() + std::mem::size_of::<Vec<AvpId>>())
            })
            .sum();
        let docsets: usize = self
            .docsets
            .values()
            .map(|d| entry(d.docs.len() * 4 + std::mem::size_of::<DocSet>()))
            .sum();
        let buckets: usize = self
            .buckets
            .values()
            .map(|v| entry(v.len() * 4 + std::mem::size_of::<Vec<u32>>()))
            .sum();
        let slots: usize = self
            .slots
            .iter()
            .map(|s| {
                std::mem::size_of::<Option<Slot>>()
                    + s.as_ref()
                        .map_or(0, |s| s.avps.len() * std::mem::size_of::<AvpId>())
            })
            .sum();
        let avp_slot = self.avp_slot.len() * entry(8);
        std::mem::size_of::<GroupIndex>()
            + live
            + docsets
            + buckets
            + slots
            + avp_slot
            + self.dirty.len() * entry(0)
            + self.free.len() * 4
    }

    /// Insert one view; returns the id to later [`expire`](Self::expire) it
    /// with. Duplicate pairs within the view count once (as in the batch
    /// path). Ids are handed out in ascending order.
    pub fn push(&mut self, view: &[AvpId]) -> u32 {
        if self.next_doc == u32::MAX {
            self.compact();
        }
        let id = self.next_doc;
        self.next_doc += 1;
        let mut deduped: Vec<AvpId> = Vec::with_capacity(view.len());
        for &avp in view {
            if deduped.contains(&avp) {
                continue;
            }
            deduped.push(avp);
            // Ids are monotone, so appending keeps the docset sorted.
            let ds = self.docsets.entry(avp).or_default();
            ds.docs.push(id);
            ds.fp.add_doc(id);
            self.dirty.insert(avp);
        }
        self.live.insert(id, deduped);
        self.stats.pushed += 1;
        id
    }

    /// Remove the view with `id`; returns `false` if it was not live.
    pub fn expire(&mut self, id: u32) -> bool {
        let Some(view) = self.live.remove(&id) else {
            return false;
        };
        for avp in view {
            if let Some(ds) = self.docsets.get_mut(&avp) {
                if let Ok(pos) = ds.docs.binary_search(&id) {
                    ds.docs.remove(pos);
                    ds.fp.remove_doc(id);
                }
                if ds.docs.is_empty() {
                    self.docsets.remove(&avp);
                }
            }
            self.dirty.insert(avp);
        }
        self.stats.expired += 1;
        true
    }

    /// Bring the cached equivalence grouping up to date with the deltas
    /// applied since the last derive. Only dirty pairs are re-fingerprinted
    /// and re-bucketed; groups with no dirty member are untouched.
    fn refresh(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        // Deterministic processing order (the output is sorted anyway, but
        // slot allocation order should not depend on hash iteration).
        let mut dirty: Vec<AvpId> = self.dirty.drain().collect();
        dirty.sort_unstable();
        self.stats.refreshed_avps = dirty.len() as u64;

        // Slots a dirty pair left or entered; everything else is reused.
        let mut touched: FxHashSet<u32> = FxHashSet::default();

        // Phase 1: detach every dirty pair from its slot, so that all pairs
        // still sitting in a slot have *unchanged* docsets and any slot
        // representative can stand in for the slot's docset.
        for &avp in &dirty {
            let Some(si) = self.avp_slot.remove(&avp) else {
                continue;
            };
            touched.insert(si);
            let slot = self.slots[si as usize]
                .as_mut()
                .expect("avp_slot points at a live slot");
            let pos = slot
                .avps
                .binary_search(&avp)
                .expect("pair listed in its slot");
            slot.avps.remove(pos);
            if slot.avps.is_empty() {
                let fp = slot.fp;
                self.slots[si as usize] = None;
                self.free.push(si);
                let bucket = self.buckets.get_mut(&fp).expect("slot's bucket exists");
                bucket.retain(|&x| x != si);
                if bucket.is_empty() {
                    self.buckets.remove(&fp);
                }
            }
        }

        // Phase 2: re-insert dirty pairs that still occur somewhere.
        for &avp in &dirty {
            let Some(ds) = self.docsets.get(&avp) else {
                continue; // fully expired
            };
            // The stored fingerprint is already current — the whole point
            // of maintaining it per delta.
            let fp = ds.fp;
            let bucket = self.buckets.entry(fp).or_default();
            // Equality fallback on fingerprint collision: compare against
            // each candidate slot's representative docset.
            let found = bucket.iter().copied().find(|&si| {
                let slot = self.slots[si as usize].as_ref().expect("bucket slot live");
                let rep = slot.avps[0];
                self.docsets.get(&rep).map(|r| r.docs.as_slice()) == Some(ds.docs.as_slice())
            });
            match found {
                Some(si) => {
                    let slot = self.slots[si as usize].as_mut().expect("bucket slot live");
                    let pos = slot.avps.binary_search(&avp).unwrap_err();
                    slot.avps.insert(pos, avp);
                    self.avp_slot.insert(avp, si);
                    touched.insert(si);
                }
                None => {
                    let slot = Slot {
                        fp,
                        avps: vec![avp],
                    };
                    let si = match self.free.pop() {
                        Some(si) => {
                            self.slots[si as usize] = Some(slot);
                            si
                        }
                        None => {
                            self.slots.push(Some(slot));
                            (self.slots.len() - 1) as u32
                        }
                    };
                    bucket.push(si);
                    self.avp_slot.insert(avp, si);
                    touched.insert(si);
                }
            }
        }
        // Reused = live slots no dirty pair left or entered — counted from
        // the touched set, O(dirty) instead of rescanning every member.
        let live_slots = (self.slots.len() - self.free.len()) as u64;
        let touched_live = touched
            .iter()
            .filter(|&&si| self.slots[si as usize].is_some())
            .count() as u64;
        self.stats.reused_groups = live_slots - touched_live;
    }

    /// The current equivalence groups, in the same deterministic order as
    /// the batch [`equivalence_groups`](crate::groups::equivalence_groups)
    /// (document ids are the index's own, see the module docs).
    pub fn equivalence_groups(&mut self) -> Vec<EquivalenceGroup> {
        self.refresh();
        let mut out: Vec<EquivalenceGroup> = self
            .slots
            .iter()
            .flatten()
            .map(|slot| EquivalenceGroup {
                avps: slot.avps.clone(),
                docs: self.docsets[&slot.avps[0]].docs.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.docs.cmp(&b.docs).then_with(|| a.avps.cmp(&b.avps)));
        out
    }

    /// Derive the association groups of the live views (Algorithm 1 over
    /// the incrementally maintained equivalence groups).
    pub fn association_groups(&mut self) -> Vec<AssociationGroup> {
        self.refresh();
        self.stats.derives += 1;
        // Borrow each slot's pairs and its representative's docset straight
        // out of the index — a derive clones nothing.
        let mut refs: Vec<EgRef> = self
            .slots
            .iter()
            .flatten()
            .map(|slot| EgRef {
                avps: &slot.avps,
                docs: &self.docsets[&slot.avps[0]].docs,
            })
            .collect();
        merge_refs(&mut refs)
    }

    /// Derive association groups and place them onto `m` partitions —
    /// identical to `assign_groups` of the live views' association groups.
    pub fn derive_table(&mut self, m: usize) -> PartitionTable {
        assign_groups(self.association_groups(), m)
    }

    /// Renumber live documents to 0..n when the id space is exhausted.
    /// Ordering is preserved, so group derivation is unaffected.
    fn compact(&mut self) {
        let mut ids: Vec<u32> = self.live.keys().copied().collect();
        ids.sort_unstable();
        let remap: FxHashMap<u32, u32> = ids
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new as u32))
            .collect();
        self.live = std::mem::take(&mut self.live)
            .into_iter()
            .map(|(old, view)| (remap[&old], view))
            .collect();
        for ds in self.docsets.values_mut() {
            for d in ds.docs.iter_mut() {
                *d = remap[d];
            }
            // Monotone remap keeps docsets sorted.
            ds.fp = fingerprint_docs(&ds.docs);
        }
        // Fingerprints are functions of the ids: every group changes.
        for (&avp, _) in self.docsets.iter() {
            self.dirty.insert(avp);
        }
        self.next_doc = ids.len() as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::{association_groups, View};
    use ssj_json::{Dictionary, Scalar};

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

    #[test]
    fn matches_batch_on_fig3() {
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
        let mut idx = GroupIndex::new();
        for v in &vs {
            idx.push(v);
        }
        assert_eq!(idx.association_groups(), association_groups(&vs));
    }

    #[test]
    fn expiry_matches_batch_over_remaining_views() {
        let dict = Dictionary::new();
        let vs = views(
            &dict,
            &[
                &[("a", 1), ("b", 1)],
                &[("b", 1), ("c", 1)],
                &[("c", 1), ("a", 1)],
                &[("d", 9)],
            ],
        );
        let mut idx = GroupIndex::new();
        let ids: Vec<u32> = vs.iter().map(|v| idx.push(v)).collect();
        idx.expire(ids[1]);
        let remaining: Vec<View> = vec![vs[0].clone(), vs[2].clone(), vs[3].clone()];
        assert_eq!(idx.association_groups(), association_groups(&remaining));
        assert!(!idx.expire(ids[1]), "double expiry reports false");
    }

    #[test]
    fn interleaved_deltas_and_derives() {
        let dict = Dictionary::new();
        let vs = views(
            &dict,
            &[
                &[("x", 1), ("y", 1), ("z", 1)],
                &[("x", 1), ("y", 1)],
                &[("x", 1)],
                &[("w", 2), ("x", 1)],
            ],
        );
        let mut idx = GroupIndex::new();
        let a = idx.push(&vs[0]);
        idx.push(&vs[1]);
        assert_eq!(idx.association_groups(), association_groups(&vs[0..2]));
        idx.push(&vs[2]);
        idx.expire(a);
        idx.push(&vs[3]);
        let live: Vec<View> = vec![vs[1].clone(), vs[2].clone(), vs[3].clone()];
        assert_eq!(idx.association_groups(), association_groups(&live));
        // Tables derived from identical groups are identical.
        assert_eq!(
            idx.derive_table(3),
            crate::assign_groups(association_groups(&live), 3)
        );
    }

    #[test]
    fn duplicate_pairs_in_view_count_once() {
        let mut idx = GroupIndex::new();
        let p = AvpId(5);
        idx.push(&[p, p, p]);
        let egs = idx.equivalence_groups();
        assert_eq!(egs.len(), 1);
        assert_eq!(egs[0].docs.len(), 1);
    }

    #[test]
    fn empty_index() {
        let mut idx = GroupIndex::new();
        assert!(idx.is_empty());
        assert!(idx.association_groups().is_empty());
        assert!(idx.equivalence_groups().is_empty());
    }

    #[test]
    fn stats_track_reuse() {
        let mut idx = GroupIndex::new();
        idx.push(&[AvpId(1), AvpId(2)]);
        idx.push(&[AvpId(3)]);
        idx.association_groups();
        // A delta touching only pair 4 leaves both existing groups intact.
        idx.push(&[AvpId(4)]);
        idx.association_groups();
        let s = idx.stats();
        assert_eq!(s.pushed, 3);
        assert_eq!(s.refreshed_avps, 1);
        assert_eq!(s.reused_groups, 2);
        assert_eq!(s.derives, 2);
    }
}
