//! Partitions and document routing (§III, §IV).
//!
//! A partition is a set of attribute-value pairs; a document *matches* a
//! partition when the two share at least one pair. [`PartitionTable`] owns
//! the `m` partitions and answers routing queries: the running system's
//! [`PartitionTable::route_mask`], which sends a pair the table does not
//! know to its hash home ([`home_bit`]), and the static
//! [`PartitionTable::route`] / [`PartitionTable::route_into`], which
//! broadcast a view that matches nothing (`ssj partition`'s evaluation and
//! the benchmark's replay read them);
//! [`assign_groups`]
//! implements the paper's greedy placement of association groups ("populate
//! with the first m groups by load, then always give the largest remaining
//! group to the least-loaded partition").

use crate::fingerprint::Fp128;
use crate::groups::{AssociationGroup, View};
use ssj_json::{AvpId, FxHashMap};

/// Where a document must be sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// The matching partitions (machine indices), deduplicated, sorted.
    To(Vec<u32>),
    /// No pair matched any partition: broadcast to every machine to
    /// guarantee a complete join result (§VI-A).
    Broadcast,
}

impl Route {
    /// Number of machines this route sends the document to.
    pub fn fanout(&self, m: usize) -> usize {
        match self {
            Route::To(t) => t.len(),
            Route::Broadcast => m,
        }
    }

    /// The concrete machine indices for a cluster of `m` machines.
    pub fn targets(&self, m: usize) -> Vec<u32> {
        match self {
            Route::To(t) => t.clone(),
            Route::Broadcast => (0..m as u32).collect(),
        }
    }

    /// True when the route is a broadcast.
    pub fn is_broadcast(&self) -> bool {
        matches!(self, Route::Broadcast)
    }
}

/// Outcome of the allocation-free [`PartitionTable::route_into`]: either the
/// targets were written into the scratch buffer, or the view matched no
/// partition and must be broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// `scratch.targets()` holds the sorted, deduplicated machine indices.
    Matched,
    /// No pair matched any partition (scratch targets left empty).
    Broadcast,
}

impl RouteOutcome {
    /// True when the route is a broadcast.
    pub fn is_broadcast(self) -> bool {
        self == RouteOutcome::Broadcast
    }
}

/// The partition a pair the deployed table does not know is routed to —
/// its *home* — as a one-bit mask: `content_hash` is the pair's
/// [`ssj_json::ContentHashes`] value, so every process homes a pair alike.
#[inline]
pub fn home_bit(content_hash: u32, m: usize) -> u64 {
    1u64 << (content_hash as usize % m)
}

/// The most partitions a table holds: a partition set is one `u64` mask
/// (bit `p` ⇔ partition `p`), which covers every deployment the paper
/// considers.
pub const MAX_PARTITIONS: usize = 64;

/// Number of slots in the direct-mapped route cache (power of two).
const ROUTE_CACHE_SLOTS: usize = 256;

/// Reusable routing state: a target buffer [`route_into`] writes into, a
/// small direct-mapped cache from view fingerprints to partition bitmasks
/// for repeated view shapes, and the deployed expansion's synthetic pairs
/// ([`Expansion::view_cached`]). Once warm, steady-state routing performs
/// **zero** heap allocations (audited by `bench_partition --audit`).
///
/// [`route_into`]: PartitionTable::route_into
/// [`Expansion::view_cached`]: crate::Expansion::view_cached
#[derive(Debug, Clone)]
pub struct RouteScratch {
    targets: Vec<u32>,
    /// Direct-mapped `fingerprint → (partition mask, homed)` cache,
    /// indexed by the low fingerprint bits. A `None` slot is empty.
    cache: Vec<Option<(Fp128, u64, bool)>>,
    /// The chained attributes' pairs of a document → the synthetic pair
    /// they form (§VI-B), so a view is formed without rendering values.
    pub(crate) synth: FxHashMap<Vec<AvpId>, AvpId>,
    /// Reused key buffer for `synth` lookups.
    pub(crate) chain_buf: Vec<AvpId>,
}

impl Default for RouteScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteScratch {
    /// A scratch with all buffers pre-sized (the only allocations it will
    /// ever make).
    pub fn new() -> Self {
        RouteScratch {
            targets: Vec::with_capacity(64),
            cache: vec![None; ROUTE_CACHE_SLOTS],
            synth: FxHashMap::default(),
            chain_buf: Vec::new(),
        }
    }

    /// The targets written by the last [`PartitionTable::route_into`].
    #[inline]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Decode a partition bitmask into the target buffer (ascending, so the
    /// result is sorted and deduplicated by construction).
    #[inline]
    pub fn set_targets_from_mask(&mut self, mut mask: u64) {
        self.targets.clear();
        while mask != 0 {
            self.targets.push(mask.trailing_zeros());
            mask &= mask - 1;
        }
    }

    /// Look up a view fingerprint's cached partition mask, and whether the
    /// view was homed ([`PartitionTable::route_mask`]).
    #[inline]
    pub fn cache_get(&self, fp: Fp128) -> Option<(u64, bool)> {
        match self.cache[fp.lo as usize & (ROUTE_CACHE_SLOTS - 1)] {
            Some((cached_fp, mask, homed)) if cached_fp == fp => Some((mask, homed)),
            _ => None,
        }
    }

    /// Remember a view fingerprint's partition mask and whether the view was
    /// homed (evicts whatever shared its slot). Callers must
    /// [`invalidate_cache`](Self::invalidate_cache) whenever the tables the
    /// mask was computed from change.
    #[inline]
    pub fn cache_put(&mut self, fp: Fp128, mask: u64, homed: bool) {
        self.cache[fp.lo as usize & (ROUTE_CACHE_SLOTS - 1)] = Some((fp, mask, homed));
    }

    /// Drop every cached route and synthetic pair (call on table
    /// deployment/update — its expansion may differ — and, for sliding
    /// windows, whenever a retained table expires from the pane lookback,
    /// since cached masks are unions over the retained set).
    pub fn invalidate_cache(&mut self) {
        self.cache.iter_mut().for_each(|slot| *slot = None);
        self.synth.clear();
    }

    /// Append extra route targets and restore the sorted/deduplicated
    /// invariant of the buffer (the benchmark's replay adds a retained
    /// sliding-window table's targets this way).
    pub fn merge_targets(&mut self, extra: impl IntoIterator<Item = u32>) {
        let before = self.targets.len();
        self.targets.extend(extra);
        if self.targets.len() > before {
            self.targets.sort_unstable();
            self.targets.dedup();
        }
    }
}

/// `PARTITION_IDS[p] == p`: what [`PartitionTable::partitions_of`] returns
/// for a pair on one partition is a slice of it.
static PARTITION_IDS: [u32; MAX_PARTITIONS] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
    26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49,
    50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63,
];

/// The deployed set of `m` partitions. Flat: no pair owns a heap block, so
/// a copy or a drop allocates or frees O(m) blocks whatever the pair count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartitionTable {
    m: usize,
    /// Declared load per partition (from group loads at creation time).
    loads: Vec<usize>,
    /// Pairs per partition (diagnostics, export and the wire).
    members: Vec<Vec<AvpId>>,
    /// Pair → bitmask of the partitions carrying it (bit `p` ⇔ partition
    /// `p`), the table's only pair → partition map. Routing reduces to
    /// OR-ing one `u64` per pair, and a zero mask doubles as the "pair
    /// unknown" test — one lookup answers both questions.
    masks: FxHashMap<AvpId, u64>,
    /// A pair on several partitions (SC) → where `order` lists them, in the
    /// order they were added.
    spans: FxHashMap<AvpId, u32>,
    order: Vec<u32>,
}

impl PartitionTable {
    /// An empty table of `m ≤` [`MAX_PARTITIONS`] partitions: it homes
    /// every pair ([`route_mask`](Self::route_mask)) and broadcasts every
    /// view ([`route`](Self::route)).
    pub fn empty(m: usize) -> Self {
        assert!(
            m <= MAX_PARTITIONS,
            "{m} partitions exceed {MAX_PARTITIONS}"
        );
        PartitionTable {
            m,
            loads: vec![0; m],
            members: vec![Vec::new(); m],
            ..PartitionTable::default()
        }
    }

    /// Number of partitions (= machines, = Joiner instances).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Add `avp` to partition `p` (declared loads are left alone).
    pub fn add_avp(&mut self, p: u32, avp: AvpId) {
        let mask = self.masks.entry(avp).or_insert(0);
        let had = std::mem::replace(mask, *mask | 1u64 << p);
        if had & 1u64 << p != 0 {
            return;
        }
        self.members[p as usize].push(avp);
        if had != 0 {
            // A further partition (SC): the pair's run moves to the end of
            // `order`, leaving the old run unused, and grows there.
            let k = had.count_ones() as usize;
            match self.spans.insert(avp, self.order.len() as u32) {
                Some(s) => self.order.extend_from_within(s as usize..s as usize + k),
                None => self.order.push(had.trailing_zeros()),
            }
            self.order.push(p);
        }
    }

    /// Bitmask of the partitions carrying `avp` (0 ⇔ the pair is unknown).
    #[inline]
    pub fn avp_mask(&self, avp: AvpId) -> u64 {
        self.masks.get(&avp).copied().unwrap_or(0)
    }

    /// Bitmask of all partitions matching the view (OR over its pairs).
    #[inline]
    pub fn view_mask(&self, view: &[AvpId]) -> u64 {
        view.iter().fold(0u64, |m, &a| m | self.avp_mask(a))
    }

    /// Where a document with this view goes (§VI-A with hash homes): the
    /// OR over its pairs of each pair's partitions, or, for a pair the
    /// table does not know, its home (`home`, asked for those pairs only);
    /// and whether some pair was homed. Two documents join only if they
    /// share a pair, so they meet at that pair's partitions or its home.
    #[inline]
    pub fn route_mask(&self, view: &[AvpId], mut home: impl FnMut(AvpId) -> u64) -> (u64, bool) {
        let (mut mask, mut homed) = (0u64, false);
        for &avp in view {
            let known = self.avp_mask(avp);
            if known == 0 {
                homed = true;
                mask |= home(avp);
            } else {
                mask |= known;
            }
        }
        (mask, homed)
    }

    /// The partitions that carry `avp`, in the order they were added.
    pub fn partitions_of(&self, avp: AvpId) -> &[u32] {
        let mask = self.avp_mask(avp);
        let p = mask.trailing_zeros() as usize;
        match mask.count_ones() as usize {
            0 => &[],
            1 => &PARTITION_IDS[p..=p],
            k => &self.order[self.spans[&avp] as usize..][..k],
        }
    }

    /// Pairs assigned to partition `p`.
    pub fn members(&self, p: u32) -> &[AvpId] {
        &self.members[p as usize]
    }

    /// Declared load of partition `p`.
    pub fn declared_load(&self, p: u32) -> usize {
        self.loads[p as usize]
    }

    /// The partition with the smallest declared load (the first on ties).
    fn least_loaded(&self) -> u32 {
        (0..self.m as u32)
            .min_by_key(|&p| self.loads[p as usize])
            .expect("m > 0")
    }

    /// Increase the declared load of `p`.
    pub fn bump_load(&mut self, p: u32, by: usize) {
        self.loads[p as usize] += by;
    }

    /// Number of distinct pairs across all partitions.
    pub fn pair_count(&self) -> usize {
        self.masks.len()
    }

    /// True when no pair is assigned anywhere.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Route one document view: all partitions sharing at least one pair,
    /// or [`Route::Broadcast`] when nothing matches. An allocating
    /// reference: tests hold [`route_into`](Self::route_into), the path
    /// routing takes, equal to it; nothing else calls it.
    pub fn route(&self, view: &[AvpId]) -> Route {
        let mut targets: Vec<u32> = Vec::new();
        for &avp in view {
            targets.extend_from_slice(self.partitions_of(avp));
        }
        if targets.is_empty() {
            return Route::Broadcast;
        }
        targets.sort_unstable();
        targets.dedup();
        Route::To(targets)
    }

    /// Allocation-free [`route`](Self::route): the match set is accumulated
    /// as a single `u64` bitmask (one hash lookup per pair, no sort) and
    /// decoded into `scratch`'s sorted, deduplicated targets — exactly the
    /// targets [`route`](Self::route) would return.
    pub fn route_into(&self, view: &[AvpId], scratch: &mut RouteScratch) -> RouteOutcome {
        let mask = self.view_mask(view);
        if mask == 0 {
            scratch.targets.clear();
            return RouteOutcome::Broadcast;
        }
        scratch.set_targets_from_mask(mask);
        RouteOutcome::Matched
    }

    /// Human-readable dump of the table: one line per partition with its
    /// declared load and members rendered through the dictionary (members
    /// are truncated to `max_members` per partition; 0 = unlimited).
    pub fn describe(&self, dict: &ssj_json::Dictionary, max_members: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for p in 0..self.m as u32 {
            let members = self.members(p);
            let shown = if max_members == 0 {
                members.len()
            } else {
                members.len().min(max_members)
            };
            let rendered: Vec<String> = members[..shown]
                .iter()
                .map(|&avp| dict.render_avp(avp))
                .collect();
            let ellipsis = if members.len() > shown {
                format!(", … {} more", members.len() - shown)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "partition {p}: load {} | {} pairs | {{{}{}}}",
                self.loads[p as usize],
                members.len(),
                rendered.join(", "),
                ellipsis
            );
        }
        out
    }

    /// Export the table as a JSON value, suitable for snapshotting next to
    /// a [`ssj_json::Dictionary::export`] (pair ids reference it):
    /// `{"m": m, "partitions": [{"load": l, "avps": [ids…]}, …]}`.
    pub fn export(&self) -> ssj_json::Value {
        use ssj_json::Value;
        let partitions = Value::Array(
            (0..self.m as u32)
                .map(|p| {
                    let mut obj = Value::object();
                    obj.insert("load", Value::Int(self.loads[p as usize] as i64));
                    obj.insert(
                        "avps",
                        Value::Array(
                            self.members(p)
                                .iter()
                                .map(|a| Value::Int(a.0 as i64))
                                .collect(),
                        ),
                    );
                    obj
                })
                .collect(),
        );
        let mut out = Value::object();
        out.insert("m", Value::Int(self.m as i64));
        out.insert("partitions", partitions);
        out
    }

    /// Rebuild a table from an [`export`](Self::export)ed value. Its `m` is
    /// checked against [`MAX_PARTITIONS`] before anything is allocated.
    pub fn import(value: &ssj_json::Value) -> Result<PartitionTable, String> {
        use ssj_json::Value;
        let m = value
            .get("m")
            .and_then(Value::as_int)
            .ok_or("missing or invalid 'm'")?;
        if !(1..=MAX_PARTITIONS as i64).contains(&m) {
            return Err(format!(
                "'m' {m} out of range (expected 1..={MAX_PARTITIONS})"
            ));
        }
        let m = m as usize;
        let mut table = PartitionTable::empty(m);
        let partitions = match value.get("partitions") {
            Some(Value::Array(items)) if items.len() == m => items,
            _ => return Err("'partitions' must be an array of length m".into()),
        };
        for (p, part) in partitions.iter().enumerate() {
            let load = part
                .get("load")
                .and_then(Value::as_int)
                .filter(|&l| l >= 0)
                .ok_or(format!("partition {p}: missing 'load'"))?;
            table.loads[p] = load as usize;
            let avps = match part.get("avps") {
                Some(Value::Array(items)) => items,
                _ => return Err(format!("partition {p}: missing 'avps'")),
            };
            for a in avps {
                let id = a
                    .as_int()
                    .filter(|&v| v >= 0 && v <= u32::MAX as i64)
                    .ok_or(format!("partition {p}: invalid pair id"))?;
                table.add_avp(p as u32, AvpId(id as u32));
            }
        }
        Ok(table)
    }
}

/// Greedy load-balanced placement of association groups onto `m` partitions
/// (§IV-A, following the disjoint-sets placement of Alvanaki & Michel).
pub fn assign_groups(mut groups: Vec<AssociationGroup>, m: usize) -> PartitionTable {
    assert!(m > 0, "need at least one partition");
    // Largest load first (determinism: then by contents).
    groups.sort_by(|a, b| b.load.cmp(&a.load).then_with(|| a.avps.cmp(&b.avps)));
    let mut table = PartitionTable::empty(m);
    for group in groups {
        // The least-loaded partition; the first m groups therefore land on
        // the m initially-empty partitions exactly as the paper describes.
        let p = table.least_loaded();
        for avp in group.avps {
            table.add_avp(p, avp);
        }
        table.loads[p as usize] += group.load;
    }
    table
}

/// Count how many machines each view is sent to under `table`, returning
/// `(assignments per machine, total sends, broadcasts)` — the raw numbers
/// behind the replication / load-balance / max-load metrics of §VII-C.
pub fn route_batch(table: &PartitionTable, views: &[View]) -> RoutingStats {
    let m = table.m();
    let mut per_machine = vec![0usize; m];
    let mut total_sends = 0usize;
    let mut homed = 0usize;
    let mut scratch = RouteScratch::new();
    for view in views {
        match table.route_into(view, &mut scratch) {
            RouteOutcome::Broadcast => {
                homed += 1;
                for slot in per_machine.iter_mut() {
                    *slot += 1;
                }
                total_sends += m;
            }
            RouteOutcome::Matched => {
                for &t in scratch.targets() {
                    per_machine[t as usize] += 1;
                    total_sends += 1;
                }
            }
        }
    }
    RoutingStats {
        per_machine,
        total_sends,
        homed,
        docs: views.len(),
    }
}

/// Raw routing counts for one batch of views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingStats {
    /// Documents received per machine.
    pub per_machine: Vec<usize>,
    /// Total document transmissions (sum over machines).
    pub total_sends: usize,
    /// Documents with a pair the table does not know: the Assigner homes
    /// them ([`PartitionTable::route_mask`]); [`route_batch`], a static
    /// evaluation with no dictionary, broadcasts those that match nothing.
    pub homed: usize,
    /// Number of documents routed.
    pub docs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ag(avps: &[u32], load: usize) -> AssociationGroup {
        AssociationGroup {
            avps: avps.iter().map(|&a| AvpId(a)).collect(),
            load,
        }
    }

    #[test]
    fn seeds_take_largest_groups() {
        let groups = vec![ag(&[1], 10), ag(&[2], 20), ag(&[3], 5), ag(&[4], 8)];
        let table = assign_groups(groups, 2);
        // Largest (20) and second (10) seed the two partitions; 8 joins the
        // 10-partition (load 18), 5 joins the 20-partition (load 25)?
        // Greedy: after seeds loads are [20,10]; 8 → partition with 10 →
        // [20,18]; 5 → partition with 18? No: min is 18 vs 20 → 18 → 23.
        let loads = [table.declared_load(0), table.declared_load(1)];
        let mut sorted = loads;
        sorted.sort();
        assert_eq!(sorted, [20, 23]);
    }

    #[test]
    fn route_matches_any_shared_pair() {
        let table = assign_groups(vec![ag(&[1, 2], 4), ag(&[3], 2)], 2);
        let p12 = table.partitions_of(AvpId(1))[0];
        let p3 = table.partitions_of(AvpId(3))[0];
        assert_ne!(p12, p3);
        assert_eq!(table.route(&[AvpId(1)]), Route::To(vec![p12]));
        assert_eq!(table.route(&[AvpId(2), AvpId(3)]), {
            let mut t = vec![p12, p3];
            t.sort();
            Route::To(t)
        });
    }

    #[test]
    fn unmatched_view_broadcasts() {
        let table = assign_groups(vec![ag(&[1], 1)], 3);
        assert_eq!(table.route(&[AvpId(99)]), Route::Broadcast);
        assert_eq!(table.route(&[AvpId(99)]).fanout(3), 3);
        assert_eq!(table.route(&[]), Route::Broadcast);
    }

    #[test]
    fn empty_table_broadcasts_everything() {
        let table = PartitionTable::empty(4);
        assert!(table.is_empty());
        assert_eq!(table.route(&[AvpId(0)]), Route::Broadcast);
    }

    #[test]
    fn add_avp_is_idempotent() {
        let mut table = PartitionTable::empty(2);
        table.add_avp(1, AvpId(7));
        table.add_avp(1, AvpId(7));
        assert_eq!(table.partitions_of(AvpId(7)), &[1]);
        assert_eq!(table.members(1), &[AvpId(7)]);
        assert_eq!(table.pair_count(), 1);
    }

    /// A pair's home is a function of its attribute name and scalar: two
    /// dictionaries that interned the same pairs in opposite orders — so
    /// that no pair has the same id in both — home every pair alike, and
    /// the homes spread over the partitions.
    #[test]
    fn homes_are_content_stable() {
        use ssj_json::{Dictionary, Scalar};
        let pairs: Vec<(String, Scalar)> = (0..200i64)
            .map(|i| match i % 3 {
                0 => (format!("a{}", i % 7), Scalar::Int(i)),
                1 => (format!("b{}", i % 5), Scalar::Str(format!("v{i}"))),
                _ => ("c".to_owned(), Scalar::Float(i as f64 / 4.0)),
            })
            .collect();
        let (one, two) = (Dictionary::new(), Dictionary::new());
        let ids_one: Vec<AvpId> = pairs
            .iter()
            .map(|(a, v)| one.intern(a, v.clone()).avp)
            .collect();
        let mut ids_two: Vec<AvpId> = pairs
            .iter()
            .rev()
            .map(|(a, v)| two.intern(a, v.clone()).avp)
            .collect();
        ids_two.reverse();
        assert!(ids_one.iter().zip(&ids_two).all(|(a, b)| a != b));
        let (h1, h2) = (one.content_hashes(), two.content_hashes());
        for m in [4, 8, 64] {
            let mut used = 0u64;
            for (&a, &b) in ids_one.iter().zip(&ids_two) {
                let home = home_bit(h1.of(a), m);
                assert_eq!(home, home_bit(h2.of(b), m), "m {m}");
                used |= home;
            }
            // 200 pairs leave ~3 of 64 partitions empty by chance.
            assert!(used.count_ones() as usize >= m * 7 / 8, "m {m}: {used:#x}");
        }
    }

    #[test]
    fn route_mask_takes_partitions_or_homes() {
        let table = assign_groups(vec![ag(&[1, 2], 4), ag(&[3], 2)], 2);
        let p12 = table.avp_mask(AvpId(1));
        let home = |avp: AvpId| 1u64 << (avp.0 % 2);
        assert_eq!(table.route_mask(&[AvpId(1), AvpId(2)], home), (p12, false));
        assert_eq!(
            table.route_mask(&[AvpId(1), AvpId(8)], home),
            (p12 | 1, true)
        );
        assert_eq!(table.route_mask(&[AvpId(9)], home), (2, true));
        assert_eq!(table.route_mask(&[], home), (0, false));
        let empty = PartitionTable::empty(2);
        assert_eq!(empty.route_mask(&[AvpId(1), AvpId(2)], home), (3, true));
    }

    #[test]
    fn route_batch_counts() {
        let table = assign_groups(vec![ag(&[1], 1), ag(&[2], 1)], 2);
        let views = vec![
            vec![AvpId(1)],
            vec![AvpId(2)],
            vec![AvpId(1), AvpId(2)],
            vec![AvpId(42)], // broadcast
        ];
        let stats = route_batch(&table, &views);
        assert_eq!(stats.docs, 4);
        assert_eq!(stats.homed, 1);
        // sends: 1 + 1 + 2 + 2 = 6
        assert_eq!(stats.total_sends, 6);
        assert_eq!(stats.per_machine.iter().sum::<usize>(), 6);
    }

    #[test]
    fn route_into_matches_route_on_mask_path() {
        let mut table = assign_groups(vec![ag(&[1, 2], 4), ag(&[3], 2), ag(&[4, 5], 1)], 3);
        // SC-style pairs on several partitions.
        table.add_avp(2, AvpId(1));
        table.add_avp(0, AvpId(1));
        table.add_avp(1, AvpId(5));
        let mut scratch = RouteScratch::new();
        for view in [
            vec![AvpId(1)],
            vec![AvpId(2), AvpId(3)],
            vec![AvpId(5), AvpId(1), AvpId(3)],
            vec![AvpId(99)],
            vec![],
        ] {
            let legacy = table.route(&view);
            match table.route_into(&view, &mut scratch) {
                RouteOutcome::Broadcast => assert!(legacy.is_broadcast(), "{view:?}"),
                RouteOutcome::Matched => {
                    assert_eq!(legacy, Route::To(scratch.targets().to_vec()), "{view:?}")
                }
            }
        }
    }

    #[test]
    fn partitions_of_derives_from_the_mask() {
        // AG and DS place a pair once: one partition, the mask's bit.
        use crate::Partitioner;
        let table = assign_groups(vec![ag(&[1, 2], 4), ag(&[3], 2)], 2);
        let views: Vec<View> = [[1, 2], [2, 3], [4, 5], [6, 4]]
            .iter()
            .map(|v| v.iter().map(|&a| AvpId(a)).collect())
            .collect();
        let ds = crate::DsPartitioner.create(&views, 3);
        for (t, top) in [(&table, 5u32), (&ds, 7)] {
            for id in 0..top {
                let avp = AvpId(id);
                let ps = t.partitions_of(avp);
                assert_eq!(ps.len(), (t.avp_mask(avp) != 0) as usize, "pair {id}");
                let from_list: u64 = ps.iter().fold(0, |m, &p| m | 1u64 << p);
                assert_eq!(t.avp_mask(avp), from_list, "pair {id}");
            }
        }
        assert_eq!(ds.pair_count(), 6);
        assert_eq!(
            table.view_mask(&[AvpId(1), AvpId(3)]),
            table.avp_mask(AvpId(1)) | table.avp_mask(AvpId(3))
        );
        // SC places a pair on several partitions, in any order: it keeps
        // that order, also when other pairs grew in between.
        let mut sc = PartitionTable::empty(64);
        sc.add_avp(5, AvpId(1));
        sc.add_avp(2, AvpId(1));
        sc.add_avp(63, AvpId(2));
        sc.add_avp(0, AvpId(2));
        sc.add_avp(9, AvpId(1));
        sc.add_avp(2, AvpId(1));
        sc.add_avp(7, AvpId(2));
        sc.add_avp(3, AvpId(3));
        assert_eq!(sc.partitions_of(AvpId(1)), &[5, 2, 9]);
        assert_eq!(sc.partitions_of(AvpId(2)), &[63, 0, 7]);
        assert_eq!(sc.partitions_of(AvpId(3)), &[3]);
        assert_eq!(sc.avp_mask(AvpId(1)), 1 << 5 | 1 << 2 | 1 << 9);
        assert_eq!(sc.members(2), &[AvpId(1)]);
        assert_eq!(sc.pair_count(), 3);
        assert_eq!(sc.clone(), sc);
    }

    #[test]
    fn scratch_cache_roundtrip_and_invalidation() {
        let mut scratch = RouteScratch::new();
        let fp = crate::fingerprint::fingerprint_view([AvpId(1), AvpId(2)].into_iter());
        assert_eq!(scratch.cache_get(fp), None);
        scratch.cache_put(fp, 0b101, true);
        assert_eq!(scratch.cache_get(fp), Some((0b101, true)));
        scratch.invalidate_cache();
        assert_eq!(scratch.cache_get(fp), None);
    }

    #[test]
    fn set_targets_from_mask_is_sorted_dedup() {
        let mut scratch = RouteScratch::new();
        scratch.set_targets_from_mask(0b1010_0001);
        assert_eq!(scratch.targets(), &[0, 5, 7]);
        scratch.set_targets_from_mask(0);
        assert!(scratch.targets().is_empty());
    }

    #[test]
    fn more_partitions_than_groups_leaves_spares_empty() {
        let table = assign_groups(vec![ag(&[1], 3)], 4);
        let loaded = (0..4).filter(|&p| table.declared_load(p) > 0).count();
        assert_eq!(loaded, 1);
        // Routing still works and unmatched docs broadcast to all 4.
        assert_eq!(table.route(&[AvpId(5)]).fanout(4), 4);
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;
    use crate::groups::AssociationGroup;

    fn ag(avps: &[u32], load: usize) -> AssociationGroup {
        AssociationGroup {
            avps: avps.iter().map(|&a| AvpId(a)).collect(),
            load,
        }
    }

    #[test]
    fn export_import_preserves_routing() {
        let mut table = assign_groups(vec![ag(&[1, 2], 10), ag(&[3], 5), ag(&[4, 5, 6], 8)], 3);
        // An SC-style pair on two partitions, added in ascending order (an
        // export lists partitions in order, so an import adds them so).
        table.add_avp(0, AvpId(7));
        table.add_avp(2, AvpId(7));
        let text = table.export().to_json();
        let reread = ssj_json::parse(&text).unwrap();
        let table2 = PartitionTable::import(&reread).unwrap();
        assert_eq!(table2.m(), table.m());
        for id in 0..8u32 {
            assert_eq!(
                table2.partitions_of(AvpId(id)),
                table.partitions_of(AvpId(id)),
                "pair {id}"
            );
        }
        for p in 0..3 {
            assert_eq!(table2.declared_load(p), table.declared_load(p));
        }
        // Routing behaves identically, including broadcasts.
        assert_eq!(
            table2.route(&[AvpId(1), AvpId(4)]),
            table.route(&[AvpId(1), AvpId(4)])
        );
        assert_eq!(table2.route(&[AvpId(99)]), Route::Broadcast);
    }

    #[test]
    fn import_rejects_malformed_tables() {
        for bad in [
            "{}",
            r#"{"m":0,"partitions":[]}"#,
            // Checked before the table is allocated: no 8 TiB vector.
            r#"{"m":1099511627776,"partitions":[]}"#,
            r#"{"m":65,"partitions":[]}"#,
            r#"{"m":2,"partitions":[]}"#,
            r#"{"m":1,"partitions":[{"avps":[1]}]}"#,
            r#"{"m":1,"partitions":[{"load":1,"avps":[-3]}]}"#,
        ] {
            let v = ssj_json::parse(bad).unwrap();
            assert!(PartitionTable::import(&v).is_err(), "{bad}");
        }
    }
}
