//! Assignment (§III-A component 3, §VI-A) — routing and adaptation, once.
//!
//! A [`Router`] holds what an Assigner decides with: the deployed table
//! (plus, under sliding windows, the superseded tables whose panes are
//! still in the lookback) and the pane's routing counts.
//! The [`Assigner`] bolt of the Fig. 2 topology runs it; the figures and
//! `ssj pipeline` run that topology in lock-step
//! ([`crate::Reader::Lockstep`]) with one Assigner, which is one `Router`.
//!
//! Routing has one outcome, a mask of joiners: each pair of a document's
//! view contributes its partitions in the table or, if the table does not
//! know it, its hash *home* ([`PartitionTable::route_mask`]). Before the
//! first deploy the table is empty, so pane 0 is homed.
//!
//! An Assigner only routes. As it closes a pane it sends the Reporter its
//! share of the pane's counts; the Reporter sums every Assigner's and
//! judges θ once over the whole pane (DESIGN.md §4 "Control plane"), so
//! the number of Assigners does not change what is rebuilt, or when.
//!
//! Every deploy is a rebuild: it drops the route cache; under sliding
//! windows the superseded table is retained while panes it routed are in
//! the lookback. The table built at boundary `k` reaches an Assigner after
//! its whole share of pane `k` (each task has one FIFO input), so it
//! routes from pane `k + 1` on and no pane mixes two routings.

use crate::config::StreamJoinConfig;
use crate::msg::{Msg, PaneRouting, TableMsg};
use ssj_json::{AvpId, Dictionary, Document};
use ssj_partition::{fingerprint_view, home_bit, PartitionTable, RouteScratch};
use ssj_runtime::{Bolt, Outbox, TaskInstruments};
use std::collections::VecDeque;
use std::sync::Arc;

/// One pane's routing counts.
#[derive(Debug, Clone, Default)]
pub struct PaneCounts {
    /// Documents routed, copies sent, homed documents.
    pub routing: PaneRouting,
    /// Routes answered by the fingerprint cache.
    pub routes_cached: usize,
    /// Views routed against the tables that missed the cache.
    pub cache_misses: usize,
}

/// The Assigner's routing state.
pub struct Router {
    m: usize,
    /// Every joiner's bit.
    all: u64,
    /// `panes_per_window`: how long a superseded table keeps routing.
    lookback: u64,
    /// The deployed table; an empty one, which homes every pair, before the
    /// first deploy.
    current: Arc<TableMsg>,
    /// Sliding windows only: tables superseded by a rebuild while some pane
    /// they routed is still inside the lookback, tagged with the last pane
    /// they were current in. The current table alone decides whether a
    /// document was homed; a retained table adds its masks or homes, which
    /// is what makes pane-spanning pairs exact (DESIGN.md §4g). Empty for
    /// tumbling windows.
    retired: VecDeque<(Arc<TableMsg>, u64)>,
    /// The pane being routed (= panes closed so far).
    pane: u64,
    /// Reusable routing buffers + view-fingerprint route cache: the steady
    /// state document path performs zero heap allocations (audited by
    /// `bench_partition --audit`).
    scratch: RouteScratch,
    /// Reusable view buffer (the pairs of the document being routed).
    view_buf: Vec<AvpId>,
    counts: PaneCounts,
}

impl Router {
    /// A router with an empty table: it homes every pair until the first
    /// deploy.
    pub fn new(config: &StreamJoinConfig) -> Router {
        Router {
            m: config.m,
            all: u64::MAX >> (64 - config.m),
            lookback: config.panes_per_window() as u64,
            current: Arc::new(TableMsg {
                window: 0,
                table: PartitionTable::empty(config.m),
                expansion: None,
            }),
            retired: VecDeque::new(),
            pane: 0,
            scratch: RouteScratch::new(),
            view_buf: Vec::new(),
            counts: PaneCounts::default(),
        }
    }

    /// Deploy a table the Merger rebuilt (module docs).
    pub fn deploy(&mut self, table: Arc<TableMsg>) {
        let old = std::mem::replace(&mut self.current, table);
        if self.lookback > 1 {
            self.retired.push_back((old, self.pane));
        }
        // Cached routes reference the old table.
        self.scratch.invalidate_cache();
    }

    /// Route one document: the mask of the joiners it goes to — each view
    /// pair's partitions or home under the current table and every
    /// retained one ([`PartitionTable::route_mask`]). Zero only for a
    /// document without pairs, which joins nothing.
    pub fn route(&mut self, doc: &Document, dict: &Dictionary) -> u64 {
        let c = &mut self.counts;
        c.routing.docs += 1;
        // Build the routing view into the reusable buffer (no allocation
        // once the buffer has warmed up).
        let have_view = match &self.current.expansion {
            Some(e) => e.view_cached(doc, dict, &mut self.view_buf, &mut self.scratch),
            None => {
                self.view_buf.clear();
                self.view_buf.extend(doc.avps());
                true
            }
        };
        let (mask, homed) = if !have_view {
            // A chained attribute is missing, so there is no §VI-B view. The
            // document can still join an expanded one through any synthetic
            // pair that carries its value, so no single home covers it: it
            // goes to every joiner.
            (self.all, true)
        } else {
            let fp = fingerprint_view(self.view_buf.iter().copied());
            if let Some(hit) = self.scratch.cache_get(fp) {
                c.routes_cached += 1;
                hit
            } else {
                c.cache_misses += 1;
                let m = self.m;
                // One shared acquisition of the dictionary, at the first
                // pair some table does not know.
                let mut hashes = None;
                let mut home = |avp| {
                    let hashes = hashes.get_or_insert_with(|| dict.content_hashes());
                    home_bit(hashes.of(avp), m)
                };
                let (mut mask, homed) = self.current.table.route_mask(&self.view_buf, &mut home);
                for (rt, _) in &self.retired {
                    mask |= rt.table.route_mask(&self.view_buf, &mut home).0;
                }
                self.scratch.cache_put(fp, mask, homed);
                (mask, homed)
            }
        };
        c.routing.homed += homed as usize;
        c.routing.copies += mask.count_ones() as usize;
        mask
    }

    /// Close pane `pane`: take its counts, and retire the tables whose
    /// last routed pane has left the lookback.
    pub fn close_pane(&mut self, pane: u64) -> PaneCounts {
        let counts = std::mem::take(&mut self.counts);
        // Cached route masks are unions over the retained set, so any expiry
        // must also drop the cache — a stale union mask must never route to
        // a partition only an evicted pane's table justified.
        self.pane = pane + 1;
        let before = self.retired.len();
        while self
            .retired
            .front()
            .is_some_and(|(_, last)| last + self.lookback <= self.pane)
        {
            self.retired.pop_front();
        }
        if self.retired.len() < before {
            self.scratch.invalidate_cache();
        }
        counts
    }
}

/// Assigner bolt (§III-A component 3): routes each document to the Joiners
/// its [`Router`] names, as a [`Msg::Copy`] that carries that target set,
/// and, as it closes a pane, sends the Reporter its share of the pane's
/// counts. It ignores the reader's broadcasts.
pub struct Assigner {
    dict: Dictionary,
    router: Router,
    inst: Option<Arc<TaskInstruments>>,
}

impl Assigner {
    /// One assigner task.
    pub fn new(config: StreamJoinConfig, dict: Dictionary) -> Self {
        Assigner {
            router: Router::new(&config),
            dict,
            inst: None,
        }
    }
}

impl Bolt<Msg> for Assigner {
    fn attach_instruments(&mut self, inst: &Arc<TaskInstruments>) {
        self.inst = Some(Arc::clone(inst));
    }

    fn execute(&mut self, msg: Msg, out: &mut Outbox<Msg>) {
        match msg {
            Msg::Doc(doc) => {
                // Every copy carries the whole target set: the joiners find
                // each pair once by it (the owner rule, `crate::joiner`).
                let targets = self.router.route(&doc, &self.dict);
                let mut rest = targets;
                while rest != 0 {
                    let p = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let doc = Arc::clone(&doc);
                    out.emit_direct(p, Msg::Copy { doc, targets });
                }
            }
            Msg::Table(t) => self.router.deploy(t),
            _ => {}
        }
    }

    fn on_punct(&mut self, window: u64, out: &mut Outbox<Msg>) {
        let c = self.router.close_pane(window);
        out.emit(Msg::Routing {
            window,
            routing: c.routing,
        });
        if let Some(inst) = &self.inst {
            inst.counter("routed_sends").add(c.routing.copies as u64);
            inst.counter("homed_docs").add(c.routing.homed as u64);
            inst.counter("routes_cached").add(c.routes_cached as u64);
            inst.counter("route_cache_misses")
                .add(c.cache_misses as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_json::DocId;
    use ssj_partition::PartitionTable;

    const M: usize = 4;

    fn config() -> StreamJoinConfig {
        StreamJoinConfig::default()
            .with_m(M)
            .with_window_spec(crate::WindowSpec::tumbling(8))
            .with_expansion(false)
            .build()
            .unwrap()
    }

    /// A document of the single pair `k = v`.
    fn doc(dict: &Dictionary, v: u64) -> Document {
        Document::from_json(DocId(v), &format!(r#"{{"k":"v{v}"}}"#), dict).unwrap()
    }

    fn avp(dict: &Dictionary, v: u64) -> AvpId {
        doc(dict, v).avps().next().unwrap()
    }

    /// A table built at `window` that puts `v0..vn` on partition 0.
    fn table(dict: &Dictionary, window: u64, n: u64) -> Arc<TableMsg> {
        let mut table = PartitionTable::empty(M);
        for v in 0..n {
            table.add_avp(0, avp(dict, v));
        }
        Arc::new(TableMsg {
            window,
            table,
            expansion: None,
        })
    }

    /// The home of pair `v`.
    fn home(dict: &Dictionary, v: u64) -> u64 {
        home_bit(dict.content_hashes().of(avp(dict, v)), M)
    }

    #[test]
    fn a_pair_the_table_does_not_know_goes_to_its_home() {
        let dict = Dictionary::new();
        let mut r = Router::new(&config());
        // Before the first deploy the table is empty: everything is homed.
        assert_eq!(r.route(&doc(&dict, 1), &dict), home(&dict, 1));
        r.deploy(table(&dict, 0, 2));
        assert_eq!(r.route(&doc(&dict, 1), &dict), 1);
        // A known pair and an unknown one: the partition and the home; the
        // repeat is the route cache's, and it is still counted as homed.
        let two = Document::from_json(DocId(9), r#"{"k":"v1","j":"v7"}"#, &dict).unwrap();
        let seven = home_bit(dict.content_hashes().of(two.avps().nth(1).unwrap()), M);
        assert_eq!(r.route(&two, &dict), 1 | seven);
        assert_eq!(r.route(&two, &dict), 1 | seven);
        let c = r.close_pane(0);
        assert_eq!(
            (c.routing.docs, c.routing.homed, c.routes_cached),
            (4, 3, 1)
        );
        assert_eq!(c.routing.copies, 2 + 2 * (1 | seven).count_ones() as usize);
    }

    #[test]
    fn a_retained_table_adds_its_masks_or_homes() {
        let dict = Dictionary::new();
        let sliding = StreamJoinConfig::default()
            .with_m(M)
            .with_window_spec(crate::WindowSpec::sliding(4, 2))
            .with_expansion(false)
            .build()
            .unwrap();
        let mut r = Router::new(&sliding);
        // Pane 0 is homed by the empty bootstrap table, which the rebuild
        // at its boundary retains for pane 1: a pair homed in pane 0 and
        // known to the new table meets its pane-0 partner at the home.
        assert_eq!(r.route(&doc(&dict, 3), &dict), home(&dict, 3));
        r.close_pane(0);
        let mut t = PartitionTable::empty(M);
        t.add_avp(2, avp(&dict, 3));
        r.deploy(Arc::new(TableMsg {
            window: 0,
            table: t,
            expansion: None,
        }));
        assert_eq!(r.route(&doc(&dict, 3), &dict), 1 << 2 | home(&dict, 3));
        // Once pane 0 leaves the lookback, the empty table goes with it.
        r.close_pane(1);
        assert_eq!(r.route(&doc(&dict, 3), &dict), 1 << 2);
    }
}
