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
//! first deploy the table is empty, so pane 0 is homed. A table deployed
//! with a routing key ([`ssj_partition::RouteKey`]) is not read: a document
//! that carries the key goes to the home of its key tuple alone, and one
//! that lacks an attribute of it to every joiner.
//!
//! An Assigner only routes. As it closes a pane it sends the Reporter its
//! share of the pane's counts; the Reporter sums every Assigner's and
//! judges θ once over the whole pane (DESIGN.md §4 "Control plane"), so
//! the number of Assigners does not change what is rebuilt, or when.
//!
//! A route is a function of the document's view and the tables in the
//! lookback; nothing of it is remembered. Every deploy is a rebuild: it
//! drops the memoised §VI-B synthetic pairs; under sliding windows the
//! superseded table is retained while panes it routed are in the
//! lookback. The table built at boundary `k` reaches an Assigner after its
//! whole share of pane `k` (each task has one FIFO input), so it routes
//! from pane `k + 1` on and no pane mixes two routings.

use crate::config::StreamJoinConfig;
use crate::msg::{Msg, PaneRouting, TableMsg};
use ssj_json::{AvpId, Dictionary, Document};
use ssj_partition::{home_bit, PartitionTable, RouteScratch};
use ssj_runtime::{Bolt, Outbox, TaskInstruments};
use std::collections::VecDeque;
use std::sync::Arc;

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
    /// document was homed; a retained table adds its masks or homes, or its
    /// own key's home or every joiner, which is what makes pane-spanning
    /// pairs exact (DESIGN.md §4g). Empty for tumbling windows.
    retired: VecDeque<(Arc<TableMsg>, u64)>,
    /// The pane being routed (= panes closed so far).
    pane: u64,
    /// Reusable routing buffers and the memoised synthetic pairs: the
    /// steady state document path performs zero heap allocations (audited
    /// by `bench_partition --audit`).
    scratch: RouteScratch,
    /// Reusable view buffer (the pairs of the document being routed).
    view_buf: Vec<AvpId>,
    /// The pane's routing counts so far.
    counts: PaneRouting,
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
                key: None,
            }),
            retired: VecDeque::new(),
            pane: 0,
            scratch: RouteScratch::new(),
            view_buf: Vec::new(),
            counts: PaneRouting::default(),
        }
    }

    /// Deploy a table the Merger rebuilt (module docs).
    pub fn deploy(&mut self, table: Arc<TableMsg>) {
        let old = std::mem::replace(&mut self.current, table);
        if self.lookback > 1 {
            self.retired.push_back((old, self.pane));
        }
        // The memoised synthetic pairs belong to the old expansion.
        self.scratch.invalidate_cache();
    }

    /// Route one document: the mask of the joiners it goes to under the
    /// current table and every retained one — its key tuple's home or every
    /// joiner under a keyed table, each view pair's partitions or home
    /// under another ([`PartitionTable::route_mask`]). Zero only for a
    /// document without pairs, which joins nothing.
    pub fn route(&mut self, doc: &Document, dict: &Dictionary) -> u64 {
        let c = &mut self.counts;
        c.docs += 1;
        // Build the routing view into the reusable buffer (no allocation
        // once the buffer has warmed up), if a table without a key reads it.
        let by_pairs =
            self.current.key.is_none() || self.retired.iter().any(|(t, _)| t.key.is_none());
        let have_view = by_pairs
            && match &self.current.expansion {
                Some(e) => e.view_cached(doc, dict, &mut self.view_buf, &mut self.scratch),
                None => {
                    self.view_buf.clear();
                    self.view_buf.extend(doc.avps());
                    true
                }
            };
        let (m, all, view) = (self.m, self.all, &self.view_buf);
        // One shared acquisition of the dictionary, at the first content
        // hash a route needs.
        let mut hashes = None;
        let mut hash = |avp| hashes.get_or_insert_with(|| dict.content_hashes()).of(avp);
        let mut route = |t: &TableMsg| match &t.key {
            Some(key) => match key.hash(doc, &mut hash) {
                Some(h) => (home_bit(h, m), false),
                // An attribute of the key is missing: the document can join
                // a keyed one whatever its tuple, so it goes to every joiner.
                None => (all, true),
            },
            // A chained attribute is missing, so there is no §VI-B view. The
            // document can still join an expanded one through any synthetic
            // pair that carries its value, so no single home covers it: it
            // goes to every joiner.
            None if !have_view => (all, true),
            None => t.table.route_mask(view, |avp| home_bit(hash(avp), m)),
        };
        let (mut mask, homed) = route(&self.current);
        for (rt, _) in &self.retired {
            mask |= route(rt).0;
        }
        c.homed += homed as usize;
        c.copies += mask.count_ones() as usize;
        mask
    }

    /// Close pane `pane`: take its counts, and retire the tables whose
    /// last routed pane has left the lookback.
    pub fn close_pane(&mut self, pane: u64) -> PaneRouting {
        self.pane = pane + 1;
        while self
            .retired
            .front()
            .is_some_and(|(_, last)| last + self.lookback <= self.pane)
        {
            self.retired.pop_front();
        }
        std::mem::take(&mut self.counts)
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
        let routing = self.router.close_pane(window);
        if let Some(inst) = &self.inst {
            inst.counter("routed_sends").add(routing.copies as u64);
            inst.counter("homed_docs").add(routing.homed as u64);
        }
        out.emit(Msg::Routing { window, routing });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_json::DocId;
    use ssj_partition::{PartitionTable, RouteKey};

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
            key: None,
        })
    }

    /// The home of pair `v`. The pair is interned before the content
    /// hashes are read: an intern under their guard would deadlock.
    fn home(dict: &Dictionary, v: u64) -> u64 {
        let avp = avp(dict, v);
        home_bit(dict.content_hashes().of(avp), M)
    }

    #[test]
    fn a_pair_the_table_does_not_know_goes_to_its_home() {
        let dict = Dictionary::new();
        let mut r = Router::new(&config());
        // Before the first deploy the table is empty: everything is homed.
        assert_eq!(r.route(&doc(&dict, 1), &dict), home(&dict, 1));
        r.deploy(table(&dict, 0, 2));
        assert_eq!(r.route(&doc(&dict, 1), &dict), 1);
        // A known pair and an unknown one: the partition and the home,
        // counted as homed each time.
        let two = Document::from_json(DocId(9), r#"{"k":"v1","j":"v7"}"#, &dict).unwrap();
        let seven = home_bit(dict.content_hashes().of(two.avps().nth(1).unwrap()), M);
        assert_eq!(r.route(&two, &dict), 1 | seven);
        assert_eq!(r.route(&two, &dict), 1 | seven);
        let c = r.close_pane(0);
        assert_eq!((c.docs, c.homed), (4, 3));
        assert_eq!(c.copies, 2 + 2 * (1 | seven).count_ones() as usize);
    }

    /// Under a keyed table a document that carries the key goes to its key
    /// tuple's home alone and is not homed, whatever the table's
    /// partitions; one that lacks an attribute of the key goes to every
    /// joiner and is homed.
    #[test]
    fn a_keyed_table_sends_a_document_to_its_key_home() {
        let dict = Dictionary::new();
        let mut r = Router::new(&config());
        let keyed = |v: u64, n: u64| {
            let json = format!(r#"{{"k":"v{v}","n":{n}}}"#);
            Document::from_json(DocId(v), &json, &dict).unwrap()
        };
        let key = RouteKey {
            attrs: vec![dict.intern_attr("k")],
        };
        let mut t = PartitionTable::empty(M);
        t.add_avp(0, avp(&dict, 1));
        r.deploy(Arc::new(TableMsg {
            window: 0,
            table: t,
            expansion: None,
            key: Some(key.clone()),
        }));
        let mut copies = 0;
        for (v, n) in [(1, 0), (1, 5), (2, 7)] {
            let d = keyed(v, n);
            let hashes = dict.content_hashes();
            let want = home_bit(key.hash(&d, |p| hashes.of(p)).unwrap(), M);
            drop(hashes);
            assert_eq!(r.route(&d, &dict), want, "k = v{v}, n = {n}");
            copies += 1;
        }
        // Documents that agree on the key meet, whatever else they carry.
        assert_eq!(r.route(&keyed(1, 0), &dict), r.route(&keyed(1, 9), &dict));
        copies += 2;
        let lacking = Document::from_json(DocId(9), r#"{"n":1}"#, &dict).unwrap();
        assert_eq!(r.route(&lacking, &dict), 0b1111);
        let c = r.close_pane(0);
        assert_eq!((c.docs, c.homed, c.copies), (6, 1, copies + M));
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
        // known to the new table meets its pane-0 partner at the home. The
        // table arrives before pane 0 closes, as in the topology, where
        // the Merger's table precedes its punctuation.
        let home = home(&dict, 3);
        assert_eq!(r.route(&doc(&dict, 3), &dict), home);
        // The new table puts the pair on the partition after its home, so
        // the home is the retained table's alone.
        let p = (home.trailing_zeros() + 1) % M as u32;
        let mut t = PartitionTable::empty(M);
        t.add_avp(p, avp(&dict, 3));
        r.deploy(Arc::new(TableMsg {
            window: 0,
            table: t,
            expansion: None,
            key: None,
        }));
        r.close_pane(0);
        assert_eq!(r.route(&doc(&dict, 3), &dict), 1 << p | home);
        // Once pane 0 leaves the lookback, the empty table goes with it.
        r.close_pane(1);
        assert_eq!(r.route(&doc(&dict, 3), &dict), 1 << p);
    }
}
