//! Assignment (§III-A component 3, §VI-A) — routing and adaptation, once.
//!
//! A [`Router`] holds what an Assigner decides with: the deployed table
//! (plus, under sliding windows, the superseded tables whose panes are
//! still in the lookback), the δ-tracker, the θ-baseline and the pane's
//! routing counts. The [`Assigner`] bolt of the Fig. 2 topology runs it;
//! the figures and `ssj pipeline` run that topology in lock-step
//! ([`crate::Reader::Lockstep`]) with one Assigner, which is one `Router`.
//!
//! The pairs a pane requests as δ-updates, and its θ signal, leave with
//! the pane's close, in the routing counts the Assigner sends the Reporter,
//! and act at boundary `k + L` over the reader's credit ([`crate::reader`]):
//! the table built there routes pane `k + L + 1`, in every run. Lock-step
//! (`L = 1`) is §VI-A's `k → k + 1 → k + 2`.
//!
//! A [`TableMsg`] carries the window its partitions were *built* at, and a
//! δ-refresh from the Merger repeats its build's window, so a deployment
//! tells a rebuild from a refresh by that window alone:
//!
//! * a **rebuild** resets the θ-baseline, the one-signal latch, the
//!   δ-counts and the route cache; under sliding windows the superseded
//!   table is retained while panes it routed are in the lookback;
//! * a **δ-refresh** — the same partitions plus single pairs, a superset of
//!   the table it replaces — only swaps the table and drops the route
//!   cache. The baseline survives: a degraded pane is compared against the
//!   quality measured right after the partitions were created (§VI-A), not
//!   against one taken after the last refresh.
//!
//! A pane that had already routed documents when a rebuild arrived mixes
//! two routings: it neither becomes the baseline nor is tested against one.

use crate::config::StreamJoinConfig;
use crate::msg::{Control, Msg, PaneRouting, TableMsg};
use ssj_json::{AvpId, Dictionary, Document};
use ssj_partition::{
    fingerprint_view, RepartitionPolicy, RouteScratch, RoutingStats, UnseenTracker, WindowQuality,
};
use ssj_runtime::{Bolt, Outbox, TaskInfo, TaskInstruments, TraceKind};
use std::collections::VecDeque;
use std::sync::Arc;

/// One pane's routing counts.
#[derive(Debug, Clone)]
pub struct PaneCounts {
    /// Documents routed, copies sent per joiner, broadcasts.
    pub stats: RoutingStats,
    /// Routes answered by the fingerprint cache.
    pub routes_cached: usize,
    /// Views routed against a table that missed the cache.
    pub cache_misses: usize,
}

impl PaneCounts {
    fn new(m: usize) -> PaneCounts {
        PaneCounts {
            stats: RoutingStats {
                per_machine: vec![0; m],
                total_sends: 0,
                broadcasts: 0,
                docs: 0,
            },
            routes_cached: 0,
            cache_misses: 0,
        }
    }
}

/// What [`Router::close_pane`] reports about the pane it closed.
#[derive(Debug, Clone)]
pub struct PaneClose {
    /// The pane's §VII-C quality.
    pub quality: WindowQuality,
    /// Quality degraded past θ against the baseline: ask for a rebuild.
    pub signal: bool,
    /// Pairs the table does not know that reached their δ-th sighting in
    /// the pane: ask the Merger to add them.
    pub requests: Vec<AvpId>,
    /// The pane's routing counts.
    pub counts: PaneCounts,
}

/// The Assigner's routing and adaptation state.
pub struct Router {
    m: usize,
    /// `panes_per_window`: how long a superseded table keeps routing.
    lookback: u64,
    current: Option<Arc<TableMsg>>,
    /// Sliding windows only: tables superseded by a rebuild while some pane
    /// they routed is still inside the lookback, tagged with the last pane
    /// they were current in. The current table alone governs the broadcast
    /// / unknown-pair / δ decisions; retained tables contribute *extra*
    /// route targets, which is what makes pane-spanning pairs exact
    /// (DESIGN.md §4g). Empty for tumbling windows.
    retired: VecDeque<(Arc<TableMsg>, u64)>,
    /// The pane being routed (= panes closed so far).
    pane: u64,
    unseen: UnseenTracker,
    policy: RepartitionPolicy,
    /// Quality of the first pane fully routed with the current build — the
    /// §VI-A baseline the θ-threshold compares against.
    baseline: Option<WindowQuality>,
    /// The open pane had routed documents when the current build arrived.
    table_fresh: bool,
    /// A repartition was signalled for the current build already.
    signalled: bool,
    /// Reusable routing buffers + view-fingerprint route cache: the steady
    /// state document path performs zero heap allocations (audited by
    /// `bench_partition --audit`).
    scratch: RouteScratch,
    /// Reusable view buffer (the pairs of the document being routed).
    view_buf: Vec<AvpId>,
    counts: PaneCounts,
    requests: Vec<AvpId>,
}

impl Router {
    /// A router with no table yet: it broadcasts until the first deploy.
    pub fn new(config: &StreamJoinConfig) -> Router {
        Router {
            m: config.m,
            lookback: config.panes_per_window() as u64,
            current: None,
            retired: VecDeque::new(),
            pane: 0,
            unseen: UnseenTracker::new(config.delta),
            policy: RepartitionPolicy::new(config.theta),
            baseline: None,
            table_fresh: false,
            signalled: false,
            scratch: RouteScratch::new(),
            view_buf: Vec::new(),
            counts: PaneCounts::new(config.m),
            requests: Vec::new(),
        }
    }

    /// Deploy a table from the Merger: a rebuild or a δ-refresh (module
    /// docs).
    pub fn deploy(&mut self, table: Arc<TableMsg>) {
        let rebuild = self
            .current
            .as_ref()
            .is_none_or(|t| t.window != table.window);
        if rebuild {
            if self.lookback > 1 {
                if let Some(old) = self.current.take() {
                    self.retired.push_back((old, self.pane));
                }
            }
            self.unseen.reset();
            self.baseline = None;
            self.signalled = false;
            self.table_fresh = self.counts.stats.docs > 0;
        }
        self.current = Some(table);
        // Cached routes reference the old table.
        self.scratch.invalidate_cache();
    }

    /// Route one document: its joiners, or `None` to broadcast it (no table
    /// yet, expansion failed, a pair the table does not know, or nothing
    /// matched). An unknown pair's δ-th sighting becomes a request.
    pub fn route(&mut self, doc: &Document, dict: &Dictionary) -> Option<&[u32]> {
        let c = &mut self.counts;
        c.stats.docs += 1;
        // Build the routing view into the reusable buffer (no allocation
        // once the buffer has warmed up).
        let have_view = match self.current.as_ref().and_then(|t| t.expansion.as_ref()) {
            Some(e) => e.view_cached(doc, dict, &mut self.view_buf, &mut self.scratch),
            None => {
                self.view_buf.clear();
                self.view_buf.extend(doc.avps());
                true
            }
        };
        let matched = match &self.current {
            Some(t) if have_view => {
                // One u64 OR per pair, where a zero pair mask doubles as the
                // unknown-pair test. Repeated view shapes hit the fingerprint
                // cache and skip the table walk entirely; only fully known
                // views are cached, so δ-tracking sees every unknown pair.
                let fp = fingerprint_view(self.view_buf.iter().copied());
                if let Some(mask) = self.scratch.cache_get(fp) {
                    c.routes_cached += 1;
                    self.scratch.set_targets_from_mask(mask);
                    true
                } else {
                    c.cache_misses += 1;
                    let mut mask = 0u64;
                    let mut unknown = false;
                    let first = self.requests.len();
                    for &avp in &self.view_buf {
                        let am = t.table.avp_mask(avp);
                        if am == 0 {
                            unknown = true;
                            if self.unseen.observe(avp) {
                                self.requests.push(avp);
                            }
                        }
                        mask |= am;
                    }
                    // One document's requests by attribute name (one pair
                    // each), not in this process's id order: the Merger
                    // places them in the order they arrive.
                    if self.requests.len() > first + 1 {
                        self.requests[first..]
                            .sort_by_cached_key(|&a| dict.attr_name(dict.avp_attr(a)));
                    }
                    if unknown || mask == 0 {
                        false
                    } else {
                        // Retained pane tables (sliding only) add targets so
                        // a pane-spanning pair meets wherever its earlier
                        // document was routed; they never influence the
                        // broadcast/unknown decision above.
                        for (rt, _) in &self.retired {
                            mask |= rt.table.view_mask(&self.view_buf);
                        }
                        self.scratch.cache_put(fp, mask);
                        self.scratch.set_targets_from_mask(mask);
                        true
                    }
                }
            }
            _ => false,
        };
        if matched {
            for &p in self.scratch.targets() {
                c.stats.per_machine[p as usize] += 1;
            }
            c.stats.total_sends += self.scratch.targets().len();
            Some(self.scratch.targets())
        } else {
            c.stats.broadcasts += 1;
            c.stats.per_machine.iter_mut().for_each(|n| *n += 1);
            c.stats.total_sends += self.m;
            None
        }
    }

    /// Close pane `pane`: measure it, test it against the θ-baseline (or
    /// make it the baseline), and retire the tables whose last routed pane
    /// has left the lookback.
    pub fn close_pane(&mut self, pane: u64) -> PaneClose {
        let counts = std::mem::replace(&mut self.counts, PaneCounts::new(self.m));
        let quality = WindowQuality::from_stats(&counts.stats);
        let mut signal = false;
        // A pane that straddled a rebuild mixes two routings.
        if counts.stats.docs > 0 && !std::mem::take(&mut self.table_fresh) {
            match &self.baseline {
                None => self.baseline = Some(quality),
                // One signal per build: the creators recompute and the
                // Merger deploys a rebuild, which rearms the detector.
                Some(base) => {
                    signal = !self.signalled && self.policy.should_repartition(base, &quality);
                    self.signalled |= signal;
                }
            }
        }
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
        PaneClose {
            quality,
            signal,
            counts,
            requests: std::mem::take(&mut self.requests),
        }
    }
}

/// Assigner bolt (§III-A component 3): routes each document to the Joiners
/// its [`Router`] names — all of them when it names none — as a
/// [`Msg::Copy`] that carries that target set, and, as it
/// closes a pane, sends the Reporter the pane's counts with the router's
/// δ-update requests and θ signal. It ignores the reader's broadcasts.
pub struct Assigner {
    dict: Dictionary,
    router: Router,
    task: usize,
    inst: Option<Arc<TaskInstruments>>,
}

impl Assigner {
    /// One assigner task.
    pub fn new(config: StreamJoinConfig, dict: Dictionary) -> Self {
        Assigner {
            router: Router::new(&config),
            dict,
            task: 0,
            inst: None,
        }
    }
}

impl Bolt<Msg> for Assigner {
    fn attach_instruments(&mut self, inst: &Arc<TaskInstruments>) {
        self.inst = Some(Arc::clone(inst));
    }

    fn prepare(&mut self, info: &TaskInfo) {
        self.task = info.task_index;
    }

    fn execute(&mut self, msg: Msg, out: &mut Outbox<Msg>) {
        match msg {
            Msg::Doc(doc) => {
                // Every copy carries the whole target set: the joiners find
                // each pair once by it (the owner rule, `crate::joiner`).
                let targets = match self.router.route(&doc, &self.dict) {
                    Some(targets) => targets.iter().fold(0, |mask, &p| mask | 1u64 << p),
                    None => u64::MAX >> (64 - self.router.m),
                };
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
        let close = self.router.close_pane(window);
        let requests = close.requests.len();
        let c = &close.counts;
        out.emit(Msg::Routing {
            window,
            routing: PaneRouting {
                docs: c.stats.docs,
                copies: c.stats.total_sends,
                broadcasts: c.stats.broadcasts,
                ..PaneRouting::default()
            },
            control: Some(Box::new((
                self.task,
                Control {
                    requests: close.requests,
                    repartition: close.signal,
                },
            ))),
        });
        if let Some(inst) = &self.inst {
            inst.counter("routed_sends").add(c.stats.total_sends as u64);
            inst.counter("broadcast_docs")
                .add(c.stats.broadcasts as u64);
            inst.counter("update_requests").add(requests as u64);
            inst.counter("routes_cached").add(c.routes_cached as u64);
            inst.counter("route_cache_misses")
                .add(c.cache_misses as u64);
            if close.signal {
                inst.counter("repartition_signals").inc();
                inst.trace(TraceKind::Repartition, window, std::time::Duration::ZERO);
            }
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

    /// Route `docs` documents of pair `v` through a closed pane.
    fn pane(r: &mut Router, dict: &Dictionary, pane: u64, v: u64, docs: usize) -> PaneClose {
        for _ in 0..docs {
            r.route(&doc(dict, v), dict);
        }
        r.close_pane(pane)
    }

    #[test]
    fn the_baseline_survives_a_delta_refresh() {
        let dict = Dictionary::new();
        let mut r = Router::new(&config());
        r.deploy(table(&dict, 0, 2));
        // Pane 0 sets the baseline: one copy per document.
        assert!(!pane(&mut r, &dict, 0, 1, 8).signal);
        // Pane 1 meets a new pair: every copy is a broadcast, and its δ-th
        // sighting is requested with the pane's close.
        for _ in 0..8 {
            assert!(r.route(&doc(&dict, 7), &dict).is_none());
        }
        // A refresh (same build window) that arrives before the pane closes
        // does not wipe the baseline the pane is measured against.
        r.deploy(table(&dict, 0, 3));
        let close = r.close_pane(1);
        assert_eq!(close.counts.stats.broadcasts, 8);
        assert_eq!(close.requests, vec![avp(&dict, 7)]);
        assert!(close.signal, "a δ-refresh swallowed the θ signal");
        // The refreshed table routes what it added.
        assert!(r.route(&doc(&dict, 2), &dict).is_some());
    }

    #[test]
    fn a_rebuild_resets_the_baseline() {
        let dict = Dictionary::new();
        let mut r = Router::new(&config());
        r.deploy(table(&dict, 0, 2));
        assert!(!pane(&mut r, &dict, 0, 1, 8).signal);
        // A rebuild at window 1 between panes: the next pane is the new
        // baseline, so a broadcast pane after the rebuild is not compared
        // with the old build's quality…
        r.deploy(table(&dict, 1, 2));
        assert!(!pane(&mut r, &dict, 1, 9, 8).signal);
        // …and neither a routed nor a broadcast pane degrades from it.
        assert!(!pane(&mut r, &dict, 2, 1, 8).signal);
        assert!(!pane(&mut r, &dict, 3, 9, 8).signal);
    }

    #[test]
    fn table_fresh_only_on_a_straddled_pane() {
        let dict = Dictionary::new();
        let mut r = Router::new(&config());
        // The bootstrap arrives after pane 0 routed (broadcast) documents:
        // pane 0 is no baseline, so a broadcast pane 1 becomes it and a
        // routed pane 2 cannot degrade from it.
        for _ in 0..8 {
            assert!(r.route(&doc(&dict, 1), &dict).is_none());
        }
        r.deploy(table(&dict, 0, 2));
        assert!(!r.close_pane(0).signal);
        assert!(!pane(&mut r, &dict, 1, 9, 8).signal);
        assert!(!pane(&mut r, &dict, 2, 1, 8).signal);
        // A rebuild deployed into an empty pane leaves that pane whole: it
        // is the baseline, and the broadcast pane after it signals.
        r.deploy(table(&dict, 3, 2));
        assert!(!pane(&mut r, &dict, 3, 1, 8).signal);
        assert!(pane(&mut r, &dict, 4, 9, 8).signal);
    }

    #[test]
    fn one_signal_per_build() {
        let dict = Dictionary::new();
        let mut r = Router::new(&config());
        r.deploy(table(&dict, 0, 2));
        assert!(!pane(&mut r, &dict, 0, 1, 8).signal);
        assert!(pane(&mut r, &dict, 1, 9, 8).signal);
        // Still degraded, refreshed or not: no second signal.
        assert!(!pane(&mut r, &dict, 2, 9, 8).signal);
        r.deploy(table(&dict, 0, 3));
        assert!(!pane(&mut r, &dict, 3, 8, 8).signal);
        // A rebuild rearms it.
        r.deploy(table(&dict, 4, 2));
        assert!(!pane(&mut r, &dict, 4, 1, 8).signal);
        assert!(pane(&mut r, &dict, 5, 9, 8).signal);
    }
}
