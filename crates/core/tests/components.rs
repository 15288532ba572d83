//! Component-level behaviour of the Fig. 2 topology, observed through the
//! runtime's per-component counters.

use ssj_bench::testutil::shifting_stream;
use ssj_core::creator::PartitionCreator;
use ssj_core::joiner::Joiner;
use ssj_core::merger::Merger;
use ssj_core::{
    run_topology, run_topology_collect, Msg, Reader, StreamJoinConfig, WindowSpec, READER_LEAD,
};
use ssj_json::{Dictionary, DocId, Document};
use ssj_partition::{
    association_groups, batch_views, home_bit, merge_and_assign, Expansion, GroupIndex, View,
};
use ssj_runtime::{
    fn_bolt, CollectorBolt, FaultPlan, Grouping, Spout, SpoutEmit, TopologyBuilder, VecSpout,
};
use std::sync::Arc;

/// A perfectly stable stream: the same distribution in every window.
fn stable_stream(dict: &Dictionary, windows: usize, per_window: usize) -> Vec<Document> {
    (0..(windows * per_window) as u64)
        .map(|i| {
            Document::from_json(
                DocId(i),
                &format!(
                    r#"{{"user":"u{}","sev":"s{}","grp":{}}}"#,
                    i % 5,
                    i % 3,
                    i % 4
                ),
                dict,
            )
            .unwrap()
        })
        .collect()
}

/// A gradually drifting stream: the first windows are stable (establishing
/// a good baseline), later windows mix in ever more fresh attribute-value
/// pairs — the §VI-A degradation pattern the θ-threshold must catch.
fn drifting_stream(dict: &Dictionary, windows: usize, per_window: usize) -> Vec<Document> {
    let mut out = Vec::new();
    for w in 0..windows as u64 {
        // Windows 0-1: no drift. From window 2 on: half the documents are
        // entirely novel.
        let novel_share = if w < 2 { 0 } else { per_window / 2 };
        for i in 0..per_window as u64 {
            let id = w * per_window as u64 + i;
            let json = if (i as usize) < novel_share {
                format!(r#"{{"w{w}a":"v{}","w{w}b":{}}}"#, id, i % 3)
            } else {
                format!(
                    r#"{{"user":"u{}","sev":"s{}","grp":{}}}"#,
                    i % 5,
                    i % 3,
                    i % 4
                )
            };
            out.push(Document::from_json(DocId(id), &json, dict).unwrap());
        }
    }
    out
}

fn config(m: usize, window: usize) -> StreamJoinConfig {
    StreamJoinConfig::default()
        .with_m(m)
        .with_window_spec(ssj_core::WindowSpec::tumbling(window))
        .with_expansion(false)
        .with_partition_creators(2)
        .with_assigners(2)
        .build()
        .unwrap()
}

/// `(group computations, table broadcasts, Merger input)` of a run.
fn control_counts(report: &ssj_core::TopologyRunReport) -> (u64, u64, u64) {
    let rt = &report.runtime;
    (
        rt.component_counter("creator", "group_computations"),
        rt.component_counter("merger", "table_broadcasts"),
        rt.received("merger"),
    )
}

#[test]
fn creators_compute_only_when_needed_on_stable_streams() {
    let dict = Dictionary::new();
    let docs = stable_stream(&dict, 5, 100);
    let report = run_topology(config(3, 100), &dict, docs).unwrap();
    // Every pane holds every pair, so the bootstrap table knows them all:
    // no pane homes a document or degrades. Each creator computes once,
    // the Merger hears creator 0 forward the bootstrap's `Repartition` and
    // the two shares, and broadcasts one table.
    assert_eq!(control_counts(&report), (2, 1, 3));
}

/// Runs on the free-running reader ([`READER_LEAD`] panes ahead). The θ
/// signal of pane `k` rides pane `k`'s credit back to the reader, which
/// begins pane `k + READER_LEAD` as a build on it, so the builds and
/// tables are a function of the stream. When they rode
/// feedback edges, a creator could close pane `k + 1` before an Assigner's
/// signal of pane `k` reached it, and what the Merger heard was a race.
#[test]
fn drift_signals_once_and_creators_recompute() {
    let dict = Dictionary::new();
    let docs = drifting_stream(&dict, 12, 100);
    let counts: Vec<_> = [1, 2, 8]
        .into_iter()
        .map(|pool| {
            let mut cfg = config(3, 100);
            cfg.theta = 0.1;
            cfg.pool_workers = pool;
            let docs = docs.iter().cloned().map(Arc::new).collect();
            let reader = Reader::Docs(docs);
            let report = run_topology_collect(cfg, &dict, reader, FaultPlan::new(), None).unwrap();
            let rebuilt: Vec<u64> = (0..)
                .zip(&report.routing)
                .filter(|(_, r)| r.rebuilt)
                .map(|(w, _)| w)
                .collect();
            (control_counts(&report), rebuilt)
        })
        .collect();
    assert_eq!(counts[0], counts[1], "pool 1 vs 2");
    assert_eq!(counts[0], counts[2], "pool 1 vs 8");
    // Pane 1 is the baseline and pane 2, half novel, signals: both
    // creators build a second time at boundary 2 + READER_LEAD = 6. The
    // Merger hears two `Repartition`s (the bootstrap's and the rebuild's)
    // and four shares, and broadcasts the bootstrap and the rebuild: the
    // novel pairs of the panes in between go to their homes.
    let signal = 2 + READER_LEAD as u64;
    assert_eq!(counts[0], ((4, 2, 6), vec![signal]));
}

#[test]
fn bootstrap_window_is_homed() {
    let dict = Dictionary::new();
    let docs = stable_stream(&dict, 1, 80);
    let m = 4;
    let report = run_topology(config(m, 80), &dict, docs.clone()).unwrap();
    // No table exists during window 0, so every document goes to the homes
    // of its pairs, and no further.
    let mut want = vec![0; m];
    let hashes = dict.content_hashes();
    for doc in &docs {
        let mask = doc
            .avps()
            .fold(0, |mask, avp| mask | home_bit(hashes.of(avp), m));
        (0..m)
            .filter(|&j| mask >> j & 1 != 0)
            .for_each(|j| want[j] += 1);
    }
    assert_eq!(report.docs_per_joiner[0], want);
    assert_eq!(report.routing[0].homed, 80);
}

#[test]
fn steady_state_routes_fewer_than_m_copies() {
    let dict = Dictionary::new();
    let docs = stable_stream(&dict, 4, 100);
    let m = 4;
    let report = run_topology(config(m, 100), &dict, docs).unwrap();
    // After the bootstrap window the table routes documents; total joiner
    // load per window stays below `m` copies per document.
    for (w, loads) in report.docs_per_joiner.iter().enumerate().skip(1) {
        let total: usize = loads.iter().sum();
        assert!(
            total < m * 100,
            "window {w} still sends every document everywhere: {loads:?}"
        );
    }
}

/// The owner rule on one pair, at a lone Joiner with task 1: it reports
/// `(a, b)` when both copies reached joiner 1 alone (masks `0b10` / `0b10`),
/// and leaves it to joiner 0 when both reached joiner 0 too (`0b11` /
/// `0b11`).
#[test]
fn a_joiner_reports_only_the_pairs_it_owns() {
    for (targets, owned) in [(0b10u64, true), (0b11, false)] {
        let dict = Dictionary::new();
        let copy = |id| Msg::Copy {
            doc: Arc::new(Document::from_json(DocId(id), r#"{"k":"v"}"#, &dict).unwrap()),
            targets,
        };
        let msgs = vec![copy(0), copy(1)];
        let cfg = StreamJoinConfig::default()
            .with_m(2)
            .with_window_spec(WindowSpec::tumbling(2))
            .build()
            .unwrap();
        let sink = CollectorBolt::new();
        let got = sink.handle();
        let topology = TopologyBuilder::new()
            .spout("feed", 1, move |_| {
                Box::new(VecSpout::with_punctuation(msgs.clone(), 2))
            })
            .bolt("to_joiner_1", 1, |_| {
                fn_bolt(|msg: Msg, out| out.emit_direct(1, msg))
            })
            .subscribe("feed", Grouping::Shuffle)
            .done()
            .bolt("joiner", 2, move |_| Box::new(Joiner::new(cfg.clone())))
            .subscribe("to_joiner_1", Grouping::Direct)
            .done()
            .bolt("sink", 1, move |_| Box::new(sink.clone()))
            .subscribe("joiner", Grouping::Global)
            .done()
            .build()
            .unwrap();
        ssj_runtime::run(topology).unwrap();

        let reported: Vec<_> = got
            .take()
            .into_iter()
            .filter_map(|msg| match msg {
                Msg::JoinStats {
                    joiner: 1,
                    docs,
                    pairs,
                    ..
                } => Some((docs, pairs)),
                _ => None,
            })
            .collect();
        let want = if owned {
            vec![(DocId(0), DocId(1))]
        } else {
            vec![]
        };
        assert_eq!(reported, vec![(2, want)], "masks {targets:#b}");
    }
}

#[test]
fn single_creator_single_assigner_still_exact() {
    let dict = Dictionary::new();
    let docs = stable_stream(&dict, 3, 60);
    let mut cfg = config(2, 60);
    cfg.partition_creators = 1;
    cfg.assigners = 1;
    let report = run_topology(cfg, &dict, docs.clone()).unwrap();
    let truth = ssj_bench::testutil::oracle(&docs, WindowSpec::tumbling(60));
    assert_eq!(report.joins_per_window, truth.windows);
}

/// The one group build, differentially. A `PartitionCreator` bolt is driven
/// directly — 13 panes of a stream whose vocabulary shifts at pane 6, a
/// `Repartition` as the first message of pane 0 and of pane 7, each with the
/// chain detected over its pane, as the reader sends them — and must send
/// local groups exactly twice: the bootstrap over pane 0, and at boundary 7
/// over the views of exactly the last `panes_per_window` panes. Not the open
/// pane alone, not the stream so far. With expansion off the same groups
/// must come out of a `GroupIndex` fed the same pushes and expiries — what
/// the creator sent before it was given one build path.
#[test]
fn creator_builds_over_exactly_its_lookback() {
    const PANE: usize = 60;
    const RUN_PANES: usize = 13;
    const SIGNAL: usize = 7;
    for (spec, expansion) in [
        (WindowSpec::tumbling(PANE), true),
        (WindowSpec::tumbling(PANE), false),
        (WindowSpec::sliding(PANE, 4), false),
    ] {
        let what = format!("{spec:?}, expansion {expansion}");
        let panes = spec.panes_per_window();
        assert!(RUN_PANES >= 3 * panes);
        let dict = Dictionary::new();
        // A pane is PANE messages: a build's `Repartition` takes its first
        // document's place.
        let docs = shifting_stream(&dict, RUN_PANES, PANE, SIGNAL - 1);
        let builds = [0, SIGNAL * PANE];
        let in_panes = |lo: usize, hi: usize| -> Vec<Document> {
            (lo * PANE..hi * PANE)
                .filter(|i| !builds.contains(i))
                .map(|i| docs[i].clone())
                .collect()
        };
        let chain = |pane: usize| {
            let detected = Expansion::detect(&in_panes(pane, pane + 1), &dict, 4);
            detected.filter(|_| expansion)
        };
        let chains = [chain(0), chain(SIGNAL)];
        // `Mode` has two values per vocabulary: both builds must expand.
        assert!(chains.iter().all(|c| c.is_some() == expansion), "{what}");
        let msgs: Vec<Msg> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| match builds.iter().position(|&b| b == i) {
                Some(b) => Msg::Repartition(chains[b].clone().map(Arc::new)),
                None => Msg::Doc(Arc::new(d.clone())),
            })
            .collect();

        let cfg = StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(spec)
            .with_expansion(expansion)
            .build()
            .unwrap();
        let sink = CollectorBolt::new();
        let sent = sink.handle();
        let (creator_cfg, creator_dict) = (cfg.clone(), dict.clone());
        let topology = TopologyBuilder::new()
            .spout("reader", 1, move |_| {
                Box::new(VecSpout::with_punctuation(msgs.clone(), PANE))
            })
            .bolt("creator", 1, move |_| {
                let (cfg, dict) = (creator_cfg.clone(), creator_dict.clone());
                Box::new(PartitionCreator::new(cfg, dict))
            })
            .subscribe("reader", Grouping::Shuffle)
            .done()
            .bolt("sink", 1, move |_| Box::new(sink.clone()))
            .subscribe("creator", Grouping::Global)
            .done()
            .build()
            .unwrap();
        let report = ssj_runtime::run(topology).unwrap();

        // From scratch over a lookback, under a build's chain.
        let scratch = |build: usize, lookback: &[Document]| {
            let views: Vec<View> = batch_views(lookback, chains[build].as_ref(), &dict)
                .into_iter()
                .flatten()
                .collect();
            association_groups(&views)
        };
        let sent: Vec<_> = sent
            .take()
            .into_iter()
            .filter_map(|msg| match msg {
                Msg::LocalGroups { window, groups, .. } => Some((window, groups)),
                // Creator 0 passes each build's chain on to the Merger.
                Msg::Repartition(_) => None,
                other => panic!("{what}: creator sent {other:?}"),
            })
            .collect();
        let lookbacks = [in_panes(0, 1), in_panes(SIGNAL + 1 - panes, SIGNAL + 1)];
        assert_eq!(sent.len(), 2, "{what}");
        assert_eq!(sent[0], (0, scratch(0, &lookbacks[0])), "{what}");
        assert_eq!(
            sent[1],
            (SIGNAL as u64, scratch(1, &lookbacks[1])),
            "{what}"
        );
        assert_eq!(
            report.component_counter("creator", "group_build_docs") as usize,
            lookbacks[0].len() + lookbacks[1].len(),
            "{what}"
        );
        // The second build is neither of the two wrong lookbacks.
        if panes > 1 {
            assert_ne!(
                sent[1].1,
                scratch(1, &in_panes(SIGNAL, SIGNAL + 1)),
                "{what}"
            );
        }
        assert_ne!(sent[1].1, scratch(1, &in_panes(0, SIGNAL + 1)), "{what}");

        if !expansion {
            // The parent's path: every view pushed on arrival, a pane expired
            // when it leaves the lookback, groups derived at the same two
            // boundaries.
            let mut index = GroupIndex::new();
            let mut ring = std::collections::VecDeque::new();
            let mut derived = Vec::new();
            for p in 0..=SIGNAL {
                let ids: Vec<u32> = in_panes(p, p + 1)
                    .iter()
                    .map(|d| index.push(&d.avps().collect::<View>()))
                    .collect();
                if p == 0 || p == SIGNAL {
                    derived.push(index.association_groups());
                }
                ring.push_back(ids);
                while ring.len() >= panes {
                    for id in ring.pop_front().unwrap() {
                        index.expire(id);
                    }
                }
            }
            let groups: Vec<_> = sent.into_iter().map(|(_, groups)| groups).collect();
            assert_eq!(
                groups, derived,
                "{what}: differs from the incremental index"
            );
        }
    }
}

/// A spout that emits its script in order, then ends.
struct Script(std::vec::IntoIter<SpoutEmit<Msg>>);

impl Spout<Msg> for Script {
    fn next(&mut self) -> SpoutEmit<Msg> {
        self.0.next().unwrap_or(SpoutEmit::Done)
    }
}

/// §VI-B is decided once per build, over the whole pane. Two creators
/// whose shares would each detect a chain of their own get the one the
/// reader detected over the pane, build their groups under it, and the
/// Merger deploys it with the consolidated groups.
#[test]
fn creators_build_and_the_merger_deploys_the_panes_chain() {
    const M: usize = 4;
    let dict = Dictionary::new();
    // Batch 1: creator 0 gets the even documents, creator 1 the odd ones.
    // `a` is constant on the even ones and `b` on the odd ones.
    let docs: Vec<Document> = (0..16usize)
        .map(|i| {
            let (a, b) = match i % 2 {
                0 => ("x", ["p", "q"][i / 2 % 2]),
                _ => (["x", "y", "z"][i / 2 % 3], "p"),
            };
            let json = format!(r#"{{"a":"{a}","b":"{b}","c":{}}}"#, i % 4);
            Document::from_json(DocId(i as u64), &json, &dict).unwrap()
        })
        .collect();
    let shares: Vec<Vec<Document>> = (0..2)
        .map(|c| docs.iter().skip(c).step_by(2).cloned().collect())
        .collect();
    let pane = Arc::new(Expansion::detect(&docs, &dict, M).unwrap());
    for share in &shares {
        let own = Expansion::detect(share, &dict, M).unwrap();
        assert_ne!(
            own.chain, pane.chain,
            "the shares must disagree with the pane"
        );
    }

    let cfg = StreamJoinConfig::default()
        .with_m(M)
        .with_window_spec(WindowSpec::tumbling(docs.len()))
        .with_partition_creators(2)
        .build()
        .unwrap();
    let script = {
        let (pane, docs) = (Arc::clone(&pane), docs.clone());
        move || {
            let build = Msg::Repartition(Some(Arc::clone(&pane)));
            let docs = docs.iter().map(|d| Msg::Doc(Arc::new(d.clone())));
            let emits = std::iter::once(SpoutEmit::Broadcast(build))
                .chain(docs.map(SpoutEmit::Message))
                .chain([SpoutEmit::Punctuate(0)]);
            Script(emits.collect::<Vec<_>>().into_iter())
        }
    };
    let sink = CollectorBolt::new();
    let got = sink.handle();
    let (creator_cfg, creator_dict) = (cfg.clone(), dict.clone());
    let (merger_cfg, merger_dict) = (cfg.clone(), dict.clone());
    let topology = TopologyBuilder::new()
        .batch_size(1)
        .spout("reader", 1, move |_| Box::new(script()))
        .bolt("creator", 2, move |_| {
            let (cfg, dict) = (creator_cfg.clone(), creator_dict.clone());
            Box::new(PartitionCreator::new(cfg, dict))
        })
        .subscribe("reader", Grouping::Shuffle)
        .done()
        .bolt("merger", 1, move |_| {
            Box::new(Merger::new(merger_cfg.clone(), merger_dict.clone()))
        })
        .subscribe("creator", Grouping::Global)
        .done()
        .bolt("sink", 1, move |_| Box::new(sink.clone()))
        .subscribe("creator", Grouping::Global)
        .subscribe("merger", Grouping::Global)
        .done()
        .build()
        .unwrap();
    ssj_runtime::run(topology).unwrap();

    let (mut groups, mut tables) = (vec![None, None], Vec::new());
    for msg in got.take() {
        match msg {
            Msg::LocalGroups {
                creator, groups: g, ..
            } => groups[creator] = Some(g),
            Msg::Table(t) => tables.push(t),
            _ => {}
        }
    }
    let groups: Vec<_> = groups.into_iter().map(Option::unwrap).collect();
    for (c, share) in shares.iter().enumerate() {
        let views: Vec<View> = batch_views(share, Some(&*pane), &dict)
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(groups[c], association_groups(&views), "creator {c}");
    }
    let [table] = &tables[..] else {
        panic!("{} tables deployed", tables.len())
    };
    let deployed = table.expansion.as_ref().expect("a chain deployed");
    assert_eq!(
        (&deployed.chain, deployed.synth_attr),
        (&pane.chain, pane.synth_attr)
    );
    assert_eq!(table.table, merge_and_assign(groups, M));
}

/// `(after a boundary?, live documents per pane)`, in handling order.
type LiveLog = Arc<std::sync::Mutex<Vec<(bool, Vec<usize>)>>>;

/// A [`PartitionCreator`] that, after every message and boundary, counts
/// which of the stream's documents are still alive.
struct Watched {
    inner: PartitionCreator,
    docs: Arc<Vec<std::sync::Weak<Document>>>,
    log: LiveLog,
    pane: usize,
}

impl Watched {
    fn record(&self, boundary: bool) {
        let live = self
            .docs
            .chunks(self.pane)
            .map(|pane| pane.iter().filter(|d| d.strong_count() > 0).count())
            .collect();
        self.log.lock().unwrap().push((boundary, live));
    }
}

impl ssj_runtime::Bolt<Msg> for Watched {
    fn execute(&mut self, msg: Msg, out: &mut ssj_runtime::Outbox<Msg>) {
        self.inner.execute(msg, out);
        self.record(false);
    }

    fn on_punct(&mut self, window: u64, out: &mut ssj_runtime::Outbox<Msg>) {
        self.inner.on_punct(window, out);
        self.record(true);
    }
}

/// A creator's boundary frees nothing: the pane that leaves its lookback is
/// let go of on the next message, not while the punctuation waits. Tumbling
/// evicts the pane it just closed; sliding evicts the oldest one and leaves
/// the panes still in the lookback alone.
#[test]
fn a_creator_frees_its_evicted_pane_on_the_next_message() {
    const PANE: usize = 5;
    for spec in [WindowSpec::tumbling(PANE), WindowSpec::sliding(PANE, 3)] {
        let panes = spec.panes_per_window();
        let dict = Dictionary::new();
        let docs: Vec<Arc<Document>> = stable_stream(&dict, 5, PANE)
            .into_iter()
            .map(Arc::new)
            .collect();
        let weak = Arc::new(docs.iter().map(Arc::downgrade).collect::<Vec<_>>());
        let msgs: Vec<Msg> = docs.into_iter().map(Msg::Doc).collect();
        let cfg = StreamJoinConfig::default()
            .with_m(2)
            .with_window_spec(spec)
            .with_expansion(false)
            .build()
            .unwrap();
        let log = LiveLog::default();
        let (watch_log, watch_docs) = (Arc::clone(&log), Arc::clone(&weak));
        let topology = TopologyBuilder::new()
            .batch_size(1)
            .spout("reader", 1, move |_| {
                Box::new(VecSpout::with_punctuation(msgs.clone(), PANE))
            })
            .bolt("creator", 1, move |_| {
                Box::new(Watched {
                    inner: PartitionCreator::new(cfg.clone(), dict.clone()),
                    docs: Arc::clone(&watch_docs),
                    log: Arc::clone(&watch_log),
                    pane: PANE,
                })
            })
            .subscribe("reader", Grouping::Shuffle)
            .done()
            .build()
            .unwrap();
        ssj_runtime::run(topology).unwrap();

        let log = log.lock().unwrap();
        let (mut boundaries, mut first_after) = (0usize, false);
        for (boundary, live) in log.iter() {
            if *boundary {
                // The pane this boundary evicts is still whole.
                if let Some(evicted) = (boundaries + 1).checked_sub(panes) {
                    assert_eq!(live[evicted], PANE, "{spec:?}: boundary {boundaries}");
                }
                boundaries += 1;
                first_after = true;
                continue;
            }
            if std::mem::take(&mut first_after) {
                // The next message after boundary `b - 1`: panes that left
                // the lookback are gone, the ones still in it are whole.
                for (p, &n) in live.iter().enumerate().take(boundaries) {
                    let kept = p + panes > boundaries;
                    let want = if kept { PANE } else { 0 };
                    assert_eq!(n, want, "{spec:?}: pane {p} after boundary {boundaries}");
                }
            }
        }
        assert!(boundaries >= 4, "{spec:?}: {boundaries} boundaries");
    }
}

/// A [`Joiner`] that, after every boundary, records how many handles each
/// routed document has left.
struct CountedJoiner {
    inner: Joiner,
    docs: Arc<Vec<Arc<Document>>>,
    log: Arc<std::sync::Mutex<Vec<Vec<usize>>>>,
}

impl ssj_runtime::Bolt<Msg> for CountedJoiner {
    fn prepare(&mut self, info: &ssj_runtime::TaskInfo) {
        self.inner.prepare(info);
    }

    fn execute(&mut self, msg: Msg, out: &mut ssj_runtime::Outbox<Msg>) {
        self.inner.execute(msg, out);
    }

    fn on_punct(&mut self, window: u64, out: &mut ssj_runtime::Outbox<Msg>) {
        self.inner.on_punct(window, out);
        let counts = self.docs.iter().map(Arc::strong_count).collect();
        self.log.lock().unwrap().push(counts);
    }
}

/// A frozen pane is a bare FP-tree of ids: once a sliding joiner has
/// drained its copies, every routed handle is released, though the pane
/// stays in the lookback and still joins the later panes.
#[test]
fn a_sliding_joiner_releases_each_copy_after_its_drain() {
    const PANE: usize = 3;
    let dict = Dictionary::new();
    let docs: Arc<Vec<Arc<Document>>> = Arc::new(
        (0..4 * PANE as u64)
            .map(|id| Arc::new(Document::from_json(DocId(id), r#"{"k":"v"}"#, &dict).unwrap()))
            .collect(),
    );
    let msgs = docs
        .iter()
        .map(|doc| Msg::Copy {
            doc: Arc::clone(doc),
            targets: 1,
        })
        .collect();
    let feed = std::sync::Mutex::new(Some(msgs));
    let cfg = StreamJoinConfig::default()
        .with_m(1)
        .with_window_spec(WindowSpec::sliding(PANE, 3))
        .with_expansion(false)
        .build()
        .unwrap();
    let log = Arc::new(std::sync::Mutex::new(Vec::new()));
    let (joiner_docs, joiner_log) = (Arc::clone(&docs), Arc::clone(&log));
    let sink = CollectorBolt::new();
    let got = sink.handle();
    let topology = TopologyBuilder::new()
        .batch_size(1)
        .spout("feed", 1, move |_| {
            let msgs = feed.lock().unwrap().take().expect("one feed");
            Box::new(VecSpout::with_punctuation(msgs, PANE))
        })
        .bolt("joiner", 1, move |_| {
            Box::new(CountedJoiner {
                inner: Joiner::new(cfg.clone()),
                docs: Arc::clone(&joiner_docs),
                log: Arc::clone(&joiner_log),
            })
        })
        .subscribe("feed", Grouping::Shuffle)
        .done()
        .bolt("sink", 1, move |_| Box::new(sink.clone()))
        .subscribe("joiner", Grouping::Global)
        .done()
        .build()
        .unwrap();
    ssj_runtime::run(topology).unwrap();

    let log = log.lock().unwrap();
    assert!(log.len() >= 4, "{} boundaries", log.len());
    for (b, counts) in log.iter().take(4).enumerate() {
        let drained = &counts[..(b + 1) * PANE];
        assert!(
            drained.iter().all(|&n| n == 1),
            "boundary {b}: handles left {counts:?}"
        );
    }
    // Pane 3 still joins pane 1, two panes back: its tree is in the ring.
    let pane_3: Vec<_> = got
        .take()
        .into_iter()
        .filter_map(|msg| match msg {
            Msg::JoinStats {
                window: 3, pairs, ..
            } => Some(pairs),
            _ => None,
        })
        .flatten()
        .collect();
    assert!(
        pane_3.contains(&(DocId(PANE as u64), DocId(3 * PANE as u64))),
        "{pane_3:?}"
    );
}
