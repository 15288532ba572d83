//! Regression test: the Assigner's view-fingerprint route cache stores
//! masks that are unions over {current table} ∪ {retained pane tables}.
//! When a retained table falls out of the sliding lookback at a pane
//! boundary — with no new table deploy to trigger the usual invalidation —
//! the cache must be dropped too, or a stale union mask keeps routing to
//! partitions only the evicted pane's table justified.
//!
//! The scenario drives a bare Assigner through a scripted message
//! sequence (tables deployed by hand, punctuation at exact points) and
//! observes the routed targets directly — and that every copy's shipped
//! target mask names exactly the joiners the document reached.

use ssj_core::assign::Assigner;
use ssj_core::{Msg, StreamJoinConfig, TableMsg, WindowSpec};
use ssj_json::{AvpId, Dictionary, DocId, Document};
use ssj_partition::{home_bit, PartitionTable};
use ssj_runtime::{run, Bolt, Grouping, Outbox, Spout, SpoutEmit, TaskInfo, TopologyBuilder};
use std::sync::{Arc, Mutex};

/// A spout replaying a scripted mix of messages and punctuation tokens.
struct ScriptSpout {
    script: std::vec::IntoIter<SpoutEmit<Msg>>,
}

impl Spout<Msg> for ScriptSpout {
    fn next(&mut self) -> SpoutEmit<Msg> {
        self.script.next().unwrap_or(SpoutEmit::Done)
    }
}

/// Records which sink task each document lands on, with the copy's mask.
struct RouteSink {
    task: usize,
    log: Arc<Mutex<Vec<(u64, usize, u64)>>>,
}

impl Bolt<Msg> for RouteSink {
    fn prepare(&mut self, info: &TaskInfo) {
        self.task = info.task_index;
    }

    fn execute(&mut self, msg: Msg, _out: &mut Outbox<Msg>) {
        if let Msg::Copy { doc, targets } = msg {
            self.log
                .lock()
                .unwrap()
                .push((doc.id().0, self.task, targets));
        }
    }
}

fn table_for(m: usize, window: u64, avp: AvpId, partition: u32) -> Msg {
    let mut table = PartitionTable::empty(m);
    table.add_avp(partition, avp);
    Msg::Table(Arc::new(TableMsg {
        window,
        table,
        expansion: None,
    }))
}

/// Targets of each document, sorted, keyed by document id. Every copy of
/// it must carry exactly that set as its mask.
fn targets_of(log: &[(u64, usize, u64)], id: u64) -> Vec<usize> {
    let copies: Vec<(usize, u64)> = log
        .iter()
        .filter(|(d, ..)| *d == id)
        .map(|&(_, task, mask)| (task, mask))
        .collect();
    let reached = copies.iter().fold(0u64, |m, &(task, _)| m | 1 << task);
    for &(task, mask) in &copies {
        assert_eq!(mask, reached, "d{id}: the copy to {task} ships {mask:#b}");
    }
    let mut t: Vec<usize> = copies.into_iter().map(|(task, _)| task).collect();
    t.sort_unstable();
    t
}

#[test]
fn pane_expiry_invalidates_cached_route_masks() {
    let m = 2;
    // Two-pane lookback: a retired table expires two punctuations after
    // the deploy that superseded it.
    let config = StreamJoinConfig::default()
        .with_m(m)
        .with_window_spec(WindowSpec::sliding(4, 2))
        .with_assigners(1)
        .with_expansion(false)
        .with_batch_size(1)
        .build()
        .unwrap();

    let dict = Dictionary::new();
    let probe = dict.clone();

    // Pane 0: T1 maps the pair to partition 0 and supersedes the empty
    // bootstrap table, which is retained and adds the pair's home; d0
    // routes to both and the view's mask is cached. Pane 1: T2 (pair → partition 1) supersedes
    // T1, which is retained; d1 and d2 route to the union {0, 1}. After
    // punctuation 2, T1's last pane (1) leaves the 2-pane lookback, so d3
    // must route to partition 1 alone — a stale cached union would still
    // include partition 0.
    let script = {
        let dict = dict.clone();
        move || {
            let doc =
                |id: u64| Arc::new(Document::from_json(DocId(id), r#"{"k":"v"}"#, &dict).unwrap());
            let v: AvpId = doc(0).avps().next().unwrap();
            vec![
                SpoutEmit::Message(table_for(m, 0, v, 0)),
                SpoutEmit::Message(Msg::Doc(doc(0))),
                SpoutEmit::Punctuate(0),
                SpoutEmit::Message(table_for(m, 1, v, 1)),
                SpoutEmit::Message(Msg::Doc(doc(1))),
                SpoutEmit::Punctuate(1),
                SpoutEmit::Message(Msg::Doc(doc(2))),
                SpoutEmit::Punctuate(2),
                SpoutEmit::Message(Msg::Doc(doc(3))),
                SpoutEmit::Punctuate(3),
            ]
        }
    };

    let log: Arc<Mutex<Vec<(u64, usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_log = Arc::clone(&log);
    let topology = TopologyBuilder::new()
        .batch_size(1)
        .spout("feed", 1, move |_| {
            Box::new(ScriptSpout {
                script: script().into_iter(),
            })
        })
        .bolt("assigner", 1, move |_| {
            Box::new(Assigner::new(config.clone(), dict.clone()))
        })
        .subscribe("feed", Grouping::Shuffle)
        .done()
        .bolt("sink", m, move |_| {
            Box::new(RouteSink {
                task: 0,
                log: Arc::clone(&sink_log),
            })
        })
        .subscribe("assigner", Grouping::Direct)
        .done()
        .build()
        .unwrap();
    run(topology).unwrap();

    let log = log.lock().unwrap();
    let v = Document::from_json(DocId(0), r#"{"k":"v"}"#, &probe).unwrap();
    let home = home_bit(probe.content_hashes().of(v.avps().next().unwrap()), m);
    let d0: Vec<usize> = (0..m).filter(|&p| (1 | home) >> p & 1 != 0).collect();
    assert_eq!(
        targets_of(&log, 0),
        d0,
        "d0: T1 plus the empty table's home"
    );
    assert_eq!(
        targets_of(&log, 1),
        vec![0, 1],
        "d1: T2 plus retained T1 (pane 1 still in lookback)"
    );
    assert_eq!(
        targets_of(&log, 2),
        vec![0, 1],
        "d2: T1's last pane is still within the 2-pane lookback"
    );
    assert_eq!(
        targets_of(&log, 3),
        vec![1],
        "d3: T1 expired at punctuation 2 — a stale cached mask must not \
         route to partition 0"
    );
}
