//! Not a test: prices the Joiner's per-pane work on a real stream, one
//! column per term of IBWJ's decomposition (order / insert / search, then
//! the sliding extras), in ns per routed copy. It produced the per-copy
//! table of EXPERIMENTS.md.
//!
//! ```text
//! SSJ_PROFILE_INPUT=benchmark/out/rw-sliding8.jsonl SSJ_PROFILE_PANE=750 \
//! SSJ_PROFILE_SHARE=0.79 SSJ_PROFILE_FROZEN=7 \
//!   cargo test --release -p ssj-join --test pane_profile -- --ignored --nocapture
//! ```
//!
//! A joiner's share of a pane is emulated by a deterministic sample of
//! `SSJ_PROFILE_SHARE` of its documents (1.0: a broadcast pane). The last
//! column joins each pane on arrival ([`OpenPane`], tree ordered by the pane
//! before) and reports how many arena nodes that stale order costs against
//! the batch-ordered tree. The frozen column probes the panes that column
//! closed, as the Joiner does: only where [`FrozenPane::may_join`] admits
//! the copy; it reports the probes that remain per copy.

use ssj_join::{fpjoin, AttrOrder, FpTree, FrozenPane, OpenPane};
use ssj_json::{Dictionary, DocId, Document};
use std::collections::VecDeque;
use std::time::Instant;

fn env<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
#[ignore = "profiling harness; needs SSJ_PROFILE_INPUT"]
fn pane_profile() {
    let path = std::env::var("SSJ_PROFILE_INPUT").expect("set SSJ_PROFILE_INPUT");
    let pane: usize = env("SSJ_PROFILE_PANE", 750);
    let share: f64 = env("SSJ_PROFILE_SHARE", 1.0);
    let frozen_panes: usize = env("SSJ_PROFILE_FROZEN", 0);
    let dict = Dictionary::new();
    let text = std::fs::read_to_string(&path).expect("read input");
    let docs = ssj_json::documents_from_jsonl(&text, &dict, 0).expect("parse input");
    let keep = |d: &Document| {
        (d.id().0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 / (1u64 << 24) as f64 <= share
    };
    let panes: Vec<Vec<Document>> = docs
        .chunks_exact(pane)
        .map(|p| p.iter().filter(|d| keep(d)).cloned().collect())
        .collect();
    let copies: usize = panes.iter().map(Vec::len).sum();

    // Three passes; the minimum per column is reported.
    let mut best = [f64::MAX; 6];
    let (mut nodes, mut live_nodes, mut bytes, mut pairs) = (0usize, 0usize, 0usize, 0usize);
    let (mut probes, mut unfiltered, mut disjoint, mut set_bytes) = (0usize, 0usize, 0usize, 0);
    for _ in 0..3 {
        let mut t = [0u128; 6];
        (
            nodes, live_nodes, bytes, pairs, probes, unfiltered, disjoint,
        ) = (0, 0, 0, 0, 0, 0, 0);
        let mut open = OpenPane::new();
        let mut live_pairs = Vec::new();
        let mut ring: VecDeque<FrozenPane> = VecDeque::new();
        let mut scratch = fpjoin::ProbeScratch::new();
        let mut partners: Vec<DocId> = Vec::new();
        for p in &panes {
            let t0 = Instant::now();
            let order = AttrOrder::compute(p);
            t[0] += t0.elapsed().as_nanos();

            let t0 = Instant::now();
            let mut tree = FpTree::new(order);
            for d in p {
                tree.insert(d);
            }
            tree.seal();
            t[1] += t0.elapsed().as_nanos();
            nodes += tree.node_count() - 1;
            bytes += tree.approx_bytes();

            let t0 = Instant::now();
            let (joined, found) = fpjoin::join_batch(p);
            t[2] += t0.elapsed().as_nanos();
            pairs += found.len();

            let t0 = Instant::now();
            for pane in &ring {
                for d in p.iter().filter(|d| pane.may_join(d)) {
                    fpjoin::probe_absent(pane.tree(), d, 0, true, &mut scratch, &mut partners);
                    pairs += partners.len();
                    probes += 1;
                }
            }
            t[3] += t0.elapsed().as_nanos();
            unfiltered += ring.len() * p.len();
            for pane in &ring {
                let shares = |d: &&Document| d.pairs().iter().any(|q| pane.pairs().contains(q.avp));
                disjoint += p.iter().filter(|d| !shares(d)).count();
            }

            let t0 = Instant::now();
            let rebuilt = FpTree::build(p);
            t[4] += t0.elapsed().as_nanos();
            assert_eq!(rebuilt.node_count(), joined.node_count());

            let t0 = Instant::now();
            live_pairs.clear();
            for d in p {
                open.join(d, 0, &mut live_pairs);
            }
            let live = open.close(true);
            t[5] += t0.elapsed().as_nanos();
            assert_eq!(live_pairs.len(), found.len());
            live_nodes += live.as_ref().map_or(0, |l| l.tree().node_count() - 1);
            set_bytes = set_bytes.max(live.as_ref().map_or(0, |l| l.pairs().approx_bytes()));

            if frozen_panes > 0 {
                ring.push_back(live.unwrap_or_default());
                if ring.len() > frozen_panes {
                    ring.pop_front();
                }
            }
        }
        for (b, t) in best.iter_mut().zip(t) {
            *b = b.min(t as f64 / copies as f64);
        }
    }
    let [order, insert, join, frozen, build, live] = best;
    println!(
        "{path}: {} panes of {pane} x share {share} = {:.0} docs/pane, {frozen_panes} frozen",
        panes.len(),
        copies as f64 / panes.len() as f64
    );
    println!(
        "per routed copy, ns: order {order:.0} | insert+seal {insert:.0} | join_batch {join:.0} \
         (probe-before-insert ~{:.0}) | {frozen_panes} frozen probes {frozen:.0} | \
         FpTree::build {build:.0} | open pane (join on arrival + close) {live:.0}",
        join - order - insert
    );
    println!(
        "arena nodes/doc {:.2} (open pane, previous pane's order: {:.2}) | tree bytes/doc {:.1} | \
         avps/doc {:.2} | pairs found {pairs}",
        nodes as f64 / copies as f64,
        live_nodes as f64 / copies as f64,
        bytes as f64 / copies as f64,
        panes.iter().flatten().map(Document::len).sum::<usize>() as f64 / copies as f64,
    );
    println!(
        "frozen probes/copy {:.2} of {:.2} without the pair-set test ({:.2} share no pair) | \
         pair set {set_bytes} B/pane",
        probes as f64 / copies as f64,
        unfiltered as f64 / copies as f64,
        disjoint as f64 / copies as f64,
    );
}
