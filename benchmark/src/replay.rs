//! Phase C: the single-threaded layer replay.
//!
//! The first panes of a workload's file go through the same steps a
//! document takes in the topology — parse → intern → views/groups →
//! merge/assign → route → per-partition join (+ frozen-pane probes) →
//! encode/decode → spill write/read — but one call at a time on one thread,
//! with a span around every call into a layer. Only public functions of the
//! leaf crates are called (the list is in README.md); nothing of
//! `core::pipeline`, `core::window`, `header_probe` or the legacy
//! route/scheduler paths is touched.
//!
//! Routing follows the Assigner's rules: pane `k` is routed with the table
//! built from pane `k-1` (pane 0 is broadcast), a view with a pair the table
//! does not know is broadcast, and for sliding windows the tables of the
//! previous `panes - 1` panes contribute extra targets. That keeps the
//! replayed join exact, which is checked: every replayed pane's pair set
//! must equal what the program itself wrote for that pane.

use crate::joins::{digest_pairs, WindowDigest};
use crate::trace::Tracer;
use crate::workload::{Workload, M};
use ssj_core::wire::dict_epoch;
use ssj_core::{Msg, MsgCodec, SpillSettings, SpillStore};
use ssj_join::{fp_probe_into, BatchJoiner, FpTree, JoinAlgo, ProbeScratch};
use ssj_json::{AvpId, Dictionary, DocId, Document};
use ssj_partition::{
    association_groups, batch_views, merge_and_assign, Expansion, GroupIndex, PartitionTable,
    RouteOutcome, RouteScratch, View,
};
use ssj_runtime::wire::{decode_frame, encode_frame, Frame, Payload};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Tuples per wire frame: the CLI's default `--batch`.
const BATCH: usize = 64;

/// Spans plus the exact counts taken at the same boundaries.
pub struct Replay {
    pub tracer: Tracer,
    pub counts: Counts,
}

/// Exact, seed-deterministic counts of one replay.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub docs: u64,
    pub panes: u64,
    pub input_bytes: u64,
    /// Attribute-value pairs over all replayed documents.
    pub avps: u64,
    /// Distinct pairs the dictionary held after loading.
    pub dict_pairs: u64,
    /// Association groups summed over panes.
    pub groups: u64,
    /// Document copies delivered to partitions (broadcasts count `m`).
    pub sends: u64,
    pub broadcasts: u64,
    pub per_partition: [usize; M],
    /// Result pairs after global deduplication / before it.
    pub unique_pairs: u64,
    pub candidate_pairs: u64,
    pub tree_nodes: u64,
    pub tree_bytes: u64,
    pub wire_bytes: u64,
    pub spill_bytes: u64,
    /// Replayed panes whose pair set differs from the program's output.
    pub mismatched_panes: u64,
}

/// A table as the Assigner holds it: the partitions plus the expansion the
/// views must be built with.
struct Deployed {
    table: PartitionTable,
    expansion: Option<Expansion>,
}

pub fn replay(
    w: &Workload,
    input: &str,
    panes: usize,
    expected: &[WindowDigest],
    spill_dir: &Path,
) -> Result<Replay, String> {
    let mut t = Tracer::new();
    let pane = w.pane_docs;
    let sliding = w.is_sliding();
    let dict = Dictionary::new();
    let mut r = Counts {
        panes: panes as u64,
        ..Counts::default()
    };

    // ---- load: parse + intern, pane by pane, as `load_docs` does up front.
    let mut lines = input.lines();
    let mut windows: Vec<Vec<Document>> = Vec::with_capacity(panes);
    for p in 0..panes {
        let chunk: Vec<&str> = lines.by_ref().take(pane).collect();
        if chunk.len() < pane {
            return Err(format!("{}: input shorter than {panes} panes", w.name));
        }
        let trace = p as u64;
        let first_id = (p * pane) as u64;
        let root = t.begin("replay.load", "bench", trace);
        let values = t
            .span("json.parse", "json", trace, pane as u64, || {
                chunk
                    .iter()
                    .map(|line| ssj_json::parse(line))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("{}: pane {p}: {e}", w.name))?;
        let docs = t
            .span("json.intern", "json", trace, pane as u64, || {
                values
                    .iter()
                    .zip(first_id..)
                    .map(|(v, id)| Document::from_value(DocId(id), v, &dict))
                    .collect::<Option<Vec<_>>>()
            })
            .ok_or_else(|| format!("{}: pane {p}: not a document", w.name))?;
        drop(values);
        t.end(root, pane as u64);
        r.input_bytes += chunk.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        r.avps += docs.iter().map(|d| d.len() as u64).sum::<u64>();
        windows.push(docs);
    }
    r.docs = (panes * pane) as u64;
    r.dict_pairs = dict.avp_count() as u64;

    // The codec and the spill epoch snapshot the fully loaded dictionary,
    // exactly when the real run takes them (after `load_docs`).
    let codec = MsgCodec::new(&dict);
    std::fs::create_dir_all(spill_dir).map_err(|e| format!("{}: {e}", spill_dir.display()))?;
    let store = SpillStore::new(
        Arc::new(SpillSettings {
            budget: 1 << 30,
            dir: spill_dir.to_path_buf(),
            epoch: dict_epoch(&dict),
        }),
        "replay",
    );

    let mut tables: VecDeque<Deployed> = VecDeque::new();
    let mut index = GroupIndex::new();
    let mut index_ring: VecDeque<Vec<u32>> = VecDeque::new();
    let mut frozen: Vec<VecDeque<FpTree>> = (0..M).map(|_| VecDeque::new()).collect();
    let mut batch = BatchJoiner::new();
    let mut probe_scratch = ProbeScratch::new();
    let mut partners: Vec<DocId> = Vec::new();
    let mut route_scratch = RouteScratch::new();
    let mut view: Vec<AvpId> = Vec::new();

    for (p, docs) in windows.iter().enumerate() {
        let trace = p as u64;
        let n = docs.len() as u64;
        let root = t.begin("replay.window", "bench", trace);

        // ---- creator, sliding: every arriving view enters the index.
        if sliding {
            let id = t.begin("partition.index_update", "partition", trace);
            let mut ids = Vec::with_capacity(docs.len());
            for d in docs {
                view.clear();
                view.extend(d.avps());
                ids.push(index.push(&view));
            }
            t.end(id, n);
            index_ring.push_back(ids);
        }

        // ---- assigner: route with the table of the previous pane.
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); M];
        let id = t.begin("partition.route", "partition", trace);
        for (i, d) in docs.iter().enumerate() {
            let matched = tables.back().is_some_and(|cur| {
                let have_view = match &cur.expansion {
                    Some(e) => e.view_into(d, &dict, &mut view),
                    None => {
                        view.clear();
                        view.extend(d.avps());
                        true
                    }
                };
                have_view
                    && view.iter().all(|&a| !cur.table.partitions_of(a).is_empty())
                    && cur.table.route_into(&view, &mut route_scratch) == RouteOutcome::Matched
            });
            if matched {
                // Retained tables of the sliding lookback only add targets.
                let extra = tables
                    .iter()
                    .rev()
                    .skip(1)
                    .fold(0u64, |mask, old| mask | old.table.view_mask(&view));
                if extra != 0 {
                    route_scratch.merge_targets((0..M as u32).filter(|p| extra >> p & 1 == 1));
                }
                for &part in route_scratch.targets() {
                    parts[part as usize].push(i as u32);
                }
            } else {
                r.broadcasts += 1;
                for part in parts.iter_mut() {
                    part.push(i as u32);
                }
            }
        }
        t.end(id, n);

        // ---- joiners, one partition after the other.
        let mut window_pairs: Vec<(u64, u64)> = Vec::new();
        for (part, members) in parts.iter().enumerate() {
            let docs_p: Vec<Document> = members.iter().map(|&i| docs[i as usize].clone()).collect();
            let n_p = docs_p.len() as u64;
            r.sends += n_p;
            r.per_partition[part] += docs_p.len();

            let mut pairs = t.span("join.join_batch", "join", trace, n_p, || {
                batch.join_batch(JoinAlgo::FpTree, &docs_p)
            });
            if !frozen[part].is_empty() {
                let id = t.begin("join.frozen_probe", "join", trace);
                for tree in &frozen[part] {
                    for d in &docs_p {
                        fp_probe_into(tree, d, true, &mut probe_scratch, &mut partners);
                        pairs.extend(partners.iter().map(|&q| (q, d.id())));
                    }
                }
                t.end(id, n_p);
            }
            // A sliding joiner freezes the pane into a tree of its own; for
            // a tumbling window the same call only measures how much of
            // `join_batch` is tree construction.
            let tree = t.span("join.build", "join", trace, n_p, || FpTree::build(&docs_p));
            r.tree_nodes += tree.node_count() as u64;
            r.tree_bytes += tree.approx_bytes() as u64;
            if sliding {
                frozen[part].push_back(tree);
                while frozen[part].len() >= w.panes {
                    frozen[part].pop_front();
                }
            }
            r.candidate_pairs += pairs.len() as u64;
            window_pairs.extend(pairs.iter().map(|(a, b)| (a.0, b.0)));

            // ---- transport: what crossing a process boundary would cost.
            let msgs: Vec<Msg> = docs_p.into_iter().map(|d| Msg::Doc(Arc::new(d))).collect();
            let frames: Vec<Frame<Msg>> = msgs
                .chunks(BATCH)
                .map(|c| Frame {
                    target: part,
                    from: 0,
                    feedback: false,
                    payload: Payload::Batch(c.to_vec()),
                })
                .collect();
            let encoded: Vec<Vec<u8>> = t.span("runtime.encode", "runtime", trace, n_p, || {
                frames
                    .iter()
                    .map(|f| {
                        let mut buf = Vec::new();
                        encode_frame(f, &codec, &mut buf);
                        buf
                    })
                    .collect()
            });
            r.wire_bytes += encoded.iter().map(|b| b.len() as u64).sum::<u64>();
            let decoded = t.span("runtime.decode", "runtime", trace, n_p, || {
                encoded
                    .iter()
                    .all(|b| black_box(decode_frame(&b[4..], &codec)).is_ok())
            });
            // The joiner's result travels to the reporter as one message
            // carrying the whole pair list.
            let n_pairs = pairs.len() as u64;
            let stats = Frame {
                target: 0,
                from: part,
                feedback: false,
                payload: Payload::Data(Msg::JoinStats {
                    window: trace,
                    joiner: part,
                    docs: members.len(),
                    pairs,
                }),
            };
            let stats_ok = t.span("runtime.stats_codec", "runtime", trace, n_pairs, || {
                let mut buf = Vec::new();
                encode_frame(&stats, &codec, &mut buf);
                black_box(decode_frame(&buf[4..], &codec)).is_ok()
            });
            if !(decoded && stats_ok) {
                return Err(format!("{}: pane {p}: a frame did not decode", w.name));
            }
        }

        // ---- spill tier: one sealed run of this pane's documents.
        let copy = docs.clone();
        let segment = t
            .span("core.spill_write", "core", trace, n, || {
                store.write_segment(copy)
            })
            .map_err(|e| format!("spill write: {e}"))?;
        r.spill_bytes += segment.bytes();
        let back = t
            .span("core.spill_read", "core", trace, n, || segment.read_all())
            .map_err(|e| format!("spill read: {e}"))?;
        if back.len() != docs.len() {
            return Err(format!(
                "{}: pane {p}: spill read-back lost documents",
                w.name
            ));
        }
        drop((back, segment));

        // ---- creator + merger: the table the next pane is routed with.
        let (groups, expansion) = if sliding {
            let groups = t.span("partition.group_build", "partition", trace, n, || {
                index.association_groups()
            });
            let id = t.begin("partition.index_update", "partition", trace);
            while index_ring.len() >= w.panes {
                for view_id in index_ring.pop_front().unwrap_or_default() {
                    index.expire(view_id);
                }
            }
            t.end(id, 0);
            (groups, None)
        } else {
            t.span("partition.group_build", "partition", trace, n, || {
                let expansion = Expansion::detect(docs, &dict, M);
                let views: Vec<View> = batch_views(docs, expansion.as_ref(), &dict)
                    .into_iter()
                    .flatten()
                    .collect();
                (association_groups(&views), expansion)
            })
        };
        r.groups += groups.len() as u64;
        let table = t.span("partition.merge", "partition", trace, 1, || {
            merge_and_assign(vec![groups], M)
        });
        tables.push_back(Deployed { table, expansion });
        while tables.len() > w.panes {
            tables.pop_front();
        }

        let digest = digest_pairs(window_pairs);
        r.unique_pairs += digest.pairs;
        if expected.get(p) != Some(&digest) {
            r.mismatched_panes += 1;
        }
        t.end(root, n);
    }
    Ok(Replay {
        tracer: t,
        counts: r,
    })
}
