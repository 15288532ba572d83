//! The traced run: everything behind the per-layer metrics.
//!
//! Four sources, all outside the end-to-end runs (which keep tracing off):
//! the single-threaded layer replay with its spans (`replay`), in-process
//! `run_topology` runs with the program's own metrics on, off, and off on
//! one pool worker, phase-B paced runs for the close-latency tail, and three
//! more CLI children for wall time, peak RSS and output size.

use crate::child::ChildRun;
use crate::metrics::Values;
use crate::replay::replay;
use crate::session::Session;
use crate::stats::{highest_supported_pct, median, percentile};
use crate::trace::Total;
use crate::workload::M;
use ssj_core::{run_topology, TopologyRunReport};
use ssj_runtime::{fn_bolt, run, Grouping, HistogramSnapshot, Outbox, TopologyBuilder, VecSpout};
use std::collections::BTreeMap;
use std::time::Instant;

/// Windows of the file the replay covers.
const REPLAY_WINDOWS: usize = 20;
/// Tuples pushed through the pass-through chain.
const HOP_TUPLES: u64 = 1_000_000;
/// Children of the traced run; `cli.*` are their medians.
const CLI_CHILDREN: usize = 3;
const COMPONENTS: [&str; 5] = ["creator", "merger", "assigner", "joiner", "reporter"];

/// What one metrics-on `run_topology` says about the components.
struct CoreSample {
    busy_us_per_doc: [f64; 5],
    joiner_recv_per_doc: f64,
    docs_skew: f64,
    pairs_skew: f64,
    probe_ms_p50: f64,
    /// Share of panes on which the creators recomputed groups.
    group_compute_share: f64,
}

/// Largest joiner total over the mean joiner total; 1 when nothing was
/// counted (no load, no skew).
fn skew(per_window: &[Vec<usize>]) -> f64 {
    let mut totals = [0usize; M];
    for w in per_window {
        for (j, &n) in w.iter().enumerate() {
            totals[j] += n;
        }
    }
    let sum: usize = totals.iter().sum();
    if sum == 0 {
        return 1.0;
    }
    *totals.iter().max().expect("m > 0") as f64 / (sum as f64 / M as f64)
}

fn core_sample(report: &TopologyRunReport, docs: f64) -> CoreSample {
    let rt = &report.runtime;
    let sum = |component: &str, counter: &str| -> f64 {
        rt.tasks
            .iter()
            .filter(|t| t.component == component)
            .map(|t| t.counter(counter))
            .sum::<u64>() as f64
    };
    // Pool the joiners' per-pane probe histograms before taking the median.
    let mut buckets: BTreeMap<u16, u64> = BTreeMap::new();
    let mut pooled = HistogramSnapshot {
        count: 0,
        sum_ns: 0,
        buckets: Vec::new(),
    };
    for h in rt
        .tasks
        .iter()
        .filter(|t| t.component == "joiner")
        .filter_map(|t| t.histogram("probe_ns"))
    {
        pooled.count += h.count;
        pooled.sum_ns += h.sum_ns;
        for &(i, c) in &h.buckets {
            *buckets.entry(i).or_default() += c;
        }
    }
    pooled.buckets = buckets.into_iter().collect();
    let puncts = rt
        .tasks
        .iter()
        .filter(|t| t.component == "creator")
        .map(|t| t.counter("puncts"))
        .max()
        .unwrap_or(0)
        .max(1) as f64;
    CoreSample {
        busy_us_per_doc: COMPONENTS.map(|c| sum(c, "busy_ns") / 1e3 / docs),
        joiner_recv_per_doc: sum("joiner", "received") / docs,
        docs_skew: skew(&report.docs_per_joiner),
        pairs_skew: skew(&report.pairs_per_joiner),
        probe_ms_p50: pooled.quantile_ns(0.5) as f64 / 1e6,
        group_compute_share: sum("creator", "group_computations") / puncts,
    }
}

/// Seconds one in-process `run_topology` over the session's stream takes.
fn timed_topology(
    s: &Session,
    metrics: bool,
    pool_workers: usize,
) -> Result<(f64, TopologyRunReport), String> {
    let docs = s.docs.clone();
    let t0 = Instant::now();
    let report = run_topology(s.w.config(metrics, pool_workers), &s.dict, docs)
        .map_err(|e| format!("{}: in-process run failed: {e}", s.w.name))?;
    Ok((t0.elapsed().as_secs_f64(), report))
}

/// A three-bolt pass-through chain at batch 64: what one hop between two
/// tasks costs when the bolts do nothing.
fn hop_chain() -> Result<(), String> {
    let pass = || fn_bolt(|x: u64, out: &mut Outbox<u64>| out.emit(x));
    let topology = TopologyBuilder::new()
        .batch_size(64)
        .spout("src", 1, |_| {
            VecSpout::boxed((0..HOP_TUPLES).collect::<Vec<u64>>())
        })
        .bolt("b1", 1, move |_| pass())
        .subscribe("src", Grouping::Shuffle)
        .done()
        .bolt("b2", 1, move |_| pass())
        .subscribe("b1", Grouping::Shuffle)
        .done()
        .bolt("b3", 1, |_| {
            fn_bolt(|x: u64, _out: &mut Outbox<u64>| {
                std::hint::black_box(x);
            })
        })
        .subscribe("b2", Grouping::Shuffle)
        .done()
        .build()
        .map_err(|e| format!("hop chain: {e}"))?;
    let report = run(topology).map_err(|e| format!("hop chain: {e}"))?;
    if report.received("b3") != HOP_TUPLES {
        return Err("hop chain lost tuples".to_owned());
    }
    Ok(())
}

/// Run phases C and the core/paced/CLI measurements for `s`, for about
/// `seconds` seconds of rounds, and return every per-layer metric.
pub fn traced_run(s: &mut Session, seconds: f64) -> Result<Values, String> {
    let w = s.w;
    let docs = s.docs.len() as f64;

    // ---- phase C: replay with spans, written out at the end of the phase.
    let text = std::fs::read_to_string(s.input_path()).map_err(|e| e.to_string())?;
    let panes = (REPLAY_WINDOWS * w.panes).min(s.panes());
    let mut rep = replay(w, &text, panes, &s.expected, &s.paths.out_dir.join("spill"))?;
    drop(text);
    rep.tracer
        .span("runtime.hop", "runtime", 0, 3 * HOP_TUPLES, hop_chain)?;
    let trace_path = s.paths.out_dir.join(format!("{}.trace.jsonl", w.name));
    rep.tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    s.attempted += rep.counts.panes;
    s.failed += rep.counts.mismatched_panes;
    let totals = rep.tracer.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let c = &rep.counts;

    // ---- core: metrics off / on / off on one pool worker, plus phase B,
    // round after round so drift hits all of them alike.
    let (mut off_s, mut on_s, mut w1_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples: Vec<CoreSample> = Vec::new();
    let t0 = Instant::now();
    while samples.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        off_s.push(timed_topology(s, false, 0)?.0);
        let (secs, report) = timed_topology(s, true, 0)?;
        on_s.push(secs);
        samples.push(core_sample(&report, docs));
        w1_s.push(timed_topology(s, false, 1)?.0);
        s.paced_rep()?;
    }
    let col = |f: &dyn Fn(&CoreSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());

    // ---- cli: three more children, for the numbers only a process has.
    let mut children = Vec::new();
    for _ in 0..CLI_CHILDREN {
        children.push(s.checked_child(true)?);
    }
    let of = |f: &dyn Fn(&ChildRun) -> f64| median(&children.iter().map(f).collect::<Vec<_>>());
    let wall_s = of(&|c| c.wall_s);
    let cpu_us_per_doc = of(&|c| c.cpu_s) * 1e6 / docs;

    let mut v = Values::per_layer();
    let rdocs = c.docs as f64;
    let parse = total("json.parse");
    let intern = total("json.intern");
    v.set("json.parse_ns_per_doc", parse.ns_per_item());
    v.set("json.intern_ns_per_doc", intern.ns_per_item());
    v.set(
        "json.parse_mb_per_s",
        c.input_bytes as f64 / 1e6 / (parse.self_ns as f64 / 1e9),
    );
    v.set("json.avps_per_doc", c.avps as f64 / rdocs);
    v.set("json.dict_pairs", c.dict_pairs as f64);

    let group_build = total("partition.group_build");
    let index_update = total("partition.index_update");
    let merge = total("partition.merge");
    let route = total("partition.route");
    v.set(
        "partition.group_build_ns_per_doc",
        group_build.ns_per_item(),
    );
    v.set(
        "partition.index_update_ns_per_doc",
        index_update.ns_per_item(),
    );
    v.set("partition.merge_ns_per_window", merge.ns_per_item());
    v.set("partition.route_ns_per_doc", route.ns_per_item());
    v.set(
        "partition.groups_per_window",
        c.groups as f64 / c.panes as f64,
    );
    v.set("partition.replication", c.sends as f64 / rdocs);
    v.set("partition.broadcast_share", c.broadcasts as f64 / rdocs);
    v.set("partition.load_gini", ssj_partition::gini(&c.per_partition));

    // `join_batch` interleaves probe and insert; a separate `FpTree::build`
    // over the same documents prices the insert half, the rest is probing.
    let join_batch = total("join.join_batch");
    let build = total("join.build");
    let frozen = total("join.frozen_probe");
    let routed = join_batch.items.max(1) as f64;
    v.set("join.build_ns_per_doc", build.ns_per_item());
    v.set(
        "join.probe_ns_per_doc",
        (join_batch.ns_per_item() - build.ns_per_item()).max(0.0),
    );
    v.set("join.frozen_probe_ns_per_doc", frozen.ns_per_item());
    v.set("join.pairs_per_doc", c.unique_pairs as f64 / rdocs);
    v.set("join.tree_nodes_per_doc", c.tree_nodes as f64 / routed);
    v.set("join.tree_bytes_per_doc", c.tree_bytes as f64 / routed);

    let hop = total("runtime.hop");
    let encode = total("runtime.encode");
    let decode = total("runtime.decode");
    let stats_codec = total("runtime.stats_codec");
    v.set("runtime.hop_ns_per_tuple", hop.ns_per_item());
    v.set("runtime.encode_ns_per_doc", encode.ns_per_item());
    v.set("runtime.decode_ns_per_doc", decode.ns_per_item());
    v.set("runtime.wire_bytes_per_doc", c.wire_bytes as f64 / routed);
    v.set("runtime.stats_codec_ns_per_pair", stats_codec.ns_per_item());

    for (i, component) in COMPONENTS.iter().enumerate() {
        v.set(
            &format!("core.{component}_busy_us_per_doc"),
            col(&|x| x.busy_us_per_doc[i]),
        );
    }
    let recv_per_doc = col(&|x| x.joiner_recv_per_doc);
    v.set("core.joiner_recv_per_doc", recv_per_doc);
    v.set("core.joiner_docs_skew", col(&|x| x.docs_skew));
    v.set("core.joiner_pairs_skew", col(&|x| x.pairs_skew));
    v.set("core.probe_ms_p50", col(&|x| x.probe_ms_p50));
    v.set("core.topology_docs_per_s", docs / median(&off_s));
    v.set("core.topology_docs_per_s.w1", docs / median(&w1_s));
    // On ÷ off − 1: what the program's own instrumentation costs, i.e. the
    // tracing overhead the end-to-end runs avoid by keeping it off.
    v.set(
        "core.metrics_overhead",
        median(&on_s) / median(&off_s) - 1.0,
    );
    v.set("core.close_ms_p90", percentile(&s.close_ms, 90.0));
    v.set("core.close_ms_p98", percentile(&s.close_ms, 98.0));
    v.set("core.close_ms_max", percentile(&s.close_ms, 100.0));
    v.set("core.close_samples", s.close_ms.len() as f64);
    v.set(
        "core.close_tail_pct",
        highest_supported_pct(s.close_ms.len()),
    );
    v.set("core.backlog_growth", median(&s.backlog));
    v.set(
        "core.spill_write_ns_per_doc",
        total("core.spill_write").ns_per_item(),
    );
    v.set(
        "core.spill_read_ns_per_doc",
        total("core.spill_read").ns_per_item(),
    );
    v.set("core.spill_bytes_per_doc", c.spill_bytes as f64 / rdocs);

    // ---- cli: do the layers add up to what the process burned?
    // Each term is a layer's replayed self time per item times how often a
    // document crosses that layer in the real run.
    let compute_share = col(&|x| x.group_compute_share);
    let per_routed = |t: Total| t.self_ns as f64 / routed;
    let mut attributed_ns = w.workers as f64 * (parse.ns_per_item() + intern.ns_per_item())
        + index_update.self_ns as f64 / rdocs
        + compute_share * (group_build.ns_per_item() + merge.self_ns as f64 / rdocs)
        + route.ns_per_item()
        + recv_per_doc * per_routed(join_batch)
        + hop.ns_per_item() * (2.0 + recv_per_doc);
    if w.is_sliding() {
        attributed_ns += recv_per_doc * (per_routed(build) + per_routed(frozen));
    }
    if w.workers > 1 {
        // Round-robin placement puts half the assigners and half the
        // joiners in the other process: half the reader→assigner tuples,
        // half the assigner→joiner tuples and half the result pairs cross.
        let remote = 1.0 - 1.0 / w.workers as f64;
        attributed_ns += remote
            * ((1.0 + recv_per_doc) * (encode.ns_per_item() + decode.ns_per_item())
                + c.candidate_pairs as f64 / rdocs * stats_codec.ns_per_item());
    }
    v.set("cli.wall_s", wall_s);
    v.set("cli.cpu_us_per_doc", cpu_us_per_doc);
    v.set("cli.peak_rss_mb", of(&|c| c.peak_rss_kb as f64) / 1024.0);
    v.set("cli.joins_out_mb", s.joins_bytes as f64 / 1e6);
    v.set(
        "cli.load_share",
        (parse.ns_per_item() + intern.ns_per_item()) * docs / 1e9 / wall_s,
    );
    v.set(
        "cli.attributed_cpu_share",
        attributed_ns / 1e3 / cpu_us_per_doc,
    );
    v.set("cli.replay_mismatched_panes", c.mismatched_panes as f64);
    v.set("cli.oracle_panes", s.oracle_panes as f64);
    v.set("cli.total_pairs", s.total_pairs() as f64);
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_is_max_over_mean() {
        assert_eq!(skew(&[vec![1, 1, 1, 1]]), 1.0);
        assert_eq!(skew(&[vec![4, 0, 0, 0], vec![0, 0, 0, 4]]), 2.0);
        assert_eq!(skew(&[vec![0, 0, 0, 0]]), 1.0);
        assert_eq!(skew(&[]), 1.0);
    }
}
