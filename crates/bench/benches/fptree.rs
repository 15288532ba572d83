//! FP-tree microbenchmarks: construction, probing, and the ablation of the
//! ubiquitous-attribute fast path (§V-B).
//!
//! The benchmarks are split into a *build* side (batch construction,
//! incremental insertion, and the Joiner's probe-then-insert batch join that
//! hands back the sealed tree) and a *probe* side (the three probing
//! strategies, including steady-state probing through a reused
//! [`fpjoin::ProbeScratch`]).
//! In bench mode the measured results are written to `BENCH_fptree.json`
//! at the repository root.
//!
//! With `--features count-allocs` a counting global allocator is installed
//! and the run additionally audits that steady-state probing — warmed
//! scratch plus reused output buffer — performs **zero** heap allocations
//! per probe (it aborts the bench if that regresses). The committed
//! baseline is generated with the feature on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssj_bench::DataSet;
use ssj_join::{fpjoin, FpTree};

#[cfg(feature = "count-allocs")]
use ssj_bench::alloc_counter;

fn bench_fptree(c: &mut Criterion) {
    for dataset in DataSet::all() {
        let (_dict, docs) = dataset.generate(2000, 42);

        let mut group = c.benchmark_group(format!("fptree/{}", dataset.label()));
        group.sample_size(10);

        // ----- build side ------------------------------------------------
        group.bench_function("build/2000", |b| b.iter(|| FpTree::build(&docs)));

        group.bench_with_input(BenchmarkId::new("build/insert", 2000), &docs, |b, docs| {
            b.iter(|| {
                let order = ssj_join::AttrOrder::compute(docs.iter());
                let mut tree = FpTree::new(order);
                for d in docs {
                    tree.insert(d);
                }
                tree.node_count()
            })
        });

        // What a Joiner pays per pane: one build, a probe before every
        // insert, scratch reused across panes.
        let mut batch = ssj_join::BatchJoiner::new();
        let mut pairs = Vec::new();
        group.bench_function("join_batch/2000", |b| {
            b.iter(|| {
                pairs.clear();
                batch.join_and_freeze(&docs, &mut pairs).node_count()
            })
        });

        // ----- probe side ------------------------------------------------
        let tree = FpTree::build(&docs);
        group.bench_function("probe_all/fast_path", |b| {
            b.iter(|| {
                let mut found = 0usize;
                for d in &docs {
                    found += fpjoin::probe_with_stats(&tree, d, true).0.len();
                }
                found
            })
        });
        // Ablation: the same probes without the ubiquitous-level shortcut.
        group.bench_function("probe_all/no_fast_path", |b| {
            b.iter(|| {
                let mut found = 0usize;
                for d in &docs {
                    found += fpjoin::probe_with_stats(&tree, d, false).0.len();
                }
                found
            })
        });
        // Steady state: conflict table, DFS stack and output buffer are all
        // reused across probes — the zero-allocation hot path.
        let mut scratch = fpjoin::ProbeScratch::new();
        let mut partners = Vec::new();
        group.bench_function("probe_all/scratch_reuse", |b| {
            b.iter(|| {
                let mut found = 0usize;
                for d in &docs {
                    fpjoin::probe_into(&tree, d, true, &mut scratch, &mut partners);
                    found += partners.len();
                }
                found
            })
        });
        group.finish();
    }
}

/// Run `probes` over the tree with warmed buffers and return the observed
/// allocations per probe, or `None` when the counting allocator is not
/// compiled in.
fn steady_state_allocs_per_probe(
    tree: &FpTree,
    docs: &[ssj_json::Document],
    scratch: &mut fpjoin::ProbeScratch,
    partners: &mut Vec<ssj_json::DocId>,
) -> Option<f64> {
    #[cfg(feature = "count-allocs")]
    {
        let before = alloc_counter::allocations();
        for d in docs {
            fpjoin::probe_into(tree, d, true, scratch, partners);
        }
        let after = alloc_counter::allocations();
        let per_probe = (after - before) as f64 / docs.len() as f64;
        assert_eq!(
            after - before,
            0,
            "steady-state probing must not allocate ({per_probe} allocs/probe observed)"
        );
        Some(per_probe)
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        // Exercise the same loop so both builds run identical code paths.
        for d in docs {
            fpjoin::probe_into(tree, d, true, scratch, partners);
        }
        None
    }
}

/// Audit steady-state allocations, then — in bench mode only — persist
/// every measurement of this run to `BENCH_fptree.json` at the repository
/// root. Runs last in the group so it sees the full measurement list.
/// Outside bench mode (`cargo test --bench fptree`, the `fptree alloc audit`
/// stage of `scripts/check.sh`) the audit still runs and nothing is written.
fn report(c: &mut Criterion) {
    let mut audits = String::new();
    for (i, dataset) in DataSet::all().iter().enumerate() {
        let (_dict, docs) = dataset.generate(2000, 42);
        let tree = FpTree::build(&docs);
        let mut scratch = fpjoin::ProbeScratch::new();
        let mut partners = Vec::new();
        // Warm-up grows every reusable buffer to its steady-state capacity.
        for d in &docs {
            fpjoin::probe_into(&tree, d, true, &mut scratch, &mut partners);
        }
        let per_probe = steady_state_allocs_per_probe(&tree, &docs, &mut scratch, &mut partners);
        let (counted, value) = match per_probe {
            Some(v) => {
                println!(
                    "fptree/{}: steady-state allocations per probe: {v}",
                    dataset.label()
                );
                ("true", format!("{v}"))
            }
            None => ("false", "null".to_owned()),
        };
        if i > 0 {
            audits.push_str(",\n");
        }
        audits.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"counted\": {counted}, \"allocs_per_probe\": {value}}}",
            dataset.label()
        ));
    }

    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let mut measurements = String::new();
    for (i, m) in c.measurements().iter().enumerate() {
        if i > 0 {
            measurements.push_str(",\n");
        }
        measurements.push_str(&format!(
            "    {{\"id\": \"{}\", \"ns_per_iter\": {:.1}, \"iters\": {}}}",
            m.id, m.ns_per_iter, m.iters
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"fptree\",\n  \"docs_per_dataset\": 2000,\n  \
         \"measurements\": [\n{measurements}\n  ],\n  \
         \"steady_state_allocs\": [\n{audits}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fptree.json");
    std::fs::write(path, json).expect("write BENCH_fptree.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_fptree, report);
criterion_main!(benches);
