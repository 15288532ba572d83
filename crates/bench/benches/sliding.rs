//! Ablation: sliding windows (chained FP-tree panes, the paper's "ongoing
//! work") vs. a plain tumbling window of the same total size.

use criterion::{criterion_group, criterion_main, Criterion};
use ssj_bench::DataSet;
use ssj_join::{fpjoin, SlidingJoiner, WindowSpec};

fn bench_sliding(c: &mut Criterion) {
    let (_dict, docs) = DataSet::RwData.generate(4000, 42);

    let mut group = c.benchmark_group("sliding");
    group.sample_size(10);

    // Tumbling: windows of 1000 docs, batch join per window.
    group.bench_function("tumbling_1000", |b| {
        b.iter(|| {
            let mut pairs = 0usize;
            for window in docs.chunks(1000) {
                pairs += fpjoin::join_batch(window).1.len();
            }
            pairs
        })
    });

    // Sliding: 4 panes × 250 docs — same window span, per-document probing
    // across pane boundaries.
    group.bench_function("sliding_4x250", |b| {
        b.iter(|| {
            let mut joiner = SlidingJoiner::new(WindowSpec::sliding(250, 4));
            let mut partners = 0usize;
            for d in &docs {
                partners += joiner.insert_and_probe(d.clone()).len();
            }
            partners
        })
    });

    // Finer panes: more cross-pane probes, cheaper evictions.
    group.bench_function("sliding_8x125", |b| {
        b.iter(|| {
            let mut joiner = SlidingJoiner::new(WindowSpec::sliding(125, 8));
            let mut partners = 0usize;
            for d in &docs {
                partners += joiner.insert_and_probe(d.clone()).len();
            }
            partners
        })
    });

    group.finish();
}

criterion_group!(benches, bench_sliding);
criterion_main!(benches);
