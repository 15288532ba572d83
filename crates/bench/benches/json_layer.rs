//! Microbenchmarks of the JSON substrate: parsing, serialization,
//! flattening/interning, document ingest, and the pairwise join
//! compatibility test.
//!
//! Two corpora, because they load very differently. 1000 rwData lines
//! hold a few hundred distinct attribute-value pairs: after the first few
//! lines every pair is a dictionary hit. 20 000 nbData lines hold ~370 k
//! pairs of which ~150 k are distinct and new ones keep arriving (the
//! generator's fresh values): the large-vocabulary, miss-heavy traffic that
//! dominates `ssj run` on nbData.
//!
//! With `--features count-allocs` the run also audits the dictionary's
//! allocation behaviour: none on a hit, at most one per miss (it aborts
//! the bench if that regresses).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ssj_bench::DataSet;
use ssj_json::{flatten_value, parse, Dictionary, DocId, Document, DocumentReader, Scalar};

/// The dataset's first `n` documents as JSON Lines.
fn corpus(dataset: DataSet, n: usize) -> Vec<String> {
    let (dict, docs) = dataset.generate(n, 42);
    docs.iter().map(|d| d.to_json(&dict)).collect()
}

/// Intern every line, one `from_json` at a time; returns the pair count.
fn intern_lines(lines: &[String], dict: &Dictionary) -> usize {
    let mut n = 0;
    for (i, line) in lines.iter().enumerate() {
        n += Document::from_json(DocId(i as u64), line, dict)
            .unwrap()
            .len();
    }
    n
}

fn bench_ingest(c: &mut Criterion) {
    let lines = corpus(DataSet::NbData, 20_000);
    let file = lines.join("\n") + "\n";
    // Knows every pair of the corpus: loading into it is hit-only.
    let warm = Dictionary::new();
    intern_lines(&lines, &warm);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut group = c.benchmark_group("ingest_nb");
    group.throughput(Throughput::Bytes(file.len() as u64));
    group.bench_function("intern/miss_heavy", |b| {
        b.iter(|| intern_lines(&lines, &Dictionary::new()))
    });
    group.bench_function("intern/hit_only", |b| {
        b.iter(|| intern_lines(&lines, &warm))
    });
    let load = |dict: Dictionary, workers: usize| {
        let reader = DocumentReader::new(file.as_bytes(), dict, 0);
        let docs = match workers {
            1 => reader.collect(), // the one-block-at-a-time iterator
            _ => reader.read_all(),
        };
        docs.unwrap().len()
    };
    group.bench_function("load/miss_heavy/1_thread", |b| {
        b.iter(|| load(Dictionary::new(), 1))
    });
    group.bench_function("load/hit_only/1_thread", |b| {
        b.iter(|| load(warm.clone(), 1))
    });
    group.bench_function(format!("load/miss_heavy/{cores}_workers"), |b| {
        b.iter(|| load(Dictionary::new(), cores))
    });
    group.bench_function(format!("load/hit_only/{cores}_workers"), |b| {
        b.iter(|| load(warm.clone(), cores))
    });
    group.finish();

    audit_allocations(&lines);
}

/// With the counting allocator compiled in: interning a pair the dictionary
/// knows allocates nothing, interning a new one at most once (amortised it
/// is far less: a new key is appended to buffers that grow by doubling).
/// The keys are built beforehand; only the dictionary's work is counted.
fn audit_allocations(lines: &[String]) {
    let keys: Vec<(String, Scalar)> = lines
        .iter()
        .flat_map(|line| flatten_value(&parse(line).unwrap()).unwrap())
        .collect();
    let dict = Dictionary::new();
    #[cfg(feature = "count-allocs")]
    let count = |pass: Vec<(String, Scalar)>| {
        let before = ssj_bench::alloc_counter::allocations();
        for (attr, value) in pass {
            dict.intern(&attr, value);
        }
        ssj_bench::alloc_counter::allocations() - before
    };
    #[cfg(feature = "count-allocs")]
    {
        let on_misses = count(keys.clone());
        let misses = dict.attr_count() + dict.avp_count();
        let on_hits = count(keys.clone());
        println!(
            "dictionary allocations: {on_misses} for {misses} new keys among {} pairs, \
             {on_hits} for {} known pairs",
            keys.len(),
            keys.len()
        );
        assert!(
            on_misses <= misses as u64,
            "more than one allocation per miss"
        );
        assert_eq!(on_hits, 0, "a dictionary hit must not allocate");
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        // Exercise the same calls so both builds run identical code paths.
        for (attr, value) in keys {
            dict.intern(&attr, value);
        }
    }
}

fn bench_json(c: &mut Criterion) {
    // A realistic corpus: 1000 server-log lines as text.
    let dict = Dictionary::new();
    let (_, docs) = DataSet::RwData.generate(1000, 42);
    let lines = corpus(DataSet::RwData, 1000);
    let bytes: usize = lines.iter().map(String::len).sum();

    let mut group = c.benchmark_group("json");
    group.throughput(Throughput::Bytes(bytes as u64));
    group.bench_function("parse_1000_docs", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for line in &lines {
                n += parse(line).unwrap().len();
            }
            n
        })
    });
    group.bench_function("serialize_1000_docs", |b| {
        let values: Vec<_> = lines.iter().map(|l| parse(l).unwrap()).collect();
        b.iter(|| {
            let mut total = 0usize;
            for v in &values {
                total += v.to_json().len();
            }
            total
        })
    });
    group.bench_function("intern_1000_docs", |b| {
        b.iter(|| intern_lines(&lines, &dict))
    });
    group.finish();

    let mut group = c.benchmark_group("join_test");
    group.bench_function("check_join_all_pairs_200", |b| {
        let subset = &docs[..200];
        b.iter(|| {
            let mut joinable = 0usize;
            for (i, a) in subset.iter().enumerate() {
                for b in &subset[i + 1..] {
                    joinable += a.joins_with(b) as usize;
                }
            }
            joinable
        })
    });
    group.finish();
}

criterion_group!(benches, bench_json, bench_ingest);
criterion_main!(benches);
