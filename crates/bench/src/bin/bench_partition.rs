//! Partitioning-pipeline benchmark: the from-scratch group build a
//! PartitionCreator runs when a (re)partitioning is pending, Merger
//! consolidation, and static-table routing (the legacy allocating route vs
//! the zero-alloc `route_into()` + fingerprint-cache fast path).
//!
//! The `route/*` rows time `PartitionTable::route_into`, a table's static
//! path, which only this benchmark's replay calls. They are not the
//! Assigner's routing cost: the Assigner routes through `Router::route`
//! (`PartitionTable::route_mask` plus hash homes for the pairs the table
//! does not know), which only `--audit` exercises here, for allocations,
//! not for time.
//!
//! Modes:
//! * no args: run the smoke *and* full suites, verify the claim that fast
//!   routing beats legacy routing, and write `BENCH_partition.json` at the
//!   repository root;
//! * `--smoke`: only the fast suite, same file, same claim check;
//! * `--check FILE`: rerun the smoke suite (twice if need be), print every
//!   rate next to the baseline's in FILE, and exit non-zero if the
//!   in-process ratio of fast over legacy routing stays below 0.75x of the
//!   baseline's. It does *not* run the claim check: only the two modes
//!   above enforce it;
//! * `--audit` (requires `--features count-allocs`): route a warmed
//!   workload — table views, then rw documents through the Assigner's
//!   `Router::route` with a §VI-B expansion deployed — and exit non-zero if
//!   either route path performs any heap allocation per document, or if
//!   cloning or dropping a `PartitionTable` (5 k and 50 k pairs) allocates
//!   or frees more than `m` plus a constant blocks.
//!
//! The JSON is one measurement per line (see `ssj_bench::report`); for the
//! `route/*/fast` rows the `avg_batch` field carries the speedup factor
//! over the corresponding legacy row.

use ssj_bench::report::{best_of, check_ratios, write_report, Measurement};
use ssj_bench::DataSet;
use ssj_json::AvpId;
use ssj_partition::{
    assign_groups, association_groups, fingerprint_view, merge_and_assign, PartitionTable,
    RouteOutcome, RouteScratch, View,
};
use std::time::Instant;

#[cfg(feature = "count-allocs")]
use ssj_bench::alloc_counter;

const M: usize = 8;

/// Partitioning views of `n` dataset documents.
fn dataset_views(dataset: DataSet, n: usize) -> Vec<View> {
    let (_dict, docs) = dataset.generate(n, 42);
    docs.iter().map(|d| d.avps().collect()).collect()
}

fn measure(id: String, items: u64, secs: f64, secondary: f64) -> Measurement {
    Measurement {
        id,
        tuples_per_sec: items as f64 / secs,
        tuples: items,
        secs,
        avg_batch: secondary,
    }
}

/// The from-scratch group build over one window share.
fn group_build(dataset: DataSet, views: &[View], reps: usize) -> Measurement {
    best_of(reps, || {
        let t0 = Instant::now();
        let groups = association_groups(views);
        measure(
            format!("groups/{}/batch", dataset.label()),
            views.len() as u64,
            t0.elapsed().as_secs_f64(),
            groups.len() as f64,
        )
    })
}

/// Merger consolidation of per-creator local groups.
fn merge_bench(dataset: DataSet, views: &[View], reps: usize) -> Measurement {
    let half = views.len() / 2;
    let locals = vec![
        association_groups(&views[..half]),
        association_groups(&views[half..]),
    ];
    let group_count: u64 = locals.iter().map(|l| l.len() as u64).sum();
    best_of(reps, || {
        let t0 = Instant::now();
        let iters = 20;
        let mut pairs = 0usize;
        for _ in 0..iters {
            pairs += merge_and_assign(locals.clone(), M).pair_count();
        }
        let secs = t0.elapsed().as_secs_f64();
        assert!(pairs > 0);
        measure(
            format!("merge/{}", dataset.label()),
            group_count * iters,
            secs,
            0.0,
        )
    })
}

/// Route `passes` passes over the views the legacy way — what the
/// allocating reference `PartitionTable::route` does: a fresh target vector
/// per view from the per-pair lists, sorted and deduplicated.
fn route_legacy(table: &PartitionTable, views: &[View], passes: usize) -> (u64, f64) {
    let t0 = Instant::now();
    let mut sends = 0u64;
    for _ in 0..passes {
        for v in views {
            let mut targets: Vec<u32> = Vec::new();
            for &avp in v {
                targets.extend_from_slice(table.partitions_of(avp));
            }
            targets.sort_unstable();
            targets.dedup();
            sends += (if targets.is_empty() { M } else { targets.len() }) as u64;
        }
    }
    (sends, t0.elapsed().as_secs_f64())
}

/// The Assigner's fast path: fingerprint cache, bitmask accumulation, and
/// the reusable scratch buffer. Zero allocations per document once warm.
fn route_fast(
    table: &PartitionTable,
    views: &[View],
    passes: usize,
    scratch: &mut RouteScratch,
) -> (u64, f64) {
    let t0 = Instant::now();
    let mut sends = 0u64;
    for _ in 0..passes {
        for v in views {
            sends += route_one_fast(table, v, scratch);
        }
    }
    (sends, t0.elapsed().as_secs_f64())
}

/// One fast-path route; returns the fanout.
fn route_one_fast(table: &PartitionTable, view: &[AvpId], scratch: &mut RouteScratch) -> u64 {
    let fp = fingerprint_view(view.iter().copied());
    if let Some((mask, _)) = scratch.cache_get(fp) {
        scratch.set_targets_from_mask(mask);
        return scratch.targets().len() as u64;
    }
    match table.route_into(view, scratch) {
        RouteOutcome::Matched => {
            let mask = table.view_mask(view);
            // Only fully-known views are cacheable; the creation batch is
            // fully covered, so every view here qualifies.
            if view.iter().all(|&a| table.avp_mask(a) != 0) {
                scratch.cache_put(fp, mask, false);
            }
            scratch.targets().len() as u64
        }
        RouteOutcome::Broadcast => M as u64,
    }
}

fn route_bench(dataset: DataSet, views: &[View], passes: usize, reps: usize) -> Vec<Measurement> {
    let table = assign_groups(association_groups(views), M);
    let docs = (views.len() * passes) as u64;
    let legacy = best_of(reps, || {
        let (sends, secs) = route_legacy(&table, views, passes);
        assert!(sends >= docs);
        measure(format!("route/{}/legacy", dataset.label()), docs, secs, 0.0)
    });
    let fast = best_of(reps, || {
        let mut scratch = RouteScratch::new();
        let (sends, secs) = route_fast(&table, views, passes, &mut scratch);
        assert!(sends >= docs);
        measure(format!("route/{}/fast", dataset.label()), docs, secs, 0.0)
    });
    // Cross-check: both paths fan out identically.
    let (a, _) = route_legacy(&table, views, 1);
    let mut scratch = RouteScratch::new();
    let (b, _) = route_fast(&table, views, 1, &mut scratch);
    assert_eq!(a, b, "fast route disagrees with legacy route");
    let speedup = fast.tuples_per_sec / legacy.tuples_per_sec;
    let fast = Measurement {
        avg_batch: speedup,
        ..fast
    };
    vec![legacy, fast]
}

struct SuiteSize {
    group_views: usize,
    route_passes: usize,
    reps: usize,
}

// Five reps keep the fastest run stable enough for the 20% regression
// gate on a shared machine (same policy as bench_runtime's smoke suite).
const SMOKE: SuiteSize = SuiteSize {
    group_views: 2_000,
    route_passes: 20,
    reps: 5,
};

const FULL: SuiteSize = SuiteSize {
    group_views: 6_000,
    route_passes: 40,
    reps: 3,
};

fn run_suite(name: &str, size: &SuiteSize) -> Vec<Measurement> {
    let mut out = Vec::new();
    for dataset in DataSet::all() {
        let views = dataset_views(dataset, size.group_views);
        out.push(group_build(dataset, &views, size.reps));
        out.push(merge_bench(dataset, &views, size.reps));
        out.extend(route_bench(dataset, &views, size.route_passes, size.reps));
    }
    for m in &out {
        println!(
            "{name}: {} -> {:.0}/s ({} items in {:.3}s{})",
            m.id,
            m.tuples_per_sec,
            m.tuples,
            m.secs,
            if m.avg_batch > 0.0 {
                format!(", x{:.2}", m.avg_batch)
            } else {
                String::new()
            }
        );
    }
    out
}

/// The routing claim, applied to a suite's measurements. Returns `false`
/// (after printing why) if it fails.
fn verify_claims(ms: &[Measurement]) -> bool {
    let find = |id: &str| ms.iter().find(|m| m.id == id);
    let mut ok = true;
    for dataset in DataSet::all() {
        let l = dataset.label();
        if let Some(fast) = find(&format!("route/{l}/fast")) {
            println!("claim route/{l}: fast {:.2}x legacy", fast.avg_batch);
            if fast.avg_batch < 1.0 {
                eprintln!(
                    "CLAIM FAILED: route/{l} fast path {:.2}x < 1x",
                    fast.avg_batch
                );
                ok = false;
            }
        }
    }
    ok
}

const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_partition.json");

/// `--check`: the ratio a suite measures inside one process, per dataset —
/// fast over legacy routing — against the committed baseline's. The routing
/// claim (fast ≥ legacy: [`verify_claims`]) is *not* checked here — the full
/// and `--smoke` runs enforce it when a baseline is recorded.
fn check(baseline_path: &str) -> i32 {
    let pairs: Vec<(String, String)> = DataSet::all()
        .iter()
        .map(|d| {
            let l = d.label();
            (format!("route/{l}/fast"), format!("route/{l}/legacy"))
        })
        .collect();
    check_ratios(baseline_path, &pairs, || run_suite("smoke", &SMOKE))
}

/// Allocation audit: the route fast path must not touch the heap once the
/// scratch and cache are warm, and a table copy or drop (a `Table`
/// decoded off the wire, the Assigner swapping tables) must cost O(m) heap blocks
/// whatever the pair count.
fn audit() -> i32 {
    #[cfg(not(feature = "count-allocs"))]
    {
        eprintln!("--audit requires building with --features count-allocs");
        2
    }
    #[cfg(feature = "count-allocs")]
    {
        let views = dataset_views(DataSet::RwData, 2_000);
        let table = assign_groups(association_groups(&views), M);
        let mut scratch = RouteScratch::new();
        // Warm pass: fills the cache and grows the scratch buffers.
        let _ = route_fast(&table, &views, 1, &mut scratch);
        let routes = (views.len() * 10) as u64;
        let before = alloc_counter::allocations();
        let (sends, _) = route_fast(&table, &views, 10, &mut scratch);
        let allocs = alloc_counter::allocations() - before;
        assert!(sends > 0);
        println!("audit: {allocs} allocations across {routes} warmed routes");
        let mut ok = allocs == 0;
        if ok {
            println!("route path is allocation-free");
        } else {
            eprintln!("route path allocated {allocs} times in {routes} routes");
        }
        ok &= audit_router();
        // Loads, the member list, the mask map and the SC order: a handful
        // of blocks beside the m member vectors.
        use ssj_partition::MAX_PARTITIONS;
        let bound = MAX_PARTITIONS as u64 + 8;
        for pairs in [5_000, 50_000] {
            let table = wide_table(pairs);
            let before = alloc_counter::allocations();
            let copy = table.clone();
            let allocs = alloc_counter::allocations() - before;
            let before = alloc_counter::frees();
            drop(copy);
            let frees = alloc_counter::frees() - before;
            println!(
                "audit: a {pairs}-pair table at m = {MAX_PARTITIONS} clones in {allocs} \
                 allocations and drops in {frees} frees (bound {bound})"
            );
            if allocs > bound || frees > bound {
                eprintln!("a {pairs}-pair table copy or drop is not O(m)");
                ok = false;
            }
        }
        i32::from(!ok)
    }
}

/// The Assigner's path: rw documents through `Router::route` with an
/// expansion deployed, the table built over the first half of them, so
/// the second half's new pairs go to their homes. Once the route scratch
/// has memoised every chain combination, forming a view renders nothing
/// and allocates nothing, and a home costs a dictionary read.
#[cfg(feature = "count-allocs")]
fn audit_router() -> bool {
    use ssj_core::{assign::Router, StreamJoinConfig, TableMsg};
    use ssj_partition::{batch_views, Expansion};
    use std::sync::Arc;
    let (dict, docs) = DataSet::RwData.generate(2_000, 42);
    let exp = Expansion::detect(&docs, &dict, M).expect("rwData needs an expansion at m = 8");
    let views: Vec<View> = batch_views(&docs[..1_000], Some(&exp), &dict)
        .into_iter()
        .flatten()
        .collect();
    let table = assign_groups(association_groups(&views), M);
    let config = StreamJoinConfig::default().with_m(M).build().unwrap();
    let mut router = Router::new(&config);
    router.deploy(Arc::new(TableMsg {
        window: 0,
        table,
        expansion: Some(exp),
    }));
    // Warm pass: memoises the synthetic pairs and fills the route cache.
    let mut sends = 0;
    for d in &docs {
        sends += router.route(d, &dict).count_ones() as usize;
    }
    assert!(sends > 0);
    let before = alloc_counter::allocations();
    for _ in 0..10 {
        for d in &docs {
            sends += router.route(d, &dict).count_ones() as usize;
        }
    }
    let allocs = alloc_counter::allocations() - before;
    let routes = docs.len() * 10;
    println!("audit: {allocs} allocations across {routes} warmed expanded routes ({sends} sends)");
    if allocs != 0 {
        eprintln!("the expanded route path allocated {allocs} times in {routes} routes");
    }
    allocs == 0
}

/// A table of `pairs` pairs over 64 partitions, groups of five, with every
/// tenth pair also on a second partition (SC-style).
#[cfg(feature = "count-allocs")]
fn wide_table(pairs: u32) -> PartitionTable {
    use ssj_partition::{AssociationGroup, MAX_PARTITIONS};
    let groups = (0..pairs / 5)
        .map(|g| AssociationGroup {
            avps: (g * 5..g * 5 + 5).map(AvpId).collect(),
            load: 1 + g as usize % 7,
        })
        .collect();
    let mut table = assign_groups(groups, MAX_PARTITIONS);
    for a in (0..pairs).step_by(10) {
        let p = table.partitions_of(AvpId(a))[0];
        table.add_avp((p + 1) % MAX_PARTITIONS as u32, AvpId(a));
    }
    assert_eq!(table.pair_count(), pairs as usize);
    table
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") => {
            let Some(path) = args.get(1) else {
                eprintln!("--check requires a baseline file path");
                std::process::exit(2);
            };
            std::process::exit(check(path));
        }
        Some("--smoke") => {
            let s = run_suite("smoke", &SMOKE);
            let ok = verify_claims(&s);
            write_report(REPORT_PATH, "partition", &[("smoke", &s)]);
            std::process::exit(i32::from(!ok));
        }
        Some("--audit") => std::process::exit(audit()),
        None => {
            let s = run_suite("smoke", &SMOKE);
            let f = run_suite("full", &FULL);
            let ok = verify_claims(&s) & verify_claims(&f);
            write_report(REPORT_PATH, "partition", &[("smoke", &s), ("full", &f)]);
            std::process::exit(i32::from(!ok));
        }
        Some(other) => {
            eprintln!(
                "unknown argument {other}; usage: bench_partition [--smoke | --audit | --check FILE]"
            );
            std::process::exit(2);
        }
    }
}
