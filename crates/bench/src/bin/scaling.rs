//! Beyond the paper: end-to-end throughput of the threaded Fig. 2 topology
//! on this machine, as a function of the number of Joiners (m). The local
//! join baselines are Fig. 11's (`figures`), timed outside the topology.
//!
//! ```text
//! cargo run -p ssj-bench --release --bin scaling [-- docs-per-run]
//! ```

use ssj_bench::DataSet;
use ssj_core::{run_topology, StreamJoinConfig};
use std::time::Instant;

fn main() {
    let docs_per_run: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let window = (docs_per_run / 8).max(100);

    println!("threaded topology throughput ({docs_per_run} docs, window {window})\n");
    println!(
        "{:<10} {:<6} {:>12} {:>12}",
        "dataset", "m", "seconds", "docs/sec"
    );
    for dataset in DataSet::all() {
        for m in [1usize, 2, 4, 8] {
            let (dict, docs) = dataset.generate(docs_per_run, 42);
            let cfg = StreamJoinConfig::default()
                .with_m(m)
                .with_window_spec(ssj_core::WindowSpec::tumbling(window))
                .with_partition_creators(2)
                .with_assigners(4)
                .build()
                .expect("valid scaling config");
            let t0 = Instant::now();
            let report = run_topology(cfg, &dict, docs).expect("run");
            let secs = t0.elapsed().as_secs_f64();
            let joins: usize = report.joins_per_window.iter().map(|w| w.len()).sum();
            println!(
                "{:<10} {:<6} {:>12.3} {:>12.0}   ({} join pairs)",
                dataset.label(),
                m,
                secs,
                docs_per_run as f64 / secs,
                joins
            );
        }
    }
}
