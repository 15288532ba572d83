//! Scale-out partitioning on NoBench-style data (§VI-B, §VII).
//!
//! NoBench documents all carry a Boolean attribute — without attribute-value
//! expansion no partitioning scheme can use more than two machines. This
//! example runs the lock-step topology over an nbData stream for each
//! partitioner (AG / SC / DS), with and without expansion, and prints the
//! §VII-C quality metrics side by side.
//!
//! ```text
//! cargo run --release --example nobench_scaleout
//! ```

use schema_free_stream_joins::ssj_core::{StreamJoinConfig, WindowSpec};
use schema_free_stream_joins::ssj_data::{NoBenchConfig, NoBenchGen};
use schema_free_stream_joins::ssj_json::Dictionary;
use schema_free_stream_joins::ssj_partition::{Expansion, PartitionerKind};

fn main() {
    let m = 8;
    let window = 1_000;
    let windows = 5;

    // Show the detected expansion first.
    let dict = Dictionary::new();
    let sample = NoBenchGen::new(NoBenchConfig::default(), dict.clone()).take_docs(window);
    match Expansion::detect(&sample, &dict, m) {
        Some(exp) => {
            let chain: Vec<String> = exp.chain.iter().map(|&a| dict.attr_name(a)).collect();
            println!(
                "detected disabling/combining chain: {} (synthetic attribute '{}', pna = {:.3})",
                chain.join(" + "),
                dict.attr_name(exp.synth_attr),
                exp.pna
            );
        }
        None => println!("no expansion needed (enough value variety)"),
    }

    println!(
        "\n{:<6} {:<10} {:>12} {:>12} {:>10} {:>14}",
        "algo", "expansion", "replication", "gini", "max load", "repartitions %"
    );
    for kind in PartitionerKind::all() {
        for expansion in [true, false] {
            let dict = Dictionary::new();
            let docs =
                NoBenchGen::new(NoBenchConfig::default(), dict.clone()).take_docs(window * windows);
            let cfg = StreamJoinConfig::default()
                .with_m(m)
                .with_window_spec(WindowSpec::tumbling(window))
                .with_partitioner(kind)
                .with_expansion(expansion)
                .build()
                .unwrap();
            let panes = docs.chunks(window).map(<[_]>::to_vec).collect();
            let q = ssj_bench::measure(cfg, &dict, panes);
            println!(
                "{:<6} {:<10} {:>12.3} {:>12.3} {:>10.3} {:>14.1}",
                kind.name(),
                if expansion { "on" } else { "off" },
                q.mean_replication(),
                q.mean_load_balance(),
                q.mean_max_load(),
                q.repartition_fraction() * 100.0
            );
        }
    }
    println!(
        "\nNote how, without expansion, every algorithm degenerates: the\n\
         Boolean attribute leaves at most two usable partitions, so documents\n\
         pile onto one or two machines (max load → 1) no matter the scheme."
    );
}
