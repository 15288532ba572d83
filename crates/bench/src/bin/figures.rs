//! Regenerate every figure of the paper's evaluation (§VII).
//!
//! ```text
//! cargo run -p ssj-bench --release --bin figures -- all
//! cargo run -p ssj-bench --release --bin figures -- fig6 fig11
//! cargo run -p ssj-bench --release --bin figures -- --dpm 500 --windows 10 fig8
//! cargo run -p ssj-bench --release --bin figures -- --join-scale 1.0 fig11   # paper-scale axis
//! ```
//!
//! Output is a plain-text table per sub-figure: rows are the x-axis of the
//! paper's plot, columns the competing algorithms. Every number comes from
//! the lock-step Fig. 2 topology (`ssj_bench::measure`).

use ssj_bench::{ideal_experiment, partition_experiment, print_table, DataSet, Scale};
use ssj_core::RunSummary;
use ssj_join::{split_timings, JoinAlgo};
use ssj_partition::PartitionerKind;
use std::collections::HashMap;

const MS: [usize; 4] = [5, 8, 10, 20];
const WS: [usize; 3] = [3, 6, 9];
const THETAS: [f64; 2] = [0.2, 0.6];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default();
    let mut figures: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dpm" => {
                scale.docs_per_minute = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--dpm needs a number");
            }
            "--windows" => {
                scale.windows = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--windows needs a number");
            }
            "--join-scale" => {
                scale.join_scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--join-scale needs a number");
            }
            other => figures.push(other.to_ascii_lowercase()),
        }
    }
    if figures.is_empty() || figures.iter().any(|f| f == "all") {
        figures = vec![
            "fig6".into(),
            "fig7".into(),
            "fig8".into(),
            "fig9".into(),
            "fig10".into(),
            "fig11".into(),
        ];
    }
    println!(
        "scale: {} docs/minute, {} windows per run, join-scale {}",
        scale.docs_per_minute, scale.windows, scale.join_scale
    );
    // Figs. 6–9 plot the same runs: each (dataset, algorithm, m, w, θ) runs
    // once.
    let mut done = HashMap::new();
    let mut runs = |dataset, kind, m, w, theta: f64| -> RunSummary {
        let key = (dataset, kind, m, w, theta.to_bits());
        let run = || partition_experiment(dataset, kind, m, w, theta, scale);
        done.entry(key).or_insert_with(run).clone()
    };
    for fig in figures {
        match fig.as_str() {
            "fig6" => partition_figure(&mut runs, Metric::Replication),
            "fig7" => partition_figure(&mut runs, Metric::LoadBalance),
            "fig8" => partition_figure(&mut runs, Metric::MaxLoad),
            "fig9" => fig9(&mut runs),
            "fig10" => fig10(scale),
            "fig11" => fig11(scale),
            other => eprintln!("unknown figure '{other}' (expected fig6..fig11)"),
        }
    }
}

#[derive(Clone, Copy)]
enum Metric {
    Replication,
    LoadBalance,
    MaxLoad,
}

impl Metric {
    fn title(self) -> &'static str {
        match self {
            Metric::Replication => "Fig. 6 — Replication (avg)",
            Metric::LoadBalance => "Fig. 7 — Load Balance (Gini)",
            Metric::MaxLoad => "Fig. 8 — Max Processing Load (avg)",
        }
    }

    fn pick(self, m: &RunSummary) -> f64 {
        match self {
            Metric::Replication => m.mean_replication(),
            Metric::LoadBalance => m.mean_load_balance(),
            Metric::MaxLoad => m.mean_max_load(),
        }
    }
}

/// Figs. 6/7/8: (a) varying m rwData, (b) varying w rwData, (c) varying m
/// nbData, (d) varying w nbData.
fn partition_figure(
    runs: &mut impl FnMut(DataSet, PartitionerKind, usize, usize, f64) -> RunSummary,
    metric: Metric,
) {
    for dataset in DataSet::all() {
        // Varying partitions, w=6, θ=0.2.
        let columns: Vec<(&str, Vec<f64>)> = PartitionerKind::all()
            .iter()
            .map(|&kind| {
                let vals: Vec<f64> = MS
                    .iter()
                    .map(|&m| metric.pick(&runs(dataset, kind, m, 6, 0.2)))
                    .collect();
                (kind.name(), vals)
            })
            .collect();
        print_table(
            &format!(
                "{} — varying partitions ({}) [w=6, θ=0.2]",
                metric.title(),
                dataset.label()
            ),
            "m",
            &MS,
            &columns,
        );

        // Varying window, m=8, θ=0.2.
        let columns: Vec<(&str, Vec<f64>)> = PartitionerKind::all()
            .iter()
            .map(|&kind| {
                let vals: Vec<f64> = WS
                    .iter()
                    .map(|&w| metric.pick(&runs(dataset, kind, 8, w, 0.2)))
                    .collect();
                (kind.name(), vals)
            })
            .collect();
        print_table(
            &format!(
                "{} — varying window ({}) [m=8, θ=0.2]",
                metric.title(),
                dataset.label()
            ),
            "w",
            &WS,
            &columns,
        );
    }
}

/// Fig. 9: repartition percentage vs θ, m=8, w=6.
fn fig9(runs: &mut impl FnMut(DataSet, PartitionerKind, usize, usize, f64) -> RunSummary) {
    for dataset in DataSet::all() {
        let columns: Vec<(&str, Vec<f64>)> = PartitionerKind::all()
            .iter()
            .map(|&kind| {
                let vals: Vec<f64> = THETAS
                    .iter()
                    .map(|&theta| runs(dataset, kind, 8, 6, theta).repartition_fraction() * 100.0)
                    .collect();
                (kind.name(), vals)
            })
            .collect();
        print_table(
            &format!("Fig. 9 — Repartitions (%) ({}) [m=8, w=6]", dataset.label()),
            "theta",
            &THETAS,
            &columns,
        );
    }
}

/// Fig. 10: ideal execution — replication / Gini / max load vs m.
fn fig10(scale: Scale) {
    let mut per_kind: Vec<(&str, Vec<RunSummary>)> = Vec::new();
    for kind in PartitionerKind::all() {
        let ms: Vec<_> = MS
            .iter()
            .map(|&m| ideal_experiment(kind, m, scale))
            .collect();
        per_kind.push((kind.name(), ms));
    }
    for (sub, title, metric) in [
        ("a", "Replication (avg)", Metric::Replication),
        ("b", "Load balance (Gini)", Metric::LoadBalance),
        ("c", "Max processing load (avg)", Metric::MaxLoad),
    ] {
        let columns: Vec<(&str, Vec<f64>)> = per_kind
            .iter()
            .map(|(name, ms)| (*name, ms.iter().map(|m| metric.pick(m)).collect()))
            .collect();
        print_table(
            &format!("Fig. 10{sub} — Ideal execution: {title} [w=6, θ=0.2]"),
            "m",
            &MS,
            &columns,
        );
    }
}

/// Fig. 11: local join execution times.
fn fig11(scale: Scale) {
    let fp_sizes: Vec<usize> = [100_000usize, 300_000, 500_000]
        .iter()
        .map(|&n| ((n as f64 * scale.join_scale) as usize).max(100))
        .collect();
    let base_sizes: Vec<usize> = [10_000usize, 30_000, 50_000]
        .iter()
        .map(|&n| ((n as f64 * scale.join_scale) as usize).max(100))
        .collect();

    for dataset in DataSet::all() {
        // (a)/(b): FPTreeJoin creation + join, stacked.
        let max = *fp_sizes.last().unwrap();
        let (_dict, docs) = dataset.generate(max, 42);
        let mut creation = Vec::new();
        let mut join = Vec::new();
        for &n in &fp_sizes {
            let t = split_timings(JoinAlgo::FpTree, &docs[..n]);
            creation.push(t.creation.as_secs_f64());
            join.push(t.join.as_secs_f64());
        }
        print_table(
            &format!("Fig. 11 — FPTreeJoin ({}) [seconds]", dataset.label()),
            "docs",
            &fp_sizes,
            &[("Creation", creation), ("Join", join)],
        );

        // (c)/(d): NLJ vs HBJ.
        let max = *base_sizes.last().unwrap();
        let (_dict, docs) = dataset.generate(max, 42);
        let mut nlj = Vec::new();
        let mut hbj = Vec::new();
        for &n in &base_sizes {
            let t = split_timings(JoinAlgo::Nlj, &docs[..n]);
            nlj.push(t.creation.as_secs_f64() + t.join.as_secs_f64());
            let t = split_timings(JoinAlgo::Hbj, &docs[..n]);
            hbj.push(t.creation.as_secs_f64() + t.join.as_secs_f64());
        }
        print_table(
            &format!("Fig. 11 — Competitor joins ({}) [seconds]", dataset.label()),
            "docs",
            &base_sizes,
            &[("NLJ", nlj), ("HBJ", hbj)],
        );
    }
}
