//! The metric tables: every name the benchmark reports, with unit, direction
//! and (end to end) the bound by which it may worsen. `BENCHMARK.json` at the
//! repository root repeats these tables; a unit test keeps the two equal.

/// `(name, unit, better, bound)`: what a user of `ssj run` sees.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("docs_per_s", "docs/s", "higher", 0.24),
    ("cpu_us_per_doc", "us/doc", "lower", 0.24),
    ("close_ms_p50", "ms", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`: one crate per prefix. No bounds — these explain
/// a movement of an end-to-end metric, they are never gated themselves.
pub const PER_LAYER: [(&str, &str, &str); 54] = [
    ("json.parse_ns_per_doc", "ns/doc", "lower"),
    ("json.intern_ns_per_doc", "ns/doc", "lower"),
    ("json.parse_mb_per_s", "MB/s", "higher"),
    ("json.avps_per_doc", "count", "lower"),
    ("json.dict_pairs", "count", "lower"),
    ("partition.group_build_ns_per_doc", "ns/doc", "lower"),
    ("partition.index_update_ns_per_doc", "ns/doc", "lower"),
    ("partition.merge_ns_per_window", "ns/window", "lower"),
    ("partition.route_ns_per_doc", "ns/doc", "lower"),
    ("partition.groups_per_window", "count", "lower"),
    ("partition.replication", "ratio", "lower"),
    ("partition.broadcast_share", "ratio", "lower"),
    ("partition.load_gini", "ratio", "lower"),
    ("join.build_ns_per_doc", "ns/doc", "lower"),
    ("join.probe_ns_per_doc", "ns/doc", "lower"),
    ("join.frozen_probe_ns_per_doc", "ns/doc", "lower"),
    ("join.pairs_per_doc", "count", "higher"),
    ("join.tree_nodes_per_doc", "count", "lower"),
    ("join.tree_bytes_per_doc", "B/doc", "lower"),
    ("runtime.hop_ns_per_tuple", "ns/tuple", "lower"),
    ("runtime.encode_ns_per_doc", "ns/doc", "lower"),
    ("runtime.decode_ns_per_doc", "ns/doc", "lower"),
    ("runtime.wire_bytes_per_doc", "B/doc", "lower"),
    ("runtime.stats_codec_ns_per_pair", "ns/pair", "lower"),
    ("core.creator_busy_us_per_doc", "us/doc", "lower"),
    ("core.merger_busy_us_per_doc", "us/doc", "lower"),
    ("core.assigner_busy_us_per_doc", "us/doc", "lower"),
    ("core.joiner_busy_us_per_doc", "us/doc", "lower"),
    ("core.reporter_busy_us_per_doc", "us/doc", "lower"),
    ("core.joiner_recv_per_doc", "count", "lower"),
    ("core.joiner_docs_skew", "ratio", "lower"),
    ("core.joiner_pairs_skew", "ratio", "lower"),
    ("core.probe_ms_p50", "ms", "lower"),
    ("core.topology_docs_per_s", "docs/s", "higher"),
    ("core.topology_docs_per_s.w1", "docs/s", "higher"),
    ("core.metrics_overhead", "ratio", "lower"),
    ("core.close_ms_p90", "ms", "lower"),
    ("core.close_ms_p98", "ms", "lower"),
    ("core.close_ms_max", "ms", "lower"),
    ("core.close_samples", "count", "higher"),
    ("core.close_tail_pct", "%", "higher"),
    ("core.backlog_growth", "ratio", "lower"),
    ("core.spill_write_ns_per_doc", "ns/doc", "lower"),
    ("core.spill_read_ns_per_doc", "ns/doc", "lower"),
    ("core.spill_bytes_per_doc", "B/doc", "lower"),
    ("cli.wall_s", "s", "lower"),
    ("cli.cpu_us_per_doc", "us/doc", "lower"),
    ("cli.peak_rss_mb", "MB", "lower"),
    ("cli.joins_out_mb", "MB", "lower"),
    ("cli.load_share", "ratio", "lower"),
    ("cli.attributed_cpu_share", "ratio", "higher"),
    ("cli.replay_mismatched_panes", "count", "lower"),
    ("cli.oracle_panes", "count", "higher"),
    ("cli.total_pairs", "count", "higher"),
];

/// Values of one run in table order, checked complete.
pub struct Values {
    table: Vec<(&'static str, &'static str)>,
    values: Vec<Option<f64>>,
}

impl Values {
    pub fn end_to_end() -> Values {
        Values::of(END_TO_END.iter().map(|m| (m.0, m.1)).collect())
    }

    pub fn per_layer() -> Values {
        Values::of(PER_LAYER.iter().map(|m| (m.0, m.1)).collect())
    }

    fn of(table: Vec<(&'static str, &'static str)>) -> Values {
        Values {
            values: vec![None; table.len()],
            table,
        }
    }

    /// Set one metric; a name outside the table is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.table.iter().position(|m| m.0 == name)?;
        self.values[i]
    }

    /// `(name, value, unit)` in table order; every metric must have been set.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), v)| {
                (
                    name,
                    v.unwrap_or_else(|| panic!("metric {name} was never set")),
                    unit,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use ssj_json::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn items(v: &Value) -> &[Value] {
        match v {
            Value::Array(a) => a,
            other => panic!("expected an array, got {other}"),
        }
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::Float(f) => *f,
            Value::Int(i) => *i as f64,
            other => panic!("expected a number, got {other}"),
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the tables here are what
    /// the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = ssj_json::parse(&text).expect("BENCHMARK.json parses");

        let names: Vec<(String, String)> = items(field(&json, "workloads"))
            .iter()
            .map(|w| {
                let why = field(w, "why").as_str().unwrap();
                assert!(why.len() <= 200 && !why.contains('\n'));
                (
                    field(w, "name").as_str().unwrap().to_owned(),
                    why.to_owned(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(names, ours);

        let e2e: Vec<(String, String, String, f64)> = items(field(&json, "end_to_end"))
            .iter()
            .map(|m| {
                (
                    field(m, "name").as_str().unwrap().to_owned(),
                    field(m, "unit").as_str().unwrap().to_owned(),
                    field(m, "better").as_str().unwrap().to_owned(),
                    number(field(m, "bound")),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.0.to_owned(), m.1.to_owned(), m.2.to_owned(), m.3))
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(String, String, String)> = items(field(&json, "per_layer"))
            .iter()
            .map(|m| {
                (
                    field(m, "name").as_str().unwrap().to_owned(),
                    field(m, "unit").as_str().unwrap().to_owned(),
                    field(m, "better").as_str().unwrap().to_owned(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_owned(), m.1.to_owned(), m.2.to_owned()))
            .collect();
        assert_eq!(layers, ours);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")));
        for (name, unit) in all {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
    }
}
