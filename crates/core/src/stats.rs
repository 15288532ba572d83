//! Report rendering: [`ReportSink`], and the whole-run aggregates it and the
//! figures share: [`RunSummary`].
//!
//! A sink consumes [`WindowResult`]s as they are produced (streaming, so a
//! long run prints rows live) and finishes with whole-run aggregates, in one
//! of three [`Format`]s: CSV (machine-readable per-window rows), JSON lines
//! (one object per window plus a final summary record) or an aligned table
//! with a one-line footer.

use crate::topology::WindowResult;
use std::io::{self, Write};

/// Column order shared by the CSV header and rows.
const CSV_COLUMNS: &str = "window,replication,gini,max_processing_load,broadcast_fraction,repartitioned,updates,unique_join_pairs";

/// Whole-run aggregates over a run's windows, fed one window at a time in
/// window order. The means are over the windows routed with a table — all
/// but the first, which is broadcast.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Windows seen.
    pub windows: usize,
    /// Unique join pairs over the run.
    pub unique_joins: usize,
    replication: f64,
    load_balance: f64,
    max_load: f64,
    repartitions: usize,
}

impl RunSummary {
    /// Count one more window.
    pub fn add(&mut self, w: &WindowResult) {
        if self.windows > 0 {
            let q = w.quality();
            self.replication += q.replication;
            self.load_balance += q.load_balance;
            self.max_load += q.max_processing_load;
            self.repartitions += w.routing.rebuilt as usize;
        }
        self.windows += 1;
        self.unique_joins += w.pairs.len();
    }

    /// Mean replication over the windows routed with a table (all but 0).
    pub fn mean_replication(&self) -> f64 {
        self.mean(self.replication)
    }

    /// Mean Gini load balance over the windows routed with a table.
    pub fn mean_load_balance(&self) -> f64 {
        self.mean(self.load_balance)
    }

    /// Mean maximal processing load over the windows routed with a table.
    pub fn mean_max_load(&self) -> f64 {
        self.mean(self.max_load)
    }

    /// Fraction of windows (after the first) that repartitioned — Fig. 9's
    /// "Repartitions (%)" divided by 100.
    pub fn repartition_fraction(&self) -> f64 {
        self.mean(self.repartitions as f64)
    }

    /// `sum` over windows 1.., 0 when there are none.
    fn mean(&self, sum: f64) -> f64 {
        match self.windows {
            0 | 1 => 0.0,
            n => sum / (n - 1) as f64,
        }
    }
}

/// How a [`ReportSink`] renders a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Per-window rows under a fixed header; no footer.
    Csv,
    /// One JSON object per window, then a `"summary"` record — the
    /// result-side companion of the runtime's metrics JSON lines.
    Jsonl,
    /// An aligned per-window table with a one-line summary footer.
    Human,
}

/// Renders a run's windows as they close (in window order), then the run's
/// [`RunSummary`]. A write error is kept, nothing is written after it, and
/// [`ReportSink::finish`] returns it.
pub struct ReportSink<W> {
    out: W,
    format: Format,
    summary: RunSummary,
    failed: io::Result<()>,
}

impl<W: Write> ReportSink<W> {
    /// A sink writing `format` to `out`.
    pub fn new(out: W, format: Format) -> Self {
        ReportSink {
            out,
            format,
            summary: RunSummary::default(),
            failed: Ok(()),
        }
    }

    /// Consume one window's result.
    pub fn window(&mut self, w: &WindowResult) {
        let first = self.summary.windows == 0;
        self.summary.add(w);
        if self.failed.is_ok() {
            self.failed = self.row(w, first);
        }
    }

    fn row(&mut self, w: &WindowResult, first: bool) -> io::Result<()> {
        let q = w.quality();
        // Each pair is reported by one joiner, so the joiners' counts sum to
        // this.
        let unique = w.pairs.len();
        let (rebuilt, updates) = (w.routing.rebuilt, w.routing.updates);
        match self.format {
            Format::Csv => {
                if first {
                    writeln!(self.out, "{CSV_COLUMNS}")?;
                }
                writeln!(
                    self.out,
                    "{},{:.6},{:.6},{:.6},{:.6},{},{updates},{unique}",
                    w.window,
                    q.replication,
                    q.load_balance,
                    q.max_processing_load,
                    q.broadcast_fraction,
                    rebuilt as u8,
                )
            }
            Format::Jsonl => writeln!(
                self.out,
                "{{\"window\":{},\"replication\":{:.6},\"gini\":{:.6},\"max_processing_load\":{:.6},\"broadcast_fraction\":{:.6},\"repartitioned\":{rebuilt},\"updates\":{updates},\"unique_join_pairs\":{unique}}}",
                w.window,
                q.replication,
                q.load_balance,
                q.max_processing_load,
                q.broadcast_fraction,
            ),
            Format::Human => {
                if first {
                    writeln!(
                        self.out,
                        "{:<7} {:>12} {:>8} {:>10} {:>8} {:>8} {:>10}",
                        "window", "replication", "gini", "max load", "repart", "updates", "join pairs"
                    )?;
                }
                writeln!(
                    self.out,
                    "{:<7} {:>12.3} {:>8.3} {:>10.3} {:>8} {updates:>8} {unique:>10}",
                    w.window,
                    q.replication,
                    q.load_balance,
                    q.max_processing_load,
                    if rebuilt { "yes" } else { "-" },
                )
            }
        }
    }

    /// Write the whole-run aggregates and flush; the first write error of
    /// the run, if any.
    pub fn finish(&mut self) -> io::Result<()> {
        std::mem::replace(&mut self.failed, Ok(()))?;
        let s = &self.summary;
        match self.format {
            Format::Csv => {}
            Format::Jsonl => writeln!(
                self.out,
                "{{\"summary\":{{\"windows\":{},\"mean_replication\":{:.6},\"mean_gini\":{:.6},\"mean_max_load\":{:.6},\"repartition_fraction\":{:.6},\"unique_join_pairs\":{}}}}}",
                s.windows,
                s.mean_replication(),
                s.mean_load_balance(),
                s.mean_max_load(),
                s.repartition_fraction(),
                s.unique_joins
            )?,
            Format::Human => writeln!(
                self.out,
                "{} windows | replication {:.3} | gini {:.3} | max load {:.3} | repartitions {:.1}% | joins {}",
                s.windows,
                s.mean_replication(),
                s.mean_load_balance(),
                s.mean_max_load(),
                s.repartition_fraction() * 100.0,
                s.unique_joins
            )?,
        }
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamJoinConfig;
    use ssj_json::{Dictionary, DocId, Document};
    use ssj_runtime::FaultPlan;
    use std::sync::{Arc, Mutex};

    /// The windows of a small lock-step run: 20 documents, two windows.
    fn small_run() -> Vec<WindowResult> {
        let dict = Dictionary::new();
        let docs: Vec<Document> = (0..20u64)
            .map(|i| {
                Document::from_json(
                    DocId(i),
                    &format!(r#"{{"k":{},"g":{}}}"#, i % 4, i % 2),
                    &dict,
                )
                .unwrap()
            })
            .collect();
        let cfg = StreamJoinConfig::default()
            .with_m(2)
            .with_window_spec(crate::WindowSpec::tumbling(10))
            .with_assigners(1)
            .with_batch_size(1)
            .build()
            .unwrap();
        let panes = docs
            .chunks(10)
            .map(|c| c.iter().cloned().map(Arc::new).collect());
        let windows = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let windows = Arc::clone(&windows);
            move |w| windows.lock().unwrap().push(w)
        };
        let reader = crate::Reader::Lockstep(panes.collect());
        crate::run_topology_with(cfg, &dict, reader, FaultPlan::new(), None, sink).unwrap();
        Arc::try_unwrap(windows).unwrap().into_inner().unwrap()
    }

    fn render(format: Format) -> String {
        let mut buf = Vec::new();
        let mut sink = ReportSink::new(&mut buf, format);
        for w in &small_run() {
            sink.window(w);
        }
        sink.finish().unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn csv_has_header_and_one_row_per_window() {
        let csv = render(Format::Csv);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines[0], CSV_COLUMNS);
        assert_eq!(lines.len(), 2 + 1);
        // Every row has the same number of fields as the header.
        let fields = CSV_COLUMNS.split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), fields, "{row}");
        }
    }

    #[test]
    fn csv_rows_parse_back_numerically() {
        let csv = render(Format::Csv);
        for row in csv.trim_end().lines().skip(1) {
            let cols: Vec<&str> = row.split(',').collect();
            let _: u64 = cols[0].parse().unwrap();
            let repl: f64 = cols[1].parse().unwrap();
            assert!(repl >= 1.0);
            let repart: u8 = cols[5].parse().unwrap();
            assert!(repart <= 1);
        }
    }

    #[test]
    fn jsonl_one_record_per_window_plus_summary() {
        let text = render(Format::Jsonl);
        let lines: Vec<&str> = text.trim_end().lines().collect();
        assert_eq!(lines.len(), 2 + 1);
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        }
        assert!(lines[0].contains("\"window\":0"));
        assert!(lines.last().unwrap().contains("\"summary\""));
    }

    /// A failed write is kept: nothing is written after it, and `finish`
    /// returns it.
    #[test]
    fn write_errors_surface_at_finish() {
        let mut full = [0u8; 4];
        let mut sink = ReportSink::new(&mut full[..], Format::Csv);
        for w in &small_run() {
            sink.window(w);
        }
        assert!(sink.finish().is_err());
    }

    #[test]
    fn human_summary_mentions_windows_and_joins() {
        let text = render(Format::Human);
        assert!(text.contains("window"), "{text}");
        assert!(text.contains("2 windows"), "{text}");
        assert!(text.contains("joins"), "{text}");
    }
}
