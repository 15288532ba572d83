//! Open-loop arithmetic for phase B: the arrival schedule and the pane close
//! latency reconstructed from `run_topology_paced`'s public report.
//!
//! The paced reporter records, for every document `i` of a pane, `now -
//! schedule[i]` into a histogram, where `now` is the instant the pane's last
//! `JoinStats` arrived. The histogram's `sum_ns` is exact, so
//! `now = (sum_ns + Σ schedule[i]) / count` recovers the report instant
//! without any access to the program's clock. The pane's *close latency* is
//! that instant minus the intended arrival of the pane's last document: it
//! includes queue wait and generator lateness and excludes the time the
//! window was still filling.

use ssj_core::LatencyReport;

/// Constant-rate schedule: document `i` is due `i / rate` seconds after the
/// first emission, whatever the system does.
pub fn constant_schedule(n: usize, rate_per_s: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| (u128::from(i) * 1_000_000_000 / u128::from(rate_per_s)) as u64)
        .collect()
}

/// The instant (ns after the first emission) a pane was reported, from the
/// pane's latency histogram totals and the intended arrivals of its
/// documents.
pub fn close_instant_ns(sum_ns: u64, count: u64, arrivals: &[u64]) -> u64 {
    assert!(count > 0 && count as usize == arrivals.len());
    let due: u128 = arrivals.iter().map(|&a| u128::from(a)).sum();
    ((u128::from(sum_ns) + due) / u128::from(count)) as u64
}

/// Close latency in milliseconds of every pane of one paced run, in pane
/// order.
pub fn close_latencies_ms(report: &LatencyReport, schedule: &[u64], pane_docs: usize) -> Vec<f64> {
    report
        .per_window
        .iter()
        .map(|(pane, h)| {
            let lo = *pane as usize * pane_docs;
            let hi = (lo + pane_docs).min(schedule.len());
            let arrivals = &schedule[lo..hi];
            let instant = close_instant_ns(h.sum_ns, h.count, arrivals);
            instant.saturating_sub(arrivals[arrivals.len() - 1]) as f64 / 1e6
        })
        .collect()
}

/// Median close latency of the last third of a run's panes over the first
/// third's. Above 2 the fixed rate is not sustained: a backlog is building
/// and every later pane waits behind it.
pub fn backlog_growth(latencies_ms: &[f64]) -> f64 {
    let third = latencies_ms.len() / 3;
    if third == 0 {
        return 1.0;
    }
    let first = crate::stats::median(&latencies_ms[..third]);
    let last = crate::stats::median(&latencies_ms[latencies_ms.len() - third..]);
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_runtime::metrics::Histogram;

    #[test]
    fn schedule_is_constant_rate() {
        let s = constant_schedule(5, 1000);
        assert_eq!(s, vec![0, 1_000_000, 2_000_000, 3_000_000, 4_000_000]);
        // A rate that does not divide 1e9 still never drifts.
        let s = constant_schedule(150_001, 150_000);
        assert_eq!(s[150_000], 1_000_000_000);
    }

    #[test]
    fn close_instant_is_recovered_from_histogram_totals() {
        // A synthetic pane of four documents due at 0, 10, 20, 30 µs,
        // reported at 100 µs: the reporter records now - due for each.
        let arrivals = [0u64, 10_000, 20_000, 30_000];
        let now = 100_000u64;
        let h = Histogram::new();
        for a in arrivals {
            h.record_ns(now - a);
        }
        let snap = h.snapshot();
        assert_eq!(close_instant_ns(snap.sum_ns, snap.count, &arrivals), now);

        // Second pane of the same run, reported at 180 µs.
        let schedule = [0u64, 10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 70_000];
        let h2 = Histogram::new();
        for a in &schedule[4..] {
            h2.record_ns(180_000 - a);
        }
        let report = LatencyReport {
            per_window: vec![(0, snap), (1, h2.snapshot())],
        };
        // Close latency counts from the pane's LAST intended arrival.
        assert_eq!(close_latencies_ms(&report, &schedule, 4), vec![0.07, 0.11]);
    }

    #[test]
    fn backlog_growth_compares_last_third_to_first() {
        assert_eq!(backlog_growth(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0]), 1.0);
        assert_eq!(backlog_growth(&[1.0, 1.0, 2.0, 2.0, 4.0, 4.0]), 4.0);
        assert_eq!(backlog_growth(&[5.0]), 1.0);
    }
}
