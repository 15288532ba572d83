//! Partition-quality metrics and adaptation policies (§VI-A, §VII-C).
//!
//! * **Replication** — average number of machines each document is sent to.
//! * **Load balance** — the Gini coefficient of the per-machine loads
//!   (0 = perfectly equal, → 1 = everything on one machine).
//! * **Maximal processing load** — the largest share of *emitted* documents
//!   any single Joiner receives.
//!
//! [`RepartitionPolicy`] is §VI-A's θ judgement over a run's panes: the
//! baseline, the θ-threshold test and the one-signal-per-build latch.

use crate::partitions::RoutingStats;

/// Gini coefficient of a load distribution. Zero for empty or all-zero
/// input; 0 when perfectly balanced.
pub fn gini(loads: &[usize]) -> f64 {
    let n = loads.len();
    if n == 0 {
        return 0.0;
    }
    let total: usize = loads.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<usize> = loads.to_vec();
    sorted.sort_unstable();
    // G = (2·Σ i·x_i) / (n·Σ x) − (n+1)/n, with 1-based i over sorted x.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i + 1) as f64 * x as f64)
        .sum();
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// The §VII-C metrics for one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowQuality {
    /// Average number of machines per document.
    pub replication: f64,
    /// Gini coefficient of the per-machine loads.
    pub load_balance: f64,
    /// Largest per-machine share of the emitted documents.
    pub max_processing_load: f64,
    /// Fraction of documents with a pair the table did not know, or with
    /// no §VI-B view: those routed by hash homes.
    pub homed_fraction: f64,
}

impl WindowQuality {
    /// Derive the metrics from raw routing counts.
    pub fn from_stats(stats: &RoutingStats) -> Self {
        let docs = stats.docs.max(1) as f64;
        WindowQuality {
            replication: stats.total_sends as f64 / docs,
            load_balance: gini(&stats.per_machine),
            // §VII-C: the share of the window's emitted documents assigned
            // to the busiest Joiner — 1.0 when one machine sees everything.
            max_processing_load: stats.per_machine.iter().copied().max().unwrap_or(0) as f64 / docs,
            homed_fraction: stats.homed as f64 / docs,
        }
    }

    /// An idle window (no documents).
    pub fn idle() -> Self {
        WindowQuality {
            replication: 0.0,
            load_balance: 0.0,
            max_processing_load: 0.0,
            homed_fraction: 0.0,
        }
    }
}

/// θ-threshold repartitioning (§VI-A), judged once per pane over the whole
/// pane: recompute partitions when replication or the processing-load
/// imbalance has degraded by more than `theta` relative to the values
/// measured right after the partitions were created, or when the homed
/// share has risen by more than `theta` over its value then. The share is a
/// fraction, compared as a difference: a ratio against a share near 0 would
/// fire on a handful of new pairs.
///
/// Panes are given in order. The pane at whose boundary a build happened
/// ([`RepartitionPolicy::built`], the bootstrap included) is neither the
/// baseline nor tested: the next non-empty pane is the baseline, and every
/// one after it is tested ([`RepartitionPolicy::judge`]) until one signals.
/// After that nothing signals until the next build.
#[derive(Debug, Clone)]
pub struct RepartitionPolicy {
    /// The relative degradation threshold (paper: 0.2 and 0.6).
    theta: f64,
    /// The quality of the first non-empty pane after the last build.
    baseline: Option<WindowQuality>,
    /// A pane signalled since the last build.
    signalled: bool,
}

impl RepartitionPolicy {
    /// A policy with threshold `theta` that has seen no pane.
    pub fn new(theta: f64) -> Self {
        RepartitionPolicy {
            theta,
            baseline: None,
            signalled: false,
        }
    }

    /// The partitions were built at the boundary of the pane being closed.
    /// Returns whether that was a rebuild, the build a signal asked for,
    /// rather than the bootstrap. Either way it drops the baseline and
    /// rearms the signal.
    pub fn built(&mut self) -> bool {
        self.baseline = None;
        std::mem::take(&mut self.signalled)
    }

    /// Close a non-empty pane at whose boundary nothing was built: it is
    /// the baseline if there is none, and otherwise tested against it.
    /// Returns the θ signal, at most once per build.
    pub fn judge(&mut self, quality: WindowQuality) -> bool {
        let Some(base) = &self.baseline else {
            self.baseline = Some(quality);
            return false;
        };
        let signal = !self.signalled && self.degraded(base, &quality);
        self.signalled |= signal;
        signal
    }

    /// `true` when `current` degraded more than θ past `baseline`.
    fn degraded(&self, baseline: &WindowQuality, current: &WindowQuality) -> bool {
        let repl_worse = relative_increase(baseline.replication, current.replication);
        let load_worse =
            relative_increase(baseline.max_processing_load, current.max_processing_load);
        let homed_rise = current.homed_fraction - baseline.homed_fraction;
        repl_worse > self.theta || load_worse > self.theta || homed_rise > self.theta
    }
}

fn relative_increase(base: f64, now: f64) -> f64 {
    if base <= 0.0 {
        if now > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        (now - base) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_of_equal_loads_is_zero() {
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-9);
        assert!(gini(&[]).abs() < 1e-9);
        assert!(gini(&[0, 0]).abs() < 1e-9);
    }

    #[test]
    fn gini_of_concentrated_load_is_high() {
        let g = gini(&[100, 0, 0, 0]);
        assert!(g > 0.7, "g = {g}");
        assert!(g <= 1.0);
    }

    #[test]
    fn gini_is_scale_invariant() {
        let a = gini(&[1, 2, 3, 4]);
        let b = gini(&[10, 20, 30, 40]);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn gini_monotone_in_imbalance() {
        assert!(gini(&[10, 10, 10, 10]) < gini(&[5, 5, 10, 20]));
        assert!(gini(&[5, 5, 10, 20]) < gini(&[0, 0, 0, 40]));
    }

    #[test]
    fn quality_from_stats() {
        let stats = RoutingStats {
            per_machine: vec![3, 1],
            total_sends: 4,
            homed: 1,
            docs: 3,
        };
        let q = WindowQuality::from_stats(&stats);
        assert!((q.replication - 4.0 / 3.0).abs() < 1e-9);
        assert!((q.max_processing_load - 1.0).abs() < 1e-9);
        assert!((q.homed_fraction - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn repartition_triggers_on_replication_growth() {
        let policy = RepartitionPolicy::new(0.2);
        let base = WindowQuality {
            replication: 2.0,
            load_balance: 0.1,
            max_processing_load: 0.3,
            homed_fraction: 0.0,
        };
        let mut cur = base;
        cur.replication = 2.3; // +15% — below θ
        assert!(!policy.degraded(&base, &cur));
        cur.replication = 2.5; // +25% — above θ
        assert!(policy.degraded(&base, &cur));
    }

    #[test]
    fn repartition_triggers_on_load_growth() {
        let policy = RepartitionPolicy::new(0.2);
        let base = WindowQuality {
            replication: 2.0,
            load_balance: 0.1,
            max_processing_load: 0.3,
            homed_fraction: 0.0,
        };
        let mut cur = base;
        cur.max_processing_load = 0.45; // +50%
        assert!(policy.degraded(&base, &cur));
    }

    #[test]
    fn repartition_triggers_on_homed_share_growth() {
        let policy = RepartitionPolicy::new(0.2);
        let base = WindowQuality {
            replication: 1.0,
            load_balance: 0.1,
            max_processing_load: 0.3,
            homed_fraction: 0.1,
        };
        let mut cur = base;
        cur.homed_fraction = 0.25; // +0.15: below θ, though 1.5x the base
        assert!(!policy.degraded(&base, &cur));
        cur.homed_fraction = 0.35; // +0.25
        assert!(policy.degraded(&base, &cur));
    }

    /// A pane whose every document the table routed to one joiner.
    fn routed() -> WindowQuality {
        WindowQuality {
            replication: 1.0,
            load_balance: 0.75,
            max_processing_load: 1.0,
            homed_fraction: 0.0,
        }
    }

    /// The same pane with every document sent to its home instead.
    fn homed() -> WindowQuality {
        WindowQuality {
            homed_fraction: 1.0,
            ..routed()
        }
    }

    #[test]
    fn a_rebuild_resets_the_baseline() {
        let mut p = RepartitionPolicy::new(0.2);
        // Pane 0's boundary builds the bootstrap, pane 1 is the baseline,
        // pane 2 signals and pane 3's boundary rebuilds.
        assert!(!p.built());
        assert!(!p.judge(routed()));
        assert!(p.judge(homed()));
        assert!(p.built());
        // Pane 4 is the new baseline, so a homed pane is not compared
        // with the old build's quality…
        assert!(!p.judge(homed()));
        // …and neither a routed nor a homed pane degrades from it.
        assert!(!p.judge(routed()));
        assert!(!p.judge(homed()));
    }

    #[test]
    fn the_build_pane_is_neither_baseline_nor_tested() {
        let mut p = RepartitionPolicy::new(0.2);
        // Pane 0 (the bootstrap's, homed) is no baseline: a homed pane 1
        // becomes it, and a routed pane 2 cannot degrade from it.
        assert!(!p.built());
        assert!(!p.judge(homed()));
        assert!(!p.judge(routed()));
        // A build at pane 3, whatever the pane held: pane 4 is the
        // baseline, and the homed pane after it signals.
        assert!(!p.built());
        assert!(!p.judge(routed()));
        assert!(p.judge(homed()));
    }

    #[test]
    fn one_signal_per_build() {
        let mut p = RepartitionPolicy::new(0.2);
        assert!(!p.built());
        assert!(!p.judge(routed()));
        assert!(p.judge(homed()));
        // Still degraded: no second signal.
        assert!(!p.judge(homed()));
        assert!(!p.judge(homed()));
        // A rebuild rearms it.
        assert!(p.built());
        assert!(!p.judge(routed()));
        assert!(p.judge(homed()));
    }

    #[test]
    fn higher_theta_tolerates_more() {
        let base = WindowQuality {
            replication: 2.0,
            load_balance: 0.1,
            max_processing_load: 0.3,
            homed_fraction: 0.0,
        };
        let mut cur = base;
        cur.replication = 2.8; // +40%
        assert!(RepartitionPolicy::new(0.2).degraded(&base, &cur));
        assert!(!RepartitionPolicy::new(0.6).degraded(&base, &cur));
    }
}
