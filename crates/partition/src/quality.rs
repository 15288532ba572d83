//! Partition-quality metrics and adaptation policies (§VI-A, §VII-C).
//!
//! * **Replication** — average number of machines each document is sent to.
//! * **Load balance** — the Gini coefficient of the per-machine loads
//!   (0 = perfectly equal, → 1 = everything on one machine).
//! * **Maximal processing load** — the largest share of *emitted* documents
//!   any single Joiner receives.
//!
//! [`RepartitionPolicy`] implements the θ-threshold that triggers
//! recomputation.

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

/// θ-threshold repartitioning (§VI-A): recompute partitions when replication
/// or the processing-load imbalance has degraded by more than `theta`
/// relative to the values measured right after the partitions were created,
/// or when the homed share has risen by more than `theta` over its value
/// then. The share is a fraction, compared as a difference: a ratio against
/// a share near 0 would fire on a handful of new pairs.
#[derive(Debug, Clone, Copy)]
pub struct RepartitionPolicy {
    /// The relative degradation threshold (paper: 0.2 and 0.6).
    pub theta: f64,
}

impl RepartitionPolicy {
    /// Create a policy with threshold `theta`.
    pub fn new(theta: f64) -> Self {
        RepartitionPolicy { theta }
    }

    /// `true` when `current` degraded more than θ past `baseline`.
    pub fn should_repartition(&self, baseline: &WindowQuality, current: &WindowQuality) -> bool {
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
        assert!(!policy.should_repartition(&base, &cur));
        cur.replication = 2.5; // +25% — above θ
        assert!(policy.should_repartition(&base, &cur));
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
        assert!(policy.should_repartition(&base, &cur));
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
        assert!(!policy.should_repartition(&base, &cur));
        cur.homed_fraction = 0.35; // +0.25
        assert!(policy.should_repartition(&base, &cur));
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
        assert!(RepartitionPolicy::new(0.2).should_repartition(&base, &cur));
        assert!(!RepartitionPolicy::new(0.6).should_repartition(&base, &cur));
    }
}
