//! Partition-quality metrics and adaptation policies (§VI-A, §VII-C).
//!
//! * **Replication** — average number of machines each document is sent to.
//! * **Load balance** — the Gini coefficient of the per-machine loads
//!   (0 = perfectly equal, → 1 = everything on one machine).
//! * **Maximal processing load** — the largest share of *emitted* documents
//!   any single Joiner receives.
//!
//! [`UnseenTracker`] implements the δ-threshold for partition updates and
//! [`RepartitionPolicy`] the θ-threshold that triggers recomputation.

use crate::partitions::RoutingStats;
use ssj_json::{AvpId, FxHashMap};

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
    /// Fraction of documents that had to be broadcast.
    pub broadcast_fraction: f64,
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
            broadcast_fraction: stats.broadcasts as f64 / docs,
        }
    }

    /// An idle window (no documents).
    pub fn idle() -> Self {
        WindowQuality {
            replication: 0.0,
            load_balance: 0.0,
            max_processing_load: 0.0,
            broadcast_fraction: 0.0,
        }
    }
}

/// δ-threshold tracking of previously unseen attribute-value pairs (§VI-A):
/// a pair becomes an *update candidate* once seen `delta` times since the
/// partitions were built.
#[derive(Debug, Clone)]
pub struct UnseenTracker {
    delta: u32,
    counts: FxHashMap<AvpId, u32>,
}

impl UnseenTracker {
    /// Track with threshold `delta` (the paper's default is 3).
    pub fn new(delta: u32) -> Self {
        UnseenTracker {
            delta: delta.max(1),
            counts: FxHashMap::default(),
        }
    }

    /// Record one sighting of an unseen pair; `true` exactly when the count
    /// reaches δ — the moment the Assigner asks the Merger for an update.
    pub fn observe(&mut self, avp: AvpId) -> bool {
        let c = self.counts.entry(avp).or_insert(0);
        *c += 1;
        *c == self.delta
    }

    /// Drop all state (on a rebuilt table).
    pub fn reset(&mut self) {
        self.counts.clear();
    }
}

/// θ-threshold repartitioning (§VI-A): recompute partitions when replication
/// or the processing-load imbalance has degraded by more than `theta`
/// relative to the values measured right after the partitions were created.
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
        repl_worse > self.theta || load_worse > self.theta
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
            broadcasts: 1,
            docs: 3,
        };
        let q = WindowQuality::from_stats(&stats);
        assert!((q.replication - 4.0 / 3.0).abs() < 1e-9);
        assert!((q.max_processing_load - 1.0).abs() < 1e-9);
        assert!((q.broadcast_fraction - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unseen_tracker_fires_at_delta() {
        let mut t = UnseenTracker::new(3);
        let avp = AvpId(7);
        assert!(!t.observe(avp));
        assert!(!t.observe(avp));
        assert!(t.observe(avp)); // third sighting
        assert!(!t.observe(avp)); // fires exactly once
        t.reset();
        assert!(!t.observe(avp)); // counts again from scratch
    }

    #[test]
    fn unseen_tracker_delta_one() {
        let mut t = UnseenTracker::new(1);
        assert!(t.observe(AvpId(1)));
        assert!(!t.observe(AvpId(1)));
    }

    #[test]
    fn repartition_triggers_on_replication_growth() {
        let policy = RepartitionPolicy::new(0.2);
        let base = WindowQuality {
            replication: 2.0,
            load_balance: 0.1,
            max_processing_load: 0.3,
            broadcast_fraction: 0.0,
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
            broadcast_fraction: 0.0,
        };
        let mut cur = base;
        cur.max_processing_load = 0.45; // +50%
        assert!(policy.should_repartition(&base, &cur));
    }

    #[test]
    fn higher_theta_tolerates_more() {
        let base = WindowQuality {
            replication: 2.0,
            load_balance: 0.1,
            max_processing_load: 0.3,
            broadcast_fraction: 0.0,
        };
        let mut cur = base;
        cur.replication = 2.8; // +40%
        assert!(RepartitionPolicy::new(0.2).should_repartition(&base, &cur));
        assert!(!RepartitionPolicy::new(0.6).should_repartition(&base, &cur));
    }
}
