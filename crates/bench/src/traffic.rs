//! Open-loop traffic generation: deterministic arrival schedules and
//! skewed (Zipfian / hot-key) document streams.
//!
//! The schedules are **logical**: a profile maps tuple index → virtual
//! arrival time in nanoseconds, computed purely from its parameters and a
//! seed — no wall clock enters the schedule itself. The paced reader (see
//! `ssj-core`'s `Reader::Paced`) later replays a schedule against real
//! time; the split keeps every experiment reproducible and lets tests
//! assert on the exact schedule.
//!
//! The skew generators overlay a `HotKey` attribute on the existing
//! datasets (§VII-B), with values drawn from a Zipfian rank distribution:
//! rank 0 concentrates load on one association group, so the one joiner
//! that group is placed on carries its quadratic join (DESIGN.md §4h).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssj_json::{Document, Scalar};

use crate::DataSet;

const NS_PER_SEC: f64 = 1_000_000_000.0;

/// A deterministic open-loop arrival process. Rates are tuples per
/// *virtual* second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProfile {
    /// Fixed inter-arrival gap.
    Constant {
        /// Arrival rate (tuples / virtual second).
        rate: f64,
    },
    /// Square-wave rate alternation: each `period_ns` of virtual time
    /// spends its first `duty` fraction at `peak` and the rest at
    /// `trough`.
    Bursty {
        /// Rate outside bursts.
        trough: f64,
        /// Rate inside bursts.
        peak: f64,
        /// Virtual length of one trough+peak cycle, in nanoseconds.
        period_ns: u64,
        /// Fraction of each period spent at `peak` (0, 1).
        duty: f64,
    },
    /// Rate interpolates linearly from `start` to `end` over the run.
    Ramp {
        /// Rate at the first tuple.
        start: f64,
        /// Rate at the last tuple.
        end: f64,
    },
}

impl ArrivalProfile {
    /// Short id for bench rows and logs.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProfile::Constant { .. } => "constant",
            ArrivalProfile::Bursty { .. } => "bursty",
            ArrivalProfile::Ramp { .. } => "ramp",
        }
    }

    /// Instantaneous rate at virtual time `t_ns`, for tuple `i` of `n`.
    fn rate_at(&self, t_ns: u64, i: usize, n: usize) -> f64 {
        match *self {
            ArrivalProfile::Constant { rate } => rate,
            ArrivalProfile::Bursty {
                trough,
                peak,
                period_ns,
                duty,
            } => {
                let phase = (t_ns % period_ns) as f64 / period_ns as f64;
                if phase < duty {
                    peak
                } else {
                    trough
                }
            }
            ArrivalProfile::Ramp { start, end } => {
                let f = if n > 1 {
                    i as f64 / (n - 1) as f64
                } else {
                    0.0
                };
                start + (end - start) * f
            }
        }
    }

    /// The virtual arrival time (ns) of each of `n` tuples. `jitter`
    /// perturbs every inter-arrival gap by a seeded uniform factor in
    /// `[1 - jitter, 1 + jitter]`; `jitter = 0.0` makes the schedule a
    /// pure function of the profile (the seed is then irrelevant).
    pub fn schedule(&self, n: usize, seed: u64, jitter: f64) -> Vec<u64> {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0u64;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(t);
            let rate = self.rate_at(t, i, n);
            assert!(rate > 0.0, "arrival rate must be positive");
            let mut gap = NS_PER_SEC / rate;
            if jitter > 0.0 {
                gap *= rng.gen_range(1.0 - jitter..1.0 + jitter);
            }
            t += (gap as u64).max(1);
        }
        out
    }
}

/// Zipfian rank distribution over `{0, …, n-1}`: rank `k` has probability
/// proportional to `1 / (k+1)^s`. `s = 0` degenerates to uniform.
/// Sampling is inverse-CDF (binary search), deterministic under a seeded
/// [`StdRng`].
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the CDF for `n` ranks with exponent `s >= 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(s).recip();
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.cdf.len()
    }

    /// Probability of rank `k`.
    pub fn prob(&self, k: usize) -> f64 {
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        self.cdf[k] - lo
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Skew overlay for a document stream.
#[derive(Debug, Clone, Copy)]
pub struct SkewConfig {
    /// RNG seed for the overlay (and the base dataset).
    pub seed: u64,
    /// Number of distinct `HotKey` values.
    pub keys: usize,
    /// Zipf exponent over the key ranks (`0.0` = uniform, no skew).
    pub s: f64,
    /// Fraction of documents that carry a `HotKey` attribute at all.
    pub attach: f64,
}

impl Default for SkewConfig {
    fn default() -> Self {
        SkewConfig {
            seed: 42,
            keys: 16,
            s: 1.2,
            attach: 0.75,
        }
    }
}

/// Generate `n` dataset documents and overlay a Zipf-distributed `HotKey`
/// attribute per [`SkewConfig`]. Deterministic under the seed; document
/// ids are the base dataset's ids.
pub fn skewed_docs(
    dataset: DataSet,
    n: usize,
    cfg: SkewConfig,
) -> (ssj_json::Dictionary, Vec<Document>) {
    let (dict, base) = dataset.generate(n, cfg.seed);
    let zipf = Zipf::new(cfg.keys, cfg.s);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_cafe);
    let docs = base
        .into_iter()
        .map(|doc| {
            if rng.gen_bool(cfg.attach) {
                let rank = zipf.sample(&mut rng) as i64;
                let mut pairs = doc.pairs().to_vec();
                pairs.push(dict.intern("HotKey", Scalar::Int(rank)));
                Document::from_pairs(doc.id(), pairs)
            } else {
                doc
            }
        })
        .collect();
    (dict, docs)
}

/// Closed-vocabulary Zipfian stream: every document belongs to one of
/// `cfg.keys` sessions (Zipf-distributed over the ranks), carries the
/// session pair plus a handful of session-namespaced filler attributes.
///
/// Two properties matter for the skew experiments:
///
/// * The vocabulary is tiny and fixed, so a routing table built over any
///   window prefix covers the whole stream — no pair is homed, so
///   documents really are routed by the table (the open datasets' novelty
///   churn makes every view partially unknown and sends its new pairs to
///   their hash homes instead).
/// * Filler values are namespaced by session, so documents join exactly
///   within their session: the hot session IS the hot association group,
///   and its quadratic probe load lands on the joiner it is placed on.
///
/// `cfg.attach` is the probability a document carries filler pairs at all
/// (a bare session pair still joins). Deterministic under `cfg.seed`.
pub fn sessionized_docs(n: usize, cfg: SkewConfig) -> (ssj_json::Dictionary, Vec<Document>) {
    let dict = ssj_json::Dictionary::new();
    let zipf = Zipf::new(cfg.keys, cfg.s);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5e55_1075);
    let docs = (0..n)
        .map(|i| {
            let k = zipf.sample(&mut rng) as i64;
            let mut pairs = vec![dict.intern("Session", Scalar::Int(k))];
            if rng.gen_bool(cfg.attach) {
                // Up to three filler pairs from a per-session pool of 4
                // values each: small enough that window 0 sees them all.
                for (attr, pool) in [("Step", 4i64), ("Status", 3), ("Kind", 4)] {
                    pairs.push(dict.intern(attr, Scalar::Int(k * 16 + rng.gen_range(0..pool))));
                }
            }
            Document::from_pairs(ssj_json::DocId(i as u64), pairs)
        })
        .collect();
    (dict, docs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let p = ArrivalProfile::Bursty {
            trough: 1_000.0,
            peak: 20_000.0,
            period_ns: 2_000_000,
            duty: 0.25,
        };
        let a = p.schedule(5_000, 7, 0.2);
        let b = p.schedule(5_000, 7, 0.2);
        assert_eq!(a, b);
        let c = p.schedule(5_000, 8, 0.2);
        assert_ne!(a, c, "different seed must perturb a jittered schedule");
    }

    #[test]
    fn constant_schedule_is_exact() {
        let p = ArrivalProfile::Constant { rate: 1_000_000.0 };
        let s = p.schedule(100, 0, 0.0);
        assert_eq!(s.len(), 100);
        for (i, t) in s.iter().enumerate() {
            assert_eq!(*t, i as u64 * 1_000);
        }
    }

    #[test]
    fn schedules_are_monotone() {
        for p in [
            ArrivalProfile::Constant { rate: 5_000.0 },
            ArrivalProfile::Bursty {
                trough: 500.0,
                peak: 50_000.0,
                period_ns: 1_000_000,
                duty: 0.5,
            },
            ArrivalProfile::Ramp {
                start: 100.0,
                end: 100_000.0,
            },
        ] {
            let s = p.schedule(2_000, 3, 0.3);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "{p:?} not monotone");
        }
    }

    #[test]
    fn bursty_hits_peak_trough_ratio() {
        let (trough, peak, period, duty) = (1_000.0, 10_000.0, 10_000_000u64, 0.5);
        let p = ArrivalProfile::Bursty {
            trough,
            peak,
            period_ns: period,
            duty,
        };
        let s = p.schedule(40_000, 0, 0.0);
        let cut = (period as f64 * duty) as u64;
        let (mut in_peak, mut in_trough) = (0u64, 0u64);
        // Skip the final (possibly partial) period so both phases are
        // sampled the same number of times.
        let whole = s.last().unwrap() / period * period;
        for &t in s.iter().filter(|&&t| t < whole) {
            if t % period < cut {
                in_peak += 1;
            } else {
                in_trough += 1;
            }
        }
        // duty = 0.5 → arrivals per phase are proportional to the rates.
        let ratio = in_peak as f64 / in_trough as f64;
        let want = peak / trough;
        assert!(
            (ratio - want).abs() / want < 0.05,
            "peak/trough arrival ratio {ratio:.2}, want {want:.2}"
        );
    }

    #[test]
    fn ramp_gaps_shrink_as_rate_grows() {
        let p = ArrivalProfile::Ramp {
            start: 1_000.0,
            end: 100_000.0,
        };
        let s = p.schedule(1_000, 0, 0.0);
        let first_gap = s[1] - s[0];
        let last_gap = s[999] - s[998];
        assert!(
            first_gap > last_gap * 50,
            "ramp gaps {first_gap} → {last_gap}"
        );
    }

    #[test]
    fn zipf_empirical_frequencies_within_tolerance() {
        let zipf = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(99);
        let n = 200_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            let want = zipf.prob(k);
            assert!(
                (emp - want).abs() < 0.01 + want * 0.05,
                "rank {k}: empirical {emp:.4} vs expected {want:.4}"
            );
        }
        // s = 1 → rank 0 is twice as likely as rank 1.
        let r = counts[0] as f64 / counts[1] as f64;
        assert!((r - 2.0).abs() < 0.15, "rank0/rank1 ratio {r:.2}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let zipf = Zipf::new(8, 0.0);
        for k in 0..8 {
            assert!((zipf.prob(k) - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn skewed_docs_deterministic_and_skewed() {
        let cfg = SkewConfig {
            seed: 5,
            keys: 8,
            s: 1.2,
            attach: 0.8,
        };
        let (d1, a) = skewed_docs(DataSet::RwData, 400, cfg);
        let (d2, b) = skewed_docs(DataSet::RwData, 400, cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_json(&d1), y.to_json(&d2));
        }
        // The rank-0 key must dominate among attached keys.
        let hot = d1.intern("HotKey", Scalar::Int(0));
        let hot0 = a.iter().filter(|d| d.has_avp(hot)).count();
        let attached = a
            .iter()
            .filter(|d| d.pairs().iter().any(|p| p.attr == hot.attr))
            .count();
        // s = 1.2 over 8 ranks puts ~43% of mass on rank 0 — well above
        // the 12.5% a uniform draw would give.
        assert!(
            hot0 * 3 > attached,
            "rank-0 key on {hot0} of {attached} attached docs"
        );
    }
}
