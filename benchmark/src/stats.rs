//! Order statistics over small sample sets.

/// Median, quartiles, minimum and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so the spreads printed here are the ones the contract's
/// driver will see. Fewer than two samples give `(x, x)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        median: median(values),
        q1,
        q3,
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        n: values.len(),
    }
}

/// Nearest-rank percentile (`pct` in 0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The highest percentile of the reporting ladder that still has at least
/// ten samples beyond it in a pool of `n` (choosing-metrics §1); 50 when even
/// the 75th percentile is unsupported.
pub fn highest_supported_pct(n: usize) -> f64 {
    // Per-mille, so "samples beyond" is exact integer arithmetic.
    const LADDER: [usize; 7] = [750, 900, 950, 980, 990, 995, 999];
    LADDER
        .iter()
        .filter(|&&pm| n * (1000 - pm) / 1000 >= 10)
        .map(|&pm| pm as f64 / 10.0)
        .fold(50.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn picker_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_supported_pct(19), 50.0);
        assert_eq!(highest_supported_pct(40), 75.0);
        assert_eq!(highest_supported_pct(99), 75.0);
        assert_eq!(highest_supported_pct(100), 90.0);
        assert_eq!(highest_supported_pct(200), 95.0);
        assert_eq!(highest_supported_pct(499), 95.0);
        assert_eq!(highest_supported_pct(500), 98.0);
        assert_eq!(highest_supported_pct(1000), 99.0);
        assert_eq!(highest_supported_pct(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 98.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
