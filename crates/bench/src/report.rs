//! Shared plumbing for the `bench_*` binaries: the measurement record, the
//! best-of-N repetition policy, and the one-measurement-per-line JSON report
//! format that `--check` modes (and shell tooling) can parse without a JSON
//! library.

/// One throughput measurement.
pub struct Measurement {
    /// e.g. `chain/batch=32` — the key `--check` compares by.
    pub id: String,
    /// Primary rate (tuples, docs, views or derives per second).
    pub tuples_per_sec: f64,
    /// Items processed.
    pub tuples: u64,
    /// Wall-clock seconds of the best run.
    pub secs: f64,
    /// Benchmark-specific secondary figure (average transport batch for the
    /// runtime bench, speedup factor for the partition bench; 0 when
    /// unused).
    pub avg_batch: f64,
}

/// Best-of-`reps`: wall-clock throughput on a shared machine is noisy, and
/// the fastest run is the least-perturbed estimate of what the code can do.
pub fn best_of(reps: usize, f: impl Fn() -> Measurement) -> Measurement {
    let mut best = f();
    for _ in 1..reps {
        let m = f();
        if m.tuples_per_sec > best.tuples_per_sec {
            best = m;
        }
    }
    best
}

/// Render measurements as the lines of one JSON array (no brackets).
pub fn json_section(ms: &[Measurement]) -> String {
    ms.iter()
        .map(|m| {
            format!(
                "    {{\"id\": \"{}\", \"tuples_per_sec\": {:.1}, \"tuples\": {}, \
                 \"secs\": {:.4}, \"avg_batch\": {:.2}}}",
                m.id, m.tuples_per_sec, m.tuples, m.secs, m.avg_batch
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Write a `{"bench": name, "<section>": [...], …}` report to `path`.
pub fn write_report(path: &str, bench: &str, sections: &[(&str, &[Measurement])]) {
    let mut body = format!("{{\n  \"bench\": \"{bench}\"");
    for (name, ms) in sections {
        body.push_str(&format!(",\n  \"{name}\": [\n{}\n  ]", json_section(ms)));
    }
    body.push_str("\n}\n");
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Extract `(id, tuples_per_sec)` pairs from one section of a committed
/// baseline. One-measurement-per-line format; no JSON library needed.
pub fn parse_section(text: &str, section: &str) -> Vec<(String, f64)> {
    let header = format!("\"{section}\"");
    let mut out = Vec::new();
    let mut inside = false;
    for line in text.lines() {
        if line.contains(&header) {
            inside = true;
            continue;
        }
        if inside && line.trim_start().starts_with(']') {
            break;
        }
        if !inside {
            continue;
        }
        let Some(id) = extract_str(line, "\"id\": \"") else {
            continue;
        };
        let Some(rate) = extract_num(line, "\"tuples_per_sec\": ") else {
            continue;
        };
        out.push((id, rate));
    }
    out
}

/// The string value following `key` on `line`, up to the closing quote.
pub fn extract_str(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find('"')?].to_owned())
}

/// The number following `key` on `line`.
pub fn extract_num(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// How far below the committed baseline's an in-process ratio may fall, the
/// better of [`CHECK_RUNS`] runs counting. Single `bench_partition --check`
/// runs of unchanged code on one host landed at 0.73–1.28x of the baseline's
/// ratios (EXPERIMENTS.md "One result path"), one sample of 36 below 0.75x.
pub const RATIO_FLOOR: f64 = 0.75;

/// Smoke runs [`check_ratios`] makes at most; the second only if the first
/// left a ratio under the floor.
pub const CHECK_RUNS: usize = 2;

/// Alternated pairs of runs a paired gate measures.
pub const PAIRS: usize = 5;

/// The quartiles `[q1, median, q3]` of `num() / den()` over `pairs` pairs
/// of runs, alternated — `den`, `num`, `den`, `num`, … — so a slow spell of
/// the host falls on both sides. A gate reads the median: the best of a
/// few short runs passes or fails by luck.
pub fn paired_quartiles(
    pairs: usize,
    mut num: impl FnMut() -> f64,
    mut den: impl FnMut() -> f64,
) -> [f64; 3] {
    let mut r: Vec<f64> = (0..pairs)
        .map(|_| {
            let d = den();
            num() / d
        })
        .collect();
    r.sort_by(f64::total_cmp);
    let at = |q: f64| r[((r.len() - 1) as f64 * q).round() as usize];
    [at(0.25), at(0.5), at(0.75)]
}

/// The committed `rows[num] / rows[den]` of `baseline_path`'s smoke
/// section; NaN, which passes no floor, when a row or the file is missing.
pub fn baseline_ratio(baseline_path: &str, num: &str, den: &str) -> f64 {
    let text = std::fs::read_to_string(baseline_path).unwrap_or_default();
    let pair = [(num.to_owned(), den.to_owned())];
    ratios(&parse_section(&text, "smoke"), &pair)[0]
}

/// `rows[num] / rows[den]` per pair. A missing row makes its ratio NaN,
/// which passes no floor.
fn ratios(rows: &[(String, f64)], pairs: &[(String, String)]) -> Vec<f64> {
    let rate = |id: &str| {
        let row = rows.iter().find(|(row, _)| row == id);
        row.map_or(f64::NAN, |&(_, rate)| rate)
    };
    pairs.iter().map(|(n, d)| rate(n) / rate(d)).collect()
}

/// `--check`: fresh smoke runs of `suite` against the committed baseline in
/// `baseline_path`. Gated are only the `pairs` — `(numerator, denominator)`
/// row ids whose rates one run of the suite measures seconds apart in one
/// process — each ratio against [`RATIO_FLOOR`] of the baseline's. The
/// absolute rates are printed as `report` lines and nothing more: a
/// baseline's were recorded on another day's host, and a slow spell of this
/// one moves them past any sensible floor with the code untouched. Returns
/// the process exit code.
pub fn check_ratios(
    baseline_path: &str,
    pairs: &[(String, String)],
    mut suite: impl FnMut() -> Vec<Measurement>,
) -> i32 {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return 2;
        }
    };
    let baseline = parse_section(&text, "smoke");
    if baseline.is_empty() {
        eprintln!("no smoke measurements found in {baseline_path}");
        return 2;
    }
    let base = ratios(&baseline, pairs);
    // NaN until a run measured the ratio: `NaN.max(x)` is `x`.
    let mut best = vec![f64::NAN; base.len()];
    let holds = |best: &[f64]| {
        best.iter()
            .zip(&base)
            .all(|(now, b)| *now >= RATIO_FLOOR * b)
    };
    for _ in 0..CHECK_RUNS {
        let fresh: Vec<(String, f64)> = suite()
            .into_iter()
            .map(|m| (m.id, m.tuples_per_sec))
            .collect();
        for (id, now) in &fresh {
            if let Some((_, base)) = baseline.iter().find(|(row, _)| row == id) {
                let x = now / base;
                println!("report {id}: baseline {base:.0}/s, now {now:.0}/s ({x:.2}x)");
            }
        }
        for (best, now) in best.iter_mut().zip(ratios(&fresh, pairs)) {
            *best = best.max(now);
        }
        if holds(&best) {
            break;
        }
    }
    for (((num, den), base), now) in pairs.iter().zip(&base).zip(&best) {
        let verdict = if *now >= RATIO_FLOOR * base {
            "ok"
        } else {
            "REGRESSION"
        };
        println!("check {num} over {den}: baseline {base:.2}x, best now {now:.2}x {verdict}");
    }
    if holds(&best) {
        0
    } else {
        eprintln!("in-process ratios regressed versus {baseline_path}");
        1
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn paired_quartiles_alternate_and_sort() {
        let calls = std::cell::RefCell::new(Vec::new());
        let q = super::paired_quartiles(
            5,
            || {
                calls.borrow_mut().push('n');
                [2.0, 9.0, 4.0, 3.0, 5.0][calls.borrow().len() / 2 - 1]
            },
            || {
                calls.borrow_mut().push('d');
                1.0
            },
        );
        assert_eq!(calls.into_inner().iter().collect::<String>(), "dndndndndn");
        assert_eq!(q, [3.0, 4.0, 5.0]);
    }

    use super::*;

    fn m(id: &str, rate: f64) -> Measurement {
        Measurement {
            id: id.into(),
            tuples_per_sec: rate,
            tuples: 10,
            secs: 0.5,
            avg_batch: 0.0,
        }
    }

    #[test]
    fn roundtrip_through_section_parser() {
        let ms = vec![m("a/b", 1234.5), m("c", 9.0)];
        let body = format!("{{\n  \"smoke\": [\n{}\n  ]\n}}\n", json_section(&ms));
        let parsed = parse_section(&body, "smoke");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "a/b");
        assert!((parsed[0].1 - 1234.5).abs() < 1e-6);
        assert!(parse_section(&body, "full").is_empty());
    }

    #[test]
    fn best_of_keeps_fastest() {
        let rates = std::cell::Cell::new(0.0);
        let best = best_of(3, || {
            rates.set(rates.get() + 1.0);
            m("x", if rates.get() == 2.0 { 100.0 } else { 1.0 })
        });
        assert!((best.tuples_per_sec - 100.0).abs() < 1e-9);
    }

    #[test]
    fn check_ratios_gates_the_pairs_only() {
        let path = std::env::temp_dir().join(format!("ssj-ratios-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        write_report(
            path,
            "t",
            &[("smoke", &[m("fast", 200.0), m("slow", 100.0)])],
        );
        let pairs = [("fast".to_string(), "slow".to_string())];
        // Both rows at a tenth of the baseline's rate, ratio intact: passes.
        let steady = || vec![m("fast", 20.0), m("slow", 10.0)];
        assert_eq!(check_ratios(path, &pairs, steady), 0);
        // The second run counts when the first left the ratio under the floor.
        let runs = std::cell::Cell::new(0);
        let recovering = || {
            runs.set(runs.get() + 1);
            vec![
                m("fast", if runs.get() == 1 { 120.0 } else { 190.0 }),
                m("slow", 100.0),
            ]
        };
        assert_eq!(check_ratios(path, &pairs, recovering), 0);
        assert_eq!(runs.get(), 2);
        // Ratio halved in every run, or a row missing: fails.
        assert_eq!(
            check_ratios(path, &pairs, || vec![m("fast", 100.0), m("slow", 100.0)]),
            1
        );
        assert_eq!(check_ratios(path, &pairs, || vec![m("slow", 100.0)]), 1);
        assert_eq!(
            check_ratios("/nonexistent/baseline.json", &pairs, steady),
            2
        );
        std::fs::remove_file(path).unwrap();
    }
}
