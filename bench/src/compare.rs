//! `blazebench compare A.json B.json`: per workload and end-to-end metric,
//! both medians and quartiles, the change and the bound from
//! `BENCHMARK.json`, and a verdict that refuses to call noise a result.

use std::path::Path;

use crate::json::Json;
use crate::stats::{iqr_share, quartiles};
use crate::Res;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regression,
    /// The spread between samples exceeds the bound and the two sides
    /// overlap: the data cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and the samples behind it.
pub struct Side<'a> {
    pub value: f64,
    pub samples: &'a [f64],
}

/// Judges `b` against `a`. `worse` is the change as a share of `a`'s
/// value, positive when `b` is worse; the spread comes from the samples.
pub fn judge(a: &Side, b: &Side, lower_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (med_a, med_b) = (a.value, b.value);
    let (a, b) = (a.samples, b.samples);
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (med_b - med_a) / med_a.abs();
    let spread = iqr_share(a).max(iqr_share(b));
    let every_b_beyond_a = |want_worse: bool| {
        b.iter().all(|&y| {
            a.iter()
                .all(|&x| (sign * (y - x) > 0.0) == want_worse && y != x)
        })
    };
    let verdict = if spread > bound {
        // Too noisy for medians; only a clean separation counts.
        if every_b_beyond_a(true) {
            Verdict::Regression
        } else if every_b_beyond_a(false) {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, spread, verdict)
}

fn load(path: &Path) -> Res<Json> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn failed_share(workload: &Json) -> f64 {
    let get = |k: &str| workload.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    if get("attempted") > 0.0 {
        get("failed") / get("attempted")
    } else {
        1.0
    }
}

/// Prints the comparison; `Ok(true)` when `b` is acceptable against `a`:
/// no regression and no larger share of failed queries.
pub fn compare(a_path: &Path, b_path: &Path, benchmark_path: &Path) -> Res<bool> {
    let (a, b, contract) = (load(a_path)?, load(b_path)?, load(benchmark_path)?);
    let metrics = contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("A has no workloads")?;
    println!(
        "A = {} (rev {})\nB = {} (rev {})",
        a_path.display(),
        a.get("rev").and_then(Json::as_str).unwrap_or("?"),
        b_path.display(),
        b.get("rev").and_then(Json::as_str).unwrap_or("?"),
    );
    println!(
        "{:<12} {:<16} {:>11} {:>19} {:>11} {:>19} {:>8} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "A value",
        "A q1..q3",
        "B value",
        "B q1..q3",
        "worse",
        "spread",
        "bound"
    );
    let mut acceptable = true;
    for (name, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<12} missing from B");
            acceptable = false;
            continue;
        };
        for m in metrics {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("");
            let metric = field("name");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let side = |w: &Json| {
                let m = w.get("end_to_end")?.get(metric)?;
                Some((m.get("value")?.as_f64()?, m.get("samples")?.as_f64s()?))
            };
            let (Some((va, sa)), Some((vb, sb))) = (side(wa), side(wb)) else {
                println!("{name:<12} {metric:<16} missing");
                acceptable = false;
                continue;
            };
            let (a_side, b_side) = (
                Side {
                    value: va,
                    samples: &sa,
                },
                Side {
                    value: vb,
                    samples: &sb,
                },
            );
            let (worse, spread, verdict) =
                judge(&a_side, &b_side, field("better") == "lower", bound);
            let (qa, qb) = (quartiles(&sa), quartiles(&sb));
            println!(
                "{name:<12} {metric:<16} {:>11.4} {:>9.4}..{:<9.4} {:>11.4} {:>9.4}..{:<9.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {}",
                va, qa.0, qa.2, vb, qb.0, qb.2,
                worse * 100.0, spread * 100.0, bound * 100.0, verdict.label()
            );
            acceptable &= verdict != Verdict::Regression;
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        if fb > fa {
            println!("{name:<12} failed share rose from {fa:.4} to {fb:.4}");
            acceptable = false;
        }
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A side whose value is the median of its samples.
    fn side(samples: &[f64]) -> Side<'_> {
        Side {
            value: quartiles(samples).1,
            samples,
        }
    }

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.4, 100.1, 99.8];
        assert_eq!(
            judge(&side(&steady), &side(&same), true, 0.1).2,
            Verdict::Unchanged
        );
        let slower: Vec<f64> = steady.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            judge(&side(&steady), &side(&slower), true, 0.1).2,
            Verdict::Regression
        );
        assert_eq!(
            judge(&side(&slower), &side(&steady), true, 0.1).2,
            Verdict::Improved
        );
        // The same numbers as a throughput: higher is better.
        assert_eq!(
            judge(&side(&steady), &side(&slower), false, 0.1).2,
            Verdict::Improved
        );
        let (worse, _, _) = judge(&side(&steady), &side(&slower), true, 0.1);
        assert!((worse - 0.2).abs() < 1e-9);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_b = [85.0, 105.0, 125.0, 95.0, 100.0];
        assert_eq!(
            judge(&side(&noisy_a), &side(&noisy_b), true, 0.1).2,
            Verdict::Unresolved
        );
        // ... unless every sample of one side beats every sample of the other.
        let far: Vec<f64> = noisy_a.iter().map(|x| x * 2.0).collect();
        assert_eq!(
            judge(&side(&noisy_a), &side(&far), true, 0.1).2,
            Verdict::Regression
        );
        assert_eq!(
            judge(&side(&far), &side(&noisy_a), true, 0.1).2,
            Verdict::Improved
        );
    }

    #[test]
    fn single_samples_compare_by_median() {
        assert_eq!(
            judge(&side(&[200.0]), &side(&[204.0]), true, 0.05).2,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&side(&[200.0]), &side(&[220.0]), true, 0.05).2,
            Verdict::Regression
        );
    }
}
