//! `compare A.json B.json`: applies the per-metric bounds of
//! `BENCHMARK.json` to every (workload, end-to-end metric) pair of two
//! result files written by `all --json`, one row per pair.
//!
//! With `worse` the relative change of B's median from A's in the
//! metric's bad direction, and `spread` the wider of the two sides'
//! interquartile ranges over their medians:
//!
//! * `regressed` — `worse` exceeds the bound;
//! * `improved` — B is better by more than the bound and every run of B
//!   reads better than every run of A;
//! * `unresolved` — neither, and `spread` exceeds the bound: the runs
//!   cannot tell a change of the bound's size from noise;
//! * `ok` — otherwise.
//!
//! Ratios are printed with their base (A's median).

use crate::json::Json;
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn bounds_of(benchmark_json: &Json) -> Result<Vec<Bound>, String> {
    benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("end_to_end entry lacks {k}"))
            };
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                unit: field("unit")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Interquartile range over the median; 0 with fewer than two runs.
fn spread(runs: &[f64]) -> f64 {
    if runs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(runs);
    (q3 - q1).abs() / median(runs).abs().max(f64::MIN_POSITIVE)
}

pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let worse = if bound.lower_is_better {
        change
    } else {
        -change
    };
    let spread = spread(a).max(spread(b));
    let b_all_better = b.iter().all(|y| {
        a.iter()
            .all(|x| if bound.lower_is_better { y < x } else { y > x })
    });
    let verdict = if worse > bound.bound {
        Verdict::Regressed
    } else if worse < -bound.bound && b_all_better {
        Verdict::Improved
    } else if spread > bound.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, change, spread)
}

fn runs_of(result: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("runs")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Prints the table and returns the worst verdict seen.
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> Result<Verdict, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first file has no workloads")?;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A-1", "spread", "bound"
    );
    let mut worst = Verdict::Ok;
    for (workload, _) in workloads {
        for bound in bounds {
            let (Some(ra), Some(rb)) = (
                runs_of(a, workload, &bound.name),
                runs_of(b, workload, &bound.name),
            ) else {
                return Err(format!(
                    "{workload}/{} is missing from one file",
                    bound.name
                ));
            };
            let (verdict, change, spread) = judge(&ra, &rb, bound);
            println!(
                "{:<18} {:<12} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>6.1}%  {} ({} is better, base A = {:.4} {})",
                workload,
                bound.name,
                median(&ra),
                median(&rb),
                change * 100.0,
                spread * 100.0,
                bound.bound * 100.0,
                verdict.as_str(),
                if bound.lower_is_better { "lower" } else { "higher" },
                median(&ra),
                bound.unit,
            );
            if verdict == Verdict::Regressed
                || (verdict == Verdict::Unresolved && worst != Verdict::Regressed)
            {
                worst = verdict;
            }
        }
        for (file, name) in [(a, "A"), (b, "B")] {
            let failed = file
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("failed"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            if failed > 0.0 {
                println!(
                    "{workload:<18} fail_frac    {name} reports {failed} failed ops: regressed"
                );
                worst = Verdict::Regressed;
            }
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, b: f64) -> Bound {
        Bound {
            name: "m".into(),
            unit: "u".into(),
            lower_is_better: lower,
            bound: b,
        }
    }

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 100.2];
        let v = |a: &[f64], b: &[f64], bd: &Bound| judge(a, b, bd).0;
        assert_eq!(v(&steady, &steady, &bound(true, 0.05)), Verdict::Ok);
        // 10 % more of a lower-is-better metric.
        let slow: Vec<f64> = steady.iter().map(|x| x * 1.1).collect();
        assert_eq!(v(&steady, &slow, &bound(true, 0.05)), Verdict::Regressed);
        assert_eq!(v(&steady, &slow, &bound(false, 0.05)), Verdict::Improved);
        assert_eq!(v(&slow, &steady, &bound(true, 0.05)), Verdict::Improved);
        // Same medians, but runs too scattered to resolve 5 %.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(v(&steady, &noisy, &bound(true, 0.05)), Verdict::Unresolved);
        // A single run per side has no spread to object to.
        assert_eq!(v(&[100.0], &[103.0], &bound(true, 0.05)), Verdict::Ok);
    }
}
