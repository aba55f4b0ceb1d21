//! `benchmark compare A B`: per workload × end-to-end metric, each
//! side's median and quartiles and a verdict, using the table's bounds;
//! `benchmark baseline SET`: the same summary of one set, as the JSON
//! kept in `baseline.json`.

use std::path::Path;
use std::process::ExitCode;

use serde_json::{json, Value};

use crate::record::{read_set, Record};
use crate::spec::{self, Better, Bound, Metric};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// The run-to-run spread exceeds the bound: the sets cannot tell.
    Unresolved,
    Regressed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// (q1, median, q3); a single run stands for all three.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    match values {
        [one] => (*one, *one, *one),
        _ => stats::quartiles(values),
    }
}

/// Whether `b` reads better than `a` for this metric.
fn better(m: &Metric, a: f64, b: f64) -> bool {
    match m.better {
        Better::Lower => b < a,
        Better::Higher => b > a,
    }
}

/// The verdict on `b` (the change) against `a` (the baseline).
///
/// * a relative bound: `regressed` when the median is worse by more than
///   the bound, `improved` when every run of `b` beats every run of `a`
///   or `b` wins nine tenths of the index-paired runs with medians apart
///   by more than `a`'s interquartile distance; when either side's
///   spread exceeds the bound the sets cannot tell — `unresolved` —
///   unless the runs do not overlap at all;
/// * an absolute bound: `regressed` when any run of `b` exceeds `limit`.
pub fn verdict(m: &Metric, limit: f64, a: &[f64], b: &[f64]) -> Verdict {
    let bound = match m.bound {
        Some(Bound::Relative(bound)) => bound,
        _ => {
            return if b.iter().any(|&v| v > limit) {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            };
        }
    };
    let ((a1, am, a3), (_, bm, _)) = (quartiles(a), quartiles(b));
    let all_better = a.iter().all(|&x| b.iter().all(|&y| better(m, x, y)));
    let all_worse = a.iter().all(|&x| b.iter().all(|&y| better(m, y, x)));
    let worse_by = match m.better {
        Better::Lower => (bm - am) / am.abs(),
        Better::Higher => (am - bm) / am.abs(),
    };
    if all_better {
        return Verdict::Improved;
    }
    if all_worse && worse_by > bound {
        return Verdict::Regressed;
    }
    let spread = |v: &[f64]| if v.len() < 2 { 0.0 } else { stats::spread(v) };
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(m, x, y)).count();
    if pairs >= 2 && wins * 10 >= pairs * 9 && (bm - am).abs() > a3 - a1 {
        return Verdict::Improved;
    }
    Verdict::Unchanged
}

pub fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let (set_a, set_b) = (read_set(a)?, read_set(b)?);
    let values = |set: &[Record], workload: &str, metric: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| r.workload == workload && !r.trace)
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    };
    println!("A = {}\nB = {}", a.display(), b.display());
    println!(
        "{:<11} {:<13} {:>4} {:>11} {:>11} {:>11} | {:>11} {:>11} {:>11}  {:<7} verdict",
        "workload",
        "metric",
        "runs",
        "A q1",
        "A median",
        "A q3",
        "B q1",
        "B median",
        "B q3",
        "bound"
    );
    let mut clean = true;
    for w in &spec::WORKLOADS {
        for m in spec::END_TO_END.iter().filter(|m| m.applies_to(w.name)) {
            let (va, vb) = (values(&set_a, w.name, m.name), values(&set_b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{:<11} {:<13} missing from {}",
                    w.name,
                    m.name,
                    if va.is_empty() { "A" } else { "B" }
                );
                clean = false;
                continue;
            }
            let limit = if m.name == "max_rel_err" { w.tolerance } else { 0.0 };
            let v = verdict(m, limit, &va, &vb);
            clean &= matches!(v, Verdict::Improved | Verdict::Unchanged);
            let ((a1, am, a3), (b1, bm, b3)) = (quartiles(&va), quartiles(&vb));
            let bound = match m.bound {
                Some(Bound::Relative(bound)) => format!("{:.0}%", 100.0 * bound),
                _ => format!("<={limit}"),
            };
            println!(
                "{:<11} {:<13} {:>4} {a1:>11.5} {am:>11.5} {a3:>11.5} | {b1:>11.5} {bm:>11.5} {b3:>11.5}  {bound:<7} {}",
                w.name,
                m.name,
                format!("{}/{}", va.len(), vb.len()),
                v.as_str()
            );
        }
    }
    let incorrect = set_a.iter().chain(&set_b).filter(|r| !r.correct).count();
    if incorrect > 0 {
        println!("{incorrect} runs were incorrect");
    }
    Ok(if clean && incorrect == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `benchmark baseline SET --commit C`: medians, quartiles and sample
/// counts of a run set per workload × end-to-end metric, with what the
/// numbers depend on (`nproc`, pool, window, seeds, commit).
pub fn baseline(set: &Path, commit: &str) -> Result<ExitCode, String> {
    let records: Vec<Record> = read_set(set)?.into_iter().filter(|r| !r.trace).collect();
    let first = records.first().ok_or("the set holds no untraced run")?;
    let mut seeds: Vec<u64> = records.iter().map(|r| r.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    let workloads = spec::WORKLOADS
        .iter()
        .map(|w| {
            let of: Vec<&Record> = records.iter().filter(|r| r.workload == w.name).collect();
            let metrics = spec::END_TO_END
                .iter()
                .filter(|m| m.applies_to(w.name))
                .filter_map(|m| {
                    let values: Vec<f64> =
                        of.iter().filter_map(|r| r.metrics.get(m.name).copied()).collect();
                    let (q1, median, q3) = quartiles(values.first().map(|_| values.as_slice())?);
                    let samples = of.iter().filter_map(|r| r.samples.get(m.name)).min();
                    Some((
                        m.name.to_string(),
                        json!({
                            "unit": m.unit,
                            "q1": q1,
                            "median": median,
                            "q3": q3,
                            "samples_per_run": samples.copied()
                        }),
                    ))
                })
                .collect();
            let correct = of.iter().filter(|r| r.correct).count();
            (
                w.name.to_string(),
                json!({ "runs": of.len(), "correct": correct, "metrics": Value::Object(metrics) }),
            )
        })
        .collect();
    let v = json!({
        "commit": commit,
        "nproc": first.nproc,
        "pool": 1,
        "seconds": first.seconds,
        "seeds": Value::Array(seeds.into_iter().map(Value::from).collect()),
        "workloads": Value::Object(workloads)
    });
    println!("{}", serde_json::to_string_pretty(&v).expect("serializes"));
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        spec::END_TO_END.iter().find(|m| m.name == name).expect("declared")
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let p50 = metric("eco_p50_s"); // lower is better, 10 %
        let base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01];
        let scaled = |f: f64| base.map(|v| v * f);
        assert_eq!(verdict(p50, 0.0, &base, &scaled(1.0)), Verdict::Unchanged);
        assert_eq!(verdict(p50, 0.0, &base, &scaled(1.05)), Verdict::Unchanged);
        assert_eq!(verdict(p50, 0.0, &base, &scaled(1.2)), Verdict::Regressed);
        assert_eq!(verdict(p50, 0.0, &base, &scaled(0.8)), Verdict::Improved);
        // A spread wider than the bound cannot resolve a shift inside it.
        let noisy = [0.8, 1.3, 0.9, 1.2, 1.0, 0.7, 1.4, 1.1, 0.85, 1.25];
        assert_eq!(verdict(p50, 0.0, &base, &noisy), Verdict::Unresolved);
        // ...but runs that do not overlap at all still decide.
        assert_eq!(verdict(p50, 0.0, &noisy, &noisy.map(|v| v * 3.0)), Verdict::Regressed);
        // Direction flips for higher-is-better metrics.
        let rate = metric("par_speedup"); // 10 %
        assert_eq!(verdict(rate, 0.0, &base, &scaled(0.8)), Verdict::Regressed);
        assert_eq!(verdict(rate, 0.0, &base, &scaled(1.2)), Verdict::Improved);
    }

    #[test]
    fn absolute_bounds_look_at_every_run() {
        let err = metric("max_rel_err");
        assert_eq!(verdict(err, 0.05, &[0.01], &[0.01, 0.049]), Verdict::Unchanged);
        assert_eq!(verdict(err, 0.05, &[0.01], &[0.01, 0.051]), Verdict::Regressed);
        assert_eq!(verdict(metric("failed_share"), 0.0, &[0.0], &[0.0, 0.001]), Verdict::Regressed);
    }
}
