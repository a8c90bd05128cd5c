//! `regbench compare`: the verdict on two sets of runs of the same
//! workload, one metric at a time.
//!
//! For each workload × metric the runs' median and quartiles are
//! reported with one of four verdicts:
//!
//! * **better** — every new run beats every base run; or the new runs
//!   win at least nine tenths of all (base, new) pairs and the medians
//!   differ by more than the base runs' own spread;
//! * **unresolved** — otherwise, when either side's spread (quartile
//!   distance over median) is wider than the metric's bound;
//! * **worse** — the new median is worse than the base median by more
//!   than the bound;
//! * **unchanged** — none of the above.
//!
//! A worse metric, or a higher share of failed operations, is a
//! regression and makes the command exit non-zero.

use crate::host::quartiles;
use serde::Value;
use std::collections::BTreeMap;

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (utilization, throughput).
    Higher,
}

/// The comparison outcome of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A resolved improvement.
    Better,
    /// A regression beyond the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// Too noisy to tell.
    Unresolved,
}

/// Relative spread of a sample: quartile distance over the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The verdict on `new` against `base` for a metric whose regression
/// bound is `bound` (a share of the base median).
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let beats = |n: f64, b: f64| match better {
        Better::Lower => n < b,
        Better::Higher => n > b,
    };
    let pairs = base.len() * new.len();
    let wins = new
        .iter()
        .map(|&n| base.iter().filter(|&&b| beats(n, b)).count())
        .sum::<usize>();
    if wins == pairs {
        return Verdict::Better;
    }
    let (b, n) = (quartiles(base)[1], quartiles(new)[1]);
    // How much worse the new median is, as a share of the base median.
    let worse_by = match better {
        Better::Lower => (n - b) / b.abs(),
        Better::Higher => (b - n) / b.abs(),
    };
    if spread(base) > bound || spread(new) > bound {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        return Verdict::Worse;
    }
    if wins * 10 >= pairs * 9 && -worse_by > spread(base) {
        return Verdict::Better;
    }
    Verdict::Unchanged
}

/// One run's result as `regbench run` prints it.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload that ran.
    pub workload: String,
    /// Whether every output matched its golden.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a saved `regbench run` stdout: the `regbench workload=` header
/// line names the workload, the last line is the result object.
pub fn parse_run(text: &str) -> Result<RunResult, String> {
    let workload = text
        .lines()
        .find_map(|l| l.strip_prefix("regbench workload="))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("no `regbench workload=` header line")?
        .to_string();
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let v = serde_json::from_str(last).map_err(|e| format!("last line is not the result: {e}"))?;
    let metrics = match v.get("metrics") {
        Some(Value::Object(fields)) => fields
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err("result has no metrics object".into()),
    };
    Ok(RunResult {
        workload,
        correct: v
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("no `correct`")?,
        attempted: v
            .get("attempted")
            .and_then(Value::as_u64)
            .ok_or("no `attempted`")?,
        failed: v
            .get("failed")
            .and_then(Value::as_u64)
            .ok_or("no `failed`")?,
        metrics,
    })
}

/// A metric's comparison rule, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Good direction.
    pub better: Better,
    /// Regression bound (share of the base median); per-layer metrics
    /// have none and are compared against 0.
    pub bound: f64,
}

/// Reads every metric's rule from a `BENCHMARK.json` text.
pub fn rules(spec: &str) -> Result<BTreeMap<String, Rule>, String> {
    let v = serde_json::from_str(spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in v.get(section).and_then(Value::as_array).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: `better` must be lower or higher")),
            };
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            out.insert(name.to_string(), Rule { better, bound });
        }
    }
    Ok(out)
}

/// Compares two sets of runs and returns the report and whether any
/// regression was found.
pub fn compare(
    base: &[RunResult],
    new: &[RunResult],
    rules: &BTreeMap<String, Rule>,
) -> (String, bool) {
    let mut report = String::new();
    let mut regressed = false;
    let mut workloads: Vec<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    report.push_str(&format!(
        "{:<15} {:<32} {:>33} {:>33}  verdict\n",
        "workload", "metric", "base q1/median/q3", "new q1/median/q3"
    ));
    for w in workloads {
        let b: Vec<&RunResult> = base.iter().filter(|r| r.workload == w).collect();
        let n: Vec<&RunResult> = new.iter().filter(|r| r.workload == w).collect();
        if n.is_empty() {
            report.push_str(&format!("{w:<15} (no new runs)\n"));
            continue;
        }
        let share = |runs: &[&RunResult]| {
            let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
            let failed: u64 = runs.iter().map(|r| r.failed).sum();
            failed as f64 / attempted.max(1) as f64
        };
        let (fb, fnew) = (share(&b), share(&n));
        if fnew > fb || n.iter().any(|r| !r.correct) {
            regressed = true;
            report.push_str(&format!(
                "{w:<15} {:<32} failed share {fb:.4} -> {fnew:.4}  REGRESSION\n",
                "failed/attempted"
            ));
        }
        for (metric, rule) in rules {
            let values = |runs: &[&RunResult]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(metric).copied())
                    .collect()
            };
            let (bv, nv) = (values(&b), values(&n));
            if bv.is_empty() || nv.is_empty() {
                continue;
            }
            let v = verdict(&bv, &nv, rule.better, rule.bound);
            regressed |= v == Verdict::Worse && rule.bound > 0.0;
            let [b1, b2, b3] = quartiles(&bv);
            let [n1, n2, n3] = quartiles(&nv);
            report.push_str(&format!(
                "{w:<15} {metric:<32} {b1:>10.4} {b2:>10.4} {b3:>10.4}  {n1:>10.4} {n2:>10.4} {n3:>10.4}  {v:?}\n"
            ));
        }
    }
    (report, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 5] = [10.0, 10.1, 10.2, 10.3, 10.4];

    #[test]
    fn every_new_run_beating_every_base_run_is_better() {
        // Even with a wide spread: dominance is resolved by itself.
        let new = [5.0, 6.0, 7.0, 8.0, 9.9];
        assert_eq!(verdict(&BASE, &new, Better::Lower, 0.01), Verdict::Better);
        assert_eq!(verdict(&new, &BASE, Better::Higher, 0.01), Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [8.0, 10.0, 12.0, 14.0, 9.0];
        assert_eq!(
            verdict(&BASE, &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &BASE, Better::Lower, 0.05),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_median_worse_than_the_bound_is_worse() {
        let slower = [11.5, 11.6, 11.7, 11.8, 10.3];
        assert_eq!(verdict(&BASE, &slower, Better::Lower, 0.10), Verdict::Worse);
        let lower_util = [0.80, 0.81, 0.82, 0.83, 0.84];
        let util = [0.95, 0.96, 0.97, 0.98, 0.99];
        assert_eq!(
            verdict(&util, &lower_util, Better::Higher, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn within_the_bound_is_unchanged() {
        let same = [10.05, 10.15, 10.25, 10.35, 10.0];
        assert_eq!(
            verdict(&BASE, &same, Better::Lower, 0.10),
            Verdict::Unchanged
        );
        // Worse, but by less than the bound.
        let slightly = [10.6, 10.7, 10.8, 10.9, 10.0];
        assert_eq!(
            verdict(&BASE, &slightly, Better::Lower, 0.10),
            Verdict::Unchanged
        );
    }

    #[test]
    fn nine_tenths_of_pairs_and_a_gap_beyond_the_spread_is_better() {
        // One new run loses to some base runs: not dominance, but 9/10
        // of the pairs and a median gap wider than the base spread.
        let faster = [9.0, 9.1, 9.2, 9.3, 10.15];
        assert_eq!(
            verdict(&BASE, &faster, Better::Lower, 0.20),
            Verdict::Better
        );
        // A gap inside the base spread is not a gain.
        let close = [10.0, 10.05, 10.1, 10.15, 10.45];
        assert_eq!(
            verdict(&BASE, &close, Better::Lower, 0.20),
            Verdict::Unchanged
        );
    }

    fn run(workload: &str, wall: f64, failed: u64) -> RunResult {
        RunResult {
            workload: workload.into(),
            correct: failed == 0,
            attempted: 10,
            failed,
            metrics: [("wall_s".to_string(), wall)].into_iter().collect(),
        }
    }

    #[test]
    fn compare_flags_regressions_and_failures() {
        let rules: BTreeMap<String, Rule> = [(
            "wall_s".to_string(),
            Rule {
                better: Better::Lower,
                bound: 0.10,
            },
        )]
        .into_iter()
        .collect();
        let base: Vec<RunResult> = BASE.iter().map(|&w| run("w", w, 0)).collect();
        let same: Vec<RunResult> = BASE.iter().map(|&w| run("w", w + 0.01, 0)).collect();
        assert!(!compare(&base, &same, &rules).1);
        let slow: Vec<RunResult> = BASE.iter().map(|&w| run("w", w * 1.5, 0)).collect();
        assert!(compare(&base, &slow, &rules).1);
        let failing: Vec<RunResult> = BASE.iter().map(|&w| run("w", w, 1)).collect();
        assert!(compare(&base, &failing, &rules).1);
    }

    #[test]
    fn parses_a_saved_run() {
        let text = "regbench workload=paper_sweep seed=3 trace=0\n  wall_s 1.5 s\n\
                    {\"correct\":true,\"attempted\":4,\"failed\":0,\
                    \"metrics\":{\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}}}\n";
        let r = parse_run(text).unwrap();
        assert_eq!(r.workload, "paper_sweep");
        assert_eq!(r.metrics["wall_s"], 1.5);
        assert!(r.correct && r.attempted == 4 && r.failed == 0);
        assert!(parse_run("{}").is_err());
    }
}
