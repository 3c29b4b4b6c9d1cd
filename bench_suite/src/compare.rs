//! `compare`: two sets of runs, one row per workload and metric, and a
//! verdict under the metric's own bound.
//!
//! The rule is the one the metrics guide gives: the candidate's median
//! may not be worse than the baseline's by more than the bound; where
//! either side's own runs spread wider than the bound the row is
//! `unresolved`, not `same` — unless every run of one side beats every
//! run of the other, which no amount of spread explains away.

use std::path::Path;

use crate::hist::quartiles;
use crate::json::Json;
use crate::metrics::{find, Better, COMPARED_DIAGNOSTICS, END_TO_END};
use crate::record::{metric_of, SCHEMA};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartiles and spread of one side's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        match values {
            [] => None,
            [one] => Some(Summary {
                q1: *one,
                median: *one,
                q3: *one,
            }),
            _ => quartiles(values).map(|[q1, median, q3]| Summary { q1, median, q3 }),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Judges candidate runs `b` against baseline runs `a`.
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
) -> Option<(Summary, Summary, Verdict)> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    // Positive when the candidate is worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = if sa.median == 0.0 {
        0.0
    } else {
        sign * (sb.median - sa.median) / sa.median.abs()
    };
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let b_all_worse = sign * (min(b) - max(a)) > 0.0 && sign * (max(b) - min(a)) > 0.0;
    let a_all_worse = sign * (min(a) - max(b)) > 0.0 && sign * (max(a) - min(b)) > 0.0;
    let noisy = sa.spread() > bound || sb.spread() > bound;
    let verdict = if noisy {
        match (
            b_all_worse && worse_by > bound,
            a_all_worse && -worse_by > bound,
        ) {
            (true, _) => Verdict::Worse,
            (_, true) => Verdict::Better,
            _ => Verdict::Unresolved,
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Some((sa, sb, verdict))
}

/// `failed_share` may not rise by more than this, absolutely.
const FAILED_SHARE_SLACK: f64 = 0.001;

/// The untraced runs found in a result file, or in every `.json` file
/// of a directory.
pub fn load_runs(path: &Path) -> Result<Vec<Json>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        files.extend(
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json")),
        );
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut runs = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        if json.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{}: not a {SCHEMA} result file", file.display()));
        }
        let listed = json.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
        runs.extend(
            listed
                .iter()
                .filter(|r| r.get("trace").and_then(Json::as_bool) == Some(false))
                .cloned(),
        );
    }
    if runs.is_empty() {
        return Err(format!("{}: no untraced runs", path.display()));
    }
    Ok(runs)
}

fn values(runs: &[Json], workload: Workload, metric: impl Fn(&Json) -> Option<f64>) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload.name()))
        .filter_map(metric)
        .collect()
}

fn failed_share(run: &Json) -> Option<f64> {
    let failed = run.get("failed")?.as_f64()?;
    let attempted = run.get("attempted")?.as_f64()?;
    (attempted > 0.0).then(|| failed / attempted)
}

/// One line of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    /// Whether the driver enforces the bound (end-to-end metrics), or
    /// the row is there for the reader (diagnostics).
    pub enforced: bool,
    pub a: Summary,
    pub b: Summary,
    pub a_values: Vec<f64>,
    pub b_values: Vec<f64>,
    pub verdict: Verdict,
}

pub fn compare(a: &[Json], b: &[Json]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let names = END_TO_END
            .iter()
            .map(|d| (d.name, true))
            .chain(COMPARED_DIAGNOSTICS.iter().map(|&n| (n, false)));
        for (name, enforced) in names {
            let Some(def) = find(name) else { continue };
            let va = values(a, workload, |r| metric_of(r, name));
            let vb = values(b, workload, |r| metric_of(r, name));
            // A diagnostic a workload does not exercise reads 0 on both
            // sides; there is nothing to judge.
            let idle = va.iter().chain(&vb).all(|&v| v == 0.0);
            if !enforced && idle {
                continue;
            }
            if let Some((sa, sb, verdict)) = judge(&va, &vb, def.better, def.bound) {
                rows.push(Row {
                    workload: workload.name(),
                    metric: def.name,
                    unit: def.unit,
                    bound: def.bound,
                    enforced,
                    a: sa,
                    b: sb,
                    a_values: va,
                    b_values: vb,
                    verdict,
                });
            }
        }
        let (va, vb) = (
            values(a, workload, failed_share),
            values(b, workload, failed_share),
        );
        if let (Some(sa), Some(sb)) = (Summary::of(&va), Summary::of(&vb)) {
            let verdict = if sb.median > sa.median + FAILED_SHARE_SLACK {
                Verdict::Worse
            } else if sa.median > sb.median + FAILED_SHARE_SLACK {
                Verdict::Better
            } else {
                Verdict::Same
            };
            rows.push(Row {
                workload: workload.name(),
                metric: "failed_share",
                unit: "ratio",
                bound: FAILED_SHARE_SLACK,
                enforced: true,
                a: sa,
                b: sb,
                a_values: va,
                b_values: vb,
                verdict,
            });
        }
    }
    rows
}

fn fmt(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 {
        "0".into()
    } else if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

pub fn print(rows: &[Row], per_run: bool) {
    println!(
        "{:<14} {:<20} {:>5} | {:>11} {:>11} {:>11} {:>6} | {:>11} {:>11} {:>11} {:>6} | {:>6}  verdict",
        "workload", "metric", "unit", "A q1", "A median", "A q3", "spread", "B q1", "B median",
        "B q3", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<14} {:<20} {:>5} | {:>11} {:>11} {:>11} {:>5.1}% | {:>11} {:>11} {:>11} {:>5.1}% | {:>5.1}%  {}{}",
            r.workload,
            r.metric,
            r.unit,
            fmt(r.a.q1),
            fmt(r.a.median),
            fmt(r.a.q3),
            r.a.spread() * 100.0,
            fmt(r.b.q1),
            fmt(r.b.median),
            fmt(r.b.q3),
            r.b.spread() * 100.0,
            r.bound * 100.0,
            r.verdict.as_str(),
            if r.enforced { "" } else { " (diagnostic)" },
        );
        if per_run {
            let list = |v: &[f64]| v.iter().map(|&x| fmt(x)).collect::<Vec<_>>().join(" ");
            println!("    A runs: {}", list(&r.a_values));
            println!("    B runs: {}", list(&r.b_values));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
        judge(a, b, better, bound).unwrap().2
    }

    #[test]
    fn tight_runs_are_judged_by_their_medians() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let near = [104.0, 103.0, 105.0, 104.5, 103.5];
        let far = [115.0, 114.0, 116.0, 115.5, 114.5];
        let low = [85.0, 84.0, 86.0, 85.5, 84.5];
        assert_eq!(verdict(&a, &near, Better::Lower, 0.10), Verdict::Same);
        assert_eq!(verdict(&a, &far, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &low, Better::Lower, 0.10), Verdict::Better);
        // The same numbers read the other way for a throughput.
        assert_eq!(verdict(&a, &far, Better::Higher, 0.10), Verdict::Better);
        assert_eq!(verdict(&a, &low, Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &a, Better::Higher, 0.10), Verdict::Same);
    }

    #[test]
    fn wide_runs_are_unresolved_unless_one_side_wins_every_pairing() {
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_b = [85.0, 105.0, 125.0, 95.0, 115.0];
        assert_eq!(
            verdict(&noisy_a, &noisy_b, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Just as noisy, but every run is worse than every baseline run.
        let way_up = [200.0, 260.0, 300.0, 220.0, 280.0];
        assert_eq!(
            verdict(&noisy_a, &way_up, Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&way_up, &noisy_a, Better::Lower, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn single_runs_and_missing_sides() {
        assert_eq!(
            verdict(&[10.0], &[10.5], Better::Lower, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&[10.0], &[12.0], Better::Lower, 0.10),
            Verdict::Worse
        );
        assert!(judge(&[], &[1.0], Better::Lower, 0.1).is_none());
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.spread(), 1.0);
    }

    fn run(workload: &str, ops: f64, failed: f64) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("trace", Json::Bool(false)),
            ("attempted", Json::Num(1000.0)),
            ("failed", Json::Num(failed)),
            (
                "end_to_end",
                Json::obj([(
                    "ops_per_s",
                    Json::obj([("value", Json::Num(ops)), ("unit", Json::str("1/s"))]),
                )]),
            ),
        ])
    }

    #[test]
    fn rows_come_out_per_workload_and_metric_with_failed_share() {
        let a: Vec<Json> = [1000.0, 1010.0, 990.0]
            .iter()
            .map(|&v| run("engine_read", v, 0.0))
            .collect();
        let b: Vec<Json> = [700.0, 710.0, 690.0]
            .iter()
            .map(|&v| run("engine_read", v, 5.0))
            .collect();
        let rows = compare(&a, &b);
        let find = |m: &str| rows.iter().find(|r| r.metric == m).unwrap();
        assert!(rows.iter().all(|r| r.workload == "engine_read"));
        assert_eq!(find("ops_per_s").verdict, Verdict::Worse);
        assert_eq!(find("ops_per_s").b.median, 700.0);
        // 5 failed of 1000 is over the absolute slack of 0.001.
        assert_eq!(find("failed_share").verdict, Verdict::Worse);
        assert_eq!(
            compare(&a, &a)
                .iter()
                .filter(|r| r.verdict != Verdict::Same)
                .count(),
            0
        );
    }
}
