//! `segbench compare A B`: judge two sets of runs.
//!
//! Each input holds one run per line, as `--append` writes them:
//! `{"workload": .., "seed": .., "trace": 0|1, "result": {..}}`. Only
//! untraced runs are compared. Per workload × end-to-end metric, with `A`
//! the parent and `B` the change, the verdict is:
//!
//! * `identical` / `CHANGED` — a deterministic metric (every run on each
//!   side reads the same) must read the same on both sides;
//! * `gain` — B wins at least 9 of 10 pairs (run `i` of A against run `i`
//!   of B, ties counting for neither) and the medians differ by more than
//!   A's interquartile range;
//! * `unresolved` — either side's interquartile range, as a share of its
//!   median, exceeds the metric's bound (unless every B run beats every A
//!   run, reported as `better`);
//! * `REGRESSION` — B's median is worse than A's by more than the bound;
//! * `same` — otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use segbus_serve::json::{self, Json};

use crate::stats::{median, quartiles};

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Read the `end_to_end` table of a `BENCHMARK.json`.
pub fn read_bench(path: &Path) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(metrics)) = v.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = match m.get("bound") {
                Some(Json::Num(b)) => Some(*b),
                Some(Json::UInt(b)) => Some(*b as f64),
                _ => None,
            };
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(MetricSpec {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("{}: malformed end_to_end entry", path.display())),
            }
        })
        .collect()
}

/// One untraced run read back from a runs file.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// The run's `correct` flag.
    pub correct: bool,
    /// The run's `failed` count.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The runs-file line for one run (see the module docs).
pub fn run_line(workload: &str, seed: u64, trace: bool, result_json: &str) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"result\": {result_json}}}",
        u8::from(trace)
    )
}

/// Read the untraced runs of a runs file.
pub fn read_runs(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = || format!("{}:{}: not a run line", path.display(), n + 1);
        let v = json::parse(line).map_err(|_| bad())?;
        if v.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let (Some(workload), Some(result)) =
            (v.get("workload").and_then(Json::as_str), v.get("result"))
        else {
            return Err(bad());
        };
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(ms)) = result.get("metrics") {
            for (name, m) in ms {
                let value = match m.get("value") {
                    Some(Json::Num(x)) => *x,
                    Some(Json::UInt(x)) => *x as f64,
                    _ => return Err(bad()),
                };
                metrics.insert(name.clone(), value);
            }
        }
        out.push(RunRecord {
            workload: workload.to_string(),
            correct: result.get("correct").and_then(Json::as_bool) == Some(true),
            failed: result
                .get("failed")
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX),
            metrics,
        });
    }
    Ok(out)
}

/// The verdict for one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Deterministic and equal on both sides.
    Identical,
    /// Deterministic but different: always a failure.
    Changed,
    /// B is better by the 9-of-10 and IQR rule.
    Gain,
    /// Every B run beats every A run, though the spread exceeds the bound.
    Better,
    /// The spread exceeds the bound: no conclusion.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// Within the bound.
    Same,
}

/// Judge one metric's values (`a` the parent, `b` the change).
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let constant = |xs: &[f64]| xs.iter().all(|&x| x == xs[0]);
    if constant(a) && constant(b) {
        return if a[0] == b[0] {
            Verdict::Identical
        } else {
            Verdict::Changed
        };
    }
    // `better(x, y)`: x is strictly better than y.
    let better = |x: f64, y: f64| if spec.lower_is_better { x < y } else { x > y };
    let (ma, mb) = (median(a), median(b));
    let (qa, qb) = (quartiles(a), quartiles(b));
    let (iqr_a, iqr_b) = (qa[2] - qa[0], qb[2] - qb[0]);
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    if better(mb, ma) && 10 * wins >= 9 * pairs && (mb - ma).abs() > iqr_a {
        return Verdict::Gain;
    }
    let spread = |iqr: f64, m: f64| if m == 0.0 { 0.0 } else { (iqr / m).abs() };
    if spread(iqr_a, ma) > spec.bound || spread(iqr_b, mb) > spec.bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worse = if spec.lower_is_better {
        mb - ma
    } else {
        ma - mb
    };
    if worse > spec.bound * ma.abs() {
        Verdict::Regression
    } else {
        Verdict::Same
    }
}

/// Compare two sets of runs; returns the report and `true` when nothing
/// regressed, changed or failed.
pub fn compare(specs: &[MetricSpec], a: &[RunRecord], b: &[RunRecord]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().chain(b) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let _ = writeln!(
        out,
        "{:<15} {:<17} {:>34} {:>34}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)"
    );
    for w in workloads {
        let runs = |side: &[RunRecord]| -> Vec<RunRecord> {
            side.iter().filter(|r| r.workload == w).cloned().collect()
        };
        let (ra, rb) = (runs(a), runs(b));
        for (side, rs) in [("A", &ra), ("B", &rb)] {
            let bad = rs.iter().filter(|r| !r.correct || r.failed > 0).count();
            if bad > 0 {
                ok = false;
                let _ = writeln!(
                    out,
                    "{w}: {bad} run(s) of {side} failed a check or an operation"
                );
            }
        }
        for spec in specs {
            let values = |rs: &[RunRecord]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(&spec.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(spec, &va, &vb);
            ok &= !matches!(verdict, Verdict::Changed | Verdict::Regression);
            let show = |v: &[f64]| {
                let q = quartiles(v);
                format!("{:.6} [{:.6}, {:.6}] ({})", median(v), q[0], q[2], v.len())
            };
            let _ = writeln!(
                out,
                "{w:<15} {:<17} {:>34} {:>34}  {verdict:?}",
                spec.name,
                show(&va),
                show(&vb)
            );
        }
    }
    (out, ok)
}
