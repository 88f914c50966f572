//! `sysbench compare A.json B.json`: one row per workload × end-to-end
//! metric, judged by the bounds `BENCHMARK.json` fixes.

use crate::json::Json;
use crate::spec::Declaration;

/// Verdict on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both records are steadier than the bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// A record's own spread exceeds the bound: the row neither shows a
    /// regression nor shows that nothing changed.
    Unresolved,
    /// Present in only one record.
    Missing,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    pub unit: String,
    pub bound: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

fn num(j: &Json, keys: &[&str]) -> Option<f64> {
    j.path(keys).and_then(Json::as_f64)
}

/// How much worse `new` is than `base`, as a share of `base`.
fn worsening(base: f64, new: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (new - base) / base
    } else {
        (base - new) / base
    }
}

/// Compares record `b` against base record `a`. Returns the rows and
/// whether `b` fails: a regressed or missing row, or a higher share of
/// failed operations on some workload.
pub fn compare(decl: &Declaration, a: &Json, b: &Json) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for w in &decl.workloads {
        let share = |r: &Json| {
            Some(num(r, &["workloads", w, "ops_failed"])? / num(r, &["workloads", w, "ops"])?)
        };
        match (share(a), share(b)) {
            (Some(sa), Some(sb)) if sb > sa => failures.push(format!(
                "{w}: failed share of operations rose from {sa:.4} to {sb:.4}"
            )),
            (Some(_), Some(_)) => {}
            _ => failures.push(format!("{w}: missing from a record")),
        }
        for m in &decl.end_to_end {
            let field = |r: &Json, f: &str| num(r, &["workloads", w, "end_to_end", &m.name, f]);
            let bound = m.bound.unwrap_or(0.0);
            let (base, new) = (field(a, "value"), field(b, "value"));
            let spread = field(a, "spread")
                .unwrap_or(0.0)
                .max(field(b, "spread").unwrap_or(0.0));
            let verdict = match (base, new) {
                (Some(base), Some(new)) => {
                    if spread > bound {
                        Verdict::Unresolved
                    } else if worsening(base, new, m.lower_is_better) > bound {
                        Verdict::Regressed
                    } else {
                        Verdict::Ok
                    }
                }
                _ => Verdict::Missing,
            };
            if matches!(verdict, Verdict::Regressed | Verdict::Missing) {
                failures.push(format!("{w} {}: {verdict:?}", m.name));
            }
            rows.push(Row {
                workload: w.clone(),
                metric: m.name.clone(),
                base: base.unwrap_or(f64::NAN),
                new: new.unwrap_or(f64::NAN),
                unit: m.unit.clone(),
                bound,
                spread,
                verdict,
            });
        }
    }
    (rows, failures)
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<18} {:<12} {:>12} {:>12} {:<5} {:>16} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "unit", "new/base", "bound", "spread"
    );
    for r in rows {
        println!(
            "{:<18} {:<12} {:>12.5} {:>12.5} {:<5} {:>7.4} of {:<6.4} {:>6.1}% {:>6.1}%  {:?}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.unit,
            r.new / r.base,
            r.base,
            100.0 * r.bound,
            100.0 * r.spread,
            r.verdict
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(job_s: f64, spread: f64, failed: f64) -> Json {
        let metric =
            |v: f64, s: f64| Json::obj([("value", Json::Num(v)), ("spread", Json::Num(s))]);
        let decl = Declaration::built_in().unwrap();
        let workloads = decl.workloads.iter().map(|w| {
            let e2e = decl.end_to_end.iter().map(|m| {
                let v = if m.name == "job_s" {
                    metric(job_s, spread)
                } else {
                    metric(1.0, 0.0)
                };
                (m.name.clone(), v)
            });
            let body = Json::obj([
                ("ops", Json::Num(100.0)),
                ("ops_failed", Json::Num(failed)),
                ("end_to_end", Json::obj(e2e)),
            ]);
            (w.clone(), body)
        });
        Json::obj([("workloads", Json::obj(workloads))])
    }

    #[test]
    fn verdicts_follow_bound_spread_and_failures() {
        let decl = Declaration::built_in().unwrap();
        let bound = decl
            .end_to_end
            .iter()
            .find(|m| m.name == "job_s")
            .unwrap()
            .bound
            .unwrap();
        let base = record(10.0, 0.01, 0.0);
        let verdicts = |b: &Json| {
            let (rows, failures) = compare(&decl, &base, b);
            let v: Vec<Verdict> = rows
                .iter()
                .filter(|r| r.metric == "job_s")
                .map(|r| r.verdict)
                .collect();
            (v[0], failures.is_empty())
        };
        assert_eq!(verdicts(&base), (Verdict::Ok, true));
        assert_eq!(
            verdicts(&record(10.0 * (1.0 + bound * 0.9), 0.01, 0.0)),
            (Verdict::Ok, true)
        );
        assert_eq!(
            verdicts(&record(10.0 * (1.0 + bound * 1.1), 0.01, 0.0)),
            (Verdict::Regressed, false)
        );
        // Faster is never a regression.
        assert_eq!(verdicts(&record(5.0, 0.01, 0.0)), (Verdict::Ok, true));
        // A record noisier than the bound resolves nothing, either way.
        assert_eq!(
            verdicts(&record(20.0, bound * 1.5, 0.0)),
            (Verdict::Unresolved, true)
        );
        assert_eq!(
            verdicts(&record(10.0, bound * 1.5, 0.0)),
            (Verdict::Unresolved, true)
        );
        // More failed operations fail the comparison with every row fine.
        assert_eq!(verdicts(&record(10.0, 0.01, 1.0)), (Verdict::Ok, false));
        // A record without the workloads is a failure, not a pass.
        assert!(!compare(&decl, &base, &Json::obj::<String>([])).1.is_empty());
    }
}
