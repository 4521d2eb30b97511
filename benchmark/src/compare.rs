//! `--compare A.json B.json`: apply each end-to-end metric's bound, per
//! workload, to two result files of several runs each, and say whether the
//! second is improved, unchanged, regressed or unresolved against the first.

use crate::json::Json;
use crate::metrics::{compare_bounds, Better, Bound, LADDER_RATES};
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Decision {
    pub fn label(self) -> &'static str {
        match self {
            Decision::Improved => "improved",
            Decision::Unchanged => "unchanged",
            Decision::Regressed => "regressed",
            Decision::Unresolved => "unresolved",
        }
    }
}

/// Position of a rate on the ladder (0 = no rung met the limit).
fn rung_index(rate: f64) -> i64 {
    LADDER_RATES.iter().position(|&r| r as f64 == rate).map_or(0, |i| i as i64 + 1)
}

/// Decide one metric on one workload from the runs of both sides.
pub fn decide(better: Better, bound: Bound, base: &[f64], change: &[f64]) -> Decision {
    let (base_median, change_median) = (median(base), median(change));
    // Worsening is positive whichever way "better" points.
    let worse_by = match better {
        Better::Lower => change_median - base_median,
        Better::Higher => base_median - change_median,
    };
    let beats = |c: f64, b: f64| match better {
        Better::Lower => c < b,
        Better::Higher => c > b,
    };
    let every_run_better = change.iter().all(|&c| base.iter().all(|&b| beats(c, b)));
    match bound {
        Bound::AnyIncrease => {
            if worse_by > 0.0 {
                Decision::Regressed
            } else if worse_by < 0.0 {
                Decision::Improved
            } else {
                Decision::Unchanged
            }
        }
        Bound::OneRung => match rung_index(base_median) - rung_index(change_median) {
            drop if drop > 1 => Decision::Regressed,
            rise if rise < 0 => Decision::Improved,
            _ => Decision::Unchanged,
        },
        Bound::Share(share) => {
            let spread = quartile_spread(base).max(quartile_spread(change));
            let relative = if base_median != 0.0 { worse_by / base_median.abs() } else { 0.0 };
            if every_run_better {
                Decision::Improved
            } else if spread > share {
                Decision::Unresolved
            } else if relative > share {
                Decision::Regressed
            } else if -relative > spread.max(0.01) {
                Decision::Improved
            } else {
                Decision::Unchanged
            }
        }
    }
}

/// workload -> metric -> one value per untraced run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn collect(file: &Json) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for run in file.get("runs").and_then(Json::as_arr).ok_or("result file has no \"runs\"")? {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run.get("workload").and_then(Json::as_str).ok_or("run without workload")?;
        let metrics = run.get("metrics").and_then(Json::as_obj).ok_or("run without metrics")?;
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                runs.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base_median: f64,
    pub change_median: f64,
    pub spread: f64,
    pub decision: Decision,
}

/// Every metric × workload both files carry, decided.
pub fn compare(base: &Json, change: &Json) -> Result<Vec<Row>, String> {
    let (base, change) = (collect(base)?, collect(change)?);
    let mut rows = Vec::new();
    for (workload, base_metrics) in &base {
        let Some(change_metrics) = change.get(workload) else { continue };
        for (def, bound) in compare_bounds() {
            let (Some(b), Some(c)) = (base_metrics.get(def.name), change_metrics.get(def.name))
            else {
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                base_median: median(b),
                change_median: median(c),
                spread: quartile_spread(b).max(quartile_spread(c)),
                decision: decide(def.better, bound, b, c),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload with end-to-end metrics".to_string());
    }
    Ok(rows)
}

pub fn is_quick(file: &Json) -> bool {
    file.get("quick") == Some(&Json::Bool(true))
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<24} {:>14} {:>14} {:>8}  {}\n",
        "workload", "metric", "base median", "change median", "spread", "decision"
    );
    for row in rows {
        out.push_str(&format!(
            "{:<18} {:<24} {:>14.4} {:>14.4} {:>7.1}%  {}\n",
            row.workload,
            row.metric,
            row.base_median,
            row.change_median,
            row.spread * 100.0,
            row.decision.label()
        ));
    }
    let count = |d: Decision| rows.iter().filter(|r| r.decision == d).count();
    out.push_str(&format!(
        "{} improved, {} unchanged, {} regressed, {} unresolved\n",
        count(Decision::Improved),
        count(Decision::Unchanged),
        count(Decision::Regressed),
        count(Decision::Unresolved)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    const TEN: Bound = Bound::Share(0.10);

    #[test]
    fn share_bound_on_medians() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 5% slower: inside the bound.
        assert_eq!(
            decide(Lower, TEN, &base, &[105.0, 104.0, 106.0, 105.5, 104.5]),
            Decision::Unchanged
        );
        // 12% slower: regressed.
        assert_eq!(
            decide(Lower, TEN, &base, &[112.0, 111.0, 113.0, 112.5, 111.5]),
            Decision::Regressed
        );
        // 12% faster with every run ahead: improved.
        assert_eq!(decide(Lower, TEN, &base, &[88.0, 89.0, 87.0, 88.5, 87.5]), Decision::Improved);
        // "Higher is better" flips the direction.
        assert_eq!(
            decide(Higher, TEN, &base, &[88.0, 89.0, 87.0, 88.5, 87.5]),
            Decision::Regressed
        );
        assert_eq!(
            decide(Higher, TEN, &base, &[112.0, 111.0, 113.0, 112.5, 111.5]),
            Decision::Improved
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            decide(Lower, TEN, &noisy, &[85.0, 105.0, 125.0, 95.0, 115.0]),
            Decision::Unresolved
        );
        // ... unless every run of the change beats every run of the base.
        assert_eq!(decide(Lower, TEN, &noisy, &[50.0, 60.0, 70.0, 55.0, 65.0]), Decision::Improved);
    }

    #[test]
    fn fail_share_allows_no_increase() {
        let zero = [0.0; 5];
        assert_eq!(decide(Lower, Bound::AnyIncrease, &zero, &zero), Decision::Unchanged);
        assert_eq!(
            decide(Lower, Bound::AnyIncrease, &zero, &[0.0, 0.0, 0.001, 0.001, 0.001]),
            Decision::Regressed
        );
        assert_eq!(decide(Lower, Bound::AnyIncrease, &[0.01; 5], &zero), Decision::Improved);
    }

    #[test]
    fn max_rate_may_drop_one_rung() {
        let at = |rate: f64| [rate; 5];
        assert_eq!(decide(Higher, Bound::OneRung, &at(1000.0), &at(500.0)), Decision::Unchanged);
        assert_eq!(decide(Higher, Bound::OneRung, &at(1000.0), &at(250.0)), Decision::Regressed);
        assert_eq!(decide(Higher, Bound::OneRung, &at(500.0), &at(0.0)), Decision::Regressed);
        assert_eq!(decide(Higher, Bound::OneRung, &at(500.0), &at(1000.0)), Decision::Improved);
        assert_eq!(decide(Higher, Bound::OneRung, &at(500.0), &at(500.0)), Decision::Unchanged);
    }

    fn file(p50s: &[f64]) -> Json {
        let runs = p50s
            .iter()
            .map(|&v| {
                Json::obj(vec![
                    ("workload", Json::str("lib_large")),
                    ("trace", Json::Num(0.0)),
                    (
                        "metrics",
                        Json::obj(vec![
                            ("spmm_us_p50", Json::obj(vec![("value", Json::Num(v))])),
                            ("fail_share", Json::obj(vec![("value", Json::Num(0.0))])),
                            ("engine.kernel_us_p50", Json::obj(vec![("value", Json::Num(v))])),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![("runs", Json::Arr(runs))])
    }

    #[test]
    fn files_compare_per_metric_and_workload() {
        let rows = compare(&file(&[100.0, 101.0, 99.0]), &file(&[130.0, 131.0, 129.0])).unwrap();
        // Only metrics with a bound are gated; per-layer ones are context.
        assert_eq!(rows.len(), 2);
        let p50 = rows.iter().find(|r| r.metric == "spmm_us_p50").unwrap();
        assert_eq!(p50.decision, Decision::Regressed);
        assert_eq!(
            rows.iter().find(|r| r.metric == "fail_share").unwrap().decision,
            Decision::Unchanged
        );
        assert!(render(&rows).contains("1 regressed"));
        assert!(compare(&file(&[1.0]), &Json::obj(vec![("runs", Json::Arr(vec![]))])).is_err());
    }
}
