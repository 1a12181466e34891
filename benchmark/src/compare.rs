//! `flowzip-benchmark compare A.json B.json`: one row per (workload,
//! metric) with both medians and quartiles, the relative change with
//! its base, and — for the end-to-end metrics, which have bounds in
//! `BENCHMARK.json` — a verdict.

use crate::json::Json;
use crate::metrics::{self, Better};
use std::collections::BTreeMap;
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The quartile spread of a side is wider than the bound, so a
    /// change of that size cannot be told from noise.
    Unresolved,
    /// A per-layer metric: no bound, no verdict.
    Unbounded,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "-",
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// The reported number (see `report::Run::value`).
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(a: Side, b: Side, better: Better, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Unbounded;
    };
    let change = worsening(a.value, b.value, better);
    if a.spread() > bound || b.spread() > bound {
        // Still decidable when the two sides do not even overlap.
        let (b_best, b_worst, a_best, a_worst) = match better {
            Better::Lower => (b.q1, b.q3, a.q1, a.q3),
            Better::Higher => (b.q3, b.q1, a.q3, a.q1),
        };
        return if worsening(a_worst, b_best, better) > bound && change > bound {
            Verdict::Worse
        } else if worsening(a_best, b_worst, better) < 0.0 && change < -bound {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `end_to_end` bounds by metric name, from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Json) -> Result<BTreeMap<String, f64>, String> {
    benchmark_json
        .get("end_to_end")
        .and_then(Json::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::str)
                .ok_or("metric without a name")?;
            Ok((name.to_string(), m.num_at("bound")?))
        })
        .collect()
}

fn side(metric: &Json) -> Result<Side, String> {
    Ok(Side {
        value: metric.num_at("value")?,
        median: metric.num_at("median")?,
        q1: metric.num_at("q1")?,
        q3: metric.num_at("q3")?,
    })
}

/// Prints the comparison and returns how many rows came out `worse`.
pub fn compare(a: &Json, b: &Json, bounds: &BTreeMap<String, f64>) -> Result<usize, String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::obj)
            .cloned()
            .ok_or_else(|| "results file has no workloads".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut worse = 0;
    println!(
        "{:<16} {:<42} {:>14} {:>14} {:>9}  {:<10} quartiles A | B",
        "workload", "metric", "A", "B", "B vs A", "verdict"
    );
    for (workload, modes_a) in &wa {
        let Some(modes_b) = wb.get(workload) else {
            continue;
        };
        for mode in ["end_to_end", "per_layer"] {
            let (Some(ma), Some(mb)) = (
                modes_a
                    .get(mode)
                    .and_then(|r| r.get("metrics"))
                    .and_then(Json::obj),
                modes_b
                    .get(mode)
                    .and_then(|r| r.get("metrics"))
                    .and_then(Json::obj),
            ) else {
                continue;
            };
            for (name, va) in ma {
                let (Some(vb), Some(def)) = (mb.get(name), metrics::find(name)) else {
                    continue;
                };
                let (sa, sb) = (side(va)?, side(vb)?);
                let v = verdict(sa, sb, def.better, bounds.get(name).copied());
                worse += usize::from(v == Verdict::Worse);
                let change = if sa.value == 0.0 {
                    "n/a".to_string()
                } else {
                    format!("{:+.1}%", (sb.value - sa.value) / sa.value.abs() * 100.0)
                };
                println!(
                    "{workload:<16} {name:<42} {:>14.4} {:>14.4} {change:>9}  {:<10} [{:.4} {:.4}] | [{:.4} {:.4}] {}",
                    sa.value, sb.value, v.to_string(), sa.q1, sa.q3, sb.q1, sb.q3, def.unit
                );
            }
        }
    }
    println!("{worse} row(s) worse (relative changes are shares of A's value)");
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Side {
        Side {
            value: median,
            median,
            q1: median * 0.99,
            q3: median * 1.01,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let b = Some(0.10);
        assert_eq!(
            verdict(tight(100.0), tight(105.0), Better::Lower, b),
            Verdict::Same
        );
        assert_eq!(
            verdict(tight(100.0), tight(115.0), Better::Lower, b),
            Verdict::Worse
        );
        assert_eq!(
            verdict(tight(100.0), tight(85.0), Better::Lower, b),
            Verdict::Better
        );
        assert_eq!(
            verdict(tight(100.0), tight(85.0), Better::Higher, b),
            Verdict::Worse
        );
        assert_eq!(
            verdict(tight(100.0), tight(115.0), Better::Higher, b),
            Verdict::Better
        );
        assert_eq!(
            verdict(tight(100.0), tight(300.0), Better::Lower, None),
            Verdict::Unbounded
        );
    }

    #[test]
    fn wide_quartiles_are_unresolved_unless_disjoint() {
        let b = Some(0.10);
        let wide = |m: f64| Side {
            value: m,
            median: m,
            q1: m * 0.9,
            q3: m * 1.1,
        };
        assert_eq!(
            verdict(wide(100.0), wide(112.0), Better::Lower, b),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(wide(100.0), wide(200.0), Better::Lower, b),
            Verdict::Worse
        );
        assert_eq!(
            verdict(wide(100.0), wide(50.0), Better::Lower, b),
            Verdict::Better
        );
        assert_eq!(
            verdict(wide(100.0), wide(200.0), Better::Higher, b),
            Verdict::Better
        );
    }

    #[test]
    fn compares_two_result_documents() {
        let doc = |v: f64| {
            Json::parse(&format!(
                r#"{{"workloads":{{"web_short":{{"end_to_end":{{"metrics":{{
                    "query_cpu_ms":{{"value":{v},"median":{v},"q1":{v},"q3":{v},"n":3,"unit":"ms"}}}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let bounds = BTreeMap::from([("query_cpu_ms".to_string(), 0.1)]);
        assert_eq!(compare(&doc(5.0), &doc(5.2), &bounds), Ok(0));
        assert_eq!(compare(&doc(5.0), &doc(6.0), &bounds), Ok(1));
        assert!(compare(&Json::Null, &doc(1.0), &bounds).is_err());
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .unwrap();
        assert_eq!(bounds(&doc).unwrap()["setup_s"], 0.25);
        assert!(bounds(&Json::Null).is_err());
    }
}
