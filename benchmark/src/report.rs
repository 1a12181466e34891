//! What a run prints and writes: the one-line JSON result the driver
//! reads, the table a person reads, and `results.json`.

use crate::cli::Ops;
use crate::json::Json;
use crate::metrics::{self, Better, Metric};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::path::Path;

/// One (workload, mode) run, ready to report.
pub struct Run {
    pub workload: &'static str,
    pub traced: bool,
    pub metrics: BTreeMap<&'static str, Summary>,
    pub ops: Ops,
    pub failures: Vec<String>,
    /// Rounds (untraced) or passes (traced) the samples come from.
    pub repetitions: usize,
    pub packets: usize,
}

impl Run {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.ops.failed == 0
    }

    /// The one number a metric is reported and gated as. Per-layer
    /// metrics: the median over passes. End-to-end metrics: the quartile
    /// on the better side, i.e. the median of the less disturbed half of
    /// the rounds — on a shared host interference only ever adds time
    /// and memory, in bursts, and the median of all rounds moves with
    /// how many rounds a burst happened to hit. `setup_s` is the median
    /// of the run's set-ups, as the driver's contract words it.
    fn value(&self, m: &Metric) -> f64 {
        let s = self.metrics[m.name];
        match (self.traced || m.name == "setup_s", m.better) {
            (true, _) => s.median,
            (false, Better::Lower) => s.q1,
            (false, Better::Higher) => s.q3,
        }
    }

    fn table(&self) -> &'static [Metric] {
        if self.traced {
            &metrics::PER_LAYER
        } else {
            &metrics::END_TO_END
        }
    }

    /// Every declared metric of this mode was measured, and nothing else.
    pub fn check_complete(&self) -> Result<(), String> {
        let declared: Vec<&str> = self.table().iter().map(|m| m.name).collect();
        let missing: Vec<&str> = declared
            .iter()
            .copied()
            .filter(|n| !self.metrics.contains_key(n))
            .collect();
        let extra: Vec<&str> = self
            .metrics
            .keys()
            .copied()
            .filter(|n| !declared.contains(n))
            .collect();
        if missing.is_empty() && extra.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "missing metrics {missing:?}, undeclared metrics {extra:?}"
            ))
        }
    }

    /// The driver's line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.table().iter().map(|m| {
            (
                m.name.to_string(),
                Json::obj_from([
                    ("value".to_string(), Json::Num(self.value(m))),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]),
            )
        });
        Json::obj_from([
            ("correct".to_string(), Json::Bool(self.correct())),
            (
                "attempted".to_string(),
                Json::Num(self.ops.attempted as f64),
            ),
            ("failed".to_string(), Json::Num(self.ops.failed as f64)),
            ("metrics".to_string(), Json::obj_from(metrics)),
        ])
        .render()
    }

    /// Every metric by name with its unit, for a person.
    pub fn print_table(&self) {
        println!(
            "== {} ({}): {} packets, {} {}, {} operations attempted, {} failed",
            self.workload,
            if self.traced {
                "traced, per layer"
            } else {
                "end to end"
            },
            self.packets,
            self.repetitions,
            if self.traced { "passes" } else { "rounds" },
            self.ops.attempted,
            self.ops.failed,
        );
        for m in self.table() {
            let s = self.metrics[m.name];
            println!(
                "{:<44} {:>16.4} {:<8} median {:.4}  q1 {:.4}  q3 {:.4}  n {}",
                m.name,
                self.value(m),
                m.unit,
                s.median,
                s.q1,
                s.q3,
                s.n
            );
        }
        for f in &self.failures {
            println!("FAILED {f}");
        }
    }

    fn to_json(&self) -> Json {
        let metrics = self.table().iter().map(|m| {
            let s = self.metrics[m.name];
            (
                m.name.to_string(),
                Json::obj_from([
                    ("value".to_string(), Json::Num(self.value(m))),
                    ("median".to_string(), Json::Num(s.median)),
                    ("q1".to_string(), Json::Num(s.q1)),
                    ("q3".to_string(), Json::Num(s.q3)),
                    ("n".to_string(), Json::Num(s.n as f64)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]),
            )
        });
        Json::obj_from([
            ("correct".to_string(), Json::Bool(self.correct())),
            (
                "attempted".to_string(),
                Json::Num(self.ops.attempted as f64),
            ),
            ("failed".to_string(), Json::Num(self.ops.failed as f64)),
            ("packets".to_string(), Json::Num(self.packets as f64)),
            (
                "repetitions".to_string(),
                Json::Num(self.repetitions as f64),
            ),
            (
                "failures".to_string(),
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics".to_string(), Json::obj_from(metrics)),
        ])
    }
}

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("unknown").trim().to_string()
}

/// The filesystem type `dir` lives on, from the longest matching mount.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

/// Where and on what the numbers were taken.
fn host(work_root: &Path) -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .map(|o| first_line(&String::from_utf8_lossy(&o.stdout)))
        .unwrap_or_else(|_| "unknown".to_string());
    Json::obj_from([
        (
            "nproc".to_string(),
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "kernel".to_string(),
            Json::Str(first_line(
                &std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default(),
            )),
        ),
        ("rustc".to_string(), Json::Str(rustc)),
        (
            "work_filesystem".to_string(),
            Json::Str(filesystem_of(work_root)),
        ),
    ])
}

/// `results.json`: every run of this invocation, keyed by workload and
/// then `end_to_end` / `per_layer`. A benchmark change claims no gain.
pub fn results_json(
    runs: &[Run],
    seed: u64,
    scale_div: u32,
    seconds: f64,
    work_root: &Path,
) -> String {
    let mut workloads: BTreeMap<String, BTreeMap<String, Json>> = BTreeMap::new();
    for run in runs {
        workloads
            .entry(run.workload.to_string())
            .or_default()
            .insert(
                if run.traced {
                    "per_layer"
                } else {
                    "end_to_end"
                }
                .to_string(),
                run.to_json(),
            );
    }
    Json::obj_from([
        ("claim".to_string(), Json::Null),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("scale_div".to_string(), Json::Num(f64::from(scale_div))),
        ("seconds".to_string(), Json::Num(seconds)),
        ("host".to_string(), host(work_root)),
        (
            "workloads".to_string(),
            Json::obj_from(
                workloads
                    .into_iter()
                    .map(|(name, modes)| (name, Json::obj_from(modes))),
            ),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(metrics: BTreeMap<&'static str, Summary>) -> Run {
        Run {
            workload: "web_short",
            traced: false,
            metrics,
            ops: Ops {
                attempted: 5,
                failed: 0,
            },
            failures: Vec::new(),
            repetitions: 3,
            packets: 10,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let all = metrics::END_TO_END
            .iter()
            .map(|m| (m.name, Summary::exact(1.5)))
            .collect();
        let run = run_with(all);
        run.check_complete().unwrap();
        let v = Json::parse(&run.result_line()).unwrap();
        let keys: Vec<&str> = v.obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let m = v.get("metrics").unwrap().obj().unwrap();
        assert_eq!(m.len(), metrics::END_TO_END.len());
        assert_eq!(m["setup_s"].get("unit").unwrap().str(), Some("s"));
        assert_eq!(m["setup_s"].get("value").unwrap().num(), Some(1.5));
    }

    #[test]
    fn end_to_end_values_are_the_better_side_quartile_and_layers_the_median() {
        let spread = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut run = run_with(BTreeMap::from([
            ("setup_s", spread),
            ("query_cpu_ms", spread),
            ("compress_pps", spread),
        ]));
        assert_eq!(run.value(&metrics::find("query_cpu_ms").unwrap()), 2.0);
        assert_eq!(run.value(&metrics::find("setup_s").unwrap()), 3.0);
        assert_eq!(run.value(&metrics::find("compress_pps").unwrap()), 4.0);
        run.traced = true;
        run.metrics.insert("cli.startup_ms", spread);
        assert_eq!(run.value(&metrics::find("cli.startup_ms").unwrap()), 3.0);
    }

    #[test]
    fn incomplete_or_failed_runs_are_flagged() {
        let mut run = run_with(BTreeMap::from([("setup_s", Summary::exact(1.0))]));
        assert!(run.check_complete().is_err());
        run.failures.push("x".into());
        assert!(!run.correct());
    }

    #[test]
    fn results_json_claims_nothing_and_records_the_host() {
        let all = metrics::END_TO_END
            .iter()
            .map(|m| (m.name, Summary::exact(2.0)))
            .collect();
        let doc = Json::parse(&results_json(&[run_with(all)], 7, 3, 15.0, Path::new("."))).unwrap();
        assert_eq!(doc.get("claim"), Some(&Json::Null));
        assert!(doc.get("host").unwrap().num_at("nproc").unwrap() >= 1.0);
        let m = doc
            .get("workloads")
            .and_then(|w| w.get("web_short"))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|r| r.get("metrics"))
            .unwrap();
        assert_eq!(m.get("ratio_pct").unwrap().num_at("value"), Ok(2.0));
    }
}
