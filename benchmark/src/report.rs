//! Metric catalogue, the one-line result every run prints, the results
//! file of a full run, and `--compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use islaris_obs::json::{obj, parse_json, Json};

use crate::stats::{median, spread};

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p95_ms", "ms"),
    ("kind_geomean_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

/// The Fig. 12 case slugs, in registry order (per-case layer rows).
pub const CASE_SLUGS: [&str; 9] = [
    "memcpy_arm",
    "memcpy_riscv",
    "hvc",
    "pkvm",
    "unaligned",
    "uart",
    "rbit",
    "binsearch_arm",
    "binsearch_riscv",
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload never enters reads `0`.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut timing = |name: &str| {
        out.push((format!("{name}.p50"), "ms"));
        out.push((format!("{name}.p90"), "ms"));
    };
    for name in [
        "isla.build_ms",
        "isla.trace_arm_ms",
        "isla.trace_riscv_ms",
        "engine.verify_ms",
        "cert.replay_ms",
        "serve.transport_ms",
        "serve.handler_ms",
        "pool.queue_wait_ms",
        "client.conn_wait_ms",
        "lat.error_ms",
        "exec.case_ms",
        "exec.trace_ms",
        "exec.check_ms",
        "lat.case_ms",
        "lat.trace_ms",
        "lat.check_ms",
    ] {
        timing(name);
    }
    for name in [
        "isla.runs",
        "isla.smt_queries",
        "sail.model_steps",
        "isla.runs_per_op",
        "isla.branches_explored_per_op",
        "isla.branches_pruned_per_op",
        "isla.smt_queries_per_op",
        "isla.smt_conflicts_per_op",
        "sail.model_steps_per_op",
        "isla.trace_errors",
        "difftest.checked",
        "difftest.divergences",
        "engine.smt_queries",
        "engine.lia_queries",
        "engine.obligations",
        "smt.decisions",
        "smt.conflicts",
        "smt.propagations",
        "smt.cnf_clauses",
        "sess.assumption_solves",
        "sess.fallback_solves",
        "cert.replayed",
        "cert.smt_conflicts",
        "tcache.misses",
        "qcache.entries",
    ] {
        out.push((name.to_string(), "count"));
    }
    for slug in CASE_SLUGS {
        out.push((format!("case.{slug}_ms"), "ms"));
    }
    for slug in CASE_SLUGS {
        out.push((format!("exec.case.{slug}_ms"), "ms"));
    }
    for (name, unit) in [
        ("tcache.hit_ratio", "ratio"),
        ("server.cpu_util", "ratio"),
        ("server.cpu_ms_per_op", "ms"),
        ("fig12.pass_ms", "ms"),
        ("fig12.unattributed_ms", "ms"),
        ("fig12.unattributed_pct", "%"),
        ("serve.ledger_residual_pct", "%"),
        ("gen.late_p99_ms", "ms"),
        ("tracing_overhead_pct", "%"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// Counts operations attempted and failed, keeping the first few
/// failure descriptions for the report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed its known-answer check.
    pub failed: u64,
    /// The first failure descriptions.
    pub first: Vec<String>,
}

impl Tally {
    /// Records one operation's check.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.fail(e);
        }
    }

    /// Records a failure of an already counted operation (or of the run).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.first.len() < 8 {
            self.first.push(msg);
        }
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for msg in other.first {
            if self.first.len() < 8 {
                self.first.push(msg);
            }
        }
    }
}

/// Mean operation time with and without span recording, from
/// interleaved operations: the traced run's `tracing_overhead_pct`.
#[derive(Debug, Default)]
pub struct Overhead {
    sums: [u128; 2],
    counts: [u64; 2],
}

impl Overhead {
    /// Records one operation's time.
    pub fn add(&mut self, traced: bool, ns: u64) {
        let i = usize::from(traced);
        self.sums[i] += u128::from(ns);
        self.counts[i] += 1;
    }

    /// Traced over untraced mean, in percent above 100.
    #[must_use]
    pub fn pct(&self) -> f64 {
        let mean = |i: usize| self.sums[i] as f64 / self.counts[i].max(1) as f64;
        100.0 * (mean(1) / mean(0) - 1.0)
    }
}

/// Named metric values of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    /// Sets one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The single JSON line a run ends with: `correct`, `attempted`,
/// `failed`, and every metric of the catalogue `names` (values a run did
/// not set read `0`).
#[must_use]
pub fn result_line(tally: &Tally, metrics: &Metrics, names: &[(String, &str)]) -> String {
    let fields: Vec<(&str, Json)> = names
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name).unwrap_or(0.0);
            (
                name.as_str(),
                obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str((*unit).to_string())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", obj(fields)),
    ])
    .render()
}

/// The end-to-end catalogue in the shape [`result_line`] takes.
#[must_use]
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_string(), *u))
        .collect()
}

/// One workload run inside a results file.
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Seed the run used.
    pub seed: u64,
    /// Traced (per-layer) or untraced (end-to-end).
    pub traced: bool,
    /// The run's result line, parsed.
    pub result: Json,
}

/// A full run: environment plus every workload run.
pub struct Results {
    /// Available parallelism of the measuring host.
    pub nproc: u64,
    /// Commit measured (`unknown` outside a git checkout).
    pub git_rev: String,
    /// Seconds each run measured.
    pub seconds: u64,
    /// The runs.
    pub runs: Vec<RunRecord>,
}

/// Schema tag of a results file.
pub const RESULTS_SCHEMA: &str = "islaris-benchmark/v1";

impl Results {
    /// Renders the results file.
    #[must_use]
    pub fn render(&self) -> String {
        let runs = self
            .runs
            .iter()
            .map(|r| {
                obj(vec![
                    ("workload", Json::Str(r.workload.clone())),
                    ("seed", Json::Num(r.seed as f64)),
                    ("trace", Json::Num(if r.traced { 1.0 } else { 0.0 })),
                    ("result", r.result.clone()),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Json::Str(RESULTS_SCHEMA.into())),
            (
                "env",
                obj(vec![
                    ("nproc", Json::Num(self.nproc as f64)),
                    ("git_rev", Json::Str(self.git_rev.clone())),
                    ("seconds", Json::Num(self.seconds as f64)),
                ]),
            ),
            ("runs", Json::Arr(runs)),
        ])
        .render()
    }

    /// Parses a results file.
    ///
    /// # Errors
    ///
    /// Describes the first syntactic or schema problem.
    pub fn parse(text: &str) -> Result<Results, String> {
        let doc = parse_json(text).map_err(|(off, msg)| format!("byte {off}: {msg}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some(RESULTS_SCHEMA) {
            return Err(format!("not a `{RESULTS_SCHEMA}` results file"));
        }
        let env = doc.get("env").ok_or("missing `env`")?;
        let num = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer `{key}`"))
        };
        let mut runs = Vec::new();
        for r in doc
            .get("runs")
            .and_then(Json::as_array)
            .ok_or("missing `runs`")?
        {
            runs.push(RunRecord {
                workload: r
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("run without `workload`")?
                    .to_string(),
                seed: num(r, "seed")?,
                traced: num(r, "trace")? == 1,
                result: r.get("result").cloned().ok_or("run without `result`")?,
            });
        }
        Ok(Results {
            nproc: num(env, "nproc")?,
            git_rev: env
                .get("git_rev")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            seconds: num(env, "seconds")?,
            runs,
        })
    }

    /// Every value of `metric` over the untraced runs of `workload`.
    #[must_use]
    pub fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload && !r.traced)
            .filter_map(|r| r.result.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    /// Workload names in first-run order.
    #[must_use]
    pub fn workloads(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for r in &self.runs {
            if !out.contains(&r.workload) {
                out.push(r.workload.clone());
            }
        }
        out
    }
}

/// One end-to-end metric's regression rule from `BENCHMARK.json`.
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// The worsening allowed, as a share of the baseline median.
    pub bound: f64,
}

/// Reads the end-to-end bounds from a `BENCHMARK.json` text.
///
/// # Errors
///
/// Describes the first syntactic or schema problem.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = parse_json(text).map_err(|(off, msg)| format!("byte {off}: {msg}"))?;
    let mut out = Vec::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("missing `end_to_end`")?
    {
        let field = |k: &str| m.get(k).ok_or_else(|| format!("metric without `{k}`"));
        out.push(Bound {
            name: field("name")?.as_str().ok_or("bad `name`")?.to_string(),
            unit: field("unit")?.as_str().ok_or("bad `unit`")?.to_string(),
            higher_is_better: field("better")?.as_str() == Some("higher"),
            bound: field("bound")?.as_f64().ok_or("bad `bound`")?,
        });
    }
    Ok(out)
}

/// The verdict on one workload × metric pair of `--compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// A side's run-to-run spread exceeds the bound, so no call is made
    /// (unless every candidate run beats every baseline run).
    Unresolved,
}

/// Judges one metric: `a` is the baseline's values, `b` the candidate's.
#[must_use]
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = if bound.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let better = |x: f64, y: f64| {
        if bound.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if all_better {
        Verdict::Ok
    } else if spread(a) > bound.bound || spread(b) > bound.bound {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Renders the `--compare` table; returns it with the regression and
/// unresolved counts.
#[must_use]
pub fn compare(a: &Results, b: &Results, bounds: &[Bound]) -> (String, usize, usize) {
    let mut out = String::new();
    let _ = writeln!(out, "baseline  git_rev={} nproc={}", a.git_rev, a.nproc);
    let _ = writeln!(out, "candidate git_rev={} nproc={}", b.git_rev, b.nproc);
    let _ = writeln!(
        out,
        "{:<12} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "worse", "bound", "sprd A", "sprd B"
    );
    let (mut regressions, mut unresolved) = (0, 0);
    let mut rows: BTreeMap<usize, String> = BTreeMap::new();
    for (wi, w) in a.workloads().iter().enumerate() {
        for (mi, bound) in bounds.iter().enumerate() {
            let (va, vb) = (a.values(w, &bound.name), b.values(w, &bound.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse, verdict) = judge(&va, &vb, bound);
            let label = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => {
                    regressions += 1;
                    "REGRESSION"
                }
                Verdict::Unresolved => {
                    unresolved += 1;
                    "unresolved"
                }
            };
            rows.insert(
                wi * 100 + mi,
                format!(
                    "{:<12} {:<16} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}% {:>6.1}%  {label} ({})",
                    w,
                    bound.name,
                    median(&va),
                    median(&vb),
                    100.0 * worse,
                    100.0 * bound.bound,
                    100.0 * spread(&va),
                    100.0 * spread(&vb),
                    bound.unit,
                ),
            );
        }
    }
    for row in rows.values() {
        let _ = writeln!(out, "{row}");
    }
    let _ = writeln!(
        out,
        "{regressions} regression(s), {unresolved} unresolved, over {} row(s)",
        rows.len()
    );
    (out, regressions, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool) -> Bound {
        Bound {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: 0.1,
        }
    }

    #[test]
    fn judge_gates_on_median_and_spread() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(judge(&a, &[10.5, 10.4, 10.6], &bound(false)).1, Verdict::Ok);
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9], &bound(false)).1,
            Verdict::Regression
        );
        assert_eq!(judge(&a, &[12.0, 12.1, 11.9], &bound(true)).1, Verdict::Ok);
        assert_eq!(
            judge(&a, &[8.0, 14.0, 11.0, 20.0], &bound(false)).1,
            Verdict::Unresolved
        );
        // A noisy candidate that beats every baseline run is still ok.
        assert_eq!(
            judge(&a, &[1.0, 5.0, 2.0, 9.0], &bound(false)).1,
            Verdict::Ok
        );
    }

    #[test]
    fn catalogues_fit_the_naming_limits() {
        let layer = per_layer();
        assert!(layer.len() <= 128 && END_TO_END.len() <= 16);
        let mut names: Vec<&str> = layer.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{n}"
            );
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are unique");
    }

    #[test]
    fn benchmark_json_lists_the_catalogues() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = parse_json(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let want = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), want(end_to_end()));
        assert_eq!(listed("per_layer"), want(per_layer()));
        let bounds = parse_bounds(&text).expect("bounds");
        let setup = bounds
            .iter()
            .find(|b| b.name == "setup_s")
            .expect("setup_s");
        assert!(bounds
            .iter()
            .all(|b| b.bound <= setup.bound && b.bound <= 0.25));
    }

    #[test]
    fn results_round_trip() {
        let line = result_line(
            &Tally {
                attempted: 3,
                ..Tally::default()
            },
            &Metrics(vec![("setup_s".into(), 0.5)]),
            &end_to_end(),
        );
        let results = Results {
            nproc: 2,
            git_rev: "abc".into(),
            seconds: 20,
            runs: vec![RunRecord {
                workload: "w".into(),
                seed: 1,
                traced: false,
                result: parse_json(&line).expect("line parses"),
            }],
        };
        let back = Results::parse(&results.render()).expect("parses");
        assert_eq!((back.nproc, back.seconds), (2, 20));
        assert_eq!(back.values("w", "setup_s"), vec![0.5]);
        assert_eq!(back.values("w", "ops_per_s"), vec![0.0]);
        assert_eq!(back.workloads(), vec!["w".to_string()]);
    }
}
