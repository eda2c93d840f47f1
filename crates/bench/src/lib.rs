//! Benchmark harness regenerating the paper's evaluation (Figure 12).
//!
//! The `fig12` binary prints one row per case study with the size and
//! time columns of the paper's table. `fig12 --jobs N` runs the parallel
//! pipeline measurement (sequential baseline, then cold and warm parallel
//! runs over a shared trace cache) and `fig12 --bench` runs the
//! statistical benchmarks: every Fig. 12 case measured per pipeline half
//! ([`case_benches`]: `trace/<slug>` = the paper's "Isla" column,
//! `verify/<slug>` = automation + certificate re-check) plus the
//! [`stage_benches`] micro-benchmarks — warmup + N measured iterations,
//! min/median/p90/max and a MAD noise estimate, with plain
//! [`std::time::Instant`] and no external bench framework.
//!
//! `--bench --json PATH` exports the run as versioned machine-readable
//! JSON (schema [`BENCH_SCHEMA`]; see DESIGN.md §9), and
//! `--bench-compare OLD.json NEW.json` is the perf-regression gate over
//! two such exports ([`compare`]).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use islaris_bv::Bv;
use islaris_cases::{
    binsearch_arm, binsearch_riscv, hvc, memcpy_arm, memcpy_riscv, pkvm, rbit, run_case, uart,
    unaligned, CaseCtx, CaseOutcome, RunOpts, ALL_CASES,
};
use islaris_core::{check_certificate, Verifier};
use islaris_isla::{trace_opcode, IslaConfig, Opcode};
use islaris_models::ARM;
use islaris_obs::{parse_json, Json, QueryTable};
use islaris_smt::{entails, BvCmp, Expr, QueryCache, QueryCtx, SatConfig, SolverConfig, Sort, Var};

pub mod replay;
pub mod serve;

/// The versioned schema tag of the `--bench --json` export.
pub const BENCH_SCHEMA: &str = "islaris-bench/v1";

/// Runs every case study in the paper's Fig. 12 row order.
#[must_use]
pub fn all_cases() -> Vec<CaseOutcome> {
    vec![
        memcpy_arm::run(),
        memcpy_riscv::run(),
        hvc::run(),
        pkvm::run(),
        unaligned::run(),
        uart::run(),
        rbit::run(),
        binsearch_arm::run(),
        binsearch_riscv::run(),
    ]
}

/// Renders the regenerated Fig. 12 table.
#[must_use]
pub fn fig12_table(outcomes: &[CaseOutcome]) -> String {
    let mut out = String::new();
    out.push_str(&CaseOutcome::header());
    out.push('\n');
    for o in outcomes {
        out.push_str(&o.row());
        out.push('\n');
    }
    out
}

/// One statistical benchmark measurement, all times in nanoseconds.
///
/// Integer nanoseconds keep the JSON round-trip exact: every field is a
/// `u64` well below 2^53, the precision bound of the JSON number model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// `group/name` (e.g. `trace/memcpy_arm`, `solver/ult_transitivity_64`).
    pub name: String,
    /// Measured iterations (after warm-up).
    pub iters: u64,
    /// Warm-up iterations (not measured).
    pub warmup: u64,
    /// Fastest iteration.
    pub min_ns: u64,
    /// Median iteration (the only statistic the regression gate compares).
    pub median_ns: u64,
    /// 90th percentile, nearest-rank.
    pub p90_ns: u64,
    /// Slowest iteration.
    pub max_ns: u64,
    /// Median absolute deviation from the median — the noise estimate.
    pub mad_ns: u64,
}

fn fmt_ns(ns: u64) -> String {
    format!("{:.3?}", Duration::from_nanos(ns))
}

impl Sample {
    /// One line of the `--bench` report.
    #[must_use]
    pub fn row(&self) -> String {
        format!(
            "{:<32} median {:>10}  min {:>10}  p90 {:>10}  max {:>10}  mad {:>10}  ({} iters, {} warmup)",
            self.name,
            fmt_ns(self.median_ns),
            fmt_ns(self.min_ns),
            fmt_ns(self.p90_ns),
            fmt_ns(self.max_ns),
            fmt_ns(self.mad_ns),
            self.iters,
            self.warmup,
        )
    }
}

/// Order statistics over one run's per-iteration times:
/// `(min, median, p90, max, mad)`. The p90 is nearest-rank
/// (`ceil(0.9 n)`-th smallest); the MAD is the median absolute deviation
/// from the median.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn summarize(times: &[u64]) -> (u64, u64, u64, u64, u64) {
    assert!(!times.is_empty(), "summarize: no measurements");
    let mut ts = times.to_vec();
    ts.sort_unstable();
    let n = ts.len();
    let median = ts[(n - 1) / 2];
    let p90 = ts[(9 * n).div_ceil(10) - 1];
    let mut devs: Vec<u64> = ts.iter().map(|&t| t.abs_diff(median)).collect();
    devs.sort_unstable();
    let mad = devs[(n - 1) / 2];
    (ts[0], median, p90, ts[n - 1], mad)
}

/// Times `f` for `iters` measured iterations after `warmup` unmeasured
/// ones and reports the order statistics.
pub fn bench<T>(
    name: impl Into<String>,
    warmup: usize,
    iters: usize,
    mut f: impl FnMut() -> T,
) -> Sample {
    let iters = iters.max(1);
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    let (min_ns, median_ns, p90_ns, max_ns, mad_ns) = summarize(&times);
    Sample {
        name: name.into(),
        iters: iters as u64,
        warmup: warmup as u64,
        min_ns,
        median_ns,
        p90_ns,
        max_ns,
        mad_ns,
    }
}

/// What the `--bench` suites measure and how. Committed baselines run
/// with no solver cache, all solver features on, and one worker.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Unmeasured iterations per sample.
    pub warmup: usize,
    /// Measured iterations per sample.
    pub iters: usize,
    /// With the shared solver [`QueryCache`] on, each `verify/<slug>`
    /// iteration runs against one per-case cache shared across
    /// iterations (warm-cache steady state — the `fig12 --bench
    /// --solver-cache on` A/B arm). Off by default: committed baselines
    /// measure the session win alone, with every solver query recomputed.
    pub solver_cache: bool,
    /// Solver feature configuration (`fig12 --bench --sat-off FEATURE`):
    /// both pipeline halves and the `solver/*` micro-benchmarks run with
    /// it, so a feature's contribution is directly A/B-measurable.
    /// Certificate replay keeps the default configuration, as everywhere.
    pub sat: SatConfig,
    /// Intra-case parallelism for the `verify/*` halves (`fig12 --bench
    /// --jobs N`). Verdicts and counters are byte-identical across
    /// values — only wall-clock changes — so samples stay comparable to
    /// `jobs = 1` baselines. The stage micro-benchmarks are
    /// single-threaded by construction and ignore it.
    pub jobs: usize,
}

/// The per-case pipeline-half benchmarks: for every registry case,
/// `trace/<slug>` builds the artefacts from scratch (the trace-generation
/// half — the paper's "Isla" column) and `verify/<slug>` runs
/// [`run_case`] over pre-built artefacts: proof automation plus
/// certificate re-check (the verification half).
#[must_use]
pub fn case_benches(opts: &BenchOpts) -> Vec<Sample> {
    let (warmup, iters) = (opts.warmup, opts.iters);
    let mut out = Vec::new();
    let ctx = CaseCtx::default().with_sat(opts.sat);
    for def in ALL_CASES {
        out.push(bench(format!("trace/{}", def.slug), warmup, iters, || {
            (def.build)(&ctx)
        }));
        let art = (def.build)(&ctx);
        let run = RunOpts {
            qcache: opts.solver_cache.then(|| Arc::new(QueryCache::new())),
            jobs: opts.jobs,
            ..RunOpts::default()
        };
        out.push(bench(format!("verify/{}", def.slug), warmup, iters, || {
            run_case(&art, &run).expect("no deadline set")
        }));
    }
    out
}

/// The pipeline-stage micro-benchmarks (ex-Criterion `benches/pipeline.rs`):
/// trace generation constrained vs unconstrained, verification automation,
/// certificate re-checking, and the solver's plain vs RUP-checked paranoid
/// mode on a representative side condition.
#[must_use]
pub fn stage_benches(opts: &BenchOpts) -> Vec<Sample> {
    let (warmup, iters, sat) = (opts.warmup, opts.iters, opts.sat);
    let mut out = Vec::new();

    // Isla column: Fig. 3's `add sp, sp, #0x40`, with the EL/SP
    // constraints (linear trace) and without (5-way banked-SP split).
    let constrained = IslaConfig::new(ARM)
        .assume_reg("PSTATE.EL", Bv::new(2, 2))
        .assume_reg("PSTATE.SP", Bv::new(1, 1));
    out.push(bench("isla/add_sp_constrained", warmup, iters, || {
        trace_opcode(&constrained, &Opcode::Concrete(0x910103ff)).unwrap()
    }));
    let unconstrained = IslaConfig::new(ARM);
    out.push(bench("isla/add_sp_unconstrained", warmup, iters, || {
        trace_opcode(&unconstrained, &Opcode::Concrete(0x910103ff)).unwrap()
    }));

    // Automation column: verification only, traces pre-generated.
    let art = memcpy_arm::build_case();
    out.push(bench("automation/memcpy_arm_verify", warmup, iters, || {
        Verifier::new(art.prog_spec.clone(), art.protocol.clone())
            .verify_all()
            .unwrap()
    }));

    // Qed column: certificate re-checking only.
    let report = Verifier::new(art.prog_spec.clone(), art.protocol.clone())
        .verify_all()
        .unwrap();
    out.push(bench("qed/memcpy_arm_certificates", warmup, iters, || {
        for block in &report.blocks {
            check_certificate(&block.cert).unwrap();
        }
    }));

    // Solver ablation: Ult transitivity, plain vs paranoid (RUP-checked).
    let sorts = ult_sorts;
    let (facts, goal) = ult_transitivity_query();
    let plain = SolverConfig {
        sat,
        ..SolverConfig::new()
    };
    out.push(bench("solver/ult_transitivity_64", warmup, iters, || {
        entails(&facts, &goal, &sorts, &plain, &mut QueryCtx::default())
    }));
    let paranoid = SolverConfig {
        sat,
        ..SolverConfig::paranoid()
    };
    out.push(bench(
        "solver/ult_transitivity_64_checked",
        warmup,
        iters,
        || entails(&facts, &goal, &sorts, &paranoid, &mut QueryCtx::default()),
    ));

    out
}

fn ult_sorts(v: Var) -> Option<Sort> {
    (v.0 < 8).then_some(Sort::BitVec(64))
}

/// The `solver/ult_transitivity_64` query: facts and goal.
fn ult_transitivity_query() -> (Vec<Expr>, Expr) {
    let (x, y, z) = (Expr::var(Var(0)), Expr::var(Var(1)), Expr::var(Var(2)));
    let facts = vec![
        Expr::cmp(BvCmp::Ult, x.clone(), y.clone()),
        Expr::cmp(BvCmp::Ult, y.clone(), z.clone()),
    ];
    (facts, Expr::cmp(BvCmp::Ult, x, z))
}

/// The solver micro-bench queries replayed once each with query logging
/// on: the attribution rows behind `fig12 --profile --hot-queries`, so a
/// `solver/ult_transitivity_64` regression in `--bench-compare` can be
/// matched to its query digest alongside the verification-half tables.
#[must_use]
pub fn solver_bench_query_table() -> QueryTable {
    let mut table = QueryTable::default();
    let (facts, goal) = ult_transitivity_query();
    let mut ctx = QueryCtx {
        table: Some(&mut table),
        ..QueryCtx::default()
    };
    for cfg in [SolverConfig::new(), SolverConfig::paranoid()] {
        let _ = entails(&facts, &goal, &ult_sorts, &cfg, &mut ctx);
    }
    table
}

/// The full `--bench` suite: every case's two pipeline halves, then the
/// stage micro-benchmarks.
#[must_use]
pub fn all_benches(opts: &BenchOpts) -> Vec<Sample> {
    let mut out = case_benches(opts);
    out.extend(stage_benches(opts));
    out
}

/// The environment block of a bench export: enough context to judge
/// whether two runs are comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEnv {
    /// Available hardware parallelism.
    pub nproc: u64,
    /// `release` or `debug` (of this harness build).
    pub opt_level: String,
    /// Current commit hash, read from `.git/HEAD` (no subprocess);
    /// `unknown` outside a checkout.
    pub git_rev: String,
    /// Measured iterations per sample.
    pub iters: u64,
    /// Warm-up iterations per sample.
    pub warmup: u64,
}

fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(h) = read(&format!(".git/{r}")) {
        return h.trim().to_string();
    }
    if let Some(packed) = read(".git/packed-refs") {
        for line in packed.lines() {
            if let Some(hash) = line.strip_suffix(r) {
                return hash.trim().to_string();
            }
        }
    }
    "unknown".into()
}

impl BenchEnv {
    /// Captures the current environment for a run of `iters`/`warmup`.
    #[must_use]
    pub fn capture(warmup: usize, iters: usize) -> BenchEnv {
        BenchEnv {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            opt_level: if cfg!(debug_assertions) {
                "debug".into()
            } else {
                "release".into()
            },
            git_rev: git_rev(),
            iters: iters as u64,
            warmup: warmup as u64,
        }
    }

    /// One human-readable line describing the environment.
    #[must_use]
    pub fn row(&self) -> String {
        format!(
            "env: nproc={} opt_level={} git_rev={} iters={} warmup={}",
            self.nproc, self.opt_level, self.git_rev, self.iters, self.warmup
        )
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialises a bench run as the versioned [`BENCH_SCHEMA`] JSON document
/// (DESIGN.md §9). The output always passes [`parse_json`] and
/// round-trips through [`parse_bench_json`].
#[must_use]
pub fn samples_to_json(env: &BenchEnv, samples: &[Sample]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{}\",\"env\":{{\"nproc\":{},\"opt_level\":\"{}\",\"git_rev\":\"{}\",\
         \"iters\":{},\"warmup\":{}}},\"samples\":[",
        BENCH_SCHEMA,
        env.nproc,
        esc(&env.opt_level),
        esc(&env.git_rev),
        env.iters,
        env.warmup
    );
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"iters\":{},\"warmup\":{},\"min_ns\":{},\"median_ns\":{},\
             \"p90_ns\":{},\"max_ns\":{},\"mad_ns\":{}}}",
            esc(&s.name),
            s.iters,
            s.warmup,
            s.min_ns,
            s.median_ns,
            s.p90_ns,
            s.max_ns,
            s.mad_ns
        );
    }
    out.push_str("]}");
    debug_assert!(parse_json(&out).is_ok());
    out
}

fn field_u64(obj: &Json, key: &str, what: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: missing or non-integer `{key}`"))
}

/// Parses a [`BENCH_SCHEMA`] document back into its environment and
/// samples.
///
/// # Errors
///
/// Returns a description of the first syntactic or schema problem.
pub fn parse_bench_json(text: &str) -> Result<(BenchEnv, Vec<Sample>), String> {
    let doc = parse_json(text).map_err(|(off, msg)| format!("byte {off}: {msg}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema`")?;
    if schema != BENCH_SCHEMA {
        return Err(format!(
            "unsupported schema `{schema}` (want `{BENCH_SCHEMA}`)"
        ));
    }
    let env_obj = doc.get("env").ok_or("missing `env`")?;
    let env = BenchEnv {
        nproc: field_u64(env_obj, "nproc", "env")?,
        opt_level: env_obj
            .get("opt_level")
            .and_then(Json::as_str)
            .ok_or("env: missing `opt_level`")?
            .to_string(),
        git_rev: env_obj
            .get("git_rev")
            .and_then(Json::as_str)
            .ok_or("env: missing `git_rev`")?
            .to_string(),
        iters: field_u64(env_obj, "iters", "env")?,
        warmup: field_u64(env_obj, "warmup", "env")?,
    };
    let arr = doc
        .get("samples")
        .and_then(Json::as_array)
        .ok_or("missing `samples` array")?;
    let mut samples = Vec::with_capacity(arr.len());
    for (i, s) in arr.iter().enumerate() {
        let what = format!("samples[{i}]");
        samples.push(Sample {
            name: s
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{what}: missing `name`"))?
                .to_string(),
            iters: field_u64(s, "iters", &what)?,
            warmup: field_u64(s, "warmup", &what)?,
            min_ns: field_u64(s, "min_ns", &what)?,
            median_ns: field_u64(s, "median_ns", &what)?,
            p90_ns: field_u64(s, "p90_ns", &what)?,
            max_ns: field_u64(s, "max_ns", &what)?,
            mad_ns: field_u64(s, "mad_ns", &what)?,
        });
    }
    Ok((env, samples))
}

/// One row of the regression-gate diff: a benchmark present in both runs.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Benchmark name.
    pub name: String,
    /// Baseline median, ns.
    pub old_median_ns: u64,
    /// Candidate median, ns.
    pub new_median_ns: u64,
    /// Median delta in percent (`None` when the baseline median is zero
    /// and no ratio exists).
    pub delta_pct: Option<f64>,
    /// True iff the delta exceeds the gate threshold.
    pub regressed: bool,
}

/// The regression-gate verdict over two bench exports.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Rows for benchmarks present in both runs, baseline order.
    pub rows: Vec<CompareRow>,
    /// Baseline benchmarks absent from the candidate (warning only).
    pub missing: Vec<String>,
    /// Candidate benchmarks absent from the baseline (warning only).
    pub added: Vec<String>,
    /// The gate threshold in percent.
    pub threshold_pct: f64,
}

impl CompareReport {
    /// Rows beyond the threshold — the gate fails iff this is nonzero.
    #[must_use]
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }

    /// The stable diff table plus warnings and the verdict line.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<32} {:>12} {:>12} {:>8}",
            "benchmark", "old median", "new median", "delta"
        );
        for r in &self.rows {
            let delta = match r.delta_pct {
                Some(d) => format!("{d:+.1}%"),
                None => "-".into(),
            };
            let _ = writeln!(
                out,
                "{:<32} {:>12} {:>12} {:>8}{}",
                r.name,
                fmt_ns(r.old_median_ns),
                fmt_ns(r.new_median_ns),
                delta,
                if r.regressed { "  REGRESSION" } else { "" },
            );
        }
        for name in &self.missing {
            let _ = writeln!(out, "warning: `{name}` missing from the new run");
        }
        for name in &self.added {
            let _ = writeln!(out, "warning: `{name}` only in the new run");
        }
        let _ = writeln!(
            out,
            "{} regression(s) beyond +{:.0}% over {} compared benchmark(s)",
            self.regressions(),
            self.threshold_pct,
            self.rows.len(),
        );
        out
    }
}

/// The perf-regression gate: compares candidate medians against baseline
/// medians, flagging any benchmark whose median grew by more than
/// `threshold_pct` percent. min/p90/max/MAD are context, not gated —
/// medians are the stable statistic under scheduler noise. Missing or
/// added benchmarks are warnings, not failures, so the gate survives
/// adding a case study.
#[must_use]
pub fn compare(old: &[Sample], new: &[Sample], threshold_pct: f64) -> CompareReport {
    let new_by: BTreeMap<&str, &Sample> = new.iter().map(|s| (s.name.as_str(), s)).collect();
    let old_names: std::collections::BTreeSet<&str> = old.iter().map(|s| s.name.as_str()).collect();
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for o in old {
        match new_by.get(o.name.as_str()) {
            Some(n) => {
                let delta_pct = (o.median_ns > 0).then(|| {
                    100.0 * (n.median_ns as f64 - o.median_ns as f64) / o.median_ns as f64
                });
                rows.push(CompareRow {
                    name: o.name.clone(),
                    old_median_ns: o.median_ns,
                    new_median_ns: n.median_ns,
                    delta_pct,
                    regressed: delta_pct.is_some_and(|d| d > threshold_pct),
                });
            }
            None => missing.push(o.name.clone()),
        }
    }
    let added = new
        .iter()
        .filter(|s| !old_names.contains(s.name.as_str()))
        .map(|s| s.name.clone())
        .collect();
    CompareReport {
        rows,
        missing,
        added,
        threshold_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, median_ns: u64) -> Sample {
        Sample {
            name: name.into(),
            iters: 3,
            warmup: 1,
            min_ns: median_ns.saturating_sub(1),
            median_ns,
            p90_ns: median_ns + 1,
            max_ns: median_ns + 2,
            mad_ns: 1,
        }
    }

    #[test]
    fn summarize_order_statistics() {
        // Odd count: median is the middle element, p90 nearest-rank.
        assert_eq!(summarize(&[5, 1, 3]), (1, 3, 5, 5, 2));
        // Single measurement: everything collapses to it.
        assert_eq!(summarize(&[7]), (7, 7, 7, 7, 0));
        // Ten elements: median = 5th smallest, p90 = 9th smallest.
        let ts: Vec<u64> = (1..=10).collect();
        assert_eq!(summarize(&ts), (1, 5, 9, 10, 2));
    }

    #[test]
    fn bench_json_roundtrip() {
        let env = BenchEnv {
            nproc: 8,
            opt_level: "release".into(),
            git_rev: "deadbeef".into(),
            iters: 3,
            warmup: 1,
        };
        let samples = vec![sample("trace/memcpy_arm", 1_234_567), sample("q\"uote", 10)];
        let text = samples_to_json(&env, &samples);
        parse_json(&text).expect("export must be valid JSON");
        let (env2, samples2) = parse_bench_json(&text).expect("export must parse");
        assert_eq!(env, env2);
        assert_eq!(samples, samples2);
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(parse_bench_json("not json").is_err());
        assert!(parse_bench_json("{}").is_err());
        let wrong = "{\"schema\":\"islaris-bench/v0\",\"env\":{},\"samples\":[]}";
        assert!(parse_bench_json(wrong)
            .unwrap_err()
            .contains("unsupported schema"));
    }

    #[test]
    fn self_compare_is_clean() {
        let run = vec![sample("a", 100), sample("b", 200)];
        let report = compare(&run, &run, 25.0);
        assert_eq!(report.regressions(), 0);
        assert!(report.missing.is_empty() && report.added.is_empty());
        assert!(report.render().contains("0 regression(s)"));
    }

    #[test]
    fn compare_gates_median_regressions_only() {
        let old = vec![sample("a", 100), sample("b", 200), sample("gone", 5)];
        let mut slow_a = sample("a", 130);
        slow_a.max_ns = 10_000; // max blow-ups alone must not trip the gate
        let new = vec![slow_a, sample("b", 210), sample("new", 7)];
        let report = compare(&old, &new, 25.0);
        assert_eq!(report.regressions(), 1);
        let a = &report.rows[0];
        assert!(a.regressed && (a.delta_pct.unwrap() - 30.0).abs() < 1e-9);
        assert!(!report.rows[1].regressed, "+5% is within a 25% threshold");
        assert_eq!(report.missing, vec!["gone".to_string()]);
        assert_eq!(report.added, vec!["new".to_string()]);
        let rendered = report.render();
        assert!(rendered.contains("REGRESSION"));
        assert!(rendered.contains("`gone` missing"));
        // Raising the threshold clears the gate deterministically.
        assert_eq!(compare(&old, &new, 50.0).regressions(), 0);
    }

    #[test]
    fn compare_handles_zero_baseline_median() {
        let old = vec![sample("z", 0)];
        let new = vec![sample("z", 50)];
        let report = compare(&old, &new, 25.0);
        assert_eq!(report.rows[0].delta_pct, None);
        assert_eq!(report.regressions(), 0);
        assert!(report.render().contains(" -"), "no ratio renders as `-`");
    }

    #[test]
    fn bench_produces_consistent_statistics() {
        let s = bench("unit/nop", 1, 5, || std::hint::black_box(1 + 1));
        assert_eq!((s.iters, s.warmup), (5, 1));
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.p90_ns && s.p90_ns <= s.max_ns);
    }
}
