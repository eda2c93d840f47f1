//! The telemetry determinism contract (DESIGN.md §9): proof-search
//! traces and solver-query attribution tables are *counters*, so their
//! rendered forms must be byte-identical across worker counts and cache
//! states, and enabling tracing must not perturb what is measured.

use std::sync::Arc;

use islaris::logic::Report;
use islaris_cases::{
    find_case, run_case, run_cases, CaseArtifacts, CaseCtx, CaseDef, PipelineOpts, PipelineReport,
    RunOpts, ALL_CASES,
};
use islaris_isla::TraceCache;
use islaris_obs::{render_proof_trace, ProofStep};
use islaris_smt::QueryCache;

/// Verifies `art` with proof-search tracing on.
fn run_traced(art: &CaseArtifacts) -> Report {
    let opts = RunOpts {
        trace: true,
        ..RunOpts::default()
    };
    run_case(art, &opts).expect("no deadline set").1
}

/// Runs `cases` on `jobs` workers through the optional trace and solver
/// caches.
fn run(
    cases: &[CaseDef],
    jobs: usize,
    cache: Option<&TraceCache>,
    qcache: Option<&Arc<QueryCache>>,
) -> PipelineReport {
    let opts = PipelineOpts {
        jobs,
        cache,
        qcache: qcache.cloned(),
        ..PipelineOpts::default()
    };
    run_cases(cases, &opts)
}

/// A fast subset of the registry (the slow binsearch/memcpy-RV rows are
/// exercised by the fig12 binary, not on every test run).
fn fast_cases() -> Vec<CaseDef> {
    ALL_CASES
        .iter()
        .filter(|c| ["hvc", "pkvm", "unaligned", "uart", "rbit"].contains(&c.slug))
        .copied()
        .collect()
}

/// Every registry slug is unique and resolvable — `--trace-proof SLUG`
/// and the `trace/<slug>` bench names depend on this.
#[test]
fn slugs_are_unique_handles() {
    let mut seen = std::collections::BTreeSet::new();
    for def in ALL_CASES {
        assert!(seen.insert(def.slug), "duplicate slug `{}`", def.slug);
        let found = find_case(def.slug).expect("slug must resolve");
        assert_eq!(found.name, def.name);
    }
    assert!(find_case("no-such-case").is_none());
}

/// The rendered proof trace of a case is byte-identical across
/// instruction-fanout worker counts and cold/warm cache states.
#[test]
fn proof_trace_deterministic_across_jobs_and_cache() {
    let def = find_case("hvc").unwrap();
    let render = |ctx: &CaseCtx| {
        let art = (def.build)(ctx);
        let report = run_traced(&art);
        report
            .blocks
            .iter()
            .map(|b| {
                format!(
                    "block {:#x} `{}`\n{}",
                    b.addr,
                    b.spec,
                    render_proof_trace(&b.ptrace)
                )
            })
            .collect::<String>()
    };
    let baseline = render(&CaseCtx::default());
    assert!(!baseline.is_empty(), "traced run must produce events");
    let cache = TraceCache::new();
    let cold = render(&CaseCtx::new(&cache, 4));
    let warm = render(&CaseCtx::new(&cache, 4));
    assert_eq!(baseline, cold, "cold cached trace diverged");
    assert_eq!(baseline, warm, "warm cached trace diverged");
}

/// The trace grammar holds: every opened obligation is eventually
/// discharged or failed (and on verified cases, never failed without a
/// fall-back), and solver-backed discharges carry a query digest.
#[test]
fn proof_trace_grammar_is_balanced() {
    let def = find_case("unaligned").unwrap();
    let art = (def.build)(&CaseCtx::default());
    let report = run_traced(&art);
    let mut opens = 0u64;
    let mut closes = 0u64;
    let mut digests = 0u64;
    for ev in report.blocks.iter().flat_map(|b| &b.ptrace) {
        match ev.step {
            ProofStep::Open => opens += 1,
            ProofStep::Discharge | ProofStep::Fail => closes += 1,
            ProofStep::Rule | ProofStep::Backtrack => {}
        }
        if ev.digest.is_some() {
            digests += 1;
        }
    }
    assert!(opens > 0, "case must open obligations");
    assert_eq!(opens, closes, "every Open needs a Discharge/Fail");
    assert!(digests > 0, "solver-backed steps must carry digests");
}

/// Tracing is pure observation: the untraced run has no events but
/// identical stable measurements and query attribution.
#[test]
fn tracing_does_not_perturb_measurements() {
    let def = find_case("rbit").unwrap();
    let art = (def.build)(&CaseCtx::default());
    let (plain, plain_report) = run_case(&art, &RunOpts::default()).expect("no deadline set");
    let traced_opts = RunOpts {
        trace: true,
        ..RunOpts::default()
    };
    let (traced, traced_report) = run_case(&art, &traced_opts).expect("no deadline set");
    assert!(plain_report.blocks.iter().all(|b| b.ptrace.is_empty()));
    assert!(traced_report.blocks.iter().any(|b| !b.ptrace.is_empty()));
    assert_eq!(plain.stable_row(), traced.stable_row());
    assert_eq!(
        plain.queries.render_top("case", 10),
        traced.queries.render_top("case", 10)
    );
}

/// Strips the `hits=N` column from rendered hot-query rows: the only
/// column allowed to vary with solver-cache state, since a cache hit
/// replays the original solve's effort counters but not its hit count.
fn without_hit_counts(rendered: &str) -> String {
    rendered
        .lines()
        .map(|l| l.find(" hits=").map_or(l, |i| &l[..i]))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The solver query-result cache replays effort counters on a hit, so
/// hot-query tables are byte-identical across `--solver-cache {on,off}`
/// and worker counts modulo the documented `hits=` column, and a warm
/// shared cache actually registers hits.
#[test]
fn hot_query_tables_deterministic_across_solver_cache_states() {
    let cases = fast_cases();
    let off = run(&cases, 1, None, None);
    assert!(off.all_ok());
    let baseline = without_hit_counts(&off.render_hot_queries(5));

    let shared = Arc::new(QueryCache::new());
    let on_cold = run(&cases, 1, None, Some(&shared));
    let on_warm = run(&cases, 1, None, Some(&shared));
    let on_parallel = run(&cases, 4, None, Some(&Arc::new(QueryCache::new())));
    for (label, run) in [
        ("cold cache", &on_cold),
        ("warm cache", &on_warm),
        ("4 workers", &on_parallel),
    ] {
        assert!(run.all_ok());
        assert_eq!(
            baseline,
            without_hit_counts(&run.render_hot_queries(5)),
            "hot-query tables diverged with --solver-cache on ({label})"
        );
    }
    let warm_hits: u64 = on_warm.profiles().iter().map(|p| p.1.qcache.hits).sum();
    assert!(warm_hits > 0, "warm solver cache registered no hits");
}

/// The hot-query tables (per case and pipeline-wide) are byte-identical
/// across pipeline worker counts and cache states, and attribution is
/// non-trivial: cases issue solver queries and effort lands on digests.
#[test]
fn hot_query_tables_deterministic_across_jobs_and_cache() {
    let cases = fast_cases();
    let baseline = run(&cases, 1, None, None);
    assert!(baseline.all_ok());
    let rendered = baseline.render_hot_queries(5);
    assert!(
        rendered.contains("pipeline"),
        "pipeline-wide table missing:\n{rendered}"
    );
    assert!(!baseline.query_totals().is_empty(), "no queries attributed");
    let cache = TraceCache::new();
    let cold = run(&cases, 4, Some(&cache), None);
    let warm = run(&cases, 4, Some(&cache), None);
    assert_eq!(
        rendered,
        cold.render_hot_queries(5),
        "cold hot-query tables diverged"
    );
    assert_eq!(
        rendered,
        warm.render_hot_queries(5),
        "warm hot-query tables diverged"
    );
}
