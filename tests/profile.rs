//! The counter-determinism contract behind `fig12 --profile`: the
//! per-case per-stage counter profile must be *byte-identical* across
//! worker counts, and — for every stage except `cache` and `q.cache`,
//! whose hits and misses are precisely what cache state changes —
//! across cache states too. Counters are plain integers threaded through the pipeline by
//! value (never wall-clock derived), and trace cache hits replay the
//! original run's statistics, so a sequential cold run, a 4-worker cold
//! run, and a warm-cache run over the same cases must render exactly
//! the same profile text modulo that one stage.

use std::sync::Arc;

use islaris_cases::{run_cases, PipelineOpts, PipelineReport, ALL_CASES};
use islaris_isla::TraceCache;
use islaris_obs::{profiles_to_json, render_profiles};
use islaris_smt::QueryCache;

/// One pipeline run over the first three Fig. 12 cases (two ISAs plus a
/// branching case) through `cache`, with an optional solver cache.
fn run_first_three(
    jobs: usize,
    cache: &TraceCache,
    qcache: Option<&Arc<QueryCache>>,
) -> PipelineReport {
    let opts = PipelineOpts {
        jobs,
        cache: Some(cache),
        qcache: qcache.cloned(),
        ..PipelineOpts::default()
    };
    run_cases(&ALL_CASES[..3], &opts)
}

/// Renders the full per-stage counter profile of one pipeline run over
/// the first three Fig. 12 cases.
fn profile_text(jobs: usize, cache: &TraceCache) -> String {
    let report = run_first_three(jobs, cache, None);
    assert!(report.all_ok(), "profiled cases must verify");
    render_profiles(&report.profiles())
}

/// Drops the `cache` and `q.cache` stage lines: the only stages whose
/// counters are allowed to (and must) vary with cache state. Note that
/// `q.cache` does *not* start with `cache`, so both prefixes are named
/// explicitly.
fn without_cache_stage(profile: &str) -> String {
    profile
        .lines()
        .filter(|l| {
            let stage = l.trim_start();
            !stage.starts_with("cache") && !stage.starts_with("q.cache")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn counter_profile_is_identical_across_jobs_and_cache_state() {
    let sequential = profile_text(1, &TraceCache::new());
    let parallel = profile_text(4, &TraceCache::new());

    let shared = TraceCache::new();
    let warm_prime = profile_text(1, &shared);
    let warm = profile_text(1, &shared);

    assert!(!sequential.is_empty(), "profile render must not be empty");
    // Full byte identity across worker counts, cache stage included.
    assert_eq!(
        sequential, parallel,
        "counter profile differs between 1 and 4 workers"
    );
    assert_eq!(
        sequential, warm_prime,
        "counter profile differs between fresh caches"
    );
    // Across cache states every stage but `cache` must be identical …
    assert_eq!(
        without_cache_stage(&sequential),
        without_cache_stage(&warm),
        "non-cache counters differ between cold and warm cache"
    );
    // … and `cache` itself must actually register the warm hits.
    assert_ne!(
        sequential, warm,
        "warm run shows no cache-stage difference; hit replay is not exercised"
    );
}

/// Renders the profile of a run with the solver query-result cache
/// either disabled (`None`) or backed by the given shared cache.
fn solver_cached_profile(jobs: usize, qcache: Option<&Arc<QueryCache>>) -> String {
    let report = run_first_three(jobs, &TraceCache::new(), qcache);
    assert!(report.all_ok(), "profiled cases must verify");
    render_profiles(&report.profiles())
}

/// `fig12 --solver-cache {on,off}` must not perturb any counter outside
/// the `q.cache` row itself: cache hits replay the original solve's
/// statistics, so every other stage (including the always-on `sess`
/// row) is byte-identical across cache states and worker counts.
#[test]
fn counter_profile_is_identical_across_solver_cache_states() {
    let off = solver_cached_profile(1, None);
    let shared = Arc::new(QueryCache::new());
    let on_cold = solver_cached_profile(1, Some(&shared));
    let on_warm = solver_cached_profile(1, Some(&shared));
    let on_parallel = solver_cached_profile(4, Some(&Arc::new(QueryCache::new())));

    for (label, other) in [
        ("cold cache", &on_cold),
        ("warm cache", &on_warm),
        ("4 workers", &on_parallel),
    ] {
        assert_eq!(
            without_cache_stage(&off),
            without_cache_stage(other),
            "non-cache counters differ between --solver-cache off and on ({label})"
        );
    }
    // The q.cache row must actually register the traffic: lookups when
    // the cache is on, and hits once the shared cache is warm.
    assert_ne!(
        off, on_cold,
        "--solver-cache on shows no q.cache difference; the cache is not exercised"
    );
    assert_ne!(
        on_cold, on_warm,
        "warm solver-cache run shows no hits; verdict replay is not exercised"
    );
}

/// The CDCL/preprocessing counters (restarts, DB reductions, minimized
/// literals, folded terms) appear in every solver-stage row — once per
/// `isla.smt`/`eng.smt`/`cert.smt` row per case — and the preprocessing
/// counter actually registers work somewhere in the first three cases.
#[test]
fn profile_reports_cdcl_counters() {
    let report = run_first_three(1, &TraceCache::new(), None);
    assert!(report.all_ok(), "profiled cases must verify");
    let text = render_profiles(&report.profiles());
    for key in ["restarts=", "reduced=", "minimized=", "folded=", "trimmed="] {
        assert_eq!(
            text.matches(key).count(),
            9,
            "counter `{key}` must appear once per solver stage per case in:\n{text}"
        );
    }
    let folded: u64 = text
        .split("folded=")
        .skip(1)
        .map(|tail| {
            let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<u64>().unwrap_or(0)
        })
        .sum();
    assert!(folded > 0, "preprocessing folded no terms in:\n{text}");
}

/// The profile names every pipeline stage for every case, so a stage
/// that silently stops reporting (or a case that loses its profile)
/// fails here rather than in downstream diffing.
#[test]
fn profile_reports_every_stage_for_every_case() {
    let report = run_first_three(1, &TraceCache::new(), None);
    let profiles = report.profiles();
    assert_eq!(profiles.len(), 3, "one profile per case");
    let text = render_profiles(&profiles);
    for stage in [
        "sail    :",
        "isla    :",
        "isla.smt:",
        "engine  :",
        "eng.smt :",
        "sess    :",
        "cert    :",
        "cert.smt:",
        "cache   :",
        "q.cache :",
    ] {
        assert_eq!(
            text.matches(stage).count(),
            3,
            "stage `{stage}` must appear once per case in:\n{text}"
        );
    }
}

/// The full nine-case counter profile, as `fig12 --profile --profile-json`
/// writes it (fresh trace cache, solver cache on), must match the
/// committed `tests/golden/profile.json` byte for byte. The counters
/// cover the search (decisions, conflicts, propagations), the CNF size,
/// the LIA query count and the replay work, so an engine change that
/// claims to keep the same search, the same CNF and the same LIA verdicts
/// is held to it here.
///
/// To regenerate after an intentional change to any of them:
///
/// ```text
/// fig12 --profile --profile-json tests/golden/profile.json
/// ```
#[test]
fn counter_profile_matches_golden() {
    let report = run_cases(
        ALL_CASES,
        &PipelineOpts {
            cache: Some(&TraceCache::new()),
            qcache: Some(Arc::new(QueryCache::new())),
            ..PipelineOpts::default()
        },
    );
    assert!(report.all_ok(), "profiled cases must verify");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/profile.json");
    let golden = std::fs::read_to_string(&path).expect("golden profile is committed");
    assert_eq!(
        profiles_to_json(&report.profiles()),
        golden,
        "counter profile differs from {}",
        path.display()
    );
}
