//! The parallel pipeline's contract: running the case studies over the
//! work-queue scheduler with a shared trace cache must change *nothing*
//! about what is proved — stable table rows, trace maps, statistics, and
//! certificates are byte-identical to the sequential uncached run — and a
//! poisoned case must fail alone without wedging the queue.

use islaris_cases::{
    hvc, memcpy_arm, run_case, run_cases, CaseArtifacts, CaseCtx, CaseDef, PipelineOpts, RunOpts,
    ALL_CASES,
};
use islaris_isla::TraceCache;

/// A fast subset of the registry (the slow binsearch/memcpy-RV rows are
/// exercised by the fig12 binary, not on every test run).
fn fast_cases() -> Vec<CaseDef> {
    ALL_CASES
        .iter()
        .filter(|c| ["hvc", "pKVM", "unaligned", "UART", "rbit"].contains(&c.name))
        .copied()
        .collect()
}

/// Parallel + cached runs produce byte-identical stable rows to the
/// sequential uncached baseline, cold and warm.
#[test]
fn parallel_stable_rows_match_sequential() {
    let cases = fast_cases();
    let baseline = run_cases(&cases, &PipelineOpts::default());
    assert!(baseline.all_ok());
    let cache = TraceCache::new();
    let cached = PipelineOpts {
        jobs: 4,
        cache: Some(&cache),
        ..PipelineOpts::default()
    };
    let cold = run_cases(&cases, &cached);
    let warm = run_cases(&cases, &cached);
    assert_eq!(
        baseline.stable_rows(),
        cold.stable_rows(),
        "cold run diverged"
    );
    assert_eq!(
        baseline.stable_rows(),
        warm.stable_rows(),
        "warm run diverged"
    );
    // The warm run served every instruction from the cache.
    let totals = warm.cache_totals();
    assert_eq!(totals.misses, 0, "warm run should not trace anything");
    assert!(totals.hits > 0);
}

/// Cache hits hand back the *same* simplified traces and replay the
/// original statistics: a cached build of a case is indistinguishable
/// from a cold one (wall-clock aside).
#[test]
fn cached_build_is_indistinguishable() {
    let cold: CaseArtifacts = hvc::build_case();
    let cache = TraceCache::new();
    let first = hvc::build_case_with(&CaseCtx::new(&cache, 1));
    let second = hvc::build_case_with(&CaseCtx::new(&cache, 1));
    for art in [&first, &second] {
        assert_eq!(cold.prog_spec.instrs.len(), art.prog_spec.instrs.len());
        for (addr, trace) in &cold.prog_spec.instrs {
            assert_eq!(
                trace, &art.prog_spec.instrs[addr],
                "trace at {addr:#x} differs"
            );
        }
        assert_eq!(cold.isla_stats.runs, art.isla_stats.runs);
        assert_eq!(cold.isla_stats.smt_queries, art.isla_stats.smt_queries);
        assert_eq!(cold.isla_stats.events, art.isla_stats.events);
    }
    // hvc repeats an opcode, so even the cold build hits within itself;
    // what matters is that nothing is re-traced the second time.
    assert!(first.cache.misses > 0, "empty cache must trace something");
    assert_eq!(second.cache.misses, 0, "second build must be all hits");
    assert_eq!(second.cache.lookups(), first.cache.lookups());
}

/// Instruction-level fan-out (jobs > 1 inside one case build) yields the
/// same trace map and certificates as the sequential build.
#[test]
fn instruction_fanout_is_deterministic() {
    let seq = memcpy_arm::build_case_with(&CaseCtx {
        cache: None,
        jobs: 1,
        ..CaseCtx::default()
    });
    let par = memcpy_arm::build_case_with(&CaseCtx {
        cache: None,
        jobs: 4,
        ..CaseCtx::default()
    });
    assert_eq!(seq.prog_spec.instrs, par.prog_spec.instrs);
    let (_, seq_report) = run_case(&seq, &RunOpts::default()).expect("no deadline set");
    let (_, par_report) = run_case(&par, &RunOpts::default()).expect("no deadline set");
    let certs = |r: &islaris::logic::Report| {
        r.blocks
            .iter()
            .map(|b| format!("{:?}", b.cert))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        certs(&seq_report),
        certs(&par_report),
        "certificates diverged"
    );
}

/// Intra-case block parallelism (`RunOpts::jobs`) is invisible in every
/// observable output: stable rows, rendered profiles, certificates and
/// rendered proof traces are byte-identical across jobs {1, 4, 8} and
/// across query-cache states (none / cold / warm), traced or not, and
/// tracing changes no counter. This is the determinism contract the
/// daemon relies on to scale a single request without changing bodies.
#[test]
fn intra_case_jobs_are_deterministic() {
    use islaris_obs::render_proof_trace;
    use islaris_smt::QueryCache;
    use std::sync::Arc;

    let art = hvc::build_case();
    let fingerprint = |trace: bool, qcache: Option<&Arc<QueryCache>>, jobs: usize| {
        let opts = RunOpts {
            trace,
            qcache: qcache.cloned(),
            jobs,
            deadline: None,
        };
        let (outcome, report) = run_case(&art, &opts).expect("no deadline set");
        let certs: Vec<String> = report
            .blocks
            .iter()
            .map(|b| format!("{:?}", b.cert))
            .collect();
        let traces: Vec<String> = report
            .blocks
            .iter()
            .map(|b| render_proof_trace(&b.ptrace))
            .collect();
        // Everything except the cache hit/miss rows must be byte-identical;
        // those two rows are the only profile lines allowed to vary with
        // cache state (DESIGN §9).
        let profile: String = outcome
            .profile
            .render(outcome.name)
            .lines()
            .filter(|l| !l.starts_with("  cache") && !l.starts_with("  q.cache"))
            .map(|l| format!("{l}\n"))
            .collect();
        ((outcome.stable_row(), profile, certs), traces)
    };

    let (baseline, untraced) = fingerprint(false, None, 1);
    assert!(untraced.iter().all(String::is_empty), "untraced run traced");
    for trace in [false, true] {
        let expected = fingerprint(trace, None, 1);
        assert_eq!(baseline, expected.0, "trace={trace} changed a counter");
        assert_eq!(
            trace,
            expected.1.iter().any(|t| !t.is_empty()),
            "trace={trace} must match whether proof traces are collected"
        );
        for jobs in [1, 4, 8] {
            assert_eq!(
                expected,
                fingerprint(trace, None, jobs),
                "uncached run diverged at trace={trace} jobs={jobs}"
            );
            let qcache = Arc::new(QueryCache::new());
            for state in ["cold", "warm"] {
                assert_eq!(
                    expected,
                    fingerprint(trace, Some(&qcache), jobs),
                    "{state} cached run diverged at trace={trace} jobs={jobs}"
                );
            }
        }
        // One cache shared across widths, as when a `--store` written by a
        // `--workers 4` daemon is reopened with `--workers 1`.
        let qcache = Arc::new(QueryCache::new());
        for (state, jobs) in [("cold", 4), ("warm", 8), ("warm", 1)] {
            assert_eq!(
                expected,
                fingerprint(trace, Some(&qcache), jobs),
                "shared {state} cached run diverged at trace={trace} jobs={jobs}"
            );
        }
    }
}

/// A case whose build panics fails only its own row; the rest of the
/// queue drains and verifies normally, and the failed row renders
/// deterministically.
#[test]
fn poisoned_case_fails_alone() {
    fn poisoned(_: &CaseCtx) -> CaseArtifacts {
        panic!("injected failure: this case always dies");
    }
    let mut cases = fast_cases();
    cases.insert(
        1,
        CaseDef {
            name: "poisoned",
            slug: "poisoned",
            build: poisoned,
        },
    );
    let opts = PipelineOpts {
        jobs: 3,
        ..PipelineOpts::default()
    };
    let report = run_cases(&cases, &opts);
    assert!(!report.all_ok());
    for (i, row) in report.rows.iter().enumerate() {
        if i == 1 {
            let p = row.as_ref().expect_err("the poisoned case must fail");
            assert_eq!(p.index, 1);
            assert!(p.message.contains("injected failure"), "{}", p.message);
        } else {
            assert!(row.is_ok(), "case {} must still verify", report.names[i]);
        }
    }
    assert!(report.stable_rows()[1].contains("poisoned: FAILED"));
}
