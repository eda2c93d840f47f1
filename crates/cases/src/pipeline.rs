//! The parallel verification pipeline over the bundled case studies.
//!
//! [`ALL_CASES`] is the registry in the paper's Fig. 12 row order;
//! [`run_cases`] fans the cases out over a work queue with per-case panic
//! isolation; [`run_all_parallel`] is the full measurement: a sequential
//! uncached baseline, then a cold and a warm parallel run sharing one
//! [`TraceCache`], reporting per-case wall time, cache hit rate, and
//! speedup vs the baseline.
//!
//! Determinism contract: the *stable* table rows ([`PipelineReport::stable_rows`])
//! are byte-identical across worker counts and cache states — the results
//! come back in registry order, and cache hits replay the original run's
//! trace-generation statistics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use islaris_core::{run_jobs, JobPanic};
use islaris_isla::{CacheStats, TraceCache};
use islaris_obs::{CaseProfile, QueryTable, Recorder};
use islaris_smt::QueryCache;

use crate::report::{run_case, CaseArtifacts, CaseCtx, CaseOutcome, RunOpts};
use crate::{
    binsearch_arm, binsearch_riscv, hvc, memcpy_arm, memcpy_riscv, pkvm, rbit, uart, unaligned,
};

/// One registered case study: its Fig. 12 name, a unique CLI slug, and
/// its builder.
#[derive(Clone, Copy)]
pub struct CaseDef {
    /// Registry name (matches `CaseArtifacts::name`).
    pub name: &'static str,
    /// Unique command-line handle (`fig12 --trace-proof <slug>` and the
    /// per-case bench sample names `trace/<slug>` / `verify/<slug>`).
    /// Unlike `name`, slugs disambiguate the per-ISA variants.
    pub slug: &'static str,
    /// Builds the artefacts under a build context.
    pub build: fn(&CaseCtx) -> CaseArtifacts,
}

/// Every bundled case study, in the paper's Fig. 12 row order.
pub const ALL_CASES: &[CaseDef] = &[
    CaseDef {
        name: "memcpy",
        slug: "memcpy_arm",
        build: memcpy_arm::build_case_with,
    },
    CaseDef {
        name: "memcpy",
        slug: "memcpy_riscv",
        build: memcpy_riscv::build_case_with,
    },
    CaseDef {
        name: "hvc",
        slug: "hvc",
        build: hvc::build_case_with,
    },
    CaseDef {
        name: "pKVM",
        slug: "pkvm",
        build: pkvm::build_case_with,
    },
    CaseDef {
        name: "unaligned",
        slug: "unaligned",
        build: unaligned::build_case_with,
    },
    CaseDef {
        name: "UART",
        slug: "uart",
        build: uart::build_case_with,
    },
    CaseDef {
        name: "rbit",
        slug: "rbit",
        build: rbit::build_case_with,
    },
    CaseDef {
        name: "bin.search",
        slug: "binsearch_arm",
        build: binsearch_arm::build_case_with,
    },
    CaseDef {
        name: "bin.search",
        slug: "binsearch_riscv",
        build: binsearch_riscv::build_case_with,
    },
];

/// Looks up a case by its unique slug.
#[must_use]
pub fn find_case(slug: &str) -> Option<&'static CaseDef> {
    ALL_CASES.iter().find(|c| c.slug == slug)
}

/// One verified case plus its end-to-end wall time (build + verify +
/// certificate re-check).
#[derive(Debug, Clone)]
pub struct CaseRow {
    /// The Fig. 12 measurements.
    pub outcome: CaseOutcome,
    /// End-to-end wall time for this case on its worker.
    pub wall: Duration,
}

/// The result of one pipeline run over a case list.
#[derive(Debug)]
pub struct PipelineReport {
    /// Worker count the run was scheduled with.
    pub jobs: usize,
    /// Registry names, in run order (also the row order below).
    pub names: Vec<&'static str>,
    /// Per-case results, in registry order; a panicking case fails only
    /// its own row.
    pub rows: Vec<Result<CaseRow, JobPanic>>,
    /// Total wall time of the run.
    pub wall: Duration,
}

impl PipelineReport {
    /// The deterministic table rows (no wall-clock columns): byte-identical
    /// across worker counts and cache states. A failed case renders as a
    /// deterministic `FAILED` row carrying its panic message.
    #[must_use]
    pub fn stable_rows(&self) -> Vec<String> {
        self.rows
            .iter()
            .zip(&self.names)
            .map(|(r, name)| match r {
                Ok(row) => row.outcome.stable_row(),
                Err(p) => format!("{name}: FAILED: {}", p.message),
            })
            .collect()
    }

    /// Sums the per-case cache counters over the successful rows.
    #[must_use]
    pub fn cache_totals(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for row in self.rows.iter().flatten() {
            total.hits += row.outcome.cache.hits;
            total.misses += row.outcome.cache.misses;
        }
        total
    }

    /// True iff every case verified.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.rows.iter().all(Result::is_ok)
    }

    /// The per-case counter profiles in registry order, keyed
    /// `name (ISA)` (names alone are ambiguous: memcpy and bin.search
    /// each appear once per ISA). Failed cases contribute no profile.
    /// Like [`PipelineReport::stable_rows`], the rendered profiles are
    /// byte-identical across worker counts and cache states.
    #[must_use]
    pub fn profiles(&self) -> Vec<(String, CaseProfile)> {
        self.rows
            .iter()
            .flatten()
            .map(|row| {
                (
                    format!("{} ({})", row.outcome.name, row.outcome.isa),
                    row.outcome.profile,
                )
            })
            .collect()
    }

    /// The per-case solver-query attribution tables in registry order,
    /// keyed `name (ISA)` like [`PipelineReport::profiles`]. Failed cases
    /// contribute no table. Byte-identical across worker counts and cache
    /// states (the tables cover the verification half only; DESIGN §9).
    #[must_use]
    pub fn query_tables(&self) -> Vec<(String, &QueryTable)> {
        self.rows
            .iter()
            .flatten()
            .map(|row| {
                (
                    format!("{} ({})", row.outcome.name, row.outcome.isa),
                    &row.outcome.queries,
                )
            })
            .collect()
    }

    /// The pipeline-wide attribution table: every per-case table merged,
    /// so recurring queries across cases accumulate their effort.
    #[must_use]
    pub fn query_totals(&self) -> QueryTable {
        let mut total = QueryTable::default();
        for row in self.rows.iter().flatten() {
            total.absorb(&row.outcome.queries);
        }
        total
    }

    /// Renders the per-case and pipeline-wide top-`k` hottest-query
    /// tables (`fig12 --profile --hot-queries K`). Deterministic:
    /// byte-identical across worker counts and cache states.
    #[must_use]
    pub fn render_hot_queries(&self, k: usize) -> String {
        let mut out = String::new();
        for (scope, table) in self.query_tables() {
            out.push_str(&table.render_top(&scope, k));
        }
        out.push_str(&self.query_totals().render_top("pipeline", k));
        out
    }

    /// Total trace-generation (Isla-stage) wall time over the successful
    /// rows — the stage the shared cache eliminates on warm runs.
    #[must_use]
    pub fn isla_total(&self) -> Duration {
        self.rows
            .iter()
            .flatten()
            .map(|r| r.outcome.isla_time)
            .sum()
    }

    /// Renders the full table (stable columns + per-case wall time).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&CaseOutcome::stable_header());
        out.push_str(&format!(" {:>8} {:>5} {:>5}\n", "Wall(s)", "hit", "miss"));
        for (r, name) in self.rows.iter().zip(&self.names) {
            match r {
                Ok(row) => out.push_str(&format!(
                    "{} {:>8.3} {:>5} {:>5}\n",
                    row.outcome.stable_row(),
                    row.wall.as_secs_f64(),
                    row.outcome.cache.hits,
                    row.outcome.cache.misses,
                )),
                Err(p) => out.push_str(&format!("{name}: FAILED: {}\n", p.message)),
            }
        }
        out
    }
}

/// How [`run_cases`] schedules and builds the cases. The default is one
/// worker, no caches, no span recording; every other field is an
/// optional collaborator.
#[derive(Clone)]
pub struct PipelineOpts<'a> {
    /// Workers for the case-level fan-out.
    pub jobs: usize,
    /// Shared trace memo table the cases build through.
    pub cache: Option<&'a TraceCache>,
    /// Wall-clock span recorder. When set, each case contributes
    /// `build:<name>` and `verify:<name>` spans (category `case`) on top
    /// of the scheduler's per-job queue-wait and execution spans; when
    /// unset no clock is read beyond the wall-time columns.
    pub recorder: Option<&'a Recorder>,
    /// Shared solver [`QueryCache`]: the cases' from-scratch solver
    /// queries (side provers, certificate replay) are memoised across
    /// cases and worker threads. Verdict rows, stable rows, and every
    /// profile counter except the `q.cache` traffic row (and the
    /// hot-query `hits` column) are byte-identical with and without it.
    pub qcache: Option<Arc<QueryCache>>,
}

impl Default for PipelineOpts<'_> {
    fn default() -> Self {
        PipelineOpts {
            jobs: 1,
            cache: None,
            recorder: None,
            qcache: None,
        }
    }
}

/// Runs `cases` on up to `opts.jobs` workers (per-case panic isolation,
/// deterministic registry-order join). Case builds use a sequential
/// inner context: parallelism is at the case level here,
/// instruction-level fan-out is
/// [`crate::report::trace_program_map`]'s job.
#[must_use]
pub fn run_cases(cases: &[CaseDef], opts: &PipelineOpts) -> PipelineReport {
    let ctx = CaseCtx {
        cache: opts.cache,
        jobs: 1,
    };
    let run = RunOpts {
        qcache: opts.qcache.clone(),
        ..RunOpts::default()
    };
    let recorder = opts.recorder;
    let start = Instant::now();
    let rows = run_jobs(opts.jobs, cases.len(), recorder, |i| {
        let t0 = Instant::now();
        let art = {
            let _span = recorder.map(|rec| rec.span(format!("build:{}", cases[i].name), "case"));
            (cases[i].build)(&ctx)
        };
        let (outcome, _) = {
            let _span = recorder.map(|rec| rec.span(format!("verify:{}", cases[i].name), "case"));
            run_case(&art, &run).expect("no deadline set")
        };
        CaseRow {
            outcome,
            wall: t0.elapsed(),
        }
    });
    PipelineReport {
        jobs: opts.jobs,
        names: cases.iter().map(|c| c.name).collect(),
        rows,
        wall: start.elapsed(),
    }
}

/// The full parallel measurement: baseline, then a cold and a warm
/// parallel run over one shared cache.
#[derive(Debug)]
pub struct ParallelRun {
    /// Sequential uncached baseline.
    pub sequential: PipelineReport,
    /// First parallel run: the shared cache starts empty.
    pub cold: PipelineReport,
    /// Second parallel run over the now-populated cache (the steady-state
    /// service model of the roadmap).
    pub warm: PipelineReport,
    /// Distinct (config, opcode) keys the shared cache ended up with.
    pub unique_traces: usize,
    /// Global cache counters over both cached runs.
    pub cache: CacheStats,
}

impl ParallelRun {
    /// Baseline wall time over the cold parallel run's.
    #[must_use]
    pub fn speedup_cold(&self) -> f64 {
        self.sequential.wall.as_secs_f64() / self.cold.wall.as_secs_f64().max(1e-9)
    }

    /// Baseline wall time over the warm run's (cache fully primed).
    #[must_use]
    pub fn speedup_warm(&self) -> f64 {
        self.sequential.wall.as_secs_f64() / self.warm.wall.as_secs_f64().max(1e-9)
    }

    /// Trace-generation stage speedup: baseline Isla-stage time over the
    /// warm run's. This is the cache's contribution in isolation — on a
    /// single-core host the whole-pipeline wall speedup is bounded by the
    /// (small) Isla share of total time, but the stage itself collapses
    /// to hash lookups.
    #[must_use]
    pub fn trace_stage_speedup(&self) -> f64 {
        self.sequential.isla_total().as_secs_f64() / self.warm.isla_total().as_secs_f64().max(1e-9)
    }
}

/// Runs [`ALL_CASES`] sequentially (uncached baseline), then twice in
/// parallel on `jobs` workers over one shared [`TraceCache`] (cold, then
/// warm), and reports per-case wall times, cache hit rates, and speedups.
#[must_use]
pub fn run_all_parallel(jobs: usize) -> ParallelRun {
    let sequential = run_cases(ALL_CASES, &PipelineOpts::default());
    let cache = TraceCache::new();
    let cached = PipelineOpts {
        jobs,
        cache: Some(&cache),
        ..PipelineOpts::default()
    };
    let cold = run_cases(ALL_CASES, &cached);
    let warm = run_cases(ALL_CASES, &cached);
    ParallelRun {
        sequential,
        cold,
        warm,
        unique_traces: cache.unique_traces(),
        cache: cache.stats(),
    }
}
