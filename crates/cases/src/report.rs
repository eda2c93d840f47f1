//! Case-study artefacts and the Fig. 12 measurement harness.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use islaris_asm::Program;
use islaris_core::{
    check_certificate_with, run_jobs, run_jobs_ok, CertCtx, ProgramSpec, Protocol, Report,
    Verifier, VerifyError, DEADLINE_EXCEEDED,
};
use islaris_isla::{
    trace_opcode, CacheStats, CachedTrace, IslaConfig, IslaError, IslaStats, Opcode, TraceCache,
};
use islaris_itl::Trace;
use islaris_obs::{
    CacheMetrics, CaseProfile, CertMetrics, EngineMetrics, IslaMetrics, QueryTable, SailMetrics,
    SessionMetrics,
};
use islaris_smt::{QueryCache, SatConfig};

/// How a case study is built: an optional shared trace cache, a worker
/// count for per-instruction trace-generation fan-out, and the solver
/// feature configuration both pipeline halves run under.
///
/// The default (`CaseCtx::default()`) is the legacy shape: no cache, one
/// worker, all solver features on — identical to calling [`trace_opcode`]
/// per instruction.
#[derive(Default, Clone, Copy)]
pub struct CaseCtx<'a> {
    /// Shared trace memo table; `None` traces everything cold.
    pub cache: Option<&'a TraceCache>,
    /// Workers for per-instruction fan-out (`0` = ask the OS, `1` =
    /// inline).
    pub jobs: usize,
    /// CDCL/preprocessing feature flags for every solver the case touches
    /// (trace generation and verification; `fig12 --sat-off FEATURE`).
    /// Certificate replay is excluded: the checker always runs the
    /// default configuration, as an independent trusted base.
    pub sat: SatConfig,
}

impl<'a> CaseCtx<'a> {
    /// A context using `cache` with `jobs` workers.
    #[must_use]
    pub fn new(cache: &'a TraceCache, jobs: usize) -> Self {
        CaseCtx {
            cache: Some(cache),
            jobs,
            sat: SatConfig::default(),
        }
    }

    /// The same context with the given solver feature configuration.
    #[must_use]
    pub fn with_sat(mut self, sat: SatConfig) -> Self {
        self.sat = sat;
        self
    }

    /// Traces one opcode through the cache if present. Returns the entry
    /// plus whether it was a cache hit (always `false` uncached).
    ///
    /// # Errors
    ///
    /// Propagates [`IslaError`] from tracing.
    pub fn trace(
        &self,
        cfg: &IslaConfig,
        opcode: &Opcode,
    ) -> Result<(Arc<CachedTrace>, bool), IslaError> {
        match self.cache {
            Some(cache) => cache.lookup(cfg, opcode),
            None => {
                let r = trace_opcode(cfg, opcode)?;
                Ok((
                    Arc::new(CachedTrace {
                        trace: Arc::new(r.trace),
                        params: r.params,
                        stats: r.stats,
                    }),
                    false,
                ))
            }
        }
    }
}

/// Everything built for one case study, before verification.
pub struct CaseArtifacts {
    /// Case name (the "Test" column of Fig. 12).
    pub name: &'static str,
    /// ISA ("Arm" / "RV").
    pub isa: &'static str,
    /// The assembled machine code.
    pub program: Program,
    /// The program spec: traces, annotations, named specs.
    pub prog_spec: ProgramSpec,
    /// MMIO protocol.
    pub protocol: Arc<dyn Protocol>,
    /// Trace-generation statistics.
    pub isla_stats: IslaStats,
    /// Cache hits/misses observed while building this case's traces
    /// (zero when built without a cache).
    pub cache: CacheStats,
    /// Solver feature configuration the verification half runs under
    /// (stamped from [`CaseCtx::sat`] by the builder).
    pub sat: SatConfig,
}

/// Measurements for one Fig. 12 row.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Case name.
    pub name: &'static str,
    /// ISA.
    pub isa: &'static str,
    /// Instructions (Fig. 12 "asm" size).
    pub asm_instrs: usize,
    /// Total trace events (Fig. 12 "ITL" size).
    pub itl_events: usize,
    /// Spec size: atoms over all named specs (Fig. 12 "Spec").
    pub spec_atoms: usize,
    /// Proof size: annotation count + pure hint atoms (Fig. 12 "Proof").
    pub proof_hints: usize,
    /// Trace generation time (Fig. 12 "Isla").
    pub isla_time: Duration,
    /// SMT queries during trace generation.
    pub isla_smt: u64,
    /// Verification (automation) time — the paper's Lithium column.
    pub verify_time: Duration,
    /// SMT queries during verification — the side-condition effort.
    pub verify_smt: u64,
    /// LIA queries during verification.
    pub lia_queries: u64,
    /// Obligations in the certificates.
    pub obligations: usize,
    /// Certificate re-check time — the paper's Qed column.
    pub cert_time: Duration,
    /// Trace-cache hits/misses while building this case.
    pub cache: CacheStats,
    /// The per-stage deterministic counter profile (`fig12 --profile`).
    pub profile: CaseProfile,
    /// Per-query solver attribution over the verification half (proof
    /// automation + certificate replay) — the `--hot-queries` input.
    /// Trace-generation queries are deliberately not attributed: cache
    /// hits replay *counters*, not per-query tables, and the attribution
    /// must stay byte-identical across cache states (DESIGN §9).
    pub queries: QueryTable,
}

impl CaseOutcome {
    /// One row of the regenerated Fig. 12 table.
    #[must_use]
    pub fn row(&self) -> String {
        format!(
            "{} {:>9.3} {:>9.3} {:>9.3}",
            self.stable_row(),
            self.isla_time.as_secs_f64(),
            self.verify_time.as_secs_f64(),
            self.cert_time.as_secs_f64(),
        )
    }

    /// The table header matching [`CaseOutcome::row`].
    #[must_use]
    pub fn header() -> String {
        format!(
            "{} {:>9} {:>9} {:>9}",
            Self::stable_header(),
            "Isla(s)",
            "Auto(s)",
            "Qed(s)"
        )
    }

    /// The deterministic part of the row: sizes and solver-effort counts
    /// only, no wall-clock columns. Byte-identical across runs, worker
    /// counts, and cache states — this is what the determinism tests and
    /// `fig12 --jobs` compare.
    #[must_use]
    pub fn stable_row(&self) -> String {
        format!(
            "{:<11} {:<4} {:>4} {:>6} {:>5} {:>6} {:>6} {:>6} {:>6}",
            self.name,
            self.isa,
            self.asm_instrs,
            self.itl_events,
            self.spec_atoms,
            self.proof_hints,
            self.isla_smt,
            self.verify_smt,
            self.obligations,
        )
    }

    /// The table header matching [`CaseOutcome::stable_row`].
    #[must_use]
    pub fn stable_header() -> String {
        format!(
            "{:<11} {:<4} {:>4} {:>6} {:>5} {:>6} {:>6} {:>6} {:>6}",
            "Test", "ISA", "asm", "ITL", "Spec", "Proof", "IslaQ", "SMT", "Oblig"
        )
    }
}

/// Builds the instruction map for a program under one Isla configuration
/// (sequential, uncached — the legacy entry point).
///
/// # Panics
///
/// Panics if trace generation fails (bundled case studies must trace).
#[must_use]
pub fn trace_program_map(
    cfg: &IslaConfig,
    program: &Program,
) -> (BTreeMap<u64, Arc<Trace>>, IslaStats) {
    let (map, stats, _) = trace_program_map_with(&CaseCtx::default(), cfg, program);
    (map, stats)
}

/// Builds the instruction map for a program, optionally through a shared
/// [`TraceCache`] and fanned out across `ctx.jobs` workers. Statistics
/// are aggregated in address order, and cache hits replay the original
/// run's statistics, so the returned [`IslaStats`] counters are identical
/// to a cold sequential build regardless of cache state or worker count
/// (wall-clock `time` excepted).
///
/// # Panics
///
/// Panics if trace generation fails (bundled case studies must trace).
#[must_use]
pub fn trace_program_map_with(
    ctx: &CaseCtx,
    cfg: &IslaConfig,
    program: &Program,
) -> (BTreeMap<u64, Arc<Trace>>, IslaStats, CacheStats) {
    let start = Instant::now();
    let traced = run_jobs_ok(ctx.jobs.max(1), program.instrs.len(), |i| {
        let (addr, op) = program.instrs[i];
        let r = ctx
            .trace(cfg, &Opcode::Concrete(op))
            .unwrap_or_else(|e| panic!("tracing {op:#010x} at {addr:#x}: {e}"));
        (addr, r)
    })
    .unwrap_or_else(|p| std::panic::panic_any(p.message));
    let mut map = BTreeMap::new();
    let mut stats = IslaStats::default();
    let mut cache = CacheStats::default();
    for (addr, (entry, hit)) in traced {
        stats.absorb(&entry.stats);
        if hit {
            cache.hits += 1;
        } else {
            cache.misses += 1;
        }
        map.insert(addr, entry.trace.clone());
    }
    stats.time = start.elapsed();
    (map, stats, cache)
}

/// How [`run_case`] verifies a case. The default is the sequential,
/// untraced, uncached run with no deadline; every field is optional.
#[derive(Clone)]
pub struct RunOpts {
    /// Collect a structured proof-search trace into every
    /// [`islaris_core::BlockReport`] (`fig12 --trace-proof`). Counters
    /// and outcome are identical to the untraced run.
    pub trace: bool,
    /// Shared solver [`QueryCache`]: the engine's side provers and the
    /// certificate replay answer repeated queries (across blocks, cases
    /// and threads) from it. Verdicts, certificates, and every profile
    /// counter except the cache-traffic rows themselves are identical to
    /// the uncached run — hits replay the original computation's effort
    /// deltas (DESIGN §10).
    pub qcache: Option<Arc<QueryCache>>,
    /// Intra-case parallelism: the engine's blocks and the per-block
    /// certificate replays run as independent jobs on up to this many
    /// workers, merged in block order, so outcome, certificates and
    /// every deterministic profile counter are byte-identical to `1`.
    pub jobs: usize,
    /// Checked between block jobs: once it lapses, the run stops with a
    /// [`DEADLINE_EXCEEDED`] failure (the daemon maps it to `504`).
    pub deadline: Option<Instant>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            trace: false,
            qcache: None,
            jobs: 1,
            deadline: None,
        }
    }
}

/// Verifies a case study and collects the Fig. 12 measurements.
///
/// # Errors
///
/// Returns a [`DEADLINE_EXCEEDED`] failure if `opts.deadline` lapsed
/// between jobs; never fails without a deadline.
///
/// # Panics
///
/// Panics if verification or certificate checking genuinely fails — the
/// bundled case studies are expected to verify (tests rely on this).
pub fn run_case(art: &CaseArtifacts, opts: &RunOpts) -> Result<(CaseOutcome, Report), VerifyError> {
    let RunOpts {
        trace,
        ref qcache,
        jobs,
        deadline,
    } = *opts;
    let mut verifier = Verifier::new(art.prog_spec.clone(), art.protocol.clone());
    verifier.trace = trace;
    verifier.qcache = qcache.clone();
    verifier.solver.sat = art.sat;
    verifier.jobs = jobs;
    verifier.deadline = deadline;
    let t0 = Instant::now();
    let report = match verifier.verify_all() {
        Ok(r) => r,
        Err(e) if e.message == DEADLINE_EXCEEDED => return Err(e),
        Err(e) => panic!("case `{}`: {e}", art.name),
    };
    let verify_time = t0.elapsed();

    let t1 = Instant::now();
    // Per-block certificate replays are independent; schedule them like
    // the engine blocks and merge counters in block order so profiles
    // stay byte-identical across worker counts.
    let replays = run_jobs(jobs, report.blocks.len(), |i| {
        let block = &report.blocks[i];
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(VerifyError {
                block: block.addr,
                message: DEADLINE_EXCEEDED.into(),
            });
        }
        let mut qt = block.stats.queries.clone();
        let mut ctx = CertCtx {
            table: Some(&mut qt),
            cache: qcache.as_deref(),
            ..CertCtx::default()
        };
        check_certificate_with(&block.cert, &mut ctx)
            .unwrap_or_else(|e| panic!("case `{}`: {e}", art.name));
        Ok((ctx.metrics, qt))
    });
    let mut cert_metrics = CertMetrics::default();
    let mut queries = QueryTable::default();
    for r in replays {
        match r {
            Ok(Ok((cm, qt))) => {
                cert_metrics.absorb(&cm);
                queries.absorb(&qt);
            }
            Ok(Err(e)) => return Err(e),
            Err(p) => std::panic::panic_any(p.message),
        }
    }
    let cert_time = t1.elapsed();

    let spec_atoms: usize = art
        .prog_spec
        .specs
        .defs()
        .iter()
        .map(|d| d.atoms.len())
        .sum();
    // "Proof" effort analogue: annotations (invariants and exit points)
    // plus pure hint atoms (no-wrap facts, bound facts) across the specs.
    let proof_hints = art.prog_spec.blocks.len()
        + art
            .prog_spec
            .specs
            .defs()
            .iter()
            .flat_map(|d| d.atoms.iter())
            .filter(|a| {
                matches!(
                    a,
                    islaris_core::Atom::Pure(_) | islaris_core::Atom::LenEq(_, _)
                )
            })
            .count();
    let mut engine = EngineMetrics::default();
    let mut engine_smt = islaris_obs::SolverMetrics::default();
    let mut session = SessionMetrics::default();
    let mut query_cache = CacheMetrics::default();
    for b in &report.blocks {
        engine.absorb(&EngineMetrics {
            events: b.stats.events,
            instructions: b.stats.instructions,
            smt_queries: b.stats.smt_queries,
            lia_queries: b.stats.lia_queries,
            obligations: b.stats.obligations,
            vacuous_branches: b.stats.vacuous_branches,
            blocks_parallel: 0,
        });
        engine_smt.absorb(&b.stats.solver);
        session.absorb(&b.stats.session);
        query_cache.absorb(&b.stats.qcache);
    }
    // Blocks scheduled as independent verification jobs: every block goes
    // through the intra-case scheduler (inline when jobs <= 1), so this
    // counts scheduled jobs, not workers, and stays deterministic.
    engine.blocks_parallel = report.blocks.len() as u64;
    // Total shared-cache traffic for this case: the engine's side provers
    // plus the certificate replay.
    query_cache.absorb(&cert_metrics.qcache);
    let profile = CaseProfile {
        sail: SailMetrics {
            steps: art.isla_stats.model_steps,
            calls: art.isla_stats.model_calls,
        },
        isla: IslaMetrics {
            runs: art.isla_stats.runs,
            branches_explored: art.isla_stats.branches_explored,
            branches_pruned: art.isla_stats.branches_pruned,
            smt_queries: art.isla_stats.smt_queries,
            events: art.isla_stats.events as u64,
        },
        isla_smt: art.isla_stats.solver,
        engine,
        engine_smt,
        session,
        cert: cert_metrics,
        cache: art.cache,
        qcache: query_cache,
    };
    let outcome = CaseOutcome {
        name: art.name,
        isa: art.isa,
        asm_instrs: art.program.len(),
        itl_events: art.prog_spec.instrs.values().map(|t| t.event_count()).sum(),
        spec_atoms,
        proof_hints,
        isla_time: art.isla_stats.time,
        isla_smt: art.isla_stats.smt_queries,
        verify_time,
        verify_smt: report.smt_queries(),
        lia_queries: report.blocks.iter().map(|b| b.stats.lia_queries).sum(),
        obligations: report.obligations(),
        cert_time,
        cache: art.cache,
        profile,
        queries,
    };
    Ok((outcome, report))
}
