//! Incremental SMT sessions and the shared, sound query-result cache.
//!
//! Two complementary mechanisms take repeated solver work out of the
//! verification half of the pipeline (DESIGN §10):
//!
//! * [`Session`] — one per engine block. It owns a single [`Blaster`]
//!   whose clause database is *retained* across queries: each fact is
//!   simplified once, Tseitin-encoded once, and thereafter referenced by
//!   its output literal. Queries run as MiniSat-style assumption solves
//!   ([`crate::sat::SatSolver::solve_with_assumptions`]), so clauses
//!   learned while answering one query keep pruning the search in the
//!   next. Facts are never asserted as unit clauses — only passed as
//!   assumptions — so the database stays valid for every later query,
//!   including queries issued after the engine forks a symbolic branch.
//! * [`QueryCache`] — one per pipeline run, shared across cases and
//!   worker threads. It memoises the verdicts of *from-scratch* solves
//!   (certificate replay, the engine's LIA side prover) keyed by the full
//!   rendered query text, bucketed under [`crate::solver::query_digest`].
//!   Because the key is the text, a digest collision can only cost a
//!   cache miss, never a wrong answer; because from-scratch solving is
//!   deterministic, a hit can replay the original run's effort counters
//!   and keep attribution tables byte-identical with and without the
//!   cache.
//!
//! Soundness of retention: the clause database holds definitional
//! (Tseitin) clauses, which are valid for any assignment of the encoded
//! expressions, plus learned clauses, which are resolvents of database
//! clauses alone (assumption decisions are never resolved on). Nothing in
//! the database depends on which facts a particular query assumes.
//!
//! Proof-checking fallback: an assumption solve cannot produce an RUP
//! refutation of the formula — its final conflict depends on the
//! assumptions. Under [`SolverConfig::check_proofs`] the session therefore
//! re-proves `Unsat` answers on a fresh proof-logging solver (counted in
//! [`SessionMetrics::fallback_solves`]), keeping the paranoid
//! configuration's checked-evidence discipline intact.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use islaris_obs::{QueryStats, SessionMetrics, SolverMetrics};

use crate::cnf::{BlastError, Blaster};
use crate::eval::eval_bool;
use crate::expr::{Expr, Sort, Var};
use crate::sat::{AssumptionOutcome, Lit, SatOutcome};
use crate::simplify::simplify;
use crate::solver::{
    checked_unsat, metrics_delta, query_delta, render_query, solve, Model, QueryCtx, SmtResult,
    SolverConfig,
};

// ---------------------------------------------------------------------------
// Incremental sessions
// ---------------------------------------------------------------------------

/// An incremental solving session: one retained [`Blaster`] answering a
/// stream of `check_sat`/`entails` queries whose fact sets overlap.
///
/// Answers follow [`crate::solver::check_sat`]'s contract exactly
/// — same verdicts, same `Unknown` messages, same decision order over the
/// assumption list — so switching a caller from per-query solving to a
/// session changes effort counters but never certificates.
pub struct Session {
    cfg: SolverConfig,
    blaster: Blaster,
    /// Raw expression → simplified form (each fact simplified once).
    simplified: HashMap<Expr, Expr>,
    /// Simplified expression → assumption literal (each fact encoded
    /// once). Encoding errors are *not* memoised: an `UnknownVar` failure
    /// can become encodable once the engine declares the variable's sort.
    lits: HashMap<Expr, Lit>,
    metrics: SessionMetrics,
}

impl Session {
    /// Creates an empty session. The backing solver runs with RUP proof
    /// logging off; proof-checking configurations fall back to fresh
    /// logging solves per `Unsat` answer instead.
    #[must_use]
    pub fn new(cfg: SolverConfig) -> Self {
        let mut blaster = Blaster::with_config(cfg.sat);
        blaster.set_proof_logging(false);
        Session {
            cfg,
            blaster,
            simplified: HashMap::new(),
            lits: HashMap::new(),
            metrics: SessionMetrics::default(),
        }
    }

    /// The configuration queries run under.
    #[must_use]
    pub fn config(&self) -> &SolverConfig {
        &self.cfg
    }

    /// Snapshot of the per-session counters.
    #[must_use]
    pub fn metrics(&self) -> SessionMetrics {
        self.metrics
    }

    /// Checks satisfiability of the conjunction of `assumptions` against
    /// the retained database. Answer-compatible with
    /// [`crate::solver::check_sat`], and records into `ctx` the same way
    /// (digest only when a table is attached).
    ///
    /// Session queries are never cached: an assumption solve's effort
    /// depends on everything the session has retained, so replaying it
    /// would break the byte-identical counters.
    ///
    /// # Panics
    ///
    /// If `ctx.cache` is set.
    pub fn check_sat(
        &mut self,
        assumptions: &[Expr],
        sorts: &dyn Fn(Var) -> Option<Sort>,
        ctx: &mut QueryCtx,
    ) -> SmtResult {
        self.query(assumptions.iter(), sorts, ctx)
    }

    /// Does `facts ⟹ goal` hold? Decided by refutation against the
    /// retained database; answer-compatible with
    /// [`crate::solver::entails`]. The digest is computed over the
    /// refutation query (`facts ∧ ¬goal`), so hot-query join keys are
    /// stable across the session switch.
    ///
    /// # Panics
    ///
    /// If `ctx.cache` is set, as [`Session::check_sat`].
    pub fn entails(
        &mut self,
        facts: &[Expr],
        goal: &Expr,
        sorts: &dyn Fn(Var) -> Option<Sort>,
        ctx: &mut QueryCtx,
    ) -> bool {
        let neg_goal = Expr::not(goal.clone());
        let q = facts.iter().chain(std::iter::once(&neg_goal));
        self.query(q, sorts, ctx).is_unsat()
    }

    /// Borrows the query's expressions (never clones the facts), digests
    /// them only when a table is attached, and answers via
    /// [`Session::check_exprs`].
    fn query<'q>(
        &mut self,
        q: impl Iterator<Item = &'q Expr> + Clone,
        sorts: &dyn Fn(Var) -> Option<Sort>,
        ctx: &mut QueryCtx,
    ) -> SmtResult {
        assert!(ctx.cache.is_none(), "session queries are never cached");
        ctx.digest = ctx.table.is_some().then(|| render_query(q.clone()).1);
        let before = ctx.metrics;
        let q: Vec<&Expr> = q.collect();
        let result = self.check_exprs(&q, sorts, &mut ctx.metrics);
        if let (Some(table), Some(digest)) = (ctx.table.as_deref_mut(), ctx.digest) {
            table.record(digest, query_delta(&metrics_delta(&ctx.metrics, &before)));
        }
        result
    }

    /// The shared query path. Mirrors the decision order of
    /// [`crate::solver::check_sat`] step for step: simplify each
    /// assumption in order (a literal `false` short-circuits to `Unsat`),
    /// answer `Sat` on an empty residue, report the first encoding error
    /// as `Unknown`, then solve — here with assumptions against the
    /// retained database instead of a fresh blaster.
    fn check_exprs(
        &mut self,
        q: &[&Expr],
        sorts: &dyn Fn(Var) -> Option<Sort>,
        m: &mut SolverMetrics,
    ) -> SmtResult {
        m.queries += 1;
        let mut active = Vec::with_capacity(q.len());
        for &a in q {
            let s = self.simplify_cached(a);
            match s.as_bool() {
                Some(true) => continue,
                Some(false) => {
                    m.unsat += 1;
                    return SmtResult::Unsat;
                }
                None => active.push(s),
            }
        }
        if active.is_empty() {
            m.sat += 1;
            return SmtResult::Sat(Model::default());
        }

        let vars_before = u64::from(self.blaster.sat_num_vars());
        let clauses_before = self.blaster.sat_original_clauses().len() as u64;
        // Gate-level folding happens while encoding, the other counters
        // while solving; snapshot all four here and delta after the solve.
        let folded_before = self.blaster.folded_count();
        let restarts_before = self.blaster.sat_restarts();
        let reduced_before = self.blaster.sat_reduced();
        let minimized_before = self.blaster.sat_minimized();
        let mut assumptions = Vec::with_capacity(active.len());
        for s in &active {
            match self.lit_cached(s, sorts) {
                Ok(l) => assumptions.push(l),
                Err(BlastError::Unsupported(msg)) => {
                    m.unknown += 1;
                    return SmtResult::Unknown(msg);
                }
                Err(e) => {
                    m.unknown += 1;
                    return SmtResult::Unknown(e.to_string());
                }
            }
        }
        m.cnf_vars += u64::from(self.blaster.sat_num_vars()) - vars_before;
        m.cnf_clauses += self.blaster.sat_original_clauses().len() as u64 - clauses_before;

        let props_before = self.blaster.sat_propagations();
        let decs_before = self.blaster.sat_decisions();
        let confs_before = self.blaster.sat_conflicts();
        self.metrics.assumption_solves += 1;
        let outcome = self
            .blaster
            .solve_with_assumptions(&assumptions, self.cfg.max_conflicts);
        m.propagations += self.blaster.sat_propagations() - props_before;
        m.decisions += self.blaster.sat_decisions() - decs_before;
        m.conflicts += self.blaster.sat_conflicts() - confs_before;
        m.restarts += self.blaster.sat_restarts() - restarts_before;
        m.reduced += self.blaster.sat_reduced() - reduced_before;
        m.minimized += self.blaster.sat_minimized() - minimized_before;
        m.folded += self.blaster.folded_count() - folded_before;
        self.metrics.clauses_retained = self.blaster.sat_clause_count() as u64;

        match outcome {
            None => {
                m.unknown += 1;
                SmtResult::Unknown(format!(
                    "conflict budget {} exhausted",
                    self.cfg.max_conflicts
                ))
            }
            Some(AssumptionOutcome::Sat(bits)) => {
                let mut model = Model::default();
                for v in self.blaster.encoded_vars().collect::<Vec<_>>() {
                    if let Some(val) = self.blaster.extract_value(v, &bits, sorts) {
                        model.insert(v, val);
                    }
                }
                m.model_verifies += 1;
                let env = |v: Var| sorts(v).map(|s| model.get_or_default(v, s));
                for a in &active {
                    match eval_bool(a, &env) {
                        Ok(true) => {}
                        other => {
                            debug_assert!(false, "model fails to satisfy {a}: {other:?}");
                            m.unknown += 1;
                            return SmtResult::Unknown(format!(
                                "internal error: model verification failed on {a}"
                            ));
                        }
                    }
                }
                m.sat += 1;
                SmtResult::Sat(model)
            }
            Some(AssumptionOutcome::Unsat(_core)) => {
                if self.cfg.check_proofs {
                    self.metrics.fallback_solves += 1;
                    return self.scratch_unsat_check(&active, sorts, m);
                }
                m.unsat += 1;
                SmtResult::Unsat
            }
        }
    }

    /// Proof-checking fallback: re-proves the (already simplified) query
    /// on a fresh proof-logging solver so the RUP refutation can be
    /// replayed, exactly as the from-scratch path would. Does not count a
    /// new query — it is the second half of the one being answered.
    fn scratch_unsat_check(
        &mut self,
        active: &[Expr],
        sorts: &dyn Fn(Var) -> Option<Sort>,
        m: &mut SolverMetrics,
    ) -> SmtResult {
        let mut blaster = Blaster::with_config(self.cfg.sat);
        for a in active {
            match blaster.assert_expr(a, sorts) {
                Ok(()) => {}
                Err(BlastError::Unsupported(msg)) => {
                    m.unknown += 1;
                    return SmtResult::Unknown(msg);
                }
                Err(e) => {
                    m.unknown += 1;
                    return SmtResult::Unknown(e.to_string());
                }
            }
        }
        m.cnf_vars += u64::from(blaster.sat_num_vars());
        m.cnf_clauses += blaster.sat_original_clauses().len() as u64;
        let outcome = blaster.solve_limited(self.cfg.max_conflicts);
        m.propagations += blaster.sat_propagations();
        m.decisions += blaster.sat_decisions();
        m.conflicts += blaster.sat_conflicts();
        m.restarts += blaster.sat_restarts();
        m.reduced += blaster.sat_reduced();
        m.minimized += blaster.sat_minimized();
        m.folded += blaster.folded_count();
        match outcome {
            None => {
                m.unknown += 1;
                SmtResult::Unknown(format!(
                    "conflict budget {} exhausted",
                    self.cfg.max_conflicts
                ))
            }
            Some(SatOutcome::Sat(bits)) => {
                // The assumption solve answered Unsat, so this indicates a
                // solver bug; follow the scratch path's discipline and
                // verify rather than trust.
                let mut model = Model::default();
                for v in blaster.encoded_vars().collect::<Vec<_>>() {
                    if let Some(val) = blaster.extract_value(v, &bits, sorts) {
                        model.insert(v, val);
                    }
                }
                m.model_verifies += 1;
                let env = |v: Var| sorts(v).map(|s| model.get_or_default(v, s));
                for a in active {
                    match eval_bool(a, &env) {
                        Ok(true) => {}
                        other => {
                            debug_assert!(false, "model fails to satisfy {a}: {other:?}");
                            m.unknown += 1;
                            return SmtResult::Unknown(format!(
                                "internal error: model verification failed on {a}"
                            ));
                        }
                    }
                }
                m.sat += 1;
                SmtResult::Sat(model)
            }
            Some(SatOutcome::Unsat(proof)) => checked_unsat(&blaster, &proof, m),
        }
    }

    fn simplify_cached(&mut self, e: &Expr) -> Expr {
        if let Some(s) = self.simplified.get(e) {
            return s.clone();
        }
        let s = simplify(e);
        self.simplified.insert(e.clone(), s.clone());
        s
    }

    fn lit_cached(
        &mut self,
        s: &Expr,
        sorts: &dyn Fn(Var) -> Option<Sort>,
    ) -> Result<Lit, BlastError> {
        if let Some(&l) = self.lits.get(s) {
            return Ok(l);
        }
        let l = self.blaster.literal_for(s, sorts)?;
        self.lits.insert(s.clone(), l);
        self.metrics.facts_encoded += 1;
        Ok(l)
    }
}

// ---------------------------------------------------------------------------
// Shared query-result cache
// ---------------------------------------------------------------------------

/// The full identity of a cached query: configuration knobs that affect
/// the verdict, plus the complete rendered query text. The digest only
/// buckets; equality is decided here, so digest collisions degrade to
/// misses.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct CacheKey {
    pub(crate) check_proofs: bool,
    pub(crate) max_conflicts: u64,
    pub(crate) sat: crate::sat::SatConfig,
    pub(crate) text: String,
}

impl CacheKey {
    pub(crate) fn new(cfg: &SolverConfig, text: String) -> Self {
        CacheKey {
            check_proofs: cfg.check_proofs,
            max_conflicts: cfg.max_conflicts,
            sat: cfg.sat,
            text,
        }
    }
}

/// A memoised verdict plus the effort the original computation recorded.
/// Hits replay the deltas, so metric and attribution tables stay
/// byte-identical with the cache on or off (from-scratch solving is
/// deterministic in the query text).
#[derive(Clone)]
pub(crate) struct CacheEntry {
    pub(crate) result: SmtResult,
    pub(crate) solver_delta: SolverMetrics,
    pub(crate) query_delta: QueryStats,
}

/// A thread-safe, sound memo table for from-scratch solver queries,
/// shared across cases and worker threads.
///
/// `Unsat`/`Unknown` verdicts are replayed as-is (the key pins the
/// configuration, including `check_proofs`, so a cached `Unsat` was
/// proof-checked iff the caller would have checked it). `Sat` models are
/// re-verified by evaluation against the incoming query before being
/// trusted; a model that fails verification is discarded and the query
/// recomputed.
///
/// A cached `Unsat` carries no evidence, so whoever can write the cache
/// decides it: certificate replay consults this cache, and a fabricated
/// `Unsat` entry in a persistent store would be accepted as a proof. The
/// store directory is therefore inside the trust base until replay stops
/// trusting cached verdicts.
#[derive(Default)]
pub struct QueryCache {
    /// digest → entries whose text hashes to that digest.
    buckets: Mutex<HashMap<u64, Vec<(CacheKey, CacheEntry)>>>,
    /// Optional disk backing: consulted on memory misses, written on
    /// every memoisation. Disk entries get the exact same trust
    /// treatment as memory entries (`Sat` models re-verified per hit,
    /// `Unsat` trusted).
    store: Option<crate::store::QueryStore>,
}

impl QueryCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        QueryCache::default()
    }

    /// An empty in-memory cache backed by the persistent store at `dir`,
    /// so restarts are warm and N processes can share one directory.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the store directory.
    pub fn persistent(dir: &std::path::Path) -> std::io::Result<Self> {
        Ok(QueryCache {
            store: Some(crate::store::QueryStore::open(dir)?),
            ..QueryCache::default()
        })
    }

    /// Disk-side counters of the backing store, if any.
    #[must_use]
    pub fn store_metrics(&self) -> Option<islaris_obs::StoreMetrics> {
        self.store.as_ref().map(crate::store::QueryStore::metrics)
    }

    /// Distinct queries currently memoised.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }

    /// True iff nothing is memoised yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached half of [`crate::solver::check_sat`]: answers from the
    /// memo table when the full query text (and configuration) matches,
    /// computing from scratch and memoising otherwise. Cache traffic is
    /// counted into `ctx.cache_metrics`; hits replay the original run's
    /// metric and attribution deltas (marked with `hits=1` in the query
    /// table).
    pub(crate) fn answer(
        &self,
        assumptions: &[Expr],
        sorts: &dyn Fn(Var) -> Option<Sort>,
        cfg: &SolverConfig,
        text: String,
        digest: u64,
        ctx: &mut QueryCtx,
    ) -> SmtResult {
        if let Some(entry) = self.lookup(digest, cfg, &text) {
            if self.hit_is_trusted(&entry, assumptions, sorts) {
                ctx.cache_metrics.hits += 1;
                ctx.metrics.absorb(&entry.solver_delta);
                if let Some(table) = ctx.table.as_deref_mut() {
                    let mut qs = entry.query_delta;
                    qs.hits = 1;
                    table.record(digest, qs);
                }
                return entry.result;
            }
        }
        ctx.cache_metrics.misses += 1;
        let before = ctx.metrics;
        let result = solve(assumptions, sorts, cfg, &mut ctx.metrics);
        let solver_delta = metrics_delta(&ctx.metrics, &before);
        let qs = query_delta(&solver_delta);
        if let Some(table) = ctx.table.as_deref_mut() {
            table.record(digest, qs);
        }
        self.insert(
            digest,
            CacheKey::new(cfg, text),
            CacheEntry {
                result: result.clone(),
                solver_delta,
                query_delta: qs,
            },
        );
        result
    }

    /// A cached `Sat` model must still satisfy the incoming query;
    /// anything else (including evaluation errors) rejects the hit.
    /// `Unsat`/`Unknown` verdicts carry no model to distrust.
    fn hit_is_trusted(
        &self,
        entry: &CacheEntry,
        assumptions: &[Expr],
        sorts: &dyn Fn(Var) -> Option<Sort>,
    ) -> bool {
        match &entry.result {
            SmtResult::Sat(model) => {
                let env = |v: Var| sorts(v).map(|s| model.get_or_default(v, s));
                assumptions
                    .iter()
                    .all(|a| matches!(eval_bool(a, &env), Ok(true)))
            }
            SmtResult::Unsat | SmtResult::Unknown(_) => true,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Vec<(CacheKey, CacheEntry)>>> {
        // A panic while holding the lock leaves a fully-written or
        // untouched map (inserts build their value before locking), so a
        // poisoned mutex is safe to keep using.
        self.buckets.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lookup(&self, digest: u64, cfg: &SolverConfig, text: &str) -> Option<CacheEntry> {
        let in_memory = {
            let buckets = self.lock();
            buckets.get(&digest).and_then(|bucket| {
                bucket
                    .iter()
                    .find(|(k, _)| {
                        k.check_proofs == cfg.check_proofs
                            && k.max_conflicts == cfg.max_conflicts
                            && k.sat == cfg.sat
                            && k.text == text
                    })
                    .map(|(_, e)| e.clone())
            })
        };
        if in_memory.is_some() {
            return in_memory;
        }
        // Memory miss: consult the disk store (verify-on-load already
        // applied there), promote any hit into memory so later lookups
        // stay off the disk. The caller still re-verifies Sat models.
        let store = self.store.as_ref()?;
        let key = CacheKey::new(cfg, text.to_string());
        let entry = store.load(&key)?;
        let mut buckets = self.lock();
        let bucket = buckets.entry(digest).or_default();
        if !bucket.iter().any(|(k, _)| *k == key) {
            bucket.push((key, entry.clone()));
        }
        Some(entry)
    }

    /// Upsert: replacing an existing entry keeps the newest computation,
    /// which is what evicts a model that failed re-verification.
    fn insert(&self, digest: u64, key: CacheKey, entry: CacheEntry) {
        if let Some(store) = &self.store {
            store.save(&key, &entry);
        }
        let mut buckets = self.lock();
        let bucket = buckets.entry(digest).or_default();
        if let Some(slot) = bucket.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = entry;
        } else {
            bucket.push((key, entry));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BvCmp, Value};
    use crate::solver::{check_sat, entails, query_digest};
    use islaris_obs::{CacheMetrics, QueryTable};

    fn sorts64(v: Var) -> Option<Sort> {
        (v.0 < 16).then_some(Sort::BitVec(64))
    }

    fn cfg() -> SolverConfig {
        SolverConfig::default()
    }

    /// A context recording into `t` through `cache`.
    fn cached<'a>(cache: &'a QueryCache, t: &'a mut QueryTable) -> QueryCtx<'a> {
        QueryCtx {
            table: Some(t),
            cache: Some(cache),
            ..QueryCtx::default()
        }
    }

    /// One logged, cached query against a fresh table; returns the
    /// verdict, the digest, and the context's counters.
    fn cached_check(
        cache: &QueryCache,
        q: &[Expr],
        cfg: &SolverConfig,
    ) -> (SmtResult, u64, SolverMetrics, CacheMetrics) {
        let mut t = QueryTable::default();
        let mut ctx = cached(cache, &mut t);
        let r = check_sat(q, &sorts64, cfg, &mut ctx);
        let digest = ctx.digest.expect("a cache is attached");
        (r, digest, ctx.metrics, ctx.cache_metrics)
    }

    #[test]
    fn session_entails_matches_scratch_over_a_growing_fact_set() {
        let (x, y, z) = (Expr::var(Var(0)), Expr::var(Var(1)), Expr::var(Var(2)));
        let mut facts: Vec<Expr> = Vec::new();
        let mut session = Session::new(cfg());
        let goals = [
            Expr::cmp(BvCmp::Ult, x.clone(), z.clone()),
            Expr::cmp(BvCmp::Ult, z.clone(), x.clone()),
            Expr::eq(x.clone(), y.clone()),
        ];
        let pushes = [
            Expr::cmp(BvCmp::Ult, x.clone(), y.clone()),
            Expr::cmp(BvCmp::Ult, y.clone(), z.clone()),
            Expr::bool(true),
        ];
        for fact in pushes {
            facts.push(fact);
            for goal in &goals {
                let mut ms = QueryCtx::default();
                let mut mf = QueryCtx::default();
                let inc = session.entails(&facts, goal, &sorts64, &mut ms);
                let scratch = entails(&facts, goal, &sorts64, &cfg(), &mut mf);
                assert_eq!(inc, scratch, "facts={facts:?} goal={goal}");
                assert_eq!(ms.metrics.queries, 1);
            }
        }
        let m = session.metrics();
        assert!(m.assumption_solves > 0);
        assert!(m.facts_encoded > 0);
        assert!(m.clauses_retained > 0);
        assert_eq!(m.fallback_solves, 0, "non-paranoid config never falls back");
    }

    #[test]
    fn session_simplifies_and_encodes_each_fact_once() {
        let x = Expr::var(Var(0));
        // `x + 0 = x` simplifies away; the comparison fact stays.
        let trivial = Expr::eq(Expr::add(x.clone(), Expr::bv(64, 0)), x.clone());
        let fact = Expr::cmp(BvCmp::Ult, x.clone(), Expr::bv(64, 100));
        let goal = Expr::cmp(BvCmp::Ult, x.clone(), Expr::bv(64, 200));
        let facts = vec![trivial, fact];
        let mut session = Session::new(cfg());
        let mut m = QueryCtx::default();
        assert!(session.entails(&facts, &goal, &sorts64, &mut m));
        let simplified_once = session.simplified.len();
        let encoded_once = session.metrics().facts_encoded;
        let clauses_once = m.metrics.cnf_clauses;
        assert!(encoded_once > 0);
        // Re-issuing the same query touches no new simplifier or encoder
        // work — and still answers the same.
        let mut m2 = QueryCtx::default();
        assert!(session.entails(&facts, &goal, &sorts64, &mut m2));
        assert_eq!(session.simplified.len(), simplified_once);
        assert_eq!(session.metrics().facts_encoded, encoded_once);
        assert_eq!(
            m2.metrics.cnf_clauses, 0,
            "no new clauses on a repeated query"
        );
        assert!(clauses_once > 0);
    }

    #[test]
    fn session_check_sat_returns_verified_models() {
        let x = Expr::var(Var(0));
        let q = [Expr::eq(
            Expr::add(x.clone(), Expr::bv(64, 2)),
            Expr::bv(64, 44),
        )];
        let mut session = Session::new(cfg());
        let mut m = QueryCtx::default();
        match session.check_sat(&q, &sorts64, &mut m) {
            SmtResult::Sat(model) => {
                assert_eq!(
                    model.get(Var(0)),
                    Some(Value::Bits(islaris_bv::Bv::new(64, 42)))
                );
            }
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(m.metrics.model_verifies, 1);
        // A contradictory follow-up over the same session is unsat.
        let q2 = [q[0].clone(), Expr::eq(x.clone(), Expr::bv(64, 7))];
        assert!(session.check_sat(&q2, &sorts64, &mut m).is_unsat());
        // And the original query still answers sat afterwards.
        assert!(session.check_sat(&q, &sorts64, &mut m).is_sat());
    }

    #[test]
    fn session_digests_match_the_scratch_path() {
        let x = Expr::var(Var(0));
        let facts = [Expr::cmp(BvCmp::Ult, x.clone(), Expr::bv(64, 5))];
        let goal = Expr::cmp(BvCmp::Ult, x.clone(), Expr::bv(64, 9));
        let mut session = Session::new(cfg());
        let mut t = QueryTable::default();
        let mut ctx = QueryCtx {
            table: Some(&mut t),
            ..QueryCtx::default()
        };
        let holds = session.entails(&facts, &goal, &sorts64, &mut ctx);
        let digest = ctx.digest.expect("a table is attached");
        assert!(holds);
        let mut refutation = facts.to_vec();
        refutation.push(Expr::not(goal));
        assert_eq!(digest, query_digest(&refutation));
        assert_eq!(t.entries[&digest].count, 1);
        assert_eq!(t.entries[&digest].hits, 0);
    }

    #[test]
    fn paranoid_session_falls_back_to_checked_scratch_solves() {
        let x = Expr::var(Var(0));
        let facts = [Expr::cmp(BvCmp::Ult, x.clone(), Expr::bv(64, 5))];
        let goal = Expr::cmp(BvCmp::Ult, x.clone(), Expr::bv(64, 9));
        let mut session = Session::new(SolverConfig::paranoid());
        let mut m = QueryCtx::default();
        assert!(session.entails(&facts, &goal, &sorts64, &mut m));
        assert_eq!(session.metrics().fallback_solves, 1);
        assert_eq!(m.metrics.queries, 1, "the fallback is not a second query");
        // A satisfiable query needs no fallback even when paranoid.
        let sat_q = [Expr::eq(x.clone(), Expr::bv(64, 3))];
        assert!(session.check_sat(&sat_q, &sorts64, &mut m).is_sat());
        assert_eq!(session.metrics().fallback_solves, 1);
    }

    #[test]
    fn session_unsupported_ops_report_the_same_unknown() {
        let x = Expr::var(Var(0));
        let q = [Expr::eq(
            Expr::binop(crate::expr::BvBinop::Udiv, x.clone(), x.clone()),
            Expr::bv(64, 1),
        )];
        let mut session = Session::new(cfg());
        let inc = session.check_sat(&q, &sorts64, &mut QueryCtx::default());
        let scratch = check_sat(&q, &sorts64, &cfg(), &mut QueryCtx::default());
        match (inc, scratch) {
            (SmtResult::Unknown(a), SmtResult::Unknown(b)) => assert_eq!(a, b),
            other => panic!("expected matching unknowns, got {other:?}"),
        }
    }

    #[test]
    fn cache_hits_replay_verdict_and_effort() {
        let cache = QueryCache::new();
        let x = Expr::var(Var(0));
        let facts = [Expr::cmp(BvCmp::Ult, x.clone(), Expr::bv(64, 5))];
        let goal = Expr::cmp(BvCmp::Ult, x.clone(), Expr::bv(64, 9));
        let mut t1 = QueryTable::default();
        let mut c1 = cached(&cache, &mut t1);
        let h1 = entails(&facts, &goal, &sorts64, &cfg(), &mut c1);
        let (d1, m1, cm1) = (c1.digest.unwrap(), c1.metrics, c1.cache_metrics);
        assert!(h1);
        assert_eq!((cm1.hits, cm1.misses), (0, 1));
        assert_eq!(cache.len(), 1);
        let mut t2 = QueryTable::default();
        let mut c2 = cached(&cache, &mut t2);
        let h2 = entails(&facts, &goal, &sorts64, &cfg(), &mut c2);
        let (d2, m2, cm2) = (c2.digest.unwrap(), c2.metrics, c2.cache_metrics);
        assert!(h2);
        assert_eq!(d1, d2);
        assert_eq!((cm2.hits, cm2.misses), (1, 0));
        // The hit replays the original effort delta exactly; only the
        // `hits` marker differs.
        assert_eq!(m1, m2);
        assert_eq!(t1.entries[&d1].effort(), t2.entries[&d2].effort());
        assert_eq!(t1.entries[&d1].hits, 0);
        assert_eq!(t2.entries[&d2].hits, 1);
    }

    #[test]
    fn cache_distinguishes_configurations() {
        let cache = QueryCache::new();
        let q = [Expr::bool(false)];
        let (_, _, _, cm1) = cached_check(&cache, &q, &cfg());
        let (_, _, _, cm2) = cached_check(&cache, &q, &SolverConfig::paranoid());
        assert_eq!(
            (cm1.hits + cm2.hits, cm1.misses + cm2.misses),
            (0, 2),
            "different configurations never share entries"
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn persistent_query_cache_is_warm_after_a_restart() {
        let dir = std::env::temp_dir().join(format!("islaris-qcache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let x = Expr::var(Var(0));
        let q = [Expr::eq(x.clone(), Expr::bv(64, 42))];

        // Cold process: miss, compute, persist.
        let cold = QueryCache::persistent(&dir).unwrap();
        let (r1, d1, m1, cm1) = cached_check(&cold, &q, &cfg());
        assert!(r1.is_sat());
        assert_eq!((cm1.hits, cm1.misses), (0, 1));

        // "Restarted" process: same store, empty memory. The disk hit
        // replays the verdict (model re-verified) and the effort deltas.
        let warm = QueryCache::persistent(&dir).unwrap();
        let (r2, d2, m2, cm2) = cached_check(&warm, &q, &cfg());
        assert_eq!(d1, d2);
        assert_eq!(r1, r2, "disk hit replays the exact verdict and model");
        assert_eq!((cm2.hits, cm2.misses), (1, 0), "a warm restart hits");
        assert_eq!(m1, m2, "effort deltas replay across the restart");
        let sm = warm.store_metrics().unwrap();
        assert_eq!((sm.disk_hits, sm.evictions), (1, 0));

        // Second lookup stays in memory.
        let _ = cached_check(&warm, &q, &cfg());
        assert_eq!(warm.store_metrics().unwrap().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_persisted_query_recomputes_and_heals() {
        let dir = std::env::temp_dir().join(format!("islaris-qcache-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let q = [Expr::bool(false)];
        let cold = QueryCache::persistent(&dir).unwrap();
        let (r, _, _, _) = cached_check(&cold, &q, &cfg());
        assert!(r.is_unsat());

        // Bit-flip the single on-disk entry, then restart.
        let entry_path = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.path().extension().is_some_and(|x| x == "query"))
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&entry_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&entry_path, &bytes).unwrap();

        let warm = QueryCache::persistent(&dir).unwrap();
        let (r2, _, _, cm2) = cached_check(&warm, &q, &cfg());
        assert!(r2.is_unsat(), "recompute restores the true verdict");
        assert_eq!((cm2.hits, cm2.misses), (0, 1), "corruption is a sound miss");
        let sm = warm.store_metrics().unwrap();
        assert_eq!(sm.evictions, 1, "the corrupt file was evicted");
        // The recompute re-persisted a good entry: a fresh restart hits.
        let healed = QueryCache::persistent(&dir).unwrap();
        let (_, _, _, cm3) = cached_check(&healed, &q, &cfg());
        assert_eq!((cm3.hits, cm3.misses), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forced_digest_collision_is_a_miss_not_a_wrong_answer() {
        let cache = QueryCache::new();
        let x = Expr::var(Var(0));
        // Memoise an UNSAT verdict, then plant it under the digest of a
        // *different* (satisfiable) query, simulating a digest collision.
        let unsat_q = [Expr::bool(false)];
        let (r, _, _, cm1) = cached_check(&cache, &unsat_q, &cfg());
        assert!(r.is_unsat());
        let sat_q = [Expr::eq(x.clone(), Expr::bv(64, 1))];
        let (unsat_text, _) = render_query(unsat_q.iter());
        let (_, sat_digest) = render_query(sat_q.iter());
        // Move the existing entry into the colliding bucket.
        let entry = {
            let buckets = cache.lock();
            buckets.values().next().unwrap()[0].clone()
        };
        assert_eq!(entry.0.text, unsat_text);
        cache.insert(sat_digest, entry.0, entry.1);
        // Same digest bucket, different text: the lookup must miss and
        // the query must be recomputed to its true verdict.
        let (r2, d2, _, cm2) = cached_check(&cache, &sat_q, &cfg());
        assert_eq!(d2, sat_digest);
        assert!(r2.is_sat(), "collision must degrade to a miss, not lie");
        assert_eq!(cm1.hits + cm2.hits, 0);
    }

    #[test]
    fn corrupt_cached_sat_model_is_rejected_and_recomputed() {
        let cache = QueryCache::new();
        let x = Expr::var(Var(0));
        let q = [Expr::eq(x.clone(), Expr::bv(64, 42))];
        let (text, digest) = render_query(q.iter());
        // Plant a Sat entry whose model violates the query: textually
        // equal key, wrong model (as if the original computation had been
        // corrupted).
        let mut bad_model = Model::default();
        bad_model.insert(Var(0), Value::Bits(islaris_bv::Bv::new(64, 7)));
        cache.insert(
            digest,
            CacheKey::new(&cfg(), text),
            CacheEntry {
                result: SmtResult::Sat(bad_model),
                solver_delta: SolverMetrics::default(),
                query_delta: QueryStats::default(),
            },
        );
        let (r, _, _, cm) = cached_check(&cache, &q, &cfg());
        match r {
            SmtResult::Sat(model) => {
                assert_eq!(
                    model.get(Var(0)),
                    Some(Value::Bits(islaris_bv::Bv::new(64, 42))),
                    "the corrupt model must be replaced by a verified one"
                );
            }
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(
            (cm.hits, cm.misses),
            (0, 1),
            "rejected hit counts as a miss"
        );
        // The recomputation evicted the corrupt entry: the next lookup is
        // a genuine, verified hit.
        let (r2, _, _, cm2) = cached_check(&cache, &q, &cfg());
        assert!(r2.is_sat());
        assert_eq!(cm.hits + cm2.hits, 1);
    }
}
