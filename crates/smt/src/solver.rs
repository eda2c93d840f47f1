//! The bitvector solver facade: the role Z3 plays for Isla.
//!
//! Queries are quantifier-free bitvector/boolean constraint sets. The
//! pipeline is: simplify → bit-blast (Tseitin) → CDCL SAT. Positive answers
//! carry a [`Model`] that is re-checked by evaluation; negative answers can
//! carry an RUP proof checked by [`crate::sat::check_rup_proof`] when
//! [`SolverConfig::check_proofs`] is set.

use std::collections::BTreeMap;

use islaris_obs::{fnv1a, CacheMetrics, QueryStats, QueryTable, SolverMetrics};

use crate::cnf::{BlastError, Blaster};
use crate::eval::eval_bool;
use crate::expr::{Expr, Sort, Value, Var};
use crate::sat::{check_rup_proof, trim_proof, RupProof, SatOutcome};
use crate::session::QueryCache;
use crate::simplify::{propagate_constants, simplify};

/// Configuration for a solver query.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Conflict budget before answering [`SmtResult::Unknown`].
    pub max_conflicts: u64,
    /// Re-check `Unsat` answers by replaying the RUP proof (slower;
    /// enabled by [`SolverConfig::paranoid`] and in tests).
    pub check_proofs: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_conflicts: 2_000_000,
            check_proofs: false,
        }
    }
}

impl SolverConfig {
    /// The default configuration.
    #[must_use]
    pub fn new() -> Self {
        SolverConfig::default()
    }

    /// A configuration that replays RUP proofs for every `Unsat` answer.
    #[must_use]
    pub fn paranoid() -> Self {
        SolverConfig {
            check_proofs: true,
            ..SolverConfig::default()
        }
    }
}

/// A satisfying assignment for the query's variables.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Model {
    values: BTreeMap<Var, Value>,
}

impl Model {
    /// Looks up a variable's value.
    #[must_use]
    pub fn get(&self, v: Var) -> Option<Value> {
        self.values.get(&v).copied()
    }

    /// Looks up a variable's value, defaulting to the zero of `sort` when
    /// the encoder never saw the variable (it was eliminated by
    /// simplification, or appears in no constraint at all). This makes
    /// concretization of a trace valuation *total*: every declared
    /// variable gets a value, and the default is sound because an
    /// unconstrained variable can take any value — including zero.
    #[must_use]
    pub fn get_or_default(&self, v: Var, sort: Sort) -> Value {
        self.get(v).unwrap_or(match sort {
            Sort::Bool => Value::Bool(false),
            Sort::BitVec(w) => Value::Bits(islaris_bv::Bv::zero(w)),
        })
    }

    /// Iterates over the assigned variables.
    pub fn iter(&self) -> impl Iterator<Item = (Var, Value)> + '_ {
        self.values.iter().map(|(v, val)| (*v, *val))
    }

    /// Records a variable's value (module-internal: models handed out by
    /// the solver and the session are always verified by evaluation first).
    pub(crate) fn insert(&mut self, v: Var, val: Value) {
        self.values.insert(v, val);
    }

    /// Builds a model from explicit assignments. Exists for
    /// deserialising persisted query results; such models are never
    /// trusted as-is — the query cache re-verifies every cached `Sat`
    /// model by evaluation before replaying it, so a fabricated model
    /// can only cause a recompute, not a wrong verdict.
    #[must_use]
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Var, Value)>) -> Model {
        Model {
            values: pairs.into_iter().collect(),
        }
    }
}

/// Result of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmtResult {
    /// Satisfiable, with a checked model.
    Sat(Model),
    /// Unsatisfiable (proof checked if configured).
    Unsat,
    /// Could not decide (budget exhausted or unsupported operation).
    Unknown(String),
}

impl SmtResult {
    /// True iff the result is `Unsat`.
    #[must_use]
    pub fn is_unsat(&self) -> bool {
        matches!(self, SmtResult::Unsat)
    }

    /// True iff the result is `Sat`.
    #[must_use]
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat(_))
    }
}

/// The optional collaborators of a solver query, threaded through one
/// parameter instead of one function name per combination.
///
/// Only [`QueryCtx::metrics`] is always written. A query renders its
/// text (and computes its digest) only when a [`QueryCtx::table`] or a
/// [`QueryCtx::cache`] is attached, so a caller with no sinks passes
/// `&mut QueryCtx::default()` and pays for nothing else.
#[derive(Default)]
pub struct QueryCtx<'a> {
    /// Typed counters, accumulated over every query run through this
    /// context: outcome, CNF size, and SAT effort. Deterministic (the
    /// solver has no randomness), so profiles built from them are
    /// byte-comparable across runs.
    pub metrics: SolverMetrics,
    /// Per-query attribution: each query's effort delta (CNF clauses,
    /// propagations, decisions, conflicts) is recorded under its digest.
    pub table: Option<&'a mut QueryTable>,
    /// Shared memo table consulted before solving from scratch. Hits
    /// replay the original run's metric and attribution deltas (marked
    /// `hits=1` in the table), so every counter but the cache traffic is
    /// identical with the cache on or off.
    pub cache: Option<&'a QueryCache>,
    /// Traffic against [`QueryCtx::cache`].
    pub cache_metrics: CacheMetrics,
    /// Digest of the most recent query (see [`query_digest`]), for
    /// stamping onto proof-trace events. `None` when that query ran with
    /// neither a table nor a cache attached.
    pub digest: Option<u64>,
}

/// Checks satisfiability of the conjunction of `assumptions`.
///
/// `sorts` supplies the sort of every free variable. Models are verified by
/// evaluating every assumption; a failed verification (an internal
/// soundness bug) is reported as `Unknown` rather than a wrong answer.
/// Effort, attribution and cache traffic go to `ctx`.
#[must_use]
pub fn check_sat(
    assumptions: &[Expr],
    sorts: &dyn Fn(Var) -> Option<Sort>,
    cfg: &SolverConfig,
    ctx: &mut QueryCtx,
) -> SmtResult {
    if ctx.table.is_none() && ctx.cache.is_none() {
        ctx.digest = None;
        return solve(assumptions, sorts, cfg, &mut ctx.metrics);
    }
    let (text, digest) = render_query(assumptions.iter());
    ctx.digest = Some(digest);
    if let Some(cache) = ctx.cache {
        return cache.answer(assumptions, sorts, cfg, text, digest, ctx);
    }
    let before = ctx.metrics;
    let result = solve(assumptions, sorts, cfg, &mut ctx.metrics);
    if let Some(table) = ctx.table.as_deref_mut() {
        table.record(digest, query_delta(&metrics_delta(&ctx.metrics, &before)));
    }
    result
}

/// Does `facts ⟹ goal` hold (validity of the implication)?
///
/// Decided by refutation: `facts ∧ ¬goal` unsatisfiable. `Unknown` answers
/// count as *not proven* (sound for verification: obligations fail rather
/// than pass). The digest covers the refutation query the entailment
/// actually sends, so it matches a direct [`check_sat`] of that query.
#[must_use]
pub fn entails(
    facts: &[Expr],
    goal: &Expr,
    sorts: &dyn Fn(Var) -> Option<Sort>,
    cfg: &SolverConfig,
    ctx: &mut QueryCtx,
) -> bool {
    let mut q: Vec<Expr> = facts.to_vec();
    q.push(Expr::not(goal.clone()));
    check_sat(&q, sorts, cfg, ctx).is_unsat()
}

/// The shared front half of every query — simplify each assumption, fold
/// constants across facts — recording the same counters whichever caller
/// runs it. `Err` carries a verdict decided before bit-blasting; `Ok` the
/// simplified assumptions, ready for [`blast`] (and kept for model
/// verification on `Sat` answers).
fn presimplify(
    assumptions: &[Expr],
    sorts: &dyn Fn(Var) -> Option<Sort>,
    m: &mut SolverMetrics,
) -> Result<Vec<Expr>, SmtResult> {
    m.queries += 1;
    let mut simplified = Vec::with_capacity(assumptions.len());
    for a in assumptions {
        let s = simplify(a);
        match s.as_bool() {
            Some(true) => continue,
            Some(false) => {
                m.unsat += 1;
                return Err(SmtResult::Unsat);
            }
            None => simplified.push(s),
        }
    }
    if simplified.iter().all(|a| a.sort(sorts) == Ok(Sort::Bool)) {
        // Word-level pass across facts: `x = c` definitions substitute
        // into the other facts, which then re-simplify. A rewritten fact
        // can collapse to a constant, so re-filter afterwards. Only
        // well-sorted queries are folded: an ill-sorted fact set must
        // reach the blaster and fail there (certificate tampering is
        // reported, never folded into a verdict).
        let widths = |v: Var| match sorts(v) {
            Some(Sort::BitVec(w)) => Some(w),
            _ => None,
        };
        let (propagated, folds) = propagate_constants(&simplified, &widths);
        m.folded += folds;
        simplified.clear();
        for s in propagated {
            match s.as_bool() {
                Some(true) => continue,
                Some(false) => {
                    m.unsat += 1;
                    return Err(SmtResult::Unsat);
                }
                None => simplified.push(s),
            }
        }
    }
    if simplified.is_empty() {
        m.sat += 1;
        return Err(SmtResult::Sat(Model::default()));
    }
    Ok(simplified)
}

/// The `Unknown` verdict for an expression the blaster cannot encode.
pub(crate) fn blast_unknown(e: BlastError, m: &mut SolverMetrics) -> SmtResult {
    m.unknown += 1;
    SmtResult::Unknown(match e {
        BlastError::Unsupported(msg) => msg,
        e => e.to_string(),
    })
}

/// Bit-blasts `exprs` onto a fresh proof-logging solver. Deterministic:
/// the same expressions always produce the same clause database, which is
/// what lets a stored RUP proof be replayed against a fresh re-blasting
/// ([`entails_via_proof`]).
fn blast(
    exprs: &[Expr],
    sorts: &dyn Fn(Var) -> Option<Sort>,
    m: &mut SolverMetrics,
) -> Result<Blaster, SmtResult> {
    let mut blaster = Blaster::new();
    for a in exprs {
        blaster
            .assert_expr(a, sorts)
            .map_err(|e| blast_unknown(e, m))?;
    }
    Ok(blaster)
}

/// The from-scratch search over simplified `exprs`: [`blast`], then one
/// CDCL solve without assumptions. Records the encoding's CNF size and
/// folds and the search's effort into `m`.
fn blast_and_search(
    exprs: &[Expr],
    sorts: &dyn Fn(Var) -> Option<Sort>,
    cfg: &SolverConfig,
    m: &mut SolverMetrics,
) -> Result<(Blaster, Option<SatOutcome>), SmtResult> {
    let mut blaster = blast(exprs, sorts, m)?;
    let outcome = blaster.solve(&[], cfg.max_conflicts);
    m.absorb(&blaster.effort());
    Ok((blaster, outcome))
}

/// The from-scratch query: [`presimplify`], then [`scratch_solve`]. Every
/// query records its outcome, the CNF size produced by bit-blasting, and
/// the SAT solver's propagation/decision/conflict effort into `m`.
pub(crate) fn solve(
    assumptions: &[Expr],
    sorts: &dyn Fn(Var) -> Option<Sort>,
    cfg: &SolverConfig,
    m: &mut SolverMetrics,
) -> SmtResult {
    match presimplify(assumptions, sorts, m) {
        Ok(simplified) => scratch_solve(&simplified, sorts, cfg, m),
        Err(decided) => decided,
    }
}

/// The from-scratch solve of already simplified `exprs`, on a fresh
/// proof-logging solver. It is also the session's proof-checking
/// fallback, which must not count a second query, so it counts none.
pub(crate) fn scratch_solve(
    exprs: &[Expr],
    sorts: &dyn Fn(Var) -> Option<Sort>,
    cfg: &SolverConfig,
    m: &mut SolverMetrics,
) -> SmtResult {
    match blast_and_search(exprs, sorts, cfg, m) {
        Ok((blaster, outcome)) => conclude(outcome, &blaster, exprs, sorts, cfg, m),
        Err(unknown) => unknown,
    }
}

/// The one step from a search outcome to a verdict, shared by the
/// from-scratch path and the session: a spent budget is `Unknown`; a `Sat`
/// model is extracted from `blaster` and verified by evaluating every
/// expression of `exprs` (a failed verification, an internal soundness
/// bug, is reported as `Unknown` rather than a wrong answer); an `Unsat`
/// is proof-checked ([`checked_unsat`]) when `cfg` asks for it.
pub(crate) fn conclude(
    outcome: Option<SatOutcome>,
    blaster: &Blaster,
    exprs: &[Expr],
    sorts: &dyn Fn(Var) -> Option<Sort>,
    cfg: &SolverConfig,
    m: &mut SolverMetrics,
) -> SmtResult {
    match outcome {
        None => {
            m.unknown += 1;
            SmtResult::Unknown(format!("conflict budget {} exhausted", cfg.max_conflicts))
        }
        Some(SatOutcome::Sat(bits)) => {
            let mut model = Model::default();
            for v in blaster.encoded_vars().collect::<Vec<_>>() {
                if let Some(val) = blaster.extract_value(v, &bits, sorts) {
                    model.insert(v, val);
                }
            }
            // Variables the encoder never saw (eliminated by
            // simplification) default per sort; this is sound because
            // simplification preserves semantics.
            m.model_verifies += 1;
            let env = |v: Var| sorts(v).map(|s| model.get_or_default(v, s));
            for a in exprs {
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
        Some(SatOutcome::Unsat(proof)) if cfg.check_proofs => {
            checked_unsat(blaster, proof.as_ref(), m)
        }
        Some(SatOutcome::Unsat(_)) => {
            m.unsat += 1;
            SmtResult::Unsat
        }
    }
}

/// The verdict of a solve that answered `Unsat` under a proof-checking
/// configuration: `Unsat` once `proof` checks against `blaster`'s clauses,
/// an internal-error `Unknown` otherwise (a missing proof fails the check).
///
/// The proof is first trimmed to the clauses the final conflict actually
/// depends on, with antecedent hints attached, and then replayed through
/// the trusted checker. Trimming is an untrusted accelerator: if it fails
/// (it should not), the full proof is checked the slow way instead. A
/// proof that is only the empty clause is already minimal, so it is
/// checked as it stands — trimming would build per-literal occurrence
/// lists over the whole database to hand back the same clause.
fn checked_unsat(blaster: &Blaster, proof: Option<&RupProof>, m: &mut SolverMetrics) -> SmtResult {
    let num_vars = blaster.sat_num_vars();
    let db = blaster.sat_original_clauses();
    let trimmed = proof
        .filter(|p| p.clauses.len() > 1)
        .and_then(|p| trim_proof(num_vars, db, p));
    let ok = proof.is_some_and(|p| check_rup_proof(num_vars, db, trimmed.as_ref().unwrap_or(p)));
    if !ok {
        debug_assert!(false, "RUP proof failed to check");
        m.unknown += 1;
        return SmtResult::Unknown("internal error: RUP proof invalid".into());
    }
    if let (Some(p), Some(t)) = (proof, &trimmed) {
        m.trimmed += (p.clauses.len() - t.clauses.len()) as u64;
    }
    m.unsat += 1;
    SmtResult::Unsat
}

/// The stable identity of a solver query: FNV-1a over the Isla-syntax
/// renderings of its assumptions, newline-separated. Purely syntactic
/// and deterministic — two textually identical queries share a digest
/// whatever thread, case, or run issued them — which is what makes the
/// digest usable as the join key between proof-search traces and the
/// hot-query attribution table (DESIGN §9).
#[must_use]
pub fn query_digest(assumptions: &[Expr]) -> u64 {
    render_query(assumptions.iter()).1
}

/// The rendered query text [`query_digest`] hashes, plus the digest.
pub(crate) fn render_query<'a>(exprs: impl Iterator<Item = &'a Expr>) -> (String, u64) {
    use std::fmt::Write;
    let mut text = String::new();
    for a in exprs {
        let _ = writeln!(text, "{a}");
    }
    let digest = fnv1a(text.as_bytes());
    (text, digest)
}

/// Field-wise difference `after - before` of two solver-metric snapshots.
pub(crate) fn metrics_delta(after: &SolverMetrics, before: &SolverMetrics) -> SolverMetrics {
    SolverMetrics {
        queries: after.queries - before.queries,
        sat: after.sat - before.sat,
        unsat: after.unsat - before.unsat,
        unknown: after.unknown - before.unknown,
        model_verifies: after.model_verifies - before.model_verifies,
        cnf_vars: after.cnf_vars - before.cnf_vars,
        cnf_clauses: after.cnf_clauses - before.cnf_clauses,
        propagations: after.propagations - before.propagations,
        decisions: after.decisions - before.decisions,
        conflicts: after.conflicts - before.conflicts,
        restarts: after.restarts - before.restarts,
        reduced: after.reduced - before.reduced,
        minimized: after.minimized - before.minimized,
        folded: after.folded - before.folded,
        trimmed: after.trimmed - before.trimmed,
    }
}

/// The per-query attribution record derived from a metrics delta.
pub(crate) fn query_delta(delta: &SolverMetrics) -> QueryStats {
    QueryStats {
        count: 1,
        cnf_clauses: delta.cnf_clauses,
        propagations: delta.propagations,
        decisions: delta.decisions,
        conflicts: delta.conflicts,
        hits: 0,
    }
}

/// Proves `facts ⟹ goal` and returns the trimmed, hinted RUP refutation
/// of `facts ∧ ¬goal`'s bit-blasting — the proof section a certificate
/// can store next to the obligation ([`entails_via_proof`] replays it).
///
/// `None` when no storable proof exists: the entailment does not hold,
/// the query never reached the SAT core (decided by preprocessing, or an
/// unsupported fragment), or the conflict budget ran out. A
/// preprocessing-decided entailment needs no proof — replay re-decides it
/// just as cheaply.
#[must_use]
pub fn entails_proof(
    facts: &[Expr],
    goal: &Expr,
    sorts: &dyn Fn(Var) -> Option<Sort>,
    cfg: &SolverConfig,
) -> Option<RupProof> {
    let mut q: Vec<Expr> = facts.to_vec();
    q.push(Expr::not(goal.clone()));
    let mut scratch = SolverMetrics::default();
    let simplified = presimplify(&q, sorts, &mut scratch).ok()?;
    match blast_and_search(&simplified, sorts, cfg, &mut scratch).ok()? {
        (blaster, Some(SatOutcome::Unsat(Some(proof)))) => {
            let num_vars = blaster.sat_num_vars();
            let db = blaster.sat_original_clauses();
            Some(trim_proof(num_vars, db, &proof).unwrap_or(proof))
        }
        _ => None,
    }
}

/// Replays a stored RUP proof against a fresh deterministic re-blasting
/// of `facts ∧ ¬goal`. `true` means the proof checked — the blasted
/// formula is unsatisfiable, so the entailment holds — and `m` recorded
/// the replay (a query that never enters CDCL search). `false` means the
/// stored proof does not apply (the query no longer reaches the SAT core,
/// or the proof is stale or tampered): the caller must fall back to a
/// full [`entails`] solve, so a bad proof degrades to
/// search, never to acceptance.
#[must_use]
pub fn entails_via_proof(
    facts: &[Expr],
    goal: &Expr,
    sorts: &dyn Fn(Var) -> Option<Sort>,
    proof: &RupProof,
    m: &mut SolverMetrics,
) -> bool {
    let mut q: Vec<Expr> = facts.to_vec();
    q.push(Expr::not(goal.clone()));
    let simplified = match presimplify(&q, sorts, m) {
        Ok(simplified) => simplified,
        Err(decided) => return decided.is_unsat(),
    };
    let Ok(blaster) = blast(&simplified, sorts, m) else {
        return false;
    };
    let num_vars = blaster.sat_num_vars();
    let db = blaster.sat_original_clauses();
    m.cnf_vars += u64::from(num_vars);
    m.cnf_clauses += db.len() as u64;
    if check_rup_proof(num_vars, db, proof) {
        m.unsat += 1;
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BvCmp;

    fn sorts64(v: Var) -> Option<Sort> {
        (v.0 < 16).then_some(Sort::BitVec(64))
    }

    fn cfg() -> SolverConfig {
        SolverConfig::paranoid()
    }

    #[test]
    fn empty_query_is_sat() {
        assert!(check_sat(&[], &sorts64, &cfg(), &mut QueryCtx::default()).is_sat());
    }

    #[test]
    fn literal_false_is_unsat() {
        assert!(check_sat(
            &[Expr::bool(false)],
            &sorts64,
            &cfg(),
            &mut QueryCtx::default()
        )
        .is_unsat());
    }

    #[test]
    fn model_is_returned_and_correct() {
        let x = Expr::var(Var(0));
        let q = [Expr::eq(Expr::add(x, Expr::bv(64, 2)), Expr::bv(64, 44))];
        match check_sat(&q, &sorts64, &cfg(), &mut QueryCtx::default()) {
            SmtResult::Sat(m) => {
                assert_eq!(
                    m.get(Var(0)),
                    Some(Value::Bits(islaris_bv::Bv::new(64, 42)))
                );
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn get_or_default_is_total_over_unseen_variables() {
        // The constraint mentions only Var(0); Var(1) is declared (it has
        // a sort) but the encoder never sees it, so `get` returns None
        // while `get_or_default` yields the zero of the requested sort.
        let x = Expr::var(Var(0));
        let q = [Expr::eq(x, Expr::bv(64, 7))];
        match check_sat(&q, &sorts64, &cfg(), &mut QueryCtx::default()) {
            SmtResult::Sat(m) => {
                assert_eq!(m.get(Var(1)), None, "unseen variable has no value");
                assert_eq!(
                    m.get_or_default(Var(1), Sort::BitVec(64)),
                    Value::Bits(islaris_bv::Bv::zero(64))
                );
                assert_eq!(m.get_or_default(Var(1), Sort::Bool), Value::Bool(false));
                // Seen variables are unaffected by the default.
                assert_eq!(
                    m.get_or_default(Var(0), Sort::BitVec(64)),
                    Value::Bits(islaris_bv::Bv::new(64, 7))
                );
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn entails_transitivity_of_ult() {
        let (x, y, z) = (Expr::var(Var(0)), Expr::var(Var(1)), Expr::var(Var(2)));
        let facts = [
            Expr::cmp(BvCmp::Ult, x.clone(), y.clone()),
            Expr::cmp(BvCmp::Ult, y.clone(), z.clone()),
        ];
        let goal = Expr::cmp(BvCmp::Ult, x.clone(), z.clone());
        assert!(entails(
            &facts,
            &goal,
            &sorts64,
            &cfg(),
            &mut QueryCtx::default()
        ));
        // And the converse is not entailed.
        assert!(!entails(
            &facts,
            &Expr::cmp(BvCmp::Ult, z, x),
            &sorts64,
            &cfg(),
            &mut QueryCtx::default()
        ));
    }

    #[test]
    fn entails_rejects_overflow_fallacy() {
        // x < x + 1 is NOT valid at width 64 (x = max wraps).
        let x = Expr::var(Var(0));
        let goal = Expr::cmp(BvCmp::Ult, x.clone(), Expr::add(x.clone(), Expr::bv(64, 1)));
        assert!(!entails(
            &[],
            &goal,
            &sorts64,
            &cfg(),
            &mut QueryCtx::default()
        ));
        // But it is valid given x ≠ max.
        let fact = Expr::not(Expr::eq(x.clone(), Expr::bits(islaris_bv::Bv::ones(64))));
        assert!(entails(
            &[fact],
            &goal,
            &sorts64,
            &cfg(),
            &mut QueryCtx::default()
        ));
    }

    #[test]
    fn unknown_on_unsupported_ops() {
        let x = Expr::var(Var(0));
        let q = [Expr::eq(
            Expr::binop(crate::expr::BvBinop::Udiv, x.clone(), x),
            Expr::bv(64, 1),
        )];
        assert!(matches!(
            check_sat(&q, &sorts64, &cfg(), &mut QueryCtx::default()),
            SmtResult::Unknown(_)
        ));
    }

    #[test]
    fn metered_queries_count_outcomes_and_effort() {
        let x = Expr::var(Var(0));
        let mut ctx = QueryCtx::default();
        // One sat query (with a model verify), one unsat, one unknown.
        let sat_q = [Expr::eq(x.clone(), Expr::bv(64, 42))];
        assert!(check_sat(&sat_q, &sorts64, &cfg(), &mut ctx).is_sat());
        assert!(check_sat(&[Expr::bool(false)], &sorts64, &cfg(), &mut ctx).is_unsat());
        let div = [Expr::eq(
            Expr::binop(crate::expr::BvBinop::Udiv, x.clone(), x.clone()),
            Expr::bv(64, 1),
        )];
        assert!(matches!(
            check_sat(&div, &sorts64, &cfg(), &mut ctx),
            SmtResult::Unknown(_)
        ));
        let m = ctx.metrics;
        assert_eq!(m.queries, 3);
        assert_eq!(m.sat, 1);
        assert_eq!(m.unsat, 1);
        assert_eq!(m.unknown, 1);
        assert_eq!(m.model_verifies, 1);
        assert!(m.cnf_vars > 0, "sat query must have been blasted");
        assert!(m.cnf_clauses > 0);
        assert!(m.propagations > 0, "blasted query must propagate");
        assert_eq!(ctx.digest, None, "no table or cache: no digest rendered");
        // Answers agree with and without a table attached.
        let mut t = QueryTable::default();
        assert_eq!(
            check_sat(&sat_q, &sorts64, &cfg(), &mut QueryCtx::default()),
            check_sat(
                &sat_q,
                &sorts64,
                &cfg(),
                &mut QueryCtx {
                    table: Some(&mut t),
                    ..QueryCtx::default()
                }
            )
        );
        // entails counts exactly one query.
        let mut ctx3 = QueryCtx::default();
        let goal = Expr::cmp(BvCmp::Ult, x.clone(), Expr::bv(64, 43));
        assert!(entails(&sat_q, &goal, &sorts64, &cfg(), &mut ctx3));
        assert_eq!(ctx3.metrics.queries, 1);
        assert_eq!(ctx3.metrics.unsat, 1);
    }

    #[test]
    fn logged_queries_attribute_effort_to_stable_digests() {
        let x = Expr::var(Var(0));
        let q = [Expr::eq(
            Expr::add(x.clone(), Expr::bv(64, 2)),
            Expr::bv(64, 44),
        )];
        let mut t = QueryTable::default();
        let mut ctx = QueryCtx {
            table: Some(&mut t),
            ..QueryCtx::default()
        };
        let r1 = check_sat(&q, &sorts64, &cfg(), &mut ctx);
        let d1 = ctx.digest.expect("a table is attached");
        let r2 = check_sat(&q, &sorts64, &cfg(), &mut ctx);
        let d2 = ctx.digest.expect("a table is attached");
        assert_eq!(r1, r2);
        assert_eq!(d1, d2, "identical queries share a digest");
        assert_eq!(d1, query_digest(&q));
        assert_eq!(t.len(), 1, "both occurrences aggregate under one digest");
        let stats = t.entries[&d1];
        assert_eq!(stats.count, 2);
        assert!(stats.propagations > 0, "blasted query records effort");
        // The logged answer agrees with the unlogged one.
        assert_eq!(
            r1,
            check_sat(&q, &sorts64, &cfg(), &mut QueryCtx::default())
        );
        // entails digests the refutation query it actually sends.
        let goal = Expr::cmp(BvCmp::Ult, x.clone(), Expr::bv(64, 43));
        let mut t2 = QueryTable::default();
        let mut ctx2 = QueryCtx {
            table: Some(&mut t2),
            ..QueryCtx::default()
        };
        let holds = entails(&q, &goal, &sorts64, &cfg(), &mut ctx2);
        let de = ctx2.digest.expect("a table is attached");
        assert!(holds);
        let mut refutation = q.to_vec();
        refutation.push(Expr::not(goal));
        assert_eq!(de, query_digest(&refutation));
        assert_eq!(t2.entries[&de].count, 1);
        // A different query gets a different digest (with overwhelming
        // probability; these two are fixed, so this is deterministic).
        assert_ne!(d1, de);
    }

    #[test]
    fn alignment_fact_entails_low_bits_zero() {
        // From the paper's workflow: an aligned register has low bits zero.
        // fact: x & 7 = 0  ⟹  extract 2..0 of x = 0.
        let x = Expr::var(Var(0));
        let fact = Expr::eq(
            Expr::binop(crate::expr::BvBinop::And, x.clone(), Expr::bv(64, 7)),
            Expr::bv(64, 0),
        );
        let goal = Expr::eq(Expr::extract(2, 0, x), Expr::bv(3, 0));
        assert!(entails(
            &[fact],
            &goal,
            &sorts64,
            &cfg(),
            &mut QueryCtx::default()
        ));
    }
}
