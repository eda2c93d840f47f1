//! CNF fuzzing for the CDCL core against a truth table.
//!
//! Random CNF formulas (at most 12 variables) plus random assumption
//! sequences are solved by the CDCL solver, and every verdict is compared
//! with the instance's truth table: all 2ⁿ assignments, enumerated once
//! per instance by code that shares nothing with the solver. Every `Sat`
//! model is verified by evaluating the clause set; every `Unsat` proof is
//! checked with [`check_rup_proof`] and put through the trimmed-replay
//! battery. An `Unsat` under assumptions must have no model in the truth
//! table and be re-proved with a checked refutation. Adversarially, no
//! proof handed out for such a query — by the incremental solver, or the
//! refutation of the formula plus the assumptions as units — may check
//! against the original clauses when the truth table has a model.
//!
//! 256 cases per property by default (the in-tree runner honours
//! `ISLARIS_PT_CASES`); failures print a seed replayable via
//! `ISLARIS_PT_SEED`.

use islaris_smt::sat::{
    check_rup_proof, trim_proof, ClauseArena, Lit, RupProof, SatOutcome, SatSolver,
};
use islaris_testkit::{forall, Rng, TestResult};

const CASES: u32 = 256;

/// A generated instance: a clause set plus a sequence of assumption
/// queries to replay incrementally.
#[derive(Debug, Clone)]
struct Instance {
    num_vars: u32,
    clauses: Vec<Vec<Lit>>,
    /// Assumption sets, replayed in order on one solver.
    queries: Vec<Vec<Lit>>,
}

fn gen_lit(r: &mut Rng, num_vars: u32) -> Lit {
    Lit::with_sign(r.range_u32(0, num_vars - 1), r.next_bool())
}

fn gen_instance(r: &mut Rng) -> Instance {
    let num_vars = r.range_u32(3, 12);
    // Clause/variable ratio spanning easy-sat through over-constrained:
    // unsatisfiable instances need enough clauses to conflict.
    let num_clauses = r.range_u32(num_vars, num_vars * 5) as usize;
    let clauses = (0..num_clauses)
        .map(|_| {
            let len = r.range_u32(1, 4) as usize;
            // Duplicate literals are deliberately possible: add_clause and
            // the RUP checker must both tolerate them.
            (0..len).map(|_| gen_lit(r, num_vars)).collect()
        })
        .collect();
    let queries = (0..r.range_u32(1, 4))
        .map(|_| {
            (0..r.range_u32(0, 3))
                .map(|_| gen_lit(r, num_vars))
                .collect()
        })
        .collect();
    Instance {
        num_vars,
        clauses,
        queries,
    }
}

fn build(inst: &Instance) -> SatSolver {
    let mut s = SatSolver::new();
    for _ in 0..inst.num_vars {
        s.new_var();
    }
    for c in &inst.clauses {
        s.add_clause(c);
    }
    s
}

fn model_satisfies(clauses: &[Vec<Lit>], model: &[bool]) -> bool {
    clauses
        .iter()
        .all(|c| c.iter().any(|l| model[l.var() as usize] == l.is_pos()))
}

/// True iff `l` holds in truth-table row `row` (bit `v` of a row is the
/// value of variable `v`).
fn holds(row: u32, l: &Lit) -> bool {
    (row >> l.var() & 1 == 1) == l.is_pos()
}

/// The instance's models: every truth-table row that satisfies all
/// clauses.
fn truth_table(inst: &Instance) -> Vec<u32> {
    (0..1u32 << inst.num_vars)
        .filter(|&row| inst.clauses.iter().all(|c| c.iter().any(|l| holds(row, l))))
        .collect()
}

/// True iff some model in `models` makes every literal of `units` true.
fn has_model_under(models: &[u32], units: &[Lit]) -> bool {
    models
        .iter()
        .any(|&row| units.iter().all(|l| holds(row, l)))
}

/// Re-proves unsatisfiability of `clauses` (+ `units`) on a fresh
/// proof-logging solver and checks the RUP refutation — then puts the
/// trimmed replay through its paces ([`checked_trimmed_replay`]) and
/// returns the refutation.
fn checked_unsat(num_vars: u32, clauses: &[Vec<Lit>], units: &[Lit]) -> Result<RupProof, String> {
    let mut s = SatSolver::new();
    for _ in 0..num_vars {
        s.new_var();
    }
    // The raw clauses (duplicate literals included) plus the units: the
    // checker must accept a refutation of the formula exactly as given.
    let all: ClauseArena = clauses
        .iter()
        .map(Vec::as_slice)
        .chain(units.iter().map(std::slice::from_ref))
        .collect();
    for c in all.iter() {
        s.add_clause(c);
    }
    match s.solve(&[], u64::MAX).expect("unlimited solve completes") {
        SatOutcome::Sat(_) => Err("re-proving solver found the instance satisfiable".into()),
        SatOutcome::Unsat(None) => Err("a fresh logging solver refuted without a proof".into()),
        SatOutcome::Unsat(Some(proof)) => {
            if check_rup_proof(num_vars, &all, &proof) {
                checked_trimmed_replay(num_vars, &all, &proof)?;
                Ok(proof)
            } else {
                Err("RUP refutation failed the proof checker".into())
            }
        }
    }
}

/// The trimmed-replay contract on one checker-accepted refutation:
///
/// (a) the trimmed proof carries hints, never grows, and re-checks via
///     the hinted fast path;
/// (b) stripping the hints still re-checks via full occurrence-list
///     search (hints are an accelerator, not part of the proof);
/// (c) tampering is caught: a proof truncated before its empty clause
///     is rejected outright, corrupting every hint on a valid proof
///     degrades to search (never flips the verdict), and mutating a
///     proof clause yields the same verdict hinted and unhinted — so
///     wrong hints can never manufacture an acceptance.
fn checked_trimmed_replay(
    num_vars: u32,
    clauses: &ClauseArena,
    proof: &RupProof,
) -> Result<(), String> {
    let trimmed =
        trim_proof(num_vars, clauses, proof).ok_or("a checker-accepted proof must trim")?;
    if !trimmed.is_hinted() {
        return Err("trimming must attach antecedent hints".into());
    }
    // Trimming must not depend on the input proof's own hints: the
    // search-based derivation (exercised by stripping them) has to land
    // on an equally valid trimmed proof.
    let searched = trim_proof(num_vars, clauses, &proof.strip_hints())
        .ok_or("a checker-accepted proof must trim without input hints")?;
    if !check_rup_proof(num_vars, clauses, &searched) {
        return Err("search-trimmed proof rejected".into());
    }
    if trimmed.clauses.len() > proof.clauses.len() {
        return Err("trimming grew the proof".into());
    }
    if !check_rup_proof(num_vars, clauses, &trimmed) {
        return Err("trimmed+hinted proof rejected".into());
    }
    if !check_rup_proof(num_vars, clauses, &trimmed.strip_hints()) {
        return Err("trimmed proof with hints stripped rejected".into());
    }
    let mut headless = trimmed.clone();
    headless.clauses.pop();
    headless.hints.pop();
    if check_rup_proof(num_vars, clauses, &headless) {
        return Err("tampered (truncated) trimmed proof accepted".into());
    }
    let mut bad_hints = trimmed.clone();
    for h in &mut bad_hints.hints {
        *h = vec![0];
    }
    if !check_rup_proof(num_vars, clauses, &bad_hints) {
        return Err("corrupt hints flipped a valid proof's verdict".into());
    }
    if let Some(i) = trimmed.clauses.iter().position(|c| !c.is_empty()) {
        let mut flipped = trimmed.clone();
        flipped.clauses[i][0] = flipped.clauses[i][0].negate();
        let hinted = check_rup_proof(num_vars, clauses, &flipped);
        let searched = check_rup_proof(num_vars, clauses, &flipped.strip_hints());
        if hinted != searched {
            return Err("hints changed the verdict on a mutated proof".into());
        }
    }
    Ok(())
}

/// One instance: the solver's verdicts against the truth table.
fn run_against_truth_table(inst: &Instance) -> Result<(), String> {
    let models = truth_table(inst);
    // Plain solve: verdict matches the table; Sat models evaluated;
    // Unsat RUP-checked.
    let mut s = build(inst);
    match s.solve(&[], u64::MAX).expect("unlimited solve completes") {
        SatOutcome::Sat(m) => {
            if models.is_empty() {
                return Err("solver says sat, truth table has no model".into());
            }
            if !model_satisfies(&inst.clauses, &m) {
                return Err("model fails a clause".into());
            }
        }
        SatOutcome::Unsat(None) => return Err("a logging solver refuted without a proof".into()),
        SatOutcome::Unsat(Some(p)) => {
            if !models.is_empty() {
                return Err(format!(
                    "solver says unsat, truth table has {} models",
                    models.len()
                ));
            }
            // A fresh solve's proof carries learn-time hints, and those
            // hints must be good enough that the hinted check accepts the
            // proof; the stripped variant exercises pure search instead.
            if !p.is_hinted() {
                return Err("proof left the solver unhinted".into());
            }
            if !check_rup_proof(inst.num_vars, s.original_clauses(), &p) {
                return Err("RUP proof rejected".into());
            }
            if !check_rup_proof(inst.num_vars, s.original_clauses(), &p.strip_hints()) {
                return Err("proof rejected without hints".into());
            }
            checked_trimmed_replay(inst.num_vars, s.original_clauses(), &p)?;
        }
    }

    // Assumption sequence on one incremental, proof-logging solver: the
    // clause database (including learned clauses) persists across queries.
    let mut s = build(inst);
    let originals: ClauseArena = inst.clauses.iter().collect();
    for assumptions in &inst.queries {
        let expected = has_model_under(&models, assumptions);
        match s
            .solve(assumptions, u64::MAX)
            .expect("unlimited solve completes")
        {
            SatOutcome::Sat(m) => {
                if !expected {
                    return Err(format!(
                        "sat under {assumptions:?}, truth table has no model"
                    ));
                }
                if !model_satisfies(&inst.clauses, &m) {
                    return Err("assumption model fails a clause".into());
                }
                if !assumptions
                    .iter()
                    .all(|a| m[a.var() as usize] == a.is_pos())
                {
                    return Err("model violates an assumption".into());
                }
            }
            SatOutcome::Unsat(handed_out) => {
                if expected {
                    return Err(format!(
                        "unsat under {assumptions:?}, truth table has a model"
                    ));
                }
                let under = checked_unsat(inst.num_vars, &inst.clauses, assumptions)
                    .map_err(|e| format!("under {assumptions:?}: {e}"))?;
                if models.is_empty() {
                    // The database itself is refuted; a handed-out
                    // refutation (assumption-era clauses included) checks.
                    if let Some(p) = &handed_out {
                        if !check_rup_proof(inst.num_vars, s.original_clauses(), p) {
                            return Err("handed-out refutation rejected".into());
                        }
                    }
                    continue;
                }
                // The formula is satisfiable: nothing refutes it.
                for (what, p) in handed_out
                    .iter()
                    .map(|p| ("handed-out", p))
                    .chain([("formula-plus-assumptions", &under)])
                {
                    for proof in [p.clone(), p.strip_hints()] {
                        if check_rup_proof(inst.num_vars, &originals, &proof) {
                            return Err(format!(
                                "{what} proof under {assumptions:?} accepted as a \
                                 refutation of a satisfiable formula"
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[test]
fn fuzz_verdicts_match_truth_table() {
    forall(
        "fuzz_verdicts_match_truth_table",
        CASES,
        gen_instance,
        |inst| match run_against_truth_table(inst) {
            Ok(()) => TestResult::Pass,
            Err(e) => TestResult::Fail(e),
        },
    );
}
