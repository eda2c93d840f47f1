//! Differential CNF fuzzing for the CDCL core.
//!
//! Random CNF formulas plus random assumption sequences are solved twice:
//! once with a `SatConfig` under test (all features on, and each feature
//! individually switched off) and once with the all-features-off reference
//! solver (chronological-ish, no restarts, no reduction). Verdicts must be
//! identical. Every `Sat` model is verified by evaluating the clause set;
//! every `Unsat` is re-proved on a fresh proof-logging solver and the RUP
//! refutation checked with [`check_rup_proof`]. Assumption cores must be
//! subsets of the assumptions and themselves unsatisfiable.
//!
//! 256 cases per property by default (the in-tree runner honours
//! `ISLARIS_PT_CASES`); failures print a seed replayable via
//! `ISLARIS_PT_SEED`.

use islaris_smt::sat::{
    check_rup_proof, trim_proof, AssumptionOutcome, ClauseArena, Lit, RupProof, SatConfig,
    SatOutcome, SatSolver,
};
use islaris_testkit::{forall, Rng, TestResult};

const CASES: u32 = 256;

/// A generated instance: a clause set plus a sequence of assumption
/// queries to replay incrementally.
#[derive(Debug, Clone)]
struct Instance {
    num_vars: u32,
    clauses: Vec<Vec<Lit>>,
    /// Assumption sets, replayed in order on one solver pair.
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

fn build(cfg: SatConfig, inst: &Instance) -> SatSolver {
    let mut s = SatSolver::with_config(cfg);
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

/// Re-proves unsatisfiability of `clauses` (+ `units`) on a fresh
/// proof-logging reference solver and checks the RUP refutation — then
/// puts the trimmed replay through its paces ([`checked_trimmed_replay`]).
fn checked_unsat(num_vars: u32, clauses: &[Vec<Lit>], units: &[Lit]) -> Result<(), String> {
    let mut s = SatSolver::with_config(SatConfig::all_off());
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
    match s.solve() {
        SatOutcome::Sat(_) => Err("re-proving solver found the instance satisfiable".into()),
        SatOutcome::Unsat(proof) => {
            if check_rup_proof(num_vars, &all, &proof) {
                checked_trimmed_replay(num_vars, &all, &proof)
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

/// Differential run of one instance under `cfg` vs the all-off reference.
fn run_differential(cfg: SatConfig, inst: &Instance) -> Result<(), String> {
    // Plain solve: verdicts equal; Sat models evaluated; Unsat RUP-checked.
    let mut test = build(cfg, inst);
    let mut reference = build(SatConfig::all_off(), inst);
    let t = test.solve();
    let r = reference.solve();
    match (&t, &r) {
        (SatOutcome::Sat(mt), SatOutcome::Sat(mr)) => {
            if !model_satisfies(&inst.clauses, mt) {
                return Err(format!("{cfg:?}: test model fails a clause"));
            }
            if !model_satisfies(&inst.clauses, mr) {
                return Err("reference model fails a clause".into());
            }
        }
        (SatOutcome::Unsat(pt), SatOutcome::Unsat(pr)) => {
            // Both solvers log proofs by default; both must check, and
            // both must survive the trimmed replay + tamper battery. A
            // fresh solve's proof carries learn-time hints, and those
            // hints must be good enough that the hinted check accepts
            // the proof even with the search fallback disabled (the
            // stripped variant exercises pure search instead).
            for (who, p) in [("test", pt), ("reference", pr)] {
                if !p.is_hinted() {
                    return Err(format!("{cfg:?}: {who} proof left the solver unhinted"));
                }
                if !check_rup_proof(inst.num_vars, test.original_clauses(), p) {
                    return Err(format!("{cfg:?}: {who} RUP proof rejected"));
                }
                if !check_rup_proof(inst.num_vars, test.original_clauses(), &p.strip_hints()) {
                    return Err(format!("{cfg:?}: {who} proof rejected without hints"));
                }
                checked_trimmed_replay(inst.num_vars, test.original_clauses(), p)
                    .map_err(|e| format!("{cfg:?}: {who}: {e}"))?;
            }
        }
        _ => {
            return Err(format!(
                "{cfg:?}: verdict mismatch: test={} reference={}",
                verdict(&t),
                verdict(&r)
            ))
        }
    }

    // Assumption sequence on one incremental solver pair: the clause
    // database (including learned clauses) persists across queries.
    let mut test = build(cfg, inst);
    let mut reference = build(SatConfig::all_off(), inst);
    for assumptions in &inst.queries {
        let t = test
            .solve_with_assumptions(assumptions, u64::MAX)
            .expect("unlimited solve completes");
        let r = reference
            .solve_with_assumptions(assumptions, u64::MAX)
            .expect("unlimited solve completes");
        match (&t, &r) {
            (AssumptionOutcome::Sat(mt), AssumptionOutcome::Sat(mr)) => {
                for (who, m) in [("test", mt), ("reference", mr)] {
                    if !model_satisfies(&inst.clauses, m) {
                        return Err(format!("{cfg:?}: {who} assumption model fails a clause"));
                    }
                    if !assumptions
                        .iter()
                        .all(|a| m[a.var() as usize] == a.is_pos())
                    {
                        return Err(format!("{cfg:?}: {who} model violates an assumption"));
                    }
                }
            }
            (AssumptionOutcome::Unsat(ct), AssumptionOutcome::Unsat(cr)) => {
                for (who, core) in [("test", ct), ("reference", cr)] {
                    if !core.iter().all(|l| assumptions.contains(l)) {
                        return Err(format!(
                            "{cfg:?}: {who} final conflict is not a subset of the assumptions"
                        ));
                    }
                    // The core already suffices: original clauses + core
                    // units must be unsatisfiable, with a checked proof.
                    checked_unsat(inst.num_vars, &inst.clauses, core)
                        .map_err(|e| format!("{cfg:?}: {who} core: {e}"))?;
                }
            }
            _ => {
                return Err(format!(
                    "{cfg:?}: assumption verdict mismatch under {assumptions:?}"
                ))
            }
        }
    }
    Ok(())
}

fn verdict(o: &SatOutcome) -> &'static str {
    match o {
        SatOutcome::Sat(_) => "sat",
        SatOutcome::Unsat(_) => "unsat",
    }
}

/// All features on vs the all-off reference.
#[test]
fn fuzz_all_features_on_matches_reference() {
    forall(
        "fuzz_all_features_on_matches_reference",
        CASES,
        gen_instance,
        |inst| match run_differential(SatConfig::all_on(), inst) {
            Ok(()) => TestResult::Pass,
            Err(e) => TestResult::Fail(e),
        },
    );
}

/// Each feature individually off (isolating the remaining set) vs the
/// reference — pinpoints which heuristic breaks when one does.
#[test]
fn fuzz_each_single_feature_off_matches_reference() {
    forall(
        "fuzz_each_single_feature_off_matches_reference",
        CASES,
        gen_instance,
        |inst| {
            for feature in SatConfig::FEATURES {
                let cfg = SatConfig::all_on()
                    .without(feature)
                    .expect("FEATURES entries are valid");
                if let Err(e) = run_differential(cfg, inst) {
                    return TestResult::Fail(format!("feature off: {feature}: {e}"));
                }
            }
            TestResult::Pass
        },
    );
}
