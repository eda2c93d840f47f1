//! Property tests for the SMT stack: random expressions are evaluated,
//! simplified, and bit-blasted, and all three semantics must agree.
//! Runs on the in-tree `islaris-testkit` runner (64 cases per property,
//! as under proptest's `with_cases(64)` config here); failures report a
//! seed replayable via `ISLARIS_PT_SEED`.

use islaris_bv::Bv;
use islaris_smt::cnf::Blaster;
use islaris_smt::sat::SatOutcome;
use islaris_smt::{
    check_sat, entails, eval_bool, simplify_with, BvBinop, BvCmp, BvUnop, Expr, QueryCtx,
    SmtResult, SolverConfig, Sort, Value, Var,
};
use islaris_testkit::{forall, prop_eq, prop_true, Rng, TestResult};

const WIDTH: u32 = 8;
const NUM_VARS: u32 = 3;
const CASES: u32 = 64;

fn sorts(v: Var) -> Option<Sort> {
    (v.0 < NUM_VARS).then_some(Sort::BitVec(WIDTH))
}

fn widths(v: Var) -> Option<u32> {
    (v.0 < NUM_VARS).then_some(WIDTH)
}

/// Random bitvector expressions of width 8 over 3 variables; `depth`
/// bounds recursion like the proptest `prop_recursive(3, …)` config.
fn bv_expr(r: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || r.index(4) == 0 {
        return if r.next_bool() {
            Expr::var(Var(r.range_u32(0, NUM_VARS - 1)))
        } else {
            Expr::bv(WIDTH, u128::from(r.next_u8()))
        };
    }
    match r.index(3) {
        0 => {
            const OPS: [BvBinop; 9] = [
                BvBinop::Add,
                BvBinop::Sub,
                BvBinop::Mul,
                BvBinop::And,
                BvBinop::Or,
                BvBinop::Xor,
                BvBinop::Shl,
                BvBinop::Lshr,
                BvBinop::Ashr,
            ];
            let op = *r.choose(&OPS);
            let a = bv_expr(r, depth - 1);
            let b = bv_expr(r, depth - 1);
            Expr::binop(op, a, b)
        }
        1 => {
            const OPS: [BvUnop; 3] = [BvUnop::Not, BvUnop::Neg, BvUnop::Rev];
            let op = *r.choose(&OPS);
            let a = bv_expr(r, depth - 1);
            Expr::unop(op, a)
        }
        _ => {
            let a = bv_expr(r, depth - 1);
            let (x, y) = (r.range_u32(0, WIDTH - 1), r.range_u32(0, WIDTH - 1));
            let (hi, lo) = (x.max(y), x.min(y));
            Expr::extract(
                WIDTH - 1,
                0,
                Expr::zero_extend(WIDTH - (hi - lo + 1), Expr::extract(hi, lo, a)),
            )
        }
    }
}

fn bool_atom(r: &mut Rng) -> Expr {
    match r.index(4) {
        0 => {
            const OPS: [BvCmp; 4] = [BvCmp::Ult, BvCmp::Ule, BvCmp::Slt, BvCmp::Sle];
            let op = *r.choose(&OPS);
            let a = bv_expr(r, 3);
            let b = bv_expr(r, 3);
            Expr::cmp(op, a, b)
        }
        1 => {
            let a = bv_expr(r, 3);
            let b = bv_expr(r, 3);
            Expr::eq(a, b)
        }
        2 => Expr::bool(true),
        _ => Expr::bool(false),
    }
}

/// Random boolean expressions over the bitvector fragment.
fn bool_expr_at(r: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || r.index(4) == 0 {
        return bool_atom(r);
    }
    match r.index(3) {
        0 => {
            let a = bool_expr_at(r, depth - 1);
            let b = bool_expr_at(r, depth - 1);
            Expr::and(a, b)
        }
        1 => {
            let a = bool_expr_at(r, depth - 1);
            let b = bool_expr_at(r, depth - 1);
            Expr::or(a, b)
        }
        _ => Expr::not(bool_expr_at(r, depth - 1)),
    }
}

fn bool_expr(r: &mut Rng) -> Expr {
    bool_expr_at(r, 2)
}

fn vals(r: &mut Rng) -> [u8; 3] {
    [r.next_u8(), r.next_u8(), r.next_u8()]
}

fn env_from(vals: &[u8; 3]) -> impl Fn(Var) -> Option<Value> + '_ {
    move |v: Var| {
        (v.0 < NUM_VARS).then(|| Value::Bits(Bv::new(WIDTH, u128::from(vals[v.0 as usize]))))
    }
}

/// simplify preserves evaluation under every environment.
#[test]
fn simplify_preserves_semantics() {
    forall(
        "simplify_preserves_semantics",
        CASES,
        |r| (bool_expr(r), vals(r)),
        |(e, vals)| {
            let env = env_from(vals);
            let simplified = simplify_with(e, &widths);
            let lhs = eval_bool(e, &env).expect("well-sorted");
            let rhs = eval_bool(&simplified, &env).expect("well-sorted");
            prop_eq!(lhs, rhs, format!("e = {e}, simplified = {simplified}"));
            TestResult::Pass
        },
    );
}

/// simplify is idempotent: a second pass is the identity, so the
/// rewriter really reaches a normal form instead of oscillating.
#[test]
fn simplify_is_idempotent() {
    forall("simplify_is_idempotent", CASES, bool_expr, |e| {
        let once = simplify_with(e, &widths);
        let twice = simplify_with(&once, &widths);
        prop_eq!(
            once,
            twice,
            format!("e = {e}, once = {once}, twice = {twice}")
        );
        TestResult::Pass
    });
}

/// If evaluation under a concrete environment says true, the formula is
/// satisfiable, and check_sat's model satisfies it.
#[test]
fn check_sat_agrees_with_witness() {
    forall(
        "check_sat_agrees_with_witness",
        CASES,
        |r| (bool_expr(r), vals(r)),
        |(e, vals)| {
            let env = env_from(vals);
            let truth = eval_bool(e, &env).expect("well-sorted");
            if truth {
                match check_sat(
                    std::slice::from_ref(e),
                    &sorts,
                    &SolverConfig::paranoid(),
                    &mut QueryCtx::default(),
                ) {
                    SmtResult::Sat(m) => {
                        let menv = |v: Var| m.get(v).or_else(|| env(v));
                        prop_eq!(eval_bool(e, &menv), Ok(true));
                    }
                    SmtResult::Unsat => {
                        return TestResult::Fail(format!("witnessed formula reported unsat: {e}"))
                    }
                    SmtResult::Unknown(_) => {} // budget; acceptable
                }
            }
            TestResult::Pass
        },
    );
}

/// Unsat answers are confirmed by exhaustive enumeration (width 8,
/// 3 vars → 2^24 too big; restrict to formulas with ≤ 2 vars by fixing v2=0).
#[test]
fn unsat_answers_have_no_witness() {
    forall("unsat_answers_have_no_witness", CASES, bool_expr, |e| {
        // Bind v2 := 0 to shrink the space, then enumerate v0, v1.
        let e0 = e.subst_var(Var(2), &Expr::bv(WIDTH, 0));
        if check_sat(
            std::slice::from_ref(&e0),
            &sorts,
            &SolverConfig::paranoid(),
            &mut QueryCtx::default(),
        )
        .is_unsat()
        {
            for a in 0u16..256 {
                for b in 0u16..256 {
                    let vals = [a as u8, b as u8, 0u8];
                    let env = env_from(&vals);
                    prop_eq!(
                        eval_bool(&e0, &env),
                        Ok(false),
                        format!("unsat formula has witness {vals:?}: {e0}")
                    );
                }
            }
        }
        TestResult::Pass
    });
}

/// Bit-blasting agrees with evaluation: e ∧ (vars = concrete) is sat
/// iff e evaluates to true.
#[test]
fn blasting_agrees_with_eval() {
    forall(
        "blasting_agrees_with_eval",
        CASES,
        |r| (bool_expr(r), vals(r)),
        |(e, vals)| {
            let env = env_from(vals);
            let truth = eval_bool(e, &env).expect("well-sorted");
            let mut bl = Blaster::new();
            bl.assert_expr(e, &sorts).expect("encodable fragment");
            for i in 0..NUM_VARS {
                let pin = Expr::eq(
                    Expr::var(Var(i)),
                    Expr::bv(WIDTH, u128::from(vals[i as usize])),
                );
                bl.assert_expr(&pin, &sorts).expect("encodable");
            }
            let outcome = bl.solve(&[], u64::MAX).expect("unlimited solve");
            match (truth, outcome) {
                (true, SatOutcome::Sat(_)) | (false, SatOutcome::Unsat(_)) => TestResult::Pass,
                (t, o) => TestResult::Fail(format!(
                    "eval = {t}, sat = {:?} for {e}",
                    matches!(o, SatOutcome::Sat(_))
                )),
            }
        },
    );
}

/// entails is consistent: facts always entail themselves and true.
#[test]
fn entails_reflexive() {
    forall("entails_reflexive", CASES, bool_expr, |e| {
        let cfg = SolverConfig::new();
        prop_true!(entails(
            std::slice::from_ref(e),
            e,
            &sorts,
            &cfg,
            &mut QueryCtx::default()
        ));
        prop_true!(entails(
            std::slice::from_ref(e),
            &Expr::bool(true),
            &sorts,
            &cfg,
            &mut QueryCtx::default()
        ));
        TestResult::Pass
    });
}
