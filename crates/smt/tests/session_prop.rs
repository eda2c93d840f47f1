//! Property tests for incremental sessions and the query cache: on
//! random query sequences over random sorts, assumption-based session
//! answers (and cached answers) must be identical to from-scratch
//! `check_sat`/`entails`, including after interleaved fact pushes.
//! 64 cases per property on the in-tree `islaris-testkit` runner;
//! failures report a seed replayable via `ISLARIS_PT_SEED`.

use islaris_smt::{
    check_sat, entails, eval_bool, BvBinop, BvCmp, BvUnop, Expr, QueryCache, QueryCtx, QueryTable,
    Session, SmtResult, SolverConfig, Sort, Var,
};
use islaris_testkit::{forall, Rng, TestResult};

const NUM_VARS: u32 = 3;
const CASES: u32 = 64;

/// A per-case shape: a random width per variable (the "random sorts" of
/// the property), drawn from a few representative bitvector widths.
#[derive(Debug, Clone, Copy)]
struct Shape {
    widths: [u32; NUM_VARS as usize],
}

impl Shape {
    fn gen(r: &mut Rng) -> Shape {
        const WIDTHS: [u32; 4] = [1, 4, 8, 13];
        Shape {
            widths: [*r.choose(&WIDTHS), *r.choose(&WIDTHS), *r.choose(&WIDTHS)],
        }
    }

    fn sorts(&self) -> impl Fn(Var) -> Option<Sort> + '_ {
        move |v: Var| (v.0 < NUM_VARS).then(|| Sort::BitVec(self.widths[v.0 as usize]))
    }
}

/// Random bitvector expressions of a fixed width. Variables of other
/// widths are adapted by extract/zero-extend so every subterm stays
/// well-sorted even though the per-variable sorts are random.
fn bv_expr(r: &mut Rng, shape: &Shape, width: u32, depth: u32) -> Expr {
    if depth == 0 || r.index(4) == 0 {
        if r.next_bool() {
            let v = Var(r.range_u32(0, NUM_VARS - 1));
            let w = shape.widths[v.0 as usize];
            let e = Expr::var(v);
            return if w == width {
                e
            } else if w > width {
                Expr::extract(width - 1, 0, e)
            } else {
                Expr::zero_extend(width - w, e)
            };
        }
        let mask = if width >= 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        };
        return Expr::bv(width, u128::from(r.next_u8()) & mask);
    }
    match r.index(2) {
        0 => {
            const OPS: [BvBinop; 7] = [
                BvBinop::Add,
                BvBinop::Sub,
                BvBinop::Mul,
                BvBinop::And,
                BvBinop::Or,
                BvBinop::Xor,
                BvBinop::Shl,
            ];
            let op = *r.choose(&OPS);
            let a = bv_expr(r, shape, width, depth - 1);
            let b = bv_expr(r, shape, width, depth - 1);
            Expr::binop(op, a, b)
        }
        _ => {
            const OPS: [BvUnop; 2] = [BvUnop::Not, BvUnop::Neg];
            let op = *r.choose(&OPS);
            Expr::unop(op, bv_expr(r, shape, width, depth - 1))
        }
    }
}

fn bool_atom(r: &mut Rng, shape: &Shape) -> Expr {
    let width = shape.widths[r.index(NUM_VARS as usize)];
    match r.index(4) {
        0 => {
            const OPS: [BvCmp; 4] = [BvCmp::Ult, BvCmp::Ule, BvCmp::Slt, BvCmp::Sle];
            let op = *r.choose(&OPS);
            let a = bv_expr(r, shape, width, 2);
            let b = bv_expr(r, shape, width, 2);
            Expr::cmp(op, a, b)
        }
        1 | 2 => {
            let a = bv_expr(r, shape, width, 2);
            let b = bv_expr(r, shape, width, 2);
            Expr::eq(a, b)
        }
        _ => Expr::bool(r.next_bool()),
    }
}

fn bool_expr(r: &mut Rng, shape: &Shape) -> Expr {
    match r.index(4) {
        0 => Expr::and(bool_atom(r, shape), bool_atom(r, shape)),
        1 => Expr::or(bool_atom(r, shape), bool_atom(r, shape)),
        2 => Expr::not(bool_atom(r, shape)),
        _ => bool_atom(r, shape),
    }
}

/// One step of a query sequence.
#[derive(Debug, Clone)]
enum Op {
    /// Push a fact into the persistent fact set.
    Push(Expr),
    /// Ask whether the current facts entail a goal.
    Entails(Expr),
    /// Check satisfiability of the current facts plus one extra literal.
    CheckSat(Expr),
}

fn script(r: &mut Rng, shape: &Shape) -> Vec<Op> {
    let len = r.range_u32(4, 10);
    (0..len)
        .map(|_| match r.index(3) {
            0 => Op::Push(bool_expr(r, shape)),
            1 => Op::Entails(bool_expr(r, shape)),
            _ => Op::CheckSat(bool_expr(r, shape)),
        })
        .collect()
}

/// Verdict-level equality: models may legitimately differ between the
/// incremental and scratch solvers (both are independently verified by
/// evaluation), so `Sat` compares as a variant; `Unknown` messages must
/// match exactly per the session's answer contract.
fn same_verdict(a: &SmtResult, b: &SmtResult) -> Result<(), String> {
    match (a, b) {
        (SmtResult::Sat(_), SmtResult::Sat(_)) | (SmtResult::Unsat, SmtResult::Unsat) => Ok(()),
        (SmtResult::Unknown(x), SmtResult::Unknown(y)) if x == y => Ok(()),
        _ => Err(format!("session answered {a:?}, scratch answered {b:?}")),
    }
}

fn run_script(cfg: &SolverConfig, ops: &[Op], shape: &Shape) -> Result<(), String> {
    let sorts = shape.sorts();
    let mut session = Session::new(cfg.clone());
    let mut facts: Vec<Expr> = Vec::new();
    for op in ops {
        match op {
            Op::Push(f) => facts.push(f.clone()),
            Op::Entails(goal) => {
                let inc = session.entails(&facts, goal, &sorts, &mut QueryCtx::default());
                let scratch = entails(&facts, goal, &sorts, cfg, &mut QueryCtx::default());
                if inc != scratch {
                    return Err(format!(
                        "entails mismatch: session={inc} scratch={scratch} facts={facts:?} goal={goal}"
                    ));
                }
            }
            Op::CheckSat(extra) => {
                let mut q = facts.clone();
                q.push(extra.clone());
                let inc = session.check_sat(&q, &sorts, &mut QueryCtx::default());
                let scratch = check_sat(&q, &sorts, cfg, &mut QueryCtx::default());
                same_verdict(&inc, &scratch).map_err(|e| format!("{e} on {q:?}"))?;
                if let SmtResult::Sat(model) = &inc {
                    let env = |v: Var| sorts(v).map(|s| model.get_or_default(v, s));
                    for a in &q {
                        if eval_bool(a, &env) != Ok(true) {
                            return Err(format!("session model fails {a}"));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Session answers ≡ scratch answers on random interleaved sequences,
/// under the default configuration.
#[test]
fn session_matches_scratch_on_random_sequences() {
    forall(
        "session_matches_scratch_on_random_sequences",
        CASES,
        |r| {
            let shape = Shape::gen(r);
            let ops = script(r, &shape);
            (shape, ops)
        },
        |(shape, ops)| match run_script(&SolverConfig::new(), ops, shape) {
            Ok(()) => TestResult::Pass,
            Err(e) => TestResult::Fail(e),
        },
    );
}

/// Same property under the paranoid configuration, which exercises the
/// proof-checking fallback path on every incremental `Unsat`.
#[test]
fn paranoid_session_matches_scratch_on_random_sequences() {
    forall(
        "paranoid_session_matches_scratch_on_random_sequences",
        CASES,
        |r| {
            let shape = Shape::gen(r);
            let ops = script(r, &shape);
            (shape, ops)
        },
        |(shape, ops)| match run_script(&SolverConfig::paranoid(), ops, shape) {
            Ok(()) => TestResult::Pass,
            Err(e) => TestResult::Fail(e),
        },
    );
}

/// The shared cache is invisible to verdicts: replaying a random query
/// sequence through a `QueryCache` (with repeats, so hits occur) gives
/// the same answers as the scratch solver.
#[test]
fn query_cache_matches_scratch_on_random_sequences() {
    forall(
        "query_cache_matches_scratch_on_random_sequences",
        CASES,
        |r| {
            let shape = Shape::gen(r);
            let qs: Vec<Vec<Expr>> = (0..r.range_u32(2, 5))
                .map(|_| {
                    (0..r.range_u32(1, 3))
                        .map(|_| bool_expr(r, &shape))
                        .collect()
                })
                .collect();
            (shape, qs)
        },
        |(shape, qs)| {
            let sorts = shape.sorts();
            let cfg = SolverConfig::new();
            let cache = QueryCache::new();
            let mut hits = 0;
            // Two passes: the second is all hits and must still agree.
            for _ in 0..2 {
                for q in qs {
                    let mut t = QueryTable::default();
                    let mut ctx = QueryCtx {
                        table: Some(&mut t),
                        cache: Some(&cache),
                        ..QueryCtx::default()
                    };
                    let cached = check_sat(q, &sorts, &cfg, &mut ctx);
                    hits += ctx.cache_metrics.hits;
                    let scratch = check_sat(q, &sorts, &cfg, &mut QueryCtx::default());
                    if let Err(e) = same_verdict(&cached, &scratch) {
                        return TestResult::Fail(format!("{e} on {q:?}"));
                    }
                }
            }
            if hits == 0 {
                return TestResult::Fail("second pass produced no cache hits".into());
            }
            TestResult::Pass
        },
    );
}
