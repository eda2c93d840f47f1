//! Timing probe for the checked-solve pipeline on the 64-bit ult
//! transitivity query: solve / trim (hinted vs search) / hinted check /
//! search check, printed for eyeballing where the time goes. Ignored by
//! default — run with `cargo test --release -p islaris-smt --test
//! trim_probe -- --ignored --nocapture`. The EXPERIMENTS.md PR 10
//! numbers come from here.
use std::time::Instant;

use islaris_smt::cnf::Blaster;
use islaris_smt::sat::{check_rup_proof, trim_proof, SatOutcome};
use islaris_smt::{BvCmp, Expr, Sort, Var};

#[test]
#[ignore]
fn trim_split() {
    let x = Expr::var(Var(0));
    let y = Expr::var(Var(1));
    let z = Expr::var(Var(2));
    let sorts = |_: Var| Some(Sort::BitVec(64));
    let mut b = Blaster::new();
    b.assert_expr(&Expr::cmp(BvCmp::Ult, x.clone(), y.clone()), &sorts)
        .unwrap();
    b.assert_expr(&Expr::cmp(BvCmp::Ult, y.clone(), z.clone()), &sorts)
        .unwrap();
    b.assert_expr(&Expr::not(Expr::cmp(BvCmp::Ult, x, z)), &sorts)
        .unwrap();
    let t0 = Instant::now();
    let out = b.solve(&[], u64::MAX);
    let t_solve = t0.elapsed();
    let Some(SatOutcome::Unsat(Some(proof))) = out else {
        panic!("expected unsat")
    };
    let nv = b.sat_num_vars();
    let db = b.sat_original_clauses();
    eprintln!(
        "solve {t_solve:?}; {} original clauses; proof clauses {} total lits {}",
        db.len(),
        proof.clauses.len(),
        proof.clauses.iter().map(Vec::len).sum::<usize>()
    );
    eprintln!(
        "hinted={} hint entries total {} max {}",
        proof.is_hinted(),
        proof.hints.iter().map(Vec::len).sum::<usize>(),
        proof.hints.iter().map(Vec::len).max().unwrap_or(0)
    );
    let t1 = Instant::now();
    let trimmed = trim_proof(nv, db, &proof).unwrap();
    let t_trim = t1.elapsed();
    let t1b = Instant::now();
    let trimmed_unhinted = trim_proof(nv, db, &proof.strip_hints()).unwrap();
    let t_trim_unhinted = t1b.elapsed();
    assert_eq!(trimmed_unhinted.clauses.len(), trimmed.clauses.len());
    eprintln!("trim hinted {t_trim:?} vs unhinted {t_trim_unhinted:?}");
    let t2 = Instant::now();
    assert!(check_rup_proof(nv, db, &trimmed));
    let t_hinted = t2.elapsed();
    let t3 = Instant::now();
    assert!(check_rup_proof(nv, db, &trimmed.strip_hints()));
    let t_search = t3.elapsed();
    let t4 = Instant::now();
    assert!(check_rup_proof(nv, db, &proof));
    let t_full = t4.elapsed();
    eprintln!(
        "trimmed to {} clauses; trim {t_trim:?} hinted-check {t_hinted:?} \
         search-check-trimmed {t_search:?} full-check-untrimmed {t_full:?}",
        trimmed.clauses.len()
    );
}
