//! Pins the certificate order digest of a fixed obligation list.
//!
//! [`obligations_digest`] hashes each obligation's `{:?}` rendering, so
//! the digest line of every sealed certificate depends on the exact
//! `Debug` text of `Expr`, `LinAtom` and `LinTerm`. A change to any of
//! those renderings would silently unseal every committed certificate;
//! this test catches it with a list that mixes bitvector and linear
//! obligations (multi-variable terms, negative coefficients, constants,
//! equalities).

use islaris_core::{obligations_digest, Obligation};
use islaris_smt::lia::{IVar, LinAtom, LinTerm};
use islaris_smt::{BvCmp, Expr, Sort, Var};

fn v(i: u32) -> LinTerm {
    LinTerm::var(IVar(i))
}

fn k(c: i128) -> LinTerm {
    LinTerm::constant(c)
}

fn fixed_obligations() -> Vec<Obligation> {
    let x = Expr::var(Var(0));
    let y = Expr::var(Var(1));
    let bv64 = Sort::BitVec(64);
    vec![
        Obligation::Bv {
            facts: vec![Expr::cmp(BvCmp::Ult, x.clone(), y.clone())],
            goal: Expr::cmp(BvCmp::Ule, x.clone(), y.clone()),
            sorts: vec![(Var(0), bv64), (Var(1), bv64)],
        },
        Obligation::Lia {
            facts: vec![
                LinAtom::Le(k(0), v(0)),
                LinAtom::lt(v(0), v(1)),
                LinAtom::Eq(v(2).scale(2).sub(&v(0)), v(1).offset(-3)),
            ],
            goal: LinAtom::Le(v(0).offset(1), v(1)),
        },
        Obligation::Bv {
            facts: Vec::new(),
            goal: Expr::eq(
                Expr::add(x, Expr::bv(64, 0x40)),
                Expr::add(Expr::bv(64, 0x40), y),
            ),
            sorts: vec![(Var(0), bv64), (Var(1), bv64)],
        },
        Obligation::Lia {
            facts: vec![LinAtom::Le(v(3).scale(-7).add(&v(1)), k(12))],
            goal: LinAtom::Eq(v(1).sub(&v(1)), k(0)),
        },
        Obligation::Lia {
            facts: Vec::new(),
            goal: LinAtom::Le(k(-5), k(5)),
        },
    ]
}

#[test]
fn obligations_digest_is_pinned() {
    assert_eq!(
        obligations_digest(&fixed_obligations()),
        7_858_758_773_275_903_255
    );
}
