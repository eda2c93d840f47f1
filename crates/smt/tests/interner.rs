//! The interner's counters, observed from a test binary of their own.
//!
//! [`interner_stats`] reads process-global counters, so any test running
//! on a sibling thread of the same binary can intern a term between the
//! two reads below. This binary holds exactly one test, so nothing else
//! allocates terms while it measures.

use islaris_smt::{interner_stats, Expr, Var};

#[test]
fn rebuilding_an_interned_term_allocates_nothing() {
    let build = || {
        Expr::add(
            Expr::extract(63, 0, Expr::zero_extend(64, Expr::var(Var(38)))),
            Expr::bv(64, 0x40),
        )
    };
    let a = build();
    // The second build answered every constructor from the arena.
    let before = interner_stats();
    let c = build();
    let after = interner_stats();
    assert_eq!(after.0, before.0, "no new allocations for a rebuild");
    assert!(after.1 >= before.1 + 4, "rebuild hits the arena per node");
    assert_eq!(a, c);
}
