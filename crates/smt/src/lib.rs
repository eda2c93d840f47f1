//! SMT infrastructure for the Islaris pipeline.
//!
//! This crate plays the role Z3 plays in the original Isla/Islaris system:
//!
//! * [`expr`] — the SMT-LIB-style expression language of Isla traces
//!   (Fig. 4 of the paper), with sorts, substitution and pretty-printing
//!   in Isla's concrete syntax;
//! * [`eval()`] — big-step evaluation (`e ↓ v`);
//! * [`simplify()`] — a semantics-preserving rewriting simplifier;
//! * [`sat`] — a CDCL SAT solver with RUP proof logging and one search
//!   loop, `SatSolver::solve`, which takes optional assumption literals;
//! * [`cnf`] — Tseitin bit-blasting of expressions to CNF, with one
//!   effort snapshot (`Blaster::effort`) for CNF size and search counters;
//! * [`solver`] — the query facade ([`check_sat`], [`entails`], each
//!   taking a [`QueryCtx`] of optional sinks) with checked models and
//!   optionally checked refutation proofs;
//! * [`session`] — incremental solving sessions (facts encoded once,
//!   clauses retained across queries, the verdict concluded by the same
//!   step as a from-scratch query) and the shared sound query cache;
//! * [`lia`] — linear integer arithmetic for sequence-index reasoning.
//!
//! # Examples
//!
//! ```
//! use islaris_smt::{entails, Expr, QueryCtx, SolverConfig, Sort, Var};
//!
//! let sorts = |v: Var| (v.0 == 0).then_some(Sort::BitVec(64));
//! let x = Expr::var(Var(0));
//! // x + 1 = 5 entails x = 4.
//! let fact = Expr::eq(Expr::add(x.clone(), Expr::bv(64, 1)), Expr::bv(64, 5));
//! let goal = Expr::eq(x, Expr::bv(64, 4));
//! let mut ctx = QueryCtx::default();
//! assert!(entails(&[fact], &goal, &sorts, &SolverConfig::new(), &mut ctx));
//! assert_eq!(ctx.metrics.queries, 1);
//! ```

pub mod cnf;
pub mod eval;
pub mod expr;
pub mod lia;
pub mod sat;
pub mod session;
pub mod simplify;
pub mod solver;
pub mod store;

pub use eval::{eval, eval_bits, eval_bool, EvalError};
pub use expr::{
    interner_stats, BvBinop, BvCmp, BvUnop, Expr, ExprKind, Sort, SortError, Value, Var, VarGen,
};
pub use sat::RupProof;
pub use sat::SAT_IDENTITY;
pub use session::{QueryCache, Session};
pub use simplify::{
    propagate_constants, simplify, simplify_with, width_of, width_of_with, WidthOracle,
};
pub use solver::{
    check_sat, entails, entails_proof, entails_via_proof, query_digest, Model, QueryCtx, SmtResult,
    SolverConfig,
};
pub use store::{QueryStore, QUERY_MAGIC};

/// Re-export of the shared solver-counter records, so downstream crates
/// can name them without depending on `islaris-obs` directly.
pub use islaris_obs::{CacheMetrics, QueryStats, QueryTable, SessionMetrics, SolverMetrics};
