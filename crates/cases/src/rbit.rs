//! The rbit case study (§6: "C inline assembly").
//!
//! A compiled C function whose body is an inline `rbit`. The trace's value
//! for the result is Isla's bit-reversal term; the specification instead
//! states the *intuitive* bit-by-bit characterisation — 64 pure equations
//! `y[i] = x[63−i]` — so the side-condition solver carries the proof,
//! reproducing the paper's observation that this case is tiny in code but
//! heavy in bitvector side conditions (its Fig. 12 row spends 73s in the
//! solver).

use std::collections::BTreeMap;
use std::sync::Arc;

use islaris_asm::aarch64::{self as a64, XReg};
use islaris_asm::{Asm, Program};
use islaris_core::{build, Arg, Atom, BlockAnn, NoIo, Param, ProgramSpec, SpecDef, SpecTable};
use islaris_isla::IslaConfig;
use islaris_itl::Reg;
use islaris_models::ARM;
use islaris_smt::{Expr, Sort, Var};

use crate::report::{
    run_case, trace_program_map_with, CaseArtifacts, CaseCtx, CaseOutcome, RunOpts,
};

/// Code base address.
pub const BASE: u64 = 0x3_0000;

/// Assembles `rbit x0, x0; ret`.
///
/// # Panics
///
/// Panics only on encoder bugs.
#[must_use]
pub fn program() -> Program {
    let mut asm = Asm::new(BASE);
    asm.label("rbit_fn");
    asm.put(a64::rbit(XReg(0), XReg(0)));
    asm.put(a64::ret(XReg(30)));
    asm.finish().expect("rbit assembles")
}

const X: Var = Var(0);
const R: Var = Var(1);
const Y: Var = Var(2);
const Q30: Var = Var(3);

/// Builds the spec table. The postcondition relates the result to the
/// argument bit by bit.
#[must_use]
pub fn specs() -> SpecTable {
    let mut t = SpecTable::new();
    t.add(SpecDef {
        name: "rbit_pre".into(),
        params: vec![
            Param::Bv(X, Sort::BitVec(64)),
            Param::Bv(R, Sort::BitVec(64)),
        ],
        atoms: vec![
            build::reg_var("R0", X),
            build::reg_var("R30", R),
            build::code_spec(Expr::var(R), "rbit_post", vec![Arg::Bv(Expr::var(X))]),
        ],
    });
    let mut post = vec![build::reg_var("R0", Y), build::reg_var("R30", Q30)];
    for i in 0..64u32 {
        post.push(Atom::Pure(Expr::eq(
            Expr::extract(i, i, Expr::var(Y)),
            Expr::extract(63 - i, 63 - i, Expr::var(X)),
        )));
    }
    t.add(SpecDef {
        name: "rbit_post".into(),
        params: vec![
            Param::Bv(X, Sort::BitVec(64)),
            Param::Bv(Y, Sort::BitVec(64)),
            Param::Bv(Q30, Sort::BitVec(64)),
        ],
        atoms: post,
    });
    t
}

/// Builds the full case study.
#[must_use]
pub fn build_case() -> CaseArtifacts {
    build_case_with(&CaseCtx::default())
}

/// [`build_case`] under an explicit build context (shared trace cache,
/// per-instruction worker count).
#[must_use]
pub fn build_case_with(ctx: &CaseCtx) -> CaseArtifacts {
    let program = program();
    let mut cfg = IslaConfig::new(ARM);
    cfg.solver.sat = ctx.sat;
    let (instrs, isla_stats, cache) = trace_program_map_with(ctx, &cfg, &program);
    let mut blocks = BTreeMap::new();
    blocks.insert(
        BASE,
        BlockAnn {
            spec: "rbit_pre".into(),
            verify: true,
        },
    );
    let prog_spec = ProgramSpec {
        pc: Reg::new(ARM.pc),
        instrs,
        blocks,
        specs: specs(),
    };
    CaseArtifacts {
        name: "rbit",
        isa: "Arm",
        program,
        prog_spec,
        protocol: Arc::new(NoIo),
        isla_stats,
        cache,
        sat: ctx.sat,
    }
}

/// Verifies the case.
#[must_use]
pub fn run() -> CaseOutcome {
    run_case(&build_case(), &RunOpts::default())
        .expect("no deadline set")
        .0
}
