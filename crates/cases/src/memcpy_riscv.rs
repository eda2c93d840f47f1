//! The memcpy case study, RISC-V version (§2.7 and Fig. 7 column 3).
//!
//! The Clang-compiled shape: pointer-bumping rather than indexed. The loop
//! invariant expresses the copied prefix through the *remaining* count
//! (`m = n − a2`), so every parameter is inferable from registers — the
//! binding-order discipline of the Lithium-style automation.

use std::collections::BTreeMap;
use std::sync::Arc;

use islaris_asm::riscv::{self as rv, Gpr};
use islaris_asm::{Asm, Program};
use islaris_core::{
    build, Arg, Atom, BlockAnn, NoIo, Param, ProgramSpec, SeqExpr, SeqVar, SpecDef, SpecTable,
};
use islaris_isla::IslaConfig;
use islaris_itl::Reg;
use islaris_models::RISCV;
use islaris_smt::{BvCmp, Expr, Sort, Var};

use crate::report::{
    run_case, trace_program_map_with, CaseArtifacts, CaseCtx, CaseOutcome, RunOpts,
};

/// Code base address.
pub const BASE: u64 = 0x2_0000;

/// Assembles the Fig. 7 RISC-V memcpy.
///
/// # Panics
///
/// Panics only on encoder bugs (fixed program).
#[must_use]
pub fn program() -> Program {
    let (a0, a1, a2, a3) = (Gpr::A0, Gpr::A1, Gpr::A2, Gpr::A3);
    let mut asm = Asm::new(BASE);
    asm.label("memcpy");
    asm.branch_to("L2", move |off| rv::beq(a2, Gpr::ZERO, off)); // beqz a2, .L2
    asm.label("L1");
    asm.put_or(rv::lb(a3, a1, 0)); //   lb a3, 0(a1)
    asm.put_or(rv::sb(a3, a0, 0)); //   sb a3, 0(a0)
    asm.put_or(rv::addi(a2, a2, -1)); // addi a2, a2, -1
    asm.put_or(rv::addi(a0, a0, 1)); //  addi a0, a0, 1
    asm.put_or(rv::addi(a1, a1, 1)); //  addi a1, a1, 1
    asm.branch_to("L1", move |off| rv::bne(a2, Gpr::ZERO, off)); // bnez a2, .L1
    asm.label("L2");
    asm.put(rv::ret()); //               ret
    asm.finish().expect("memcpy assembles")
}

const D: Var = Var(0);
const S: Var = Var(1);
const N: Var = Var(2);
const R: Var = Var(3);
const J3: Var = Var(4);
const P0: Var = Var(5);
const P1: Var = Var(6);
const P2: Var = Var(7);
const Q0: Var = Var(11);
const Q1: Var = Var(12);
const Q2: Var = Var(13);
const Q3: Var = Var(14);
const Q5: Var = Var(16);
const BS: SeqVar = SeqVar(0);
const BD: SeqVar = SeqVar(1);
const PBS: SeqVar = SeqVar(2);
const PBD: SeqVar = SeqVar(3);

fn bv64(v: Var) -> Param {
    Param::Bv(v, Sort::BitVec(64))
}

fn post_args() -> Vec<Arg> {
    vec![
        Arg::Bv(Expr::var(S)),
        Arg::Bv(Expr::var(D)),
        Arg::Bv(Expr::var(N)),
        Arg::Seq(SeqExpr::Var(BS)),
        Arg::Seq(SeqExpr::Var(BD)),
    ]
}

/// The return address is 2-byte aligned (the paper notes this required
/// alignment for RISC-V return addresses): makes `jalr`'s `r & ~1` equal
/// to `r`.
fn ra_aligned(r: Var) -> Atom {
    Atom::Pure(Expr::eq(
        Expr::binop(islaris_smt::BvBinop::And, Expr::var(r), Expr::bv(64, 1)),
        Expr::bv(64, 0),
    ))
}

/// Copied-prefix length at the loop head: `n − a2`.
fn copied(n: Var, a2: Var) -> Expr {
    Expr::sub(Expr::var(n), Expr::var(a2))
}

/// Builds the spec table.
#[must_use]
pub fn specs() -> SpecTable {
    let mut t = SpecTable::new();
    t.add(SpecDef {
        name: "memcpy_pre".into(),
        params: vec![
            bv64(D),
            bv64(S),
            bv64(N),
            bv64(R),
            bv64(J3),
            Param::Seq(BS),
            Param::Seq(BD),
        ],
        atoms: vec![
            build::reg_var("x10", D),
            build::reg_var("x11", S),
            build::reg_var("x12", N),
            build::reg_var("x13", J3),
            build::reg_var("x1", R),
            ra_aligned(R),
            Atom::LenEq(Expr::var(N), BS),
            Atom::LenEq(Expr::var(N), BD),
            build::no_wrap_add(Expr::var(S), Expr::var(N)),
            build::no_wrap_add(Expr::var(D), Expr::var(N)),
            build::byte_array(Expr::var(S), SeqExpr::Var(BS)),
            build::byte_array(Expr::var(D), SeqExpr::Var(BD)),
            build::code_spec(Expr::var(R), "memcpy_post", post_args()),
        ],
    });
    // Invariant at .L1: registers first (bind the current values), then
    // the code spec (binds d, s, n, Bs, Bd), then the relations.
    t.add(SpecDef {
        name: "memcpy_inv".into(),
        params: vec![
            bv64(P0),
            bv64(P1),
            bv64(P2),
            bv64(R),
            bv64(J3),
            bv64(S),
            bv64(D),
            bv64(N),
            Param::Seq(BS),
            Param::Seq(BD),
        ],
        atoms: vec![
            build::reg_var("x10", P0),
            build::reg_var("x11", P1),
            build::reg_var("x12", P2),
            build::reg_var("x13", J3),
            build::reg_var("x1", R),
            build::code_spec(Expr::var(R), "memcpy_post", post_args()),
            ra_aligned(R),
            Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::bv(64, 1), Expr::var(P2))),
            Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(P2), Expr::var(N))),
            Atom::Pure(Expr::eq(
                Expr::var(P0),
                Expr::add(Expr::var(D), copied(N, P2)),
            )),
            Atom::Pure(Expr::eq(
                Expr::var(P1),
                Expr::add(Expr::var(S), copied(N, P2)),
            )),
            Atom::LenEq(Expr::var(N), BS),
            Atom::LenEq(Expr::var(N), BD),
            build::no_wrap_add(Expr::var(S), Expr::var(N)),
            build::no_wrap_add(Expr::var(D), Expr::var(N)),
            build::byte_array(Expr::var(S), SeqExpr::Var(BS)),
            build::byte_array(
                Expr::var(D),
                SeqExpr::Var(BS)
                    .take(copied(N, P2))
                    .app(SeqExpr::Var(BD).drop(copied(N, P2))),
            ),
        ],
    });
    t.add(SpecDef {
        name: "memcpy_post".into(),
        params: vec![
            bv64(S),
            bv64(D),
            bv64(N),
            Param::Seq(PBS),
            Param::Seq(PBD),
            bv64(Q0),
            bv64(Q1),
            bv64(Q2),
            bv64(Q3),
            bv64(Q5),
        ],
        atoms: vec![
            build::reg_var("x10", Q0),
            build::reg_var("x11", Q1),
            build::reg_var("x12", Q2),
            build::reg_var("x13", Q3),
            build::reg_var("x1", Q5),
            Atom::MemArray {
                addr: Expr::var(S),
                seq: SeqExpr::Var(PBS),
                elem_bytes: 1,
            },
            Atom::MemArray {
                addr: Expr::var(D),
                seq: SeqExpr::Var(PBS),
                elem_bytes: 1,
            },
            Atom::LenEq(Expr::var(N), PBS),
        ],
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
    let mut cfg = IslaConfig::new(RISCV);
    cfg.solver.sat = ctx.sat;
    let (instrs, isla_stats, cache) = trace_program_map_with(ctx, &cfg, &program);
    let mut blocks = BTreeMap::new();
    blocks.insert(
        program.label("memcpy"),
        BlockAnn {
            spec: "memcpy_pre".into(),
            verify: true,
        },
    );
    blocks.insert(
        program.label("L1"),
        BlockAnn {
            spec: "memcpy_inv".into(),
            verify: true,
        },
    );
    let prog_spec = ProgramSpec {
        pc: Reg::new(RISCV.pc),
        instrs,
        blocks,
        specs: specs(),
    };
    CaseArtifacts {
        name: "memcpy",
        isa: "RV",
        program,
        prog_spec,
        protocol: Arc::new(NoIo),
        isla_stats,
        cache,
        sat: ctx.sat,
    }
}

/// Verifies the case and returns the Fig. 12 measurements.
#[must_use]
pub fn run() -> CaseOutcome {
    run_case(&build_case(), &RunOpts::default())
        .expect("no deadline set")
        .0
}
