//! The memcpy case study, Arm version (§2.5 and Fig. 7/8 of the paper).
//!
//! The GCC-compiled shape of Fig. 7 column 2, with the Fig. 8 spec: for all
//! `d`, `s`, `n`, `Bs`, `Bd` with `|Bs| = |Bd| = n`, after the call the
//! destination holds `Bs` and control returned to `x30`. The loop invariant
//! at `.L3` is the paper's: the first `m` bytes have been copied.

use std::collections::BTreeMap;
use std::sync::Arc;

use islaris_asm::aarch64::{self as a64, XReg};
use islaris_asm::{Asm, Program};
use islaris_core::{
    build, Arg, Atom, BlockAnn, NoIo, Param, ProgramSpec, SeqExpr, SeqVar, SpecDef, SpecTable,
};
use islaris_isla::IslaConfig;
use islaris_itl::Reg;
use islaris_models::ARM;
use islaris_smt::{BvCmp, Expr, Sort, Var};

use crate::report::{
    run_case, trace_program_map_with, CaseArtifacts, CaseCtx, CaseOutcome, RunOpts,
};

/// Code base address.
pub const BASE: u64 = 0x1_0000;

/// Assembles the Fig. 7 Arm memcpy.
///
/// # Panics
///
/// Panics only on encoder bugs (fixed program).
#[must_use]
pub fn program() -> Program {
    let (x0, x1, x2, x3, x4) = (XReg(0), XReg(1), XReg(2), XReg(3), XReg(4));
    let mut asm = Asm::new(BASE);
    asm.label("memcpy");
    asm.branch_to("L1", move |off| a64::cbz(x2, off)); // cbz x2, .L1
    asm.put_or(a64::movz(x3, 0, 0)); //                   mov x3, 0
    asm.label("L3");
    asm.put(a64::ldrb_reg(x4, x1, x3)); //                ldrb w4, [x1, x3]
    asm.put(a64::strb_reg(x4, x0, x3)); //                strb w4, [x0, x3]
    asm.put_or(a64::add_imm(x3, x3, 1)); //               add x3, x3, 1
    asm.put(a64::cmp_reg(x2, x3)); //                     cmp x2, x3
    asm.branch_to("L3", |off| a64::b_cond(a64::Cond::Ne, off)); // bne .L3
    asm.label("L1");
    asm.put(a64::ret(XReg(30))); //                       ret
    asm.finish().expect("memcpy assembles")
}

// Ghost variable layout for the specs.
const D: Var = Var(0);
const S: Var = Var(1);
const N: Var = Var(2);
const R: Var = Var(3);
const M: Var = Var(4);
const J3: Var = Var(5);
const J4: Var = Var(6);
const FN: Var = Var(7);
const FZ: Var = Var(8);
const FC: Var = Var(9);
const FV: Var = Var(10);
const Q0: Var = Var(11);
const Q1: Var = Var(12);
const Q2: Var = Var(13);
const Q3: Var = Var(14);
const Q4: Var = Var(15);
const Q5: Var = Var(16);
const QN: Var = Var(17);
const QZ: Var = Var(18);
const QC: Var = Var(19);
const QV: Var = Var(20);
const BS: SeqVar = SeqVar(0);
const BD: SeqVar = SeqVar(1);
const PBS: SeqVar = SeqVar(2);

fn bv64(v: Var) -> Param {
    Param::Bv(v, Sort::BitVec(64))
}

fn flag(v: Var) -> Param {
    Param::Bv(v, Sort::BitVec(1))
}

/// The flag-register collection `reg_col(CNVZ_regs)` of Fig. 8, flattened.
fn cnvz(n: Var, z: Var, c: Var, v: Var) -> Vec<Atom> {
    vec![
        build::field("PSTATE", "N", Expr::var(n)),
        build::field("PSTATE", "Z", Expr::var(z)),
        build::field("PSTATE", "C", Expr::var(c)),
        build::field("PSTATE", "V", Expr::var(v)),
    ]
}

fn post_args() -> Vec<Arg> {
    vec![
        Arg::Bv(Expr::var(S)),
        Arg::Bv(Expr::var(D)),
        Arg::Bv(Expr::var(N)),
        Arg::Seq(SeqExpr::Var(BS)),
    ]
}

/// Builds the spec table: `memcpy_pre` (Fig. 8 precondition, annotated at
/// the entry), `memcpy_inv` (the `.L3` loop invariant), and `memcpy_post`
/// (Fig. 8 postcondition, carried via `r @@ memcpy_post(…)`).
#[must_use]
pub fn specs() -> SpecTable {
    let mut t = SpecTable::new();
    // Precondition (Fig. 8 lines 1–8).
    let mut pre = vec![
        build::reg_var("R0", D),
        build::reg_var("R1", S),
        build::reg_var("R2", N),
        build::reg_var("R3", J3),
        build::reg_var("R4", J4),
        build::reg_var("R30", R),
    ];
    pre.extend(cnvz(FN, FZ, FC, FV));
    pre.extend([
        Atom::LenEq(Expr::var(N), BS),
        Atom::LenEq(Expr::var(N), BD),
        build::no_wrap_add(Expr::var(S), Expr::var(N)),
        build::no_wrap_add(Expr::var(D), Expr::var(N)),
        build::byte_array(Expr::var(S), SeqExpr::Var(BS)),
        build::byte_array(Expr::var(D), SeqExpr::Var(BD)),
        build::code_spec(Expr::var(R), "memcpy_post", post_args()),
    ]);
    t.add(SpecDef {
        name: "memcpy_pre".into(),
        params: vec![
            bv64(D),
            bv64(S),
            bv64(N),
            bv64(R),
            bv64(J3),
            bv64(J4),
            flag(FN),
            flag(FZ),
            flag(FC),
            flag(FV),
            Param::Seq(BS),
            Param::Seq(BD),
        ],
        atoms: pre,
    });
    // Loop invariant at .L3: m bytes copied.
    let mut inv = vec![
        build::reg_var("R0", D),
        build::reg_var("R1", S),
        build::reg_var("R2", N),
        build::reg_var("R3", M),
        build::reg_var("R4", J4),
        build::reg_var("R30", R),
    ];
    inv.extend(cnvz(FN, FZ, FC, FV));
    inv.extend([
        Atom::Pure(Expr::cmp(BvCmp::Ult, Expr::var(M), Expr::var(N))),
        Atom::LenEq(Expr::var(N), BS),
        Atom::LenEq(Expr::var(N), BD),
        build::no_wrap_add(Expr::var(S), Expr::var(N)),
        build::no_wrap_add(Expr::var(D), Expr::var(N)),
        build::byte_array(Expr::var(S), SeqExpr::Var(BS)),
        build::byte_array(
            Expr::var(D),
            SeqExpr::Var(BS)
                .take(Expr::var(M))
                .app(SeqExpr::Var(BD).drop(Expr::var(M))),
        ),
        build::code_spec(Expr::var(R), "memcpy_post", post_args()),
    ]);
    t.add(SpecDef {
        name: "memcpy_inv".into(),
        params: vec![
            bv64(D),
            bv64(S),
            bv64(N),
            bv64(M),
            bv64(R),
            bv64(J4),
            flag(FN),
            flag(FZ),
            flag(FC),
            flag(FV),
            Param::Seq(BS),
            Param::Seq(BD),
        ],
        atoms: inv,
    });
    // Postcondition (Fig. 8 lines 5–8): destination holds Bs; register
    // ownership returned with arbitrary values.
    let mut post = vec![
        build::reg_var("R0", Q0),
        build::reg_var("R1", Q1),
        build::reg_var("R2", Q2),
        build::reg_var("R3", Q3),
        build::reg_var("R4", Q4),
        build::reg_var("R30", Q5),
    ];
    post.extend(cnvz(QN, QZ, QC, QV));
    post.extend([
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
    ]);
    t.add(SpecDef {
        name: "memcpy_post".into(),
        params: vec![
            bv64(S),
            bv64(D),
            bv64(N),
            Param::Seq(PBS),
            bv64(Q0),
            bv64(Q1),
            bv64(Q2),
            bv64(Q3),
            bv64(Q4),
            bv64(Q5),
            flag(QN),
            flag(QZ),
            flag(QC),
            flag(QV),
        ],
        atoms: post,
    });
    t
}

/// Builds the full case study: program, traces, annotations.
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
        program.label("memcpy"),
        BlockAnn {
            spec: "memcpy_pre".into(),
            verify: true,
        },
    );
    blocks.insert(
        program.label("L3"),
        BlockAnn {
            spec: "memcpy_inv".into(),
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
        name: "memcpy",
        isa: "Arm",
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
    let art = build_case();
    run_case(&art, &RunOpts::default())
        .expect("no deadline set")
        .0
}
