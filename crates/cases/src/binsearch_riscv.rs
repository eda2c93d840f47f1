//! The binary-search case study, RISC-V version (§2.7, §6).
//!
//! Same structure as the Arm version through `jalr`-based indirect calls;
//! per §2.7 the specs differ only in calling convention and the RISC-V
//! return-address alignment side condition.
//!
//! Convention: `a0` = base, `a1` = n, `a2` = key, `a3` = cmp. The
//! comparator reads the element from `t0` (x5) and the key from `a2`,
//! returns 0/1 in `t1` (x6), preserves everything else, returns via `ra`.
//! The saved caller return address lives in `t3` (x28).

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
use islaris_smt::{BvBinop, BvCmp, Expr, Sort, Var};

use crate::report::{
    run_case, trace_program_map_with, CaseArtifacts, CaseCtx, CaseOutcome, RunOpts,
};

/// Code base address.
pub const BASE: u64 = 0x7_0000;
/// Address of the bundled comparator.
pub const CMP_IMPL: u64 = 0x7_1000;

/// Assembles the binary search and the comparator.
///
/// # Panics
///
/// Panics only on encoder bugs.
#[must_use]
pub fn program() -> Program {
    let (a0, a2, a3) = (Gpr::A0, Gpr::A2, Gpr::A3);
    let (lo, hi, mid, ptr) = (Gpr(14), Gpr(15), Gpr(16), Gpr(17)); // a4,a5,a6,a7
    let (t0, t1, t3) = (Gpr(5), Gpr(6), Gpr(28));
    let mut asm = Asm::new(BASE);
    asm.label("binsearch");
    asm.put(rv::mv(t3, Gpr::RA)); //                 save ra
    asm.put_or(rv::addi(lo, Gpr::ZERO, 0)); //       lo = 0
    asm.put(rv::mv(hi, Gpr::A1)); //                 hi = n
    asm.label("loop");
    asm.branch_to("done", move |off| rv::beq(lo, hi, off));
    asm.put(rv::sub(mid, hi, lo)); //                mid = hi - lo
    asm.put_or(rv::srli(mid, mid, 1)); //            mid >>= 1
    asm.put(rv::add(mid, lo, mid)); //               mid += lo
    asm.put_or(rv::slli(ptr, mid, 3)); //            ptr = mid * 8
    asm.put(rv::add(ptr, a0, ptr)); //               ptr += base
    asm.put_or(rv::ld(t0, ptr, 0)); //               elem = *ptr
    asm.put_or(rv::jalr(Gpr::RA, a3, 0)); //         t1 = cmp(elem, key)
    asm.label("ret_pt");
    asm.branch_to("lo_branch", move |off| rv::beq(t1, Gpr::ZERO, off));
    asm.put(rv::mv(hi, mid)); //                     hi = mid
    asm.branch_to("loop", |off| rv::jal(Gpr::ZERO, off));
    asm.label("lo_branch");
    asm.put_or(rv::addi(lo, mid, 1)); //             lo = mid + 1
    asm.branch_to("loop", |off| rv::jal(Gpr::ZERO, off));
    asm.label("done");
    asm.put(rv::mv(Gpr::RA, t3)); //                 restore ra
    asm.put(rv::mv(a0, lo)); //                      result = lo
    asm.put(rv::ret());
    // --- the comparator: t1 = (t0 <u a2) ? 0 : 1 ---
    asm.org(CMP_IMPL);
    asm.label("cmp_impl");
    asm.put(rv::sltu(t1, t0, a2)); //                t1 = elem < key
    asm.put_or(rv::xori(t1, t1, 1)); //              invert
    asm.put(rv::ret());
    asm.finish().expect("binsearch assembles")
}

const BASE_V: Var = Var(0);
const N: Var = Var(1);
const KEY: Var = Var(2);
const F: Var = Var(3);
const LO: Var = Var(4);
const HI: Var = Var(5);
const MID: Var = Var(6);
const R: Var = Var(7);
const RES: Var = Var(8);
const E: Var = Var(9);
const RA: Var = Var(10);
const J16: Var = Var(11);
const J17: Var = Var(12);
const J5: Var = Var(13);
const J6: Var = Var(14);
const JRA: Var = Var(15);
const Q0: Var = Var(20);
const Q14: Var = Var(21);
const Q15: Var = Var(22);
const Q16: Var = Var(23);
const Q17: Var = Var(24);
const Q5: Var = Var(25);
const Q6: Var = Var(26);
const Q28: Var = Var(27);
const QRA: Var = Var(28);
const B: SeqVar = SeqVar(0);

fn bv64(v: Var) -> Param {
    Param::Bv(v, Sort::BitVec(64))
}

fn aligned(v: Var) -> Atom {
    Atom::Pure(Expr::eq(
        Expr::binop(BvBinop::And, Expr::var(v), Expr::bv(64, 1)),
        Expr::bv(64, 0),
    ))
}

fn size_facts() -> Vec<Atom> {
    vec![
        Atom::Pure(Expr::cmp(BvCmp::Ult, Expr::var(N), Expr::bv(64, 1 << 48))),
        build::no_wrap_add(
            Expr::var(BASE_V),
            Expr::binop(BvBinop::Shl, Expr::var(N), Expr::bv(64, 3)),
        ),
        Atom::LenEq(Expr::var(N), B),
        aligned(R),
        aligned(F),
    ]
}

fn post_args() -> Vec<Arg> {
    vec![
        Arg::Bv(Expr::var(BASE_V)),
        Arg::Bv(Expr::var(N)),
        Arg::Seq(SeqExpr::Var(B)),
    ]
}

fn array_atom() -> Atom {
    Atom::MemArray {
        addr: Expr::var(BASE_V),
        seq: SeqExpr::Var(B),
        elem_bytes: 8,
    }
}

/// Builds the spec table.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn specs() -> SpecTable {
    let mut t = SpecTable::new();
    let mut pre = vec![
        build::reg_var("x10", BASE_V),
        build::reg_var("x11", N),
        build::reg_var("x12", KEY),
        build::reg_var("x13", F),
        build::reg_var("x1", R),
        build::reg_var("x14", Q14),
        build::reg_var("x15", Q15),
        build::reg_var("x16", J16),
        build::reg_var("x17", J17),
        build::reg_var("x5", J5),
        build::reg_var("x6", J6),
        build::reg_var("x28", Q28),
        build::code_spec(Expr::var(F), "cmp_spec", vec![]),
        build::code_spec(Expr::var(R), "bs_post", post_args()),
        array_atom(),
    ];
    pre.extend(size_facts());
    t.add(SpecDef {
        name: "bs_pre".into(),
        params: vec![
            bv64(BASE_V),
            bv64(N),
            bv64(KEY),
            bv64(F),
            bv64(R),
            bv64(Q14),
            bv64(Q15),
            bv64(J16),
            bv64(J17),
            bv64(J5),
            bv64(J6),
            bv64(Q28),
            Param::Seq(B),
        ],
        atoms: pre,
    });

    let mut inv = vec![
        build::reg_var("x10", BASE_V),
        build::reg_var("x12", KEY),
        build::reg_var("x13", F),
        build::reg_var("x14", LO),
        build::reg_var("x15", HI),
        build::reg_var("x28", R),
        build::reg_var("x16", J16),
        build::reg_var("x17", J17),
        build::reg_var("x5", J5),
        build::reg_var("x6", J6),
        build::reg_var("x1", JRA),
        build::code_spec(Expr::var(F), "cmp_spec", vec![]),
        build::code_spec(Expr::var(R), "bs_post", post_args()),
        array_atom(),
        Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(LO), Expr::var(HI))),
        Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(HI), Expr::var(N))),
    ];
    inv.extend(size_facts());
    t.add(SpecDef {
        name: "bs_inv".into(),
        params: vec![
            bv64(BASE_V),
            bv64(KEY),
            bv64(F),
            bv64(LO),
            bv64(HI),
            bv64(R),
            bv64(J16),
            bv64(J17),
            bv64(J5),
            bv64(J6),
            bv64(JRA),
            bv64(N),
            Param::Seq(B),
        ],
        atoms: inv,
    });

    let mut cmp = vec![
        build::reg_var("x5", E),
        build::reg_var("x12", KEY),
        build::reg_var("x1", RA),
        build::reg_var("x10", BASE_V),
        build::reg_var("x13", F),
        build::reg_var("x14", LO),
        build::reg_var("x15", HI),
        build::reg_var("x16", MID),
        build::reg_var("x17", J17),
        build::reg_var("x6", J6),
        build::reg_var("x28", R),
        build::code_spec(Expr::var(F), "cmp_spec", vec![]),
        build::code_spec(Expr::var(R), "bs_post", post_args()),
        array_atom(),
        Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(LO), Expr::var(MID))),
        Atom::Pure(Expr::cmp(BvCmp::Ult, Expr::var(MID), Expr::var(HI))),
        Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(HI), Expr::var(N))),
        build::code_spec(Expr::var(RA), "after_cmp", vec![]),
        // The callee returns through `ra & ~1`; alignment makes that `ra`.
        aligned(RA),
    ];
    cmp.extend(size_facts());
    t.add(SpecDef {
        name: "cmp_spec".into(),
        params: vec![
            bv64(E),
            bv64(KEY),
            bv64(RA),
            bv64(BASE_V),
            bv64(F),
            bv64(LO),
            bv64(HI),
            bv64(MID),
            bv64(J17),
            bv64(J6),
            bv64(R),
            bv64(N),
            Param::Seq(B),
        ],
        atoms: cmp,
    });

    let mut after = vec![
        build::reg_var("x10", BASE_V),
        build::reg_var("x12", KEY),
        build::reg_var("x13", F),
        build::reg_var("x14", LO),
        build::reg_var("x15", HI),
        build::reg_var("x16", MID),
        build::reg_var("x17", J17),
        build::reg_var("x5", J5),
        build::reg_var("x6", RES),
        build::reg_var("x28", R),
        build::reg_var("x1", JRA),
        build::code_spec(Expr::var(F), "cmp_spec", vec![]),
        build::code_spec(Expr::var(R), "bs_post", post_args()),
        array_atom(),
        Atom::Pure(Expr::cmp(BvCmp::Ult, Expr::var(RES), Expr::bv(64, 2))),
        Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(LO), Expr::var(MID))),
        Atom::Pure(Expr::cmp(BvCmp::Ult, Expr::var(MID), Expr::var(HI))),
        Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(HI), Expr::var(N))),
    ];
    after.extend(size_facts());
    t.add(SpecDef {
        name: "after_cmp".into(),
        params: vec![
            bv64(BASE_V),
            bv64(KEY),
            bv64(F),
            bv64(LO),
            bv64(HI),
            bv64(MID),
            bv64(J17),
            bv64(J5),
            bv64(RES),
            bv64(R),
            bv64(JRA),
            bv64(N),
            Param::Seq(B),
        ],
        atoms: after,
    });

    let post = vec![
        build::reg_var("x10", Q0),
        Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(Q0), Expr::var(N))),
        Atom::MemArray {
            addr: Expr::var(BASE_V),
            seq: SeqExpr::Var(B),
            elem_bytes: 8,
        },
        build::reg_var("x14", Q14),
        build::reg_var("x15", Q15),
        build::reg_var("x16", Q16),
        build::reg_var("x17", Q17),
        build::reg_var("x5", Q5),
        build::reg_var("x6", Q6),
        build::reg_var("x28", Q28),
        build::reg_var("x1", QRA),
    ];
    t.add(SpecDef {
        name: "bs_post".into(),
        params: vec![
            bv64(BASE_V),
            bv64(N),
            Param::Seq(B),
            bv64(Q0),
            bv64(Q14),
            bv64(Q15),
            bv64(Q16),
            bv64(Q17),
            bv64(Q5),
            bv64(Q6),
            bv64(Q28),
            bv64(QRA),
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
    let mut cfg = IslaConfig::new(RISCV);
    cfg.solver.sat = ctx.sat;
    let (instrs, isla_stats, cache) = trace_program_map_with(ctx, &cfg, &program);
    let mut blocks = BTreeMap::new();
    blocks.insert(
        program.label("binsearch"),
        BlockAnn {
            spec: "bs_pre".into(),
            verify: true,
        },
    );
    blocks.insert(
        program.label("loop"),
        BlockAnn {
            spec: "bs_inv".into(),
            verify: true,
        },
    );
    blocks.insert(
        program.label("ret_pt"),
        BlockAnn {
            spec: "after_cmp".into(),
            verify: true,
        },
    );
    blocks.insert(
        program.label("cmp_impl"),
        BlockAnn {
            spec: "cmp_spec".into(),
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
        name: "bin.search",
        isa: "RV",
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
