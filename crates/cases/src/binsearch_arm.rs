//! The binary-search case study, Arm version (§6: "Higher-order
//! reasoning").
//!
//! Binary search over a `u64` array, parametric over a comparison function
//! reached through a function pointer (`blr x3`) — the function-pointer
//! spec is an `a @@ P` assertion plus a calling convention, exactly as in
//! the paper. The verified property: the search only accesses in-bounds
//! elements, calls the comparator per its contract, leaves the array
//! intact, and returns an index `≤ n` to the caller. A concrete comparator
//! (unsigned `<`) is verified against the same contract, closing the
//! higher-order loop.
//!
//! Calling convention (hand-written code, custom contract): the comparator
//! receives the element in `x8` and the key in `x2`, returns 0/1 in `x9`,
//! preserves `x0–x7` and `x10`, and returns through `x30`.

use std::collections::BTreeMap;
use std::sync::Arc;

use islaris_asm::aarch64::{self as a64, Shift, XReg};
use islaris_asm::{Asm, Program};
use islaris_bv::Bv;
use islaris_core::{
    build, Arg, Atom, BlockAnn, NoIo, Param, ProgramSpec, SeqExpr, SeqVar, SpecDef, SpecTable,
};
use islaris_isla::IslaConfig;
use islaris_itl::Reg;
use islaris_models::ARM;
use islaris_smt::{BvBinop, BvCmp, Expr, Sort, Var};

use crate::report::{run_case, trace_program_map, CaseArtifacts, CaseCtx, CaseOutcome, RunOpts};

/// Code base address.
pub const BASE: u64 = 0x6_0000;
/// Address of the bundled comparator implementation.
pub const CMP_IMPL: u64 = 0x6_1000;

/// Assembles the binary search and the comparator.
///
/// # Panics
///
/// Panics only on encoder bugs.
#[must_use]
pub fn program() -> Program {
    let (x0, x2, x3) = (XReg(0), XReg(2), XReg(3));
    let (x4, x5, x6, x7, x8, x9, x10) = (
        XReg(4),
        XReg(5),
        XReg(6),
        XReg(7),
        XReg(8),
        XReg(9),
        XReg(10),
    );
    let mut asm = Asm::new(BASE);
    // x0 = base, x1 = n, x2 = key, x3 = cmp.
    asm.label("binsearch");
    asm.put(a64::mov_reg(x10, XReg(30))); //        save return address
    asm.put_or(a64::movz(x4, 0, 0)); //             lo = 0
    asm.put(a64::mov_reg(x5, XReg(1))); //          hi = n
    asm.label("loop");
    asm.put(a64::cmp_reg(x4, x5)); //               lo == hi?
    asm.branch_to("done", |off| a64::b_cond(a64::Cond::Eq, off));
    asm.put(a64::sub_reg(x6, x5, x4)); //           x6 = hi - lo
    asm.put_or(a64::lsr_imm(x6, x6, 1)); //         x6 >>= 1
    asm.put(a64::add_reg(x6, x4, x6)); //           mid = lo + (hi-lo)/2
    asm.put_or(a64::add_reg_shifted(x7, x0, x6, Shift::Lsl, 3)); // &base[mid]
    asm.put_or(a64::ldr_imm(x8, x7, 0)); //         elem = base[mid]
    asm.put(a64::blr(x3)); //                       x9 = cmp(elem, key)
    asm.label("ret_pt");
    asm.branch_to("lo_branch", move |off| a64::cbz(x9, off));
    asm.put(a64::mov_reg(x5, x6)); //               hi = mid
    asm.branch_to("loop", a64::b);
    asm.label("lo_branch");
    asm.put_or(a64::add_imm(x4, x6, 1)); //         lo = mid + 1
    asm.branch_to("loop", a64::b);
    asm.label("done");
    asm.put(a64::mov_reg(XReg(30), x10)); //        restore return address
    asm.put(a64::mov_reg(x0, x4)); //               result = lo
    asm.put(a64::ret(XReg(30)));
    // --- the comparator: x9 = (x8 <u x2) ? 0 : 1 ---
    asm.org(CMP_IMPL);
    asm.label("cmp_impl");
    asm.put_or(a64::movz(x9, 0, 0));
    asm.put(a64::cmp_reg(x8, x2));
    asm.branch_to("cmp_end", |off| a64::b_cond(a64::Cond::Cc, off)); // x8 <u x2
    asm.put_or(a64::movz(x9, 1, 0));
    asm.label("cmp_end");
    asm.put(a64::ret(XReg(30)));
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
// scratch / wildcard ghosts
const J6: Var = Var(11);
const J7: Var = Var(12);
const J8: Var = Var(13);
const J9: Var = Var(14);
const J30: Var = Var(15);
const FN: Var = Var(16);
const FZ: Var = Var(17);
const FC: Var = Var(18);
const FV: Var = Var(19);
const Q0: Var = Var(20);
const Q4: Var = Var(21);
const Q5: Var = Var(22);
const Q6: Var = Var(23);
const Q7: Var = Var(24);
const Q8: Var = Var(25);
const Q9: Var = Var(26);
const Q10: Var = Var(27);
const Q30: Var = Var(28);
const B: SeqVar = SeqVar(0);

fn bv64(v: Var) -> Param {
    Param::Bv(v, Sort::BitVec(64))
}

fn flag(v: Var) -> Param {
    Param::Bv(v, Sort::BitVec(1))
}

fn flags(n: Var, z: Var, c: Var, v: Var) -> Vec<Atom> {
    vec![
        build::field("PSTATE", "N", Expr::var(n)),
        build::field("PSTATE", "Z", Expr::var(z)),
        build::field("PSTATE", "C", Expr::var(c)),
        build::field("PSTATE", "V", Expr::var(v)),
    ]
}

/// Ownership of the configuration registers the sized loads consult.
fn config_atoms() -> Vec<Atom> {
    vec![
        build::field("PSTATE", "EL", Expr::bv(2, 0b10)),
        build::field("PSTATE", "SP", Expr::bv(1, 1)),
        build::reg("SCTLR_EL2", Expr::bv(64, 0)),
    ]
}

/// Size facts: `n` small enough that `base + 8·n` cannot wrap (the
/// "valid ranges of memory addresses" conditions the paper omits for
/// presentation).
fn size_facts() -> Vec<Atom> {
    vec![
        Atom::Pure(Expr::cmp(BvCmp::Ult, Expr::var(N), Expr::bv(64, 1 << 48))),
        build::no_wrap_add(
            Expr::var(BASE_V),
            Expr::binop(BvBinop::Shl, Expr::var(N), Expr::bv(64, 3)),
        ),
        Atom::LenEq(Expr::var(N), B),
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

    // Entry: AAPCS-style x0..x3 arguments, comparator spec for x3, return
    // spec for x30.
    let mut pre = vec![
        build::reg_var("R0", BASE_V),
        build::reg_var("R1", N),
        build::reg_var("R2", KEY),
        build::reg_var("R3", F),
        build::reg_var("R30", R),
        build::reg_var("R4", Q4),
        build::reg_var("R5", Q5),
        build::reg_var("R6", J6),
        build::reg_var("R7", J7),
        build::reg_var("R8", J8),
        build::reg_var("R9", J9),
        build::reg_var("R10", Q10),
        build::code_spec(Expr::var(F), "cmp_spec", vec![]),
        build::code_spec(Expr::var(R), "bs_post", post_args()),
        array_atom(),
    ];
    pre.extend(flags(FN, FZ, FC, FV));
    pre.extend(config_atoms());
    pre.extend(size_facts());
    t.add(SpecDef {
        name: "bs_pre".into(),
        params: vec![
            bv64(BASE_V),
            bv64(N),
            bv64(KEY),
            bv64(F),
            bv64(R),
            bv64(Q4),
            bv64(Q5),
            bv64(J6),
            bv64(J7),
            bv64(J8),
            bv64(J9),
            bv64(Q10),
            flag(FN),
            flag(FZ),
            flag(FC),
            flag(FV),
            Param::Seq(B),
        ],
        atoms: pre,
    });

    // Loop invariant: lo ≤ hi ≤ n.
    let mut inv = vec![
        build::reg_var("R0", BASE_V),
        build::reg_var("R2", KEY),
        build::reg_var("R3", F),
        build::reg_var("R4", LO),
        build::reg_var("R5", HI),
        build::reg_var("R10", R),
        build::reg_var("R6", J6),
        build::reg_var("R7", J7),
        build::reg_var("R8", J8),
        build::reg_var("R9", J9),
        build::reg_var("R30", J30),
        build::code_spec(Expr::var(F), "cmp_spec", vec![]),
        build::code_spec(Expr::var(R), "bs_post", post_args()),
        array_atom(),
        Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(LO), Expr::var(HI))),
        Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(HI), Expr::var(N))),
    ];
    inv.extend(flags(FN, FZ, FC, FV));
    inv.extend(config_atoms());
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
            bv64(J6),
            bv64(J7),
            bv64(J8),
            bv64(J9),
            bv64(J30),
            bv64(N),
            flag(FN),
            flag(FZ),
            flag(FC),
            flag(FV),
            Param::Seq(B),
        ],
        atoms: inv,
    });

    // The comparator contract (`x3 @@ cmp_spec`): element in x8, key in
    // x2, callee-preserved loop state, continuation at x30 (which, at the
    // call site, is the annotated `ret_pt`).
    let mut cmp = vec![
        build::reg_var("R8", E),
        build::reg_var("R2", KEY),
        build::reg_var("R30", RA),
        build::reg_var("R0", BASE_V),
        build::reg_var("R3", F),
        build::reg_var("R4", LO),
        build::reg_var("R5", HI),
        build::reg_var("R6", MID),
        build::reg_var("R7", J7),
        build::reg_var("R9", J9),
        build::reg_var("R10", R),
        build::code_spec(Expr::var(F), "cmp_spec", vec![]),
        build::code_spec(Expr::var(R), "bs_post", post_args()),
        array_atom(),
        // The loop-state facts the continuation needs (carried like a
        // closure environment).
        Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(LO), Expr::var(MID))),
        Atom::Pure(Expr::cmp(BvCmp::Ult, Expr::var(MID), Expr::var(HI))),
        Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(HI), Expr::var(N))),
        build::code_spec(Expr::var(RA), "after_cmp", vec![]),
    ];
    cmp.extend(flags(FN, FZ, FC, FV));
    cmp.extend(config_atoms());
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
            bv64(J7),
            bv64(J9),
            bv64(R),
            bv64(N),
            flag(FN),
            flag(FZ),
            flag(FC),
            flag(FV),
            Param::Seq(B),
        ],
        atoms: cmp,
    });

    // The continuation after the comparator returns (annotated at
    // `ret_pt`): result in x9 is 0 or 1, loop state intact.
    let mut after = vec![
        build::reg_var("R0", BASE_V),
        build::reg_var("R2", KEY),
        build::reg_var("R3", F),
        build::reg_var("R4", LO),
        build::reg_var("R5", HI),
        build::reg_var("R6", MID),
        build::reg_var("R7", J7),
        build::reg_var("R8", J8),
        build::reg_var("R9", RES),
        build::reg_var("R10", R),
        build::reg_var("R30", J30),
        build::code_spec(Expr::var(F), "cmp_spec", vec![]),
        build::code_spec(Expr::var(R), "bs_post", post_args()),
        array_atom(),
        Atom::Pure(Expr::cmp(BvCmp::Ult, Expr::var(RES), Expr::bv(64, 2))),
        Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(LO), Expr::var(MID))),
        Atom::Pure(Expr::cmp(BvCmp::Ult, Expr::var(MID), Expr::var(HI))),
        Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(HI), Expr::var(N))),
    ];
    after.extend(flags(FN, FZ, FC, FV));
    after.extend(config_atoms());
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
            bv64(J7),
            bv64(J8),
            bv64(RES),
            bv64(R),
            bv64(J30),
            bv64(N),
            flag(FN),
            flag(FZ),
            flag(FC),
            flag(FV),
            Param::Seq(B),
        ],
        atoms: after,
    });

    // Postcondition: an index ≤ n in x0, array intact, everything else
    // returned.
    let post = vec![
        build::reg_var("R0", Q0),
        Atom::Pure(Expr::cmp(BvCmp::Ule, Expr::var(Q0), Expr::var(N))),
        Atom::MemArray {
            addr: Expr::var(BASE_V),
            seq: SeqExpr::Var(B),
            elem_bytes: 8,
        },
        build::reg_var("R4", Q4),
        build::reg_var("R5", Q5),
        build::reg_var("R6", Q6),
        build::reg_var("R7", Q7),
        build::reg_var("R8", Q8),
        build::reg_var("R9", Q9),
        build::reg_var("R10", Q10),
        build::reg_var("R30", Q30),
    ];
    t.add(SpecDef {
        name: "bs_post".into(),
        params: vec![
            bv64(BASE_V),
            bv64(N),
            Param::Seq(B),
            bv64(Q0),
            bv64(Q4),
            bv64(Q5),
            bv64(Q6),
            bv64(Q7),
            bv64(Q8),
            bv64(Q9),
            bv64(Q10),
            bv64(Q30),
        ],
        atoms: post,
    });
    t
}

/// Builds the full case study (the comparator is verified against
/// `cmp_spec` as its own block).
#[must_use]
pub fn build_case() -> CaseArtifacts {
    build_case_with(&CaseCtx::default())
}

/// [`build_case`] under an explicit build context (shared trace cache,
/// per-instruction worker count).
#[must_use]
pub fn build_case_with(ctx: &CaseCtx) -> CaseArtifacts {
    let program = program();
    let cfg = IslaConfig::new(ARM)
        .assume_reg("PSTATE.EL", Bv::new(2, 0b10))
        .assume_reg("PSTATE.SP", Bv::new(1, 1))
        .assume_reg("SCTLR_EL2", Bv::zero(64));
    let (instrs, isla_stats, cache) = trace_program_map(ctx, &cfg, &program);
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
        pc: Reg::new(ARM.pc),
        instrs,
        blocks,
        specs: specs(),
    };
    CaseArtifacts {
        name: "bin.search",
        isa: "Arm",
        program,
        prog_spec,
        protocol: Arc::new(NoIo),
        isla_stats,
        cache,
    }
}

/// Verifies the case.
#[must_use]
pub fn run() -> CaseOutcome {
    run_case(&build_case(), &RunOpts::default())
        .expect("no deadline set")
        .0
}
