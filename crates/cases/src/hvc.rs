//! The hvc case study (§2.6 and Fig. 9 of the paper).
//!
//! Hand-written assembly that installs an exception vector table at EL2,
//! configures and drops to EL1, performs a hypervisor call handled at the
//! vector's lower-EL synchronous slot, and returns. The verified property
//! is the paper's: upon reaching the hang at `enter_el1 + 8`, `x0 = 42`.
//!
//! The Isla configuration leaves PSTATE unconstrained (the program changes
//! exception level at runtime), so the traces carry the full EL case
//! splits, pruned during verification by the concrete context — exactly
//! why this case's ITL size is large relative to its 13 instructions in
//! Fig. 12.

use std::collections::BTreeMap;
use std::sync::Arc;

use islaris_asm::aarch64::{self as a64, SysReg, XReg};
use islaris_asm::{Asm, Program};
use islaris_core::{build, BlockAnn, NoIo, Param, ProgramSpec, SpecDef, SpecTable};
use islaris_isla::IslaConfig;
use islaris_itl::Reg;
use islaris_models::ARM;
use islaris_smt::{Expr, Sort, Var};

use crate::report::{
    run_case, trace_program_map_with, CaseArtifacts, CaseCtx, CaseOutcome, RunOpts,
};

/// `_start` (initialisation at EL2), per Fig. 9's `.org 0x80000`.
pub const START: u64 = 0x8_0000;
/// `enter_el1`.
pub const ENTER_EL1: u64 = 0x9_0000;
/// The exception vector table base.
pub const VECTOR: u64 = 0xA_0000;
/// Synchronous, lower EL, AArch64: vector + 0x400.
pub const HVC_SLOT: u64 = VECTOR + 0x400;
/// The hang (`b .`) whose spec is `x0 = 42`.
pub const HANG: u64 = ENTER_EL1 + 8;

/// Assembles the Fig. 9 program.
///
/// # Panics
///
/// Panics only on encoder bugs.
#[must_use]
pub fn program() -> Program {
    let x0 = XReg(0);
    let mut asm = Asm::new(START);
    // *** initialisation at EL2 ***
    asm.put_all(a64::mov_imm64(x0, VECTOR)); //     mov x0, 0xa0000
    asm.put(a64::msr(SysReg::VBAR_EL2, x0)); //     msr vbar_el2, x0
    asm.put_all(a64::mov_imm64(x0, 0x8000_0000)); // hypervisor config: aarch64 at EL1
    asm.put(a64::msr(SysReg::HCR_EL2, x0)); //      msr hcr_el2, x0
    asm.put_all(a64::mov_imm64(x0, 0x3c4)); //      EL1 config (SP_EL0, no interrupts)
    asm.put(a64::msr(SysReg::SPSR_EL2, x0)); //     msr spsr_el2, x0
    asm.put_all(a64::mov_imm64(x0, ENTER_EL1)); //  EL1 start address
    asm.put(a64::msr(SysReg::ELR_EL2, x0)); //      msr elr_el2, x0
    asm.put(a64::eret()); //                        "exception return"
                          // *** calling the vector from EL1 ***
    asm.org(ENTER_EL1);
    asm.put_or(a64::movz(x0, 0, 0)); //             zero x0
    asm.put(a64::hvc(0)); //                        hypervisor call
    asm.label("hang");
    asm.branch_to("hang", a64::b); //               b . (hang forever)
                                   // *** the exception vector table (lower-EL synchronous slot) ***
    asm.org(HVC_SLOT);
    asm.put_or(a64::movz(x0, 42, 0)); //            mov x0, 42
    asm.put(a64::eret()); //                        return from exception
    asm.finish().expect("hvc program assembles")
}

const X0: Var = Var(0);
const GV: Var = Var(1);
const GH: Var = Var(2);
const GS: Var = Var(3);
const GE: Var = Var(4);
const GESR: Var = Var(5);
const GFAR: Var = Var(6);
const FN: Var = Var(7);
const FZ: Var = Var(8);
const FC: Var = Var(9);
const FV: Var = Var(10);
const H0: Var = Var(11);

/// Builds the spec table: the entry precondition owns the system state;
/// the hang exit point requires `x0 = 42`.
#[must_use]
pub fn specs() -> SpecTable {
    let mut t = SpecTable::new();
    let mut pre = vec![
        build::reg_var("R0", X0),
        build::reg_var("VBAR_EL2", GV),
        build::reg_var("HCR_EL2", GH),
        build::reg_var("SPSR_EL2", GS),
        build::reg_var("ELR_EL2", GE),
        build::reg_var("ESR_EL2", GESR),
        build::reg_var("FAR_EL2", GFAR),
        // Initial machine configuration: EL2h, AArch64.
        build::field("PSTATE", "EL", Expr::bv(2, 0b10)),
        build::field("PSTATE", "SP", Expr::bv(1, 1)),
        build::field("PSTATE", "nRW", Expr::bv(1, 0)),
        build::field("PSTATE", "D", Expr::bv(1, 1)),
        build::field("PSTATE", "A", Expr::bv(1, 1)),
        build::field("PSTATE", "I", Expr::bv(1, 1)),
        build::field("PSTATE", "F", Expr::bv(1, 1)),
        build::field("PSTATE", "N", Expr::var(FN)),
        build::field("PSTATE", "Z", Expr::var(FZ)),
        build::field("PSTATE", "C", Expr::var(FC)),
        build::field("PSTATE", "V", Expr::var(FV)),
    ];
    pre.shrink_to_fit();
    t.add(SpecDef {
        name: "hvc_entry".into(),
        params: vec![
            Param::Bv(X0, Sort::BitVec(64)),
            Param::Bv(GV, Sort::BitVec(64)),
            Param::Bv(GH, Sort::BitVec(64)),
            Param::Bv(GS, Sort::BitVec(64)),
            Param::Bv(GE, Sort::BitVec(64)),
            Param::Bv(GESR, Sort::BitVec(64)),
            Param::Bv(GFAR, Sort::BitVec(64)),
            Param::Bv(FN, Sort::BitVec(1)),
            Param::Bv(FZ, Sort::BitVec(1)),
            Param::Bv(FC, Sort::BitVec(1)),
            Param::Bv(FV, Sort::BitVec(1)),
        ],
        atoms: pre,
    });
    // The paper's claim: on reaching the hang, x0 = 42. (The hang also
    // still runs at EL1 with the vector installed.)
    t.add(SpecDef {
        name: "hang_spec".into(),
        params: vec![Param::Bv(H0, Sort::BitVec(64))],
        atoms: vec![
            build::reg("R0", Expr::bv(64, 42)),
            build::field("PSTATE", "EL", Expr::bv(2, 0b01)),
            build::reg("VBAR_EL2", Expr::bv(64, VECTOR as u128)),
        ],
    });
    t
}

/// Builds the full case study. The single verified block runs from
/// `_start` through the eret, the EL1 code, the hypervisor call, the
/// handler, and the final exception return — 13 instructions, no
/// intermediate annotations.
#[must_use]
pub fn build_case() -> CaseArtifacts {
    build_case_with(&CaseCtx::default())
}

/// [`build_case`] under an explicit build context (shared trace cache,
/// per-instruction worker count).
#[must_use]
pub fn build_case_with(ctx: &CaseCtx) -> CaseArtifacts {
    let program = program();
    // Unconstrained configuration: the program changes EL at runtime.
    let mut cfg = IslaConfig::new(ARM);
    cfg.solver.sat = ctx.sat;
    let (instrs, isla_stats, cache) = trace_program_map_with(ctx, &cfg, &program);
    let mut blocks = BTreeMap::new();
    blocks.insert(
        START,
        BlockAnn {
            spec: "hvc_entry".into(),
            verify: true,
        },
    );
    blocks.insert(
        HANG,
        BlockAnn {
            spec: "hang_spec".into(),
            verify: false,
        },
    );
    let prog_spec = ProgramSpec {
        pc: Reg::new(ARM.pc),
        instrs,
        blocks,
        specs: specs(),
    };
    CaseArtifacts {
        name: "hvc",
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
