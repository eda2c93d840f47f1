//! The unaligned-access case study (§6: "Unaligned access faults").
//!
//! A misaligned `str` under an Armv8-A configuration with SCTLR_EL2.A = 1:
//! the verification proves the exception is taken to the correct vector
//! slot with the PC, PSTATE, syndrome, and fault-address registers updated
//! — entirely through the model's exception-entry path.

use std::collections::BTreeMap;
use std::sync::Arc;

use islaris_asm::aarch64::{self as a64, XReg};
use islaris_asm::{Asm, Program};
use islaris_bv::Bv;
use islaris_core::{build, Atom, BlockAnn, NoIo, Param, ProgramSpec, SpecDef, SpecTable};
use islaris_isla::IslaConfig;
use islaris_itl::Reg;
use islaris_models::ARM;
use islaris_smt::{Expr, Sort, Var};

use crate::report::{run_case, trace_program_map, CaseArtifacts, CaseCtx, CaseOutcome, RunOpts};

/// Address of the faulting store.
pub const BASE: u64 = 0x4_0000;
/// The installed vector base.
pub const VBAR: u64 = 0xA_0000;
/// Synchronous exception from the current EL with SP_ELx: vector + 0x200.
pub const HANDLER: u64 = VBAR + 0x200;

/// Assembles the single faulting instruction: `str x0, [x1]`.
///
/// # Panics
///
/// Panics only on encoder bugs.
#[must_use]
pub fn program() -> Program {
    let mut asm = Asm::new(BASE);
    asm.put_or(a64::str_imm(XReg(0), XReg(1), 0));
    asm.finish().expect("assembles")
}

const A: Var = Var(0); // the (misaligned) address
const X0: Var = Var(1);
const G1: Var = Var(2);
const G2: Var = Var(3);
const G3: Var = Var(4);
const G4: Var = Var(5);
const H0: Var = Var(6);
const HS: Var = Var(8);

fn pstate_concrete() -> Vec<Atom> {
    // The Isla configuration fixes PSTATE; the spec owns the matching
    // points-to assertions (the assume-reg obligations of Fig. 5).
    let mut v = vec![
        build::field("PSTATE", "EL", Expr::bv(2, 0b10)),
        build::field("PSTATE", "SP", Expr::bv(1, 1)),
        build::field("PSTATE", "nRW", Expr::bv(1, 0)),
    ];
    for f in ["N", "Z", "C", "V", "D", "A", "I", "F"] {
        v.push(build::field("PSTATE", f, Expr::bv(1, 0)));
    }
    v
}

/// The Isla configuration: alignment checking on, concrete PSTATE.
#[must_use]
pub fn config() -> IslaConfig {
    let mut cfg = IslaConfig::new(ARM)
        .assume_reg("PSTATE.EL", Bv::new(2, 0b10))
        .assume_reg("PSTATE.SP", Bv::new(1, 1))
        .assume_reg("PSTATE.nRW", Bv::new(1, 0))
        .assume_reg("SCTLR_EL2", Bv::new(64, 0b10))
        .assume_reg("VBAR_EL2", Bv::new(64, VBAR as u128));
    for f in ["N", "Z", "C", "V", "D", "A", "I", "F"] {
        cfg = cfg.assume_reg(&format!("PSTATE.{f}"), Bv::new(1, 0));
    }
    cfg
}

/// Builds the spec table.
#[must_use]
pub fn specs() -> SpecTable {
    let mut t = SpecTable::new();
    let mut pre = vec![
        build::reg_var("R0", X0),
        build::reg_var("R1", A),
        // The address is misaligned for an 8-byte store.
        Atom::Pure(Expr::not(Expr::eq(
            Expr::extract(2, 0, Expr::var(A)),
            Expr::bv(3, 0),
        ))),
        build::reg("SCTLR_EL2", Expr::bv(64, 0b10)),
        build::reg("VBAR_EL2", Expr::bv(64, VBAR as u128)),
        build::reg_var("SPSR_EL2", G1),
        build::reg_var("ELR_EL2", G2),
        build::reg_var("ESR_EL2", G3),
        build::reg_var("FAR_EL2", G4),
    ];
    pre.extend(pstate_concrete());
    t.add(SpecDef {
        name: "fault_pre".into(),
        params: vec![
            Param::Bv(A, Sort::BitVec(64)),
            Param::Bv(X0, Sort::BitVec(64)),
            Param::Bv(G1, Sort::BitVec(64)),
            Param::Bv(G2, Sort::BitVec(64)),
            Param::Bv(G3, Sort::BitVec(64)),
            Param::Bv(G4, Sort::BitVec(64)),
        ],
        atoms: pre,
    });
    // At the handler: syndrome/fault-address/return registers set, EL2h
    // with interrupts masked, PSTATE saved into SPSR_EL2.
    let post = vec![
        build::reg_var("R0", H0),
        // R1 still holds the faulting address; binding A here ties the
        // FAR check below to it.
        build::reg_var("R1", A),
        // ESR: data abort, same EL, alignment fault (EC=0x25, IL, DFSC=0x21).
        build::reg("ESR_EL2", Expr::bv(64, 0x9600_0021)),
        Atom::Reg(Reg::new("FAR_EL2"), Expr::var(A)),
        build::reg("ELR_EL2", Expr::bv(64, BASE as u128)),
        // SPSR captures the pre-fault PSTATE: EL2 (bits 3:2 = 10), SP = 1.
        build::reg("SPSR_EL2", Expr::bv(64, 0b1001)),
        build::field("PSTATE", "EL", Expr::bv(2, 0b10)),
        build::field("PSTATE", "SP", Expr::bv(1, 1)),
        build::field("PSTATE", "D", Expr::bv(1, 1)),
        build::field("PSTATE", "A", Expr::bv(1, 1)),
        build::field("PSTATE", "I", Expr::bv(1, 1)),
        build::field("PSTATE", "F", Expr::bv(1, 1)),
        build::reg_var("SCTLR_EL2", HS),
    ];
    t.add(SpecDef {
        name: "handler".into(),
        params: vec![
            Param::Bv(A, Sort::BitVec(64)),
            Param::Bv(H0, Sort::BitVec(64)),
            Param::Bv(HS, Sort::BitVec(64)),
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
    let cfg = config();
    let (instrs, isla_stats, cache) = trace_program_map(ctx, &cfg, &program);
    let mut blocks = BTreeMap::new();
    blocks.insert(
        BASE,
        BlockAnn {
            spec: "fault_pre".into(),
            verify: true,
        },
    );
    blocks.insert(
        HANDLER,
        BlockAnn {
            spec: "handler".into(),
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
        name: "unaligned",
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
