//! The UART case study (§6: "Interaction with MMIO").
//!
//! The compiled shape of the paper's `uart1_putc`: poll the line status
//! register until the TX-empty bit is set, then write the character to the
//! IO register. The specification is the paper's `srec`/`scons` protocol
//! (encoded as the [`islaris_core::UartProtocol`] automaton): any number
//! of busy reads, then one ready read, then exactly one write of `c`.

use std::collections::BTreeMap;
use std::sync::Arc;

use islaris_asm::aarch64::{self as a64, XReg};
use islaris_asm::{Asm, Program};
use islaris_bv::Bv;
use islaris_core::{
    build, Arg, Atom, BlockAnn, Param, ProgramSpec, SpecDef, SpecTable, UartProtocol,
};
use islaris_isla::IslaConfig;
use islaris_itl::Reg;
use islaris_models::ARM;
use islaris_smt::{Expr, Sort, Var};

use crate::report::{run_case, trace_program_map, CaseArtifacts, CaseCtx, CaseOutcome, RunOpts};

/// Code base address.
pub const BASE: u64 = 0x5_0000;
/// Line status register (device address).
pub const LSR: u64 = 0x9_0050;
/// IO (transmit) register.
pub const IO: u64 = 0x9_0040;

/// Assembles the polling loop.
///
/// # Panics
///
/// Panics only on encoder bugs.
#[must_use]
pub fn program() -> Program {
    let (x0, x1, x2, x3, x4) = (XReg(0), XReg(1), XReg(2), XReg(3), XReg(4));
    let mut asm = Asm::new(BASE);
    asm.label("uart_putc");
    asm.put_all(a64::mov_imm64(x1, LSR)); //   x1 = &LSR
    asm.put_or(a64::movz(x3, 1, 0)); //        x3 = 1 (bit mask)
    asm.label("poll");
    asm.put_or(a64::ldr32_imm(x2, x1, 0)); //  w2 = *LSR
    asm.put_or(a64::lsr_imm(x2, x2, 5)); //    x2 >>= 5
    asm.put(a64::and_reg(x2, x2, x3)); //      x2 &= 1  (LSR_TX_EMPTY)
    asm.branch_to("poll", move |off| a64::cbz(x2, off)); // busy → poll
    asm.put_all(a64::mov_imm64(x4, IO)); //    x4 = &IO
    asm.put_or(a64::str32_imm(x0, x4, 0)); //  *IO = (u32) c
    asm.put(a64::ret(XReg(30)));
    asm.finish().expect("uart assembles")
}

const C: Var = Var(0);
const R: Var = Var(1);
const J1: Var = Var(2);
const J2: Var = Var(3);
const J3: Var = Var(4);
const J4: Var = Var(5);
const Q0: Var = Var(6);
const Q1: Var = Var(7);
const Q2: Var = Var(8);
const Q3: Var = Var(9);
const Q4: Var = Var(10);
const Q5: Var = Var(11);

fn mmio_atoms() -> Vec<Atom> {
    vec![
        Atom::Mmio {
            addr: LSR,
            bytes: 4,
        },
        Atom::Mmio { addr: IO, bytes: 4 },
        // The sized accesses check alignment against the configuration.
        build::field("PSTATE", "EL", Expr::bv(2, 0b10)),
        build::field("PSTATE", "SP", Expr::bv(1, 1)),
        build::reg("SCTLR_EL2", Expr::bv(64, 0)),
    ]
}

/// Builds the spec table.
#[must_use]
pub fn specs() -> SpecTable {
    let mut t = SpecTable::new();
    let mut pre = vec![
        build::reg_var("R0", C),
        build::reg_var("R1", J1),
        build::reg_var("R2", J2),
        build::reg_var("R3", J3),
        build::reg_var("R4", J4),
        build::reg_var("R30", R),
        Atom::Io(0),
        build::code_spec(Expr::var(R), "uart_post", vec![Arg::Bv(Expr::var(C))]),
    ];
    pre.extend(mmio_atoms());
    t.add(SpecDef {
        name: "uart_pre".into(),
        params: vec![
            Param::Bv(C, Sort::BitVec(64)),
            Param::Bv(R, Sort::BitVec(64)),
            Param::Bv(J1, Sort::BitVec(64)),
            Param::Bv(J2, Sort::BitVec(64)),
            Param::Bv(J3, Sort::BitVec(64)),
            Param::Bv(J4, Sort::BitVec(64)),
        ],
        atoms: pre,
    });
    // Loop invariant at `poll`: still in the polling protocol state, with
    // the device pointer and mask materialised.
    let mut inv = vec![
        build::reg_var("R0", C),
        build::reg("R1", Expr::bv(64, LSR as u128)),
        build::reg_var("R2", J2),
        build::reg("R3", Expr::bv(64, 1)),
        build::reg_var("R4", J4),
        build::reg_var("R30", R),
        Atom::Io(0),
        build::code_spec(Expr::var(R), "uart_post", vec![Arg::Bv(Expr::var(C))]),
    ];
    inv.extend(mmio_atoms());
    t.add(SpecDef {
        name: "uart_inv".into(),
        params: vec![
            Param::Bv(C, Sort::BitVec(64)),
            Param::Bv(R, Sort::BitVec(64)),
            Param::Bv(J2, Sort::BitVec(64)),
            Param::Bv(J4, Sort::BitVec(64)),
        ],
        atoms: inv,
    });
    // Postcondition: protocol completed (state 2), ownership returned.
    let mut post = vec![
        build::reg_var("R0", Q0),
        build::reg_var("R1", Q1),
        build::reg_var("R2", Q2),
        build::reg_var("R3", Q3),
        build::reg_var("R4", Q4),
        build::reg_var("R30", Q5),
        Atom::Io(2),
    ];
    post.extend(mmio_atoms());
    t.add(SpecDef {
        name: "uart_post".into(),
        params: vec![
            Param::Bv(C, Sort::BitVec(64)),
            Param::Bv(Q0, Sort::BitVec(64)),
            Param::Bv(Q1, Sort::BitVec(64)),
            Param::Bv(Q2, Sort::BitVec(64)),
            Param::Bv(Q3, Sort::BitVec(64)),
            Param::Bv(Q4, Sort::BitVec(64)),
            Param::Bv(Q5, Sort::BitVec(64)),
        ],
        atoms: post,
    });
    t
}

/// The protocol: the paper's
/// `srec(R. ∃b. scons(R(LSR,b), b[5] ? scons(W(IO,c), s) : R))` with `c`
/// the low 32 bits of the argument ghost.
#[must_use]
pub fn protocol() -> UartProtocol {
    UartProtocol {
        lsr: LSR,
        io: IO,
        c: Expr::extract(31, 0, Expr::var(C)),
    }
}

/// The Isla configuration (EL2, no alignment checking).
#[must_use]
pub fn config() -> IslaConfig {
    IslaConfig::new(ARM)
        .assume_reg("PSTATE.EL", Bv::new(2, 0b10))
        .assume_reg("PSTATE.SP", Bv::new(1, 1))
        .assume_reg("SCTLR_EL2", Bv::zero(64))
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
        program.label("uart_putc"),
        BlockAnn {
            spec: "uart_pre".into(),
            verify: true,
        },
    );
    blocks.insert(
        program.label("poll"),
        BlockAnn {
            spec: "uart_inv".into(),
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
        name: "UART",
        isa: "Arm",
        program,
        prog_spec,
        protocol: Arc::new(protocol()),
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
