//! The pKVM exception-handler case study (§6: "Relocation-parametric
//! real-world code").
//!
//! A re-creation of the structure of pKVM's EL2 hypercall dispatch:
//!
//! * dispatch on the exception class in `ESR_EL2` and on the hypercall id
//!   in `x0`: unknown ids and non-HVC exceptions branch to the host
//!   handler, which (as in the paper) is *assumed* correct;
//! * `HVC_SOFT_RESTART` installs a caller-provided vector base and return
//!   address and `eret`s back **to EL2** (by rewriting `SPSR_EL2`);
//! * `HVC_RESET_VECTORS` restores the default vectors at a *relocation
//!   offset determined at runtime*: four `movz`/`movk` instructions whose
//!   16-bit immediates are patched at initialisation. The traces for these
//!   are generated with **symbolic immediates** (Isla's partially symbolic
//!   opcodes), so the verification covers every offset value;
//! * a system-register save/restore sweep supplies the paper's
//!   many-system-registers traffic;
//! * the final shared `eret` runs under the paper's *relaxed constraint*:
//!   `SPSR_EL2 ∈ {caller value, EL2h value}`, resolved per path by the
//!   separation-logic context.

use std::collections::BTreeMap;
use std::sync::Arc;

use islaris_asm::aarch64::{self as a64, SysReg, XReg};
use islaris_asm::{Asm, Program};
use islaris_bv::Bv;
use islaris_core::run_jobs_ok;
use islaris_core::{build, BlockAnn, NoIo, Param, ProgramSpec, SpecDef, SpecTable};
use islaris_isla::{CacheStats, IslaConfig, IslaStats, Opcode};
use islaris_itl::Reg;
use islaris_models::ARM;
use islaris_smt::{Expr, Sort, Var};

use crate::report::{run_case, CaseArtifacts, CaseCtx, CaseOutcome, RunOpts};

/// The handler entry (the vector's lower-EL synchronous slot).
pub const HANDLER: u64 = 0xA_0400;
/// The assumed-correct host handler (exit point).
pub const HOST: u64 = 0xB_0000;
/// SPSR value written by HVC_SOFT_RESTART: EL2h, DAIF masked.
pub const SPSR_EL2H: u64 = 0x3c9;
/// SPSR of the EL1 caller: EL1h, DAIF masked.
pub const SPSR_EL1H: u64 = 0x3c5;

/// EL1 registers swept by the save/restore sequence.
pub const SWEEP: &[SysReg] = &[
    SysReg::SCTLR_EL1,
    SysReg::TTBR0_EL1,
    SysReg::TTBR1_EL1,
    SysReg::TCR_EL1,
    SysReg::MAIR_EL1,
    SysReg::CPACR_EL1,
    SysReg::TPIDR_EL1,
    SysReg::TPIDR_EL0,
    SysReg::ESR_EL1,
    SysReg::FAR_EL1,
    SysReg::VBAR_EL1,
    SysReg::CONTEXTIDR_EL1,
];

/// Assembles the handler. The four relocation-patched instructions carry
/// placeholder immediates (the real traces are symbolic).
///
/// # Panics
///
/// Panics only on encoder bugs.
#[must_use]
pub fn program() -> Program {
    let (x0, x1, x2, x3) = (XReg(0), XReg(1), XReg(2), XReg(3));
    let (x10, x11, x12, x13) = (XReg(10), XReg(11), XReg(12), XReg(13));
    let mut asm = Asm::new(HANDLER);
    asm.label("el2_sync");
    // Dispatch on ESR_EL2.EC and the hypercall id.
    asm.put(a64::mrs(x10, SysReg::ESR_EL2));
    asm.put_or(a64::lsr_imm(x11, x10, 26)); //      EC
    asm.put_or(a64::cmp_imm(x11, 0x16)); //         HVC?
    asm.branch_to("host_exit", |off| a64::b_cond(a64::Cond::Ne, off));
    asm.put_or(a64::cmp_imm(x0, 1)); //             HVC_SOFT_RESTART?
    asm.branch_to("soft_restart", |off| a64::b_cond(a64::Cond::Eq, off));
    asm.put_or(a64::cmp_imm(x0, 2)); //             HVC_RESET_VECTORS?
    asm.branch_to("reset_vectors", |off| a64::b_cond(a64::Cond::Eq, off));
    asm.branch_to("host_exit", a64::b); //          other ids → host
    asm.label("soft_restart");
    asm.put(a64::msr(SysReg::VBAR_EL2, x2)); //     install caller's vectors
    asm.put(a64::msr(SysReg::ELR_EL2, x1)); //      return to caller's pc …
    asm.put_or(a64::movz(x12, SPSR_EL2H as u16, 0));
    asm.put(a64::msr(SysReg::SPSR_EL2, x12)); //    … at EL2
    asm.branch_to("common_exit", a64::b);
    asm.label("reset_vectors");
    // Relocation-patched: x3 = __hyp_vector_base (symbolic immediates).
    asm.put_or(a64::movz(x3, 0, 0));
    asm.put_or(a64::movk(x3, 0, 1));
    asm.put_or(a64::movk(x3, 0, 2));
    asm.put_or(a64::movk(x3, 0, 3));
    asm.put(a64::msr(SysReg::VBAR_EL2, x3));
    asm.branch_to("common_exit", a64::b);
    asm.label("common_exit");
    // Host EL1 system-register restore sweep.
    for reg in SWEEP {
        asm.put(a64::mrs(x13, *reg));
        asm.put(a64::msr(*reg, x13));
    }
    asm.put(a64::eret());
    asm.org(HOST);
    asm.label("host_exit");
    asm.branch_to("host_exit", a64::b); // assumed host handler
    asm.finish().expect("pkvm assembles")
}

// Relocation immediates (shared between traces and specs).
const IMM0: Var = Var(90);
const IMM1: Var = Var(91);
const IMM2: Var = Var(92);
const IMM3: Var = Var(93);

// Spec ghosts.
const ID: Var = Var(0);
const ARG1: Var = Var(1);
const ARG2: Var = Var(2);
const ELRG: Var = Var(3);
const VB: Var = Var(4);
const ESR: Var = Var(5);
const J3: Var = Var(6);
const J10: Var = Var(7);
const J11: Var = Var(8);
const J12: Var = Var(9);
const J13: Var = Var(10);
const FN: Var = Var(11);
const FZ: Var = Var(12);
const FC: Var = Var(13);
const FV: Var = Var(14);
const H0: Var = Var(30);
const HVB: Var = Var(31);
const HELR: Var = Var(32);
const HSPSR: Var = Var(33);

/// The relocated vector base: `imm3 @ imm2 @ imm1 @ imm0`.
#[must_use]
pub fn reloc_base() -> Expr {
    Expr::concat(
        Expr::var(IMM3),
        Expr::concat(
            Expr::var(IMM2),
            Expr::concat(Expr::var(IMM1), Expr::var(IMM0)),
        ),
    )
}

fn bv64(v: Var) -> Param {
    Param::Bv(v, Sort::BitVec(64))
}

fn sweep_ghost(i: usize) -> Var {
    Var(40 + i as u32)
}

/// Builds the spec table.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn specs() -> SpecTable {
    let mut t = SpecTable::new();
    let mut params = vec![
        bv64(ID),
        bv64(ARG1),
        bv64(ARG2),
        bv64(ELRG),
        bv64(VB),
        bv64(ESR),
        bv64(J3),
        bv64(J10),
        bv64(J11),
        bv64(J12),
        bv64(J13),
        Param::Bv(FN, Sort::BitVec(1)),
        Param::Bv(FZ, Sort::BitVec(1)),
        Param::Bv(FC, Sort::BitVec(1)),
        Param::Bv(FV, Sort::BitVec(1)),
        Param::Bv(IMM0, Sort::BitVec(16)),
        Param::Bv(IMM1, Sort::BitVec(16)),
        Param::Bv(IMM2, Sort::BitVec(16)),
        Param::Bv(IMM3, Sort::BitVec(16)),
    ];
    for i in 0..SWEEP.len() {
        params.push(bv64(sweep_ghost(i)));
    }
    let mut pre = vec![
        build::reg_var("R0", ID),
        build::reg_var("R1", ARG1),
        build::reg_var("R2", ARG2),
        build::reg_var("R3", J3),
        build::reg_var("R10", J10),
        build::reg_var("R11", J11),
        build::reg_var("R12", J12),
        build::reg_var("R13", J13),
        build::field("PSTATE", "N", Expr::var(FN)),
        build::field("PSTATE", "Z", Expr::var(FZ)),
        build::field("PSTATE", "C", Expr::var(FC)),
        build::field("PSTATE", "V", Expr::var(FV)),
        build::field("PSTATE", "EL", Expr::bv(2, 0b10)),
        build::field("PSTATE", "SP", Expr::bv(1, 1)),
        build::field("PSTATE", "nRW", Expr::bv(1, 0)),
        build::field("PSTATE", "D", Expr::bv(1, 1)),
        build::field("PSTATE", "A", Expr::bv(1, 1)),
        build::field("PSTATE", "I", Expr::bv(1, 1)),
        build::field("PSTATE", "F", Expr::bv(1, 1)),
        build::reg_var("ESR_EL2", ESR),
        build::reg_var("VBAR_EL2", VB),
        build::reg_var("ELR_EL2", ELRG),
        // The EL1 caller's saved state and the EL2 configuration.
        build::reg("SPSR_EL2", Expr::bv(64, SPSR_EL1H as u128)),
        build::reg("HCR_EL2", Expr::bv(64, 0x8000_0000)),
        // Continuations: the soft-restart target (EL2) and the caller (EL1).
        build::code_spec(Expr::var(ARG1), "restart_target", vec![]),
        build::code_spec(Expr::var(ELRG), "caller_resume", vec![]),
    ];
    for (i, reg) in SWEEP.iter().enumerate() {
        pre.push(build::reg_var(reg.name(), sweep_ghost(i)));
    }
    t.add(SpecDef {
        name: "pkvm_entry".into(),
        params: params.clone(),
        atoms: pre,
    });

    // HVC_SOFT_RESTART lands here: back at EL2, with the caller-supplied
    // vector base installed.
    t.add(SpecDef {
        name: "restart_target".into(),
        params: vec![bv64(H0), bv64(HVB)],
        atoms: vec![
            build::reg_var("R0", H0),
            build::reg_var("VBAR_EL2", HVB),
            build::field("PSTATE", "EL", Expr::bv(2, 0b10)),
            build::field("PSTATE", "SP", Expr::bv(1, 1)),
        ],
    });

    // HVC_RESET_VECTORS returns to the EL1 caller with the *relocated*
    // default vector base installed — for every offset value.
    t.add(SpecDef {
        name: "caller_resume".into(),
        params: vec![
            Param::Bv(IMM0, Sort::BitVec(16)),
            Param::Bv(IMM1, Sort::BitVec(16)),
            Param::Bv(IMM2, Sort::BitVec(16)),
            Param::Bv(IMM3, Sort::BitVec(16)),
            bv64(H0),
        ],
        atoms: vec![
            build::reg_var("R0", H0),
            build::reg("VBAR_EL2", reloc_base()),
            build::field("PSTATE", "EL", Expr::bv(2, 0b01)),
        ],
    });

    // The assumed host handler: any context reaching it is fine (the
    // paper assumes this sub-handler correct).
    t.add(SpecDef {
        name: "host_spec".into(),
        params: vec![bv64(H0), bv64(HELR), bv64(HSPSR)],
        atoms: vec![
            build::reg_var("R0", H0),
            build::reg_var("ELR_EL2", HELR),
            build::reg_var("SPSR_EL2", HSPSR),
        ],
    });
    t
}

/// Generates the traces: instruction-specific configurations for the
/// relocation-patched `movz`/`movk` (symbolic immediates) and the shared
/// `eret` (the relaxed SPSR constraint).
///
/// # Panics
///
/// Panics if trace generation fails.
#[must_use]
pub fn traces(program: &Program) -> (BTreeMap<u64, Arc<islaris_itl::Trace>>, IslaStats) {
    let (map, stats, _) = traces_with(&CaseCtx::default(), program);
    (map, stats)
}

/// [`traces`] under an explicit build context (shared trace cache,
/// per-instruction worker count).
///
/// # Panics
///
/// Panics if trace generation fails.
#[must_use]
pub fn traces_with(
    ctx: &CaseCtx,
    program: &Program,
) -> (
    BTreeMap<u64, Arc<islaris_itl::Trace>>,
    IslaStats,
    CacheStats,
) {
    let mut base_cfg = IslaConfig::new(ARM)
        .assume_reg("PSTATE.EL", Bv::new(2, 0b10))
        .assume_reg("PSTATE.SP", Bv::new(1, 1))
        .assume_reg("PSTATE.nRW", Bv::new(1, 0))
        .assume_reg("SCTLR_EL2", Bv::zero(64));
    base_cfg.solver.sat = ctx.sat;
    let mut eret_cfg = IslaConfig::new(ARM)
        .assume_reg("PSTATE.EL", Bv::new(2, 0b10))
        .assume_reg("PSTATE.SP", Bv::new(1, 1))
        .assume_reg("PSTATE.nRW", Bv::new(1, 0))
        .assume_reg("HCR_EL2", Bv::new(64, 0x8000_0000))
        .constrain_reg("SPSR_EL2", |e| {
            Expr::or(
                Expr::eq(e.clone(), Expr::bv(64, SPSR_EL1H as u128)),
                Expr::eq(e.clone(), Expr::bv(64, SPSR_EL2H as u128)),
            )
        });
    eret_cfg.solver.sat = ctx.sat;

    // The four patched instructions, with symbolic imm16 fields.
    // movz/movk layout: sf(1) opc(2) 100101 hw(2) imm16 Rd(5); Rd = x3.
    let patched: Vec<(u64, Expr)> = {
        let movz_high =
            |opc: u32, hw: u32| Expr::bv(11, u128::from(0b1_00_100101_00 | (opc & 0b11) << 8 | hw));
        // Bits 31..21 for movz (opc=10) and movk (opc=11), hw = 0..3.
        let mk = |opc: u32, hw: u32, imm: Var| {
            Expr::concat(
                movz_high(opc, hw),
                Expr::concat(Expr::var(imm), Expr::bv(5, 3)), // Rd = x3
            )
        };
        let base = program.label("reset_vectors");
        vec![
            (base, mk(0b10, 0, IMM0)),
            (base + 4, mk(0b11, 1, IMM1)),
            (base + 8, mk(0b11, 2, IMM2)),
            (base + 12, mk(0b11, 3, IMM3)),
        ]
    };
    let patched_addrs: Vec<u64> = patched.iter().map(|(a, _)| *a).collect();
    let eret_addr = program
        .instrs
        .iter()
        .find(|(_, op)| *op == a64::eret())
        .map(|(a, _)| *a)
        .expect("an eret in the handler");

    let start = std::time::Instant::now();
    let traced = run_jobs_ok(ctx.jobs.max(1), program.instrs.len(), |i| {
        let (addr, op) = program.instrs[i];
        let (cfg, opcode) = if let Some((_, expr)) = patched.iter().find(|(a, _)| *a == addr) {
            let imm = match patched_addrs.iter().position(|a| *a == addr) {
                Some(0) => IMM0,
                Some(1) => IMM1,
                Some(2) => IMM2,
                _ => IMM3,
            };
            (
                &base_cfg,
                Opcode::Symbolic {
                    expr: expr.clone(),
                    params: vec![(imm, Sort::BitVec(16))],
                    assumptions: vec![],
                },
            )
        } else if addr == eret_addr {
            (&eret_cfg, Opcode::Concrete(op))
        } else {
            (&base_cfg, Opcode::Concrete(op))
        };
        let r = ctx
            .trace(cfg, &opcode)
            .unwrap_or_else(|e| panic!("tracing {op:#010x} at {addr:#x}: {e}"));
        (addr, r)
    })
    .unwrap_or_else(|p| std::panic::panic_any(p.message));
    let mut map = BTreeMap::new();
    let mut stats = IslaStats::default();
    let mut cache = CacheStats::default();
    for (addr, (entry, hit)) in traced {
        stats.absorb(&entry.stats);
        if hit {
            cache.hits += 1;
        } else {
            cache.misses += 1;
        }
        map.insert(addr, entry.trace.clone());
    }
    stats.time = start.elapsed();
    (map, stats, cache)
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
    let (instrs, isla_stats, cache) = traces_with(ctx, &program);
    let mut blocks = BTreeMap::new();
    blocks.insert(
        HANDLER,
        BlockAnn {
            spec: "pkvm_entry".into(),
            verify: true,
        },
    );
    blocks.insert(
        HOST,
        BlockAnn {
            spec: "host_spec".into(),
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
        name: "pKVM",
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patched_addresses_follow_the_label() {
        let p = program();
        let (map, _) = traces(&p);
        // The four instructions at reset_vectors have parametric traces
        // (they mention the immediate variables 90..94).
        let base = p.label("reset_vectors");
        for i in 0..4u64 {
            let text = islaris_itl::print_trace(&map[&(base + 4 * i)]);
            assert!(text.contains(&format!("v{}", 90 + i)), "{text}");
        }
    }
}
