//! Translation validation of the case-study binaries (§5 of the paper):
//! every instruction of the RISC-V memcpy binary — the paper's exact
//! experiment — plus the Arm side, which the paper could not do against
//! the full model but our fragment makes feasible.

use islaris_bv::Bv;
use islaris_cases::{memcpy_arm, memcpy_riscv};
use islaris_difftest::Oracle;
use islaris_isla::IslaConfig;
use islaris_models::{ARM, RISCV};

fn arm_el2_cfg() -> IslaConfig {
    IslaConfig::new(ARM)
        .assume_reg("PSTATE.EL", Bv::new(2, 2))
        .assume_reg("PSTATE.SP", Bv::new(1, 1))
        .assume_reg("SCTLR_EL2", Bv::zero(64))
}

/// The paper's §5 evaluation: all instructions of the RISC-V memcpy.
#[test]
fn riscv_memcpy_binary_validates() {
    let program = memcpy_riscv::program();
    let checks = Oracle::shipped(RISCV)
        .check_program(&IslaConfig::new(RISCV), &program.instrs, 16)
        .expect("validates");
    assert_eq!(checks, 16 * program.len() as u64);
}

/// The Arm memcpy binary (infeasible against the full Armv8-A model in
/// the paper; our fragment permits it).
#[test]
fn arm_memcpy_binary_validates() {
    let program = memcpy_arm::program();
    let checks = Oracle::shipped(ARM)
        .check_program(&arm_el2_cfg(), &program.instrs, 16)
        .expect("validates");
    assert_eq!(checks, 16 * program.len() as u64);
}

/// The binary-search binaries validate too (the paper's second §5 target
/// family).
#[test]
fn binsearch_binaries_validate() {
    let rv = islaris_cases::binsearch_riscv::program();
    Oracle::shipped(RISCV)
        .check_program(&IslaConfig::new(RISCV), &rv.instrs, 8)
        .expect("RISC-V binsearch validates");

    let arm = islaris_cases::binsearch_arm::program();
    Oracle::shipped(ARM)
        .check_program(&arm_el2_cfg(), &arm.instrs, 8)
        .expect("Arm binsearch validates");
}
