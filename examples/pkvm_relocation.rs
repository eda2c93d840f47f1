//! The pKVM example (§6): relocation-parametric verification.
//!
//! Shows the partially-symbolic traces of the four patched `movz`/`movk`
//! instructions, verifies the handler *for every relocation offset*, and
//! then executes it concretely at one particular offset to watch the
//! verified claim hold.
//!
//! Run with: `cargo run --release --example pkvm_relocation`

use islaris::logic::{adequacy, NoIo};
use islaris_bv::Bv;
use islaris_cases::pkvm;
use islaris_itl::{print_trace, Reg, Stop, ZeroIo};
use islaris_smt::Value;

fn main() {
    let art = pkvm::build_case();
    let program = &art.program;
    println!(
        "pKVM handler: {} instructions, {} trace events",
        program.len(),
        art.prog_spec
            .instrs
            .values()
            .map(|t| t.event_count())
            .sum::<usize>()
    );
    // Show a parametric trace: the first patched movz.
    let reset = program.label("reset_vectors");
    println!(
        "\nparametric trace of the patched movz (imm16 = v90, free):\n{}\n",
        print_trace(&art.prog_spec.instrs[&reset]).replace(") (", ")\n (")
    );
    let (outcome, _) =
        islaris_cases::run_case(&art, &islaris_cases::RunOpts::default()).expect("no deadline set");
    println!(
        "verified for ALL 2^64 relocation offsets in {:?} ({} obligations)",
        outcome.verify_time, outcome.obligations
    );

    // Execute HVC_RESET_VECTORS concretely at one offset. The patched
    // instructions get their concrete opcodes for this offset.
    let offset: u64 = 0xffff_8000_1234_0000;
    let mut instrs = art.prog_spec.instrs.clone();
    {
        use islaris_asm::aarch64 as a64;
        use islaris_isla::{trace_opcode, IslaConfig, Opcode};
        use islaris_models::ARM;
        let x3 = islaris_asm::aarch64::XReg(3);
        let cfg = IslaConfig::new(ARM);
        let parts: Vec<u16> = (0..4).map(|i| (offset >> (16 * i)) as u16).collect();
        let concrete = [
            a64::movz(x3, parts[0], 0).unwrap(),
            a64::movk(x3, parts[1], 1).unwrap(),
            a64::movk(x3, parts[2], 2).unwrap(),
            a64::movk(x3, parts[3], 3).unwrap(),
        ];
        for (i, op) in concrete.iter().enumerate() {
            let t = trace_opcode(&cfg, &Opcode::Concrete(*op)).unwrap();
            instrs.insert(reset + 4 * i as u64, std::sync::Arc::new(t.trace));
        }
    }
    let mut regs = vec![
        (Reg::new("R0"), Bv::new(64, 2)), // HVC_RESET_VECTORS
        (Reg::new("_PC"), Bv::new(64, pkvm::HANDLER as u128)),
        (Reg::new("ESR_EL2"), Bv::new(64, 0x5A00_0000)), // EC = HVC
        (Reg::new("SPSR_EL2"), Bv::new(64, pkvm::SPSR_EL1H as u128)),
        (Reg::new("ELR_EL2"), Bv::new(64, 0xcafe_0000)),
        (Reg::new("HCR_EL2"), Bv::new(64, 0x8000_0000)),
        (Reg::new("VBAR_EL2"), Bv::zero(64)),
        (Reg::field("PSTATE", "EL"), Bv::new(2, 0b10)),
        (Reg::field("PSTATE", "SP"), Bv::new(1, 1)),
        (Reg::field("PSTATE", "nRW"), Bv::zero(1)),
    ];
    for r in ["R1", "R2", "R3", "R10", "R11", "R12", "R13"] {
        regs.push((Reg::new(r), Bv::zero(64)));
    }
    for f in ["N", "Z", "C", "V"] {
        regs.push((Reg::field("PSTATE", f), Bv::zero(1)));
    }
    for f in ["D", "A", "I", "F"] {
        regs.push((Reg::field("PSTATE", f), Bv::new(1, 1)));
    }
    for sr in pkvm::SWEEP {
        regs.push((Reg::new(sr.name()), Bv::new(64, 0x1111)));
    }
    let mut machine = adequacy::machine(&regs, &instrs, &[]);
    let result = adequacy::check(&mut machine, &Reg::new("_PC"), &mut ZeroIo, &NoIo, 0, 200);
    assert!(result.no_bottom, "{:?}", result.run.stop);
    assert_eq!(
        result.run.stop,
        Stop::End(0xcafe_0000),
        "eret back to the caller"
    );
    assert_eq!(
        machine.reg(&Reg::new("VBAR_EL2")),
        Some(Value::Bits(Bv::new(64, u128::from(offset)))),
        "the relocated vector base was installed"
    );
    assert_eq!(
        machine.reg(&Reg::field("PSTATE", "EL")),
        Some(Value::Bits(Bv::new(2, 0b01))),
        "returned to EL1"
    );
    println!(
        "executed HVC_RESET_VECTORS at offset {offset:#x}: vectors installed, \
         returned to the EL1 caller — the instance of the parametric theorem"
    );
}
