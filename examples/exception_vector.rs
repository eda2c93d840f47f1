//! The Fig. 9 systems-code example (§2.6): install an exception vector at
//! EL2, drop to EL1, take a hypervisor call, and return — verified, then
//! executed concretely.
//!
//! Run with: `cargo run --release --example exception_vector`

use islaris::logic::{adequacy, NoIo};
use islaris_bv::Bv;
use islaris_cases::hvc;
use islaris_itl::{Reg, Stop, ZeroIo};
use islaris_smt::Value;

fn main() {
    let art = hvc::build_case();
    println!(
        "hvc program: {} instructions across _start/enter_el1/vector, {} trace events",
        art.program.len(),
        art.prog_spec
            .instrs
            .values()
            .map(|t| t.event_count())
            .sum::<usize>()
    );
    let (outcome, _) =
        islaris_cases::run_case(&art, &islaris_cases::RunOpts::default()).expect("no deadline set");
    println!(
        "verified: reaching the hang implies x0 = 42 at EL1 \
         ({:?} automation, {} obligations)",
        outcome.verify_time, outcome.obligations
    );

    // Execute from _start with the same initial configuration the spec
    // assumes: EL2h, AArch64, interrupts masked.
    let mut regs = vec![
        (Reg::new("R0"), Bv::zero(64)),
        (Reg::new("_PC"), Bv::new(64, hvc::START as u128)),
        (Reg::field("PSTATE", "EL"), Bv::new(2, 0b10)),
        (Reg::field("PSTATE", "SP"), Bv::new(1, 1)),
        (Reg::field("PSTATE", "nRW"), Bv::zero(1)),
    ];
    for f in ["D", "A", "I", "F"] {
        regs.push((Reg::field("PSTATE", f), Bv::new(1, 1)));
    }
    for f in ["N", "Z", "C", "V"] {
        regs.push((Reg::field("PSTATE", f), Bv::zero(1)));
    }
    for r in [
        "VBAR_EL2", "HCR_EL2", "SPSR_EL2", "ELR_EL2", "ESR_EL2", "FAR_EL2",
    ] {
        regs.push((Reg::new(r), Bv::zero(64)));
    }
    let mut machine = adequacy::machine(&regs, &art.prog_spec.instrs, &[]);
    // Stop the run once the hang loop is reached (fuel-bounded).
    let result = adequacy::check(&mut machine, &Reg::new("_PC"), &mut ZeroIo, &NoIo, 0, 64);
    assert!(
        matches!(result.run.stop, Stop::OutOfFuel),
        "hangs as expected"
    );
    assert_eq!(
        machine.reg(&Reg::new("R0")),
        Some(Value::Bits(Bv::new(64, 42))),
        "x0 = 42 after the hypervisor call"
    );
    assert_eq!(
        machine.reg(&Reg::field("PSTATE", "EL")),
        Some(Value::Bits(Bv::new(2, 0b01))),
        "back at EL1"
    );
    println!(
        "executed {} instructions: hvc handled at EL2, x0 = 42, \
         execution resumed at EL1 — exactly the verified claim",
        result.run.instructions
    );
}
