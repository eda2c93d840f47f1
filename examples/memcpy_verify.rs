//! The paper's central example (§2.5): verify the compiled Arm memcpy
//! against the Fig. 8 specification, then *run* the adequacy theorem —
//! execute the very same traces on the ITL machine and watch the bytes
//! get copied.
//!
//! Run with: `cargo run --release --example memcpy_verify`

use islaris::logic::adequacy;
use islaris::logic::NoIo;
use islaris_bv::Bv;
use islaris_cases::memcpy_arm;
use islaris_itl::{Reg, Stop, ZeroIo};

fn main() {
    // 1. Build and verify: program, traces, specs, loop invariant.
    let art = memcpy_arm::build_case();
    println!("memcpy (Arm): {} instructions", art.program.len());
    let (outcome, _report) =
        islaris_cases::run_case(&art, &islaris_cases::RunOpts::default()).expect("no deadline set");
    println!(
        "verified in {:?} ({} SMT queries, {} obligations, certificates \
         re-checked in {:?})",
        outcome.verify_time, outcome.verify_smt, outcome.obligations, outcome.cert_time
    );

    // 2. Adequacy: instantiate the ghosts concretely and execute.
    let (d, s, n) = (0x3000u64, 0x2000u64, 6u64);
    let payload = b"islaris"[..n as usize].to_vec();
    let mut machine = adequacy::machine(
        &[
            (Reg::new("R0"), Bv::new(64, u128::from(d))),
            (Reg::new("R1"), Bv::new(64, u128::from(s))),
            (Reg::new("R2"), Bv::new(64, u128::from(n))),
            (Reg::new("R3"), Bv::zero(64)),
            (Reg::new("R4"), Bv::zero(64)),
            (Reg::new("R30"), Bv::new(64, 0xdead_0000)), // return address
            (Reg::new("_PC"), Bv::new(64, memcpy_arm::BASE as u128)),
            (Reg::field("PSTATE", "N"), Bv::zero(1)),
            (Reg::field("PSTATE", "Z"), Bv::zero(1)),
            (Reg::field("PSTATE", "C"), Bv::zero(1)),
            (Reg::field("PSTATE", "V"), Bv::zero(1)),
        ],
        &art.prog_spec.instrs,
        &[(s, payload.clone()), (d, vec![0u8; n as usize])],
    );
    let result = adequacy::check(
        &mut machine,
        &Reg::new("_PC"),
        &mut ZeroIo,
        &NoIo,
        0,
        10_000,
    );
    assert!(result.holds(), "adequacy: {:?}", result.run.stop);
    assert_eq!(result.run.stop, Stop::End(0xdead_0000), "returned to x30");
    let copied: Vec<u8> = (0..n).map(|i| machine.mem[&(d + i)]).collect();
    assert_eq!(copied, payload);
    println!(
        "adequacy: executed {} instructions, destination now holds {:?} — \
         no ⊥ reached, label trace accepted",
        result.run.instructions,
        String::from_utf8_lossy(&copied)
    );
}
