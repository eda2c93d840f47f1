//! The MMIO example (§6): verify `uart1_putc` against its `spec(s)`
//! protocol, then execute it against a scripted device and check that the
//! emitted label trace satisfies the same protocol — both halves of the
//! adequacy theorem.
//!
//! Run with: `cargo run --release --example uart_mmio`

use islaris::logic::{accepts, adequacy};
use islaris_bv::Bv;
use islaris_cases::uart;
use islaris_itl::{Label, Reg, ScriptedIo, Stop};

fn main() {
    let art = uart::build_case();
    let (outcome, _) =
        islaris_cases::run_case(&art, &islaris_cases::RunOpts::default()).expect("no deadline set");
    println!(
        "uart1_putc verified against srec(R. ∃b. scons(R(LSR,b), b[5] ? \
         scons(W(IO,c), s) : R)) in {:?}",
        outcome.verify_time
    );

    // Execute with a device that reports busy twice, then ready.
    let c = b'!';
    let mut regs = vec![
        (Reg::new("R0"), Bv::new(64, u128::from(c))),
        (Reg::new("R30"), Bv::new(64, 0xdead_0000)),
        (Reg::new("_PC"), Bv::new(64, uart::BASE as u128)),
        (Reg::field("PSTATE", "EL"), Bv::new(2, 0b10)),
        (Reg::field("PSTATE", "SP"), Bv::new(1, 1)),
        (Reg::new("SCTLR_EL2"), Bv::zero(64)),
    ];
    for r in ["R1", "R2", "R3", "R4"] {
        regs.push((Reg::new(r), Bv::zero(64)));
    }
    let mut machine = adequacy::machine(&regs, &art.prog_spec.instrs, &[]);
    let mut device = ScriptedIo::new(vec![
        Bv::new(32, 0),      // busy
        Bv::new(32, 0),      // busy
        Bv::new(32, 1 << 5), // TX empty
    ]);
    let protocol = uart::protocol();
    // The protocol's `c` is the low 32 bits of the ghost argument; for a
    // concrete run, check against the concrete protocol instead.
    let concrete = islaris::logic::uart(uart::LSR, uart::IO, c);
    let result = adequacy::check(
        &mut machine,
        &Reg::new("_PC"),
        &mut device,
        &concrete,
        0,
        1000,
    );
    assert_eq!(result.run.stop, Stop::End(0xdead_0000));
    assert!(result.holds(), "labels: {:?}", result.run.labels);
    let writes: Vec<&Label> = result
        .run
        .labels
        .iter()
        .filter(|l| matches!(l, Label::Write { .. }))
        .collect();
    println!("device interaction: {:?}", result.run.labels);
    assert_eq!(writes.len(), 1, "exactly one transmit");
    assert!(
        accepts(&concrete, 0, &result.run.labels),
        "label trace satisfies the protocol"
    );
    let _ = protocol;
    println!(
        "adequacy: polled twice, transmitted {:?} exactly once",
        c as char
    );
}
