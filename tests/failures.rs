//! Failure injection across the pipeline: wrong specifications must fail
//! verification, mutated traces must fail translation validation, and
//! tampered certificates must fail the checker. A verifier that accepts
//! everything proves nothing.

use std::sync::Arc;

use islaris::logic::{check_certificate, BlockAnn, Certificate, NoIo, Obligation, Verifier};
use islaris_bv::Bv;
use islaris_cases::{memcpy_arm, uart};
use islaris_difftest::Oracle;
use islaris_isla::{trace_opcode, IslaConfig, Opcode};
use islaris_models::ARM;
use islaris_smt::{Expr, Sort, Var};
use islaris_testkit::Rng;

/// memcpy with a corrupted loop invariant (strict bound replaced by a
/// wrong constant) must fail.
#[test]
fn memcpy_with_wrong_invariant_fails() {
    let mut art = memcpy_arm::build_case();
    // Point the loop annotation at the postcondition spec — nonsense.
    art.prog_spec.blocks.insert(
        memcpy_arm::BASE + 8,
        BlockAnn {
            spec: "memcpy_post".into(),
            verify: true,
        },
    );
    let v = Verifier::new(art.prog_spec, art.protocol);
    assert!(v.verify_all().is_err());
}

/// memcpy against traces generated for a *different* instruction fails.
#[test]
fn memcpy_with_swapped_traces_fails() {
    let mut art = memcpy_arm::build_case();
    // Replace the ldrb with an str (changes the memory direction).
    let cfg = IslaConfig::new(ARM);
    let bogus = trace_opcode(&cfg, &Opcode::Concrete(0xF9000020)).expect("traces");
    let ldrb_addr = memcpy_arm::BASE + 8;
    art.prog_spec
        .instrs
        .insert(ldrb_addr, Arc::new(bogus.trace));
    let v = Verifier::new(art.prog_spec, art.protocol);
    assert!(v.verify_all().is_err());
}

/// The UART program verified against a protocol expecting a different
/// character must fail (the write obligation).
#[test]
fn uart_wrong_character_fails() {
    let art = uart::build_case();
    // Protocol demands a write of the constant 0x55 instead of the ghost.
    let wrong = islaris::logic::uart(uart::LSR, uart::IO, 0x55);
    let v = Verifier::new(art.prog_spec, Arc::new(wrong));
    let err = v.verify_all().expect_err("must fail");
    assert!(err.message.contains("obligation"), "{err}");
}

/// The UART program with *no* protocol must fail at the first MMIO read.
#[test]
fn uart_without_protocol_fails() {
    let art = uart::build_case();
    let v = Verifier::new(art.prog_spec, Arc::new(NoIo));
    let err = v.verify_all().expect_err("must fail");
    assert!(err.message.contains("protocol"), "{err}");
}

/// A trace with a flipped immediate diverges from the model.
#[test]
fn mutated_trace_fails_translation_validation() {
    let cfg = IslaConfig::new(ARM)
        .assume_reg("PSTATE.EL", Bv::new(2, 2))
        .assume_reg("PSTATE.SP", Bv::new(1, 1))
        .assume_reg("SCTLR_EL2", Bv::zero(64));
    let good = trace_opcode(&cfg, &Opcode::Concrete(0x910103ff)).expect("traces");
    let mutated =
        islaris_itl::print_trace(&good.trace).replace("#x0000000000000040", "#x0000000000000080");
    let bad = islaris_itl::parse_trace(&mutated).expect("parses");
    let oracle = Oracle::shipped(ARM);
    let (state, mem) = oracle.random_state(&cfg, &mut Rng::new(42)).expect("state");
    assert!(oracle.check_state(0x910103ff, &bad, &state, &mem).is_err());
}

/// Certificates are not decorative: adding a false obligation breaks the
/// check, and removing obligations from a valid certificate still passes
/// (they are independent facts).
#[test]
fn tampered_certificates_fail() {
    let art = memcpy_arm::build_case();
    let v = Verifier::new(art.prog_spec, art.protocol);
    let report = v.verify_all().expect("verifies");
    let good = &report.blocks[0].cert;
    check_certificate(good).expect("valid");

    let mut tampered = good.clone();
    tampered.digest = None; // bypass the order seal: test the replay itself
    tampered.obligations.push(Obligation::Bv {
        facts: vec![],
        goal: Expr::eq(Expr::var(Var(0)), Expr::bv(64, 1)),
        sorts: vec![(Var(0), Sort::BitVec(64))],
    });
    let err = check_certificate(&tampered).expect_err("must fail");
    assert_eq!(err.index, good.obligations.len());

    let subset = Certificate {
        obligations: good.obligations[..2.min(good.obligations.len())].to_vec(),
        digest: None,
        proofs: Vec::new(),
    };
    check_certificate(&subset).expect("a prefix still re-proves");
}

/// Family: certificate mutations. Every mutator corrupts a valid memcpy
/// certificate in a different way; each corrupted certificate must fail
/// the paranoid re-check at the mutated index.
#[test]
fn certificate_mutation_family_fails() {
    use islaris_smt::lia::{LinAtom, LinTerm};

    let art = memcpy_arm::build_case();
    let v = Verifier::new(art.prog_spec, art.protocol);
    let report = v.verify_all().expect("verifies");
    let good = &report.blocks[0].cert;
    check_certificate(good).expect("valid before mutation");
    let n = good.obligations.len();
    assert!(n > 0, "memcpy must log obligations");

    type Mutator = fn(&mut Certificate);
    let table: &[(&str, Mutator, usize)] = &[
        (
            "append_unprovable_bv_goal",
            |c| {
                c.obligations.push(Obligation::Bv {
                    facts: vec![],
                    goal: Expr::eq(Expr::var(Var(0)), Expr::bv(64, 1)),
                    sorts: vec![(Var(0), Sort::BitVec(64))],
                });
            },
            usize::MAX, // replaced with n below
        ),
        (
            "corrupt_first_goal_to_x_lt_x",
            |c| {
                if let Obligation::Bv { goal, sorts, .. } = &mut c.obligations[0] {
                    *goal = Expr::cmp(
                        islaris_smt::BvCmp::Ult,
                        Expr::var(Var(0)),
                        Expr::var(Var(0)),
                    );
                    sorts.push((Var(0), Sort::BitVec(64)));
                }
            },
            0,
        ),
        (
            "append_false_lia_fact",
            |c| {
                c.obligations.push(Obligation::Lia {
                    facts: vec![],
                    goal: LinAtom::Le(LinTerm::constant(1), LinTerm::constant(0)),
                });
            },
            usize::MAX,
        ),
    ];
    for (label, mutate, index) in table {
        let mut tampered = good.clone();
        tampered.digest = None; // each row tests replay, not the order seal
        mutate(&mut tampered);
        let err = check_certificate(&tampered)
            .expect_err(&format!("{label}: mutated certificate must fail"));
        let expected = if *index == usize::MAX { n } else { *index };
        assert_eq!(
            err.index, expected,
            "{label}: failed at the wrong obligation"
        );
    }
}

/// Family: per-field certificate mutations on a synthetic sealed
/// certificate where every fact is load-bearing. One row per
/// [`Obligation`] variant and per certificate field — a dropped fact
/// (both variants), a swapped goal, a corrupted sort, and reordered
/// obligations — and each row is rejected with a *distinct* error: the
/// index of the broken obligation, or [`DIGEST_MISMATCH`] for the order
/// seal.
#[test]
fn certificate_field_mutation_family_fails() {
    use islaris::logic::DIGEST_MISMATCH;
    use islaris_smt::lia::{IVar, LinAtom, LinTerm};
    use islaris_smt::BvCmp;

    let synthetic = || {
        let x = Expr::var(Var(0));
        let y = Expr::var(Var(1));
        Certificate::sealed(vec![
            // 0: bv over x; the goal only follows from the fact.
            Obligation::Bv {
                facts: vec![Expr::eq(x.clone(), Expr::bv(64, 5))],
                goal: Expr::cmp(BvCmp::Ult, x.clone(), Expr::bv(64, 6)),
                sorts: vec![(Var(0), Sort::BitVec(64))],
            },
            // 1: bv over y, same shape, disjoint variable.
            Obligation::Bv {
                facts: vec![Expr::eq(y.clone(), Expr::bv(64, 10))],
                goal: Expr::cmp(BvCmp::Ult, y.clone(), Expr::bv(64, 11)),
                sorts: vec![(Var(1), Sort::BitVec(64))],
            },
            // 2: lia; again the goal needs the fact.
            Obligation::Lia {
                facts: vec![LinAtom::Le(LinTerm::var(IVar(0)), LinTerm::constant(3))],
                goal: LinAtom::Le(LinTerm::var(IVar(0)), LinTerm::constant(4)),
            },
        ])
    };
    check_certificate(&synthetic()).expect("the synthetic certificate is valid");

    // (label, unseal before mutating?, mutator, expected error index)
    type Mutator = fn(&mut Certificate);
    let table: &[(&str, bool, Mutator, usize)] = &[
        (
            "dropped_bv_fact",
            true,
            |c| {
                let Obligation::Bv { facts, .. } = &mut c.obligations[0] else {
                    panic!("obligation 0 is bv");
                };
                facts.clear();
            },
            0,
        ),
        (
            "dropped_lia_fact",
            true,
            |c| {
                let Obligation::Lia { facts, .. } = &mut c.obligations[2] else {
                    panic!("obligation 2 is lia");
                };
                facts.clear();
            },
            2,
        ),
        (
            "swapped_goal",
            true,
            |c| {
                // Give obligation 0 the goal of obligation 1: `y < 11`
                // does not follow from `x = 5` (y is unconstrained, and
                // not even sorted in obligation 0).
                let Obligation::Bv { goal: g1, .. } = &c.obligations[1] else {
                    panic!("obligation 1 is bv");
                };
                let g1 = g1.clone();
                let Obligation::Bv { goal, .. } = &mut c.obligations[0] else {
                    panic!("obligation 0 is bv");
                };
                *goal = g1;
            },
            0,
        ),
        (
            "wrong_sort",
            true,
            |c| {
                let Obligation::Bv { sorts, .. } = &mut c.obligations[1] else {
                    panic!("obligation 1 is bv");
                };
                sorts[0].1 = Sort::BitVec(8); // 64-bit goal, 8-bit variable
            },
            1,
        ),
        (
            "reordered_obligations",
            false, // the order seal is exactly what this row tests
            |c| c.obligations.swap(0, 1),
            DIGEST_MISMATCH,
        ),
    ];
    for (label, unseal, mutate, expected) in table {
        let mut tampered = synthetic();
        if *unseal {
            tampered.digest = None;
        }
        mutate(&mut tampered);
        let err = check_certificate(&tampered)
            .expect_err(&format!("{label}: mutated certificate must fail"));
        assert_eq!(err.index, *expected, "{label}: wrong error index");
        if *expected == DIGEST_MISMATCH {
            assert!(err.obligation.contains("digest mismatch"), "{label}: {err}");
        } else {
            assert!(
                err.to_string()
                    .contains(&format!("at obligation {expected}")),
                "{label}: error does not name the obligation: {err}"
            );
        }
    }
}

/// Family: broken specifications. For every case in the table, repointing
/// a verifying block annotation at a spec that does not exist must fail
/// verification (the automation must not invent a specification).
#[test]
fn broken_spec_family_fails() {
    let table: &[(
        &str,
        fn() -> islaris::logic::ProgramSpec,
        std::sync::Arc<dyn islaris::logic::Protocol>,
    )] = &[
        (
            "memcpy",
            || memcpy_arm::build_case().prog_spec,
            Arc::new(NoIo),
        ),
        (
            "uart",
            || uart::build_case().prog_spec,
            Arc::new(islaris::logic::uart(uart::LSR, uart::IO, 0x2a)),
        ),
        (
            "hvc",
            || islaris_cases::hvc::build_case().prog_spec,
            Arc::new(NoIo),
        ),
        (
            "rbit",
            || islaris_cases::rbit::build_case().prog_spec,
            Arc::new(NoIo),
        ),
        (
            "unaligned",
            || islaris_cases::unaligned::build_case().prog_spec,
            Arc::new(NoIo),
        ),
    ];
    for (label, build, protocol) in table {
        let mut spec = build();
        let ann = spec
            .blocks
            .values_mut()
            .find(|a| a.verify)
            .unwrap_or_else(|| panic!("{label}: no verifying block"));
        ann.spec = "__no_such_spec__".into();
        let err = Verifier::new(spec, protocol.clone())
            .verify_all()
            .expect_err(&format!("{label}: missing spec must fail"));
        assert!(err.message.contains("__no_such_spec__"), "{label}: {err}");
    }
}

/// Family: mutated traces. Each table row edits the printed Fig. 3 trace
/// (a different corruption of the `add sp, sp, #0x40` semantics); every
/// mutant must fail translation validation against the authoritative
/// model.
#[test]
fn mutated_trace_family_fails_transval() {
    let cfg = IslaConfig::new(ARM)
        .assume_reg("PSTATE.EL", Bv::new(2, 2))
        .assume_reg("PSTATE.SP", Bv::new(1, 1))
        .assume_reg("SCTLR_EL2", Bv::zero(64));
    let good = trace_opcode(&cfg, &Opcode::Concrete(0x910103ff)).expect("traces");
    let printed = islaris_itl::print_trace(&good.trace);

    let table: &[(&str, &str, &str)] = &[
        (
            "doubled_immediate",
            "#x0000000000000040",
            "#x0000000000000080",
        ),
        (
            "zeroed_immediate",
            "#x0000000000000040",
            "#x0000000000000000",
        ),
        (
            "off_by_one_immediate",
            "#x0000000000000040",
            "#x0000000000000041",
        ),
    ];
    for (label, needle, replacement) in table {
        assert!(
            printed.contains(needle),
            "{label}: trace shape changed: {printed}"
        );
        let mutated = printed.replace(needle, replacement);
        let bad = islaris_itl::parse_trace(&mutated)
            .unwrap_or_else(|e| panic!("{label}: mutant must still parse: {e}"));
        let oracle = Oracle::shipped(ARM);
        let (state, mem) = oracle.random_state(&cfg, &mut Rng::new(42)).expect("state");
        assert!(
            oracle.check_state(0x910103ff, &bad, &state, &mem).is_err(),
            "{label}: corrupted trace passed translation validation"
        );
    }
}

/// A spec that demands memory the program never owned must fail at
/// findM, not silently pass.
#[test]
fn missing_memory_ownership_fails() {
    let mut art = memcpy_arm::build_case();
    // Drop the source array from the precondition.
    let mut specs = islaris::logic::SpecTable::new();
    for def in art.prog_spec.specs.defs() {
        let mut d = def.clone();
        if d.name == "memcpy_pre" {
            d.atoms.retain(|a| {
                !matches!(a, islaris::logic::Atom::MemArray { addr, .. }
                          if *addr == Expr::var(Var(1)))
            });
        }
        specs.add(d);
    }
    art.prog_spec.specs = specs;
    let v = Verifier::new(art.prog_spec, art.protocol);
    let err = v.verify_all().expect_err("must fail");
    assert!(
        err.message.contains("findM") || err.message.contains("no matching chunk"),
        "{err}"
    );
}
