//! The differential oracle: symbolic trace vs concrete interpreter.
//!
//! For one opcode, the oracle walks every root-to-leaf path of the
//! symbolic trace, asks the solver for a checked model of the path
//! constraints (pinning `undefined_bits` variables to zero, matching the
//! concrete interpreter's choice), concretizes the path's initial
//! register and memory valuation from that model, replays the opcode
//! through [`Interp::replay`] from exactly that initial state, and
//! compares event-by-event: register writes in order, memory reads and
//! writes in order, and the final PC. Any disagreement becomes a
//! [`Divergence`] report.
//!
//! The oracle sits *outside* the certificate TCB — it is a test of the
//! semantic core (model, symbolic executor, solver, interpreter), not a
//! proof about it.

use std::collections::VecDeque;

use islaris_bv::Bv;
use islaris_isla::{analyze_path, enumerate_paths, PathView, TraceResult};
use islaris_itl::{Event, Reg};
use islaris_models::Arch;
use islaris_sail::{CVal, CheckedModel, Interp, InterpError, SailMem, SailState};
use islaris_smt::{
    check_sat, eval_bits, EvalError, Expr, Model, QueryCtx, SmtResult, SolverConfig, Sort, Value,
    Var,
};

use crate::report::Divergence;

/// Step bound for one concrete replay: far above any shipped
/// instruction's cost (hundreds of steps), small enough that a buggy
/// model's runaway loop terminates promptly and deterministically.
pub const REPLAY_STEP_BUDGET: u64 = 200_000;

/// Per-opcode oracle counters, merged into
/// [`islaris_obs::DiffMetrics`] by the fuzzer.
#[derive(Debug, Default)]
pub struct OracleOutcome {
    /// Root-to-leaf paths enumerated.
    pub paths: u64,
    /// Paths whose constraints were unsatisfiable (vacuous: includes the
    /// driver's pruned dead branches).
    pub vacuous: u64,
    /// Paths the solver could not decide.
    pub unknown: u64,
    /// Satisfying models sampled.
    pub models_sampled: u64,
    /// Concrete replays performed.
    pub replays: u64,
    /// Path ids that were replayed (for class × path coverage).
    pub path_ids: Vec<usize>,
    /// Divergence reports, in path order.
    pub divergences: Vec<Divergence>,
}

/// A differential oracle for one architecture.
///
/// The *symbolic* side always runs the shipped model (through
/// `isla::trace_opcode`, performed by the caller); the *concrete* side
/// runs whatever [`CheckedModel`] this oracle was built over — passing a
/// deliberately patched model is how the planted-bug test demonstrates
/// the oracle catches real semantic drift.
pub struct Oracle<'m> {
    arch: Arch,
    cm: &'m CheckedModel,
    interp: Interp<'m>,
    solver: SolverConfig,
}

impl<'m> Oracle<'m> {
    /// Builds an oracle replaying concretely against `concrete`.
    ///
    /// # Errors
    ///
    /// Fails if the model's constant initialisers fail to evaluate.
    pub fn new(arch: Arch, concrete: &'m CheckedModel) -> Result<Self, InterpError> {
        Ok(Oracle {
            arch,
            cm: concrete,
            interp: Interp::new(concrete)?,
            solver: SolverConfig::new(),
        })
    }

    /// An oracle over the architecture's shipped model.
    ///
    /// # Panics
    ///
    /// Panics if the bundled model fails to initialise (cannot happen for
    /// shipped models).
    #[must_use]
    pub fn shipped(arch: Arch) -> Oracle<'static> {
        Oracle::new(arch, arch.model()).expect("shipped model initialises")
    }

    /// Checks every path of `result` (the symbolic trace of `opcode`)
    /// against a concrete replay. `class` and `seed` are replay
    /// coordinates recorded in divergence reports.
    #[must_use]
    pub fn check_opcode(
        &self,
        opcode: u32,
        result: &TraceResult,
        class: &'static str,
        seed: u64,
    ) -> OracleOutcome {
        let mut out = OracleOutcome::default();
        for (pid, events) in enumerate_paths(&result.trace).iter().enumerate() {
            out.paths += 1;
            let view = analyze_path(events, &result.params);
            let mut constraints = view.constraints.clone();
            // Pin undefined_bits variables to the interpreter's concrete
            // choice (zero) so both sides agree by construction.
            for v in &view.undefined {
                match view.sorts.get(v) {
                    Some(Sort::BitVec(w)) => {
                        constraints.push(Expr::eq(Expr::var(*v), Expr::bv(*w, 0)));
                    }
                    Some(Sort::Bool) => {
                        constraints.push(Expr::eq(Expr::var(*v), Expr::bool(false)));
                    }
                    None => {}
                }
            }
            let sorts = view.sorts.clone();
            let lookup = |v| sorts.get(&v).copied();
            let model = match check_sat(
                &constraints,
                &lookup,
                &self.solver,
                &mut QueryCtx::default(),
            ) {
                SmtResult::Unsat => {
                    out.vacuous += 1;
                    continue;
                }
                SmtResult::Unknown(_) => {
                    out.unknown += 1;
                    continue;
                }
                SmtResult::Sat(m) => m,
            };
            out.models_sampled += 1;
            out.replays += 1;
            out.path_ids.push(pid);
            if let Some((inits, detail)) = self.replay_path(opcode, events, &view, &model) {
                out.divergences.push(Divergence {
                    arch: self.arch.name,
                    opcode,
                    class,
                    path: pid,
                    seed,
                    inits,
                    detail,
                });
            }
        }
        out
    }

    /// Replays one path concretely; `Some((inits, detail))` on the first
    /// disagreement, `None` on full agreement.
    fn replay_path(
        &self,
        opcode: u32,
        events: &[Event],
        view: &PathView,
        model: &Model,
    ) -> Option<(Vec<(String, Bv)>, String)> {
        let sorts = &view.sorts;
        let env = |v: Var| -> Option<Value> { sorts.get(&v).map(|s| model.get_or_default(v, *s)) };
        let ev = |e: &Expr| -> Result<Bv, EvalError> { eval_bits(e, &env) };
        let mut inits: Vec<(String, Bv)> = Vec::new();
        let diverge = |inits: &[(String, Bv)], detail: String| Some((inits.to_vec(), detail));

        // Concretized initial state.
        let mut state = SailState::zeroed(self.cm);
        for (reg, e) in &view.reg_inits {
            let value = match ev(e) {
                Ok(v) => v,
                Err(e) => return diverge(&inits, format!("oracle evaluation error: {e}")),
            };
            inits.push((reg.to_string(), value));
            if let Err(msg) = set_reg(&self.arch, &mut state, reg, value) {
                return diverge(&inits, msg);
            }
        }

        // Expected event streams under the model.
        let mut expected_reads: VecDeque<(u64, u32, Bv)> = VecDeque::new();
        for (addr, bytes, value) in &view.mem_reads {
            match (ev(addr), ev(value)) {
                (Ok(a), Ok(v)) => expected_reads.push_back((a.to_u64(), *bytes, v)),
                (Err(e), _) | (_, Err(e)) => {
                    return diverge(&inits, format!("oracle evaluation error: {e}"))
                }
            }
        }
        let mut expect_wreg: Vec<(String, Bv)> = Vec::new();
        let mut expect_wmem: Vec<(u64, u32, Bv)> = Vec::new();
        for event in events {
            match event {
                Event::WriteReg(r, e) => match ev(e) {
                    Ok(v) => expect_wreg.push((r.to_string(), v)),
                    Err(e) => return diverge(&inits, format!("oracle evaluation error: {e}")),
                },
                Event::WriteMem { addr, value, bytes } => match (ev(addr), ev(value)) {
                    (Ok(a), Ok(v)) => expect_wmem.push((a.to_u64(), *bytes, v)),
                    (Err(e), _) | (_, Err(e)) => {
                        return diverge(&inits, format!("oracle evaluation error: {e}"))
                    }
                },
                _ => {}
            }
        }

        // Concrete replay.
        let mut mem = ReplayMem {
            expected: expected_reads,
            writes: Vec::new(),
            mismatch: None,
        };
        let replay = match self.interp.replay(
            self.arch.entry,
            &[CVal::Bits(Bv::new(32, u128::from(opcode)))],
            &mut state,
            &mut mem,
            REPLAY_STEP_BUDGET,
        ) {
            Ok(r) => r,
            Err(e) => return diverge(&inits, format!("concrete interpreter error: {e}")),
        };

        // Register writes, event by event.
        let concrete_wreg: Vec<(String, Bv)> = replay
            .writes
            .iter()
            .map(|w| {
                let name = match w.index {
                    Some(i) => self
                        .arch
                        .array_reg_name(&w.name, i)
                        .unwrap_or_else(|| format!("{}{}", w.name, i)),
                    None => w.name.clone(),
                };
                (name, w.value)
            })
            .collect();
        for i in 0..expect_wreg.len().max(concrete_wreg.len()) {
            match (expect_wreg.get(i), concrete_wreg.get(i)) {
                (Some((sn, sv)), Some((cn, cv))) => {
                    if sn != cn || sv != cv {
                        return diverge(
                            &inits,
                            format!("write-reg #{i}: symbolic {sn}={sv} concrete {cn}={cv}"),
                        );
                    }
                }
                (Some((sn, sv)), None) => {
                    return diverge(
                        &inits,
                        format!("write-reg #{i}: symbolic {sn}={sv} but concrete run stopped"),
                    );
                }
                (None, Some((cn, cv))) => {
                    return diverge(
                        &inits,
                        format!("write-reg #{i}: concrete {cn}={cv} beyond symbolic trace"),
                    );
                }
                (None, None) => unreachable!(),
            }
        }

        // Memory reads: order, address, and size all consumed exactly.
        if let Some(m) = mem.mismatch {
            return diverge(&inits, m);
        }
        if !mem.expected.is_empty() {
            return diverge(
                &inits,
                format!(
                    "read-mem: {} symbolic read(s) never performed concretely",
                    mem.expected.len()
                ),
            );
        }

        // Memory writes, event by event.
        for i in 0..expect_wmem.len().max(mem.writes.len()) {
            match (expect_wmem.get(i), mem.writes.get(i)) {
                (Some(s), Some(c)) => {
                    if s != c {
                        return diverge(
                            &inits,
                            format!(
                                "write-mem #{i}: symbolic ({:#x},{},{}) concrete ({:#x},{},{})",
                                s.0, s.1, s.2, c.0, c.1, c.2
                            ),
                        );
                    }
                }
                (Some(s), None) => {
                    return diverge(
                        &inits,
                        format!(
                            "write-mem #{i}: symbolic ({:#x},{},{}) but concrete run stopped",
                            s.0, s.1, s.2
                        ),
                    );
                }
                (None, Some(c)) => {
                    return diverge(
                        &inits,
                        format!(
                            "write-mem #{i}: concrete ({:#x},{},{}) beyond symbolic trace",
                            c.0, c.1, c.2
                        ),
                    );
                }
                (None, None) => unreachable!(),
            }
        }

        // Final PC (already covered by the write comparison whenever the
        // trace writes the PC, but checked directly so a path that never
        // updates the PC still cross-checks the architectural state).
        if let Some((_, expected_pc)) = expect_wreg.iter().rev().find(|(n, _)| n == self.arch.pc) {
            match state.regs.get(self.arch.pc) {
                Some(pc) if pc == expected_pc => {}
                got => {
                    return diverge(
                        &inits,
                        format!(
                            "final PC: symbolic {expected_pc} concrete {}",
                            got.map_or("<missing>".to_owned(), ToString::to_string)
                        ),
                    );
                }
            }
        }
        None
    }
}

/// Installs an ITL-named register value into the interpreter state:
/// `NAME.FIELD` and plain names are flat `regs` keys; `R3`/`x7`-style
/// names resolve through the architecture's array naming.
fn set_reg(arch: &Arch, state: &mut SailState, reg: &Reg, value: Bv) -> Result<(), String> {
    let name = reg.to_string();
    if reg.field_name().is_none() {
        for (array, prefix) in arch.arrays {
            if let Some(rest) = name.strip_prefix(prefix) {
                if !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()) {
                    let idx: usize = rest
                        .parse()
                        .map_err(|_| format!("bad array index in register {name}"))?;
                    let slot = state
                        .arrays
                        .get_mut(*array)
                        .and_then(|a| a.get_mut(idx))
                        .ok_or_else(|| format!("register {name} outside array {array}"))?;
                    *slot = value;
                    return Ok(());
                }
            }
        }
    }
    state.regs.insert(name, value);
    Ok(())
}

/// Replay memory: serves the symbolic trace's reads in order and records
/// every access for the event-by-event comparison.
struct ReplayMem {
    expected: VecDeque<(u64, u32, Bv)>,
    writes: Vec<(u64, u32, Bv)>,
    mismatch: Option<String>,
}

impl SailMem for ReplayMem {
    fn read(&mut self, addr: u64, n: u32) -> Bv {
        match self.expected.pop_front() {
            Some((a, b, v)) if a == addr && b == n => v,
            Some((a, b, _)) => {
                if self.mismatch.is_none() {
                    self.mismatch = Some(format!(
                        "read-mem: symbolic ({a:#x},{b}) concrete ({addr:#x},{n})"
                    ));
                }
                Bv::zero(8 * n)
            }
            None => {
                if self.mismatch.is_none() {
                    self.mismatch = Some(format!(
                        "read-mem: concrete read ({addr:#x},{n}) beyond symbolic trace"
                    ));
                }
                Bv::zero(8 * n)
            }
        }
    }

    fn write(&mut self, addr: u64, n: u32, value: Bv) {
        self.writes.push((addr, n, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islaris_isla::{trace_opcode, IslaConfig, Opcode};
    use islaris_models::{ARM, RISCV};

    fn arm_cfg() -> IslaConfig {
        IslaConfig::new(ARM)
            .assume_reg("PSTATE.EL", Bv::new(2, 0b10))
            .assume_reg("PSTATE.SP", Bv::new(1, 0b1))
    }

    #[test]
    fn add_sp_agrees() {
        let oracle = Oracle::shipped(ARM);
        let r = trace_opcode(&arm_cfg(), &Opcode::Concrete(0x9101_03FF)).expect("traces");
        let out = oracle.check_opcode(0x9101_03FF, &r, "addsub_imm", 0);
        assert!(out.divergences.is_empty(), "{:?}", out.divergences);
        assert_eq!(out.replays, 1);
        assert_eq!(out.path_ids, vec![0]);
    }

    #[test]
    fn branchy_flags_cover_both_paths() {
        // b.ne with unconstrained PSTATE flags: both sides of the branch
        // replay, each from a model satisfying its branch condition.
        let oracle = Oracle::shipped(ARM);
        let r = trace_opcode(&arm_cfg(), &Opcode::Concrete(0x5400_0041)).expect("traces");
        let out = oracle.check_opcode(0x5400_0041, &r, "bcond", 0);
        assert!(out.divergences.is_empty(), "{:?}", out.divergences);
        assert!(out.replays >= 2, "both branch arms replayed: {out:?}");
    }

    #[test]
    fn riscv_store_memory_events_agree() {
        // sb x1, 0(x2): unconstrained x1/x2 are concretized from the
        // model and the write-mem event is compared byte-for-byte.
        let oracle = Oracle::shipped(RISCV);
        let op = 0x0011_0023;
        let r = trace_opcode(&IslaConfig::new(RISCV), &Opcode::Concrete(op)).expect("traces");
        let out = oracle.check_opcode(op, &r, "store", 0);
        assert!(out.divergences.is_empty(), "{:?}", out.divergences);
        assert_eq!(out.replays, 1);
    }

    #[test]
    fn set_reg_resolves_arrays_fields_and_plain_names() {
        let cm = ARM.model();
        let mut st = SailState::zeroed(cm);
        set_reg(&ARM, &mut st, &Reg::new("R3"), Bv::new(64, 7)).expect("array");
        assert_eq!(st.arrays["X"][3], Bv::new(64, 7));
        set_reg(&ARM, &mut st, &Reg::field("PSTATE", "EL"), Bv::new(2, 1)).expect("field");
        assert_eq!(st.regs["PSTATE.EL"], Bv::new(2, 1));
        set_reg(&ARM, &mut st, &Reg::new("SP_EL2"), Bv::new(64, 64)).expect("plain");
        assert_eq!(st.regs["SP_EL2"], Bv::new(64, 64));
        assert!(set_reg(&ARM, &mut st, &Reg::new("R99"), Bv::new(64, 0)).is_err());
    }
}
