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
//! The same oracle also performs translation validation (§5 of the
//! paper, Theorem 2): [`Oracle::check_state`] runs the ITL trace
//! interpreter and the model side by side from one *given* concrete
//! state and compares the final registers and mapped memory, and
//! [`Oracle::check_program`] sweeps that check over seeded random states
//! ([`Oracle::random_state`]) for every instruction of a program — the
//! bounded-refinement analogue of the paper's per-instruction `m ∼ t`
//! lemmas. States violating the trace's assumptions fail on the ITL side
//! (⊥) rather than diverging silently.
//!
//! The oracle sits *outside* the certificate TCB — it is a test of the
//! semantic core (model, symbolic executor, solver, interpreter), not a
//! proof about it.

use std::collections::{BTreeMap, VecDeque};

use islaris_bv::Bv;
use islaris_isla::{
    analyze_path, enumerate_paths, trace_opcode, IslaConfig, Opcode, PathView, TraceResult,
};
use islaris_itl::{exec_instr, Event, Machine, Reg, Trace, ZeroIo};
use islaris_models::Arch;
use islaris_sail::{CVal, CheckedModel, Interp, InterpError, MapMem, SailMem, SailState};
use islaris_smt::{
    check_sat, eval_bits, EvalError, Expr, Model, QueryCtx, SmtResult, SolverConfig, Sort, Value,
    Var,
};
use islaris_testkit::Rng;

use crate::report::Divergence;

/// Step bound for one concrete replay: far above any shipped
/// instruction's cost (hundreds of steps), small enough that a buggy
/// model's runaway loop terminates promptly and deterministically.
pub const REPLAY_STEP_BUDGET: u64 = 200_000;

/// Seed of the random states [`Oracle::check_program`] draws.
const STATE_SEED: u64 = 0x1234_5678;

/// The scratch memory window of random states: its bytes are mapped on
/// both sides, and pointer-like registers are aimed into it.
const STATE_MEM_BASE: u64 = 0x2000;
const STATE_MEM_LEN: u64 = 64;

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

    /// Translation validation of one opcode on one concrete state: runs
    /// the model ([`Interp::call`]) and the ITL trace ([`exec_instr`])
    /// from `state` and the byte memory `mem`, then compares every
    /// register and array element and the initially mapped memory.
    /// `trace` must have been generated for `opcode`; a state violating
    /// its assumptions fails on the trace side (⊥).
    ///
    /// # Errors
    ///
    /// Describes the first divergence, or the side that failed to run.
    pub fn check_state(
        &self,
        opcode: u32,
        trace: &Trace,
        state: &SailState,
        mem: &BTreeMap<u64, u8>,
    ) -> Result<(), String> {
        let mut sail_state = state.clone();
        let mut sail_mem = MapMem { bytes: mem.clone() };
        self.interp
            .call(
                self.arch.entry,
                &[CVal::Bits(Bv::new(32, u128::from(opcode)))],
                &mut sail_state,
                &mut sail_mem,
            )
            .map_err(|e| format!("model: {e}"))?;

        let mut machine = Machine::new();
        machine.regs = itl_regs(&self.arch, state);
        machine.mem.clone_from(mem);
        exec_instr(trace, &mut machine, &mut ZeroIo, &mut Vec::new())
            .map_err(|e| format!("trace: {e}"))?;

        for (reg, expected) in itl_regs(&self.arch, &sail_state) {
            let actual = machine.reg(&reg);
            if actual != Some(expected) {
                return Err(format!(
                    "register {reg}: model {expected:?}, trace {actual:?}"
                ));
            }
        }
        for addr in mem.keys() {
            let model_byte = sail_mem.bytes.get(addr).copied().unwrap_or(0);
            let trace_byte = machine.mem.get(addr).copied().unwrap_or(0);
            if model_byte != trace_byte {
                return Err(format!(
                    "memory {addr:#x}: model {model_byte:#04x}, trace {trace_byte:#04x}"
                ));
            }
        }
        Ok(())
    }

    /// A random concrete state satisfying `cfg`'s register assumptions:
    /// registers alternate raw values and pointers into a 64-byte scratch
    /// window at `0x2000` (randomly filled and returned as the byte
    /// memory), and the PC is `0x1000`.
    ///
    /// # Errors
    ///
    /// Fails if an assumed register names an array element out of range.
    pub fn random_state(
        &self,
        cfg: &IslaConfig,
        rng: &mut Rng,
    ) -> Result<(SailState, BTreeMap<u64, u8>), String> {
        let mut st = SailState::zeroed(self.cm);
        for (i, v) in st.regs.values_mut().enumerate() {
            *v = if v.width() == 64 && i % 2 == 0 {
                Bv::new(
                    64,
                    u128::from(STATE_MEM_BASE + rng.next_u64() % STATE_MEM_LEN),
                )
            } else {
                Bv::new(v.width(), u128::from(rng.next_u64()))
            };
        }
        for vals in st.arrays.values_mut() {
            for (i, v) in vals.iter_mut().enumerate() {
                *v = if i % 2 == 0 {
                    Bv::new(
                        64,
                        u128::from(STATE_MEM_BASE + rng.next_u64() % (STATE_MEM_LEN / 2)),
                    )
                } else {
                    Bv::new(64, u128::from(rng.next_u64() % 1024))
                };
            }
        }
        for (name, val) in &cfg.reg_values {
            set_reg(&self.arch, &mut st, &flat_reg(name), *val)?;
        }
        st.regs.insert(self.arch.pc.to_owned(), Bv::new(64, 0x1000));
        let mem = (0..STATE_MEM_LEN)
            .map(|a| (STATE_MEM_BASE + a, rng.next_u8()))
            .collect();
        Ok((st, mem))
    }

    /// Translation validation of every instruction of `program` (traced
    /// under `cfg`) on `states` random states each, drawn from one
    /// fixed-seed stream. Returns the number of checks run.
    ///
    /// # Errors
    ///
    /// The first failure, prefixed with its opcode.
    pub fn check_program(
        &self,
        cfg: &IslaConfig,
        program: &[(u64, u32)],
        states: u32,
    ) -> Result<u64, String> {
        let mut rng = Rng::new(STATE_SEED);
        let mut checks = 0;
        for (_, opcode) in program {
            let at = |e: String| format!("opcode {opcode:#010x}: {e}");
            let traced =
                trace_opcode(cfg, &Opcode::Concrete(*opcode)).map_err(|e| at(e.to_string()))?;
            for _ in 0..states {
                let (state, mem) = self.random_state(cfg, &mut rng).map_err(at)?;
                self.check_state(*opcode, &traced.trace, &state, &mem)
                    .map_err(at)?;
                checks += 1;
            }
        }
        Ok(checks)
    }
}

/// The ITL register a flat [`SailState::regs`] key names: `NAME.FIELD`
/// is a field, anything else a whole register.
fn flat_reg(name: &str) -> Reg {
    match name.split_once('.') {
        Some((base, field)) => Reg::field(base, field),
        None => Reg::new(name),
    }
}

/// Reads an interpreter state out as ITL registers — the inverse of
/// [`set_reg`]: flat keys map through [`flat_reg`], array elements to
/// their `R3`/`x7`-style names.
fn itl_regs(arch: &Arch, state: &SailState) -> BTreeMap<Reg, Value> {
    let mut out: BTreeMap<Reg, Value> = state
        .regs
        .iter()
        .map(|(name, v)| (flat_reg(name), Value::Bits(*v)))
        .collect();
    for (array, vals) in &state.arrays {
        for (i, v) in vals.iter().enumerate() {
            if let Some(name) = arch.array_reg_name(array, i) {
                out.insert(Reg::new(&name), Value::Bits(*v));
            }
        }
    }
    out
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
    use islaris_models::{ARM, RISCV};

    fn arm_cfg() -> IslaConfig {
        IslaConfig::new(ARM)
            .assume_reg("PSTATE.EL", Bv::new(2, 0b10))
            .assume_reg("PSTATE.SP", Bv::new(1, 0b1))
    }

    /// The EL2 configuration of the Fig. 3 `add sp, sp, #0x40` trace.
    fn arm_el2_cfg() -> IslaConfig {
        arm_cfg()
            .assume_reg("PSTATE.nRW", Bv::new(1, 0))
            .assume_reg("SCTLR_EL2", Bv::zero(64))
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

    #[test]
    fn register_mapping_round_trips_every_register_of_both_models() {
        for arch in [ARM, RISCV] {
            // Distinct values in every slot, so a swapped mapping shows.
            let mut st = SailState::zeroed(arch.model());
            let mut next = 1u128;
            for v in st.regs.values_mut() {
                *v = Bv::new(v.width(), next);
                next += 1;
            }
            for vals in st.arrays.values_mut() {
                for v in vals.iter_mut() {
                    *v = Bv::new(v.width(), next);
                    next += 1;
                }
            }
            let regs = itl_regs(&arch, &st);
            let slots = st.regs.len() + st.arrays.values().map(Vec::len).sum::<usize>();
            assert_eq!(regs.len(), slots, "{}: one ITL name per slot", arch.name);
            let mut back = SailState::zeroed(arch.model());
            for (reg, v) in &regs {
                let Value::Bits(b) = v else { unreachable!() };
                set_reg(&arch, &mut back, reg, *b).expect("in range");
            }
            assert_eq!(back, st, "{}: Sail -> ITL -> Sail", arch.name);
            for (array, vals) in &st.arrays {
                let past_end = arch.array_reg_name(array, vals.len()).expect("named");
                assert!(
                    set_reg(&arch, &mut back, &Reg::new(&past_end), Bv::zero(64)).is_err(),
                    "{}: {past_end} must be rejected",
                    arch.name
                );
            }
        }
    }

    #[test]
    fn arm_add_sp_validates() {
        let checks = Oracle::shipped(ARM)
            .check_program(&arm_el2_cfg(), &[(0x1000, 0x910103ff)], 8)
            .expect("validates");
        assert_eq!(checks, 8);
    }

    #[test]
    fn mutated_trace_fails_validation() {
        let cfg = arm_el2_cfg();
        let r = trace_opcode(&cfg, &Opcode::Concrete(0x910103ff)).expect("traces");
        // Mutate: +0x41 instead of +0x40 by reprinting and editing the text.
        let text =
            islaris_itl::print_trace(&r.trace).replace("#x0000000000000040", "#x0000000000000041");
        let bad = islaris_itl::parse_trace(&text).expect("parses");
        let oracle = Oracle::shipped(ARM);
        let (state, mem) = oracle.random_state(&cfg, &mut Rng::new(7)).expect("state");
        let err = oracle
            .check_state(0x910103ff, &bad, &state, &mem)
            .expect_err("diverges");
        assert!(err.contains("SP_EL2"), "{err}");
    }

    #[test]
    fn riscv_basic_ops_validate() {
        let program = [
            (0x1000u64, 0x02A0_0093u32), // addi x1, x0, 42
            (0x1004, 0x0020_81B3),       // add x3, x1, x2
            (0x1008, 0x0000_8183),       // lb x3, 0(x1)
            (0x100c, 0x0031_0023),       // sb x3, 0(x2)
            (0x1010, 0x0000_8067),       // ret
        ];
        let checks = Oracle::shipped(RISCV)
            .check_program(&IslaConfig::new(RISCV), &program, 8)
            .expect("validates");
        assert_eq!(checks, 40);
    }

    #[test]
    fn riscv_branches_validate_on_both_sides() {
        // beq x1, x2, +8 — randomized states exercise both branches.
        let beq = 0x00B5_0463u32 & !(0x1f << 15) & !(0x1f << 20) | (1 << 15) | (2 << 20);
        Oracle::shipped(RISCV)
            .check_program(&IslaConfig::new(RISCV), &[(0x1000, beq)], 16)
            .expect("validates");
    }

    #[test]
    fn assumption_violating_state_is_reported() {
        // Trace generated under EL2; validate against an EL1 state.
        let cfg = arm_el2_cfg();
        let r = trace_opcode(&cfg, &Opcode::Concrete(0x910103ff)).expect("traces");
        let oracle = Oracle::shipped(ARM);
        let (mut state, mem) = oracle.random_state(&cfg, &mut Rng::new(3)).expect("state");
        state.regs.insert("PSTATE.EL".into(), Bv::new(2, 0b01));
        let err = oracle
            .check_state(0x910103ff, &r.trace, &state, &mem)
            .expect_err("trace side hits ⊥");
        assert!(err.contains("assumption"), "{err}");
    }
}
