//! The symbolic evaluator: mini-Sail over symbolic values.
//!
//! One *run* symbolically executes a single instruction along one path,
//! emitting ITL events. Branches on symbolic conditions are resolved by
//! forced decisions (supplied by the driver's tree exploration), by SMT
//! feasibility pruning (the paper's removal of "irrelevant complexity"),
//! or — when both sides are feasible and no decision is forced — by
//! signalling a fork to the driver.

use std::collections::HashMap;
use std::fmt;

use islaris_bv::Bv;
use islaris_itl::Event;
use islaris_sail::{Binop, CheckedModel, Expr as SExpr, LValue, Pattern, Stmt, Ty, Unop};
use islaris_smt::{
    check_sat, BvBinop, BvCmp, BvUnop, Expr, QueryCtx, SolverConfig, SolverMetrics, Sort, Var,
};

use crate::sym::{RegKey, SymState, SymVal};

/// Errors of the symbolic executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IslaError {
    /// A register-array index was symbolic (Isla specialises on concrete
    /// opcodes; indices must be determined).
    SymbolicIndex(String),
    /// `UInt`/`SInt` applied to a symbolic value used as an integer.
    SymbolicInt(String),
    /// Recursion/call depth exceeded.
    DepthExceeded(String),
    /// Fork explosion guard hit.
    TooManyPaths,
    /// Anything else (unknown function at runtime etc.; checker bugs).
    Internal(String),
}

impl fmt::Display for IslaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IslaError::SymbolicIndex(w) => write!(f, "symbolic register index in {w}"),
            IslaError::SymbolicInt(w) => write!(f, "symbolic integer value in {w}"),
            IslaError::DepthExceeded(w) => write!(f, "call depth exceeded in {w}"),
            IslaError::TooManyPaths => write!(f, "too many symbolic execution paths"),
            IslaError::Internal(w) => write!(f, "internal error: {w}"),
        }
    }
}

impl std::error::Error for IslaError {}

/// Control signals that unwind the evaluator.
pub enum Interrupt {
    /// `exit()` — the instruction terminated early.
    Exit,
    /// A two-sided symbolic branch at the exploration frontier.
    Fork(Expr),
    /// The current path's condition set is unsatisfiable.
    Dead,
    /// A hard error.
    Error(IslaError),
}

type R = Result<SymVal, Interrupt>;

/// A register-constraint assumption: given the fresh variable standing for
/// the register's value, produce the assumed predicate (e.g. the paper's
/// relaxed `SPSR_EL2 = a ∨ SPSR_EL2 = b` constraint for `eret`).
pub type ConstraintFn = Box<dyn Fn(&Expr) -> Expr + Send + Sync>;

/// Configuration for symbolic execution: the architecture plus the
/// constraints on the system state (the "default constraints" and
/// "instruction-specific constraints" of Fig. 1).
pub struct IslaConfig {
    /// Architecture (model, PC name, array naming).
    pub arch: islaris_models::Arch,
    /// Registers assumed to hold concrete values (keyed by ITL name, e.g.
    /// `PSTATE.EL`, `SP_EL2`, `R0`). Reads yield the value and record
    /// `AssumeReg`.
    pub reg_values: Vec<(String, Bv)>,
    /// Registers assumed to satisfy a predicate; reads yield a fresh
    /// variable and record `Assume`.
    pub reg_constraints: Vec<(String, ConstraintFn)>,
    /// Solver configuration for feasibility pruning.
    pub solver: SolverConfig,
}

impl IslaConfig {
    /// A configuration with no assumptions.
    #[must_use]
    pub fn new(arch: islaris_models::Arch) -> Self {
        IslaConfig {
            arch,
            reg_values: Vec::new(),
            reg_constraints: Vec::new(),
            solver: SolverConfig::new(),
        }
    }

    /// Adds a concrete register assumption.
    #[must_use]
    pub fn assume_reg(mut self, name: &str, value: Bv) -> Self {
        self.reg_values.push((name.to_owned(), value));
        self
    }

    /// Adds a predicate register assumption.
    #[must_use]
    pub fn constrain_reg(
        mut self,
        name: &str,
        constraint: impl Fn(&Expr) -> Expr + Send + Sync + 'static,
    ) -> Self {
        self.reg_constraints
            .push((name.to_owned(), Box::new(constraint)));
        self
    }
}

const MAX_CALL_DEPTH: u32 = 64;

/// Status of one run.
pub enum RunStatus {
    /// The instruction completed (normally or via `exit()`).
    Completed,
    /// A fork is required on the given condition.
    Pending(Expr),
    /// The path is infeasible.
    Dead,
}

/// Result of one run.
pub struct RunOut {
    /// Events emitted along this path (up to the fork, if pending).
    pub events: Vec<Event>,
    /// How the run ended.
    pub status: RunStatus,
    /// SMT feasibility queries issued.
    pub smt_queries: u64,
    /// Two-sided forks signalled to the driver.
    pub branches_explored: u64,
    /// Branch sides discarded by feasibility pruning.
    pub branches_pruned: u64,
    /// Mini-Sail expression evaluations.
    pub model_steps: u64,
    /// Model function invocations.
    pub model_calls: u64,
    /// Solver effort of the feasibility queries.
    pub solver: SolverMetrics,
    /// The variable counter after the run (for deterministic renumbering).
    pub next_var: u32,
}

/// One symbolic execution run of the model's entry function.
pub struct SymExec<'a> {
    cfg: &'a IslaConfig,
    cm: &'a CheckedModel,
    forced: &'a [bool],
    /// Extra assumptions already in force (spec parameters' constraints).
    pre_path: &'a [Expr],
    st: SymState,
    consts: HashMap<String, SymVal>,
}

impl<'a> SymExec<'a> {
    /// Creates a run. `first_var` must be above any parameter variables;
    /// `param_sorts` declares those parameters' sorts for the solver.
    pub fn new(
        cfg: &'a IslaConfig,
        forced: &'a [bool],
        pre_path: &'a [Expr],
        first_var: u32,
        param_sorts: &[(Var, Sort)],
    ) -> Result<Self, IslaError> {
        let cm = cfg.arch.model();
        let mut st = SymState::new(first_var);
        for (v, s) in param_sorts {
            st.sorts.insert(*v, *s);
        }
        let mut exec = SymExec {
            cfg,
            cm,
            forced,
            pre_path,
            st,
            consts: HashMap::new(),
        };
        // Global constants are closed literal expressions; evaluate once.
        for c in &cm.model.consts.clone() {
            let mut env = HashMap::new();
            let v = match exec.eval(&c.init, &mut env, 0) {
                Ok(v) => v,
                Err(Interrupt::Error(e)) => return Err(e),
                Err(_) => {
                    return Err(IslaError::Internal(format!(
                        "effectful constant initialiser `{}`",
                        c.name
                    )))
                }
            };
            exec.consts.insert(c.name.clone(), v);
        }
        Ok(exec)
    }

    /// Runs the entry function on the (possibly symbolic) opcode.
    pub fn run(mut self, opcode_expr: Expr) -> Result<RunOut, IslaError> {
        let entry = self.cfg.arch.entry;
        let Some(f) = self.cm.model.function(entry) else {
            return Err(IslaError::Internal(format!("no entry function `{entry}`")));
        };
        if f.params.len() != 1 {
            return Err(IslaError::Internal(
                "entry function must take the opcode".into(),
            ));
        }
        let mut env: HashMap<String, SymVal> = HashMap::new();
        env.insert(f.params[0].0.clone(), SymVal::Bits(opcode_expr, 32));
        self.st.model_calls += 1;
        let body = f.body.clone();
        let status = match self.eval(&body, &mut env, 0) {
            Ok(_) | Err(Interrupt::Exit) => RunStatus::Completed,
            Err(Interrupt::Fork(cond)) => RunStatus::Pending(cond),
            Err(Interrupt::Dead) => RunStatus::Dead,
            Err(Interrupt::Error(e)) => return Err(e),
        };
        Ok(RunOut {
            events: self.st.events,
            status,
            smt_queries: self.st.smt_queries,
            branches_explored: self.st.branches_explored,
            branches_pruned: self.st.branches_pruned,
            model_steps: self.st.model_steps,
            model_calls: self.st.model_calls,
            solver: self.st.solver,
            next_var: self.st.vars.peek(),
        })
    }

    // ----- branching -----

    /// Resolves a boolean condition to a concrete decision.
    fn decide(&mut self, cond: &Expr) -> Result<bool, Interrupt> {
        let c = self.st.simp(cond);
        if let Some(b) = c.as_bool() {
            return Ok(b);
        }
        if self.st.depth < self.forced.len() {
            let b = self.forced[self.st.depth];
            self.st.depth += 1;
            self.st.path.push(if b { c } else { Expr::not(c) });
            return Ok(b);
        }
        // Feasibility pruning via the SMT solver.
        let mut q: Vec<Expr> = self.pre_path.to_vec();
        q.extend(self.st.path.iter().cloned());
        q.push(c.clone());
        self.st.smt_queries += 2;
        // `Unknown` counts as possibly satisfiable: unprunable branches stay.
        let mut ctx = QueryCtx::default();
        let (t_ok, f_ok) = {
            let sorts = |v: Var| self.st.sort_of(v);
            let t_ok = !check_sat(&q, &sorts, &self.cfg.solver, &mut ctx).is_unsat();
            *q.last_mut().expect("just pushed") = Expr::not(c.clone());
            let f_ok = !check_sat(&q, &sorts, &self.cfg.solver, &mut ctx).is_unsat();
            (t_ok, f_ok)
        };
        self.st.solver.absorb(&ctx.metrics);
        match (t_ok, f_ok) {
            (true, true) => {
                self.st.branches_explored += 1;
                Err(Interrupt::Fork(c))
            }
            (true, false) => {
                self.st.branches_pruned += 1;
                self.st.path.push(c);
                Ok(true)
            }
            (false, true) => {
                self.st.branches_pruned += 1;
                self.st.path.push(Expr::not(c));
                Ok(false)
            }
            (false, false) => {
                self.st.branches_pruned += 2;
                Err(Interrupt::Dead)
            }
        }
    }

    // ----- registers -----

    fn reg_width(&self, key: &RegKey) -> Result<u32, Interrupt> {
        let name = match key {
            RegKey::Plain(n) => n.as_str(),
            RegKey::Array(n, _) => n.as_str(),
        };
        match self.cm.globals.registers.get(name) {
            Some((Ty::Bits(w), _)) => Ok(*w),
            _ => Err(Interrupt::Error(IslaError::Internal(format!(
                "register `{name}` missing or non-bits"
            )))),
        }
    }

    fn read_reg(&mut self, key: RegKey) -> Result<SymVal, Interrupt> {
        if let Some((e, w)) = self.st.reg_cache.get(&key) {
            return Ok(SymVal::Bits(e.clone(), *w));
        }
        let w = self.reg_width(&key)?;
        let itl = key.to_itl(&self.cfg.arch);
        let name = itl.to_string();
        // Concrete assumption?
        if let Some((_, val)) = self.cfg.reg_values.iter().find(|(n, _)| *n == name) {
            let e = Expr::bits(*val);
            if !self.st.assumed.contains_key(&key) {
                self.st.assumed.insert(key.clone(), ());
                self.st
                    .events
                    .push(Event::AssumeReg(itl.clone(), e.clone()));
            }
            self.st.events.push(Event::ReadReg(itl, e.clone()));
            self.st.reg_cache.insert(key, (e.clone(), w));
            return Ok(SymVal::Bits(e, w));
        }
        // Fresh symbolic read.
        let v = self.st.declare(Sort::BitVec(w));
        let e = Expr::var(v);
        self.st.events.push(Event::ReadReg(itl, e.clone()));
        // Predicate assumption?
        if let Some((_, mk)) = self.cfg.reg_constraints.iter().find(|(n, _)| *n == name) {
            let pred = mk(&e);
            self.st.events.push(Event::Assume(pred.clone()));
            self.st.path.push(pred);
        }
        self.st.reg_cache.insert(key, (e.clone(), w));
        Ok(SymVal::Bits(e, w))
    }

    fn write_reg(&mut self, key: RegKey, value: SymVal) -> Result<(), Interrupt> {
        let (e, w) = value.bits();
        let e = self.st.simp(&e);
        let named = self.st.name_value(e, Sort::BitVec(w));
        let itl = key.to_itl(&self.cfg.arch);
        self.st.events.push(Event::WriteReg(itl, named.clone()));
        self.st.reg_cache.insert(key, (named, w));
        Ok(())
    }

    // ----- evaluation -----

    #[allow(clippy::too_many_lines)]
    fn eval(&mut self, e: &SExpr, env: &mut HashMap<String, SymVal>, depth: u32) -> R {
        self.st.model_steps += 1;
        match e {
            SExpr::LitBits(b) => Ok(SymVal::Bits(Expr::bits(*b), b.width())),
            SExpr::LitBool(b) => Ok(SymVal::Bool(Expr::bool(*b))),
            SExpr::LitInt(n) => Ok(SymVal::Int(*n)),
            SExpr::Unit => Ok(SymVal::Unit),
            SExpr::Var(name) => match env.get(name) {
                Some(v) => Ok(v.clone()),
                None => Err(Interrupt::Error(IslaError::Internal(format!(
                    "unbound local `{name}`"
                )))),
            },
            SExpr::Global(name) => {
                if let Some(v) = self.consts.get(name) {
                    return Ok(v.clone());
                }
                self.read_reg(RegKey::Plain(name.clone()))
            }
            SExpr::RegIdx(name, idx) => {
                let i = self.eval_index(idx, env, depth, name)?;
                self.read_reg(RegKey::Array(name.clone(), i))
            }
            SExpr::Slice(base, hi, lo) => {
                let (b, _w) = self.eval(base, env, depth)?.bits();
                let e = self.st.simp(&Expr::extract(*hi, *lo, b));
                Ok(SymVal::Bits(e, hi - lo + 1))
            }
            SExpr::Unop(op, a) => {
                let v = self.eval(a, env, depth)?;
                Ok(match op {
                    Unop::Not => SymVal::Bool(self.st.simp(&Expr::not(v.boolean()))),
                    Unop::BitNot => {
                        let (e, w) = v.bits();
                        SymVal::Bits(self.st.simp(&Expr::unop(BvUnop::Not, e)), w)
                    }
                    Unop::Neg => SymVal::Int(-v.int()),
                })
            }
            SExpr::Binop(op, a, b) => self.eval_binop(*op, a, b, env, depth),
            SExpr::Call(name, args) => self.eval_call(name, args, env, depth),
            SExpr::If(c, t, f) => {
                let cond = self.eval(c, env, depth)?.boolean();
                let cond = self.st.simp(&cond);
                // Effect-free branches with a symbolic condition become an
                // `ite` expression instead of forking — this is what keeps
                // flag computations (AddWithCarry's N/Z/C/V) linear, as in
                // real Isla traces.
                if cond.as_bool().is_none() && is_pure(t) && is_pure(f) {
                    let vt = self.eval(t, env, depth)?;
                    let vf = self.eval(f, env, depth)?;
                    match (vt, vf) {
                        (SymVal::Bits(a, w), SymVal::Bits(b, w2)) if w == w2 => {
                            return Ok(SymVal::Bits(self.st.simp(&Expr::ite(cond, a, b)), w));
                        }
                        (SymVal::Bool(a), SymVal::Bool(b)) => {
                            return Ok(SymVal::Bool(self.st.simp(&Expr::ite(cond, a, b))));
                        }
                        (SymVal::Unit, SymVal::Unit) => return Ok(SymVal::Unit),
                        _ => {} // fall through to a genuine fork
                    }
                }
                if self.decide(&cond)? {
                    self.eval(t, env, depth)
                } else {
                    self.eval(f, env, depth)
                }
            }
            SExpr::Match(s, arms) => {
                let scrutinee = self.eval(s, env, depth)?;
                for (pat, body) in arms {
                    let hit = match (pat, &scrutinee) {
                        (Pattern::Wildcard, _) => true,
                        (Pattern::Int(pi), SymVal::Int(vi)) => pi == vi,
                        (Pattern::Bits(pb), SymVal::Bits(e, w)) => {
                            debug_assert_eq!(pb.width(), *w);
                            let cond = Expr::eq(e.clone(), Expr::bits(*pb));
                            self.decide(&cond)?
                        }
                        _ => false,
                    };
                    if hit {
                        return self.eval(body, env, depth);
                    }
                }
                Err(Interrupt::Error(IslaError::Internal(
                    "non-exhaustive match".into(),
                )))
            }
            SExpr::Block(stmts, value) => {
                let mut shadowed: Vec<(String, Option<SymVal>)> = Vec::new();
                for stmt in stmts {
                    match stmt {
                        Stmt::Let(name, _ty, init) => {
                            // Locals carry the full (simplified) expression;
                            // `define-const` naming happens at event
                            // emission, exactly as in Fig. 3, where v61
                            // names the whole AddWithCarry computation.
                            let v = match self.eval(init, env, depth)? {
                                SymVal::Bits(e, w) => SymVal::Bits(self.st.simp(&e), w),
                                v => v,
                            };
                            shadowed.push((name.clone(), env.insert(name.clone(), v)));
                        }
                        Stmt::Assign(lv, rhs) => {
                            let v = self.eval(rhs, env, depth)?;
                            match lv {
                                LValue::Reg(name) => {
                                    self.write_reg(RegKey::Plain(name.clone()), v)?;
                                }
                                LValue::RegIdx(name, idx) => {
                                    let i = self.eval_index(idx, env, depth, name)?;
                                    self.write_reg(RegKey::Array(name.clone(), i), v)?;
                                }
                            }
                        }
                        Stmt::Expr(e) => {
                            let _ = self.eval(e, env, depth)?;
                        }
                    }
                }
                let result = match value {
                    None => SymVal::Unit,
                    Some(v) => self.eval(v, env, depth)?,
                };
                for (name, old) in shadowed.into_iter().rev() {
                    match old {
                        Some(v) => env.insert(name, v),
                        None => env.remove(&name),
                    };
                }
                Ok(result)
            }
        }
    }

    fn eval_index(
        &mut self,
        idx: &SExpr,
        env: &mut HashMap<String, SymVal>,
        depth: u32,
        what: &str,
    ) -> Result<usize, Interrupt> {
        match self.eval(idx, env, depth)? {
            SymVal::Int(i) if i >= 0 => Ok(i as usize),
            SymVal::Int(i) => Err(Interrupt::Error(IslaError::Internal(format!(
                "negative register index {i} for `{what}`"
            )))),
            _ => Err(Interrupt::Error(IslaError::SymbolicIndex(what.to_owned()))),
        }
    }

    fn eval_binop(
        &mut self,
        op: Binop,
        a: &SExpr,
        b: &SExpr,
        env: &mut HashMap<String, SymVal>,
        depth: u32,
    ) -> R {
        // Short-circuit boolean connectives via decide on the left side
        // only when needed to avoid spurious forks: keep them symbolic.
        let va = self.eval(a, env, depth)?;
        let vb = self.eval(b, env, depth)?;
        use Binop::*;
        Ok(match (op, va, vb) {
            (BoolAnd, SymVal::Bool(x), SymVal::Bool(y)) => {
                SymVal::Bool(self.st.simp(&Expr::and(x, y)))
            }
            (BoolOr, SymVal::Bool(x), SymVal::Bool(y)) => {
                SymVal::Bool(self.st.simp(&Expr::or(x, y)))
            }
            (Add, SymVal::Bits(x, w), SymVal::Bits(y, _)) => {
                SymVal::Bits(self.st.simp(&Expr::binop(BvBinop::Add, x, y)), w)
            }
            (Sub, SymVal::Bits(x, w), SymVal::Bits(y, _)) => {
                SymVal::Bits(self.st.simp(&Expr::binop(BvBinop::Sub, x, y)), w)
            }
            (Mul, SymVal::Bits(x, w), SymVal::Bits(y, _)) => {
                SymVal::Bits(self.st.simp(&Expr::binop(BvBinop::Mul, x, y)), w)
            }
            (Add, SymVal::Int(x), SymVal::Int(y)) => SymVal::Int(x + y),
            (Sub, SymVal::Int(x), SymVal::Int(y)) => SymVal::Int(x - y),
            (Mul, SymVal::Int(x), SymVal::Int(y)) => SymVal::Int(x * y),
            (BitAnd, SymVal::Bits(x, w), SymVal::Bits(y, _)) => {
                SymVal::Bits(self.st.simp(&Expr::binop(BvBinop::And, x, y)), w)
            }
            (BitOr, SymVal::Bits(x, w), SymVal::Bits(y, _)) => {
                SymVal::Bits(self.st.simp(&Expr::binop(BvBinop::Or, x, y)), w)
            }
            (BitXor, SymVal::Bits(x, w), SymVal::Bits(y, _)) => {
                SymVal::Bits(self.st.simp(&Expr::binop(BvBinop::Xor, x, y)), w)
            }
            (Shl, SymVal::Bits(x, w), amt) => {
                let amt = self.shift_amount(amt, w);
                SymVal::Bits(self.st.simp(&Expr::binop(BvBinop::Shl, x, amt)), w)
            }
            (Shr, SymVal::Bits(x, w), amt) => {
                let amt = self.shift_amount(amt, w);
                SymVal::Bits(self.st.simp(&Expr::binop(BvBinop::Lshr, x, amt)), w)
            }
            (AShr, SymVal::Bits(x, w), amt) => {
                let amt = self.shift_amount(amt, w);
                SymVal::Bits(self.st.simp(&Expr::binop(BvBinop::Ashr, x, amt)), w)
            }
            (Concat, SymVal::Bits(x, wx), SymVal::Bits(y, wy)) => {
                SymVal::Bits(self.st.simp(&Expr::concat(x, y)), wx + wy)
            }
            (Eq, va, vb) => SymVal::Bool(self.sym_eq(&va, &vb)),
            (Ne, va, vb) => SymVal::Bool(self.st.simp(&Expr::not(self.sym_eq(&va, &vb)))),
            (Lt, SymVal::Bits(x, _), SymVal::Bits(y, _)) => {
                SymVal::Bool(self.st.simp(&Expr::cmp(BvCmp::Ult, x, y)))
            }
            (Le, SymVal::Bits(x, _), SymVal::Bits(y, _)) => {
                SymVal::Bool(self.st.simp(&Expr::cmp(BvCmp::Ule, x, y)))
            }
            (SLt, SymVal::Bits(x, _), SymVal::Bits(y, _)) => {
                SymVal::Bool(self.st.simp(&Expr::cmp(BvCmp::Slt, x, y)))
            }
            (SLe, SymVal::Bits(x, _), SymVal::Bits(y, _)) => {
                SymVal::Bool(self.st.simp(&Expr::cmp(BvCmp::Sle, x, y)))
            }
            (Lt, SymVal::Int(x), SymVal::Int(y)) => SymVal::Bool(Expr::bool(x < y)),
            (Le, SymVal::Int(x), SymVal::Int(y)) => SymVal::Bool(Expr::bool(x <= y)),
            (op, a, b) => {
                return Err(Interrupt::Error(IslaError::Internal(format!(
                    "ill-typed binop {op:?} on {a:?}, {b:?}"
                ))))
            }
        })
    }

    fn sym_eq(&self, a: &SymVal, b: &SymVal) -> Expr {
        match (a, b) {
            (SymVal::Bits(x, _), SymVal::Bits(y, _)) => {
                self.st.simp(&Expr::eq(x.clone(), y.clone()))
            }
            (SymVal::Bool(x), SymVal::Bool(y)) => self.st.simp(&Expr::eq(x.clone(), y.clone())),
            (SymVal::Int(x), SymVal::Int(y)) => Expr::bool(x == y),
            _ => Expr::bool(false),
        }
    }

    fn shift_amount(&self, amt: SymVal, width: u32) -> Expr {
        match amt {
            SymVal::Bits(e, _) => e,
            SymVal::Int(n) => Expr::bits(Bv::new(width, n.clamp(0, 255) as u128)),
            other => panic!("bad shift amount {other:?}"),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn eval_call(
        &mut self,
        name: &str,
        args: &[SExpr],
        env: &mut HashMap<String, SymVal>,
        depth: u32,
    ) -> R {
        match name {
            "exit" => return Err(Interrupt::Exit),
            "ZeroExtend" => {
                let (e, w) = self.eval(&args[0], env, depth)?.bits();
                let SExpr::LitInt(n) = args[1] else {
                    unreachable!("checked")
                };
                let target = n as u32;
                return Ok(SymVal::Bits(
                    self.st.simp(&Expr::zero_extend(target - w, e)),
                    target,
                ));
            }
            "SignExtend" => {
                let (e, w) = self.eval(&args[0], env, depth)?.bits();
                let SExpr::LitInt(n) = args[1] else {
                    unreachable!("checked")
                };
                let target = n as u32;
                return Ok(SymVal::Bits(
                    self.st.simp(&Expr::sign_extend(target - w, e)),
                    target,
                ));
            }
            "UInt" => {
                let (e, _w) = self.eval(&args[0], env, depth)?.bits();
                let e = self.st.simp(&e);
                let Some(b) = e.as_bits() else {
                    return Err(Interrupt::Error(IslaError::SymbolicInt(format!(
                        "UInt({e})"
                    ))));
                };
                return Ok(SymVal::Int(b.to_u128() as i128));
            }
            "SInt" => {
                let (e, _w) = self.eval(&args[0], env, depth)?.bits();
                let e = self.st.simp(&e);
                let Some(b) = e.as_bits() else {
                    return Err(Interrupt::Error(IslaError::SymbolicInt(format!(
                        "SInt({e})"
                    ))));
                };
                return Ok(SymVal::Int(b.to_i128()));
            }
            "to_bits" => {
                let SExpr::LitInt(n) = args[0] else {
                    unreachable!("checked")
                };
                let v = self.eval(&args[1], env, depth)?.int();
                return Ok(SymVal::Bits(
                    Expr::bits(Bv::new(n as u32, v as u128)),
                    n as u32,
                ));
            }
            "reverse_bits" => {
                let (e, w) = self.eval(&args[0], env, depth)?.bits();
                return Ok(SymVal::Bits(self.st.simp(&Expr::unop(BvUnop::Rev, e)), w));
            }
            "undefined_bits" => {
                let SExpr::LitInt(n) = args[0] else {
                    unreachable!("checked")
                };
                let v = self.st.declare(Sort::BitVec(n as u32));
                return Ok(SymVal::Bits(Expr::var(v), n as u32));
            }
            "read_mem" => {
                let (addr, _) = self.eval(&args[0], env, depth)?.bits();
                let SExpr::LitInt(n) = args[1] else {
                    unreachable!("checked")
                };
                let bytes = n as u32;
                let addr = {
                    let a = self.st.simp(&addr);
                    self.st.name_value(a, Sort::BitVec(64))
                };
                let v = self.st.declare(Sort::BitVec(8 * bytes));
                self.st.events.push(Event::ReadMem {
                    value: Expr::var(v),
                    addr,
                    bytes,
                });
                return Ok(SymVal::Bits(Expr::var(v), 8 * bytes));
            }
            "write_mem" => {
                let (addr, _) = self.eval(&args[0], env, depth)?.bits();
                let SExpr::LitInt(n) = args[1] else {
                    unreachable!("checked")
                };
                let bytes = n as u32;
                let (value, vw) = self.eval(&args[2], env, depth)?.bits();
                debug_assert_eq!(vw, 8 * bytes);
                let addr = {
                    let a = self.st.simp(&addr);
                    self.st.name_value(a, Sort::BitVec(64))
                };
                let value = {
                    let v = self.st.simp(&value);
                    self.st.name_value(v, Sort::BitVec(8 * bytes))
                };
                self.st.events.push(Event::WriteMem { addr, value, bytes });
                return Ok(SymVal::Unit);
            }
            _ => {}
        }
        if depth >= MAX_CALL_DEPTH {
            return Err(Interrupt::Error(IslaError::DepthExceeded(name.to_owned())));
        }
        let Some(f) = self.cm.model.function(name) else {
            return Err(Interrupt::Error(IslaError::Internal(format!(
                "unknown function `{name}`"
            ))));
        };
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a, env, depth)?);
        }
        let mut inner: HashMap<String, SymVal> = f
            .params
            .iter()
            .zip(vals)
            .map(|((p, _), v)| (p.clone(), v))
            .collect();
        self.st.model_calls += 1;
        let body = f.body.clone();
        self.eval(&body, &mut inner, depth + 1)
    }
}

/// Syntactic effect-freedom: no calls, assignments, or register-array
/// reads (plain register reads may emit trace events, so they also count
/// as effects here; the flag computations this targets are pure
/// arithmetic over locals).
fn is_pure(e: &SExpr) -> bool {
    match e {
        SExpr::LitBits(_) | SExpr::LitBool(_) | SExpr::LitInt(_) | SExpr::Unit | SExpr::Var(_) => {
            true
        }
        SExpr::Global(_) | SExpr::RegIdx(_, _) | SExpr::Call(_, _) | SExpr::Block(_, _) => false,
        SExpr::Slice(b, _, _) | SExpr::Unop(_, b) => is_pure(b),
        SExpr::Binop(_, a, b) => is_pure(a) && is_pure(b),
        SExpr::If(c, t, f) => is_pure(c) && is_pure(t) && is_pure(f),
        SExpr::Match(s, arms) => is_pure(s) && arms.iter().all(|(_, b)| is_pure(b)),
    }
}
