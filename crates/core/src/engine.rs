//! The proof automation engine: a non-backtracking weakest-precondition
//! calculator over Isla traces (§4.3 of the paper).
//!
//! The engine walks a trace event by event, maintaining a separation-logic
//! context (register and memory points-to assertions, pure facts, code
//! specs, protocol state). Every choice point is resolved by a
//! deterministic context query — `findR(r)` is the register map lookup,
//! `findM(a)` the chunk search with solver-checked containment — exactly
//! the Lithium extension the paper describes; there is no backtracking.
//! Side conditions go to the bitvector solver and the LIA/sequence theory;
//! every discharged obligation is logged into a [`Certificate`] that
//! `cert::check_certificate` replays independently.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use islaris_itl::{Event, Reg, Trace};
use islaris_obs::{CacheMetrics, ProofEvent, ProofStep, QueryTable, SessionMetrics};
use islaris_smt::lia::{implies, LinAtom, LinTerm};
use islaris_smt::{
    entails, simplify_with, Expr, QueryCache, QueryCtx, Session, SolverConfig, SolverMetrics, Sort,
    Value, Var, VarGen,
};

use crate::assertions::{Arg, Atom, Param, ProgramSpec, SpecDef};
use crate::bridge::IntBridge;
use crate::cert::{Certificate, Obligation};
use crate::iospec::Protocol;
use crate::seq::{self, SeqCtx, SeqError, SeqNorm, SeqVar};

/// Verification failure, with the address of the failing block and a
/// human-readable reason (which rule could not be applied, which side
/// condition failed).
#[derive(Debug, Clone)]
pub struct VerifyError {
    /// Block being verified.
    pub block: u64,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "verification of block {:#x} failed: {}",
            self.block, self.message
        )
    }
}

impl std::error::Error for VerifyError {}

/// Per-block verification statistics (feeding the Fig. 12 columns).
///
/// Every field except [`BlockStats::time`] is deterministic for a fixed
/// program and spec — the profile tables compare them byte-for-byte
/// across sequential and parallel runs.
#[derive(Debug, Clone, Default)]
pub struct BlockStats {
    /// Trace events processed (over all paths).
    pub events: u64,
    /// Instructions stepped through (over all paths).
    pub instructions: u64,
    /// SMT queries issued.
    pub smt_queries: u64,
    /// LIA queries issued.
    pub lia_queries: u64,
    /// Obligations logged into the certificate.
    pub obligations: u64,
    /// Branches discarded as unreachable (vacuous `Assert` paths).
    pub vacuous_branches: u64,
    /// Solver effort of the engine's SMT queries.
    pub solver: SolverMetrics,
    /// Per-query attribution: solver-query digest → cumulative effort
    /// (the engine's contribution to the `--hot-queries` table).
    pub queries: QueryTable,
    /// Incremental-session counters for this block's [`Session`].
    pub session: SessionMetrics,
    /// Shared query-cache traffic from this block's side provers. Like
    /// [`BlockStats::time`], the hit/miss split is schedule-dependent
    /// when the cache is shared across worker threads (a query another
    /// case has already answered is a hit here); every other field stays
    /// deterministic.
    pub qcache: CacheMetrics,
    /// Wall-clock time in the automation.
    pub time: Duration,
}

/// Result of verifying one block.
#[derive(Debug)]
pub struct BlockReport {
    /// Block address.
    pub addr: u64,
    /// Spec name.
    pub spec: String,
    /// Statistics.
    pub stats: BlockStats,
    /// The obligations discharged (replayable).
    pub cert: Certificate,
    /// Proof-search trace (empty unless [`Verifier::trace`] was set).
    pub ptrace: Vec<ProofEvent>,
}

/// Result of verifying a whole program.
#[derive(Debug, Default)]
pub struct Report {
    /// Per-block reports.
    pub blocks: Vec<BlockReport>,
}

impl Report {
    /// Sum of SMT queries.
    #[must_use]
    pub fn smt_queries(&self) -> u64 {
        self.blocks.iter().map(|b| b.stats.smt_queries).sum()
    }

    /// Sum of automation time.
    #[must_use]
    pub fn time(&self) -> Duration {
        self.blocks.iter().map(|b| b.stats.time).sum()
    }

    /// All obligations of all blocks.
    #[must_use]
    pub fn obligations(&self) -> usize {
        self.blocks.iter().map(|b| b.cert.obligations.len()).sum()
    }
}

/// The verifier: a program spec plus configuration.
pub struct Verifier {
    /// The program (traces, annotations, specs).
    pub prog: ProgramSpec,
    /// MMIO protocol (`spec(s)`).
    pub protocol: Arc<dyn Protocol>,
    /// Solver configuration.
    pub solver: SolverConfig,
    /// Maximum instructions executed per path before giving up.
    pub fuel: u64,
    /// Collect a structured proof-search trace into each
    /// [`BlockReport::ptrace`]. Off by default: tracing allocates one
    /// labelled event per rule fired, so it is opt-in (counters and the
    /// query table are always on — they are cheap field adds).
    pub trace: bool,
    /// Shared query-result cache for the engine's from-scratch side
    /// provers (`None` disables caching). Sound to share across blocks,
    /// cases and threads: entries are keyed by the full rendered query
    /// text plus solver configuration.
    pub qcache: Option<Arc<QueryCache>>,
    /// Intra-case parallelism: blocks are independently judged units
    /// (each starts from its own spec), so [`Verifier::verify_all`]
    /// schedules them as independent jobs on up to this many workers
    /// (`1` = inline, `0` = ask the OS). Reports merge in block-address
    /// order, so rendered output is byte-identical across worker counts.
    pub jobs: usize,
    /// Optional deadline checked *between* block jobs: a lapsed deadline
    /// fails the next block with [`DEADLINE_EXCEEDED`] instead of
    /// starting it, so a long case can be interrupted mid-way (the
    /// daemon's 504 path). Blocks already running are not preempted.
    pub deadline: Option<Instant>,
}

/// The [`VerifyError::message`] used when [`Verifier::deadline`] lapses
/// between block jobs — callers match on it to map the failure to a
/// timeout rather than a verification defect.
pub const DEADLINE_EXCEEDED: &str = "deadline exceeded between block jobs";

impl Verifier {
    /// Creates a verifier with default solver settings and fuel.
    #[must_use]
    pub fn new(prog: ProgramSpec, protocol: Arc<dyn Protocol>) -> Self {
        Verifier {
            prog,
            protocol,
            solver: SolverConfig::new(),
            fuel: 128,
            trace: false,
            qcache: None,
            jobs: 1,
            deadline: None,
        }
    }

    /// Verifies every annotated block with `verify = true`, scheduling
    /// blocks as independent jobs on up to [`Verifier::jobs`] workers.
    /// Results merge in block-address order whatever order workers finish
    /// in, so the report (and everything rendered from it) is
    /// byte-identical across worker counts.
    ///
    /// # Errors
    ///
    /// Returns the lowest-addressed block failure (the same failure a
    /// sequential run reports first), or a [`DEADLINE_EXCEEDED`] failure
    /// if [`Verifier::deadline`] lapsed before some block started.
    pub fn verify_all(&self) -> Result<Report, VerifyError> {
        let addrs: Vec<u64> = self
            .prog
            .blocks
            .iter()
            .filter(|(_, ann)| ann.verify)
            .map(|(addr, _)| *addr)
            .collect();
        let results = crate::pipeline::run_jobs(self.jobs, addrs.len(), |i| {
            if self.deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(VerifyError {
                    block: addrs[i],
                    message: DEADLINE_EXCEEDED.into(),
                });
            }
            self.verify_block(addrs[i])
        });
        let mut report = Report::default();
        for r in results {
            match r {
                Ok(Ok(block)) => report.blocks.push(block),
                Ok(Err(e)) => return Err(e),
                // Preserve sequential semantics: a panic inside a block
                // propagates to the caller rather than being swallowed.
                Err(p) => std::panic::panic_any(p.message),
            }
        }
        Ok(report)
    }

    /// Verifies the block annotated at `addr`.
    ///
    /// # Errors
    ///
    /// Fails if any proof rule cannot be applied or a side condition
    /// cannot be discharged.
    pub fn verify_block(&self, addr: u64) -> Result<BlockReport, VerifyError> {
        let start = Instant::now();
        let ann = self.prog.blocks.get(&addr).ok_or_else(|| VerifyError {
            block: addr,
            message: "no annotation at this address".into(),
        })?;
        let def = self.prog.specs.get(&ann.spec).ok_or_else(|| VerifyError {
            block: addr,
            message: format!("unknown spec `{}`", ann.spec),
        })?;

        let mut eng = Engine::new(self);
        let ctx = eng.load_spec(def, addr).map_err(|m| VerifyError {
            block: addr,
            message: m,
        })?;
        let trace = self
            .prog
            .instrs
            .get(&addr)
            .cloned()
            .ok_or_else(|| VerifyError {
                block: addr,
                message: "no instruction at block start".into(),
            })?;
        eng.exec_trace(ctx, Subst::default(), &trace, self.fuel)
            .map_err(|m| VerifyError {
                block: addr,
                message: m,
            })?;

        eng.shared.stats.session = eng.shared.session.metrics();
        let mut stats = eng.shared.stats;
        stats.time = start.elapsed();
        Ok(BlockReport {
            addr,
            spec: ann.spec.clone(),
            stats,
            cert: Certificate::sealed(eng.shared.cert),
            ptrace: eng.shared.ptrace,
        })
    }
}

/// Per-instruction substitution of trace variables, composed with the
/// instantiation of unconstrained read ghosts.
/// Sort map in canonical (variable-number) order: certificates must render
/// byte-identically run to run, whatever the map's iteration order.
fn sorted_sorts(sorts: &HashMap<Var, Sort>) -> Vec<(Var, Sort)> {
    let mut out: Vec<(Var, Sort)> = sorts.iter().map(|(v, s)| (*v, *s)).collect();
    out.sort_unstable_by_key(|(v, _)| *v);
    out
}

#[derive(Debug, Clone, Default)]
struct Subst {
    /// Trace variable → context expression.
    map: HashMap<Var, Expr>,
    /// Ghosts introduced by `DeclareConst` that no event has constrained
    /// yet; a `ReadReg`/`ReadMem` on such a ghost instantiates it.
    fresh: HashMap<Var, ()>,
    /// Ghost instantiations.
    ghost: HashMap<Var, Expr>,
}

impl Subst {
    fn apply(&self, e: &Expr) -> Expr {
        let once = e.subst(&|v| self.map.get(&v).cloned());
        once.subst(&|v| self.ghost.get(&v).cloned())
    }
}

/// A memory chunk owned by the context.
#[derive(Debug, Clone)]
enum Chunk {
    Plain {
        addr: Expr,
        value: Expr,
        bytes: u32,
    },
    Array {
        addr: Expr,
        norm: SeqNorm,
        elem_bytes: u32,
    },
    Mmio {
        addr: u64,
        bytes: u32,
    },
}

/// The separation-logic context along one path.
#[derive(Debug, Clone, Default)]
struct Ctx {
    regs: BTreeMap<Reg, Expr>,
    chunks: Vec<Chunk>,
    pure: Vec<Expr>,
    /// Length facts `n = |B|` (bv expression, sequence).
    lens: Vec<(Expr, SeqVar)>,
    code_specs: Vec<(Expr, String, Vec<Arg>)>,
    io_state: Option<usize>,
}

/// Shared (path-independent, monotonic) verification state.
struct Shared {
    vargen: VarGen,
    sorts: HashMap<Var, Sort>,
    bridge: IntBridge,
    selects: HashMap<(SeqVar, String), Var>,
    selects_rev: HashMap<Var, (SeqVar, LinTerm)>,
    stats: BlockStats,
    cert: Vec<Obligation>,
    /// Cache of translated LIA facts per (pure, lens) context; the bridge's
    /// atom numbering is deterministic per expression, so entries stay
    /// valid as the bridge grows (range facts are appended per query).
    lia_cache: HashMap<(Vec<Expr>, Vec<(Expr, SeqVar)>), Vec<LinAtom>>,
    /// Proof-search trace collection (on iff [`Verifier::trace`]).
    trace: bool,
    ptrace: Vec<ProofEvent>,
    /// Incremental SMT session: one retained clause database for all of
    /// this block's `prove_bv` queries (facts encoded once, learned
    /// clauses reused across queries).
    session: Session,
}

struct Engine<'v> {
    v: &'v Verifier,
    shared: Shared,
}

/// Proof services bundled for the sequence/LIA layer.
struct ProofEnv<'e> {
    pure: &'e [Expr],
    lens: &'e [(Expr, SeqVar)],
    sorts: &'e mut HashMap<Var, Sort>,
    bridge: &'e mut IntBridge,
    selects: &'e mut HashMap<(SeqVar, String), Var>,
    selects_rev: &'e mut HashMap<Var, (SeqVar, LinTerm)>,
    vargen: &'e mut VarGen,
    solver: &'e SolverConfig,
    stats: &'e mut BlockStats,
    cert: &'e mut Vec<Obligation>,
    lia_cache: &'e mut HashMap<(Vec<Expr>, Vec<(Expr, SeqVar)>), Vec<LinAtom>>,
    /// Bound sequence parameters (during entailment).
    seq_bindings: &'e HashMap<SeqVar, SeqNorm>,
    trace: bool,
    ptrace: &'e mut Vec<ProofEvent>,
    session: &'e mut Session,
    qcache: Option<&'e QueryCache>,
}

impl ProofEnv<'_> {
    /// Appends a proof-trace event; the closure runs (and its label is
    /// formatted) only when tracing is on.
    fn tr(&mut self, ev: impl FnOnce() -> ProofEvent) {
        if self.trace {
            self.ptrace.push(ev());
        }
    }

    /// Tries LIA first for relational goals (fast and complete for the
    /// linear-arithmetic identities loop invariants produce), then the
    /// bitvector solver.
    fn prove_mixed(&mut self, goal: &Expr) -> bool {
        if let Some(atom) = self.goal_to_lia(goal) {
            self.stats.lia_queries += 1;
            self.tr(|| ProofEvent::new(ProofStep::Open, format!("lia {atom:?}")));
            let mut facts = self.lia_facts();
            facts.extend(self.bridge.range_facts());
            if implies(&facts, &atom) {
                self.stats.obligations += 1;
                self.tr(|| ProofEvent::new(ProofStep::Discharge, format!("lia {atom:?}")));
                self.cert.push(Obligation::Lia { facts, goal: atom });
                return true;
            }
            self.tr(|| ProofEvent::new(ProofStep::Fail, format!("lia {atom:?} (fall back to bv)")));
        }
        self.prove_bv(goal)
    }

    /// Converts a relational boolean goal into a LIA atom, if possible.
    fn goal_to_lia(&mut self, goal: &Expr) -> Option<LinAtom> {
        use islaris_smt::{BvCmp, ExprKind};
        let (kind, a, b, neg) = match goal.kind() {
            ExprKind::Eq(a, b) => (None, a, b, false),
            ExprKind::Cmp(op, a, b) => (Some(*op), a, b, false),
            ExprKind::Not(inner) => match inner.kind() {
                ExprKind::Cmp(op, a, b) => (Some(*op), a, b, true),
                _ => return None,
            },
            _ => return None,
        };
        let w = islaris_smt::width_of_with(a, &|v| match self.sorts.get(&v) {
            Some(Sort::BitVec(w)) => Some(*w),
            _ => None,
        })
        .unwrap_or(64);
        let ai = self.to_int_lia(a, w)?;
        let bi = self.to_int_lia(b, w)?;
        Some(match (kind, neg) {
            (None, false) => LinAtom::Eq(ai, bi),
            (Some(BvCmp::Ult), false) => LinAtom::lt(ai, bi),
            (Some(BvCmp::Ule), false) => LinAtom::Le(ai, bi),
            (Some(BvCmp::Ult), true) => LinAtom::Le(bi, ai),
            (Some(BvCmp::Ule), true) => LinAtom::lt(bi, ai),
            _ => return None,
        })
    }

    fn lia_facts(&mut self) -> Vec<LinAtom> {
        let key = (self.pure.to_vec(), self.lens.to_vec());
        if let Some(cached) = self.lia_cache.get(&key) {
            return cached.clone();
        }
        let facts = self.lia_facts_uncached();
        self.lia_cache.insert(key, facts.clone());
        facts
    }

    fn lia_facts_uncached(&mut self) -> Vec<LinAtom> {
        // Two-phase translation of the pure facts: pass 1 converts what
        // needs no side conditions (and the no-wrap facts, which translate
        // directly); pass 2 re-converts with side conditions discharged by
        // LIA over the pass-1 facts (falling back to a budgeted SAT call).
        let sorts = self.sorts.clone();
        let widths = move |e: &Expr| {
            islaris_smt::width_of_with(e, &|v| match sorts.get(&v) {
                Some(Sort::BitVec(w)) => Some(*w),
                _ => None,
            })
        };
        let ws = {
            let sorts = self.sorts.clone();
            move |v: Var| match sorts.get(&v) {
                Some(Sort::BitVec(w)) => Some(*w),
                _ => None,
            }
        };
        let mut prove1 = |g: &Expr| simplify_with(g, &ws).as_bool() == Some(true);
        let mut pass1 = self.bridge.int_facts(self.pure, &widths, &mut prove1);
        for (n, b) in self.lens {
            if let Some(t) = self.bridge.to_int(n, 64, &mut prove1) {
                let lv = LinTerm::var(self.bridge.len_var(*b));
                pass1.push(LinAtom::Eq(t, lv));
            }
        }
        pass1.extend(self.bridge.range_facts());

        let mut ctx = QueryCtx {
            table: Some(&mut self.stats.queries),
            cache: self.qcache,
            ..QueryCtx::default()
        };
        let mut prove2 = side_prover(
            &pass1,
            self.bridge.clone(),
            self.pure.to_vec(),
            self.sorts.clone(),
            self.solver.clone(),
            &mut ctx,
        );
        let mut facts = self.bridge.int_facts(self.pure, &widths, &mut prove2);
        for (n, b) in self.lens {
            if let Some(t) = self.bridge.to_int(n, 64, &mut prove2) {
                let lv = LinTerm::var(self.bridge.len_var(*b));
                facts.push(LinAtom::Eq(t, lv));
            }
        }
        drop(prove2);
        self.stats.smt_queries += ctx.metrics.queries;
        self.stats.solver.absorb(&ctx.metrics);
        self.stats.qcache.absorb(&ctx.cache_metrics);
        facts
    }

    /// Converts a bitvector expression with side conditions discharged by
    /// LIA over the current facts (then budgeted SAT).
    fn to_int_lia(&mut self, e: &Expr, w: u32) -> Option<LinTerm> {
        let mut base = self.lia_facts();
        base.extend(self.bridge.range_facts());
        let mut ctx = QueryCtx {
            table: Some(&mut self.stats.queries),
            cache: self.qcache,
            ..QueryCtx::default()
        };
        let mut prove = side_prover(
            &base,
            self.bridge.clone(),
            self.pure.to_vec(),
            self.sorts.clone(),
            self.solver.clone(),
            &mut ctx,
        );
        let r = self.bridge.to_int(e, w, &mut prove);
        drop(prove);
        self.stats.smt_queries += ctx.metrics.queries;
        self.stats.solver.absorb(&ctx.metrics);
        self.stats.qcache.absorb(&ctx.cache_metrics);
        r
    }
}

impl SeqCtx for ProofEnv<'_> {
    fn prove_int(&mut self, goal: &LinAtom) -> bool {
        self.stats.lia_queries += 1;
        self.tr(|| ProofEvent::new(ProofStep::Open, format!("lia {goal:?}")));
        let mut facts = self.lia_facts();
        facts.extend(self.bridge.range_facts());
        let ok = implies(&facts, goal);
        if ok {
            self.stats.obligations += 1;
            self.tr(|| ProofEvent::new(ProofStep::Discharge, format!("lia {goal:?}")));
            self.cert.push(Obligation::Lia {
                facts,
                goal: goal.clone(),
            });
        } else {
            self.tr(|| ProofEvent::new(ProofStep::Fail, format!("lia {goal:?}")));
        }
        ok
    }

    fn prove_bv(&mut self, goal: &Expr) -> bool {
        let g = simplify_with(goal, &|v| match self.sorts.get(&v) {
            Some(Sort::BitVec(w)) => Some(*w),
            _ => None,
        });
        self.tr(|| ProofEvent::new(ProofStep::Open, format!("bv {g}")));
        if g.as_bool() == Some(true) {
            // A tautology after simplification — still logged, so the
            // certificate checker re-establishes it independently.
            self.stats.obligations += 1;
            self.tr(|| ProofEvent::new(ProofStep::Discharge, format!("bv {g} (tautology)")));
            self.cert.push(Obligation::Bv {
                facts: Vec::new(),
                goal: goal.clone(),
                sorts: sorted_sorts(self.sorts),
            });
            return true;
        }
        self.stats.smt_queries += 1;
        let ws = {
            let sorts = &*self.sorts;
            move |v: Var| sorts.get(&v).copied()
        };
        let mut ctx = QueryCtx {
            table: Some(&mut self.stats.queries),
            ..QueryCtx::default()
        };
        // Incremental: facts are encoded once into the block session and
        // the query runs as an assumption solve against the retained
        // clause database (same answers and digests as the from-scratch
        // `entails`).
        let ok = self.session.entails(self.pure, &g, &ws, &mut ctx);
        let digest = ctx.digest.expect("a table is attached");
        self.stats.solver.absorb(&ctx.metrics);
        if ok {
            self.stats.obligations += 1;
            self.tr(|| ProofEvent::with_digest(ProofStep::Discharge, format!("bv {g}"), digest));
            self.cert.push(Obligation::Bv {
                facts: self.pure.to_vec(),
                goal: g,
                sorts: sorted_sorts(self.sorts),
            });
        } else {
            self.tr(|| ProofEvent::with_digest(ProofStep::Fail, format!("bv {g}"), digest));
        }
        ok
    }

    fn seq_len(&mut self, base: SeqVar) -> LinTerm {
        if let Some(n) = self.seq_bindings.get(&base) {
            return n.len();
        }
        LinTerm::var(self.bridge.len_var(base))
    }

    fn to_int(&mut self, e: &Expr) -> Option<LinTerm> {
        let w = islaris_smt::width_of_with(e, &|v| match self.sorts.get(&v) {
            Some(Sort::BitVec(w)) => Some(*w),
            _ => None,
        })
        .unwrap_or(64);
        self.to_int_lia(e, w)
    }

    fn select(&mut self, base: SeqVar, idx: &LinTerm, width: u32) -> Var {
        let key = (base, idx.to_string());
        if let Some(v) = self.selects.get(&key) {
            return *v;
        }
        let v = self.vargen.fresh();
        self.sorts.insert(v, Sort::BitVec(width));
        self.selects.insert(key, v);
        self.selects_rev.insert(v, (base, idx.clone()));
        v
    }

    fn select_info(&self, v: Var) -> Option<(SeqVar, LinTerm)> {
        self.selects_rev.get(&v).cloned()
    }
}

impl<'v> Engine<'v> {
    fn new(v: &'v Verifier) -> Self {
        // Fresh ghosts start above every variable used in traces or specs.
        let mut max_var = v.prog.specs.max_var();
        for t in v.prog.instrs.values() {
            max_var = max_var.max(max_trace_var(t));
        }
        Engine {
            v,
            shared: Shared {
                vargen: VarGen::starting_at(max_var),
                sorts: HashMap::new(),
                bridge: IntBridge::new(),
                selects: HashMap::new(),
                selects_rev: HashMap::new(),
                stats: BlockStats::default(),
                cert: Vec::new(),
                lia_cache: HashMap::new(),
                trace: v.trace,
                ptrace: Vec::new(),
                session: Session::new(v.solver.clone()),
            },
        }
    }

    /// Appends a proof-trace event; the closure runs only when tracing.
    fn tr(&mut self, ev: impl FnOnce() -> ProofEvent) {
        if self.shared.trace {
            self.shared.ptrace.push(ev());
        }
    }

    fn widths(&self) -> impl Fn(Var) -> Option<u32> + '_ {
        |v| match self.shared.sorts.get(&v) {
            Some(Sort::BitVec(w)) => Some(*w),
            _ => None,
        }
    }

    fn simp(&self, e: &Expr) -> Expr {
        simplify_with(e, &self.widths())
    }

    /// Builds a proof environment over a context (no sequence bindings).
    fn env<'a>(
        shared: &'a mut Shared,
        ctx: &'a Ctx,
        v: &'a Verifier,
        seq_bindings: &'a HashMap<SeqVar, SeqNorm>,
    ) -> ProofEnv<'a> {
        ProofEnv {
            pure: &ctx.pure,
            lens: &ctx.lens,
            sorts: &mut shared.sorts,
            bridge: &mut shared.bridge,
            selects: &mut shared.selects,
            selects_rev: &mut shared.selects_rev,
            vargen: &mut shared.vargen,
            solver: &v.solver,
            stats: &mut shared.stats,
            cert: &mut shared.cert,
            lia_cache: &mut shared.lia_cache,
            seq_bindings,
            trace: shared.trace,
            ptrace: &mut shared.ptrace,
            session: &mut shared.session,
            qcache: v.qcache.as_deref(),
        }
    }

    // ----- spec loading (block start: parameters universally fresh) -----

    fn load_spec(&mut self, def: &SpecDef, addr: u64) -> Result<Ctx, String> {
        // Instantiate parameters by themselves (they are already distinct
        // variables; record their sorts so the solver knows them).
        for p in &def.params {
            match p {
                Param::Bv(v, s) => {
                    self.shared.sorts.insert(*v, *s);
                }
                Param::Seq(_) => {}
            }
        }
        let mut ctx = Ctx::default();
        // Pass 1: pure facts (needed for normalising arrays).
        for atom in &def.atoms {
            match atom {
                Atom::Pure(e) => ctx.pure.push(self.simp(e)),
                Atom::LenEq(n, b) => ctx.lens.push((self.simp(n), *b)),
                _ => {}
            }
        }
        // Pass 2: resources.
        let empty = HashMap::new();
        for atom in &def.atoms {
            match atom {
                Atom::Pure(_) | Atom::LenEq(_, _) => {}
                Atom::Reg(r, v) => {
                    let v = self.simp(v);
                    if ctx.regs.insert(r.clone(), v).is_some() {
                        return Err(format!("duplicate register atom for {r}"));
                    }
                }
                Atom::Mem { addr, value, bytes } => {
                    ctx.chunks.push(Chunk::Plain {
                        addr: self.simp(addr),
                        value: self.simp(value),
                        bytes: *bytes,
                    });
                }
                Atom::MemArray {
                    addr,
                    seq,
                    elem_bytes,
                } => {
                    let norm = {
                        let mut env = Self::env(&mut self.shared, &ctx, self.v, &empty);
                        seq::normalize(seq, &mut env).map_err(|e| e.to_string())?
                    };
                    ctx.chunks.push(Chunk::Array {
                        addr: self.simp(addr),
                        norm,
                        elem_bytes: *elem_bytes,
                    });
                }
                Atom::Mmio { addr, bytes } => {
                    ctx.chunks.push(Chunk::Mmio {
                        addr: *addr,
                        bytes: *bytes,
                    });
                }
                Atom::CodeSpec { addr, spec, args } => {
                    ctx.code_specs
                        .push((self.simp(addr), spec.clone(), args.clone()));
                }
                Atom::Io(s) => ctx.io_state = Some(*s),
            }
        }
        // The PC points at the block.
        ctx.regs
            .insert(self.v.prog.pc.clone(), Expr::bv(64, u128::from(addr)));
        Ok(ctx)
    }

    // ----- trace execution -----

    fn exec_trace(
        &mut self,
        mut ctx: Ctx,
        mut subst: Subst,
        trace: &Trace,
        fuel: u64,
    ) -> Result<(), String> {
        let mut cur: &Trace = trace;
        loop {
            match cur {
                Trace::Nil => return self.step_pc(ctx, fuel),
                Trace::Cases(branches) => {
                    for br in branches {
                        self.exec_trace(ctx.clone(), subst.clone(), br, fuel)?;
                    }
                    return Ok(());
                }
                Trace::Cons(ev, rest) => {
                    self.shared.stats.events += 1;
                    match self.exec_event(&mut ctx, &mut subst, ev)? {
                        Step::Continue => cur = rest,
                        Step::Vacuous => return Ok(()),
                        Step::IoBranches(branches) => {
                            for (guard, next) in branches {
                                let mut c2 = ctx.clone();
                                c2.pure.push(guard);
                                c2.io_state = Some(next);
                                self.exec_trace(c2, subst.clone(), rest, fuel)?;
                            }
                            return Ok(());
                        }
                    }
                }
            }
        }
    }

    fn exec_event(&mut self, ctx: &mut Ctx, subst: &mut Subst, ev: &Event) -> Result<Step, String> {
        let empty = HashMap::new();
        // One `rule` trace event per trace event handled: the engine is
        // rule-directed, so the event kind names the proof rule applied.
        self.tr(|| {
            let label = match ev {
                Event::DeclareConst(x, s) => format!("declare-const {x} {s:?}"),
                Event::DefineConst(x, _) => format!("define-const {x}"),
                Event::ReadReg(r, _) => format!("hoare-read-reg {r}"),
                Event::WriteReg(r, _) => format!("hoare-write-reg {r}"),
                Event::AssumeReg(r, _) => format!("assume-reg {r}"),
                Event::Assume(_) => "assume".into(),
                Event::Assert(_) => "hoare-assert".into(),
                Event::ReadMem { bytes, .. } => format!("hoare-read-mem {bytes}B"),
                Event::WriteMem { bytes, .. } => format!("hoare-write-mem {bytes}B"),
            };
            ProofEvent::new(ProofStep::Rule, label)
        });
        match ev {
            Event::DeclareConst(x, s) => {
                let g = self.shared.vargen.fresh();
                self.shared.sorts.insert(g, *s);
                subst.map.insert(*x, Expr::var(g));
                subst.fresh.insert(g, ());
                Ok(Step::Continue)
            }
            Event::DefineConst(x, e) => {
                let v = self.simp(&subst.apply(e));
                subst.map.insert(*x, v);
                Ok(Step::Continue)
            }
            Event::ReadReg(r, v) => {
                let Some(w) = ctx.regs.get(r).cloned() else {
                    return Err(format!("findR: no `{r} ↦R _` in the context"));
                };
                self.bind_read(ctx, subst, v, w);
                Ok(Step::Continue)
            }
            Event::WriteReg(r, v) => {
                if !ctx.regs.contains_key(r) {
                    return Err(format!("write to unowned register {r}"));
                }
                let val = self.simp(&subst.apply(v));
                ctx.regs.insert(r.clone(), val);
                Ok(Step::Continue)
            }
            Event::AssumeReg(r, v) => {
                let Some(w) = ctx.regs.get(r).cloned() else {
                    return Err(format!("assume-reg: no `{r} ↦R _` in the context"));
                };
                let goal = Expr::eq(w, subst.apply(v));
                let ok = {
                    let mut env = Self::env(&mut self.shared, ctx, self.v, &empty);
                    env.prove_bv(&goal)
                };
                if ok {
                    Ok(Step::Continue)
                } else {
                    Err(format!("assumption on {r} not provable: {goal}"))
                }
            }
            Event::Assume(e) => {
                let goal = self.simp(&subst.apply(e));
                let ok = {
                    let mut env = Self::env(&mut self.shared, ctx, self.v, &empty);
                    env.prove_bv(&goal)
                };
                if ok {
                    Ok(Step::Continue)
                } else {
                    Err(format!("Isla assumption not provable: {goal}"))
                }
            }
            Event::Assert(e) => {
                let cond = self.simp(&subst.apply(e));
                if cond.as_bool() == Some(false) {
                    self.shared.stats.vacuous_branches += 1;
                    self.tr(|| {
                        ProofEvent::new(ProofStep::Backtrack, "vacuous assert (literal false)")
                    });
                    return Ok(Step::Vacuous);
                }
                // If the context refutes the branch condition, the branch
                // is unreachable (hoare-assert with a contradiction).
                let refuted = {
                    let mut env = Self::env(&mut self.shared, ctx, self.v, &empty);
                    env.prove_bv(&Expr::not(cond.clone()))
                };
                if refuted {
                    self.shared.stats.vacuous_branches += 1;
                    self.tr(|| {
                        ProofEvent::new(ProofStep::Backtrack, "vacuous assert (context refutes)")
                    });
                    return Ok(Step::Vacuous);
                }
                ctx.pure.push(cond);
                Ok(Step::Continue)
            }
            Event::ReadMem { value, addr, bytes } => {
                let a = self.simp(&subst.apply(addr));
                match self.find_mem(ctx, &a, *bytes)? {
                    MemRef::Plain(i) => {
                        let w = match &ctx.chunks[i] {
                            Chunk::Plain { value, .. } => value.clone(),
                            _ => unreachable!(),
                        };
                        self.bind_read(ctx, subst, value, w);
                        Ok(Step::Continue)
                    }
                    MemRef::Array(i, idx) => {
                        let elem = {
                            let norm = match &ctx.chunks[i] {
                                Chunk::Array { norm, .. } => norm.clone(),
                                _ => unreachable!(),
                            };
                            let mut env = Self::env(&mut self.shared, ctx, self.v, &empty);
                            let eb = match &ctx.chunks[i] {
                                Chunk::Array { elem_bytes, .. } => *elem_bytes,
                                _ => unreachable!(),
                            };
                            seq::index_norm(&norm, &idx, 8 * eb, &mut env)
                                .map_err(|e: SeqError| e.to_string())?
                        };
                        self.bind_read(ctx, subst, value, elem);
                        Ok(Step::Continue)
                    }
                    MemRef::Mmio(dev_addr) => {
                        let Some(state) = ctx.io_state else {
                            return Err("MMIO read without a spec(s) assertion".into());
                        };
                        // Bind the read value to a ghost (environment's
                        // choice), then branch per the protocol.
                        let g = self.shared.vargen.fresh();
                        self.shared.sorts.insert(g, Sort::BitVec(8 * *bytes));
                        let ghost = Expr::var(g);
                        self.bind_read(ctx, subst, value, ghost.clone());
                        let branches = self
                            .v
                            .protocol
                            .on_read(state, dev_addr, *bytes, &ghost)
                            .ok_or_else(|| {
                                format!("protocol forbids read of {dev_addr:#x} in state {state}")
                            })?;
                        Ok(Step::IoBranches(branches))
                    }
                }
            }
            Event::WriteMem { addr, value, bytes } => {
                let a = self.simp(&subst.apply(addr));
                let val = self.simp(&subst.apply(value));
                match self.find_mem(ctx, &a, *bytes)? {
                    MemRef::Plain(i) => {
                        if let Chunk::Plain { value, .. } = &mut ctx.chunks[i] {
                            *value = val;
                        }
                        Ok(Step::Continue)
                    }
                    MemRef::Array(i, idx) => {
                        let new_norm = {
                            let norm = match &ctx.chunks[i] {
                                Chunk::Array { norm, .. } => norm.clone(),
                                _ => unreachable!(),
                            };
                            let mut env = Self::env(&mut self.shared, ctx, self.v, &empty);
                            seq::update_norm(&norm, &idx, val, &mut env)
                                .map_err(|e: SeqError| e.to_string())?
                        };
                        if let Chunk::Array { norm, .. } = &mut ctx.chunks[i] {
                            *norm = new_norm;
                        }
                        Ok(Step::Continue)
                    }
                    MemRef::Mmio(dev_addr) => {
                        let Some(state) = ctx.io_state else {
                            return Err("MMIO write without a spec(s) assertion".into());
                        };
                        let (obligation, next) = self
                            .v
                            .protocol
                            .on_write(state, dev_addr, *bytes, &val)
                            .ok_or_else(|| {
                                format!("protocol forbids write of {dev_addr:#x} in state {state}")
                            })?;
                        let ok = {
                            let mut env = Self::env(&mut self.shared, ctx, self.v, &empty);
                            env.prove_bv(&obligation)
                        };
                        if !ok {
                            return Err(format!(
                                "protocol write obligation not provable: {obligation}"
                            ));
                        }
                        ctx.io_state = Some(next);
                        Ok(Step::Continue)
                    }
                }
            }
        }
    }

    /// `hoare-read-*`: constrain the trace value `v` to the context value
    /// `w`. A still-unconstrained ghost is instantiated (the deterministic
    /// Lithium move); otherwise the equation becomes an assumption.
    fn bind_read(&mut self, ctx: &mut Ctx, subst: &mut Subst, v: &Expr, w: Expr) {
        let vs = subst.apply(v);
        if let Some(g) = vs.as_var() {
            if subst.fresh.remove(&g).is_some() {
                subst.ghost.insert(g, w);
                return;
            }
        }
        let fact = self.simp(&Expr::eq(vs, w));
        if fact.as_bool() != Some(true) {
            ctx.pure.push(fact);
        }
    }

    // ----- memory search (findM) -----

    fn find_mem(&mut self, ctx: &Ctx, addr: &Expr, bytes: u32) -> Result<MemRef, String> {
        let empty = HashMap::new();
        // 1. Plain chunks: syntactic, then semantic address equality.
        for (i, ch) in ctx.chunks.iter().enumerate() {
            if let Chunk::Plain {
                addr: a, bytes: b, ..
            } = ch
            {
                if *b == bytes && a == addr {
                    return Ok(MemRef::Plain(i));
                }
            }
        }
        for (i, ch) in ctx.chunks.iter().enumerate() {
            if let Chunk::Plain {
                addr: a, bytes: b, ..
            } = ch
            {
                if *b == bytes {
                    let goal = Expr::eq(a.clone(), addr.clone());
                    let mut env = Self::env(&mut self.shared, ctx, self.v, &empty);
                    if env.prove_bv(&goal) {
                        return Ok(MemRef::Plain(i));
                    }
                }
            }
        }
        // 2. Arrays: containment via the int bridge + LIA.
        let mut diag = String::new();
        for (i, ch) in ctx.chunks.iter().enumerate() {
            if let Chunk::Array {
                addr: base,
                norm,
                elem_bytes,
            } = ch
            {
                if *elem_bytes != bytes {
                    continue;
                }
                let mut env = Self::env(&mut self.shared, ctx, self.v, &empty);
                let (ai, bi) = (env.to_int(addr), env.to_int(base));
                let (Some(ai), Some(bi)) = (ai, bi) else {
                    diag.push_str(&format!("[chunk {i}: address not convertible] "));
                    continue;
                };
                let diff = ai.sub(&bi);
                let Some(idx) = div_term(&diff, i128::from(*elem_bytes)) else {
                    diag.push_str(&format!("[chunk {i}: offset {diff} not divisible] "));
                    continue;
                };
                let len = norm.len();
                let lo_ok = env.prove_int(&LinAtom::Le(LinTerm::constant(0), idx.clone()));
                let hi_ok = env.prove_int(&LinAtom::lt(idx.clone(), len));
                if lo_ok && hi_ok {
                    return Ok(MemRef::Array(i, idx));
                }
                diag.push_str(&format!(
                    "[chunk {i}: idx {idx} bounds lo={lo_ok} hi={hi_ok}] "
                ));
            }
        }
        // 3. MMIO regions: address provably equals the device register.
        for ch in &ctx.chunks {
            if let Chunk::Mmio {
                addr: dev,
                bytes: b,
            } = ch
            {
                if *b == bytes {
                    let goal = Expr::eq(addr.clone(), Expr::bv(64, u128::from(*dev)));
                    let mut env = Self::env(&mut self.shared, ctx, self.v, &empty);
                    if env.prove_bv(&goal) {
                        return Ok(MemRef::Mmio(*dev));
                    }
                }
            }
        }
        Err(format!(
            "findM: no chunk covers address {addr} ({bytes} bytes) {diag}"
        ))
    }

    // ----- inter-instruction steps (hoare-instr / hoare-instr-pre) -----

    fn step_pc(&mut self, ctx: Ctx, fuel: u64) -> Result<(), String> {
        self.shared.stats.instructions += 1;
        let Some(pc) = ctx.regs.get(&self.v.prog.pc).cloned() else {
            return Err("no PC points-to in the context".into());
        };
        let pc = self.simp(&pc);
        self.tr(|| ProofEvent::new(ProofStep::Rule, format!("hoare-instr pc={pc}")));
        if let Some(Value::Bits(b)) = pc.as_value() {
            let addr = b.to_u64();
            if let Some(ann) = self.v.prog.blocks.get(&addr) {
                // Skip the entailment when this is the block itself being
                // entered for the first time? No: reaching an annotation
                // (including the loop head itself) proves its spec.
                let def = self
                    .v
                    .prog
                    .specs
                    .get(&ann.spec)
                    .ok_or_else(|| format!("unknown spec `{}`", ann.spec))?
                    .clone();
                return self.entail(ctx, &def, None);
            }
            if let Some(trace) = self.v.prog.instrs.get(&addr).cloned() {
                if fuel == 0 {
                    return Err("fuel exhausted (missing loop annotation?)".into());
                }
                return self.exec_trace(ctx, Subst::default(), &trace, fuel - 1);
            }
            return Err(format!("PC = {addr:#x}: no instruction or annotation"));
        }
        // Symbolic PC: function-pointer / return-address dispatch through
        // a@@Q assertions in the context (hoare-instr-pre).
        let candidates = ctx.code_specs.clone();
        for (addr_e, name, args) in &candidates {
            let goal = Expr::eq(pc.clone(), addr_e.clone());
            let empty = HashMap::new();
            let ok = {
                let mut env = Self::env(&mut self.shared, &ctx, self.v, &empty);
                env.prove_bv(&goal)
            };
            if ok {
                let def = self
                    .v
                    .prog
                    .specs
                    .get(name)
                    .ok_or_else(|| format!("unknown spec `{name}`"))?
                    .clone();
                // Empty argument lists on a parameterised spec mean
                // "infer everything from the context" (used for callee
                // specs like the binary-search comparator).
                return self.entail(ctx, &def, Some(args));
            }
        }
        Err(format!("PC = {pc}: cannot resolve continuation"))
    }

    // ----- entailment (proving a spec from the context) -----

    #[allow(clippy::too_many_lines)]
    fn entail(&mut self, ctx: Ctx, def: &SpecDef, given: Option<&[Arg]>) -> Result<(), String> {
        self.tr(|| ProofEvent::new(ProofStep::Rule, format!("entail spec `{}`", def.name)));
        let mut bv_bind: HashMap<Var, Expr> = HashMap::new();
        let mut seq_bind: HashMap<SeqVar, SeqNorm> = HashMap::new();
        if let Some(args) = given {
            // Partial application: the first k parameters are pinned by the
            // arguments, the rest are existentials inferred from the
            // context (register wildcards in postconditions).
            if args.len() > def.params.len() {
                return Err(format!(
                    "spec `{}` takes {} parameters, got {} arguments",
                    def.name,
                    def.params.len(),
                    args.len()
                ));
            }
            for (p, a) in def.params.iter().zip(args) {
                match (p, a) {
                    (Param::Bv(v, _), Arg::Bv(e)) => {
                        bv_bind.insert(*v, self.simp(e));
                    }
                    (Param::Seq(b), Arg::Seq(se)) => {
                        let norm = {
                            let mut env = Self::env(&mut self.shared, &ctx, self.v, &seq_bind);
                            seq::normalize(se, &mut env).map_err(|e| e.to_string())?
                        };
                        seq_bind.insert(*b, norm);
                    }
                    _ => return Err(format!("argument sort mismatch for `{}`", def.name)),
                }
            }
        }
        let params: Vec<Param> = def.params.clone();
        let is_param = |v: Var| {
            params
                .iter()
                .any(|p| matches!(p, Param::Bv(pv, _) if *pv == v))
        };
        let is_seq_param = |b: SeqVar| {
            params
                .iter()
                .any(|p| matches!(p, Param::Seq(pb) if *pb == b))
        };

        for atom in &def.atoms {
            match atom {
                Atom::Reg(r, pat) => {
                    let Some(w) = ctx.regs.get(r).cloned() else {
                        return Err(format!("goal needs `{r} ↦R _`, not in context"));
                    };
                    self.unify_bv(&ctx, pat, &w, &mut bv_bind, &is_param, &seq_bind)?;
                }
                Atom::Pure(e) => {
                    let goal = e.subst(&|v| bv_bind.get(&v).cloned());
                    let goal = self.simp(&goal);
                    let ok = {
                        let mut env = Self::env(&mut self.shared, &ctx, self.v, &seq_bind);
                        env.prove_mixed(&goal)
                    };
                    if !ok {
                        return Err(format!("pure side condition not provable: {goal}"));
                    }
                }
                Atom::LenEq(n, b) => {
                    let n = self.simp(&n.subst(&|v| bv_bind.get(&v).cloned()));
                    let mut env = Self::env(&mut self.shared, &ctx, self.v, &seq_bind);
                    let Some(ni) = env.to_int(&n) else {
                        return Err(format!("length fact: `{n}` not convertible"));
                    };
                    let li = env.seq_len(*b);
                    if !env.prove_int(&LinAtom::Eq(ni, li)) {
                        return Err(format!("length fact not provable: {n} = |{b}|"));
                    }
                }
                Atom::Mem { addr, value, bytes } => {
                    let a = self.simp(&addr.subst(&|v| bv_bind.get(&v).cloned()));
                    match self.find_mem(&ctx, &a, *bytes)? {
                        MemRef::Plain(i) => {
                            let w = match &ctx.chunks[i] {
                                Chunk::Plain { value, .. } => value.clone(),
                                _ => unreachable!(),
                            };
                            self.unify_bv(&ctx, value, &w, &mut bv_bind, &is_param, &seq_bind)?;
                        }
                        _ => return Err(format!("goal cell at {a} not a plain chunk")),
                    }
                }
                Atom::MemArray {
                    addr,
                    seq,
                    elem_bytes,
                } => {
                    let a = self.simp(&addr.subst(&|v| bv_bind.get(&v).cloned()));
                    // Find the array chunk with (provably) the same base.
                    let mut found = None;
                    for (i, ch) in ctx.chunks.iter().enumerate() {
                        if let Chunk::Array {
                            addr: base,
                            elem_bytes: eb,
                            ..
                        } = ch
                        {
                            if eb == elem_bytes {
                                let same = base == &a || {
                                    let goal = Expr::eq(base.clone(), a.clone());
                                    let mut env =
                                        Self::env(&mut self.shared, &ctx, self.v, &seq_bind);
                                    env.prove_bv(&goal)
                                };
                                if same {
                                    found = Some(i);
                                    break;
                                }
                            }
                        }
                    }
                    let Some(i) = found else {
                        return Err(format!("goal array at {a} has no matching chunk"));
                    };
                    let chunk_norm = match &ctx.chunks[i] {
                        Chunk::Array { norm, .. } => norm.clone(),
                        _ => unreachable!(),
                    };
                    // Unbound sequence parameter: bind it to the chunk.
                    if let crate::seq::SeqExpr::Var(b) = seq {
                        if is_seq_param(*b) && !seq_bind.contains_key(b) {
                            seq_bind.insert(*b, chunk_norm);
                            continue;
                        }
                    }
                    let goal_seq = subst_seq(seq, &bv_bind);
                    let ok = {
                        let mut env = Self::env(&mut self.shared, &ctx, self.v, &seq_bind);
                        let goal_norm = {
                            let mut bound = BoundSeqCtxResolve {
                                env: &mut env,
                                bindings: &seq_bind,
                            };
                            seq::normalize(&goal_seq, &mut bound).map_err(|e| e.to_string())?
                        };
                        seq::eq_norm(&goal_norm, &chunk_norm, 8 * elem_bytes, &mut env)
                            .map_err(|e| e.to_string())?
                    };
                    if !ok {
                        return Err(format!(
                            "array contents at {a} do not match the goal sequence \
                             (goal {seq:?}, chunk {chunk_norm:?})"
                        ));
                    }
                }
                Atom::Mmio { addr, bytes } => {
                    let present = ctx.chunks.iter().any(|c| {
                        matches!(c, Chunk::Mmio { addr: a, bytes: b } if a == addr && b == bytes)
                    });
                    if !present {
                        return Err(format!("goal needs MMIO region at {addr:#x}"));
                    }
                }
                Atom::CodeSpec { addr, spec, args } => {
                    let a = self.simp(&addr.subst(&|v| bv_bind.get(&v).cloned()));
                    // Annotations are persistent `a @@ spec(∀params)`
                    // assertions: a concrete target annotated with the same
                    // spec discharges the goal for any instantiation.
                    if let Some(Value::Bits(b)) = a.as_value() {
                        if let Some(ann) = self.v.prog.blocks.get(&b.to_u64()) {
                            if ann.spec == *spec {
                                continue;
                            }
                        }
                    }
                    let mut matched = false;
                    let entries = ctx.code_specs.clone();
                    for (ca, cname, cargs) in &entries {
                        if cname != spec || cargs.len() != args.len() {
                            continue;
                        }
                        let same = *ca == a || {
                            let goal = Expr::eq(ca.clone(), a.clone());
                            let mut env = Self::env(&mut self.shared, &ctx, self.v, &seq_bind);
                            env.prove_bv(&goal)
                        };
                        if !same {
                            continue;
                        }
                        // Unify arguments.
                        let mut all_ok = true;
                        for (ga, ca) in args.iter().zip(cargs) {
                            match (ga, ca) {
                                (Arg::Bv(g), Arg::Bv(c)) => {
                                    if self
                                        .unify_bv(&ctx, g, c, &mut bv_bind, &is_param, &seq_bind)
                                        .is_err()
                                    {
                                        all_ok = false;
                                        break;
                                    }
                                }
                                (Arg::Seq(g), Arg::Seq(c)) => {
                                    let ok = {
                                        let gs = subst_seq(g, &bv_bind);
                                        let mut env =
                                            Self::env(&mut self.shared, &ctx, self.v, &seq_bind);
                                        let gn = {
                                            let mut bound = BoundSeqCtxResolve {
                                                env: &mut env,
                                                bindings: &seq_bind,
                                            };
                                            seq::normalize(&gs, &mut bound)
                                        };
                                        let cn = {
                                            let mut bound = BoundSeqCtxResolve {
                                                env: &mut env,
                                                bindings: &seq_bind,
                                            };
                                            seq::normalize(c, &mut bound)
                                        };
                                        match (gn, cn) {
                                            (Ok(gn), Ok(cn)) => {
                                                seq::eq_norm(&gn, &cn, 8, &mut env).unwrap_or(false)
                                            }
                                            _ => false,
                                        }
                                    };
                                    if !ok {
                                        all_ok = false;
                                        break;
                                    }
                                }
                                _ => {
                                    all_ok = false;
                                    break;
                                }
                            }
                        }
                        if all_ok {
                            matched = true;
                            break;
                        }
                    }
                    if !matched {
                        return Err(format!(
                            "goal `{a} @@ {spec}(…)` has no matching context assertion"
                        ));
                    }
                }
                Atom::Io(s) => {
                    if ctx.io_state != Some(*s) {
                        return Err(format!(
                            "goal protocol state {s} ≠ context state {:?}",
                            ctx.io_state
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Unifies a goal pattern with a context value: an unbound parameter
    /// is instantiated; otherwise equality becomes an obligation.
    fn unify_bv(
        &mut self,
        ctx: &Ctx,
        pat: &Expr,
        w: &Expr,
        bv_bind: &mut HashMap<Var, Expr>,
        is_param: &dyn Fn(Var) -> bool,
        seq_bind: &HashMap<SeqVar, SeqNorm>,
    ) -> Result<(), String> {
        if let Some(p) = pat.as_var() {
            if is_param(p) && !bv_bind.contains_key(&p) {
                bv_bind.insert(p, w.clone());
                return Ok(());
            }
        }
        let goal = self.simp(&Expr::eq(
            pat.subst(&|v| bv_bind.get(&v).cloned()),
            w.clone(),
        ));
        let ok = {
            let mut env = Self::env(&mut self.shared, ctx, self.v, seq_bind);
            env.prove_mixed(&goal)
        };
        if ok {
            Ok(())
        } else {
            Err(format!("unification obligation not provable: {goal}"))
        }
    }
}

/// Sequence normalisation that resolves bound sequence parameters.
struct BoundSeqCtxResolve<'a, 'e> {
    env: &'a mut ProofEnv<'e>,
    bindings: &'a HashMap<SeqVar, SeqNorm>,
}

impl SeqCtx for BoundSeqCtxResolve<'_, '_> {
    fn prove_int(&mut self, goal: &LinAtom) -> bool {
        self.env.prove_int(goal)
    }
    fn prove_bv(&mut self, goal: &Expr) -> bool {
        self.env.prove_bv(goal)
    }
    fn seq_len(&mut self, base: SeqVar) -> LinTerm {
        match self.bindings.get(&base) {
            Some(n) => n.len(),
            None => self.env.seq_len(base),
        }
    }
    fn to_int(&mut self, e: &Expr) -> Option<LinTerm> {
        self.env.to_int(e)
    }
    fn select(&mut self, base: SeqVar, idx: &LinTerm, width: u32) -> Var {
        self.env.select(base, idx, width)
    }
    fn select_info(&self, v: Var) -> Option<(SeqVar, LinTerm)> {
        self.env.select_info(v)
    }
    fn resolve(&mut self, base: SeqVar) -> Option<SeqNorm> {
        self.bindings.get(&base).cloned()
    }
}

enum Step {
    Continue,
    Vacuous,
    IoBranches(Vec<(Expr, usize)>),
}

enum MemRef {
    Plain(usize),
    Array(usize, LinTerm),
    Mmio(u64),
}

fn subst_seq(e: &crate::seq::SeqExpr, bv: &HashMap<Var, Expr>) -> crate::seq::SeqExpr {
    use crate::seq::SeqExpr as S;
    let s = |x: &Expr| x.subst(&|v| bv.get(&v).cloned());
    match e {
        S::Var(b) => S::Var(*b),
        S::Lit(es) => S::Lit(es.iter().map(s).collect()),
        S::Take(b, k) => S::Take(Box::new(subst_seq(b, bv)), s(k)),
        S::Drop(b, k) => S::Drop(Box::new(subst_seq(b, bv)), s(k)),
        S::App(a, b) => S::App(Box::new(subst_seq(a, bv)), Box::new(subst_seq(b, bv))),
        S::Update(b, i, v) => S::Update(Box::new(subst_seq(b, bv)), s(i), s(v)),
    }
}

fn div_term(t: &LinTerm, k: i128) -> Option<LinTerm> {
    if k == 1 {
        return Some(t.clone());
    }
    // All coefficients and the constant must divide exactly.
    t.div_exact(k)
}

/// Recursive LIA proving of bridge side conditions: syntactic
/// simplification, then no-wrap / unsigned-comparison goals decided by
/// Fourier–Motzkin over `base`, with nested side conditions handled up to
/// a small depth.
fn lia_side_prove(
    goal: &Expr,
    base: &[LinAtom],
    scratch: &IntBridge,
    sorts: &HashMap<Var, Sort>,
    depth: u32,
) -> bool {
    let ws = |v: Var| match sorts.get(&v) {
        Some(Sort::BitVec(w)) => Some(*w),
        _ => None,
    };
    let g = simplify_with(goal, &ws);
    if g.as_bool() == Some(true) {
        return true;
    }
    if depth == 0 {
        return false;
    }
    let mut sc = scratch.clone();
    let mut prove = |sub: &Expr| lia_side_prove(sub, base, scratch, sorts, depth - 1);
    let atom = if let Some((x, y, w)) = crate::bridge::no_wrap_shape(&g) {
        let (xi, yi) = match (sc.to_int(&x, w, &mut prove), sc.to_int(&y, w, &mut prove)) {
            (Some(a), Some(b)) => (a, b),
            _ => return false,
        };
        let max = if w >= 127 {
            i128::MAX
        } else {
            (1i128 << w) - 1
        };
        Some(LinAtom::Le(xi.add(&yi), LinTerm::constant(max)))
    } else if let Some((x, k, xw)) = high_bits_zero_shape(&g, &ws) {
        // extract(w−1, k, x) = 0 ⟺ int(x) ≤ 2^k − 1.
        let Some(xi) = sc.to_int(&x, xw, &mut prove) else {
            return false;
        };
        let max = if k >= 127 {
            i128::MAX
        } else {
            (1i128 << k) - 1
        };
        Some(LinAtom::Le(xi, LinTerm::constant(max)))
    } else if let islaris_smt::ExprKind::Cmp(op, a, b) = g.kind() {
        use islaris_smt::BvCmp;
        let w = islaris_smt::width_of_with(a, &ws)
            .or_else(|| islaris_smt::width_of_with(b, &ws))
            .unwrap_or(64);
        match (sc.to_int(a, w, &mut prove), sc.to_int(b, w, &mut prove)) {
            (Some(ai), Some(bi)) => match op {
                BvCmp::Ult => Some(LinAtom::lt(ai, bi)),
                BvCmp::Ule => Some(LinAtom::Le(ai, bi)),
                _ => None,
            },
            _ => None,
        }
    } else {
        None
    };
    let Some(atom) = atom else { return false };
    let mut facts = base.to_vec();
    facts.extend(sc.range_facts());
    implies(&facts, &atom)
}

/// Matches `(= ((_ extract w-1 k) x) 0)`, returning `(x, k, w)`.
fn high_bits_zero_shape(g: &Expr, ws: &dyn Fn(Var) -> Option<u32>) -> Option<(Expr, u32, u32)> {
    let islaris_smt::ExprKind::Eq(l, r) = g.kind() else {
        return None;
    };
    let (ext, z) = if r.as_bits().is_some_and(|b| b.is_zero()) {
        (l, r)
    } else if l.as_bits().is_some_and(|b| b.is_zero()) {
        (r, l)
    } else {
        return None;
    };
    let _ = z;
    let islaris_smt::ExprKind::Extract(hi, lo, x) = ext.kind() else {
        return None;
    };
    let w = islaris_smt::width_of_with(x, ws)?;
    if *hi != w - 1 {
        return None;
    }
    Some((x.clone(), *lo, w))
}

/// Builds a side-condition prover for bridge conversions: recursive LIA
/// first, then a budgeted SAT call.
fn side_prover<'a, 'c>(
    base: &'a [LinAtom],
    scratch: IntBridge,
    pure: Vec<Expr>,
    sorts: HashMap<Var, Sort>,
    solver: SolverConfig,
    ctx: &'a mut QueryCtx<'c>,
) -> impl FnMut(&Expr) -> bool + use<'a, 'c> {
    let cfg = SolverConfig {
        max_conflicts: 50_000,
        ..solver
    };
    move |goal: &Expr| {
        // These queries recur across blocks and cases (the same bridge
        // side conditions arise wherever the same pointer arithmetic
        // does), so they go through the shared cache when one is wired.
        lia_side_prove(goal, base, &scratch, &sorts, 4)
            || entails(&pure, goal, &|v| sorts.get(&v).copied(), &cfg, ctx)
    }
}

fn max_trace_var(t: &Trace) -> u32 {
    match t {
        Trace::Nil => 0,
        Trace::Cons(ev, rest) => {
            let mut m = 0;
            fn bump(m: &mut u32, e: &Expr) {
                for v in e.free_vars() {
                    *m = (*m).max(v.0 + 1);
                }
            }
            match ev {
                Event::ReadReg(_, v) | Event::WriteReg(_, v) | Event::AssumeReg(_, v) => {
                    bump(&mut m, v);
                }
                Event::ReadMem { value, addr, .. } | Event::WriteMem { addr, value, .. } => {
                    bump(&mut m, value);
                    bump(&mut m, addr);
                }
                Event::Assume(e) | Event::Assert(e) => bump(&mut m, e),
                Event::DeclareConst(v, _) => m = m.max(v.0 + 1),
                Event::DefineConst(v, e) => {
                    m = m.max(v.0 + 1);
                    bump(&mut m, e);
                }
            }
            m.max(max_trace_var(rest))
        }
        Trace::Cases(ts) => ts.iter().map(max_trace_var).max().unwrap_or(0),
    }
}
