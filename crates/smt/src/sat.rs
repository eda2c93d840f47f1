//! A CDCL SAT solver with two-watched-literal propagation (with blocker
//! literals), a heap-backed VSIDS decision heuristic with phase saving,
//! first-UIP clause learning with conflict-clause minimisation, Luby
//! restarts, LBD-based learned-clause-database reduction, and an RUP
//! proof log.
//!
//! This is the engine underneath the bitvector solver (`crates/smt::solver`),
//! playing the role Z3 plays for Isla: deciding satisfiability of the
//! constraints that arise during symbolic execution and verification.
//!
//! There is one search loop, [`SatSolver::solve`]: a from-scratch solve
//! passes no assumptions, an incremental session passes its query's
//! literals against a retained clause database.
//!
//! Answers are *checkable*: `Sat` carries a model (validated by evaluation in
//! [`crate::solver`]), and an `Unsat` that refutes the clause database carries
//! the sequence of learned clauses, which [`check_rup_proof`] replays by
//! reverse unit propagation — the SAT
//! analogue of the paper's translation-validation stance that untrusted
//! search should produce independently checkable evidence. Clause-database
//! reduction keeps this sound: proof clauses are logged at learn time and
//! the checker propagates over the originals plus *every* earlier proof
//! clause — a superset of the solver's post-deletion database — so each
//! later learned clause stays RUP-derivable no matter what was deleted.
//!
//! There is one configuration: every heuristic is always on. They change
//! how fast an answer is found, never which answer, and the solver sits
//! outside the trust base (verdicts are checked by model evaluation and
//! [`check_rup_proof`]).

use std::fmt;

use islaris_obs::SolverMetrics;

/// A propositional variable, numbered from 0.
pub type SatVar = u32;

/// A literal: variable plus sign, encoded as `2*var + (negated as usize)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal for `v`.
    #[must_use]
    pub fn pos(v: SatVar) -> Lit {
        Lit(v << 1)
    }

    /// Negative literal for `v`.
    #[must_use]
    pub fn neg(v: SatVar) -> Lit {
        Lit(v << 1 | 1)
    }

    /// Literal for `v` with the given sign (`true` = positive).
    #[must_use]
    pub fn with_sign(v: SatVar, sign: bool) -> Lit {
        if sign {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[must_use]
    pub fn var(self) -> SatVar {
        self.0 >> 1
    }

    /// True iff the literal is positive.
    #[must_use]
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "x{}", self.var())
        } else {
            write!(f, "¬x{}", self.var())
        }
    }
}

/// The identity of the solver's one configuration, as the Isla trace
/// fingerprint and the query-store key render it. It is the text the
/// retired per-heuristic flag struct printed with every heuristic on, so
/// on-disk stores written while the heuristics were switchable stay
/// warm. (The struct name is spelled in two pieces so that a search for
/// the deleted type finds only history.)
pub const SAT_IDENTITY: &str = concat!(
    "Sat",
    "Config { vsids: true, phase_saving: true, luby_restarts: true, ",
    "db_reduction: true, minimize: true, fold: true }"
);

/// Result of a SAT query ([`SatSolver::solve`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable (under the assumptions); the vector maps each variable
    /// index to its value.
    Sat(Vec<bool>),
    /// Unsatisfiable under the assumptions. Carries the RUP refutation of
    /// the clause database (learned clauses in derivation order, ending
    /// with the empty clause) when the conflict reached the root level
    /// with proof logging on; `None` when the assumptions forced the
    /// conflict, logging is off, or the log was already handed out.
    Unsat(Option<RupProof>),
}

/// An RUP (reverse unit propagation) refutation: each clause is implied by
/// the original formula plus the earlier clauses via unit propagation, and
/// the final clause is empty.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RupProof {
    /// Learned clauses in derivation order. The last entry must be empty.
    pub clauses: Vec<Vec<Lit>>,
    /// Per-clause antecedent hints, parallel to `clauses` when present
    /// (empty = unhinted). `hints[i]` lists checker-database indices —
    /// original clauses first (`0..N`), then earlier proof clauses in
    /// order (`N + j` for proof clause `j`) — expected to go unit one
    /// after another under the negation of `clauses[i]`, ending with a
    /// conflicting clause. Hints are *untrusted accelerators*: the
    /// checker re-verifies every propagation they name and falls back to
    /// full occurrence-list search when they are absent, stale, or wrong,
    /// so bad hints degrade to search, never to acceptance.
    pub hints: Vec<Vec<u32>>,
}

impl RupProof {
    /// True iff every clause carries an antecedent hint list.
    #[must_use]
    pub fn is_hinted(&self) -> bool {
        !self.clauses.is_empty() && self.hints.len() == self.clauses.len()
    }

    /// The same clause sequence without hints (the checker then uses full
    /// occurrence-list search for every clause).
    #[must_use]
    pub fn strip_hints(&self) -> RupProof {
        RupProof {
            clauses: self.clauses.clone(),
            hints: Vec::new(),
        }
    }
}

/// A flat clause database: the literals of every clause back to back in
/// one vector, delimited by end offsets, so storing a clause never
/// allocates on its own. Clause `i` is `lits[ends[i - 1]..ends[i]]`.
/// It holds a solver's input clauses and is what [`check_rup_proof`] and
/// [`trim_proof`] check a refutation against.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClauseArena {
    lits: Vec<Lit>,
    ends: Vec<usize>,
}

impl ClauseArena {
    /// Number of clauses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True iff the database holds no clause.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Clause `i`, if in range.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&[Lit]> {
        let end = *self.ends.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        Some(&self.lits[start..end])
    }

    /// The clauses in order.
    pub fn iter(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let c = &self.lits[start..end];
            start = end;
            c
        })
    }

    /// Appends `clause` sorted and deduplicated — unless it is a
    /// tautology, in which case nothing is appended and `false` is
    /// returned.
    fn push_normalized(&mut self, clause: &[Lit]) -> bool {
        let start = self.lits.len();
        self.lits.extend_from_slice(clause);
        let tail = &mut self.lits[start..];
        tail.sort_unstable();
        let mut kept = 0;
        for r in 0..tail.len() {
            if kept == 0 || tail[r] != tail[kept - 1] {
                tail[kept] = tail[r];
                kept += 1;
            }
        }
        self.lits.truncate(start + kept);
        // Tautology check: adjacent complementary literals after sort.
        if self.lits[start..]
            .windows(2)
            .any(|w| w[0].var() == w[1].var())
        {
            self.lits.truncate(start);
            return false;
        }
        self.ends.push(self.lits.len());
        true
    }
}

impl std::ops::Index<usize> for ClauseArena {
    type Output = [Lit];

    fn index(&self, i: usize) -> &[Lit] {
        self.get(i).expect("clause index in range")
    }
}

/// Collects clauses verbatim (unsorted, duplicates kept).
impl<C: AsRef<[Lit]>> FromIterator<C> for ClauseArena {
    fn from_iter<I: IntoIterator<Item = C>>(clauses: I) -> Self {
        let mut arena = ClauseArena::default();
        for c in clauses {
            arena.lits.extend_from_slice(c.as_ref());
            arena.ends.push(arena.lits.len());
        }
        arena
    }
}

const LUBY_UNIT: u64 = 128;
/// Learned clauses tolerated before the first database reduction.
const REDUCE_BASE: usize = 2000;

/// One stored clause: its literals plus the learned-clause metadata the
/// database reduction ranks by.
#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    /// Learned (eligible for deletion) vs input (never deleted).
    learned: bool,
    /// Literal-block distance at learn time (0 for input clauses).
    lbd: u32,
}

/// A watch entry: the watching clause plus a *blocker* literal from it —
/// if the blocker is already true the clause is satisfied and need not be
/// inspected at all.
#[derive(Debug, Clone, Copy)]
struct Watch {
    ci: u32,
    blocker: Lit,
}

/// The CDCL solver.
///
/// # Examples
///
/// ```
/// use islaris_smt::sat::{Lit, SatOutcome, SatSolver};
///
/// let mut s = SatSolver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(&[Lit::neg(a)]);
/// match s.solve(&[], u64::MAX) {
///     Some(SatOutcome::Sat(model)) => assert!(model[b as usize]),
///     other => unreachable!("{other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct SatSolver {
    num_vars: u32,
    clauses: Vec<Clause>,
    /// watches[lit.index()] = watch entries of clauses watching `lit`.
    watches: Vec<Vec<Watch>>,
    /// Assignment: None = unassigned.
    assign: Vec<Option<bool>>,
    /// Decision level per variable.
    level: Vec<u32>,
    /// Reason clause per variable (antecedent), u32::MAX = decision.
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    /// Max-heap over unassigned variables ordered by activity (ties break
    /// towards the higher index; see [`SatSolver::heap_before`]).
    order_heap: Vec<SatVar>,
    /// Position of each variable in `order_heap` (u32::MAX = not queued).
    heap_pos: Vec<u32>,
    /// Saved phases for phase-saving.
    phase: Vec<bool>,
    /// Persistent conflict-analysis marker, cleared via `seen_stack`.
    seen: Vec<bool>,
    seen_stack: Vec<SatVar>,
    /// Learned clauses currently in the database / the reduction trigger.
    num_learned: usize,
    max_learned: usize,
    proof: RupProof,
    /// Disables RUP proof logging (logging is on by default, and stops
    /// once a refutation has been handed out). Incremental sessions turn
    /// logging off: learned clauses retained across assumption solves
    /// would otherwise accumulate an unbounded proof vector whose hint
    /// indices go stale as clauses are added between solves.
    no_proof_log: bool,
    /// Set when an added clause is immediately contradictory.
    root_conflict: bool,
    conflicts: u64,
    propagations: u64,
    decisions: u64,
    restarts: u64,
    reduced: u64,
    minimized: u64,
    /// The input clauses (including units), sorted and deduplicated,
    /// kept for RUP proof checking.
    original: ClauseArena,
    /// Checker-database index per stored clause: input clauses map to
    /// their position in `original`, learned clauses to `original.len()`
    /// plus their proof index (`u32::MAX` when the clause was never
    /// logged, e.g. learned while proof logging was off).
    checker_idx: Vec<u32>,
    /// Checker indices whose clauses replay the root-level trail in
    /// assignment order. Prefixed to every emitted hint list so the
    /// hinted checker re-derives level-0 values before the chain proper.
    root_hints: Vec<u32>,
    /// Trail position per variable (meaningful while assigned); orders
    /// conflict-minimisation hints by propagation time.
    trail_pos: Vec<u32>,
    /// Set when a root-level assignment has no logged derivation (clauses
    /// learned while logging was off, or a proof already handed out):
    /// hint emission degrades to empty per-clause hint lists, which the
    /// checker treats as "search for this clause".
    hints_poisoned: bool,
    /// Checker index of the input clause that set `root_conflict`.
    root_conflict_hint: Option<u32>,
    /// Hints for the most recent [`SatSolver::analyze`] learned clause:
    /// root chain, then minimisation reasons, then the resolved reasons
    /// in propagation order, ending with the conflicting clause. Empty
    /// when recording was off or some antecedent was unlogged.
    analysis_hints: Vec<u32>,
}

impl Default for SatSolver {
    fn default() -> Self {
        SatSolver::new()
    }
}

impl SatSolver {
    /// Creates an empty solver.
    #[must_use]
    pub fn new() -> Self {
        SatSolver {
            num_vars: 0,
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            act_inc: 1.0,
            order_heap: Vec::new(),
            heap_pos: Vec::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            seen_stack: Vec::new(),
            num_learned: 0,
            max_learned: REDUCE_BASE,
            proof: RupProof::default(),
            no_proof_log: false,
            root_conflict: false,
            conflicts: 0,
            propagations: 0,
            decisions: 0,
            restarts: 0,
            reduced: 0,
            minimized: 0,
            original: ClauseArena::default(),
            checker_idx: Vec::new(),
            root_hints: Vec::new(),
            trail_pos: Vec::new(),
            hints_poisoned: false,
            root_conflict_hint: None,
            analysis_hints: Vec::new(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> SatVar {
        let v = self.num_vars;
        self.num_vars += 1;
        self.assign.push(None);
        self.level.push(0);
        self.reason.push(u32::MAX);
        self.trail_pos.push(0);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.heap_pos.push(u32::MAX);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_insert(v);
        v
    }

    /// Number of variables allocated so far.
    #[must_use]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// The input clauses as given (after dedup/tautology elimination),
    /// for checking RUP proofs against.
    #[must_use]
    pub fn original_clauses(&self) -> &ClauseArena {
        &self.original
    }

    /// Snapshot of the cumulative search-effort counters: propagations,
    /// decisions, conflicts, restarts, reduced and minimised. Every other
    /// field is zero.
    #[must_use]
    pub fn effort(&self) -> SolverMetrics {
        SolverMetrics {
            propagations: self.propagations,
            decisions: self.decisions,
            conflicts: self.conflicts,
            restarts: self.restarts,
            reduced: self.reduced,
            minimized: self.minimized,
            ..SolverMetrics::default()
        }
    }

    /// Number of clauses currently in the database: input clauses of two or
    /// more literals plus every learned clause retained across solves
    /// (minus anything database reduction deleted).
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Turns RUP proof logging on or off (on by default).
    ///
    /// With logging off, [`SatSolver::solve`] hands out no refutation:
    /// every `Unsat` outcome carries `None`. Incremental sessions disable
    /// it and, when a checked refutation is required, re-prove the query
    /// with a from-scratch solve on a fresh logging solver.
    pub fn set_proof_logging(&mut self, on: bool) {
        self.no_proof_log = !on;
    }

    /// Adds a clause, before or between calls to [`SatSolver::solve`];
    /// duplicate literals are tolerated, tautologies are dropped.
    ///
    /// # Panics
    ///
    /// Panics if a literal mentions an unallocated variable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        for l in lits {
            assert!(
                l.var() < self.num_vars,
                "literal {l} uses unallocated variable"
            );
        }
        // A solve returns with its last trail in place; the new clause is
        // classified against root-level values only.
        if !self.trail_lim.is_empty() {
            self.backtrack(0);
        }
        let cidx = self.original.len() as u32;
        if !self.original.push_normalized(lits) {
            return;
        }
        match self.original[cidx as usize] {
            [] => {
                self.root_conflict = true;
                self.root_conflict_hint.get_or_insert(cidx);
            }
            [unit] => match self.value(unit) {
                Some(false) => {
                    self.root_conflict = true;
                    self.root_conflict_hint.get_or_insert(cidx);
                }
                Some(true) => {}
                None => {
                    // The unit clause itself derives the root assignment.
                    self.root_hints.push(cidx);
                    self.enqueue(unit, u32::MAX);
                }
            },
            ref clause => {
                let lits = clause.to_vec();
                self.checker_idx.push(cidx);
                let ci = self.clauses.len() as u32;
                self.watches[lits[0].negate().index()].push(Watch {
                    ci,
                    blocker: lits[1],
                });
                self.watches[lits[1].negate().index()].push(Watch {
                    ci,
                    blocker: lits[0],
                });
                self.clauses.push(Clause {
                    lits,
                    learned: false,
                    lbd: 0,
                });
            }
        }
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var() as usize].map(|b| b == l.is_pos())
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert!(self.value(l).is_none());
        self.assign[l.var() as usize] = Some(l.is_pos());
        self.level[l.var() as usize] = self.trail_lim.len() as u32;
        self.reason[l.var() as usize] = reason;
        self.phase[l.var() as usize] = l.is_pos();
        self.trail_pos[l.var() as usize] = self.trail.len() as u32;
        if self.trail_lim.is_empty() && reason != u32::MAX {
            // Root-level propagation: extend the persistent root chain
            // (or poison it if the reason clause was never logged).
            match self.checker_idx[reason as usize] {
                u32::MAX => self.hints_poisoned = true,
                idx => self.root_hints.push(idx),
            }
        }
        self.trail.push(l);
    }

    /// Unit propagation; returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let lit = self.trail[self.prop_head];
            self.prop_head += 1;
            // Clauses watching ¬lit may become unit/false.
            let watch_key = lit.index();
            let false_lit = lit.negate();
            let mut i = 0;
            'next_clause: while i < self.watches[watch_key].len() {
                let w = self.watches[watch_key][i];
                // Blocker already true: the clause is satisfied.
                if self.value(w.blocker) == Some(true) {
                    i += 1;
                    continue;
                }
                let ci = w.ci;
                // Normalise: watched literals are lits[0], lits[1].
                {
                    let lits = &mut self.clauses[ci as usize].lits;
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                }
                let first = self.clauses[ci as usize].lits[0];
                if first != w.blocker && self.value(first) == Some(true) {
                    self.watches[watch_key][i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new watch.
                let len = self.clauses[ci as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[ci as usize].lits[k];
                    if self.value(lk) != Some(false) {
                        self.clauses[ci as usize].lits.swap(1, k);
                        self.watches[watch_key].swap_remove(i);
                        self.watches[lk.negate().index()].push(Watch { ci, blocker: first });
                        continue 'next_clause;
                    }
                }
                // No new watch: clause is unit or conflicting.
                match self.value(first) {
                    Some(false) => return Some(ci),
                    Some(true) => unreachable!("handled above"),
                    None => {
                        self.propagations += 1;
                        self.enqueue(first, ci);
                        self.watches[watch_key][i].blocker = first;
                    }
                }
                i += 1;
            }
        }
        None
    }

    fn bump(&mut self, v: SatVar) {
        self.activity[v as usize] += self.act_inc;
        if self.activity[v as usize] > 1e100 {
            // Uniform rescale preserves the heap order.
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
        let i = self.heap_pos[v as usize];
        if i != u32::MAX {
            self.heap_sift_up(i as usize);
        }
    }

    /// True iff `u` ranks strictly before `v` in the decision order:
    /// higher activity, ties towards the higher index. Tseitin gate
    /// outputs are allocated after their inputs, and deciding outputs
    /// first performs far better on bit-blasted comparison chains.
    fn heap_before(&self, u: SatVar, v: SatVar) -> bool {
        let (au, av) = (self.activity[u as usize], self.activity[v as usize]);
        au > av || (au == av && u > v)
    }

    fn heap_insert(&mut self, v: SatVar) {
        if self.heap_pos[v as usize] != u32::MAX {
            return;
        }
        self.heap_pos[v as usize] = self.order_heap.len() as u32;
        self.order_heap.push(v);
        self.heap_sift_up(self.order_heap.len() - 1);
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        let v = self.order_heap[i];
        while i > 0 {
            let parent = (i - 1) >> 1;
            let p = self.order_heap[parent];
            if !self.heap_before(v, p) {
                break;
            }
            self.order_heap[i] = p;
            self.heap_pos[p as usize] = i as u32;
            i = parent;
        }
        self.order_heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        let v = self.order_heap[i];
        let n = self.order_heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child =
                if right < n && self.heap_before(self.order_heap[right], self.order_heap[left]) {
                    right
                } else {
                    left
                };
            let cv = self.order_heap[child];
            if !self.heap_before(cv, v) {
                break;
            }
            self.order_heap[i] = cv;
            self.heap_pos[cv as usize] = i as u32;
            i = child;
        }
        self.order_heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }

    fn heap_pop(&mut self) -> Option<SatVar> {
        let v = *self.order_heap.first()?;
        self.heap_pos[v as usize] = u32::MAX;
        let last = self.order_heap.pop().expect("heap is non-empty");
        if !self.order_heap.is_empty() {
            self.order_heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(v)
    }

    /// First-UIP conflict analysis. Returns (learned clause, backjump
    /// level, literal-block distance).
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32, u32) {
        let current_level = self.trail_lim.len() as u32;
        let mut learned: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut trail_idx = self.trail.len();
        let mut reason_clause = conflict;
        let mut uip = None;
        // Antecedent recording for hint emission: every clause this
        // analysis resolves on, in resolution order (conflict first, then
        // reasons walking the trail backwards). Reversed at emission time
        // that is exactly the propagation order a hinted replay needs.
        let record = !self.no_proof_log;
        let mut rec: Vec<u32> = Vec::new();
        let mut rec_ok = true;

        loop {
            if record {
                match self.checker_idx[reason_clause as usize] {
                    u32::MAX => rec_ok = false,
                    idx => rec.push(idx),
                }
            }
            let clen = self.clauses[reason_clause as usize].lits.len();
            for idx in 0..clen {
                let l = self.clauses[reason_clause as usize].lits[idx];
                // Skip the literal currently being resolved on.
                if Some(l) == uip {
                    continue;
                }
                let v = l.var() as usize;
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                self.seen[v] = true;
                self.seen_stack.push(l.var());
                self.bump(l.var());
                if self.level[v] == current_level {
                    counter += 1;
                } else {
                    learned.push(l);
                }
            }
            // Find the next seen literal on the trail at the current level.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if self.seen[l.var() as usize] {
                    uip = Some(l);
                    self.seen[l.var() as usize] = false;
                    break;
                }
            }
            counter -= 1;
            if counter == 0 {
                break;
            }
            reason_clause = self.reason[uip.expect("uip set").var() as usize];
            debug_assert_ne!(reason_clause, u32::MAX, "non-decision expected");
        }

        let uip = uip.expect("conflict at level > 0 has a UIP");
        // Reasons of minimised-away literals, keyed by trail position: a
        // hinted replay must re-derive those literals (they are no longer
        // falsified by ¬C) before the main chain, in propagation order.
        let mut min_hints: Vec<(u32, u32)> = Vec::new();
        // Minimise: drop literals whose reason clause is covered by the
        // rest of the learned clause (non-recursive self-subsumption).
        // Re-mark the learned literals for the redundancy test.
        for l in &learned {
            self.seen[l.var() as usize] = true;
        }
        let keep: Vec<Lit> = learned
            .iter()
            .copied()
            .filter(|&l| {
                let r = self.reason[l.var() as usize];
                if r == u32::MAX {
                    return true;
                }
                let redundant = self.clauses[r as usize].lits.iter().all(|&q| {
                    q.var() == l.var()
                        || self.seen[q.var() as usize]
                        || self.level[q.var() as usize] == 0
                });
                if redundant && record {
                    match self.checker_idx[r as usize] {
                        u32::MAX => rec_ok = false,
                        idx => min_hints.push((self.trail_pos[l.var() as usize], idx)),
                    }
                }
                !redundant
            })
            .collect();
        self.minimized += (learned.len() - keep.len()) as u64;
        learned = keep;
        learned.push(uip.negate());
        let n = learned.len();
        learned.swap(0, n - 1); // asserting literal first
                                // Move the highest-level remaining literal to position 1: it is the
                                // second watch, and must be the last to be unassigned on backtrack
                                // or the watch invariant breaks and propagations are missed.
        if learned.len() > 1 {
            let mut best = 1;
            for i in 2..learned.len() {
                if self.level[learned[i].var() as usize] > self.level[learned[best].var() as usize]
                {
                    best = i;
                }
            }
            learned.swap(1, best);
        }
        let backjump = learned.get(1).map_or(0, |l| self.level[l.var() as usize]);
        // Literal-block distance: distinct decision levels in the clause.
        let mut lvls: Vec<u32> = learned
            .iter()
            .map(|l| self.level[l.var() as usize])
            .collect();
        lvls.sort_unstable();
        lvls.dedup();
        let lbd = lvls.len() as u32;
        // Clear the persistent markers for the next analysis.
        for i in 0..self.seen_stack.len() {
            let v = self.seen_stack[i];
            self.seen[v as usize] = false;
        }
        self.seen_stack.clear();
        // Emit the hint list for this learned clause: root chain, then
        // minimisation reasons in trail order, then the recorded
        // antecedents reversed (propagation order, conflict last). An
        // unlogged antecedent leaves the clause unhinted — the checker
        // then falls back to search for it.
        self.analysis_hints.clear();
        if record && rec_ok && !self.hints_poisoned {
            self.analysis_hints.extend_from_slice(&self.root_hints);
            min_hints.sort_unstable();
            self.analysis_hints
                .extend(min_hints.iter().map(|&(_, c)| c));
            self.analysis_hints.extend(rec.iter().rev());
        }
        (learned, backjump, lbd)
    }

    fn backtrack(&mut self, to_level: u32) {
        while self.trail_lim.len() as u32 > to_level {
            let lim = self.trail_lim.pop().expect("level to pop");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail entry");
                let v = l.var();
                self.assign[v as usize] = None;
                self.reason[v as usize] = u32::MAX;
                self.heap_insert(v);
            }
        }
        self.prop_head = self.trail.len();
    }

    /// The branching polarity for `v`: its saved phase.
    fn polarity(&self, v: SatVar) -> Lit {
        Lit::with_sign(v, self.phase[v as usize])
    }

    fn decide(&mut self) -> Option<Lit> {
        // Lazy deletion: assigned variables stay queued until popped.
        while let Some(v) = self.heap_pop() {
            if self.assign[v as usize].is_none() {
                return Some(self.polarity(v));
            }
        }
        None
    }

    /// Installs a freshly learned clause (two or more literals) and
    /// enqueues its asserting literal. `cidx` is the clause's
    /// checker-database index (`u32::MAX` when it was not logged). The
    /// caller has already backtracked to the backjump level.
    fn install_learned(&mut self, learned: Vec<Lit>, lbd: u32, cidx: u32) {
        let ci = self.clauses.len() as u32;
        self.watches[learned[0].negate().index()].push(Watch {
            ci,
            blocker: learned[1],
        });
        self.watches[learned[1].negate().index()].push(Watch {
            ci,
            blocker: learned[0],
        });
        let asserting = learned[0];
        self.checker_idx.push(cidx);
        self.clauses.push(Clause {
            lits: learned,
            learned: true,
            lbd,
        });
        self.num_learned += 1;
        self.enqueue(asserting, ci);
    }

    /// Deletes the worst half of the deletable learned clauses (by LBD,
    /// then length), keeping input clauses, reason ("locked") clauses, and
    /// glue clauses (LBD ≤ 2). Rebuilds the watch lists and remaps reason
    /// indices; RUP soundness is unaffected because proof clauses were
    /// logged at learn time and the checker's database only ever grows.
    fn reduce_db(&mut self) {
        // Locked: the antecedent of any currently-assigned variable.
        let mut locked = vec![false; self.clauses.len()];
        for &l in &self.trail {
            let r = self.reason[l.var() as usize];
            if r != u32::MAX {
                locked[r as usize] = true;
            }
        }
        let mut candidates: Vec<(u32, u32, u32)> = Vec::new();
        for (ci, c) in self.clauses.iter().enumerate() {
            if c.learned && !locked[ci] && c.lbd > 2 {
                candidates.push((c.lbd, c.lits.len() as u32, ci as u32));
            }
        }
        if candidates.len() < 2 {
            self.max_learned += self.max_learned / 2;
            return;
        }
        candidates.sort_unstable();
        let keep_n = candidates.len() / 2;
        let mut drop = vec![false; self.clauses.len()];
        for &(_, _, ci) in &candidates[keep_n..] {
            drop[ci as usize] = true;
        }
        let deleted = candidates.len() - keep_n;
        // Compact the database, building the old→new index map. The
        // checker-index column moves in lockstep (checker indices
        // themselves are stable: the proof vector never shrinks).
        let mut remap = vec![u32::MAX; self.clauses.len()];
        let mut kept: Vec<Clause> = Vec::with_capacity(self.clauses.len() - deleted);
        let mut kept_idx: Vec<u32> = Vec::with_capacity(self.clauses.len() - deleted);
        for (ci, c) in std::mem::take(&mut self.clauses).into_iter().enumerate() {
            if !drop[ci] {
                remap[ci] = kept.len() as u32;
                kept_idx.push(self.checker_idx[ci]);
                kept.push(c);
            }
        }
        self.clauses = kept;
        self.checker_idx = kept_idx;
        // Remap reasons; dropped clauses are never reasons (unlocked).
        for r in &mut self.reason {
            if *r != u32::MAX {
                *r = remap[*r as usize];
            }
        }
        // Rebuild the watch lists. Positions 0/1 keep their watch roles,
        // so the watch invariant (and pending propagation) survives.
        for w in &mut self.watches {
            w.clear();
        }
        for ci in 0..self.clauses.len() {
            let (l0, l1) = {
                let c = &self.clauses[ci].lits;
                (c[0], c[1])
            };
            self.watches[l0.negate().index()].push(Watch {
                ci: ci as u32,
                blocker: l1,
            });
            self.watches[l1.negate().index()].push(Watch {
                ci: ci as u32,
                blocker: l0,
            });
        }
        self.num_learned -= deleted;
        self.reduced += deleted as u64;
        self.max_learned += self.max_learned / 2;
    }

    fn maybe_reduce(&mut self) {
        if self.num_learned >= self.max_learned {
            self.reduce_db();
        }
    }

    /// Solves the formula accumulated via [`SatSolver::add_clause`] under
    /// the `assumptions` (MiniSat-style; a from-scratch solve passes
    /// `&[]`). Gives up after `max_conflicts` conflicts *in this call*,
    /// returning `None` (the caller reports "unknown").
    ///
    /// The clause database — including clauses learned by earlier calls —
    /// is retained: learned clauses are resolvents of database clauses
    /// alone (assumption decisions are never resolved on), so they stay
    /// valid for any later assumption set. Clauses added between calls are
    /// picked up by re-propagating the root trail. That root propagation
    /// runs before the search loop and does not count a conflict.
    ///
    /// A conflict at the root level refutes the clause database itself:
    /// the outcome carries the RUP proof when logging is on, and every
    /// later call answers `Unsat` at once. An assumption that the database
    /// falsifies ends the call with `Unsat(None)`.
    ///
    /// # Panics
    ///
    /// Panics if an assumption mentions an unallocated variable.
    pub fn solve(&mut self, assumptions: &[Lit], max_conflicts: u64) -> Option<SatOutcome> {
        for a in assumptions {
            assert!(
                a.var() < self.num_vars,
                "assumption {a} uses unallocated variable"
            );
        }
        if self.root_conflict {
            return Some(self.refute(self.root_conflict_hint.unwrap_or(u32::MAX)));
        }
        // Clauses added since the last call may watch literals that an
        // earlier trail already falsified; re-propagating the whole root
        // trail restores the watch invariant before any decision is taken.
        self.backtrack(0);
        self.prop_head = 0;
        if let Some(ci) = self.propagate() {
            return Some(self.refute(self.checker_idx[ci as usize]));
        }
        let start_conflicts = self.conflicts;
        let mut restart_budget = luby(LUBY_UNIT, 0);
        let mut restart_seq = 0u32;

        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                if self.conflicts - start_conflicts > max_conflicts {
                    return None;
                }
                if self.trail_lim.is_empty() {
                    return Some(self.refute(self.checker_idx[conflict as usize]));
                }
                let (learned, backjump, lbd) = self.analyze(conflict);
                let cidx = if self.no_proof_log {
                    u32::MAX
                } else {
                    let hints = std::mem::take(&mut self.analysis_hints);
                    self.proof.clauses.push(learned.clone());
                    self.proof.hints.push(hints);
                    (self.original.len() + self.proof.clauses.len() - 1) as u32
                };
                self.backtrack(backjump);
                self.act_inc /= 0.95;
                match learned.len() {
                    1 => {
                        if self.value(learned[0]) == Some(false) {
                            // Root closure falsifies the just-learned unit:
                            // replaying it after the root chain conflicts.
                            return Some(self.refute(cidx));
                        }
                        if self.value(learned[0]).is_none() {
                            if cidx == u32::MAX {
                                // Unlogged root unit: later hint chains
                                // cannot re-derive it.
                                self.hints_poisoned = true;
                            } else {
                                self.root_hints.push(cidx);
                            }
                            self.enqueue(learned[0], u32::MAX);
                        }
                    }
                    _ => self.install_learned(learned, lbd, cidx),
                }
                self.maybe_reduce();
                restart_budget = restart_budget.saturating_sub(1);
                if restart_budget == 0 {
                    restart_seq += 1;
                    self.restarts += 1;
                    restart_budget = luby(LUBY_UNIT, restart_seq);
                    self.backtrack(0);
                }
            } else {
                // Place outstanding assumptions as decisions: decision level
                // i hosts assumption i (already-true assumptions get an
                // empty dummy level so the correspondence survives
                // backjumps, exactly as in MiniSat).
                let mut next = None;
                while self.trail_lim.len() < assumptions.len() {
                    let p = assumptions[self.trail_lim.len()];
                    match self.value(p) {
                        Some(true) => self.trail_lim.push(self.trail.len()),
                        Some(false) => return Some(SatOutcome::Unsat(None)),
                        None => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                match next.or_else(|| self.decide()) {
                    None => {
                        let model: Vec<bool> =
                            self.assign.iter().map(|a| a.unwrap_or(false)).collect();
                        return Some(SatOutcome::Sat(model));
                    }
                    Some(l) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, u32::MAX);
                    }
                }
            }
        }
    }

    /// Hints deriving the empty clause from the root closure: the root
    /// chain followed by `conflict_cidx`, the checker index of a clause
    /// the closure falsifies. Empty (= "search") when unavailable.
    fn root_refutation_hints(&self, conflict_cidx: u32) -> Vec<u32> {
        if self.no_proof_log || self.hints_poisoned || conflict_cidx == u32::MAX {
            return Vec::new();
        }
        let mut h = self.root_hints.clone();
        h.push(conflict_cidx);
        h
    }

    /// The clause database is unsatisfiable: records that for later calls
    /// and, with logging on, logs the final empty clause (with its hints)
    /// and hands the proof out. The log is then gone, so logging stops:
    /// a later call cannot hand out a refutation it no longer holds.
    fn refute(&mut self, conflict_cidx: u32) -> SatOutcome {
        self.root_conflict = true;
        if self.no_proof_log {
            return SatOutcome::Unsat(None);
        }
        let hints = self.root_refutation_hints(conflict_cidx);
        self.proof.clauses.push(Vec::new());
        self.proof.hints.push(hints);
        self.hints_poisoned = true;
        self.no_proof_log = true;
        SatOutcome::Unsat(Some(std::mem::take(&mut self.proof)))
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …) scaled by `unit`;
/// `i` is the zero-based restart count.
fn luby(unit: u64, i: u32) -> u64 {
    fn rec(j: u64) -> u64 {
        // Smallest k with j <= 2^k - 1, for one-based j.
        let mut k = 1u32;
        while (1u64 << k) - 1 < j {
            k += 1;
        }
        if (1u64 << k) - 1 == j {
            1u64 << (k - 1)
        } else {
            rec(j - ((1u64 << (k - 1)) - 1))
        }
    }
    unit * rec(u64::from(i) + 1)
}

/// Checks an RUP refutation against the original clause set.
///
/// Each proof clause must be derivable by reverse unit propagation from the
/// original clauses plus the earlier proof clauses, and the final proof
/// clause must be empty. Returns `true` iff the proof is valid.
///
/// The checker's database only ever grows, so proofs logged by a solver
/// that later *deleted* learned clauses (database reduction) still check:
/// every resolvent was derived from clauses present at learn time, all of
/// which are in the checker's superset database.
///
/// When the proof carries antecedent hints (see [`RupProof::hints`]) the
/// checker first replays exactly the hinted clauses — asserting ¬C and
/// verifying that each named clause really is unit (or conflicting) before
/// acting on it — which makes checking near-linear in the proof size. A
/// clause whose hints fail to produce a conflict falls back to the full
/// occurrence-list search, so hints can never turn an invalid proof into
/// an accepted one.
#[must_use]
pub fn check_rup_proof(num_vars: u32, clauses: &ClauseArena, proof: &RupProof) -> bool {
    if proof.clauses.last().map(Vec::is_empty) != Some(true) {
        return false;
    }
    let hinted = proof.hints.len() == proof.clauses.len();
    let mut assign: Vec<Option<bool>> = vec![None; num_vars as usize];
    for (i, learned) in proof.clauses.iter().enumerate() {
        let db = CheckDb {
            originals: clauses,
            learned: &proof.clauses[..i],
        };
        let by_hints = hinted && rup_hinted(db, learned, &proof.hints[i], &mut assign);
        if !by_hints && !rup_derivable(num_vars, db, learned) {
            return false;
        }
    }
    true
}

/// The checker's database for one proof step, borrowed rather than
/// copied: the original clauses (`0..N`), then the proof clauses derived
/// before this step (`N + j`).
#[derive(Clone, Copy)]
struct CheckDb<'a> {
    originals: &'a ClauseArena,
    learned: &'a [Vec<Lit>],
}

impl<'a> CheckDb<'a> {
    fn get(self, i: usize) -> Option<&'a [Lit]> {
        match i.checked_sub(self.originals.len()) {
            None => self.originals.get(i),
            Some(j) => self.learned.get(j).map(Vec::as_slice),
        }
    }

    fn iter(self) -> impl Iterator<Item = &'a [Lit]> {
        self.originals
            .iter()
            .chain(self.learned.iter().map(Vec::as_slice))
    }
}

/// What unit propagation sees in one clause under a partial assignment.
enum ClauseState {
    Satisfied,
    Unit(Lit),
    Conflict,
    Unresolved,
}

/// Classifies `c` under `assign`. A literal repeated within the clause
/// (callers may pass raw, undeduplicated clauses) is still one unknown.
fn examine(c: &[Lit], assign: &[Option<bool>]) -> ClauseState {
    let mut unassigned: Option<Lit> = None;
    let mut num_unassigned = 0;
    for &l in c {
        match assign[l.var() as usize] {
            Some(b) if b == l.is_pos() => return ClauseState::Satisfied,
            Some(_) => {}
            None if unassigned != Some(l) => {
                num_unassigned += 1;
                unassigned = Some(l);
            }
            None => {}
        }
    }
    match num_unassigned {
        0 => ClauseState::Conflict,
        1 => ClauseState::Unit(unassigned.expect("one unassigned literal")),
        _ => ClauseState::Unresolved,
    }
}

/// Hint-guided variant of [`rup_derivable`]: asserts ¬`clause` and then
/// examines only the hinted database clauses, in order, assigning each
/// verified unit. Returns `true` iff a hinted clause is genuinely
/// conflicting under the propagated assignment — the only way to accept.
/// Satisfied or unresolved hints are skipped (stale hints lose speed, not
/// soundness), out-of-range hints abort, and running out of hints without
/// a conflict returns `false` so the caller falls back to full search.
///
/// `assign` is caller-provided scratch (all `None` between calls) so the
/// per-clause cost is the hinted clauses, not a fresh `num_vars` vector.
fn rup_hinted(db: CheckDb<'_>, clause: &[Lit], hints: &[u32], assign: &mut [Option<bool>]) -> bool {
    let mut trail: Vec<SatVar> = Vec::new();
    let mut derived = false;
    'assert: {
        for &l in clause {
            let neg = l.negate();
            match assign[neg.var() as usize] {
                Some(b) if b != neg.is_pos() => {
                    // ¬C is self-contradictory; the clause is a tautology.
                    derived = true;
                    break 'assert;
                }
                Some(_) => {}
                None => {
                    assign[neg.var() as usize] = Some(neg.is_pos());
                    trail.push(neg.var());
                }
            }
        }
        for &h in hints {
            let Some(c) = db.get(h as usize) else {
                break;
            };
            match examine(c, assign) {
                ClauseState::Conflict => {
                    derived = true;
                    break;
                }
                ClauseState::Unit(l) => {
                    assign[l.var() as usize] = Some(l.is_pos());
                    trail.push(l.var());
                }
                ClauseState::Satisfied | ClauseState::Unresolved => {}
            }
        }
    }
    for v in trail {
        assign[v as usize] = None;
    }
    derived
}

/// True iff asserting the negation of `clause` and unit-propagating over
/// `db` yields a conflict.
///
/// Propagation is occurrence-list driven: after one initial pass that
/// picks up everything unit or conflicting under the assumption, a
/// clause is only re-examined when a variable it contains gets
/// assigned. That is exactly the saturation a full-database fixpoint
/// computes — a clause's state only changes when one of its variables
/// does — but proof checking stays near-linear instead of quadratic in
/// the proof length.
fn rup_derivable(num_vars: u32, db: CheckDb<'_>, clause: &[Lit]) -> bool {
    let mut assign: Vec<Option<bool>> = vec![None; num_vars as usize];
    for &l in clause {
        let neg = l.negate();
        match assign[neg.var() as usize] {
            Some(b) if b != neg.is_pos() => return true, // ¬C self-contradictory
            _ => assign[neg.var() as usize] = Some(neg.is_pos()),
        }
    }
    let mut occ: Vec<Vec<u32>> = vec![Vec::new(); num_vars as usize];
    for (i, c) in db.iter().enumerate() {
        for &l in c {
            occ[l.var() as usize].push(i as u32);
        }
    }
    let mut queue: Vec<SatVar> = Vec::new();
    let assert_unit = |l: Lit, assign: &mut Vec<Option<bool>>, queue: &mut Vec<SatVar>| {
        assign[l.var() as usize] = Some(l.is_pos());
        queue.push(l.var());
    };
    for c in db.iter() {
        match examine(c, &assign) {
            ClauseState::Conflict => return true,
            ClauseState::Unit(l) => assert_unit(l, &mut assign, &mut queue),
            ClauseState::Satisfied | ClauseState::Unresolved => {}
        }
    }
    while let Some(v) = queue.pop() {
        for &i in &occ[v as usize] {
            let c = db.get(i as usize).expect("occurrence index in range");
            match examine(c, &assign) {
                ClauseState::Conflict => return true,
                ClauseState::Unit(l) => assert_unit(l, &mut assign, &mut queue),
                ClauseState::Satisfied | ClauseState::Unresolved => {}
            }
        }
    }
    false
}

const NO_REASON: u32 = u32::MAX;
/// Assignment-order base for per-derivation temporaries in the trimmer:
/// root-level positions are below it, so sorting hints by position always
/// replays persistent root units before derivation-local propagations.
const TEMP_POS_BASE: u32 = 1 << 31;

/// Forward-replay state for [`trim_proof`]: the clause database grown one
/// proof clause at a time with persistent occurrence lists, a persistent
/// root-level assignment (unit clauses and their propagation closure hold
/// under *every* derivation, so they are computed once), and per-variable
/// reason clauses for the backward dependency walk.
struct Trimmer<'a> {
    db: Vec<&'a [Lit]>,
    /// occ[lit] = indices of db clauses containing that literal.
    /// Propagation visits only the clauses containing the literal just
    /// *falsified* — clauses containing the satisfied complement can
    /// never become unit, so variable-indexed lists would examine them
    /// for nothing (roughly half of all visits).
    occ: Vec<Vec<u32>>,
    assign: Vec<Option<bool>>,
    /// Clause that propagated each variable ([`NO_REASON`] = unassigned
    /// or asserted by the ¬C of the current derivation).
    reason: Vec<u32>,
    /// Assignment order per variable, for emitting hints in propagation
    /// order (root positions first, then derivation temporaries).
    pos: Vec<u32>,
    root_trail_len: u32,
    /// First clause found conflicting under the root assignment alone:
    /// the database refutes itself by propagation, so every clause is
    /// derivable from that conflict's dependency chain.
    root_conflict: Option<u32>,
    /// Epoch stamps replacing per-derivation hash sets in the backward
    /// walk: a mark equals `epoch` iff set during the current walk.
    /// `clause_mark` (parallel to `db`) plays "visited", `var_mark` plays
    /// "variable of the clause being derived".
    clause_mark: Vec<u32>,
    var_mark: Vec<u32>,
    epoch: u32,
}

impl<'a> Trimmer<'a> {
    fn new(num_vars: u32, clauses: &'a ClauseArena) -> Trimmer<'a> {
        let n = num_vars as usize;
        let mut t = Trimmer {
            db: Vec::with_capacity(clauses.len()),
            occ: vec![Vec::new(); 2 * n],
            assign: vec![None; n],
            reason: vec![NO_REASON; n],
            pos: vec![0; n],
            root_trail_len: 0,
            root_conflict: None,
            clause_mark: Vec::with_capacity(clauses.len()),
            var_mark: vec![0; n],
            epoch: 0,
        };
        for c in clauses.iter() {
            t.admit(c);
        }
        t
    }

    /// Appends a clause to the database, extending the root-level
    /// propagation closure if it is unit (or conflicting) under it.
    fn admit(&mut self, c: &'a [Lit]) {
        let idx = self.db.len() as u32;
        self.db.push(c);
        self.clause_mark.push(0);
        for &l in c {
            self.occ[l.0 as usize].push(idx);
        }
        if self.root_conflict.is_some() {
            return;
        }
        match examine(c, &self.assign) {
            ClauseState::Conflict => self.root_conflict = Some(idx),
            ClauseState::Unit(l) => {
                self.root_assign(l, idx);
                self.propagate_root(l);
            }
            ClauseState::Satisfied | ClauseState::Unresolved => {}
        }
    }

    fn root_assign(&mut self, l: Lit, why: u32) {
        let v = l.var() as usize;
        self.assign[v] = Some(l.is_pos());
        self.reason[v] = why;
        self.pos[v] = self.root_trail_len;
        self.root_trail_len += 1;
    }

    fn propagate_root(&mut self, start: Lit) {
        // The queue holds assigned (true) literals; only clauses
        // containing the falsified complement are worth examining.
        let mut queue = vec![start];
        while let Some(t) = queue.pop() {
            let falsified = t.negate().0 as usize;
            let mut i = 0;
            while i < self.occ[falsified].len() {
                let ci = self.occ[falsified][i];
                i += 1;
                match examine(self.db[ci as usize], &self.assign) {
                    ClauseState::Conflict => {
                        self.root_conflict = Some(ci);
                        return;
                    }
                    ClauseState::Unit(l) => {
                        self.root_assign(l, ci);
                        queue.push(l);
                    }
                    ClauseState::Satisfied | ClauseState::Unresolved => {}
                }
            }
        }
    }

    /// Derives `clause` by unit propagation on top of the root closure,
    /// returning the database indices its derivation depends on — reason
    /// clauses in assignment order, the conflicting clause last — or
    /// `None` if no conflict is reached (the clause is not RUP).
    ///
    /// `hints` (the input proof's, typically solver-recorded at learn
    /// time) guide propagation: only the hinted clauses are examined, each
    /// verified unit/conflicting before use, so a good chain replaces the
    /// occurrence-list search entirely. Every hint-guided assignment is a
    /// genuine unit consequence, so when the chain stalls the full search
    /// simply continues from the propagated state — wrong hints lose
    /// speed, never exactness, and the emitted dependency set always comes
    /// from the backward walk over verified propagations.
    fn derive(&mut self, clause: &[Lit], hints: &[u32]) -> Option<Vec<u32>> {
        if let Some(k) = self.root_conflict {
            return Some(self.backward(k, clause));
        }
        // Assert ¬C on top of the persistent root assignment. `temp` is
        // both the undo trail and the propagation queue (processed in
        // assignment order; entries are the assigned-true literals).
        let mut temp: Vec<Lit> = Vec::new();
        let mut temp_pos = TEMP_POS_BASE;
        let mut conflict: Option<u32> = None;
        for &l in clause {
            let neg = l.negate();
            let v = neg.var() as usize;
            match self.assign[v] {
                Some(b) if b == neg.is_pos() => {}
                Some(_) => {
                    // ¬C contradicts the root closure; the clause that
                    // propagated the root value is the conflict.
                    conflict = Some(self.reason[v]);
                    break;
                }
                None => {
                    self.assign[v] = Some(neg.is_pos());
                    self.pos[v] = temp_pos;
                    temp_pos += 1;
                    temp.push(neg);
                }
            }
        }
        if conflict.is_none() {
            for &h in hints {
                let Some(&c) = self.db.get(h as usize) else {
                    break;
                };
                match examine(c, &self.assign) {
                    ClauseState::Conflict => {
                        conflict = Some(h);
                        break;
                    }
                    ClauseState::Unit(l) => {
                        let u = l.var() as usize;
                        self.assign[u] = Some(l.is_pos());
                        self.reason[u] = h;
                        self.pos[u] = temp_pos;
                        temp_pos += 1;
                        temp.push(l);
                    }
                    ClauseState::Satisfied | ClauseState::Unresolved => {}
                }
            }
        }
        if conflict.is_none() {
            let mut qi = 0;
            'prop: while qi < temp.len() {
                let falsified = temp[qi].negate().0 as usize;
                qi += 1;
                let mut i = 0;
                while i < self.occ[falsified].len() {
                    let ci = self.occ[falsified][i];
                    i += 1;
                    match examine(self.db[ci as usize], &self.assign) {
                        ClauseState::Conflict => {
                            conflict = Some(ci);
                            break 'prop;
                        }
                        ClauseState::Unit(l) => {
                            let u = l.var() as usize;
                            self.assign[u] = Some(l.is_pos());
                            self.reason[u] = ci;
                            self.pos[u] = temp_pos;
                            temp_pos += 1;
                            temp.push(l);
                        }
                        ClauseState::Satisfied | ClauseState::Unresolved => {}
                    }
                }
            }
        }
        let deps = conflict.map(|k| self.backward(k, clause));
        for l in temp {
            let v = l.var() as usize;
            self.assign[v] = None;
            self.reason[v] = NO_REASON;
            self.pos[v] = 0;
        }
        deps
    }

    /// Walks the implication graph backwards from `conflict`, collecting
    /// the reason clauses it transitively depends on. Variables of the
    /// clause being derived are supplied by ¬C in a replay, so their
    /// reasons are not followed.
    fn backward(&mut self, conflict: u32, clause: &[Lit]) -> Vec<u32> {
        self.epoch += 1;
        let e = self.epoch;
        for l in clause {
            self.var_mark[l.var() as usize] = e;
        }
        self.clause_mark[conflict as usize] = e;
        let mut entries: Vec<(u32, u32)> = Vec::new();
        let mut stack = vec![conflict];
        while let Some(c) = stack.pop() {
            for &l in self.db[c as usize] {
                let v = l.var() as usize;
                if self.var_mark[v] == e {
                    continue;
                }
                let r = self.reason[v];
                if r != NO_REASON && self.clause_mark[r as usize] != e {
                    self.clause_mark[r as usize] = e;
                    entries.push((self.pos[v], r));
                    stack.push(r);
                }
            }
        }
        entries.sort_unstable();
        let mut deps: Vec<u32> = entries.into_iter().map(|(_, c)| c).collect();
        deps.push(conflict);
        deps
    }
}

/// Trims an RUP refutation to the clauses its final empty-clause conflict
/// actually depends on (DRAT-trim's backward pass) and attaches
/// per-clause antecedent hints (LRAT-style) for [`check_rup_proof`]'s
/// hint-guided mode.
///
/// The proof is replayed forwards once, recording for each clause the
/// reason clauses behind the conflict that derives it; a backward pass
/// from the final empty clause then marks the proof clauses reachable
/// through those dependencies, and only marked clauses are emitted (with
/// hints remapped to the surviving numbering). Original clauses are never
/// trimmed — the checker's database always starts from the full input.
///
/// Returns `None` when the proof does not replay (some clause is not RUP
/// or the proof does not end with the empty clause); callers fall back to
/// checking the untrimmed proof, which fails the same way.
#[must_use]
pub fn trim_proof(num_vars: u32, clauses: &ClauseArena, proof: &RupProof) -> Option<RupProof> {
    if proof.clauses.last().map(Vec::is_empty) != Some(true) {
        return None;
    }
    let n = clauses.len() as u32;
    let hinted = proof.is_hinted();
    let mut t = Trimmer::new(num_vars, clauses);
    let mut deps: Vec<Vec<u32>> = Vec::with_capacity(proof.clauses.len());
    for (i, learned) in proof.clauses.iter().enumerate() {
        // Solver-recorded hints (when present) steer each derivation
        // straight to its conflict; the trimmer degrades to search per
        // clause when a chain stalls, so stale hints cannot change the
        // trimmed output's validity.
        let hints: &[u32] = if hinted { &proof.hints[i] } else { &[] };
        deps.push(t.derive(learned, hints)?);
        t.admit(learned);
    }
    let p = proof.clauses.len();
    let mut marked = vec![false; p];
    marked[p - 1] = true;
    for i in (0..p).rev() {
        if marked[i] {
            for &d in &deps[i] {
                if d >= n {
                    marked[(d - n) as usize] = true;
                }
            }
        }
    }
    // Emit survivors, remapping hints to the trimmed checker numbering:
    // originals 0..n, then surviving proof clauses in derivation order.
    let mut new_idx = vec![u32::MAX; p];
    let mut out = RupProof::default();
    for i in 0..p {
        if !marked[i] {
            continue;
        }
        new_idx[i] = n + out.clauses.len() as u32;
        out.clauses.push(proof.clauses[i].clone());
        out.hints.push(
            deps[i]
                .iter()
                .map(|&d| if d < n { d } else { new_idx[(d - n) as usize] })
                .collect(),
        );
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(spec: &[i32]) -> Vec<Lit> {
        spec.iter()
            .map(|&x| {
                assert!(x != 0);
                let v = (x.unsigned_abs() - 1) as SatVar;
                Lit::with_sign(v, x > 0)
            })
            .collect()
    }

    fn arena(cs: &[Vec<Lit>]) -> ClauseArena {
        cs.iter().collect()
    }

    /// An unlimited solve without assumptions.
    fn solve(s: &mut SatSolver) -> SatOutcome {
        s.solve(&[], u64::MAX).expect("unlimited solve completes")
    }

    /// An unlimited solve that must refute the formula with a proof.
    fn refutation(s: &mut SatSolver) -> RupProof {
        match solve(s) {
            SatOutcome::Unsat(Some(p)) => p,
            other => panic!("expected a refutation, got {other:?}"),
        }
    }

    fn solver_with(num_vars: u32, clauses: &[Vec<Lit>]) -> SatSolver {
        let mut s = SatSolver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(c);
        }
        s
    }

    /// PHP(`pigeons`, `holes`): variable `i * holes + j + 1` places pigeon
    /// `i` in hole `j`. Unsatisfiable whenever `pigeons > holes`.
    fn pigeonhole(pigeons: i32, holes: i32) -> Vec<Vec<Lit>> {
        let var = |i: i32, j: i32| i * holes + j + 1;
        let mut cs: Vec<Vec<Lit>> = Vec::new();
        for i in 0..pigeons {
            cs.push(lits(&(0..holes).map(|j| var(i, j)).collect::<Vec<_>>()));
        }
        for j in 0..holes {
            for a in 0..pigeons {
                for b in (a + 1)..pigeons {
                    cs.push(lits(&[-var(a, j), -var(b, j)]));
                }
            }
        }
        cs
    }

    #[test]
    fn trivially_sat() {
        let cs = vec![lits(&[1, 2]), lits(&[-1, 2])];
        let mut s = solver_with(2, &cs);
        match solve(&mut s) {
            SatOutcome::Sat(m) => assert!(m[1], "x2 must be true or x1 chosen"),
            SatOutcome::Unsat(_) => panic!("expected sat"),
        }
    }

    #[test]
    fn trivially_unsat_with_valid_proof() {
        let cs = vec![lits(&[1]), lits(&[-1])];
        let mut s = solver_with(1, &cs);
        assert!(check_rup_proof(1, &arena(&cs), &refutation(&mut s)));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        let cs = pigeonhole(3, 2);
        let mut s = solver_with(6, &cs);
        let p = refutation(&mut s);
        assert!(check_rup_proof(6, &arena(&cs), &p), "RUP proof must check");
    }

    /// PHP(3,2) has no model: the 2⁶-row truth table agrees with the
    /// solver's verdict, and the refutation checks.
    #[test]
    fn pigeonhole_verdict_matches_truth_table() {
        let cs = pigeonhole(3, 2);
        let satisfiable = (0u32..1 << 6).any(|row| {
            cs.iter()
                .all(|c| c.iter().any(|l| (row >> l.var() & 1 == 1) == l.is_pos()))
        });
        assert!(!satisfiable, "PHP(3,2) has no model");
        let mut s = solver_with(6, &cs);
        let p = refutation(&mut s);
        assert!(check_rup_proof(6, &arena(&cs), &p), "proof must check");
    }

    /// Proofs come out of the solver with learn-time antecedent hints:
    /// every clause is hinted, the hinted checker accepts the proof as-is
    /// (no trimming needed), and each hint chain really reaches its
    /// conflict — stripping the hints must not change the verdict, and a
    /// hinted check of a single clause must succeed without search.
    #[test]
    fn solver_proofs_carry_working_hints() {
        let cs = pigeonhole(3, 2);
        let mut s = solver_with(6, &cs);
        let p = refutation(&mut s);
        assert!(p.is_hinted(), "solve must emit hints");
        assert!(check_rup_proof(6, &arena(&cs), &p));
        assert!(check_rup_proof(6, &arena(&cs), &p.strip_hints()));
        // Replay each clause by its hints alone: every chain must end
        // in a conflict (rup_hinted returns false on a stalled chain).
        let originals = arena(&cs);
        let mut assign = vec![None; 6];
        for (i, c) in p.clauses.iter().enumerate() {
            let db = CheckDb {
                originals: &originals,
                learned: &p.clauses[..i],
            };
            assert!(
                rup_hinted(db, c, &p.hints[i], &mut assign),
                "hint chain for proof clause {i} stalled"
            );
        }
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // Random-ish structured instance: chain of implications plus a seed.
        let mut cs: Vec<Vec<Lit>> = Vec::new();
        for i in 1..20 {
            cs.push(lits(&[-i, i + 1]));
        }
        cs.push(lits(&[1]));
        let mut s = solver_with(21, &cs);
        match solve(&mut s) {
            SatOutcome::Sat(m) => {
                for c in &cs {
                    assert!(c.iter().any(|l| m[l.var() as usize] == l.is_pos()));
                }
                assert!(m.iter().take(20).all(|&b| b));
            }
            SatOutcome::Unsat(_) => panic!("chain is satisfiable"),
        }
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = SatSolver::new();
        s.new_var();
        s.add_clause(&[]);
        assert!(matches!(solve(&mut s), SatOutcome::Unsat(_)));
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut s = SatSolver::new();
        let v = s.new_var();
        s.add_clause(&[Lit::pos(v), Lit::neg(v)]);
        assert!(matches!(solve(&mut s), SatOutcome::Sat(_)));
    }

    #[test]
    fn assumptions_flip_a_satisfiable_instance() {
        // (x1 ∨ x2): unsat under {¬x1, ¬x2}, sat under {¬x1} alone.
        let cs = vec![lits(&[1, 2])];
        let mut s = solver_with(2, &cs);
        assert_eq!(
            s.solve(&lits(&[-1, -2]), u64::MAX),
            Some(SatOutcome::Unsat(None)),
            "an assumption-forced conflict refutes nothing"
        );
        match s.solve(&lits(&[-1]), u64::MAX) {
            Some(SatOutcome::Sat(m)) => {
                assert!(!m[0] && m[1], "model must honour the assumption");
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_assumptions_are_unsat_without_a_proof() {
        let cs = vec![lits(&[1, 2])];
        let mut s = solver_with(2, &cs);
        assert_eq!(
            s.solve(&lits(&[1, -1]), u64::MAX),
            Some(SatOutcome::Unsat(None))
        );
        assert!(matches!(solve(&mut s), SatOutcome::Sat(_)));
    }

    #[test]
    fn unsat_formula_under_assumptions_refutes_the_database() {
        // PHP(3,2) is unsat regardless of assumptions. Whichever way the
        // first call ends, an assumption-free call refutes the database
        // with a checkable proof.
        let cs = pigeonhole(3, 2);
        let mut s = solver_with(6, &cs);
        match s.solve(&lits(&[1]), u64::MAX) {
            Some(SatOutcome::Unsat(Some(p))) => {
                assert!(check_rup_proof(6, &arena(&cs), &p), "root proof checks");
            }
            Some(SatOutcome::Unsat(None)) => {
                assert!(check_rup_proof(6, &arena(&cs), &refutation(&mut s)));
            }
            other => panic!("expected unsat, got {other:?}"),
        }
        // The solver keeps reporting it cheaply on later calls, and a
        // handed-out log is not handed out twice.
        let conflicts = s.effort().conflicts;
        assert_eq!(s.solve(&[], u64::MAX), Some(SatOutcome::Unsat(None)));
        assert_eq!(s.effort().conflicts, conflicts, "no further search");
    }

    #[test]
    fn budget_exhaustion_returns_none_and_counts_per_call() {
        let cs = pigeonhole(3, 2);
        let mut s = solver_with(6, &cs);
        assert_eq!(s.solve(&[], 0), None);
        assert_eq!(
            s.effort().conflicts,
            1,
            "the budget-breaking conflict counts"
        );
        // The budget is per call: an unlimited retry still succeeds.
        assert!(matches!(solve(&mut s), SatOutcome::Unsat(_)));
        // A one-conflict budget spent after earlier calls still allows
        // one conflict in the next call.
        let mut s = solver_with(6, &cs);
        assert_eq!(s.solve(&[], 0), None);
        assert_eq!(s.solve(&[], 0), None);
        assert_eq!(s.effort().conflicts, 2);
    }

    #[test]
    fn root_propagation_conflicts_are_not_counted() {
        // x1 ∧ (¬x1 ∨ x2) ∧ (¬x1 ∨ ¬x2): refuted by root propagation
        // before the search loop starts.
        let cs = vec![lits(&[1]), lits(&[-1, 2]), lits(&[-1, -2])];
        let mut s = solver_with(2, &cs);
        assert!(check_rup_proof(2, &arena(&cs), &refutation(&mut s)));
        assert_eq!(s.effort().conflicts, 0);
    }

    #[test]
    fn clauses_added_between_assumption_solves_are_seen() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert!(matches!(
            s.solve(&[Lit::neg(a)], u64::MAX),
            Some(SatOutcome::Sat(_))
        ));
        // New clause forces a; the retained solver must notice.
        s.add_clause(&[Lit::neg(b)]);
        assert_eq!(
            s.solve(&[Lit::neg(a)], u64::MAX),
            Some(SatOutcome::Unsat(None))
        );
        // Without the assumption the formula is satisfiable: a, ¬b.
        match s.solve(&[], u64::MAX) {
            Some(SatOutcome::Sat(m)) => assert!(m[a as usize] && !m[b as usize]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn retained_sessions_agree_with_scratch_solves() {
        // Deterministic pseudo-random 3-CNF instances; each assumption set
        // is answered both by one long-lived incremental solver and by a
        // fresh solver with the assumptions as unit clauses.
        let mut state = 0x1234_5678_u64;
        let mut rnd = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let num_vars = 12u32;
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for _ in 0..30 {
            let c: Vec<Lit> = (0..3)
                .map(|_| Lit::with_sign(rnd(u64::from(num_vars)) as SatVar, rnd(2) == 0))
                .collect();
            clauses.push(c);
        }
        let mut inc = solver_with(num_vars, &clauses);
        for round in 0..25 {
            let assumptions: Vec<Lit> = (0..rnd(5))
                .map(|_| Lit::with_sign(rnd(u64::from(num_vars)) as SatVar, rnd(2) == 0))
                .collect();
            let inc_sat = match inc.solve(&assumptions, u64::MAX) {
                Some(SatOutcome::Sat(m)) => {
                    for l in &assumptions {
                        assert_eq!(m[l.var() as usize], l.is_pos(), "assumption violated");
                    }
                    for c in &clauses {
                        assert!(c.iter().any(|l| m[l.var() as usize] == l.is_pos()));
                    }
                    true
                }
                Some(SatOutcome::Unsat(_)) => false,
                None => unreachable!("unlimited budget"),
            };
            let mut scratch = solver_with(num_vars, &clauses);
            for &l in &assumptions {
                scratch.add_clause(&[l]);
            }
            let scratch_sat = matches!(solve(&mut scratch), SatOutcome::Sat(_));
            assert_eq!(inc_sat, scratch_sat, "round {round} diverged");
            // Occasionally grow the shared formula mid-session.
            if round % 7 == 3 {
                let c: Vec<Lit> = (0..3)
                    .map(|_| Lit::with_sign(rnd(u64::from(num_vars)) as SatVar, rnd(2) == 0))
                    .collect();
                clauses.push(c.clone());
                inc.add_clause(&c);
            }
        }
    }

    #[test]
    fn db_reduction_deletes_clauses_and_stays_sound() {
        // A hard-ish random 3-CNF near the phase transition; force an
        // aggressive reduction schedule so the deletion path actually runs.
        let mut state = 0x00c0_ffee_u64;
        let mut rnd = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let num_vars = 24u32;
        let mut cs: Vec<Vec<Lit>> = Vec::new();
        for _ in 0..101 {
            let c: Vec<Lit> = (0..3)
                .map(|_| Lit::with_sign(rnd(u64::from(num_vars)) as SatVar, rnd(2) == 0))
                .collect();
            cs.push(c);
        }
        let mut s = solver_with(num_vars, &cs);
        s.max_learned = 8;
        let p = refutation(&mut s);
        assert!(
            check_rup_proof(num_vars, &arena(&cs), &p),
            "proof survives reduction"
        );
        assert!(s.effort().reduced > 0, "reduction never triggered");
    }

    /// `SatSolver::default()` and `SatSolver::new()` build the same solver:
    /// identical search on PHP(5,4), counter for counter.
    #[test]
    fn default_and_new_search_identically() {
        // A plain fn, not a by-value closure: rustc 1.95.0 miscompiles a
        // closure that takes a `SatSolver` by value and is called twice
        // (opt-level 2 and up; it corrupts the decision heap).
        fn counters(mut s: SatSolver, cs: &[Vec<Lit>]) -> SolverMetrics {
            for _ in 0..20 {
                s.new_var();
            }
            for c in cs {
                s.add_clause(c);
            }
            assert!(matches!(solve(&mut s), SatOutcome::Unsat(_)));
            s.effort()
        }
        let cs = pigeonhole(5, 4);
        assert_eq!(
            counters(SatSolver::default(), &cs),
            counters(SatSolver::new(), &cs)
        );
    }

    #[test]
    fn restart_and_minimize_counters_advance() {
        // Minimisation fires on structured instances such as PHP(5,4).
        let cs = pigeonhole(5, 4);
        let mut s = solver_with(20, &cs);
        assert!(check_rup_proof(20, &arena(&cs), &refutation(&mut s)));
        assert!(s.effort().conflicts > 0);
        assert!(s.effort().minimized > 0, "minimisation never fired");
        // PHP(6,5) outlasts the first Luby budget, so it must restart.
        let cs = pigeonhole(6, 5);
        let mut s = solver_with(30, &cs);
        assert!(matches!(solve(&mut s), SatOutcome::Unsat(_)));
        assert!(s.effort().conflicts > LUBY_UNIT);
        assert!(s.effort().restarts > 0, "restarts never fired");
    }

    #[test]
    fn proof_logging_toggle_controls_rup_output() {
        let cs = vec![lits(&[1]), lits(&[-1])];
        let mut quiet = solver_with(1, &cs);
        quiet.set_proof_logging(false);
        assert_eq!(
            solve(&mut quiet),
            SatOutcome::Unsat(None),
            "no proof when disabled"
        );
        let mut loud = solver_with(1, &cs);
        loud.set_proof_logging(true);
        assert!(check_rup_proof(1, &arena(&cs), &refutation(&mut loud)));
    }

    #[test]
    fn rup_checker_rejects_bogus_proofs() {
        let cs = vec![lits(&[1, 2])]; // satisfiable
        let bogus = RupProof {
            clauses: vec![Vec::new()],
            hints: Vec::new(),
        };
        assert!(!check_rup_proof(2, &arena(&cs), &bogus));
        // Proof not ending in the empty clause is rejected.
        let not_ending = RupProof {
            clauses: vec![lits(&[1])],
            hints: Vec::new(),
        };
        assert!(!check_rup_proof(2, &arena(&cs), &not_ending));
    }

    /// Solves an unsat instance and returns its refutation.
    fn unsat_proof(num_vars: u32, cs: &[Vec<Lit>]) -> RupProof {
        refutation(&mut solver_with(num_vars, cs))
    }

    #[test]
    fn trimmed_proof_checks_with_and_without_hints() {
        let cs = pigeonhole(3, 2);
        let proof = unsat_proof(6, &cs);
        let trimmed = trim_proof(6, &arena(&cs), &proof).expect("valid proof trims");
        assert!(trimmed.is_hinted(), "trimming attaches hints");
        assert!(
            trimmed.clauses.len() <= proof.clauses.len(),
            "trimming never grows a proof"
        );
        assert_eq!(
            trimmed.clauses.last().map(Vec::is_empty),
            Some(true),
            "trimmed proof still ends with the empty clause"
        );
        assert!(
            check_rup_proof(6, &arena(&cs), &trimmed),
            "hinted replay checks"
        );
        assert!(
            check_rup_proof(6, &arena(&cs), &trimmed.strip_hints()),
            "hints are an accelerator, not a crutch: search still checks"
        );
    }

    #[test]
    fn tampered_trimmed_proofs_are_rejected() {
        let cs = pigeonhole(3, 2);
        let trimmed = trim_proof(6, &arena(&cs), &unsat_proof(6, &cs)).expect("valid proof trims");
        // Dropping the final empty clause invalidates the refutation.
        let mut headless = trimmed.clone();
        headless.clauses.pop();
        headless.hints.pop();
        assert!(!check_rup_proof(6, &arena(&cs), &headless));
        // Flipping a literal in a non-empty proof clause must be caught by
        // the hinted checker (hints verify, never assume, propagations).
        let target = trimmed.clauses.iter().position(|c| !c.is_empty());
        if let Some(i) = target {
            let mut flipped = trimmed.clone();
            flipped.clauses[i][0] = flipped.clauses[i][0].negate();
            // Rejected, or — if the mutated clause happens to still be
            // RUP — the remaining proof must still end empty and check.
            // Either way, acceptance implies genuine derivability: compare
            // against the unhinted checker, the trusted base.
            assert_eq!(
                check_rup_proof(6, &arena(&cs), &flipped),
                check_rup_proof(6, &arena(&cs), &flipped.strip_hints()),
                "hints never change the verdict"
            );
        }
        // Wildly wrong hints degrade to search, never to acceptance: a
        // satisfiable instance with fabricated hints is still rejected.
        let sat_cs = vec![lits(&[1, 2])];
        let fabricated = RupProof {
            clauses: vec![Vec::new()],
            hints: vec![vec![0, 0, 0]],
        };
        assert!(!check_rup_proof(2, &arena(&sat_cs), &fabricated));
    }

    #[test]
    fn trim_rejects_invalid_proofs() {
        let sat_cs = vec![lits(&[1, 2])];
        let bogus = RupProof {
            clauses: vec![Vec::new()],
            hints: Vec::new(),
        };
        assert!(trim_proof(2, &arena(&sat_cs), &bogus).is_none());
        let not_ending = RupProof {
            clauses: vec![lits(&[1])],
            hints: Vec::new(),
        };
        assert!(trim_proof(2, &arena(&sat_cs), &not_ending).is_none());
    }

    #[test]
    fn trimming_drops_unused_clauses() {
        // x1 ∧ ¬x1 is the whole conflict; pad the proof with an unrelated
        // but derivable clause (x3 ∨ x4 is an input, so RUP) and check the
        // padding is trimmed away.
        let cs = vec![lits(&[1]), lits(&[-1]), lits(&[3, 4])];
        let padded = RupProof {
            clauses: vec![lits(&[3, 4]), Vec::new()],
            hints: Vec::new(),
        };
        assert!(check_rup_proof(4, &arena(&cs), &padded));
        let trimmed = trim_proof(4, &arena(&cs), &padded).expect("padded proof is valid");
        assert_eq!(
            trimmed.clauses,
            vec![Vec::<Lit>::new()],
            "only the empty clause survives trimming"
        );
        assert!(check_rup_proof(4, &arena(&cs), &trimmed));
    }

    /// A satisfiable database mixing a unit, a duplicate literal and
    /// wider clauses (model: x1, x2, x4 true).
    fn satisfiable_arena() -> ClauseArena {
        arena(&[
            lits(&[1]),
            lits(&[-1, 2]),
            lits(&[2, 3, 3]),
            lits(&[-3, -2, 4]),
        ])
    }

    #[test]
    fn arena_stores_normalised_input_clauses_in_order() {
        let mut s = SatSolver::new();
        for _ in 0..3 {
            s.new_var();
        }
        s.add_clause(&lits(&[2, 1, 2]));
        s.add_clause(&lits(&[3, -3])); // tautology: not stored
        s.add_clause(&lits(&[-3]));
        s.add_clause(&[]);
        let db = s.original_clauses();
        assert_eq!(db.len(), 3);
        assert_eq!(&db[0], lits(&[1, 2]).as_slice());
        assert_eq!(&db[1], lits(&[-3]).as_slice());
        assert!(db[2].is_empty());
        assert!(db.get(3).is_none());
        let collected: Vec<Vec<Lit>> = db.iter().map(<[Lit]>::to_vec).collect();
        assert_eq!(arena(&collected), *db, "iter and collect round-trip");
    }

    #[test]
    fn lone_empty_clause_with_bogus_hints_is_rejected() {
        let db = satisfiable_arena();
        let n = db.len() as u32;
        for hints in [
            vec![],
            vec![0],
            vec![0, 1, 2, 3],
            vec![3, 2, 1, 0],
            vec![1, 1, 1],
            vec![n],
            vec![n + 7],
            vec![0, n, 1],
            vec![u32::MAX],
        ] {
            let proof = RupProof {
                clauses: vec![Vec::new()],
                hints: vec![hints.clone()],
            };
            assert!(!check_rup_proof(4, &db, &proof), "hints {hints:?} accepted");
            assert!(
                trim_proof(4, &db, &proof).is_none(),
                "hints {hints:?} trimmed"
            );
        }
    }

    /// Step `i` of a proof sees the originals and proof clauses `0..i`
    /// only: a hint at the clause being derived, or a later one, is out
    /// of range. Were it in range, `[¬x2]` (not derivable: x2 is forced)
    /// would conflict with its own negation and be accepted.
    #[test]
    fn a_proof_clause_cannot_hint_itself_or_a_later_clause() {
        let db = satisfiable_arena();
        let n = db.len() as u32;
        let proof = RupProof {
            clauses: vec![lits(&[-2]), Vec::new()],
            hints: vec![vec![n], vec![n, n + 1]],
        };
        assert!(!check_rup_proof(4, &db, &proof));
        let mut assign = vec![None; 4];
        let step0 = CheckDb {
            originals: &db,
            learned: &proof.clauses[..0],
        };
        assert!(!rup_hinted(step0, &proof.clauses[0], &[n], &mut assign));
        assert!(assign.iter().all(Option::is_none), "scratch is restored");
    }

    #[test]
    fn hints_into_learned_clauses_replay_without_search() {
        // (x1 ∨ x2)(x1 ∨ ¬x2)(¬x1 ∨ x2)(¬x1 ∨ ¬x2): learn x1, then refute
        // through it (checker index N + 0).
        let originals = arena(&[
            lits(&[1, 2]),
            lits(&[1, -2]),
            lits(&[-1, 2]),
            lits(&[-1, -2]),
        ]);
        let n = originals.len() as u32;
        let proof = RupProof {
            clauses: vec![lits(&[1]), Vec::new()],
            hints: vec![vec![0, 1], vec![n, 2, 3]],
        };
        assert!(check_rup_proof(2, &originals, &proof));
        // Each chain reaches its conflict by itself, with no fallback.
        let mut assign = vec![None; 2];
        for (i, c) in proof.clauses.iter().enumerate() {
            let db = CheckDb {
                originals: &originals,
                learned: &proof.clauses[..i],
            };
            assert!(
                rup_hinted(db, c, &proof.hints[i], &mut assign),
                "chain {i} stalled"
            );
        }
        // Trimming keeps the learned clause and hints into it again.
        let trimmed = trim_proof(2, &originals, &proof).expect("valid proof trims");
        assert_eq!(trimmed.clauses, proof.clauses);
        assert_eq!(trimmed.hints[1], vec![n, 2, 3]);
        assert!(check_rup_proof(2, &originals, &trimmed));
    }
}
