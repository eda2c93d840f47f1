//! Bit-blasting of SMT expressions to CNF (Tseitin encoding).
//!
//! Every bitvector term is encoded as a vector of SAT literals (LSB first),
//! every boolean term as one literal; structure is shared through a
//! memoisation table so common subterms are encoded once.

use std::collections::HashMap;

use islaris_obs::SolverMetrics;

use crate::expr::{BvBinop, BvCmp, BvUnop, Expr, ExprKind, Sort, Value, Var};
use crate::sat::{ClauseArena, Lit, SatOutcome, SatSolver};

/// Encoded form of an expression.
#[derive(Debug, Clone)]
enum Bits {
    Bool(Lit),
    Bv(Vec<Lit>),
}

/// Structural-hashing key for a Tseitin gate: two syntactically different
/// subterms that bottom out in the same gate over the same input literals
/// share one output literal (and its clauses) instead of re-encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum GateKey {
    And(Lit, Lit),
    Xor(Lit, Lit),
    Mux(Lit, Lit, Lit),
}

/// Errors during bit-blasting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlastError {
    /// A variable with no sort in the environment.
    UnknownVar(Var),
    /// An operation outside the encodable fragment (`bvudiv`/`bvurem` with
    /// a symbolic divisor); the caller reports "unknown".
    Unsupported(String),
    /// Ill-sorted input (should have been caught earlier).
    IllSorted(String),
}

impl std::fmt::Display for BlastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlastError::UnknownVar(v) => write!(f, "variable {v} has no declared sort"),
            BlastError::Unsupported(msg) => write!(f, "cannot bit-blast: {msg}"),
            BlastError::IllSorted(msg) => write!(f, "ill-sorted: {msg}"),
        }
    }
}

impl std::error::Error for BlastError {}

/// A Tseitin bit-blaster owning a [`SatSolver`].
pub struct Blaster {
    sat: SatSolver,
    cache: HashMap<Expr, Bits>,
    /// Gate-level structural hashing.
    gate_cache: HashMap<GateKey, Lit>,
    /// SAT literals backing each SMT variable, for model extraction.
    var_bits: HashMap<Var, Bits>,
    true_lit: Option<Lit>,
    /// Terms folded away before CNF: gate-level constant short-circuits
    /// and structural-hash hits that avoided a fresh Tseitin gate.
    folded: u64,
}

impl Default for Blaster {
    fn default() -> Self {
        Blaster::new()
    }
}

impl Blaster {
    /// Creates an empty blaster.
    #[must_use]
    pub fn new() -> Self {
        Blaster {
            sat: SatSolver::new(),
            cache: HashMap::new(),
            gate_cache: HashMap::new(),
            var_bits: HashMap::new(),
            true_lit: None,
            folded: 0,
        }
    }

    /// Solves the accumulated constraints under `assumptions` (see
    /// [`SatSolver::solve`]); `None` means the per-call conflict budget ran
    /// out.
    pub fn solve(&mut self, assumptions: &[Lit], max_conflicts: u64) -> Option<SatOutcome> {
        self.sat.solve(assumptions, max_conflicts)
    }

    /// Encodes a boolean expression and returns its output literal
    /// *without* asserting it, so the caller can pass it as a solve
    /// assumption. Encodings are memoised: a second call for the same
    /// expression adds no clauses.
    ///
    /// # Errors
    ///
    /// Propagates [`BlastError`] from encoding.
    pub fn literal_for(
        &mut self,
        e: &Expr,
        sorts: &dyn Fn(Var) -> Option<Sort>,
    ) -> Result<Lit, BlastError> {
        self.encode_bool(e, sorts)
    }

    /// Turns RUP proof logging in the backing SAT solver on or off.
    pub fn set_proof_logging(&mut self, on: bool) {
        self.sat.set_proof_logging(on);
    }

    /// Clauses currently held by the backing SAT solver, learned clauses
    /// included.
    #[must_use]
    pub fn sat_clause_count(&self) -> usize {
        self.sat.num_clauses()
    }

    /// Number of SAT variables allocated by the encoding.
    #[must_use]
    pub fn sat_num_vars(&self) -> u32 {
        self.sat.num_vars()
    }

    /// The CNF clauses produced by the encoding, for RUP proof checking.
    #[must_use]
    pub fn sat_original_clauses(&self) -> &ClauseArena {
        self.sat.original_clauses()
    }

    /// Snapshot of the cumulative effort behind this blaster: the CNF
    /// size (variables and input clauses), the terms folded away before
    /// CNF, and the backing solver's search counters
    /// ([`SatSolver::effort`]). Every other field is zero.
    #[must_use]
    pub fn effort(&self) -> SolverMetrics {
        SolverMetrics {
            cnf_vars: u64::from(self.sat.num_vars()),
            cnf_clauses: self.sat.original_clauses().len() as u64,
            folded: self.folded,
            ..self.sat.effort()
        }
    }

    /// A literal constrained to be true.
    fn lit_true(&mut self) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let v = self.sat.new_var();
        let l = Lit::pos(v);
        self.sat.add_clause(&[l]);
        self.true_lit = Some(l);
        l
    }

    fn lit_false(&mut self) -> Lit {
        self.lit_true().negate()
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.sat.new_var())
    }

    /// The boolean value of `l` if it is the constant-true literal or its
    /// negation, `None` for ordinary literals. Constants only exist once
    /// [`Blaster::lit_true`] has run, which every constant encoding does.
    fn known_value(&self, l: Lit) -> Option<bool> {
        let t = self.true_lit?;
        if l == t {
            Some(true)
        } else if l == t.negate() {
            Some(false)
        } else {
            None
        }
    }

    /// Emits the three Tseitin clauses for y ↔ a ∧ b.
    fn emit_and(&mut self, a: Lit, b: Lit) -> Lit {
        let y = self.fresh();
        self.sat.add_clause(&[y.negate(), a]);
        self.sat.add_clause(&[y.negate(), b]);
        self.sat.add_clause(&[y, a.negate(), b.negate()]);
        y
    }

    /// Emits the four Tseitin clauses for y ↔ a ⊕ b.
    fn emit_xor(&mut self, a: Lit, b: Lit) -> Lit {
        let y = self.fresh();
        self.sat.add_clause(&[y.negate(), a, b]);
        self.sat.add_clause(&[y.negate(), a.negate(), b.negate()]);
        self.sat.add_clause(&[y, a, b.negate()]);
        self.sat.add_clause(&[y, a.negate(), b]);
        y
    }

    /// Emits the four Tseitin clauses for y ↔ (s ? t : e).
    fn emit_mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let y = self.fresh();
        self.sat.add_clause(&[s.negate(), y.negate(), t]);
        self.sat.add_clause(&[s.negate(), y, t.negate()]);
        self.sat.add_clause(&[s, y.negate(), e]);
        self.sat.add_clause(&[s, y, e.negate()]);
        y
    }

    /// y ↔ a ∧ b
    fn gate_and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == b {
            return a;
        }
        if a == b.negate() {
            self.folded += 1;
            return self.lit_false();
        }
        match (self.known_value(a), self.known_value(b)) {
            (Some(true), _) => {
                self.folded += 1;
                return b;
            }
            (_, Some(true)) => {
                self.folded += 1;
                return a;
            }
            (Some(false), _) | (_, Some(false)) => {
                self.folded += 1;
                return self.lit_false();
            }
            _ => {}
        }
        let key = GateKey::And(a.min(b), a.max(b));
        if let Some(&y) = self.gate_cache.get(&key) {
            self.folded += 1;
            return y;
        }
        let y = self.emit_and(a.min(b), a.max(b));
        self.gate_cache.insert(key, y);
        y
    }

    /// y ↔ a ∨ b
    fn gate_or(&mut self, a: Lit, b: Lit) -> Lit {
        self.gate_and(a.negate(), b.negate()).negate()
    }

    /// y ↔ a ⊕ b
    fn gate_xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == b {
            return self.lit_false();
        }
        if a == b.negate() {
            self.folded += 1;
            return self.lit_true();
        }
        match (self.known_value(a), self.known_value(b)) {
            (Some(va), _) => {
                self.folded += 1;
                return if va { b.negate() } else { b };
            }
            (_, Some(vb)) => {
                self.folded += 1;
                return if vb { a.negate() } else { a };
            }
            _ => {}
        }
        // XOR is invariant under sign-stripping modulo output parity:
        // ¬a ⊕ b = ¬(a ⊕ b). Hash on the positive pair so all four sign
        // combinations of the same variable pair share one gate.
        let (pa, pb) = (Lit::pos(a.var()), Lit::pos(b.var()));
        let flip = a.is_pos() != b.is_pos();
        let key = GateKey::Xor(pa.min(pb), pa.max(pb));
        let y = if let Some(&y) = self.gate_cache.get(&key) {
            self.folded += 1;
            y
        } else {
            let y = self.emit_xor(pa.min(pb), pa.max(pb));
            self.gate_cache.insert(key, y);
            y
        };
        if flip {
            y.negate()
        } else {
            y
        }
    }

    /// y ↔ (s ? t : e)
    fn gate_mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        if t == e {
            return t;
        }
        match self.known_value(s) {
            Some(true) => {
                self.folded += 1;
                return t;
            }
            Some(false) => {
                self.folded += 1;
                return e;
            }
            None => {}
        }
        if t == e.negate() {
            // (s ? t : ¬t) ↔ ¬(s ⊕ t); the XOR gate then folds further
            // if t is itself constant.
            self.folded += 1;
            return self.gate_xor(s, t).negate();
        }
        match (self.known_value(t), self.known_value(e)) {
            (Some(true), _) => {
                self.folded += 1;
                return self.gate_or(s, e);
            }
            (Some(false), _) => {
                self.folded += 1;
                return self.gate_and(s.negate(), e);
            }
            (_, Some(true)) => {
                self.folded += 1;
                return self.gate_or(s.negate(), t);
            }
            (_, Some(false)) => {
                self.folded += 1;
                return self.gate_and(s, t);
            }
            _ => {}
        }
        // A negated selector swaps the branches: (¬s ? t : e) = (s ? e : t).
        let (s, t, e) = if s.is_pos() {
            (s, t, e)
        } else {
            (s.negate(), e, t)
        };
        let key = GateKey::Mux(s, t, e);
        if let Some(&y) = self.gate_cache.get(&key) {
            self.folded += 1;
            return y;
        }
        let y = self.emit_mux(s, t, e);
        self.gate_cache.insert(key, y);
        y
    }

    /// Majority of three (adder carry).
    fn gate_maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.gate_and(a, b);
        let ac = self.gate_and(a, c);
        let bc = self.gate_and(b, c);
        let t = self.gate_or(ab, ac);
        self.gate_or(t, bc)
    }

    fn gate_xor3(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.gate_xor(a, b);
        self.gate_xor(ab, c)
    }

    /// Ripple-carry addition with carry-in; returns sum bits.
    fn adder(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> Vec<Lit> {
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            out.push(self.gate_xor3(a[i], b[i], carry));
            if i + 1 < a.len() {
                carry = self.gate_maj(a[i], b[i], carry);
            }
        }
        out
    }

    /// Unsigned less-than chain (returns a < b).
    fn less_chain(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut lt = self.lit_false();
        for i in 0..a.len() {
            // lt = (¬a_i ∧ b_i) ∨ ((a_i ≡ b_i) ∧ lt)
            let gt_bit = self.gate_and(a[i].negate(), b[i]);
            let eq_bit = self.gate_xor(a[i], b[i]).negate();
            let keep = self.gate_and(eq_bit, lt);
            lt = self.gate_or(gt_bit, keep);
        }
        lt
    }

    fn eq_bits(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.lit_true();
        for i in 0..a.len() {
            let eq_bit = self.gate_xor(a[i], b[i]).negate();
            acc = self.gate_and(acc, eq_bit);
        }
        acc
    }

    fn const_bits(&mut self, b: islaris_bv::Bv) -> Vec<Lit> {
        let t = self.lit_true();
        let f = self.lit_false();
        (0..b.width())
            .map(|i| if b.get_bit(i) { t } else { f })
            .collect()
    }

    /// Barrel shifter: shifts `a` by the (symbolic) amount `amt`, where
    /// `fill(stage_result)` supplies the shifted-in bit and `left` selects
    /// direction. Amount bits beyond the width flush everything.
    fn shifter(&mut self, a: &[Lit], amt: &[Lit], left: bool, arithmetic: bool) -> Vec<Lit> {
        let w = a.len();
        let fill = if arithmetic {
            a[w - 1]
        } else {
            self.lit_false()
        };
        let mut cur: Vec<Lit> = a.to_vec();
        let stages = 32 - (w as u32 - 1).leading_zeros(); // ceil(log2(w))
        for k in 0..stages {
            let shift = 1usize << k;
            let sel = amt[k as usize];
            let mut next = Vec::with_capacity(w);
            for i in 0..w {
                let shifted = if left {
                    if i >= shift {
                        cur[i - shift]
                    } else {
                        self.lit_false()
                    }
                } else if i + shift < w {
                    cur[i + shift]
                } else {
                    fill
                };
                next.push(self.gate_mux(sel, shifted, cur[i]));
            }
            cur = next;
        }
        // If any amount bit >= stages is set, or the low bits encode a value
        // >= w that the stages missed, flush to fill.
        let mut too_big = self.lit_false();
        for (i, &l) in amt.iter().enumerate() {
            if i as u32 >= stages {
                too_big = self.gate_or(too_big, l);
            }
        }
        // Low `stages` bits can encode up to 2^stages - 1 which may be >= w:
        // compare amt[0..stages] >= w.
        if (1usize << stages) > w {
            let wlits = self.const_bits(islaris_bv::Bv::new(stages, w as u128));
            let low: Vec<Lit> = amt[..stages as usize].to_vec();
            let lt_w = self.less_chain(&low, &wlits); // low < w
            too_big = self.gate_or(too_big, lt_w.negate());
        }
        cur.iter()
            .map(|&bit| self.gate_mux(too_big, fill, bit))
            .collect()
    }

    /// Encodes an expression, memoised.
    fn encode(
        &mut self,
        e: &Expr,
        sorts: &dyn Fn(Var) -> Option<Sort>,
    ) -> Result<Bits, BlastError> {
        if let Some(b) = self.cache.get(e) {
            return Ok(b.clone());
        }
        let bits = self.encode_uncached(e, sorts)?;
        self.cache.insert(e.clone(), bits.clone());
        Ok(bits)
    }

    fn encode_bool(
        &mut self,
        e: &Expr,
        sorts: &dyn Fn(Var) -> Option<Sort>,
    ) -> Result<Lit, BlastError> {
        match self.encode(e, sorts)? {
            Bits::Bool(l) => Ok(l),
            Bits::Bv(_) => Err(BlastError::IllSorted(format!("expected Bool: {e}"))),
        }
    }

    fn encode_bv(
        &mut self,
        e: &Expr,
        sorts: &dyn Fn(Var) -> Option<Sort>,
    ) -> Result<Vec<Lit>, BlastError> {
        match self.encode(e, sorts)? {
            Bits::Bv(v) => Ok(v),
            Bits::Bool(_) => Err(BlastError::IllSorted(format!("expected bitvector: {e}"))),
        }
    }

    fn encode_uncached(
        &mut self,
        e: &Expr,
        sorts: &dyn Fn(Var) -> Option<Sort>,
    ) -> Result<Bits, BlastError> {
        Ok(match e.kind() {
            ExprKind::Val(Value::Bool(b)) => Bits::Bool(if *b {
                self.lit_true()
            } else {
                self.lit_false()
            }),
            ExprKind::Val(Value::Bits(b)) => Bits::Bv(self.const_bits(*b)),
            ExprKind::Var(v) => {
                if let Some(b) = self.var_bits.get(v) {
                    return Ok(b.clone());
                }
                let bits = match sorts(*v).ok_or(BlastError::UnknownVar(*v))? {
                    Sort::Bool => Bits::Bool(self.fresh()),
                    Sort::BitVec(w) => Bits::Bv((0..w).map(|_| self.fresh()).collect()),
                };
                self.var_bits.insert(*v, bits.clone());
                bits
            }
            ExprKind::Not(a) => Bits::Bool(self.encode_bool(a, sorts)?.negate()),
            ExprKind::And(a, b) => {
                let (x, y) = (self.encode_bool(a, sorts)?, self.encode_bool(b, sorts)?);
                Bits::Bool(self.gate_and(x, y))
            }
            ExprKind::Or(a, b) => {
                let (x, y) = (self.encode_bool(a, sorts)?, self.encode_bool(b, sorts)?);
                Bits::Bool(self.gate_or(x, y))
            }
            ExprKind::Eq(a, b) => match (self.encode(a, sorts)?, self.encode(b, sorts)?) {
                (Bits::Bool(x), Bits::Bool(y)) => Bits::Bool(self.gate_xor(x, y).negate()),
                (Bits::Bv(x), Bits::Bv(y)) if x.len() == y.len() => {
                    Bits::Bool(self.eq_bits(&x, &y))
                }
                _ => return Err(BlastError::IllSorted(format!("(= …) mixes sorts: {e}"))),
            },
            ExprKind::Ite(c, t, f) => {
                let s = self.encode_bool(c, sorts)?;
                match (self.encode(t, sorts)?, self.encode(f, sorts)?) {
                    (Bits::Bool(x), Bits::Bool(y)) => Bits::Bool(self.gate_mux(s, x, y)),
                    (Bits::Bv(x), Bits::Bv(y)) if x.len() == y.len() => Bits::Bv(
                        x.iter()
                            .zip(&y)
                            .map(|(&a, &b)| self.gate_mux(s, a, b))
                            .collect(),
                    ),
                    _ => return Err(BlastError::IllSorted(format!("ite branches: {e}"))),
                }
            }
            ExprKind::Unop(op, a) => {
                let x = self.encode_bv(a, sorts)?;
                match op {
                    BvUnop::Not => Bits::Bv(x.iter().map(|l| l.negate()).collect()),
                    BvUnop::Neg => {
                        let inv: Vec<Lit> = x.iter().map(|l| l.negate()).collect();
                        let zero = self.const_bits(islaris_bv::Bv::zero(x.len() as u32));
                        let one = self.lit_true();
                        Bits::Bv(self.adder(&inv, &zero, one))
                    }
                    BvUnop::Rev => Bits::Bv(x.iter().rev().copied().collect()),
                }
            }
            ExprKind::Binop(op, a, b) => {
                let x = self.encode_bv(a, sorts)?;
                let y = self.encode_bv(b, sorts)?;
                if x.len() != y.len() {
                    return Err(BlastError::IllSorted(format!("width mismatch: {e}")));
                }
                match op {
                    BvBinop::Add => {
                        let c0 = self.lit_false();
                        Bits::Bv(self.adder(&x, &y, c0))
                    }
                    BvBinop::Sub => {
                        let inv: Vec<Lit> = y.iter().map(|l| l.negate()).collect();
                        let c0 = self.lit_true();
                        Bits::Bv(self.adder(&x, &inv, c0))
                    }
                    BvBinop::Mul => {
                        let w = x.len();
                        let mut acc = self.const_bits(islaris_bv::Bv::zero(w as u32));
                        for i in 0..w {
                            // addend = (y << i) masked by x_i
                            let mut addend = Vec::with_capacity(w);
                            for j in 0..w {
                                if j < i {
                                    addend.push(self.lit_false());
                                } else {
                                    addend.push(self.gate_and(y[j - i], x[i]));
                                }
                            }
                            let c0 = self.lit_false();
                            acc = self.adder(&acc, &addend, c0);
                        }
                        Bits::Bv(acc)
                    }
                    BvBinop::Udiv | BvBinop::Urem => {
                        return Err(BlastError::Unsupported(format!(
                            "bvudiv/bvurem with symbolic operands: {e}"
                        )))
                    }
                    BvBinop::And => Bits::Bv(
                        x.iter()
                            .zip(&y)
                            .map(|(&a, &b)| self.gate_and(a, b))
                            .collect(),
                    ),
                    BvBinop::Or => Bits::Bv(
                        x.iter()
                            .zip(&y)
                            .map(|(&a, &b)| self.gate_or(a, b))
                            .collect(),
                    ),
                    BvBinop::Xor => Bits::Bv(
                        x.iter()
                            .zip(&y)
                            .map(|(&a, &b)| self.gate_xor(a, b))
                            .collect(),
                    ),
                    BvBinop::Shl => Bits::Bv(self.shifter(&x, &y, true, false)),
                    BvBinop::Lshr => Bits::Bv(self.shifter(&x, &y, false, false)),
                    BvBinop::Ashr => Bits::Bv(self.shifter(&x, &y, false, true)),
                }
            }
            ExprKind::Cmp(op, a, b) => {
                let x = self.encode_bv(a, sorts)?;
                let y = self.encode_bv(b, sorts)?;
                if x.len() != y.len() {
                    return Err(BlastError::IllSorted(format!("width mismatch: {e}")));
                }
                let (mut x, mut y) = (x, y);
                if matches!(op, BvCmp::Slt | BvCmp::Sle) {
                    // Signed compare = unsigned compare with MSB flipped.
                    let w = x.len();
                    x[w - 1] = x[w - 1].negate();
                    y[w - 1] = y[w - 1].negate();
                }
                match op {
                    BvCmp::Ult | BvCmp::Slt => Bits::Bool(self.less_chain(&x, &y)),
                    BvCmp::Ule | BvCmp::Sle => {
                        let gt = self.less_chain(&y, &x);
                        Bits::Bool(gt.negate())
                    }
                }
            }
            ExprKind::Extract(hi, lo, a) => {
                let x = self.encode_bv(a, sorts)?;
                if (*hi as usize) >= x.len() || lo > hi {
                    return Err(BlastError::IllSorted(format!("extract range: {e}")));
                }
                Bits::Bv(x[*lo as usize..=*hi as usize].to_vec())
            }
            ExprKind::ZeroExtend(n, a) => {
                let mut x = self.encode_bv(a, sorts)?;
                let f = self.lit_false();
                x.extend(std::iter::repeat(f).take(*n as usize));
                Bits::Bv(x)
            }
            ExprKind::SignExtend(n, a) => {
                let mut x = self.encode_bv(a, sorts)?;
                let msb = *x.last().expect("non-empty bitvector");
                x.extend(std::iter::repeat(msb).take(*n as usize));
                Bits::Bv(x)
            }
            ExprKind::Concat(a, b) => {
                let hi = self.encode_bv(a, sorts)?;
                let mut lo = self.encode_bv(b, sorts)?;
                lo.extend(hi);
                Bits::Bv(lo)
            }
        })
    }

    /// Asserts that a boolean expression holds.
    ///
    /// # Errors
    ///
    /// Propagates [`BlastError`] from encoding.
    pub fn assert_expr(
        &mut self,
        e: &Expr,
        sorts: &dyn Fn(Var) -> Option<Sort>,
    ) -> Result<(), BlastError> {
        let l = self.encode_bool(e, sorts)?;
        self.sat.add_clause(&[l]);
        Ok(())
    }

    /// Reads the value of an SMT variable out of a SAT model, if the
    /// variable was encoded.
    #[must_use]
    pub fn extract_value(
        &self,
        v: Var,
        model: &[bool],
        sorts: &dyn Fn(Var) -> Option<Sort>,
    ) -> Option<Value> {
        let bits = self.var_bits.get(&v)?;
        let lit_val = |l: Lit| model.get(l.var() as usize).copied().unwrap_or(false) == l.is_pos();
        Some(match bits {
            Bits::Bool(l) => Value::Bool(lit_val(*l)),
            Bits::Bv(ls) => {
                let mut out = 0u128;
                for (i, &l) in ls.iter().enumerate() {
                    if lit_val(l) {
                        out |= 1 << i;
                    }
                }
                let _ = sorts;
                Value::Bits(islaris_bv::Bv::new(ls.len() as u32, out))
            }
        })
    }

    /// All SMT variables encountered during encoding.
    pub fn encoded_vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.var_bits.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatOutcome;
    use islaris_bv::Bv;

    fn sorts64(v: Var) -> Option<Sort> {
        (v.0 < 8).then_some(Sort::BitVec(64))
    }

    #[test]
    fn constant_equation_is_sat() {
        let e = Expr::eq(Expr::add(Expr::bv(8, 40), Expr::bv(8, 2)), Expr::bv(8, 42));
        let mut bl = Blaster::new();
        bl.assert_expr(&e, &|_| None).unwrap();
        assert!(matches!(
            bl.solve(&[], u64::MAX).expect("unlimited solve"),
            SatOutcome::Sat(_)
        ));
    }

    #[test]
    fn contradiction_is_unsat() {
        let x = Expr::var(Var(0));
        let mut bl = Blaster::new();
        bl.assert_expr(&Expr::eq(x.clone(), Expr::bv(64, 5)), &sorts64)
            .unwrap();
        bl.assert_expr(&Expr::eq(x, Expr::bv(64, 6)), &sorts64)
            .unwrap();
        assert!(matches!(
            bl.solve(&[], u64::MAX).expect("unlimited solve"),
            SatOutcome::Unsat(_)
        ));
    }

    #[test]
    fn addition_inverts() {
        // x + 1 = 0 has the unique solution x = 0xff…ff
        let x = Expr::var(Var(0));
        let e = Expr::eq(Expr::add(x, Expr::bv(64, 1)), Expr::bv(64, 0));
        let mut bl = Blaster::new();
        bl.assert_expr(&e, &sorts64).unwrap();
        match bl.solve(&[], u64::MAX).expect("unlimited solve") {
            SatOutcome::Sat(m) => {
                let v = bl.extract_value(Var(0), &m, &sorts64).unwrap();
                assert_eq!(v, Value::Bits(Bv::ones(64)));
            }
            SatOutcome::Unsat(_) => panic!("satisfiable"),
        }
    }

    #[test]
    fn signed_comparison_is_not_unsigned() {
        // exists x. x <s 0 and x >u 10 — e.g. x = -1.
        let x = Expr::var(Var(0));
        let mut bl = Blaster::new();
        bl.assert_expr(&Expr::cmp(BvCmp::Slt, x.clone(), Expr::bv(64, 0)), &sorts64)
            .unwrap();
        bl.assert_expr(
            &Expr::cmp(BvCmp::Ult, Expr::bv(64, 10), x.clone()),
            &sorts64,
        )
        .unwrap();
        match bl.solve(&[], u64::MAX).expect("unlimited solve") {
            SatOutcome::Sat(m) => {
                let v = bl.extract_value(Var(0), &m, &sorts64).unwrap().as_bits();
                assert!(v.slt(&Bv::zero(64)) && Bv::new(64, 10).ult(&v));
            }
            SatOutcome::Unsat(_) => panic!("satisfiable"),
        }
    }

    #[test]
    fn shifts_constrain_correctly() {
        // x << 4 = 0xf0 forces low nibble of result zero; x & 0xf = 0xf works.
        let x = Expr::var(Var(0));
        let e = Expr::eq(
            Expr::binop(BvBinop::Shl, x.clone(), Expr::bv(64, 4)),
            Expr::bv(64, 0xf0),
        );
        let mut bl = Blaster::new();
        bl.assert_expr(&e, &sorts64).unwrap();
        match bl.solve(&[], u64::MAX).expect("unlimited solve") {
            SatOutcome::Sat(m) => {
                let v = bl.extract_value(Var(0), &m, &sorts64).unwrap().as_bits();
                assert_eq!(v.shl(&Bv::new(64, 4)), Bv::new(64, 0xf0));
            }
            SatOutcome::Unsat(_) => panic!("satisfiable"),
        }
    }

    #[test]
    fn oversized_symbolic_shift_flushes() {
        // x >> 64 = 0 must be valid: its negation is unsat.
        let x = Expr::var(Var(0));
        let e = Expr::not(Expr::eq(
            Expr::binop(BvBinop::Lshr, x, Expr::bv(64, 64)),
            Expr::bv(64, 0),
        ));
        let mut bl = Blaster::new();
        bl.assert_expr(&e, &sorts64).unwrap();
        assert!(matches!(
            bl.solve(&[], u64::MAX).expect("unlimited solve"),
            SatOutcome::Unsat(_)
        ));
    }

    #[test]
    fn udiv_is_reported_unsupported() {
        let x = Expr::var(Var(0));
        let e = Expr::eq(Expr::binop(BvBinop::Udiv, x.clone(), x), Expr::bv(64, 1));
        let mut bl = Blaster::new();
        assert!(matches!(
            bl.assert_expr(&e, &sorts64),
            Err(BlastError::Unsupported(_))
        ));
    }

    #[test]
    fn unknown_var_is_reported() {
        let e = Expr::eq(Expr::var(Var(99)), Expr::bv(64, 0));
        let mut bl = Blaster::new();
        assert_eq!(
            bl.assert_expr(&e, &sorts64),
            Err(BlastError::UnknownVar(Var(99)))
        );
    }

    #[test]
    fn mul_matches_semantics() {
        // 6 * x = 42 at width 8 — x = 7 (among others); check the model.
        let sorts8 = |v: Var| (v.0 < 8).then_some(Sort::BitVec(8));
        let x = Expr::var(Var(0));
        let e = Expr::eq(
            Expr::binop(BvBinop::Mul, Expr::bv(8, 6), x),
            Expr::bv(8, 42),
        );
        let mut bl = Blaster::new();
        bl.assert_expr(&e, &sorts8).unwrap();
        match bl.solve(&[], u64::MAX).expect("unlimited solve") {
            SatOutcome::Sat(m) => {
                let v = bl.extract_value(Var(0), &m, &sorts8).unwrap().as_bits();
                assert_eq!(Bv::new(8, 6).mul(&v), Bv::new(8, 42));
            }
            SatOutcome::Unsat(_) => panic!("satisfiable"),
        }
    }
}
