//! SMT-LIB-style expression language (the `e` of Fig. 4 in the paper).
//!
//! Expressions are immutable trees with [`Arc`]-shared children, so cloning
//! a subterm is O(1) and traces can be shipped across threads for the
//! parallel per-instruction verification the paper describes.
//!
//! Terms are *hash-consed* in a global arena: every constructor interns
//! its node, so structurally equal terms share one allocation. Equality
//! is therefore a pointer comparison and hashing reads one cached word,
//! which is what makes the memo tables in `simplify`, the bit-blaster,
//! and `Session` cheap — they would otherwise deep-compare whole trees
//! on every probe. The arena holds only weak references (plus a
//! hash-keyed bucket index swept as it is revisited), so dropping the
//! last user of a term frees it; a long-lived daemon does not accumulate
//! every term it ever built.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

use islaris_bv::Bv;

/// An SMT variable (`v38` in Isla's concrete syntax).
///
/// Variables are plain indices; pretty names for ghost variables are kept
/// by higher layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A fresh-variable generator. Monotonic; never reuses an index.
#[derive(Debug, Clone, Default)]
pub struct VarGen {
    next: u32,
}

impl VarGen {
    /// Creates a generator starting at `v0`.
    #[must_use]
    pub fn new() -> Self {
        VarGen::default()
    }

    /// Creates a generator whose first variable is `v{next}`.
    #[must_use]
    pub fn starting_at(next: u32) -> Self {
        VarGen { next }
    }

    /// Returns a fresh variable.
    pub fn fresh(&mut self) -> Var {
        let v = Var(self.next);
        self.next += 1;
        v
    }

    /// Index the next call to [`VarGen::fresh`] will return.
    #[must_use]
    pub fn peek(&self) -> u32 {
        self.next
    }
}

/// The sort (type) of an expression: `τ` in Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sort {
    /// `Boolean`.
    Bool,
    /// `(_ BitVec n)`.
    BitVec(u32),
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::BitVec(n) => write!(f, "(_ BitVec {n})"),
        }
    }
}

/// A closed value: `v` in Fig. 4 (without variables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A bitvector.
    Bits(Bv),
}

impl Value {
    /// The sort of the value.
    #[must_use]
    pub fn sort(&self) -> Sort {
        match self {
            Value::Bool(_) => Sort::Bool,
            Value::Bits(b) => Sort::BitVec(b.width()),
        }
    }

    /// Extracts a boolean.
    ///
    /// # Panics
    ///
    /// Panics if the value is a bitvector.
    #[must_use]
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Bits(b) => panic!("expected Bool, got bitvector {b}"),
        }
    }

    /// Extracts a bitvector.
    ///
    /// # Panics
    ///
    /// Panics if the value is a boolean.
    #[must_use]
    pub fn as_bits(&self) -> Bv {
        match self {
            Value::Bits(b) => *b,
            Value::Bool(b) => panic!("expected bitvector, got Bool {b}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Bits(b) => write!(f, "{b}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<Bv> for Value {
    fn from(b: Bv) -> Self {
        Value::Bits(b)
    }
}

/// Bitvector unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BvUnop {
    /// `bvnot`.
    Not,
    /// `bvneg`.
    Neg,
    /// Bit reversal (Arm `rbit`; printed as the non-standard `bvrev`).
    Rev,
}

/// Bitvector binary operators (result is a bitvector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BvBinop {
    /// `bvadd`.
    Add,
    /// `bvsub`.
    Sub,
    /// `bvmul`.
    Mul,
    /// `bvudiv`.
    Udiv,
    /// `bvurem`.
    Urem,
    /// `bvand`.
    And,
    /// `bvor`.
    Or,
    /// `bvxor`.
    Xor,
    /// `bvshl`.
    Shl,
    /// `bvlshr`.
    Lshr,
    /// `bvashr`.
    Ashr,
}

/// Bitvector comparison operators (result is boolean).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BvCmp {
    /// `bvult`.
    Ult,
    /// `bvule`.
    Ule,
    /// `bvslt`.
    Slt,
    /// `bvsle`.
    Sle,
}

/// The cases of an expression. Use the constructors on [`Expr`] to build
/// values; match on [`Expr::kind`] to inspect them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExprKind {
    /// A closed value (boolean or bitvector constant).
    Val(Value),
    /// A variable.
    Var(Var),
    /// Boolean negation.
    Not(Expr),
    /// Boolean conjunction.
    And(Expr, Expr),
    /// Boolean disjunction.
    Or(Expr, Expr),
    /// Equality at any sort (both sides must share a sort).
    Eq(Expr, Expr),
    /// If-then-else; branches must share a sort.
    Ite(Expr, Expr, Expr),
    /// Bitvector unary operation.
    Unop(BvUnop, Expr),
    /// Bitvector binary operation.
    Binop(BvBinop, Expr, Expr),
    /// Bitvector comparison.
    Cmp(BvCmp, Expr, Expr),
    /// `((_ extract hi lo) e)`.
    Extract(u32, u32, Expr),
    /// `((_ zero_extend n) e)`.
    ZeroExtend(u32, Expr),
    /// `((_ sign_extend n) e)`.
    SignExtend(u32, Expr),
    /// `(concat hi lo)`.
    Concat(Expr, Expr),
}

/// An interned expression node. The structural hash is computed once at
/// interning time, so hashing a term is O(1) however deep it is.
#[derive(Debug)]
struct ExprNode {
    hash: u64,
    kind: ExprKind,
}

/// An SMT expression; a cheaply clonable immutable tree, hash-consed so
/// that structurally equal terms share one allocation (see the module
/// docs). Equality is a pointer comparison; hashing reads a cached word.
#[derive(Clone)]
pub struct Expr(Arc<ExprNode>);

impl PartialEq for Expr {
    fn eq(&self, other: &Expr) -> bool {
        // Sound *and complete* for structural equality: every constructor
        // interns, so structurally equal terms are the same allocation.
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Expr {}

impl Hash for Expr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

const INTERN_SHARDS: usize = 16;

/// One shard of the arena: structural hash → weak refs to live nodes
/// with that hash. Buckets are swept of dead entries as they are
/// revisited; a full sweep runs when the entry count doubles, so the
/// index itself stays proportional to the live term count.
#[derive(Default)]
struct InternShard {
    buckets: HashMap<u64, Vec<Weak<ExprNode>>>,
    sweep_at: usize,
}

static INTERNER: OnceLock<[Mutex<InternShard>; INTERN_SHARDS]> = OnceLock::new();
static INTERNED_TERMS: AtomicU64 = AtomicU64::new(0);
static INTERN_HITS: AtomicU64 = AtomicU64::new(0);

/// Interner traffic since process start: `(terms_allocated, arena_hits)`.
/// Both are monotone process-wide counters (schedule-dependent in a
/// parallel run — they feed `/metrics` and `/stats`, never per-case
/// profiles, which must stay byte-identical across worker counts).
#[must_use]
pub fn interner_stats() -> (u64, u64) {
    (
        INTERNED_TERMS.load(Ordering::Relaxed),
        INTERN_HITS.load(Ordering::Relaxed),
    )
}

impl Expr {
    /// The top constructor of the expression.
    #[must_use]
    pub fn kind(&self) -> &ExprKind {
        &self.0.kind
    }

    fn mk(kind: ExprKind) -> Expr {
        let mut h = DefaultHasher::new();
        kind.hash(&mut h);
        let hash = h.finish();
        let shards =
            INTERNER.get_or_init(|| std::array::from_fn(|_| Mutex::new(InternShard::default())));
        let mut shard = shards[(hash as usize) % INTERN_SHARDS]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let node = {
            let bucket = shard.buckets.entry(hash).or_default();
            bucket.retain(|w| w.strong_count() > 0);
            // Children were themselves interned, so the derived one-level
            // ExprKind equality (pointer-equal children) is full
            // structural equality here.
            if let Some(node) = bucket.iter().find_map(|w| {
                let n = w.upgrade()?;
                (n.kind == kind).then_some(n)
            }) {
                INTERN_HITS.fetch_add(1, Ordering::Relaxed);
                return Expr(node);
            }
            let node = Arc::new(ExprNode { hash, kind });
            bucket.push(Arc::downgrade(&node));
            node
        };
        INTERNED_TERMS.fetch_add(1, Ordering::Relaxed);
        if shard.buckets.len() >= shard.sweep_at {
            shard.buckets.retain(|_, v| {
                v.retain(|w| w.strong_count() > 0);
                !v.is_empty()
            });
            shard.sweep_at = (shard.buckets.len() * 2).max(1024);
        }
        drop(shard);
        Expr(node)
    }

    /// A bitvector constant.
    #[must_use]
    pub fn bits(b: Bv) -> Expr {
        Expr::mk(ExprKind::Val(Value::Bits(b)))
    }

    /// A bitvector constant of the given width and value.
    #[must_use]
    pub fn bv(width: u32, value: u128) -> Expr {
        Expr::bits(Bv::new(width, value))
    }

    /// A boolean constant.
    #[must_use]
    pub fn bool(b: bool) -> Expr {
        Expr::mk(ExprKind::Val(Value::Bool(b)))
    }

    /// A closed value.
    #[must_use]
    pub fn val(v: Value) -> Expr {
        Expr::mk(ExprKind::Val(v))
    }

    /// A variable.
    #[must_use]
    pub fn var(v: Var) -> Expr {
        Expr::mk(ExprKind::Var(v))
    }

    /// Boolean negation.
    #[must_use]
    pub fn not(e: Expr) -> Expr {
        Expr::mk(ExprKind::Not(e))
    }

    /// Boolean conjunction.
    #[must_use]
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::mk(ExprKind::And(a, b))
    }

    /// Boolean disjunction.
    #[must_use]
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::mk(ExprKind::Or(a, b))
    }

    /// Conjunction of an iterator of expressions (`true` if empty).
    pub fn and_all<I: IntoIterator<Item = Expr>>(es: I) -> Expr {
        let mut it = es.into_iter();
        match it.next() {
            None => Expr::bool(true),
            Some(first) => it.fold(first, Expr::and),
        }
    }

    /// Equality.
    #[must_use]
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::mk(ExprKind::Eq(a, b))
    }

    /// If-then-else.
    #[must_use]
    pub fn ite(c: Expr, t: Expr, e: Expr) -> Expr {
        Expr::mk(ExprKind::Ite(c, t, e))
    }

    /// Bitvector unary operation.
    #[must_use]
    pub fn unop(op: BvUnop, e: Expr) -> Expr {
        Expr::mk(ExprKind::Unop(op, e))
    }

    /// Bitvector binary operation.
    #[must_use]
    pub fn binop(op: BvBinop, a: Expr, b: Expr) -> Expr {
        Expr::mk(ExprKind::Binop(op, a, b))
    }

    /// `bvadd`.
    #[must_use]
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::binop(BvBinop::Add, a, b)
    }

    /// `bvsub`.
    #[must_use]
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::binop(BvBinop::Sub, a, b)
    }

    /// Bitvector comparison.
    #[must_use]
    pub fn cmp(op: BvCmp, a: Expr, b: Expr) -> Expr {
        Expr::mk(ExprKind::Cmp(op, a, b))
    }

    /// `((_ extract hi lo) e)`.
    #[must_use]
    pub fn extract(hi: u32, lo: u32, e: Expr) -> Expr {
        Expr::mk(ExprKind::Extract(hi, lo, e))
    }

    /// `((_ zero_extend n) e)`.
    #[must_use]
    pub fn zero_extend(n: u32, e: Expr) -> Expr {
        Expr::mk(ExprKind::ZeroExtend(n, e))
    }

    /// `((_ sign_extend n) e)`.
    #[must_use]
    pub fn sign_extend(n: u32, e: Expr) -> Expr {
        Expr::mk(ExprKind::SignExtend(n, e))
    }

    /// `(concat hi lo)`.
    #[must_use]
    pub fn concat(hi: Expr, lo: Expr) -> Expr {
        Expr::mk(ExprKind::Concat(hi, lo))
    }

    /// Returns the constant value if the expression is a literal.
    #[must_use]
    pub fn as_value(&self) -> Option<Value> {
        match self.kind() {
            ExprKind::Val(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the constant bitvector if the expression is a bitvector
    /// literal.
    #[must_use]
    pub fn as_bits(&self) -> Option<Bv> {
        match self.kind() {
            ExprKind::Val(Value::Bits(b)) => Some(*b),
            _ => None,
        }
    }

    /// Returns the boolean if the expression is a boolean literal.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self.kind() {
            ExprKind::Val(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// Returns the variable if the expression is one.
    #[must_use]
    pub fn as_var(&self) -> Option<Var> {
        match self.kind() {
            ExprKind::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// Collects the free variables into `out`.
    pub fn free_vars_into(&self, out: &mut BTreeSet<Var>) {
        match self.kind() {
            ExprKind::Val(_) => {}
            ExprKind::Var(v) => {
                out.insert(*v);
            }
            ExprKind::Not(a)
            | ExprKind::Unop(_, a)
            | ExprKind::Extract(_, _, a)
            | ExprKind::ZeroExtend(_, a)
            | ExprKind::SignExtend(_, a) => a.free_vars_into(out),
            ExprKind::And(a, b)
            | ExprKind::Or(a, b)
            | ExprKind::Eq(a, b)
            | ExprKind::Binop(_, a, b)
            | ExprKind::Cmp(_, a, b)
            | ExprKind::Concat(a, b) => {
                a.free_vars_into(out);
                b.free_vars_into(out);
            }
            ExprKind::Ite(c, t, e) => {
                c.free_vars_into(out);
                t.free_vars_into(out);
                e.free_vars_into(out);
            }
        }
    }

    /// The set of free variables.
    #[must_use]
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.free_vars_into(&mut out);
        out
    }

    /// True iff the variable occurs free.
    #[must_use]
    pub fn mentions(&self, v: Var) -> bool {
        match self.kind() {
            ExprKind::Val(_) => false,
            ExprKind::Var(w) => *w == v,
            ExprKind::Not(a)
            | ExprKind::Unop(_, a)
            | ExprKind::Extract(_, _, a)
            | ExprKind::ZeroExtend(_, a)
            | ExprKind::SignExtend(_, a) => a.mentions(v),
            ExprKind::And(a, b)
            | ExprKind::Or(a, b)
            | ExprKind::Eq(a, b)
            | ExprKind::Binop(_, a, b)
            | ExprKind::Cmp(_, a, b)
            | ExprKind::Concat(a, b) => a.mentions(v) || b.mentions(v),
            ExprKind::Ite(c, t, e) => c.mentions(v) || t.mentions(v) || e.mentions(v),
        }
    }

    /// Capture-free substitution of variables (all expressions here are
    /// quantifier-free, so substitution is structural). Returns `self`
    /// unchanged (sharing the allocation) when no substituted variable
    /// occurs.
    #[must_use]
    pub fn subst(&self, map: &dyn Fn(Var) -> Option<Expr>) -> Expr {
        match self.kind() {
            ExprKind::Val(_) => self.clone(),
            ExprKind::Var(v) => map(*v).unwrap_or_else(|| self.clone()),
            ExprKind::Not(a) => Expr::not(a.subst(map)),
            ExprKind::And(a, b) => Expr::and(a.subst(map), b.subst(map)),
            ExprKind::Or(a, b) => Expr::or(a.subst(map), b.subst(map)),
            ExprKind::Eq(a, b) => Expr::eq(a.subst(map), b.subst(map)),
            ExprKind::Ite(c, t, e) => Expr::ite(c.subst(map), t.subst(map), e.subst(map)),
            ExprKind::Unop(op, a) => Expr::unop(*op, a.subst(map)),
            ExprKind::Binop(op, a, b) => Expr::binop(*op, a.subst(map), b.subst(map)),
            ExprKind::Cmp(op, a, b) => Expr::cmp(*op, a.subst(map), b.subst(map)),
            ExprKind::Extract(hi, lo, a) => Expr::extract(*hi, *lo, a.subst(map)),
            ExprKind::ZeroExtend(n, a) => Expr::zero_extend(*n, a.subst(map)),
            ExprKind::SignExtend(n, a) => Expr::sign_extend(*n, a.subst(map)),
            ExprKind::Concat(a, b) => Expr::concat(a.subst(map), b.subst(map)),
        }
    }

    /// Substitution of a single variable.
    #[must_use]
    pub fn subst_var(&self, v: Var, replacement: &Expr) -> Expr {
        if !self.mentions(v) {
            return self.clone();
        }
        self.subst(&|w| {
            if w == v {
                Some(replacement.clone())
            } else {
                None
            }
        })
    }

    /// Infers the sort, consulting `var_sort` for variables.
    ///
    /// # Errors
    ///
    /// Returns [`SortError`] on ill-sorted terms (width mismatches,
    /// boolean/bitvector confusion, unknown variables).
    pub fn sort(&self, var_sort: &dyn Fn(Var) -> Option<Sort>) -> Result<Sort, SortError> {
        match self.kind() {
            ExprKind::Val(v) => Ok(v.sort()),
            ExprKind::Var(v) => var_sort(*v).ok_or(SortError::UnknownVar(*v)),
            ExprKind::Not(a) => {
                expect_bool(a.sort(var_sort)?)?;
                Ok(Sort::Bool)
            }
            ExprKind::And(a, b) | ExprKind::Or(a, b) => {
                expect_bool(a.sort(var_sort)?)?;
                expect_bool(b.sort(var_sort)?)?;
                Ok(Sort::Bool)
            }
            ExprKind::Eq(a, b) => {
                let (sa, sb) = (a.sort(var_sort)?, b.sort(var_sort)?);
                if sa == sb {
                    Ok(Sort::Bool)
                } else {
                    Err(SortError::Mismatch(sa, sb))
                }
            }
            ExprKind::Ite(c, t, e) => {
                expect_bool(c.sort(var_sort)?)?;
                let (st, se) = (t.sort(var_sort)?, e.sort(var_sort)?);
                if st == se {
                    Ok(st)
                } else {
                    Err(SortError::Mismatch(st, se))
                }
            }
            ExprKind::Unop(_, a) => {
                let w = expect_bv(a.sort(var_sort)?)?;
                Ok(Sort::BitVec(w))
            }
            ExprKind::Binop(_, a, b) => {
                let (wa, wb) = (expect_bv(a.sort(var_sort)?)?, expect_bv(b.sort(var_sort)?)?);
                if wa == wb {
                    Ok(Sort::BitVec(wa))
                } else {
                    Err(SortError::Mismatch(Sort::BitVec(wa), Sort::BitVec(wb)))
                }
            }
            ExprKind::Cmp(_, a, b) => {
                let (wa, wb) = (expect_bv(a.sort(var_sort)?)?, expect_bv(b.sort(var_sort)?)?);
                if wa == wb {
                    Ok(Sort::Bool)
                } else {
                    Err(SortError::Mismatch(Sort::BitVec(wa), Sort::BitVec(wb)))
                }
            }
            ExprKind::Extract(hi, lo, a) => {
                let w = expect_bv(a.sort(var_sort)?)?;
                if *lo <= *hi && *hi < w {
                    Ok(Sort::BitVec(hi - lo + 1))
                } else {
                    Err(SortError::BadExtract {
                        hi: *hi,
                        lo: *lo,
                        width: w,
                    })
                }
            }
            ExprKind::ZeroExtend(n, a) | ExprKind::SignExtend(n, a) => {
                let w = expect_bv(a.sort(var_sort)?)?;
                Ok(Sort::BitVec(w + n))
            }
            ExprKind::Concat(a, b) => {
                let (wa, wb) = (expect_bv(a.sort(var_sort)?)?, expect_bv(b.sort(var_sort)?)?);
                Ok(Sort::BitVec(wa + wb))
            }
        }
    }
}

fn expect_bool(s: Sort) -> Result<(), SortError> {
    match s {
        Sort::Bool => Ok(()),
        other => Err(SortError::ExpectedBool(other)),
    }
}

fn expect_bv(s: Sort) -> Result<u32, SortError> {
    match s {
        Sort::BitVec(w) => Ok(w),
        other => Err(SortError::ExpectedBitVec(other)),
    }
}

/// Sort-inference errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortError {
    /// A variable without a declared sort.
    UnknownVar(Var),
    /// Two subterms were required to share a sort but do not.
    Mismatch(Sort, Sort),
    /// A boolean position held a bitvector.
    ExpectedBool(Sort),
    /// A bitvector position held a boolean.
    ExpectedBitVec(Sort),
    /// `extract` indices out of range.
    BadExtract {
        /// High bit index.
        hi: u32,
        /// Low bit index.
        lo: u32,
        /// Operand width.
        width: u32,
    },
}

impl fmt::Display for SortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortError::UnknownVar(v) => write!(f, "variable {v} has no declared sort"),
            SortError::Mismatch(a, b) => write!(f, "sort mismatch: {a} vs {b}"),
            SortError::ExpectedBool(s) => write!(f, "expected Bool, found {s}"),
            SortError::ExpectedBitVec(s) => write!(f, "expected a bitvector, found {s}"),
            SortError::BadExtract { hi, lo, width } => {
                write!(f, "extract [{hi}:{lo}] out of range for width {width}")
            }
        }
    }
}

impl std::error::Error for SortError {}

impl fmt::Display for Expr {
    /// SMT-LIB concrete syntax, as appearing in Isla traces:
    /// `(bvadd ((_ extract 63 0) ((_ zero_extend 64) v38)) #x…)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            ExprKind::Val(v) => write!(f, "{v}"),
            ExprKind::Var(v) => write!(f, "{v}"),
            ExprKind::Not(a) => write!(f, "(not {a})"),
            ExprKind::And(a, b) => write!(f, "(and {a} {b})"),
            ExprKind::Or(a, b) => write!(f, "(or {a} {b})"),
            ExprKind::Eq(a, b) => write!(f, "(= {a} {b})"),
            ExprKind::Ite(c, t, e) => write!(f, "(ite {c} {t} {e})"),
            ExprKind::Unop(op, a) => write!(f, "({} {a})", unop_name(*op)),
            ExprKind::Binop(op, a, b) => write!(f, "({} {a} {b})", binop_name(*op)),
            ExprKind::Cmp(op, a, b) => write!(f, "({} {a} {b})", cmp_name(*op)),
            ExprKind::Extract(hi, lo, a) => write!(f, "((_ extract {hi} {lo}) {a})"),
            ExprKind::ZeroExtend(n, a) => write!(f, "((_ zero_extend {n}) {a})"),
            ExprKind::SignExtend(n, a) => write!(f, "((_ sign_extend {n}) {a})"),
            ExprKind::Concat(a, b) => write!(f, "(concat {a} {b})"),
        }
    }
}

pub(crate) fn unop_name(op: BvUnop) -> &'static str {
    match op {
        BvUnop::Not => "bvnot",
        BvUnop::Neg => "bvneg",
        BvUnop::Rev => "bvrev",
    }
}

pub(crate) fn binop_name(op: BvBinop) -> &'static str {
    match op {
        BvBinop::Add => "bvadd",
        BvBinop::Sub => "bvsub",
        BvBinop::Mul => "bvmul",
        BvBinop::Udiv => "bvudiv",
        BvBinop::Urem => "bvurem",
        BvBinop::And => "bvand",
        BvBinop::Or => "bvor",
        BvBinop::Xor => "bvxor",
        BvBinop::Shl => "bvshl",
        BvBinop::Lshr => "bvlshr",
        BvBinop::Ashr => "bvashr",
    }
}

pub(crate) fn cmp_name(op: BvCmp) -> &'static str {
    match op {
        BvCmp::Ult => "bvult",
        BvCmp::Ule => "bvule",
        BvCmp::Slt => "bvslt",
        BvCmp::Sle => "bvsle",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_vars(_: Var) -> Option<Sort> {
        None
    }

    #[test]
    fn display_matches_isla_concrete_syntax() {
        // The add sp, sp, 64 computation from Fig. 3 of the paper.
        let v38 = Expr::var(Var(38));
        let e = Expr::add(
            Expr::extract(63, 0, Expr::zero_extend(64, v38)),
            Expr::bv(64, 0x40),
        );
        assert_eq!(
            e.to_string(),
            "(bvadd ((_ extract 63 0) ((_ zero_extend 64) v38)) #x0000000000000040)"
        );
    }

    #[test]
    fn sort_inference_accepts_well_sorted_terms() {
        let sorts = |v: Var| {
            if v.0 == 1 {
                Some(Sort::BitVec(64))
            } else {
                None
            }
        };
        let e = Expr::add(Expr::var(Var(1)), Expr::bv(64, 1));
        assert_eq!(e.sort(&sorts), Ok(Sort::BitVec(64)));
        let c = Expr::cmp(BvCmp::Ult, Expr::var(Var(1)), Expr::bv(64, 10));
        assert_eq!(c.sort(&sorts), Ok(Sort::Bool));
        let x = Expr::extract(7, 0, Expr::var(Var(1)));
        assert_eq!(x.sort(&sorts), Ok(Sort::BitVec(8)));
    }

    #[test]
    fn sort_inference_rejects_ill_sorted_terms() {
        let e = Expr::add(Expr::bv(8, 1), Expr::bv(16, 1));
        assert_eq!(
            e.sort(&no_vars),
            Err(SortError::Mismatch(Sort::BitVec(8), Sort::BitVec(16)))
        );
        let e = Expr::not(Expr::bv(8, 1));
        assert_eq!(
            e.sort(&no_vars),
            Err(SortError::ExpectedBool(Sort::BitVec(8)))
        );
        let e = Expr::extract(8, 0, Expr::bv(8, 1));
        assert!(matches!(
            e.sort(&no_vars),
            Err(SortError::BadExtract { .. })
        ));
        let e = Expr::var(Var(7));
        assert_eq!(e.sort(&no_vars), Err(SortError::UnknownVar(Var(7))));
    }

    #[test]
    fn subst_replaces_and_shares() {
        let e = Expr::add(Expr::var(Var(0)), Expr::var(Var(1)));
        let r = e.subst_var(Var(0), &Expr::bv(64, 5));
        assert_eq!(r.to_string(), "(bvadd #x0000000000000005 v1)");
        // No occurrence: same allocation returned.
        let untouched = e.subst_var(Var(9), &Expr::bv(64, 5));
        assert!(Arc::ptr_eq(&untouched.0, &e.0));
    }

    #[test]
    fn free_vars_collects_all() {
        let e = Expr::ite(
            Expr::eq(Expr::var(Var(2)), Expr::bv(1, 1)),
            Expr::var(Var(3)),
            Expr::var(Var(4)),
        );
        let fv = e.free_vars();
        assert_eq!(
            fv.into_iter().collect::<Vec<_>>(),
            vec![Var(2), Var(3), Var(4)]
        );
    }

    #[test]
    fn structurally_equal_terms_are_interned_to_one_allocation() {
        let build = || {
            Expr::add(
                Expr::extract(63, 0, Expr::zero_extend(64, Expr::var(Var(38)))),
                Expr::bv(64, 0x40),
            )
        };
        let (a, b) = (build(), build());
        assert!(Arc::ptr_eq(&a.0, &b.0), "two builds share one allocation");
        assert_eq!(a, b);
        // Hashing reads the cached structural hash, so equal terms hash
        // identically through any hasher.
        let digest = |e: &Expr| {
            let mut h = DefaultHasher::new();
            e.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&a), digest(&b));
        // The interner's allocation/hit counters are process-global, so
        // the counter half of this test lives in `tests/interner.rs`, a
        // binary of its own where no sibling test thread interns terms.
        // Distinct terms stay distinct.
        assert_ne!(Expr::bv(64, 0x40), Expr::bv(64, 0x41));
        assert_ne!(Expr::bv(32, 1), Expr::bv(64, 1));
    }

    #[test]
    fn vargen_is_monotonic() {
        let mut g = VarGen::new();
        assert_eq!(g.fresh(), Var(0));
        assert_eq!(g.fresh(), Var(1));
        let mut g = VarGen::starting_at(38);
        assert_eq!(g.fresh(), Var(38));
        assert_eq!(g.peek(), 39);
    }
}
