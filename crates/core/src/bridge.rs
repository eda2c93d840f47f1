//! The bitvector-to-integer bridge.
//!
//! Sequence indices are mathematical integers, but machine code computes
//! them as 64-bit bitvectors. This module converts bitvector expressions
//! into [`LinTerm`]s, discharging the no-overflow side conditions with the
//! bitvector solver — the analogue of the paper's `bv_solve`-style side
//! condition solving. Conversion is *sound*: a term only maps to `int(x) +
//! int(y)` when `x + y` provably does not wrap under the current facts.

use std::collections::HashMap;

use islaris_smt::lia::{IVar, LinAtom, LinTerm};
use islaris_smt::{entails, BvBinop, BvCmp, Expr, ExprKind, QueryCtx, SolverConfig, Sort, Var};

use crate::seq::SeqVar;

/// Allocates integer variables for bitvector atoms and sequence lengths,
/// and performs the conversion.
#[derive(Default, Clone)]
pub struct IntBridge {
    /// Bitvector atom (with width) ↔ integer variable.
    atoms: Vec<(Expr, u32)>,
    atom_index: HashMap<Expr, usize>,
    /// Sequence-length variables, offset above the atom space.
    len_vars: HashMap<SeqVar, usize>,
    next_len: usize,
    /// Facts derived during conversion (e.g. floor-division bounds for
    /// right shifts); valid unconditionally, emitted with the range facts.
    derived: Vec<LinAtom>,
}

const LEN_BASE: u32 = 1 << 24;

impl IntBridge {
    /// Creates an empty bridge.
    #[must_use]
    pub fn new() -> Self {
        IntBridge::default()
    }

    /// The integer variable standing for the unsigned value of `e`.
    pub fn atom(&mut self, e: &Expr, width: u32) -> IVar {
        if let Some(i) = self.atom_index.get(e) {
            return IVar(*i as u32);
        }
        let i = self.atoms.len();
        self.atoms.push((e.clone(), width));
        self.atom_index.insert(e.clone(), i);
        IVar(i as u32)
    }

    /// The integer variable standing for `|B|`.
    pub fn len_var(&mut self, b: SeqVar) -> IVar {
        let i = *self.len_vars.entry(b).or_insert_with(|| {
            let i = self.next_len;
            self.next_len += 1;
            i
        });
        IVar(LEN_BASE + i as u32)
    }

    /// Converts a bitvector expression to a linear integer term. `prove`
    /// discharges bitvector side conditions (no-overflow obligations).
    pub fn to_int(
        &mut self,
        e: &Expr,
        width: u32,
        prove: &mut dyn FnMut(&Expr) -> bool,
    ) -> Option<LinTerm> {
        match e.kind() {
            ExprKind::Val(islaris_smt::Value::Bits(b)) => {
                Some(LinTerm::constant(b.to_u128() as i128))
            }
            ExprKind::ZeroExtend(_, inner) => {
                let w = inner_width(inner, width)?;
                self.to_int(inner, w, prove)
            }
            ExprKind::Binop(BvBinop::Add, x, y) => {
                if width >= 128 {
                    // No room for the carry-check extension.
                    return Some(LinTerm::var(self.atom(e, width)));
                }
                // No wrap: the 1-bit-extended sum has a clear carry bit.
                let wide = Expr::binop(
                    BvBinop::Add,
                    Expr::zero_extend(1, x.clone()),
                    Expr::zero_extend(1, y.clone()),
                );
                let no_carry = Expr::eq(Expr::extract(width, width, wide), Expr::bv(1, 0));
                if !prove(&no_carry) {
                    return Some(LinTerm::var(self.atom(e, width)));
                }
                let xi = self.to_int(x, width, prove)?;
                let yi = self.to_int(y, width, prove)?;
                Some(xi.add(&yi))
            }
            ExprKind::Binop(BvBinop::Sub, x, y) => {
                // No borrow: y ≤ x.
                let no_borrow = Expr::cmp(BvCmp::Ule, y.clone(), x.clone());
                if !prove(&no_borrow) {
                    return Some(LinTerm::var(self.atom(e, width)));
                }
                let xi = self.to_int(x, width, prove)?;
                let yi = self.to_int(y, width, prove)?;
                Some(xi.sub(&yi))
            }
            ExprKind::Binop(BvBinop::Shl, x, amt) => {
                let c = amt.as_bits()?.to_u128();
                if c >= u128::from(width) {
                    return Some(LinTerm::constant(0));
                }
                let c32 = c as u32;
                if c32 == 0 {
                    return self.to_int(x, width, prove);
                }
                // No bits shifted out: top c bits of x are zero.
                let top_zero = Expr::eq(
                    Expr::extract(width - 1, width - c32, x.clone()),
                    Expr::bits(islaris_bv::Bv::zero(c32)),
                );
                if !prove(&top_zero) {
                    return Some(LinTerm::var(self.atom(e, width)));
                }
                let xi = self.to_int(x, width, prove)?;
                Some(xi.scale(1 << c32))
            }
            ExprKind::Binop(BvBinop::Lshr, x, amt) => {
                // q = x >> c is exactly floor(int(x) / 2^c):
                // 2^c·q ≤ int(x) ≤ 2^c·q + 2^c − 1, unconditionally.
                let Some(c) = amt.as_bits() else {
                    return Some(LinTerm::var(self.atom(e, width)));
                };
                let c = c.to_u128();
                if c >= u128::from(width) {
                    return Some(LinTerm::constant(0));
                }
                let q = LinTerm::var(self.atom(e, width));
                if let Some(xi) = self.to_int(x, width, prove) {
                    let p = 1i128 << c;
                    self.derived.push(LinAtom::Le(q.scale(p), xi.clone()));
                    self.derived.push(LinAtom::Le(xi, q.scale(p).offset(p - 1)));
                }
                Some(q)
            }
            ExprKind::Binop(BvBinop::Mul, x, y) => {
                // Only constant · term (or term · constant).
                if let Some(c) = x.as_bits() {
                    let yi = self.to_int(y, width, prove)?;
                    // Overflow check omitted ⇒ fall back to atom unless
                    // the other operand is also constant.
                    if y.as_bits().is_some() {
                        return Some(yi.scale(c.to_u128() as i128));
                    }
                    let _ = yi;
                    return Some(LinTerm::var(self.atom(e, width)));
                }
                Some(LinTerm::var(self.atom(e, width)))
            }
            _ => Some(LinTerm::var(self.atom(e, width))),
        }
    }

    /// Range facts `0 ≤ v ≤ 2^w − 1` for every allocated atom.
    #[must_use]
    pub fn range_facts(&self) -> Vec<LinAtom> {
        let mut out = Vec::with_capacity(self.atoms.len() * 2 + self.len_vars.len());
        for (i, (_, w)) in self.atoms.iter().enumerate() {
            let v = LinTerm::var(IVar(i as u32));
            out.push(LinAtom::Le(LinTerm::constant(0), v.clone()));
            let max = if *w >= 127 {
                i128::MAX
            } else {
                (1i128 << w) - 1
            };
            out.push(LinAtom::Le(v, LinTerm::constant(max)));
        }
        // Canonical index order, so logged certificates are deterministic.
        let mut len_indices: Vec<usize> = self.len_vars.values().copied().collect();
        len_indices.sort_unstable();
        for i in len_indices {
            let v = LinTerm::var(IVar(LEN_BASE + i as u32));
            out.push(LinAtom::Le(LinTerm::constant(0), v));
        }
        out.extend(self.derived.iter().cloned());
        out
    }

    /// Translates the boolean bitvector facts into LIA facts (comparisons
    /// and equalities over convertible terms; everything else is skipped,
    /// which is sound for entailment).
    pub fn int_facts(
        &mut self,
        pure: &[Expr],
        width_of: &dyn Fn(&Expr) -> Option<u32>,
        prove: &mut dyn FnMut(&Expr) -> bool,
    ) -> Vec<LinAtom> {
        let mut out = Vec::new();
        let mut neqs = Vec::new();
        for fact in pure {
            self.fact_to_lia(fact, width_of, prove, &mut out, false);
            // Disequalities tighten non-strict bounds: a ≤ b ∧ a ≠ b ⟹ a < b.
            if let ExprKind::Not(inner) = fact.kind() {
                if let ExprKind::Eq(a, b) = inner.kind() {
                    if let Some(w) = width_of(a).or_else(|| width_of(b)) {
                        if let (Some(ai), Some(bi)) =
                            (self.to_int(a, w, prove), self.to_int(b, w, prove))
                        {
                            neqs.push((ai, bi));
                        }
                    }
                }
            }
        }
        for (ai, bi) in neqs {
            if out
                .iter()
                .any(|f| *f == LinAtom::Le(ai.clone(), bi.clone()))
            {
                out.push(LinAtom::lt(ai.clone(), bi.clone()));
            }
            if out
                .iter()
                .any(|f| *f == LinAtom::Le(bi.clone(), ai.clone()))
            {
                out.push(LinAtom::lt(bi, ai));
            }
        }
        out
    }

    fn fact_to_lia(
        &mut self,
        fact: &Expr,
        width_of: &dyn Fn(&Expr) -> Option<u32>,
        prove: &mut dyn FnMut(&Expr) -> bool,
        out: &mut Vec<LinAtom>,
        negated: bool,
    ) {
        // The no-wrap shape (built by `build::no_wrap_add`) translates
        // directly: int(x) + int(y) ≤ 2^w − 1.
        if !negated {
            if let Some((x, y, w)) = no_wrap_shape(fact) {
                if let (Some(xi), Some(yi)) = (self.to_int(&x, w, prove), self.to_int(&y, w, prove))
                {
                    let max = if w >= 127 {
                        i128::MAX
                    } else {
                        (1i128 << w) - 1
                    };
                    out.push(LinAtom::Le(xi.add(&yi), LinTerm::constant(max)));
                    return;
                }
            }
        }
        match fact.kind() {
            ExprKind::Not(inner) => {
                self.fact_to_lia(inner, width_of, prove, out, !negated);
            }
            ExprKind::And(a, b) if !negated => {
                self.fact_to_lia(a, width_of, prove, out, false);
                self.fact_to_lia(b, width_of, prove, out, false);
            }
            ExprKind::Cmp(op, a, b) => {
                let Some(w) = width_of(a).or_else(|| width_of(b)) else {
                    return;
                };
                let (Some(ai), Some(bi)) = (self.to_int(a, w, prove), self.to_int(b, w, prove))
                else {
                    return;
                };
                match (op, negated) {
                    (BvCmp::Ult, false) => out.push(LinAtom::lt(ai, bi)),
                    (BvCmp::Ule, false) => out.push(LinAtom::Le(ai, bi)),
                    (BvCmp::Ult, true) => out.push(LinAtom::Le(bi, ai)),
                    (BvCmp::Ule, true) => out.push(LinAtom::lt(bi, ai)),
                    // Signed comparisons do not transfer via the unsigned
                    // value map; skipped (sound).
                    (BvCmp::Slt | BvCmp::Sle, _) => {}
                }
            }
            ExprKind::Eq(a, b) if !negated => {
                let Some(w) = width_of(a).or_else(|| width_of(b)) else {
                    return;
                };
                if w == 0 {
                    return;
                }
                let (Some(ai), Some(bi)) = (self.to_int(a, w, prove), self.to_int(b, w, prove))
                else {
                    return;
                };
                out.push(LinAtom::Eq(ai, bi));
            }
            _ => {}
        }
    }
}

fn inner_width(e: &Expr, _outer: u32) -> Option<u32> {
    islaris_smt::width_of(e)
}

/// Matches `(= ((_ extract w w) (bvadd ((_ zero_extend 1) x)
/// ((_ zero_extend 1) y))) #b0)` — the carry-free-addition fact/goal shape —
/// returning `(x, y, w)`.
#[must_use]
pub fn no_wrap_shape(e: &Expr) -> Option<(Expr, Expr, u32)> {
    let ExprKind::Eq(lhs, rhs) = e.kind() else {
        return None;
    };
    let (ext, zero) = if rhs.as_bits().is_some_and(|b| b.is_zero() && b.width() == 1) {
        (lhs, rhs)
    } else if lhs.as_bits().is_some_and(|b| b.is_zero() && b.width() == 1) {
        (rhs, lhs)
    } else {
        return None;
    };
    let _ = zero;
    let ExprKind::Extract(hi, lo, sum) = ext.kind() else {
        return None;
    };
    if hi != lo {
        return None;
    }
    let ExprKind::Binop(BvBinop::Add, zx, zy) = sum.kind() else {
        return None;
    };
    let w = *hi;
    // Either operand may have been constant-folded from `zero_extend(1, c)`
    // into a (w+1)-bit literal below 2^w.
    let unwrap = |e: &Expr| -> Option<Expr> {
        if let ExprKind::ZeroExtend(1, inner) = e.kind() {
            if islaris_smt::width_of(inner) == Some(w) || islaris_smt::width_of(inner).is_none() {
                return Some(inner.clone());
            }
            return None;
        }
        if let Some(b) = e.as_bits() {
            if b.width() == w + 1 && b.to_u128() < (1u128 << w.min(127)) {
                return Some(Expr::bits(islaris_bv::Bv::new(w, b.to_u128())));
            }
        }
        None
    };
    let x = unwrap(zx)?;
    let y = unwrap(zy)?;
    Some((x, y, w))
}

/// Convenience wrapper: a proof callback backed by the bitvector solver
/// with a fixed fact set.
pub fn bv_prover<'a>(
    facts: &'a [Expr],
    sorts: &'a dyn Fn(Var) -> Option<Sort>,
    cfg: &'a SolverConfig,
) -> impl FnMut(&Expr) -> bool + 'a {
    move |goal: &Expr| entails(facts, goal, sorts, cfg, &mut QueryCtx::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use islaris_smt::lia::implies;

    fn sorts(v: Var) -> Option<Sort> {
        (v.0 < 32).then_some(Sort::BitVec(64))
    }

    #[test]
    fn constants_convert() {
        let mut br = IntBridge::new();
        let mut prove = |_: &Expr| false;
        let t = br.to_int(&Expr::bv(64, 42), 64, &mut prove).unwrap();
        assert_eq!(t.as_constant(), Some(42));
    }

    #[test]
    fn add_converts_with_no_overflow_facts() {
        // fact: m <u n (both 64-bit vars) ⟹ m + 1 converts to int(m) + 1.
        let m = Expr::var(Var(0));
        let n = Expr::var(Var(1));
        let facts = vec![Expr::cmp(BvCmp::Ult, m.clone(), n.clone())];
        let cfg = SolverConfig::new();
        let mut br = IntBridge::new();
        let mut prove = bv_prover(&facts, &sorts, &cfg);
        let e = Expr::add(m.clone(), Expr::bv(64, 1));
        let t = br.to_int(&e, 64, &mut prove).unwrap();
        let m_ivar = br.atom(&m, 64);
        assert_eq!(t, LinTerm::var(m_ivar).offset(1));
    }

    #[test]
    fn add_falls_back_to_atom_when_wrap_possible() {
        let m = Expr::var(Var(0));
        let cfg = SolverConfig::new();
        let mut br = IntBridge::new();
        let facts: Vec<Expr> = vec![];
        let mut prove = bv_prover(&facts, &sorts, &cfg);
        let e = Expr::add(m.clone(), Expr::bv(64, 1));
        let t = br.to_int(&e, 64, &mut prove).unwrap();
        // Whole expression became one atom — not int(m) + 1.
        assert!(t.as_constant().is_none());
        let whole_atom = br.atom(&e, 64);
        assert_eq!(t, LinTerm::var(whole_atom));
    }

    #[test]
    fn facts_translate_and_derive() {
        // From m <u n derive int(m) + 1 ≤ int(n) and the memcpy step
        // m + 1 ≤ n for the converted bv term m+1.
        let m = Expr::var(Var(0));
        let n = Expr::var(Var(1));
        let facts = vec![Expr::cmp(BvCmp::Ult, m.clone(), n.clone())];
        let cfg = SolverConfig::new();
        let mut br = IntBridge::new();
        let width_of = |_: &Expr| Some(64u32);
        let lia_facts = {
            let mut prove = bv_prover(&facts, &sorts, &cfg);
            let mut fs = br.int_facts(&facts, &width_of, &mut prove);
            fs.extend(br.range_facts());
            fs
        };
        let mi = br.atom(&m, 64);
        let ni = br.atom(&n, 64);
        let goal = LinAtom::Le(LinTerm::var(mi).offset(1), LinTerm::var(ni));
        assert!(implies(&lia_facts, &goal));
    }

    #[test]
    fn shl_converts_when_top_bits_clear() {
        // fact: x <u 2^32 ⟹ x << 3 = 8·int(x).
        let x = Expr::var(Var(0));
        let facts = vec![Expr::cmp(BvCmp::Ult, x.clone(), Expr::bv(64, 1 << 32))];
        let cfg = SolverConfig::new();
        let mut br = IntBridge::new();
        let mut prove = bv_prover(&facts, &sorts, &cfg);
        let e = Expr::binop(BvBinop::Shl, x.clone(), Expr::bv(64, 3));
        let t = br.to_int(&e, 64, &mut prove).unwrap();
        let xi = br.atom(&x, 64);
        assert_eq!(t, LinTerm::var(xi).scale(8));
    }

    #[test]
    fn len_vars_are_distinct() {
        let mut br = IntBridge::new();
        let a = br.len_var(SeqVar(0));
        let b = br.len_var(SeqVar(1));
        assert_ne!(a, b);
        assert_eq!(br.len_var(SeqVar(0)), a);
    }
}
