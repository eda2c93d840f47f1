//! Linear integer arithmetic over mathematical integers.
//!
//! The sequence theory in `islaris-core` reasons about list indices (the
//! memcpy loop invariant needs facts like `update(take m Bs ++ drop m Bd, m,
//! Bs[m]) = take (m+1) Bs ++ drop (m+1) Bd` under `0 ≤ m < n`). Indices are
//! mathematical integers there — the bitvector-to-integer bridge (with its
//! no-overflow side conditions) lives in `islaris-core`; this module only
//! decides implications between linear constraints.
//!
//! The decision procedure is Fourier–Motzkin elimination over the
//! rationals, with integer tightening when negating the goal. Rational FM
//! is sound for refutation (rationally infeasible ⟹ integer infeasible),
//! so [`implies`] never claims an implication that does not hold; it may
//! fail to prove integer-only facts (none arise in our proofs).

use std::fmt;

/// An integer variable of the LIA theory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IVar(pub u32);

impl fmt::Display for IVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// A linear term: `Σ coeff·var + constant` with `i128` coefficients.
///
/// The coefficients are kept sorted by variable with no zero entries, so
/// the derived equality is structural equality of the canonical form.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct LinTerm {
    coeffs: Vec<(IVar, i128)>,
    konst: i128,
}

impl LinTerm {
    /// The constant term `k`.
    #[must_use]
    pub fn constant(k: i128) -> Self {
        LinTerm {
            coeffs: Vec::new(),
            konst: k,
        }
    }

    /// The variable `v` with coefficient 1.
    #[must_use]
    pub fn var(v: IVar) -> Self {
        LinTerm {
            coeffs: vec![(v, 1)],
            konst: 0,
        }
    }

    /// `a·self + b·other`: one merge of the two sorted coefficient lists,
    /// dropping the entries that cancel.
    fn comb(&self, a: i128, other: &LinTerm, b: i128) -> LinTerm {
        let mut coeffs = Vec::with_capacity(self.coeffs.len() + other.coeffs.len());
        let (mut i, mut j) = (0, 0);
        loop {
            let (v, c) = match (self.coeffs.get(i), other.coeffs.get(j)) {
                (Some(&(lv, lc)), Some(&(rv, rc))) if lv == rv => {
                    i += 1;
                    j += 1;
                    (lv, lc * a + rc * b)
                }
                (Some(&(lv, lc)), Some(&(rv, _))) if lv < rv => {
                    i += 1;
                    (lv, lc * a)
                }
                (Some(&(lv, lc)), None) => {
                    i += 1;
                    (lv, lc * a)
                }
                (_, Some(&(rv, rc))) => {
                    j += 1;
                    (rv, rc * b)
                }
                (None, None) => break,
            };
            if c != 0 {
                coeffs.push((v, c));
            }
        }
        LinTerm {
            coeffs,
            konst: self.konst * a + other.konst * b,
        }
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &LinTerm) -> LinTerm {
        self.comb(1, other, 1)
    }

    /// `self - other`.
    #[must_use]
    pub fn sub(&self, other: &LinTerm) -> LinTerm {
        self.comb(1, other, -1)
    }

    /// `k · self`.
    #[must_use]
    pub fn scale(&self, k: i128) -> LinTerm {
        if k == 0 {
            return LinTerm::constant(0);
        }
        LinTerm {
            coeffs: self.coeffs.iter().map(|&(v, c)| (v, c * k)).collect(),
            konst: self.konst * k,
        }
    }

    /// `self + k`.
    #[must_use]
    pub fn offset(&self, k: i128) -> LinTerm {
        let mut out = self.clone();
        out.konst += k;
        out
    }

    /// Divides every coefficient and the constant by `k`, if all divide
    /// exactly.
    #[must_use]
    pub fn div_exact(&self, k: i128) -> Option<LinTerm> {
        if k == 0 {
            return None;
        }
        if self.konst % k != 0 || self.coeffs.iter().any(|(_, c)| c % k != 0) {
            return None;
        }
        Some(LinTerm {
            coeffs: self.coeffs.iter().map(|&(v, c)| (v, c / k)).collect(),
            konst: self.konst / k,
        })
    }

    /// True iff the term has no variables.
    #[must_use]
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The constant value, if the term is constant.
    #[must_use]
    pub fn as_constant(&self) -> Option<i128> {
        self.is_constant().then_some(self.konst)
    }

    /// The coefficient pairs `(var, coeff)` in ascending variable order.
    ///
    /// Zero coefficients are never stored, so the iteration is a canonical
    /// rendering of the term (used by certificate serialisation).
    pub fn terms(&self) -> impl Iterator<Item = (IVar, i128)> + '_ {
        self.coeffs.iter().copied()
    }

    /// The constant part `k` of `Σ coeff·var + k`.
    #[must_use]
    pub fn constant_part(&self) -> i128 {
        self.konst
    }

    fn coeff(&self, v: IVar) -> i128 {
        self.coeffs
            .binary_search_by_key(&v, |&(w, _)| w)
            .map_or(0, |i| self.coeffs[i].1)
    }

    fn vars(&self) -> impl Iterator<Item = IVar> + '_ {
        self.coeffs.iter().map(|&(v, _)| v)
    }

    /// `self == other.scale(-1)`, without building the negation.
    fn is_neg_of(&self, other: &LinTerm) -> bool {
        self.konst == -other.konst
            && self.coeffs.len() == other.coeffs.len()
            && self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .all(|(&(v, c), &(w, d))| v == w && c == -d)
    }
}

/// Prints exactly what the derived `Debug` of the former
/// `BTreeMap<IVar, i128>` representation printed
/// (`LinTerm { coeffs: {IVar(0): 1}, konst: 3 }`): certificate order
/// digests hash the `{:?}` rendering of every obligation.
impl fmt::Debug for LinTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Coeffs<'a>(&'a [(IVar, i128)]);
        impl fmt::Debug for Coeffs<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(v, c)| (v, c)))
                    .finish()
            }
        }
        f.debug_struct("LinTerm")
            .field("coeffs", &Coeffs(&self.coeffs))
            .field("konst", &self.konst)
            .finish()
    }
}

impl fmt::Display for LinTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &(v, c) in &self.coeffs {
            if first {
                write!(f, "{c}·{v}")?;
                first = false;
            } else if c >= 0 {
                write!(f, " + {c}·{v}")?;
            } else {
                write!(f, " - {}·{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.konst)
        } else if self.konst > 0 {
            write!(f, " + {}", self.konst)
        } else if self.konst < 0 {
            write!(f, " - {}", -self.konst)
        } else {
            Ok(())
        }
    }
}

/// A linear constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinAtom {
    /// `lhs ≤ rhs`.
    Le(LinTerm, LinTerm),
    /// `lhs = rhs`.
    Eq(LinTerm, LinTerm),
}

impl LinAtom {
    /// `lhs < rhs`, encoded as `lhs + 1 ≤ rhs` (integers).
    #[must_use]
    pub fn lt(lhs: LinTerm, rhs: LinTerm) -> LinAtom {
        LinAtom::Le(lhs.offset(1), rhs)
    }
}

impl fmt::Display for LinAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinAtom::Le(a, b) => write!(f, "{a} ≤ {b}"),
            LinAtom::Eq(a, b) => write!(f, "{a} = {b}"),
        }
    }
}

/// Internal normal form: a term constrained to `t ≥ 0`.
type Geq0 = LinTerm;

fn atom_to_geq(atom: &LinAtom, out: &mut Vec<Geq0>) {
    match atom {
        // a ≤ b ⟺ b - a ≥ 0
        LinAtom::Le(a, b) => out.push(b.sub(a)),
        // a = b ⟺ b - a ≥ 0 ∧ a - b ≥ 0
        LinAtom::Eq(a, b) => {
            out.push(b.sub(a));
            out.push(a.sub(b));
        }
    }
}

/// Maximum number of constraints FM may generate before giving up
/// (returning "not proven", which is sound).
const FM_LIMIT: usize = 20_000;

/// Gaussian pre-reduction: an equality pair `t ≥ 0 ∧ −t ≥ 0` whose `t`
/// has a ±1-coefficient variable lets us substitute that variable away,
/// keeping the Fourier–Motzkin constraint growth in check.
fn gauss_reduce(constraints: &mut [Geq0]) {
    loop {
        // (v, t, c): the zero row t has coefficient c = ±1 on v.
        let mut subst: Option<(IVar, LinTerm, i128)> = None;
        'outer: for i in 0..constraints.len() {
            for j in 0..constraints.len() {
                if i != j && constraints[j].is_neg_of(&constraints[i]) {
                    // constraints[i] = 0. Find a ±1 variable.
                    let t = &constraints[i];
                    for v in t.vars() {
                        let c = t.coeff(v);
                        if c == 1 || c == -1 {
                            subst = Some((v, t.clone(), c));
                            break 'outer;
                        }
                    }
                }
            }
        }
        let Some((v, t, c)) = subst else {
            return;
        };
        // c·v + rest = 0 ⟹ v = −c·rest, so a row k·v + r becomes
        // r − k·c·rest = row − k·c·t (c² = 1 cancels v exactly).
        for row in constraints.iter_mut() {
            let k = row.coeff(v);
            if k != 0 {
                *row = row.comb(1, &t, -k * c);
            }
        }
    }
}

/// Is the conjunction of `t ≥ 0` constraints infeasible (over ℚ)?
fn infeasible(mut constraints: Vec<Geq0>) -> bool {
    gauss_reduce(&mut constraints);
    loop {
        // Constant constraints: contradiction or drop.
        let mut vars: Vec<IVar> = Vec::new();
        let mut next = Vec::with_capacity(constraints.len());
        for c in constraints {
            if let Some(k) = c.as_constant() {
                if k < 0 {
                    return true;
                }
            } else {
                vars.extend(c.vars());
                next.push(c);
            }
        }
        constraints = next;
        vars.sort_unstable();
        vars.dedup();
        if vars.is_empty() {
            return false; // no variables left, no contradiction
        }
        // Pick the variable with the smallest lower×upper product
        // (least constraint growth).
        let mut v = vars[0];
        let mut best = usize::MAX;
        for &cand in &vars {
            let lo = constraints.iter().filter(|c| c.coeff(cand) > 0).count();
            let hi = constraints.iter().filter(|c| c.coeff(cand) < 0).count();
            let cost = lo * hi;
            if cost < best {
                best = cost;
                v = cand;
            }
        }
        // Partition on the sign of v's coefficient.
        let mut lower: Vec<LinTerm> = Vec::new(); // c > 0:  c·v + r ≥ 0
        let mut upper: Vec<LinTerm> = Vec::new(); // c < 0
        let mut rest: Vec<LinTerm> = Vec::new();
        for c in constraints {
            match c.coeff(v).signum() {
                1 => lower.push(c),
                -1 => upper.push(c),
                _ => rest.push(c),
            }
        }
        if lower.len() * upper.len() + rest.len() > FM_LIMIT {
            return false; // give up: unproven
        }
        // Combine each (lower, upper) pair, eliminating v.
        for lo in &lower {
            for up in &upper {
                let cl = lo.coeff(v); // > 0
                let cu = -up.coeff(v); // > 0
                                       // cu·lo + cl·up has coefficient cu·cl - cl·cu = 0 on v.
                rest.push(lo.comb(cu, up, cl));
            }
        }
        constraints = rest;
    }
}

/// Does `facts ⟹ goal` hold over the integers?
///
/// Sound but incomplete: a `true` answer is always correct; `false` means
/// "not proven".
#[must_use]
pub fn implies(facts: &[LinAtom], goal: &LinAtom) -> bool {
    match goal {
        LinAtom::Eq(a, b) => {
            implies(facts, &LinAtom::Le(a.clone(), b.clone()))
                && implies(facts, &LinAtom::Le(b.clone(), a.clone()))
        }
        LinAtom::Le(a, b) => {
            // Refute facts ∧ ¬(a ≤ b), i.e. facts ∧ b + 1 ≤ a.
            let mut cs = Vec::new();
            for f in facts {
                atom_to_geq(f, &mut cs);
            }
            atom_to_geq(&LinAtom::Le(b.offset(1), a.clone()), &mut cs);
            infeasible(cs)
        }
    }
}

/// Are the facts themselves contradictory? (Used to discharge goals under
/// absurd contexts, e.g. a pruned `Cases` branch.)
#[must_use]
pub fn contradictory(facts: &[LinAtom]) -> bool {
    let mut cs = Vec::new();
    for f in facts {
        atom_to_geq(f, &mut cs);
    }
    infeasible(cs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> LinTerm {
        LinTerm::var(IVar(i))
    }

    fn k(c: i128) -> LinTerm {
        LinTerm::constant(c)
    }

    #[test]
    fn memcpy_invariant_step() {
        // 0 ≤ m ∧ m < n ⟹ m + 1 ≤ n
        let facts = [LinAtom::Le(k(0), v(0)), LinAtom::lt(v(0), v(1))];
        assert!(implies(&facts, &LinAtom::Le(v(0).offset(1), v(1))));
        // …but not m + 2 ≤ n.
        assert!(!implies(&facts, &LinAtom::Le(v(0).offset(2), v(1))));
    }

    #[test]
    fn equality_goal_splits() {
        // m ≤ i ∧ i ≤ m ⟹ i = m
        let facts = [LinAtom::Le(v(0), v(1)), LinAtom::Le(v(1), v(0))];
        assert!(implies(&facts, &LinAtom::Eq(v(1), v(0))));
    }

    #[test]
    fn transitivity_chain() {
        let facts = [
            LinAtom::Le(v(0), v(1)),
            LinAtom::Le(v(1), v(2)),
            LinAtom::Le(v(2), v(3)),
        ];
        assert!(implies(&facts, &LinAtom::Le(v(0), v(3))));
        assert!(!implies(&facts, &LinAtom::Le(v(3), v(0))));
    }

    #[test]
    fn contradiction_detected() {
        let facts = [LinAtom::lt(v(0), v(1)), LinAtom::lt(v(1), v(0))];
        assert!(contradictory(&facts));
        // Anything follows from absurdity.
        assert!(implies(&facts, &LinAtom::Eq(k(0), k(1))));
    }

    #[test]
    fn constants_evaluate() {
        assert!(implies(&[], &LinAtom::Le(k(3), k(5))));
        assert!(!implies(&[], &LinAtom::Le(k(5), k(3))));
        assert!(implies(&[], &LinAtom::Eq(k(4), k(4))));
    }

    #[test]
    fn scaled_combination() {
        // 2x ≤ y ∧ 0 ≤ x ⟹ x ≤ y
        let facts = [LinAtom::Le(v(0).scale(2), v(1)), LinAtom::Le(k(0), v(0))];
        assert!(implies(&facts, &LinAtom::Le(v(0), v(1))));
    }

    #[test]
    fn binary_search_midpoint_bounds() {
        // lo ≤ hi ∧ lo ≤ mid ∧ mid·2 ≤ lo + hi ⟹ mid ≤ hi
        let (lo, hi, mid) = (v(0), v(1), v(2));
        let facts = [
            LinAtom::Le(lo.clone(), hi.clone()),
            LinAtom::Le(lo.clone(), mid.clone()),
            LinAtom::Le(mid.scale(2), lo.add(&hi)),
        ];
        assert!(implies(&facts, &LinAtom::Le(mid, hi)));
    }

    #[test]
    fn term_display() {
        let t = v(0).scale(2).sub(&v(1)).offset(3);
        assert_eq!(t.to_string(), "2·i0 - 1·i1 + 3");
        assert_eq!(k(0).to_string(), "0");
    }
}
