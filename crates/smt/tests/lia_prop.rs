//! Property tests for the LIA kernel (`islaris_smt::lia`).
//!
//! * `LinTerm` arithmetic is compared, operation by operation, against a
//!   reference model over `BTreeMap<IVar, i128>` — the representation the
//!   term used to have. Values, the canonical form (ascending variables,
//!   no zero coefficients) and the `Debug` text must all agree: the
//!   certificate order digest hashes that text.
//! * `implies` and `contradictory` are checked for soundness by brute
//!   force: whenever they claim a fact, no integer point in a small box
//!   may refute it.
//!
//! 256 cases per property (the in-tree runner honours `ISLARIS_PT_CASES`);
//! failures print a seed replayable via `ISLARIS_PT_SEED`.

use std::sync::atomic::{AtomicUsize, Ordering};

use islaris_smt::lia::{contradictory, implies, IVar, LinAtom, LinTerm};
use islaris_testkit::{forall, Rng, TestResult};

const CASES: u32 = 256;

/// The reference model: the former `BTreeMap` representation with its
/// original arithmetic and its derived `Debug`.
mod reference {
    use std::collections::BTreeMap;

    use islaris_smt::lia::IVar;

    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct LinTerm {
        pub coeffs: BTreeMap<IVar, i128>,
        pub konst: i128,
    }

    impl LinTerm {
        pub fn constant(k: i128) -> Self {
            LinTerm {
                coeffs: BTreeMap::new(),
                konst: k,
            }
        }

        pub fn var(v: IVar) -> Self {
            let mut coeffs = BTreeMap::new();
            coeffs.insert(v, 1);
            LinTerm { coeffs, konst: 0 }
        }

        pub fn add(&self, other: &LinTerm) -> LinTerm {
            let mut out = self.clone();
            for (v, c) in &other.coeffs {
                let e = out.coeffs.entry(*v).or_insert(0);
                *e += c;
                if *e == 0 {
                    out.coeffs.remove(v);
                }
            }
            out.konst += other.konst;
            out
        }

        pub fn sub(&self, other: &LinTerm) -> LinTerm {
            self.add(&other.scale(-1))
        }

        pub fn scale(&self, k: i128) -> LinTerm {
            if k == 0 {
                return LinTerm::constant(0);
            }
            LinTerm {
                coeffs: self.coeffs.iter().map(|(v, c)| (*v, c * k)).collect(),
                konst: self.konst * k,
            }
        }

        pub fn offset(&self, k: i128) -> LinTerm {
            let mut out = self.clone();
            out.konst += k;
            out
        }

        pub fn div_exact(&self, k: i128) -> Option<LinTerm> {
            if k == 0 {
                return None;
            }
            if self.konst % k != 0 || self.coeffs.values().any(|c| c % k != 0) {
                return None;
            }
            Some(LinTerm {
                coeffs: self.coeffs.iter().map(|(v, c)| (*v, c / k)).collect(),
                konst: self.konst / k,
            })
        }
    }
}

/// A small linear term as data: `(var, coeff)` pairs (repeats and zero
/// coefficients allowed) plus a constant.
#[derive(Debug, Clone)]
struct Spec {
    coeffs: Vec<(u32, i128)>,
    konst: i128,
}

impl Spec {
    fn build(&self) -> LinTerm {
        self.coeffs
            .iter()
            .fold(LinTerm::constant(self.konst), |t, &(v, c)| {
                t.add(&LinTerm::var(IVar(v)).scale(c))
            })
    }

    fn build_reference(&self) -> reference::LinTerm {
        self.coeffs
            .iter()
            .fold(reference::LinTerm::constant(self.konst), |t, &(v, c)| {
                t.add(&reference::LinTerm::var(IVar(v)).scale(c))
            })
    }
}

#[derive(Debug, Clone)]
enum Op {
    Add(Spec),
    Sub(Spec),
    Scale(i128),
    Offset(i128),
    DivExact(i128),
}

fn small(r: &mut Rng, bound: u32) -> i128 {
    i128::from(r.range_u32(0, 2 * bound)) - i128::from(bound)
}

/// Few variables and small coefficients, so entries cancel often.
fn gen_spec(r: &mut Rng) -> Spec {
    Spec {
        coeffs: (0..r.range_u32(0, 5))
            .map(|_| (r.range_u32(0, 4), small(r, 4)))
            .collect(),
        konst: small(r, 20),
    }
}

fn gen_program(r: &mut Rng) -> (Spec, Vec<Op>) {
    let start = gen_spec(r);
    let ops = (0..r.range_u32(1, 8))
        .map(|_| match r.index(5) {
            0 => Op::Add(gen_spec(r)),
            1 => Op::Sub(gen_spec(r)),
            2 => Op::Scale(small(r, 3)),
            3 => Op::Offset(small(r, 10)),
            _ => Op::DivExact(small(r, 3)),
        })
        .collect();
    (start, ops)
}

/// Values, canonical form and `Debug` text of `t` against the model.
fn agrees(t: &LinTerm, m: &reference::LinTerm) -> Result<(), String> {
    let terms: Vec<(IVar, i128)> = t.terms().collect();
    let model: Vec<(IVar, i128)> = m.coeffs.iter().map(|(v, c)| (*v, *c)).collect();
    if terms != model || t.constant_part() != m.konst {
        return Err(format!("value {t:?} differs from model {m:?}"));
    }
    if terms.windows(2).any(|w| w[0].0 >= w[1].0) || terms.iter().any(|&(_, c)| c == 0) {
        return Err(format!("{t:?} is not in canonical form"));
    }
    if t.is_constant() != m.coeffs.is_empty() {
        return Err(format!("is_constant wrong on {t:?}"));
    }
    if format!("{t:?}") != format!("{m:?}") || format!("{t:#?}") != format!("{m:#?}") {
        return Err(format!("Debug text differs: {t:?} vs {m:?}"));
    }
    // Structural equality is equality of the canonical form: rebuilding
    // the model's value from scratch yields an equal term.
    let rebuilt = model
        .iter()
        .fold(LinTerm::constant(m.konst), |acc, &(v, c)| {
            acc.add(&LinTerm::var(v).scale(c))
        });
    if &rebuilt != t {
        return Err(format!("{t:?} differs from its rebuilt value {rebuilt:?}"));
    }
    Ok(())
}

fn run_program((start, ops): &(Spec, Vec<Op>)) -> Result<(), String> {
    let mut t = start.build();
    let mut m = start.build_reference();
    agrees(&t, &m)?;
    for op in ops {
        match op {
            Op::Add(s) => {
                t = t.add(&s.build());
                m = m.add(&s.build_reference());
            }
            Op::Sub(s) => {
                t = t.sub(&s.build());
                m = m.sub(&s.build_reference());
            }
            Op::Scale(k) => {
                t = t.scale(*k);
                m = m.scale(*k);
            }
            Op::Offset(k) => {
                t = t.offset(*k);
                m = m.offset(*k);
            }
            Op::DivExact(k) => match (t.div_exact(*k), m.div_exact(*k)) {
                (Some(a), Some(b)) => {
                    t = a;
                    m = b;
                }
                (None, None) => {}
                (a, b) => return Err(format!("div_exact({k}) disagrees: {a:?} vs {b:?}")),
            },
        }
        agrees(&t, &m).map_err(|e| format!("after {op:?}: {e}"))?;
    }
    Ok(())
}

#[test]
fn linterm_matches_btreemap_reference() {
    forall(
        "linterm_matches_btreemap_reference",
        CASES,
        gen_program,
        |p| match run_program(p) {
            Ok(()) => TestResult::Pass,
            Err(e) => TestResult::Fail(e),
        },
    );
}

/// Variables of the brute-force box and its half-width.
const BOX_VARS: u32 = 3;
const BOX: i128 = 4;

fn gen_box_term(r: &mut Rng) -> LinTerm {
    Spec {
        coeffs: (0..r.range_u32(0, 3))
            .map(|_| (r.range_u32(0, BOX_VARS - 1), small(r, 3)))
            .collect(),
        konst: small(r, 4),
    }
    .build()
}

fn gen_atom(r: &mut Rng) -> LinAtom {
    let (a, b) = (gen_box_term(r), gen_box_term(r));
    match r.index(4) {
        0 => LinAtom::Eq(a, b),
        1 => LinAtom::lt(a, b),
        _ => LinAtom::Le(a, b),
    }
}

/// Facts plus a goal. A third of the queries bound one term on both
/// sides (`lo ≤ t ≤ hi`, the shape Gaussian pre-reduction must not
/// mistake for an equality unless `lo = hi`) and ask for a bound on it;
/// a third ask for a fact weakened by a non-negative slack, so that
/// `implies` has true answers to defend; the rest are random.
fn gen_query(r: &mut Rng) -> (Vec<LinAtom>, LinAtom) {
    let mut facts: Vec<LinAtom> = (0..r.range_u32(1, 4)).map(|_| gen_atom(r)).collect();
    let goal = match r.index(3) {
        0 => {
            let t = gen_box_term(r);
            let lo = small(r, 3);
            let hi = lo + small(r, 2).abs();
            facts.push(LinAtom::Le(LinTerm::constant(lo), t.clone()));
            facts.push(LinAtom::Le(t.clone(), LinTerm::constant(hi)));
            let bound = LinTerm::constant(lo + small(r, 2));
            if r.next_bool() {
                LinAtom::Le(t, bound)
            } else {
                LinAtom::Le(bound, t)
            }
        }
        1 => match r.choose(&facts) {
            LinAtom::Le(a, b) | LinAtom::Eq(a, b) => {
                LinAtom::Le(a.clone(), b.offset(i128::from(r.range_u32(0, 2))))
            }
        },
        _ => gen_atom(r),
    };
    (facts, goal)
}

fn eval(t: &LinTerm, point: &[i128]) -> i128 {
    t.terms()
        .map(|(v, c)| c * point[v.0 as usize])
        .sum::<i128>()
        + t.constant_part()
}

fn holds(a: &LinAtom, point: &[i128]) -> bool {
    match a {
        LinAtom::Le(l, r) => eval(l, point) <= eval(r, point),
        LinAtom::Eq(l, r) => eval(l, point) == eval(r, point),
    }
}

/// The first point of the box satisfying every fact but not `goal`
/// (`None` goal: every fact).
fn counterexample(facts: &[LinAtom], goal: Option<&LinAtom>) -> Option<Vec<i128>> {
    let side = (2 * BOX + 1) as usize;
    (0..side.pow(BOX_VARS)).find_map(|mut i| {
        let point: Vec<i128> = (0..BOX_VARS)
            .map(|_| {
                let x = (i % side) as i128 - BOX;
                i /= side;
                x
            })
            .collect();
        let refutes =
            facts.iter().all(|f| holds(f, &point)) && !goal.is_some_and(|g| holds(g, &point));
        refutes.then_some(point)
    })
}

#[test]
fn implies_is_sound_on_a_small_box() {
    static PROVEN: AtomicUsize = AtomicUsize::new(0);
    static CONTRADICTORY: AtomicUsize = AtomicUsize::new(0);
    forall(
        "implies_is_sound_on_a_small_box",
        CASES,
        gen_query,
        |(facts, goal)| {
            if implies(facts, goal) {
                PROVEN.fetch_add(1, Ordering::Relaxed);
                if let Some(p) = counterexample(facts, Some(goal)) {
                    return TestResult::Fail(format!(
                        "implies claimed {goal} but {p:?} refutes it"
                    ));
                }
            }
            if contradictory(facts) {
                CONTRADICTORY.fetch_add(1, Ordering::Relaxed);
                if let Some(p) = counterexample(facts, None) {
                    return TestResult::Fail(format!("contradictory facts satisfied at {p:?}"));
                }
            }
            TestResult::Pass
        },
    );
    // The property must not hold vacuously (a single replayed seed may).
    if std::env::var_os("ISLARIS_PT_SEED").is_none() {
        assert!(PROVEN.load(Ordering::Relaxed) > 0, "implies proved nothing");
        assert!(
            CONTRADICTORY.load(Ordering::Relaxed) > 0,
            "no contradictory facts drawn"
        );
    }
}
