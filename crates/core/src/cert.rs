//! Proof certificates: the "Qed check" analogue.
//!
//! The automation of [`crate::engine`] is untrusted search. Every side
//! condition it discharges is logged as an [`Obligation`]; checking a
//! [`Certificate`] re-proves each obligation independently, with the
//! paranoid solver configuration (models verified by evaluation, RUP
//! refutation proofs replayed) for the bitvector obligations and the
//! Fourier–Motzkin procedure for the integer obligations. This mirrors the
//! paper's division between Lithium proof search and the Coq kernel's
//! final check of the generated proof term.
//!
//! Certificates carry an optional *order digest* — a hash over the
//! rendered obligations in sequence. Obligations are independently
//! checkable facts, so a digest-less certificate still re-proves after
//! reordering; the digest pins the exact sequence the engine emitted, so
//! any reordering (or silent alteration) of a sealed certificate is
//! rejected before per-obligation replay even starts.
//!
//! [`render_certificate`]/[`parse_certificate`] give certificates a
//! concrete S-expression syntax (the same dialect as trace printing), so
//! they can be committed as golden files and replayed from disk.

use islaris_itl::sexp::{expr_to_sexp, parse_sexp, sexp_to_expr, ParseError, Sexp};
use islaris_obs::{CertMetrics, Fnv1a, QueryTable};
use islaris_smt::lia::{implies, IVar, LinAtom, LinTerm};
use islaris_smt::sat::Lit;
use islaris_smt::{
    entails, entails_proof, entails_via_proof, Expr, QueryCache, QueryCtx, RupProof, SolverConfig,
    Sort, Var,
};

/// One discharged side condition.
#[derive(Debug, Clone)]
pub enum Obligation {
    /// Bitvector entailment: `facts ⟹ goal`.
    Bv {
        /// Hypotheses (the pure context at discharge time).
        facts: Vec<Expr>,
        /// The proven goal.
        goal: Expr,
        /// Sorts of the variables involved.
        sorts: Vec<(Var, Sort)>,
    },
    /// Linear integer arithmetic entailment.
    Lia {
        /// Hypotheses.
        facts: Vec<LinAtom>,
        /// The proven goal.
        goal: LinAtom,
    },
}

/// A certificate: the ordered list of discharged obligations of one block
/// verification, optionally sealed with an order digest.
#[derive(Debug, Clone, Default)]
pub struct Certificate {
    /// The obligations.
    pub obligations: Vec<Obligation>,
    /// FNV-1a digest over the rendered obligations in order, if sealed.
    /// `None` means "unordered bag of facts" (each still re-proved).
    pub digest: Option<u64>,
    /// Optional stored refutation proofs, keyed by obligation index
    /// (sorted, at most one per obligation). A proof is an *untrusted
    /// accelerator* for replay: the checker re-verifies it against a
    /// fresh bit-blasting of the obligation, and a stale or tampered
    /// proof falls back to a full solve — it can never flip a verdict.
    /// Proofs are excluded from the order digest, so attaching or
    /// stripping them does not unseal a certificate.
    pub proofs: Vec<(usize, RupProof)>,
}

impl Certificate {
    /// Seals a list of obligations: computes and stores the order digest.
    #[must_use]
    pub fn sealed(obligations: Vec<Obligation>) -> Certificate {
        let digest = Some(obligations_digest(&obligations));
        Certificate {
            obligations,
            digest,
            proofs: Vec::new(),
        }
    }

    /// The stored proof for obligation `index`, if any.
    #[must_use]
    pub fn proof_for(&self, index: usize) -> Option<&RupProof> {
        self.proofs
            .binary_search_by_key(&index, |(i, _)| *i)
            .ok()
            .map(|slot| &self.proofs[slot].1)
    }

    /// Re-proves every bitvector obligation and stores the trimmed,
    /// hinted RUP refutation next to it, replacing any proofs already
    /// attached. Returns the number of proofs attached. Obligations the
    /// preprocessor decides outright get no proof (replay re-decides
    /// them just as cheaply), and LIA obligations never carry one.
    pub fn attach_proofs(&mut self) -> usize {
        let cfg = SolverConfig::paranoid();
        self.proofs.clear();
        for (index, ob) in self.obligations.iter().enumerate() {
            if let Obligation::Bv { facts, goal, sorts } = ob {
                let lookup = |v: Var| sorts.iter().find(|(w, _)| *w == v).map(|(_, s)| *s);
                if let Some(p) = entails_proof(facts, goal, &lookup, &cfg) {
                    self.proofs.push((index, p));
                }
            }
        }
        self.proofs.len()
    }
}

/// The order digest: FNV-1a over each obligation's debug rendering, in
/// sequence, separated by newlines.
#[must_use]
pub fn obligations_digest(obligations: &[Obligation]) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv1a::default();
    for ob in obligations {
        let _ = writeln!(h, "{ob:?}");
    }
    h.finish()
}

/// Sentinel index for failures that are not tied to one obligation
/// (digest mismatch).
pub const DIGEST_MISMATCH: usize = usize::MAX;

/// A certificate-check failure: obligation `index` did not re-prove, or
/// (`index == DIGEST_MISMATCH`) the order digest did not match.
#[derive(Debug, Clone)]
pub struct CertError {
    /// Index of the failing obligation, or [`DIGEST_MISMATCH`].
    pub index: usize,
    /// Rendered obligation, or a digest-mismatch description.
    pub obligation: String,
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.index == DIGEST_MISMATCH {
            write!(f, "certificate digest check failed: {}", self.obligation)
        } else {
            write!(
                f,
                "certificate check failed at obligation {}: {}",
                self.index, self.obligation
            )
        }
    }
}

impl std::error::Error for CertError {}

/// Re-proves every obligation with checked (paranoid) solvers.
///
/// # Errors
///
/// Returns the first obligation that fails to re-prove (or a digest
/// mismatch for sealed certificates).
pub fn check_certificate(cert: &Certificate) -> Result<(), CertError> {
    check_certificate_with(cert, &mut CertCtx::default())
}

/// The optional collaborators of a certificate replay. All fields are
/// optional sinks or sources; `CertCtx::default()` replays with none.
#[derive(Default)]
pub struct CertCtx<'a> {
    /// Replay-effort counters, accumulated across calls.
    pub metrics: CertMetrics,
    /// Per-query attribution of the replay's solver queries (the replay
    /// half of the `--hot-queries` table; LIA obligations issue no solver
    /// query and record nothing).
    pub table: Option<&'a mut QueryTable>,
    /// Shared query cache: replays whose full rendered query text (under
    /// the paranoid configuration) has already been answered — by another
    /// case, block or thread — are served from it, with the original
    /// run's effort deltas replayed into `metrics` and `table`. Cache
    /// traffic is counted in [`CertMetrics::qcache`].
    pub cache: Option<&'a QueryCache>,
}

/// [`check_certificate`] with replay counters, attribution and an
/// optional shared query cache taken from `ctx`.
///
/// # Errors
///
/// Returns the first obligation that fails to re-prove (or a digest
/// mismatch for sealed certificates).
pub fn check_certificate_with(cert: &Certificate, ctx: &mut CertCtx) -> Result<(), CertError> {
    let m = &mut ctx.metrics;
    let mut q = QueryCtx {
        table: ctx.table.as_deref_mut(),
        cache: ctx.cache,
        ..QueryCtx::default()
    };
    let result = replay(cert, m, &mut q);
    m.solver.absorb(&q.metrics);
    m.qcache.absorb(&q.cache_metrics);
    result
}

fn replay(cert: &Certificate, m: &mut CertMetrics, q: &mut QueryCtx) -> Result<(), CertError> {
    if let Some(stored) = cert.digest {
        let computed = obligations_digest(&cert.obligations);
        if stored != computed {
            return Err(CertError {
                index: DIGEST_MISMATCH,
                obligation: format!(
                    "order digest mismatch (obligations reordered or altered): \
                     stored {stored:#018x}, computed {computed:#018x}"
                ),
            });
        }
    }
    let cfg = SolverConfig::paranoid();
    for (index, ob) in cert.obligations.iter().enumerate() {
        m.replayed += 1;
        let ok = match ob {
            Obligation::Bv { facts, goal, sorts } => {
                m.bv += 1;
                let lookup = |v: Var| sorts.iter().find(|(w, _)| *w == v).map(|(_, s)| *s);
                // A stored proof replays without CDCL search; if it fails
                // to apply (stale or tampered), fall back to a full solve.
                cert.proof_for(index)
                    .is_some_and(|p| entails_via_proof(facts, goal, &lookup, p, &mut q.metrics))
                    || entails(facts, goal, &lookup, &cfg, q)
            }
            Obligation::Lia { facts, goal } => {
                m.lia += 1;
                implies(facts, goal)
            }
        };
        if !ok {
            return Err(CertError {
                index,
                obligation: format!("{ob:?}"),
            });
        }
    }
    Ok(())
}

// ----- concrete syntax -----

fn sort_to_sexp(s: Sort) -> Sexp {
    match s {
        Sort::Bool => Sexp::Atom("Bool".into()),
        Sort::BitVec(w) => Sexp::List(vec![
            Sexp::Atom("_".into()),
            Sexp::Atom("BitVec".into()),
            Sexp::Atom(w.to_string()),
        ]),
    }
}

fn lin_term_to_sexp(t: &LinTerm) -> Sexp {
    let mut items = vec![
        Sexp::Atom("lin".into()),
        Sexp::Atom(t.constant_part().to_string()),
    ];
    for (v, c) in t.terms() {
        items.push(Sexp::List(vec![
            Sexp::Atom(format!("i{}", v.0)),
            Sexp::Atom(c.to_string()),
        ]));
    }
    Sexp::List(items)
}

fn lin_atom_to_sexp(a: &LinAtom) -> Sexp {
    let (op, l, r) = match a {
        LinAtom::Le(l, r) => ("<=", l, r),
        LinAtom::Eq(l, r) => ("=", l, r),
    };
    Sexp::List(vec![
        Sexp::Atom(op.into()),
        lin_term_to_sexp(l),
        lin_term_to_sexp(r),
    ])
}

fn obligation_to_sexp(ob: &Obligation) -> Sexp {
    match ob {
        Obligation::Bv { facts, goal, sorts } => {
            let mut sort_items = vec![Sexp::Atom("sorts".into())];
            for (v, s) in sorts {
                sort_items.push(Sexp::List(vec![
                    Sexp::Atom(v.to_string()),
                    sort_to_sexp(*s),
                ]));
            }
            let mut fact_items = vec![Sexp::Atom("facts".into())];
            fact_items.extend(facts.iter().map(expr_to_sexp));
            Sexp::List(vec![
                Sexp::Atom("bv".into()),
                Sexp::List(sort_items),
                Sexp::List(fact_items),
                Sexp::List(vec![Sexp::Atom("goal".into()), expr_to_sexp(goal)]),
            ])
        }
        Obligation::Lia { facts, goal } => {
            let mut fact_items = vec![Sexp::Atom("facts".into())];
            fact_items.extend(facts.iter().map(lin_atom_to_sexp));
            Sexp::List(vec![
                Sexp::Atom("lia".into()),
                Sexp::List(fact_items),
                Sexp::List(vec![Sexp::Atom("goal".into()), lin_atom_to_sexp(goal)]),
            ])
        }
    }
}

/// A SAT literal in DIMACS convention: variable `v` (0-based) prints as
/// `v+1`, negated literals with a leading `-`.
fn lit_to_sexp(l: Lit) -> Sexp {
    let v = i64::from(l.var()) + 1;
    Sexp::Atom(if l.is_pos() { v } else { -v }.to_string())
}

/// A stored refutation as `(proof <index> (clauses (cl …) …)
/// (hints (h …) …))`: one `(cl …)` of DIMACS literals per proof clause
/// (the last is the empty `(cl)`), and — when the proof is hinted — one
/// parallel `(h …)` of checker-database indices per clause.
fn proof_to_sexp(index: usize, p: &RupProof) -> Sexp {
    let mut clause_items = vec![Sexp::Atom("clauses".into())];
    for c in &p.clauses {
        let mut items = vec![Sexp::Atom("cl".into())];
        items.extend(c.iter().map(|&l| lit_to_sexp(l)));
        clause_items.push(Sexp::List(items));
    }
    let mut out = vec![
        Sexp::Atom("proof".into()),
        Sexp::Atom(index.to_string()),
        Sexp::List(clause_items),
    ];
    if !p.hints.is_empty() {
        let mut hint_items = vec![Sexp::Atom("hints".into())];
        for h in &p.hints {
            let mut items = vec![Sexp::Atom("h".into())];
            items.extend(h.iter().map(|n| Sexp::Atom(n.to_string())));
            hint_items.push(Sexp::List(items));
        }
        out.push(Sexp::List(hint_items));
    }
    Sexp::List(out)
}

/// Renders a certificate in concrete S-expression syntax, one obligation
/// per line (stable, diff-friendly — used by the golden files). Stored
/// proofs render after the obligations they accelerate, one `(proof …)`
/// form per line.
#[must_use]
pub fn render_certificate(cert: &Certificate) -> String {
    let mut out = String::from("(certificate\n");
    if let Some(d) = cert.digest {
        out.push_str(&format!(" (digest #x{d:016x})\n"));
    }
    for ob in &cert.obligations {
        out.push_str(&format!(" {}\n", obligation_to_sexp(ob)));
    }
    for (i, p) in &cert.proofs {
        out.push_str(&format!(" {}\n", proof_to_sexp(*i, p)));
    }
    out.push_str(")\n");
    out
}

fn perr<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        offset: 0,
        message: message.into(),
    })
}

fn tagged<'a>(s: &'a Sexp, tag: &str) -> Result<&'a [Sexp], ParseError> {
    match s {
        Sexp::List(items) if items.first().and_then(Sexp::as_atom) == Some(tag) => Ok(&items[1..]),
        _ => perr(format!("expected a `({tag} …)` list, found `{s}`")),
    }
}

fn sexp_to_sort(s: &Sexp) -> Result<Sort, ParseError> {
    match s {
        Sexp::Atom(a) if a == "Bool" => Ok(Sort::Bool),
        Sexp::List(items) => {
            let strs: Vec<&str> = items.iter().filter_map(Sexp::as_atom).collect();
            match strs.as_slice() {
                ["_", "BitVec", w] => match w.parse::<u32>() {
                    Ok(w) => Ok(Sort::BitVec(w)),
                    Err(_) => perr("bad bitvector width"),
                },
                _ => perr(format!("unknown sort `{s}`")),
            }
        }
        _ => perr(format!("unknown sort `{s}`")),
    }
}

fn sexp_to_var(s: &Sexp) -> Result<Var, ParseError> {
    let Some(a) = s.as_atom() else {
        return perr(format!("expected a variable, found `{s}`"));
    };
    match a.strip_prefix('v').and_then(|n| n.parse::<u32>().ok()) {
        Some(n) => Ok(Var(n)),
        None => perr(format!("expected a variable, found `{a}`")),
    }
}

fn sexp_to_lin_term(s: &Sexp) -> Result<LinTerm, ParseError> {
    let items = tagged(s, "lin")?;
    let Some(k) = items.first().and_then(Sexp::as_atom) else {
        return perr("`lin` needs a constant part");
    };
    let Ok(k) = k.parse::<i128>() else {
        return perr(format!("bad integer constant `{k}`"));
    };
    let mut t = LinTerm::constant(k);
    for pair in &items[1..] {
        let Sexp::List(vc) = pair else {
            return perr(format!("bad coefficient pair `{pair}`"));
        };
        let (Some(v), Some(c)) = (
            vc.first().and_then(Sexp::as_atom),
            vc.get(1).and_then(Sexp::as_atom),
        ) else {
            return perr(format!("bad coefficient pair `{pair}`"));
        };
        let Some(v) = v.strip_prefix('i').and_then(|n| n.parse::<u32>().ok()) else {
            return perr(format!("bad integer variable `{v}`"));
        };
        let Ok(c) = c.parse::<i128>() else {
            return perr(format!("bad coefficient `{c}`"));
        };
        t = t.add(&LinTerm::var(IVar(v)).scale(c));
    }
    Ok(t)
}

fn sexp_to_lin_atom(s: &Sexp) -> Result<LinAtom, ParseError> {
    let Sexp::List(items) = s else {
        return perr(format!("expected a LIA atom, found `{s}`"));
    };
    let (Some(op), Some(l), Some(r)) = (
        items.first().and_then(Sexp::as_atom),
        items.get(1),
        items.get(2),
    ) else {
        return perr(format!("malformed LIA atom `{s}`"));
    };
    let l = sexp_to_lin_term(l)?;
    let r = sexp_to_lin_term(r)?;
    match op {
        "<=" => Ok(LinAtom::Le(l, r)),
        "=" => Ok(LinAtom::Eq(l, r)),
        _ => perr(format!("unknown LIA relation `{op}`")),
    }
}

fn sexp_to_obligation(s: &Sexp) -> Result<Obligation, ParseError> {
    let Sexp::List(items) = s else {
        return perr(format!("expected an obligation, found `{s}`"));
    };
    match items.first().and_then(Sexp::as_atom) {
        Some("bv") => {
            if items.len() != 4 {
                return perr("`bv` obligation needs sorts, facts, goal");
            }
            let mut sorts = Vec::new();
            for pair in tagged(&items[1], "sorts")? {
                let Sexp::List(vs) = pair else {
                    return perr(format!("bad sort pair `{pair}`"));
                };
                if vs.len() != 2 {
                    return perr(format!("bad sort pair `{pair}`"));
                }
                sorts.push((sexp_to_var(&vs[0])?, sexp_to_sort(&vs[1])?));
            }
            let facts = tagged(&items[2], "facts")?
                .iter()
                .map(sexp_to_expr)
                .collect::<Result<Vec<_>, _>>()?;
            let goal_items = tagged(&items[3], "goal")?;
            if goal_items.len() != 1 {
                return perr("`goal` needs exactly one expression");
            }
            let goal = sexp_to_expr(&goal_items[0])?;
            Ok(Obligation::Bv { facts, goal, sorts })
        }
        Some("lia") => {
            if items.len() != 3 {
                return perr("`lia` obligation needs facts, goal");
            }
            let facts = tagged(&items[1], "facts")?
                .iter()
                .map(sexp_to_lin_atom)
                .collect::<Result<Vec<_>, _>>()?;
            let goal_items = tagged(&items[2], "goal")?;
            if goal_items.len() != 1 {
                return perr("`goal` needs exactly one atom");
            }
            let goal = sexp_to_lin_atom(&goal_items[0])?;
            Ok(Obligation::Lia { facts, goal })
        }
        _ => perr(format!("unknown obligation kind `{s}`")),
    }
}

fn sexp_to_lit(s: &Sexp) -> Result<Lit, ParseError> {
    let Some(a) = s.as_atom() else {
        return perr(format!("expected a DIMACS literal, found `{s}`"));
    };
    let Ok(n) = a.parse::<i64>() else {
        return perr(format!("bad DIMACS literal `{a}`"));
    };
    if n == 0 {
        return perr("DIMACS literal 0 is reserved");
    }
    let Ok(var) = u32::try_from(n.unsigned_abs() - 1) else {
        return perr(format!("DIMACS literal `{a}` out of range"));
    };
    Ok(Lit::with_sign(var, n > 0))
}

/// Parses the payload of a `(proof …)` form (everything after the tag).
fn sexp_to_proof(items: &[Sexp]) -> Result<(usize, RupProof), ParseError> {
    let Some(index) = items
        .first()
        .and_then(Sexp::as_atom)
        .and_then(|a| a.parse::<usize>().ok())
    else {
        return perr("`proof` needs an obligation index");
    };
    let Some(clause_list) = items.get(1) else {
        return perr("`proof` needs a `(clauses …)` list");
    };
    let mut proof = RupProof::default();
    for c in tagged(clause_list, "clauses")? {
        let lits = tagged(c, "cl")?
            .iter()
            .map(sexp_to_lit)
            .collect::<Result<Vec<_>, _>>()?;
        proof.clauses.push(lits);
    }
    if let Some(hint_list) = items.get(2) {
        for h in tagged(hint_list, "hints")? {
            let mut hints = Vec::new();
            for n in tagged(h, "h")? {
                let Some(n) = n.as_atom().and_then(|a| a.parse::<u32>().ok()) else {
                    return perr(format!("bad hint index `{n}`"));
                };
                hints.push(n);
            }
            proof.hints.push(hints);
        }
        if proof.hints.len() != proof.clauses.len() {
            return perr("`hints` must list one `(h …)` per proof clause");
        }
    }
    Ok((index, proof))
}

/// Parses a certificate from [`render_certificate`]'s concrete syntax.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_certificate(input: &str) -> Result<Certificate, ParseError> {
    let sexp = parse_sexp(input)?;
    let items = tagged(&sexp, "certificate")?;
    let mut digest = None;
    let mut obligations = Vec::new();
    let mut proofs = Vec::new();
    for item in items {
        if let Ok(d) = tagged(item, "digest") {
            let Some(a) = d.first().and_then(Sexp::as_atom) else {
                return perr("`digest` needs a value");
            };
            let Some(hex) = a.strip_prefix("#x") else {
                return perr(format!("bad digest literal `{a}`"));
            };
            let Ok(v) = u64::from_str_radix(hex, 16) else {
                return perr(format!("bad digest literal `{a}`"));
            };
            digest = Some(v);
            continue;
        }
        if let Ok(p) = tagged(item, "proof") {
            proofs.push(sexp_to_proof(p)?);
            continue;
        }
        obligations.push(sexp_to_obligation(item)?);
    }
    proofs.sort_by_key(|(i, _)| *i);
    Ok(Certificate {
        obligations,
        digest,
        proofs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use islaris_smt::lia::LinTerm;
    use islaris_smt::BvCmp;

    fn sample() -> Certificate {
        let x = Expr::var(Var(0));
        Certificate::sealed(vec![
            Obligation::Bv {
                facts: vec![Expr::eq(x.clone(), Expr::bv(64, 5))],
                goal: Expr::cmp(BvCmp::Ult, x.clone(), Expr::bv(64, 6)),
                sorts: vec![(Var(0), Sort::BitVec(64))],
            },
            Obligation::Lia {
                facts: vec![LinAtom::Le(LinTerm::constant(0), LinTerm::constant(1))],
                goal: LinAtom::Le(LinTerm::constant(0), LinTerm::constant(2)),
            },
        ])
    }

    #[test]
    fn valid_certificate_checks() {
        let cert = sample();
        assert!(check_certificate(&cert).is_ok());
    }

    #[test]
    fn tampered_certificate_fails() {
        let x = Expr::var(Var(0));
        let cert = Certificate {
            obligations: vec![Obligation::Bv {
                facts: vec![],
                goal: Expr::eq(x, Expr::bv(64, 5)), // not valid without facts
                sorts: vec![(Var(0), Sort::BitVec(64))],
            }],
            digest: None,
            proofs: Vec::new(),
        };
        let err = check_certificate(&cert).expect_err("must fail");
        assert_eq!(err.index, 0);
    }

    #[test]
    fn sealed_certificates_reject_reordering() {
        let mut cert = sample();
        assert!(check_certificate(&cert).is_ok(), "sealed original passes");
        cert.obligations.reverse();
        let err = check_certificate(&cert).expect_err("reordered must fail");
        assert_eq!(err.index, DIGEST_MISMATCH);
        assert!(err.obligation.contains("digest mismatch"), "{err}");
        // Without the seal, the same reordering is fine: obligations are
        // independently checkable facts.
        cert.digest = None;
        assert!(check_certificate(&cert).is_ok());
    }

    #[test]
    fn render_parse_round_trips() {
        let cert = sample();
        let rendered = render_certificate(&cert);
        let parsed = parse_certificate(&rendered).expect("parses");
        assert_eq!(parsed.digest, cert.digest);
        assert_eq!(parsed.obligations.len(), cert.obligations.len());
        assert_eq!(
            obligations_digest(&parsed.obligations),
            obligations_digest(&cert.obligations),
            "round trip preserves every obligation verbatim"
        );
        assert_eq!(rendered, render_certificate(&parsed));
        assert!(check_certificate(&parsed).is_ok());
    }

    /// An obligation the preprocessor cannot decide: `x < y ∧ y < z ⟹
    /// x < z` needs the SAT core, so attaching proofs has something to
    /// store.
    fn transitivity() -> Certificate {
        let (x, y, z) = (Expr::var(Var(0)), Expr::var(Var(1)), Expr::var(Var(2)));
        Certificate::sealed(vec![
            Obligation::Bv {
                facts: vec![
                    Expr::cmp(BvCmp::Ult, x.clone(), y.clone()),
                    Expr::cmp(BvCmp::Ult, y, z.clone()),
                ],
                goal: Expr::cmp(BvCmp::Ult, x, z),
                sorts: vec![
                    (Var(0), Sort::BitVec(16)),
                    (Var(1), Sort::BitVec(16)),
                    (Var(2), Sort::BitVec(16)),
                ],
            },
            Obligation::Lia {
                facts: vec![LinAtom::Le(LinTerm::constant(0), LinTerm::constant(1))],
                goal: LinAtom::Le(LinTerm::constant(0), LinTerm::constant(2)),
            },
        ])
    }

    #[test]
    fn attached_proofs_round_trip_and_accelerate_replay() {
        let mut cert = transitivity();
        let attached = cert.attach_proofs();
        assert!(attached >= 1, "the bv obligation must yield a proof");
        assert!(
            cert.proof_for(0).is_some(),
            "proof attached to the bv obligation"
        );
        assert!(
            cert.proof_for(1).is_none(),
            "lia obligations carry no proof"
        );

        // Proofs are excluded from the digest: the sealed certificate
        // still checks, and the replay takes the proof path (no CDCL
        // search: zero conflicts and decisions).
        let mut ctx = CertCtx::default();
        check_certificate_with(&cert, &mut ctx).expect("proof-backed replay checks");
        let m = ctx.metrics;
        assert_eq!(m.solver.conflicts, 0, "stored proof must skip search");
        assert_eq!(m.solver.decisions, 0, "stored proof must skip search");
        assert_eq!(m.solver.unsat, 1);

        // Round trip through the concrete syntax preserves the proofs.
        let rendered = render_certificate(&cert);
        assert!(rendered.contains("(proof 0 (clauses"), "{rendered}");
        let parsed = parse_certificate(&rendered).expect("parses");
        assert_eq!(parsed.proofs.len(), cert.proofs.len());
        assert_eq!(parsed.proofs[0].1, cert.proofs[0].1);
        assert!(check_certificate(&parsed).is_ok());
    }

    #[test]
    fn tampered_proofs_degrade_to_search_never_to_acceptance() {
        // A valid obligation with a corrupted proof still checks — the
        // replay falls back to a full solve …
        let mut cert = transitivity();
        assert!(cert.attach_proofs() >= 1);
        {
            let (_, p) = cert.proofs.first_mut().expect("proof attached");
            p.clauses.truncate(p.clauses.len().saturating_sub(1));
            p.clauses.push(Vec::new());
            p.hints.clear();
        }
        assert!(
            check_certificate(&cert).is_ok(),
            "corrupt proof must fall back to search, not fail the obligation"
        );

        // … and an *invalid* obligation is rejected even when a forged
        // "proof" is attached: acceptance needs the proof to check against
        // the fresh re-blasting, which a forgery cannot.
        let x = Expr::var(Var(0));
        let mut bogus = Certificate {
            obligations: vec![Obligation::Bv {
                facts: vec![],
                goal: Expr::eq(x, Expr::bv(64, 5)),
                sorts: vec![(Var(0), Sort::BitVec(64))],
            }],
            digest: None,
            proofs: vec![(0, RupProof::default())],
        };
        let err = check_certificate(&bogus).expect_err("must fail");
        assert_eq!(err.index, 0);
        bogus.proofs[0].1.clauses = vec![Vec::new()];
        let err = check_certificate(&bogus).expect_err("must still fail");
        assert_eq!(err.index, 0);
    }

    #[test]
    fn metered_check_counts_replays() {
        let cert = sample();
        let mut ctx = CertCtx::default();
        check_certificate_with(&cert, &mut ctx).expect("checks");
        let m = ctx.metrics;
        assert_eq!(m.replayed, 2);
        assert_eq!(m.bv, 1);
        assert_eq!(m.lia, 1);
        assert_eq!(m.solver.queries, 1, "one bv obligation, one solver query");
    }
}
