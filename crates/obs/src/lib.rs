//! Observability for the Islaris pipeline: typed counters, wall-clock
//! spans, and a Chrome trace-event exporter — all std-only.
//!
//! The design splits measurements into two disjoint kinds:
//!
//! * **Counters** are plain `u64` fields in small `Copy` structs
//!   ([`SolverMetrics`], [`IslaMetrics`], …) threaded by value through the
//!   code that does the work. They are *deterministic*: the same inputs
//!   produce the same counts whatever the thread count or cache state, so
//!   the rendered [`CaseProfile`] table is byte-comparable across runs
//!   (the same discipline as the Fig. 12 "stable rows").
//! * **Spans** are wall-clock intervals recorded into a [`Recorder`]
//!   behind an `Option<&Recorder>`: when profiling is off the option is
//!   `None` and the instrumentation is a branch on a `None` — no
//!   allocation, no atomics, no lock. Spans are inherently
//!   non-deterministic and are exported separately as Chrome trace-event
//!   JSON ([`Recorder::chrome_trace`]), never mixed into the counter
//!   table.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub mod http;
pub mod json;
pub mod metrics;
pub mod store;
pub mod trace;

use json::obj;
pub use json::{parse_json, Json};
use store::{solver_metrics_to_json, u64_json};

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// SMT solver counters: one record per logical solver "client" (the
/// symbolic executor, the engine, the certificate checker each keep their
/// own), absorbed upward into the per-case profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverMetrics {
    /// `check_sat` calls (an `entails` call is one query).
    pub queries: u64,
    /// Queries answered `Sat`.
    pub sat: u64,
    /// Queries answered `Unsat`.
    pub unsat: u64,
    /// Queries answered `Unknown` (budget or unsupported fragment).
    pub unknown: u64,
    /// Models verified by evaluation before being reported.
    pub model_verifies: u64,
    /// Total CNF variables produced by bit-blasting.
    pub cnf_vars: u64,
    /// Total CNF clauses produced by bit-blasting.
    pub cnf_clauses: u64,
    /// Unit propagations performed by the SAT solver.
    pub propagations: u64,
    /// Decisions taken by the SAT solver.
    pub decisions: u64,
    /// Conflicts hit by the SAT solver.
    pub conflicts: u64,
    /// Restarts performed by the SAT solver (Luby sequence).
    pub restarts: u64,
    /// Learned clauses deleted by database reduction.
    pub reduced: u64,
    /// Literals removed by conflict-clause minimization.
    pub minimized: u64,
    /// Terms folded away before CNF: cross-fact constant propagation,
    /// gate-level constant short-circuits, and structural-hash hits.
    pub folded: u64,
    /// Proof clauses dropped by backward dependency trimming before the
    /// RUP checker replays a refutation.
    pub trimmed: u64,
}

impl SolverMetrics {
    /// Adds another record into this one, field by field.
    pub fn absorb(&mut self, o: &SolverMetrics) {
        self.queries += o.queries;
        self.sat += o.sat;
        self.unsat += o.unsat;
        self.unknown += o.unknown;
        self.model_verifies += o.model_verifies;
        self.cnf_vars += o.cnf_vars;
        self.cnf_clauses += o.cnf_clauses;
        self.propagations += o.propagations;
        self.decisions += o.decisions;
        self.conflicts += o.conflicts;
        self.restarts += o.restarts;
        self.reduced += o.reduced;
        self.minimized += o.minimized;
        self.folded += o.folded;
        self.trimmed += o.trimmed;
    }

    fn render(&self) -> String {
        format!(
            "queries={} sat={} unsat={} unknown={} model_verifies={} \
             cnf_vars={} cnf_clauses={} propagations={} decisions={} conflicts={} \
             restarts={} reduced={} minimized={} folded={} trimmed={}",
            self.queries,
            self.sat,
            self.unsat,
            self.unknown,
            self.model_verifies,
            self.cnf_vars,
            self.cnf_clauses,
            self.propagations,
            self.decisions,
            self.conflicts,
            self.restarts,
            self.reduced,
            self.minimized,
            self.folded,
            self.trimmed
        )
    }
}

/// Trace-cache counters (the former `isla::cache::CacheStats`, unified
/// here so every stage shares one metrics vocabulary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Lookups that found (or waited for) an existing entry.
    pub hits: u64,
    /// Lookups that had to compute the entry.
    pub misses: u64,
}

impl CacheMetrics {
    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in [0, 1]; 0 when there were no lookups.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Adds another record into this one.
    pub fn absorb(&mut self, o: &CacheMetrics) {
        self.hits += o.hits;
        self.misses += o.misses;
    }

    /// The hit rate as display text: `-` when there were no lookups
    /// (never `NaN`), otherwise a percentage like `75%`.
    #[must_use]
    pub fn hit_rate_str(&self) -> String {
        percent(self.hits, self.lookups())
    }
}

/// Counters for a *persistent* (on-disk) cache store, kept separate from
/// the in-memory [`CacheMetrics`]: a process only consults the disk on
/// an in-memory miss, so `disk_hits + disk_misses` equals the memory
/// layer's miss count for stores that are always attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// In-memory misses answered by a verified on-disk entry.
    pub disk_hits: u64,
    /// In-memory misses the disk could not answer (absent entry).
    pub disk_misses: u64,
    /// On-disk entries rejected by verify-on-load (bad checksum, bad
    /// parse, key mismatch) and deleted. Every eviction is also a
    /// `disk_misses` — a corrupt entry is a sound miss, never an answer.
    pub evictions: u64,
    /// Entry writes that failed (permissions, disk full). Write failures
    /// only lose warmth, never answers.
    pub write_errors: u64,
}

impl StoreMetrics {
    /// Adds another record into this one.
    pub fn absorb(&mut self, o: &StoreMetrics) {
        self.disk_hits += o.disk_hits;
        self.disk_misses += o.disk_misses;
        self.evictions += o.evictions;
        self.write_errors += o.write_errors;
    }

    /// Renders the counters as the deterministic `k=v` row style shared
    /// by every metrics struct.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "disk_hits={} disk_misses={} evictions={} write_errors={}",
            self.disk_hits, self.disk_misses, self.evictions, self.write_errors
        )
    }
}

/// Renders `num/den` as a percentage (`75%`), or `-` when the
/// denominator is zero — the shared zero-denominator guard for every
/// ratio the telemetry prints (a `NaN` in a report is always a bug).
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn percent(num: u64, den: u64) -> String {
    if den == 0 {
        "-".into()
    } else {
        format!("{:.0}%", 100.0 * num as f64 / den as f64)
    }
}

/// Mini-Sail interpretation counters: expression-evaluation steps and
/// model-function firings. Kept by both the concrete interpreter
/// (`sail::interp`) and the symbolic one (`isla::exec`, which interprets
/// the same model AST symbolically).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SailMetrics {
    /// Expression-evaluation steps.
    pub steps: u64,
    /// Model-function calls (rule firings).
    pub calls: u64,
}

impl SailMetrics {
    /// Adds another record into this one.
    pub fn absorb(&mut self, o: &SailMetrics) {
        self.steps += o.steps;
        self.calls += o.calls;
    }
}

/// Symbolic-execution counters (per opcode, aggregated per case).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IslaMetrics {
    /// Symbolic runs (1 + one per replayed fork).
    pub runs: u64,
    /// Forks where both arms were feasible.
    pub branches_explored: u64,
    /// Branch arms pruned as infeasible.
    pub branches_pruned: u64,
    /// Feasibility queries sent to the solver.
    pub smt_queries: u64,
    /// Events in the final simplified trace.
    pub events: u64,
}

impl IslaMetrics {
    /// Adds another record into this one.
    pub fn absorb(&mut self, o: &IslaMetrics) {
        self.runs += o.runs;
        self.branches_explored += o.branches_explored;
        self.branches_pruned += o.branches_pruned;
        self.smt_queries += o.smt_queries;
        self.events += o.events;
    }
}

/// Proof-automation counters (per block, aggregated per case).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Trace events processed.
    pub events: u64,
    /// Instructions stepped through.
    pub instructions: u64,
    /// Bitvector side conditions sent to the solver.
    pub smt_queries: u64,
    /// LIA side conditions sent to Fourier–Motzkin.
    pub lia_queries: u64,
    /// Obligations discharged (logged into the certificate).
    pub obligations: u64,
    /// Vacuous/refuted branches cut off (the non-backtracking engine's
    /// analogue of a search backtrack).
    pub vacuous_branches: u64,
    /// Blocks scheduled as independent intra-case verification jobs.
    /// Deterministic: counts jobs *scheduled*, not workers used, so it is
    /// byte-identical across `--jobs` settings.
    pub blocks_parallel: u64,
}

impl EngineMetrics {
    /// Adds another record into this one.
    pub fn absorb(&mut self, o: &EngineMetrics) {
        self.events += o.events;
        self.instructions += o.instructions;
        self.smt_queries += o.smt_queries;
        self.lia_queries += o.lia_queries;
        self.obligations += o.obligations;
        self.vacuous_branches += o.vacuous_branches;
        self.blocks_parallel += o.blocks_parallel;
    }
}

/// Certificate-replay counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertMetrics {
    /// Obligations replayed.
    pub replayed: u64,
    /// … of which bitvector entailments.
    pub bv: u64,
    /// … of which LIA entailments.
    pub lia: u64,
    /// Paranoid-solver activity during replay.
    pub solver: SolverMetrics,
    /// Query-result cache traffic during replay (zero when replay runs
    /// uncached).
    pub qcache: CacheMetrics,
}

impl CertMetrics {
    /// Adds another record into this one.
    pub fn absorb(&mut self, o: &CertMetrics) {
        self.replayed += o.replayed;
        self.bv += o.bv;
        self.lia += o.lia;
        self.solver.absorb(&o.solver);
        self.qcache.absorb(&o.qcache);
    }
}

/// Incremental SMT session counters (one `smt::session::Session` per
/// engine block; see DESIGN §10). Deterministic: the session is always on
/// and blocks verify sequentially within a case, so these render
/// byte-identically across worker counts and cache modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionMetrics {
    /// Distinct facts Tseitin-encoded into the retained clause database
    /// (each fact is encoded exactly once per session).
    pub facts_encoded: u64,
    /// Clauses in the retained database when the session was snapshotted —
    /// definitional clauses plus clauses learned across assumption solves.
    /// Summed over sessions by [`SessionMetrics::absorb`].
    pub clauses_retained: u64,
    /// Queries answered by an incremental assumption solve.
    pub assumption_solves: u64,
    /// Queries re-run on a fresh solver (proof-checking configurations,
    /// where an assumption solve cannot produce an RUP refutation).
    pub fallback_solves: u64,
}

impl SessionMetrics {
    /// Adds another record into this one.
    pub fn absorb(&mut self, o: &SessionMetrics) {
        self.facts_encoded += o.facts_encoded;
        self.clauses_retained += o.clauses_retained;
        self.assumption_solves += o.assumption_solves;
        self.fallback_solves += o.fallback_solves;
    }
}

/// Differential-testing counters: one record per fuzzing run (or per
/// opcode, absorbed upward). Every field is a deterministic function of
/// `(seed, budget, models)` — no wall-clock, no OS randomness — so the
/// rendered table is byte-identical across reruns and worker counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffMetrics {
    /// Opcodes generated and traced.
    pub opcodes: u64,
    /// Opcodes the symbolic executor could not trace (counted, skipped).
    pub trace_errors: u64,
    /// Root-to-leaf trace paths enumerated.
    pub paths: u64,
    /// Paths whose constraint set was unsatisfiable (vacuous branches).
    pub vacuous: u64,
    /// Paths the solver could not decide (skipped, counted).
    pub unknown: u64,
    /// Satisfying models sampled from path constraints.
    pub models_sampled: u64,
    /// Concrete replays run against sampled models.
    pub replays: u64,
    /// Replays that diverged from the symbolic trace.
    pub divergences: u64,
}

impl DiffMetrics {
    /// Adds another record into this one.
    pub fn absorb(&mut self, o: &DiffMetrics) {
        self.opcodes += o.opcodes;
        self.trace_errors += o.trace_errors;
        self.paths += o.paths;
        self.vacuous += o.vacuous;
        self.unknown += o.unknown;
        self.models_sampled += o.models_sampled;
        self.replays += o.replays;
        self.divergences += o.divergences;
    }

    /// Renders the record as the `k=v` line used by `fig12 --difftest`
    /// (same vocabulary as the profile table stages).
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "opcodes={} trace_errors={} paths={} vacuous={} unknown={} \
             models_sampled={} replays={} divergences={}",
            self.opcodes,
            self.trace_errors,
            self.paths,
            self.vacuous,
            self.unknown,
            self.models_sampled,
            self.replays,
            self.divergences
        )
    }
}

/// The per-case, per-stage counter profile: everything `fig12 --profile`
/// prints for one Fig. 12 row. All fields are deterministic counters —
/// no wall-clock — so the rendering is byte-identical across `--jobs N`,
/// sequential, and warm-cache runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseProfile {
    /// Mini-Sail model interpretation (symbolic, inside Isla).
    pub sail: SailMetrics,
    /// Symbolic execution.
    pub isla: IslaMetrics,
    /// Solver activity during symbolic execution (branch pruning).
    pub isla_smt: SolverMetrics,
    /// Proof automation.
    pub engine: EngineMetrics,
    /// Solver activity during proof automation.
    pub engine_smt: SolverMetrics,
    /// Incremental SMT sessions backing the proof automation.
    pub session: SessionMetrics,
    /// Certificate replay.
    pub cert: CertMetrics,
    /// Trace-cache traffic while building the case.
    pub cache: CacheMetrics,
    /// Solver query-result cache traffic (engine side conditions plus
    /// certificate replay). Unlike every other stage, hit/miss counts
    /// depend on which worker reached a shared query first — the row is
    /// documented as schedule-dependent and excluded from byte-identity
    /// checks, like `cache`.
    pub qcache: CacheMetrics,
}

impl CaseProfile {
    /// Renders this profile as the per-stage block of the profile table.
    /// Every pipeline stage appears on its own `  <stage>:` line (the CI
    /// smoke greps for each stage name).
    #[must_use]
    pub fn render(&self, case: &str) -> String {
        let mut s = String::new();
        s.push_str(&format!("case {case}\n"));
        s.push_str(&format!(
            "  sail    : steps={} calls={}\n",
            self.sail.steps, self.sail.calls
        ));
        s.push_str(&format!(
            "  isla    : runs={} branches_explored={} branches_pruned={} smt_queries={} events={}\n",
            self.isla.runs,
            self.isla.branches_explored,
            self.isla.branches_pruned,
            self.isla.smt_queries,
            self.isla.events
        ));
        s.push_str(&format!("  isla.smt: {}\n", self.isla_smt.render()));
        s.push_str(&format!(
            "  engine  : events={} instructions={} smt_queries={} lia_queries={} obligations={} \
             vacuous_branches={} blocks_parallel={}\n",
            self.engine.events,
            self.engine.instructions,
            self.engine.smt_queries,
            self.engine.lia_queries,
            self.engine.obligations,
            self.engine.vacuous_branches,
            self.engine.blocks_parallel
        ));
        s.push_str(&format!("  eng.smt : {}\n", self.engine_smt.render()));
        s.push_str(&format!(
            "  sess    : facts_encoded={} clauses_retained={} assumption_solves={} \
             fallback_solves={}\n",
            self.session.facts_encoded,
            self.session.clauses_retained,
            self.session.assumption_solves,
            self.session.fallback_solves
        ));
        s.push_str(&format!(
            "  cert    : replayed={} bv={} lia={}\n",
            self.cert.replayed, self.cert.bv, self.cert.lia
        ));
        s.push_str(&format!("  cert.smt: {}\n", self.cert.solver.render()));
        s.push_str(&format!(
            "  cache   : hits={} misses={}\n",
            self.cache.hits, self.cache.misses
        ));
        s.push_str(&format!(
            "  q.cache : hits={} misses={}\n",
            self.qcache.hits, self.qcache.misses
        ));
        s
    }

    /// The same profile as one JSON object. Stage names and counter keys
    /// are exactly the ones [`CaseProfile::render`] prints (one shared
    /// vocabulary with `BENCH.json` — see DESIGN §9), so text and JSON
    /// exports can be cross-checked field by field.
    #[must_use]
    pub fn to_json(&self, case: &str) -> Json {
        let kv =
            |pairs: &[(&str, u64)]| obj(pairs.iter().map(|&(k, v)| (k, u64_json(v))).collect());
        obj(vec![
            ("case", Json::Str(case.to_string())),
            (
                "sail",
                kv(&[("steps", self.sail.steps), ("calls", self.sail.calls)]),
            ),
            (
                "isla",
                kv(&[
                    ("runs", self.isla.runs),
                    ("branches_explored", self.isla.branches_explored),
                    ("branches_pruned", self.isla.branches_pruned),
                    ("smt_queries", self.isla.smt_queries),
                    ("events", self.isla.events),
                ]),
            ),
            ("isla.smt", solver_metrics_to_json(&self.isla_smt)),
            (
                "engine",
                kv(&[
                    ("events", self.engine.events),
                    ("instructions", self.engine.instructions),
                    ("smt_queries", self.engine.smt_queries),
                    ("lia_queries", self.engine.lia_queries),
                    ("obligations", self.engine.obligations),
                    ("vacuous_branches", self.engine.vacuous_branches),
                    ("blocks_parallel", self.engine.blocks_parallel),
                ]),
            ),
            ("eng.smt", solver_metrics_to_json(&self.engine_smt)),
            (
                "sess",
                kv(&[
                    ("facts_encoded", self.session.facts_encoded),
                    ("clauses_retained", self.session.clauses_retained),
                    ("assumption_solves", self.session.assumption_solves),
                    ("fallback_solves", self.session.fallback_solves),
                ]),
            ),
            (
                "cert",
                kv(&[
                    ("replayed", self.cert.replayed),
                    ("bv", self.cert.bv),
                    ("lia", self.cert.lia),
                ]),
            ),
            ("cert.smt", solver_metrics_to_json(&self.cert.solver)),
            (
                "cache",
                kv(&[("hits", self.cache.hits), ("misses", self.cache.misses)]),
            ),
            (
                "q.cache",
                kv(&[("hits", self.qcache.hits), ("misses", self.qcache.misses)]),
            ),
        ])
    }
}

/// Renders the whole profile table as one JSON array (the machine-readable
/// sibling of [`render_profiles`]).
#[must_use]
pub fn profiles_to_json(cases: &[(String, CaseProfile)]) -> String {
    Json::Arr(cases.iter().map(|(name, p)| p.to_json(name)).collect()).render()
}

/// Renders the whole profile table (one [`CaseProfile::render`] block per
/// case, in the given order).
#[must_use]
pub fn render_profiles(cases: &[(String, CaseProfile)]) -> String {
    let mut s = String::new();
    for (name, p) in cases {
        s.push_str(&p.render(name));
    }
    s
}

// ---------------------------------------------------------------------------
// Solver-query attribution
// ---------------------------------------------------------------------------

/// Deterministic per-query solver effort, aggregated under the query's
/// FNV-1a digest in a [`QueryTable`]. Wall-clock time is deliberately
/// absent: attribution tables must be byte-identical across worker
/// counts and reruns (time lives in the span layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Times a query with this digest was issued.
    pub count: u64,
    /// CNF clauses produced by bit-blasting, cumulative.
    pub cnf_clauses: u64,
    /// Unit propagations, cumulative.
    pub propagations: u64,
    /// Decisions, cumulative.
    pub decisions: u64,
    /// Conflicts, cumulative.
    pub conflicts: u64,
    /// Occurrences answered from the shared query-result cache. The cache
    /// replays the original run's effort counters, so every other column
    /// is schedule-independent; this one depends on which worker reached
    /// a shared query first and is the hot-query table's one documented
    /// schedule-dependent column (excluded from [`QueryStats::effort`]).
    pub hits: u64,
}

impl QueryStats {
    /// Adds another record into this one.
    pub fn absorb(&mut self, o: &QueryStats) {
        self.count += o.count;
        self.cnf_clauses += o.cnf_clauses;
        self.propagations += o.propagations;
        self.decisions += o.decisions;
        self.conflicts += o.conflicts;
        self.hits += o.hits;
    }

    /// The deterministic hotness key: queries are ranked by SAT-search
    /// effort first (conflicts, then propagations and decisions), CNF
    /// size next, repetition count last.
    #[must_use]
    pub fn effort(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.conflicts,
            self.propagations,
            self.decisions,
            self.cnf_clauses,
            self.count,
        )
    }
}

/// Aggregation table: solver-query digest → cumulative [`QueryStats`].
/// A `BTreeMap` keyed by digest, so iteration (and therefore rendering)
/// never depends on insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryTable {
    /// digest → aggregated per-query effort.
    pub entries: BTreeMap<u64, QueryStats>,
}

impl QueryTable {
    /// Records one query occurrence under `digest`.
    pub fn record(&mut self, digest: u64, stats: QueryStats) {
        self.entries.entry(digest).or_default().absorb(&stats);
    }

    /// Merges another table into this one.
    pub fn absorb(&mut self, o: &QueryTable) {
        for (d, s) in &o.entries {
            self.entries.entry(*d).or_default().absorb(s);
        }
    }

    /// Distinct query digests seen.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no query was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `k` hottest queries, ranked by [`QueryStats::effort`]
    /// descending with the digest as the final (ascending) tiebreak —
    /// a total order, so the result is deterministic.
    #[must_use]
    pub fn top(&self, k: usize) -> Vec<(u64, QueryStats)> {
        let mut all: Vec<(u64, QueryStats)> = self.entries.iter().map(|(d, s)| (*d, *s)).collect();
        all.sort_by(|a, b| b.1.effort().cmp(&a.1.effort()).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Renders the top-`k` table under a `hot queries (<scope>, …)`
    /// header. Counters only — byte-identical across runs.
    #[must_use]
    pub fn render_top(&self, scope: &str, k: usize) -> String {
        let top = self.top(k);
        let mut s = format!(
            "hot queries ({scope}, top {} of {} by solver effort):\n",
            top.len(),
            self.len()
        );
        for (digest, q) in top {
            s.push_str(&format!(
                "  #x{digest:016x} count={} clauses={} props={} decs={} conflicts={} hits={}\n",
                q.count, q.cnf_clauses, q.propagations, q.decisions, q.conflicts, q.hits
            ));
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Proof-search trace
// ---------------------------------------------------------------------------

/// What one proof-search trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofStep {
    /// A proof rule fired (one trace event or context query handled).
    Rule,
    /// A side-condition obligation was opened.
    Open,
    /// The open obligation was discharged (and logged to the certificate).
    Discharge,
    /// The open obligation failed to prove (the engine reports an error,
    /// or — for `prove_mixed` — falls back to the next theory).
    Fail,
    /// A branch was abandoned (vacuous assert — the non-backtracking
    /// engine's analogue of a search backtrack).
    Backtrack,
}

impl ProofStep {
    /// Fixed-width tag used in the rendering.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            ProofStep::Rule => "rule",
            ProofStep::Open => "open",
            ProofStep::Discharge => "discharge",
            ProofStep::Fail => "fail",
            ProofStep::Backtrack => "backtrack",
        }
    }
}

/// One structured proof-search trace event. Every field is a
/// deterministic function of the verification input — no clocks, no
/// addresses — so a rendered trace is byte-identical across reruns,
/// worker counts, and cache states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofEvent {
    /// What happened.
    pub step: ProofStep,
    /// Human-readable detail: the rule name and its subject, or the
    /// obligation's theory and goal.
    pub label: String,
    /// FNV-1a digest of the solver query this event triggered, when it
    /// triggered one (`Open`/`Discharge`/`Fail` of solver-backed
    /// obligations) — the join key into the [`QueryTable`].
    pub digest: Option<u64>,
}

impl ProofEvent {
    /// An event without a query digest.
    #[must_use]
    pub fn new(step: ProofStep, label: impl Into<String>) -> ProofEvent {
        ProofEvent {
            step,
            label: label.into(),
            digest: None,
        }
    }

    /// An event carrying the digest of the solver query it triggered.
    #[must_use]
    pub fn with_digest(step: ProofStep, label: impl Into<String>, digest: u64) -> ProofEvent {
        ProofEvent {
            step,
            label: label.into(),
            digest: Some(digest),
        }
    }
}

/// Renders a proof-search trace, one event per line:
/// `<seq> <tag> <label> [#x<digest>]`. Deterministic by construction.
#[must_use]
pub fn render_proof_trace(events: &[ProofEvent]) -> String {
    let mut s = String::new();
    for (i, ev) in events.iter().enumerate() {
        s.push_str(&format!("{i:>5} {:<9} {}", ev.step.tag(), ev.label));
        if let Some(d) = ev.digest {
            s.push_str(&format!(" #x{d:016x}"));
        }
        s.push('\n');
    }
    s
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One closed wall-clock span, timestamped in microseconds relative to
/// the owning recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. `"verify:hvc"`).
    pub name: String,
    /// Category (e.g. `"pipeline"`, `"case"`).
    pub cat: &'static str,
    /// Start offset from the recorder epoch, µs.
    pub ts_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Logical thread id (0 = main, n = `islaris-worker-n`).
    pub tid: u32,
}

/// Anything that can accept closed spans. [`Recorder`] is the only
/// implementation in-tree; the trait exists so call sites stay decoupled
/// from the storage policy.
pub trait SpanSink: Sync {
    /// Records one closed span.
    fn record(&self, span: SpanRecord);
}

/// Collects spans from any thread. Cheap to share (`&Recorder` is `Sync`);
/// when profiling is off, callers hold `None` and pay only an `Option`
/// branch — this type is never constructed.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder whose epoch is "now".
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The recorder's epoch (spans are timestamped relative to it).
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span now; it closes (and is recorded) when the guard drops.
    /// The logical thread id is derived from the current thread's name
    /// (`islaris-worker-n` → `n`, anything else → 0).
    #[must_use]
    pub fn span(&self, name: impl Into<String>, cat: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            rec: self,
            name: name.into(),
            cat,
            start: Instant::now(),
            tid: current_tid(),
        }
    }

    /// Records a span from explicit instants (both must be at or after
    /// the epoch).
    pub fn record_between(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ts_us = us_between(self.epoch, start);
        let dur_us = us_between(start, end);
        self.record(SpanRecord {
            name: name.into(),
            cat,
            ts_us,
            dur_us,
            tid: current_tid(),
        });
    }

    /// All spans recorded so far, sorted by (start, tid, name) so the
    /// ordering does not depend on lock-acquisition order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut v = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        v.sort_by(|a, b| {
            (a.ts_us, a.tid, &a.name, a.dur_us).cmp(&(b.ts_us, b.tid, &b.name, b.dur_us))
        });
        v
    }

    /// Exports every span as Chrome trace-event JSON (`chrome://tracing`
    /// / Perfetto "JSON Array with metadata" format, complete `X` events).
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        obj(vec![
            ("displayTimeUnit", Json::Str("ms".into())),
            ("traceEvents", chrome_trace_events(&self.spans())),
        ])
        .render()
    }
}

/// Spans as a Chrome trace-event array (complete `X` events, pid 1) —
/// the shared core of [`Recorder::chrome_trace`] and the per-request
/// export in [`trace`].
#[must_use]
pub fn chrome_trace_events(spans: &[SpanRecord]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|sp| {
                obj(vec![
                    ("name", Json::Str(sp.name.clone())),
                    ("cat", Json::Str(sp.cat.to_string())),
                    ("ph", Json::Str("X".into())),
                    ("ts", u64_json(sp.ts_us)),
                    ("dur", u64_json(sp.dur_us)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(sp.tid))),
                ])
            })
            .collect(),
    )
}

impl SpanSink for Recorder {
    fn record(&self, span: SpanRecord) {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }
}

/// RAII guard from [`Recorder::span`]: records the span on drop.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    name: String,
    cat: &'static str,
    start: Instant,
    tid: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let ts_us = us_between(self.rec.epoch, self.start);
        let dur_us = us_between(self.start, Instant::now());
        self.rec.record(SpanRecord {
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            ts_us,
            dur_us,
            tid: self.tid,
        });
    }
}

fn us_between(earlier: Instant, later: Instant) -> u64 {
    later
        .checked_duration_since(earlier)
        .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

fn current_tid() -> u32 {
    std::thread::current()
        .name()
        .and_then(|n| {
            // Batch-scheduler helpers and resident pool workers both get
            // a stable logical id; anything else (main, connection
            // threads) is tid 0.
            n.strip_prefix("islaris-worker-")
                .or_else(|| n.strip_prefix("islaris-pool-"))
        })
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Hashing (certificate digests)
// ---------------------------------------------------------------------------

/// FNV-1a over a byte string: the in-tree stable hash used for
/// certificate order digests (nothing cryptographic — tamper *evidence*,
/// not tamper *proofing*; the semantic re-check is the real gate).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.finish()
}

/// Streaming [`fnv1a`]: a [`std::fmt::Write`] sink, so formatted text
/// hashes without being collected into a `String` first.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Hashes `bytes` after everything written so far.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_metrics_absorb_sums_fields() {
        let mut a = SolverMetrics {
            queries: 1,
            sat: 1,
            propagations: 10,
            ..Default::default()
        };
        let b = SolverMetrics {
            queries: 2,
            unsat: 1,
            decisions: 4,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.queries, 3);
        assert_eq!(a.sat, 1);
        assert_eq!(a.unsat, 1);
        assert_eq!(a.propagations, 10);
        assert_eq!(a.decisions, 4);
    }

    #[test]
    fn cache_metrics_rates() {
        let c = CacheMetrics { hits: 3, misses: 1 };
        assert_eq!(c.lookups(), 4);
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheMetrics::default().hit_rate(), 0.0);
    }

    #[test]
    fn diff_metrics_absorb_and_render() {
        let mut a = DiffMetrics {
            opcodes: 2,
            paths: 5,
            divergences: 1,
            ..Default::default()
        };
        let b = DiffMetrics {
            opcodes: 3,
            models_sampled: 4,
            replays: 4,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.opcodes, 5);
        assert_eq!(a.paths, 5);
        assert_eq!(a.models_sampled, 4);
        assert_eq!(a.divergences, 1);
        let r = a.render();
        for key in [
            "opcodes=",
            "trace_errors=",
            "paths=",
            "vacuous=",
            "unknown=",
            "models_sampled=",
            "replays=",
            "divergences=",
        ] {
            assert!(r.contains(key), "missing {key} in {r}");
        }
    }

    #[test]
    fn profile_render_mentions_every_stage() {
        let r = CaseProfile::default().render("hvc");
        for stage in [
            "sail", "isla", "isla.smt", "engine", "eng.smt", "cert", "cache",
        ] {
            assert!(r.contains(stage), "missing stage {stage} in {r}");
        }
        assert!(r.starts_with("case hvc\n"));
    }

    #[test]
    fn recorder_collects_and_exports_spans() {
        let rec = Recorder::new();
        {
            let _g = rec.span("outer", "test");
            let _h = rec.span("inner", "test");
        }
        let t0 = Instant::now();
        rec.record_between("explicit", "test", t0, t0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let json = rec.chrome_trace();
        parse_json(&json).expect("chrome trace is valid JSON");
        assert!(json.contains("\"name\":\"outer\""));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn span_names_are_escaped() {
        let rec = Recorder::new();
        drop(rec.span("we\"ird\\name\n", "test"));
        let json = rec.chrome_trace();
        parse_json(&json).expect("escaped trace is valid JSON");
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "  {\"a\": [1, 2.5, -3e4, \"x\\u00ff\", true, false, null]}  ",
            "\"lone string\"",
            "-0.5",
        ] {
            parse_json(ok).unwrap_or_else(|e| panic!("{ok}: {e:?}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} trailing",
            "\"unterminated",
            "01e",
            "nul",
            "{'single': 1}",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        // The streaming sink hashes the same bytes however they arrive.
        let mut h = Fnv1a::default();
        std::fmt::Write::write_fmt(&mut h, format_args!("fo{}{}", 'o', "bar")).unwrap();
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn ratios_survive_zero_denominators() {
        // The hardening contract: a ratio with nothing underneath renders
        // `-`, never `NaN` or a division panic.
        assert_eq!(percent(0, 0), "-");
        assert_eq!(percent(5, 0), "-");
        assert_eq!(percent(3, 4), "75%");
        assert_eq!(percent(0, 7), "0%");
        assert_eq!(CacheMetrics::default().hit_rate_str(), "-");
        assert_eq!(CacheMetrics { hits: 1, misses: 3 }.hit_rate_str(), "25%");
        assert!(!CacheMetrics::default().hit_rate().is_nan());
    }

    #[test]
    fn query_table_ranks_and_renders_deterministically() {
        let mut t = QueryTable::default();
        t.record(
            0xb,
            QueryStats {
                count: 1,
                conflicts: 9,
                ..Default::default()
            },
        );
        t.record(
            0xa,
            QueryStats {
                count: 1,
                conflicts: 2,
                propagations: 100,
                ..Default::default()
            },
        );
        // Same digest again: aggregates, not duplicates.
        t.record(
            0xa,
            QueryStats {
                count: 1,
                conflicts: 8,
                ..Default::default()
            },
        );
        assert_eq!(t.len(), 2);
        let top = t.top(10);
        assert_eq!(top[0].0, 0xa, "10 conflicts outrank 9");
        assert_eq!(top[0].1.count, 2);
        assert_eq!(top[1].0, 0xb);
        // Insertion in the other order renders the same bytes.
        let mut t2 = QueryTable::default();
        for (d, s) in t.entries.iter().rev() {
            t2.record(*d, *s);
        }
        assert_eq!(t.render_top("case", 2), t2.render_top("case", 2));
        assert!(t
            .render_top("case", 1)
            .starts_with("hot queries (case, top 1 of 2"));
        // Ties break on the digest, ascending.
        let mut tie = QueryTable::default();
        tie.record(
            0x2,
            QueryStats {
                count: 1,
                ..Default::default()
            },
        );
        tie.record(
            0x1,
            QueryStats {
                count: 1,
                ..Default::default()
            },
        );
        assert_eq!(tie.top(2)[0].0, 0x1);
    }

    #[test]
    fn query_table_absorb_merges() {
        let mut a = QueryTable::default();
        a.record(
            1,
            QueryStats {
                count: 1,
                cnf_clauses: 10,
                ..Default::default()
            },
        );
        let mut b = QueryTable::default();
        b.record(
            1,
            QueryStats {
                count: 2,
                cnf_clauses: 20,
                ..Default::default()
            },
        );
        b.record(
            2,
            QueryStats {
                count: 1,
                ..Default::default()
            },
        );
        a.absorb(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.entries[&1].count, 3);
        assert_eq!(a.entries[&1].cnf_clauses, 30);
    }

    #[test]
    fn proof_trace_renders_one_line_per_event() {
        let events = vec![
            ProofEvent::new(ProofStep::Rule, "hoare-read-reg R0"),
            ProofEvent::with_digest(ProofStep::Discharge, "bv (= v0 #x05)", 0xdead),
            ProofEvent::new(ProofStep::Backtrack, "vacuous assert"),
        ];
        let r = render_proof_trace(&events);
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("rule"));
        assert!(lines[1].contains("#x000000000000dead"));
        assert!(lines[2].contains("backtrack"));
        assert!(lines[0].starts_with("    0 "));
    }

    #[test]
    fn profile_json_agrees_with_text_rendering() {
        // Build a profile with distinct values everywhere so a swapped
        // field cannot cancel out.
        let mut p = CaseProfile::default();
        p.sail = SailMetrics { steps: 1, calls: 2 };
        p.isla = IslaMetrics {
            runs: 3,
            branches_explored: 4,
            branches_pruned: 5,
            smt_queries: 6,
            events: 7,
        };
        p.isla_smt.queries = 8;
        p.isla_smt.conflicts = 9;
        p.engine.events = 10;
        p.engine.obligations = 11;
        p.engine_smt.propagations = 12;
        p.cert.replayed = 13;
        p.cert.solver.decisions = 14;
        p.cache = CacheMetrics {
            hits: 15,
            misses: 16,
        };

        let text = p.render("hvc (Arm)");
        let parsed = parse_json(&p.to_json("hvc (Arm)").render()).expect("profile JSON parses");
        assert_eq!(parsed.get("case").and_then(Json::as_str), Some("hvc (Arm)"));

        // Every `k=v` pair the text rendering prints must appear in the
        // JSON under its stage, with the same value.
        for line in text.lines().skip(1) {
            let (stage, counters) = line.trim_start().split_once(':').expect("stage line");
            let stage_obj = parsed
                .get(stage.trim())
                .unwrap_or_else(|| panic!("stage `{}` missing from JSON", stage.trim()));
            for kv in counters.split_whitespace() {
                let (k, v) = kv.split_once('=').expect("k=v");
                let v: u64 = v.parse().expect("numeric counter");
                assert_eq!(
                    stage_obj.get(k).and_then(Json::as_u64),
                    Some(v),
                    "stage `{}` counter `{k}`",
                    stage.trim()
                );
            }
        }
        // And the array form is valid JSON too.
        let arr = profiles_to_json(&[("a".into(), p), ("b".into(), CaseProfile::default())]);
        let parsed = parse_json(&arr).expect("profile array is valid JSON");
        assert_eq!(parsed.as_array().unwrap().len(), 2);
    }

    #[test]
    fn json_validator_rejects_every_truncation() {
        // Satellite hardening: any strict prefix of a valid document must
        // be rejected (catches scanner states that accept early EOF).
        let doc = r#"{"a":[1,2.5,{"b":"xÿ\n"},[true,false,null]],"c":-3e4}"#;
        parse_json(doc).expect("full document is valid");
        for cut in 1..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            assert!(
                parse_json(&doc[..cut]).is_err(),
                "truncation at byte {cut} accepted: {:?}",
                &doc[..cut]
            );
        }
    }

    #[test]
    fn json_validator_escape_edge_cases() {
        for ok in [
            "\" \"",
            r#""\\\"\/\b\f\n\r\t""#,
            r#"["deep",[[[[[[[["nest"]]]]]]]]]"#,
            "[[],[],{}]",
        ] {
            parse_json(ok).unwrap_or_else(|e| panic!("{ok}: {e:?}"));
        }
        for bad in [
            r#""\u00g0""#,
            r#""\u00f""#,
            r#""\x41""#,
            "\"raw\ttab\"",
            "[[1]",
            "{\"a\":1",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn worker_thread_names_map_to_tids() {
        let rec = std::sync::Arc::new(Recorder::new());
        let r2 = rec.clone();
        std::thread::Builder::new()
            .name("islaris-worker-7".into())
            .spawn(move || drop(r2.span("in-worker", "test")))
            .expect("spawn")
            .join()
            .expect("join");
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].tid, 7);
    }
}
