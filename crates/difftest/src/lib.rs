//! Differential testing: concrete oracle and model-guided trace replay
//! fuzzer.
//!
//! Islaris' trustworthy core is the pair (mini-Sail model, symbolic
//! executor): certificates only mean something if the symbolic traces
//! mean what the model says. This crate cross-checks that pair against
//! an *independent* concrete execution path that shares none of the
//! symbolic machinery:
//!
//! ```text
//!   opcode ──▶ isla::trace_opcode ──▶ symbolic trace (all paths)
//!                                          │ per path:
//!                                          │  solver model of the
//!                                          │  path constraints
//!                                          ▼
//!   concretized initial state ──▶ sail::Interp::replay ──▶ journal
//!                                          │
//!                                          ▼
//!                 event-by-event comparison (reg writes, mem
//!                 reads/writes, final PC) ──▶ Divergence reports
//! ```
//!
//! The [`Oracle`] performs one such check; the fuzzer ([`run_fuzz`])
//! drives it with deterministically generated opcodes from the decoder
//! grammar and mutation of known-good encodings, tracking coverage as
//! (instruction class × path id) pairs. Everything replays from a
//! printed seed: no wall clock, no OS randomness, and output
//! byte-identical across `--jobs` values.
//!
//! The same [`Oracle`] performs the paper's §5 translation validation:
//! [`Oracle::check_state`] runs the ITL trace and the model from one
//! concrete state and compares the results, and [`Oracle::check_program`]
//! sweeps it over seeded random states for every instruction of a
//! binary.
//!
//! The oracle is *outside* the certificate TCB — a divergence does not
//! invalidate any particular certificate, it flags semantic drift
//! between model and executor that the proof pipeline builds on.

pub mod fuzz;
pub mod oracle;
pub mod report;

pub use fuzz::{
    canonical_config, run_fuzz, run_fuzz_on, shipped_targets, FuzzConfig, FuzzReport, Target,
};
pub use oracle::{Oracle, OracleOutcome, REPLAY_STEP_BUDGET};
pub use report::Divergence;
