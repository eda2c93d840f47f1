//! Islaris-rs: machine-code verification against authoritative ISA
//! semantics — a Rust reproduction of the Islaris system (PLDI 2022).
//!
//! This facade crate re-exports the pipeline; see the individual crates:
//!
//! * [`islaris_sail`] / [`islaris_models`] — mini-Sail and the ISA models;
//! * [`islaris_isla`] — the SMT-based symbolic executor;
//! * [`islaris_itl`] — the Isla trace language and operational semantics;
//! * [`logic`] ([`islaris_core`]) — the separation logic and automation;
//! * [`islaris_difftest`] — the concrete cross-checks of traces against
//!   the model: differential fuzzing and translation validation (§5);
//! * [`islaris_asm`] — assemblers for the case-study binaries;
//! * [`islaris_cases`] — the paper's case studies.

pub use islaris_asm as asm;
pub use islaris_bv as bv;
pub use islaris_cases as cases;
pub use islaris_core as logic;
pub use islaris_difftest as difftest;
pub use islaris_isla as isla;
pub use islaris_itl as itl;
pub use islaris_models as models;
pub use islaris_sail as sail;
pub use islaris_smt as smt;
