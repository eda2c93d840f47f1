//! The Islaris separation logic for Isla traces, with Lithium-style proof
//! automation — the paper's primary contribution (§2.3, §4).
//!
//! * [`assertions`] — the assertion language: `r ↦R v`, `a ↦M v`,
//!   `a ↦*M B`, `a ↦IO n`, `a @@ Q`, pure facts, named specs with
//!   quantified parameters;
//! * [`engine`] — the non-backtracking automation: WP execution of trace
//!   events with `findR`/`findM` context queries, `Cases` branching,
//!   cut-point verification with loop invariants and function-pointer
//!   dispatch (`hoare-instr` / `hoare-instr-pre`);
//! * [`seq`] + [`bridge`] — the sequence theory and bitvector→integer
//!   bridge that decide memcpy-style loop-invariant entailments;
//! * [`iospec`] — `spec(s)` protocols over MMIO labels (§4.2);
//! * [`cert`] — replayable proof certificates (the Qed-check analogue);
//! * [`adequacy`] — the executable adequacy theorem (Theorem 1).

pub mod adequacy;
pub mod assertions;
pub mod bridge;
pub mod cert;
pub mod engine;
pub mod iospec;
pub mod pipeline;
pub mod seq;

pub use assertions::{build, Arg, Atom, BlockAnn, Param, ProgramSpec, SpecDef, SpecTable};
pub use cert::{
    check_certificate, check_certificate_with, obligations_digest, parse_certificate,
    render_certificate, CertCtx, CertError, Certificate, Obligation, DIGEST_MISMATCH,
};
pub use engine::{BlockReport, BlockStats, Report, Verifier, VerifyError, DEADLINE_EXCEEDED};
pub use iospec::{accepts, uart, NoIo, Protocol, UartProtocol};
pub use pipeline::{effective_jobs, run_jobs, Claim, JobPanic, JobSlot, SubmitError, WorkerPool};
pub use seq::{SeqExpr, SeqVar};
