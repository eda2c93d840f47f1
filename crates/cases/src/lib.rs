//! The Islaris case studies (§2 and §6 of the paper), as a library used by
//! the examples, integration tests, and the Fig. 12 benchmark harness.

pub mod binsearch_arm;
pub mod binsearch_riscv;
pub mod corpus;
pub mod hvc;
pub mod memcpy_arm;
pub mod memcpy_riscv;
pub mod pipeline;
pub mod pkvm;
pub mod rbit;
pub mod report;
pub mod uart;
pub mod unaligned;

pub use pipeline::{
    find_case, run_all_parallel, run_cases, CaseDef, CaseRow, ParallelRun, PipelineOpts,
    PipelineReport, ALL_CASES,
};
pub use report::{
    run_case, trace_program_map, trace_program_map_with, CaseArtifacts, CaseCtx, CaseOutcome,
    RunOpts,
};
