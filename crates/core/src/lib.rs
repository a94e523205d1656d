//! BVF: finding correctness bugs in the eBPF verifier with structured and
//! sanitized programs.
//!
//! This crate is the paper's primary contribution, built on the substrate
//! crates:
//!
//! - [`gen`] — the lightweight program **structure** (init header, framed
//!   body of basic/jump/call frames, end section) guiding synthesis so
//!   generated programs pass the verifier at a high rate while exercising
//!   deep checking logic (paper §4.1);
//! - the sanitation instrumentation lives in `bvf-verifier::sanitize`
//!   (it is a set of kernel patches applied in the fixup phase, §4.2 / §5);
//! - [`oracle`] — the **test oracle**: indicator #1 (invalid program
//!   load/store, caught by the `bpf_asan_*` dispatch) and indicator #2
//!   (kernel routines driven into invalid states, caught by kernel
//!   self-checks), plus automated differential triage (§3, §6.5);
//! - [`fuzz`] — the campaign driver with verifier-branch-coverage
//!   feedback and corpus mutation;
//! - [`runner`] — the local campaign runner: one lease loop on the
//!   caller's thread or on N worker threads;
//! - [`baseline`] — Syzkaller-like and Buzzer-like generators for the
//!   §6.3 comparison.
//!
//! # Examples
//!
//! ```
//! use bvf::fuzz::{run_campaign, CampaignConfig};
//! use bvf::baseline::GeneratorKind;
//!
//! let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, 50, 42);
//! cfg.triage = false;
//! let result = run_campaign(&cfg);
//! assert!(result.accepted > 0);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod cli;
pub mod corpus;
pub mod fuzz;
pub mod gen;
pub mod join;
pub mod minimize;
pub mod oracle;
pub mod runner;
pub mod sanmatrix;
pub mod scenario;

pub use baseline::{GenShape, GeneratorKind};
pub use corpus::{CorpusSnapshot, SnapshotBatch, SnapshotFinding};
pub use fuzz::{
    merge_batches, run_campaign, BatchOutput, BatchSeed, CampaignConfig, CampaignResult,
    CorpusLedger, ShapeStats,
};
pub use gen::{GenConfig, StructuredGen};
pub use minimize::{minimize, MinimizeOutcome};
pub use oracle::{classify_report, judge, triage, triage_san_defects, Finding, Indicator};
pub use runner::{run_local, ParallelConfig, ParallelOutcome, WorkerSummary};
pub use sanmatrix::{run_matrix, run_matrix_case, MatrixCaseResult, MatrixOutcome};
pub use scenario::{run, RunConfig, Sanitation, Scenario, ScenarioOutcome, Trigger};
