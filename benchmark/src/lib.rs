//! BVF's campaign benchmark: workloads, timed and traced runs, and the
//! correctness checks every run makes. The `benchmark` binary is the
//! entry point; see its documentation for the measured layer shares.

pub mod args;
pub mod campaign;
pub mod replay;
pub mod run;
pub mod spans;
pub mod workload;
