//! Deterministic parallel campaigns: N threads over one lease schedule.
//!
//! The paper's campaigns ran for 72 hours because fuzzing throughput is
//! the budget: oracle quality is bounded by how many verified programs
//! flow through the generate → verify → execute → judge chain. This
//! crate scales one logical campaign across N worker threads while
//! keeping the two properties the evaluation methodology depends on:
//!
//! 1. **Serial identity** — an N-worker campaign produces a
//!    [`bvf::fuzz::CampaignResult`] bit-identical to the serial
//!    [`bvf::fuzz::run_serial`] runner, at *any* worker count. Both
//!    lease batches 0..B (each with its own RNG stream,
//!    [`bvf::fuzz::stream_seed`]) from one [`bvf::fuzz::Schedule`],
//!    run them against generation-lagged seed views, and fold them with
//!    [`bvf::fuzz::merge_batches`] in batch order.
//! 2. **Schedule independence** — the merged result is identical
//!    however the OS schedules the threads, because no campaign input
//!    ever depends on *which worker* ran a batch or *when* it finished.
//!
//! The moving parts, one module each:
//!
//! - [`orchestrator`]: [`run_sharded`] — scoped worker threads over one
//!   `Mutex<Schedule>` and a condvar, and the final merge, which is
//!   where the campaign's findings are triaged, once each, after the
//!   workers join;
//! - [`join`]: worker-identified join-error propagation — a panicking
//!   worker is reported by index with its panic message, after every
//!   sibling has been joined;
//! - [`merge`]: the observational merges that remain crate-local —
//!   registry folding in worker order and worker-tagged trace
//!   interleaving (result merging lives in [`bvf::fuzz::merge_batches`]).

#![warn(missing_docs)]

pub mod join;
pub mod merge;
pub mod orchestrator;

pub use join::{join_all, WorkerPanic};
pub use merge::{interleave_traces, merge_registries};
pub use orchestrator::{run_sharded, ParallelConfig, ParallelOutcome, WorkerSummary};
