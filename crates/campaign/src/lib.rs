//! Deterministic work-stealing parallel campaign orchestration.
//!
//! The paper's campaigns ran for 72 hours because fuzzing throughput is
//! the budget: oracle quality is bounded by how many verified programs
//! flow through the generate → verify → execute → judge chain. This
//! crate scales one logical campaign across N worker threads while
//! keeping the two properties the evaluation methodology depends on:
//!
//! 1. **Serial identity** — an N-worker campaign produces a
//!    [`bvf::fuzz::CampaignResult`] bit-identical to the serial
//!    [`bvf::fuzz::run_campaign_with_telemetry`] path, at *any* worker
//!    count. Both paths are the same pure composition: lease batches
//!    0..B (each with its own RNG stream, [`bvf::fuzz::stream_seed`])
//!    run against generation-lagged seed views, folded by
//!    [`bvf::fuzz::merge_batches`] in batch order.
//! 2. **Schedule independence** — the merged result is identical
//!    however the OS schedules the threads and however batches migrate
//!    between workers via stealing, because no campaign input ever
//!    depends on *which worker* ran a batch or *when* it finished.
//!
//! The moving parts, one module each:
//!
//! - [`orchestrator`]: the work-stealing driver — per-worker lease
//!   queues dealt round-robin, tail-stealing when a local queue drains,
//!   scoped worker threads, and the final merge, which is where the
//!   campaign's findings are triaged, once each, after the workers join
//!   (see its module docs for the liveness argument);
//! - [`exchange`]: the asynchronous corpus-exchange hub — a
//!   sequence-numbered delta ledger behind a mutex + condvar, replacing
//!   the old barrier epochs so slow workers never stall fast ones;
//! - [`join`]: worker-identified join-error propagation — a panicking
//!   worker is reported by index with its panic message, after every
//!   sibling has been joined;
//! - [`progress`]: the single shared stderr writer that keeps
//!   `--stats-every` output un-torn under N writers;
//! - [`merge`]: the observational merges that remain crate-local —
//!   registry folding in worker order and worker-tagged trace
//!   interleaving (result merging lives in [`bvf::fuzz::merge_batches`]).

#![warn(missing_docs)]

pub mod exchange;
pub mod join;
pub mod merge;
pub mod orchestrator;
pub mod progress;

pub use exchange::{ExchangeHub, SubscribeStats};
pub use join::{join_all, WorkerPanic};
pub use merge::{interleave_traces, merge_registries};
pub use orchestrator::{run_sharded, ParallelConfig, ParallelOutcome, WorkerSummary};
pub use progress::SharedProgress;
