//! The distributed campaign fabric: a coordinator service plus
//! remote-worker transport that turns the in-process campaign machinery
//! into a network protocol (`bvf serve`, `bvf worker`,
//! `bvf fuzz --remote`).
//!
//! The mapping from in-process pieces to wire concepts is one-to-one:
//!
//! - the coordinator schedules each campaign with the same
//!   [`Schedule`] the local runners use; a lease it grants becomes a
//!   wire grant ([`proto::Request::Lease`] / [`proto::LeaseGrant`]);
//! - the ledger entries completed batches publish become streamed,
//!   sequence-numbered [`proto::CorpusDelta`] frames a worker folds
//!   into a mirrored [`CorpusLedger`];
//! - the final [`merge_batches`] runs on the coordinator once the
//!   schedule holds every batch's output; it deduplicates and triages
//!   the findings, so workers never exchange anything about findings.
//!
//! Determinism is inherited, not re-proven: a batch's output is a pure
//! function of `(CampaignConfig, batch id, seed view)`, and the
//! schedule only leases batches whose seed generations have fully
//! published — so worker churn, lease re-issue and duplicate
//! completions all merge to results **bit-identical** to a local
//! `--workers N` run. See `DESIGN.md` §6 for the full argument.
//!
//! [`Schedule`]: crate::fuzz::Schedule
//! [`CorpusLedger`]: crate::fuzz::CorpusLedger
//! [`merge_batches`]: crate::fuzz::merge_batches

pub mod client;
pub mod coordinator;
pub mod counters;
pub mod proto;
pub mod worker;

pub use client::{Client, RemoteOutcome};
pub use coordinator::{Coordinator, CoordinatorOptions};
pub use counters::FabricCounters;
pub use worker::{run_worker, WorkerOptions, WorkerReport};

use std::fmt;
use std::io;

/// Everything that can go wrong on the fabric.
#[derive(Debug)]
pub enum FabricError {
    /// Transport failure.
    Io(io::Error),
    /// The coordinator refused on purpose: the handshake (magic/version
    /// mismatch), or a request it answered with
    /// [`proto::Response::Error`] (a campaign too large to schedule, a
    /// batch out of range).
    Refused(String),
    /// The peer sent a frame that violates the protocol state machine.
    Protocol(String),
}

impl FabricError {
    /// A protocol error for an out-of-place response frame.
    pub(crate) fn unexpected(wanted: &str, got: &proto::Response) -> FabricError {
        FabricError::Protocol(format!("expected {wanted}, got {got:?}"))
    }
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Io(e) => write!(f, "fabric transport error: {e}"),
            FabricError::Refused(reason) => write!(f, "coordinator refused: {reason}"),
            FabricError::Protocol(reason) => write!(f, "protocol error: {reason}"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<io::Error> for FabricError {
    fn from(e: io::Error) -> FabricError {
        FabricError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::counters::*;
    use bvf_telemetry::Registry;

    #[test]
    fn counters_publish_under_fabric_namespace() {
        let c = FabricCounters {
            leases_issued: 5,
            leases_reissued: 1,
            deltas_streamed: 12,
            worker_sessions: 3,
            completions: 5,
            duplicate_completions: 0,
        };
        let mut reg = Registry::new();
        c.publish_into(&mut reg);
        assert_eq!(reg.counter(LEASES_ISSUED), 5);
        assert_eq!(reg.counter(LEASES_REISSUED), 1);
        assert_eq!(reg.counter(DELTAS_STREAMED), 12);
        assert_eq!(reg.counter(WORKER_SESSIONS), 3);
    }

    #[test]
    fn counters_roundtrip_json() {
        let c = FabricCounters {
            duplicate_completions: 7,
            ..FabricCounters::default()
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: FabricCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
