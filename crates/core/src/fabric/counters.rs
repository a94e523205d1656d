//! Fabric (distributed campaign) counter names and aggregation.
//!
//! The coordinator tracks its scheduling activity in a
//! [`FabricCounters`] and publishes it into a [`Registry`] under the
//! `fabric.*` namespace, so coordinator state dumps and
//! `CampaignStats::metrics` use one stable vocabulary. Like every other
//! metric, fabric counters are strictly observational: nothing in the
//! campaign result depends on them.

use bvf_telemetry::Registry;
use serde::{Deserialize, Serialize};

/// `Registry` counter: lease batches granted to workers.
pub const LEASES_ISSUED: &str = "fabric.leases_issued";
/// `Registry` counter: leases returned to the pending queue after the
/// holding worker disconnected or its lease expired.
pub const LEASES_REISSUED: &str = "fabric.leases_reissued";
/// `Registry` counter: sequence-numbered corpus delta frames streamed
/// to workers.
pub const DELTAS_STREAMED: &str = "fabric.deltas_streamed";
/// `Registry` counter: worker sessions accepted over the lifetime of
/// the coordinator.
pub const WORKER_SESSIONS: &str = "fabric.worker_sessions";
/// `Registry` counter: batch completions accepted.
pub const COMPLETIONS: &str = "fabric.completions";
/// `Registry` counter: batch completions ignored because the batch had
/// already completed (an expired lease raced its re-issue).
pub const DUPLICATE_COMPLETIONS: &str = "fabric.duplicate_completions";

/// The coordinator's scheduling counters, accumulated over its
/// lifetime (all campaigns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricCounters {
    /// Lease batches granted to workers.
    pub leases_issued: u64,
    /// Leases returned to pending after worker churn or expiry.
    pub leases_reissued: u64,
    /// Corpus delta frames streamed to workers.
    pub deltas_streamed: u64,
    /// Worker sessions accepted.
    pub worker_sessions: u64,
    /// Batch completions accepted.
    pub completions: u64,
    /// Batch completions ignored as duplicates.
    pub duplicate_completions: u64,
}

impl FabricCounters {
    /// Publishes the counters into `reg` under the `fabric.*` names.
    pub fn publish_into(&self, reg: &mut Registry) {
        reg.add(LEASES_ISSUED, self.leases_issued);
        reg.add(LEASES_REISSUED, self.leases_reissued);
        reg.add(DELTAS_STREAMED, self.deltas_streamed);
        reg.add(WORKER_SESSIONS, self.worker_sessions);
        reg.add(COMPLETIONS, self.completions);
        reg.add(DUPLICATE_COMPLETIONS, self.duplicate_completions);
    }
}
