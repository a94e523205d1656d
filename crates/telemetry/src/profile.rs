//! Phase profiling: per-program wall-time of the verifier's passes and
//! the sanitation rewrite.
//!
//! The timings are filled in by `bvf-verifier` (structure scan,
//! `do_check`, the pruning work inside it, fixup) and `bvf-runtime`
//! (the `instrument` pass), and surfaced by the campaign as log-scale
//! histograms. They are observational only: nothing in verification or
//! campaign control flow reads them back.

use serde::{Deserialize, Serialize};

use crate::metrics::Registry;

/// Wall-clock nanoseconds spent in each verification/rewrite phase for
/// one program load attempt. Phases a load never reached (e.g. fixup
/// after a rejection) stay 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// The structural pass: the structural checks, one decode of each
    /// instruction, and prune-point placement.
    pub structure_ns: u64,
    /// The main symbolic walk (`do_check`), pruning included.
    pub do_check_ns: u64,
    /// Time inside `do_check` spent on prune-point bookkeeping
    /// (loop-detection scans and `states_equal` comparisons).
    pub prune_ns: u64,
    /// The rewrite pass (`resolve_pseudo_ldimm64` / misc fixups).
    pub fixup_ns: u64,
    /// BVF's sanitation instrumentation (applied after verification).
    pub sanitize_ns: u64,
    /// Work counters for the pruning machinery (one load attempt).
    pub prune: PruneCounters,
}

/// Per-load work counters for the explored-state index. Like the
/// timings they are observational only; the campaign folds them into
/// the registry as plain counters, which makes them merge-safe across
/// workers (counter merge is addition).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneCounters {
    /// Prune-point visits (one per state arriving at a prune point).
    pub checks: u64,
    /// Visits that pruned the path (a stored state subsumed it).
    pub hits: u64,
    /// Full `states_equal` comparisons actually executed.
    pub states_equal_calls: u64,
    /// Candidate comparisons skipped because the structural fingerprint
    /// proved subsumption impossible.
    pub fingerprint_filtered: u64,
    /// Evictions at `MAX_STATES_PER_POINT` (either direction: a stored
    /// state replaced, or the incoming state dropped as most specific).
    pub evictions: u64,
    /// Distinct prune points that stored at least one state.
    pub points: u64,
    /// States resident in the explored index when verification ended.
    pub states_stored: u64,
}

impl PhaseTimings {
    /// Total wall time across all phases (prune is a subset of
    /// `do_check` and is not double-counted).
    pub fn total_ns(&self) -> u64 {
        self.structure_ns + self.do_check_ns + self.fixup_ns + self.sanitize_ns
    }

    /// Records each phase into `reg` as histograms named
    /// `verify.<phase>_ns`, plus `verify.total_ns`.
    pub fn record_into(&self, reg: &mut Registry) {
        reg.record("verify.structure_ns", self.structure_ns);
        reg.record("verify.do_check_ns", self.do_check_ns);
        reg.record("verify.prune_ns", self.prune_ns);
        reg.record("verify.fixup_ns", self.fixup_ns);
        reg.record("verify.sanitize_ns", self.sanitize_ns);
        reg.record("verify.total_ns", self.total_ns());
        self.prune.record_into(reg);
    }
}

impl PruneCounters {
    /// Folds the counters into `reg` under fixed `prune.*` names.
    /// Counters add on merge, so per-worker registries stay mergeable.
    pub fn record_into(&self, reg: &mut Registry) {
        reg.add("prune.checks", self.checks);
        reg.add("prune.hits", self.hits);
        reg.add("prune.states_equal_calls", self.states_equal_calls);
        reg.add("prune.fingerprint_filtered", self.fingerprint_filtered);
        reg.add("prune.evictions", self.evictions);
        reg.add("prune.points", self.points);
        reg.add("prune.states_stored", self.states_stored);
    }
}

/// Nanoseconds elapsed since `start`, saturated into `u64`.
pub fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_exclude_prune_subset() {
        let t = PhaseTimings {
            structure_ns: 10,
            do_check_ns: 100,
            prune_ns: 40,
            fixup_ns: 5,
            sanitize_ns: 20,
            prune: PruneCounters::default(),
        };
        assert_eq!(t.total_ns(), 135);
    }

    #[test]
    fn record_into_names_every_phase() {
        let mut reg = Registry::new();
        let t = PhaseTimings {
            do_check_ns: 7,
            ..Default::default()
        };
        t.record_into(&mut reg);
        for name in [
            "verify.structure_ns",
            "verify.do_check_ns",
            "verify.prune_ns",
            "verify.fixup_ns",
            "verify.sanitize_ns",
            "verify.total_ns",
        ] {
            assert_eq!(reg.histogram(name).map(|h| h.count), Some(1), "{name}");
        }
        assert_eq!(reg.histogram("verify.do_check_ns").unwrap().sum, 7);
    }

    #[test]
    fn prune_counters_fold_as_counters() {
        let mut reg = Registry::new();
        let t = PhaseTimings {
            prune: PruneCounters {
                checks: 4,
                states_equal_calls: 3,
                fingerprint_filtered: 9,
                evictions: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        // Two loads merge by addition — the merge-safety the campaign
        // relies on when folding per-worker registries.
        t.record_into(&mut reg);
        t.record_into(&mut reg);
        assert_eq!(reg.counter("prune.checks"), 8);
        assert_eq!(reg.counter("prune.states_equal_calls"), 6);
        assert_eq!(reg.counter("prune.fingerprint_filtered"), 18);
        assert_eq!(reg.counter("prune.evictions"), 2);
        assert_eq!(reg.counter("prune.hits"), 0);
    }

    #[test]
    fn elapsed_is_monotonic() {
        let t0 = std::time::Instant::now();
        let a = elapsed_ns(t0);
        let b = elapsed_ns(t0);
        assert!(b >= a);
    }
}
