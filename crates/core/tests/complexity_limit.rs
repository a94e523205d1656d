//! How the verifier explores two loops that run into its complexity
//! limit.
//!
//! Both programs come from `bvf fuzz --iters 5000 --seed 41`:
//! `complexity_limit_stack_loop.json` is iteration 1471 and
//! `complexity_limit_counter_loop.json` iteration 2303. Each is a loop
//! whose every iteration reaches its prune point in a state no stored
//! state subsumes, so the verifier walks it until the 100k-instruction
//! budget runs out. The verdict, the instruction count, every `prune.*`
//! counter and the coverage are pinned here: a change to the prune-point
//! bookkeeping that alters what the verifier explores fails these tests.
//! The two programs are also the quickest input for timing that
//! bookkeeping.

use bvf::scenario::{run, RunConfig, Scenario, ScenarioOutcome};
use bvf_kernel_sim::BugSet;
use bvf_runtime::{BpfError, ExecScratch};
use bvf_telemetry::PruneCounters;
use bvf_verifier::RejectReason;

fn explore(fixture: &str) -> ScenarioOutcome {
    let path = format!(
        "{}/../../tests/fixtures/{fixture}",
        env!("CARGO_MANIFEST_DIR")
    );
    let json = std::fs::read_to_string(&path).expect("fixture must exist");
    let scenario: Scenario = serde_json::from_str(&json).expect("fixture must parse");
    run(
        &scenario,
        &RunConfig::new(BugSet::all()),
        &mut ExecScratch::new(),
    )
}

/// Asserts a complexity-limit rejection at `insn` after the whole
/// budget was spent.
fn assert_complexity_limit(out: &ScenarioOutcome, insn: usize) {
    let Err(BpfError::Verifier(e)) = &out.load else {
        panic!("expected a verifier rejection, got {:?}", out.load);
    };
    assert_eq!(e.reason, RejectReason::ComplexityLimit, "{e}");
    assert_eq!(e.insn_idx, insn, "{e}");
    assert!(e.msg.contains("Processed 100001 insn"), "{e}");
    assert_eq!(out.verifier_insns, 100_001, "{e}");
}

#[test]
fn stack_loop_exploration_is_pinned() {
    let out = explore("complexity_limit_stack_loop.json");
    assert_complexity_limit(&out, 10);
    assert_eq!(
        out.timings.prune,
        PruneCounters {
            checks: 14287,
            hits: 0,
            states_equal_calls: 0,
            fingerprint_filtered: 913186,
            evictions: 14253,
            points: 2,
            states_stored: 34,
        }
    );
    assert_eq!(out.cov.len(), 23);
}

#[test]
fn counter_loop_exploration_is_pinned() {
    let out = explore("complexity_limit_counter_loop.json");
    assert_complexity_limit(&out, 11);
    assert_eq!(
        out.timings.prune,
        PruneCounters {
            checks: 33332,
            hits: 0,
            states_equal_calls: 0,
            fingerprint_filtered: 2132128,
            evictions: 33299,
            points: 2,
            states_stored: 33,
        }
    );
    assert_eq!(out.cov.len(), 17);
}
