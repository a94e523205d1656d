//! Backend-equivalence property tests: the compiled execution backend
//! must be observably *identical* to the interpreter, program by
//! program — `--backend` is a throughput knob, never a result knob.
//!
//! Random programs from the structured generator run on both backends
//! under three regimes: a clean kernel (`--bugs none`), the full
//! injected-bug kernel, and the dual-execution sanitizer oracle with
//! each seeded sanitizer defect armed. In every case the entire
//! observable outcome — load verdict, halt reason, step counts,
//! instrumented-step counts, helper/kfunc call counts, the FNV
//! exec-hash stream, kernel reports, and divergence verdicts — must
//! match field for field.
//!
//! [`SanDefect::FusedCheckElision`] is the one deliberate exception:
//! it is a *seeded defect of the compiled backend itself* (the fused
//! sanitation thunk skipping its dispatch), so it is excluded here and
//! covered by its own `bvf sancheck --matrix` reproducer instead.

use bvf::gen::{GenConfig, StructuredGen};
use bvf::scenario::{run, RunConfig, Sanitation, Scenario};
use bvf::ScenarioOutcome;
use bvf_kernel_sim::{BugSet, SanDefect, SanDefectSet};
use bvf_runtime::Backend;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts every backend-observable field of two outcomes is equal.
fn assert_equivalent(a: &ScenarioOutcome, b: &ScenarioOutcome, what: &str) {
    assert_eq!(
        a.load.is_ok(),
        b.load.is_ok(),
        "{what}: load verdicts differ"
    );
    assert_eq!(a.halt, b.halt, "{what}: halt reason");
    assert_eq!(a.exec_steps, b.exec_steps, "{what}: steps");
    assert_eq!(
        a.instrumented_steps, b.instrumented_steps,
        "{what}: instrumented steps"
    );
    assert_eq!(a.helper_calls, b.helper_calls, "{what}: helper calls");
    assert_eq!(a.kfunc_calls, b.kfunc_calls, "{what}: kfunc calls");
    assert_eq!(a.exec_hash, b.exec_hash, "{what}: exec hash");
    assert_eq!(a.reports, b.reports, "{what}: kernel reports");
    assert_eq!(a.attach_rejected, b.attach_rejected, "{what}: attach");
    assert_eq!(a.verifier_insns, b.verifier_insns, "{what}: verifier insns");
}

/// Runs `s` under `cfg` on the interpreter, then on the compiled backend.
fn on_both_backends(s: &Scenario, cfg: RunConfig) -> (ScenarioOutcome, ScenarioOutcome) {
    let compiled = RunConfig {
        backend: Backend::Compiled,
        ..cfg.clone()
    };
    let interp = RunConfig {
        backend: Backend::Interp,
        ..cfg
    };
    (run(s, &interp, None), run(s, &compiled, None))
}

/// Generates `n` scenarios from the structured generator.
fn scenarios(seed: u64, n: usize) -> Vec<Scenario> {
    let gen = StructuredGen::new(GenConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| gen.generate(&mut rng)).collect()
}

#[test]
fn outcomes_match_on_clean_and_buggy_kernels() {
    let mut accepted = 0usize;
    for (i, s) in scenarios(0x9e37_79b9, 200).iter().enumerate() {
        for (bugs, regime) in [(BugSet::none(), "clean"), (BugSet::all(), "buggy")] {
            for sanitation in [Sanitation::On, Sanitation::Off] {
                let what = format!("scenario {i} ({regime}, {sanitation:?})");
                let cfg = RunConfig {
                    sanitation,
                    ..RunConfig::new(bugs.clone())
                };
                let (interp, compiled) = on_both_backends(s, cfg);
                assert_equivalent(&interp, &compiled, &what);
                accepted += usize::from(interp.accepted());
            }
        }
    }
    assert!(accepted > 100, "too few accepted programs to be meaningful");
}

#[test]
fn diff_oracle_traces_match() {
    // The differential oracle replays the backend's own per-step
    // register trace against the verifier's abstract states; identical
    // traces mean identical checked/skipped counters and identical
    // divergence verdicts.
    for (i, s) in scenarios(0xbf58_476d, 80).iter().enumerate() {
        let what = format!("diff scenario {i}");
        let cfg = RunConfig {
            diff_oracle: true,
            ..RunConfig::new(BugSet::all())
        };
        let (interp, compiled) = on_both_backends(s, cfg);
        assert_equivalent(&interp, &compiled, &what);
        assert_eq!(interp.diff, compiled.diff, "{what}: diff stats");
    }
}

#[test]
fn san_diff_verdicts_match_under_every_seeded_defect() {
    // The dual-execution oracle's step-delta and exec-hash contract
    // must hold within either engine, and each armed sanitizer defect
    // must produce the same divergence verdict on both — except the
    // compile-layer defect, which by design exists only in the
    // compiled engine.
    let defect_sets: Vec<(SanDefectSet, String)> =
        std::iter::once((SanDefectSet::none(), "healthy".to_string()))
            .chain(
                SanDefect::ALL
                    .into_iter()
                    .filter(|d| *d != SanDefect::FusedCheckElision)
                    .map(|d| (SanDefectSet::only(d), format!("{d:?}"))),
            )
            .collect();
    for (i, s) in scenarios(0x94d0_49bb, 40).iter().enumerate() {
        for (defects, name) in &defect_sets {
            let what = format!("san-diff scenario {i} ({name})");
            let cfg = RunConfig {
                sanitation: Sanitation::Dual(*defects),
                ..RunConfig::new(BugSet::none())
            };
            let (interp, compiled) = on_both_backends(s, cfg);
            assert_equivalent(&interp, &compiled, &what);
            assert_eq!(
                interp.san.divergences, compiled.san.divergences,
                "{what}: divergence count"
            );
        }
    }
}
