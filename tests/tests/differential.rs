//! Differential property tests spanning the whole stack: the abstract
//! verifier vs. the concrete interpreter.
//!
//! The key soundness property of the reproduction: on a **fixed** kernel
//! (no injected defects), any program the verifier accepts executes
//! without tripping the sanitation or crashing — BVF's oracle must stay
//! silent. (The converse — programs the fuzzer flags really are verifier
//! bugs — is covered by the per-bug end-to-end tests.)

use bvf::gen::{GenConfig, StructuredGen};
use bvf::scenario::{run, RunConfig, Sanitation};
use bvf::{baseline, Scenario};
use bvf_kernel_sim::BugSet;
use bvf_runtime::{ExecScratch, HaltReason};
use bvf_verifier::KernelVersion;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_clean(s: &Scenario, what: &str) {
    let out = run(s, &RunConfig::new(BugSet::none()), &mut ExecScratch::new());
    if !out.accepted() {
        return; // rejection is always safe
    }
    assert!(
        out.reports.is_empty(),
        "{what}: verifier-accepted program misbehaved on a FIXED kernel\n\
         reports: {:?}\nhalt: {:?}\nprogram:\n{}",
        out.reports,
        out.halt,
        s.prog.dump()
    );
    if let Some(h) = out.halt {
        assert!(
            matches!(h, HaltReason::Exit | HaltReason::StepLimit),
            "{what}: accepted program halted with {h:?}\n{}",
            s.prog.dump()
        );
    }
}

#[test]
fn structured_programs_never_flag_fixed_kernel() {
    let g = StructuredGen::new(GenConfig::default());
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for i in 0..400 {
        let s = g.generate(&mut rng);
        assert_clean(&s, &format!("structured #{i}"));
    }
}

#[test]
fn syzkaller_programs_never_flag_fixed_kernel() {
    let mut rng = StdRng::seed_from_u64(0xFEED);
    for i in 0..400 {
        let s = baseline::syzkaller_generate(&mut rng);
        assert_clean(&s, &format!("syzkaller #{i}"));
    }
}

#[test]
fn buzzer_programs_never_flag_fixed_kernel() {
    let mut rng = StdRng::seed_from_u64(0xFACE);
    for i in 0..300 {
        let s = baseline::buzzer_alujmp_generate(&mut rng);
        assert_clean(&s, &format!("buzzer-alujmp #{i}"));
        let s = baseline::buzzer_random_generate(&mut rng);
        assert_clean(&s, &format!("buzzer-random #{i}"));
    }
}

#[test]
fn mutated_programs_never_flag_fixed_kernel() {
    // Mutation-heavy campaign against the fixed kernel: nothing to find.
    use bvf::baseline::GeneratorKind;
    use bvf::fuzz::{run_campaign, CampaignConfig};
    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, 500, 77);
    cfg.bugs = BugSet::none();
    let r = run_campaign(&cfg);
    assert!(
        r.findings.is_empty(),
        "findings on a fixed kernel: {:?}",
        r.findings
            .iter()
            .map(|f| (&f.finding.indicator, &f.finding.reports))
            .collect::<Vec<_>>()
    );
}

#[test]
fn sanitation_never_changes_results() {
    // For accepted programs, the sanitized image must compute the same
    // r0 as the plain image (instrumentation is semantically transparent).
    let g = StructuredGen::new(GenConfig::default());
    let mut rng = StdRng::seed_from_u64(0xABCD);
    let mut compared = 0;
    for _ in 0..200 {
        let s = g.generate(&mut rng);
        let sanitized_cfg = RunConfig::new(BugSet::none());
        let plain_cfg = RunConfig {
            sanitation: Sanitation::Off,
            ..sanitized_cfg.clone()
        };
        let plain = run(&s, &plain_cfg, &mut ExecScratch::new());
        let sanitized = run(&s, &sanitized_cfg, &mut ExecScratch::new());
        assert_eq!(plain.accepted(), sanitized.accepted());
        if plain.accepted() {
            assert_eq!(plain.halt, sanitized.halt, "{}", s.prog.dump());
            compared += 1;
        }
    }
    assert!(compared > 50, "not enough accepted programs: {compared}");
}

#[test]
fn verifier_is_deterministic_across_versions() {
    // The same program gets the same verdict on repeated verification,
    // per version.
    let g = StructuredGen::new(GenConfig::default());
    let mut rng = StdRng::seed_from_u64(0x1234);
    for _ in 0..100 {
        let s = g.generate(&mut rng);
        for v in KernelVersion::ALL {
            let cfg = RunConfig {
                version: v,
                ..RunConfig::new(BugSet::none())
            };
            let a = run(&s, &cfg, &mut ExecScratch::new());
            let b = run(&s, &cfg, &mut ExecScratch::new());
            assert_eq!(a.accepted(), b.accepted());
            assert_eq!(a.cov, b.cov);
        }
    }
}

#[test]
fn older_versions_accept_subset_features() {
    // Programs using kfuncs or bpf-next helpers must be rejected on
    // v5.15 but may pass on bpf-next.
    use bvf_isa::{asm, Program};
    use bvf_kernel_sim::helpers::kfunc::ids as kf;
    use bvf_kernel_sim::progtype::ProgType;

    let p = Program::from_insns(vec![asm::call_kfunc(kf::KTIME_COARSE as i32), asm::exit()]);
    let s = Scenario::test_run(p, ProgType::Kprobe);
    let new_cfg = RunConfig::new(BugSet::none());
    let old_cfg = RunConfig {
        version: KernelVersion::V5_15,
        ..new_cfg.clone()
    };
    let old = run(&s, &old_cfg, &mut ExecScratch::new());
    let new = run(&s, &new_cfg, &mut ExecScratch::new());
    assert!(!old.accepted());
    assert!(new.accepted());
}
