//! End-to-end tests of the sanitizer self-validation subsystem
//! (`bvf-sancheck`): the sanitized-vs-unsanitized dual-execution
//! oracle, the injected sanitizer-defect matrix, campaign integration
//! (`fuzz --san-diff`), and the minimizer round-trip on a committed
//! divergence fixture.
//!
//! The defect matrix is the subsystem's own regression suite: each of
//! the nine seeded sanitizer bugs ships with a reproducer whose
//! divergence verdict must *flip* when the defect is healed, so a
//! comparator or instrumentation regression that lets any class escape
//! fails here (and in the `bvf sancheck --matrix` CI smoke).
//!
//! A dual run verifies once and installs the one verified program into
//! both passes; `dual_run_matches_two_independent_passes` pins that
//! this is indistinguishable from two passes that each verify.

use bvf::fuzz::{report_signature, run_campaign, CampaignConfig};
use bvf::minimize::minimize;
use bvf::sanmatrix::{case_scenario, run_matrix};
use bvf::scenario::{
    run, standard_maps, RunConfig, Sanitation, Scenario, ScenarioOutcome, Trigger, FUZZ_POOL_SIZE,
};
use bvf::{judge, GenConfig, GeneratorKind, StructuredGen};
use bvf_diff::DiffStats;
use bvf_kernel_sim::tracepoint::AttachPoint;
use bvf_kernel_sim::{BugSet, Kernel, KernelReport, SanDefect, SanDefectSet, SanDivergenceKind};
use bvf_runtime::{Bpf, BpfError, ExecScratch, ExecTrace, HaltReason};
use bvf_sancheck::{matrix_cases, RunView, SanStats};
use bvf_verifier::{verify, Coverage, KernelVersion, VerifierOpts};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn matrix_catches_all_defect_classes() {
    let out = run_matrix(KernelVersion::BpfNext);
    assert_eq!(out.results.len(), SanDefect::ALL.len());
    let escaped = out.escaped();
    assert!(
        escaped.is_empty(),
        "sanitizer defects escaped the oracle: {:?}",
        escaped.iter().map(|d| d.name()).collect::<Vec<_>>()
    );
    // One matrix hit per class, keyed by defect name.
    let hits = out.hits();
    assert_eq!(hits.len(), SanDefect::ALL.len());
    assert!(hits.values().all(|&h| h == 1));
}

#[test]
fn clean_kernel_campaign_shows_zero_divergences() {
    // The CI fuzz smoke's invariant: with no defects injected anywhere
    // (kernel bugs or sanitizer defects), dual execution never
    // diverges — the documented instrumentation deltas (step overhead,
    // fault conversion, scratch slots) are all filtered by contract.
    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, 200, 7);
    cfg.bugs = BugSet::none();
    cfg.san_diff = true;
    cfg.triage = false;
    let r = run_campaign(&cfg);
    assert!(r.san.runs > 0, "campaign must exercise the dual runs");
    assert_eq!(
        r.san.divergences,
        0,
        "defect-free kernel must never diverge: {:?}",
        r.findings
            .iter()
            .map(|f| f.signature.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn armed_defect_campaign_reports_divergences() {
    // ScratchClobber corrupts every sanitized program's live R0 spill,
    // so generated programs trip it quickly.
    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, 300, 7);
    cfg.bugs = BugSet::none();
    cfg.san_diff = true;
    cfg.san_defects = SanDefectSet::only(SanDefect::ScratchClobber);
    let r = run_campaign(&cfg);
    assert!(r.san.divergences > 0, "armed defect must diverge");
    assert!(
        r.findings
            .iter()
            .any(|f| f.signature.starts_with("One:sandiv:")),
        "divergences must flow into findings: {:?}",
        r.findings
            .iter()
            .map(|f| f.signature.clone())
            .collect::<Vec<_>>()
    );

    // The per-kind counters partition the divergence total, and the
    // exported stats mirror them (the v3 schema sum invariant, same
    // shape as the reject_reasons one).
    let kind_sum = r.san.exec_mismatch
        + r.san.step_mismatch
        + r.san.san_abort
        + r.san.masked_fault
        + r.san.unchecked_access
        + r.san.fault_meta_mismatch;
    assert_eq!(kind_sum, r.san.divergences);
    let stats = r.to_stats(7, bvf_telemetry::Registry::new());
    assert_eq!(stats.sancheck.runs, r.san.runs);
    assert_eq!(stats.sancheck.divergences, r.san.divergences);
    assert_eq!(
        stats.sancheck.kinds.values().sum::<u64>(),
        stats.sancheck.divergences
    );
}

fn load_fixture() -> Scenario {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/sandiv_scratch_clobber.json"
    ))
    .expect("fixture must exist");
    serde_json::from_str(&json).expect("fixture must parse")
}

/// A dual run on the defect-free kernel with `defects` armed.
fn dual(defects: SanDefectSet) -> RunConfig {
    RunConfig {
        sanitation: Sanitation::Dual(defects),
        ..RunConfig::new(BugSet::none())
    }
}

#[test]
fn committed_fixture_diverges_only_when_armed() {
    let s = load_fixture();
    let armed = run(
        &s,
        &dual(SanDefectSet::only(SanDefect::ScratchClobber)),
        &mut ExecScratch::new(),
    );
    assert!(armed.accepted(), "fixture must verify: {:?}", armed.load);
    assert!(
        armed
            .reports
            .iter()
            .any(|r| matches!(r, KernelReport::SanitizerDivergence { .. })),
        "armed replay must diverge: {:?}",
        armed.reports
    );
    let healed = run(&s, &dual(SanDefectSet::none()), &mut ExecScratch::new());
    assert!(
        !healed
            .reports
            .iter()
            .any(|r| matches!(r, KernelReport::SanitizerDivergence { .. })),
        "healed replay must be clean: {:?}",
        healed.reports
    );
}

#[test]
fn minimize_round_trips_divergence_signature() {
    let s = load_fixture();
    let cfg = dual(SanDefectSet::only(SanDefect::ScratchClobber));
    let out = minimize(&s, &cfg).expect("fixture must minimize");
    assert_eq!(out.signature, "One:sandiv:exec-mismatch");

    // The minimized scenario replays to the same signature — the
    // round-trip CI asserts this via `bvf replay`.
    let replay = run(&out.scenario, &cfg, &mut ExecScratch::new());
    assert!(
        replay
            .reports
            .iter()
            .any(|r| matches!(r, KernelReport::SanitizerDivergence { .. })),
        "minimized scenario must still diverge: {:?}",
        replay.reports
    );
}

/// One pass as dual runs made it before they verified once: its own
/// boot, verification, load and trigger on a fresh kernel with
/// `defects` armed. The diff oracle watches sanitized passes only.
fn independent_pass(
    s: &Scenario,
    cfg: &RunConfig,
    sanitize: bool,
    defects: SanDefectSet,
) -> ScenarioOutcome {
    let mut kernel = Kernel::with_pool_size(cfg.bugs.clone(), FUZZ_POOL_SIZE);
    kernel.mm.san_defects = defects;
    let diff_oracle = sanitize && cfg.diff_oracle;
    let opts = VerifierOpts {
        version: cfg.version,
        snapshots: diff_oracle,
        prune_index: cfg.prune_index,
        ..Default::default()
    };
    let mut bpf = Bpf::with_kernel(kernel, opts, sanitize);
    for def in standard_maps() {
        bpf.map_create(def).unwrap();
    }
    for (fd, key, value) in &s.map_seed {
        let _ = bpf.map_update(*fd, key, value);
    }
    let verified = verify(&bpf.kernel, &s.prog, s.prog_type, &bpf.opts);
    let mut timings = verified.timings;
    let load = verified
        .result
        .map_err(BpfError::Verifier)
        .and_then(|vprog| bpf.prog_install(vprog, &mut timings));
    let mut o = ScenarioOutcome {
        load,
        cov: verified.cov,
        reports: Vec::new(),
        halt: None,
        attach_rejected: false,
        verifier_insns: verified.insns_processed,
        timings,
        exec_steps: 0,
        helper_calls: 0,
        kfunc_calls: 0,
        diff: DiffStats::default(),
        exec_hash: 0,
        instrumented_steps: 0,
        san: SanStats::default(),
    };
    let Ok(id) = o.load else { return o };
    bpf.progs[id as usize].offloaded = s.offloaded;
    match s.trigger {
        Trigger::TestRun => {
            let mut trace = ExecTrace::default();
            match bpf.test_run_traced(id, &mut trace) {
                Ok(r) => {
                    o.reports = r.reports;
                    o.halt = Some(r.exec.halt);
                    o.exec_steps = r.exec.steps;
                    o.helper_calls = r.exec.helper_calls;
                    o.kfunc_calls = r.exec.kfunc_calls;
                    o.exec_hash = r.exec.exec_hash;
                    o.instrumented_steps = r.exec.instrumented_steps;
                }
                Err(_) => o.reports = bpf.kernel.end_execution(),
            }
            if diff_oracle {
                let image = bpf.image(id).unwrap();
                let (stats, divergence) =
                    bvf_diff::check(&verified.snapshots, &trace, image.meta());
                o.diff = stats;
                if let Some(d) = divergence {
                    o.reports.push(KernelReport::StateDivergence {
                        pc: d.pc,
                        reg: d.reg,
                        abstract_state: d.abstract_state,
                        concrete: d.concrete,
                    });
                }
            }
        }
        Trigger::Tracepoint(tp) => match bpf.prog_attach(id, AttachPoint::Tracepoint(tp)) {
            Ok(()) => o.reports = bpf.trigger_tracepoint(tp),
            Err(_) => o.attach_rejected = true,
        },
        Trigger::XdpReceive => {
            let point = AttachPoint::Xdp {
                offloaded: s.offloaded,
            };
            match bpf.prog_attach(id, point) {
                Ok(()) => o.reports = bpf.xdp_receive(),
                Err(_) => o.attach_rejected = true,
            }
        }
        Trigger::GetXlated => {
            let _ = bpf.prog_get_xlated(id);
            o.reports = bpf.kernel.end_execution();
        }
    }
    o
}

fn view(o: &ScenarioOutcome) -> RunView<'_> {
    RunView {
        halt: o.halt,
        exec_hash: o.exec_hash,
        steps: o.exec_steps,
        instrumented_steps: o.instrumented_steps,
        helper_calls: o.helper_calls,
        kfunc_calls: o.kfunc_calls,
        reports: &o.reports,
    }
}

/// The dual-execution verdict over two independent passes: a load
/// verdict mismatch, or the comparator's divergences, appended to the
/// sanitized pass. Both passes rejected means no dual run.
fn fold(mut san: ScenarioOutcome, raw: &ScenarioOutcome) -> ScenarioOutcome {
    let divergences = if san.accepted() != raw.accepted() {
        vec![KernelReport::SanitizerDivergence {
            kind: SanDivergenceKind::ExecMismatch,
            detail: format!(
                "load verdicts differ: sanitized accepted={} unsanitized accepted={}",
                san.accepted(),
                raw.accepted()
            ),
        }]
    } else if san.accepted() {
        bvf_sancheck::compare(&view(&san), &view(raw))
    } else {
        return san;
    };
    san.san.runs = 1;
    for d in &divergences {
        if let KernelReport::SanitizerDivergence { kind, .. } = d {
            san.san.record(*kind);
        }
    }
    san.reports.extend(divergences);
    san
}

/// Everything a dual run reports, the judged signature included.
#[derive(Debug, PartialEq)]
struct Observed {
    load: Result<u32, BpfError>,
    cov: Coverage,
    reports: Vec<KernelReport>,
    san: SanStats,
    halt: Option<HaltReason>,
    attach_rejected: bool,
    verifier_insns: usize,
    exec_hash: u64,
    steps: (u64, u64, u64, u64),
    diff: DiffStats,
    signature: Option<String>,
}

fn observe(s: &Scenario, o: &ScenarioOutcome) -> Observed {
    Observed {
        load: o.load.clone(),
        cov: o.cov.clone(),
        reports: o.reports.clone(),
        san: o.san,
        halt: o.halt,
        attach_rejected: o.attach_rejected,
        verifier_insns: o.verifier_insns,
        exec_hash: o.exec_hash,
        steps: (
            o.exec_steps,
            o.instrumented_steps,
            o.helper_calls,
            o.kfunc_calls,
        ),
        diff: o.diff,
        signature: judge(s, o).map(|f| report_signature(f.indicator, &f.reports)),
    }
}

#[test]
fn dual_run_matches_two_independent_passes() {
    // Generated programs plus every defect's committed reproducer, so
    // the armed configurations produce real divergences.
    let gen = StructuredGen::new(GenConfig::default());
    let mut rng = StdRng::seed_from_u64(13);
    let mut scenarios: Vec<Scenario> = (0..12).map(|_| gen.generate(&mut rng)).collect();
    let cases = matrix_cases();
    scenarios.extend(cases.iter().map(case_scenario));

    let mut kernels = vec![
        (BugSet::none(), SanDefectSet::none()),
        (BugSet::all(), SanDefectSet::none()),
    ];
    kernels.extend(
        cases
            .iter()
            .map(|c| (c.bugs.clone(), SanDefectSet::only(c.defect))),
    );

    let (mut accepted, mut diverged) = (0, 0);
    for (bugs, defects) in &kernels {
        for diff_oracle in [false, true] {
            let cfg = RunConfig {
                sanitation: Sanitation::Dual(*defects),
                diff_oracle,
                ..RunConfig::new(bugs.clone())
            };
            for s in &scenarios {
                let on = independent_pass(s, &cfg, true, *defects);
                let off = independent_pass(s, &cfg, false, *defects);
                if defects.is_empty() {
                    // With nothing armed the reference passes are
                    // plain single runs.
                    let single = |sanitation, diff_oracle| {
                        let cfg = RunConfig {
                            sanitation,
                            diff_oracle,
                            ..cfg.clone()
                        };
                        observe(s, &run(s, &cfg, &mut ExecScratch::new()))
                    };
                    assert_eq!(single(Sanitation::On, diff_oracle), observe(s, &on));
                    assert_eq!(single(Sanitation::Off, false), observe(s, &off));
                }
                let reference = observe(s, &fold(on, &off));
                let dual = observe(s, &run(s, &cfg, &mut ExecScratch::new()));
                assert_eq!(
                    dual, reference,
                    "bugs {bugs:?} defects {defects:?} diff {diff_oracle}: {s:?}"
                );
                accepted += usize::from(dual.load.is_ok());
                diverged += usize::from(dual.san.divergences > 0);
            }
        }
    }
    // The comparison must have covered both verdicts and real findings.
    assert!(accepted > 0 && accepted < kernels.len() * 2 * scenarios.len());
    assert!(diverged > 0);
}
