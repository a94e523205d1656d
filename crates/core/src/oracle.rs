//! The test oracle: indicator classification and differential triage.
//!
//! Section 3 of the paper: a correctness bug in the verifier eventually
//! appears as one of two abnormal behaviors in a *verified* program —
//! an invalid load/store performed by the program itself (**indicator
//! #1**, captured by the sanitation), or a kernel routine driven into an
//! invalid state (**indicator #2**, captured by existing kernel
//! self-checks). Anything flagged on an accepted program is a finding.
//!
//! Beyond the paper, the `bvf-diff` differential oracle adds
//! **indicator #3** (abstract-state unsoundness): a concrete register
//! value observed at runtime escaped the abstract state the verifier
//! proved for that instruction — direct evidence of a wrong transfer
//! function, visible even when no memory is corrupted.
//!
//! Triage (paper §6.5 "Bug Triage") is automated here by differential
//! replay: re-run the finding's scenario on kernels with one injected
//! defect reverted at a time; the defects whose revert makes the finding
//! disappear are the culprits.

use serde::{Deserialize, Serialize};

use bvf_kernel_sim::{BugId, KernelReport, ReportOrigin, SanDefect, SanDefectSet};
use bvf_runtime::ExecScratch;

use crate::scenario::{run, RunConfig, Sanitation, Scenario, ScenarioOutcome};

/// The correctness-bug indicators (plus the syscall-level bucket for
/// findings like bug #8 that are not program-behavior bugs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Indicator {
    /// The verified program performed an invalid load/store (caught by
    /// `bpf_asan_*` or a hard fault in program code).
    One,
    /// A kernel routine invoked by the program misbehaved (KASAN in a
    /// helper, lockdep splat, panic, dispatcher crash, env mismatch).
    Two,
    /// Abstract-state unsoundness: a concrete register value escaped the
    /// bounds the verifier proved for it (the `bvf-diff` differential
    /// oracle's concretization-membership check). Unlike #1/#2 this
    /// fires without any memory corruption — a silently wrong bound is
    /// enough.
    Three,
    /// A syscall-processing defect surfaced outside program execution.
    Syscall,
}

/// Specificity rank used when several reports fire on one run: #1
/// (program-level memory misbehavior) is the most direct signal, then
/// #3 (direct evidence of verifier state unsoundness), then #2 (kernel
/// routine collateral), then the syscall bucket.
fn rank(i: Indicator) -> u8 {
    match i {
        Indicator::One => 3,
        Indicator::Three => 2,
        Indicator::Two => 1,
        Indicator::Syscall => 0,
    }
}

/// Classifies one kernel report into an indicator.
pub fn classify_report(report: &KernelReport) -> Indicator {
    match report {
        KernelReport::AluLimitViolation { .. } => Indicator::One,
        KernelReport::Kasan { origin, .. } | KernelReport::PageFault { origin, .. } => match origin
        {
            ReportOrigin::ProgramAccess => Indicator::One,
            ReportOrigin::KernelRoutine => Indicator::Two,
            ReportOrigin::Syscall => Indicator::Syscall,
        },
        KernelReport::Lockdep { .. }
        | KernelReport::Panic { .. }
        | KernelReport::EnvMismatch { .. } => Indicator::Two,
        KernelReport::StateDivergence { .. } => Indicator::Three,
        // A sanitized/unsanitized behavioral split is evidence the
        // instrumentation itself altered (or failed to check) a program
        // access: classify with the program-level indicator.
        KernelReport::SanitizerDivergence { .. } => Indicator::One,
        KernelReport::Warn { .. } => Indicator::Syscall,
    }
}

/// One oracle finding: a verified program misbehaved.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Finding {
    /// The replayable scenario.
    pub scenario: Scenario,
    /// The triggered indicator (strongest across reports).
    pub indicator: Indicator,
    /// The reports that fired.
    pub reports: Vec<KernelReport>,
}

/// Inspects a scenario outcome; a finding requires that the program was
/// *accepted* by the verifier (otherwise nothing was mis-verified).
pub fn judge(scenario: &Scenario, outcome: &ScenarioOutcome) -> Option<Finding> {
    if !outcome.accepted() || outcome.reports.is_empty() {
        return None;
    }
    let indicator = outcome
        .reports
        .iter()
        .map(classify_report)
        .max_by_key(|&c| rank(c));
    Some(Finding {
        scenario: scenario.clone(),
        indicator: indicator?,
        reports: outcome.reports.clone(),
    })
}

fn is_san_divergence(report: &KernelReport) -> bool {
    matches!(report, KernelReport::SanitizerDivergence { .. })
}

/// Differential triage: which enabled defects are necessary for this
/// finding to manifest?
///
/// For each defect enabled in `cfg.bugs`, replay the scenario with that
/// defect patched; if the misbehavior disappears (no reports on an
/// accepted program, or the program/attach is now rejected), the defect
/// is a culprit.
///
/// Replays run on `cfg`'s version and prune index, in the mode
/// the finding needs: a sanitizer-divergence finding only exists under
/// [`Sanitation::Dual`] (with `cfg`'s armed sanitizer defects), and an
/// Indicator #3 finding only under the differential oracle; any other
/// finding replays with neither. What must disappear is then
/// specifically the divergence, not any incidental report.
pub fn triage(finding: &Finding, cfg: &RunConfig) -> Vec<BugId> {
    let san = finding.reports.iter().any(is_san_divergence);
    let diff = !san && finding.indicator == Indicator::Three;
    let mut replay = cfg.clone();
    replay.diff_oracle = diff;
    replay.sanitation = match (san, cfg.sanitation) {
        (true, Sanitation::Dual(defects)) => Sanitation::Dual(defects),
        (true, _) => Sanitation::Dual(SanDefectSet::none()),
        (false, Sanitation::Dual(_)) => Sanitation::On,
        (false, single) => single,
    };
    let mut scratch = ExecScratch::new();
    let mut culprits = Vec::new();
    for bug in cfg.bugs.iter() {
        replay.bugs = cfg.bugs.clone();
        replay.bugs.disable(bug);
        let outcome = run(&finding.scenario, &replay, &mut scratch);
        let still_finds = outcome.accepted()
            && if san {
                outcome.reports.iter().any(is_san_divergence)
            } else if diff {
                outcome
                    .reports
                    .iter()
                    .any(|r| matches!(r, KernelReport::StateDivergence { .. }))
            } else {
                !outcome.reports.is_empty()
            };
        if !still_finds {
            culprits.push(bug);
        }
    }
    culprits
}

/// Triage over the *sanitizer-defect* axis: for each sanitizer defect
/// `cfg` arms under [`Sanitation::Dual`], replay the dual-execution
/// scenario with that defect healed; the defects whose removal flips the
/// divergence verdict are the ones the finding depends on. This is the
/// sancheck analogue of kernel-bug triage — it answers "which seeded
/// sanitizer bug did this reproducer actually catch?". Empty when `cfg`
/// is not a dual run.
pub fn triage_san_defects(finding: &Finding, cfg: &RunConfig) -> Vec<SanDefect> {
    let Sanitation::Dual(armed) = cfg.sanitation else {
        return Vec::new();
    };
    let mut scratch = ExecScratch::new();
    let mut diverged = |defects: SanDefectSet| {
        let replay = RunConfig {
            sanitation: Sanitation::Dual(defects),
            diff_oracle: false,
            ..cfg.clone()
        };
        run(&finding.scenario, &replay, &mut scratch)
            .reports
            .iter()
            .any(is_san_divergence)
    };
    let baseline = diverged(armed);
    armed
        .iter()
        .filter(|&defect| {
            let mut healed = armed;
            healed.disable(defect);
            diverged(healed) != baseline
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_isa::{asm, AluOp, JmpOp, Program, Reg, Size};
    use bvf_kernel_sim::btf::ids as btf_ids;
    use bvf_kernel_sim::helpers::proto::ids as helper;
    use bvf_kernel_sim::progtype::ProgType;
    use bvf_kernel_sim::BugSet;
    use bvf_kernel_sim::KasanKind;

    #[test]
    fn classification_table() {
        let ind1 = KernelReport::Kasan {
            kind: KasanKind::NullDeref,
            addr: 0,
            size: 8,
            is_write: false,
            origin: ReportOrigin::ProgramAccess,
        };
        assert_eq!(classify_report(&ind1), Indicator::One);
        let ind2 = KernelReport::Panic { reason: "x".into() };
        assert_eq!(classify_report(&ind2), Indicator::Two);
        let sys = KernelReport::Warn { reason: "x".into() };
        assert_eq!(classify_report(&sys), Indicator::Syscall);
        assert_eq!(
            classify_report(&KernelReport::AluLimitViolation {
                pc: 0,
                offset: 1,
                limit: 0
            }),
            Indicator::One
        );
    }

    fn bug1_scenario() -> Scenario {
        let mut insns = Vec::new();
        insns.extend(asm::ld_btf_id(Reg::R6, btf_ids::DEBUG_OBJ));
        insns.extend(asm::ld_map_fd(Reg::R1, 0));
        insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
        insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
        insns.push(asm::st_mem(Size::W, Reg::R2, 0, 99));
        insns.push(asm::call_helper(helper::MAP_LOOKUP_ELEM as i32));
        insns.push(asm::jmp_reg(JmpOp::Jne, Reg::R0, Reg::R6, 1));
        insns.push(asm::ldx_mem(Size::Dw, Reg::R3, Reg::R0, 0));
        insns.push(asm::mov64_imm(Reg::R0, 0));
        insns.push(asm::exit());
        Scenario::test_run(Program::from_insns(insns), ProgType::Kprobe)
    }

    #[test]
    fn judge_and_triage_bug1() {
        let cfg = RunConfig::new(BugSet::all());
        let s = bug1_scenario();
        let out = run(&s, &cfg, &mut ExecScratch::new());
        let finding = judge(&s, &out).expect("bug1 program must be flagged");
        assert_eq!(finding.indicator, Indicator::One);
        let culprits = triage(&finding, &cfg);
        assert_eq!(culprits, vec![BugId::NullnessPropagation]);
    }

    #[test]
    fn judge_ignores_rejected_programs() {
        let s = bug1_scenario();
        let out = run(&s, &RunConfig::new(BugSet::none()), &mut ExecScratch::new());
        assert!(!out.accepted());
        assert!(judge(&s, &out).is_none());
    }

    #[test]
    fn clean_program_yields_no_finding() {
        let s = Scenario::test_run(
            Program::from_insns(vec![asm::mov64_imm(Reg::R0, 0), asm::exit()]),
            ProgType::SocketFilter,
        );
        let out = run(&s, &RunConfig::new(BugSet::all()), &mut ExecScratch::new());
        assert!(out.accepted());
        assert!(judge(&s, &out).is_none());
    }
}
