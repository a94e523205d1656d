//! `bvf-sancheck` — sanitizer self-validation.
//!
//! Every Indicator #1 finding rests on trusting the `bpf_asan_*`
//! sanitation layer, yet that instrument is itself a program that can be
//! wrong in both directions: a false positive aborts an execution the
//! bare kernel completes, a false negative waves through an access the
//! shadow should have rejected. UBfuzz showed real sanitizer
//! implementations harbor both classes. This crate turns the repo's own
//! differential methodology onto the instrument: run each
//! verifier-accepted program **twice on the same kernel** — once
//! sanitized, once unsanitized — and flag any disagreement beyond the
//! documented instrumentation delta as a
//! [`KernelReport::SanitizerDivergence`].
//!
//! The dual-execution contract (DESIGN.md §7) allows exactly three
//! deltas between the runs:
//!
//! 1. **Step overhead** — the sanitized image executes extra
//!    rewrite-emitted instructions, counted precisely by
//!    `instrumented_steps`; `san.steps - san.instrumented_steps` must
//!    equal the unsanitized step count.
//! 2. **Fault conversion** — a bad access the sanitizer traps
//!    ([`HaltReason::SanitizerTrap`]) may appear in the unsanitized run
//!    as a hard page fault *for the same address and polarity*, or not
//!    at all (pool-resident poison is silent raw).
//! 3. **Register scratch** — the instrumentation may use `Ax` and the
//!    extended stack, neither of which is program-observable.
//!
//! Anything else — a different exit value, helper trace, step count, or
//! fault metadata — is a bug in the sanitation layer (or the rewrite),
//! classified by [`SanDivergenceKind`].
//!
//! The paired **defect matrix** ([`matrix_cases`]) arms one seeded
//! sanitizer defect ([`SanDefect`]) at a time and asserts the oracle's
//! verdict flips against a committed reproducer: false-positive defects
//! make a divergence *appear* on a clean program, false-negative defects
//! make the divergence a planted bad access normally produces
//! *disappear*.

#![warn(missing_docs)]

use bvf_isa::{asm, AluOp, Insn, JmpOp, Reg, Size};
use bvf_kernel_sim::helpers::proto::ids as helper;
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::report::SanDivergenceKind;
use bvf_kernel_sim::sandefect::SanDefect;
use bvf_kernel_sim::{BugId, BugSet, KernelReport, ReportOrigin};
use bvf_runtime::HaltReason;
use serde::{Deserialize, Serialize};

/// One execution's comparator-relevant observations, borrowed from
/// whatever outcome structure produced them.
#[derive(Debug, Clone, Copy)]
pub struct RunView<'a> {
    /// Why execution halted; `None` when the trigger produced no direct
    /// execution result (attach-style triggers).
    pub halt: Option<HaltReason>,
    /// FNV fold of the observable execution (helper/kfunc returns, exit
    /// value); instrumentation-invariant by construction.
    pub exec_hash: u64,
    /// Interpreter steps executed.
    pub steps: u64,
    /// Executed instructions emitted by the sanitation rewrite.
    pub instrumented_steps: u64,
    /// Real helper invocations.
    pub helper_calls: u64,
    /// Kfunc invocations.
    pub kfunc_calls: u64,
    /// Kernel reports the run produced.
    pub reports: &'a [KernelReport],
}

/// Deterministic counters for the dual-execution oracle. All fields are
/// additive so per-worker stats merge by summation in any order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SanStats {
    /// Dual-runs compared (one sanitized + one unsanitized execution).
    pub runs: u64,
    /// Total divergences flagged.
    pub divergences: u64,
    /// Exit-value / helper-trace mismatches.
    pub exec_mismatch: u64,
    /// Step-contract violations.
    pub step_mismatch: u64,
    /// Sanitizer aborts on programs the raw run completes.
    pub san_abort: u64,
    /// Raw faults the sanitized run masked.
    pub masked_fault: u64,
    /// Hard faults at sanitized program accesses.
    pub unchecked_access: u64,
    /// Fault-metadata disagreements.
    pub fault_meta_mismatch: u64,
}

impl SanStats {
    /// Folds another run's counters into `self` (order-independent).
    pub fn merge(&mut self, other: &SanStats) {
        self.runs += other.runs;
        self.divergences += other.divergences;
        self.exec_mismatch += other.exec_mismatch;
        self.step_mismatch += other.step_mismatch;
        self.san_abort += other.san_abort;
        self.masked_fault += other.masked_fault;
        self.unchecked_access += other.unchecked_access;
        self.fault_meta_mismatch += other.fault_meta_mismatch;
    }

    /// Counts one divergence of the given kind.
    pub fn record(&mut self, kind: SanDivergenceKind) {
        self.divergences += 1;
        match kind {
            SanDivergenceKind::ExecMismatch => self.exec_mismatch += 1,
            SanDivergenceKind::StepMismatch => self.step_mismatch += 1,
            SanDivergenceKind::SanAbort => self.san_abort += 1,
            SanDivergenceKind::MaskedFault => self.masked_fault += 1,
            SanDivergenceKind::UncheckedAccess => self.unchecked_access += 1,
            SanDivergenceKind::FaultMetaMismatch => self.fault_meta_mismatch += 1,
        }
    }

    /// Sum of the per-kind counters (must equal `divergences`).
    pub fn kind_total(&self) -> u64 {
        self.exec_mismatch
            + self.step_mismatch
            + self.san_abort
            + self.masked_fault
            + self.unchecked_access
            + self.fault_meta_mismatch
    }
}

/// The program-access fault metadata a run observed: `(addr, is_write)`
/// of its KASAN report (sanitized runs) or hard page fault (raw runs).
fn kasan_fault(reports: &[KernelReport]) -> Option<(u64, bool)> {
    reports.iter().rev().find_map(|r| match r {
        KernelReport::Kasan {
            addr,
            is_write,
            origin: ReportOrigin::ProgramAccess,
            ..
        } => Some((*addr, *is_write)),
        _ => None,
    })
}

fn page_fault(reports: &[KernelReport]) -> Option<(u64, bool)> {
    reports.iter().rev().find_map(|r| match r {
        KernelReport::PageFault {
            addr,
            is_write,
            origin: ReportOrigin::ProgramAccess,
        } => Some((*addr, *is_write)),
        _ => None,
    })
}

/// Whether a report is allowed to differ between the runs: program-access
/// fault evidence (a sanitizer trap or the raw fault it converts to) and
/// oracle-layer reports that only the sanitized run can produce (the diff
/// oracle's state divergences, prior sancheck verdicts).
fn is_pa_evidence(r: &KernelReport) -> bool {
    matches!(
        r,
        KernelReport::Kasan {
            origin: ReportOrigin::ProgramAccess,
            ..
        } | KernelReport::PageFault {
            origin: ReportOrigin::ProgramAccess,
            ..
        } | KernelReport::AluLimitViolation { .. }
            | KernelReport::StateDivergence { .. }
            | KernelReport::SanitizerDivergence { .. }
    )
}

fn shared_reports_differ(san: &RunView, unsan: &RunView) -> bool {
    let s: Vec<&KernelReport> = san.reports.iter().filter(|r| !is_pa_evidence(r)).collect();
    let u: Vec<&KernelReport> = unsan
        .reports
        .iter()
        .filter(|r| !is_pa_evidence(r))
        .collect();
    s != u
}

/// Compares a sanitized run against the unsanitized run of the same
/// scenario and returns the divergences (at most one — the scan stops at
/// the first, like the state-divergence oracle).
pub fn compare(san: &RunView, unsan: &RunView) -> Vec<KernelReport> {
    let div = |kind: SanDivergenceKind, detail: String| {
        vec![KernelReport::SanitizerDivergence { kind, detail }]
    };

    match (san.halt, unsan.halt) {
        // The sanitized run hard-faulted at a program access: whatever
        // the raw run did, the sanitizer failed to intercept the access
        // it exists to check — unless the raw run faulted identically
        // (an access class the instrumentation documents as unchecked).
        (Some(HaltReason::PageFault), u) => {
            let sf = page_fault(san.reports);
            let uf = page_fault(unsan.reports);
            if u == Some(HaltReason::PageFault) {
                if sf != uf {
                    return div(
                        SanDivergenceKind::FaultMetaMismatch,
                        format!("san page fault {sf:?} vs unsan {uf:?}"),
                    );
                }
            } else {
                return div(
                    SanDivergenceKind::UncheckedAccess,
                    format!("sanitized run page-faulted at {sf:?}, unsanitized halt {u:?}"),
                );
            }
        }
        // Sanitizer abort: legitimate only as the checked conversion of
        // a raw fault at the same address and polarity.
        (Some(HaltReason::SanitizerTrap), Some(HaltReason::PageFault)) => {
            let sf = kasan_fault(san.reports);
            let uf = page_fault(unsan.reports);
            if let (Some(s), Some(u)) = (sf, uf) {
                if s != u {
                    return div(
                        SanDivergenceKind::FaultMetaMismatch,
                        format!("san kasan {s:?} vs unsan page fault {u:?}"),
                    );
                }
            }
        }
        (Some(HaltReason::SanitizerTrap), u) => {
            return div(
                SanDivergenceKind::SanAbort,
                format!(
                    "sanitizer aborted ({:?}); unsanitized run halt {u:?}",
                    kasan_fault(san.reports)
                ),
            );
        }
        // The sanitized run completed past a fault the raw kernel oopses
        // on: the sanitizer masked it.
        (s, Some(HaltReason::PageFault)) => {
            return div(
                SanDivergenceKind::MaskedFault,
                format!(
                    "unsanitized run page-faulted at {:?}; sanitized halt {s:?}",
                    page_fault(unsan.reports)
                ),
            );
        }
        (Some(HaltReason::Exit), Some(HaltReason::Exit)) => {
            if san.exec_hash != unsan.exec_hash
                || san.helper_calls != unsan.helper_calls
                || san.kfunc_calls != unsan.kfunc_calls
            {
                return div(
                    SanDivergenceKind::ExecMismatch,
                    format!(
                        "exec hash {:#x}/{:#x} helpers {}/{} kfuncs {}/{}",
                        san.exec_hash,
                        unsan.exec_hash,
                        san.helper_calls,
                        unsan.helper_calls,
                        san.kfunc_calls,
                        unsan.kfunc_calls
                    ),
                );
            }
            if san.steps - san.instrumented_steps != unsan.steps || unsan.instrumented_steps != 0 {
                return div(
                    SanDivergenceKind::StepMismatch,
                    format!(
                        "san {} steps ({} instrumented) vs unsan {} steps ({} instrumented)",
                        san.steps, san.instrumented_steps, unsan.steps, unsan.instrumented_steps
                    ),
                );
            }
        }
        (s, u) if s != u => {
            return div(
                SanDivergenceKind::ExecMismatch,
                format!("halt {s:?} vs {u:?}"),
            );
        }
        // Equal non-Exit halts (both step-limited, both fatal kernel
        // reports, or attach-style triggers with no execution result):
        // the shared-machinery reports must agree.
        _ => {}
    }

    if shared_reports_differ(san, unsan) {
        return div(
            SanDivergenceKind::ExecMismatch,
            format!(
                "kernel-routine reports differ: san {} vs unsan {}",
                san.reports.len(),
                unsan.reports.len()
            ),
        );
    }
    Vec::new()
}

/// One committed reproducer of the sanitizer-defect matrix.
///
/// Each case pairs an injectable [`SanDefect`] with a program whose
/// dual-run verdict *flips* when the defect is armed. For
/// false-positive defects the divergence appears only with the defect
/// (`divergence_with_defect = true`); for false-negative defects the
/// case plants a verifier-admitted bad access whose divergence the
/// correct sanitizer produces and the defective one silently loses
/// (`divergence_with_defect = false`).
#[derive(Debug, Clone)]
pub struct MatrixCase {
    /// The sanitizer defect under test.
    pub defect: SanDefect,
    /// Kernel/verifier bugs the reproducer needs (to plant a
    /// verifier-admitted bad access); empty for clean-program cases.
    pub bugs: BugSet,
    /// Program type to load the reproducer as.
    pub prog_type: ProgType,
    /// The reproducer's instruction stream.
    pub insns: Vec<Insn>,
    /// Map seeding `(fd, key_le, value_le)` applied before the run.
    pub map_seed: Vec<(u32, Vec<u8>, Vec<u8>)>,
    /// Whether the divergence appears when the defect is armed (false
    /// positive) or only when it is disarmed (false negative).
    pub divergence_with_defect: bool,
    /// The divergence kind expected in whichever arm diverges.
    pub expect_kind: SanDivergenceKind,
}

/// Stack-key prologue: `r2 = r10 - 8` with the key value stored.
fn stack_key(insns: &mut Vec<Insn>, size: Size, key: i32) {
    insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
    insns.push(asm::st_mem(size, Reg::R2, 0, key));
}

/// `r0 = lookup(map fd, stack key)`.
fn lookup(insns: &mut Vec<Insn>, fd: i32, key_size: Size, key: i32) {
    insns.extend(asm::ld_map_fd(Reg::R1, fd));
    stack_key(insns, key_size, key);
    insns.push(asm::call_helper(helper::MAP_LOOKUP_ELEM as i32));
}

fn seed_hash_entry() -> (u32, Vec<u8>, Vec<u8>) {
    (1, 5u64.to_le_bytes().to_vec(), vec![0u8; 16])
}

fn seed_array_word(word: u32) -> (u32, Vec<u8>, Vec<u8>) {
    let mut value = word.to_le_bytes().to_vec();
    value.resize(16, 0);
    (0, 0u32.to_le_bytes().to_vec(), value)
}

/// The committed sanitizer-defect matrix, one case per [`SanDefect`], in
/// [`SanDefect::ALL`] order.
pub fn matrix_cases() -> Vec<MatrixCase> {
    let mut cases = Vec::new();

    // redzone-width: an 8-byte read ending flush with a hash node — the
    // defective size+1 check trips the neighboring redzone.
    let mut insns = vec![asm::mov64_imm(Reg::R0, 0)];
    lookup(&mut insns, 1, Size::Dw, 5);
    insns.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, 3));
    insns.push(asm::ldx_mem(Size::Dw, Reg::R3, Reg::R0, 8));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    cases.push(MatrixCase {
        defect: SanDefect::RedzoneWidth,
        bugs: BugSet::none(),
        prog_type: ProgType::SocketFilter,
        insns,
        map_seed: vec![seed_hash_entry()],
        divergence_with_defect: true,
        expect_kind: SanDivergenceKind::SanAbort,
    });

    // write-polarity: CVE-2022-23222 store through null+8 — both runs
    // fault, but the defective dispatch reports the store as a read.
    let mut insns = vec![asm::mov64_imm(Reg::R0, 0)];
    insns.extend(asm::ld_map_fd(Reg::R1, 0));
    stack_key(&mut insns, Size::W, 99); // miss → null
    insns.push(asm::call_helper(helper::MAP_LOOKUP_ELEM as i32));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R0, 8));
    insns.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, 3));
    insns.push(asm::st_mem(Size::Dw, Reg::R0, -8, 7));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    cases.push(MatrixCase {
        defect: SanDefect::WritePolarity,
        bugs: BugSet::with(&[BugId::CveAluOnNullablePtr]),
        prog_type: ProgType::SocketFilter,
        insns,
        map_seed: Vec::new(),
        divergence_with_defect: true,
        expect_kind: SanDivergenceKind::FaultMetaMismatch,
    });

    // ex-handled-swallow: a use-after-free *store* the correct sanitizer
    // aborts on — the defective gate treats the flagged access as
    // extable-fixable, swallows the report, and the store lands silently
    // just like the unsanitized run.
    let mut insns = vec![asm::mov64_imm(Reg::R0, 0)];
    lookup(&mut insns, 1, Size::Dw, 5);
    insns.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, 8));
    insns.push(asm::mov64_reg(Reg::R6, Reg::R0));
    insns.extend(asm::ld_map_fd(Reg::R1, 1));
    insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
    insns.push(asm::call_helper(helper::MAP_DELETE_ELEM as i32));
    insns.push(asm::st_mem(Size::Dw, Reg::R6, 0, 7));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    cases.push(MatrixCase {
        defect: SanDefect::ExHandledSwallow,
        bugs: BugSet::none(),
        prog_type: ProgType::SocketFilter,
        insns,
        map_seed: vec![seed_hash_entry()],
        divergence_with_defect: false,
        expect_kind: SanDivergenceKind::SanAbort,
    });

    // alu-bound-flip: pointer arithmetic landing exactly on the
    // verifier-computed limit (scalar masked to {0,16}, runtime 16,
    // limit = value_size 16) — the strict comparison rejects it.
    let mut insns = vec![asm::mov64_imm(Reg::R0, 0)];
    lookup(&mut insns, 0, Size::W, 0);
    insns.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, 4));
    insns.push(asm::ldx_mem(Size::W, Reg::R1, Reg::R0, 0));
    insns.push(asm::alu64_imm(AluOp::And, Reg::R1, 16));
    insns.push(asm::alu64_reg(AluOp::Add, Reg::R0, Reg::R1));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    cases.push(MatrixCase {
        defect: SanDefect::AluBoundFlip,
        bugs: BugSet::none(),
        prog_type: ProgType::SocketFilter,
        insns,
        map_seed: vec![seed_array_word(16)],
        divergence_with_defect: true,
        expect_kind: SanDivergenceKind::SanAbort,
    });

    // stale-shadow-free: lookup → delete → use. The correct sanitizer
    // traps the UAF read; with the poison defect the read passes and the
    // divergence disappears.
    let mut insns = vec![asm::mov64_imm(Reg::R0, 0)];
    lookup(&mut insns, 1, Size::Dw, 5);
    insns.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, 8));
    insns.push(asm::mov64_reg(Reg::R6, Reg::R0));
    insns.extend(asm::ld_map_fd(Reg::R1, 1));
    insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
    insns.push(asm::call_helper(helper::MAP_DELETE_ELEM as i32));
    insns.push(asm::ldx_mem(Size::Dw, Reg::R3, Reg::R6, 0));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    cases.push(MatrixCase {
        defect: SanDefect::StaleShadowFree,
        bugs: BugSet::none(),
        prog_type: ProgType::SocketFilter,
        insns,
        map_seed: vec![seed_hash_entry()],
        divergence_with_defect: false,
        expect_kind: SanDivergenceKind::SanAbort,
    });

    // load-size-confusion: bug #2's straddling read (8 bytes at task
    // offset 124 of a 128-byte object). The correct sanitizer flags the
    // redzone half; the halved check passes the first half and the
    // divergence disappears.
    let insns = vec![
        asm::call_helper(helper::GET_CURRENT_TASK_BTF as i32),
        asm::ldx_mem(Size::Dw, Reg::R0, Reg::R0, 124),
        asm::exit(),
    ];
    cases.push(MatrixCase {
        defect: SanDefect::LoadSizeConfusion,
        bugs: BugSet::with(&[BugId::TaskStructOob]),
        prog_type: ProgType::Kprobe,
        insns,
        map_seed: Vec::new(),
        divergence_with_defect: false,
        expect_kind: SanDivergenceKind::SanAbort,
    });

    // alu-direction-flip: downward pointer movement (runtime -8 against
    // limit 8) — with the direction term dropped, the negative operand
    // is rejected outright.
    let mut insns = vec![asm::mov64_imm(Reg::R0, 0)];
    lookup(&mut insns, 0, Size::W, 0);
    insns.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, 5));
    insns.push(asm::ldx_mem(Size::W, Reg::R1, Reg::R0, 0));
    insns.push(asm::alu64_imm(AluOp::And, Reg::R1, 8));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R0, 8));
    insns.push(asm::alu64_reg(AluOp::Sub, Reg::R0, Reg::R1));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    cases.push(MatrixCase {
        defect: SanDefect::AluDirectionFlip,
        bugs: BugSet::none(),
        prog_type: ProgType::SocketFilter,
        insns,
        map_seed: vec![seed_array_word(8)],
        divergence_with_defect: true,
        expect_kind: SanDivergenceKind::SanAbort,
    });

    // scratch-clobber: r0 = 42 is live across an instrumented load; the
    // clobbered spill slot restores garbage and the exit value changes.
    let mut insns = vec![asm::mov64_imm(Reg::R0, 0)];
    lookup(&mut insns, 0, Size::W, 0);
    insns.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, 4));
    insns.push(asm::mov64_reg(Reg::R6, Reg::R0));
    insns.push(asm::mov64_imm(Reg::R0, 42));
    insns.push(asm::ldx_mem(Size::W, Reg::R1, Reg::R6, 0));
    insns.push(asm::exit());
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    cases.push(MatrixCase {
        defect: SanDefect::ScratchClobber,
        bugs: BugSet::none(),
        prog_type: ProgType::SocketFilter,
        insns,
        map_seed: vec![seed_array_word(0)],
        divergence_with_defect: true,
        expect_kind: SanDivergenceKind::ExecMismatch,
    });

    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_kernel_sim::KasanKind;

    fn view(halt: Option<HaltReason>, reports: &[KernelReport]) -> RunView<'_> {
        RunView {
            halt,
            exec_hash: 1,
            steps: 10,
            instrumented_steps: 0,
            helper_calls: 0,
            kfunc_calls: 0,
            reports,
        }
    }

    fn kasan(addr: u64, is_write: bool) -> KernelReport {
        KernelReport::Kasan {
            kind: KasanKind::NullDeref,
            addr,
            size: 8,
            is_write,
            origin: ReportOrigin::ProgramAccess,
        }
    }

    fn pf(addr: u64, is_write: bool) -> KernelReport {
        KernelReport::PageFault {
            addr,
            is_write,
            origin: ReportOrigin::ProgramAccess,
        }
    }

    fn kind_of(divs: &[KernelReport]) -> Option<SanDivergenceKind> {
        divs.iter().find_map(|r| match r {
            KernelReport::SanitizerDivergence { kind, .. } => Some(*kind),
            _ => None,
        })
    }

    #[test]
    fn identical_clean_runs_agree() {
        let s = view(Some(HaltReason::Exit), &[]);
        let u = view(Some(HaltReason::Exit), &[]);
        assert!(compare(&s, &u).is_empty());
    }

    #[test]
    fn step_contract_allows_instrumentation_only() {
        let mut s = view(Some(HaltReason::Exit), &[]);
        s.steps = 17;
        s.instrumented_steps = 7;
        let u = view(Some(HaltReason::Exit), &[]);
        assert!(compare(&s, &u).is_empty());
        s.instrumented_steps = 6;
        assert_eq!(
            kind_of(&compare(&s, &u)),
            Some(SanDivergenceKind::StepMismatch)
        );
    }

    #[test]
    fn exec_hash_mismatch_flagged_before_steps() {
        let mut s = view(Some(HaltReason::Exit), &[]);
        s.exec_hash = 2;
        s.steps = 999; // also violates the step contract
        let u = view(Some(HaltReason::Exit), &[]);
        assert_eq!(
            kind_of(&compare(&s, &u)),
            Some(SanDivergenceKind::ExecMismatch)
        );
    }

    #[test]
    fn trap_vs_clean_is_san_abort() {
        let sr = [kasan(16, false)];
        let s = view(Some(HaltReason::SanitizerTrap), &sr);
        let u = view(Some(HaltReason::Exit), &[]);
        assert_eq!(kind_of(&compare(&s, &u)), Some(SanDivergenceKind::SanAbort));
    }

    #[test]
    fn consistent_fault_conversion_is_clean() {
        let sr = [kasan(0, true)];
        let ur = [pf(0, true)];
        let s = view(Some(HaltReason::SanitizerTrap), &sr);
        let u = view(Some(HaltReason::PageFault), &ur);
        assert!(compare(&s, &u).is_empty());
    }

    #[test]
    fn polarity_flip_is_fault_meta_mismatch() {
        let sr = [kasan(0, false)];
        let ur = [pf(0, true)];
        let s = view(Some(HaltReason::SanitizerTrap), &sr);
        let u = view(Some(HaltReason::PageFault), &ur);
        assert_eq!(
            kind_of(&compare(&s, &u)),
            Some(SanDivergenceKind::FaultMetaMismatch)
        );
    }

    #[test]
    fn masked_fault_and_unchecked_access() {
        let ur = [pf(8, false)];
        let s = view(Some(HaltReason::Exit), &[]);
        let u = view(Some(HaltReason::PageFault), &ur);
        assert_eq!(
            kind_of(&compare(&s, &u)),
            Some(SanDivergenceKind::MaskedFault)
        );

        let sr = [pf(8, false)];
        let s = view(Some(HaltReason::PageFault), &sr);
        let u = view(Some(HaltReason::Exit), &[]);
        assert_eq!(
            kind_of(&compare(&s, &u)),
            Some(SanDivergenceKind::UncheckedAccess)
        );
    }

    #[test]
    fn shared_report_difference_flagged_for_attach_triggers() {
        let sr = [KernelReport::Warn { reason: "w".into() }];
        let s = view(None, &sr);
        let u = view(None, &[]);
        assert_eq!(
            kind_of(&compare(&s, &u)),
            Some(SanDivergenceKind::ExecMismatch)
        );
        let u2 = view(None, &sr);
        assert!(compare(&s, &u2).is_empty());
    }

    #[test]
    fn stats_record_and_merge() {
        let mut a = SanStats {
            runs: 2,
            ..Default::default()
        };
        a.record(SanDivergenceKind::SanAbort);
        a.record(SanDivergenceKind::ExecMismatch);
        let mut b = SanStats::default();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.runs, 4);
        assert_eq!(b.divergences, 4);
        assert_eq!(b.san_abort, 2);
        assert_eq!(b.kind_total(), b.divergences);
    }

    #[test]
    fn matrix_covers_every_defect_once() {
        let cases = matrix_cases();
        assert_eq!(cases.len(), SanDefect::ALL.len());
        for (case, d) in cases.iter().zip(SanDefect::ALL) {
            assert_eq!(case.defect, d);
            assert!(!case.insns.is_empty());
        }
    }
}
