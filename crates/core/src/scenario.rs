//! Test scenarios: a self-contained, replayable unit of fuzzing work.
//!
//! A scenario bundles one generated program with the syscall sequence
//! around it (load, optional attach, trigger). Executing a scenario
//! always starts from a **fresh simulated kernel** with a standard
//! resource set, so outcomes are deterministic and replayable — the
//! property the oracle's differential triage relies on.

use serde::{Deserialize, Serialize};

use bvf_diff::DiffStats;
use bvf_isa::Program;
use bvf_kernel_sim::map::{MapDef, MapType};
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::tracepoint::{AttachPoint, Tracepoint};
use bvf_kernel_sim::{BugSet, KernelReport, SanDefectSet};
use bvf_runtime::{Backend, Bpf, BpfError, ExecScratch, ExecTrace, HaltReason};
use bvf_sancheck::{RunView, SanStats};
use bvf_telemetry::PhaseTimings;
use bvf_verifier::{Coverage, KernelVersion, VerifierOpts};

/// Memory pool size used for fuzzing kernels (smaller than the default
/// for iteration speed; large enough for the standard resources).
pub const FUZZ_POOL_SIZE: usize = 256 << 10;

/// The standard map set every scenario kernel provides.
///
/// fd 0: array, fd 1: hash, fd 2: ringbuf, fd 3: prog array.
pub fn standard_maps() -> Vec<MapDef> {
    vec![
        MapDef {
            map_type: MapType::Array,
            key_size: 4,
            value_size: 16,
            max_entries: 4,
        },
        MapDef {
            map_type: MapType::Hash,
            key_size: 8,
            value_size: 16,
            max_entries: 8,
        },
        MapDef {
            map_type: MapType::RingBuf,
            key_size: 0,
            value_size: 0,
            max_entries: 4096,
        },
        MapDef {
            map_type: MapType::ProgArray,
            key_size: 4,
            value_size: 4,
            max_entries: 4,
        },
    ]
}

/// What the scenario does once the program is loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trigger {
    /// `BPF_PROG_TEST_RUN`.
    TestRun,
    /// Attach to a tracepoint, then simulate the kernel reaching it.
    Tracepoint(Tracepoint),
    /// Attach as XDP, then simulate a packet arrival.
    XdpReceive,
    /// Retrieve the rewritten instructions (`prog_get_xlated`).
    GetXlated,
}

/// One replayable fuzzing scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The program under test.
    pub prog: Program,
    /// Its type.
    pub prog_type: ProgType,
    /// Whether to request device offload at load.
    pub offloaded: bool,
    /// How to exercise it after loading.
    pub trigger: Trigger,
    /// User-space map seeding: `(map_fd, key_le, value_le)` triples
    /// applied before the run.
    pub map_seed: Vec<(u32, Vec<u8>, Vec<u8>)>,
}

impl Scenario {
    /// A plain test-run scenario.
    pub fn test_run(prog: Program, prog_type: ProgType) -> Scenario {
        Scenario {
            prog,
            prog_type,
            offloaded: false,
            trigger: Trigger::TestRun,
            map_seed: Vec::new(),
        }
    }
}

/// Everything one scenario execution produced.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The verifier verdict (`Ok(prog_id)` or the rejection).
    pub load: Result<u32, BpfError>,
    /// Verifier coverage exercised (present for rejected programs too).
    pub cov: Coverage,
    /// Kernel reports from attach/trigger/run.
    pub reports: Vec<KernelReport>,
    /// Why execution halted (when the program ran).
    pub halt: Option<HaltReason>,
    /// Whether the attach step was refused.
    pub attach_rejected: bool,
    /// Instructions processed by the verifier.
    pub verifier_insns: usize,
    /// Wall time per verifier/rewrite phase for this load attempt.
    pub timings: PhaseTimings,
    /// Interpreter steps executed (test-run trigger only; 0 otherwise).
    pub exec_steps: u64,
    /// Helper invocations during execution (test-run trigger only).
    pub helper_calls: u64,
    /// Kfunc invocations during execution (test-run trigger only).
    pub kfunc_calls: u64,
    /// Differential-oracle counters (all zero unless the scenario ran
    /// with [`RunConfig::diff_oracle`]). A divergence also appears in
    /// `reports` as [`KernelReport::StateDivergence`].
    pub diff: DiffStats,
    /// FNV fold of the observable execution (test-run trigger only).
    pub exec_hash: u64,
    /// Executed instructions the sanitation rewrite emitted (test-run
    /// trigger only; always 0 on unsanitized runs).
    pub instrumented_steps: u64,
    /// Sanitizer self-validation counters (all zero unless the scenario
    /// ran under [`Sanitation::Dual`]). A divergence also appears in
    /// `reports` as [`KernelReport::SanitizerDivergence`].
    pub san: SanStats,
}

impl ScenarioOutcome {
    /// Whether the program passed verification.
    pub fn accepted(&self) -> bool {
        self.load.is_ok()
    }
}

/// How a run applies BVF's sanitation instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sanitation {
    /// Unsanitized (`--no-sanitize`).
    Off,
    /// Sanitized: the instrumentation is compiled in (the default).
    On,
    /// The `bvf-sancheck` dual-execution oracle (`--san-diff`): the
    /// scenario runs sanitized, then unsanitized, on the same kernel
    /// configuration, and any disagreement beyond the documented
    /// instrumentation delta is appended to the sanitized outcome's
    /// reports as [`KernelReport::SanitizerDivergence`].
    ///
    /// The set arms seeded sanitizer defects in **both** runs' kernels
    /// (defects are kernel properties; sanitation on/off is the
    /// differential axis). Campaigns arm none: on a correct sanitizer
    /// any divergence is a finding.
    Dual(SanDefectSet),
}

/// Everything that decides how a scenario executes, so one config
/// replays a finding to the same verdict. Campaigns derive it once
/// ([`CampaignConfig::run_config`](crate::fuzz::CampaignConfig::run_config));
/// triage, minimization and `bvf replay` take it as given.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Injected defects in the kernel.
    pub bugs: BugSet,
    /// Kernel version under test.
    pub version: KernelVersion,
    /// Sanitation mode, the dual-execution oracle included.
    pub sanitation: Sanitation,
    /// Whether the abstract-vs-concrete differential oracle is armed:
    /// the verifier records per-instruction abstract-state snapshots,
    /// the backend records a concrete register trace (test-run trigger
    /// only), and a concretization-membership violation is appended to
    /// `reports` as [`KernelReport::StateDivergence`] (Indicator #3).
    /// Under [`Sanitation::Dual`] it watches the sanitized run.
    pub diff_oracle: bool,
    /// Whether the verifier's fingerprint-bucketed explored-state index
    /// is on. A pure filter: verdicts and findings are identical either
    /// way; only the number of `states_equal` calls changes.
    pub prune_index: bool,
    /// Which engine executes accepted programs. The backends produce
    /// identical outcomes, except under seeded defects of the compiled
    /// engine itself.
    pub backend: Backend,
}

impl RunConfig {
    /// A sanitized bpf-next run on the interpreter, diff oracle off and
    /// prune index on. Override fields with struct update syntax.
    pub fn new(bugs: BugSet) -> RunConfig {
        RunConfig {
            bugs,
            version: KernelVersion::BpfNext,
            sanitation: Sanitation::On,
            diff_oracle: false,
            prune_index: true,
            backend: Backend::Interp,
        }
    }
}

/// Executes a scenario on a fresh kernel under `cfg`.
///
/// `scratch` recycles an [`ExecScratch`]'s buffers (memory pool, KASAN
/// shadow, trace steps) instead of allocating fresh ones: the
/// campaign's per-iteration hot path. Recycling is invisible; outcomes
/// are bit-identical either way.
pub fn run(
    scenario: &Scenario,
    cfg: &RunConfig,
    mut scratch: Option<&mut ExecScratch>,
) -> ScenarioOutcome {
    // A dual run makes two passes over one kernel configuration:
    // sanitized (with the diff oracle, if armed), then unsanitized.
    let (defects, passes) = match cfg.sanitation {
        Sanitation::Dual(defects) => (defects, 2),
        _ => (SanDefectSet::none(), 1),
    };
    let mut outcomes = Vec::with_capacity(passes);
    for pass in 0..passes {
        let sanitize = pass == 0 && cfg.sanitation != Sanitation::Off;
        let diff_oracle = pass == 0 && cfg.diff_oracle;
        let opts = VerifierOpts {
            version: cfg.version,
            snapshots: diff_oracle,
            prune_index: cfg.prune_index,
            ..Default::default()
        };
        // Boot a fuzzing-sized kernel (smaller pool for iteration
        // speed), recycling the previous iteration's buffers when a
        // scratch is given.
        let mut kernel = match scratch.as_deref_mut() {
            Some(s) => s.boot_kernel(cfg.bugs.clone(), FUZZ_POOL_SIZE),
            None => bvf_kernel_sim::Kernel::with_pool_size(cfg.bugs.clone(), FUZZ_POOL_SIZE),
        };
        kernel.mm.san_defects = defects;
        let mut bpf = Bpf::with_kernel(kernel, opts, sanitize).with_backend(cfg.backend);
        for def in standard_maps() {
            bpf.map_create(def).expect("standard maps fit");
        }
        for (fd, key, value) in &scenario.map_seed {
            let _ = bpf.map_update(*fd, key, value);
        }

        let (load, cov, timings) = bpf.prog_load_with_cov(&scenario.prog, scenario.prog_type);
        let load = match (load, scenario.offloaded) {
            (Ok(id), true) => {
                bpf.progs[id as usize].offloaded = true;
                Ok(id)
            }
            (r, _) => r,
        };
        let verifier_insns = match &load {
            Ok(id) => bpf.progs[*id as usize].xlated.insns_processed,
            Err(_) => 0,
        };

        // The per-instruction abstract states the verifier proved for
        // this program (snapshots enabled only in diff-oracle mode).
        let snapshots = if diff_oracle {
            bpf.take_snapshots()
        } else {
            None
        };

        let mut reports = Vec::new();
        let mut halt = None;
        let mut attach_rejected = false;
        let mut exec_steps = 0u64;
        let mut helper_calls = 0u64;
        let mut kfunc_calls = 0u64;
        let mut diff = DiffStats::default();
        let mut exec_hash = 0u64;
        let mut instrumented_steps = 0u64;

        if let Ok(id) = load {
            match scenario.trigger {
                Trigger::TestRun => {
                    let mut local_trace = ExecTrace::default();
                    let trace: &mut ExecTrace = match scratch.as_deref_mut() {
                        Some(s) if diff_oracle => s.trace_mut(),
                        _ => &mut local_trace,
                    };
                    let run = if diff_oracle {
                        bpf.test_run_traced(id, &mut *trace)
                    } else {
                        bpf.test_run(id)
                    };
                    match run {
                        Ok(run) => {
                            reports.extend(run.reports);
                            halt = Some(run.exec.halt);
                            exec_steps = run.exec.steps;
                            helper_calls = run.exec.helper_calls;
                            kfunc_calls = run.exec.kfunc_calls;
                            exec_hash = run.exec.exec_hash;
                            instrumented_steps = run.exec.instrumented_steps;
                        }
                        Err(_) => {
                            reports.extend(bpf.kernel.end_execution());
                        }
                    }
                    // Membership check: every traced register value must
                    // lie inside the abstract state the verifier proved
                    // for that instruction (on at least one explored
                    // path). The trace prefix stays valid whatever halted
                    // execution — each step was recorded before its
                    // instruction ran.
                    if let Some(snaps) = &snapshots {
                        if let Some(image) = bpf.image(id) {
                            let (stats, divergence) = bvf_diff::check(snaps, trace, image.meta());
                            diff = stats;
                            if let Some(d) = divergence {
                                reports.push(KernelReport::StateDivergence {
                                    pc: d.pc,
                                    reg: d.reg,
                                    abstract_state: d.abstract_state,
                                    concrete: d.concrete,
                                });
                            }
                        }
                    }
                }
                Trigger::Tracepoint(tp) => match bpf.prog_attach(id, AttachPoint::Tracepoint(tp)) {
                    Ok(()) => reports.extend(bpf.trigger_tracepoint(tp)),
                    Err(_) => attach_rejected = true,
                },
                Trigger::XdpReceive => {
                    match bpf.prog_attach(
                        id,
                        AttachPoint::Xdp {
                            offloaded: scenario.offloaded,
                        },
                    ) {
                        Ok(()) => reports.extend(bpf.xdp_receive()),
                        Err(_) => attach_rejected = true,
                    }
                }
                Trigger::GetXlated => {
                    let _ = bpf.prog_get_xlated(id);
                    reports.extend(bpf.kernel.end_execution());
                }
            }
        }

        // Hand the kernel's buffers back for the next iteration.
        if let Some(s) = scratch.as_deref_mut() {
            s.reclaim(bpf);
        }

        outcomes.push(ScenarioOutcome {
            load,
            cov,
            reports,
            halt,
            attach_rejected,
            verifier_insns,
            timings,
            exec_steps,
            helper_calls,
            kfunc_calls,
            diff,
            exec_hash,
            instrumented_steps,
            san: SanStats::default(),
        });
    }

    let mut outcomes = outcomes.into_iter();
    let mut primary = outcomes.next().expect("the first pass always runs");
    let Some(secondary) = outcomes.next() else {
        return primary;
    };
    let mut san = SanStats::default();
    if primary.accepted() != secondary.accepted() {
        // Sanitation must never change the load verdict: instrumentation
        // happens after verification.
        san.runs = 1;
        let kind = bvf_kernel_sim::report::SanDivergenceKind::ExecMismatch;
        san.record(kind);
        primary.reports.push(KernelReport::SanitizerDivergence {
            kind,
            detail: format!(
                "load verdicts differ: sanitized accepted={} unsanitized accepted={}",
                primary.accepted(),
                secondary.accepted()
            ),
        });
    } else if primary.accepted() {
        san.runs = 1;
        let divergences = bvf_sancheck::compare(
            &RunView {
                halt: primary.halt,
                exec_hash: primary.exec_hash,
                steps: primary.exec_steps,
                instrumented_steps: primary.instrumented_steps,
                helper_calls: primary.helper_calls,
                kfunc_calls: primary.kfunc_calls,
                reports: &primary.reports,
            },
            &RunView {
                halt: secondary.halt,
                exec_hash: secondary.exec_hash,
                steps: secondary.exec_steps,
                instrumented_steps: secondary.instrumented_steps,
                helper_calls: secondary.helper_calls,
                kfunc_calls: secondary.kfunc_calls,
                reports: &secondary.reports,
            },
        );
        for d in &divergences {
            if let KernelReport::SanitizerDivergence { kind, .. } = d {
                san.record(*kind);
            }
        }
        primary.reports.extend(divergences);
    }
    primary.san = san;
    primary
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_isa::{asm, Reg};

    fn trivial() -> Scenario {
        Scenario::test_run(
            Program::from_insns(vec![asm::mov64_imm(Reg::R0, 0), asm::exit()]),
            ProgType::SocketFilter,
        )
    }

    #[test]
    fn scenario_runs_deterministically() {
        let cfg = RunConfig::new(BugSet::none());
        let a = run(&trivial(), &cfg, None);
        let b = run(&trivial(), &cfg, None);
        assert!(a.accepted() && b.accepted());
        assert_eq!(a.cov, b.cov);
        assert_eq!(a.reports, b.reports);
        assert_eq!(a.halt, b.halt);
    }

    #[test]
    fn rejected_program_still_yields_coverage() {
        let s = Scenario::test_run(
            Program::from_insns(vec![asm::mov64_reg(Reg::R0, Reg::R5), asm::exit()]),
            ProgType::SocketFilter,
        );
        let out = run(&s, &RunConfig::new(BugSet::none()), None);
        assert!(!out.accepted());
        assert!(!out.cov.is_empty());
    }

    #[test]
    fn map_seed_applied() {
        let mut insns = vec![asm::mov64_imm(Reg::R0, 0)];
        insns.extend(asm::ld_map_fd(Reg::R1, 0));
        insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
        insns.push(asm::alu64_imm(bvf_isa::AluOp::Add, Reg::R2, -8));
        insns.push(asm::st_mem(bvf_isa::Size::W, Reg::R2, 0, 0));
        insns.push(asm::call_helper(1));
        insns.push(asm::jmp_imm(bvf_isa::JmpOp::Jeq, Reg::R0, 0, 1));
        insns.push(asm::ldx_mem(bvf_isa::Size::Dw, Reg::R0, Reg::R0, 0));
        insns.push(asm::exit());
        let mut s = Scenario::test_run(Program::from_insns(insns), ProgType::SocketFilter);
        let mut value = 0x55u64.to_le_bytes().to_vec();
        value.extend([0u8; 8]);
        s.map_seed.push((0, 0u32.to_le_bytes().to_vec(), value));
        let out = run(&s, &RunConfig::new(BugSet::none()), None);
        assert!(out.accepted());
        assert!(out.reports.is_empty());
    }
}
