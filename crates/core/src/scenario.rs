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
use bvf_kernel_sim::report::SanDivergenceKind;
use bvf_kernel_sim::tracepoint::{AttachPoint, Tracepoint};
use bvf_kernel_sim::{BugSet, KernelReport, SanDefectSet};
use bvf_runtime::{Bpf, BpfError, ExecScratch, HaltReason};
use bvf_sancheck::{RunView, SanStats};
use bvf_telemetry::PhaseTimings;
use bvf_verifier::{Coverage, KernelVersion, SnapshotStream, VerifierOpts};

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
    /// program is verified once, then the verified program runs
    /// sanitized and unsanitized on two fresh kernels of one
    /// configuration, and any disagreement beyond the documented
    /// instrumentation delta is appended to the sanitized outcome's
    /// reports as [`KernelReport::SanitizerDivergence`]. A rejected
    /// program makes no unsanitized pass.
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
    /// the interpreter records a concrete register trace (test-run
    /// trigger only), and a concretization-membership violation is
    /// appended to `reports` as [`KernelReport::StateDivergence`]
    /// (Indicator #3).
    /// Under [`Sanitation::Dual`] it watches the sanitized run.
    pub diff_oracle: bool,
    /// Whether the verifier's fingerprint-bucketed explored-state index
    /// is on. A pure filter: verdicts and findings are identical either
    /// way; only the number of `states_equal` calls changes.
    pub prune_index: bool,
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
        }
    }
}

/// Executes a scenario on a fresh kernel under `cfg`.
///
/// Every boot recycles `scratch`'s buffers (memory pool, KASAN shadow,
/// trace steps) instead of allocating fresh ones. Recycling is
/// invisible: a recycled boot is bit-identical to a fresh one, so any
/// scratch, new or used, gives the same outcome.
pub fn run(scenario: &Scenario, cfg: &RunConfig, scratch: &mut ExecScratch) -> ScenarioOutcome {
    let defects = match cfg.sanitation {
        Sanitation::Dual(defects) => defects,
        _ => SanDefectSet::none(),
    };
    let mut bpf = boot(
        scenario,
        cfg,
        defects,
        cfg.sanitation != Sanitation::Off,
        scratch,
    );
    let verified = bvf_verifier::verify(&bpf.kernel, &scenario.prog, scenario.prog_type, &bpf.opts);
    let mut timings = verified.timings;
    // Sanitation rewrites a program the verifier already accepted, so a
    // dual run verifies once and keeps a copy for the unsanitized pass.
    // A rejection ends the run: the unsanitized side would reject too.
    let (load, unsanitized) = match verified.result {
        Ok(vprog) => {
            let copy = matches!(cfg.sanitation, Sanitation::Dual(_)).then(|| vprog.clone());
            (bpf.prog_install(vprog, &mut timings), copy)
        }
        Err(e) => (Err(BpfError::Verifier(e)), None),
    };
    // The per-instruction abstract states the verifier proved for this
    // program, checked against the sanitized run's concrete trace.
    let snapshots = cfg.diff_oracle.then_some(&verified.snapshots);
    let mut exec = execute(bpf, &load, scenario, snapshots, scratch);

    let san = match unsanitized {
        Some(vprog) => {
            let mut raw = boot(scenario, cfg, defects, false, scratch);
            let raw_load = raw.prog_install(vprog, &mut PhaseTimings::default());
            let raw_exec = execute(raw, &raw_load, scenario, None, scratch);
            compare_passes(&mut exec, load.is_ok(), &raw_exec, raw_load.is_ok())
        }
        None => SanStats::default(),
    };

    ScenarioOutcome {
        load,
        cov: verified.cov,
        reports: exec.reports,
        halt: exec.halt,
        attach_rejected: exec.attach_rejected,
        verifier_insns: verified.insns_processed,
        timings,
        exec_steps: exec.steps,
        helper_calls: exec.helper_calls,
        kfunc_calls: exec.kfunc_calls,
        diff: exec.diff,
        exec_hash: exec.exec_hash,
        instrumented_steps: exec.instrumented_steps,
        san,
    }
}

/// Boots a fuzzing-sized kernel (smaller pool for iteration speed) on
/// `scratch`'s recycled buffers, with the standard maps and the
/// scenario's map seeding.
fn boot(
    scenario: &Scenario,
    cfg: &RunConfig,
    defects: SanDefectSet,
    sanitize: bool,
    scratch: &mut ExecScratch,
) -> Bpf {
    let mut kernel = scratch.boot_kernel(cfg.bugs.clone(), FUZZ_POOL_SIZE);
    kernel.mm.san_defects = defects;
    let opts = VerifierOpts {
        version: cfg.version,
        snapshots: cfg.diff_oracle,
        prune_index: cfg.prune_index,
        ..Default::default()
    };
    let mut bpf = Bpf::with_kernel(kernel, opts, sanitize);
    for def in standard_maps() {
        bpf.map_create(def).expect("standard maps fit");
    }
    for (fd, key, value) in &scenario.map_seed {
        let _ = bpf.map_update(*fd, key, value);
    }
    bpf
}

/// What exercising one loaded program produced; all empty when the load
/// failed.
#[derive(Default)]
struct Exec {
    reports: Vec<KernelReport>,
    halt: Option<HaltReason>,
    attach_rejected: bool,
    steps: u64,
    helper_calls: u64,
    kfunc_calls: u64,
    diff: DiffStats,
    exec_hash: u64,
    instrumented_steps: u64,
}

impl Exec {
    fn view(&self) -> RunView<'_> {
        RunView {
            halt: self.halt,
            exec_hash: self.exec_hash,
            steps: self.steps,
            instrumented_steps: self.instrumented_steps,
            helper_calls: self.helper_calls,
            kfunc_calls: self.kfunc_calls,
            reports: &self.reports,
        }
    }
}

/// Runs the scenario's trigger against the loaded program, then hands
/// the kernel's buffers back to `scratch`. With `snapshots` (the diff
/// oracle) a test run is traced into `scratch`'s trace buffer and
/// checked against them.
fn execute(
    mut bpf: Bpf,
    load: &Result<u32, BpfError>,
    scenario: &Scenario,
    snapshots: Option<&SnapshotStream>,
    scratch: &mut ExecScratch,
) -> Exec {
    let mut exec = Exec::default();
    if let Ok(id) = *load {
        bpf.progs[id as usize].offloaded = scenario.offloaded;
        match scenario.trigger {
            Trigger::TestRun => {
                let trace = scratch.trace_mut();
                let run = if snapshots.is_some() {
                    bpf.test_run_traced(id, &mut *trace)
                } else {
                    bpf.test_run(id)
                };
                match run {
                    Ok(run) => {
                        exec.reports.extend(run.reports);
                        exec.halt = Some(run.exec.halt);
                        exec.steps = run.exec.steps;
                        exec.helper_calls = run.exec.helper_calls;
                        exec.kfunc_calls = run.exec.kfunc_calls;
                        exec.exec_hash = run.exec.exec_hash;
                        exec.instrumented_steps = run.exec.instrumented_steps;
                    }
                    Err(_) => {
                        exec.reports.extend(bpf.kernel.end_execution());
                    }
                }
                // Membership check: every traced register value must
                // lie inside the abstract state the verifier proved for
                // that instruction (on at least one explored path). The
                // trace prefix stays valid whatever halted execution —
                // each step was recorded before its instruction ran.
                if let (Some(snaps), Some(image)) = (snapshots, bpf.image(id)) {
                    let (stats, divergence) = bvf_diff::check(snaps, trace, image.meta());
                    exec.diff = stats;
                    if let Some(d) = divergence {
                        exec.reports.push(KernelReport::StateDivergence {
                            pc: d.pc,
                            reg: d.reg,
                            abstract_state: d.abstract_state,
                            concrete: d.concrete,
                        });
                    }
                }
            }
            Trigger::Tracepoint(tp) => match bpf.prog_attach(id, AttachPoint::Tracepoint(tp)) {
                Ok(()) => exec.reports.extend(bpf.trigger_tracepoint(tp)),
                Err(_) => exec.attach_rejected = true,
            },
            Trigger::XdpReceive => {
                let point = AttachPoint::Xdp {
                    offloaded: scenario.offloaded,
                };
                match bpf.prog_attach(id, point) {
                    Ok(()) => exec.reports.extend(bpf.xdp_receive()),
                    Err(_) => exec.attach_rejected = true,
                }
            }
            Trigger::GetXlated => {
                let _ = bpf.prog_get_xlated(id);
                exec.reports.extend(bpf.kernel.end_execution());
            }
        }
    }
    scratch.reclaim(bpf);
    exec
}

/// The dual-execution verdict: appends any disagreement between the
/// sanitized and unsanitized passes to the sanitized pass's reports as
/// [`KernelReport::SanitizerDivergence`] and counts it.
fn compare_passes(san: &mut Exec, san_loaded: bool, raw: &Exec, raw_loaded: bool) -> SanStats {
    let mut stats = SanStats {
        runs: 1,
        ..SanStats::default()
    };
    let divergences = if san_loaded != raw_loaded {
        // Both passes install the same verified program, so only a
        // failed sanitation rewrite can split the load verdicts.
        vec![KernelReport::SanitizerDivergence {
            kind: SanDivergenceKind::ExecMismatch,
            detail: format!(
                "load verdicts differ: sanitized accepted={san_loaded} \
                 unsanitized accepted={raw_loaded}"
            ),
        }]
    } else {
        bvf_sancheck::compare(&san.view(), &raw.view())
    };
    for d in &divergences {
        if let KernelReport::SanitizerDivergence { kind, .. } = d {
            stats.record(*kind);
        }
    }
    san.reports.extend(divergences);
    stats
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
        let a = run(&trivial(), &cfg, &mut ExecScratch::new());
        let b = run(&trivial(), &cfg, &mut ExecScratch::new());
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
        let out = run(&s, &RunConfig::new(BugSet::none()), &mut ExecScratch::new());
        assert!(!out.accepted());
        assert!(!out.cov.is_empty());
    }

    #[test]
    fn load_verdict_mismatch_is_a_divergence() {
        // Only a failed sanitation rewrite splits the verdicts, which
        // generated programs never hit; pin the fold directly.
        let mut san = Exec::default();
        let stats = compare_passes(&mut san, false, &Exec::default(), true);
        assert_eq!(
            (stats.runs, stats.divergences, stats.exec_mismatch),
            (1, 1, 1)
        );
        assert!(matches!(
            san.reports.as_slice(),
            [KernelReport::SanitizerDivergence {
                kind: SanDivergenceKind::ExecMismatch,
                ..
            }]
        ));
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
        let out = run(&s, &RunConfig::new(BugSet::none()), &mut ExecScratch::new());
        assert!(out.accepted());
        assert!(out.reports.is_empty());
    }
}
