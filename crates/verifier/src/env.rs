//! Verifier environment, options, and output types.

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use bvf_isa::{InsnKind, Program, Reg};
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::Kernel;

use crate::cov::Coverage;

/// Simulated kernel version under test — gates verifier features the way
/// the paper's three targets (v5.15, v6.1, bpf-next) differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelVersion {
    /// Linux v5.15: no kfunc calls, no sign-extending loads.
    V5_15,
    /// Linux v6.1: kfunc calls enabled.
    V6_1,
    /// bpf-next: kfuncs, sign-extending loads, and the newest helpers.
    BpfNext,
}

impl KernelVersion {
    /// All versions used in the coverage experiment.
    pub const ALL: [KernelVersion; 3] = [
        KernelVersion::V5_15,
        KernelVersion::V6_1,
        KernelVersion::BpfNext,
    ];

    /// Whether kfunc calls are supported.
    pub fn has_kfuncs(self) -> bool {
        !matches!(self, KernelVersion::V5_15)
    }

    /// Whether `BPF_MEMSX` sign-extending loads are supported.
    pub fn has_memsx(self) -> bool {
        matches!(self, KernelVersion::BpfNext)
    }

    /// Whether a helper id is available in this version.
    pub fn helper_available(self, id: u32) -> bool {
        use bvf_kernel_sim::helpers::proto::ids;
        match id {
            ids::MAP_SUM_VALUES => matches!(self, KernelVersion::BpfNext),
            ids::RINGBUF_RESERVE | ids::RINGBUF_SUBMIT | ids::RINGBUF_DISCARD => {
                !matches!(self, KernelVersion::V5_15)
            }
            _ => true,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            KernelVersion::V5_15 => "v5.15",
            KernelVersion::V6_1 => "v6.1",
            KernelVersion::BpfNext => "bpf-next",
        }
    }
}

/// Verifier options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerifierOpts {
    /// Kernel version feature set.
    pub version: KernelVersion,
    /// Maximum instructions processed across all paths before the program
    /// is rejected as too complex (`BPF_COMPLEXITY_LIMIT_INSNS` analog).
    pub insn_limit: usize,
    /// Whether to retain a verification log.
    pub log: bool,
    /// Unprivileged load (`!CAP_BPF`): pointer leaks, pointer
    /// comparisons, partial pointer copies, and unknown-sign pointer
    /// arithmetic are rejected, and only socket-filter-class program
    /// types may load.
    pub unprivileged: bool,
    /// Record per-instruction abstract-state snapshots during the main
    /// walk (consumed by the `bvf-diff` differential oracle). Off by
    /// default: plain loads pay nothing.
    pub snapshots: bool,
    /// Use the fingerprint-bucketed explored-state index to skip
    /// `states_equal` candidates whose structural shape cannot subsume
    /// the current state. A pure filter — verdicts, coverage, and
    /// findings are identical with it off (the slow path exists for
    /// differential testing and benchmarks).
    pub prune_index: bool,
}

impl Default for VerifierOpts {
    fn default() -> Self {
        VerifierOpts {
            version: KernelVersion::BpfNext,
            insn_limit: 100_000,
            log: false,
            unprivileged: false,
            snapshots: false,
            prune_index: true,
        }
    }
}

/// Per-instruction metadata computed during verification, consumed by the
/// fixup pass, BVF's sanitation instrumentation, and the runtime.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct InsnMeta {
    /// This load/store should be sanitized (it is a real memory access
    /// whose target is not a verifier-constant stack slot).
    pub sanitize_mem: bool,
    /// Access is through a BTF pointer: the JIT attaches an exception
    /// table entry, so a faulting access reads zero instead of oopsing.
    pub ex_handled: bool,
    /// The access is `R10`-based with a constant offset — provably inside
    /// the stack, skipped by the instrumentation-reduction strategy.
    pub stack_const: bool,
    /// Runtime `alu_limit` assertion for a pointer-arithmetic instruction.
    pub alu_limit: Option<AluLimitMeta>,
    /// The instruction was emitted by a rewrite pass (not original program
    /// text); instrumentation skips it.
    pub emitted_by_rewrite: bool,
}

/// Runtime bound for a sanitized pointer-ALU instruction: the verifier
/// concluded `|scalar| <= limit` must hold; BVF emits a runtime assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AluLimitMeta {
    /// Inclusive magnitude bound on the scalar operand.
    pub limit: u64,
    /// The register holding the scalar operand.
    pub scalar_reg: Reg,
    /// True when the scalar moves the pointer downwards (subtract of a
    /// non-negative scalar, or add of a non-positive one).
    pub downward: bool,
    /// True for `SUB`: the runtime operand's sign is opposite to the
    /// pointer movement, so the emitted check negates it first.
    pub negate: bool,
}

/// A successfully verified (and rewritten) program.
#[derive(Debug, Clone)]
pub struct VerifiedProgram {
    /// The rewritten program (pseudo loads resolved to addresses).
    pub prog: Program,
    /// Program type it was verified for.
    pub prog_type: ProgType,
    /// Per-slot metadata (same length as `prog.insn_count()`).
    pub insn_meta: Vec<InsnMeta>,
    /// Helper ids the program calls.
    pub used_helpers: BTreeSet<u32>,
    /// Kfunc ids the program calls.
    pub used_kfuncs: BTreeSet<u32>,
    /// Map ids referenced by the program.
    pub used_maps: BTreeSet<u32>,
    /// Instructions processed during verification (complexity measure).
    pub insns_processed: usize,
    /// The verification log (empty unless `VerifierOpts::log`).
    pub log: Vec<String>,
}

/// The verifier working state for one program (`bpf_verifier_env`).
pub struct Verifier<'a> {
    /// The kernel whose tables (maps, BTF, helper protos) validation runs
    /// against.
    pub(crate) kernel: &'a Kernel,
    /// Options.
    pub(crate) opts: VerifierOpts,
    /// Working copy of the program; fixup rewrites it in place.
    pub(crate) prog: Program,
    /// Program type.
    pub(crate) prog_type: ProgType,
    /// Each instruction decoded once, indexed by the slot it starts
    /// at; `None` for a slot that starts no instruction (the second
    /// slot of an `LD_IMM64`).
    pub(crate) decoded: Vec<Option<(InsnKind, usize)>>,
    /// Coverage collected during this verification.
    pub cov: Coverage,
    /// Verification log.
    pub(crate) log: Vec<String>,
    /// Id allocator for nullable pointers, references, scalar links.
    pub(crate) next_id: u32,
    /// Per-slot metadata.
    pub(crate) insn_meta: Vec<InsnMeta>,
    /// States remembered at each prune point, bucketed by fingerprint,
    /// indexed by slot; `Some` exactly at the prune points (control-flow
    /// joins, back-edge targets and subprogram entries).
    pub(crate) explored: Vec<Option<crate::shape::ExploredPoint>>,
    /// Instructions processed so far.
    pub(crate) insn_processed: usize,
    /// Helper ids seen.
    pub(crate) used_helpers: BTreeSet<u32>,
    /// Kfunc ids seen.
    pub(crate) used_kfuncs: BTreeSet<u32>,
    /// Map ids referenced.
    pub(crate) used_maps: BTreeSet<u32>,
    /// Register state being stored by the current `STX` instruction, used
    /// by the stack arm for precise spill tracking.
    pub(crate) stack_spill_candidate: Option<crate::types::RegState>,
    /// Per-instruction `alu_limit` merge state across explored paths:
    /// `Some(meta)` = all paths so far agree (limits widened to the max),
    /// `None` = paths disagree on direction/operand or a path has no
    /// derivable limit — the runtime check is dropped (the kernel's
    /// `REASON_PATHS` situation).
    pub(crate) alu_limit_state: HashMap<usize, Option<AluLimitMeta>>,
    /// Wall-time per verification phase; observational only — no pass
    /// reads it back, so timing noise cannot change a verdict.
    pub timings: bvf_telemetry::PhaseTimings,
    /// Per-instruction abstract-state snapshots of the main walk; empty
    /// unless [`VerifierOpts::snapshots`] is set.
    pub snapshots: crate::snapshot::SnapshotStream,
}

impl<'a> Verifier<'a> {
    /// Creates a verifier for one load attempt.
    pub fn new(
        kernel: &'a Kernel,
        prog: &Program,
        prog_type: ProgType,
        opts: VerifierOpts,
    ) -> Verifier<'a> {
        let n = prog.insn_count();
        let snapshots = if opts.snapshots {
            crate::snapshot::SnapshotStream::new(n)
        } else {
            crate::snapshot::SnapshotStream::default()
        };
        Verifier {
            kernel,
            opts,
            prog: prog.clone(),
            prog_type,
            decoded: Vec::new(),
            cov: Coverage::new(),
            log: Vec::new(),
            next_id: 0,
            insn_meta: vec![InsnMeta::default(); n],
            explored: Vec::new(),
            insn_processed: 0,
            used_helpers: BTreeSet::new(),
            used_kfuncs: BTreeSet::new(),
            used_maps: BTreeSet::new(),
            stack_spill_candidate: None,
            alu_limit_state: HashMap::new(),
            timings: bvf_telemetry::PhaseTimings::default(),
            snapshots,
        }
    }

    /// Allocates a fresh id.
    pub(crate) fn new_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Appends a log line when logging is enabled.
    pub(crate) fn logln(&mut self, msg: impl FnOnce() -> String) {
        if self.opts.log {
            self.log.push(msg());
        }
    }

    /// Whether an injected verifier defect is present in this kernel.
    pub(crate) fn has_bug(&self, bug: bvf_kernel_sim::BugId) -> bool {
        self.kernel.has_bug(bug)
    }
}
