//! The eBPF execution engine — a faithful stand-in for JITed native code.
//!
//! Crucially, this interpreter performs **no safety checks of its own**:
//! loads and stores go straight to the simulated physical pool
//! ([`bvf_kernel_sim::mem::MemPool::raw_read`]), exactly like compiled
//! machine code. An unmapped address is a hard page fault (oops) unless
//! the instruction carries an exception-table entry; a *mapped but
//! invalid* access (redzone, freed chunk, out-of-bounds map value)
//! silently succeeds — it can only be observed through BVF's sanitation
//! dispatch to the `bpf_asan_*` functions.

use std::collections::HashMap;

use bvf_isa::decode::SourceOperandValue;
use bvf_isa::{AluOp, AtomicOp, CallTarget, Endianness, InsnKind, JmpOp, Program, Reg, Size};
use bvf_kernel_sim::helpers::asan::{self, ids as asan_ids, AsanOutcome};
use bvf_kernel_sim::helpers::impls::{call_helper, HelperEnv};
use bvf_kernel_sim::helpers::kfunc::call_kfunc;
use bvf_kernel_sim::map::MapStorage;
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::sandefect::SanDefect;
use bvf_kernel_sim::tracepoint::Tracepoint;
use bvf_kernel_sim::Kernel;
use bvf_verifier::sanitize::{EXT_SLOT_R0, EXT_STACK_BYTES};
use bvf_verifier::InsnMeta;

use bvf_isa::reg::STACK_SIZE;

/// Per-execution step budget (runaway guard, not a semantic limit).
pub const STEP_LIMIT: u64 = 200_000;

/// Maximum chained tail calls (`MAX_TAIL_CALL_CNT`).
pub const TAIL_CALL_LIMIT: u32 = 33;

/// Maximum tracepoint re-entry depth before the engine refuses to nest
/// further (the simulated recursion guard; lockdep usually fires first).
pub const MAX_TP_DEPTH: u32 = 4;

/// A loaded program as the runtime executes it.
///
/// Built through [`ExecImage::new`], which pre-decodes the instruction
/// stream once. The instruction stream and metadata are private — a
/// mutation after build would desynchronize the decode cache, so loaded
/// images are immutable; read access goes through [`ExecImage::prog`] /
/// [`ExecImage::meta`].
#[derive(Debug, Clone)]
pub struct ExecImage {
    /// The (possibly sanitized) instruction stream.
    prog: Program,
    /// Per-slot metadata (exception-table entries, rewrite marks).
    meta: Vec<InsnMeta>,
    /// Program type.
    pub prog_type: ProgType,
    /// Per-slot decode cache: entry `pc` holds exactly what
    /// `prog.decode_at(pc)` would return there (`None` for undecodable
    /// positions), so the hot loop never re-decodes a replayed program.
    decoded: Vec<Option<(InsnKind, usize)>>,
}

impl ExecImage {
    /// Builds an execution image, pre-decoding every slot once.
    ///
    /// Rejects meta/instruction streams of different lengths: a
    /// desynchronized pair could silently attach the wrong
    /// exception-table entry or rewrite mark to an instruction.
    pub fn new(prog: Program, meta: Vec<InsnMeta>, prog_type: ProgType) -> ExecImage {
        assert_eq!(
            meta.len(),
            prog.insn_count(),
            "ExecImage meta must cover every instruction slot"
        );
        let decoded = (0..prog.insn_count())
            .map(|pc| prog.decode_at(pc).ok())
            .collect();
        ExecImage {
            prog,
            meta,
            prog_type,
            decoded,
        }
    }

    /// The (possibly sanitized) instruction stream.
    #[inline]
    pub fn prog(&self) -> &Program {
        &self.prog
    }

    /// Per-slot metadata (exception-table entries, rewrite marks).
    #[inline]
    pub fn meta(&self) -> &[InsnMeta] {
        &self.meta
    }

    /// The pre-decoded instruction starting at `pc` and its slot count.
    ///
    /// `pc` must be in-bounds: the executor validates every program
    /// counter before fetching (empty images never reach the fetch), so
    /// this is a single indexed read on the hot path.
    #[inline]
    fn decoded_at(&self, pc: usize) -> Option<(InsnKind, usize)> {
        self.decoded[pc]
    }
}

/// The registry of loaded programs, indexed by program id.
pub type ProgRegistry = Vec<ExecImage>;

/// Attachment table: tracepoint → attached program ids.
pub type AttachTable = HashMap<Tracepoint, Vec<u32>>;

/// What triggered this execution.
#[derive(Debug, Clone, Copy)]
pub struct TriggerCtx {
    /// Address of the context object.
    pub ctx_addr: u64,
    /// Packet data address (0 = none).
    pub packet_addr: u64,
    /// Packet length.
    pub packet_len: u64,
    /// Whether execution happens in NMI context.
    pub in_nmi: bool,
}

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// Normal exit.
    Exit,
    /// Hard page fault in program code.
    PageFault,
    /// A sanitizer check failed (indicator #1); execution aborted before
    /// the invalid access.
    SanitizerTrap,
    /// A fatal kernel report (panic, lockdep, KASAN in a routine) fired.
    FatalReport,
    /// The step budget was exhausted.
    StepLimit,
    /// Nested call depth exceeded the engine limit.
    DepthLimit,
    /// The instruction stream was malformed (post-rewrite decode error).
    BadInstruction,
}

/// Result of one program execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecResult {
    /// The program's return value (`R0`), when it exited normally.
    pub r0: Option<u64>,
    /// Instructions executed.
    pub steps: u64,
    /// Why execution stopped.
    pub halt: HaltReason,
    /// Real helper invocations (sanitizer check calls excluded).
    pub helper_calls: u64,
    /// Kfunc invocations.
    pub kfunc_calls: u64,
    /// Executed instructions that the sanitation rewrite emitted (zero on
    /// an unsanitized image). `steps - instrumented_steps` is the step
    /// count the same program would take without instrumentation — the
    /// `bvf-sancheck` step contract.
    pub instrumented_steps: u64,
    /// FNV-1a fold of the observable execution: every real helper/kfunc
    /// invocation's `(id, return)` pair in order, then the exit value.
    /// Sanitizer check calls are excluded, so sanitized and unsanitized
    /// runs of one program must agree.
    pub exec_hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one 64-bit word into an FNV-1a accumulator.
fn fnv_fold(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

#[derive(Clone, Copy)]
struct Frame {
    return_pc: usize,
    stack_addr: u64,
}

/// Maximum nested bpf-to-bpf call frames (kernel `MAX_CALL_FRAMES - 1`).
const MAX_FRAMES: usize = 8;

/// Maximum steps recorded into an [`ExecTrace`]. Steps past the cap are
/// dropped (and flagged), but every *recorded* step remains a valid
/// observation — the differential oracle checks a prefix, not a sample.
pub const TRACE_STEP_CAP: usize = 65_536;

/// One observed step of the triggered program's main frame.
#[derive(Debug, Clone, Copy)]
pub struct TraceStep {
    /// Instruction index in the *executed* (possibly sanitized) image.
    pub pc: usize,
    /// Concrete values of `R0`..`R10` before the instruction executed.
    pub regs: [u64; 11],
}

/// A concrete execution trace of the triggered program's main frame,
/// consumed by the `bvf-diff` differential oracle. Subprogram frames and
/// tail-call successors are not recorded: the verifier snapshots the
/// main frame of the originally loaded program, and the trace must
/// observe exactly that register file.
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    /// Recorded steps, in execution order (capped at [`TRACE_STEP_CAP`]).
    pub steps: Vec<TraceStep>,
    /// Steps beyond the cap were dropped.
    pub truncated: bool,
}

impl ExecTrace {
    fn record(&mut self, pc: usize, regs: &[u64; 12]) {
        if self.steps.len() >= TRACE_STEP_CAP {
            self.truncated = true;
            return;
        }
        let mut r = [0u64; 11];
        r.copy_from_slice(&regs[..11]);
        self.steps.push(TraceStep { pc, regs: r });
    }
}

/// Executes a loaded program against the kernel.
///
/// `depth` counts tracepoint re-entries; helpers that fire tracepoints
/// re-enter attached programs through this same function.
pub fn exec_program(
    kernel: &mut Kernel,
    progs: &ProgRegistry,
    attach: &AttachTable,
    prog_id: u32,
    trig: TriggerCtx,
    depth: u32,
) -> ExecResult {
    exec_program_traced(kernel, progs, attach, prog_id, trig, depth, None)
}

/// [`exec_program`] with an optional concrete trace hook: when `trace`
/// is `Some`, every main-frame step of the triggered program records
/// `(pc, R0..R10)` before the instruction executes. Tracing stops at a
/// tail-call image switch (the successor was verified separately).
#[allow(clippy::too_many_arguments)]
pub fn exec_program_traced(
    kernel: &mut Kernel,
    progs: &ProgRegistry,
    attach: &AttachTable,
    prog_id: u32,
    trig: TriggerCtx,
    depth: u32,
    mut trace: Option<&mut ExecTrace>,
) -> ExecResult {
    let mut steps: u64 = 0;
    if depth > MAX_TP_DEPTH {
        return ExecResult {
            r0: None,
            steps,
            halt: HaltReason::DepthLimit,
            helper_calls: 0,
            kfunc_calls: 0,
            instrumented_steps: 0,
            exec_hash: FNV_OFFSET,
        };
    }
    let Some(image) = progs.get(prog_id as usize) else {
        return ExecResult {
            r0: None,
            steps,
            halt: HaltReason::BadInstruction,
            helper_calls: 0,
            kfunc_calls: 0,
            instrumented_steps: 0,
            exec_hash: FNV_OFFSET,
        };
    };
    let mut image = image;
    // An empty image has no slot 0: the fetch below is a plain indexed
    // read, so reject the program up front (one counted step, exactly
    // what the bounds-checked fetch used to report).
    if image.prog.insn_count() == 0 {
        return ExecResult {
            r0: None,
            steps: 1,
            halt: HaltReason::BadInstruction,
            helper_calls: 0,
            kfunc_calls: 0,
            instrumented_steps: 0,
            exec_hash: FNV_OFFSET,
        };
    }

    let stack_bytes = (STACK_SIZE as u32 + EXT_STACK_BYTES) as usize;
    let Ok(stack0) = kernel.mm.kmalloc(stack_bytes) else {
        return ExecResult {
            r0: None,
            steps,
            halt: HaltReason::FatalReport,
            helper_calls: 0,
            kfunc_calls: 0,
            instrumented_steps: 0,
            exec_hash: FNV_OFFSET,
        };
    };

    let mut regs = [0u64; 12];
    regs[Reg::R1.index()] = trig.ctx_addr;
    regs[Reg::R10.index()] = stack0 + stack_bytes as u64;

    let mut env = HelperEnv {
        prog_type: image.prog_type,
        in_nmi: trig.in_nmi,
        ctx_addr: trig.ctx_addr,
        packet_addr: trig.packet_addr,
        packet_len: trig.packet_len,
        tail_call: None,
    };
    if trig.in_nmi {
        kernel.enter_nmi();
    }

    // Call frames live in fixed arrays (depth is capped at MAX_FRAMES),
    // so the per-exec hot path performs no heap allocation of its own —
    // only the kmalloc'd stacks touch the (recyclable) pool.
    let mut frames = [Frame {
        return_pc: 0,
        stack_addr: 0,
    }; MAX_FRAMES];
    let mut nframes = 0usize;
    let mut stacks = [0u64; MAX_FRAMES + 1];
    stacks[0] = stack0;
    let mut nstacks = 1usize;
    let mut tail_calls = 0u32;
    let mut helper_calls = 0u64;
    let mut kfunc_calls = 0u64;
    let mut instrumented_steps = 0u64;
    let mut exec_hash = FNV_OFFSET;
    let mut pc = 0usize;
    let mut halt = HaltReason::Exit;
    let mut r0_out = None;

    'run: loop {
        steps += 1;
        if steps > STEP_LIMIT {
            halt = HaltReason::StepLimit;
            break;
        }
        let Some((kind, slots)) = image.decoded_at(pc) else {
            halt = HaltReason::BadInstruction;
            break;
        };
        let meta = image.meta[pc];
        if meta.emitted_by_rewrite {
            instrumented_steps += 1;
        }
        if nframes == 0 {
            if let Some(t) = trace.as_deref_mut() {
                t.record(pc, &regs);
            }
        }
        let mut next = pc + slots;

        match kind {
            InsnKind::AluReg {
                op, is64, dst, src, ..
            } => {
                let v = regs[src.index()];
                regs[dst.index()] = alu(op, is64, regs[dst.index()], v);
            }
            InsnKind::AluImm {
                op, is64, dst, imm, ..
            } => {
                let v = if is64 {
                    imm as i64 as u64
                } else {
                    imm as u32 as u64
                };
                regs[dst.index()] = alu(op, is64, regs[dst.index()], v);
            }
            InsnKind::Neg { is64, dst } => {
                let r = regs[dst.index()].wrapping_neg();
                regs[dst.index()] = if is64 { r } else { r as u32 as u64 };
            }
            InsnKind::Endian {
                endianness,
                bits,
                dst,
            } => {
                regs[dst.index()] = endian(endianness, bits, regs[dst.index()]);
            }
            InsnKind::LdImm64 { dst, imm64, .. } => {
                regs[dst.index()] = imm64;
            }
            InsnKind::LdAbs { size, imm } => {
                regs[Reg::R0.index()] = match packet_load(kernel, &env, imm as i64, size) {
                    Some(v) => v,
                    None => {
                        // The kernel aborts the program with r0 = 0.
                        r0_out = Some(0);
                        halt = HaltReason::Exit;
                        break 'run;
                    }
                };
            }
            InsnKind::LdInd { size, src, imm } => {
                let off = regs[src.index()] as i64 + imm as i64;
                regs[Reg::R0.index()] = match packet_load(kernel, &env, off, size) {
                    Some(v) => v,
                    None => {
                        r0_out = Some(0);
                        halt = HaltReason::Exit;
                        break 'run;
                    }
                };
            }
            InsnKind::Ldx {
                size,
                dst,
                src,
                off,
                sign_extend,
            } => {
                let addr = regs[src.index()].wrapping_add_signed(off as i64);
                match kernel.mm.pool.raw_read(addr, size.bytes() as u64) {
                    Some(mut v) => {
                        if sign_extend {
                            v = sext(v, size);
                        }
                        regs[dst.index()] = v;
                    }
                    None if meta.ex_handled => regs[dst.index()] = 0,
                    None => {
                        kernel.report_page_fault(addr, false);
                        halt = HaltReason::PageFault;
                        break 'run;
                    }
                }
            }
            InsnKind::St {
                size,
                dst,
                off,
                imm,
            } => {
                let addr = regs[dst.index()].wrapping_add_signed(off as i64);
                if !kernel
                    .mm
                    .pool
                    .raw_write(addr, size.bytes() as u64, imm as i64 as u64)
                    && !meta.ex_handled
                {
                    kernel.report_page_fault(addr, true);
                    halt = HaltReason::PageFault;
                    break 'run;
                }
            }
            InsnKind::Stx {
                size,
                dst,
                src,
                off,
            } => {
                let addr = regs[dst.index()].wrapping_add_signed(off as i64);
                if !kernel
                    .mm
                    .pool
                    .raw_write(addr, size.bytes() as u64, regs[src.index()])
                    && !meta.ex_handled
                {
                    kernel.report_page_fault(addr, true);
                    halt = HaltReason::PageFault;
                    break 'run;
                }
            }
            InsnKind::Atomic {
                op,
                size,
                dst,
                src,
                off,
            } => {
                let addr = regs[dst.index()].wrapping_add_signed(off as i64);
                let width = size.bytes() as u64;
                let Some(old) = kernel.mm.pool.raw_read(addr, width) else {
                    kernel.report_page_fault(addr, true);
                    halt = HaltReason::PageFault;
                    break 'run;
                };
                let operand = regs[src.index()];
                let new = match op {
                    AtomicOp::Add { .. } => old.wrapping_add(operand),
                    AtomicOp::Or { .. } => old | operand,
                    AtomicOp::And { .. } => old & operand,
                    AtomicOp::Xor { .. } => old ^ operand,
                    AtomicOp::Xchg => operand,
                    AtomicOp::Cmpxchg => {
                        if truncate(old, size) == truncate(regs[Reg::R0.index()], size) {
                            operand
                        } else {
                            old
                        }
                    }
                };
                kernel.mm.pool.raw_write(addr, width, new);
                match op {
                    AtomicOp::Cmpxchg => regs[Reg::R0.index()] = truncate(old, size),
                    _ if op.fetches() => regs[src.index()] = truncate(old, size),
                    _ => {}
                }
            }
            InsnKind::Ja { off } => {
                next = (pc as i64 + 1 + off as i64) as usize;
            }
            InsnKind::JmpCond {
                op,
                is32,
                dst,
                src,
                off,
            } => {
                let a = regs[dst.index()];
                let b = match src {
                    SourceOperandValue::Reg(r) => regs[r.index()],
                    SourceOperandValue::Imm(i) => i as i64 as u64,
                };
                if jmp_taken(op, is32, a, b) {
                    next = (pc as i64 + 1 + off as i64) as usize;
                }
            }
            InsnKind::Call { target } => match target {
                CallTarget::Helper(id) if asan_ids::is_asan(id as u32) => {
                    let orig_pc = image.prog.insns()[pc].off as usize;
                    if asan_call(kernel, &mut regs, id as u32, orig_pc, meta.ex_handled) {
                        halt = HaltReason::SanitizerTrap;
                        break 'run;
                    }
                }
                CallTarget::Helper(id) => {
                    helper_calls += 1;
                    let args = [
                        regs[Reg::R1.index()],
                        regs[Reg::R2.index()],
                        regs[Reg::R3.index()],
                        regs[Reg::R4.index()],
                        regs[Reg::R5.index()],
                    ];
                    let mut fire = |k: &mut Kernel, tp: Tracepoint| {
                        fire_tracepoint(k, progs, attach, tp, depth + 1);
                    };
                    let ret = call_helper(kernel, id as u32, args, &mut env, &mut fire);
                    exec_hash = fnv_fold(fnv_fold(exec_hash, id as u64), ret);
                    regs[Reg::R0.index()] = ret;
                    // Tail call requested and valid: switch programs.
                    if let Some((map_id, index)) = env.tail_call.take() {
                        if tail_calls >= TAIL_CALL_LIMIT {
                            // Limit reached: the helper returns an error
                            // and execution continues in this program.
                        } else if let Some(target) = prog_array_slot(kernel, map_id, index)
                            .and_then(|pid| progs.get(pid as usize))
                        {
                            tail_calls += 1;
                            image = target;
                            next = 0;
                            // The successor image was verified on its own;
                            // its register file does not belong to the
                            // snapshot stream of the original program.
                            trace = None;
                        }
                    }
                }
                CallTarget::Kfunc(id) => {
                    kfunc_calls += 1;
                    let args = [
                        regs[Reg::R1.index()],
                        regs[Reg::R2.index()],
                        regs[Reg::R3.index()],
                        regs[Reg::R4.index()],
                        regs[Reg::R5.index()],
                    ];
                    let ret = call_kfunc(kernel, id as u32, args);
                    exec_hash = fnv_fold(fnv_fold(exec_hash, id as u64), ret);
                    regs[Reg::R0.index()] = ret;
                }
                CallTarget::Pseudo(off) => {
                    if nframes >= MAX_FRAMES {
                        halt = HaltReason::DepthLimit;
                        break 'run;
                    }
                    let Ok(new_stack) = kernel.mm.kmalloc(stack_bytes) else {
                        halt = HaltReason::FatalReport;
                        break 'run;
                    };
                    frames[nframes] = Frame {
                        return_pc: pc + 1,
                        stack_addr: regs[Reg::R10.index()],
                    };
                    nframes += 1;
                    stacks[nstacks] = new_stack;
                    nstacks += 1;
                    regs[Reg::R10.index()] = new_stack + stack_bytes as u64;
                    next = (pc as i64 + 1 + off as i64) as usize;
                }
            },
            InsnKind::Exit => {
                if nframes > 0 {
                    nframes -= 1;
                    let f = frames[nframes];
                    nstacks -= 1;
                    kernel.mm.kfree(stacks[nstacks]);
                    regs[Reg::R10.index()] = f.stack_addr;
                    next = f.return_pc;
                } else {
                    r0_out = Some(regs[Reg::R0.index()]);
                    halt = HaltReason::Exit;
                    break 'run;
                }
            }
        }

        // A fatal report (panic, lockdep splat, KASAN hit inside a
        // routine) stops the machine.
        if kernel.reports.any_fatal() && halt == HaltReason::Exit {
            halt = HaltReason::FatalReport;
            break 'run;
        }
        pc = next;
        if pc >= image.prog.insn_count() {
            halt = HaltReason::BadInstruction;
            break 'run;
        }
    }

    for &s in &stacks[..nstacks] {
        kernel.mm.kfree(s);
    }
    if trig.in_nmi {
        kernel.leave_nmi();
    }
    if let Some(r0) = r0_out {
        exec_hash = fnv_fold(exec_hash, r0);
    }
    ExecResult {
        r0: r0_out,
        steps,
        halt,
        helper_calls,
        kfunc_calls,
        instrumented_steps,
        exec_hash,
    }
}

/// The `bpf_asan_*` dispatch: runs the check function `id` names on the
/// argument registers and, unless it traps, returns with `R0 = 0`.
/// `orig_pc` is the original instruction an ALU-limit check reports and
/// `ex` the access's exception-table entry. Returns whether the check
/// trapped.
fn asan_call(kernel: &mut Kernel, regs: &mut [u64; 12], id: u32, orig_pc: usize, ex: bool) -> bool {
    let defects = &kernel.mm.san_defects;
    let trapped = match id {
        asan_ids::ALU_CHECK_UP | asan_ids::ALU_CHECK_DOWN => !asan::asan_alu_check(
            kernel,
            regs[Reg::R1.index()],
            regs[Reg::R2.index()],
            id == asan_ids::ALU_CHECK_DOWN,
            orig_pc,
        ),
        _ => {
            let is_store = id >= asan_ids::STORE_BASE;
            let base = if is_store {
                asan_ids::STORE_BASE
            } else {
                asan_ids::LOAD_BASE
            };
            let mut size = 1u64 << (id - base);
            // Injected defect: the dispatch decodes the access width one
            // power of two short.
            if defects.has(SanDefect::LoadSizeConfusion) {
                size = (size >> 1).max(1);
            }
            // Injected defect: read/write polarity flipped when deriving
            // `is_write` from the function id.
            let is_write = is_store != defects.has(SanDefect::WritePolarity);
            let addr = regs[Reg::R1.index()];
            matches!(
                asan::asan_mem_check(kernel, addr, size, is_write, ex),
                AsanOutcome::Reported
            )
        }
    };
    if trapped {
        return true;
    }
    // Injected defect: the check trampoline scribbles over the caller's
    // `R0` spill slot, so the restore emitted after this call reloads
    // garbage.
    if kernel.mm.san_defects.has(SanDefect::ScratchClobber) {
        let slot = regs[Reg::R10.index()].wrapping_add_signed(EXT_SLOT_R0 as i64);
        kernel.mm.pool.raw_write(slot, 8, 0xdead_5ca7_c10b_be45);
    }
    // The sanitizing functions preserve R1-R5 by construction (the
    // prologue restores R0/R1 anyway).
    regs[Reg::R0.index()] = 0;
    false
}

/// Fires a tracepoint: every attached program runs in a nested context.
pub fn fire_tracepoint(
    kernel: &mut Kernel,
    progs: &ProgRegistry,
    attach: &AttachTable,
    tp: Tracepoint,
    depth: u32,
) {
    let Some(ids) = attach.get(&tp) else { return };
    let ids = ids.clone();
    for pid in ids {
        let Some(image) = progs.get(pid as usize) else {
            continue;
        };
        let ctx_size = image.prog_type.ctx_layout().size as usize;
        let Ok(ctx_addr) = kernel.mm.kmalloc(ctx_size.max(8)) else {
            continue;
        };
        kernel.lockdep.enter_context();
        let trig = TriggerCtx {
            ctx_addr,
            packet_addr: 0,
            packet_len: 0,
            in_nmi: tp.is_nmi_context(),
        };
        exec_program(kernel, progs, attach, pid, trig, depth);
        kernel.lockdep.leave_context();
        kernel.mm.kfree(ctx_addr);
    }
}

fn prog_array_slot(kernel: &Kernel, map_id: u32, index: u32) -> Option<u32> {
    let map = kernel.maps.get(map_id)?;
    match &map.storage {
        MapStorage::ProgArray { slots } => {
            let v = *slots.get(index as usize)?;
            if v == 0 {
                None
            } else {
                Some(v - 1)
            }
        }
        _ => None,
    }
}

fn packet_load(kernel: &Kernel, env: &HelperEnv, off: i64, size: Size) -> Option<u64> {
    if off < 0 || (off as u64).saturating_add(size.bytes() as u64) > env.packet_len {
        return None;
    }
    let v = kernel
        .mm
        .pool
        .raw_read(env.packet_addr + off as u64, size.bytes() as u64)?;
    // Legacy packet loads are big-endian.
    Some(match size {
        Size::B => v,
        Size::H => (v as u16).swap_bytes() as u64,
        Size::W => (v as u32).swap_bytes() as u64,
        Size::Dw => v.swap_bytes(),
    })
}

fn truncate(v: u64, size: Size) -> u64 {
    match size {
        Size::B => v as u8 as u64,
        Size::H => v as u16 as u64,
        Size::W => v as u32 as u64,
        Size::Dw => v,
    }
}

fn sext(v: u64, size: Size) -> u64 {
    match size {
        Size::B => v as u8 as i8 as i64 as u64,
        Size::H => v as u16 as i16 as i64 as u64,
        Size::W => v as u32 as i32 as i64 as u64,
        Size::Dw => v,
    }
}

fn alu(op: AluOp, is64: bool, dst: u64, src: u64) -> u64 {
    if is64 {
        match op {
            AluOp::Add => dst.wrapping_add(src),
            AluOp::Sub => dst.wrapping_sub(src),
            AluOp::Mul => dst.wrapping_mul(src),
            AluOp::Div => dst.checked_div(src).unwrap_or(0),
            AluOp::Or => dst | src,
            AluOp::And => dst & src,
            AluOp::Lsh => dst.wrapping_shl(src as u32 & 63),
            AluOp::Rsh => dst.wrapping_shr(src as u32 & 63),
            AluOp::Mod => dst.checked_rem(src).unwrap_or(dst),
            AluOp::Xor => dst ^ src,
            AluOp::Mov => src,
            AluOp::Arsh => ((dst as i64).wrapping_shr(src as u32 & 63)) as u64,
            AluOp::Neg | AluOp::End => unreachable!("handled by dedicated arms"),
        }
    } else {
        let d = dst as u32;
        let s = src as u32;
        (match op {
            AluOp::Add => d.wrapping_add(s),
            AluOp::Sub => d.wrapping_sub(s),
            AluOp::Mul => d.wrapping_mul(s),
            AluOp::Div => d.checked_div(s).unwrap_or(0),
            AluOp::Or => d | s,
            AluOp::And => d & s,
            AluOp::Lsh => d.wrapping_shl(s & 31),
            AluOp::Rsh => d.wrapping_shr(s & 31),
            AluOp::Mod => d.checked_rem(s).unwrap_or(d),
            AluOp::Xor => d ^ s,
            AluOp::Mov => s,
            AluOp::Arsh => ((d as i32).wrapping_shr(s & 31)) as u32,
            AluOp::Neg | AluOp::End => unreachable!("handled by dedicated arms"),
        }) as u64
    }
}

fn endian(e: Endianness, bits: i32, v: u64) -> u64 {
    // Little-endian host: `to_le` is the identity, `to_be` swaps; the
    // unconditional swap always swaps.
    let swap = |v: u64| match bits {
        16 => (v as u16).swap_bytes() as u64,
        32 => (v as u32).swap_bytes() as u64,
        _ => v.swap_bytes(),
    };
    let mask = |v: u64| match bits {
        16 => v as u16 as u64,
        32 => v as u32 as u64,
        _ => v,
    };
    match e {
        Endianness::Le => mask(v),
        Endianness::Be | Endianness::Swap => swap(v),
    }
}

fn jmp_taken(op: JmpOp, is32: bool, a: u64, b: u64) -> bool {
    if is32 {
        let (a, b) = (a as u32, b as u32);
        let (sa, sb) = (a as i32, b as i32);
        match op {
            JmpOp::Jeq => a == b,
            JmpOp::Jne => a != b,
            JmpOp::Jgt => a > b,
            JmpOp::Jge => a >= b,
            JmpOp::Jlt => a < b,
            JmpOp::Jle => a <= b,
            JmpOp::Jset => a & b != 0,
            JmpOp::Jsgt => sa > sb,
            JmpOp::Jsge => sa >= sb,
            JmpOp::Jslt => sa < sb,
            JmpOp::Jsle => sa <= sb,
            JmpOp::Ja | JmpOp::Call | JmpOp::Exit => false,
        }
    } else {
        let (sa, sb) = (a as i64, b as i64);
        match op {
            JmpOp::Jeq => a == b,
            JmpOp::Jne => a != b,
            JmpOp::Jgt => a > b,
            JmpOp::Jge => a >= b,
            JmpOp::Jlt => a < b,
            JmpOp::Jle => a <= b,
            JmpOp::Jset => a & b != 0,
            JmpOp::Jsgt => sa > sb,
            JmpOp::Jsge => sa >= sb,
            JmpOp::Jslt => sa < sb,
            JmpOp::Jsle => sa <= sb,
            JmpOp::Ja | JmpOp::Call | JmpOp::Exit => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu64_semantics() {
        assert_eq!(alu(AluOp::Add, true, u64::MAX, 1), 0);
        assert_eq!(alu(AluOp::Div, true, 10, 0), 0, "div by zero yields 0");
        assert_eq!(alu(AluOp::Mod, true, 10, 0), 10, "mod by zero keeps dst");
        assert_eq!(alu(AluOp::Arsh, true, (-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(alu(AluOp::Lsh, true, 1, 64), 1, "shift masked to 6 bits");
    }

    #[test]
    fn alu32_zero_extends() {
        assert_eq!(alu(AluOp::Add, false, 0xffff_ffff, 1), 0);
        assert_eq!(alu(AluOp::Mov, false, 0, u64::MAX), 0xffff_ffff);
        assert_eq!(alu(AluOp::Arsh, false, 0x8000_0000, 31), 0xffff_ffff);
    }

    #[test]
    fn endian_semantics() {
        assert_eq!(endian(Endianness::Be, 16, 0x1234_5678), 0x7856);
        assert_eq!(endian(Endianness::Le, 16, 0x1234_5678), 0x5678);
        assert_eq!(endian(Endianness::Swap, 32, 0x1234_5678), 0x7856_3412);
        assert_eq!(
            endian(Endianness::Swap, 64, 0x0102_0304_0506_0708),
            0x0807_0605_0403_0201
        );
    }

    #[test]
    fn jmp_signedness() {
        assert!(jmp_taken(JmpOp::Jsgt, true, 1, u32::MAX as u64));
        assert!(!jmp_taken(JmpOp::Jgt, true, 1, u32::MAX as u64));
        assert!(jmp_taken(JmpOp::Jslt, false, (-1i64) as u64, 0));
        assert!(!jmp_taken(JmpOp::Jlt, false, (-1i64) as u64, 0));
        assert!(jmp_taken(JmpOp::Jset, false, 0b1010, 0b0010));
    }

    #[test]
    fn sext_truncate() {
        assert_eq!(sext(0x80, Size::B), (-128i64) as u64);
        assert_eq!(sext(0x7f, Size::B), 0x7f);
        assert_eq!(truncate(0x1234_5678, Size::H), 0x5678);
    }
}
