//! The main verification driver (`do_check` and friends).

use bvf_isa::decode::SourceOperandValue;
use bvf_isa::opcode::pseudo;
use bvf_isa::{CallTarget, InsnKind, Program, Reg};
use bvf_kernel_sim::map::MapType;
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::Kernel;

use crate::check::jump::JumpOutcome;
use crate::cov::{Cat, Coverage};
use crate::env::{VerifiedProgram, Verifier, VerifierOpts};
use crate::errors::{RejectReason, VerifierError, VerifierPhase};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::prune::states_equal;
use crate::shape::{ExploredEntry, ExploredPoint, StateShape};
use crate::state::{FuncState, VerifierState, MAX_CALL_FRAMES};
use crate::types::{RegState, RegType};
use bvf_telemetry::profile::elapsed_ns;
use bvf_telemetry::PhaseTimings;
use std::time::Instant;

/// Maximum states remembered per prune point.
const MAX_STATES_PER_POINT: usize = 32;

/// How many of the path's earlier visits the loop detector walks per
/// prune point; an abstract loop revisits its head frequently, so a
/// bounded window suffices and keeps pathological paths linear. It also
/// bounds the path's memory: a visit more than one window below every
/// place a later scan can start from is forgotten.
const LOOP_SCAN_WINDOW: usize = 256;

/// How many same-pc ancestors the loop detector actually *considers*
/// (fingerprint-filters or compares) per visit. A no-progress loop is
/// subsumed by its nearest ancestors, so examining the closest few is
/// enough — this mirrors the kernel, whose loop detection scans the
/// bounded `explored_states` list at the instruction rather than the
/// whole path. Matches [`MAX_STATES_PER_POINT`] so both scans consider
/// the same number of candidates.
const MAX_LOOP_CANDIDATES: usize = 32;

/// The outcome of a load attempt: the verdict plus the coverage the
/// attempt produced (available for rejected programs too — the fuzzer's
/// feedback does not depend on acceptance).
#[derive(Debug)]
pub struct VerifyOutcome {
    /// Accept (with the rewritten program) or reject.
    pub result: Result<VerifiedProgram, VerifierError>,
    /// Verifier branch coverage exercised by this program.
    pub cov: Coverage,
    /// Instructions the walk processed, for every verdict; 0 only for
    /// a load rejected before the walk.
    pub insns_processed: usize,
    /// Wall time per verification phase; phases a rejected load never
    /// reached stay 0. Observational only — nothing reads it back.
    pub timings: PhaseTimings,
    /// Per-instruction abstract-state snapshots of the main walk; empty
    /// unless [`VerifierOpts::snapshots`] was set.
    pub snapshots: crate::snapshot::SnapshotStream,
}

/// Verifies `prog` for `prog_type` against the kernel's tables.
pub fn verify(
    kernel: &Kernel,
    prog: &Program,
    prog_type: ProgType,
    opts: &VerifierOpts,
) -> VerifyOutcome {
    let mut v = Verifier::new(kernel, prog, prog_type, opts.clone());
    let result = v.run();
    VerifyOutcome {
        result,
        cov: v.cov,
        insns_processed: v.insn_processed,
        timings: v.timings,
        snapshots: v.snapshots,
    }
}

/// Most instruction slots a program may have (the classic
/// `BPF_MAXINSNS`; privileged kernel loads allow a million, this bound
/// keeps fuzzing cheap).
const MAX_INSNS: usize = 4096;

/// The registers an instruction names, at most two.
fn regs_used(kind: &InsnKind) -> [Option<Reg>; 2] {
    match *kind {
        InsnKind::AluReg { dst, src, .. }
        | InsnKind::Ldx { dst, src, .. }
        | InsnKind::Stx { dst, src, .. }
        | InsnKind::Atomic { dst, src, .. } => [Some(dst), Some(src)],
        InsnKind::AluImm { dst, .. }
        | InsnKind::Neg { dst, .. }
        | InsnKind::Endian { dst, .. }
        | InsnKind::LdImm64 { dst, .. }
        | InsnKind::St { dst, .. } => [Some(dst), None],
        InsnKind::LdInd { src, .. } => [Some(src), None],
        InsnKind::JmpCond { dst, src, .. } => match src {
            SourceOperandValue::Reg(src) => [Some(dst), Some(src)],
            SourceOperandValue::Imm(_) => [Some(dst), None],
        },
        InsnKind::LdAbs { .. } | InsnKind::Ja { .. } | InsnKind::Call { .. } | InsnKind::Exit => {
            [None, None]
        }
    }
}

/// The register an instruction writes, if any.
fn written_reg(kind: &InsnKind) -> Option<Reg> {
    match *kind {
        InsnKind::AluReg { dst, .. }
        | InsnKind::AluImm { dst, .. }
        | InsnKind::Neg { dst, .. }
        | InsnKind::Endian { dst, .. }
        | InsnKind::LdImm64 { dst, .. }
        | InsnKind::Ldx { dst, .. } => Some(dst),
        InsnKind::Atomic { op, src, .. } if op.fetches() => Some(src),
        _ => None,
    }
}

impl<'a> Verifier<'a> {
    /// Runs all verification passes; on success the program is rewritten.
    pub(crate) fn run(&mut self) -> Result<VerifiedProgram, VerifierError> {
        // Unprivileged loads are limited to the socket-filter class.
        if self.opts.unprivileged
            && !matches!(self.prog_type, ProgType::SocketFilter | ProgType::CgroupSkb)
        {
            self.cov.hit(Cat::Error, 17, 0);
            return Err(VerifierError::access(
                RejectReason::UnprivProgType,
                0,
                format!(
                    "program type {:?} not allowed for unprivileged users",
                    self.prog_type
                ),
            )
            .in_phase(VerifierPhase::Structure));
        }
        // Pass 1: the structural checks, which also decode each
        // instruction once for the walk and place its prune points.
        // Timed as "structure", with the phase recorded before `?` so
        // rejected loads keep it.
        let t0 = Instant::now();
        let structure = self.scan_structure().map_err(|(reason, msg)| {
            self.cov.hit(Cat::Error, 1, 0);
            VerifierError::invalid(reason, 0, msg).in_phase(VerifierPhase::Structure)
        });
        self.timings.structure_ns = elapsed_ns(t0);
        structure?;

        // Pass 2: the main symbolic walk.
        let t0 = Instant::now();
        let checked = self.do_check();
        self.timings.do_check_ns = elapsed_ns(t0);
        // Index occupancy, recorded for accepted and rejected loads
        // alike (the counters are observational).
        for point in self.explored.iter().flatten() {
            if !point.is_empty() {
                self.timings.prune.points += 1;
                self.timings.prune.states_stored += point.len() as u64;
            }
        }
        checked?;

        // Pass 3: rewrite (pseudo resolution + fixups).
        let t0 = Instant::now();
        let fixed = self.do_fixups();
        self.timings.fixup_ns = elapsed_ns(t0);
        fixed.map_err(|e| e.in_phase(VerifierPhase::Fixup))?;

        Ok(VerifiedProgram {
            prog: self.prog.clone(),
            prog_type: self.prog_type,
            insn_meta: self.insn_meta.clone(),
            used_helpers: self.used_helpers.clone(),
            used_kfuncs: self.used_kfuncs.clone(),
            used_maps: self.used_maps.clone(),
            insns_processed: self.insn_processed,
            log: std::mem::take(&mut self.log),
        })
    }

    /// The structural pass. The rules run in a fixed order: the size
    /// limits, then each instruction decoded once with its registers
    /// checked, then every jump and pseudo-call target, then the
    /// program's end. The first broken rule names the rejection. A
    /// program that passes leaves the decoded table and the
    /// explored-state table behind.
    fn scan_structure(&mut self) -> Result<(), (RejectReason, String)> {
        let n = self.prog.insn_count();
        if n == 0 {
            return Err((RejectReason::MalformedInsn, "empty program".into()));
        }
        if n > MAX_INSNS {
            return Err((
                RejectReason::ComplexityLimit,
                format!("program too long ({n} insns)"),
            ));
        }

        // Decode every instruction once, in slot order. The table
        // doubles as the instruction-start map.
        fn malformed(pc: usize, what: impl std::fmt::Display) -> (RejectReason, String) {
            (RejectReason::MalformedInsn, format!("insn {pc}: {what}"))
        }
        self.decoded = vec![None; n];
        let mut last = None;
        let mut pc = 0;
        while pc < n {
            let (kind, slots) = self.prog.decode_at(pc).map_err(|e| malformed(pc, e))?;
            if !regs_used(&kind).into_iter().flatten().all(Reg::is_visible) {
                return Err(malformed(pc, "uses internal register"));
            }
            if written_reg(&kind) == Some(Reg::R10) {
                return Err(malformed(pc, "frame pointer is read only"));
            }
            self.decoded[pc] = Some((kind, slots));
            last = Some(kind);
            pc += slots;
        }

        // Check every jump target against the table. The same walk
        // places the prune points where distinct paths can actually
        // converge: control-flow joins (static in-degree >= 2),
        // back-edge targets (loop heads: every cycle contains one,
        // which keeps the loop detector complete), and subprogram
        // entries. A point only one path can reach would spend
        // states_equal time for nothing.
        fn edge(from: usize, to: usize, in_degree: &mut [u32], point: &mut [bool]) {
            if to < in_degree.len() {
                in_degree[to] += 1;
                if to <= from {
                    point[to] = true;
                }
            }
        }
        let decoded = &self.decoded;
        let jump = |pc: usize, off: i64| {
            let target = pc as i64 + 1 + off;
            match usize::try_from(target) {
                Ok(t) if decoded.get(t).is_some_and(Option::is_some) => Ok(t),
                _ => Err((
                    RejectReason::JumpOutOfBounds,
                    format!("insn {pc}: jump out of range to {target}"),
                )),
            }
        };
        let mut in_degree = vec![0u32; n];
        let mut point = vec![false; n];
        let mut calls_subprog = false;
        for (pc, entry) in decoded.iter().enumerate() {
            let Some((kind, slots)) = *entry else {
                continue;
            };
            match kind {
                InsnKind::JmpCond { off, .. } => {
                    let target = jump(pc, off as i64)?;
                    edge(pc, target, &mut in_degree, &mut point);
                    edge(pc, pc + 1, &mut in_degree, &mut point);
                }
                InsnKind::Ja { off } => {
                    let target = jump(pc, off as i64)?;
                    edge(pc, target, &mut in_degree, &mut point);
                }
                InsnKind::Exit => {}
                InsnKind::Call {
                    target: CallTarget::Pseudo(off),
                } => {
                    point[jump(pc, off as i64)?] = true;
                    calls_subprog = true;
                    // Control flows back here from the callee's exits;
                    // the return site can join other flows.
                    edge(pc, pc + 1, &mut in_degree, &mut point);
                }
                _ => edge(pc, pc + slots, &mut in_degree, &mut point),
            }
        }

        if !matches!(last, Some(InsnKind::Exit | InsnKind::Ja { .. })) {
            return Err((
                RejectReason::FellOffEnd,
                "last insn is not an exit or jump".into(),
            ));
        }
        if calls_subprog {
            self.cov.hit(Cat::Subprog, 0, 0);
        }
        self.explored = (0..n)
            .map(|v| (in_degree[v] >= 2 || point[v]).then(ExploredPoint::default))
            .collect();
        Ok(())
    }

    fn do_check(&mut self) -> Result<(), VerifierError> {
        // The current path's prune-point visits, oldest first, for
        // infinite-loop detection (the analog of `states_maybe_looping`):
        // a path that returns to an instruction in a state subsumed by
        // one of its own earlier visits can make no progress. `path[i]`
        // is visit `base + i`. The walk is depth-first, so one stack
        // serves every pending branch: a branch records the depth where
        // it forked, depths never decrease from the bottom of the
        // worklist to its top, and each branch's path is therefore the
        // bottom of the live one.
        let mut path: VecDeque<(usize, Rc<ExploredEntry>)> = VecDeque::new();
        let mut base = 0;
        let mut worklist = vec![(VerifierState::entry(), 0, 0)];

        while let Some((mut state, mut pc, depth)) = worklist.pop() {
            path.truncate(depth - base);
            'path: loop {
                self.insn_processed += 1;
                if self.insn_processed > self.opts.insn_limit {
                    self.cov.hit(Cat::Error, 2, 0);
                    return Err(VerifierError::invalid(
                        RejectReason::ComplexityLimit,
                        pc,
                        format!(
                            "BPF program is too large. Processed {} insn",
                            self.insn_processed
                        ),
                    ));
                }
                let Some((kind, slots)) = self.decoded.get(pc).copied().flatten() else {
                    self.cov.hit(Cat::Error, 3, 0);
                    return Err(VerifierError::invalid(
                        RejectReason::FellOffEnd,
                        pc,
                        "fell off the end of program",
                    ));
                };

                // Loop detection, then pruning. The whole block is billed
                // to `prune_ns` (a subset of `do_check_ns`), so each of
                // its three exits records the elapsed time first.
                if let Some(point) = self.explored[pc].as_mut() {
                    let prune_t0 = Instant::now();
                    let use_index = self.opts.prune_index;
                    let cur_shape = StateShape::of(&state);
                    self.timings.prune.checks += 1;

                    // Loop detection first, so the "infinite loop"
                    // verdict cannot be masked by a prune. The
                    // fingerprint filter only skips comparisons that
                    // must return false, so the verdict is identical with
                    // the index off.
                    let window = path.iter().rev().take(LOOP_SCAN_WINDOW);
                    let same_pc = window.filter(|(at, _)| *at == pc);
                    for (_, earlier) in same_pc.take(MAX_LOOP_CANDIDATES) {
                        if use_index && !earlier.shape.may_subsume(&cur_shape) {
                            self.timings.prune.fingerprint_filtered += 1;
                        } else {
                            self.timings.prune.states_equal_calls += 1;
                            if states_equal(&earlier.state, &state) {
                                self.cov.hit(Cat::Error, 16, 0);
                                self.timings.prune_ns += elapsed_ns(prune_t0);
                                return Err(VerifierError::invalid(
                                    RejectReason::BackEdgeLimit,
                                    pc,
                                    format!("infinite loop detected at insn {pc}"),
                                ));
                            }
                        }
                    }

                    // Explored-state scan. With the index on, only
                    // shape-compatible candidates reach states_equal;
                    // "any candidate subsumes" is order-insensitive, so
                    // both modes reach the same prune decision.
                    let total = point.len() as u64;
                    let mut calls = 0u64;
                    let mut hit = false;
                    for e in point.entries() {
                        if use_index && !e.shape.may_subsume(&cur_shape) {
                            continue;
                        }
                        calls += 1;
                        if states_equal(&e.state, &state) {
                            hit = true;
                            break;
                        }
                    }
                    self.timings.prune.states_equal_calls += calls;
                    if use_index && !hit {
                        self.timings.prune.fingerprint_filtered += total - calls;
                    }
                    if hit {
                        self.timings.prune.hits += 1;
                        self.cov.hit(Cat::Prune, 0, 1);
                        self.timings.prune_ns += elapsed_ns(prune_t0);
                        break 'path;
                    }
                    self.cov.hit(Cat::Prune, 0, 0);
                    // One shared visit feeds both the explored index and
                    // the path.
                    let visit = Rc::new(ExploredEntry {
                        state: state.clone(),
                        shape: cur_shape,
                    });
                    if point.insert(Rc::clone(&visit), MAX_STATES_PER_POINT) {
                        self.timings.prune.evictions += 1;
                    }
                    path.push_back((pc, visit));
                    // Every later scan starts at or above the shallowest
                    // pending fork, or at this path's end when no branch
                    // is pending; a visit a window below that is dead.
                    let live = worklist.first().map_or(base + path.len(), |&(_, _, d)| d);
                    let dead = live.saturating_sub(base + LOOP_SCAN_WINDOW);
                    path.drain(..dead);
                    base += dead;
                    self.timings.prune_ns += elapsed_ns(prune_t0);
                }

                // Differential-oracle snapshot: the abstract register
                // file proved *before* this instruction, main frame only
                // (the concrete trace only observes main-frame steps).
                if self.opts.snapshots && state.depth() == 0 {
                    self.snapshots.record(pc, &state);
                }

                self.cov
                    .hit(Cat::InsnClass, self.prog.insns()[pc].code as u32 & 0x07, 0);
                self.logln(|| format!("{pc}: {}", bvf_isa::disasm::format_insn(pc, &kind)));

                match kind {
                    InsnKind::AluReg { .. }
                    | InsnKind::AluImm { .. }
                    | InsnKind::Neg { .. }
                    | InsnKind::Endian { .. } => {
                        self.check_alu(&mut state, pc, &kind)?;
                        pc += slots;
                    }
                    InsnKind::LdImm64 {
                        dst,
                        src_pseudo,
                        imm64,
                    } => {
                        self.check_ld_imm64(&mut state, pc, dst, src_pseudo, imm64)?;
                        pc += slots;
                    }
                    InsnKind::LdAbs { .. } | InsnKind::LdInd { .. } => {
                        self.check_ld_legacy(&mut state, pc, &kind)?;
                        pc += slots;
                    }
                    InsnKind::Ldx { .. }
                    | InsnKind::St { .. }
                    | InsnKind::Stx { .. }
                    | InsnKind::Atomic { .. } => {
                        self.check_mem(&mut state, pc, &kind)?;
                        pc += slots;
                    }
                    InsnKind::Ja { off } => {
                        pc = (pc as i64 + 1 + off as i64) as usize;
                    }
                    InsnKind::JmpCond { off, .. } => {
                        let target = (pc as i64 + 1 + off as i64) as usize;
                        match self.check_cond_jmp(&mut state, pc, &kind)? {
                            JumpOutcome::FallthroughOnly => pc += 1,
                            JumpOutcome::JumpOnly => pc = target,
                            JumpOutcome::Both(jump_state) => {
                                let depth = base + path.len();
                                debug_assert!(worklist
                                    .last()
                                    .is_none_or(|&(_, _, top)| top <= depth));
                                worklist.push((*jump_state, target, depth));
                                pc += 1;
                            }
                        }
                    }
                    InsnKind::Call { target } => match target {
                        CallTarget::Helper(id) => {
                            // `bpf_tail_call` transfers control but also
                            // falls through on failure; state-wise it is a
                            // plain helper returning a scalar.
                            self.check_helper_call(&mut state, pc, id)?;
                            pc += 1;
                        }
                        CallTarget::Kfunc(id) => {
                            self.check_kfunc_call(&mut state, pc, id)?;
                            pc += 1;
                        }
                        CallTarget::Pseudo(off) => {
                            let target = (pc as i64 + 1 + off as i64) as usize;
                            self.enter_subprog(&mut state, pc, target)?;
                            pc = target;
                        }
                    },
                    InsnKind::Exit => {
                        if state.depth() > 0 {
                            pc = self.return_from_subprog(&mut state, pc)?;
                            continue 'path;
                        }
                        self.check_main_exit(&state, pc)?;
                        break 'path;
                    }
                }
            }
        }
        Ok(())
    }

    fn check_ld_imm64(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
        dst: Reg,
        src_pseudo: u8,
        imm64: u64,
    ) -> Result<(), VerifierError> {
        self.cov.hit(Cat::Pseudo, src_pseudo as u32, 0);
        let out = match src_pseudo {
            pseudo::NONE => RegState::known_scalar(imm64),
            pseudo::MAP_FD => {
                let fd = imm64 as u32;
                let Some(map) = self.kernel.maps.get(fd) else {
                    self.cov.hit(Cat::Error, 4, 0);
                    return Err(VerifierError::invalid(
                        RejectReason::BadMapFd,
                        pc,
                        format!("fd {fd} is not a map"),
                    ));
                };
                self.used_maps.insert(map.id);
                RegState::pointer(RegType::ConstPtrToMap { map_id: map.id })
            }
            pseudo::MAP_VALUE => {
                let fd = imm64 as u32;
                let off = (imm64 >> 32) as u32;
                let Some(map) = self.kernel.maps.get(fd) else {
                    self.cov.hit(Cat::Error, 4, 0);
                    return Err(VerifierError::invalid(
                        RejectReason::BadMapFd,
                        pc,
                        format!("fd {fd} is not a map"),
                    ));
                };
                if map.def.map_type != MapType::Array {
                    self.cov.hit(Cat::Error, 5, 0);
                    return Err(VerifierError::invalid(
                        RejectReason::BadDirectValue,
                        pc,
                        "direct value access only supported for array maps",
                    ));
                }
                if off >= map.def.value_size {
                    self.cov.hit(Cat::Error, 6, 0);
                    return Err(VerifierError::invalid(
                        RejectReason::BadDirectValue,
                        pc,
                        format!(
                            "direct value offset {off} beyond value_size {}",
                            map.def.value_size
                        ),
                    ));
                }
                self.used_maps.insert(map.id);
                let mut r = RegState::pointer(RegType::PtrToMapValue { map_id: map.id });
                r.off = off as i32;
                r
            }
            pseudo::BTF_ID => {
                let btf_id = imm64 as u32;
                if self.kernel.btf.type_by_id(btf_id).is_none() {
                    self.cov.hit(Cat::Error, 7, btf_id.min(16));
                    return Err(VerifierError::invalid(
                        RejectReason::BtfAccessInvalid,
                        pc,
                        format!("ldimm64 unable to resolve btf_id {btf_id}"),
                    ));
                }
                // Trusted per the type system — not marked maybe_null even
                // though the object may be null at runtime (the seed of
                // bug #1).
                RegState::pointer(RegType::PtrToBtfId { btf_id })
            }
            other => {
                self.cov.hit(Cat::Error, 8, other as u32);
                return Err(VerifierError::invalid(
                    RejectReason::MalformedInsn,
                    pc,
                    format!("unknown ldimm64 src_reg {other}"),
                ));
            }
        };
        *state.cur_mut().reg_mut(dst) = out;
        Ok(())
    }

    fn check_ld_legacy(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
        kind: &InsnKind,
    ) -> Result<(), VerifierError> {
        if !matches!(
            self.prog_type,
            ProgType::SocketFilter | ProgType::SchedCls | ProgType::CgroupSkb
        ) {
            self.cov.hit(Cat::Error, 9, 0);
            return Err(VerifierError::invalid(
                RejectReason::UnsupportedInsn,
                pc,
                "BPF_LD_[ABS|IND] instructions not allowed for this program type",
            ));
        }
        if let InsnKind::LdInd { src, .. } = kind {
            self.check_reg_init(state, *src, pc)?;
        }
        // The legacy loads implicitly use ctx in R6 per ABI... our ABI
        // keeps R1; they clobber caller-saved regs and load into R0.
        state.cur_mut().clobber_caller_saved();
        *state.cur_mut().reg_mut(Reg::R0) = RegState::unknown_scalar();
        Ok(())
    }

    fn enter_subprog(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
        target: usize,
    ) -> Result<(), VerifierError> {
        self.cov.hit(Cat::Subprog, 0, 1);
        if state.frames.len() >= MAX_CALL_FRAMES {
            self.cov.hit(Cat::Error, 10, 0);
            return Err(VerifierError::invalid(
                RejectReason::CallDepthLimit,
                pc,
                format!("the call stack of {MAX_CALL_FRAMES} frames is too deep"),
            ));
        }
        if self.decoded.get(target).copied().flatten().is_none() {
            self.cov.hit(Cat::Error, 11, 0);
            return Err(VerifierError::invalid(
                RejectReason::BadCallTarget,
                pc,
                "invalid subprog call target",
            ));
        }
        let mut callee = FuncState::new(target, pc + 1);
        // Arguments R1..R5 are passed; R10 is the callee's own frame.
        for r in Reg::ARGS {
            callee.regs[r.index()] = *state.cur().reg(r);
        }
        callee.regs[Reg::R10.index()] = RegState::pointer(RegType::PtrToStack);
        state.frames.push(Rc::new(callee));
        Ok(())
    }

    fn return_from_subprog(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
    ) -> Result<usize, VerifierError> {
        let callee = state.frames.pop().expect("depth checked");
        let r0 = callee.regs[Reg::R0.index()];
        if r0.typ != RegType::Scalar {
            self.cov.hit(Cat::Error, 12, 0);
            return Err(VerifierError::invalid(
                RejectReason::BadReturnValue,
                pc,
                "At callback/subprog exit the register R0 must be a scalar",
            )
            .with_reg(0));
        }
        self.cov.hit(Cat::Subprog, 0, 2);
        let caller = state.cur_mut();
        caller.clobber_caller_saved();
        caller.regs[Reg::R0.index()] = r0;
        Ok(callee.callsite)
    }

    fn check_main_exit(&mut self, state: &VerifierState, pc: usize) -> Result<(), VerifierError> {
        let r0 = state.cur().reg(Reg::R0);
        if r0.typ == RegType::NotInit {
            self.cov.hit(Cat::Error, 13, 0);
            return Err(
                VerifierError::access(RejectReason::UninitRegRead, pc, "R0 !read_ok").with_reg(0),
            );
        }
        if r0.typ != RegType::Scalar {
            self.cov.hit(Cat::Error, 14, 0);
            return Err(VerifierError::access(
                RejectReason::BadReturnValue,
                pc,
                format!("At program exit the register R0 has type {}", r0.typ.name()),
            )
            .with_reg(0));
        }
        if let Some(r) = state.acquired_refs.first() {
            self.cov.hit(Cat::Error, 15, 0);
            return Err(VerifierError::invalid(
                RejectReason::UnreleasedReference,
                pc,
                format!("Unreleased reference id={} alloc_insn={}", r.id, r.insn_idx),
            ));
        }
        self.cov.hit(Cat::InsnClass, 100, 0);
        Ok(())
    }
}
