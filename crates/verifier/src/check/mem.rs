//! Memory access checking (`check_mem_access`).
//!
//! Validates every load/store against the abstract state: stack slot
//! tracking (spill/fill), context layout rules, map value bounds, packet
//! ranges, BTF object bounds, and allocated-memory bounds. Bug #2 — the
//! incorrect `task_struct` access validation — is injected in the BTF arm.

use bvf_isa::{InsnKind, Reg, Size};
use bvf_kernel_sim::btf::{ids as btf_ids, BtfAccess, BtfAccessError};
use bvf_kernel_sim::progtype::CtxAccess;
use bvf_kernel_sim::BugId;

use crate::cov::Cat;
use crate::env::Verifier;
use crate::errors::{RejectReason, VerifierError};
use crate::state::{FuncState, StackByte, StackSlot, VerifierState};
use crate::types::{RegState, RegType};

/// Why the memory is being accessed; stores and atomics need writability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessKind {
    Read,
    Write,
    /// Atomic read-modify-write (needs both).
    Atomic,
}

impl AccessKind {
    fn is_write(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Atomic)
    }
}

impl<'a> Verifier<'a> {
    /// Checks one load/store/atomic instruction and updates state.
    pub(crate) fn check_mem(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
        kind: &InsnKind,
    ) -> Result<(), VerifierError> {
        match *kind {
            InsnKind::Ldx {
                size,
                dst,
                src,
                off,
                sign_extend,
            } => {
                if sign_extend && !self.opts.version.has_memsx() {
                    self.cov.hit(Cat::Error, 200, 0);
                    return Err(VerifierError::invalid(
                        RejectReason::UnsupportedInsn,
                        pc,
                        "BPF_MEMSX loads not supported by this kernel",
                    ));
                }
                self.check_reg_init(state, src, pc)?;
                let loaded = self.check_access(state, pc, src, off, size, AccessKind::Read)?;
                let mut out = loaded.unwrap_or_else(|| {
                    // A narrow load zero-extends: the result is bounded by
                    // the access width (`coerce_reg_to_size`).
                    let mut r = RegState::unknown_scalar();
                    if size != Size::Dw && !sign_extend {
                        r.var_off = crate::tnum::Tnum::UNKNOWN.cast(size.bytes() as u8);
                        r.umin = 0;
                        r.umax = (1u64 << (size.bytes() * 8)) - 1;
                        r.combine_64_into_32();
                        r.normalize();
                    }
                    r
                });
                if sign_extend && out.typ == RegType::Scalar {
                    // Sign extension scrambles unsigned reasoning; keep
                    // constants, drop the rest.
                    out = match out.const_value() {
                        Some(v) => {
                            let sv = match size {
                                Size::B => v as u8 as i8 as i64 as u64,
                                Size::H => v as u16 as i16 as i64 as u64,
                                Size::W => v as u32 as i32 as i64 as u64,
                                Size::Dw => v,
                            };
                            RegState::known_scalar(sv)
                        }
                        None => RegState::unknown_scalar(),
                    };
                }
                *state.cur_mut().reg_mut(dst) = out;
                Ok(())
            }
            InsnKind::St { size, dst, off, .. } => {
                self.check_reg_init(state, dst, pc)?;
                self.check_access(state, pc, dst, off, size, AccessKind::Write)?;
                // An immediate store writes known data; stack tracking
                // happened inside check_access via the value param below.
                Ok(())
            }
            InsnKind::Stx {
                size,
                dst,
                src,
                off,
            } => {
                self.check_reg_init(state, src, pc)?;
                self.check_reg_init(state, dst, pc)?;
                // Unprivileged: storing a pointer anywhere user space can
                // read it back (map values, packets) leaks kernel
                // addresses.
                if self.opts.unprivileged
                    && state.cur().reg(src).typ.is_pointer()
                    && state.cur().reg(dst).typ != RegType::PtrToStack
                {
                    self.cov.hit(Cat::Error, 222, 0);
                    return Err(VerifierError::access(
                        RejectReason::UnprivPtrOp,
                        pc,
                        format!(
                            "R{} leaks addr into {}",
                            src.as_u8(),
                            state.cur().reg(dst).typ.name()
                        ),
                    )
                    .with_reg(src.as_u8()));
                }
                // Spilling to the stack is handled inside the stack arm.
                let src_state = *state.cur().reg(src);
                self.stack_spill_candidate = Some(src_state);
                let res = self.check_access(state, pc, dst, off, size, AccessKind::Write);
                self.stack_spill_candidate = None;
                res?;
                Ok(())
            }
            InsnKind::Atomic {
                op,
                size,
                dst,
                src,
                off,
            } => {
                self.cov.hit(Cat::Atomic, op.to_imm() as u32, size as u32);
                self.check_reg_init(state, src, pc)?;
                self.check_reg_init(state, dst, pc)?;
                if state.cur().reg(src).typ.is_pointer() {
                    self.cov.hit(Cat::Error, 201, 0);
                    return Err(VerifierError::access(
                        RejectReason::AtomicOpInvalid,
                        pc,
                        "atomic operand must be a scalar",
                    ));
                }
                // Atomics on the stack or ctx are rejected by the kernel;
                // map values and allocated memory are fine.
                let base = state.cur().reg(dst).typ;
                if matches!(base, RegType::PtrToCtx | RegType::PtrToPacket) {
                    self.cov.hit(Cat::Error, 202, 0);
                    return Err(VerifierError::access(
                        RejectReason::AtomicOpInvalid,
                        pc,
                        format!("atomic access to {} prohibited", base.name()),
                    ));
                }
                self.check_access(state, pc, dst, off, size, AccessKind::Atomic)?;
                if op.fetches() {
                    let fetch_reg = if op == bvf_isa::AtomicOp::Cmpxchg {
                        Reg::R0
                    } else {
                        src
                    };
                    *state.cur_mut().reg_mut(fetch_reg) = RegState::unknown_scalar();
                }
                Ok(())
            }
            _ => unreachable!("non-memory instruction routed to check_mem"),
        }
    }

    /// Core access validation. Returns the loaded register state for
    /// reads that yield something more precise than an unknown scalar.
    pub(crate) fn check_access(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
        base: Reg,
        off: i16,
        size: Size,
        kind: AccessKind,
    ) -> Result<Option<RegState>, VerifierError> {
        let reg = *state.cur().reg(base);
        let bytes = size.bytes();
        self.cov
            .hit(Cat::MemAccess, reg.typ.tag(), kind.is_write() as u32);

        if reg.maybe_null {
            self.cov.hit(Cat::Error, 203, 0);
            return Err(VerifierError::access(
                RejectReason::NullPtrDeref,
                pc,
                format!(
                    "R{} invalid mem access '{}_or_null'",
                    base.as_u8(),
                    reg.typ.name()
                ),
            )
            .with_reg(base.as_u8()));
        }

        match reg.typ {
            RegType::PtrToStack => self.check_stack_access(state, pc, base, reg, off, bytes, kind),
            RegType::PtrToCtx => {
                if !reg.has_const_offset() {
                    self.cov.hit(Cat::Error, 204, 0);
                    return Err(VerifierError::access(
                        RejectReason::CtxAccessInvalid,
                        pc,
                        "variable ctx access prohibited",
                    ));
                }
                let total = reg.off as i64 + off as i64;
                if total < 0 || total > u32::MAX as i64 {
                    self.cov.hit(Cat::Error, 205, 0);
                    return Err(VerifierError::access(
                        RejectReason::CtxAccessInvalid,
                        pc,
                        "invalid negative ctx offset",
                    ));
                }
                let layout = self.prog_type.ctx_layout();
                match layout.check_access(total as u32, bytes, kind.is_write()) {
                    Ok(CtxAccess::Scalar) => {
                        self.cov
                            .hit(Cat::CtxField, total as u32, kind.is_write() as u32);
                        Ok(None)
                    }
                    Ok(CtxAccess::PacketData) => {
                        self.cov.hit(Cat::CtxField, total as u32, 2);
                        let mut r = RegState::pointer(RegType::PtrToPacket);
                        r.id = self.new_id();
                        Ok(Some(r))
                    }
                    Ok(CtxAccess::PacketEnd) => {
                        self.cov.hit(Cat::CtxField, total as u32, 3);
                        Ok(Some(RegState::pointer(RegType::PtrToPacketEnd)))
                    }
                    Err(()) => {
                        self.cov.hit(Cat::Error, 206, total as u32);
                        Err(VerifierError::access(
                            RejectReason::CtxAccessInvalid,
                            pc,
                            format!("invalid bpf_context access off={total} size={bytes}"),
                        ))
                    }
                }
            }
            RegType::PtrToMapValue { map_id } => {
                let value_size = self
                    .kernel
                    .maps
                    .get(map_id)
                    .map(|m| m.def.value_size)
                    .unwrap_or(0) as i64;
                self.check_bounded_region(pc, base, &reg, off, bytes, value_size, "map_value")?;
                self.mark_sanitize(pc);
                Ok(None)
            }
            RegType::PtrToMem { size: mem_size, .. } => {
                self.check_bounded_region(pc, base, &reg, off, bytes, mem_size as i64, "mem")?;
                self.mark_sanitize(pc);
                Ok(None)
            }
            RegType::PtrToPacket => {
                // Packet access requires a verified range from a
                // comparison against pkt_end.
                if kind.is_write()
                    && !matches!(
                        self.prog_type,
                        bvf_kernel_sim::progtype::ProgType::Xdp
                            | bvf_kernel_sim::progtype::ProgType::SchedCls
                    )
                {
                    self.cov.hit(Cat::Error, 207, 0);
                    return Err(VerifierError::access(
                        RejectReason::PacketAccessInvalid,
                        pc,
                        "cannot write into packet",
                    ));
                }
                let total = reg.off as i64 + off as i64;
                let end = total + bytes as i64;
                let var_max = if reg.has_const_offset() {
                    0
                } else {
                    reg.umax as i64
                };
                if total < 0 || var_max.saturating_add(end) > reg.pkt_range as i64 {
                    self.cov.hit(Cat::Error, 208, 0);
                    return Err(VerifierError::access(
                        RejectReason::PacketAccessInvalid,
                        pc,
                        format!(
                            "invalid access to packet, off={off} size={bytes}, R{}(pkt_range={})",
                            base.as_u8(),
                            reg.pkt_range
                        ),
                    )
                    .with_reg(base.as_u8()));
                }
                self.cov
                    .hit(Cat::PktRange, (reg.pkt_range as u32).min(64), 0);
                self.mark_sanitize(pc);
                Ok(None)
            }
            RegType::PtrToBtfId { btf_id } => {
                if kind.is_write() {
                    self.cov.hit(Cat::Error, 209, 0);
                    return Err(VerifierError::access(
                        RejectReason::BtfAccessInvalid,
                        pc,
                        "writes to BTF pointers are not allowed",
                    ));
                }
                if !reg.has_const_offset() {
                    self.cov.hit(Cat::Error, 210, 0);
                    return Err(VerifierError::access(
                        RejectReason::BtfAccessInvalid,
                        pc,
                        "variable offset btf_id access prohibited",
                    ));
                }
                let total = reg.off as i64 + off as i64;
                if total < 0 {
                    self.cov.hit(Cat::Error, 211, 0);
                    return Err(VerifierError::access(
                        RejectReason::BtfAccessInvalid,
                        pc,
                        "negative btf_id offset",
                    ));
                }
                let access = if self.has_bug(BugId::TaskStructOob) && btf_id == btf_ids::TASK_STRUCT
                {
                    // Bug #2: the buggy validation only checks that the
                    // *offset* is inside the object, ignoring the access
                    // size — `off + size` may run past the end.
                    let ty_size = self
                        .kernel
                        .btf
                        .type_by_id(btf_id)
                        .map(|t| t.size)
                        .unwrap_or(0) as i64;
                    if total < ty_size {
                        Ok(BtfAccess::Scalar)
                    } else {
                        Err(BtfAccessError::OutOfBounds {
                            off: total as u32,
                            size: bytes,
                            type_size: ty_size as u32,
                        })
                    }
                } else {
                    self.kernel.btf.struct_access(btf_id, total as u32, bytes)
                };
                self.cov.hit(Cat::MemAccess, 300 + btf_id, total as u32);
                match access {
                    Ok(BtfAccess::Scalar) => {
                        // BTF loads get an exception-table entry: a fault
                        // reads zero instead of crashing.
                        self.insn_meta[pc].ex_handled = true;
                        self.mark_sanitize(pc);
                        Ok(None)
                    }
                    Ok(BtfAccess::Ptr(target)) => {
                        self.insn_meta[pc].ex_handled = true;
                        self.mark_sanitize(pc);
                        let r = RegState::pointer(RegType::PtrToBtfId { btf_id: target });
                        Ok(Some(r))
                    }
                    Err(e) => {
                        self.cov.hit(Cat::Error, 212, 0);
                        Err(VerifierError::access(
                            RejectReason::BtfAccessInvalid,
                            pc,
                            format!("invalid access to btf_id {btf_id}: {e:?}"),
                        ))
                    }
                }
            }
            RegType::ConstPtrToMap { .. } => {
                self.cov.hit(Cat::Error, 213, 0);
                Err(VerifierError::access(
                    RejectReason::MemAccessInvalid,
                    pc,
                    format!("R{} invalid mem access 'map_ptr'", base.as_u8()),
                )
                .with_reg(base.as_u8()))
            }
            RegType::PtrToPacketEnd => {
                self.cov.hit(Cat::Error, 214, 0);
                Err(VerifierError::access(
                    RejectReason::PacketAccessInvalid,
                    pc,
                    format!("R{} invalid mem access 'pkt_end'", base.as_u8()),
                )
                .with_reg(base.as_u8()))
            }
            RegType::Scalar => {
                self.cov.hit(Cat::Error, 215, 0);
                Err(VerifierError::access(
                    RejectReason::MemAccessInvalid,
                    pc,
                    format!("R{} invalid mem access 'scalar'", base.as_u8()),
                )
                .with_reg(base.as_u8()))
            }
            RegType::NotInit => {
                self.cov.hit(Cat::Error, 216, 0);
                Err(VerifierError::access(
                    RejectReason::UninitRegRead,
                    pc,
                    format!("R{} !read_ok", base.as_u8()),
                )
                .with_reg(base.as_u8()))
            }
        }
    }

    /// Bounds check for map values and sized memory regions, including the
    /// variable part of the pointer.
    #[allow(clippy::too_many_arguments)]
    fn check_bounded_region(
        &mut self,
        pc: usize,
        base: Reg,
        reg: &RegState,
        off: i16,
        bytes: u32,
        region_size: i64,
        what: &str,
    ) -> Result<(), VerifierError> {
        // The pointer's total offset = fixed off + variable part (bounds
        // tracked in the reg) + the instruction's constant offset.
        let lo = reg.off as i64 + reg.smin.min(reg.umin as i64) + off as i64;
        let hi_var = if reg.has_const_offset() {
            0
        } else {
            reg.umax as i64
        };
        let hi = reg.off as i64 + hi_var + off as i64 + bytes as i64;
        if reg.smin < 0 && !reg.has_const_offset() {
            self.cov.hit(Cat::Error, 217, 0);
            return Err(VerifierError::access(
                RejectReason::MemOobAccess,
                pc,
                format!(
                    "R{} min value is negative, either use unsigned index or do a if (index >=0) check",
                    base.as_u8()
                ),
            )
            .with_reg(base.as_u8()));
        }
        if lo < 0 || hi > region_size {
            self.cov.hit(Cat::Error, 218, 0);
            return Err(VerifierError::access(
                RejectReason::MemOobAccess,
                pc,
                format!(
                    "invalid access to {what}, off={} size={bytes} {what}_size={region_size}",
                    reg.off as i64 + off as i64
                ),
            )
            .with_reg(base.as_u8()));
        }
        Ok(())
    }

    /// Stack access: offset must be constant; handles spill/fill tracking.
    #[allow(clippy::too_many_arguments)]
    fn check_stack_access(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
        base: Reg,
        reg: RegState,
        off: i16,
        bytes: u32,
        kind: AccessKind,
    ) -> Result<Option<RegState>, VerifierError> {
        if !reg.has_const_offset() {
            self.cov.hit(Cat::Error, 219, 0);
            return Err(VerifierError::access(
                RejectReason::StackOobAccess,
                pc,
                format!("R{} variable stack access prohibited", base.as_u8()),
            )
            .with_reg(base.as_u8()));
        }
        let total = reg.off as i64 + reg.var_off.value as i64 + off as i64;
        if total >= 0 || total < -(bvf_isa::reg::STACK_SIZE as i64) || total + bytes as i64 > 0 {
            self.cov.hit(Cat::Error, 220, 0);
            return Err(VerifierError::access(
                RejectReason::StackOobAccess,
                pc,
                format!("invalid stack off={total} size={bytes}"),
            )
            .with_reg(base.as_u8())
            .with_stack_off(total as i32));
        }
        let total = total as i32;

        // R10-based constant-offset accesses are provably in bounds; the
        // instrumentation-reduction strategy skips them.
        if base == Reg::R10 {
            self.insn_meta[pc].stack_const = true;
        } else {
            self.mark_sanitize(pc);
        }

        match kind {
            AccessKind::Write | AccessKind::Atomic => {
                self.cov.hit(Cat::StackOp, 1, (total & 0xffff) as u32);
                let spill = self.stack_spill_candidate.take();
                self.stack_write(state, total, bytes, spill);
                if kind == AccessKind::Atomic {
                    // Atomic also reads; require initialized bytes.
                    self.stack_read(state, pc, total, bytes).map(|_| ())?;
                }
                Ok(None)
            }
            AccessKind::Read => {
                self.cov.hit(Cat::StackOp, 0, (total & 0xffff) as u32);
                self.stack_read(state, pc, total, bytes)
            }
        }
    }

    /// Records a stack write; an 8-byte aligned register store spills the
    /// register state precisely.
    fn stack_write(
        &mut self,
        state: &mut VerifierState,
        off: i32,
        bytes: u32,
        spill: Option<RegState>,
    ) {
        let stack = &mut state.cur_mut().stack;
        if bytes == 8 && off % 8 == 0 {
            let (slot, _) = FuncState::stack_index(off).expect("validated");
            if let Some(src) = spill {
                stack.set_slot(
                    slot,
                    StackSlot {
                        bytes: [StackByte::Spill; 8],
                        spilled: src,
                    },
                );
                self.cov.hit(Cat::StackOp, 2, src.typ.name().len() as u32);
                return;
            }
            // Full-width immediate store: value is known but we track it
            // as MISC (kernel tracks ZERO specially for imm 0).
            stack.set_slot(
                slot,
                StackSlot {
                    bytes: [StackByte::Misc; 8],
                    spilled: RegState::not_init(),
                },
            );
            return;
        }
        // Partial write: invalidate any spill, mark bytes misc.
        for i in 0..bytes as i32 {
            let (slot, byte) = FuncState::stack_index(off + i).expect("validated");
            stack.write_misc_byte(slot, byte);
        }
    }

    /// Validates a stack read; fills a spilled register when aligned.
    fn stack_read(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
        off: i32,
        bytes: u32,
    ) -> Result<Option<RegState>, VerifierError> {
        let stack = &state.cur().stack;
        if bytes == 8 && off % 8 == 0 {
            let (slot, _) = FuncState::stack_index(off).expect("validated");
            if let Some(r) = stack.spilled(slot) {
                self.cov.hit(Cat::StackOp, 3, 0);
                return Ok(Some(*r));
            }
        }
        for i in 0..bytes as i32 {
            let (slot, byte) = FuncState::stack_index(off + i).expect("validated");
            if stack.bytes(slot)[byte] == StackByte::Invalid {
                self.cov.hit(Cat::Error, 221, 0);
                return Err(VerifierError::access(
                    RejectReason::StackUninitRead,
                    pc,
                    format!("invalid read from stack off {} — uninitialized", off + i),
                )
                .with_stack_off(off + i));
            }
        }
        Ok(None)
    }

    /// Flags the instruction for memory-access sanitation.
    fn mark_sanitize(&mut self, pc: usize) {
        self.insn_meta[pc].sanitize_mem = true;
    }
}
