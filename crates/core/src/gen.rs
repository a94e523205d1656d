//! Structured eBPF program generation (paper §4.1, Figure 4).
//!
//! Programs are partitioned into three top-level sections:
//!
//! - the **init header** initializes registers with interesting loading
//!   instructions (map fds, direct map values, BTF ids, random
//!   immediates, the context pointer);
//! - the **framed body** is a sequence of *basic frames* (state-aware
//!   loads/stores/ALU on accessible objects), *call frames* (helper and
//!   kfunc invocations with prototype-directed argument synthesis), and
//!   *jump frames* (forward guards and bounded back-edge loops whose
//!   offsets are derived from the generated body length);
//! - the **end section** guarantees a scalar `R0` and a valid `exit`.
//!
//! The generator tracks approximate register and stack state while
//! emitting, so operand choices respect the verifier's basic rules
//! (initialize-before-use, in-bounds constant offsets, null checks after
//! nullable returns) — raising the acceptance rate far above random
//! generation while still exercising deep verifier logic.

use rand::rngs::StdRng;
use rand::Rng;

use bvf_isa::{asm, AluOp, Insn, JmpOp, Program, Reg, Size};
use bvf_kernel_sim::btf::ids as btf_ids;
use bvf_kernel_sim::helpers::kfunc::ids as kfunc_ids;
use bvf_kernel_sim::helpers::proto::ids as helper;
use bvf_kernel_sim::progtype::{CtxFieldKind, ProgType};
use bvf_kernel_sim::tracepoint::Tracepoint;
use bvf_verifier::KernelVersion;

use crate::scenario::{Scenario, Trigger};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum frames in the top-level body.
    pub max_body_frames: usize,
    /// Kernel version (gates helpers/kfuncs the generator may emit).
    pub version: KernelVersion,
    /// Bias generation toward memory accesses through map values, BTF
    /// objects, and packets — the instruction mix of the kernel's
    /// verifier self-tests (used by the §6.4 overhead corpus).
    pub mem_heavy: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_body_frames: 6,
            version: KernelVersion::BpfNext,
            mem_heavy: false,
        }
    }
}

/// Approximate value state the generator tracks per register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GType {
    Uninit,
    Scalar,
    /// Scalar known to be within `[0, max]` (after masking).
    Bounded(u32),
    CtxPtr,
    MapPtr(u32),
    /// Non-null pointer into the value of map `fd`.
    MapValue(u32),
    BtfPtr(u32),
    PacketPtr,
    PacketEnd,
}

impl GType {
    fn is_scalar(self) -> bool {
        matches!(self, GType::Scalar | GType::Bounded(_))
    }
}

/// Map geometry the generator knows about (the standard scenario maps).
const ARRAY_FD: u32 = 0;
const HASH_FD: u32 = 1;
const RINGBUF_FD: u32 = 2;
const PROG_ARRAY_FD: u32 = 3;
const ARRAY_VALUE_SIZE: i32 = 16;
const HASH_KEY_SIZE: u32 = 8;
const HASH_VALUE_SIZE: u32 = 16;

/// The register the generator dedicates to the saved context pointer.
const CTX_REG: Reg = Reg::R9;

struct GenState {
    insns: Vec<Insn>,
    regs: [GType; 10],
    /// Initialized 8-byte stack slots, by slot index (slot 0 = fp-8).
    stack_init: [bool; 16],
    /// Registers currently reserved (loop counters).
    reserved: u16,
    prog_type: ProgType,
}

impl GenState {
    fn reg_type(&self, r: Reg) -> GType {
        self.regs[r.index()]
    }

    fn set_reg(&mut self, r: Reg, t: GType) {
        self.regs[r.index()] = t;
    }

    fn is_reserved(&self, r: Reg) -> bool {
        self.reserved & (1 << r.as_u8()) != 0
    }

    fn reserve(&mut self, r: Reg) {
        self.reserved |= 1 << r.as_u8();
    }

    fn unreserve(&mut self, r: Reg) {
        self.reserved &= !(1 << r.as_u8());
    }

    /// Picks a register matching `pred`, excluding reserved ones and the
    /// context holder.
    fn pick_reg(&self, rng: &mut StdRng, pred: impl Fn(GType) -> bool) -> Option<Reg> {
        let candidates: Vec<Reg> = [
            Reg::R0,
            Reg::R2,
            Reg::R3,
            Reg::R4,
            Reg::R5,
            Reg::R6,
            Reg::R7,
            Reg::R8,
        ]
        .into_iter()
        .filter(|r| !self.is_reserved(*r) && pred(self.reg_type(*r)))
        .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[rng.gen_range(0..candidates.len())])
        }
    }

    /// A register safe to clobber (prefers scratch over callee-saved).
    fn pick_dst(&self, rng: &mut StdRng) -> Reg {
        self.pick_reg(rng, |_| true).unwrap_or(Reg::R2)
    }

    /// Ensures some register holds a scalar, materializing one if needed.
    fn want_scalar(&mut self, rng: &mut StdRng) -> Reg {
        if let Some(r) = self.pick_reg(rng, GType::is_scalar) {
            return r;
        }
        let r = self.pick_dst(rng);
        self.insns.push(asm::mov64_imm(r, rng.gen_range(-64..64)));
        self.set_reg(r, GType::Scalar);
        r
    }

    /// Emits stores initializing `len` bytes at `fp - slot_off` (8-byte
    /// slots) and returns the fp-relative offset.
    fn init_stack_region(&mut self, rng: &mut StdRng, len: u32) -> i16 {
        let slots_needed = len.div_ceil(8) as usize;
        // Use the lower slot area (slots 4..16) to keep slots 0..4 free
        // for keys; deterministic choice keeps offsets valid.
        let first = rng.gen_range(0..(12 - slots_needed)) + 4;
        for s in 0..slots_needed {
            let slot = first + s;
            let off = -8 * (slot as i16 + 1);
            self.insns
                .push(asm::st_mem(Size::Dw, Reg::R10, off, rng.gen_range(0..256)));
            if slot < 16 {
                self.stack_init[slot] = true;
            }
        }
        -8 * (first as i16 + slots_needed as i16 - 1) - 8
    }

    /// Emits `rd = r10 + off`.
    fn stack_ptr_into(&mut self, rd: Reg, off: i16) {
        self.insns.push(asm::mov64_reg(rd, Reg::R10));
        self.insns.push(asm::alu64_imm(AluOp::Add, rd, off as i32));
    }
}

/// The structured program generator.
pub struct StructuredGen {
    /// Configuration.
    pub cfg: GenConfig,
}

impl StructuredGen {
    /// Creates a generator.
    pub fn new(cfg: GenConfig) -> StructuredGen {
        StructuredGen { cfg }
    }

    /// Generates one scenario (program + trigger).
    pub fn generate(&self, rng: &mut StdRng) -> Scenario {
        let prog_type = *pick(
            rng,
            &[
                ProgType::SocketFilter,
                ProgType::Kprobe,
                ProgType::Kprobe,
                ProgType::Tracepoint,
                ProgType::Xdp,
                ProgType::PerfEvent,
                ProgType::SchedCls,
                ProgType::RawTracepoint,
            ],
        );
        let mut st = GenState {
            insns: Vec::new(),
            regs: [GType::Uninit; 10],
            stack_init: [false; 16],
            reserved: 0,
            prog_type,
        };
        st.set_reg(Reg::R1, GType::CtxPtr);

        self.init_header(rng, &mut st);
        let frames = rng.gen_range(1..=self.cfg.max_body_frames);
        // Optionally plan a bpf-to-bpf subprogram: reserve call sites now,
        // emit the function body after the end section.
        let mut subprog_callsites: Vec<usize> = Vec::new();
        for _ in 0..frames {
            if rng.gen_bool(0.08) && subprog_callsites.len() < 2 {
                // Call frame to the (future) subprogram: pass one scalar.
                let arg = st.want_scalar(rng);
                if arg != Reg::R1 {
                    st.insns.push(asm::mov64_reg(Reg::R1, arg));
                }
                subprog_callsites.push(st.insns.len());
                st.insns.push(asm::call_pseudo(0)); // patched below
                for r in [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5] {
                    st.set_reg(r, GType::Uninit);
                }
                st.set_reg(Reg::R0, GType::Scalar);
            } else {
                self.emit_frame(rng, &mut st, 2);
            }
        }
        self.end_section(rng, &mut st);
        if !subprog_callsites.is_empty() {
            // The subprogram: r0 = f(r1), pure scalar arithmetic.
            let func_start = st.insns.len();
            st.insns.push(asm::mov64_reg(Reg::R0, Reg::R1));
            for _ in 0..rng.gen_range(0..4) {
                let op = *pick(rng, &[AluOp::Add, AluOp::Xor, AluOp::Mul, AluOp::Rsh]);
                let imm = match op {
                    AluOp::Rsh => rng.gen_range(0..64),
                    _ => rng.gen_range(-64..64),
                };
                st.insns.push(asm::alu64_imm(op, Reg::R0, imm));
            }
            st.insns.push(asm::exit());
            for cs in subprog_callsites {
                st.insns[cs].imm = (func_start - cs - 1) as i32;
            }
        }
        let r0_scalar_at_end = st.reg_type(Reg::R0).is_scalar();
        let _ = r0_scalar_at_end;

        // Programs destined for the xlated-dump syscall are inflated so
        // the rewritten image exceeds the slab-allocation cap.
        let trigger = self.pick_trigger(rng, prog_type);
        if trigger == Trigger::GetXlated && rng.gen_bool(0.5) {
            let filler = rng.gen_range(280..420);
            let exit_keep = st.insns.pop();
            for i in 0..filler {
                st.insns.push(asm::alu64_imm(AluOp::Add, Reg::R0, i & 0xff));
            }
            if !st.reg_type(Reg::R0).is_scalar() {
                st.insns.push(asm::mov64_imm(Reg::R0, 0));
            }
            if let Some(e) = exit_keep {
                st.insns.push(e);
            }
        }
        let prog = Program::from_insns(st.insns);
        let mut scenario = Scenario {
            prog,
            prog_type,
            offloaded: prog_type == ProgType::Xdp && rng.gen_bool(0.1),
            trigger,
            map_seed: Vec::new(),
        };
        // Seed maps so lookups sometimes hit and sometimes miss.
        for k in 0..2u32 {
            let mut value = vec![0u8; ARRAY_VALUE_SIZE as usize];
            value[..8].copy_from_slice(&rng.gen::<u64>().to_le_bytes());
            scenario
                .map_seed
                .push((ARRAY_FD, k.to_le_bytes().to_vec(), value));
        }
        if rng.gen_bool(0.5) {
            let key = (rng.gen_range(0..4u64)).to_le_bytes().to_vec();
            let mut value = vec![0u8; HASH_VALUE_SIZE as usize];
            value[..8].copy_from_slice(&rng.gen::<u64>().to_le_bytes());
            scenario.map_seed.push((HASH_FD, key, value));
        }
        scenario
    }

    fn pick_trigger(&self, rng: &mut StdRng, prog_type: ProgType) -> Trigger {
        match prog_type {
            ProgType::Kprobe | ProgType::Tracepoint | ProgType::RawTracepoint => {
                if rng.gen_bool(0.6) {
                    Trigger::Tracepoint(*pick(rng, &Tracepoint::ALL))
                } else if rng.gen_bool(0.05) {
                    Trigger::GetXlated
                } else {
                    Trigger::TestRun
                }
            }
            ProgType::Xdp => {
                if rng.gen_bool(0.5) {
                    Trigger::XdpReceive
                } else {
                    Trigger::TestRun
                }
            }
            _ => {
                if rng.gen_bool(0.05) {
                    Trigger::GetXlated
                } else {
                    Trigger::TestRun
                }
            }
        }
    }

    /// Section (1)+(2): register initialization.
    fn init_header(&self, rng: &mut StdRng, st: &mut GenState) {
        // Save the context pointer; parameter registers are otherwise
        // skipped (they already carry complex states).
        st.insns.push(asm::mov64_reg(CTX_REG, Reg::R1));
        st.set_reg(CTX_REG, GType::CtxPtr);
        st.reserve(CTX_REG);

        if self.cfg.mem_heavy {
            // Guarantee a directly accessible map value for the access mix.
            let off = rng.gen_range(0..ARRAY_VALUE_SIZE as u32 / 2) * 2;
            st.insns
                .extend(asm::ld_map_value(Reg::R6, ARRAY_FD as i32, off));
            st.set_reg(Reg::R6, GType::MapValue(ARRAY_FD));
        }
        for r in [Reg::R6, Reg::R7, Reg::R8] {
            if self.cfg.mem_heavy && r == Reg::R6 {
                continue;
            }
            match rng.gen_range(0..6) {
                0 => {
                    let fd = *pick(rng, &[ARRAY_FD, HASH_FD, RINGBUF_FD, PROG_ARRAY_FD]);
                    st.insns.extend(asm::ld_map_fd(r, fd as i32));
                    st.set_reg(r, GType::MapPtr(fd));
                }
                1 => {
                    let off = rng.gen_range(0..ARRAY_VALUE_SIZE as u32 / 2) * 2;
                    st.insns.extend(asm::ld_map_value(r, ARRAY_FD as i32, off));
                    st.set_reg(r, GType::MapValue(ARRAY_FD));
                }
                2 => {
                    // Objects that may be null at runtime (the debug
                    // object) are prime material for comparison-heavy
                    // programs, so they are over-weighted.
                    let id = *pick(
                        rng,
                        &[
                            btf_ids::TASK_STRUCT,
                            btf_ids::FILE,
                            btf_ids::NET_DEVICE,
                            btf_ids::DEBUG_OBJ,
                            btf_ids::DEBUG_OBJ,
                            btf_ids::DEBUG_OBJ,
                        ],
                    );
                    st.insns.extend(asm::ld_btf_id(r, id));
                    st.set_reg(r, GType::BtfPtr(id));
                }
                3 => {
                    st.insns.extend(asm::ld_imm64(r, rng.gen()));
                    st.set_reg(r, GType::Scalar);
                }
                4 => {
                    st.insns.push(asm::mov64_imm(r, rng.gen_range(-128..128)));
                    st.set_reg(r, GType::Scalar);
                }
                _ => {}
            }
        }
    }

    /// Emits one frame of the body.
    fn emit_frame(&self, rng: &mut StdRng, st: &mut GenState, depth: usize) {
        match rng.gen_range(0..3) {
            0 => self.basic_frame(rng, st),
            1 => self.call_frame(rng, st),
            _ if depth > 0 => self.jump_frame(rng, st, depth),
            _ => self.basic_frame(rng, st),
        }
    }

    /// Basic frame: 1–5 non-control-flow operations synthesized from the
    /// current register states.
    fn basic_frame(&self, rng: &mut StdRng, st: &mut GenState) {
        let ops = if self.cfg.mem_heavy {
            rng.gen_range(3..=8)
        } else {
            rng.gen_range(1..=5)
        };
        for _ in 0..ops {
            self.basic_op(rng, st);
        }
    }

    fn basic_op(&self, rng: &mut StdRng, st: &mut GenState) {
        let roll = if self.cfg.mem_heavy {
            // Self-test mix: mostly loads/stores through interesting
            // pointers.
            *pick(rng, &[2, 3, 4, 5, 5, 6, 6, 7, 7, 8, 0, 2, 3, 5, 6])
        } else {
            rng.gen_range(0..10)
        };
        match roll {
            // Scalar ALU.
            0 | 1 => {
                let dst = st.want_scalar(rng);
                let op = *pick(rng, &AluOp::BINARY);
                if op == AluOp::Mov {
                    let d = st.pick_dst(rng);
                    st.insns.push(asm::mov64_imm(d, rng.gen_range(-1024..1024)));
                    st.set_reg(d, GType::Scalar);
                    return;
                }
                let use_reg = rng.gen_bool(0.4);
                let is64 = rng.gen_bool(0.7);
                if use_reg {
                    if let Some(src) = st.pick_reg(rng, GType::is_scalar) {
                        st.insns.push(if is64 {
                            asm::alu64_reg(op, dst, src)
                        } else {
                            asm::alu32_reg(op, dst, src)
                        });
                        st.set_reg(dst, GType::Scalar);
                        return;
                    }
                }
                let imm = match op {
                    AluOp::Lsh | AluOp::Rsh | AluOp::Arsh => {
                        rng.gen_range(0..if is64 { 64 } else { 32 })
                    }
                    AluOp::Div | AluOp::Mod => rng.gen_range(1..1024),
                    _ => rng.gen_range(-1024..1024),
                };
                st.insns.push(if is64 {
                    asm::alu64_imm(op, dst, imm)
                } else {
                    asm::alu32_imm(op, dst, imm)
                });
                st.set_reg(dst, GType::Scalar);
            }
            // Stack store.
            2 => {
                let slot = rng.gen_range(0..8usize);
                let off = -8 * (slot as i16 + 1);
                if rng.gen_bool(0.5) {
                    st.insns
                        .push(asm::st_mem(Size::Dw, Reg::R10, off, rng.gen_range(0..4096)));
                } else {
                    let src = st.want_scalar(rng);
                    st.insns.push(asm::stx_mem(Size::Dw, Reg::R10, src, off));
                }
                st.stack_init[slot] = true;
            }
            // Stack load.
            3 => {
                let init: Vec<usize> = (0..8).filter(|s| st.stack_init[*s]).collect();
                if let Some(slot) = init
                    .get(
                        rng.gen_range(0..init.len().max(1))
                            .min(init.len().saturating_sub(1)),
                    )
                    .copied()
                {
                    if st.stack_init[slot] {
                        let dst = st.pick_dst(rng);
                        let size = *pick(rng, &[Size::Dw, Size::W, Size::H, Size::B]);
                        st.insns
                            .push(asm::ldx_mem(size, dst, Reg::R10, -8 * (slot as i16 + 1)));
                        st.set_reg(dst, GType::Scalar);
                    }
                }
            }
            // Context read.
            4 => {
                let layout = st.prog_type.ctx_layout();
                let field = &layout.fields[rng.gen_range(0..layout.fields.len())];
                let dst = st.pick_dst(rng);
                match field.kind {
                    CtxFieldKind::Scalar => {
                        let size = match field.size {
                            8 => Size::Dw,
                            4 => Size::W,
                            2 => Size::H,
                            1 => Size::B,
                            _ => Size::W,
                        };
                        // Sub-offset inside wide scalar fields.
                        let max_extra = field.size.saturating_sub(size.bytes());
                        let extra = if max_extra > 0 {
                            (rng.gen_range(0..=max_extra) / size.bytes()) * size.bytes()
                        } else {
                            0
                        };
                        st.insns
                            .push(asm::ldx_mem(size, dst, CTX_REG, (field.off + extra) as i16));
                        st.set_reg(dst, GType::Scalar);
                    }
                    CtxFieldKind::PacketData => {
                        st.insns
                            .push(asm::ldx_mem(Size::Dw, dst, CTX_REG, field.off as i16));
                        st.set_reg(dst, GType::PacketPtr);
                    }
                    CtxFieldKind::PacketEnd => {
                        st.insns
                            .push(asm::ldx_mem(Size::Dw, dst, CTX_REG, field.off as i16));
                        st.set_reg(dst, GType::PacketEnd);
                    }
                }
            }
            // Map-value access (direct pointer from the init header or a
            // guarded lookup result).
            5 | 6 => {
                // Half of the map-value operations use the
                // bounded-variable-offset idiom (load, mask, add, access),
                // the rest are plain constant-offset accesses.
                if rng.gen_bool(0.4) {
                    self.bounded_offset_pattern(rng, st);
                    return;
                }
                if let Some(mv) = st.pick_reg(rng, |t| matches!(t, GType::MapValue(_))) {
                    let off = (rng.gen_range(0..ARRAY_VALUE_SIZE / 8) * 8) as i16;
                    match rng.gen_range(0..3) {
                        0 => {
                            let dst = st.pick_dst(rng);
                            if dst != mv {
                                st.insns.push(asm::ldx_mem(Size::Dw, dst, mv, off.min(8)));
                                st.set_reg(dst, GType::Scalar);
                            }
                        }
                        1 => {
                            st.insns.push(asm::st_mem(
                                Size::W,
                                mv,
                                off.min(12),
                                rng.gen_range(0..99),
                            ));
                        }
                        _ => {
                            let src = st.want_scalar(rng);
                            if src != mv {
                                st.insns.push(asm::atomic(
                                    bvf_isa::AtomicOp::Add { fetch: false },
                                    Size::Dw,
                                    mv,
                                    src,
                                    off.min(8),
                                ));
                            }
                        }
                    }
                }
            }
            // BTF object read.
            7 => {
                if let Some(bp) = st.pick_reg(rng, |t| matches!(t, GType::BtfPtr(_))) {
                    let GType::BtfPtr(id) = st.reg_type(bp) else {
                        return;
                    };
                    let dst = st.pick_dst(rng);
                    if dst == bp {
                        return;
                    }
                    // task_struct pointer-chase sometimes.
                    if id == btf_ids::TASK_STRUCT && rng.gen_bool(0.3) {
                        let which = *pick(rng, &[32i16, 40]);
                        st.insns.push(asm::ldx_mem(Size::Dw, dst, bp, which));
                        st.set_reg(
                            dst,
                            GType::BtfPtr(if which == 32 {
                                btf_ids::TASK_STRUCT
                            } else {
                                btf_ids::MM_STRUCT
                            }),
                        );
                    } else {
                        // Sweep the whole object, including reads near
                        // (and occasionally straddling) the end — the
                        // territory of the access-size bound checks.
                        let size = *pick(rng, &[Size::Dw, Size::W, Size::B]);
                        let obj_size: i16 = match id {
                            btf_ids::TASK_STRUCT => 128,
                            btf_ids::FILE => 64,
                            btf_ids::NET_DEVICE => 96,
                            btf_ids::MM_STRUCT => 80,
                            btf_ids::DEBUG_OBJ => 48,
                            _ => 48,
                        };
                        let step = size.bytes() as i16;
                        // Offsets aligned to 4 regardless of access size:
                        // wide reads near the end may straddle the object
                        // boundary, probing the size handling of the
                        // bound check.
                        let (size, off) = if rng.gen_bool(0.25) {
                            // Probe the object boundary with a wide read:
                            // offsets in the last 8 bytes, 4-byte aligned,
                            // so the access may straddle the object end.
                            (Size::Dw, obj_size - rng.gen_range(1..=2i16) * 4)
                        } else {
                            (size, rng.gen_range(0..(obj_size / step).max(1)) * step)
                        };
                        // Skip the pointer-field offsets of task_struct.
                        if id == btf_ids::TASK_STRUCT && (32..48).contains(&off) {
                            return;
                        }
                        st.insns.push(asm::ldx_mem(size, dst, bp, off));
                        st.set_reg(dst, GType::Scalar);
                    }
                }
            }
            // Packet access behind a bounds check.
            8 => {
                self.packet_pattern(rng, st);
            }
            // Endian / neg.
            _ => {
                let r = st.want_scalar(rng);
                match rng.gen_range(0..3) {
                    0 => st.insns.push(asm::neg64(r)),
                    1 => st.insns.push(asm::endian_be(r, *pick(rng, &[16, 32, 64]))),
                    _ => st.insns.push(asm::endian_le(r, *pick(rng, &[16, 32, 64]))),
                }
            }
        }
    }

    /// The bounded-variable-offset idiom: load, mask, add to a map-value
    /// pointer, access — the pattern that exercises `alu_limit` and the
    /// variable-bounds checking.
    fn bounded_offset_pattern(&self, rng: &mut StdRng, st: &mut GenState) {
        let Some(mv) = st.pick_reg(rng, |t| matches!(t, GType::MapValue(_))) else {
            return;
        };
        let idx = st.pick_dst(rng);
        if idx == mv {
            return;
        }
        st.insns.push(asm::ldx_mem(Size::W, idx, mv, 0));
        let mask = *pick(rng, &[7i32, 3, 8, 15]);
        st.insns.push(asm::alu64_imm(AluOp::And, idx, mask));
        st.set_reg(idx, GType::Bounded(mask as u32));
        // ptr2 = mv + idx; access byte.
        let ptr2 = st.pick_reg(rng, |t| t == GType::Uninit || t.is_scalar());
        if let Some(ptr2) = ptr2 {
            if ptr2 != mv && ptr2 != idx {
                st.insns.push(asm::mov64_reg(ptr2, mv));
                st.insns.push(asm::alu64_reg(AluOp::Add, ptr2, idx));
                let dst = if ptr2 == Reg::R0 { Reg::R2 } else { Reg::R0 };
                if mask < ARRAY_VALUE_SIZE {
                    st.insns.push(asm::ldx_mem(Size::B, dst, ptr2, 0));
                    st.set_reg(dst, GType::Scalar);
                }
                st.set_reg(ptr2, GType::Scalar); // conservatively forget
            }
        }
    }

    /// Packet bounds-check idiom: load data/data_end, compare, access.
    fn packet_pattern(&self, rng: &mut StdRng, st: &mut GenState) {
        if !st.prog_type.has_packet_data() {
            return;
        }
        let layout = st.prog_type.ctx_layout();
        let (mut data_off, mut end_off) = (None, None);
        for f in layout.fields {
            match f.kind {
                CtxFieldKind::PacketData => data_off = Some(f.off),
                CtxFieldKind::PacketEnd => end_off = Some(f.off),
                _ => {}
            }
        }
        let (Some(d), Some(e)) = (data_off, end_off) else {
            return;
        };
        let (pkt, end, tmp) = (Reg::R2, Reg::R3, Reg::R4);
        for r in [pkt, end, tmp] {
            if st.is_reserved(r) {
                return;
            }
        }
        let n = rng.gen_range(1..16i32);
        st.insns
            .push(asm::ldx_mem(Size::Dw, pkt, CTX_REG, d as i16));
        st.insns
            .push(asm::ldx_mem(Size::Dw, end, CTX_REG, e as i16));
        st.insns.push(asm::mov64_reg(tmp, pkt));
        st.insns.push(asm::alu64_imm(AluOp::Add, tmp, n));
        // if tmp > end goto +1 (skip the access).
        st.insns.push(asm::jmp_reg(JmpOp::Jgt, tmp, end, 1));
        let size = *pick(rng, &[Size::B, Size::H, Size::W]);
        let max_off = (n as u32).saturating_sub(size.bytes());
        st.insns.push(asm::ldx_mem(
            size,
            Reg::R5,
            pkt,
            rng.gen_range(0..=max_off) as i16,
        ));
        st.set_reg(pkt, GType::PacketPtr);
        st.set_reg(end, GType::PacketEnd);
        st.set_reg(tmp, GType::PacketPtr);
        st.set_reg(Reg::R5, GType::Scalar);
    }

    /// Call frame: loading instructions for `R1..R5` per the callee's
    /// prototype, then the call, then return-value handling.
    fn call_frame(&self, rng: &mut StdRng, st: &mut GenState) {
        // Weighted menu of call patterns available to this program type
        // and kernel version.
        let mut menu: Vec<u32> = vec![
            helper::MAP_LOOKUP_ELEM,
            helper::MAP_LOOKUP_ELEM,
            helper::MAP_UPDATE_ELEM,
            helper::MAP_DELETE_ELEM,
            helper::KTIME_GET_NS,
            helper::GET_PRANDOM_U32,
            helper::GET_SMP_PROCESSOR_ID,
            helper::GET_CURRENT_PID_TGID,
            helper::GET_CURRENT_COMM,
            helper::TRACE_PRINTK,
            helper::PROBE_READ_KERNEL,
            helper::JIFFIES64,
            helper::RINGBUF_OUTPUT,
            helper::GET_CURRENT_TASK_BTF,
            helper::SEND_SIGNAL,
            helper::QUEUE_WORK,
            helper::TAIL_CALL,
            helper::PERF_EVENT_OUTPUT,
        ];
        if !matches!(self.cfg.version, KernelVersion::V5_15) {
            menu.push(helper::RINGBUF_RESERVE); // composite handled below
        }
        if matches!(self.cfg.version, KernelVersion::BpfNext) {
            menu.push(helper::MAP_SUM_VALUES);
        }
        if matches!(
            st.prog_type,
            ProgType::SocketFilter | ProgType::SchedCls | ProgType::CgroupSkb
        ) {
            menu.push(helper::SKB_LOAD_BYTES);
        }
        if st.prog_type == ProgType::Xdp {
            menu.push(helper::XDP_ADJUST_HEAD);
        }
        // Kfunc patterns ride on sentinel ids above the helper space.
        const KF_SENTINEL: u32 = 0x8000_0000;
        if self.cfg.version.has_kfuncs() {
            menu.push(KF_SENTINEL + kfunc_ids::KTIME_COARSE);
            menu.push(KF_SENTINEL + kfunc_ids::CPU_SLOT);
            menu.push(KF_SENTINEL + kfunc_ids::TASK_ACQUIRE);
        }

        let choice = *pick(rng, &menu);
        if choice >= KF_SENTINEL {
            return self.kfunc_pattern(rng, st, choice - KF_SENTINEL);
        }
        match choice {
            helper::MAP_LOOKUP_ELEM => self.lookup_pattern(rng, st),
            helper::MAP_UPDATE_ELEM => self.map_update_pattern(rng, st),
            helper::MAP_DELETE_ELEM => self.map_delete_pattern(rng, st),
            helper::GET_CURRENT_COMM => {
                let off = st.init_stack_region(rng, 16);
                st.stack_ptr_into(Reg::R1, off);
                st.insns.push(asm::mov64_imm(Reg::R2, 16));
                self.finish_call(st, helper::GET_CURRENT_COMM);
            }
            helper::TRACE_PRINTK => {
                let off = st.init_stack_region(rng, 8);
                st.stack_ptr_into(Reg::R1, off);
                st.insns.push(asm::mov64_imm(Reg::R2, 8));
                st.insns.push(asm::mov64_imm(Reg::R3, rng.gen_range(0..10)));
                self.finish_call(st, helper::TRACE_PRINTK);
            }
            helper::PROBE_READ_KERNEL => {
                let off = st.init_stack_region(rng, 8);
                st.stack_ptr_into(Reg::R1, off);
                st.insns.push(asm::mov64_imm(Reg::R2, 8));
                // Source: sometimes a real pointer, sometimes junk (the
                // helper probes safely).
                if let Some(p) =
                    st.pick_reg(rng, |t| matches!(t, GType::BtfPtr(_) | GType::MapValue(_)))
                {
                    st.insns.push(asm::mov64_reg(Reg::R3, p));
                } else {
                    st.insns.extend(asm::ld_imm64(Reg::R3, rng.gen()));
                }
                self.finish_call(st, helper::PROBE_READ_KERNEL);
            }
            helper::RINGBUF_OUTPUT => {
                let off = st.init_stack_region(rng, 8);
                st.insns.extend(asm::ld_map_fd(Reg::R1, RINGBUF_FD as i32));
                st.stack_ptr_into(Reg::R2, off);
                st.insns.push(asm::mov64_imm(Reg::R3, 8));
                st.insns.push(asm::mov64_imm(Reg::R4, 0));
                self.finish_call(st, helper::RINGBUF_OUTPUT);
            }
            helper::RINGBUF_RESERVE => self.ringbuf_reserve_pattern(rng, st),
            helper::SEND_SIGNAL => {
                st.insns.push(asm::mov64_imm(Reg::R1, rng.gen_range(1..32)));
                self.finish_call(st, helper::SEND_SIGNAL);
            }
            helper::QUEUE_WORK => {
                st.insns.push(asm::mov64_imm(Reg::R1, 0));
                self.finish_call(st, helper::QUEUE_WORK);
                // Re-queue sometimes: the double-enqueue idiom.
                if rng.gen_bool(0.5) {
                    st.insns.push(asm::mov64_imm(Reg::R1, 0));
                    self.finish_call(st, helper::QUEUE_WORK);
                }
            }
            helper::TAIL_CALL => {
                st.insns.push(asm::mov64_reg(Reg::R1, CTX_REG));
                st.insns
                    .extend(asm::ld_map_fd(Reg::R2, PROG_ARRAY_FD as i32));
                st.insns.push(asm::mov64_imm(Reg::R3, rng.gen_range(0..4)));
                self.finish_call(st, helper::TAIL_CALL);
            }
            helper::MAP_SUM_VALUES => {
                st.insns.extend(asm::ld_map_fd(Reg::R1, HASH_FD as i32));
                self.finish_call(st, helper::MAP_SUM_VALUES);
            }
            helper::PERF_EVENT_OUTPUT => {
                let off = st.init_stack_region(rng, 8);
                st.insns.push(asm::mov64_reg(Reg::R1, CTX_REG));
                st.insns.extend(asm::ld_map_fd(Reg::R2, ARRAY_FD as i32));
                st.insns.push(asm::mov64_imm(Reg::R3, 0));
                st.stack_ptr_into(Reg::R4, off);
                st.insns.push(asm::mov64_imm(Reg::R5, 8));
                self.finish_call(st, helper::PERF_EVENT_OUTPUT);
            }
            helper::SKB_LOAD_BYTES => {
                let off = st.init_stack_region(rng, 8);
                st.insns.push(asm::mov64_reg(Reg::R1, CTX_REG));
                st.insns.push(asm::mov64_imm(Reg::R2, rng.gen_range(0..64)));
                st.stack_ptr_into(Reg::R3, off);
                st.insns.push(asm::mov64_imm(Reg::R4, 8));
                self.finish_call(st, helper::SKB_LOAD_BYTES);
            }
            helper::XDP_ADJUST_HEAD => {
                st.insns.push(asm::mov64_reg(Reg::R1, CTX_REG));
                st.insns.push(asm::mov64_imm(Reg::R2, rng.gen_range(0..16)));
                self.finish_call(st, helper::XDP_ADJUST_HEAD);
                // Packet pointers are invalid after adjust_head.
                for r in 0..10 {
                    if matches!(st.regs[r], GType::PacketPtr | GType::PacketEnd) {
                        st.regs[r] = GType::Scalar;
                    }
                }
            }
            helper::GET_CURRENT_TASK_BTF => {
                self.finish_call(st, helper::GET_CURRENT_TASK_BTF);
                let hold = *pick(rng, &[Reg::R6, Reg::R7, Reg::R8]);
                if !st.is_reserved(hold) {
                    st.insns.push(asm::mov64_reg(hold, Reg::R0));
                    st.set_reg(hold, GType::BtfPtr(btf_ids::TASK_STRUCT));
                }
                st.set_reg(Reg::R0, GType::BtfPtr(btf_ids::TASK_STRUCT));
            }
            id => {
                // Zero-argument helpers.
                self.finish_call(st, id);
            }
        }
    }

    /// Emits the call and models the clobbering of caller-saved regs.
    fn finish_call(&self, st: &mut GenState, id: u32) {
        st.insns.push(asm::call_helper(id as i32));
        for r in [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5] {
            st.set_reg(r, GType::Uninit);
        }
        st.set_reg(Reg::R0, GType::Scalar);
    }

    /// The canonical lookup pattern: stack key → call → null-guard →
    /// dereference block.
    fn lookup_pattern(&self, rng: &mut StdRng, st: &mut GenState) {
        let (fd, key_size, value_size) = if rng.gen_bool(0.6) {
            (ARRAY_FD, 4u32, ARRAY_VALUE_SIZE as u32)
        } else {
            (HASH_FD, HASH_KEY_SIZE, HASH_VALUE_SIZE)
        };
        // Key on the stack: sometimes hitting, sometimes missing.
        let key_val = rng.gen_range(0..8);
        let off = -8i16;
        st.insns.push(asm::st_mem(Size::Dw, Reg::R10, off, key_val));
        st.stack_init[0] = true;
        st.insns.extend(asm::ld_map_fd(Reg::R1, fd as i32));
        st.stack_ptr_into(Reg::R2, off);
        let _ = key_size;
        self.finish_call(st, helper::MAP_LOOKUP_ELEM);

        // Occasionally perform arithmetic on the still-nullable result
        // before the null check — the CVE-2022-23222 idiom. A correct
        // verifier rejects this program outright.
        let pre_alu = if rng.gen_bool(0.12) {
            let delta = rng.gen_range(1..8);
            st.insns.push(asm::alu64_imm(AluOp::Add, Reg::R0, delta));
            delta
        } else {
            0
        };

        // Null guard over a deref block. Usually the canonical compare
        // against zero; sometimes the pointer-equality variant (comparing
        // the nullable result against another pointer register), which
        // exercises the verifier's jump-equality nullness propagation.
        let guard_idx = st.insns.len();
        let ptr_guard = st
            .pick_reg(rng, |t| matches!(t, GType::BtfPtr(_)))
            .or_else(|| st.pick_reg(rng, |t| matches!(t, GType::MapValue(_))));
        match ptr_guard {
            Some(other) if rng.gen_bool(0.45) && other != Reg::R0 => {
                st.insns.push(asm::jmp_reg(JmpOp::Jne, Reg::R0, other, 0));
            }
            _ => {
                st.insns.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, 0));
            }
        }
        st.set_reg(Reg::R0, GType::MapValue(fd));
        let body_start = st.insns.len();
        // Keep dereferences within the verifier-visible bounds even when
        // the pointer was pre-adjusted.
        let hi = value_size as i16 - pre_alu as i16;
        for _ in 0..rng.gen_range(1..=3) {
            match rng.gen_range(0..3) {
                0 => {
                    let o = (rng.gen_range(0..(hi / 8).max(1)) * 8).min(hi - 8).max(0);
                    st.insns.push(asm::ldx_mem(Size::Dw, Reg::R3, Reg::R0, o));
                    st.set_reg(Reg::R3, GType::Scalar);
                }
                1 => {
                    let o = (rng.gen_range(0..(hi / 4).max(1)) * 4).min(hi - 4).max(0);
                    st.insns
                        .push(asm::st_mem(Size::W, Reg::R0, o, rng.gen_range(0..1000)));
                }
                _ => {
                    let o = (rng.gen_range(0..(hi / 8).max(1)) * 8).min(hi - 8).max(0);
                    let src = st.want_scalar(rng);
                    if src != Reg::R0 {
                        st.insns.push(asm::atomic(
                            bvf_isa::AtomicOp::Add { fetch: false },
                            Size::Dw,
                            Reg::R0,
                            src,
                            o,
                        ));
                    }
                }
            }
        }
        let body_len = (st.insns.len() - body_start) as i16;
        st.insns[guard_idx].off = body_len;
        st.set_reg(Reg::R0, GType::Scalar);
    }

    fn map_update_pattern(&self, rng: &mut StdRng, st: &mut GenState) {
        st.insns
            .push(asm::st_mem(Size::Dw, Reg::R10, -8, rng.gen_range(0..8)));
        st.insns
            .push(asm::st_mem(Size::Dw, Reg::R10, -24, rng.gen_range(0..4096)));
        st.insns.push(asm::st_mem(Size::Dw, Reg::R10, -16, 0));
        st.stack_init[0] = true;
        st.stack_init[1] = true;
        st.stack_init[2] = true;
        let fd = *pick(rng, &[ARRAY_FD, HASH_FD]);
        st.insns.extend(asm::ld_map_fd(Reg::R1, fd as i32));
        st.stack_ptr_into(Reg::R2, -8);
        st.stack_ptr_into(Reg::R3, -24);
        st.insns.push(asm::mov64_imm(Reg::R4, 0));
        self.finish_call(st, helper::MAP_UPDATE_ELEM);
    }

    fn map_delete_pattern(&self, rng: &mut StdRng, st: &mut GenState) {
        st.insns
            .push(asm::st_mem(Size::Dw, Reg::R10, -8, rng.gen_range(0..8)));
        st.stack_init[0] = true;
        st.insns.extend(asm::ld_map_fd(Reg::R1, HASH_FD as i32));
        st.stack_ptr_into(Reg::R2, -8);
        self.finish_call(st, helper::MAP_DELETE_ELEM);
    }

    /// Reserve/write/submit composite with proper reference discipline.
    fn ringbuf_reserve_pattern(&self, rng: &mut StdRng, st: &mut GenState) {
        st.insns.extend(asm::ld_map_fd(Reg::R1, RINGBUF_FD as i32));
        st.insns.push(asm::mov64_imm(Reg::R2, 16));
        st.insns.push(asm::mov64_imm(Reg::R3, 0));
        self.finish_call(st, helper::RINGBUF_RESERVE);
        // if r0 == 0 goto +N (skip write+submit).
        let guard_idx = st.insns.len();
        st.insns.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, 0));
        let body_start = st.insns.len();
        st.insns
            .push(asm::st_mem(Size::Dw, Reg::R0, 0, rng.gen_range(0..4096)));
        if rng.gen_bool(0.5) {
            st.insns.push(asm::st_mem(Size::Dw, Reg::R0, 8, 0));
        }
        st.insns.push(asm::mov64_reg(Reg::R1, Reg::R0));
        st.insns.push(asm::mov64_imm(Reg::R2, 0));
        st.insns.push(asm::call_helper(if rng.gen_bool(0.8) {
            helper::RINGBUF_SUBMIT
        } else {
            helper::RINGBUF_DISCARD
        } as i32));
        let body_len = (st.insns.len() - body_start) as i16;
        st.insns[guard_idx].off = body_len;
        for r in [Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5] {
            st.set_reg(r, GType::Uninit);
        }
        st.set_reg(Reg::R0, GType::Scalar);
    }

    fn kfunc_pattern(&self, rng: &mut StdRng, st: &mut GenState, id: u32) {
        match id {
            kfunc_ids::TASK_ACQUIRE => {
                // task = get_current_task_btf(); t = task_acquire(task);
                // ...; task_release(t);
                self.finish_call(st, helper::GET_CURRENT_TASK_BTF);
                st.insns.push(asm::mov64_reg(Reg::R1, Reg::R0));
                st.insns
                    .push(asm::call_kfunc(kfunc_ids::TASK_ACQUIRE as i32));
                let hold = Reg::R8;
                st.insns.push(asm::mov64_reg(hold, Reg::R0));
                st.set_reg(hold, GType::BtfPtr(btf_ids::TASK_STRUCT));
                // A couple of reads in between.
                if rng.gen_bool(0.7) {
                    st.insns.push(asm::ldx_mem(Size::W, Reg::R3, hold, 0));
                }
                st.insns.push(asm::mov64_reg(Reg::R1, hold));
                st.insns
                    .push(asm::call_kfunc(kfunc_ids::TASK_RELEASE as i32));
                for r in [Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5] {
                    st.set_reg(r, GType::Uninit);
                }
                st.set_reg(Reg::R0, GType::Scalar);
                st.set_reg(hold, GType::Uninit);
            }
            _ => {
                // Sometimes pin R0 to a small constant before the call:
                // a verifier mishandling the kfunc's return state will
                // keep those tight bounds alive.
                let pinned = rng.gen_bool(0.4);
                if pinned {
                    st.insns.push(asm::mov64_imm(Reg::R0, rng.gen_range(0..8)));
                }
                st.insns.push(asm::call_kfunc(id as i32));
                for r in [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5] {
                    st.set_reg(r, GType::Uninit);
                }
                st.set_reg(Reg::R0, GType::Scalar);
                if pinned && rng.gen_bool(0.7) {
                    // Use the result as a map-value offset without
                    // re-bounding it.
                    if let Some(mv) = st.pick_reg(rng, |t| matches!(t, GType::MapValue(_))) {
                        let ptr2 = *pick(rng, &[Reg::R2, Reg::R3, Reg::R4]);
                        if ptr2 != mv {
                            st.insns.push(asm::mov64_reg(ptr2, mv));
                            st.insns.push(asm::alu64_reg(AluOp::Add, ptr2, Reg::R0));
                            st.insns.push(asm::ldx_mem(Size::B, Reg::R5, ptr2, 0));
                            st.set_reg(ptr2, GType::Scalar);
                            st.set_reg(Reg::R5, GType::Scalar);
                        }
                    }
                }
            }
        }
    }

    /// Jump frame: a forward guard or a bounded back-edge loop around a
    /// recursively generated body.
    fn jump_frame(&self, rng: &mut StdRng, st: &mut GenState, depth: usize) {
        if rng.gen_bool(0.3) {
            // Bounded loop: counter in a reserved register.
            let Some(counter) = st.pick_reg(rng, |t| t == GType::Uninit || t.is_scalar()) else {
                return self.basic_frame(rng, st);
            };
            st.insns.push(asm::mov64_imm(counter, 0));
            st.set_reg(counter, GType::Scalar);
            st.reserve(counter);
            let body_start = st.insns.len();
            self.basic_frame(rng, st);
            st.insns.push(asm::alu64_imm(AluOp::Add, counter, 1));
            let body_len = (st.insns.len() - body_start) as i16;
            let bound = rng.gen_range(2..6);
            st.insns
                .push(asm::jmp_imm(JmpOp::Jlt, counter, bound, -(body_len + 1)));
            st.unreserve(counter);
        } else {
            // Forward conditional guard over a body.
            let lhs = st.want_scalar(rng);
            let op = *pick(rng, &JmpOp::CONDITIONAL);
            let guard_idx = st.insns.len();
            let use_reg = rng.gen_bool(0.3);
            if use_reg {
                if let Some(rhs) = st.pick_reg(rng, GType::is_scalar) {
                    st.insns.push(asm::jmp_reg(op, lhs, rhs, 0));
                } else {
                    st.insns
                        .push(asm::jmp_imm(op, lhs, rng.gen_range(-64..64), 0));
                }
            } else if rng.gen_bool(0.2) {
                st.insns
                    .push(asm::jmp32_imm(op, lhs, rng.gen_range(-64..64), 0));
            } else {
                st.insns
                    .push(asm::jmp_imm(op, lhs, rng.gen_range(-64..64), 0));
            }
            let body_start = st.insns.len();
            // The body: one or two nested frames. Branch-dependent state
            // is kept conservative: registers written in the body are
            // treated as scalars afterwards only if they were initialized
            // before (otherwise uninitialized-on-one-path).
            let before = st.regs;
            for _ in 0..rng.gen_range(1..=depth.max(1)) {
                self.emit_frame(rng, st, depth - 1);
            }
            let body_len = st.insns.len() - body_start;
            if body_len > i16::MAX as usize {
                st.insns.truncate(guard_idx);
                return;
            }
            st.insns[guard_idx].off = body_len as i16;
            // Merge states: a register differing across paths whose
            // pre-branch state was Uninit stays Uninit.
            #[allow(clippy::needless_range_loop)]
            for i in 0..10 {
                if st.regs[i] != before[i] {
                    st.regs[i] = if before[i] == GType::Uninit {
                        GType::Uninit
                    } else if st.regs[i].is_scalar() && before[i].is_scalar() {
                        GType::Scalar
                    } else if st.regs[i] == GType::Uninit {
                        GType::Uninit
                    } else {
                        // Pointer on one path only: don't rely on it.
                        GType::Scalar
                    };
                }
            }
        }
    }

    /// Section (3): proper ending.
    fn end_section(&self, rng: &mut StdRng, st: &mut GenState) {
        if !st.reg_type(Reg::R0).is_scalar() {
            st.insns.push(asm::mov64_imm(Reg::R0, rng.gen_range(0..3)));
        }
        st.insns.push(asm::exit());
    }
}

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

/// Asserts that the verifier's structural pass accepts `s`'s program:
/// the load may still be rejected, but not in phase `Structure`.
#[cfg(test)]
pub(crate) fn assert_structurally_valid(s: &Scenario) {
    let kernel = bvf_kernel_sim::Kernel::new(bvf_kernel_sim::BugSet::none());
    let out = bvf_verifier::verify(
        &kernel,
        &s.prog,
        s.prog_type,
        &bvf_verifier::VerifierOpts::default(),
    );
    if let Err(e) = out.result {
        assert_ne!(
            e.phase,
            bvf_verifier::VerifierPhase::Structure,
            "structural error: {e}\n{}",
            s.prog.dump()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generated_programs_are_structurally_valid() {
        let g = StructuredGen::new(GenConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..300 {
            assert_structurally_valid(&g.generate(&mut rng));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = StructuredGen::new(GenConfig::default());
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            assert_eq!(g.generate(&mut a).prog, g.generate(&mut b).prog);
        }
    }

    #[test]
    fn programs_have_meaningful_size() {
        let g = StructuredGen::new(GenConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let sizes: Vec<usize> = (0..200)
            .map(|_| g.generate(&mut rng).prog.insn_count())
            .collect();
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(avg > 8.0, "programs too small: avg {avg}");
        assert!(*sizes.iter().max().unwrap() < 4096);
    }
}
