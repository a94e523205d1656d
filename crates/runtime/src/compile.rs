//! The compiled execution backend: fused straight-line runs.
//!
//! `compile_image` lowers an [`ExecImage`] once into a [`CompiledProg`]:
//! every maximal straight-line run of two or more ops that only ever
//! fall through becomes a dense array of data-driven `RunStep`s with
//! every operand pre-resolved at compile time — register file indices,
//! sign/zero-extended immediates, access widths, conversion functions,
//! exception-table entries, and the sanitation dispatch of
//! `bpf_asan_{load,store}N` decoded into a fused sanitation thunk.
//!
//! There is no second execution loop. The interpreter loop in
//! [`crate::interp`] runs compiled images too: each fetch that lands on
//! a run member executes the rest of the run through
//! `CompiledProg::exec_run` and settles the step counters in bulk;
//! every other instruction (helper and kfunc calls, atomics, legacy
//! packet loads, ALU-limit checks, jumps, pseudo-calls, `exit`, and
//! undecodable slots) runs on the interpreter's per-step path.
//!
//! # Equivalence contract
//!
//! A fused run is observably *identical* to stepping through the same
//! ops one at a time on the interpreter:
//!
//! - **Raw unchecked pool access** (Indicator #1): loads and stores go
//!   through the same `raw_read`/`raw_write` pool entry points, so
//!   mapped-but-invalid accesses still silently succeed and are only
//!   observable through the fused sanitation thunks.
//! - **Step accounting**: each executed member counts one step, and
//!   `instrumented_steps` counts exactly the rewrite-emitted members, so
//!   the `bvf-sancheck` step contract holds across backends. A run is
//!   entered only when it is untraced, fits under the step limit whole,
//!   and no fatal report is pending; otherwise the per-step path runs
//!   its members one by one, and the step limit, trace, and fatal-report
//!   halt fire on the same step as on the interpreter.
//! - **No fatal-report poll**: no run member appends a kernel report
//!   unless it halts the program (a page fault or a sanitizer trap), so
//!   the poll the per-step path makes after every op cannot change its
//!   answer inside a run.
//!
//! The one deliberate divergence is [`SanDefect::FusedCheckElision`]: a
//! *seeded compile-layer defect* in which the memory check of a compiled
//! image returns without dispatching to `asan_mem_check` at all — in a
//! fused run and on the per-step path alike, traced or not. It exists so
//! the `bvf-sancheck` dual-execution oracle can be proven to catch
//! defects of this layer itself; interp images ignore it.
//!
//! [`SanDefect::FusedCheckElision`]: bvf_kernel_sim::sandefect::SanDefect::FusedCheckElision

use std::fmt;

use bvf_isa::{AluOp, CallTarget, Endianness, InsnKind, Size};
use bvf_kernel_sim::helpers::asan::ids as asan_ids;
use bvf_kernel_sim::Kernel;
use serde::{Deserialize, Serialize};

use crate::interp::{asan_call, ExecImage, HaltReason};

/// Which execution engine runs loaded programs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Backend {
    /// The decode-cached interpreter in [`crate::interp`].
    #[default]
    Interp,
    /// The interpreter loop plus fused straight-line runs (this module).
    Compiled,
}

impl Backend {
    /// Short name used in CLI flags and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Interp => "interp",
            Backend::Compiled => "compiled",
        }
    }

    /// Parses a backend from its [`Backend::name`].
    pub fn from_name(name: &str) -> Option<Backend> {
        match name {
            "interp" => Some(Backend::Interp),
            "compiled" => Some(Backend::Compiled),
            _ => None,
        }
    }
}

/// One member of a fused run: an op that only ever falls through, with
/// its operands resolved at compile time.
#[derive(Clone, Copy)]
enum RunStep {
    /// `dst = f(dst, src)` — every two-register ALU op.
    AluRR {
        d: usize,
        s: usize,
        f: fn(u64, u64) -> u64,
    },
    /// `dst = f(dst, imm)` — ALU-immediate ops and (via the `mov`
    /// body) 64-bit immediate loads.
    AluRI {
        d: usize,
        v: u64,
        f: fn(u64, u64) -> u64,
    },
    /// `dst = f(dst)` — negate and byte-swap.
    Unary { d: usize, f: fn(u64) -> u64 },
    /// Raw pool load.
    Ldx {
        d: usize,
        s: usize,
        off: i64,
        width: u64,
        conv: fn(u64) -> u64,
        ex: bool,
    },
    /// Raw pool store of an immediate.
    St {
        d: usize,
        off: i64,
        width: u64,
        v: u64,
        ex: bool,
    },
    /// Raw pool store of a register.
    Stx {
        d: usize,
        s: usize,
        off: i64,
        width: u64,
        ex: bool,
    },
    /// The fused sanitation thunk: a `bpf_asan_{load,store}N` call,
    /// dispatched through the same [`asan_call`] as the per-step path.
    San { id: u32, orig_pc: usize, ex: bool },
}

/// Where a fetch enters a fused run.
#[derive(Clone, Copy)]
pub(crate) struct RunEntry {
    /// Index of the entered member in [`CompiledProg::body`].
    at: usize,
    /// Members from the entered one to the end of the run.
    len: usize,
    /// Program counter after the run (may be one past the last slot, in
    /// which case completing the run is the same out-of-bounds
    /// fall-through the per-step bounds check rejects).
    pub(crate) end: usize,
}

impl RunEntry {
    /// Steps the rest of the run takes if no member halts.
    #[inline]
    pub(crate) fn steps(&self) -> u64 {
        self.len as u64
    }
}

/// A compiled program: its fused runs, and for every slot the run entry
/// a fetch there takes.
pub struct CompiledProg {
    /// Every run's members, packed run after run in execution order.
    body: Box<[RunStep]>,
    /// `instr[k]` = rewrite-emitted members among `body[..k]`, so a run
    /// left after any member settles `instrumented_steps` in one
    /// subtraction.
    instr: Box<[u32]>,
    /// Per slot: the entry into the run the slot's op belongs to. Every
    /// member has one, not just the head, so a jump into the middle of
    /// a run still takes the fast path from that point on.
    entries: Box<[Option<RunEntry>]>,
}

impl fmt::Debug for CompiledProg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledProg")
            .field("slots", &self.entries.len())
            .field("fused", &self.body.len())
            .finish()
    }
}

/// The ALU body for one `(op, is64)` pair as a plain function pointer —
/// resolved once at compile time so a run performs no per-step
/// operation dispatch. Mirrors [`crate::interp`]'s `alu` exactly.
fn alu_fn(op: AluOp, is64: bool) -> fn(u64, u64) -> u64 {
    if is64 {
        match op {
            AluOp::Add => |d, s| d.wrapping_add(s),
            AluOp::Sub => |d, s| d.wrapping_sub(s),
            AluOp::Mul => |d, s| d.wrapping_mul(s),
            AluOp::Div => |d, s| d.checked_div(s).unwrap_or(0),
            AluOp::Or => |d, s| d | s,
            AluOp::And => |d, s| d & s,
            AluOp::Lsh => |d, s| d.wrapping_shl(s as u32 & 63),
            AluOp::Rsh => |d, s| d.wrapping_shr(s as u32 & 63),
            AluOp::Mod => |d, s| d.checked_rem(s).unwrap_or(d),
            AluOp::Xor => |d, s| d ^ s,
            AluOp::Mov => |_, s| s,
            AluOp::Arsh => |d, s| (d as i64).wrapping_shr(s as u32 & 63) as u64,
            AluOp::Neg | AluOp::End => unreachable!("handled by dedicated arms"),
        }
    } else {
        match op {
            AluOp::Add => |d, s| (d as u32).wrapping_add(s as u32) as u64,
            AluOp::Sub => |d, s| (d as u32).wrapping_sub(s as u32) as u64,
            AluOp::Mul => |d, s| (d as u32).wrapping_mul(s as u32) as u64,
            AluOp::Div => |d, s| (d as u32).checked_div(s as u32).unwrap_or(0) as u64,
            AluOp::Or => |d, s| (d as u32 | s as u32) as u64,
            AluOp::And => |d, s| (d as u32 & s as u32) as u64,
            AluOp::Lsh => |d, s| (d as u32).wrapping_shl(s as u32 & 31) as u64,
            AluOp::Rsh => |d, s| (d as u32).wrapping_shr(s as u32 & 31) as u64,
            AluOp::Mod => |d, s| (d as u32).checked_rem(s as u32).unwrap_or(d as u32) as u64,
            AluOp::Xor => |d, s| (d as u32 ^ s as u32) as u64,
            AluOp::Mov => |_, s| s as u32 as u64,
            AluOp::Arsh => |d, s| (d as i32).wrapping_shr(s as u32 & 31) as u32 as u64,
            AluOp::Neg | AluOp::End => unreachable!("handled by dedicated arms"),
        }
    }
}

/// The byte-swap/mask body for one `(endianness, bits)` pair. Mirrors
/// [`crate::interp`]'s `endian` exactly (little-endian host).
fn endian_fn(e: Endianness, bits: i32) -> fn(u64) -> u64 {
    match e {
        Endianness::Le => match bits {
            16 => |v| v as u16 as u64,
            32 => |v| v as u32 as u64,
            _ => |v| v,
        },
        Endianness::Be | Endianness::Swap => match bits {
            16 => |v| (v as u16).swap_bytes() as u64,
            32 => |v| (v as u32).swap_bytes() as u64,
            _ => |v: u64| v.swap_bytes(),
        },
    }
}

/// Sign extension from `size` to 64 bits as a function pointer.
fn sext_fn(size: Size) -> fn(u64) -> u64 {
    match size {
        Size::B => |v| v as u8 as i8 as i64 as u64,
        Size::H => |v| v as u16 as i16 as i64 as u64,
        Size::W => |v| v as u32 as i32 as i64 as u64,
        Size::Dw => |v| v,
    }
}

/// The run member form of the op `kind` at `pc`, or `None` for an op
/// that ends a run.
fn run_step(image: &ExecImage, pc: usize, kind: InsnKind) -> Option<RunStep> {
    let ex = image.meta[pc].ex_handled;
    Some(match kind {
        InsnKind::AluReg {
            op, is64, dst, src, ..
        } => RunStep::AluRR {
            d: dst.index(),
            s: src.index(),
            f: alu_fn(op, is64),
        },
        InsnKind::AluImm {
            op, is64, dst, imm, ..
        } => RunStep::AluRI {
            d: dst.index(),
            v: if is64 {
                imm as i64 as u64
            } else {
                imm as u32 as u64
            },
            f: alu_fn(op, is64),
        },
        InsnKind::Neg { is64, dst } => RunStep::Unary {
            d: dst.index(),
            f: if is64 {
                |v| v.wrapping_neg()
            } else {
                |v| v.wrapping_neg() as u32 as u64
            },
        },
        InsnKind::Endian {
            endianness,
            bits,
            dst,
        } => RunStep::Unary {
            d: dst.index(),
            f: endian_fn(endianness, bits),
        },
        InsnKind::LdImm64 { dst, imm64, .. } => RunStep::AluRI {
            d: dst.index(),
            v: imm64,
            f: |_, s| s,
        },
        InsnKind::Ldx {
            size,
            dst,
            src,
            off,
            sign_extend,
        } => RunStep::Ldx {
            d: dst.index(),
            s: src.index(),
            off: off as i64,
            width: size.bytes() as u64,
            conv: if sign_extend { sext_fn(size) } else { |v| v },
            ex,
        },
        InsnKind::St {
            size,
            dst,
            off,
            imm,
        } => RunStep::St {
            d: dst.index(),
            off: off as i64,
            width: size.bytes() as u64,
            v: imm as i64 as u64,
            ex,
        },
        InsnKind::Stx {
            size,
            dst,
            src,
            off,
        } => RunStep::Stx {
            d: dst.index(),
            s: src.index(),
            off: off as i64,
            width: size.bytes() as u64,
            ex,
        },
        InsnKind::Call {
            target: CallTarget::Helper(id),
        } if asan_ids::is_asan(id as u32) && (id as u32) < asan_ids::ALU_CHECK_UP => RunStep::San {
            id: id as u32,
            orig_pc: image.prog.insns()[pc].off as usize,
            ex,
        },
        _ => return None,
    })
}

/// Lowers an execution image into its fused runs: walks the op heads in
/// layout order and packs every maximal stretch of run members. A run
/// of a single op gains nothing over the per-step path and is skipped.
/// Pure — it reads the image's decode cache and metadata and touches no
/// kernel state.
pub(crate) fn compile_image(image: &ExecImage) -> CompiledProg {
    let n = image.prog.insn_count();
    let mut body = Vec::new();
    let mut instr = vec![0u32];
    let mut entries = vec![None; n];
    // The pending run's members, as (pc, step).
    let mut run: Vec<(usize, RunStep)> = Vec::new();
    let mut pc = 0;
    while pc <= n {
        // Past the last slot, or at an op that ends a run: flush the
        // pending run, which falls through to `pc`.
        let decoded = if pc < n { image.decoded_at(pc) } else { None };
        let step = decoded.and_then(|(kind, _)| run_step(image, pc, kind));
        if let (Some(step), Some((_, slots))) = (step, decoded) {
            run.push((pc, step));
            pc += slots;
            continue;
        }
        if run.len() >= 2 {
            let len = run.len();
            for (i, &(member, step)) in run.iter().enumerate() {
                entries[member] = Some(RunEntry {
                    at: body.len(),
                    len: len - i,
                    end: pc,
                });
                body.push(step);
                let emitted = image.meta[member].emitted_by_rewrite;
                instr.push(instr[instr.len() - 1] + u32::from(emitted));
            }
        }
        run.clear();
        // Step over the op that ended the run; undecodable heads are
        // skipped slot by slot, exactly how the per-step path would trip
        // over them.
        pc += decoded.map_or(1, |(_, slots)| slots);
    }
    CompiledProg {
        body: body.into_boxed_slice(),
        instr: instr.into_boxed_slice(),
        entries: entries.into_boxed_slice(),
    }
}

impl CompiledProg {
    /// The run entry a fetch at `pc` takes, if the slot is a run member.
    #[inline]
    pub(crate) fn entry(&self, pc: usize) -> Option<RunEntry> {
        self.entries[pc]
    }

    /// Executes the fused run `e` from its entered member on. Returns
    /// the steps executed, the rewrite-emitted steps among them, and the
    /// halt reason if a member stopped the program (its step counted).
    ///
    /// Kept out of line and run over a local copy of the register file:
    /// inlined into the interpreter loop, the fused loop shares that
    /// loop's register pressure and runs ~15% slower.
    #[inline(never)]
    pub(crate) fn exec_run(
        &self,
        e: RunEntry,
        kernel: &mut Kernel,
        regs: &mut [u64; 12],
    ) -> (u64, u64, Option<HaltReason>) {
        let mut r = *regs;
        let body = &self.body[e.at..e.at + e.len];
        // The halting member's index and the halt reason.
        let mut stop = None;
        for (i, step) in body.iter().enumerate() {
            match *step {
                RunStep::AluRR { d, s, f } => r[d] = f(r[d], r[s]),
                RunStep::AluRI { d, v, f } => r[d] = f(r[d], v),
                RunStep::Unary { d, f } => r[d] = f(r[d]),
                RunStep::Ldx {
                    d,
                    s,
                    off,
                    width,
                    conv,
                    ex,
                } => {
                    let addr = r[s].wrapping_add_signed(off);
                    match kernel.mm.pool.raw_read(addr, width) {
                        Some(v) => r[d] = conv(v),
                        None if ex => r[d] = 0,
                        None => {
                            kernel.report_page_fault(addr, false);
                            stop = Some((i, HaltReason::PageFault));
                            break;
                        }
                    }
                }
                RunStep::St {
                    d,
                    off,
                    width,
                    v,
                    ex,
                } => {
                    let addr = r[d].wrapping_add_signed(off);
                    if !kernel.mm.pool.raw_write(addr, width, v) && !ex {
                        kernel.report_page_fault(addr, true);
                        stop = Some((i, HaltReason::PageFault));
                        break;
                    }
                }
                RunStep::Stx {
                    d,
                    s,
                    off,
                    width,
                    ex,
                } => {
                    let addr = r[d].wrapping_add_signed(off);
                    if !kernel.mm.pool.raw_write(addr, width, r[s]) && !ex {
                        kernel.report_page_fault(addr, true);
                        stop = Some((i, HaltReason::PageFault));
                        break;
                    }
                }
                RunStep::San { id, orig_pc, ex } => {
                    if asan_call(kernel, &mut r, id, orig_pc, ex, true) {
                        stop = Some((i, HaltReason::SanitizerTrap));
                        break;
                    }
                }
            }
        }
        *regs = r;
        let ran = stop.map_or(body.len(), |(i, _)| i + 1);
        let instrumented = self.instr[e.at + ran] - self.instr[e.at];
        (ran as u64, u64::from(instrumented), stop.map(|(_, h)| h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp;

    const ALU_OPS: [AluOp; 12] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Or,
        AluOp::And,
        AluOp::Lsh,
        AluOp::Rsh,
        AluOp::Mod,
        AluOp::Xor,
        AluOp::Mov,
        AluOp::Arsh,
    ];
    const SAMPLES: [u64; 8] = [
        0,
        1,
        63,
        64,
        0x8000_0000,
        0xffff_ffff,
        u64::MAX,
        (-8i64) as u64,
    ];

    #[test]
    fn alu_table_matches_interpreter() {
        for op in ALU_OPS {
            for is64 in [false, true] {
                let f = alu_fn(op, is64);
                for &d in &SAMPLES {
                    for &s in &SAMPLES {
                        assert_eq!(
                            f(d, s),
                            interp::alu(op, is64, d, s),
                            "{op:?} is64={is64} d={d:#x} s={s:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn conversion_tables_match_interpreter() {
        for size in [Size::B, Size::H, Size::W, Size::Dw] {
            for &v in &SAMPLES {
                assert_eq!(sext_fn(size)(v), interp::sext(v, size));
            }
        }
        for e in [Endianness::Le, Endianness::Be, Endianness::Swap] {
            for bits in [16, 32, 64] {
                for &v in &SAMPLES {
                    assert_eq!(endian_fn(e, bits)(v), interp::endian(e, bits, v));
                }
            }
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Interp, Backend::Compiled] {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("jit"), None);
    }
}
