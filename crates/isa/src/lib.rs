//! The eBPF instruction set architecture.
//!
//! This crate models the eBPF ISA as used by the Linux kernel: the raw
//! 8-byte instruction encoding, opcode tables for all instruction classes
//! (`LD`, `LDX`, `ST`, `STX`, `ALU`, `JMP`, `JMP32`, `ALU64`), a typed
//! decoded view ([`InsnKind`]), an assembler-style builder API mirroring the
//! kernel's `BPF_*` macros, and a disassembler producing output in the same
//! style as the kernel verifier log.
//!
//! Everything downstream — the verifier, the interpreter, the fuzzer's
//! program generators and the sanitation instrumentation — operates on the
//! [`Insn`] and [`Program`] types defined here.
//!
//! # Examples
//!
//! ```
//! use bvf_isa::{asm, Program, Reg};
//!
//! // r0 = 0; exit
//! let prog = Program::from_insns(vec![
//!     asm::mov64_imm(Reg::R0, 0),
//!     asm::exit(),
//! ]);
//! assert_eq!(prog.insn_count(), 2);
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod decode;
pub mod disasm;
pub mod insn;
pub mod opcode;
pub mod program;
pub mod reg;

pub use decode::{AtomicOp, CallTarget, InsnKind};
pub use insn::Insn;
pub use opcode::{AluOp, Class, Endianness, JmpOp, Size, SourceOperand};
pub use program::Program;
pub use reg::Reg;
