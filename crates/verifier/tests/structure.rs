//! Structural rejections, pinned at the verifier level.
//!
//! Before its symbolic walk the verifier checks a program's structure:
//! it must be non-empty and at most 4096 slots long, every slot must
//! decode, registers must lie in `R0`–`R10` with `R10` never written,
//! every jump and pseudo-call target must start an instruction inside
//! the program, and the last instruction must be `exit` or `ja`. Every
//! such rejection is `EINVAL` at insn 0 in phase `Structure`, and the
//! load covers the single point `(Error, 1, 0)`.
//!
//! The unit tests pin each rule's reason and message. The property test
//! keeps a standalone structural validator as the reference: on
//! arbitrary short programs, `verify` must reject in phase `Structure`,
//! for the reference's reason and with its message, exactly when the
//! reference rejects. A program that breaks several rules is therefore
//! named by the same rule the reference checks first.

use bvf_isa::opcode::JmpOp;
use bvf_isa::{asm, AtomicOp, Insn, Program, Reg, Size};
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::{BugSet, Kernel};
use bvf_verifier::{verify, ErrorKind, RejectReason, VerifierOpts, VerifierPhase, VerifyOutcome};
use proptest::prelude::*;

fn verify_on(kernel: &Kernel, prog: &Program) -> VerifyOutcome {
    verify(
        kernel,
        prog,
        ProgType::SocketFilter,
        &VerifierOpts::default(),
    )
}

/// Asserts a structural rejection for `reason` with message `msg`.
fn assert_rejects(prog: &Program, reason: RejectReason, msg: &str) {
    let out = verify_on(&Kernel::new(BugSet::none()), prog);
    let Err(e) = &out.result else {
        panic!("expected a structural rejection:\n{}", prog.dump());
    };
    assert_eq!(e.reason, reason, "{e}");
    assert_eq!(e.msg, msg);
    assert_eq!(e.kind, ErrorKind::Invalid, "{e}");
    assert_eq!(e.insn_idx, 0, "{e}");
    assert_eq!(e.phase, VerifierPhase::Structure, "{e}");
    assert_eq!(out.cov.len(), 1, "{e}");
}

/// Asserts that `prog` passes the structural checks (the walk may still
/// reject it).
fn assert_passes_structure(prog: &Program) {
    let out = verify_on(&Kernel::new(BugSet::none()), prog);
    if let Err(e) = &out.result {
        assert_ne!(e.phase, VerifierPhase::Structure, "{e}");
    }
}

#[test]
fn accepts_minimal_program() {
    let p = Program::from_insns(vec![asm::mov64_imm(Reg::R0, 0), asm::exit()]);
    assert_passes_structure(&p);
    assert!(verify_on(&Kernel::new(BugSet::none()), &p).result.is_ok());
}

#[test]
fn rejects_empty() {
    assert_rejects(
        &Program::new(),
        RejectReason::MalformedInsn,
        "empty program",
    );
}

#[test]
fn rejects_too_long() {
    let mut insns = vec![asm::mov64_imm(Reg::R0, 0); 4096];
    insns.push(asm::exit());
    assert_rejects(
        &Program::from_insns(insns),
        RejectReason::ComplexityLimit,
        "program too long (4097 insns)",
    );
    // The limit itself is allowed.
    let mut insns = vec![asm::mov64_imm(Reg::R0, 0); 4095];
    insns.push(asm::exit());
    assert_passes_structure(&Program::from_insns(insns));
}

#[test]
fn rejects_fallthrough_end() {
    let p = Program::from_insns(vec![asm::mov64_imm(Reg::R0, 0)]);
    assert_rejects(
        &p,
        RejectReason::FellOffEnd,
        "last insn is not an exit or jump",
    );
}

#[test]
fn rejects_hidden_register() {
    let p = Program::from_insns(vec![asm::mov64_reg(Reg::R0, Reg::Ax), asm::exit()]);
    assert_rejects(
        &p,
        RejectReason::MalformedInsn,
        "insn 0: uses internal register",
    );
}

#[test]
fn rejects_write_to_frame_pointer() {
    let p = Program::from_insns(vec![asm::mov64_imm(Reg::R10, 0), asm::exit()]);
    assert_rejects(
        &p,
        RejectReason::MalformedInsn,
        "insn 0: frame pointer is read only",
    );
}

#[test]
fn allows_atomic_src_r10_read_but_not_fetch_into_r10() {
    // A non-fetching atomic with src=R10 only reads R10.
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R0, 0),
        asm::atomic(
            AtomicOp::Add { fetch: false },
            Size::Dw,
            Reg::R0,
            Reg::R10,
            0,
        ),
        asm::exit(),
    ]);
    assert_passes_structure(&p);
    // A fetching atomic writes back into src.
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R0, 0),
        asm::atomic(
            AtomicOp::Add { fetch: true },
            Size::Dw,
            Reg::R0,
            Reg::R10,
            0,
        ),
        asm::exit(),
    ]);
    assert_rejects(
        &p,
        RejectReason::MalformedInsn,
        "insn 1: frame pointer is read only",
    );
}

#[test]
fn rejects_jump_past_end() {
    let p = Program::from_insns(vec![asm::ja(5), asm::exit()]);
    assert_rejects(
        &p,
        RejectReason::JumpOutOfBounds,
        "insn 0: jump out of range to 6",
    );
}

#[test]
fn rejects_jump_into_ld_imm64_pair() {
    let mut insns = vec![asm::ja(1)];
    insns.extend(asm::ld_imm64(Reg::R0, 0));
    insns.push(asm::exit());
    assert_rejects(
        &Program::from_insns(insns),
        RejectReason::JumpOutOfBounds,
        "insn 0: jump out of range to 2",
    );
}

#[test]
fn rejects_negative_jump_before_start() {
    let p = Program::from_insns(vec![asm::ja(-2), asm::exit()]);
    assert_rejects(
        &p,
        RejectReason::JumpOutOfBounds,
        "insn 0: jump out of range to -1",
    );
}

#[test]
fn rejects_undecodable_slot() {
    let p = Program::from_insns(vec![Insn::new(0xfd, 0, 0, 0, 0), asm::exit()]);
    assert_rejects(
        &p,
        RejectReason::MalformedInsn,
        "insn 0: invalid opcode 0xfd",
    );
}

#[test]
fn backward_jump_to_valid_target_ok() {
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R0, 0),
        asm::jmp_imm(JmpOp::Jeq, Reg::R0, 1, -2),
        asm::exit(),
    ]);
    assert_passes_structure(&p);
}

/// The reference: a standalone structural validator and its mapping to
/// rejection reasons. It checks one rule family at a time, decoding the
/// program again for the jump rule, which is the plainest statement of
/// the order the verifier must keep.
mod reference {
    use bvf_isa::decode::{CallTarget, DecodeError, InsnKind, SourceOperandValue};
    use bvf_isa::{Program, Reg};
    use bvf_verifier::RejectReason;

    pub const MAX_INSNS: usize = 4096;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum StructuralError {
        Empty,
        TooLong(usize),
        Decode { pc: usize, err: DecodeError },
        HiddenRegister { pc: usize },
        FrameRegisterWrite { pc: usize },
        JumpOutOfRange { pc: usize, target: i64 },
        FallthroughEnd,
    }

    impl std::fmt::Display for StructuralError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                StructuralError::Empty => write!(f, "empty program"),
                StructuralError::TooLong(n) => write!(f, "program too long ({n} insns)"),
                StructuralError::Decode { pc, err } => write!(f, "insn {pc}: {err}"),
                StructuralError::HiddenRegister { pc } => {
                    write!(f, "insn {pc}: uses internal register")
                }
                StructuralError::FrameRegisterWrite { pc } => {
                    write!(f, "insn {pc}: frame pointer is read only")
                }
                StructuralError::JumpOutOfRange { pc, target } => {
                    write!(f, "insn {pc}: jump out of range to {target}")
                }
                StructuralError::FallthroughEnd => write!(f, "last insn is not an exit or jump"),
            }
        }
    }

    impl StructuralError {
        /// The rejection reason the verifier reports for this error.
        pub fn reason(&self) -> RejectReason {
            match self {
                StructuralError::TooLong(_) => RejectReason::ComplexityLimit,
                StructuralError::JumpOutOfRange { .. } => RejectReason::JumpOutOfBounds,
                StructuralError::FallthroughEnd => RejectReason::FellOffEnd,
                _ => RejectReason::MalformedInsn,
            }
        }

        /// A stable index per rule, for counting which rules fired.
        pub fn rule(&self) -> usize {
            match self {
                StructuralError::Empty => 0,
                StructuralError::TooLong(_) => 1,
                StructuralError::Decode { .. } => 2,
                StructuralError::HiddenRegister { .. } => 3,
                StructuralError::FrameRegisterWrite { .. } => 4,
                StructuralError::JumpOutOfRange { .. } => 5,
                StructuralError::FallthroughEnd => 6,
            }
        }
    }

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

    fn regs_used(kind: &InsnKind) -> Vec<Reg> {
        match *kind {
            InsnKind::AluReg { dst, src, .. } => vec![dst, src],
            InsnKind::AluImm { dst, .. }
            | InsnKind::Neg { dst, .. }
            | InsnKind::Endian { dst, .. }
            | InsnKind::LdImm64 { dst, .. }
            | InsnKind::St { dst, .. } => vec![dst],
            InsnKind::LdAbs { .. } => vec![],
            InsnKind::LdInd { src, .. } => vec![src],
            InsnKind::Ldx { dst, src, .. }
            | InsnKind::Stx { dst, src, .. }
            | InsnKind::Atomic { dst, src, .. } => vec![dst, src],
            InsnKind::JmpCond { dst, src, .. } => {
                let mut v = vec![dst];
                if let SourceOperandValue::Reg(r) = src {
                    v.push(r);
                }
                v
            }
            InsnKind::Ja { .. } | InsnKind::Call { .. } | InsnKind::Exit => vec![],
        }
    }

    /// Validates the structural properties of a program; on success,
    /// returns which slots start an instruction.
    pub fn validate_structure(prog: &Program) -> Result<Vec<bool>, StructuralError> {
        if prog.is_empty() {
            return Err(StructuralError::Empty);
        }
        if prog.insn_count() > MAX_INSNS {
            return Err(StructuralError::TooLong(prog.insn_count()));
        }

        let n = prog.insn_count();
        let mut insn_start = vec![false; n];
        let mut last_kind: Option<InsnKind> = None;
        let mut pc = 0;
        while pc < n {
            insn_start[pc] = true;
            let (kind, slots) = prog
                .decode_at(pc)
                .map_err(|err| StructuralError::Decode { pc, err })?;

            for r in regs_used(&kind) {
                if !r.is_visible() {
                    return Err(StructuralError::HiddenRegister { pc });
                }
            }
            if written_reg(&kind) == Some(Reg::R10) {
                return Err(StructuralError::FrameRegisterWrite { pc });
            }
            last_kind = Some(kind);
            pc += slots;
        }

        let mut pc = 0;
        while pc < n {
            let (kind, slots) = prog.decode_at(pc).expect("validated above");
            let jump_off: Option<i64> = match kind {
                InsnKind::JmpCond { off, .. } => Some(off as i64),
                InsnKind::Ja { off } => Some(off as i64),
                InsnKind::Call {
                    target: CallTarget::Pseudo(off),
                } => Some(off as i64),
                _ => None,
            };
            if let Some(off) = jump_off {
                let target = pc as i64 + 1 + off;
                if target < 0 || target >= n as i64 || !insn_start[target as usize] {
                    return Err(StructuralError::JumpOutOfRange { pc, target });
                }
            }
            pc += slots;
        }

        match last_kind {
            Some(InsnKind::Exit) | Some(InsnKind::Ja { .. }) => Ok(insn_start),
            _ => Err(StructuralError::FallthroughEnd),
        }
    }
}

/// Any opcode byte, registers `R0`–`R11`, small offsets and immediates,
/// so that every rule fires often.
fn arb_insn() -> impl Strategy<Value = Insn> {
    (any::<u8>(), 0u8..12, 0u8..12, -4i16..=4, -2i32..=2)
        .prop_map(|(code, dst, src, off, imm)| Insn::new(code, dst, src, off, imm))
}

/// 0–11 arbitrary slots, half of them followed by an `exit`.
fn arb_program() -> impl Strategy<Value = Program> {
    (proptest::collection::vec(arb_insn(), 0..12), any::<bool>()).prop_map(|(mut insns, exit)| {
        if exit {
            insns.push(asm::exit());
        }
        Program::from_insns(insns)
    })
}

/// Over 20 000 arbitrary short programs, `verify` rejects in phase
/// `Structure` exactly when the reference rejects, for its reason and
/// with its message. Every rule but the length limit (which has its own
/// unit test) must fire, and some programs must pass.
#[test]
fn structural_verdicts_match_reference() {
    let kernel = Kernel::new(BugSet::none());
    let mut rng = <proptest::TestRng as rand::SeedableRng>::seed_from_u64(0x5eed);
    let programs = arb_program();
    // How often each reference rule fired; the last entry counts passes.
    let mut fired = [0u32; 8];
    for _ in 0..20_000 {
        let prog = programs.sample(&mut rng);
        let out = verify_on(&kernel, &prog);
        match reference::validate_structure(&prog) {
            Err(want) => {
                fired[want.rule()] += 1;
                let Err(e) = &out.result else {
                    panic!(
                        "reference rejects ({want}), verify accepts:\n{}",
                        prog.dump()
                    );
                };
                assert_eq!(e.phase, VerifierPhase::Structure, "{e}\n{}", prog.dump());
                assert_eq!(e.reason, want.reason(), "{e}\n{}", prog.dump());
                assert_eq!(e.msg, want.to_string(), "{}", prog.dump());
                assert_eq!(e.insn_idx, 0, "{e}");
                assert_eq!(out.cov.len(), 1, "{e}");
            }
            Ok(_) => {
                fired[7] += 1;
                if let Err(e) = &out.result {
                    assert_ne!(e.phase, VerifierPhase::Structure, "{e}\n{}", prog.dump());
                }
            }
        }
    }
    for (rule, count) in fired.iter().enumerate() {
        if rule != 1 {
            assert!(*count > 0, "rule {rule} never fired: {fired:?}");
        }
    }
}
