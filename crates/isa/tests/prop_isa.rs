//! Property-based tests for the instruction encoding layer.

use bvf_isa::{asm, opcode, Insn, Program, Reg};
use proptest::prelude::*;

fn arb_insn() -> impl Strategy<Value = Insn> {
    (any::<u8>(), 0u8..16, 0u8..16, any::<i16>(), any::<i32>())
        .prop_map(|(code, dst, src, off, imm)| Insn::new(code, dst, src, off, imm))
}

proptest! {
    /// Encoding then decoding any instruction is the identity.
    #[test]
    fn insn_byte_roundtrip(insn in arb_insn()) {
        prop_assert_eq!(Insn::from_bytes(insn.to_bytes()), insn);
    }

    /// Program serialization roundtrips for arbitrary slot sequences.
    #[test]
    fn program_byte_roundtrip(insns in proptest::collection::vec(arb_insn(), 0..64)) {
        let p = Program::from_insns(insns);
        let q = Program::from_bytes(&p.to_bytes()).expect("multiple of 8");
        prop_assert_eq!(p, q);
    }

    /// Decoding never panics for arbitrary byte content, it either yields a
    /// typed instruction or a decode error.
    #[test]
    fn decode_total(insns in proptest::collection::vec(arb_insn(), 1..64)) {
        let p = Program::from_insns(insns);
        for (_, res) in p.iter_decoded() {
            let _ = res; // Ok or Err are both fine; no panic is the property.
        }
    }

    /// The disassembler renders every program without panicking and emits
    /// one line per decoded instruction or raw slot.
    #[test]
    fn disasm_total(insns in proptest::collection::vec(arb_insn(), 1..64)) {
        let p = Program::from_insns(insns);
        let dump = p.dump();
        prop_assert!(dump.lines().count() >= 1);
    }

    /// ld_imm64 builder splits and decode reassembles the same immediate.
    #[test]
    fn ld_imm64_roundtrip(v in any::<u64>()) {
        let insns = asm::ld_imm64(Reg::R3, v);
        let p = Program::from_insns(insns.to_vec());
        match p.decode_at(0).unwrap() {
            (bvf_isa::InsnKind::LdImm64 { imm64, dst, .. }, 2) => {
                prop_assert_eq!(imm64, v);
                prop_assert_eq!(dst, Reg::R3);
            }
            other => prop_assert!(false, "unexpected decode {:?}", other),
        }
    }
}

proptest! {
    /// Every builder-produced ALU instruction decodes back to its parts.
    #[test]
    fn alu_builder_roundtrip(
        op_idx in 0usize..opcode::AluOp::BINARY.len(),
        dst in 0u8..10,
        src in 0u8..11,
        imm in any::<i32>(),
        is64 in any::<bool>(),
        use_reg in any::<bool>(),
    ) {
        let op = opcode::AluOp::BINARY[op_idx];
        let dst = Reg::from_u8(dst).unwrap();
        let src = Reg::from_u8(src).unwrap();
        let insn = match (is64, use_reg) {
            (true, true) => asm::alu64_reg(op, dst, src),
            (true, false) => asm::alu64_imm(op, dst, imm),
            (false, true) => asm::alu32_reg(op, dst, src),
            (false, false) => asm::alu32_imm(op, dst, imm),
        };
        let (kind, n) = bvf_isa::decode::decode(&[insn], 0).unwrap();
        prop_assert_eq!(n, 1);
        match kind {
            bvf_isa::InsnKind::AluReg { op: o, is64: w, dst: d, src: s, .. } => {
                prop_assert!(use_reg);
                prop_assert_eq!(o, op);
                prop_assert_eq!(w, is64);
                prop_assert_eq!(d, dst);
                prop_assert_eq!(s, src);
            }
            bvf_isa::InsnKind::AluImm { op: o, is64: w, dst: d, imm: i, .. } => {
                prop_assert!(!use_reg);
                prop_assert_eq!(o, op);
                prop_assert_eq!(w, is64);
                prop_assert_eq!(d, dst);
                prop_assert_eq!(i, imm);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }
}
