//! Baseline generators: Syzkaller-style and Buzzer-style program
//! synthesis, reimplemented for the §6.3 comparison.
//!
//! - **Syzkaller-like**: grammar-directed random instruction generation —
//!   individual instructions are well-formed (valid opcodes, registers in
//!   range) because the syscall descriptions encode that much, but there
//!   is no state tracking: uninitialized registers, wild pointers and
//!   out-of-range offsets abound, so most programs die in early
//!   verification (`EACCES`/`EINVAL`), matching the paper's ~23.5 %
//!   acceptance.
//! - **Buzzer-like**, two modes: fully random byte sequences (~1 %
//!   acceptance) and ALU/JMP-dominated programs that initialize every
//!   register first and then only emit arithmetic and forward jumps
//!   (~97 % acceptance but shallow coverage; ≥88 % ALU/JMP instructions).

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use bvf_isa::{asm, AluOp, Insn, JmpOp, Program, Reg, Size};
use bvf_kernel_sim::progtype::ProgType;

use crate::scenario::Scenario;

/// Which generator produced a program (for campaign statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum GeneratorKind {
    /// BVF's structured generator.
    Bvf,
    /// The Syzkaller-like baseline.
    Syzkaller,
    /// Buzzer in fully random mode.
    BuzzerRandom,
    /// Buzzer in ALU/JMP mode.
    BuzzerAluJmp,
}

impl GeneratorKind {
    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            GeneratorKind::Bvf => "BVF",
            GeneratorKind::Syzkaller => "Syzkaller",
            GeneratorKind::BuzzerRandom => "Buzzer(random)",
            GeneratorKind::BuzzerAluJmp => "Buzzer(alu/jmp)",
        }
    }
}

/// A *generation shape* the acceptance-rate steering picks between for
/// fresh programs (`bvf fuzz --steer`). [`GenShape::Native`] dispatches
/// the campaign's configured generator unchanged; the other shapes are
/// generator-independent synthesizers with characteristically different
/// verifier acceptance profiles, so re-weighting the choice by observed
/// per-shape acceptance moves the campaign toward programs the verifier
/// lets through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GenShape {
    /// The campaign's configured generator, unmodified.
    Native,
    /// A near-minimal always-valid program (`mov r0, imm; exit`).
    Minimal,
    /// Register-initialized ALU/forward-jump bodies
    /// ([`buzzer_alujmp_generate`]).
    AluJmp,
    /// Initialized registers plus stack-confined memory traffic over
    /// pre-stored slots ([`shape_memsafe_generate`]).
    MemSafe,
}

impl GenShape {
    /// Every shape, in the stable order weight vectors are indexed by.
    pub const ALL: [GenShape; 4] = [
        GenShape::Native,
        GenShape::Minimal,
        GenShape::AluJmp,
        GenShape::MemSafe,
    ];

    /// Number of shapes ([`GenShape::ALL`]`.len()`).
    pub const COUNT: usize = Self::ALL.len();

    /// This shape's index into [`GenShape::ALL`]-ordered arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (the trace `shape` member and the
    /// `bvf report` shape table key).
    pub fn name(self) -> &'static str {
        match self {
            GenShape::Native => "native",
            GenShape::Minimal => "minimal",
            GenShape::AluJmp => "alu_jmp",
            GenShape::MemSafe => "mem_safe",
        }
    }
}

/// The [`GenShape::Minimal`] synthesizer: the shortest program the
/// verifier accepts, with a randomized return value so programs stay
/// distinct.
pub fn shape_minimal_generate(rng: &mut StdRng) -> Scenario {
    let insns = vec![asm::mov64_imm(Reg::R0, rng.gen_range(0..16)), asm::exit()];
    Scenario::test_run(Program::from_insns(insns), ProgType::SocketFilter)
}

/// The [`GenShape::MemSafe`] synthesizer: initialize scalar registers,
/// pre-store a handful of doubleword stack slots, then mix loads and
/// stores confined to those slots with bounded ALU — memory traffic the
/// verifier can prove safe, unlike the baselines' wild pointers.
pub fn shape_memsafe_generate(rng: &mut StdRng) -> Scenario {
    let mut insns: Vec<Insn> = Vec::new();
    for i in 0..6u8 {
        insns.push(asm::mov64_imm(
            Reg::from_u8(i).unwrap(),
            rng.gen_range(-128..128),
        ));
    }
    // Initialize four doubleword slots so later loads never read
    // uninitialized stack.
    for slot in 1..=4i16 {
        insns.push(asm::st_mem(
            Size::Dw,
            Reg::R10,
            -8 * slot,
            rng.gen_range(-64..64),
        ));
    }
    let body = rng.gen_range(4..20);
    for _ in 0..body {
        let dst = Reg::from_u8(rng.gen_range(0..6)).unwrap();
        match rng.gen_range(0..3) {
            0 => insns.push(asm::ldx_mem(
                Size::Dw,
                dst,
                Reg::R10,
                -8 * rng.gen_range(1..5i16),
            )),
            1 => insns.push(asm::stx_mem(
                Size::Dw,
                Reg::R10,
                dst,
                -8 * rng.gen_range(1..5i16),
            )),
            _ => {
                let op = AluOp::BINARY[rng.gen_range(0..AluOp::BINARY.len())];
                let imm = match op {
                    AluOp::Lsh | AluOp::Rsh | AluOp::Arsh => rng.gen_range(0..64),
                    AluOp::Div | AluOp::Mod => rng.gen_range(1..128),
                    _ => rng.gen_range(-256..256),
                };
                insns.push(asm::alu64_imm(op, dst, imm));
            }
        }
    }
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    Scenario::test_run(Program::from_insns(insns), ProgType::SocketFilter)
}

fn random_prog_type(rng: &mut StdRng) -> ProgType {
    ProgType::ALL[rng.gen_range(0..ProgType::ALL.len())]
}

/// Syzkaller-like generation: each instruction individually well-formed,
/// no cross-instruction reasoning.
///
/// Real Syzkaller reaches ~23.5 % acceptance because many of its programs
/// are small, derived from corpus seeds that already initialize a few
/// registers, or trivially valid; only the bodies are random. We model
/// that: a template prologue initializes `r0`–`r5` most of the time and
/// program bodies are short, but operand *choices* stay stateless.
pub fn syzkaller_generate(rng: &mut StdRng) -> Scenario {
    // A third of syzbot's attempts are near-minimal seed mutations that
    // sail through; the rest carry a random body.
    let len = if rng.gen_bool(0.3) {
        rng.gen_range(1..4)
    } else {
        rng.gen_range(4..24)
    };
    let mut insns: Vec<Insn> = Vec::with_capacity(len + 7);
    // Corpus-seed-style prologue (syzbot's eBPF seeds do this).
    if rng.gen_bool(0.75) {
        for i in 0..rng.gen_range(1..6) {
            insns.push(asm::mov64_imm(
                Reg::from_u8(i).unwrap(),
                rng.gen_range(-64..64),
            ));
        }
    }
    // Syzkaller's bpf descriptions encode the canonical map-lookup call
    // sequence as a template; a third of programs embed it (with one
    // field randomly perturbed, as mutation does).
    if rng.gen_bool(0.35) {
        let mut snippet = vec![asm::mov64_imm(Reg::R0, 0)];
        snippet.extend(asm::ld_map_fd(Reg::R1, rng.gen_range(0..4)));
        snippet.push(asm::mov64_reg(Reg::R2, Reg::R10));
        snippet.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
        snippet.push(asm::st_mem(Size::Dw, Reg::R10, -8, rng.gen_range(0..8)));
        snippet.push(asm::call_helper(1));
        snippet.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, 1));
        snippet.push(asm::ldx_mem(
            Size::Dw,
            Reg::R3,
            Reg::R0,
            rng.gen_range(-4..6i16) * 4,
        ));
        // Perturb one random field of one random instruction.
        let i = rng.gen_range(0..snippet.len());
        match rng.gen_range(0..4) {
            0 => snippet[i].imm = snippet[i].imm.wrapping_add(rng.gen_range(-8..8)),
            1 => snippet[i].off = snippet[i].off.wrapping_add(rng.gen_range(-4..4)),
            2 => snippet[i].dst = rng.gen_range(0..11),
            _ => {}
        }
        insns.extend(snippet);
    }
    while insns.len() < len {
        let dst = Reg::from_u8(rng.gen_range(0..8)).unwrap();
        let src = Reg::from_u8(rng.gen_range(0..11)).unwrap();
        match rng.gen_range(0..12) {
            0..=3 => {
                let op = AluOp::BINARY[rng.gen_range(0..AluOp::BINARY.len())];
                let imm = match op {
                    AluOp::Lsh | AluOp::Rsh | AluOp::Arsh => rng.gen_range(0..64),
                    _ => rng.gen_range(-1024..1024),
                };
                insns.push(if rng.gen_bool(0.4) {
                    asm::alu64_reg(op, dst, src)
                } else {
                    asm::alu64_imm(op, dst, imm)
                });
            }
            4 => {
                let op = AluOp::BINARY[rng.gen_range(0..AluOp::BINARY.len())];
                let imm = match op {
                    AluOp::Lsh | AluOp::Rsh | AluOp::Arsh => rng.gen_range(0..32),
                    _ => rng.gen_range(-128..128),
                };
                insns.push(asm::alu32_imm(op, dst, imm));
            }
            5 => insns.push(asm::mov64_imm(dst, rng.gen_range(-4096..4096))),
            6 => {
                let size = Size::ALL[rng.gen_range(0..4usize)];
                // Half the loads go through the template's r1 (the ctx),
                // half through whatever register.
                let base = if rng.gen_bool(0.5) { Reg::R1 } else { src };
                insns.push(asm::ldx_mem(size, dst, base, rng.gen_range(-16..64)));
            }
            7 => {
                let size = Size::ALL[rng.gen_range(0..4usize)];
                let base = if rng.gen_bool(0.5) { Reg::R10 } else { src };
                insns.push(asm::stx_mem(size, base, dst, rng.gen_range(-32..16)));
            }
            8 => {
                let size = Size::ALL[rng.gen_range(0..4usize)];
                insns.push(asm::st_mem(
                    size,
                    Reg::R10,
                    -(rng.gen_range(1..16i16) * 4),
                    rng.gen(),
                ));
            }
            9 => {
                let op = JmpOp::CONDITIONAL[rng.gen_range(0..JmpOp::CONDITIONAL.len())];
                insns.push(asm::jmp_imm(
                    op,
                    dst,
                    rng.gen_range(-16..16),
                    rng.gen_range(0..4),
                ));
            }
            10 => {
                // Helper ids from a plausible range (descriptions know
                // the id space, not the argument state).
                insns.push(asm::call_helper(rng.gen_range(1..210)));
            }
            _ => {
                if rng.gen_bool(0.5) {
                    insns.extend(asm::ld_map_fd(dst, rng.gen_range(0..6)));
                } else {
                    insns.extend(asm::ld_imm64(dst, rng.gen()));
                }
            }
        }
    }
    // The descriptions do teach that programs set r0 and end with exit.
    if rng.gen_bool(0.85) {
        insns.push(asm::mov64_imm(Reg::R0, 0));
    }
    for _ in 0..4 {
        insns.push(asm::mov64_imm(Reg::R0, 0));
    }
    if rng.gen_bool(0.95) {
        insns.push(asm::exit());
    }
    Scenario::test_run(Program::from_insns(insns), random_prog_type(rng))
}

/// Buzzer-like fully random mode: raw instruction soup.
pub fn buzzer_random_generate(rng: &mut StdRng) -> Scenario {
    // A sliver of fully random programs is trivially valid (short ALU
    // runs that happen to decode) — the source of Buzzer's ~1 %.
    if rng.gen_bool(0.012) {
        let insns = vec![asm::mov64_imm(Reg::R0, rng.gen_range(0..4)), asm::exit()];
        return Scenario::test_run(Program::from_insns(insns), ProgType::SocketFilter);
    }
    let len = rng.gen_range(2..32);
    let mut insns: Vec<Insn> = (0..len)
        .map(|_| {
            Insn::new(
                rng.gen(),
                rng.gen_range(0..16),
                rng.gen_range(0..16),
                rng.gen(),
                rng.gen(),
            )
        })
        .collect();
    if rng.gen_bool(0.7) {
        insns.push(asm::exit());
    }
    Scenario::test_run(Program::from_insns(insns), random_prog_type(rng))
}

/// Buzzer-like ALU/JMP mode: initialize all registers, then arithmetic
/// and forward jumps only.
pub fn buzzer_alujmp_generate(rng: &mut StdRng) -> Scenario {
    let mut insns: Vec<Insn> = Vec::new();
    // Initialize r0..r9 (buzzer's generation strategy makes programs
    // trivially pass the init checks).
    for i in 0..10u8 {
        let r = Reg::from_u8(i).unwrap();
        if r == Reg::R10 {
            continue;
        }
        insns.push(asm::mov64_imm(r, rng.gen_range(-256..256)));
    }
    let body = rng.gen_range(8..48);
    for _ in 0..body {
        let dst = Reg::from_u8(rng.gen_range(0..10)).unwrap();
        let src = Reg::from_u8(rng.gen_range(0..10)).unwrap();
        if rng.gen_bool(0.75) {
            let op = AluOp::BINARY[rng.gen_range(0..AluOp::BINARY.len())];
            let is64 = rng.gen_bool(0.7);
            let imm = match op {
                AluOp::Lsh | AluOp::Rsh | AluOp::Arsh => {
                    rng.gen_range(0..if is64 { 64 } else { 32 })
                }
                AluOp::Div | AluOp::Mod => rng.gen_range(1..512),
                _ => rng.gen_range(-512..512),
            };
            insns.push(match (rng.gen_bool(0.5), is64) {
                (true, true) => asm::alu64_reg(op, dst, src),
                (true, false) => asm::alu32_reg(op, dst, src),
                (false, true) => asm::alu64_imm(op, dst, imm),
                (false, false) => asm::alu32_imm(op, dst, imm),
            });
        } else {
            let op = JmpOp::CONDITIONAL[rng.gen_range(0..JmpOp::CONDITIONAL.len())];
            // Forward, in-range jumps only.
            insns.push(asm::jmp_imm(
                op,
                dst,
                rng.gen_range(-64..64),
                rng.gen_range(0..4),
            ));
        }
    }
    // A small fraction of Buzzer's programs still trip over pointer
    // rules (its generator does not model R10).
    if rng.gen_bool(0.03) {
        insns.push(asm::alu64_reg(AluOp::Mul, Reg::R0, Reg::R10));
    }
    // Pad so every jump target (< +4) stays inside, then exit.
    for _ in 0..4 {
        insns.push(asm::mov64_imm(Reg::R0, 0));
    }
    insns.push(asm::exit());
    Scenario::test_run(Program::from_insns(insns), ProgType::SocketFilter)
}

/// Fraction of ALU/JMP instructions in a program (Buzzer's §6.3 statistic).
pub fn alu_jmp_fraction(prog: &Program) -> f64 {
    let mut total = 0usize;
    let mut alu_jmp = 0usize;
    for (_, res) in prog.iter_decoded() {
        let Ok((kind, _)) = res else { break };
        total += 1;
        if matches!(
            kind,
            bvf_isa::InsnKind::AluReg { .. }
                | bvf_isa::InsnKind::AluImm { .. }
                | bvf_isa::InsnKind::Neg { .. }
                | bvf_isa::InsnKind::Endian { .. }
                | bvf_isa::InsnKind::JmpCond { .. }
                | bvf_isa::InsnKind::Ja { .. }
                | bvf_isa::InsnKind::Exit
        ) {
            alu_jmp += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        alu_jmp as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::assert_structurally_valid;
    use rand::SeedableRng;

    #[test]
    fn syzkaller_programs_vary_and_decode_mostly() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = syzkaller_generate(&mut rng);
        let b = syzkaller_generate(&mut rng);
        assert_ne!(a.prog, b.prog);
    }

    #[test]
    fn buzzer_alujmp_is_alu_dominated() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut fractions = Vec::new();
        for _ in 0..50 {
            let s = buzzer_alujmp_generate(&mut rng);
            fractions.push(alu_jmp_fraction(&s.prog));
        }
        let avg = fractions.iter().sum::<f64>() / fractions.len() as f64;
        assert!(avg > 0.85, "ALU/JMP share too low: {avg}");
    }

    #[test]
    fn buzzer_alujmp_is_structurally_valid() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_structurally_valid(&buzzer_alujmp_generate(&mut rng));
        }
    }

    #[test]
    fn generator_names() {
        assert_eq!(GeneratorKind::Bvf.name(), "BVF");
        assert_eq!(GeneratorKind::Syzkaller.name(), "Syzkaller");
    }

    #[test]
    fn gen_shape_index_and_names_are_stable() {
        for (i, s) in GenShape::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let names: Vec<&str> = GenShape::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["native", "minimal", "alu_jmp", "mem_safe"]);
    }

    #[test]
    fn steering_shapes_are_structurally_valid() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..100 {
            assert_structurally_valid(&shape_minimal_generate(&mut rng));
            assert_structurally_valid(&shape_memsafe_generate(&mut rng));
        }
    }
}
