//! Property tests: the explored-state fingerprint is a *pure filter*.
//!
//! The fast path skips a `states_equal(old, cur)` comparison whenever
//! `StateShape::of(old).may_subsume(&StateShape::of(cur))` is `false`
//! (it compares the bucket keys first). That is only sound if the
//! implication
//!
//! ```text
//! states_equal(old, cur)  ⇒  bucket(old) == bucket(cur)
//!                            && shape(old).may_subsume(shape(cur))
//! ```
//!
//! holds for *every* pair of states — a single counterexample would mean
//! the index can suppress a legitimate prune and change exploration.
//! The first property fuzzes exactly that implication over arbitrary
//! state pairs, and a second over related pairs, which are subsumed
//! often enough that the implication cannot hold vacuously.
//!
//! The last property checks the same fact end to end: verifying a
//! random program with the index on and off must produce the identical
//! verdict, instruction count, and coverage — the index may only change
//! how many comparisons run, never their outcome.

use std::rc::Rc;

use bvf_isa::{asm, AluOp, JmpOp, Program, Reg, Size};
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::{BugSet, Kernel};
use bvf_verifier::prune::states_equal;
use bvf_verifier::state::{FuncState, StackByte, StackSlot, VerifierState, STACK_SLOTS};
use bvf_verifier::types::{RegState, RegType};
use bvf_verifier::{verify, StateShape, VerifierOpts};
use proptest::prelude::*;

/// An arbitrary register state covering every [`RegType`] discriminant
/// the generator can reach, with scalar bounds that are sometimes wide
/// and sometimes tight (so subsumption holds often enough for the
/// implication to be exercised in the non-vacuous direction).
fn arb_reg() -> impl Strategy<Value = RegState> {
    prop_oneof![
        Just(RegState::not_init()),
        Just(RegState::unknown_scalar()),
        (0u64..1 << 48).prop_map(RegState::known_scalar),
        (0u64..1 << 48).prop_map(|max| {
            let mut r = RegState::unknown_scalar();
            r.umax = max;
            r.smax = max as i64;
            r.var_off = bvf_verifier::Tnum::range(0, max);
            r.update_reg_bounds();
            r
        }),
        Just(RegState::pointer(RegType::PtrToCtx)),
        Just(RegState::pointer(RegType::PtrToStack)),
        (0u32..3, any::<bool>()).prop_map(|(map_id, maybe_null)| {
            let mut r = RegState::pointer(RegType::PtrToMapValue { map_id });
            r.maybe_null = maybe_null;
            r
        }),
        (0u32..3).prop_map(|map_id| RegState::pointer(RegType::ConstPtrToMap { map_id })),
    ]
}

/// An arbitrary stack slot: untouched, misc-initialized, zeroed, a full
/// spill, or a mixed partial write.
fn arb_slot() -> impl Strategy<Value = StackSlot> {
    prop_oneof![
        Just(StackSlot {
            bytes: [StackByte::Invalid; 8],
            spilled: RegState::not_init(),
        }),
        Just(StackSlot {
            bytes: [StackByte::Misc; 8],
            spilled: RegState::not_init(),
        }),
        Just(StackSlot {
            bytes: [StackByte::Zero; 8],
            spilled: RegState::not_init(),
        }),
        arb_reg().prop_map(|spilled| StackSlot {
            bytes: [StackByte::Spill; 8],
            spilled,
        }),
        Just(StackSlot {
            bytes: [
                StackByte::Misc,
                StackByte::Misc,
                StackByte::Invalid,
                StackByte::Invalid,
                StackByte::Zero,
                StackByte::Zero,
                StackByte::Misc,
                StackByte::Invalid,
            ],
            spilled: RegState::not_init(),
        }),
    ]
}

/// A known constant from a small domain: two states often hold the same
/// constant, or constants that differ only above the low byte, so the
/// fingerprint's first check (equal low bytes of old constants) meets
/// both outcomes.
fn arb_const() -> impl Strategy<Value = RegState> {
    (0u64..2, 0u64..2).prop_map(|(hi, lo)| RegState::known_scalar(hi << 8 | lo))
}

/// An arbitrary verifier state: 1–2 call frames, randomized registers,
/// a few of them small known constants, randomized stack slots anywhere
/// in the 64, and 0–1 acquired references.
fn arb_state() -> impl Strategy<Value = VerifierState> {
    (
        proptest::collection::vec(arb_reg(), 10),
        proptest::collection::vec((0usize..10, arb_const()), 0..6),
        proptest::collection::vec((0usize..STACK_SLOTS, arb_slot()), 0..12),
        0usize..2,
        0usize..2,
    )
        .prop_map(|(regs, consts, slots, extra_frames, refs)| {
            let mut state = VerifierState::entry();
            {
                let frame = state.cur_mut();
                for (i, r) in regs.into_iter().enumerate() {
                    frame.regs[i] = r;
                }
                for (i, r) in consts {
                    frame.regs[i] = r;
                }
                for (i, s) in slots {
                    frame.stack.set_slot(i, s);
                }
            }
            for i in 0..extra_frames {
                state.frames.push(Rc::new(FuncState::new(3 + i, 7)));
            }
            let mut next_id = 1;
            for _ in 0..refs {
                state.acquire_ref(&mut next_id, 5);
            }
            state
        })
}

/// A pair of states where `cur` is `old` with a few registers and stack
/// slots of its current frame rewritten. Unlike two independent states,
/// such a pair is often subsumed, which tests the implication in its
/// non-vacuous direction.
fn arb_related_pair() -> impl Strategy<Value = (VerifierState, VerifierState)> {
    (
        arb_state(),
        proptest::collection::vec((0usize..10, arb_reg()), 0..3),
        proptest::collection::vec((0usize..10, arb_const()), 0..3),
        proptest::collection::vec((0usize..STACK_SLOTS, arb_slot()), 0..3),
    )
        .prop_map(|(old, regs, consts, slots)| {
            let mut cur = old.clone();
            let frame = cur.cur_mut();
            for (i, r) in regs.into_iter().chain(consts) {
                frame.regs[i] = r;
            }
            for (i, s) in slots {
                frame.stack.set_slot(i, s);
            }
            (old, cur)
        })
}

/// The implication under test, for one pair.
fn assert_filter_admits_subsumed(old: &VerifierState, cur: &VerifierState) -> bool {
    let so = StateShape::of(old);
    let sc = StateShape::of(cur);
    let equal = states_equal(old, cur);
    if equal {
        assert_eq!(
            so.bucket(),
            sc.bucket(),
            "equal states landed in different buckets"
        );
        assert!(so.may_subsume(&sc), "fingerprint rejected a subsuming pair");
    }
    equal
}

proptest! {

    /// The load-bearing implication: whenever the full comparison says
    /// `old` subsumes `cur`, the fingerprint must have admitted the
    /// pair. (Contrapositive: a fingerprint mismatch proves
    /// `states_equal` false, so skipping it is sound.)
    #[test]
    fn fingerprint_mismatch_implies_states_not_equal(
        old in arb_state(),
        cur in arb_state(),
    ) {
        assert_filter_admits_subsumed(&old, &cur);
    }

    /// A state always subsumes itself, and its fingerprint must agree.
    #[test]
    fn reflexivity_survives_the_filter(state in arb_state()) {
        prop_assert!(states_equal(&state, &state));
        let s = StateShape::of(&state);
        prop_assert!(s.may_subsume(&s));
    }
}

/// The same implication over related pairs, which are subsumed often
/// enough that it cannot hold vacuously: both outcomes must occur.
#[test]
fn fingerprint_admits_subsumed_related_pairs() {
    let mut rng = <proptest::TestRng as rand::SeedableRng>::seed_from_u64(0x5eed);
    let pairs = arb_related_pair();
    let (mut equal, mut unequal) = (0, 0);
    for _ in 0..2_000 {
        let (old, cur) = pairs.sample(&mut rng);
        if assert_filter_admits_subsumed(&old, &cur) {
            equal += 1;
        } else {
            unequal += 1;
        }
    }
    assert!(equal >= 100, "only {equal} of 2000 related pairs subsumed");
    assert!(
        unequal >= 100,
        "only {unequal} of 2000 related pairs not subsumed"
    );
}

/// Instruction soup for the end-to-end property: ALU ops, bounded
/// conditional jumps (forward and backward), and stack accesses — enough
/// to create join points, loops, and prune-point traffic. Many programs
/// are invalid; rejection must then be identical with the index on and
/// off.
fn arb_program() -> impl Strategy<Value = Program> {
    const REGS: [Reg; 5] = [Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4];
    const ALU: [AluOp; 6] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Rsh,
    ];
    const JMP: [JmpOp; 4] = [JmpOp::Jeq, JmpOp::Jne, JmpOp::Jgt, JmpOp::Jsgt];
    let insn =
        (0u8..7, 0usize..5, 0usize..5, -64i32..64, -4i16..6).prop_map(|(kind, a, b, imm, off)| {
            match kind {
                0 => asm::mov64_imm(REGS[a], imm),
                1 => asm::mov64_reg(REGS[a], REGS[b]),
                2 => asm::alu64_imm(ALU[a % ALU.len()], REGS[b], imm & 31),
                3 => asm::alu64_reg(ALU[a % ALU.len()], REGS[b], REGS[a]),
                4 => asm::jmp_imm(JMP[a % JMP.len()], REGS[b], imm, off),
                5 => asm::st_mem(Size::Dw, Reg::R10, -8, imm),
                _ => asm::ldx_mem(Size::Dw, REGS[a], Reg::R10, -8),
            }
        });
    proptest::collection::vec(insn, 1..24).prop_map(|mut insns| {
        insns.push(asm::mov64_imm(Reg::R0, 0));
        insns.push(asm::exit());
        Program::from_insns(insns)
    })
}

/// The projection of a verification outcome that must be identical with
/// the fingerprint index on and off.
fn verdict(prog: &Program, prune_index: bool) -> (Result<usize, String>, bvf_verifier::Coverage) {
    let kernel = Kernel::new(BugSet::none());
    let opts = VerifierOpts {
        insn_limit: 20_000,
        prune_index,
        ..Default::default()
    };
    let out = verify(&kernel, prog, ProgType::SocketFilter, &opts);
    let result = out
        .result
        .map(|p| p.insns_processed)
        .map_err(|e| e.to_string());
    (result, out.cov)
}

proptest! {

    /// End to end: the index changes how many `states_equal` calls run,
    /// never the exploration itself. Verdict, instruction count, and
    /// branch coverage must be bit-identical with the index on and off.
    #[test]
    fn index_on_and_off_verify_identically(prog in arb_program()) {
        prop_assert_eq!(verdict(&prog, true), verdict(&prog, false));
    }
}
