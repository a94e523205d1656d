//! Property tests: the compact [`Stack`] behaves exactly like the
//! 64-slot array of [`StackSlot`]s it replaced.
//!
//! The stack packs its byte kinds apart from its spilled registers and
//! keeps two summaries current on every write: the fingerprint's 2-bit
//! slot tags and its share of the permissiveness score that orders
//! eviction. The first property applies random sequences of spills,
//! partial writes, full writes, zero writes, reference releases and
//! id updates to a verifier state and, in step, to a plain slot array
//! that follows the old rules; after every operation the stack must
//! hold the same slots and its summaries must equal a recomputation
//! from scratch. The second checks `stacksafe` against the old per-byte
//! subsumption rule, kept here as the reference. The third checks the
//! whole-state permissiveness score of [`StateShape`] against the
//! formula the eviction order was defined with.

use bvf_verifier::prune::{regsafe, stacksafe};
use bvf_verifier::state::{
    FuncState, Stack, StackByte, StackSlot, VerifierState, SLOT_TAG_SPILL, SLOT_TAG_ZERO,
    STACK_SLOTS,
};
use bvf_verifier::types::{RegState, RegType};
use bvf_verifier::StateShape;
use proptest::prelude::*;

/// References the tests acquire up front; spilled registers hold them.
const REFS: u32 = 3;

/// A register worth spilling: scalars (some linked by an id), nullable
/// map-value pointers, and records that hold one of the references.
fn arb_spill() -> impl Strategy<Value = RegState> {
    prop_oneof![
        (0u64..1 << 20).prop_map(RegState::known_scalar),
        (0u32..3).prop_map(|id| RegState {
            id,
            ..RegState::unknown_scalar()
        }),
        (1u32..4).prop_map(|id| RegState {
            id,
            maybe_null: true,
            ..RegState::pointer(RegType::PtrToMapValue { map_id: 0 })
        }),
        (1..=REFS).prop_map(|ref_obj_id| RegState {
            ref_obj_id,
            ..RegState::pointer(RegType::PtrToMem {
                size: 8,
                alloc: true,
            })
        }),
    ]
}

/// One stack operation.
#[derive(Debug, Clone)]
enum Op {
    /// An aligned 8-byte register store.
    Spill(usize, RegState),
    /// A write of `len` bytes at frame-pointer offset `off`.
    Partial(i32, i32),
    /// An aligned 8-byte store of data.
    Full(usize),
    /// A slot set to known zero.
    Zero(usize),
    /// `release_ref(id)`.
    Release(u32),
    /// A null check resolving the pointers with `id` to non-null.
    NonNull(u32),
    /// A null check resolving the pointers with `id` to the scalar 0.
    Null(u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Slots 0..8 see most of the traffic, so operations pile up on the
    // same slots; the rest of the 64 are reached too.
    let slot = prop_oneof![0usize..8, 0usize..STACK_SLOTS];
    prop_oneof![
        (slot, arb_spill()).prop_map(|(i, r)| Op::Spill(i, r)),
        (-72i32..0, 1i32..9).prop_map(|(off, len)| Op::Partial(off, len.min(-off))),
        (0usize..STACK_SLOTS).prop_map(Op::Full),
        (0usize..STACK_SLOTS).prop_map(Op::Zero),
        (1..=REFS).prop_map(Op::Release),
        (1u32..4).prop_map(Op::NonNull),
        (1u32..4).prop_map(Op::Null),
    ]
}

/// A state whose main frame holds `REFS` acquired references.
fn state_with_refs() -> VerifierState {
    let mut state = VerifierState::entry();
    let mut next = 0;
    for _ in 0..REFS {
        state.acquire_ref(&mut next, 0);
    }
    state
}

/// Applies `op` to `state`'s stack through the verifier's own entry
/// points, and to `model` by the rules of the slot array the compact
/// stack replaced.
fn apply(op: &Op, state: &mut VerifierState, model: &mut [StackSlot]) {
    match *op {
        Op::Spill(i, r) => {
            let slot = StackSlot {
                bytes: [StackByte::Spill; 8],
                spilled: r,
            };
            state.cur_mut().stack.set_slot(i, slot);
            model[i] = slot;
        }
        Op::Partial(off, len) => {
            for at in off..off + len {
                let (i, byte) = FuncState::stack_index(at).expect("in the frame");
                state.cur_mut().stack.write_misc_byte(i, byte);
                if model[i].is_full_spill() {
                    model[i].bytes = [StackByte::Misc; 8];
                    model[i].spilled = RegState::not_init();
                }
                model[i].bytes[byte] = StackByte::Misc;
            }
        }
        Op::Full(i) | Op::Zero(i) => {
            let byte = match op {
                Op::Full(_) => StackByte::Misc,
                _ => StackByte::Zero,
            };
            let slot = StackSlot {
                bytes: [byte; 8],
                spilled: RegState::not_init(),
            };
            state.cur_mut().stack.set_slot(i, slot);
            model[i] = slot;
        }
        Op::Release(id) => {
            if state.release_ref(id) {
                for s in model.iter_mut() {
                    if s.spilled.ref_obj_id == id {
                        *s = StackSlot::default();
                    }
                }
            }
        }
        Op::NonNull(id) | Op::Null(id) => {
            let null = matches!(op, Op::Null(_));
            let resolve = |r: &mut RegState| {
                if null {
                    *r = RegState::known_scalar(0);
                } else {
                    r.maybe_null = false;
                }
            };
            state.for_each_reg_with_id(id, resolve);
            for s in model.iter_mut() {
                if s.is_full_spill() && s.spilled.id == id {
                    resolve(&mut s.spilled);
                }
            }
        }
    }
}

/// One register's share of the permissiveness score, as defined.
fn reg_score(r: &RegState) -> u64 {
    match r.typ {
        RegType::NotInit => 512,
        RegType::Scalar => {
            let width = 64 - (r.umax.wrapping_sub(r.umin)).leading_zeros() as u64;
            64 + width * 2 + u64::from(r.var_off.mask.count_ones())
        }
        _ => u64::from(r.maybe_null),
    }
}

/// The stack's share of the permissiveness score, walked from scratch.
fn stack_score(slots: &[StackSlot]) -> u64 {
    let mut score = 0;
    for s in slots {
        for b in &s.bytes {
            score += match b {
                StackByte::Invalid => 4,
                StackByte::Misc => 2,
                StackByte::Zero | StackByte::Spill => 0,
            };
        }
        if s.is_full_spill() {
            score += reg_score(&s.spilled) >> 3;
        }
    }
    score
}

/// The fingerprint's slot tags, walked from scratch.
fn stack_tags(slots: &[StackSlot]) -> [u64; 2] {
    let mut tags = [0u64; 2];
    for (i, s) in slots.iter().enumerate() {
        let tag = if s.bytes == [StackByte::Zero; 8] {
            SLOT_TAG_ZERO
        } else if s.is_full_spill() {
            SLOT_TAG_SPILL
        } else {
            0
        };
        tags[i / 32] |= tag << ((i % 32) * 2);
    }
    tags
}

/// The whole-state permissiveness score, walked from scratch.
fn state_score(state: &VerifierState) -> u64 {
    state
        .frames
        .iter()
        .map(|f| f.regs.iter().map(reg_score).sum::<u64>() + stack_score(&slots_of(&f.stack)))
        .sum()
}

/// The subsumption rule of the slot array: per byte, an old `Misc`
/// needs an initialized byte, an old `Zero` or `Spill` the same kind;
/// an old full spill needs a full spill its register subsumes.
fn reference_stacksafe(old: &[StackSlot], cur: &[StackSlot]) -> bool {
    for (so, sc) in old.iter().zip(cur) {
        for (bo, bc) in so.bytes.iter().zip(&sc.bytes) {
            let ok = match bo {
                StackByte::Invalid => true,
                StackByte::Misc => !matches!(bc, StackByte::Invalid),
                StackByte::Zero => matches!(bc, StackByte::Zero),
                StackByte::Spill => matches!(bc, StackByte::Spill),
            };
            if !ok {
                return false;
            }
        }
        if so.is_full_spill() && (!sc.is_full_spill() || !regsafe(&so.spilled, &sc.spilled)) {
            return false;
        }
    }
    true
}

fn slots_of(stack: &Stack) -> Vec<StackSlot> {
    (0..STACK_SLOTS).map(|i| stack.slot(i)).collect()
}

/// Checks `stack` against the slot-array model; `when` names the last
/// operation.
fn assert_matches_model(stack: &Stack, model: &[StackSlot], when: &str) {
    assert_eq!(slots_of(stack), model, "slots after {when}");
    let spill_slots: Vec<usize> = stack.spills().iter().map(|(i, _)| *i).collect();
    let full: Vec<usize> = (0..STACK_SLOTS)
        .filter(|&i| model[i].is_full_spill())
        .collect();
    assert_eq!(
        spill_slots, full,
        "spills are the full-spill slots, ascending"
    );
    assert_eq!(stack.tags(), stack_tags(model), "tags after {when}");
    assert_eq!(
        stack.permissiveness(),
        stack_score(model),
        "score after {when}"
    );
}

proptest! {
    /// After every operation the compact stack holds the model's slots
    /// and its maintained summaries equal a recomputation from scratch.
    #[test]
    fn summaries_track_every_write(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let mut state = state_with_refs();
        let mut model = vec![StackSlot::default(); STACK_SLOTS];
        assert_matches_model(&state.cur().stack, &model, "no write");
        for op in &ops {
            apply(op, &mut state, &mut model);
            assert_matches_model(&state.cur().stack, &model, &format!("{op:?}"));
        }
    }

    /// `stacksafe` on two compact stacks answers what the per-byte rule
    /// answers on their slot arrays. The two stacks share a history, so
    /// they are often close, and sometimes share their bytes.
    #[test]
    fn stacksafe_matches_the_per_byte_rule(
        common in proptest::collection::vec(arb_op(), 0..24),
        old_ops in proptest::collection::vec(arb_op(), 0..4),
        cur_ops in proptest::collection::vec(arb_op(), 0..4),
    ) {
        let mut old = state_with_refs();
        let mut old_model = vec![StackSlot::default(); STACK_SLOTS];
        for op in &common {
            apply(op, &mut old, &mut old_model);
        }
        let (mut cur, mut cur_model) = (old.clone(), old_model.clone());
        for op in &old_ops {
            apply(op, &mut old, &mut old_model);
        }
        for op in &cur_ops {
            apply(op, &mut cur, &mut cur_model);
        }
        let (so, sc) = (&old.cur().stack, &cur.cur().stack);
        prop_assert_eq!(stacksafe(so, sc), reference_stacksafe(&old_model, &cur_model));
        prop_assert_eq!(stacksafe(sc, so), reference_stacksafe(&cur_model, &old_model));
        prop_assert!(stacksafe(so, so));
    }

    /// Id updates after a copy change only spilled registers, so the two
    /// stacks still share their bytes; `stacksafe` must compare the
    /// spills anyway.
    #[test]
    fn stacksafe_compares_the_spills_of_shared_bytes(
        common in proptest::collection::vec(arb_op(), 0..24),
        spills in proptest::collection::vec((0usize..8, arb_spill()), 1..6),
        nulls in proptest::collection::vec((1u32..4, any::<bool>()), 1..4),
    ) {
        let mut old = state_with_refs();
        let mut old_model = vec![StackSlot::default(); STACK_SLOTS];
        for op in &common {
            apply(op, &mut old, &mut old_model);
        }
        for (i, r) in spills {
            apply(&Op::Spill(i, r), &mut old, &mut old_model);
        }
        let (mut cur, mut cur_model) = (old.clone(), old_model.clone());
        for (id, null) in nulls {
            let op = if null { Op::Null(id) } else { Op::NonNull(id) };
            apply(&op, &mut cur, &mut cur_model);
        }
        let (so, sc) = (&old.cur().stack, &cur.cur().stack);
        prop_assert_eq!(stacksafe(so, sc), reference_stacksafe(&old_model, &cur_model));
        prop_assert_eq!(stacksafe(sc, so), reference_stacksafe(&cur_model, &old_model));
    }

    /// The one-pass fingerprint scores a state exactly as the eviction
    /// formula defines: every register plus every frame's stack share.
    #[test]
    fn shape_permissiveness_matches_the_formula(
        ops in proptest::collection::vec(arb_op(), 0..24),
        regs in proptest::collection::vec((0usize..10, arb_spill()), 0..6),
        call in any::<bool>(),
    ) {
        let mut state = state_with_refs();
        let mut model = vec![StackSlot::default(); STACK_SLOTS];
        for op in &ops {
            apply(op, &mut state, &mut model);
        }
        for (i, r) in regs {
            state.cur_mut().regs[i] = r;
        }
        if call {
            state.frames.push(std::rc::Rc::new(FuncState::new(3, 7)));
            state.cur_mut().stack.set_slot(1, model[0]);
        }
        prop_assert_eq!(StateShape::of(&state).permissiveness(), state_score(&state));
    }
}
