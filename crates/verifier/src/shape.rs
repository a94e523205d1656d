//! Structural state fingerprints for the explored-state fast path.
//!
//! [`StateShape`] projects a [`VerifierState`] onto the *discrete* facts
//! that [`states_equal`](crate::prune::states_equal) requires to hold
//! exactly: frame count, callsites, per-register type discriminants, and
//! per-slot stack-byte shape. The projection is a **pure filter**: if
//! [`StateShape::may_subsume`] returns `false`, `states_equal(old, cur)`
//! is provably `false`, so skipping the full comparison can never change
//! a prune decision (the property test in `tests/prop_prune.rs` pins
//! this). When it returns `true` the full comparison still runs — the
//! fingerprint only prunes impossible candidates.
//!
//! The wildcard masks encode the asymmetry of subsumption:
//!
//! - an old `NOT_INIT` register subsumes *any* current register
//!   (`regsafe` returns `true` unconditionally), so its nibble is
//!   masked out;
//! - an old `MISC`/mixed stack slot only requires the current bytes to
//!   be initialized, not equal, so its slot is masked out;
//! - an old all-`ZERO` or full-spill slot demands the same shape from
//!   the current slot, so those compare exactly.
//!
//! A prune-point visit takes the fingerprint and the state's eviction
//! score ([`StateShape::permissiveness`]) in one pass over each frame's
//! registers. The stack's part of both is kept current by
//! [`Stack`](crate::state::Stack) on every write, so no visit walks the
//! 64 stack slots.

use std::rc::Rc;

use crate::state::{FuncState, VerifierState};
use crate::types::{RegState, RegType};

/// Nibble-spread helper: maps every nonzero 4-bit lane of `tags` to
/// `0xF` and every zero lane to `0x0`.
fn nibble_mask(tags: u64) -> u64 {
    let mut m = tags | (tags >> 1);
    m |= m >> 2;
    m &= 0x1111_1111_1111_1111;
    m * 0xF
}

/// 2-bit-spread helper: maps every nonzero 2-bit lane of `tags` to
/// `0b11` and every zero lane to `0b00`.
fn pair_mask(tags: u64) -> u64 {
    let mut m = tags | (tags >> 1);
    m &= 0x5555_5555_5555_5555;
    m * 0b11
}

/// Registers summarized per frame (R0..R10); the shape arrays leave
/// room for 16 so four-bit lane packing never overflows.
const SHAPE_REGS: usize = 16;

/// Monotone 16-bit magnitude class: the bit width of `v` in the high
/// byte and the top 8 significant bits of `v` in the low byte — a tiny
/// unsigned float. `v1 <= v2` implies `magnitude_class(v1) <=
/// magnitude_class(v2)`, which is what makes the bounds-class
/// comparisons below *necessary* conditions of `range_within`, while
/// the mantissa still separates nearby values (consecutive integers
/// below 512 always differ).
fn magnitude_class(v: u64) -> u16 {
    let width = 64 - v.leading_zeros();
    let mantissa = if width > 8 { v >> (width - 8) } else { v };
    ((width as u16) << 8) | mantissa as u16
}

/// The discrete shape of one call frame.
///
/// Besides the type tags, each register carries three monotone *bounds
/// classes* and the low byte of `umin`. `regsafe` demands
/// `range_within(old, cur)` for scalars **and** pointers, and
/// `old.umin <= cur.umin && old.umax >= cur.umax` implies
///
/// - `class(old.umax) >= class(cur.umax)`,
/// - `class(old.umin) <= class(cur.umin)`,
/// - `class(old.umax - old.umin) >= class(cur.umax - cur.umin)`, and
/// - if `old` is a known constant (`umin == umax`), `cur` must be the
///   *same* constant, so the low bytes of `umin` must be equal.
///
/// The last rule is the one with teeth on the loop-detection path: a
/// counting loop revisits its prune point with the same type shape but
/// a different induction value, and the low byte separates consecutive
/// values 255 times out of 256. So it runs first, on all registers at
/// once: the low bytes are packed one lane per register, and
/// `const_mask` selects the lanes of the old frame's initialized
/// known-constant registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameShape {
    /// Per-register low byte of `umin`, one 8-bit lane per register
    /// (low lane = R0).
    umin_low: u128,
    /// `0xFF` in the lanes of registers that are initialized known
    /// constants (`umin == umax`), whose low bytes must match exactly.
    const_mask: u128,
    /// One 4-bit [`RegType::tag`] per register (R0..R10), low nibble =
    /// R0.
    reg_tags: u64,
    /// `0xF` for every register whose tag must match exactly for
    /// subsumption, `0x0` for wildcards (old `NOT_INIT`).
    reg_mask: u64,
    /// Per-register magnitude class of the unsigned range width
    /// (`umax - umin`); 0 means a known constant.
    width_class: [u16; SHAPE_REGS],
    /// Per-register magnitude class of `umax`.
    umax_class: [u16; SHAPE_REGS],
    /// Per-register magnitude class of `umin`.
    umin_class: [u16; SHAPE_REGS],
    /// Two bits per stack slot (64 slots): `01` = all bytes `ZERO`,
    /// `10` = full spill, `00` = anything else.
    stack_tags: [u64; 2],
    /// `0b11` for slots whose tag must match exactly, `0b00` for
    /// wildcard slots (old `INVALID`/`MISC`/mixed).
    stack_mask: [u64; 2],
}

impl FrameShape {
    /// The frame's shape and its share of the permissiveness score, in
    /// one pass over the registers; the stack's part of both is kept
    /// current by the [`Stack`](crate::state::Stack) itself.
    fn of(frame: &FuncState) -> (FrameShape, u64) {
        let mut umin_low = 0u128;
        let mut const_mask = 0u128;
        let mut reg_tags = 0u64;
        let mut width_class = [0u16; SHAPE_REGS];
        let mut umax_class = [0u16; SHAPE_REGS];
        let mut umin_class = [0u16; SHAPE_REGS];
        let mut score = frame.stack.permissiveness();
        for (i, r) in frame.regs.iter().enumerate() {
            let tag = r.typ.tag();
            reg_tags |= u64::from(tag) << (i * 4);
            width_class[i] = magnitude_class(r.umax.wrapping_sub(r.umin));
            umax_class[i] = magnitude_class(r.umax);
            umin_class[i] = magnitude_class(r.umin);
            umin_low |= u128::from(r.umin as u8) << (i * 8);
            if tag != 0 && r.umin == r.umax {
                const_mask |= 0xFF << (i * 8);
            }
            score += reg_permissiveness(r);
        }
        let stack_tags = frame.stack.tags();
        let shape = FrameShape {
            umin_low,
            const_mask,
            reg_tags,
            reg_mask: nibble_mask(reg_tags),
            width_class,
            umax_class,
            umin_class,
            stack_tags,
            stack_mask: [pair_mask(stack_tags[0]), pair_mask(stack_tags[1])],
        };
        (shape, score)
    }

    /// Whether a state with this (old) frame shape can possibly subsume
    /// a state with frame shape `cur`.
    fn may_subsume(&self, cur: &FrameShape) -> bool {
        if (self.umin_low ^ cur.umin_low) & self.const_mask != 0 {
            return false;
        }
        if (self.reg_tags ^ cur.reg_tags) & self.reg_mask != 0 {
            return false;
        }
        if (self.stack_tags[0] ^ cur.stack_tags[0]) & self.stack_mask[0] != 0
            || (self.stack_tags[1] ^ cur.stack_tags[1]) & self.stack_mask[1] != 0
        {
            return false;
        }
        for i in 0..SHAPE_REGS {
            if (self.reg_mask >> (i * 4)) & 0xF == 0 {
                // Old NOT_INIT: no assumption, nothing to filter on.
                continue;
            }
            // Necessary consequences of range_within(old, cur); see the
            // struct doc for the derivations.
            if self.width_class[i] < cur.width_class[i]
                || self.umax_class[i] < cur.umax_class[i]
                || self.umin_class[i] > cur.umin_class[i]
            {
                return false;
            }
        }
        true
    }
}

/// The structural fingerprint of a [`VerifierState`], taken once per
/// prune-point visit, together with the state's permissiveness score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateShape {
    /// Hash of the exact-equality preconditions of `states_equal`
    /// (frame count, acquired-ref count, per-frame callsite and
    /// subprogram start). States with different keys can never be
    /// equal, so [`StateShape::may_subsume`] compares it first.
    bucket: u64,
    /// See [`StateShape::permissiveness`].
    permissiveness: u64,
    /// The main frame's shape, inline so a one-frame state's shape
    /// allocates nothing.
    main: FrameShape,
    /// The shapes of the frames above the main one, outermost first.
    calls: Vec<FrameShape>,
}

/// SplitMix64 finalizer — the bucket hash's mixing function.
fn mix(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl StateShape {
    /// Projects `state` onto its structural fingerprint and scores it,
    /// in one pass over its frames.
    pub fn of(state: &VerifierState) -> StateShape {
        let mut bucket = mix(state.frames.len() as u64, state.acquired_refs.len() as u64);
        let mut permissiveness = 0;
        let mut frames = state.frames.iter().map(|f| {
            bucket = mix(bucket, f.callsite as u64);
            bucket = mix(bucket, f.subprog_start as u64);
            let (shape, score) = FrameShape::of(f);
            permissiveness += score;
            shape
        });
        let main = frames.next().expect("at least one frame");
        let calls = frames.collect();
        StateShape {
            bucket,
            permissiveness,
            main,
            calls,
        }
    }

    /// The bucket key: the hash of the exact-equality preconditions.
    pub fn bucket(&self) -> u64 {
        self.bucket
    }

    /// A deterministic "how much does this state admit" score used by
    /// the eviction policy: higher scores subsume more future states.
    /// Only the ordering matters, and only its determinism is
    /// load-bearing. It sums, over all frames, every register's share
    /// (most for `NOT_INIT`, then by range width for scalars, least for
    /// pointers) and the stack's share
    /// ([`Stack::permissiveness`](crate::state::Stack::permissiveness)).
    pub fn permissiveness(&self) -> u64 {
        self.permissiveness
    }

    /// Whether a stored (old) state with shape `self` can possibly
    /// subsume a current state with shape `cur`. `false` guarantees
    /// `states_equal(old, cur) == false`.
    pub fn may_subsume(&self, cur: &StateShape) -> bool {
        self.bucket == cur.bucket
            && self.calls.len() == cur.calls.len()
            && self.main.may_subsume(&cur.main)
            && self
                .calls
                .iter()
                .zip(&cur.calls)
                .all(|(o, c)| o.may_subsume(c))
    }
}

/// One register's share of the permissiveness score.
pub(crate) fn reg_permissiveness(r: &RegState) -> u64 {
    match r.typ {
        // NOT_INIT subsumes everything — the most permissive a
        // register can be.
        RegType::NotInit => 512,
        // Scalars: wider bounds and more unknown tnum bits admit more
        // concrete values.
        RegType::Scalar => {
            let width = 64 - (r.umax.wrapping_sub(r.umin)).leading_zeros() as u64;
            64 + width * 2 + u64::from(r.var_off.mask.count_ones())
        }
        // Pointers require near-exact matches; a nullable pointer is
        // marginally laxer than a proven non-null one.
        _ => u64::from(r.maybe_null),
    }
}

/// A state stored at a prune-point visit, with the fingerprint taken
/// there. The path-trace node made at the same visit shares it, so the
/// loop scan and the explored scan read one copy of the state.
#[derive(Debug, Clone)]
pub struct ExploredEntry {
    /// The stored state.
    pub state: VerifierState,
    /// Its fingerprint and permissiveness score.
    pub shape: StateShape,
}

/// The per-prune-point explored-state index: the stored entries, which
/// the explored scan reads in order, filtering them through
/// [`StateShape::may_subsume`] when the index is on.
#[derive(Debug, Clone, Default)]
pub struct ExploredPoint {
    entries: Vec<Rc<ExploredEntry>>,
    /// Index of the least permissive entry, the first one on ties.
    least: usize,
}

impl ExploredPoint {
    /// Number of stored states.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the point has no stored states.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All stored entries, oldest first.
    pub fn entries(&self) -> &[Rc<ExploredEntry>] {
        &self.entries
    }

    /// Stores `entry`, evicting the most specific resident state when
    /// the point is at `cap`. The incoming state is itself dropped when
    /// it is the most specific of the lot — the states most likely to
    /// subsume future paths are the ones kept. Returns `true` when an
    /// eviction (either direction) happened.
    ///
    /// Ties break on the lowest index (oldest entry), which keeps the
    /// policy deterministic. The least permissive entry is remembered,
    /// so dropping the incoming state costs one comparison.
    pub fn insert(&mut self, entry: Rc<ExploredEntry>, cap: usize) -> bool {
        let score = entry.shape.permissiveness();
        if self.entries.len() < cap {
            let idx = self.entries.len();
            if idx == 0 || score < self.entries[self.least].shape.permissiveness() {
                self.least = idx;
            }
            self.entries.push(entry);
            return false;
        }
        let idx = self.least;
        if score <= self.entries[idx].shape.permissiveness() {
            // The incoming state admits no more than anything resident:
            // drop it instead.
            return true;
        }
        // Replace in place: the other entries keep their positions.
        self.entries[idx] = entry;
        self.least = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.shape.permissiveness())
            .map(|(i, _)| i)
            .expect("cap > 0");
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{StackByte, StackSlot};

    fn entry_state() -> VerifierState {
        VerifierState::entry()
    }

    fn ranged_scalar(max: u64) -> RegState {
        let mut r = RegState::unknown_scalar();
        r.umax = max;
        r.smax = max as i64;
        r.var_off = crate::tnum::Tnum::range(0, max);
        r.update_reg_bounds();
        r
    }

    fn entry(state: VerifierState) -> Rc<ExploredEntry> {
        let shape = StateShape::of(&state);
        Rc::new(ExploredEntry { state, shape })
    }

    fn permissiveness(state: &VerifierState) -> u64 {
        StateShape::of(state).permissiveness()
    }

    #[test]
    fn identical_states_may_subsume() {
        let a = StateShape::of(&entry_state());
        let b = StateShape::of(&entry_state());
        assert_eq!(a.bucket(), b.bucket());
        assert!(a.may_subsume(&b));
        assert!(b.may_subsume(&a));
    }

    #[test]
    fn not_init_is_a_wildcard() {
        // Old R1 = NOT_INIT must admit a cur with R1 = scalar.
        let mut old = entry_state();
        old.cur_mut().regs[1] = RegState::not_init();
        let cur = entry_state();
        assert!(StateShape::of(&old).may_subsume(&StateShape::of(&cur)));
        // ...but the reverse (old ctx ptr vs cur NOT_INIT) cannot.
        assert!(!StateShape::of(&cur).may_subsume(&StateShape::of(&old)));
    }

    #[test]
    fn scalar_vs_pointer_never_subsumes() {
        let mut old = entry_state();
        old.cur_mut().regs[1] = RegState::unknown_scalar();
        let cur = entry_state(); // R1 = ctx pointer
        assert!(!StateShape::of(&old).may_subsume(&StateShape::of(&cur)));
    }

    #[test]
    fn zero_slot_demands_zero_slot() {
        let mut old = entry_state();
        old.cur_mut().stack.set_slot(
            0,
            StackSlot {
                bytes: [StackByte::Zero; 8],
                spilled: RegState::not_init(),
            },
        );
        let cur = entry_state(); // slot 0 untouched (INVALID)
        assert!(!StateShape::of(&old).may_subsume(&StateShape::of(&cur)));
        // An old INVALID slot is a wildcard: admits the zeroed slot.
        assert!(StateShape::of(&cur).may_subsume(&StateShape::of(&old)));
    }

    #[test]
    fn frame_structure_splits_buckets() {
        let one = entry_state();
        let mut two = entry_state();
        two.frames.push(Rc::new(FuncState::new(3, 7)));
        let mut two_other_callsite = entry_state();
        two_other_callsite
            .frames
            .push(Rc::new(FuncState::new(3, 9)));
        assert_ne!(StateShape::of(&one).bucket(), StateShape::of(&two).bucket());
        assert_ne!(
            StateShape::of(&two).bucket(),
            StateShape::of(&two_other_callsite).bucket()
        );
        // The key alone keeps apart states whose frames look alike.
        let mut held = entry_state();
        held.acquire_ref(&mut 0, 0);
        assert!(!StateShape::of(&one).may_subsume(&StateShape::of(&held)));
    }

    #[test]
    fn eviction_keeps_the_most_permissive() {
        let mut point = ExploredPoint::default();
        // A very specific state: every reg a known constant.
        let mut specific = entry_state();
        for i in 0..=5 {
            specific.cur_mut().regs[i] = RegState::known_scalar(0);
        }
        // A permissive state: everything unknown.
        let mut permissive = entry_state();
        for i in 0..=5 {
            permissive.cur_mut().regs[i] = RegState::unknown_scalar();
        }
        assert!(!point.insert(entry(specific.clone()), 2));
        assert!(!point.insert(entry(permissive.clone()), 2));
        // A third, mid-permissiveness state evicts the specific one.
        let mut mid = entry_state();
        for i in 0..=5 {
            mid.cur_mut().regs[i] = ranged_scalar(1 << 20);
        }
        assert!(point.insert(entry(mid), 2));
        assert_eq!(point.len(), 2);
        let scores: Vec<u64> = point
            .entries()
            .iter()
            .map(|e| e.shape.permissiveness())
            .collect();
        assert!(scores.iter().all(|&s| s > permissiveness(&specific)));
        // A fully-specific incomer is dropped (still counts as an
        // eviction) and the residents survive.
        let mut very_specific = entry_state();
        for i in 0..=9 {
            very_specific.cur_mut().regs[i] = RegState::known_scalar(3);
        }
        assert!(point.insert(entry(very_specific), 2));
        assert_eq!(
            point
                .entries()
                .iter()
                .map(|e| e.shape.permissiveness())
                .collect::<Vec<_>>(),
            scores
        );
    }

    #[test]
    fn eviction_matches_a_full_scan() {
        use rand::{Rng, SeedableRng};

        // The policy as a full scan on every insert: scores by position.
        fn model_insert(scores: &mut Vec<u64>, score: u64, cap: usize) {
            if scores.len() < cap {
                scores.push(score);
                return;
            }
            let (idx, &least) = scores
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| **s)
                .expect("cap > 0");
            if score > least {
                scores[idx] = score;
            }
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let (mut point, mut model) = (ExploredPoint::default(), Vec::new());
            for _ in 0..40 {
                // Few distinct scores, so ties are common.
                let mut state = entry_state();
                for i in 0..4 {
                    state.cur_mut().regs[i] = match rng.gen_range(0..3) {
                        0 => RegState::not_init(),
                        1 => RegState::unknown_scalar(),
                        _ => RegState::known_scalar(i as u64),
                    };
                }
                if rng.gen_range(0..2) == 1 {
                    state.acquire_ref(&mut 0, 0);
                }
                let e = entry(state);
                let score = e.shape.permissiveness();
                let full = point.len() == 4;
                let evicted = point.insert(e, 4);
                model_insert(&mut model, score, 4);
                assert_eq!(evicted, full);
                let scores: Vec<u64> = point
                    .entries()
                    .iter()
                    .map(|e| e.shape.permissiveness())
                    .collect();
                assert_eq!(scores, model);
            }
        }
    }
}
