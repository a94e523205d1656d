//! Verifier states: stack slots, function frames, and whole-path states.
//!
//! Frames live behind [`Rc`]-based copy-on-write: branching clones a
//! `VerifierState` by bumping reference counts, and the first mutation
//! through [`VerifierState::cur_mut`] unshares only the touched frame.
//! A frame's [`Stack`] shares its byte kinds and its spilled registers
//! the same way, and unshares each only when a write touches it.
//! Untouched frames stay shared across the DFS worklist, the path
//! trace, and the explored index.

use std::rc::Rc;

use serde::{Deserialize, Serialize};

use bvf_isa::reg::STACK_SIZE;
use bvf_isa::Reg;

use crate::shape::reg_permissiveness;
use crate::types::{RegState, RegType};

/// Number of 8-byte stack slots per frame.
pub const STACK_SLOTS: usize = (STACK_SIZE as usize) / 8;

/// Registers per frame: `R0`..`R10` plus the hidden `Ax`.
pub const FRAME_REGS: usize = 12;

/// Maximum call depth for bpf-to-bpf calls.
pub const MAX_CALL_FRAMES: usize = 8;

/// Classification of one stack byte (`STACK_*` in the kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StackByte {
    /// Never written.
    Invalid,
    /// Part of a spilled register.
    Spill,
    /// Written with arbitrary data.
    Misc,
    /// Known zero.
    Zero,
}

impl StackByte {
    /// This byte's share of the permissiveness score: an unwritten byte
    /// admits the most, a known one the least.
    fn permissiveness(self) -> u64 {
        match self {
            StackByte::Invalid => 4,
            StackByte::Misc => 2,
            StackByte::Zero | StackByte::Spill => 0,
        }
    }
}

/// One 8-byte stack slot, as a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StackSlot {
    /// Per-byte classification; index 0 is the lowest address.
    pub bytes: [StackByte; 8],
    /// The register state spilled here (meaningful when all bytes are
    /// [`StackByte::Spill`]).
    pub spilled: RegState,
}

impl Default for StackSlot {
    fn default() -> Self {
        StackSlot {
            bytes: [StackByte::Invalid; 8],
            spilled: RegState::not_init(),
        }
    }
}

impl StackSlot {
    /// Whether the whole slot holds one spilled register.
    pub fn is_full_spill(&self) -> bool {
        self.bytes.iter().all(|b| *b == StackByte::Spill)
    }
}

/// Fingerprint tag of a slot whose bytes are all [`StackByte::Zero`].
pub const SLOT_TAG_ZERO: u64 = 0b01;
/// Fingerprint tag of a slot that holds a full spill.
pub const SLOT_TAG_SPILL: u64 = 0b10;

/// One frame's 512-byte stack.
///
/// The byte kinds are packed one byte each (512 B) behind one [`Rc`],
/// and the registers of the full-spill slots sit apart behind another,
/// ascending by slot. So a write that spills nothing copies 0.5 KB of a
/// shared stack, not the spilled registers.
///
/// Every write keeps two summaries current, so a prune-point visit
/// reads them instead of walking the 64 slots:
///
/// - [`Stack::tags`]: two bits per slot for the state fingerprint,
///   [`SLOT_TAG_ZERO`], [`SLOT_TAG_SPILL`], or `00` for anything else;
/// - [`Stack::permissiveness`]: the stack's share of the eviction score,
///   the sum of every byte's [`StackByte`] share plus, per full spill,
///   an eighth of its register's score.
#[derive(Debug, Clone, PartialEq)]
pub struct Stack {
    /// Slot `i` covers bytes `[-8*(i+1), -8*i)` relative to the frame
    /// pointer; byte 0 of a slot is its lowest address.
    bytes: Rc<[[StackByte; 8]; STACK_SLOTS]>,
    /// `(slot, register)` for exactly the full-spill slots, ascending.
    spills: Rc<Vec<(usize, RegState)>>,
    /// Two bits per slot, slot `i` at bit `2 * (i % 32)` of word `i / 32`.
    tags: [u64; 2],
    /// The stack's share of the permissiveness score.
    score: u64,
}

impl Default for Stack {
    fn default() -> Self {
        Stack::new()
    }
}

impl Stack {
    /// An unwritten stack: every byte [`StackByte::Invalid`].
    pub fn new() -> Stack {
        Stack {
            bytes: Rc::new([[StackByte::Invalid; 8]; STACK_SLOTS]),
            spills: Rc::new(Vec::new()),
            tags: [0; 2],
            score: (STACK_SLOTS * 8) as u64 * StackByte::Invalid.permissiveness(),
        }
    }

    /// The byte kinds of slot `i`.
    pub fn bytes(&self, i: usize) -> [StackByte; 8] {
        self.bytes[i]
    }

    /// The register spilled in slot `i`, when the slot is a full spill.
    pub fn spilled(&self, i: usize) -> Option<&RegState> {
        if !self.is_full_spill(i) {
            return None;
        }
        self.spills.iter().find(|(s, _)| *s == i).map(|(_, r)| r)
    }

    /// Whether slot `i` holds one spilled register.
    fn is_full_spill(&self, i: usize) -> bool {
        self.tag(i) == SLOT_TAG_SPILL
    }

    /// Slot `i` as a value; its register is `NOT_INIT` unless the slot
    /// is a full spill.
    pub fn slot(&self, i: usize) -> StackSlot {
        StackSlot {
            bytes: self.bytes[i],
            spilled: self.spilled(i).copied().unwrap_or_else(RegState::not_init),
        }
    }

    /// The `(slot, register)` pairs of the full-spill slots, ascending.
    pub fn spills(&self) -> &[(usize, RegState)] {
        &self.spills
    }

    /// The fingerprint's two-bit slot tags.
    pub fn tags(&self) -> [u64; 2] {
        self.tags
    }

    /// The stack's share of the permissiveness score.
    pub fn permissiveness(&self) -> u64 {
        self.score
    }

    /// Whether both stacks share their bytes and spills, so each is
    /// the other.
    pub(crate) fn shares(&self, other: &Stack) -> bool {
        self.shares_bytes(other) && Rc::ptr_eq(&self.spills, &other.spills)
    }

    /// Whether both stacks share their byte kinds (and so also which
    /// slots are full spills).
    pub(crate) fn shares_bytes(&self, other: &Stack) -> bool {
        Rc::ptr_eq(&self.bytes, &other.bytes)
    }

    /// Replaces slot `i`. The register is kept only when all eight bytes
    /// are [`StackByte::Spill`]; any other slot holds none.
    pub fn set_slot(&mut self, i: usize, slot: StackSlot) {
        let was_spill = self.is_full_spill(i);
        let spill = slot.is_full_spill().then_some(slot.spilled);
        self.score -= self.slot_score(i);
        Rc::make_mut(&mut self.bytes)[i] = slot.bytes;
        if was_spill || spill.is_some() {
            let spills = Rc::make_mut(&mut self.spills);
            let at = spills.partition_point(|(s, _)| *s < i);
            match (was_spill, spill) {
                (true, Some(r)) => spills[at].1 = r,
                (true, None) => {
                    spills.remove(at);
                }
                (false, Some(r)) => spills.insert(at, (i, r)),
                (false, None) => unreachable!("guarded above"),
            }
        }
        self.retag(i);
        self.score += self.slot_score(i);
    }

    /// Marks byte `byte` of slot `i` written with arbitrary data. A full
    /// spill there first becomes eight [`StackByte::Misc`] bytes, its
    /// register lost.
    pub fn write_misc_byte(&mut self, i: usize, byte: usize) {
        let mut bytes = self.bytes[i];
        if self.is_full_spill(i) {
            bytes = [StackByte::Misc; 8];
        }
        bytes[byte] = StackByte::Misc;
        self.set_slot(
            i,
            StackSlot {
                bytes,
                spilled: RegState::not_init(),
            },
        );
    }

    /// Whether some spilled register satisfies `pred`.
    pub(crate) fn any_spill(&self, pred: impl Fn(&RegState) -> bool) -> bool {
        self.spills.iter().any(|(_, r)| pred(r))
    }

    /// Applies `f` to every spilled register that satisfies `pred`.
    pub(crate) fn update_spills(
        &mut self,
        pred: impl Fn(&RegState) -> bool,
        mut f: impl FnMut(&mut RegState),
    ) {
        for (_, r) in Rc::make_mut(&mut self.spills).iter_mut() {
            if pred(r) {
                self.score -= reg_permissiveness(r) >> 3;
                f(r);
                self.score += reg_permissiveness(r) >> 3;
            }
        }
    }

    /// Resets every slot whose spilled register satisfies `pred` to
    /// unwritten.
    pub(crate) fn clear_spills(&mut self, pred: impl Fn(&RegState) -> bool) {
        let hit: Vec<usize> = self
            .spills
            .iter()
            .filter(|(_, r)| pred(r))
            .map(|(s, _)| *s)
            .collect();
        for i in hit {
            self.set_slot(i, StackSlot::default());
        }
    }

    fn tag(&self, i: usize) -> u64 {
        (self.tags[i / 32] >> ((i % 32) * 2)) & 0b11
    }

    /// Recomputes slot `i`'s fingerprint tag from its bytes.
    fn retag(&mut self, i: usize) {
        let bytes = &self.bytes[i];
        let tag = if *bytes == [StackByte::Zero; 8] {
            SLOT_TAG_ZERO
        } else if *bytes == [StackByte::Spill; 8] {
            SLOT_TAG_SPILL
        } else {
            0
        };
        let shift = (i % 32) * 2;
        self.tags[i / 32] = (self.tags[i / 32] & !(0b11 << shift)) | (tag << shift);
    }

    /// Slot `i`'s share of the permissiveness score.
    fn slot_score(&self, i: usize) -> u64 {
        let bytes: u64 = self.bytes[i].iter().map(|b| b.permissiveness()).sum();
        bytes + self.spilled(i).map_or(0, |r| reg_permissiveness(r) >> 3)
    }
}

/// State of one call frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncState {
    /// Register states, indexed by register number (includes `Ax`).
    /// Inline, so copying a shared frame is a single allocation.
    pub regs: [RegState; FRAME_REGS],
    /// The frame's stack, copy-on-write on its own.
    pub stack: Stack,
    /// Instruction index to return to (caller's call insn + 1); 0 for the
    /// main frame.
    pub callsite: usize,
    /// Subprogram entry instruction of this frame.
    pub subprog_start: usize,
}

impl FuncState {
    /// A fresh frame with all registers uninitialized.
    pub fn new(subprog_start: usize, callsite: usize) -> FuncState {
        FuncState {
            regs: [RegState::not_init(); FRAME_REGS],
            stack: Stack::new(),
            callsite,
            subprog_start,
        }
    }

    /// The entry frame: `R1` = context, `R10` = frame pointer.
    pub fn entry() -> FuncState {
        let mut f = FuncState::new(0, 0);
        f.regs[Reg::R1.index()] = RegState::pointer(RegType::PtrToCtx);
        f.regs[Reg::R10.index()] = RegState::pointer(RegType::PtrToStack);
        f
    }

    /// Read access to a register state.
    pub fn reg(&self, r: Reg) -> &RegState {
        &self.regs[r.index()]
    }

    /// Mutable access to a register state.
    pub fn reg_mut(&mut self, r: Reg) -> &mut RegState {
        &mut self.regs[r.index()]
    }

    /// Converts a frame-pointer-relative offset to `(slot, byte)` indices.
    ///
    /// Valid offsets are `-512..=-1`.
    pub fn stack_index(off: i32) -> Option<(usize, usize)> {
        if !(-STACK_SIZE..0).contains(&off) {
            return None;
        }
        let from_bottom = (off + STACK_SIZE) as usize; // 0..512
        let slot = STACK_SLOTS - 1 - from_bottom / 8;
        let byte = from_bottom % 8;
        Some((slot, byte))
    }

    /// Marks caller-saved registers clobbered after a helper/kfunc call.
    pub fn clobber_caller_saved(&mut self) {
        for r in [Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5] {
            self.regs[r.index()] = RegState::not_init();
        }
    }
}

/// A tracked acquired reference (ringbuf record, task reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefState {
    /// Reference id (matches `RegState::ref_obj_id`).
    pub id: u32,
    /// Instruction index of the acquiring call (for diagnostics).
    pub insn_idx: usize,
}

/// Full verifier state for one explored path.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifierState {
    /// Call frames; the last one is current. Copy-on-write: cloning a
    /// state bumps refcounts, and [`VerifierState::cur_mut`] unshares
    /// only the frame being mutated.
    pub frames: Vec<Rc<FuncState>>,
    /// Acquired, not-yet-released references.
    pub acquired_refs: Vec<RefState>,
}

impl VerifierState {
    /// Entry state of the main program.
    pub fn entry() -> VerifierState {
        VerifierState {
            frames: vec![Rc::new(FuncState::entry())],
            acquired_refs: Vec::new(),
        }
    }

    /// The current (innermost) frame.
    pub fn cur(&self) -> &FuncState {
        self.frames.last().expect("at least one frame")
    }

    /// Mutable current frame, unshared first if another state still
    /// holds it (copy-on-write).
    pub fn cur_mut(&mut self) -> &mut FuncState {
        Rc::make_mut(self.frames.last_mut().expect("at least one frame"))
    }

    /// Current call depth (0 = main).
    pub fn depth(&self) -> usize {
        self.frames.len() - 1
    }

    /// Registers a newly acquired reference and returns its id.
    pub fn acquire_ref(&mut self, next_id: &mut u32, insn_idx: usize) -> u32 {
        *next_id += 1;
        let id = *next_id;
        self.acquired_refs.push(RefState { id, insn_idx });
        id
    }

    /// Releases a reference; false if it was not held.
    pub fn release_ref(&mut self, id: u32) -> bool {
        let before = self.acquired_refs.len();
        self.acquired_refs.retain(|r| r.id != id);
        let released = self.acquired_refs.len() != before;
        if released {
            // Invalidate every register (in all frames) that held it,
            // unsharing only the frames that actually change.
            let holds = |r: &RegState| r.ref_obj_id == id;
            for frame in &mut self.frames {
                let regs_hit = frame.regs.iter().any(holds);
                let stack_hit = frame.stack.any_spill(holds);
                if !regs_hit && !stack_hit {
                    continue;
                }
                let frame = Rc::make_mut(frame);
                for r in &mut frame.regs {
                    if holds(r) {
                        *r = RegState::not_init();
                    }
                }
                if stack_hit {
                    frame.stack.clear_spills(holds);
                }
            }
        }
        released
    }

    /// Marks every register in every frame that shares `id` — used when a
    /// null check resolves a nullable pointer.
    pub fn for_each_reg_with_id(&mut self, id: u32, mut f: impl FnMut(&mut RegState)) {
        if id == 0 {
            return;
        }
        let shares = |r: &RegState| r.id == id;
        for frame in &mut self.frames {
            let regs_hit = frame.regs.iter().any(shares);
            let stack_hit = frame.stack.any_spill(shares);
            if !regs_hit && !stack_hit {
                continue;
            }
            let frame = Rc::make_mut(frame);
            for r in &mut frame.regs {
                if shares(r) {
                    f(r);
                }
            }
            if stack_hit {
                frame.stack.update_spills(shares, &mut f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_state_regs() {
        let st = VerifierState::entry();
        assert_eq!(st.cur().reg(Reg::R1).typ, RegType::PtrToCtx);
        assert_eq!(st.cur().reg(Reg::R10).typ, RegType::PtrToStack);
        assert_eq!(st.cur().reg(Reg::R0).typ, RegType::NotInit);
        assert_eq!(st.depth(), 0);
    }

    #[test]
    fn stack_index_mapping() {
        // fp-8 is the highest slot, byte 0.
        assert_eq!(FuncState::stack_index(-8), Some((0, 0)));
        assert_eq!(FuncState::stack_index(-1), Some((0, 7)));
        assert_eq!(FuncState::stack_index(-9), Some((1, 7)));
        assert_eq!(FuncState::stack_index(-16), Some((1, 0)));
        assert_eq!(FuncState::stack_index(-512), Some((63, 0)));
        assert_eq!(FuncState::stack_index(0), None);
        assert_eq!(FuncState::stack_index(-513), None);
        assert_eq!(FuncState::stack_index(8), None);
    }

    #[test]
    fn ref_acquire_release() {
        let mut st = VerifierState::entry();
        let mut next = 0;
        let id = st.acquire_ref(&mut next, 3);
        assert_eq!(id, 1);
        st.cur_mut().reg_mut(Reg::R0).ref_obj_id = id;
        assert!(st.release_ref(id));
        assert_eq!(st.cur().reg(Reg::R0).typ, RegType::NotInit);
        assert!(!st.release_ref(id), "double release detected");
    }

    #[test]
    fn id_correlation_touches_spills() {
        let mut st = VerifierState::entry();
        let mut r = RegState::pointer(RegType::PtrToMapValue { map_id: 0 });
        r.maybe_null = true;
        r.id = 7;
        *st.cur_mut().reg_mut(Reg::R3) = r;
        st.cur_mut().stack.set_slot(
            0,
            StackSlot {
                bytes: [StackByte::Spill; 8],
                spilled: r,
            },
        );
        let mut count = 0;
        st.for_each_reg_with_id(7, |reg| {
            reg.maybe_null = false;
            count += 1;
        });
        assert_eq!(count, 2);
        assert!(!st.cur().reg(Reg::R3).maybe_null);
        assert!(!st.cur().stack.spilled(0).unwrap().maybe_null);
    }

    #[test]
    fn clone_shares_frames_until_written() {
        let mut a = VerifierState::entry();
        let b = a.clone();
        assert!(Rc::ptr_eq(&a.frames[0], &b.frames[0]), "clone is a share");
        a.cur_mut().reg_mut(Reg::R0).id = 9;
        assert!(
            !Rc::ptr_eq(&a.frames[0], &b.frames[0]),
            "write unshares the frame"
        );
        assert_eq!(b.cur().reg(Reg::R0).id, 0, "reader unaffected");
        // A register write leaves the stack itself shared…
        assert!(a.frames[0].stack.shares(&b.frames[0].stack));
        // …until the stack is written, and a write that spills nothing
        // leaves the spilled registers shared.
        a.cur_mut().stack.write_misc_byte(0, 0);
        assert!(!a.frames[0].stack.shares_bytes(&b.frames[0].stack));
        assert!(Rc::ptr_eq(
            &a.frames[0].stack.spills,
            &b.frames[0].stack.spills
        ));
        assert_eq!(b.cur().stack.bytes(0)[0], StackByte::Invalid);
    }

    #[test]
    fn clobber_caller_saved() {
        let mut f = FuncState::entry();
        *f.reg_mut(Reg::R6) = RegState::known_scalar(1);
        *f.reg_mut(Reg::R3) = RegState::known_scalar(2);
        f.clobber_caller_saved();
        assert_eq!(f.reg(Reg::R3).typ, RegType::NotInit);
        assert_eq!(f.reg(Reg::R6).const_value(), Some(1), "callee-saved kept");
        assert_eq!(f.reg(Reg::R10).typ, RegType::PtrToStack);
    }
}
