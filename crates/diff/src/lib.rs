//! `bvf-diff` — the abstract-vs-concrete differential state oracle.
//!
//! The verifier proves, per instruction, an abstract register file
//! (tnum + 64/32-bit signed/unsigned bounds + pointer type); the
//! interpreter observes the one concrete register file each executed
//! instruction actually sees. Soundness of the abstract interpretation
//! means *concretization membership*: every concrete value must lie
//! inside the abstract state proved for that program point — on at
//! least one explored path, since the verifier is path-sensitive and
//! the proved invariant at a point is the union of its per-path
//! states.
//!
//! A violation is **Indicator #3** (abstract-state unsoundness): the
//! verifier deduced bounds the program can escape at runtime. Unlike
//! Indicators #1/#2 it needs no memory corruption or kernel-routine
//! misuse to fire — a silently wrong `umax` is enough — so it catches
//! bounds-refinement defects the crash-driven oracles can never see.
//!
//! The join is conservative by construction: instructions whose
//! snapshot slot was truncated (path-union incomplete), prologue
//! instructions emitted by the sanitation rewrite, and trace steps
//! past the trace cap are all skipped rather than judged. The oracle
//! therefore never reports a false divergence due to its own limits.

#![warn(missing_docs)]

use bvf_runtime::ExecTrace;
use bvf_verifier::snapshot::SNAPSHOT_REGS;
use bvf_verifier::{InsnMeta, InsnStates, RegState, SnapshotStream};
use serde::{Deserialize, Serialize};

/// How many distinct abstract states to render into a divergence's
/// `abstract_state` string before eliding the rest.
const DESCRIBE_CAP: usize = 4;

/// The first point where a concrete execution escaped the verifier's
/// proved abstract state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Original-program instruction index (pre-instrumentation).
    pub pc: usize,
    /// Instruction index in the executed (possibly instrumented) image.
    pub exec_pc: usize,
    /// Diverging register (`0..=10` for `R0`..`R10`).
    pub reg: u8,
    /// The concrete value the register held before the instruction.
    pub concrete: u64,
    /// Human-readable union of the abstract states proved for the
    /// register at this point, none of which admit `concrete`.
    pub abstract_state: String,
}

/// Deterministic counters describing one differential check. All fields
/// are additive so per-worker stats merge by summation in any order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffStats {
    /// Trace steps inspected (main-frame executed instructions).
    pub steps_total: u64,
    /// Steps whose registers were actually checked for membership.
    pub steps_checked: u64,
    /// Steps skipped because the executed slot was emitted by the
    /// sanitation rewrite (no abstract state exists for it).
    pub steps_skipped_emitted: u64,
    /// Steps skipped because the snapshot slot was missing, empty, or
    /// truncated (incomplete path union must not be judged).
    pub steps_skipped_unrecorded: u64,
    /// Individual register membership checks performed.
    pub regs_checked: u64,
    /// Divergences found (the scan stops at the first, so 0 or 1).
    pub divergences: u64,
}

impl DiffStats {
    /// Folds another run's counters into `self` (order-independent).
    pub fn merge(&mut self, other: &DiffStats) {
        self.steps_total += other.steps_total;
        self.steps_checked += other.steps_checked;
        self.steps_skipped_emitted += other.steps_skipped_emitted;
        self.steps_skipped_unrecorded += other.steps_skipped_unrecorded;
        self.regs_checked += other.regs_checked;
        self.divergences += other.divergences;
    }
}

/// Maps each executed-image instruction index to its original-program
/// index, or `None` for slots the sanitation rewrite emitted.
///
/// The instrumentation pass keeps original instructions in order and
/// only *inserts* prologue slots (flagged `emitted_by_rewrite`), so the
/// original index of an executed slot is the count of non-emitted slots
/// strictly before it. With sanitation off the map is the identity.
pub fn orig_pc_map(meta: &[InsnMeta]) -> Vec<Option<usize>> {
    let mut map = Vec::with_capacity(meta.len());
    let mut orig = 0usize;
    for m in meta {
        if m.emitted_by_rewrite {
            map.push(None);
        } else {
            map.push(Some(orig));
            orig += 1;
        }
    }
    map
}

/// Whether one abstract register state admits the concrete value `v`.
///
/// Scalars are checked against the full abstract domain: tnum
/// membership, 64-bit unsigned and signed ranges, and the 32-bit
/// subregister views of all three. Pointer-typed and uninitialized
/// registers admit every value — their concrete content is a simulated
/// address (or garbage the program may never read) that the abstract
/// domain does not model as a number.
pub fn admits(reg: &RegState, v: u64) -> bool {
    if reg.typ != bvf_verifier::RegType::Scalar {
        return true;
    }
    if !reg.var_off.contains(v) {
        return false;
    }
    if v < reg.umin || v > reg.umax {
        return false;
    }
    let s = v as i64;
    if s < reg.smin || s > reg.smax {
        return false;
    }
    let v32 = v as u32;
    if !reg.var_off.subreg().contains(v32 as u64) {
        return false;
    }
    if v32 < reg.u32_min || v32 > reg.u32_max {
        return false;
    }
    let s32 = v32 as i32;
    if s32 < reg.s32_min || s32 > reg.s32_max {
        return false;
    }
    true
}

/// Renders the per-path abstract states of register `reg` at one
/// instruction, eliding duplicates and capping the output.
fn describe_states(states: &InsnStates, reg: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    for s in &states.states {
        let d = s.regs[reg].describe();
        if !parts.contains(&d) {
            parts.push(d);
        }
        if parts.len() > DESCRIBE_CAP {
            break;
        }
    }
    if parts.len() > DESCRIBE_CAP {
        parts.truncate(DESCRIBE_CAP);
        parts.push("…".to_string());
    }
    parts.join(" ∪ ")
}

/// Joins a verifier snapshot stream with a concrete execution trace and
/// checks concretization membership, returning the scan's counters and
/// the first divergence found, if any.
///
/// `meta` is the executed image's per-slot metadata ([`InsnMeta`]),
/// used to map executed indices back to original-program indices and to
/// skip rewrite-emitted slots. A register diverges only when *every*
/// recorded path state constrains it as a scalar excluding the concrete
/// value; any admitting state — including pointer-typed or
/// uninitialized ones — clears it.
pub fn check(
    snapshots: &SnapshotStream,
    trace: &ExecTrace,
    meta: &[InsnMeta],
) -> (DiffStats, Option<Divergence>) {
    let mut stats = DiffStats::default();
    if snapshots.is_empty() {
        return (stats, None);
    }
    let map = orig_pc_map(meta);
    for step in &trace.steps {
        stats.steps_total += 1;
        let orig = match map.get(step.pc) {
            Some(Some(o)) => *o,
            Some(None) => {
                stats.steps_skipped_emitted += 1;
                continue;
            }
            None => {
                stats.steps_skipped_unrecorded += 1;
                continue;
            }
        };
        let states = match snapshots.at(orig) {
            Some(s) if !s.truncated && !s.states.is_empty() => s,
            _ => {
                stats.steps_skipped_unrecorded += 1;
                continue;
            }
        };
        stats.steps_checked += 1;
        for reg in 0..SNAPSHOT_REGS {
            let v = step.regs[reg];
            stats.regs_checked += 1;
            if states.states.iter().any(|s| admits(&s.regs[reg], v)) {
                continue;
            }
            stats.divergences = 1;
            let abstract_state = describe_states(states, reg);
            return (
                stats,
                Some(Divergence {
                    pc: orig,
                    exec_pc: step.pc,
                    reg: reg as u8,
                    concrete: v,
                    abstract_state,
                }),
            );
        }
    }
    (stats, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_runtime::TraceStep;
    use bvf_verifier::snapshot::RegSnapshot;
    use bvf_verifier::{RegType, Tnum};

    fn scalar_range(umin: u64, umax: u64) -> RegState {
        let mut r = RegState::unknown_scalar();
        r.umin = umin;
        r.umax = umax;
        r.var_off = Tnum::range(umin, umax);
        r.normalize();
        r
    }

    fn snap_with(reg: usize, st: RegState) -> RegSnapshot {
        let mut regs = [RegState::not_init(); SNAPSHOT_REGS];
        regs[reg] = st;
        RegSnapshot { regs }
    }

    fn stream_with(pc: usize, n: usize, snaps: Vec<RegSnapshot>) -> SnapshotStream {
        let mut s = SnapshotStream::new(n);
        for snap in snaps {
            s.push_raw(pc, snap);
        }
        s
    }

    fn trace_of(steps: Vec<TraceStep>) -> ExecTrace {
        ExecTrace {
            steps,
            truncated: false,
        }
    }

    fn step(pc: usize, reg: usize, v: u64) -> TraceStep {
        let mut regs = [0u64; SNAPSHOT_REGS];
        regs[reg] = v;
        TraceStep { pc, regs }
    }

    #[test]
    fn orig_pc_map_skips_emitted_slots() {
        let mut meta = vec![InsnMeta::default(); 5];
        meta[0].emitted_by_rewrite = true;
        meta[3].emitted_by_rewrite = true;
        assert_eq!(
            orig_pc_map(&meta),
            vec![None, Some(0), Some(1), None, Some(2)]
        );
    }

    #[test]
    fn admits_scalar_bounds_and_tnum() {
        let r = scalar_range(16, 31);
        assert!(admits(&r, 16));
        assert!(admits(&r, 31));
        assert!(!admits(&r, 32));
        assert!(!admits(&r, 15));
        // Pointer and not-init registers admit anything.
        let mut p = RegState::unknown_scalar();
        p.typ = RegType::PtrToStack;
        assert!(admits(&p, u64::MAX));
        assert!(admits(&RegState::not_init(), 0xdead_beef));
    }

    #[test]
    fn admits_checks_32bit_views() {
        // A 64-bit-wide admit that the 32-bit subregister bounds reject.
        let mut r = RegState::unknown_scalar();
        r.u32_max = 10;
        assert!(!admits(&r, 0xffff));
        assert!(admits(&r, 7));
    }

    #[test]
    fn check_accepts_in_range_and_flags_escape() {
        let meta = vec![InsnMeta::default(); 2];
        let stream = stream_with(1, 2, vec![snap_with(3, scalar_range(0, 7))]);
        // In-range value: clean.
        let (stats, div) = check(&stream, &trace_of(vec![step(1, 3, 5)]), &meta);
        assert!(div.is_none());
        assert_eq!(stats.steps_checked, 1);
        assert_eq!(stats.divergences, 0);
        // Escaping value: divergence on (pc=1, r3).
        let (stats, div) = check(&stream, &trace_of(vec![step(1, 3, 9)]), &meta);
        let div = div.expect("escape must be flagged");
        assert_eq!((div.pc, div.reg, div.concrete), (1, 3, 9));
        assert_eq!(stats.divergences, 1);
    }

    #[test]
    fn check_unions_path_states() {
        // Two path states: 0..=3 and 8..=15. Value 9 escapes the first
        // but is admitted by the second — no divergence.
        let meta = vec![InsnMeta::default(); 1];
        let stream = stream_with(
            0,
            1,
            vec![
                snap_with(2, scalar_range(0, 3)),
                snap_with(2, scalar_range(8, 15)),
            ],
        );
        let (_, div) = check(&stream, &trace_of(vec![step(0, 2, 9)]), &meta);
        assert!(div.is_none());
        // 5 escapes both.
        let (_, div) = check(&stream, &trace_of(vec![step(0, 2, 5)]), &meta);
        assert!(div.is_some());
    }

    #[test]
    fn check_skips_emitted_truncated_and_unrecorded() {
        let mut meta = vec![InsnMeta::default(); 3];
        meta[0].emitted_by_rewrite = true;
        let mut stream = stream_with(1, 2, vec![snap_with(1, scalar_range(0, 0))]);
        stream.mark_truncated(1);
        let (stats, div) = check(
            &stream,
            &trace_of(vec![step(0, 1, 99), step(1, 1, 99), step(2, 1, 99)]),
            &meta,
        );
        assert!(div.is_none());
        assert_eq!(stats.steps_skipped_emitted, 1);
        // pc 1 truncated; pc 2 maps to orig 1 which has no states.
        assert_eq!(stats.steps_skipped_unrecorded, 2);
        assert_eq!(stats.steps_checked, 0);
    }

    #[test]
    fn stats_merge_is_additive() {
        let a = DiffStats {
            steps_total: 3,
            steps_checked: 2,
            steps_skipped_emitted: 1,
            steps_skipped_unrecorded: 0,
            regs_checked: 22,
            divergences: 1,
        };
        let mut b = DiffStats::default();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.steps_total, 6);
        assert_eq!(b.regs_checked, 44);
        assert_eq!(b.divergences, 2);
    }
}
