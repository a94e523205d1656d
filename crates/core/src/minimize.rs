//! Finding minimization (`bvf minimize`): delta-debugs a finding's
//! program down to the instructions its dedup signature depends on.
//!
//! The reduction never changes the program's slot count — removing
//! slots would shift every jump offset and turn the minimization into a
//! different-program search. Instead, instructions are *neutralized*:
//! each decodable unit (one slot, or two for `ld_imm64`) is replaced by
//! that many `ja +0` no-ops, which alter no register, touch no memory,
//! and keep all control-flow offsets valid. `ddmin` then finds a
//! minimal set of units that must stay original for the replay to
//! reproduce the exact [`report_signature`] the campaign deduplicated
//! the finding under.
//!
//! The search is serial and every replay reuses one [`ExecScratch`]:
//! ddmin stops each round at its first passing candidate, so the
//! replays it needs form one chain, and a reused scratch restores the
//! previous replay's kernel instead of booting a new one.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use bvf_isa::{asm, Program};
use bvf_runtime::ExecScratch;

use crate::fuzz::report_signature;
use crate::oracle::judge;
use crate::scenario::{run, RunConfig, Scenario};

/// What one minimization run produced.
#[derive(Debug)]
pub struct MinimizeOutcome {
    /// The minimized scenario: the original with every non-essential
    /// instruction unit neutralized to `ja +0`.
    pub scenario: Scenario,
    /// The preserved dedup signature (identical for the original and
    /// the minimized scenario under the same replay configuration).
    pub signature: String,
    /// Decodable instruction units in the original program.
    pub units_total: usize,
    /// Units the minimized program keeps in original form.
    pub units_kept: usize,
    /// Scenario replays performed (signature-cache misses plus the
    /// initial full-scenario replay).
    pub replays: usize,
    /// Candidate evaluations answered from the signature cache without
    /// a replay.
    pub cache_hits: usize,
    /// Candidate evaluations that had to replay the scenario.
    pub cache_misses: usize,
}

/// Hash of a program's instruction stream — the signature-cache key.
/// Two candidates that neutralize different unit sets but produce the
/// same instruction bytes replay identically, so one replay serves both.
fn prog_hash(prog: &Program) -> u64 {
    // FNV-1a over the five fields of every slot.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for insn in prog.insns() {
        eat(u64::from(insn.code));
        eat(u64::from(insn.dst));
        eat(u64::from(insn.src));
        eat(insn.off as u16 as u64);
        eat(insn.imm as u32 as u64);
    }
    h
}

/// Decodable instruction units of `prog` as `(start_slot, slot_count)`
/// pairs (`ld_imm64` occupies two slots, everything else one).
fn units(prog: &Program) -> Vec<(usize, usize)> {
    let insns = prog.insns();
    let mut out = Vec::new();
    let mut pc = 0usize;
    while pc < insns.len() {
        let width = if insns[pc].is_ld_imm64() && pc + 1 < insns.len() {
            2
        } else {
            1
        };
        out.push((pc, width));
        pc += width;
    }
    out
}

/// The scenario with every unit *not* in `keep` replaced by `ja +0`
/// no-ops, slot for slot.
fn neutralized(base: &Scenario, keep: &[(usize, usize)]) -> Scenario {
    let kept: HashSet<usize> = keep.iter().map(|&(start, _)| start).collect();
    let mut s = base.clone();
    for (start, width) in units(&base.prog) {
        if kept.contains(&start) {
            continue;
        }
        for slot in start..start + width {
            s.prog.insns_mut()[slot] = asm::ja(0);
        }
    }
    s
}

/// Minimizes a finding's scenario while preserving its dedup signature.
///
/// Every candidate replays under exactly `cfg`, which must match how the
/// finding was produced: an Indicator #3 finding only reproduces with
/// the differential oracle armed, and a sanitizer divergence only under
/// [`Sanitation::Dual`](crate::scenario::Sanitation::Dual), so its
/// `sandiv:*` signature components survive the reduction. Fails if the
/// scenario produces no finding at all under `cfg`.
///
/// Candidate replays are memoized in a program-hash → signature cache.
pub fn minimize(scenario: &Scenario, cfg: &RunConfig) -> Result<MinimizeOutcome, String> {
    let mut scratch = ExecScratch::new();
    let mut signature_of = |s: &Scenario| -> Option<String> {
        judge(s, &run(s, cfg, &mut scratch)).map(|f| report_signature(f.indicator, &f.reports))
    };
    let Some(target) = signature_of(scenario) else {
        return Err(
            "scenario produces no finding under this configuration (check --bugs, \
             --version, --no-sanitize, --diff-oracle, and --san-diff match the \
             original campaign)"
                .to_string(),
        );
    };

    // prog-hash → signature memo: ddmin re-derives overlapping
    // complements when the granularity changes, and identical
    // instruction streams replay identically.
    let mut cache: HashMap<u64, Option<String>> = HashMap::new();
    let (mut cache_hits, mut cache_misses) = (0usize, 0usize);
    let all = units(&scenario.prog);
    let kept = ddmin(&all, |keep| {
        let candidate = neutralized(scenario, keep);
        let sig = match cache.entry(prog_hash(&candidate.prog)) {
            Entry::Occupied(e) => {
                cache_hits += 1;
                e.into_mut()
            }
            Entry::Vacant(e) => {
                cache_misses += 1;
                e.insert(signature_of(&candidate))
            }
        };
        sig.as_deref() == Some(target.as_str())
    });
    let minimized = neutralized(scenario, &kept);
    Ok(MinimizeOutcome {
        scenario: minimized,
        signature: target,
        units_total: all.len(),
        units_kept: kept.len(),
        replays: 1 + cache_misses,
        cache_hits,
        cache_misses,
    })
}

/// Classic `ddmin` delta debugging: returns a (1-)minimal subsequence
/// of `items` for which `test` still returns `true`.
///
/// `test` must hold for the full input; the result is locally minimal —
/// removing any single remaining element makes `test` fail. The search
/// is deterministic: chunks are tried left to right at doubling
/// granularity, exactly as in Zeller & Hildebrandt's formulation.
fn ddmin<T: Clone>(items: &[T], mut test: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut current: Vec<T> = items.to_vec();
    if current.len() <= 1 {
        return current;
    }
    let mut n = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;

        // Try each complement (input minus one chunk).
        let mut start = 0usize;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate: Vec<T> = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && test(&candidate) {
                current = candidate;
                n = (n - 1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }

        if !reduced {
            if n >= current.len() {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_isa::{AluOp, JmpOp, Reg, Size};
    use bvf_kernel_sim::btf::ids as btf_ids;
    use bvf_kernel_sim::helpers::proto::ids as helper;
    use bvf_kernel_sim::progtype::ProgType;
    use bvf_kernel_sim::BugSet;

    /// The bug #1 reproducer with junk instructions interleaved; the
    /// minimizer must strip the junk and keep the signature.
    #[test]
    fn minimize_strips_junk_and_preserves_signature() {
        let mut insns = Vec::new();
        insns.push(asm::mov64_imm(Reg::R7, 41)); // junk
        insns.extend(asm::ld_btf_id(Reg::R6, btf_ids::DEBUG_OBJ));
        insns.extend(asm::ld_map_fd(Reg::R1, 0));
        insns.push(asm::mov64_imm(Reg::R8, 7)); // junk
        insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
        insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
        insns.push(asm::st_mem(Size::W, Reg::R2, 0, 99));
        insns.push(asm::call_helper(helper::MAP_LOOKUP_ELEM as i32));
        insns.push(asm::alu64_imm(AluOp::Add, Reg::R7, 1)); // junk
        insns.push(asm::jmp_reg(JmpOp::Jne, Reg::R0, Reg::R6, 1));
        insns.push(asm::ldx_mem(Size::Dw, Reg::R3, Reg::R0, 0));
        insns.push(asm::mov64_imm(Reg::R0, 0));
        insns.push(asm::exit());
        let scenario = Scenario::test_run(Program::from_insns(insns), ProgType::Kprobe);
        let cfg = RunConfig::new(BugSet::all());

        let out = minimize(&scenario, &cfg).expect("bug1 scenario must minimize");
        assert!(
            out.units_kept < out.units_total,
            "nothing was removed ({}/{} kept)",
            out.units_kept,
            out.units_total
        );
        // Slot count is preserved (units are neutralized, not removed).
        assert_eq!(out.scenario.prog.insn_count(), scenario.prog.insn_count());
        // The junk instructions are gone from the kept set.
        let min_insns = out.scenario.prog.insns();
        let ja = asm::ja(0);
        assert_eq!(min_insns[0], ja, "leading junk mov must be neutralized");

        // Replaying the minimized scenario reproduces the signature.
        let replay = run(&out.scenario, &cfg, &mut ExecScratch::new());
        let f = judge(&out.scenario, &replay).expect("minimized finding must reproduce");
        assert_eq!(report_signature(f.indicator, &f.reports), out.signature);
    }

    /// The committed Indicator #3 fixture reduces exactly as it always
    /// has: the same kept units, replays and cache answers, so a change
    /// to the search or to the cache shows here.
    #[test]
    fn fixture_reduction_and_cache_counts_are_pinned() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/indicator3_or_bounds.json"
        );
        let data = std::fs::read(path).expect("committed fixture readable");
        let scenario: Scenario = serde_json::from_slice(&data).expect("fixture parses");
        let cfg = RunConfig {
            diff_oracle: true,
            ..RunConfig::new(BugSet::all())
        };

        let out = minimize(&scenario, &cfg).expect("fixture must minimize");
        assert_eq!(out.signature, "Three:statediv:r3");
        assert_eq!((out.units_kept, out.units_total), (14, 15));
        assert_eq!(out.replays, 35);
        assert_eq!((out.cache_hits, out.cache_misses), (1, 34));

        // Replaying the minimized scenario under the same configuration
        // reproduces the signature (the property CI pins end to end).
        let replay = run(&out.scenario, &cfg, &mut ExecScratch::new());
        let f = judge(&out.scenario, &replay).expect("minimized finding reproduces");
        assert_eq!(report_signature(f.indicator, &f.reports), out.signature);
    }

    #[test]
    fn minimize_rejects_clean_scenarios() {
        let s = Scenario::test_run(
            Program::from_insns(vec![asm::mov64_imm(Reg::R0, 0), asm::exit()]),
            ProgType::SocketFilter,
        );
        assert!(minimize(&s, &RunConfig::new(BugSet::none())).is_err());
    }

    #[test]
    fn ddmin_finds_minimal_pair() {
        let items: Vec<u32> = (0..32).collect();
        let min = ddmin(&items, |s| s.contains(&3) && s.contains(&27));
        assert_eq!(min, vec![3, 27]);
    }

    #[test]
    fn ddmin_single_culprit_and_stability() {
        let items: Vec<u32> = (0..17).collect();
        let min = ddmin(&items, |s| s.contains(&11));
        assert_eq!(min, vec![11]);
        // Full-set-dependent predicate: nothing removable.
        let items: Vec<u32> = (0..4).collect();
        let min = ddmin(&items, |s| s.len() == 4);
        assert_eq!(min, items);
    }
}
