//! Rewrite passes (`resolve_pseudo_ldimm64` / `bpf_misc_fixup`).
//!
//! After verification succeeds, pseudo instructions are rewritten to their
//! runtime form: map fds become `struct bpf_map` addresses, direct value
//! pseudo loads become value-area addresses, and BTF-id loads become
//! object addresses (which may legitimately be zero — the untracked-null
//! property bug #1 exploits). BVF's sanitation instrumentation runs *at
//! the end of this phase* (in the `bvf` crate) over the rewritten program
//! plus the per-instruction metadata collected here.

use bvf_isa::opcode::pseudo;
use bvf_kernel_sim::map::MapStorage;

use crate::cov::Cat;
use crate::env::Verifier;
use crate::errors::{RejectReason, VerifierError};

impl<'a> Verifier<'a> {
    /// Applies the rewrite passes to the working program copy.
    pub(crate) fn do_fixups(&mut self) -> Result<(), VerifierError> {
        // Materialize the path-merged alu_limit assertions.
        for (pc, merged) in std::mem::take(&mut self.alu_limit_state) {
            self.insn_meta[pc].alu_limit = merged;
        }
        let n = self.prog.insn_count();
        let mut pc = 0;
        while pc < n {
            if self.decoded[pc].is_none() {
                pc += 1;
                continue;
            }
            let insn = self.prog.insns()[pc];
            let raw = insn;
            if raw.is_ld_imm64() {
                let lo = self.prog.insns()[pc].imm as u32 as u64;
                let hi = self.prog.insns()[pc + 1].imm as u32 as u64;
                let imm64 = lo | (hi << 32);
                let new_imm64 = match raw.src {
                    pseudo::NONE => None,
                    // Dead code can carry fds `do_check` never saw; the
                    // kernel resolves pseudo loads before verification and
                    // rejects bad fds regardless of reachability — match
                    // that by rejecting here.
                    pseudo::MAP_FD => {
                        self.cov.hit(Cat::Fixup, 1, 0);
                        let map = self.kernel.maps.get(imm64 as u32).ok_or_else(|| {
                            VerifierError::invalid(
                                RejectReason::BadMapFd,
                                pc,
                                format!("fd {} is not a map", imm64 as u32),
                            )
                        })?;
                        Some(map.struct_addr)
                    }
                    pseudo::MAP_VALUE => {
                        self.cov.hit(Cat::Fixup, 2, 0);
                        let map = self.kernel.maps.get(imm64 as u32).ok_or_else(|| {
                            VerifierError::invalid(
                                RejectReason::BadMapFd,
                                pc,
                                format!("fd {} is not a map", imm64 as u32),
                            )
                        })?;
                        let off = imm64 >> 32;
                        match &map.storage {
                            MapStorage::Array { values_addr } => Some(values_addr + off),
                            _ => {
                                return Err(VerifierError::invalid(
                                    RejectReason::BadDirectValue,
                                    pc,
                                    "direct value access on non-array map",
                                ))
                            }
                        }
                    }
                    pseudo::BTF_ID => {
                        self.cov.hit(Cat::Fixup, 3, 0);
                        // May be zero: the object is null on this boot.
                        Some(self.kernel.btf_object(imm64 as u32))
                    }
                    _ => None,
                };
                if let Some(v) = new_imm64 {
                    let insns = self.prog.insns_mut();
                    insns[pc].src = pseudo::NONE;
                    insns[pc].imm = v as u32 as i32;
                    insns[pc + 1].imm = (v >> 32) as u32 as i32;
                }
                pc += 2;
                continue;
            }
            pc += 1;
        }
        self.cov.hit(Cat::Fixup, 0, 0);
        Ok(())
    }
}
