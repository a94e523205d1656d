//! Selftest-style end-to-end verifier tests: hand-written programs with
//! expected verdicts, in the spirit of `tools/testing/selftests/bpf`.

use bvf_isa::{asm, AluOp, AtomicOp, JmpOp, Program, Reg, Size};
use bvf_kernel_sim::btf::ids as btf_ids;
use bvf_kernel_sim::helpers::proto::ids as helper;
use bvf_kernel_sim::map::{MapDef, MapType};
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::{BugId, BugSet, Kernel};
use bvf_verifier::{verify, KernelVersion, VerifierOpts};

fn kernel_with_maps(bugs: BugSet) -> Kernel {
    let mut k = Kernel::new(bugs);
    let mut maps = std::mem::take(&mut k.maps);
    maps.create(
        &mut k.mm,
        MapDef {
            map_type: MapType::Array,
            key_size: 4,
            value_size: 16,
            max_entries: 4,
        },
    )
    .unwrap();
    maps.create(
        &mut k.mm,
        MapDef {
            map_type: MapType::Hash,
            key_size: 8,
            value_size: 24,
            max_entries: 8,
        },
    )
    .unwrap();
    maps.create(
        &mut k.mm,
        MapDef {
            map_type: MapType::RingBuf,
            key_size: 0,
            value_size: 0,
            max_entries: 4096,
        },
    )
    .unwrap();
    k.maps = maps;
    k
}

fn kernel() -> Kernel {
    kernel_with_maps(BugSet::none())
}

fn accepts(k: &Kernel, prog: &Program, pt: ProgType) {
    let out = verify(k, prog, pt, &VerifierOpts::default());
    if let Err(e) = &out.result {
        panic!("expected accept, got: {e}\nprogram:\n{}", prog.dump());
    }
}

fn rejects(k: &Kernel, prog: &Program, pt: ProgType, needle: &str) {
    let out = verify(k, prog, pt, &VerifierOpts::default());
    match &out.result {
        Ok(_) => panic!(
            "expected rejection containing {needle:?}, got accept\nprogram:\n{}",
            prog.dump()
        ),
        Err(e) => assert!(
            e.msg.contains(needle),
            "expected {needle:?} in {:?}\nprogram:\n{}",
            e.msg,
            prog.dump()
        ),
    }
}

// ---- basics ----------------------------------------------------------------

#[test]
fn minimal_program_accepted() {
    let p = Program::from_insns(vec![asm::mov64_imm(Reg::R0, 0), asm::exit()]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
}

#[test]
fn exit_without_r0_rejected() {
    let p = Program::from_insns(vec![asm::exit()]);
    rejects(&kernel(), &p, ProgType::SocketFilter, "R0 !read_ok");
}

#[test]
fn uninitialized_register_read_rejected() {
    let p = Program::from_insns(vec![asm::mov64_reg(Reg::R0, Reg::R5), asm::exit()]);
    rejects(&kernel(), &p, ProgType::SocketFilter, "!read_ok");
}

#[test]
fn alu_on_uninitialized_rejected() {
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R0, 0),
        asm::alu64_reg(AluOp::Add, Reg::R0, Reg::R7),
        asm::exit(),
    ]);
    rejects(&kernel(), &p, ProgType::SocketFilter, "!read_ok");
}

#[test]
fn exit_with_pointer_r0_rejected() {
    let p = Program::from_insns(vec![asm::mov64_reg(Reg::R0, Reg::R10), asm::exit()]);
    rejects(&kernel(), &p, ProgType::SocketFilter, "At program exit");
}

#[test]
fn division_by_zero_imm_rejected() {
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R0, 10),
        asm::alu64_imm(AluOp::Div, Reg::R0, 0),
        asm::exit(),
    ]);
    rejects(&kernel(), &p, ProgType::SocketFilter, "division by zero");
}

#[test]
fn division_by_unknown_reg_accepted() {
    // Runtime semantics define x/0 = 0, so an unknown divisor is fine.
    let p = Program::from_insns(vec![
        asm::ldx_mem(Size::W, Reg::R0, Reg::R1, 0),
        asm::mov64_imm(Reg::R2, 10),
        asm::alu64_reg(AluOp::Div, Reg::R2, Reg::R0),
        asm::mov64_reg(Reg::R0, Reg::R2),
        asm::exit(),
    ]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
}

#[test]
fn invalid_shift_rejected() {
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R0, 1),
        asm::alu64_imm(AluOp::Lsh, Reg::R0, 64),
        asm::exit(),
    ]);
    rejects(&kernel(), &p, ProgType::SocketFilter, "invalid shift");
    let p32 = Program::from_insns(vec![
        asm::mov64_imm(Reg::R0, 1),
        asm::alu32_imm(AluOp::Lsh, Reg::R0, 32),
        asm::exit(),
    ]);
    rejects(&kernel(), &p32, ProgType::SocketFilter, "invalid shift");
}

// ---- stack -----------------------------------------------------------------

#[test]
fn stack_write_read_roundtrip_accepted() {
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R1, 42),
        asm::stx_mem(Size::Dw, Reg::R10, Reg::R1, -8),
        asm::ldx_mem(Size::Dw, Reg::R0, Reg::R10, -8),
        asm::exit(),
    ]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
}

#[test]
fn uninitialized_stack_read_rejected() {
    let p = Program::from_insns(vec![
        asm::ldx_mem(Size::Dw, Reg::R0, Reg::R10, -8),
        asm::exit(),
    ]);
    rejects(&kernel(), &p, ProgType::SocketFilter, "uninitialized");
}

#[test]
fn stack_out_of_bounds_rejected() {
    let p = Program::from_insns(vec![
        asm::st_mem(Size::Dw, Reg::R10, -520, 0),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    rejects(&kernel(), &p, ProgType::SocketFilter, "invalid stack");
    let p2 = Program::from_insns(vec![
        asm::st_mem(Size::Dw, Reg::R10, 0, 0),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    rejects(&kernel(), &p2, ProgType::SocketFilter, "invalid stack");
    // A store straddling the top of the stack.
    let p3 = Program::from_insns(vec![
        asm::st_mem(Size::Dw, Reg::R10, -4, 0),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    rejects(&kernel(), &p3, ProgType::SocketFilter, "invalid stack");
}

#[test]
fn pointer_spill_fill_preserves_type() {
    // Spill the ctx pointer, fill it back, and use it: must still be ctx.
    let p = Program::from_insns(vec![
        asm::stx_mem(Size::Dw, Reg::R10, Reg::R1, -8),
        asm::ldx_mem(Size::Dw, Reg::R2, Reg::R10, -8),
        asm::ldx_mem(Size::W, Reg::R0, Reg::R2, 0),
        asm::exit(),
    ]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
}

#[test]
fn partial_overwrite_corrupts_spill() {
    // Overwriting one byte of a spilled pointer turns the slot to MISC;
    // filling and dereferencing must fail.
    let p = Program::from_insns(vec![
        asm::stx_mem(Size::Dw, Reg::R10, Reg::R1, -8),
        asm::st_mem(Size::B, Reg::R10, -5, 7),
        asm::ldx_mem(Size::Dw, Reg::R2, Reg::R10, -8),
        asm::ldx_mem(Size::W, Reg::R0, Reg::R2, 0),
        asm::exit(),
    ]);
    rejects(&kernel(), &p, ProgType::SocketFilter, "invalid mem access");
}

#[test]
fn variable_stack_access_rejected() {
    let p = Program::from_insns(vec![
        asm::ldx_mem(Size::W, Reg::R2, Reg::R1, 0),
        asm::mov64_reg(Reg::R3, Reg::R10),
        asm::alu64_reg(AluOp::Sub, Reg::R3, Reg::R2),
        asm::st_mem(Size::B, Reg::R3, 0, 1),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    rejects(
        &kernel(),
        &p,
        ProgType::SocketFilter,
        "variable stack access",
    );
}

// ---- context ---------------------------------------------------------------

#[test]
fn ctx_read_accepted_and_bad_offset_rejected() {
    let p = Program::from_insns(vec![
        asm::ldx_mem(Size::W, Reg::R0, Reg::R1, 0),
        asm::exit(),
    ]);
    accepts(&kernel(), &p, ProgType::SocketFilter);

    let bad = Program::from_insns(vec![
        asm::ldx_mem(Size::W, Reg::R0, Reg::R1, 108),
        asm::exit(),
    ]);
    rejects(
        &kernel(),
        &bad,
        ProgType::SocketFilter,
        "invalid bpf_context access",
    );
}

#[test]
fn ctx_write_rules() {
    // mark (off 8) is writable.
    let p = Program::from_insns(vec![
        asm::st_mem(Size::W, Reg::R1, 8, 1),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
    // len (off 0) is read-only.
    let bad = Program::from_insns(vec![
        asm::st_mem(Size::W, Reg::R1, 0, 1),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    rejects(
        &kernel(),
        &bad,
        ProgType::SocketFilter,
        "invalid bpf_context access",
    );
}

// ---- maps ------------------------------------------------------------------

fn lookup_prog(extra: Vec<bvf_isa::Insn>) -> Program {
    // Canonical lookup: key on stack, call, null check, then `extra`.
    let mut insns = vec![asm::mov64_imm(Reg::R0, 0)];
    insns.extend(asm::ld_map_fd(Reg::R1, 0));
    insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
    insns.push(asm::st_mem(Size::W, Reg::R2, 0, 1));
    insns.push(asm::call_helper(helper::MAP_LOOKUP_ELEM as i32));
    insns.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, extra.len() as i16 + 1));
    insns.extend(extra);
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    Program::from_insns(insns)
}

#[test]
fn map_lookup_and_deref_accepted() {
    let p = lookup_prog(vec![asm::ldx_mem(Size::Dw, Reg::R3, Reg::R0, 0)]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
}

#[test]
fn map_value_deref_without_null_check_rejected() {
    let mut insns = vec![asm::mov64_imm(Reg::R0, 0)];
    insns.extend(asm::ld_map_fd(Reg::R1, 0));
    insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
    insns.push(asm::st_mem(Size::W, Reg::R2, 0, 1));
    insns.push(asm::call_helper(helper::MAP_LOOKUP_ELEM as i32));
    insns.push(asm::ldx_mem(Size::Dw, Reg::R3, Reg::R0, 0));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    rejects(
        &kernel(),
        &Program::from_insns(insns),
        ProgType::SocketFilter,
        "map_value_or_null",
    );
}

#[test]
fn map_value_oob_rejected() {
    // value_size is 16; offset 16 is one past the end for an 8-byte read.
    let p = lookup_prog(vec![asm::ldx_mem(Size::Dw, Reg::R3, Reg::R0, 16)]);
    rejects(
        &kernel(),
        &p,
        ProgType::SocketFilter,
        "invalid access to map_value",
    );
    let p = lookup_prog(vec![asm::ldx_mem(Size::Dw, Reg::R3, Reg::R0, 8)]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
    let p = lookup_prog(vec![asm::ldx_mem(Size::B, Reg::R3, Reg::R0, -1)]);
    rejects(
        &kernel(),
        &p,
        ProgType::SocketFilter,
        "invalid access to map_value",
    );
}

#[test]
fn map_value_bounded_variable_offset_accepted() {
    // Load an unknown u32, bound it to [0, 8], use as a value offset.
    let p = lookup_prog(vec![
        asm::ldx_mem(Size::W, Reg::R4, Reg::R0, 0),
        asm::jmp_imm(JmpOp::Jgt, Reg::R4, 8, 2),
        asm::alu64_reg(AluOp::Add, Reg::R0, Reg::R4),
        asm::ldx_mem(Size::B, Reg::R5, Reg::R0, 0),
    ]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
}

#[test]
fn map_value_unbounded_variable_offset_rejected() {
    let p = lookup_prog(vec![
        asm::ldx_mem(Size::W, Reg::R4, Reg::R0, 0),
        asm::alu64_reg(AluOp::Add, Reg::R0, Reg::R4),
        asm::ldx_mem(Size::B, Reg::R5, Reg::R0, 0),
    ]);
    rejects(
        &kernel(),
        &p,
        ProgType::SocketFilter,
        "invalid access to map_value",
    );
}

#[test]
fn map_ptr_deref_rejected() {
    let mut insns = asm::ld_map_fd(Reg::R1, 0).to_vec();
    insns.push(asm::ldx_mem(Size::Dw, Reg::R0, Reg::R1, 0));
    insns.push(asm::exit());
    rejects(
        &kernel(),
        &Program::from_insns(insns),
        ProgType::SocketFilter,
        "invalid mem access 'map_ptr'",
    );
}

#[test]
fn bad_map_fd_rejected() {
    let mut insns = asm::ld_map_fd(Reg::R1, 99).to_vec();
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    rejects(
        &kernel(),
        &Program::from_insns(insns),
        ProgType::SocketFilter,
        "is not a map",
    );
}

#[test]
fn helper_wrong_arg_type_rejected() {
    // R1 must be a map pointer for lookup; pass the ctx instead.
    let p = Program::from_insns(vec![
        asm::mov64_reg(Reg::R2, Reg::R10),
        asm::alu64_imm(AluOp::Add, Reg::R2, -8),
        asm::st_mem(Size::W, Reg::R2, 0, 1),
        asm::call_helper(helper::MAP_LOOKUP_ELEM as i32),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    rejects(&kernel(), &p, ProgType::SocketFilter, "expected=map_ptr");
}

#[test]
fn helper_uninitialized_key_rejected() {
    let mut insns = asm::ld_map_fd(Reg::R1, 0).to_vec();
    insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
    insns.push(asm::call_helper(helper::MAP_LOOKUP_ELEM as i32));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    rejects(
        &kernel(),
        &Program::from_insns(insns),
        ProgType::SocketFilter,
        "uninitialized",
    );
}

#[test]
fn unknown_helper_rejected() {
    let p = Program::from_insns(vec![asm::call_helper(9999), asm::exit()]);
    rejects(&kernel(), &p, ProgType::SocketFilter, "invalid func");
}

// ---- jumps and bounds -------------------------------------------------------

#[test]
fn dead_branch_not_explored() {
    // `if 1 == 1` always jumps; the fall-through would be invalid but is
    // dead code... which the kernel still verifies reachability for; here
    // the fall-through contains an uninitialized read but is unreachable
    // only via branch analysis.
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R0, 1),
        asm::jmp_imm(JmpOp::Jeq, Reg::R0, 1, 1),
        asm::mov64_reg(Reg::R0, Reg::R9), // dead
        asm::exit(),
    ]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
}

#[test]
fn bounded_loop_accepted() {
    // for (r6 = 0; r6 < 5; r6++) {}
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R6, 0),
        asm::alu64_imm(AluOp::Add, Reg::R6, 1),
        asm::jmp_imm(JmpOp::Jlt, Reg::R6, 5, -2),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
}

#[test]
fn unbounded_loop_rejected() {
    let p = Program::from_insns(vec![asm::mov64_imm(Reg::R0, 0), asm::ja(-2), asm::exit()]);
    rejects(
        &kernel(),
        &p,
        ProgType::SocketFilter,
        "infinite loop detected",
    );
}

#[test]
fn infinite_loop_behind_a_long_sibling_path_is_detected() {
    // The branch at insn 3 forks right after the first visit of the
    // loop head (insn 2) and waits while the fall-through makes 300
    // visits of its own loop, more than the loop detector's window.
    // Popped, it jumps back to insn 2 in a state the first visit
    // subsumes, so the loop detector must still hold that visit.
    let p = Program::from_insns(vec![
        asm::ldx_mem(Size::W, Reg::R6, Reg::R1, 0),
        asm::mov64_imm(Reg::R2, 0),
        asm::mov64_imm(Reg::R0, 0),
        asm::jmp_imm(JmpOp::Jeq, Reg::R6, 0, 3),
        asm::alu64_imm(AluOp::Add, Reg::R2, 1),
        asm::jmp_imm(JmpOp::Jlt, Reg::R2, 300, -2),
        asm::exit(),
        asm::ja(-6),
    ]);
    rejects(
        &kernel(),
        &p,
        ProgType::SocketFilter,
        "infinite loop detected at insn 2",
    );
}

#[test]
fn jset_and_range_refinement() {
    // Bound r2 via unsigned comparison then use as map-value offset.
    let p = lookup_prog(vec![
        asm::ldx_mem(Size::W, Reg::R4, Reg::R0, 0),
        asm::alu64_imm(AluOp::And, Reg::R4, 7),
        asm::alu64_reg(AluOp::Add, Reg::R0, Reg::R4),
        asm::ldx_mem(Size::B, Reg::R5, Reg::R0, 0),
    ]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
}

// ---- packets ----------------------------------------------------------------

#[test]
fn packet_access_requires_range_check() {
    // Load data/data_end, compare, then read one byte.
    let p = Program::from_insns(vec![
        asm::ldx_mem(Size::Dw, Reg::R2, Reg::R1, 0), // data (xdp)
        asm::ldx_mem(Size::Dw, Reg::R3, Reg::R1, 8), // data_end
        asm::mov64_reg(Reg::R4, Reg::R2),
        asm::alu64_imm(AluOp::Add, Reg::R4, 8),
        asm::jmp_reg(JmpOp::Jgt, Reg::R4, Reg::R3, 2),
        asm::ldx_mem(Size::Dw, Reg::R0, Reg::R2, 0),
        asm::mov64_imm(Reg::R0, 0),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    accepts(&kernel(), &p, ProgType::Xdp);

    // Without the check: rejected.
    let bad = Program::from_insns(vec![
        asm::ldx_mem(Size::Dw, Reg::R2, Reg::R1, 0),
        asm::ldx_mem(Size::Dw, Reg::R0, Reg::R2, 0),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    rejects(&kernel(), &bad, ProgType::Xdp, "invalid access to packet");
}

#[test]
fn packet_access_beyond_checked_range_rejected() {
    let p = Program::from_insns(vec![
        asm::ldx_mem(Size::Dw, Reg::R2, Reg::R1, 0),
        asm::ldx_mem(Size::Dw, Reg::R3, Reg::R1, 8),
        asm::mov64_reg(Reg::R4, Reg::R2),
        asm::alu64_imm(AluOp::Add, Reg::R4, 8),
        asm::jmp_reg(JmpOp::Jgt, Reg::R4, Reg::R3, 1),
        asm::ldx_mem(Size::Dw, Reg::R0, Reg::R2, 4), // bytes 4..12 > 8
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    rejects(&kernel(), &p, ProgType::Xdp, "invalid access to packet");
}

// ---- atomics ----------------------------------------------------------------

#[test]
fn atomic_on_stack_accepted() {
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R1, 1),
        asm::stx_mem(Size::Dw, Reg::R10, Reg::R1, -8),
        asm::atomic(
            AtomicOp::Add { fetch: false },
            Size::Dw,
            Reg::R10,
            Reg::R1,
            -8,
        ),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
}

#[test]
fn atomic_on_ctx_rejected() {
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R2, 1),
        asm::atomic(AtomicOp::Add { fetch: false }, Size::W, Reg::R1, Reg::R2, 8),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    rejects(
        &kernel(),
        &p,
        ProgType::SocketFilter,
        "atomic access to ctx",
    );
}

// ---- pointer arithmetic -------------------------------------------------------

#[test]
fn pointer_mul_rejected() {
    let p = Program::from_insns(vec![
        asm::mov64_reg(Reg::R2, Reg::R10),
        asm::alu64_imm(AluOp::Mul, Reg::R2, 2),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    rejects(&kernel(), &p, ProgType::SocketFilter, "prohibited");
}

#[test]
fn ptr_minus_ptr_gives_scalar() {
    let p = Program::from_insns(vec![
        asm::mov64_reg(Reg::R2, Reg::R10),
        asm::mov64_reg(Reg::R3, Reg::R10),
        asm::alu64_imm(AluOp::Add, Reg::R3, -16),
        asm::alu64_reg(AluOp::Sub, Reg::R2, Reg::R3),
        asm::mov64_reg(Reg::R0, Reg::R2),
        asm::exit(),
    ]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
}

#[test]
fn alu_on_nullable_pointer_rejected_when_fixed() {
    // CVE-2022-23222 shape: arithmetic on map_value_or_null.
    let mut insns = vec![asm::mov64_imm(Reg::R0, 0)];
    insns.extend(asm::ld_map_fd(Reg::R1, 0));
    insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
    insns.push(asm::st_mem(Size::W, Reg::R2, 0, 1));
    insns.push(asm::call_helper(helper::MAP_LOOKUP_ELEM as i32));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R0, 8));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    let p = Program::from_insns(insns);
    rejects(&kernel(), &p, ProgType::SocketFilter, "null-check it first");
    // With the CVE injected, the same program is (incorrectly) accepted...
    let buggy = kernel_with_maps(BugSet::with(&[BugId::CveAluOnNullablePtr]));
    let out = verify(&buggy, &p, ProgType::SocketFilter, &VerifierOpts::default());
    assert!(
        out.result.is_ok(),
        "CVE kernel accepts: {:?}",
        out.result.err()
    );
}

// ---- BTF --------------------------------------------------------------------

#[test]
fn task_btf_access_and_bug2() {
    // get_current_task_btf, then read pid (valid).
    let p = Program::from_insns(vec![
        asm::call_helper(helper::GET_CURRENT_TASK_BTF as i32),
        asm::ldx_mem(Size::W, Reg::R0, Reg::R0, 0),
        asm::exit(),
    ]);
    accepts(&kernel(), &p, ProgType::Kprobe);

    // Read straddling the end: off 124 size 8 (task_struct is 128).
    let oob = Program::from_insns(vec![
        asm::call_helper(helper::GET_CURRENT_TASK_BTF as i32),
        asm::ldx_mem(Size::Dw, Reg::R0, Reg::R0, 124),
        asm::exit(),
    ]);
    rejects(
        &kernel(),
        &oob,
        ProgType::Kprobe,
        "invalid access to btf_id",
    );
    // Bug #2: the buggy size-ignoring bound check accepts it.
    let buggy = kernel_with_maps(BugSet::with(&[BugId::TaskStructOob]));
    let out = verify(&buggy, &oob, ProgType::Kprobe, &VerifierOpts::default());
    assert!(
        out.result.is_ok(),
        "bug2 kernel accepts: {:?}",
        out.result.err()
    );
}

#[test]
fn btf_pointer_field_chain() {
    // task->parent->pid
    let p = Program::from_insns(vec![
        asm::call_helper(helper::GET_CURRENT_TASK_BTF as i32),
        asm::ldx_mem(Size::Dw, Reg::R1, Reg::R0, 32),
        asm::ldx_mem(Size::W, Reg::R0, Reg::R1, 0),
        asm::exit(),
    ]);
    accepts(&kernel(), &p, ProgType::Kprobe);
}

#[test]
fn btf_write_rejected() {
    let p = Program::from_insns(vec![
        asm::call_helper(helper::GET_CURRENT_TASK_BTF as i32),
        asm::st_mem(Size::W, Reg::R0, 0, 7),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    rejects(&kernel(), &p, ProgType::Kprobe, "writes to BTF");
}

// ---- nullness propagation (bug #1) -------------------------------------------

fn nullness_prop_prog() -> Program {
    // Listing 2 shape: r6 = btf object (actually null at runtime);
    // r0 = map_lookup (null at runtime); if r0 == r6: deref r0.
    let mut insns = Vec::new();
    insns.extend(asm::ld_btf_id(Reg::R6, btf_ids::DEBUG_OBJ));
    insns.extend(asm::ld_map_fd(Reg::R1, 0));
    insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
    insns.push(asm::st_mem(Size::W, Reg::R2, 0, 1));
    insns.push(asm::call_helper(helper::MAP_LOOKUP_ELEM as i32));
    // if r0 != r6 goto exit — in the equal path the buggy verifier marks
    // r0 non-null and allows the deref.
    insns.push(asm::jmp_reg(JmpOp::Jne, Reg::R0, Reg::R6, 1));
    insns.push(asm::ldx_mem(Size::Dw, Reg::R3, Reg::R0, 0));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    Program::from_insns(insns)
}

#[test]
fn nullness_propagation_bug1() {
    let p = nullness_prop_prog();
    // Fixed verifier: the BTF filter stops the propagation; the deref in
    // the equal path still sees a nullable pointer.
    rejects(&kernel(), &p, ProgType::Kprobe, "map_value_or_null");
    // Buggy verifier: accepted.
    let buggy = kernel_with_maps(BugSet::with(&[BugId::NullnessPropagation]));
    let out = verify(&buggy, &p, ProgType::Kprobe, &VerifierOpts::default());
    assert!(
        out.result.is_ok(),
        "bug1 kernel accepts: {:?}",
        out.result.err()
    );
}

#[test]
fn nullness_propagation_legitimate_case_still_works() {
    // The legitimate optimization: comparing against a known non-null
    // NON-BTF pointer (the stack pointer) propagates in both kernels.
    let mut insns = Vec::new();
    insns.extend(asm::ld_map_fd(Reg::R1, 0));
    insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
    insns.push(asm::st_mem(Size::W, Reg::R2, 0, 1));
    insns.push(asm::call_helper(helper::MAP_LOOKUP_ELEM as i32));
    insns.push(asm::jmp_reg(JmpOp::Jne, Reg::R0, Reg::R10, 1));
    insns.push(asm::ldx_mem(Size::Dw, Reg::R3, Reg::R0, 0));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    accepts(
        &kernel(),
        &Program::from_insns(insns),
        ProgType::SocketFilter,
    );
}

// ---- NMI / helper restrictions (bug #6) ---------------------------------------

#[test]
fn send_signal_in_nmi_prog_bug6() {
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R1, 9),
        asm::call_helper(helper::SEND_SIGNAL as i32),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    // PerfEvent programs run in NMI: the fixed verifier rejects.
    rejects(&kernel(), &p, ProgType::PerfEvent, "not allowed in NMI");
    // Kprobe context: fine either way.
    accepts(&kernel(), &p, ProgType::Kprobe);
    // Bug #6: the missing check admits the NMI program.
    let buggy = kernel_with_maps(BugSet::with(&[BugId::SignalSendPanic]));
    let out = verify(&buggy, &p, ProgType::PerfEvent, &VerifierOpts::default());
    assert!(out.result.is_ok());
}

// ---- kfuncs (bug #3) -----------------------------------------------------------

#[test]
fn kfunc_gating_by_version() {
    use bvf_kernel_sim::helpers::kfunc::ids as kf;
    let p = Program::from_insns(vec![asm::call_kfunc(kf::KTIME_COARSE as i32), asm::exit()]);
    let k = kernel();
    let old = VerifierOpts {
        version: KernelVersion::V5_15,
        ..Default::default()
    };
    let out = verify(&k, &p, ProgType::Kprobe, &old);
    assert!(out.result.is_err(), "v5.15 has no kfuncs");
    accepts(&k, &p, ProgType::Kprobe);
}

#[test]
fn kfunc_stale_bounds_bug3() {
    use bvf_kernel_sim::helpers::kfunc::ids as kf;
    // r0 = 4 (tightly bounded); call kfunc; use r0 as map-value offset.
    let mut insns = vec![asm::mov64_imm(Reg::R0, 4)];
    insns.extend(asm::ld_map_fd(Reg::R1, 0));
    insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
    insns.push(asm::st_mem(Size::W, Reg::R2, 0, 1));
    insns.push(asm::mov64_reg(Reg::R6, Reg::R0));
    insns.push(asm::call_kfunc(kf::KTIME_COARSE as i32));
    // NOTE: kfunc clobbers R0 with its return; with bug #3 the verifier
    // keeps R0's pre-call bounds [4,4] alive... but R0 was reassigned by
    // the call-return modeling itself. The stale state matters because
    // the buggy path reuses the old R0 state object.
    insns.push(asm::mov64_reg(Reg::R7, Reg::R0));
    // Use R7 (kfunc result) as map value offset after bound... no bound!
    // Look up and add.
    insns.extend(asm::ld_map_fd(Reg::R1, 0));
    insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
    insns.push(asm::call_helper(helper::MAP_LOOKUP_ELEM as i32));
    insns.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, 3));
    insns.push(asm::alu64_reg(AluOp::Add, Reg::R0, Reg::R7));
    insns.push(asm::ldx_mem(Size::B, Reg::R3, Reg::R0, 0));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    let p = Program::from_insns(insns);
    // Fixed: R7 is unbounded → rejected.
    rejects(&kernel(), &p, ProgType::Kprobe, "min value is negative");
    // Bug #3: stale [4,4] bounds survive the kfunc call → accepted.
    let buggy = kernel_with_maps(BugSet::with(&[BugId::KfuncBacktrack]));
    let out = verify(&buggy, &p, ProgType::Kprobe, &VerifierOpts::default());
    assert!(
        out.result.is_ok(),
        "bug3 kernel accepts: {:?}",
        out.result.err()
    );
}

// ---- references -----------------------------------------------------------------

#[test]
fn ringbuf_reserve_requires_release() {
    // Reserve without submit: leaked reference.
    let mut insns = asm::ld_map_fd(Reg::R1, 2).to_vec();
    insns.push(asm::mov64_imm(Reg::R2, 16));
    insns.push(asm::mov64_imm(Reg::R3, 0));
    insns.push(asm::call_helper(helper::RINGBUF_RESERVE as i32));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    rejects(
        &kernel(),
        &Program::from_insns(insns),
        ProgType::Kprobe,
        "Unreleased reference",
    );
}

#[test]
fn ringbuf_reserve_submit_accepted() {
    let mut insns = asm::ld_map_fd(Reg::R1, 2).to_vec();
    insns.push(asm::mov64_imm(Reg::R2, 16));
    insns.push(asm::mov64_imm(Reg::R3, 0));
    insns.push(asm::call_helper(helper::RINGBUF_RESERVE as i32));
    insns.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, 4));
    insns.push(asm::st_mem(Size::Dw, Reg::R0, 0, 42));
    insns.push(asm::mov64_reg(Reg::R1, Reg::R0));
    insns.push(asm::mov64_imm(Reg::R2, 0));
    insns.push(asm::call_helper(helper::RINGBUF_SUBMIT as i32));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    accepts(&kernel(), &Program::from_insns(insns), ProgType::Kprobe);
}

#[test]
fn ringbuf_record_oob_rejected() {
    let mut insns = asm::ld_map_fd(Reg::R1, 2).to_vec();
    insns.push(asm::mov64_imm(Reg::R2, 16));
    insns.push(asm::mov64_imm(Reg::R3, 0));
    insns.push(asm::call_helper(helper::RINGBUF_RESERVE as i32));
    insns.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, 5));
    insns.push(asm::st_mem(Size::Dw, Reg::R0, 16, 42)); // 16..24 > 16
    insns.push(asm::mov64_reg(Reg::R1, Reg::R0));
    insns.push(asm::mov64_imm(Reg::R2, 0));
    insns.push(asm::call_helper(helper::RINGBUF_SUBMIT as i32));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    rejects(
        &kernel(),
        &Program::from_insns(insns),
        ProgType::Kprobe,
        "invalid access to mem",
    );
}

// ---- subprograms ------------------------------------------------------------------

#[test]
fn subprog_call_and_return() {
    // main: r1 = 7; call f; r0 already set; exit.
    // f: r0 = r1 * 2; exit.
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R1, 7),
        asm::call_pseudo(1),
        asm::exit(),
        asm::mov64_reg(Reg::R0, Reg::R1),
        asm::alu64_imm(AluOp::Mul, Reg::R0, 2),
        asm::exit(),
    ]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
}

#[test]
fn subprog_r6_not_visible_in_callee() {
    // Callee reads R6 which the caller set — callee registers start
    // uninitialized except R1..R5.
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R6, 1),
        asm::call_pseudo(1),
        asm::exit(),
        asm::mov64_reg(Reg::R0, Reg::R6),
        asm::exit(),
    ]);
    rejects(&kernel(), &p, ProgType::SocketFilter, "!read_ok");
}

#[test]
fn subprog_pointer_return_rejected() {
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R1, 7),
        asm::call_pseudo(1),
        asm::exit(),
        asm::mov64_reg(Reg::R0, Reg::R10),
        asm::exit(),
    ]);
    rejects(&kernel(), &p, ProgType::SocketFilter, "must be a scalar");
}

// ---- legacy loads ------------------------------------------------------------------

#[test]
fn ld_abs_allowed_only_for_skb_types() {
    let insn = bvf_isa::Insn::new(
        bvf_isa::Class::Ld as u8 | Size::W as u8 | bvf_isa::opcode::mode::ABS,
        0,
        0,
        0,
        4,
    );
    let p = Program::from_insns(vec![insn, asm::exit()]);
    accepts(&kernel(), &p, ProgType::SocketFilter);
    rejects(
        &kernel(),
        &p,
        ProgType::Xdp,
        "not allowed for this program type",
    );
}
