//! Execution-engine limit and edge-case tests: tail-call chains, call
//! depth, step budget, exception-table fixups, and ABI register
//! conventions. The hand-built programs run both untraced and traced,
//! since the trace hook must never change a run: the step limit landing
//! inside a loop body, a jump into straight-line code, and a fall-through
//! past the last slot.

use std::collections::HashMap;

use bvf_isa::{asm, AluOp, Insn, JmpOp, Program, Reg, Size};
use bvf_kernel_sim::helpers::proto::ids as helper;
use bvf_kernel_sim::map::{MapDef, MapType};
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::{BugSet, Kernel};
use bvf_runtime::{interp, Bpf, ExecImage, ExecResult, ExecTrace, HaltReason, TriggerCtx};
use bvf_verifier::VerifierOpts;

fn bpf() -> Bpf {
    let mut b = Bpf::new(BugSet::none(), VerifierOpts::default(), false);
    b.map_create(MapDef {
        map_type: MapType::ProgArray,
        key_size: 4,
        value_size: 4,
        max_entries: 4,
    })
    .unwrap();
    b
}

/// Runs a hand-built program (no verifier, no sanitation) directly on
/// the engine, untraced and traced, and checks that both runs agree;
/// returns the result.
fn exec_traced_and_untraced(insns: &[Insn]) -> ExecResult {
    let prog = Program::from_insns(insns.to_vec());
    let meta = bvf_runtime::bpf::empty_meta(&prog);
    let images = vec![ExecImage::new(prog, meta, ProgType::SocketFilter)];
    let [untraced, traced] = [false, true].map(|traced| {
        let mut kernel = Kernel::new(BugSet::none());
        let trig = TriggerCtx {
            ctx_addr: kernel.mm.kmalloc(128).unwrap(),
            packet_addr: 0,
            packet_len: 0,
            in_nmi: false,
        };
        let mut trace = ExecTrace::default();
        let trace = traced.then_some(&mut trace);
        interp::exec_program_traced(&mut kernel, &images, &HashMap::new(), 0, trig, 0, trace)
    });
    assert_eq!(traced.halt, untraced.halt);
    assert_eq!(traced.steps, untraced.steps);
    assert_eq!(traced.r0, untraced.r0);
    assert_eq!(traced.exec_hash, untraced.exec_hash);
    untraced
}

/// A program that immediately tail-calls itself through slot 0.
fn self_tail_call() -> Program {
    let mut insns = vec![asm::mov64_reg(Reg::R6, Reg::R1)];
    insns.push(asm::mov64_reg(Reg::R1, Reg::R6));
    insns.extend(asm::ld_map_fd(Reg::R2, 0));
    insns.push(asm::mov64_imm(Reg::R3, 0));
    insns.push(asm::call_helper(helper::TAIL_CALL as i32));
    insns.push(asm::mov64_imm(Reg::R0, 7));
    insns.push(asm::exit());
    Program::from_insns(insns)
}

#[test]
fn tail_call_limit_enforced() {
    let mut b = bpf();
    let id = b
        .prog_load(&self_tail_call(), ProgType::SocketFilter, false)
        .unwrap();
    b.prog_array_set(0, 0, id).unwrap();
    let run = b.test_run(id).unwrap();
    // After MAX_TAIL_CALL_CNT chained calls the helper fails and the
    // program falls through to `r0 = 7; exit`.
    assert_eq!(run.exec.halt, HaltReason::Exit);
    assert_eq!(run.exec.r0, Some(7));
    assert!(run.reports.is_empty());
    // The chain really ran: ~5 decoded instructions per chained program.
    assert!(
        run.exec.steps >= 5 * interp::TAIL_CALL_LIMIT as u64,
        "steps {}",
        run.exec.steps
    );
}

#[test]
fn step_limit_stops_runaway_programs() {
    // The verifier itself rejects huge loops as too complex, so drive the
    // engine directly with a hand-built image (the runtime must defend
    // against runaway code regardless of where it came from).
    let run = exec_traced_and_untraced(&[
        asm::mov64_imm(Reg::R0, 0),
        asm::mov64_imm(Reg::R6, 0),
        asm::alu64_imm(AluOp::Add, Reg::R6, 1),
        asm::jmp_imm(JmpOp::Jlt, Reg::R6, i32::MAX, -2),
        asm::exit(),
    ]);
    assert_eq!(run.halt, HaltReason::StepLimit);
    assert_eq!(run.steps, interp::STEP_LIMIT + 1);
    assert_eq!(run.r0, None);
}

#[test]
fn helper_call_preserves_callee_saved_regs() {
    // R6-R9 must survive a helper call; R0 carries the return.
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R6, 1111),
        asm::mov64_imm(Reg::R7, 2222),
        asm::call_helper(helper::GET_PRANDOM_U32 as i32),
        asm::mov64_reg(Reg::R0, Reg::R6),
        asm::alu64_reg(AluOp::Add, Reg::R0, Reg::R7),
        asm::exit(),
    ]);
    let mut b = bpf();
    let id = b.prog_load(&p, ProgType::SocketFilter, false).unwrap();
    assert_eq!(b.test_run(id).unwrap().exec.r0, Some(3333));
}

#[test]
fn subprog_call_preserves_callee_saved_regs() {
    // Main sets R6-R9, calls a subprogram that overwrites all four, and
    // folds them into R0: the caller must read back its own values.
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R6, 1000),
        asm::mov64_imm(Reg::R7, 200),
        asm::mov64_imm(Reg::R8, 30),
        asm::mov64_imm(Reg::R9, 4),
        asm::call_pseudo(5),
        asm::mov64_reg(Reg::R0, Reg::R6),
        asm::alu64_reg(AluOp::Add, Reg::R0, Reg::R7),
        asm::alu64_reg(AluOp::Add, Reg::R0, Reg::R8),
        asm::alu64_reg(AluOp::Add, Reg::R0, Reg::R9),
        asm::exit(),
        // callee:
        asm::mov64_imm(Reg::R6, -1),
        asm::mov64_imm(Reg::R7, -1),
        asm::mov64_imm(Reg::R8, -1),
        asm::mov64_imm(Reg::R9, -1),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    let mut b = bpf();
    let id = b.prog_load(&p, ProgType::SocketFilter, false).unwrap();
    assert_eq!(b.test_run(id).unwrap().exec.r0, Some(1234));
}

#[test]
fn subprog_frames_have_private_stacks() {
    // Caller writes 42 at fp-8; callee writes 99 at its own fp-8; the
    // caller's slot must be intact after the call.
    let p = Program::from_insns(vec![
        asm::st_mem(Size::Dw, Reg::R10, -8, 42),
        asm::mov64_imm(Reg::R1, 0),
        asm::call_pseudo(2),
        asm::ldx_mem(Size::Dw, Reg::R0, Reg::R10, -8),
        asm::exit(),
        // callee:
        asm::st_mem(Size::Dw, Reg::R10, -8, 99),
        asm::mov64_imm(Reg::R0, 0),
        asm::exit(),
    ]);
    let mut b = bpf();
    let id = b.prog_load(&p, ProgType::SocketFilter, false).unwrap();
    assert_eq!(b.test_run(id).unwrap().exec.r0, Some(42));
}

/// A load through a null BTF pointer, then `r0 += 5`.
fn btf_null_deref() -> Program {
    let mut insns = Vec::new();
    insns.extend(asm::ld_btf_id(Reg::R6, bvf_kernel_sim::btf::ids::DEBUG_OBJ));
    insns.push(asm::ldx_mem(Size::Dw, Reg::R0, Reg::R6, 0));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R0, 5));
    insns.push(asm::exit());
    Program::from_insns(insns)
}

#[test]
fn btf_null_deref_fixed_up_gracefully() {
    // Loading through a null BTF pointer reads zero (exception table),
    // it does not crash — the property bug #1 relies on.
    let mut b = bpf();
    let id = b
        .prog_load(&btf_null_deref(), ProgType::Kprobe, false)
        .unwrap();
    let run = b.test_run(id).unwrap();
    assert_eq!(run.exec.halt, HaltReason::Exit);
    assert_eq!(run.exec.r0, Some(5), "faulting load read zero");
    assert!(run.reports.is_empty());
}

#[test]
fn sanitized_btf_null_deref_also_graceful() {
    // The same program, sanitized: the asan check must honour the
    // exception-table entry and stay silent too.
    let mut b = Bpf::new(BugSet::none(), VerifierOpts::default(), true);
    let id = b
        .prog_load(&btf_null_deref(), ProgType::Kprobe, false)
        .unwrap();
    let run = b.test_run(id).unwrap();
    assert_eq!(run.exec.halt, HaltReason::Exit);
    assert_eq!(run.exec.r0, Some(5));
    assert!(run.reports.is_empty(), "{:?}", run.reports);
}

#[test]
fn scalar_wraparound_semantics() {
    // u64 wraparound through mul/add, 32-bit truncation via alu32.
    let p = Program::from_insns(vec![
        asm::mov64_imm(Reg::R0, -1),
        asm::alu64_imm(AluOp::Add, Reg::R0, 1), // 0
        asm::alu64_imm(AluOp::Sub, Reg::R0, 1), // u64::MAX
        asm::alu32_imm(AluOp::Add, Reg::R0, 1), // zero-extends: 0
        asm::alu64_imm(AluOp::Add, Reg::R0, 9),
        asm::exit(),
    ]);
    let mut b = bpf();
    let id = b.prog_load(&p, ProgType::SocketFilter, false).unwrap();
    assert_eq!(b.test_run(id).unwrap().exec.r0, Some(9));
}

#[test]
fn step_limit_inside_a_loop_body() {
    // `add r6, 1; add r7, 1; jlt` loops. Prologues of 1, 2 and 3 ops put
    // the step limit on the second add, the first add, and the branch;
    // the limit must fire on the same step every time.
    for prologue in 1..=3 {
        let mut insns = vec![asm::mov64_imm(Reg::R0, 0); prologue];
        insns.extend([
            asm::alu64_imm(AluOp::Add, Reg::R6, 1),
            asm::alu64_imm(AluOp::Add, Reg::R7, 1),
            asm::jmp_imm(JmpOp::Jlt, Reg::R6, i32::MAX, -3),
            asm::exit(),
        ]);
        let run = exec_traced_and_untraced(&insns);
        assert_eq!(run.halt, HaltReason::StepLimit, "prologue {prologue}");
        assert_eq!(run.steps, interp::STEP_LIMIT + 1, "prologue {prologue}");
    }
}

#[test]
fn jump_into_straight_line_code() {
    // The branch skips the first two of four straight-line adds.
    let run = exec_traced_and_untraced(&[
        asm::mov64_imm(Reg::R0, 0),
        asm::mov64_imm(Reg::R1, 5),
        asm::jmp_imm(JmpOp::Jeq, Reg::R1, 5, 2),
        asm::alu64_imm(AluOp::Add, Reg::R0, 100),
        asm::alu64_imm(AluOp::Add, Reg::R0, 200),
        asm::alu64_imm(AluOp::Add, Reg::R0, 1),
        asm::alu64_imm(AluOp::Add, Reg::R0, 2),
        asm::exit(),
    ]);
    assert_eq!(run.halt, HaltReason::Exit);
    assert_eq!(run.r0, Some(3));
    assert_eq!(run.steps, 6);
}

#[test]
fn fall_through_past_the_last_slot() {
    // No exit: the last add falls through out of bounds.
    let run = exec_traced_and_untraced(&[
        asm::mov64_imm(Reg::R0, 1),
        asm::mov64_imm(Reg::R1, 2),
        asm::alu64_reg(AluOp::Add, Reg::R0, Reg::R1),
    ]);
    assert_eq!(run.halt, HaltReason::BadInstruction);
    assert_eq!(run.steps, 3);
    assert_eq!(run.r0, None);
}
