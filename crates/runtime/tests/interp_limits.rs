//! Execution-engine limit and edge-case tests: tail-call chains, call
//! depth, step budget, exception-table fixups, and ABI register
//! conventions — each on both backends.
//!
//! The compiled backend is the interpreter loop plus fused straight-line
//! runs, so the second half pins the edges of a fused run, the only
//! place the backends differ: the step limit landing inside a run, a jump
//! into the middle of one, a run falling through past the last slot, a
//! tail call into an image without a compiled form, and the
//! compile-layer `FusedCheckElision` defect on traced and untraced runs.

use std::collections::HashMap;

use bvf_isa::{asm, AluOp, Insn, JmpOp, Program, Reg, Size};
use bvf_kernel_sim::helpers::asan::ids as asan;
use bvf_kernel_sim::helpers::proto::ids as helper;
use bvf_kernel_sim::map::{MapDef, MapType};
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::{BugSet, Kernel, SanDefect};
use bvf_runtime::{interp, Backend, Bpf, ExecImage, ExecResult, ExecTrace, HaltReason, TriggerCtx};
use bvf_verifier::VerifierOpts;

const BACKENDS: [Backend; 2] = [Backend::Interp, Backend::Compiled];

fn bpf(backend: Backend) -> Bpf {
    let mut b = Bpf::new(BugSet::none(), VerifierOpts::default(), false).with_backend(backend);
    b.map_create(MapDef {
        map_type: MapType::ProgArray,
        key_size: 4,
        value_size: 4,
        max_entries: 4,
    })
    .unwrap();
    b
}

/// A hand-built image (no verifier, no sanitation), lowered when
/// `backend` is compiled.
fn image(insns: Vec<Insn>, backend: Backend) -> ExecImage {
    let prog = Program::from_insns(insns);
    let meta = bvf_runtime::bpf::empty_meta(&prog);
    let mut image = ExecImage::new(prog, meta, ProgType::SocketFilter);
    if backend == Backend::Compiled {
        image.compile();
    }
    image
}

/// Runs program 0 of `images` directly on the engine.
fn exec(kernel: &mut Kernel, images: Vec<ExecImage>, trace: Option<&mut ExecTrace>) -> ExecResult {
    let ctx = kernel.mm.kmalloc(128).unwrap();
    let trig = TriggerCtx {
        ctx_addr: ctx,
        packet_addr: 0,
        packet_len: 0,
        in_nmi: false,
    };
    let run = interp::exec_program_traced(kernel, &images, &HashMap::new(), 0, trig, 0, trace);
    kernel.mm.kfree(ctx);
    run
}

/// Runs a hand-built program on each backend, untraced and traced, and
/// checks that all four runs agree; returns the result.
fn exec_everywhere(insns: &[Insn]) -> ExecResult {
    let mut runs = Vec::new();
    for backend in BACKENDS {
        for traced in [false, true] {
            let images = vec![image(insns.to_vec(), backend)];
            let mut kernel = Kernel::new(BugSet::none());
            let mut trace = ExecTrace::default();
            let run = exec(&mut kernel, images, traced.then_some(&mut trace));
            runs.push((backend, traced, run));
        }
    }
    let (_, _, first) = runs[0];
    for &(backend, traced, run) in &runs {
        let what = format!("{backend:?} traced={traced}");
        assert_eq!(run.halt, first.halt, "{what}");
        assert_eq!(run.steps, first.steps, "{what}");
        assert_eq!(run.r0, first.r0, "{what}");
        assert_eq!(run.exec_hash, first.exec_hash, "{what}");
    }
    first
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
    let mut steps = Vec::new();
    for backend in BACKENDS {
        let mut b = bpf(backend);
        let id = b
            .prog_load(&self_tail_call(), ProgType::SocketFilter, false)
            .unwrap();
        b.prog_array_set(0, 0, id).unwrap();
        let run = b.test_run(id).unwrap();
        // After MAX_TAIL_CALL_CNT chained calls the helper fails and the
        // program falls through to `r0 = 7; exit`.
        assert_eq!(run.exec.halt, HaltReason::Exit, "{backend:?}");
        assert_eq!(run.exec.r0, Some(7), "{backend:?}");
        assert!(run.reports.is_empty(), "{backend:?}");
        // The chain really ran: ~5 decoded instructions per chained program.
        assert!(
            run.exec.steps >= 5 * interp::TAIL_CALL_LIMIT as u64,
            "{backend:?}: steps {}",
            run.exec.steps
        );
        steps.push(run.exec.steps);
    }
    assert_eq!(steps[0], steps[1], "backends disagree on the chain");
}

#[test]
fn step_limit_stops_runaway_programs() {
    // The verifier itself rejects huge loops as too complex, so drive the
    // engine directly with a hand-built image (the runtime must defend
    // against runaway code regardless of where it came from).
    let run = exec_everywhere(&[
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
    for backend in BACKENDS {
        let mut b = bpf(backend);
        let id = b.prog_load(&p, ProgType::SocketFilter, false).unwrap();
        assert_eq!(b.test_run(id).unwrap().exec.r0, Some(3333), "{backend:?}");
    }
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
    for backend in BACKENDS {
        let mut b = bpf(backend);
        let id = b.prog_load(&p, ProgType::SocketFilter, false).unwrap();
        assert_eq!(b.test_run(id).unwrap().exec.r0, Some(42), "{backend:?}");
    }
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
    for backend in BACKENDS {
        let mut b = bpf(backend);
        let id = b
            .prog_load(&btf_null_deref(), ProgType::Kprobe, false)
            .unwrap();
        let run = b.test_run(id).unwrap();
        assert_eq!(run.exec.halt, HaltReason::Exit, "{backend:?}");
        assert_eq!(run.exec.r0, Some(5), "{backend:?}: faulting load read zero");
        assert!(run.reports.is_empty(), "{backend:?}");
    }
}

#[test]
fn sanitized_btf_null_deref_also_graceful() {
    // The same program, sanitized: the asan check must honour the
    // exception-table entry and stay silent too.
    for backend in BACKENDS {
        let mut b = Bpf::new(BugSet::none(), VerifierOpts::default(), true).with_backend(backend);
        let id = b
            .prog_load(&btf_null_deref(), ProgType::Kprobe, false)
            .unwrap();
        let run = b.test_run(id).unwrap();
        assert_eq!(run.exec.halt, HaltReason::Exit, "{backend:?}");
        assert_eq!(run.exec.r0, Some(5), "{backend:?}");
        assert!(run.reports.is_empty(), "{backend:?}: {:?}", run.reports);
    }
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
    for backend in BACKENDS {
        let mut b = bpf(backend);
        let id = b.prog_load(&p, ProgType::SocketFilter, false).unwrap();
        assert_eq!(b.test_run(id).unwrap().exec.r0, Some(9), "{backend:?}");
    }
}

#[test]
fn step_limit_inside_a_fused_run() {
    // `add r6, 1; add r7, 1; jlt` loops, so every iteration enters the
    // two-op run `add; add` in its middle. Prologues of 1, 2 and 3 ops
    // put the step limit on the run's second member, its first member,
    // and the branch; the limit must fire on the same step everywhere.
    for prologue in 1..=3 {
        let mut insns = vec![asm::mov64_imm(Reg::R0, 0); prologue];
        insns.extend([
            asm::alu64_imm(AluOp::Add, Reg::R6, 1),
            asm::alu64_imm(AluOp::Add, Reg::R7, 1),
            asm::jmp_imm(JmpOp::Jlt, Reg::R6, i32::MAX, -3),
            asm::exit(),
        ]);
        let run = exec_everywhere(&insns);
        assert_eq!(run.halt, HaltReason::StepLimit, "prologue {prologue}");
        assert_eq!(run.steps, interp::STEP_LIMIT + 1, "prologue {prologue}");
    }
}

#[test]
fn jump_into_the_middle_of_a_fused_run() {
    // The branch skips the first two adds of the four-op run.
    let run = exec_everywhere(&[
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
fn fused_run_falling_off_the_end() {
    // No exit: completing the run is an out-of-bounds fall-through.
    let run = exec_everywhere(&[
        asm::mov64_imm(Reg::R0, 1),
        asm::mov64_imm(Reg::R1, 2),
        asm::alu64_reg(AluOp::Add, Reg::R0, Reg::R1),
    ]);
    assert_eq!(run.halt, HaltReason::BadInstruction);
    assert_eq!(run.steps, 3);
    assert_eq!(run.r0, None);
}

#[test]
fn tail_call_from_a_compiled_into_an_uncompiled_image() {
    // Program 0 tail-calls program 1, which sums in a fused run.
    let callee = Program::from_insns(vec![
        asm::mov64_imm(Reg::R0, 40),
        asm::alu64_imm(AluOp::Add, Reg::R0, 1),
        asm::alu64_imm(AluOp::Add, Reg::R0, 1),
        asm::exit(),
    ]);
    let load = |backend| {
        let mut b = bpf(backend);
        b.prog_load(&self_tail_call(), ProgType::SocketFilter, false)
            .unwrap();
        let target = b.prog_load(&callee, ProgType::SocketFilter, false).unwrap();
        b.prog_array_set(0, 0, target).unwrap();
        b
    };
    let expected = load(Backend::Interp).test_run(0).unwrap().exec;
    assert_eq!(expected.r0, Some(42));
    assert_eq!(
        load(Backend::Compiled).test_run(0).unwrap().exec.steps,
        expected.steps
    );

    // A registry mixing the compiled caller with an uncompiled callee:
    // the fast path is chosen per current image.
    let mut b = load(Backend::Compiled);
    let target = b.image(1).unwrap();
    let uncompiled = ExecImage::new(
        target.prog().clone(),
        target.meta().to_vec(),
        target.prog_type,
    );
    let images = vec![b.image(0).unwrap().clone(), uncompiled];
    let run = exec(&mut b.kernel, images, None);
    assert_eq!(run.halt, HaltReason::Exit);
    assert_eq!(run.r0, expected.r0);
    assert_eq!(run.steps, expected.steps);
    assert_eq!(run.exec_hash, expected.exec_hash);
}

#[test]
fn fused_check_elision_fires_on_traced_and_untraced_compiled_runs() {
    // `bpf_asan_load8` on a redzone traps, unless the compile-layer
    // defect elides the check: on every run of a compiled image, traced
    // (the per-step path) or not (the fused thunk), and never on an
    // interp image.
    for elide in [false, true] {
        for backend in BACKENDS {
            for traced in [false, true] {
                let mut kernel = Kernel::new(BugSet::none());
                if elide {
                    kernel.mm.san_defects.enable(SanDefect::FusedCheckElision);
                }
                let buf = kernel.mm.kmalloc(16).unwrap();
                let mut insns = asm::ld_imm64(Reg::R1, buf + 16).to_vec();
                insns.push(asm::call_helper(asan::load_fn(8) as i32));
                insns.push(asm::mov64_imm(Reg::R0, 0));
                insns.push(asm::exit());
                let images = vec![image(insns, backend)];
                let mut trace = ExecTrace::default();
                let run = exec(&mut kernel, images, traced.then_some(&mut trace));
                let what = format!("elide={elide} {backend:?} traced={traced}");
                if elide && backend == Backend::Compiled {
                    assert_eq!(run.halt, HaltReason::Exit, "{what}");
                    assert!(!kernel.reports.any(), "{what}");
                } else {
                    assert_eq!(run.halt, HaltReason::SanitizerTrap, "{what}");
                    assert!(kernel.reports.any(), "{what}");
                }
                let steps = if run.halt == HaltReason::Exit { 4 } else { 2 };
                assert_eq!(run.steps, steps, "{what}");
            }
        }
    }
}
