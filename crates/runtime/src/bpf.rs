//! The `bpf(2)` syscall façade: program load, map create, attach,
//! test-run, and the attach-time validations whose absence constitutes
//! bugs #4 and #5. Bug #8 (xlated-instruction duplication via `kmemdup`)
//! and bug #11 (offloaded program run on the host) live here too.

use std::collections::HashMap;

use bvf_isa::Program;
use bvf_kernel_sim::alloc::KMALLOC_MAX_SIZE;
use bvf_kernel_sim::helpers::proto::{helper_proto, ids as helper_ids};
use bvf_kernel_sim::map::{MapDef, MapStorage};
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::tracepoint::{AttachPoint, Tracepoint};
use bvf_kernel_sim::{BugId, BugSet, Kernel, KernelReport};
use bvf_telemetry::profile::elapsed_ns;
use bvf_telemetry::PhaseTimings;
use bvf_verifier::{
    verify, InsnMeta, RejectReason, VerifiedProgram, VerifierError, VerifierOpts, VerifierPhase,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

use crate::interp::{
    exec_program, exec_program_traced, fire_tracepoint, AttachTable, ExecImage, ExecResult,
    ExecTrace, ProgRegistry, TriggerCtx,
};

/// Default packet size for test runs of packet-carrying program types.
pub const TEST_PACKET_LEN: u64 = 64;

/// A loaded program and its bookkeeping.
#[derive(Debug, Clone)]
pub struct LoadedProg {
    /// Program id (index in the registry).
    pub id: u32,
    /// The verified program (pre-instrumentation, "xlated").
    pub xlated: bvf_verifier::VerifiedProgram,
    /// Instrumentation statistics when sanitation was applied.
    pub sanitize_stats: Option<bvf_verifier::SanitizeStats>,
    /// Whether the program was loaded for device offload.
    pub offloaded: bool,
    /// Where it is attached.
    pub attach: Option<AttachPoint>,
}

/// Errors surfaced by the syscall layer.
#[derive(Debug, Clone, PartialEq)]
pub enum BpfError {
    /// The verifier rejected the program.
    Verifier(VerifierError),
    /// A plain errno (attach conflicts, invalid arguments, ...).
    Errno {
        /// errno value.
        errno: i32,
        /// Human-readable reason.
        reason: String,
    },
}

impl BpfError {
    fn errno(errno: i32, reason: impl Into<String>) -> BpfError {
        BpfError::Errno {
            errno,
            reason: reason.into(),
        }
    }

    /// A sanitation (instrumentation) failure, reported as a verifier
    /// rejection in the `Sanitize` phase so it carries a typed reason.
    /// The errno stays 22 (`EINVAL`), matching the pre-taxonomy syscall
    /// behavior.
    fn sanitize_failed(reason: impl Into<String>) -> BpfError {
        BpfError::Verifier(
            VerifierError::invalid(RejectReason::SanitizeFailed, 0, reason.into())
                .in_phase(VerifierPhase::Sanitize),
        )
    }

    /// The errno this error maps to at the syscall boundary.
    pub fn errno_value(&self) -> i32 {
        match self {
            BpfError::Verifier(e) => e.kind.errno(),
            BpfError::Errno { errno, .. } => *errno,
        }
    }
}

impl std::fmt::Display for BpfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BpfError::Verifier(e) => write!(f, "{e}"),
            BpfError::Errno { errno, reason } => write!(f, "errno {errno}: {reason}"),
        }
    }
}

impl std::error::Error for BpfError {}

/// The outcome of one test run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Execution result.
    pub exec: ExecResult,
    /// Kernel reports collected during the run (drained).
    pub reports: Vec<KernelReport>,
}

/// Inert; the benchmark is its only user, so it goes once ROADMAP item 2 lands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Backend {
    /// The interpreter, the only execution engine.
    #[default]
    Interp,
    /// Runs on the interpreter too.
    Compiled,
}

/// The BPF subsystem façade: one simulated kernel plus its loaded
/// programs.
pub struct Bpf {
    /// The simulated kernel.
    pub kernel: Kernel,
    /// Loaded program bookkeeping.
    pub progs: Vec<LoadedProg>,
    /// Execution images (indexed like `progs`).
    images: ProgRegistry,
    /// Attachment table.
    attach_table: AttachTable,
    /// Verifier options for this "boot".
    pub opts: VerifierOpts,
    /// Whether BVF's sanitation instrumentation is enabled (the Kconfig
    /// toggle from the paper's patches).
    pub sanitize: bool,
}

impl Bpf {
    /// Boots a kernel with the given defects and verifier options.
    pub fn new(bugs: BugSet, opts: VerifierOpts, sanitize: bool) -> Bpf {
        Bpf::with_kernel(Kernel::new(bugs), opts, sanitize)
    }

    /// Wraps an already-booted kernel (explicit pool size, or a kernel
    /// restored from [`crate::ExecScratch`]'s template).
    pub fn with_kernel(kernel: Kernel, opts: VerifierOpts, sanitize: bool) -> Bpf {
        Bpf {
            kernel,
            progs: Vec::new(),
            images: Vec::new(),
            attach_table: HashMap::new(),
            opts,
            sanitize,
        }
    }

    /// Returns `self`; the benchmark is its only caller, so it goes once ROADMAP item 2 lands.
    pub fn with_backend(self, _backend: Backend) -> Bpf {
        self
    }

    /// `BPF_MAP_CREATE`.
    pub fn map_create(&mut self, def: MapDef) -> Result<u32, BpfError> {
        let mut maps = std::mem::take(&mut self.kernel.maps);
        let res = maps.create(&mut self.kernel.mm, def);
        self.kernel.maps = maps;
        res.map_err(|e| BpfError::errno(22, format!("map create failed: {e:?}")))
    }

    /// `BPF_MAP_UPDATE_ELEM` from user space (key/value as byte slices).
    pub fn map_update(&mut self, map_id: u32, key: &[u8], value: &[u8]) -> Result<(), BpfError> {
        let (kaddr, vaddr) = self.stage_user_buffers(key, value)?;
        let mut maps = std::mem::take(&mut self.kernel.maps);
        let res = maps.update_elem(
            &mut self.kernel.mm,
            &mut self.kernel.lockdep,
            map_id,
            kaddr,
            vaddr,
        );
        self.kernel.maps = maps;
        self.kernel.mm.kfree(kaddr);
        self.kernel.mm.kfree(vaddr);
        res.map_err(|e| BpfError::errno(22, format!("map update failed: {e:?}")))
    }

    /// Installs a program into a prog-array slot (tail-call plumbing).
    pub fn prog_array_set(
        &mut self,
        map_id: u32,
        index: u32,
        prog_id: u32,
    ) -> Result<(), BpfError> {
        if prog_id as usize >= self.progs.len() {
            return Err(BpfError::errno(9, "bad prog fd"));
        }
        let Some(map) = self.kernel.maps.get_mut(map_id) else {
            return Err(BpfError::errno(9, "bad map fd"));
        };
        match &mut map.storage {
            MapStorage::ProgArray { slots } => {
                let slot = slots
                    .get_mut(index as usize)
                    .ok_or_else(|| BpfError::errno(22, "index out of range"))?;
                *slot = prog_id + 1;
                Ok(())
            }
            _ => Err(BpfError::errno(22, "not a prog array")),
        }
    }

    fn stage_user_buffers(&mut self, key: &[u8], value: &[u8]) -> Result<(u64, u64), BpfError> {
        let kaddr = self
            .kernel
            .mm
            .kmalloc(key.len().max(1))
            .map_err(|_| BpfError::errno(12, "oom"))?;
        let vaddr = self
            .kernel
            .mm
            .kmalloc(value.len().max(1))
            .map_err(|_| BpfError::errno(12, "oom"))?;
        let koff = (kaddr - bvf_kernel_sim::mem::KERNEL_BASE) as usize;
        let voff = (vaddr - bvf_kernel_sim::mem::KERNEL_BASE) as usize;
        self.kernel.mm.pool.write_bytes(koff, key);
        self.kernel.mm.pool.write_bytes(voff, value);
        Ok((kaddr, vaddr))
    }

    /// `BPF_PROG_LOAD`: verification, rewrite, optional sanitation.
    pub fn prog_load(
        &mut self,
        prog: &Program,
        prog_type: ProgType,
        offloaded: bool,
    ) -> Result<u32, BpfError> {
        let vprog = verify(&self.kernel, prog, prog_type, &self.opts)
            .result
            .map_err(BpfError::Verifier)?;
        let id = self.prog_install(vprog, &mut PhaseTimings::default())?;
        self.progs[id as usize].offloaded = offloaded;
        Ok(id)
    }

    /// Coverage-carrying load: like [`Bpf::prog_load`] but always returns
    /// the verifier coverage and phase timings, as the fuzzer's feedback
    /// collection does. The sanitation rewrite is billed to
    /// `sanitize_ns`.
    pub fn prog_load_with_cov(
        &mut self,
        prog: &Program,
        prog_type: ProgType,
    ) -> (Result<u32, BpfError>, bvf_verifier::Coverage, PhaseTimings) {
        let outcome = verify(&self.kernel, prog, prog_type, &self.opts);
        let mut timings = outcome.timings;
        let load = outcome
            .result
            .map_err(BpfError::Verifier)
            .and_then(|vprog| self.prog_install(vprog, &mut timings));
        (load, outcome.cov, timings)
    }

    /// The post-verification half of a load: the optional sanitation
    /// rewrite (billed to `timings.sanitize_ns`) and the execution image.
    ///
    /// Verification reads the kernel but never changes it, so a program
    /// verified against one boot installs unchanged into another boot of
    /// the same configuration (same bugs, maps and seeds). The
    /// dual-execution oracle relies on this to verify once and run twice.
    pub fn prog_install(
        &mut self,
        vprog: VerifiedProgram,
        timings: &mut PhaseTimings,
    ) -> Result<u32, BpfError> {
        let (image_prog, image_meta, stats) = if self.sanitize {
            let t0 = Instant::now();
            let instrumented = bvf_verifier::instrument(&vprog);
            timings.sanitize_ns = elapsed_ns(t0);
            let (p, m, s) = instrumented.map_err(|e| BpfError::sanitize_failed(e.to_string()))?;
            (p, m, Some(s))
        } else {
            (vprog.prog.clone(), vprog.insn_meta.clone(), None)
        };
        let image = ExecImage::new(image_prog, image_meta, vprog.prog_type);
        let id = self.progs.len() as u32;
        self.progs.push(LoadedProg {
            id,
            xlated: vprog,
            sanitize_stats: stats,
            offloaded: false,
            attach: None,
        });
        self.images.push(image);
        Ok(id)
    }

    /// `BPF_OBJ_GET_INFO_BY_FD`-style retrieval of the rewritten (xlated)
    /// instructions — the syscall bug #8 lives in.
    ///
    /// The buggy kernel duplicates the instruction buffer with
    /// `kmemdup()`, which fails (with a `WARN`) once the program exceeds
    /// the `kmalloc` size cap; the fixed kernel uses `kvmemdup()`.
    pub fn prog_get_xlated(&mut self, prog_id: u32) -> Result<Vec<u8>, BpfError> {
        let prog = self
            .progs
            .get(prog_id as usize)
            .ok_or_else(|| BpfError::errno(9, "bad prog fd"))?;
        let bytes = prog.xlated.prog.to_bytes();
        let dup = if self.kernel.has_bug(BugId::SyscallKmemdup) {
            let r = self.kernel.mm.kmemdup(&bytes);
            if r.is_err() && bytes.len() > KMALLOC_MAX_SIZE {
                self.kernel.warn(format!(
                    "bpf_insn_prepare_dump: kmemdup of {} bytes failed (kmalloc cap)",
                    bytes.len()
                ));
            }
            r
        } else {
            self.kernel.mm.kvmemdup(&bytes)
        };
        match dup {
            Ok(addr) => {
                self.kernel.mm.kfree(addr);
                Ok(bytes)
            }
            Err(_) => Err(BpfError::errno(14, "instruction dump failed")),
        }
    }

    /// `BPF_PROG_ATTACH` / perf-event attach: attach-time validation.
    ///
    /// The fixed kernel refuses the two re-entrant shapes of bugs #4/#5:
    /// a program calling `bpf_trace_printk` cannot attach to the
    /// `trace_printk` tracepoint, and a program calling a lock-acquiring
    /// helper cannot attach to `contention_begin`.
    pub fn prog_attach(&mut self, prog_id: u32, point: AttachPoint) -> Result<(), BpfError> {
        let prog = self
            .progs
            .get(prog_id as usize)
            .ok_or_else(|| BpfError::errno(9, "bad prog fd"))?;
        let prog_type = self.images[prog_id as usize].prog_type;

        if let AttachPoint::Tracepoint(tp) = point {
            if !prog_type.can_attach_tracepoint(tp) {
                return Err(BpfError::errno(
                    22,
                    format!("program type {prog_type:?} cannot attach to tracepoints"),
                ));
            }
            if tp == Tracepoint::TracePrintk
                && prog.xlated.used_helpers.contains(&helper_ids::TRACE_PRINTK)
                && !self.kernel.has_bug(BugId::TracePrintkDeadlock)
            {
                return Err(BpfError::errno(
                    22,
                    "programs calling bpf_trace_printk cannot attach to its tracepoint",
                ));
            }
            if tp == Tracepoint::ContentionBegin && !self.kernel.has_bug(BugId::ContentionBeginLock)
            {
                let acquires_lock = prog
                    .xlated
                    .used_helpers
                    .iter()
                    .filter_map(|id| helper_proto(*id))
                    .any(|p| p.acquires_lock.is_some());
                if acquires_lock {
                    return Err(BpfError::errno(
                        22,
                        "lock-acquiring programs cannot attach to contention_begin",
                    ));
                }
            }
            self.kernel.tracepoint_attach(tp);
            self.attach_table.entry(tp).or_default().push(prog_id);
        }

        if let AttachPoint::Xdp { .. } = point {
            if prog_type != ProgType::Xdp {
                return Err(BpfError::errno(22, "not an XDP program"));
            }
            let buggy = self.kernel.has_bug(BugId::DispatcherNullDeref);
            self.kernel.dispatcher.update(prog_id, buggy);
        }

        self.progs[prog_id as usize].attach = Some(point);
        Ok(())
    }

    fn make_trigger(&mut self, prog_id: u32, in_nmi: bool) -> Result<TriggerCtx, BpfError> {
        let prog_type = self.images[prog_id as usize].prog_type;
        let layout = prog_type.ctx_layout();
        let ctx_addr = self
            .kernel
            .mm
            .kmalloc(layout.size as usize)
            .map_err(|_| BpfError::errno(12, "oom"))?;
        let mut trig = TriggerCtx {
            ctx_addr,
            packet_addr: 0,
            packet_len: 0,
            in_nmi,
        };
        if prog_type.has_packet_data() {
            let pkt = self
                .kernel
                .mm
                .kmalloc(TEST_PACKET_LEN as usize)
                .map_err(|_| BpfError::errno(12, "oom"))?;
            for i in 0..TEST_PACKET_LEN {
                let _ = self.kernel.mm.checked_write(pkt + i, 1, (i * 7 + 1) & 0xff);
            }
            trig.packet_addr = pkt;
            trig.packet_len = TEST_PACKET_LEN;
            // Publish data/data_end into the context.
            let (data_off, end_off, len_off) = match prog_type {
                ProgType::Xdp => (0u64, 8u64, u64::MAX),
                _ => (56, 64, 0),
            };
            let _ = self.kernel.mm.checked_write(ctx_addr + data_off, 8, pkt);
            let _ = self
                .kernel
                .mm
                .checked_write(ctx_addr + end_off, 8, pkt + TEST_PACKET_LEN);
            if len_off != u64::MAX {
                let _ = self
                    .kernel
                    .mm
                    .checked_write(ctx_addr + len_off, 4, TEST_PACKET_LEN);
            }
        }
        Ok(trig)
    }

    fn release_trigger(&mut self, trig: TriggerCtx) {
        self.kernel.mm.kfree(trig.ctx_addr);
        if trig.packet_addr != 0 {
            self.kernel.mm.kfree(trig.packet_addr);
        }
    }

    /// `BPF_PROG_TEST_RUN`.
    pub fn test_run(&mut self, prog_id: u32) -> Result<RunReport, BpfError> {
        self.run_test(prog_id, None)
    }

    /// [`Bpf::test_run`] recording a concrete main-frame trace into
    /// `trace` (the differential oracle's ground truth). Apart from the
    /// recording, behavior is identical to the untraced run.
    pub fn test_run_traced(
        &mut self,
        prog_id: u32,
        trace: &mut ExecTrace,
    ) -> Result<RunReport, BpfError> {
        self.run_test(prog_id, Some(trace))
    }

    fn run_test(
        &mut self,
        prog_id: u32,
        trace: Option<&mut ExecTrace>,
    ) -> Result<RunReport, BpfError> {
        let prog = self
            .progs
            .get(prog_id as usize)
            .ok_or_else(|| BpfError::errno(9, "bad prog fd"))?;
        if prog.offloaded {
            if self.kernel.has_bug(BugId::XdpDeviceOnHost) {
                // Bug #11: the device-offloaded program runs in the host
                // environment it was never set up for.
                self.kernel.reports.record(KernelReport::EnvMismatch {
                    reason: "offloaded XDP program executed on the host".to_string(),
                });
            } else {
                return Err(BpfError::errno(95, "cannot test-run offloaded programs"));
            }
        }
        let prog_type = self.images[prog_id as usize].prog_type;
        let in_nmi = prog_type.runs_in_nmi()
            || matches!(
                self.progs[prog_id as usize].attach,
                Some(AttachPoint::PerfEvent)
            );
        let trig = self.make_trigger(prog_id, in_nmi)?;
        let exec = exec_program_traced(
            &mut self.kernel,
            &self.images,
            &self.attach_table,
            prog_id,
            trig,
            0,
            trace,
        );
        self.release_trigger(trig);
        let reports = self.kernel.end_execution();
        Ok(RunReport { exec, reports })
    }

    /// Simulates the kernel reaching an attach point (a contended lock, a
    /// trace event): all programs attached there run.
    pub fn trigger_tracepoint(&mut self, tp: Tracepoint) -> Vec<KernelReport> {
        fire_tracepoint(&mut self.kernel, &self.images, &self.attach_table, tp, 0);
        self.kernel.end_execution()
    }

    /// Simulates a packet arriving at the XDP hook: the dispatcher runs.
    pub fn xdp_receive(&mut self) -> Vec<KernelReport> {
        match self.kernel.dispatcher.run() {
            bvf_kernel_sim::dispatcher::DispatchResult::Run(prog_id) => {
                if let Ok(trig) = self.make_trigger(prog_id, false) {
                    exec_program(
                        &mut self.kernel,
                        &self.images,
                        &self.attach_table,
                        prog_id,
                        trig,
                        0,
                    );
                    self.release_trigger(trig);
                }
            }
            bvf_kernel_sim::dispatcher::DispatchResult::NullImage => {
                // Bug #7's crash: the trampoline dispatches through a null
                // function pointer.
                self.kernel.enter_routine();
                self.kernel.report_page_fault(0, false);
                self.kernel.leave_routine();
            }
            bvf_kernel_sim::dispatcher::DispatchResult::Pass => {}
        }
        self.kernel.end_execution()
    }

    /// Access to a loaded program's execution image (tests, benches).
    pub fn image(&self, prog_id: u32) -> Option<&ExecImage> {
        self.images.get(prog_id as usize)
    }
}

/// Convenience: an `InsnMeta` vector sized for a program with no metadata
/// (used when executing hand-built images in tests).
pub fn empty_meta(prog: &Program) -> Vec<InsnMeta> {
    vec![InsnMeta::default(); prog.insn_count()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_isa::{asm, AluOp, JmpOp, Reg, Size};
    use bvf_kernel_sim::map::MapType;

    /// Looks up array slot 0 and reads through the value pointer: a map
    /// address for the fixup pass to resolve and a memory access for
    /// the sanitation rewrite to instrument.
    fn map_reader() -> Program {
        let mut insns = vec![asm::mov64_imm(Reg::R0, 0)];
        insns.extend(asm::ld_map_fd(Reg::R1, 0));
        insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
        insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
        insns.push(asm::st_mem(Size::W, Reg::R2, 0, 0));
        insns.push(asm::call_helper(helper_ids::MAP_LOOKUP_ELEM as i32));
        insns.push(asm::jmp_imm(JmpOp::Jeq, Reg::R0, 0, 1));
        insns.push(asm::ldx_mem(Size::Dw, Reg::R0, Reg::R0, 0));
        insns.push(asm::exit());
        Program::from_insns(insns)
    }

    /// Whether the image runs something other than the xlated program,
    /// i.e. whether the sanitation rewrite was applied.
    fn image_rewritten(b: &Bpf, id: u32) -> bool {
        b.image(id).unwrap().prog() != &b.progs[id as usize].xlated.prog
    }

    fn boot(sanitize: bool) -> Bpf {
        let mut b = Bpf::new(BugSet::none(), VerifierOpts::default(), sanitize);
        b.map_create(MapDef {
            map_type: MapType::Array,
            key_size: 4,
            value_size: 16,
            max_entries: 4,
        })
        .unwrap();
        b
    }

    #[test]
    fn load_is_verify_then_install() {
        let prog = map_reader();
        for sanitize in [false, true] {
            let mut loaded = boot(sanitize);
            let (load, _, _) = loaded.prog_load_with_cov(&prog, ProgType::SocketFilter);
            let a = load.expect("program verifies");

            let mut split = boot(sanitize);
            let vprog = verify(&split.kernel, &prog, ProgType::SocketFilter, &split.opts)
                .result
                .expect("program verifies");
            let b = split
                .prog_install(vprog, &mut PhaseTimings::default())
                .expect("program installs");

            let (pa, pb) = (&loaded.progs[a as usize], &split.progs[b as usize]);
            assert_eq!(format!("{:?}", pa.xlated), format!("{:?}", pb.xlated));
            assert_eq!(pa.sanitize_stats, pb.sanitize_stats);
            assert_eq!(pa.sanitize_stats.is_some(), sanitize);
            assert_eq!(image_rewritten(&loaded, a), sanitize);
            let (ia, ib) = (loaded.image(a).unwrap(), split.image(b).unwrap());
            assert_eq!(ia.prog(), ib.prog());
            assert_eq!(format!("{:?}", ia.meta()), format!("{:?}", ib.meta()));
            assert_eq!(
                loaded.test_run(a).unwrap().exec.exec_hash,
                split.test_run(b).unwrap().exec.exec_hash
            );
        }
    }
}
