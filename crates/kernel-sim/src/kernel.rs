//! The simulated kernel facade.
//!
//! [`Kernel`] owns every subsystem — memory manager, lock validator, maps,
//! BTF, dispatcher — plus the report sink and the injected-bug
//! configuration. The runtime crate executes eBPF programs against it; the
//! verifier crate consults its tables (helper prototypes, BTF, context
//! layouts) during validation.

use std::collections::HashMap;

use crate::alloc::Mm;
use crate::btf::{ids as btf_ids, BtfTable, BtfTypeId};
use crate::bugs::{BugId, BugSet};
use crate::dispatcher::Dispatcher;
use crate::kasan::BadAccess;
use crate::lockdep::{LockId, Lockdep};
use crate::map::MapStore;
use crate::mem::DEFAULT_POOL_SIZE;
use crate::report::{KernelReport, ReportOrigin, ReportSink};
use crate::tracepoint::Tracepoint;

/// The simulated kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Memory manager (pool, shadow, allocator).
    pub mm: Mm,
    /// Lock correctness validator.
    pub lockdep: Lockdep,
    /// Kernel-log reports (KASAN, lockdep, panics, ...).
    pub reports: ReportSink,
    /// Injected defects present in this "kernel build".
    pub bugs: BugSet,
    /// eBPF maps.
    pub maps: MapStore,
    /// BTF type information.
    pub btf: BtfTable,
    /// XDP/BPF dispatcher.
    pub dispatcher: Dispatcher,
    /// Boot-time BTF objects: type id → object address (0 = null on this
    /// boot).
    btf_objects: HashMap<BtfTypeId, u64>,
    /// Tracepoint consumers: how many programs are attached per point.
    tracepoint_consumers: HashMap<Tracepoint, u32>,
    /// Monotonic clock.
    pub time_ns: u64,
    /// Deterministic PRNG state for `bpf_get_prandom_u32`.
    prandom_state: u64,
    /// Depth of nested kernel-routine execution (helper bodies).
    routine_depth: usize,
    /// Depth of NMI-context nesting.
    nmi_depth: usize,
    /// Pending irq_work entries (bug #10's queue).
    pub irq_work_pending: u32,
}

impl Kernel {
    /// Boots a simulated kernel with the given defect set.
    pub fn new(bugs: BugSet) -> Kernel {
        Kernel::with_pool_size(bugs, DEFAULT_POOL_SIZE)
    }

    /// Boots with an explicit memory pool size: a zeroed pool, the BTF
    /// table, one boot object per BTF type and the current task. Boot
    /// stores `bugs` but never reads it.
    pub fn with_pool_size(bugs: BugSet, pool_size: usize) -> Kernel {
        let mut mm = Mm::new(pool_size);
        let btf = BtfTable::new();
        let mut btf_objects = HashMap::new();
        // Allocate one boot object per BTF type, except the debug object,
        // which exists in BTF but is null at runtime — the seed of bug #1.
        for id in btf.loadable_ids() {
            if id == btf_ids::DEBUG_OBJ {
                btf_objects.insert(id, 0);
                continue;
            }
            let size = btf.type_by_id(id).expect("loadable").size as usize;
            let addr = mm.kmalloc(size).expect("boot objects fit");
            btf_objects.insert(id, addr);
        }
        let mut kernel = Kernel {
            mm,
            lockdep: Lockdep::new(),
            reports: ReportSink::new(),
            bugs,
            maps: MapStore::new(),
            btf,
            dispatcher: Dispatcher::new(),
            btf_objects,
            tracepoint_consumers: HashMap::new(),
            time_ns: 1_000_000_000,
            prandom_state: 0x853c_49e6_748f_ea9b,
            routine_depth: 0,
            nmi_depth: 0,
            irq_work_pending: 0,
        };
        kernel.init_current_task();
        kernel
    }

    /// Makes this kernel indistinguishable from `template.clone()`: memory
    /// through [`Mm::restore_from`], every other field cloned. Exact as
    /// long as `self` was booted like `template` (the same pool size,
    /// the same maps created after boot), cloned from it or last
    /// restored from it: the contract of a recycled boot. The
    /// destructuring names every field, so a new one does not compile
    /// until it is restored here.
    pub fn restore_from(&mut self, template: &Kernel) {
        let Kernel {
            mm,
            lockdep,
            reports,
            bugs,
            maps,
            // Built by boot and never written after it.
            btf: _,
            dispatcher,
            // Allocated by boot and never written after it.
            btf_objects: _,
            tracepoint_consumers,
            time_ns,
            prandom_state,
            routine_depth,
            nmi_depth,
            irq_work_pending,
        } = self;
        mm.restore_from(&template.mm);
        lockdep.clone_from(&template.lockdep);
        reports.clone_from(&template.reports);
        bugs.clone_from(&template.bugs);
        maps.clone_from(&template.maps);
        dispatcher.clone_from(&template.dispatcher);
        tracepoint_consumers.clone_from(&template.tracepoint_consumers);
        *time_ns = template.time_ns;
        *prandom_state = template.prandom_state;
        *routine_depth = template.routine_depth;
        *nmi_depth = template.nmi_depth;
        *irq_work_pending = template.irq_work_pending;
    }

    fn init_current_task(&mut self) {
        // Fill the current task_struct with plausible data.
        let task = self.btf_object(btf_ids::TASK_STRUCT);
        assert_ne!(task, 0);
        let _ = self.mm.checked_write(task, 4, 1234); // pid
        let _ = self.mm.checked_write(task + 4, 4, 1234); // tgid
        let _ = self.mm.checked_write(task + 48, 8, 42_000_000); // start_time
                                                                 // parent pointer: points at itself (init-like), a valid object.
        let _ = self.mm.checked_write(task + 32, 8, task);
        // mm pointer.
        let mm_obj = self.btf_object(btf_ids::MM_STRUCT);
        let _ = self.mm.checked_write(task + 40, 8, mm_obj);
    }

    /// Address of the boot object for a BTF type (0 when null this boot).
    pub fn btf_object(&self, id: BtfTypeId) -> u64 {
        self.btf_objects.get(&id).copied().unwrap_or(0)
    }

    /// The current task's `task_struct` address.
    pub fn current_task(&self) -> u64 {
        self.btf_object(btf_ids::TASK_STRUCT)
    }

    /// Deterministic PRNG (xorshift64*).
    pub fn prandom_u32(&mut self) -> u32 {
        let mut x = self.prandom_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.prandom_state = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u32
    }

    /// Advances and returns the monotonic clock.
    pub fn ktime_get_ns(&mut self) -> u64 {
        self.time_ns += 1000;
        self.time_ns
    }

    // ---- execution context tracking -------------------------------------

    /// Enters a kernel routine (helper body); affects report origins.
    pub fn enter_routine(&mut self) {
        self.routine_depth += 1;
    }

    /// Leaves a kernel routine.
    pub fn leave_routine(&mut self) {
        debug_assert!(self.routine_depth > 0);
        self.routine_depth = self.routine_depth.saturating_sub(1);
    }

    /// Whether execution is currently inside a kernel routine.
    pub fn in_routine(&self) -> bool {
        self.routine_depth > 0
    }

    /// Enters NMI context.
    pub fn enter_nmi(&mut self) {
        self.nmi_depth += 1;
    }

    /// Leaves NMI context.
    pub fn leave_nmi(&mut self) {
        self.nmi_depth = self.nmi_depth.saturating_sub(1);
    }

    /// Whether execution is in NMI context.
    pub fn in_nmi(&self) -> bool {
        self.nmi_depth > 0
    }

    /// The origin to stamp on reports raised right now.
    pub fn current_origin(&self) -> ReportOrigin {
        if self.in_routine() {
            ReportOrigin::KernelRoutine
        } else {
            ReportOrigin::ProgramAccess
        }
    }

    // ---- tracepoints -----------------------------------------------------

    /// Registers a program attachment to a tracepoint.
    pub fn tracepoint_attach(&mut self, tp: Tracepoint) {
        *self.tracepoint_consumers.entry(tp).or_insert(0) += 1;
    }

    /// Removes a program attachment.
    pub fn tracepoint_detach(&mut self, tp: Tracepoint) {
        if let Some(c) = self.tracepoint_consumers.get_mut(&tp) {
            *c = c.saturating_sub(1);
        }
    }

    /// Whether the tracepoint's static branch is enabled (any consumer).
    pub fn tracepoint_enabled(&self, tp: Tracepoint) -> bool {
        self.tracepoint_consumers.get(&tp).copied().unwrap_or(0) > 0
    }

    // ---- report helpers ---------------------------------------------------

    /// Records a KASAN report with the current origin.
    pub fn report_kasan(&mut self, bad: BadAccess, size: u64, is_write: bool) {
        let origin = self.current_origin();
        self.reports.record(KernelReport::Kasan {
            kind: bad.kind,
            addr: bad.bad_addr,
            size,
            is_write,
            origin,
        });
    }

    /// Records a KASAN report with an explicit origin (used by the
    /// `bpf_asan_*` sanitizing functions, whose accesses are *program*
    /// accesses even though the check runs in kernel code).
    pub fn report_kasan_origin(
        &mut self,
        bad: BadAccess,
        size: u64,
        is_write: bool,
        origin: ReportOrigin,
    ) {
        self.reports.record(KernelReport::Kasan {
            kind: bad.kind,
            addr: bad.bad_addr,
            size,
            is_write,
            origin,
        });
    }

    /// Records a page-fault oops (unchecked access to unmapped memory).
    pub fn report_page_fault(&mut self, addr: u64, is_write: bool) {
        let origin = self.current_origin();
        self.reports.record(KernelReport::PageFault {
            addr,
            is_write,
            origin,
        });
    }

    /// Acquires a kernel lock, reporting any lockdep violation.
    ///
    /// Returns `false` when the acquisition failed (the simulated kernel
    /// would have deadlocked).
    pub fn lock(&mut self, lock: LockId) -> bool {
        match self.lockdep.acquire(lock) {
            Ok(()) => true,
            Err(kind) => {
                let origin = self.current_origin();
                self.reports
                    .record(KernelReport::Lockdep { kind, lock, origin });
                false
            }
        }
    }

    /// Releases a kernel lock, reporting imbalance.
    pub fn unlock(&mut self, lock: LockId) {
        if let Err(kind) = self.lockdep.release(lock) {
            let origin = self.current_origin();
            self.reports
                .record(KernelReport::Lockdep { kind, lock, origin });
        }
    }

    /// Records a kernel panic.
    pub fn panic(&mut self, reason: impl Into<String>) {
        self.reports.record(KernelReport::Panic {
            reason: reason.into(),
        });
    }

    /// Records a kernel warning.
    pub fn warn(&mut self, reason: impl Into<String>) {
        self.reports.record(KernelReport::Warn {
            reason: reason.into(),
        });
    }

    /// Whether a given injected defect is present.
    pub fn has_bug(&self, bug: BugId) -> bool {
        self.bugs.has(bug)
    }

    /// Resets per-execution state (locks, contexts) between test runs and
    /// returns any reports accumulated so far.
    pub fn end_execution(&mut self) -> Vec<KernelReport> {
        if let Err(kind) = self.lockdep.check_exit() {
            self.reports.record(KernelReport::Lockdep {
                kind,
                lock: LockId::Runqueue,
                origin: ReportOrigin::KernelRoutine,
            });
        }
        self.routine_depth = 0;
        self.nmi_depth = 0;
        self.reports.drain()
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new(BugSet::none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::LockdepKind;

    #[test]
    fn boot_objects_allocated() {
        let k = Kernel::default();
        assert_ne!(k.current_task(), 0);
        assert_ne!(k.btf_object(btf_ids::FILE), 0);
        // The debug object is null this boot.
        assert_eq!(k.btf_object(btf_ids::DEBUG_OBJ), 0);
        // Unknown ids are null.
        assert_eq!(k.btf_object(999), 0);
    }

    #[test]
    fn current_task_fields_initialized() {
        let k = Kernel::default();
        let t = k.current_task();
        assert_eq!(k.mm.checked_read(t, 4).unwrap(), 1234);
        assert_eq!(k.mm.checked_read(t + 32, 8).unwrap(), t, "parent = self");
    }

    #[test]
    fn prandom_deterministic() {
        let mut a = Kernel::default();
        let mut b = Kernel::default();
        for _ in 0..16 {
            assert_eq!(a.prandom_u32(), b.prandom_u32());
        }
    }

    #[test]
    fn origin_tracks_routine_depth() {
        let mut k = Kernel::default();
        assert_eq!(k.current_origin(), ReportOrigin::ProgramAccess);
        k.enter_routine();
        assert_eq!(k.current_origin(), ReportOrigin::KernelRoutine);
        k.leave_routine();
        assert_eq!(k.current_origin(), ReportOrigin::ProgramAccess);
    }

    #[test]
    fn lock_violation_reported() {
        let mut k = Kernel::default();
        assert!(k.lock(LockId::Ringbuf));
        assert!(!k.lock(LockId::Ringbuf));
        let reports = k.end_execution();
        assert!(reports.iter().any(|r| matches!(
            r,
            KernelReport::Lockdep {
                kind: LockdepKind::RecursiveAcquire,
                ..
            }
        )));
        // Leak of the first acquisition is reported too.
        assert!(reports.iter().any(|r| matches!(
            r,
            KernelReport::Lockdep {
                kind: LockdepKind::HeldAtExit,
                ..
            }
        )));
    }

    #[test]
    fn tracepoint_consumers_counted() {
        let mut k = Kernel::default();
        assert!(!k.tracepoint_enabled(Tracepoint::ContentionBegin));
        k.tracepoint_attach(Tracepoint::ContentionBegin);
        k.tracepoint_attach(Tracepoint::ContentionBegin);
        assert!(k.tracepoint_enabled(Tracepoint::ContentionBegin));
        k.tracepoint_detach(Tracepoint::ContentionBegin);
        assert!(k.tracepoint_enabled(Tracepoint::ContentionBegin));
        k.tracepoint_detach(Tracepoint::ContentionBegin);
        assert!(!k.tracepoint_enabled(Tracepoint::ContentionBegin));
    }

    #[test]
    fn end_execution_resets_state() {
        let mut k = Kernel::default();
        k.enter_nmi();
        k.enter_routine();
        k.lock(LockId::IrqWork);
        let reports = k.end_execution();
        assert!(!reports.is_empty(), "leaked lock reported");
        assert!(!k.in_nmi());
        assert!(!k.in_routine());
        assert!(k.end_execution().is_empty());
    }
}
