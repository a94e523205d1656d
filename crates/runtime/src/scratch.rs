//! Reusable per-execution scratch: a booted kernel template and the
//! recycled kernel restored from it.
//!
//! A fuzzing campaign boots one simulated kernel per iteration, and the
//! paper's indicators are sound only because each scenario starts from a
//! fresh one. A full boot zeroes the whole pool and its KASAN shadow,
//! builds the BTF objects and the current task and creates the standard
//! maps, although a scenario writes only a few of the pool's pages.
//! [`ExecScratch`] boots that kernel once more, the *template*, and
//! restores the previous scenario's kernel from it instead
//! ([`Kernel::restore_from`]): only the pool and shadow pages written
//! since the last restore are copied back, and the small bookkeeping is
//! cloned. Recycling is invisible to every consumer — same bytes, same
//! poison, same addresses, same allocator decisions as a fresh boot.

use bvf_kernel_sim::map::MapDef;
use bvf_kernel_sim::{BugSet, Kernel};

use crate::bpf::Bpf;
use crate::interp::ExecTrace;

/// The boot inputs of the recycled kernel, and the template booted from
/// them when the first recycled kernel is restored.
#[derive(Debug)]
struct Template {
    pool_size: usize,
    maps: Vec<MapDef>,
    kernel: Option<Kernel>,
}

/// Reusable execution scratch: the kernel template, the recycled kernel
/// (whose pool holds the eBPF programs' stacks and spill slots) and the
/// concrete-trace step buffer.
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// The kernel every boot restores from, and what it was booted with.
    template: Option<Template>,
    /// The previous boot's kernel, handed back by [`ExecScratch::reclaim`].
    kernel: Option<Kernel>,
    /// Reusable concrete-trace buffer (differential-oracle ground truth).
    trace: ExecTrace,
}

impl ExecScratch {
    /// An empty scratch; nothing is booted until the first boot.
    pub fn new() -> ExecScratch {
        ExecScratch::default()
    }

    /// Boots a simulated kernel with a pool of `pool_size` bytes and one
    /// map per definition in `maps`, created in order after boot. The
    /// result is indistinguishable from [`Kernel::with_pool_size`]
    /// followed by one [`MapStore::create`] per definition.
    ///
    /// A recycled kernel is restored from the template, which is booted
    /// at the first restore. A full boot runs only then and when there is
    /// no recycled kernel: on first use, and after the pool size or the
    /// maps change, which drops both kernels. A kernel is booted rather
    /// than cloned from the template because a clone copies the whole
    /// pool into fresh memory, which costs far more than a boot on a new
    /// scratch (EXPERIMENTS.md E8). Boot and map creation never read the
    /// defect set, so `bugs` is stamped afterwards and kernels of every
    /// defect set share one template.
    ///
    /// [`MapStore::create`]: bvf_kernel_sim::map::MapStore::create
    pub fn boot(&mut self, bugs: BugSet, pool_size: usize, maps: &[MapDef]) -> Kernel {
        let current = self
            .template
            .as_ref()
            .is_some_and(|t| t.pool_size == pool_size && t.maps == maps);
        if !current {
            self.kernel = None;
            self.template = Some(Template {
                pool_size,
                maps: maps.to_vec(),
                kernel: None,
            });
        }
        let mut kernel = match self.kernel.take() {
            Some(mut kernel) => {
                let template = &mut self.template.as_mut().expect("set above").kernel;
                kernel.restore_from(template.get_or_insert_with(|| full_boot(pool_size, maps)));
                kernel
            }
            None => full_boot(pool_size, maps),
        };
        kernel.bugs = bugs;
        kernel
    }

    /// Boots a simulated kernel with no maps. The result is
    /// indistinguishable from [`Kernel::with_pool_size`] with the same
    /// arguments.
    pub fn boot_kernel(&mut self, bugs: BugSet, pool_size: usize) -> Kernel {
        self.boot(bugs, pool_size, &[])
    }

    /// Takes back the kernel of a finished [`Bpf`] instance, to be
    /// restored at the next boot. The kernel must come from this
    /// scratch's latest boot: one booted with another pool size or other
    /// maps would be restored from the wrong template.
    pub fn reclaim(&mut self, bpf: Bpf) {
        self.kernel = Some(bpf.kernel);
    }

    /// The trace buffer, cleared and ready to record a fresh execution.
    pub fn trace_mut(&mut self) -> &mut ExecTrace {
        self.trace.steps.clear();
        self.trace.truncated = false;
        &mut self.trace
    }
}

/// Boots a kernel with no defects, then creates one map per definition.
fn full_boot(pool_size: usize, maps: &[MapDef]) -> Kernel {
    let mut kernel = Kernel::with_pool_size(BugSet::none(), pool_size);
    for &def in maps {
        kernel
            .maps
            .create(&mut kernel.mm, def)
            .expect("the maps fit in the pool");
    }
    kernel
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_kernel_sim::kasan::POISON_FREED;
    use bvf_kernel_sim::lockdep::LockId;
    use bvf_kernel_sim::map::MapType;
    use bvf_kernel_sim::mem::{KERNEL_BASE, PAGE_SIZE};
    use bvf_kernel_sim::tracepoint::Tracepoint;
    use bvf_kernel_sim::KernelReport;
    use bvf_verifier::VerifierOpts;

    fn maps() -> Vec<MapDef> {
        vec![
            MapDef {
                map_type: MapType::Array,
                key_size: 4,
                value_size: 16,
                max_entries: 4,
            },
            MapDef {
                map_type: MapType::Hash,
                key_size: 8,
                value_size: 16,
                max_entries: 8,
            },
        ]
    }

    /// Uses a booted kernel the way a scenario can, and worse: the
    /// quarantine recycled, both maps updated, a tracepoint attached, a
    /// lock held, a report left undrained, then every page of the pool
    /// written raw and its shadow touched.
    fn dirty(kernel: Kernel) -> Bpf {
        let mut bpf = Bpf::with_kernel(kernel, VerifierOpts::default(), true);
        // Enough allocate/free rounds to push chunks out of quarantine
        // and back into use.
        for round in 0..200u64 {
            let a = bpf.kernel.mm.kmalloc(40).unwrap();
            bpf.kernel.mm.checked_write(a, 8, round).unwrap();
            assert!(bpf.kernel.mm.kfree(a));
        }
        bpf.kernel.mm.kvmalloc(4096).unwrap();
        bpf.map_update(0, &1u32.to_le_bytes(), &[0xaa; 16]).unwrap();
        bpf.map_update(1, &7u64.to_le_bytes(), &[0xbb; 16]).unwrap();
        let k = &mut bpf.kernel;
        k.tracepoint_attach(Tracepoint::ContentionBegin);
        k.lock(LockId::Ringbuf);
        k.enter_routine();
        k.enter_nmi();
        k.irq_work_pending += 1;
        k.warn("left undrained");
        k.prandom_u32();
        k.ktime_get_ns();
        // Raw writes outside any allocation, into every page, and a
        // granule of shadow per page; then a write straddling two pages.
        for page in 0..k.mm.pool.len() / PAGE_SIZE {
            let off = page * PAGE_SIZE + 40;
            assert!(k.mm.pool.raw_write(KERNEL_BASE + off as u64, 8, !0));
            k.mm.shadow.poison(page * PAGE_SIZE + 64, 8, POISON_FREED);
        }
        assert!(k
            .mm
            .pool
            .raw_write(KERNEL_BASE + PAGE_SIZE as u64 - 4, 8, !0));
        bpf
    }

    fn assert_identical(recycled: &mut Kernel, fresh: &mut Kernel, what: &str) {
        let len = fresh.mm.pool.len();
        assert_eq!(recycled.mm.pool.len(), len, "{what}: pool size");
        assert!(
            recycled.mm.pool.read_bytes(0, len) == fresh.mm.pool.read_bytes(0, len),
            "{what}: pool bytes differ"
        );
        for off in (0..len).step_by(8) {
            assert_eq!(
                recycled.mm.shadow.shadow_at(off),
                fresh.mm.shadow.shadow_at(off),
                "{what}: shadow differs at offset {off}"
            );
        }
        assert_eq!(recycled.mm.free_bytes(), fresh.mm.free_bytes(), "{what}");
        assert_eq!(recycled.mm.live_allocs(), fresh.mm.live_allocs(), "{what}");
        assert_eq!(recycled.current_task(), fresh.current_task(), "{what}");
        assert_eq!(recycled.bugs, fresh.bugs, "{what}");
        assert_eq!(recycled.maps.len(), fresh.maps.len(), "{what}");
        assert_eq!(recycled.time_ns, fresh.time_ns, "{what}");
        assert_eq!(recycled.irq_work_pending, 0, "{what}");
        assert!(!recycled.in_routine() && !recycled.in_nmi(), "{what}");
        assert_eq!(recycled.prandom_u32(), fresh.prandom_u32(), "{what}");
        assert!(
            !recycled.tracepoint_enabled(Tracepoint::ContentionBegin),
            "{what}: tracepoint still attached"
        );
        assert_eq!(
            recycled.end_execution(),
            Vec::<KernelReport>::new(),
            "{what}"
        );
        for _ in 0..16 {
            assert_eq!(
                recycled.mm.kmalloc(48),
                fresh.mm.kmalloc(48),
                "{what}: next kmalloc"
            );
        }
    }

    #[test]
    fn recycled_kernel_is_bit_identical_to_fresh() {
        let pool_size = 1 << 16;
        let maps = maps();
        let mut scratch = ExecScratch::new();
        for bugs in [BugSet::none(), BugSet::all()] {
            // Twice per defect set: the first recycle restores a clone of
            // the template, the second a kernel restored once already.
            for round in 0..2 {
                let kernel = scratch.boot(bugs.clone(), pool_size, &maps);
                scratch.reclaim(dirty(kernel));
                let mut recycled = scratch.boot(bugs.clone(), pool_size, &maps);
                let mut fresh = Kernel::with_pool_size(bugs.clone(), pool_size);
                for &def in &maps {
                    fresh.maps.create(&mut fresh.mm, def).unwrap();
                }
                assert_identical(
                    &mut recycled,
                    &mut fresh,
                    &format!("{bugs:?} round {round}"),
                );
                scratch.reclaim(Bpf::with_kernel(recycled, VerifierOpts::default(), true));
            }
        }
    }

    #[test]
    fn boot_kernel_is_a_fresh_boot_without_maps() {
        let mut scratch = ExecScratch::new();
        // A template with maps first: `boot_kernel` must replace it.
        let kernel = scratch.boot(BugSet::none(), 1 << 16, &maps());
        scratch.reclaim(dirty(kernel));
        let mut recycled = scratch.boot_kernel(BugSet::all(), 1 << 16);
        let mut fresh = Kernel::with_pool_size(BugSet::all(), 1 << 16);
        assert_identical(&mut recycled, &mut fresh, "boot_kernel");
    }

    #[test]
    fn trace_buffer_is_cleared_between_uses() {
        let mut scratch = ExecScratch::new();
        scratch.trace.steps.push(crate::interp::TraceStep {
            pc: 3,
            regs: [1; 11],
        });
        scratch.trace.truncated = true;
        let t = scratch.trace_mut();
        assert!(t.steps.is_empty());
        assert!(!t.truncated);
    }
}
