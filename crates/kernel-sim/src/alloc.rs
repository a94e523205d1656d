//! Kernel memory manager: allocator, redzones, quarantine, and the
//! checked/raw access split.
//!
//! The allocator hands out chunks from the memory pool with KASAN redzones
//! on both sides and delayed reuse (quarantine), so use-after-free and
//! linear overflows of *kernel-side* objects (map values, contexts,
//! stacks, helper buffers) are observable through the shadow.
//!
//! `kmalloc` has a maximum allocation size, like the slab allocator;
//! `kvmalloc` falls back to a larger "vmalloc" limit. Bug #8 of the paper
//! (misuse of `kmemdup` for duplicating rewritten instructions) hinges on
//! exactly this difference.

use crate::kasan::{Shadow, POISON_FREED, POISON_REDZONE};
use crate::mem::{MemPool, Translation, KERNEL_BASE};
use crate::report::KasanKind;
use crate::sandefect::{SanDefect, SanDefectSet};

/// Redzone size on each side of an allocation.
pub const REDZONE: usize = 16;

/// Maximum size serviced by [`Mm::kmalloc`] (the slab cap of the simulated
/// kernel; real kernels use `KMALLOC_MAX_CACHE_SIZE`).
pub const KMALLOC_MAX_SIZE: usize = 2048;

/// Maximum size serviced by [`Mm::kvmalloc`].
pub const KVMALLOC_MAX_SIZE: usize = 1 << 18;

/// Number of freed chunks held in quarantine before reuse.
const QUARANTINE_DEPTH: usize = 64;

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Request exceeds the allocator-specific size cap.
    TooLarge,
    /// The pool is exhausted.
    OutOfMemory,
}

#[derive(Debug, Clone, Copy)]
struct Chunk {
    /// Pool offset of the user data (inside the redzones).
    data_off: usize,
    /// Requested size.
    size: usize,
    /// Pool offset of the whole chunk (leading redzone).
    chunk_off: usize,
    /// Whole chunk length.
    chunk_len: usize,
}

/// The memory manager: pool + shadow + allocator bookkeeping.
#[derive(Debug, Clone)]
pub struct Mm {
    /// The physical pool.
    pub pool: MemPool,
    /// The KASAN shadow.
    pub shadow: Shadow,
    /// Live allocations keyed by data offset.
    live: std::collections::BTreeMap<usize, Chunk>,
    /// Free spans `(offset, len)`, kept sorted and coalesced.
    free: Vec<(usize, usize)>,
    /// Freed chunks awaiting reuse.
    quarantine: std::collections::VecDeque<Chunk>,
    /// Sanitizer defects armed in this kernel build (`bvf-sancheck`
    /// matrix); empty outside sanitizer self-validation runs.
    pub san_defects: SanDefectSet,
}

impl Mm {
    /// Creates a memory manager over a fresh pool of `pool_size` bytes.
    pub fn new(pool_size: usize) -> Mm {
        let pool = MemPool::new(pool_size);
        let len = pool.len();
        Mm {
            pool,
            shadow: Shadow::new(len),
            live: std::collections::BTreeMap::new(),
            free: vec![(0, len)],
            quarantine: std::collections::VecDeque::new(),
            san_defects: SanDefectSet::none(),
        }
    }

    /// Makes this memory manager indistinguishable from a clone of
    /// `template`, one of the same pool size: the pool and shadow copy
    /// back only the pages written since the last restore, and the
    /// allocator bookkeeping is cloned. Exact as long as the two differ
    /// only in pages `self` wrote since it was created equal to
    /// `template` or last restored from it.
    pub fn restore_from(&mut self, template: &Mm) {
        let Mm {
            pool,
            shadow,
            live,
            free,
            quarantine,
            san_defects,
        } = self;
        pool.restore_from(&template.pool);
        shadow.restore_from(&template.shadow);
        live.clone_from(&template.live);
        free.clone_from(&template.free);
        quarantine.clone_from(&template.quarantine);
        san_defects.clone_from(&template.san_defects);
    }

    fn carve(&mut self, chunk_len: usize) -> Option<(usize, usize)> {
        for i in 0..self.free.len() {
            let (off, len) = self.free[i];
            if len >= chunk_len {
                if len == chunk_len {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + chunk_len, len - chunk_len);
                }
                return Some((off, chunk_len));
            }
        }
        None
    }

    fn release(&mut self, off: usize, len: usize) {
        self.free.push((off, len));
        self.free.sort_unstable();
        // Coalesce adjacent spans.
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(self.free.len());
        for &(o, l) in &self.free {
            if let Some(last) = merged.last_mut() {
                if last.0 + last.1 == o {
                    last.1 += l;
                    continue;
                }
            }
            merged.push((o, l));
        }
        self.free = merged;
    }

    fn alloc_inner(&mut self, size: usize) -> Result<u64, AllocError> {
        let data_len = size.next_multiple_of(8).max(8);
        let chunk_len = REDZONE + data_len + REDZONE;
        let (chunk_off, chunk_len) = loop {
            if let Some(got) = self.carve(chunk_len) {
                break got;
            }
            // Try to recycle the quarantine before giving up.
            if let Some(old) = self.quarantine.pop_front() {
                self.release(old.chunk_off, old.chunk_len);
            } else {
                return Err(AllocError::OutOfMemory);
            }
        };
        let data_off = chunk_off + REDZONE;
        self.shadow.poison(chunk_off, REDZONE, POISON_REDZONE);
        self.shadow.unpoison(data_off, size);
        // Poison the alignment tail plus trailing redzone.
        let tail_off = data_off + size.next_multiple_of(8);
        if size.is_multiple_of(8) {
            self.shadow
                .poison(tail_off, chunk_off + chunk_len - tail_off, POISON_REDZONE);
        } else {
            // The partial granule already encodes the prefix; poison from
            // the next granule on.
            let g = tail_off;
            self.shadow
                .poison(g, chunk_off + chunk_len - g, POISON_REDZONE);
        }
        self.pool.zero(data_off, data_len);
        self.live.insert(
            data_off,
            Chunk {
                data_off,
                size,
                chunk_off,
                chunk_len,
            },
        );
        Ok(KERNEL_BASE + data_off as u64)
    }

    /// Slab allocation: fails with [`AllocError::TooLarge`] past the cap.
    pub fn kmalloc(&mut self, size: usize) -> Result<u64, AllocError> {
        if size == 0 || size > KMALLOC_MAX_SIZE {
            return Err(AllocError::TooLarge);
        }
        self.alloc_inner(size)
    }

    /// kvmalloc: slab for small sizes, "vmalloc" fallback for large ones.
    pub fn kvmalloc(&mut self, size: usize) -> Result<u64, AllocError> {
        if size == 0 || size > KVMALLOC_MAX_SIZE {
            return Err(AllocError::TooLarge);
        }
        self.alloc_inner(size)
    }

    /// Duplicates a byte slice into a fresh `kmalloc` allocation.
    pub fn kmemdup(&mut self, data: &[u8]) -> Result<u64, AllocError> {
        let addr = self.kmalloc(data.len())?;
        self.pool.write_bytes((addr - KERNEL_BASE) as usize, data);
        Ok(addr)
    }

    /// Duplicates a byte slice into a fresh `kvmalloc` allocation — the
    /// primitive the paper's patch for bug #8 introduced.
    pub fn kvmemdup(&mut self, data: &[u8]) -> Result<u64, AllocError> {
        let addr = self.kvmalloc(data.len())?;
        self.pool.write_bytes((addr - KERNEL_BASE) as usize, data);
        Ok(addr)
    }

    /// Frees an allocation; the chunk is poisoned and quarantined.
    ///
    /// Returns `false` for an invalid free (unknown address).
    pub fn kfree(&mut self, addr: u64) -> bool {
        let Some(off) = self.data_offset(addr) else {
            return false;
        };
        let Some(chunk) = self.live.remove(&off) else {
            return false;
        };
        // Injected defect: the free path forgets to repoison the shadow,
        // leaving the freed chunk readable through the sanitizer.
        if !self.san_defects.has(SanDefect::StaleShadowFree) {
            self.shadow
                .poison(chunk.data_off, chunk.size.next_multiple_of(8), POISON_FREED);
        }
        self.quarantine.push_back(chunk);
        while self.quarantine.len() > QUARANTINE_DEPTH {
            let old = self.quarantine.pop_front().expect("non-empty");
            self.release(old.chunk_off, old.chunk_len);
        }
        true
    }

    fn data_offset(&self, addr: u64) -> Option<usize> {
        if addr < KERNEL_BASE {
            return None;
        }
        let off = (addr - KERNEL_BASE) as usize;
        if off >= self.pool.len() {
            return None;
        }
        Some(off)
    }

    /// Size of the live allocation starting at `addr`, if any.
    pub fn alloc_size(&self, addr: u64) -> Option<usize> {
        self.live.get(&self.data_offset(addr)?).map(|c| c.size)
    }

    /// KASAN-checked read, as performed by instrumented kernel code.
    pub fn checked_read(&self, addr: u64, size: u64) -> Result<u64, crate::kasan::BadAccess> {
        self.shadow.check(&self.pool, addr, size)?;
        Ok(self
            .pool
            .raw_read(addr, size)
            .expect("checked access is in pool"))
    }

    /// KASAN-checked write, as performed by instrumented kernel code.
    pub fn checked_write(
        &mut self,
        addr: u64,
        size: u64,
        value: u64,
    ) -> Result<(), crate::kasan::BadAccess> {
        self.shadow.check(&self.pool, addr, size)?;
        assert!(self.pool.raw_write(addr, size, value));
        Ok(())
    }

    /// KASAN check only, without performing the access; used by the
    /// `bpf_asan_*` sanitizing functions before the real (raw) access runs.
    pub fn kasan_check(&self, addr: u64, size: u64) -> Result<(), crate::kasan::BadAccess> {
        self.shadow.check(&self.pool, addr, size)
    }

    /// Classification helper for raw (unchecked) access faults.
    pub fn fault_kind(&self, addr: u64) -> KasanKind {
        match self.pool.translate(addr, 1) {
            Translation::NullPage => KasanKind::NullDeref,
            _ => KasanKind::WildAccess,
        }
    }

    /// Total bytes currently free (for tests and diagnostics).
    pub fn free_bytes(&self) -> usize {
        self.free.iter().map(|(_, l)| l).sum()
    }

    /// Number of live allocations.
    pub fn live_allocs(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_grants_exactly_requested_bytes() {
        let mut mm = Mm::new(1 << 16);
        let addr = mm.kmalloc(24).unwrap();
        assert!(mm.checked_read(addr, 8).is_ok());
        assert!(mm.checked_read(addr + 16, 8).is_ok());
        // One byte past the end hits the redzone.
        let err = mm.checked_read(addr + 24, 1).unwrap_err();
        assert_eq!(err.kind, KasanKind::Redzone);
        // Before the start likewise.
        let err = mm.checked_read(addr - 1, 1).unwrap_err();
        assert_eq!(err.kind, KasanKind::Redzone);
    }

    #[test]
    fn unaligned_size_tail_is_redzoned() {
        let mut mm = Mm::new(1 << 16);
        let addr = mm.kmalloc(13).unwrap();
        assert!(mm.checked_read(addr + 12, 1).is_ok());
        let err = mm.checked_read(addr + 13, 1).unwrap_err();
        assert_eq!(err.kind, KasanKind::Redzone);
    }

    #[test]
    fn use_after_free_detected() {
        let mut mm = Mm::new(1 << 16);
        let addr = mm.kmalloc(64).unwrap();
        assert!(mm.kfree(addr));
        let err = mm.checked_read(addr, 8).unwrap_err();
        assert_eq!(err.kind, KasanKind::UseAfterFree);
    }

    #[test]
    fn quarantine_delays_reuse() {
        let mut mm = Mm::new(1 << 16);
        let a = mm.kmalloc(64).unwrap();
        mm.kfree(a);
        let b = mm.kmalloc(64).unwrap();
        assert_ne!(a, b, "freed chunk must not be immediately reused");
    }

    #[test]
    fn invalid_free_rejected() {
        let mut mm = Mm::new(1 << 16);
        assert!(!mm.kfree(KERNEL_BASE + 100));
        assert!(!mm.kfree(0));
        let a = mm.kmalloc(16).unwrap();
        assert!(!mm.kfree(a + 8), "interior pointer free rejected");
        assert!(mm.kfree(a));
        assert!(!mm.kfree(a), "double free rejected");
    }

    #[test]
    fn kmalloc_size_cap() {
        let mut mm = Mm::new(1 << 20);
        assert_eq!(mm.kmalloc(KMALLOC_MAX_SIZE + 1), Err(AllocError::TooLarge));
        assert!(mm.kmalloc(KMALLOC_MAX_SIZE).is_ok());
        assert!(mm.kvmalloc(KMALLOC_MAX_SIZE + 1).is_ok());
        assert_eq!(mm.kmalloc(0), Err(AllocError::TooLarge));
    }

    #[test]
    fn kmemdup_copies_content() {
        let mut mm = Mm::new(1 << 16);
        let data = [1u8, 2, 3, 4, 5];
        let addr = mm.kmemdup(&data).unwrap();
        for (i, b) in data.iter().enumerate() {
            assert_eq!(mm.checked_read(addr + i as u64, 1).unwrap(), *b as u64);
        }
    }

    #[test]
    fn out_of_memory_after_exhaustion() {
        let mut mm = Mm::new(4096);
        let mut addrs = Vec::new();
        loop {
            match mm.kmalloc(512) {
                Ok(a) => addrs.push(a),
                Err(e) => {
                    assert_eq!(e, AllocError::OutOfMemory);
                    break;
                }
            }
        }
        assert!(!addrs.is_empty());
        // Freeing makes memory usable again (after quarantine drain).
        for a in addrs {
            assert!(mm.kfree(a));
        }
        assert!(mm.kmalloc(512).is_ok());
    }

    #[test]
    fn alloc_is_zeroed_even_after_reuse() {
        let mut mm = Mm::new(8192);
        let a = mm.kmalloc(64).unwrap();
        mm.checked_write(a, 8, 0xdead_beef).unwrap();
        mm.kfree(a);
        // Exhaust quarantine so the chunk gets reused.
        for _ in 0..200 {
            if let Ok(x) = mm.kmalloc(64) {
                assert_eq!(mm.checked_read(x, 8).unwrap(), 0, "fresh memory is zeroed");
                mm.kfree(x);
            }
        }
    }

    #[test]
    fn raw_access_bypasses_shadow() {
        // The property the whole paper rests on: unchecked program access
        // into a redzone or freed chunk succeeds silently.
        let mut mm = Mm::new(1 << 16);
        let a = mm.kmalloc(16).unwrap();
        assert!(
            mm.pool.raw_write(a + 16, 8, 7),
            "redzone write succeeds raw"
        );
        assert_eq!(mm.pool.raw_read(a + 16, 8), Some(7));
        assert!(mm.kasan_check(a + 16, 8).is_err(), "but shadow sees it");
    }
}
