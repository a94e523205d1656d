//! Simulated physical memory pool and kernel address space.
//!
//! The simulated kernel owns one contiguous pool of bytes mapped at
//! [`KERNEL_BASE`], standing in for the kernel linear map. Two access
//! disciplines exist, mirroring the distinction the paper's sanitation
//! relies on:
//!
//! - **Raw access** ([`MemPool::raw_read`] / [`MemPool::raw_write`]) is
//!   what JITed eBPF programs do: no instrumentation, no shadow check. An
//!   in-pool access always succeeds — even into redzones or freed memory
//!   (silent corruption). An out-of-pool access is a hard page fault.
//! - **Checked access** goes through the KASAN shadow (see
//!   [`crate::kasan`]) and is what compiled-with-KASAN kernel routines —
//!   including BVF's `bpf_asan_*` sanitizing functions — do.
//!
//! The pool's bytes are private, so its methods are the only writers.
//! Each marks the [`PAGE_SIZE`] pages it writes, and
//! [`MemPool::restore_from`] copies back only those pages from a booted
//! template: that is how a recycled kernel becomes bit-identical to a
//! fresh boot without touching the rest of the pool.

/// Base virtual address of the simulated kernel linear map.
pub const KERNEL_BASE: u64 = 0xffff_8880_0000_0000;

/// Size of the null guard page: accesses below this address are null
/// dereferences.
pub const NULL_PAGE_SIZE: u64 = 0x1000;

/// Default pool size (1 MiB).
pub const DEFAULT_POOL_SIZE: usize = 1 << 20;

/// Size of a pool page, the unit of dirty tracking and restore.
pub const PAGE_SIZE: usize = 4096;

/// Result of translating a virtual address against the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translation {
    /// The address maps into the pool at the given byte offset.
    Pool(usize),
    /// The address is in the null page.
    NullPage,
    /// The address is unmapped.
    Unmapped,
}

/// One bit per [`PAGE_SIZE`] page of a pool: the pages written since
/// the last restore. [`MemPool`] and the KASAN shadow each keep one.
#[derive(Debug, Clone)]
pub(crate) struct DirtyPages {
    words: Vec<u64>,
}

impl DirtyPages {
    /// A clean set for a pool of `pool_len` bytes.
    pub(crate) fn new(pool_len: usize) -> DirtyPages {
        DirtyPages {
            words: vec![0; pool_len.div_ceil(PAGE_SIZE).div_ceil(64)],
        }
    }

    /// Marks every page that pool bytes `[off, off + len)` touch.
    #[inline]
    pub(crate) fn mark(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        for page in off / PAGE_SIZE..=(off + len - 1) / PAGE_SIZE {
            self.words[page / 64] |= 1 << (page % 64);
        }
    }

    /// Copies every marked page from `src` into `dst`, two buffers of
    /// the same length holding `page_len` elements per pool page, and
    /// clears the marks.
    pub(crate) fn restore<T: Copy>(&mut self, dst: &mut [T], src: &[T], page_len: usize) {
        assert_eq!(
            dst.len(),
            src.len(),
            "restore from a template of another size"
        );
        for (i, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let start = (i * 64 + bits.trailing_zeros() as usize) * page_len;
                let end = (start + page_len).min(src.len());
                dst[start..end].copy_from_slice(&src[start..end]);
                bits &= bits - 1;
            }
        }
    }

    /// Whether `page` is marked.
    #[cfg(test)]
    pub(crate) fn has(&self, page: usize) -> bool {
        self.words[page / 64] & (1 << (page % 64)) != 0
    }
}

/// The simulated physical memory pool.
#[derive(Debug, Clone)]
pub struct MemPool {
    bytes: Vec<u8>,
    /// Pages written since the last [`MemPool::restore_from`].
    dirty: DirtyPages,
}

impl MemPool {
    /// Creates a zeroed pool of the given size (rounded up to 8 bytes).
    pub fn new(size: usize) -> MemPool {
        let size = size.next_multiple_of(8);
        MemPool {
            bytes: vec![0; size],
            dirty: DirtyPages::new(size),
        }
    }

    /// Makes the pool equal to `template`, a pool of the same size, byte
    /// for byte, by copying back only the pages written since the last
    /// restore. Exact as long as the two differ only in pages this pool
    /// wrote since it was created equal to `template` or last restored
    /// from it.
    pub fn restore_from(&mut self, template: &MemPool) {
        self.dirty
            .restore(&mut self.bytes, &template.bytes, PAGE_SIZE);
    }

    /// Pool size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the pool is empty (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Translates a virtual address (for an access of `size` bytes).
    #[inline]
    pub fn translate(&self, addr: u64, size: u64) -> Translation {
        if addr < NULL_PAGE_SIZE {
            return Translation::NullPage;
        }
        let end = match addr.checked_add(size) {
            Some(e) => e,
            None => return Translation::Unmapped,
        };
        if addr >= KERNEL_BASE && end <= KERNEL_BASE + self.bytes.len() as u64 {
            Translation::Pool((addr - KERNEL_BASE) as usize)
        } else {
            Translation::Unmapped
        }
    }

    /// Raw (uninstrumented) read of `size` ∈ {1,2,4,8} bytes, little-endian.
    ///
    /// Returns `None` on a page fault (unmapped or null address).
    ///
    /// Inlined: this is the raw program load path the interpreter sits
    /// on, hot enough that the call overhead shows up in execution
    /// throughput.
    #[inline]
    pub fn raw_read(&self, addr: u64, size: u64) -> Option<u64> {
        match self.translate(addr, size) {
            Translation::Pool(off) => Some(self.read_at(off, size)),
            _ => None,
        }
    }

    /// Raw (uninstrumented) write of `size` ∈ {1,2,4,8} bytes, little-endian.
    ///
    /// Returns `false` on a page fault. Inlined for the same reason as
    /// [`MemPool::raw_read`].
    #[inline]
    pub fn raw_write(&mut self, addr: u64, size: u64, value: u64) -> bool {
        match self.translate(addr, size) {
            Translation::Pool(off) => {
                self.write_at(off, size, value);
                true
            }
            _ => false,
        }
    }

    /// Reads little-endian at a pool offset; `size` ∈ {1,2,4,8}.
    #[inline]
    pub fn read_at(&self, off: usize, size: u64) -> u64 {
        // Whole-width fast path: `translate` already bounds-checked
        // `off + size`, so the slice index cannot fail. Identical
        // little-endian result to the byte loop below.
        if size == 8 {
            if let Ok(b) = <[u8; 8]>::try_from(&self.bytes[off..off + 8]) {
                return u64::from_le_bytes(b);
            }
        }
        let mut v: u64 = 0;
        for i in 0..size as usize {
            v |= (self.bytes[off + i] as u64) << (8 * i);
        }
        v
    }

    /// Writes little-endian at a pool offset; `size` ∈ {1,2,4,8}.
    #[inline]
    pub fn write_at(&mut self, off: usize, size: u64, value: u64) {
        self.dirty.mark(off, size as usize);
        if size == 8 {
            self.bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        for i in 0..size as usize {
            self.bytes[off + i] = (value >> (8 * i)) as u8;
        }
    }

    /// Copies bytes out of the pool.
    pub fn read_bytes(&self, off: usize, len: usize) -> &[u8] {
        &self.bytes[off..off + len]
    }

    /// Copies bytes into the pool.
    pub fn write_bytes(&mut self, off: usize, data: &[u8]) {
        self.dirty.mark(off, data.len());
        self.bytes[off..off + data.len()].copy_from_slice(data);
    }

    /// Zero-fills a pool range.
    pub fn zero(&mut self, off: usize, len: usize) {
        self.dirty.mark(off, len);
        self.bytes[off..off + len].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_classifies_addresses() {
        let pool = MemPool::new(4096);
        assert_eq!(pool.translate(0, 8), Translation::NullPage);
        assert_eq!(pool.translate(8, 8), Translation::NullPage);
        assert_eq!(pool.translate(0x2000, 8), Translation::Unmapped);
        assert_eq!(pool.translate(KERNEL_BASE, 8), Translation::Pool(0));
        assert_eq!(
            pool.translate(KERNEL_BASE + 4088, 8),
            Translation::Pool(4088)
        );
        // Access straddling the end of the pool is unmapped.
        assert_eq!(pool.translate(KERNEL_BASE + 4089, 8), Translation::Unmapped);
        // Address overflow is unmapped, not a panic.
        assert_eq!(pool.translate(u64::MAX - 3, 8), Translation::Unmapped);
    }

    #[test]
    fn raw_read_write_roundtrip() {
        let mut pool = MemPool::new(4096);
        let addr = KERNEL_BASE + 128;
        assert!(pool.raw_write(addr, 8, 0x1122_3344_5566_7788));
        assert_eq!(pool.raw_read(addr, 8), Some(0x1122_3344_5566_7788));
        assert_eq!(pool.raw_read(addr, 4), Some(0x5566_7788));
        assert_eq!(pool.raw_read(addr, 2), Some(0x7788));
        assert_eq!(pool.raw_read(addr, 1), Some(0x88));
        assert_eq!(pool.raw_read(addr + 4, 4), Some(0x1122_3344));
    }

    #[test]
    fn raw_access_faults_outside_pool() {
        let mut pool = MemPool::new(4096);
        assert_eq!(pool.raw_read(0x10, 8), None);
        assert!(!pool.raw_write(0x10, 8, 1));
        assert_eq!(pool.raw_read(KERNEL_BASE + 4096, 1), None);
    }

    type Writer = fn(&mut MemPool, usize);

    /// Every pool writer, each writing 8 bytes at pool offset `off`.
    const WRITERS: [(&str, Writer); 4] = [
        ("raw_write", |p, off| {
            assert!(p.raw_write(KERNEL_BASE + off as u64, 8, u64::MAX))
        }),
        ("write_at", |p, off| p.write_at(off, 8, u64::MAX)),
        ("write_bytes", |p, off| p.write_bytes(off, &[0xff; 8])),
        ("zero", |p, off| p.zero(off, 8)),
    ];

    fn marked(pool: &MemPool) -> Vec<usize> {
        (0..pool.len().div_ceil(PAGE_SIZE))
            .filter(|&p| pool.dirty.has(p))
            .collect()
    }

    #[test]
    fn each_writer_marks_the_pages_it_writes() {
        for (name, write) in WRITERS {
            let mut pool = MemPool::new(4 * PAGE_SIZE);
            write(&mut pool, 2 * PAGE_SIZE + 16);
            assert_eq!(marked(&pool), [2], "{name} inside page 2");
            let mut pool = MemPool::new(4 * PAGE_SIZE);
            write(&mut pool, 3 * PAGE_SIZE - 4);
            assert_eq!(marked(&pool), [2, 3], "{name} straddling pages 2 and 3");
        }
        let mut pool = MemPool::new(4 * PAGE_SIZE);
        pool.write_bytes(PAGE_SIZE, &[]);
        assert!(marked(&pool).is_empty(), "an empty write marks nothing");
    }

    #[test]
    fn restore_undoes_every_writer() {
        // A partial last page, and no zero byte for `zero` to hide behind.
        let len = 4 * PAGE_SIZE + 8;
        let mut template = MemPool::new(len);
        let pattern: Vec<u8> = (0..len).map(|i| (i % 251) as u8 + 1).collect();
        template.write_bytes(0, &pattern);
        for (name, write) in WRITERS {
            let mut pool = template.clone();
            pool.restore_from(&template);
            assert!(marked(&pool).is_empty(), "{name}: restore clears the marks");
            for off in [16, 3 * PAGE_SIZE - 4, len - 8] {
                write(&mut pool, off);
            }
            assert_ne!(pool.read_bytes(0, len), template.read_bytes(0, len));
            pool.restore_from(&template);
            assert_eq!(pool.read_bytes(0, len), &pattern[..], "{name}");
            assert!(marked(&pool).is_empty(), "{name}: restore clears the marks");
        }
    }

    #[test]
    fn raw_access_inside_pool_ignores_allocation_state() {
        // This is the crucial "JITed code is unchecked" property.
        let mut pool = MemPool::new(4096);
        assert!(pool.raw_write(KERNEL_BASE + 1000, 8, 42));
        assert_eq!(pool.raw_read(KERNEL_BASE + 1000, 8), Some(42));
    }
}
