//! KASAN-style shadow memory.
//!
//! One shadow byte covers an 8-byte granule of the pool, exactly like the
//! generic KASAN mode: `0` means all eight bytes are addressable, `1..=7`
//! means only the first N bytes are, and negative values are poison tags
//! describing *why* the granule is inaccessible. The sanitizing functions
//! introduced by BVF's kernel patches consult this shadow before touching
//! memory; so do all simulated kernel routines (which are "compiled with
//! KASAN").

use crate::mem::{DirtyPages, MemPool, Translation, KERNEL_BASE, PAGE_SIZE};
use crate::report::KasanKind;

/// Granule size covered by one shadow byte.
pub const GRANULE: usize = 8;

/// Poison tag: memory that was never allocated.
pub const POISON_UNALLOCATED: i8 = -1;
/// Poison tag: redzone around an allocation.
pub const POISON_REDZONE: i8 = -2;
/// Poison tag: freed allocation.
pub const POISON_FREED: i8 = -3;
/// Poison tag: unused part of an eBPF stack guard area.
pub const POISON_STACK_GUARD: i8 = -4;

/// The shadow map over the memory pool.
#[derive(Debug, Clone)]
pub struct Shadow {
    bytes: Vec<i8>,
    /// Pool pages whose shadow was written since the last
    /// [`Shadow::restore_from`].
    dirty: DirtyPages,
}

/// A diagnosed invalid access: classification plus first bad address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadAccess {
    /// Access classification.
    pub kind: KasanKind,
    /// First invalid byte address.
    pub bad_addr: u64,
}

impl Shadow {
    /// Creates a shadow for a pool of `pool_size` bytes, fully poisoned as
    /// unallocated.
    pub fn new(pool_size: usize) -> Shadow {
        Shadow {
            bytes: vec![POISON_UNALLOCATED; pool_size.div_ceil(GRANULE)],
            dirty: DirtyPages::new(pool_size),
        }
    }

    /// Makes the shadow equal to `template`, the shadow of a pool of the
    /// same size, by copying back only the pages written since the last
    /// restore, as [`MemPool::restore_from`] does for the pool.
    pub fn restore_from(&mut self, template: &Shadow) {
        self.dirty
            .restore(&mut self.bytes, &template.bytes, PAGE_SIZE / GRANULE);
    }

    /// Marks `[off, off+len)` addressable.
    ///
    /// `off` must be granule-aligned; a trailing partial granule is encoded
    /// with its valid prefix length, as in real KASAN.
    pub fn unpoison(&mut self, off: usize, len: usize) {
        debug_assert_eq!(off % GRANULE, 0);
        self.dirty.mark(off, len);
        let mut g = off / GRANULE;
        let mut remaining = len;
        while remaining >= GRANULE {
            self.bytes[g] = 0;
            g += 1;
            remaining -= GRANULE;
        }
        if remaining > 0 {
            self.bytes[g] = remaining as i8;
        }
    }

    /// Poisons `[off, off+len)` with the given tag; granule-aligned range.
    pub fn poison(&mut self, off: usize, len: usize, tag: i8) {
        debug_assert!(tag < 0);
        debug_assert_eq!(off % GRANULE, 0);
        self.dirty.mark(off, len);
        for g in off / GRANULE..(off + len).div_ceil(GRANULE) {
            self.bytes[g] = tag;
        }
    }

    /// Returns the shadow byte covering pool offset `off`.
    pub fn shadow_at(&self, off: usize) -> i8 {
        self.bytes[off / GRANULE]
    }

    /// Checks whether the single byte at pool offset `off` is addressable.
    fn byte_ok(&self, off: usize) -> Result<(), i8> {
        let s = self.bytes[off / GRANULE];
        if s == 0 {
            return Ok(());
        }
        if s > 0 && (off % GRANULE) < s as usize {
            return Ok(());
        }
        Err(if s > 0 { POISON_REDZONE } else { s })
    }

    /// Checks an access of `size` bytes at virtual address `addr`.
    ///
    /// Returns `Ok(())` for a fully addressable access and the diagnosis of
    /// the first invalid byte otherwise. Addresses outside the pool are
    /// classified here too ([`KasanKind::NullDeref`] / [`KasanKind::WildAccess`]),
    /// since the sanitizing functions see the raw target address.
    pub fn check(&self, pool: &MemPool, addr: u64, size: u64) -> Result<(), BadAccess> {
        match pool.translate(addr, size) {
            Translation::NullPage => Err(BadAccess {
                kind: KasanKind::NullDeref,
                bad_addr: addr,
            }),
            Translation::Unmapped => Err(BadAccess {
                kind: KasanKind::WildAccess,
                bad_addr: addr,
            }),
            Translation::Pool(off) => {
                for i in 0..size as usize {
                    if let Err(tag) = self.byte_ok(off + i) {
                        let kind = match tag {
                            POISON_FREED => KasanKind::UseAfterFree,
                            POISON_REDZONE => KasanKind::Redzone,
                            POISON_STACK_GUARD => KasanKind::OutOfBounds,
                            POISON_UNALLOCATED => KasanKind::Unallocated,
                            _ => KasanKind::OutOfBounds,
                        };
                        return Err(BadAccess {
                            kind,
                            bad_addr: KERNEL_BASE + (off + i) as u64,
                        });
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MemPool, Shadow) {
        let pool = MemPool::new(4096);
        let shadow = Shadow::new(4096);
        (pool, shadow)
    }

    #[test]
    fn fresh_shadow_is_fully_poisoned() {
        let (pool, shadow) = setup();
        let err = shadow.check(&pool, KERNEL_BASE, 8).unwrap_err();
        assert_eq!(err.kind, KasanKind::Unallocated);
    }

    #[test]
    fn unpoison_grants_access() {
        let (pool, mut shadow) = setup();
        shadow.unpoison(64, 32);
        assert!(shadow.check(&pool, KERNEL_BASE + 64, 32).is_ok());
        assert!(shadow.check(&pool, KERNEL_BASE + 64, 8).is_ok());
        assert!(shadow.check(&pool, KERNEL_BASE + 88, 8).is_ok());
        // One byte past the end is invalid.
        let err = shadow.check(&pool, KERNEL_BASE + 89, 8).unwrap_err();
        assert_eq!(err.bad_addr, KERNEL_BASE + 96);
        assert_eq!(err.kind, KasanKind::Unallocated);
    }

    #[test]
    fn partial_granule_prefix() {
        let (pool, mut shadow) = setup();
        shadow.unpoison(0, 13);
        assert!(shadow.check(&pool, KERNEL_BASE, 13).is_ok());
        assert!(shadow.check(&pool, KERNEL_BASE + 8, 5).is_ok());
        let err = shadow.check(&pool, KERNEL_BASE + 8, 6).unwrap_err();
        assert_eq!(err.kind, KasanKind::Redzone);
        assert_eq!(err.bad_addr, KERNEL_BASE + 13);
    }

    #[test]
    fn poison_kinds_map_to_reports() {
        let (pool, mut shadow) = setup();
        shadow.unpoison(0, 64);
        shadow.poison(0, 16, POISON_FREED);
        shadow.poison(16, 16, POISON_REDZONE);
        shadow.poison(32, 16, POISON_STACK_GUARD);
        assert_eq!(
            shadow.check(&pool, KERNEL_BASE, 1).unwrap_err().kind,
            KasanKind::UseAfterFree
        );
        assert_eq!(
            shadow.check(&pool, KERNEL_BASE + 16, 1).unwrap_err().kind,
            KasanKind::Redzone
        );
        assert_eq!(
            shadow.check(&pool, KERNEL_BASE + 32, 1).unwrap_err().kind,
            KasanKind::OutOfBounds
        );
    }

    #[test]
    fn null_and_wild_accesses() {
        let (pool, shadow) = setup();
        assert_eq!(
            shadow.check(&pool, 0, 8).unwrap_err().kind,
            KasanKind::NullDeref
        );
        assert_eq!(
            shadow.check(&pool, 0x4242, 8).unwrap_err().kind,
            KasanKind::WildAccess
        );
    }

    type Writer = fn(&mut Shadow, usize);

    /// Both shadow writers, each covering 16 pool bytes at `off`.
    const WRITERS: [(&str, Writer); 2] = [
        ("unpoison", |s, off| s.unpoison(off, 16)),
        ("poison", |s, off| s.poison(off, 16, POISON_FREED)),
    ];

    fn marked(shadow: &Shadow) -> Vec<usize> {
        (0..(shadow.bytes.len() * GRANULE).div_ceil(PAGE_SIZE))
            .filter(|&p| shadow.dirty.has(p))
            .collect()
    }

    #[test]
    fn each_writer_marks_the_pages_it_writes() {
        for (name, write) in WRITERS {
            let mut shadow = Shadow::new(4 * PAGE_SIZE);
            write(&mut shadow, 2 * PAGE_SIZE + 16);
            assert_eq!(marked(&shadow), [2], "{name} inside page 2");
            let mut shadow = Shadow::new(4 * PAGE_SIZE);
            write(&mut shadow, 3 * PAGE_SIZE - 8);
            assert_eq!(marked(&shadow), [2, 3], "{name} straddling pages 2 and 3");
        }
        let mut shadow = Shadow::new(4 * PAGE_SIZE);
        shadow.unpoison(PAGE_SIZE, 0);
        shadow.poison(PAGE_SIZE, 0, POISON_FREED);
        assert!(marked(&shadow).is_empty(), "an empty range marks nothing");
    }

    #[test]
    fn restore_undoes_every_writer() {
        // A partial last page.
        let len = 4 * PAGE_SIZE + 16;
        let mut template = Shadow::new(len);
        template.poison(0, len, POISON_REDZONE);
        for (name, write) in WRITERS {
            let mut shadow = template.clone();
            shadow.restore_from(&template);
            assert!(
                marked(&shadow).is_empty(),
                "{name}: restore clears the marks"
            );
            for off in [16, 3 * PAGE_SIZE - 8, len - 16] {
                write(&mut shadow, off);
            }
            assert_ne!(shadow.bytes, template.bytes);
            shadow.restore_from(&template);
            assert_eq!(shadow.bytes, template.bytes, "{name}");
            assert!(
                marked(&shadow).is_empty(),
                "{name}: restore clears the marks"
            );
        }
    }

    #[test]
    fn repoison_after_free_then_reuse() {
        let (pool, mut shadow) = setup();
        shadow.unpoison(128, 64);
        shadow.poison(128, 64, POISON_FREED);
        assert_eq!(
            shadow.check(&pool, KERNEL_BASE + 140, 4).unwrap_err().kind,
            KasanKind::UseAfterFree
        );
        shadow.unpoison(128, 64);
        assert!(shadow.check(&pool, KERNEL_BASE + 140, 4).is_ok());
    }
}
