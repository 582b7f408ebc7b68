//! First-fit heap allocator backing the `Malloc`/`Free` syscalls.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::layout::Layout;

/// Errors raised by [`HeapAllocator`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// The heap segment is exhausted.
    OutOfMemory {
        /// The allocation size that failed.
        requested: u64,
    },
    /// `free` was called with an address that is not the start of a live
    /// allocation.
    InvalidFree {
        /// The offending address.
        addr: u64,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { requested } => {
                write!(f, "heap exhausted allocating {requested} bytes")
            }
            AllocError::InvalidFree { addr } => {
                write!(f, "free of non-allocated address {addr:#x}")
            }
        }
    }
}

impl Error for AllocError {}

/// A first-fit allocator with free-block coalescing, operating on the heap
/// segment of a [`Layout`].
///
/// Block bookkeeping lives on the host side (the simulated program never
/// inspects allocator metadata), so every byte of a returned block is usable
/// by the program. Addresses are 16-byte aligned.
#[derive(Clone, Debug)]
pub struct HeapAllocator {
    heap_limit: u64,
    /// Top of the bump region; everything above is virgin.
    brk: u64,
    /// Free blocks keyed by start address → size, coalesced on free.
    free: BTreeMap<u64, u64>,
    /// Live allocations keyed by start address → size.
    live: BTreeMap<u64, u64>,
    /// Total bytes currently allocated.
    in_use: u64,
}

const ALIGN: u64 = 16;

impl HeapAllocator {
    /// Creates an allocator for the heap segment of `layout`.
    pub fn new(layout: &Layout) -> HeapAllocator {
        HeapAllocator {
            heap_limit: layout.heap_limit(),
            brk: layout.heap_base(),
            free: BTreeMap::new(),
            live: BTreeMap::new(),
            in_use: 0,
        }
    }

    fn round_up(size: u64) -> u64 {
        size.max(1).div_ceil(ALIGN) * ALIGN
    }

    /// Allocates `size` bytes, returning the block's base address.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfMemory`] if neither the free list nor the
    /// bump region can satisfy the request.
    pub fn malloc(&mut self, size: u64) -> Result<u64, AllocError> {
        let size = Self::round_up(size);
        // First fit over the free list.
        let found = self
            .free
            .iter()
            .find(|(_, &sz)| sz >= size)
            .map(|(&addr, &sz)| (addr, sz));
        let addr = if let Some((addr, sz)) = found {
            self.free.remove(&addr);
            if sz > size {
                self.free.insert(addr + size, sz - size);
            }
            addr
        } else {
            let addr = self.brk;
            let new_brk = addr
                .checked_add(size)
                .ok_or(AllocError::OutOfMemory { requested: size })?;
            if new_brk > self.heap_limit {
                return Err(AllocError::OutOfMemory { requested: size });
            }
            self.brk = new_brk;
            addr
        };
        self.live.insert(addr, size);
        self.in_use += size;
        Ok(addr)
    }

    /// Releases the block starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidFree`] if `addr` is not the base of a
    /// live allocation (double free, interior pointer, garbage).
    pub fn free(&mut self, addr: u64) -> Result<(), AllocError> {
        let size = self
            .live
            .remove(&addr)
            .ok_or(AllocError::InvalidFree { addr })?;
        self.in_use -= size;
        // Coalesce with the successor free block, if adjacent.
        let mut start = addr;
        let mut len = size;
        if let Some(&next_len) = self.free.get(&(start + len)) {
            self.free.remove(&(start + len));
            len += next_len;
        }
        // Coalesce with the predecessor free block, if adjacent.
        if let Some((&prev_start, &prev_len)) = self.free.range(..start).next_back() {
            if prev_start + prev_len == start {
                self.free.remove(&prev_start);
                start = prev_start;
                len += prev_len;
            }
        }
        // If the block now abuts brk, return it to the bump region.
        if start + len == self.brk {
            self.brk = start;
        } else {
            self.free.insert(start, len);
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn alloc() -> HeapAllocator {
        HeapAllocator::new(&Layout::default())
    }

    #[test]
    fn malloc_returns_aligned_heap_addresses() {
        let mut a = alloc();
        let p = a.malloc(10).unwrap();
        assert_eq!(p % ALIGN, 0);
        assert!(p >= Layout::default().heap_base());
        let q = a.malloc(10).unwrap();
        assert!(q >= p + 16, "blocks must not overlap");
    }

    #[test]
    fn free_then_malloc_reuses_space() {
        let mut a = alloc();
        let p = a.malloc(64).unwrap();
        let q = a.malloc(64).unwrap();
        a.free(p).unwrap();
        let r = a.malloc(32).unwrap();
        assert_eq!(r, p, "first fit should reuse the freed block");
        assert_ne!(r, q);
    }

    #[test]
    fn double_free_is_rejected() {
        let mut a = alloc();
        let p = a.malloc(8).unwrap();
        a.free(p).unwrap();
        assert_eq!(a.free(p), Err(AllocError::InvalidFree { addr: p }));
    }

    #[test]
    fn coalescing_rebuilds_large_blocks() {
        let mut a = alloc();
        let p1 = a.malloc(32).unwrap();
        let p2 = a.malloc(32).unwrap();
        let p3 = a.malloc(32).unwrap();
        let _guard = a.malloc(32).unwrap(); // keeps brk away
        a.free(p1).unwrap();
        a.free(p3).unwrap();
        a.free(p2).unwrap(); // middle free must join all three
        let big = a.malloc(96).unwrap();
        assert_eq!(big, p1, "coalesced block should satisfy a 96-byte request");
    }

    #[test]
    fn freeing_top_block_lowers_brk() {
        let mut a = alloc();
        let p = a.malloc(128).unwrap();
        let before = a.brk;
        a.free(p).unwrap();
        assert!(a.brk < before);
        assert_eq!(a.brk, p);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut a = alloc();
        let whole = a.heap_limit - Layout::default().heap_base();
        assert!(a.malloc(whole + ALIGN).is_err());
    }

    #[test]
    fn accounting_tracks_usage() {
        let mut a = alloc();
        assert_eq!(a.in_use, 0);
        let p = a.malloc(100).unwrap();
        assert_eq!(a.in_use, HeapAllocator::round_up(100));
        a.free(p).unwrap();
        assert_eq!(a.in_use, 0);
    }

    #[cfg(feature = "proptest-tests")]
    proptest::proptest! {
        /// A random mix of mallocs and frees never yields overlapping live
        /// blocks, and every block stays inside the heap segment.
        #[test]
        fn allocator_blocks_never_overlap(
            ops in proptest::collection::vec((proptest::prelude::any::<bool>(), 1u64..4096), 1..64),
        ) {
            let layout = Layout::default();
            let mut a = HeapAllocator::new(&layout);
            let mut live: Vec<(u64, u64)> = Vec::new();
            for (do_free, size) in ops {
                if do_free && !live.is_empty() {
                    let (addr, _) = live.swap_remove(0);
                    a.free(addr).unwrap();
                } else {
                    let addr = a.malloc(size).unwrap();
                    proptest::prop_assert!(addr >= layout.heap_base());
                    proptest::prop_assert!(addr + size <= layout.heap_limit());
                    for &(other, other_size) in &live {
                        let disjoint = addr + size <= other || other + other_size <= addr;
                        proptest::prop_assert!(
                            disjoint,
                            "{addr:#x}+{size} overlaps {other:#x}+{other_size}"
                        );
                    }
                    live.push((addr, size));
                }
            }
            // Free everything; usage must return to zero and brk to base.
            for (addr, _) in live {
                a.free(addr).unwrap();
            }
            proptest::prop_assert_eq!(a.in_use, 0);
            proptest::prop_assert_eq!(a.brk, layout.heap_base());
        }
    }
}
