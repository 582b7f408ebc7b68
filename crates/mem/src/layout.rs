//! Address-space layout.

use crate::region::Region;

/// The simulated address-space layout.
///
/// Segments own fixed, non-overlapping address ranges (as in SimpleScalar's
/// run-time system, where text starts at `0x00400000`, data above it, and the
/// stack grows down from near `0x7fffc000`):
///
/// ```text
/// 0x0040_0000  ┌───────────────┐
///              │     text      │  instructions, 8 B each
/// 0x1000_0000  ├───────────────┤
///              │     data      │  globals & statics (grows at link time)
/// 0x2000_0000  ├───────────────┤
///              │     heap      │  malloc'd storage (grows up)
/// 0x6000_0000  ├───────────────┤
///              │     stack     │  frames (grows down from stack_top)
/// 0x7fff_f000  └───────────────┘
/// ```
///
/// Because the boundaries are fixed, [`Layout::classify`] decides the access
/// region from the address alone — the idealized form of the paper's
/// per-page TLB stack bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Layout {
    text_base: u64,
    data_base: u64,
    heap_base: u64,
    stack_base: u64,
    stack_top: u64,
}

impl Layout {
    /// Creates the standard layout pictured above.
    pub(crate) const fn new() -> Layout {
        Layout {
            text_base: 0x0040_0000,
            data_base: 0x1000_0000,
            heap_base: 0x2000_0000,
            stack_base: 0x6000_0000,
            stack_top: 0x7fff_f000,
        }
    }

    /// Base of the text segment (entry point of linked programs).
    pub const fn text_base(&self) -> u64 {
        self.text_base
    }

    /// Base of the data segment (where `$gp` points).
    pub const fn data_base(&self) -> u64 {
        self.data_base
    }

    /// Base of the heap segment (lowest address `malloc` can return).
    pub(crate) const fn heap_base(&self) -> u64 {
        self.heap_base
    }

    /// Lowest address that belongs to the stack region.
    pub const fn stack_base(&self) -> u64 {
        self.stack_base
    }

    /// Initial stack pointer; the stack grows down from here.
    pub const fn stack_top(&self) -> u64 {
        self.stack_top
    }

    /// Exclusive upper bound of the heap segment.
    pub(crate) const fn heap_limit(&self) -> u64 {
        self.stack_base
    }

    /// Classifies an address into its segment.
    ///
    /// Data references only ever see [`Region::Data`], [`Region::Heap`] or
    /// [`Region::Stack`]; instruction fetch sees [`Region::Text`].
    #[inline]
    pub const fn classify(&self, addr: u64) -> Region {
        if addr >= self.stack_base {
            Region::Stack
        } else if addr >= self.heap_base {
            Region::Heap
        } else if addr >= self.data_base {
            Region::Data
        } else {
            Region::Text
        }
    }

    /// Whether `addr` lies in the stack region (the bit the paper's extended
    /// TLB entry stores).
    pub const fn is_stack(&self, addr: u64) -> bool {
        addr >= self.stack_base
    }
}

impl Default for Layout {
    fn default() -> Layout {
        Layout::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_ordered_and_disjoint() {
        let l = Layout::default();
        assert!(l.text_base() < l.data_base());
        assert!(l.data_base() < l.heap_base());
        assert!(l.heap_base() < l.stack_base());
        assert!(l.stack_base() < l.stack_top());
    }

    #[test]
    fn classification_at_boundaries() {
        let l = Layout::default();
        assert_eq!(l.classify(l.text_base()), Region::Text);
        assert_eq!(l.classify(l.data_base() - 1), Region::Text);
        assert_eq!(l.classify(l.data_base()), Region::Data);
        assert_eq!(l.classify(l.heap_base() - 1), Region::Data);
        assert_eq!(l.classify(l.heap_base()), Region::Heap);
        assert_eq!(l.classify(l.stack_base() - 1), Region::Heap);
        assert_eq!(l.classify(l.stack_base()), Region::Stack);
        assert_eq!(l.classify(l.stack_top()), Region::Stack);
    }

    #[test]
    fn is_stack_agrees_with_classify() {
        let l = Layout::default();
        for addr in [
            0x0040_0000,
            0x1000_0010,
            0x2000_0010,
            0x6000_0000,
            0x7fff_e000,
        ] {
            assert_eq!(l.is_stack(addr), l.classify(addr) == Region::Stack);
        }
    }
}
