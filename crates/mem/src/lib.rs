//! # arl-mem — the simulated memory substrate
//!
//! Models the address space the paper's run-time system assumes (Section 3):
//! a program's memory is divided into **text**, **data**, **heap**, and
//! **stack** segments, and every data reference falls into the data, heap, or
//! stack *access region*. The region of an address is decidable from the
//! address alone because each segment owns a fixed address range
//! ([`Layout`]) — this mirrors how the paper's TLB stores a per-page stack
//! bit "accurately and efficiently when a page is allocated by the run-time
//! system".
//!
//! Components:
//!
//! * [`Layout`] / [`Region`] / [`RegionSet`] — segment map and region
//!   classification (the vocabulary of Figures 2, 4, 5 and Tables 2, 3).
//! * [`MemImage`] — sparse paged memory with typed accessors.
//! * [`HeapAllocator`] — first-fit `malloc`/`free` with coalescing, backing
//!   the `Malloc` syscall.
//!
//! ```
//! use arl_mem::{Layout, Region};
//!
//! let layout = Layout::default();
//! assert_eq!(layout.classify(layout.data_base()), Region::Data);
//! assert_eq!(layout.classify(layout.stack_top() - 8), Region::Stack);
//! ```

mod alloc;
mod image;
mod layout;
mod region;

pub use alloc::{AllocError, HeapAllocator};
pub use image::{MemImage, PAGE_SIZE};
pub use layout::Layout;
pub use region::{Region, RegionSet};
