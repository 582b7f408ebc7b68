//! Sparse paged memory image.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Bytes per page of the sparse image.
pub const PAGE_SIZE: u64 = 4096;

/// Hasher for the page map, the same multiplicative hash as the timing
/// crate's store-index `BlockHash`. Keys are page numbers of the simulated
/// program's own addresses, so no outside input can choose colliding ones,
/// and one multiply mixes them well enough; SipHash would dominate every
/// functional load and store.
#[derive(Clone, Copy, Default)]
struct PageHash(u64);

impl Hasher for PageHash {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A sparse, demand-allocated memory image covering the full simulated
/// address space.
///
/// Unwritten memory reads as zero, as if freshly mapped. Accessors exist for
/// each width the ISA can issue plus `f64`; unaligned and page-crossing
/// accesses are handled (byte at a time on the slow path).
#[derive(Clone, Default, Debug)]
pub struct MemImage {
    /// Nothing iterates the pages, so the hasher cannot reach any output.
    pages: HashMap<u64, Box<[u8; PAGE_SIZE as usize]>, BuildHasherDefault<PageHash>>,
}

impl MemImage {
    /// Creates an empty (all-zero) image.
    pub fn new() -> MemImage {
        MemImage::default()
    }

    /// Number of pages currently materialized.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        self.pages.get(&(addr / PAGE_SIZE)).map(|b| &**b)
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE as usize] {
        self.pages
            .entry(addr / PAGE_SIZE)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let off = (addr % PAGE_SIZE) as usize;
        self.page_mut(addr)[off] = value;
    }

    /// Reads `N` bytes starting at `addr` into a fixed array.
    fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        let off = (addr % PAGE_SIZE) as usize;
        if off + N <= PAGE_SIZE as usize {
            match self.page(addr) {
                Some(p) => {
                    let mut out = [0u8; N];
                    out.copy_from_slice(&p[off..off + N]);
                    out
                }
                None => [0u8; N],
            }
        } else {
            let mut out = [0u8; N];
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr + i as u64);
            }
            out
        }
    }

    fn write_array<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let off = (addr % PAGE_SIZE) as usize;
        if off + N <= PAGE_SIZE as usize {
            self.page_mut(addr)[off..off + N].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr + i as u64, *b);
            }
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_array(addr, value.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_array(addr, value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_array(addr, value.to_le_bytes());
    }

    /// Reads an `f64` (little-endian bit pattern).
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Copies `bytes` into memory starting at `addr` (used by the linker to
    /// install initialized data).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = MemImage::new();
        assert_eq!(m.read_u64(0x1234_5678), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trip_each_width() {
        let mut m = MemImage::new();
        m.write_u8(100, 0xab);
        m.write_u16(200, 0xbeef);
        m.write_u32(300, 0xdead_beef);
        m.write_u64(400, 0x0123_4567_89ab_cdef);
        m.write_f64(500, -0.5);
        assert_eq!(m.read_u8(100), 0xab);
        assert_eq!(m.read_u16(200), 0xbeef);
        assert_eq!(m.read_u32(300), 0xdead_beef);
        assert_eq!(m.read_u64(400), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_f64(500), -0.5);
    }

    #[test]
    fn page_crossing_access() {
        let mut m = MemImage::new();
        let addr = PAGE_SIZE - 3;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
        // Bytes land on both pages, little-endian.
        assert_eq!(m.read_u8(addr), 0x88);
        assert_eq!(m.read_u8(PAGE_SIZE), 0x55);
    }

    #[test]
    fn write_bytes_lands_byte_by_byte() {
        let mut m = MemImage::new();
        m.write_bytes(10, &[1, 2, 3, 4]);
        let bytes: Vec<u8> = (9..15).map(|addr| m.read_u8(addr)).collect();
        assert_eq!(bytes, vec![0, 1, 2, 3, 4, 0]);
    }

    #[test]
    fn overwrite_is_visible() {
        let mut m = MemImage::new();
        m.write_u32(64, 1);
        m.write_u32(64, 2);
        assert_eq!(m.read_u32(64), 2);
    }
}
