//! Simulated physical memory with a frame allocator.

use std::collections::BTreeSet;
use twin_isa::Width;

/// Page size in bytes (4 KiB, matching the paper's x86-32 target).
pub const PAGE_SIZE: u64 = 4096;

/// Simulated physical memory: a flat byte array divided into frames, plus a
/// free-list allocator.
///
/// Frames are identified by physical frame number (`pfn`); byte `i` of
/// frame `f` lives at physical address `f * PAGE_SIZE + i`.
#[derive(Debug)]
pub struct PhysMem {
    bytes: Vec<u8>,
    free: BTreeSet<u64>,
    total_frames: usize,
}

impl PhysMem {
    /// Creates memory with `frames` frames, all free.
    pub fn new(frames: usize) -> PhysMem {
        PhysMem {
            bytes: vec![0; frames * PAGE_SIZE as usize],
            free: (0..frames as u64).collect(),
            total_frames: frames,
        }
    }

    /// Total number of frames.
    pub fn total_frames(&self) -> usize {
        self.total_frames
    }

    /// Number of currently free frames.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Allocates the lowest-numbered free frame, zeroing it.
    /// Returns `None` when memory is exhausted.
    pub fn alloc_frame(&mut self) -> Option<u64> {
        let pfn = *self.free.iter().next()?;
        self.free.remove(&pfn);
        let start = (pfn * PAGE_SIZE) as usize;
        self.bytes[start..start + PAGE_SIZE as usize].fill(0);
        Some(pfn)
    }

    /// Returns a frame to the free list.
    ///
    /// # Panics
    ///
    /// Panics if the frame is already free or out of range (double free is
    /// a bug in the simulator itself, not a modeled driver bug).
    pub fn free_frame(&mut self, pfn: u64) {
        assert!((pfn as usize) < self.total_frames, "pfn {pfn} out of range");
        assert!(self.free.insert(pfn), "double free of pfn {pfn}");
    }

    /// Reads one byte at a physical address.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range physical addresses (simulator bug).
    #[inline]
    pub fn read_u8(&self, paddr: u64) -> u8 {
        self.bytes[paddr as usize]
    }

    /// Writes one byte at a physical address.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range physical addresses (simulator bug).
    #[inline]
    pub fn write_u8(&mut self, paddr: u64, val: u8) {
        self.bytes[paddr as usize] = val;
    }

    /// Reads a little-endian u32 at a physical address.
    #[inline]
    pub fn read_u32(&self, paddr: u64) -> u32 {
        u32::from_le_bytes(
            self.bytes[paddr as usize..paddr as usize + 4]
                .try_into()
                .expect("4 bytes"),
        )
    }

    /// Writes a little-endian u32 at a physical address.
    pub fn write_u32(&mut self, paddr: u64, val: u32) {
        self.bytes[paddr as usize..paddr as usize + 4].copy_from_slice(&val.to_le_bytes());
    }

    /// Reads a little-endian value of `width` at a physical address,
    /// zero-extended.
    #[inline]
    pub fn read_le(&self, paddr: u64, width: Width) -> u32 {
        let p = paddr as usize;
        match width {
            Width::Byte => self.bytes[p] as u32,
            Width::Word => u16::from_le_bytes([self.bytes[p], self.bytes[p + 1]]) as u32,
            Width::Long => self.read_u32(paddr),
        }
    }

    /// Writes the low `width` bytes of `val`, little-endian, at a physical
    /// address.
    #[inline]
    pub fn write_le(&mut self, paddr: u64, width: Width, val: u32) {
        let n = width.bytes() as usize;
        let p = paddr as usize;
        self.bytes[p..p + n].copy_from_slice(&val.to_le_bytes()[..n]);
    }

    /// Copies `len` bytes from `src` to `dst` in ascending byte order, with
    /// the result of a byte-at-a-time loop: when `dst` starts inside the
    /// source range, the bytes already copied repeat (not a memmove).
    pub fn copy_forward(&mut self, src: u64, dst: u64, len: usize) {
        let (s, d) = (src as usize, dst as usize);
        if d <= s || d >= s + len {
            self.bytes.copy_within(s..s + len, d);
        } else {
            for i in 0..len {
                self.bytes[d + i] = self.bytes[s + i];
            }
        }
    }

    /// Copies a byte slice into physical memory at `paddr`.
    pub fn write_bytes(&mut self, paddr: u64, data: &[u8]) {
        self.bytes[paddr as usize..paddr as usize + data.len()].copy_from_slice(data);
    }

    /// Reads `len` bytes starting at `paddr`.
    pub fn read_bytes(&self, paddr: u64, len: usize) -> &[u8] {
        &self.bytes[paddr as usize..paddr as usize + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zeroes_and_reuses() {
        let mut pm = PhysMem::new(4);
        let a = pm.alloc_frame().unwrap();
        pm.write_u8(a * PAGE_SIZE, 0xab);
        pm.free_frame(a);
        let b = pm.alloc_frame().unwrap();
        assert_eq!(a, b, "lowest frame is reused");
        assert_eq!(pm.read_u8(b * PAGE_SIZE), 0, "frame is zeroed on alloc");
    }

    #[test]
    fn exhaustion() {
        let mut pm = PhysMem::new(2);
        assert!(pm.alloc_frame().is_some());
        assert!(pm.alloc_frame().is_some());
        assert!(pm.alloc_frame().is_none());
        assert_eq!(pm.free_frames(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pm = PhysMem::new(2);
        let a = pm.alloc_frame().unwrap();
        pm.free_frame(a);
        pm.free_frame(a);
    }

    #[test]
    fn u32_roundtrip() {
        let mut pm = PhysMem::new(1);
        pm.write_u32(12, 0xdead_beef);
        assert_eq!(pm.read_u32(12), 0xdead_beef);
        assert_eq!(pm.read_u8(12), 0xef, "little endian");
    }

    #[test]
    fn widths_are_little_endian() {
        let mut pm = PhysMem::new(1);
        pm.write_le(8, Width::Long, 0x1122_3344);
        pm.write_le(8, Width::Word, 0xaabb_ccdd);
        pm.write_le(11, Width::Byte, 0xee);
        assert_eq!(pm.read_le(8, Width::Long), 0xee22_ccdd);
        assert_eq!(pm.read_le(9, Width::Word), 0x22cc);
        assert_eq!(pm.read_le(11, Width::Byte), 0xee);
    }

    #[test]
    fn overlapping_forward_copy_repeats_like_a_byte_loop() {
        let mut pm = PhysMem::new(1);
        pm.write_bytes(0, b"abcdef");
        pm.copy_forward(0, 2, 4);
        assert_eq!(pm.read_bytes(0, 6), b"ababab");
        pm.write_bytes(0, b"abcdef");
        pm.copy_forward(2, 0, 4);
        assert_eq!(pm.read_bytes(0, 6), b"cdefef");
    }

    #[test]
    fn bulk_bytes() {
        let mut pm = PhysMem::new(1);
        pm.write_bytes(100, b"hello");
        assert_eq!(pm.read_bytes(100, 5), b"hello");
    }
}
