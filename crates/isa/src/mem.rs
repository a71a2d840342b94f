//! Byte-addressed sparse data memory.
//!
//! A single [`Memory`] holds the architectural contents of the simulated
//! address space. The timing caches in `hidisc-mem` are *tag-only* models:
//! data always lives here, which keeps the functional and timing simulators
//! trivially coherent and makes end-to-end result comparison exact.
//!
//! Memory is organised as 4 KiB pages allocated on first touch. All accesses
//! must be naturally aligned (as on MIPS/PISA); unaligned accesses return
//! [`IsaError::Mem`].

use crate::{IsaError, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// Page size in bytes (power of two).
pub const PAGE_SIZE: u64 = 4096;
const PAGE_MASK: u64 = PAGE_SIZE - 1;

/// Sparse byte-addressed memory.
///
/// Pages are reference-counted so that `clone()` is an O(pages) pointer
/// copy and subsequent writes copy only the touched page (copy-on-write).
/// This is what makes whole-machine snapshots an O(dirty) operation.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Arc<[u8; PAGE_SIZE as usize]>>,
}

impl Memory {
    /// Creates an empty memory (all bytes read as zero).
    pub fn new() -> Memory {
        Memory::default()
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        self.pages.get(&(addr & !PAGE_MASK)).map(|b| &**b)
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE as usize] {
        Arc::make_mut(
            self.pages
                .entry(addr & !PAGE_MASK)
                .or_insert_with(|| Arc::new([0u8; PAGE_SIZE as usize])),
        )
    }

    #[inline]
    fn check_align(addr: u64, size: u64) -> Result<()> {
        if !addr.is_multiple_of(size) {
            return Err(IsaError::Mem {
                addr,
                msg: format!("unaligned {size}-byte access"),
            });
        }
        Ok(())
    }

    /// Reads `N` bytes (N ≤ 8, naturally aligned ⇒ never crosses a page).
    #[inline]
    fn read_raw<const N: usize>(&self, addr: u64) -> [u8; N] {
        debug_assert!(N as u64 <= PAGE_SIZE);
        match self.page(addr) {
            Some(p) => {
                let o = (addr & PAGE_MASK) as usize;
                let mut out = [0u8; N];
                out.copy_from_slice(&p[o..o + N]);
                out
            }
            None => [0u8; N],
        }
    }

    #[inline]
    fn write_raw<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        debug_assert!(N as u64 <= PAGE_SIZE);
        let p = self.page_mut(addr);
        let o = (addr & PAGE_MASK) as usize;
        p[o..o + N].copy_from_slice(&bytes);
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read_raw::<1>(addr)[0]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.write_raw::<1>(addr, [v]);
    }

    /// Reads a little-endian u16 (must be 2-byte aligned).
    pub fn read_u16(&self, addr: u64) -> Result<u16> {
        Self::check_align(addr, 2)?;
        Ok(u16::from_le_bytes(self.read_raw::<2>(addr)))
    }

    /// Writes a little-endian u16 (must be 2-byte aligned).
    pub fn write_u16(&mut self, addr: u64, v: u16) -> Result<()> {
        Self::check_align(addr, 2)?;
        self.write_raw::<2>(addr, v.to_le_bytes());
        Ok(())
    }

    /// Reads a little-endian u32 (must be 4-byte aligned).
    pub fn read_u32(&self, addr: u64) -> Result<u32> {
        Self::check_align(addr, 4)?;
        Ok(u32::from_le_bytes(self.read_raw::<4>(addr)))
    }

    /// Writes a little-endian u32 (must be 4-byte aligned).
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<()> {
        Self::check_align(addr, 4)?;
        self.write_raw::<4>(addr, v.to_le_bytes());
        Ok(())
    }

    /// Reads a little-endian u64 (must be 8-byte aligned).
    pub fn read_u64(&self, addr: u64) -> Result<u64> {
        Self::check_align(addr, 8)?;
        Ok(u64::from_le_bytes(self.read_raw::<8>(addr)))
    }

    /// Writes a little-endian u64 (must be 8-byte aligned).
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<()> {
        Self::check_align(addr, 8)?;
        self.write_raw::<8>(addr, v.to_le_bytes());
        Ok(())
    }

    /// Reads an i64 (8-byte aligned).
    pub fn read_i64(&self, addr: u64) -> Result<i64> {
        Ok(self.read_u64(addr)? as i64)
    }

    /// Writes an i64 (8-byte aligned).
    pub fn write_i64(&mut self, addr: u64, v: i64) -> Result<()> {
        self.write_u64(addr, v as u64)
    }

    /// Reads an f64 (8-byte aligned).
    pub fn read_f64(&self, addr: u64) -> Result<f64> {
        Ok(f64::from_bits(self.read_u64(addr)?))
    }

    /// Writes an f64 (8-byte aligned).
    pub fn write_f64(&mut self, addr: u64, v: f64) -> Result<()> {
        self.write_u64(addr, v.to_bits())
    }

    /// Generic width load as used by the interpreter: returns the value
    /// sign- or zero-extended to i64.
    pub fn load(&self, addr: u64, width: crate::instr::Width, signed: bool) -> Result<i64> {
        use crate::instr::Width::*;
        Ok(match (width, signed) {
            (B, true) => self.read_u8(addr) as i8 as i64,
            (B, false) => self.read_u8(addr) as i64,
            (H, true) => self.read_u16(addr)? as i16 as i64,
            (H, false) => self.read_u16(addr)? as i64,
            (W, true) => self.read_u32(addr)? as i32 as i64,
            (W, false) => self.read_u32(addr)? as i64,
            (D, _) => self.read_u64(addr)? as i64,
        })
    }

    /// Generic width store (truncating).
    pub fn store(&mut self, addr: u64, width: crate::instr::Width, v: i64) -> Result<()> {
        use crate::instr::Width::*;
        match width {
            B => {
                self.write_u8(addr, v as u8);
                Ok(())
            }
            H => self.write_u16(addr, v as u16),
            W => self.write_u32(addr, v as u32),
            D => self.write_u64(addr, v as u64),
        }
    }

    /// Bulk-writes raw bytes starting at `base`.
    pub fn write_bytes(&mut self, base: u64, bytes: &[u8]) {
        for (k, &b) in bytes.iter().enumerate() {
            self.write_u8(base + k as u64, b);
        }
    }

    /// An order-independent checksum of all touched memory, used by the
    /// end-to-end tests to compare final machine states. Untouched and
    /// all-zero pages hash identically (an explicit zero write is
    /// indistinguishable from never writing, which is the architectural
    /// semantics here).
    pub fn checksum(&self) -> u64 {
        let mut keys: Vec<&u64> = self.pages.keys().collect();
        keys.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for k in keys {
            let page = &self.pages[k];
            if page.iter().all(|&b| b == 0) {
                continue;
            }
            h ^= *k;
            h = h.wrapping_mul(0x1000_0000_01b3);
            for &b in page.iter() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Width;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0x1234), 0);
        assert_eq!(m.read_u64(0x10_0000).unwrap(), 0);
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(0x1000).unwrap(), 0xdead_beef_cafe_f00d);
        m.write_f64(0x2000, -3.5).unwrap();
        assert_eq!(m.read_f64(0x2000).unwrap(), -3.5);
        m.write_u8(0x3000, 0xab);
        assert_eq!(m.read_u8(0x3000), 0xab);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(m.read_u8(0x1000), 0x08);
        assert_eq!(m.read_u8(0x1007), 0x01);
        assert_eq!(m.read_u32(0x1000).unwrap(), 0x0506_0708);
    }

    #[test]
    fn alignment_enforced() {
        let mut m = Memory::new();
        assert!(m.read_u64(0x1001).is_err());
        assert!(m.write_u32(0x1002, 0).is_err());
        assert!(m.read_u16(0x1001).is_err());
        // byte accesses are always fine
        m.write_u8(0x1001, 7);
        assert_eq!(m.read_u8(0x1001), 7);
    }

    #[test]
    fn sign_extension_on_load() {
        let mut m = Memory::new();
        m.write_u8(0x100, 0xff);
        assert_eq!(m.load(0x100, Width::B, true).unwrap(), -1);
        assert_eq!(m.load(0x100, Width::B, false).unwrap(), 0xff);
        m.write_u16(0x200, 0x8000).unwrap();
        assert_eq!(m.load(0x200, Width::H, true).unwrap(), -32768);
        assert_eq!(m.load(0x200, Width::H, false).unwrap(), 0x8000);
    }

    #[test]
    fn page_boundary_writes() {
        let mut m = Memory::new();
        // last byte of one page and first of the next
        m.write_u8(PAGE_SIZE - 1, 1);
        m.write_u8(PAGE_SIZE, 2);
        assert_eq!(m.read_u8(PAGE_SIZE - 1), 1);
        assert_eq!(m.read_u8(PAGE_SIZE), 2);
    }

    #[test]
    fn checksum_insensitive_to_zero_pages() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write_u64(0x1000, 42).unwrap();
        b.write_u64(0x1000, 42).unwrap();
        b.write_u64(0x9000, 0).unwrap(); // touched but zero
        assert_eq!(a.checksum(), b.checksum());
        b.write_u64(0x9000, 1).unwrap();
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut a = Memory::new();
        a.write_u64(0x1000, 11).unwrap();
        a.write_u64(0x9000, 22).unwrap();
        let snap = a.clone();
        // Mutating the original must not leak into the snapshot...
        a.write_u64(0x1000, 99).unwrap();
        assert_eq!(snap.read_u64(0x1000).unwrap(), 11);
        assert_eq!(a.read_u64(0x1000).unwrap(), 99);
        // ...and untouched pages stay physically shared.
        assert_eq!(snap.read_u64(0x9000).unwrap(), 22);
    }

    #[test]
    fn slice_helpers() {
        let mut m = Memory::new();
        m.write_bytes(0x5000, b"hello");
        assert_eq!(m.read_u8(0x5004), b'o');
    }
}
