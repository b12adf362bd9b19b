//! Functional (value-carrying) memory.
//!
//! The simulator is *timing-first, functional-now*: instructions are
//! evaluated at issue time against this memory so programs compute real
//! results (verifiable by tests), while the timing of each access is
//! modeled separately by the cache hierarchy and DRAM.

use gpgpu_isa::{AccessWidth, WARP_SIZE};
use std::collections::HashMap;

const PAGE_BYTES: usize = 4096;
const PAGE_SHIFT: u32 = 12;
/// Pages below this index live in a dense, directly indexed table (256 MiB
/// of address space; the table itself is at most 512 KiB of pointers).
/// Pages above it — only reachable through stray computed addresses — fall
/// back to a hash map.
const DENSE_PAGES: usize = 1 << 16;

/// Sparse, byte-addressable functional global memory with a bump
/// allocator. Unallocated bytes read as zero.
///
/// Functional accesses run on the issue-stage hot path (every load
/// evaluates per lane), so the common case must be cheap: pages in the
/// bump-allocated range are found by direct index, and aligned word
/// accesses touch their page exactly once.
#[derive(Debug, Default)]
pub struct GlobalMem {
    /// Directly indexed page table for the bump-allocated range.
    dense: Vec<Option<Box<[u8; PAGE_BYTES]>>>,
    /// Overflow for out-of-range computed addresses (rare).
    sparse: HashMap<u64, Box<[u8; PAGE_BYTES]>>,
    /// Materialized page count (dense + sparse).
    resident: usize,
    next_alloc: u64,
}

impl GlobalMem {
    /// An empty memory whose allocator starts at a non-zero base (so that
    /// address 0 stays unused, catching uninitialized pointers).
    pub fn new() -> Self {
        GlobalMem {
            dense: Vec::new(),
            sparse: HashMap::new(),
            resident: 0,
            next_alloc: 0x1_0000,
        }
    }

    /// Reserves `bytes` of address space (256-byte aligned) and returns its
    /// base address. Purely an address-space operation; pages materialize
    /// on first write.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next_alloc;
        self.next_alloc = (self.next_alloc + bytes + 255) & !255;
        base
    }

    fn page(&self, addr: u64) -> Option<&[u8; PAGE_BYTES]> {
        let idx = addr >> PAGE_SHIFT;
        if (idx as usize) < DENSE_PAGES {
            self.dense.get(idx as usize)?.as_deref()
        } else {
            self.sparse.get(&idx).map(|b| &**b)
        }
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_BYTES] {
        let idx = addr >> PAGE_SHIFT;
        if (idx as usize) < DENSE_PAGES {
            let i = idx as usize;
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, || None);
            }
            self.dense[i].get_or_insert_with(|| {
                self.resident += 1;
                Box::new([0u8; PAGE_BYTES])
            })
        } else {
            self.sparse.entry(idx).or_insert_with(|| {
                self.resident += 1;
                Box::new([0u8; PAGE_BYTES])
            })
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr)
            .map(|p| p[(addr as usize) & (PAGE_BYTES - 1)])
            .unwrap_or(0)
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        self.page_mut(addr)[off] = v;
    }

    /// Reads a little-endian `u32` (may straddle pages).
    pub fn read_u32(&self, addr: u64) -> u32 {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off <= PAGE_BYTES - 4 {
            match self.page(addr) {
                Some(p) => u32::from_le_bytes(p[off..off + 4].try_into().expect("4 bytes")),
                None => 0,
            }
        } else {
            let mut b = [0u8; 4];
            for (i, byte) in b.iter_mut().enumerate() {
                *byte = self.read_u8(addr + i as u64);
            }
            u32::from_le_bytes(b)
        }
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off <= PAGE_BYTES - 4 {
            self.page_mut(addr)[off..off + 4].copy_from_slice(&v.to_le_bytes());
        } else {
            for (i, byte) in v.to_le_bytes().iter().enumerate() {
                self.write_u8(addr + i as u64, *byte);
            }
        }
    }

    /// Reads a little-endian `u64` (may straddle pages).
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off <= PAGE_BYTES - 8 {
            match self.page(addr) {
                Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes")),
                None => 0,
            }
        } else {
            let mut b = [0u8; 8];
            for (i, byte) in b.iter_mut().enumerate() {
                *byte = self.read_u8(addr + i as u64);
            }
            u64::from_le_bytes(b)
        }
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off <= PAGE_BYTES - 8 {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&v.to_le_bytes());
        } else {
            for (i, byte) in v.to_le_bytes().iter().enumerate() {
                self.write_u8(addr + i as u64, *byte);
            }
        }
    }

    /// Reads an `f32` (bit pattern of the `u32` at `addr`).
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32`.
    pub fn write_f32(&mut self, addr: u64, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Writes a slice of `u32`s starting at `addr`.
    pub fn write_u32_slice(&mut self, addr: u64, values: &[u32]) {
        for (i, v) in values.iter().enumerate() {
            self.write_u32(addr + 4 * i as u64, *v);
        }
    }

    /// Reads `n` `u32`s starting at `addr`.
    pub fn read_u32_vec(&self, addr: u64, n: usize) -> Vec<u32> {
        (0..n).map(|i| self.read_u32(addr + 4 * i as u64)).collect()
    }

    /// Writes a slice of `f32`s starting at `addr`.
    pub fn write_f32_slice(&mut self, addr: u64, values: &[f32]) {
        for (i, v) in values.iter().enumerate() {
            self.write_f32(addr + 4 * i as u64, *v);
        }
    }

    /// Reads `n` `f32`s starting at `addr`.
    pub fn read_f32_vec(&self, addr: u64, n: usize) -> Vec<f32> {
        (0..n).map(|i| self.read_f32(addr + 4 * i as u64)).collect()
    }

    /// Number of 4 KiB pages materialized so far.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// A deterministic digest of memory *content*: FNV-1a over every
    /// non-zero materialized page, visited in ascending page order
    /// regardless of whether the page lives in the dense table or the
    /// sparse overflow. All-zero pages are skipped, so the hash depends
    /// only on observable values (unallocated bytes read as zero), not on
    /// which pages happen to have been materialized. Two memories with the
    /// same readable contents therefore hash identically — the snapshot
    /// primitive behind `simcheck`'s cross-policy functional oracle.
    pub fn content_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        fn mix_page(mut h: u64, idx: u64, page: &[u8; PAGE_BYTES]) -> u64 {
            if page.iter().all(|&b| b == 0) {
                return h;
            }
            for b in idx.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
            for &b in page.iter() {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
            h
        }
        let mut h = FNV_OFFSET;
        for (i, page) in self.dense.iter().enumerate() {
            if let Some(p) = page {
                h = mix_page(h, i as u64, p);
            }
        }
        let mut overflow: Vec<u64> = self.sparse.keys().copied().collect();
        overflow.sort_unstable();
        for idx in overflow {
            h = mix_page(h, idx, &self.sparse[&idx]);
        }
        h
    }

    /// Reads one lane value of the given access width.
    pub(crate) fn read_width(&self, addr: u64, width: AccessWidth) -> u64 {
        match width {
            AccessWidth::W4 => u64::from(self.read_u32(addr)),
            AccessWidth::W8 => self.read_u64(addr),
        }
    }

    /// Writes one lane value of the given access width.
    pub(crate) fn write_width(&mut self, addr: u64, v: u64, width: AccessWidth) {
        match width {
            AccessWidth::W4 => self.write_u32(addr, v as u32),
            AccessWidth::W8 => self.write_u64(addr, v),
        }
    }

    /// Materializes (without modifying) every page a store to `addrs`
    /// under `mask` would write: replay's stand-in for the store itself,
    /// keeping `resident_pages` — a telemetry observable — on the same
    /// trajectory as direct execution while leaving contents untouched
    /// (pages start zeroed, and [`GlobalMem::content_hash`] skips all-zero
    /// pages).
    pub(crate) fn touch_store(&mut self, addrs: &[u64; WARP_SIZE], mask: u32, width: AccessWidth) {
        let bytes = match width {
            AccessWidth::W4 => 4,
            AccessWidth::W8 => 8,
        };
        for lane in 0..WARP_SIZE {
            if mask & (1 << lane) != 0 {
                // A lane write can straddle a page boundary; touch each
                // byte's page the way the per-byte writes would.
                for b in 0..bytes {
                    let _ = self.page_mut(addrs[lane] + b);
                }
            }
        }
    }
}

/// A CTA's functional shared-memory scratchpad (byte-addressable,
/// CTA-local addresses starting at 0). Out-of-range accesses read zero and
/// drop writes, mirroring how a timing-only model must stay robust to
/// workload bugs.
#[derive(Debug)]
pub struct SharedMem {
    bytes: Vec<u8>,
}

impl SharedMem {
    /// A zeroed scratchpad of `size` bytes.
    pub fn new(size: u32) -> Self {
        SharedMem {
            bytes: vec![0; size as usize],
        }
    }

    /// Capacity in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Reads a `u32`; out-of-range reads return 0.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let a = addr as usize;
        if a + 4 <= self.bytes.len() {
            u32::from_le_bytes(self.bytes[a..a + 4].try_into().expect("4 bytes"))
        } else {
            0
        }
    }

    /// Writes a `u32`; out-of-range writes are dropped.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        let a = addr as usize;
        if a + 4 <= self.bytes.len() {
            self.bytes[a..a + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Reads a `u64`; out-of-range reads return 0.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let a = addr as usize;
        if a + 8 <= self.bytes.len() {
            u64::from_le_bytes(self.bytes[a..a + 8].try_into().expect("8 bytes"))
        } else {
            0
        }
    }

    /// Writes a `u64`; out-of-range writes are dropped.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        let a = addr as usize;
        if a + 8 <= self.bytes.len() {
            self.bytes[a..a + 8].copy_from_slice(&v.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_write() {
        let m = GlobalMem::new();
        assert_eq!(m.read_u32(0x5000), 0);
        assert_eq!(m.read_u64(u64::MAX - 16), 0);
    }

    #[test]
    fn read_back_what_was_written() {
        let mut m = GlobalMem::new();
        m.write_u32(0x1000, 0xdead_beef);
        assert_eq!(m.read_u32(0x1000), 0xdead_beef);
        m.write_u64(0x2000, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x2000), 0x0123_4567_89ab_cdef);
        m.write_f32(0x3000, -2.5);
        assert_eq!(m.read_f32(0x3000), -2.5);
    }

    #[test]
    fn page_straddling_access() {
        let mut m = GlobalMem::new();
        let addr = 4096 - 2; // straddles the first page boundary
        m.write_u32(addr, 0x11223344);
        assert_eq!(m.read_u32(addr), 0x11223344);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn slices_round_trip() {
        let mut m = GlobalMem::new();
        let data: Vec<u32> = (0..100).collect();
        m.write_u32_slice(0x4000, &data);
        assert_eq!(m.read_u32_vec(0x4000, 100), data);
        let f: Vec<f32> = (0..8).map(|i| i as f32 * 0.5).collect();
        m.write_f32_slice(0x8000, &f);
        assert_eq!(m.read_f32_vec(0x8000, 8), f);
    }

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = GlobalMem::new();
        let a = m.alloc(100);
        let b = m.alloc(1);
        let c = m.alloc(4096);
        assert_eq!(a % 256, 0);
        assert_eq!(b % 256, 0);
        assert!(b >= a + 100);
        assert!(c >= b + 1);
        assert_ne!(a, 0, "allocations avoid the null page");
    }

    #[test]
    fn content_hash_tracks_values_not_materialization() {
        let mut a = GlobalMem::new();
        let mut b = GlobalMem::new();
        assert_eq!(a.content_hash(), b.content_hash(), "empty memories agree");

        // Materializing a page with zeroes must not change the hash: the
        // readable contents are unchanged.
        a.write_u32(0x4000, 0);
        assert_eq!(a.content_hash(), b.content_hash());

        a.write_u32(0x4000, 7);
        let h1 = a.content_hash();
        assert_ne!(h1, b.content_hash(), "a write is visible");
        b.write_u32(0x4000, 7);
        assert_eq!(h1, b.content_hash(), "same contents, same hash");

        // Same value at a different address hashes differently.
        let mut c = GlobalMem::new();
        c.write_u32(0x8000, 7);
        assert_ne!(c.content_hash(), h1);

        // A sparse-overflow page (beyond the dense range) participates.
        let far = (super::DENSE_PAGES as u64 + 5) << 12;
        a.write_u32(far, 9);
        b.write_u32(far, 9);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), h1);
    }

    #[test]
    fn shared_mem_bounds() {
        let mut s = SharedMem::new(64);
        s.write_u32(0, 5);
        s.write_u32(60, 7);
        s.write_u32(62, 9); // straddles the end: dropped
        assert_eq!(s.read_u32(0), 5);
        assert_eq!(s.read_u32(60), 7);
        assert_eq!(s.read_u32(62), 0);
        assert_eq!(s.read_u32(1 << 40), 0);
        s.write_u64(0, u64::MAX);
        assert_eq!(s.read_u64(0), u64::MAX);
        assert_eq!(s.size(), 64);
    }
}
