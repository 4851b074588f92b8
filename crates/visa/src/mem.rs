//! Guest-physical memory.
//!
//! A virtine's memory is a flat, private byte array — "each virtine must
//! have its own set of private data which must be disjoint from any other
//! virtine's set" (§3.3). Accesses beyond the configured size model an
//! EPT violation: the nested page tables simply have no mapping to hand out.

use std::fmt;

use crate::inst::Width;

/// An out-of-bounds guest-physical access (the simulated EPT violation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysAccessError {
    /// First byte of the offending access.
    pub paddr: u64,
    /// Access size in bytes.
    pub len: u64,
    /// Size of guest-physical memory.
    pub mem_size: u64,
}

impl fmt::Display for PhysAccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "guest-physical access {:#x}+{} beyond memory size {:#x}",
            self.paddr, self.len, self.mem_size
        )
    }
}

impl std::error::Error for PhysAccessError {}

/// The written ("dirty") extent of a memory, tracked as two regions around
/// the midpoint: low allocations (image, heap) grow upward from 0, the
/// stack grows downward from the top. Snapshots and shell cleaning charge
/// for — and operate on — exactly these regions, which is how Wasp keeps
/// snapshot cost proportional to *image* size (§6.2, Figure 12) rather than
/// guest-memory size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtyExtent {
    /// End (exclusive) of the dirtied low region starting at 0.
    pub low_end: u64,
    /// Start (inclusive) of the dirtied high region ending at `size`.
    pub high_start: u64,
}

impl DirtyExtent {
    /// Total dirty bytes, given the memory size.
    pub fn bytes(&self, size: u64) -> u64 {
        self.low_end + size.saturating_sub(self.high_start)
    }
}

/// Page size of the dirty-page bitmap (matches the 4 KiB EPT granularity
/// real dirty logging — `KVM_GET_DIRTY_LOG` — reports at).
pub const PAGE_SIZE: u64 = 4096;

/// Flat guest-physical memory of a single virtual context.
///
/// Two dirty-tracking structures coexist, serving different consumers:
///
/// * the coarse **extent** pair (`dirty_low_end`/`dirty_high_start`) tracks
///   everything written since the last [`Memory::clear`] and drives wipe
///   and sparse-snapshot costs;
/// * the exact **page bitmap** tracks pages written since the last
///   [`Memory::reset_dirty_pages`] and models hardware dirty logging: a
///   warm-shell re-arm copies back *exactly* these pages from the snapshot
///   instead of the full sparse image.
pub struct Memory {
    bytes: Vec<u8>,
    dirty_low_end: u64,
    dirty_high_start: u64,
    /// One bit per [`PAGE_SIZE`] page, set on write, cleared by
    /// [`Memory::reset_dirty_pages`].
    dirty_pages: Vec<u64>,
    /// A second, independently cleared page bitmap consumed by the
    /// predecoded interpreter's block cache: set on every write (the bulk
    /// clear/restore paths fill it wholesale, the delta re-arm marks exactly
    /// the pages it copies back), cleared page-by-page once the cache has
    /// revalidated the blocks on that page. A clear bit is a promise made to
    /// *one* cache about *this* memory, so it never travels with a copy of
    /// the bytes: see the `Clone` impl.
    code_dirty: Vec<u64>,
}

// A clone has never been seen by any block cache: handing it the original's
// clean bits would let `machine.mem = other.clone()` present bytes a retained
// cache has not revalidated as already checked. The copy starts all
// code-dirty instead (equality ignores the bitmap, so `clone() == original`).
impl Clone for Memory {
    fn clone(&self) -> Memory {
        Memory {
            bytes: self.bytes.clone(),
            dirty_low_end: self.dirty_low_end,
            dirty_high_start: self.dirty_high_start,
            dirty_pages: self.dirty_pages.clone(),
            code_dirty: vec![!0; self.code_dirty.len()],
        }
    }
}

// `code_dirty` is cache-coherency bookkeeping, not architected state: the
// fast and reference interpreters drain it differently while leaving the
// bytes identical, so equality deliberately ignores it.
impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.bytes == other.bytes
            && self.dirty_low_end == other.dirty_low_end
            && self.dirty_high_start == other.dirty_high_start
            && self.dirty_pages == other.dirty_pages
    }
}

impl Eq for Memory {}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Memory({} bytes)", self.bytes.len())
    }
}

impl Memory {
    /// Allocates `size` bytes of zeroed guest memory.
    pub fn new(size: usize) -> Memory {
        let pages = (size as u64).div_ceil(PAGE_SIZE) as usize;
        Memory {
            bytes: vec![0; size],
            dirty_low_end: 0,
            dirty_high_start: size as u64,
            dirty_pages: vec![0; pages.div_ceil(64)],
            code_dirty: vec![0; pages.div_ceil(64)],
        }
    }

    /// Size of guest-physical memory in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// The current dirty extent.
    pub fn dirty_extent(&self) -> DirtyExtent {
        DirtyExtent {
            low_end: self.dirty_low_end,
            high_start: self.dirty_high_start,
        }
    }

    /// Number of dirty bytes.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_extent().bytes(self.bytes.len() as u64)
    }

    /// Whether the memory is known to be all zeroes.
    pub fn is_clean(&self) -> bool {
        self.dirty_low_end == 0 && self.dirty_high_start == self.bytes.len() as u64
    }

    /// Indices of pages written since the last
    /// [`Memory::reset_dirty_pages`], in ascending order.
    pub fn dirty_page_indices(&self) -> Vec<u64> {
        let mut pages = Vec::new();
        for (w, &bits) in self.dirty_pages.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let b = bits.trailing_zeros() as u64;
                pages.push(w as u64 * 64 + b);
                bits &= bits - 1;
            }
        }
        pages
    }

    /// Number of pages written since the last
    /// [`Memory::reset_dirty_pages`].
    pub fn dirty_page_count(&self) -> usize {
        self.dirty_pages
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Clears the dirty-page bitmap without touching memory contents: the
    /// `KVM_CLEAR_DIRTY_LOG` step a hypervisor performs at the points where
    /// memory provably equals a reference state (snapshot capture, full or
    /// delta restore).
    pub fn reset_dirty_pages(&mut self) {
        self.dirty_pages.fill(0);
    }

    /// Whether `page` has been written since the block cache last cleared
    /// its bit ([`Memory::clear_code_dirty_page`]). Pages past the end of
    /// memory read as clean.
    pub fn code_page_dirty(&self, page: u64) -> bool {
        self.code_dirty
            .get(page as usize / 64)
            .is_some_and(|w| w & (1 << (page % 64)) != 0)
    }

    /// Acknowledges writes to `page`: called by the predecode block cache
    /// after revalidating (or discarding) every cached block on that page.
    pub fn clear_code_dirty_page(&mut self, page: u64) {
        if let Some(w) = self.code_dirty.get_mut(page as usize / 64) {
            *w &= !(1 << (page % 64));
        }
    }

    /// Marks every page as touched for the block cache. The wholesale
    /// mutation paths (clear, sparse restore) rewrite bytes without going
    /// through `mark_dirty`, so they pessimize the whole bitmap instead; the
    /// cost lands on the cache's per-page revalidation sweep.
    fn mark_all_code_dirty(&mut self) {
        self.code_dirty.fill(!0);
    }

    /// Sets `page`'s bit in both bitmaps.
    #[inline(always)]
    fn mark_page(&mut self, page: u64) {
        self.dirty_pages[page as usize / 64] |= 1 << (page % 64);
        self.code_dirty[page as usize / 64] |= 1 << (page % 64);
    }

    /// Grows the dirty extent over the written bytes `start..end`.
    #[inline(always)]
    fn extend_dirty(&mut self, start: u64, end: u64) {
        let mid = (self.bytes.len() as u64) / 2;
        if end <= mid {
            // Entirely in the lower half: extend the low region upward.
            self.dirty_low_end = self.dirty_low_end.max(end);
        } else {
            // Ends in the upper half: extend the high region downward
            // (covers straddling writes in one region; slight over-coverage
            // is harmless, under-coverage would leak state).
            self.dirty_high_start = self.dirty_high_start.min(start);
        }
    }

    /// Records a write of any length. Off the per-instruction path: a guest
    /// store marks its one page inline in [`Memory::write`] and only comes
    /// here when it straddles two.
    #[cold]
    #[inline(never)]
    fn mark_dirty(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = start + len;
        for page in start / PAGE_SIZE..=(end - 1) / PAGE_SIZE {
            self.mark_page(page);
        }
        self.extend_dirty(start, end);
    }

    #[cold]
    #[inline(never)]
    fn out_of_bounds(&self, paddr: u64, len: u64) -> PhysAccessError {
        PhysAccessError {
            paddr,
            len,
            mem_size: self.bytes.len() as u64,
        }
    }

    #[inline]
    fn check(&self, paddr: u64, len: u64) -> Result<usize, PhysAccessError> {
        match paddr.checked_add(len) {
            Some(end) if end <= self.bytes.len() as u64 => Ok(paddr as usize),
            _ => Err(self.out_of_bounds(paddr, len)),
        }
    }

    /// Reads a zero-extended value of the given width.
    #[inline(always)]
    pub fn read(&self, paddr: u64, width: Width) -> Result<u64, PhysAccessError> {
        // With eight bytes in range — everywhere but the last seven bytes of
        // memory — any width is one bounds check, one unaligned load and a
        // mask, with no branch on the width.
        match usize::try_from(paddr)
            .ok()
            .and_then(|off| self.bytes.get(off..)?.first_chunk::<8>())
        {
            Some(q) => Ok(u64::from_le_bytes(*q) & (u64::MAX >> (64 - 8 * width.bytes()))),
            None => self.read_near_end(paddr, width),
        }
    }

    /// [`Memory::read`] within eight bytes of the end of memory, or past it.
    #[cold]
    #[inline(never)]
    fn read_near_end(&self, paddr: u64, width: Width) -> Result<u64, PhysAccessError> {
        let n = width.bytes() as usize;
        let off = self.check(paddr, width.bytes())?;
        let mut le = [0; 8];
        le[..n].copy_from_slice(&self.bytes[off..off + n]);
        Ok(u64::from_le_bytes(le))
    }

    /// Stores the low `N` bytes of `value`; `None` when out of range.
    #[inline(always)]
    fn put<const N: usize>(&mut self, paddr: u64, value: u64) -> Option<()> {
        let off = usize::try_from(paddr).ok()?;
        let dst = self.bytes.get_mut(off..)?.first_chunk_mut::<N>()?;
        dst.copy_from_slice(&value.to_le_bytes()[..N]);
        Some(())
    }

    /// Writes the low `width` bytes of `value`.
    #[inline(always)]
    pub fn write(&mut self, paddr: u64, width: Width, value: u64) -> Result<(), PhysAccessError> {
        let stored = match width {
            Width::B => self.put::<1>(paddr, value),
            Width::W => self.put::<2>(paddr, value),
            Width::D => self.put::<4>(paddr, value),
            Width::Q => self.put::<8>(paddr, value),
        };
        let len = width.bytes();
        if stored.is_none() {
            return Err(self.out_of_bounds(paddr, len));
        }
        // One page, as all but a straddling store is: two bit-ORs and the
        // extent, no loop.
        let page = paddr / PAGE_SIZE;
        if (paddr + len - 1) / PAGE_SIZE == page {
            self.mark_page(page);
            self.extend_dirty(paddr, paddr + len);
        } else {
            self.mark_dirty(paddr, len);
        }
        Ok(())
    }

    /// Reads an 8-byte little-endian value (page-table walks).
    pub fn read_u64(&self, paddr: u64) -> Result<u64, PhysAccessError> {
        self.read(paddr, Width::Q)
    }

    /// Borrows a byte range.
    pub fn slice(&self, paddr: u64, len: u64) -> Result<&[u8], PhysAccessError> {
        let off = self.check(paddr, len)?;
        Ok(&self.bytes[off..off + len as usize])
    }

    /// Borrows a byte range starting at `paddr` and running to the end of
    /// memory (used by the instruction decoder, which reads at most 10
    /// bytes but must tolerate images ending mid-window).
    pub fn tail(&self, paddr: u64) -> Result<&[u8], PhysAccessError> {
        let off = self.check(paddr, 0)?;
        Ok(&self.bytes[off..])
    }

    /// Copies `data` into memory at `paddr`.
    pub fn write_bytes(&mut self, paddr: u64, data: &[u8]) -> Result<(), PhysAccessError> {
        let off = self.check(paddr, data.len() as u64)?;
        self.bytes[off..off + data.len()].copy_from_slice(data);
        self.mark_dirty(paddr, data.len() as u64);
        Ok(())
    }

    /// Zeroes the dirty regions (virtine shell cleaning, §5.2: "we can clear
    /// its context, preventing information leakage"). Only dirtied bytes are
    /// touched, so the wipe cost tracks what the virtine actually used.
    pub fn clear(&mut self) {
        let lo = self.dirty_low_end as usize;
        let hi = self.dirty_high_start as usize;
        self.bytes[..lo].fill(0);
        self.bytes[hi..].fill(0);
        self.dirty_low_end = 0;
        self.dirty_high_start = self.bytes.len() as u64;
        self.reset_dirty_pages();
        self.mark_all_code_dirty();
    }

    /// Whole memory as a slice (snapshots).
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Replaces the entire contents from a snapshot of identical size.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot` has a different length than this memory.
    pub fn restore_from(&mut self, snapshot: &[u8]) {
        assert_eq!(
            snapshot.len(),
            self.bytes.len(),
            "snapshot size must match memory size"
        );
        self.bytes.copy_from_slice(snapshot);
        self.mark_dirty(0, snapshot.len() as u64);
    }

    /// Captures the dirty regions: `(low bytes, high_start, high bytes)`.
    /// Together with [`Memory::restore_sparse`] this is Wasp's
    /// image-proportional snapshot representation.
    pub fn snapshot_sparse(&self) -> (Vec<u8>, u64, Vec<u8>) {
        let lo = self.dirty_low_end as usize;
        let hi = self.dirty_high_start as usize;
        (
            self.bytes[..lo].to_vec(),
            self.dirty_high_start,
            self.bytes[hi..].to_vec(),
        )
    }

    /// Restores a sparse snapshot. The regions between the extents are
    /// zeroed if anything was written there since the last [`Memory::clear`],
    /// so a restore is total regardless of the shell's prior contents.
    /// Afterwards memory provably equals the snapshot, so the dirty-page
    /// bitmap is reset.
    pub fn restore_sparse(&mut self, low: &[u8], high_start: u64, high: &[u8]) {
        if !self.is_clean() {
            self.clear();
        }
        self.bytes[..low.len()].copy_from_slice(low);
        let hi = high_start as usize;
        self.bytes[hi..hi + high.len()].copy_from_slice(high);
        self.dirty_low_end = low.len() as u64;
        self.dirty_high_start = high_start;
        self.reset_dirty_pages();
        self.mark_all_code_dirty();
    }

    /// Delta re-arm: restores `pages` (indices into [`PAGE_SIZE`] pages) to
    /// the contents a sparse snapshot holds for them — bytes from the low
    /// region, the high region, or implicit zeroes in between. When `pages`
    /// covers every page that diverged from the snapshot (the dirty-page
    /// bitmap guarantees this: every write since the restore/capture point
    /// set its page bit), memory afterwards provably equals the snapshot,
    /// so the dirty extents are set to the snapshot's and the bitmap is
    /// reset.
    pub fn restore_pages_sparse(
        &mut self,
        pages: &[u64],
        low: &[u8],
        high_start: u64,
        high: &[u8],
    ) {
        // Each page overlaps at most three contiguous source ranges — the
        // low region, implicit zeroes, and the high region — so rebuild it
        // with (at most) three bulk ops. This sits on the warm-hit fast
        // path: every delta re-arm runs it per dirty page.
        //
        // Only the pages rewritten here are marked for the block cache: a
        // page outside `pages` keeps the bytes it had, so its code-dirty bit
        // already says whether the cache has seen them. A warm re-arm that
        // copies back stack and data pages therefore costs the cache nothing.
        let hi = high_start as usize;
        for &page in pages {
            self.code_dirty[page as usize / 64] |= 1 << (page % 64);
            let start = (page * PAGE_SIZE) as usize;
            let end = (start + PAGE_SIZE as usize).min(self.bytes.len());
            let low_end = low.len().clamp(start, end);
            let zero_end = hi.clamp(low_end, end);
            if low_end > start {
                self.bytes[start..low_end].copy_from_slice(&low[start..low_end]);
            }
            self.bytes[low_end..zero_end].fill(0);
            if end > zero_end {
                self.bytes[zero_end..end].copy_from_slice(&high[zero_end - hi..end - hi]);
            }
        }
        self.dirty_low_end = low.len() as u64;
        self.dirty_high_start = high_start;
        self.reset_dirty_pages();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_memory_is_zeroed() {
        let m = Memory::new(64);
        assert_eq!(m.size(), 64);
        assert!(m.as_slice().iter().all(|&b| b == 0));
    }

    #[test]
    fn widths_read_and_write_little_endian() {
        let mut m = Memory::new(32);
        m.write(0, Width::Q, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read(0, Width::B).unwrap(), 0x88);
        assert_eq!(m.read(0, Width::W).unwrap(), 0x7788);
        assert_eq!(m.read(0, Width::D).unwrap(), 0x5566_7788);
        assert_eq!(m.read(0, Width::Q).unwrap(), 0x1122_3344_5566_7788);
        // Narrow writes only touch their width.
        m.write(8, Width::Q, u64::MAX).unwrap();
        m.write(8, Width::B, 0).unwrap();
        assert_eq!(m.read(8, Width::Q).unwrap(), 0xFFFF_FFFF_FFFF_FF00);
    }

    #[test]
    fn loads_zero_extend() {
        let mut m = Memory::new(16);
        m.write(0, Width::B, 0xFF).unwrap();
        assert_eq!(m.read(0, Width::B).unwrap(), 0xFF);
        assert_eq!(m.read(0, Width::Q).unwrap(), 0xFF);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut m = Memory::new(16);
        let e = m.read(15, Width::Q).unwrap_err();
        assert_eq!(e.paddr, 15);
        assert_eq!(e.len, 8);
        assert_eq!(e.mem_size, 16);
        assert!(m.write(16, Width::B, 0).is_err());
        // Overflowing address arithmetic is caught, not wrapped.
        assert!(m.read(u64::MAX, Width::Q).is_err());
    }

    #[test]
    fn write_bytes_and_slice_round_trip() {
        let mut m = Memory::new(32);
        m.write_bytes(4, b"virtine").unwrap();
        assert_eq!(m.slice(4, 7).unwrap(), b"virtine");
        assert!(m.write_bytes(30, b"xyz").is_err());
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut m = Memory::new(8);
        m.write(0, Width::Q, u64::MAX).unwrap();
        m.clear();
        assert_eq!(m.read(0, Width::Q).unwrap(), 0);
    }

    #[test]
    fn restore_from_snapshot() {
        let mut m = Memory::new(8);
        m.write(0, Width::Q, 0xAB).unwrap();
        let snap = m.as_slice().to_vec();
        m.clear();
        m.restore_from(&snap);
        assert_eq!(m.read(0, Width::Q).unwrap(), 0xAB);
    }

    #[test]
    #[should_panic(expected = "snapshot size must match")]
    fn restore_size_mismatch_panics() {
        let mut m = Memory::new(8);
        m.restore_from(&[0; 4]);
    }

    #[test]
    fn tail_returns_suffix() {
        let m = Memory::new(10);
        assert_eq!(m.tail(7).unwrap().len(), 3);
        assert!(m.tail(11).is_err());
    }

    #[test]
    fn dirty_extent_tracks_low_and_high_writes() {
        let mut m = Memory::new(1024);
        assert!(m.is_clean());
        assert_eq!(m.dirty_bytes(), 0);

        m.write_bytes(16, &[1, 2, 3]).unwrap(); // Low region.
        m.write(1000, Width::Q, 7).unwrap(); // High region (stack-like).
        let ext = m.dirty_extent();
        assert_eq!(ext.low_end, 19);
        assert_eq!(ext.high_start, 1000);
        assert_eq!(m.dirty_bytes(), 19 + 24);
        assert!(!m.is_clean());
    }

    #[test]
    fn straddling_write_is_covered() {
        let mut m = Memory::new(64);
        m.write_bytes(30, &[9; 8]).unwrap(); // Crosses the midpoint (32).
        let ext = m.dirty_extent();
        // Covered by the high region reaching down to 30.
        assert!(ext.high_start <= 30);
    }

    #[test]
    fn clear_resets_dirty_state_and_zeroes() {
        let mut m = Memory::new(256);
        m.write_bytes(8, b"abc").unwrap();
        m.write(250, Width::B, 9).unwrap();
        m.clear();
        assert!(m.is_clean());
        assert!(m.as_slice().iter().all(|&b| b == 0));
    }

    #[test]
    fn dirty_page_bitmap_is_exact() {
        let mut m = Memory::new(16 * PAGE_SIZE as usize);
        assert_eq!(m.dirty_page_count(), 0);
        m.write(3 * PAGE_SIZE, Width::B, 1).unwrap(); // Page 3.
        m.write(3 * PAGE_SIZE + 100, Width::Q, 2).unwrap(); // Page 3 again.
        m.write_bytes(5 * PAGE_SIZE - 2, &[9; 4]).unwrap(); // Straddles 4/5.
        m.write(15 * PAGE_SIZE + 8, Width::Q, 3).unwrap(); // Page 15 (stack).
        assert_eq!(m.dirty_page_indices(), vec![3, 4, 5, 15]);
        assert_eq!(m.dirty_page_count(), 4);
        m.reset_dirty_pages();
        assert_eq!(m.dirty_page_count(), 0);
        // Contents untouched by the bitmap reset.
        assert_eq!(m.read(3 * PAGE_SIZE, Width::B).unwrap(), 1);
    }

    #[test]
    fn clear_and_restore_reset_the_page_bitmap() {
        let mut m = Memory::new(8 * PAGE_SIZE as usize);
        m.write(0, Width::Q, 7).unwrap();
        m.clear();
        assert_eq!(m.dirty_page_count(), 0);
        m.write(0, Width::Q, 7).unwrap();
        let (low, hs, high) = m.snapshot_sparse();
        m.write(PAGE_SIZE, Width::Q, 9).unwrap();
        m.restore_sparse(&low, hs, &high);
        assert_eq!(m.dirty_page_count(), 0);
    }

    #[test]
    fn restore_pages_sparse_rebuilds_exactly_the_snapshot() {
        let size = 8 * PAGE_SIZE as usize;
        let mut m = Memory::new(size);
        // Snapshot state: low region through page 1, stack byte on page 7.
        m.write_bytes(100, b"snapshot-low").unwrap();
        m.write_bytes(PAGE_SIZE + 7, b"more-low").unwrap();
        m.write(7 * PAGE_SIZE + 64, Width::Q, 0xFEED).unwrap();
        let (low, hs, high) = m.snapshot_sparse();
        m.reset_dirty_pages();

        // Diverge: overwrite snapshot data and dirty a middle page.
        m.write_bytes(100, b"garbagegarba").unwrap();
        m.write(4 * PAGE_SIZE + 8, Width::Q, 0xBAD).unwrap();
        m.write(7 * PAGE_SIZE + 64, Width::Q, 0xBAD).unwrap();
        let pages = m.dirty_page_indices();
        assert_eq!(pages, vec![0, 4, 7]);

        let mut reference = Memory::new(size);
        reference.restore_sparse(&low, hs, &high);
        m.restore_pages_sparse(&pages, &low, hs, &high);
        assert_eq!(m.as_slice(), reference.as_slice(), "delta != full restore");
        assert_eq!(m.dirty_extent(), reference.dirty_extent());
        assert_eq!(m.dirty_page_count(), 0);
    }

    #[test]
    fn code_dirty_is_set_by_writes_and_cleared_per_page() {
        let mut m = Memory::new(8 * PAGE_SIZE as usize);
        assert!(!m.code_page_dirty(2));
        m.write(2 * PAGE_SIZE + 10, Width::Q, 7).unwrap();
        assert!(m.code_page_dirty(2));
        assert!(!m.code_page_dirty(3));
        m.clear_code_dirty_page(2);
        assert!(!m.code_page_dirty(2));
        // Clearing the snapshot bitmap leaves the code bitmap alone and
        // vice versa.
        m.write(0, Width::B, 1).unwrap();
        m.reset_dirty_pages();
        assert!(m.code_page_dirty(0));
        // Bulk ops pessimize every page.
        m.clear_code_dirty_page(0);
        m.clear();
        assert!(m.code_page_dirty(0) && m.code_page_dirty(7));
        // Out-of-range pages read clean and clear without panicking.
        assert!(!m.code_page_dirty(1 << 40));
        m.clear_code_dirty_page(1 << 40);
    }

    #[test]
    fn equality_ignores_the_code_dirty_bitmap() {
        let mut a = Memory::new(PAGE_SIZE as usize);
        let mut b = Memory::new(PAGE_SIZE as usize);
        a.write(0, Width::Q, 42).unwrap();
        b.write(0, Width::Q, 42).unwrap();
        a.clear_code_dirty_page(0);
        assert_eq!(a, b);
    }

    #[test]
    fn a_clone_is_equal_but_all_code_dirty() {
        let mut a = Memory::new(4 * PAGE_SIZE as usize);
        a.write(PAGE_SIZE, Width::Q, 42).unwrap();
        for page in 0..4 {
            a.clear_code_dirty_page(page);
        }
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.dirty_page_indices(), b.dirty_page_indices());
        // The original's clean bits were a promise to *its* cache only.
        assert!((0..4).all(|page| b.code_page_dirty(page)));
        assert!((0..4).all(|page| !a.code_page_dirty(page)));
    }

    #[test]
    fn delta_rearm_marks_exactly_the_pages_it_copies_back() {
        let mut m = Memory::new(8 * PAGE_SIZE as usize);
        m.write_bytes(100, b"code").unwrap();
        m.write(7 * PAGE_SIZE + 64, Width::Q, 0xFEED).unwrap();
        let (low, hs, high) = m.snapshot_sparse();
        m.reset_dirty_pages();
        // The cache acknowledges everything written so far, then the guest
        // dirties a data page and the stack page and is re-armed.
        for page in 0..8 {
            m.clear_code_dirty_page(page);
        }
        m.write(4 * PAGE_SIZE, Width::Q, 1).unwrap();
        m.write(7 * PAGE_SIZE + 64, Width::Q, 2).unwrap();
        m.clear_code_dirty_page(4);
        let pages = m.dirty_page_indices();
        m.restore_pages_sparse(&pages, &low, hs, &high);
        let marked: Vec<u64> = (0..8).filter(|&p| m.code_page_dirty(p)).collect();
        assert_eq!(marked, vec![4, 7], "only rewritten pages are marked");
        // The wholesale paths still pessimise every page.
        m.restore_sparse(&low, hs, &high);
        assert!((0..8).all(|page| m.code_page_dirty(page)));
    }

    #[test]
    fn sparse_snapshot_round_trips() {
        let mut m = Memory::new(512);
        m.write_bytes(0, b"image bytes here").unwrap();
        m.write(500, Width::Q, 0xAA).unwrap();
        let (low, hs, high) = m.snapshot_sparse();
        assert_eq!(low.len(), 16);
        assert_eq!(hs, 500);
        assert_eq!(high.len(), 12);

        // Dirty the shell differently, then restore.
        let mut shell = Memory::new(512);
        shell.write_bytes(100, b"garbage").unwrap();
        shell.restore_sparse(&low, hs, &high);
        assert_eq!(shell.slice(0, 16).unwrap(), b"image bytes here");
        assert_eq!(shell.read(500, Width::Q).unwrap(), 0xAA);
        // The middle garbage was wiped by the restore.
        assert_eq!(shell.slice(100, 7).unwrap(), &[0; 7]);
    }
}
