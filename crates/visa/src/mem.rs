//! Guest-physical memory.
//!
//! A virtine's memory is a flat, private byte array — "each virtine must
//! have its own set of private data which must be disjoint from any other
//! virtine's set" (§3.3). Accesses beyond the configured size model an
//! EPT violation: the nested page tables simply have no mapping to hand out.
//!
//! # Two ledgers
//!
//! What a wipe, a snapshot or a restore *costs the guest's timeline* and what
//! it *makes the host do* are tracked separately, and neither is derived from
//! the other:
//!
//! * the **extents** (`dirty_low_end` / `dirty_high_start`, [`DirtyExtent`])
//!   are the virtual cost model: every `memset`/`memcpy` charge, a sparse
//!   image's `low`/`high` regions, [`Memory::dirty_bytes`] and
//!   [`Memory::is_clean`] are computed from them and from nothing else;
//! * the **page sets** are what the host actually touches: [`Memory::clear`]
//!   zeroes exactly the pages that may hold a non-zero byte, a full restore
//!   copies exactly the pages its [`SparseImage`] has content on, and a delta
//!   re-arm exactly the pages in the dirty log.
//!
//! Three page bitmaps (one bit per [`PAGE_SIZE`] page) carry the page sets:
//!
//! | bitmap | set by | cleared by | read by |
//! |---|---|---|---|
//! | `dirty_pages` — the dirty log | every write (`mark_page`) | [`Memory::reset_dirty_pages`], which first folds it into `touched`; `clear` | the delta re-arm, [`Memory::dirty_page_indices`] |
//! | `touched` — may hold a non-zero byte | `reset_dirty_pages` (from the log), the sparse restores (the pages they copy) | `clear` | `clear`, [`Memory::snapshot_sparse`] |
//! | `code_dirty` — changed under the block cache | every write, and `clear` / the restores for exactly the pages they rewrite | [`Memory::clear_code_dirty_page`], page by page | the predecode cache's revalidation sweep |
//!
//! **The invariant the wipe rests on:** *every non-zero byte lies on a page
//! whose bit is set in `touched | dirty_pages`.* `touched` is deliberately
//! not written on the store path (a guest store is `put` + two bit-ORs + the
//! extent); it is derived at the points where the log is walked anyway.
//! A page outside that union is zero, so `clear` skips it, and since it was
//! zero before and is zero after, no block cached from it needs revalidating.
//! Debug builds re-check the invariant by scanning the whole buffer after
//! every wipe, full restore and buffer reuse.
//!
//! # Retired shells
//!
//! A memory that goes away is wiped and parked on this thread's spare list,
//! and the next memory of its size starts from it. Dropped, it parks as a
//! bare buffer; [`Memory::retire`]d together with the vCPU that last ran on
//! it, it also keeps that vCPU's block cache *and its own `code_dirty`
//! bitmap* — the wipe has just marked every page it zeroed, so the pair is
//! exactly what a cleaned pooled shell holds. [`Memory::revive`] hands such a
//! shell, cache and all, to a fresh vCPU; [`Memory::new`] takes the buffer
//! and leaves any cache behind. A cache is never adopted by a memory other
//! than the one whose bits vouch for it.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::Range;

use crate::cpu::Cpu;
use crate::inst::Width;
use crate::pred::PredCache;

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
/// stack grows downward from the top. Snapshots and shell cleaning *charge*
/// for exactly these regions, which is how Wasp keeps snapshot cost
/// proportional to *image* size (§6.2, Figure 12) rather than guest-memory
/// size; what the host copies and zeroes is the page sets (module docs).
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

/// This thread's guest-memory lifecycle counters (monotonic). Per thread,
/// not per process: a [`Memory`], the spare list it is recycled through and
/// the dispatcher that scrapes these all live on one thread, and a test
/// reads exact deltas without racing its neighbours.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Pages zeroed by [`Memory::clear`].
    pub pages_wiped: u64,
    /// Pages copied by full restores ([`Memory::restore_sparse`]).
    pub pages_restored: u64,
    /// Pages copied by delta re-arms ([`Memory::restore_pages_sparse`]).
    pub pages_rearmed: u64,
    /// Guest-memory buffers obtained from the allocator.
    pub buffers_allocated: u64,
    /// Guest-memory buffers reused from the spare list instead.
    pub buffers_recycled: u64,
}

/// Bytes of wiped guest-memory buffers one thread keeps for reuse — the only
/// bound on the spare list, and so the most guest memory it can pin: 4 MiB,
/// eight of `vcc`'s 512 KiB shells (the block caches retired shells carry
/// ride along uncounted). The oldest spares make room for a new one; a
/// buffer larger than the bound, or smaller than a page, is never parked.
const SPARE_BYTES: usize = 4 << 20;

/// A retired shell on the spare list: a wiped buffer and, when it was
/// [`Memory::retire`]d, the `code_dirty` bitmap and the block cache that
/// bitmap vouches for — the two never travel apart.
struct Spare {
    bytes: Vec<u8>,
    cache: Option<(Vec<u64>, PredCache)>,
}

thread_local! {
    static COUNTERS: Cell<Counters> = Cell::default();
    /// Retired shells, **every one already wiped**: the scrub happens when a
    /// shell is parked, never when it is reused, so whatever gave it up — a
    /// killed dirty shell, an abandoned suspended run — the next memory of
    /// its size starts all-zero by construction.
    static SPARES: RefCell<Vec<Spare>> = const { RefCell::new(Vec::new()) };
}

/// Snapshot of this thread's [`Counters`].
pub fn counters() -> Counters {
    COUNTERS.get()
}

/// Updates this thread's counters. (The cell has no destructor, so `Drop`
/// may get here during thread teardown.)
fn count(update: impl FnOnce(&mut Counters)) {
    let mut c = COUNTERS.get();
    update(&mut c);
    COUNTERS.set(c);
}

/// Whether `bytes` holds no non-zero byte (page-wise `memcmp`, so the debug
/// audits stay cheap in unoptimised builds).
fn all_zero(bytes: &[u8]) -> bool {
    bytes.chunks(4096).all(|c| *c == [0; 4096][..c.len()])
}

/// Page indices of the bits set in word `w` of a page bitmap, ascending.
fn pages_in(w: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let page = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            page
        })
    })
}

/// Indices of the pages set in a page bitmap, ascending.
fn page_indices(bitmap: &[u64]) -> Vec<u64> {
    let words = bitmap.iter().enumerate();
    words
        .flat_map(|(w, &bits)| pages_in(w, bits))
        .map(|page| page as u64)
        .collect()
}

/// The dirty regions of a memory — Wasp's image-proportional snapshot
/// representation (§5.2) — plus the set of pages they have content on.
///
/// `low`/`high` are the *extents* at capture, so [`SparseImage::copied_bytes`]
/// is what the virtual clock charges; `pages` is the memory's
/// `touched | dirty_pages` at capture, a superset of the pages holding a
/// non-zero byte, and is what a full restore actually copies.
#[derive(Debug, Clone)]
pub struct SparseImage {
    low: Vec<u8>,
    high_start: u64,
    high: Vec<u8>,
    pages: Vec<u64>,
    mem_size: usize,
}

impl SparseImage {
    /// Bytes of the captured extents: what a restore is charged for.
    pub fn copied_bytes(&self) -> usize {
        self.low.len() + self.high.len()
    }

    /// Size of the memory the image was captured from.
    pub fn mem_size(&self) -> usize {
        self.mem_size
    }
}

/// Flat guest-physical memory of a single virtual context. The module docs
/// describe its dirty-tracking structures and who reads which.
pub struct Memory {
    bytes: Vec<u8>,
    dirty_low_end: u64,
    dirty_high_start: u64,
    /// The dirty log: set on write, cleared by
    /// [`Memory::reset_dirty_pages`].
    dirty_pages: Vec<u64>,
    /// Pages that may hold a non-zero byte and are no longer in the log.
    touched: Vec<u64>,
    /// Consumed by the predecoded interpreter's block cache: set on every
    /// write and for every page a wipe or restore rewrites, cleared
    /// page-by-page once the cache has revalidated the blocks on that page.
    /// A clear bit is a promise made to *one* cache about *this* memory, so
    /// it never travels with a copy of the bytes: see the `Clone` impl.
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
            touched: self.touched.clone(),
            code_dirty: vec![!0; self.code_dirty.len()],
        }
    }
}

// `code_dirty` is cache-coherency bookkeeping and `touched` is derived from
// the log, neither is architected state: the fast and reference interpreters
// drain the first differently while leaving the bytes identical, so equality
// deliberately ignores both.
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

// A dropped memory parks its wiped buffer, without a cache (see `SPARES`).
impl Drop for Memory {
    fn drop(&mut self) {
        self.park(None);
    }
}

impl Memory {
    /// `size` bytes of zeroed guest memory: a wiped spare buffer of exactly
    /// that size when this thread has one, a fresh allocation otherwise.
    pub fn new(size: usize) -> Memory {
        Memory::reuse(size, None)
    }

    /// `size` bytes of zeroed guest memory for `cpu`, a vCPU fresh from
    /// [`Cpu::new`]: a retired shell of that size — preferring one that
    /// carries a block cache, which replaces `cpu`'s — or whatever
    /// [`Memory::new`] would return, and `cpu`'s cache emptied. The cache
    /// comes with the `code_dirty` bits of the memory it was built against,
    /// which the wipe at [`Memory::retire`] set for every page it zeroed, so
    /// it is exactly a cleaned pooled shell's cache (the retention invariant
    /// in `pred.rs`).
    pub fn revive(size: usize, cpu: &mut Cpu) -> Memory {
        Memory::reuse(size, Some(cpu))
    }

    /// Retires this memory together with `cpu`, the vCPU that last ran on
    /// it: wiped, it parks on this thread's spare list with `cpu`'s block
    /// cache for [`Memory::revive`]. Leaves this memory empty (size 0) and
    /// `cpu` with an empty cache — for a hypervisor tearing a VM down.
    pub fn retire(&mut self, cpu: &mut Cpu) {
        self.park(Some(std::mem::take(&mut cpu.pred)));
    }

    /// Wipes this memory and parks its buffer — with `cache` and the
    /// `code_dirty` bits that vouch for it, if given — evicting the oldest
    /// spares past [`SPARE_BYTES`]. A size the list never holds is left
    /// alone, to be freed.
    fn park(&mut self, cache: Option<PredCache>) {
        if !(PAGE_SIZE as usize..=SPARE_BYTES).contains(&self.bytes.len()) {
            return;
        }
        self.clear();
        let spare = Spare {
            bytes: std::mem::take(&mut self.bytes),
            cache: cache.map(|c| (std::mem::take(&mut self.code_dirty), c)),
        };
        // `try_with`: a memory dropped during thread teardown is just freed.
        let _ = SPARES.try_with(|spares| {
            let mut spares = spares.borrow_mut();
            let mut held: usize = spares.iter().map(|s| s.bytes.len()).sum();
            while held + spare.bytes.len() > SPARE_BYTES {
                held -= spares.remove(0).bytes.len();
            }
            spares.push(spare);
        });
    }

    /// A memory of `size` bytes from the newest spare of that size or the
    /// allocator. With a `cpu` to revive, a spare carrying a cache is
    /// preferred, and `cpu` adopts the cache with its memory's bits.
    fn reuse(size: usize, cpu: Option<&mut Cpu>) -> Memory {
        let spare = SPARES.with(|spares| {
            let mut spares = spares.borrow_mut();
            let (i, _) = (spares.iter().enumerate())
                .filter(|(_, s)| s.bytes.len() == size)
                .max_by_key(|&(i, s)| (cpu.is_some() && s.cache.is_some(), i))?;
            Some(spares.remove(i))
        });
        count(|c| match spare {
            Some(_) => c.buffers_recycled += 1,
            None => c.buffers_allocated += 1,
        });
        debug_assert!(
            spare.as_ref().is_none_or(|s| all_zero(&s.bytes)),
            "a spare buffer was parked unwiped"
        );
        let words = (size as u64).div_ceil(PAGE_SIZE).div_ceil(64) as usize;
        let (bytes, cache) = spare.map_or_else(|| (vec![0; size], None), |s| (s.bytes, s.cache));
        // The revived vCPU ends up with exactly the cache these bits vouch
        // for: the spare's, or an empty one beside fresh bits.
        let (code_dirty, pred) = (cache.filter(|_| cpu.is_some()))
            .unwrap_or_else(|| (vec![0; words], PredCache::default()));
        if let Some(cpu) = cpu {
            cpu.pred = pred;
        }
        Memory {
            bytes,
            dirty_low_end: 0,
            dirty_high_start: size as u64,
            dirty_pages: vec![0; words],
            touched: vec![0; words],
            code_dirty,
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
        page_indices(&self.dirty_pages)
    }

    /// Indices of the pages that left the dirty log but may still hold a
    /// non-zero byte, in ascending order.
    pub(crate) fn touched_page_indices(&self) -> Vec<u64> {
        page_indices(&self.touched)
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
    /// delta restore). The logged pages stay `touched`: they left the log,
    /// not the set of pages a wipe must visit.
    pub fn reset_dirty_pages(&mut self) {
        for (touched, log) in self.touched.iter_mut().zip(&mut self.dirty_pages) {
            *touched |= std::mem::take(log);
        }
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

    /// Sets `page`'s bit in the dirty log and the code-dirty bitmap.
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

    /// Writes a progression: the low `width` bytes of `value + i·step` at
    /// `paddr + i·stride`, for `i` in `0..count`, in that order. The bytes
    /// and the ledger are what `count` [`Memory::write`] calls leave, for
    /// one bounds check over the whole span, one pass over its pages when
    /// no page between two writes can be skipped, and the extents in
    /// closed form. Fails, writing nothing, when any of the writes would
    /// leave memory.
    pub(crate) fn write_progression(
        &mut self,
        paddr: u64,
        stride: i64,
        count: u64,
        width: Width,
        (value, step): (u64, u64),
    ) -> Result<(), PhysAccessError> {
        let len = width.bytes();
        let Some(last) = count.checked_sub(1) else {
            return Ok(());
        };
        let end = i128::from(paddr) + i128::from(stride) * i128::from(last);
        let (lo, hi) = (
            end.min(paddr.into()),
            end.max(paddr.into()) + i128::from(len),
        );
        if lo < 0 || hi > self.bytes.len() as i128 {
            return Err(self.out_of_bounds(paddr, len));
        }
        let (lo, hi) = (lo as u64, hi as u64);
        match width {
            Width::B => self.put_progression::<1>(paddr, stride, count, value, step),
            Width::W => self.put_progression::<2>(paddr, stride, count, value, step),
            Width::D => self.put_progression::<4>(paddr, stride, count, value, step),
            Width::Q => self.put_progression::<8>(paddr, stride, count, value, step),
        }
        let gap = stride.unsigned_abs();
        if gap <= PAGE_SIZE {
            // No page fits between two neighbouring writes: every page of
            // the span is written.
            for page in lo / PAGE_SIZE..=(hi - 1) / PAGE_SIZE {
                self.mark_page(page);
            }
        } else {
            for i in 0..count {
                let at = paddr.wrapping_add((stride as u64).wrapping_mul(i));
                for page in at / PAGE_SIZE..=(at + len - 1) / PAGE_SIZE {
                    self.mark_page(page);
                }
            }
        }
        // Writes that end by the midpoint raise the low extent to the
        // highest end among them; the rest lower the high extent to the
        // lowest start among them (`extend_dirty`).
        let mid = (self.bytes.len() as u64) / 2;
        if hi <= mid || lo + len > mid {
            self.extend_dirty(lo, hi);
        } else {
            // Both kinds, so at least two writes, `gap` apart: `split` is
            // the start of the highest write that ends by the midpoint.
            let split = lo + (mid - len - lo).checked_div(gap).unwrap_or(0) * gap;
            self.extend_dirty(lo, split + len);
            self.extend_dirty(split + gap, hi);
        }
        Ok(())
    }

    /// The bytes of [`Memory::write_progression`], whose span is in range:
    /// one pass over contiguous chunks when the writes abut, ascending.
    #[inline(always)]
    fn put_progression<const N: usize>(
        &mut self,
        paddr: u64,
        stride: i64,
        count: u64,
        mut value: u64,
        step: u64,
    ) {
        if stride == N as i64 {
            // The span was checked; `get_mut` keeps a panic path out all
            // the same.
            let at = paddr as usize;
            let Some(span) = self.bytes.get_mut(at..at + N * count as usize) else {
                return;
            };
            for dst in span.chunks_exact_mut(N) {
                dst.copy_from_slice(&value.to_le_bytes()[..N]);
                value = value.wrapping_add(step);
            }
            return;
        }
        // In order: with `stride` under `N` the writes overlap, and the
        // later one wins.
        let mut at = paddr;
        for _ in 0..count {
            let stored = self.put::<N>(at, value);
            debug_assert!(stored.is_some(), "the span was bounds-checked");
            at = at.wrapping_add(stride as u64);
            value = value.wrapping_add(step);
        }
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

    /// Byte range of `page`, clamped to the end of memory (sizes need not be
    /// a page multiple).
    fn page_range(&self, page: usize) -> Range<usize> {
        let start = page * PAGE_SIZE as usize;
        start..(start + PAGE_SIZE as usize).min(self.bytes.len())
    }

    /// Zeroes the memory (virtine shell cleaning, §5.2: "we can clear its
    /// context, preventing information leakage"). The wipe is eager and
    /// physical — afterwards no byte is non-zero — but only the pages that
    /// may hold one (`touched | dirty_pages`) are visited, and exactly those
    /// are marked for the block cache.
    pub fn clear(&mut self) {
        let mut wiped = 0;
        for w in 0..self.touched.len() {
            let word =
                std::mem::take(&mut self.touched[w]) | std::mem::take(&mut self.dirty_pages[w]);
            self.code_dirty[w] |= word;
            wiped += u64::from(word.count_ones());
            for page in pages_in(w, word) {
                let range = self.page_range(page);
                self.bytes[range].fill(0);
            }
        }
        self.dirty_low_end = 0;
        self.dirty_high_start = self.bytes.len() as u64;
        count(|c| c.pages_wiped += wiped);
        debug_assert!(all_zero(&self.bytes), "clear left a non-zero byte");
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

    /// Captures the dirty regions and the set of pages that may hold a
    /// non-zero byte. Callers that go on to [`Memory::reset_dirty_pages`]
    /// (a snapshot capture does) must do so *after* this call: the page set
    /// is read from the bitmaps, never scanned for.
    pub fn snapshot_sparse(&self) -> SparseImage {
        let pages = self.touched.iter().zip(&self.dirty_pages);
        SparseImage {
            low: self.bytes[..self.dirty_low_end as usize].to_vec(),
            high_start: self.dirty_high_start,
            high: self.bytes[self.dirty_high_start as usize..].to_vec(),
            pages: pages.map(|(t, d)| t | d).collect(),
            mem_size: self.bytes.len(),
        }
    }

    /// Makes every page in the bitmap `pages` equal `image` — bytes from the
    /// low region, the high region, or implicit zeroes in between — and
    /// adopts the image's extents. Returns the number of pages written.
    ///
    /// Only the pages rewritten here are marked for the block cache: any
    /// other page keeps the bytes it had, so its code-dirty bit already says
    /// whether the cache has seen them.
    fn copy_pages(&mut self, pages: &[u64], image: &SparseImage) -> u64 {
        assert_eq!(
            image.mem_size,
            self.bytes.len(),
            "snapshot/memory size mismatch"
        );
        // Each page overlaps at most three contiguous source ranges — the
        // low region, implicit zeroes, and the high region — so rebuild it
        // with (at most) three bulk ops. This sits on the warm-hit fast
        // path: every delta re-arm runs it per dirty page.
        let (low, high, hi) = (&image.low, &image.high, image.high_start as usize);
        let mut copied = 0;
        for (w, &word) in pages.iter().enumerate() {
            self.touched[w] |= word;
            self.code_dirty[w] |= word;
            copied += u64::from(word.count_ones());
            for page in pages_in(w, word) {
                let Range { start, end } = self.page_range(page);
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
        }
        self.dirty_low_end = low.len() as u64;
        self.dirty_high_start = image.high_start;
        copied
    }

    /// Full restore: wipes whatever the shell held, then copies the pages
    /// the image has content on, so the result is total regardless of the
    /// shell's prior contents. Afterwards memory provably equals the image,
    /// so the dirty log is empty.
    ///
    /// # Panics
    ///
    /// Panics if the image was captured from a memory of another size.
    pub fn restore_sparse(&mut self, image: &SparseImage) {
        self.clear();
        let copied = self.copy_pages(&image.pages, image);
        count(|c| c.pages_restored += copied);
        // (The extents overlap when a write straddled the midpoint.)
        let (lo, hi) = (image.low.len(), image.high_start as usize);
        debug_assert!(
            self.bytes[..lo] == image.low[..]
                && self.bytes.get(lo..hi).is_none_or(all_zero)
                && self.bytes[hi..] == image.high[..],
            "page-exact restore differs from the extent copy"
        );
    }

    /// Delta re-arm: restores the pages in the dirty log to the contents
    /// `image` holds for them. When the log
    /// covers every page that diverged from the image (the discipline
    /// guarantees this: it was reset at a point where memory equalled the
    /// image, and every write since set its page bit), memory afterwards
    /// provably equals the image, so its extents are adopted and the log is
    /// reset.
    ///
    /// # Panics
    ///
    /// Panics if the image was captured from a memory of another size.
    pub fn restore_pages_sparse(&mut self, image: &SparseImage) {
        let log = std::mem::take(&mut self.dirty_pages);
        let copied = self.copy_pages(&log, image);
        self.dirty_pages = log;
        self.reset_dirty_pages();
        count(|c| c.pages_rearmed += copied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vclock::rng::Rng;

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
        let image = m.snapshot_sparse();
        m.write(PAGE_SIZE, Width::Q, 9).unwrap();
        m.restore_sparse(&image);
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
        let image = m.snapshot_sparse();
        m.reset_dirty_pages();

        // Diverge: overwrite snapshot data and dirty a middle page.
        m.write_bytes(100, b"garbagegarba").unwrap();
        m.write(4 * PAGE_SIZE + 8, Width::Q, 0xBAD).unwrap();
        m.write(7 * PAGE_SIZE + 64, Width::Q, 0xBAD).unwrap();
        assert_eq!(m.dirty_page_indices(), vec![0, 4, 7]);

        let mut reference = Memory::new(size);
        reference.restore_sparse(&image);
        m.restore_pages_sparse(&image);
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
        // A wipe marks exactly the pages it zeroes — 0 and 2 were written,
        // in or out of the log — and no page that was zero and stays zero.
        for page in 0..8 {
            m.clear_code_dirty_page(page);
        }
        m.clear();
        let marked: Vec<u64> = (0..8).filter(|&p| m.code_page_dirty(p)).collect();
        assert_eq!(marked, vec![0, 2], "only wiped pages are marked");
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
        let image = m.snapshot_sparse();
        m.reset_dirty_pages();
        // The cache acknowledges everything written so far, then the guest
        // dirties a data page and the stack page and is re-armed.
        for page in 0..8 {
            m.clear_code_dirty_page(page);
        }
        m.write(4 * PAGE_SIZE, Width::Q, 1).unwrap();
        m.write(7 * PAGE_SIZE + 64, Width::Q, 2).unwrap();
        m.clear_code_dirty_page(4);
        m.restore_pages_sparse(&image);
        let marked = |m: &Memory| {
            (0..8)
                .filter(|&p| m.code_page_dirty(p))
                .collect::<Vec<u64>>()
        };
        assert_eq!(marked(&m), vec![4, 7], "only rewritten pages are marked");
        // A full restore is as exact: the guest dirties a data page, the
        // restore wipes it, the image's two pages and page 4 (zeroed by the
        // re-arm above, but still in the set a wipe visits) and copies the
        // image's two back; the four pages never written stay unmarked.
        for page in 0..8 {
            m.clear_code_dirty_page(page);
        }
        m.write(5 * PAGE_SIZE, Width::Q, 3).unwrap();
        m.clear_code_dirty_page(5);
        m.restore_sparse(&image);
        assert_eq!(marked(&m), vec![0, 4, 5, 7], "wiped or copied pages only");
    }

    #[test]
    fn sparse_snapshot_round_trips() {
        let mut m = Memory::new(512);
        m.write_bytes(0, b"image bytes here").unwrap();
        m.write(500, Width::Q, 0xAA).unwrap();
        let image = m.snapshot_sparse();
        assert_eq!(image.low.len(), 16);
        assert_eq!(image.high_start, 500);
        assert_eq!(image.high.len(), 12);
        assert_eq!(image.copied_bytes(), 28);

        // Dirty the shell differently, then restore.
        let mut shell = Memory::new(512);
        shell.write_bytes(100, b"garbage").unwrap();
        shell.restore_sparse(&image);
        assert_eq!(shell.slice(0, 16).unwrap(), b"image bytes here");
        assert_eq!(shell.read(500, Width::Q).unwrap(), 0xAA);
        // The middle garbage was wiped by the restore.
        assert_eq!(shell.slice(100, 7).unwrap(), &[0; 7]);
    }
    #[test]
    fn a_memory_dropped_during_thread_teardown_is_just_freed() {
        // A memory owned by a thread-local outlives the spare list when the
        // list's destructor runs first (and precedes it when it runs last):
        // either way the drop must wipe, find nowhere to park, and return.
        thread_local! {
            static HOLDER: RefCell<Vec<Memory>> = const { RefCell::new(Vec::new()) };
        }
        for holder_registers_first in [true, false] {
            let thread = std::thread::spawn(move || {
                if holder_registers_first {
                    HOLDER.with(|h| h.borrow_mut().clear());
                }
                // Park one buffer, so the spare list exists on this thread.
                drop(Memory::new(2 * PAGE_SIZE as usize));
                let mut m = Memory::new(2 * PAGE_SIZE as usize);
                m.write(PAGE_SIZE, Width::Q, 7).unwrap();
                HOLDER.with(|h| h.borrow_mut().push(m));
            });
            thread.join().expect("teardown must not panic");
        }
    }

    #[test]
    fn a_retired_memory_is_revived_with_its_own_code_dirty_bits() {
        use crate::cpu::{Cpu, CpuConfig};
        // A thread of its own: an empty spare list.
        std::thread::spawn(|| {
            let size = 4 * PAGE_SIZE as usize;
            let cpu = || Cpu::new(vclock::Clock::new(), CpuConfig::default(), 0);
            let bare = Memory::new(size);
            // A cache has seen every page; then the guest writes page 1.
            let mut m = Memory::new(size);
            (0..4).for_each(|page| m.clear_code_dirty_page(page));
            m.write(PAGE_SIZE, Width::Q, 7).unwrap();
            m.clear_code_dirty_page(1);
            m.retire(&mut cpu());
            assert_eq!(m.size(), 0, "retiring empties the memory");
            drop(bare); // Parked after the retired shell, without a cache.
            let marked = |m: &Memory| (0..4).filter(|&p| m.code_page_dirty(p)).collect::<Vec<_>>();
            // Revival prefers the retired shell: zero, and its bits say the
            // wipe rewrote page 1 and nothing else.
            let revived = Memory::revive(size, &mut cpu());
            assert!(all_zero(revived.as_slice()));
            assert_eq!(marked(&revived), [1]);
            // `new` took the bare buffer, with bits of its own.
            let fresh = Memory::new(size);
            assert_eq!(marked(&fresh), [] as [u64; 0]);
            assert_eq!(counters().buffers_recycled, 2);
        })
        .join()
        .unwrap();
    }

    // -----------------------------------------------------------------------
    // The page-exact memory against a naive model.

    /// Guest memory the way the extent-only implementation kept it: a plain
    /// byte vector, the two extents, the dirty log — and nothing page-exact.
    /// Wipes and restores are whole-extent operations.
    struct Model {
        bytes: Vec<u8>,
        low_end: usize,
        high_start: usize,
        log: std::collections::BTreeSet<u64>,
    }

    /// What the model keeps of a snapshot: every byte, and the extents.
    struct ModelImage {
        bytes: Vec<u8>,
        low_end: usize,
        high_start: usize,
    }

    impl Model {
        fn new(size: usize) -> Model {
            Model {
                bytes: vec![0; size],
                low_end: 0,
                high_start: size,
                log: Default::default(),
            }
        }

        fn mark(&mut self, start: usize, len: usize) {
            if len == 0 {
                return;
            }
            let end = start + len;
            self.log
                .extend(start as u64 / PAGE_SIZE..=(end as u64 - 1) / PAGE_SIZE);
            if end <= self.bytes.len() / 2 {
                self.low_end = self.low_end.max(end);
            } else {
                self.high_start = self.high_start.min(start);
            }
        }

        fn write(&mut self, addr: u64, data: &[u8]) -> bool {
            let fits = addr
                .checked_add(data.len() as u64)
                .is_some_and(|end| end <= self.bytes.len() as u64);
            if fits {
                self.bytes[addr as usize..addr as usize + data.len()].copy_from_slice(data);
                self.mark(addr as usize, data.len());
            }
            fits
        }

        fn clear(&mut self) {
            *self = Model::new(self.bytes.len());
        }

        fn snapshot(&self) -> ModelImage {
            ModelImage {
                bytes: self.bytes.clone(),
                low_end: self.low_end,
                high_start: self.high_start,
            }
        }

        /// The byte `image` holds at `i`: inside an extent its copy, between
        /// them an implicit zero.
        fn image_byte(image: &ModelImage, i: usize) -> u8 {
            if i < image.low_end || i >= image.high_start {
                image.bytes[i]
            } else {
                0
            }
        }

        /// Makes `pages` equal `image` — all of them for a full restore, the
        /// dirty log for a delta — and adopts its extents.
        fn restore(&mut self, image: &ModelImage, pages: impl IntoIterator<Item = u64>) {
            let size = self.bytes.len();
            for page in pages {
                let start = (page * PAGE_SIZE) as usize;
                for i in start..(start + PAGE_SIZE as usize).min(size) {
                    self.bytes[i] = Model::image_byte(image, i);
                }
            }
            self.low_end = image.low_end;
            self.high_start = image.high_start;
            self.log.clear();
        }
    }

    /// Every observable of `real` equals the model's, and every non-zero
    /// byte lies on a page in `touched | dirty_pages`.
    fn assert_matches(real: &Memory, model: &Model, what: &str) {
        assert!(real.as_slice() == &model.bytes[..], "{what}: bytes");
        let size = model.bytes.len() as u64;
        let extent = DirtyExtent {
            low_end: model.low_end as u64,
            high_start: model.high_start as u64,
        };
        assert_eq!(real.dirty_extent(), extent, "{what}: extent");
        assert_eq!(
            real.dirty_bytes(),
            extent.bytes(size),
            "{what}: dirty bytes"
        );
        let clean = model.low_end == 0 && model.high_start as u64 == size;
        assert_eq!(real.is_clean(), clean, "{what}: is_clean");
        let log: Vec<u64> = model.log.iter().copied().collect();
        assert_eq!(real.dirty_page_indices(), log, "{what}: dirty log");
        for (page, bytes) in real.as_slice().chunks(PAGE_SIZE as usize).enumerate() {
            let known = (real.touched[page / 64] | real.dirty_pages[page / 64]) >> (page % 64) & 1;
            assert!(
                known == 1 || all_zero(bytes),
                "{what}: page {page} holds a byte the wipe would miss"
            );
        }
    }

    /// An address that stresses the interesting places: anywhere, the last
    /// seven bytes (and just past them), a page boundary, the midpoint.
    fn arb_addr(rng: &mut Rng, size: u64) -> u64 {
        let near = |rng: &mut Rng, at: u64| (at + rng.range_u64(0, 16)).saturating_sub(8);
        match rng.below(8) {
            0 => size - rng.range_u64(0, 9).min(size),
            1 => near(rng, size / 2),
            2 | 3 => {
                let boundary = rng.range_u64(0, size.div_ceil(PAGE_SIZE) + 1) * PAGE_SIZE;
                near(rng, boundary)
            }
            _ => rng.range_u64(0, size),
        }
    }

    #[test]
    fn a_progression_leaves_what_its_writes_one_by_one_leave() {
        let mut rng = Rng::seeded(0x9a6f);
        for size in [4096, 64 * 1024 + 100, 512 * 1024] {
            let pages = (size as u64).div_ceil(PAGE_SIZE);
            for case in 0..400 {
                let width = [Width::B, Width::W, Width::D, Width::Q][rng.below(4)];
                let strides = [0, 1, 2, 3, 8, width.bytes() as i64, 4096, 4097, 8192, 12296];
                let stride = strides[rng.below(strides.len())] * [1, -1][rng.below(2)];
                let count = [0, 1, 2, rng.range_u64(0, 600)][rng.below(4)];
                let (at, value, step) = (
                    arb_addr(&mut rng, size as u64),
                    rng.next_u64(),
                    rng.next_u64(),
                );
                // Both start from the same earlier write, so the extents
                // already hold something.
                let (mut bulk, mut one_by_one) = (Memory::new(size), Memory::new(size));
                let (early, v) = (arb_addr(&mut rng, size as u64), rng.next_u64());
                let _ = (
                    bulk.write(early, Width::Q, v),
                    one_by_one.write(early, Width::Q, v),
                );
                let before = one_by_one.clone();
                let ok = bulk
                    .write_progression(at, stride, count, width, (value, step))
                    .is_ok();
                let fits = (0..count).all(|i| {
                    let addr = at.wrapping_add((stride as u64).wrapping_mul(i));
                    let v = value.wrapping_add(step.wrapping_mul(i));
                    one_by_one.write(addr, width, v).is_ok()
                });
                let what =
                    format!("size {size} case {case}: {count} x {width:?} at {at:#x} by {stride}");
                assert_eq!(ok, fits, "{what}: bounds");
                if !fits {
                    assert!(bulk == before, "{what}: a failed progression wrote");
                    continue;
                }
                assert!(bulk == one_by_one, "{what}: bytes, extents or dirty log");
                for page in 0..pages {
                    let dirty = [&bulk, &one_by_one].map(|m| m.code_page_dirty(page));
                    assert_eq!(dirty[0], dirty[1], "{what}: code-dirty page {page}");
                }
            }
        }
    }

    #[test]
    fn random_lifecycles_match_the_naive_model() {
        let mut rng = Rng::seeded(0x9a6e);
        for size in [8, 64, 512, 4096, 64 * 1024 + 100, 512 * 1024] {
            for script in 0..12 {
                let mut real = Memory::new(size);
                let mut model = Model::new(size);
                let mut snaps: Vec<(SparseImage, ModelImage)> = Vec::new();
                // The snapshot the dirty log is relative to, if any: a delta
                // re-arm is only meaningful (then and now) against that one.
                let mut armed: Option<usize> = None;
                for step in 0..60 {
                    let what = format!("size {size} script {script} step {step}");
                    match rng.below(16) {
                        0..=5 => {
                            let width = [Width::B, Width::W, Width::D, Width::Q][rng.below(4)];
                            let (addr, value) = (arb_addr(&mut rng, size as u64), rng.next_u64());
                            let data = &value.to_le_bytes()[..width.bytes() as usize];
                            let ok = real.write(addr, width, value).is_ok();
                            assert_eq!(ok, model.write(addr, data), "{what}: write bounds");
                        }
                        6..=7 => {
                            let len = rng.below(3 * PAGE_SIZE as usize);
                            let data = rng.bytes(len);
                            let addr = arb_addr(&mut rng, size as u64);
                            let ok = real.write_bytes(addr, &data).is_ok();
                            assert_eq!(ok, model.write(addr, &data), "{what}: bounds");
                        }
                        8 => {
                            real.clear();
                            model.clear();
                            armed = None;
                        }
                        9..=10 => {
                            snaps.push((real.snapshot_sparse(), model.snapshot()));
                            // With or without the log reset a capture does.
                            if rng.bool(0.7) {
                                real.reset_dirty_pages();
                                model.log.clear();
                                armed = Some(snaps.len() - 1);
                            }
                        }
                        11 if !snaps.is_empty() => {
                            let n = rng.below(snaps.len());
                            real.restore_sparse(&snaps[n].0);
                            model.restore(&snaps[n].1, 0..(size as u64).div_ceil(PAGE_SIZE));
                            armed = Some(n);
                        }
                        12 => {
                            if let Some(n) = armed {
                                let pages = real.dirty_page_indices();
                                real.restore_pages_sparse(&snaps[n].0);
                                model.restore(&snaps[n].1, pages);
                            }
                        }
                        13 => {
                            let all = rng.bytes(size);
                            real.restore_from(&all);
                            model.bytes.copy_from_slice(&all);
                            model.mark(0, size);
                            armed = None;
                        }
                        14 => {
                            // The original is dropped: wiped and parked.
                            let copy = real.clone();
                            assert!(copy == real, "{what}: clone");
                            real = copy;
                        }
                        _ => {
                            // Drop and re-create: the same buffer comes back
                            // from the spare list, and it is zero.
                            let before = counters();
                            drop(real);
                            real = Memory::new(size);
                            model.clear();
                            armed = None;
                            let parkable = (PAGE_SIZE as usize..=SPARE_BYTES).contains(&size);
                            let delta = counters().buffers_recycled - before.buffers_recycled;
                            assert_eq!(delta, u64::from(parkable), "{what}: recycled");
                        }
                    }
                    assert_matches(&real, &model, &what);
                }
            }
        }
    }
}
