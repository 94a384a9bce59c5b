//! Segmented data memory.
//!
//! Three mapped regions (see [`sor_ir::layout`]): the global/heap segment,
//! the downward-growing stack, and the output MMIO page (handled by the
//! machine, not here). Everything else — notably the entire low null-guard
//! region and the vast gaps between segments — faults. Under the paper's
//! §7.1 model memory contents are assumed ECC-protected, so register
//! upsets were the only injected faults; the `mem-bit` fault model of
//! `sor-models` relaxes that assumption and flips stored bits directly
//! (see [`crate::FaultEffect::MemXor`]). Memory itself simply stores
//! bytes.

use crate::checkpoint::Checkpoint;
use sor_ir::layout;
use std::fmt;

/// A memory access fault (maps to the paper's SEGV outcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemError {
    /// The faulting address.
    pub addr: u64,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "segmentation fault at {:#x}", self.addr)
    }
}

impl std::error::Error for MemError {}

/// Page granularity for copy-on-write dirty tracking (checkpoint support).
pub const PAGE_SIZE: u64 = 4096;

/// A set of page images captured from a [`Memory`] — the copy-on-write
/// delta between two checkpoints of the golden run. Applying a sequence of
/// snapshots in capture order onto a pristine memory reconstructs the
/// memory state at the final capture point exactly.
#[derive(Debug, Clone, Default)]
pub struct PageSnapshot {
    /// `(page index, page bytes)` pairs, where the page index counts global
    /// pages first, then stack pages.
    pages: Vec<(u32, Box<[u8]>)>,
}

impl PageSnapshot {
    /// Number of captured pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no page was dirtied in the covered window.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    pub(crate) fn entries(&self) -> &[(u32, Box<[u8]>)] {
        &self.pages
    }

    /// The captured image of page `p`, if this delta holds one. Pages are
    /// stored by ascending index (`Memory::drain_dirty` order).
    fn image(&self, p: u32) -> Option<&[u8]> {
        let i = self.pages.binary_search_by_key(&p, |(q, _)| *q).ok()?;
        Some(&self.pages[i].1)
    }
}

/// Byte-addressable data memory backing the global and stack segments.
///
/// With page tracking enabled (see [`Memory::enable_page_tracking`]) every
/// write marks its 4 KiB page dirty, which supports the operations needed
/// by checkpoint-and-replay fault injection: capturing the pages dirtied
/// since the last capture ([`Memory::take_dirty_pages`]), rolling the
/// memory back to its pristine post-init state by undoing only the touched
/// pages ([`Memory::reset_tracked`]), restoring a checkpoint
/// ([`Memory::restore_snapshots`]) and, after a restore, comparing only
/// the pages written since against the golden run.
#[derive(Debug, Clone)]
pub struct Memory {
    global: Vec<u8>,
    stack: Vec<u8>,
    /// Pristine copy of the initialized global segment (tracking only).
    pristine_global: Option<Box<[u8]>>,
    /// Dirty-page bitmap over global pages then stack pages (tracking
    /// only): pages written since tracking started, or since the last
    /// capture, reset or restore.
    dirty: Vec<u64>,
    /// Pages the last [`Memory::restore_snapshots`] wrote, which the next
    /// reset or restore must undo too (same layout as `dirty`).
    restored: Vec<u64>,
    tracking: bool,
}

/// Contents of a stack page nothing has written: its pristine image.
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

impl Memory {
    /// Creates memory with a global segment of `global_size` bytes
    /// (rounded up to 4 KiB) initialized from `init` chunks.
    pub fn new(global_size: u64, init: &[(u64, &[u8])]) -> Self {
        let size = (global_size + (PAGE_SIZE - 1)) & !(PAGE_SIZE - 1);
        assert!(
            size <= layout::GLOBAL_MAX,
            "global segment too large: {size:#x}"
        );
        let mut global = vec![0u8; size as usize];
        for (addr, bytes) in init {
            let off = (addr - layout::GLOBAL_BASE) as usize;
            global[off..off + bytes.len()].copy_from_slice(bytes);
        }
        Memory {
            global,
            stack: vec![0u8; (layout::STACK_TOP - layout::STACK_BASE) as usize],
            pristine_global: None,
            dirty: Vec::new(),
            restored: Vec::new(),
            tracking: false,
        }
    }

    fn num_pages(&self) -> usize {
        (self.global.len() + self.stack.len()) / PAGE_SIZE as usize
    }

    /// Length in bytes of the (page-rounded) global segment.
    pub(crate) fn global_len(&self) -> usize {
        self.global.len()
    }

    /// Raw segment pointers for the JIT: (global base, stack base, dirty
    /// bitmap or null when page tracking is off). The bitmap covers
    /// global pages then stack pages, one bit per page, exactly the
    /// layout [`Memory::mark_dirty`] maintains.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    pub(crate) fn raw_parts(&mut self) -> (*mut u8, *mut u8, *mut u64) {
        let dirty = if self.tracking {
            self.dirty.as_mut_ptr()
        } else {
            std::ptr::null_mut()
        };
        (self.global.as_mut_ptr(), self.stack.as_mut_ptr(), dirty)
    }

    /// Starts dirty-page tracking from the current (assumed pristine,
    /// post-init) contents. Idempotent.
    pub fn enable_page_tracking(&mut self) {
        if self.tracking {
            return;
        }
        self.pristine_global = Some(self.global.clone().into_boxed_slice());
        self.dirty = vec![0u64; self.num_pages().div_ceil(64)];
        self.restored = self.dirty.clone();
        self.tracking = true;
    }

    /// Page index of `addr` in the combined global-then-stack page space,
    /// for an address already validated by [`Memory::slot`].
    fn page_of(&self, addr: u64) -> u32 {
        if addr >= layout::STACK_BASE {
            (self.global.len() as u64 / PAGE_SIZE + (addr - layout::STACK_BASE) / PAGE_SIZE) as u32
        } else {
            ((addr - layout::GLOBAL_BASE) / PAGE_SIZE) as u32
        }
    }

    fn mark_dirty(&mut self, addr: u64, len: u64) {
        let first = self.page_of(addr);
        let last = self.page_of(addr + len - 1);
        for p in first..=last {
            self.dirty[p as usize / 64] |= 1u64 << (p % 64);
        }
    }

    /// Page `p`'s byte range in its segment, and whether that is the
    /// stack (pages count global pages first).
    fn page_range(&self, p: u32) -> (bool, std::ops::Range<usize>) {
        let global_pages = self.global.len() / PAGE_SIZE as usize;
        let p = p as usize;
        let (stack, i) = match p.checked_sub(global_pages) {
            Some(i) => (true, i),
            None => (false, p),
        };
        (stack, i * PAGE_SIZE as usize..(i + 1) * PAGE_SIZE as usize)
    }

    fn page_slice(&self, p: u32) -> &[u8] {
        match self.page_range(p) {
            (true, r) => &self.stack[r],
            (false, r) => &self.global[r],
        }
    }

    fn page_slice_mut(&mut self, p: u32) -> &mut [u8] {
        match self.page_range(p) {
            (true, r) => &mut self.stack[r],
            (false, r) => &mut self.global[r],
        }
    }

    /// Page `p` as it was before the program ran.
    fn pristine_page(&self, p: u32) -> &[u8] {
        match self.page_range(p) {
            (true, _) => &ZERO_PAGE,
            (false, r) => &self.pristine_global.as_ref().expect("tracking")[r],
        }
    }

    fn drain_dirty(&mut self) -> Vec<u32> {
        let mut pages = Vec::new();
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let b = bits.trailing_zeros();
                pages.push((w * 64) as u32 + b);
                bits &= bits - 1;
            }
        }
        pages
    }

    /// Captures and clears the dirty-page set: the copy-on-write delta
    /// since tracking started or since the previous capture.
    ///
    /// # Panics
    ///
    /// Panics unless [`Memory::enable_page_tracking`] was called.
    pub fn take_dirty_pages(&mut self) -> PageSnapshot {
        assert!(self.tracking, "page tracking not enabled");
        let pages = self
            .drain_dirty()
            .into_iter()
            .map(|p| {
                let bytes: Box<[u8]> = self.page_slice_mut(p).to_vec().into_boxed_slice();
                (p, bytes)
            })
            .collect();
        PageSnapshot { pages }
    }

    /// Rolls every dirty or restored page back to its pristine post-init
    /// contents (global pages from the saved image, stack pages to zero)
    /// and clears both sets — an O(touched pages) full-memory reset.
    ///
    /// # Panics
    ///
    /// Panics unless [`Memory::enable_page_tracking`] was called.
    pub fn reset_tracked(&mut self) {
        assert!(self.tracking, "page tracking not enabled");
        for (d, r) in self.dirty.iter_mut().zip(&mut self.restored) {
            *d |= std::mem::take(r);
        }
        for p in self.drain_dirty() {
            self.reset_page(p);
        }
    }

    /// Rolls page `p` back to its pristine post-init contents.
    fn reset_page(&mut self, p: u32) {
        match self.page_range(p) {
            (true, r) => self.stack[r].fill(0),
            (false, r) => {
                let pristine = self.pristine_global.as_ref().expect("tracking");
                self.global[r.clone()].copy_from_slice(&pristine[r]);
            }
        }
    }

    /// [`Memory::reset_tracked`] followed by [`Memory::apply_pages`] of a
    /// snapshot sequence, given **newest first**, with each page written
    /// once: a page takes its newest snapshot image, and a touched page no
    /// snapshot holds goes back to pristine. Memory comes out bit-identical
    /// to the reset-then-replay sequence. The dirty set ends empty, so it
    /// then holds exactly the pages written since the restore; the
    /// snapshots' pages are remembered apart, for the next reset or
    /// restore to undo.
    ///
    /// # Panics
    ///
    /// Panics unless [`Memory::enable_page_tracking`] was called.
    pub fn restore_snapshots<'s>(
        &mut self,
        newest_first: impl IntoIterator<Item = &'s PageSnapshot>,
    ) {
        assert!(self.tracking, "page tracking not enabled");
        // `dirty` collects every touched page for the undo pass below, and
        // `restored` restarts empty as the seen set, so older images of a
        // page are skipped.
        for (d, r) in self.dirty.iter_mut().zip(&mut self.restored) {
            *d |= std::mem::take(r);
        }
        for snap in newest_first {
            for (p, bytes) in &snap.pages {
                let (w, bit) = (*p as usize / 64, 1u64 << (p % 64));
                if self.restored[w] & bit == 0 {
                    self.restored[w] |= bit;
                    self.page_slice_mut(*p).copy_from_slice(bytes);
                }
            }
        }
        for w in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[w]) & !self.restored[w];
            while bits != 0 {
                self.reset_page((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Whether memory equals the golden run's memory at the last of the
    /// checkpoints `cps`, given that it equalled the golden memory at
    /// `cps[restored]` when [`Memory::restore_snapshots`] last ran. `cps`
    /// runs from the golden run's start, in capture order, and their page
    /// deltas are the golden images. Only two kinds of page can differ:
    /// pages written since the restore (the dirty set) and pages the
    /// golden run wrote in between (the deltas after `restored`). Each is
    /// compared with its newest golden image, or with its pristine
    /// contents if no delta holds it.
    pub(crate) fn matches_golden(&self, cps: &[Checkpoint], restored: usize) -> bool {
        // Pages this run wrote first: a corruption sits among them.
        for (w, &dirty) in self.dirty.iter().enumerate() {
            let mut bits = dirty;
            while bits != 0 {
                let p = (w * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                let golden = cps
                    .iter()
                    .rev()
                    .find_map(|ck| ck.pages.image(p))
                    .unwrap_or_else(|| self.pristine_page(p));
                if self.page_slice(p) != golden {
                    return false;
                }
            }
        }
        // Then the golden run's pages, newest image first.
        let mut seen = self.dirty.clone();
        for ck in cps[restored + 1..].iter().rev() {
            for (p, bytes) in &ck.pages.pages {
                let (w, bit) = (*p as usize / 64, 1u64 << (p % 64));
                if seen[w] & bit == 0 {
                    seen[w] |= bit;
                    if self.page_slice(*p) != &bytes[..] {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Writes the snapshot's pages into memory, marking them dirty so a
    /// later [`Memory::reset_tracked`] undoes them too.
    ///
    /// # Panics
    ///
    /// Panics unless [`Memory::enable_page_tracking`] was called.
    pub fn apply_pages(&mut self, snap: &PageSnapshot) {
        assert!(self.tracking, "page tracking not enabled");
        for (p, bytes) in &snap.pages {
            self.page_slice_mut(*p).copy_from_slice(bytes);
            self.dirty[*p as usize / 64] |= 1u64 << (p % 64);
        }
    }

    #[inline]
    fn slot(&mut self, addr: u64, len: u64) -> Result<&mut [u8], MemError> {
        let end = addr.checked_add(len).ok_or(MemError { addr })?;
        if addr >= layout::GLOBAL_BASE && end <= layout::GLOBAL_BASE + self.global.len() as u64 {
            let off = (addr - layout::GLOBAL_BASE) as usize;
            Ok(&mut self.global[off..off + len as usize])
        } else if addr >= layout::STACK_BASE && end <= layout::STACK_TOP {
            let off = (addr - layout::STACK_BASE) as usize;
            Ok(&mut self.stack[off..off + len as usize])
        } else {
            Err(MemError { addr })
        }
    }

    /// Reads `len` (1/2/4/8) bytes little-endian.
    ///
    /// The access widths are dispatched to fixed-size loads: a
    /// runtime-length `copy_from_slice` compiles to an out-of-line memcpy
    /// call, which dominated interpreter memory-op cost.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] when any byte falls outside a mapped segment.
    #[inline]
    pub fn read(&mut self, addr: u64, len: u64) -> Result<u64, MemError> {
        let bytes = self.slot(addr, len)?;
        Ok(match bytes.len() {
            1 => bytes[0] as u64,
            2 => u16::from_le_bytes(bytes[..2].try_into().unwrap()) as u64,
            4 => u32::from_le_bytes(bytes[..4].try_into().unwrap()) as u64,
            8 => u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            _ => {
                let mut buf = [0u8; 8];
                buf[..len as usize].copy_from_slice(bytes);
                u64::from_le_bytes(buf)
            }
        })
    }

    /// Writes the low `len` (1/2/4/8) bytes of `value` little-endian,
    /// width-specialized like [`Memory::read`].
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] when any byte falls outside a mapped segment.
    #[inline]
    pub fn write(&mut self, addr: u64, len: u64, value: u64) -> Result<(), MemError> {
        let bytes = self.slot(addr, len)?;
        let le = value.to_le_bytes();
        match bytes.len() {
            1 => bytes[0] = le[0],
            2 => bytes[..2].copy_from_slice(&le[..2]),
            4 => bytes[..4].copy_from_slice(&le[..4]),
            8 => bytes[..8].copy_from_slice(&le[..8]),
            _ => bytes.copy_from_slice(&le[..len as usize]),
        }
        if self.tracking {
            self.mark_dirty(addr, len);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_initialized_globals() {
        let mut m = Memory::new(64, &[(layout::GLOBAL_BASE + 8, &42u64.to_le_bytes())]);
        assert_eq!(m.read(layout::GLOBAL_BASE + 8, 8).unwrap(), 42);
        assert_eq!(m.read(layout::GLOBAL_BASE, 8).unwrap(), 0);
    }

    #[test]
    fn round_trips_all_widths() {
        let mut m = Memory::new(64, &[]);
        let a = layout::GLOBAL_BASE;
        for len in [1u64, 2, 4, 8] {
            let v = 0x1122_3344_5566_7788u64 & ((1u128 << (len * 8)) - 1) as u64;
            m.write(a, len, 0x1122_3344_5566_7788).unwrap();
            assert_eq!(m.read(a, len).unwrap(), v, "width {len}");
        }
    }

    #[test]
    fn stack_is_mapped() {
        let mut m = Memory::new(0, &[]);
        m.write(layout::STACK_TOP - 16, 8, 7).unwrap();
        assert_eq!(m.read(layout::STACK_TOP - 16, 8).unwrap(), 7);
    }

    #[test]
    fn null_and_gaps_fault() {
        let mut m = Memory::new(64, &[]);
        assert!(m.read(0, 8).is_err());
        assert!(m.read(8, 1).is_err());
        assert!(m.read(layout::GLOBAL_BASE - 1, 1).is_err());
        assert!(m.read(layout::STACK_TOP, 1).is_err());
        assert!(m.read(u64::MAX - 3, 8).is_err(), "wrapping access faults");
    }

    #[test]
    fn dirty_tracking_captures_only_written_pages() {
        let mut m = Memory::new(4 * PAGE_SIZE, &[(layout::GLOBAL_BASE, &9u64.to_le_bytes())]);
        m.enable_page_tracking();
        m.write(layout::GLOBAL_BASE + PAGE_SIZE, 8, 11).unwrap();
        m.write(layout::STACK_TOP - 16, 8, 22).unwrap();
        let snap = m.take_dirty_pages();
        assert_eq!(snap.len(), 2);
        // A second capture with no writes in between is empty.
        assert!(m.take_dirty_pages().is_empty());
    }

    #[test]
    fn straddling_write_dirties_both_pages() {
        let mut m = Memory::new(4 * PAGE_SIZE, &[]);
        m.enable_page_tracking();
        m.write(layout::GLOBAL_BASE + PAGE_SIZE - 4, 8, u64::MAX)
            .unwrap();
        assert_eq!(m.take_dirty_pages().len(), 2);
    }

    #[test]
    fn reset_tracked_restores_pristine_state() {
        let init = 77u64.to_le_bytes();
        let mut m = Memory::new(2 * PAGE_SIZE, &[(layout::GLOBAL_BASE + 8, &init)]);
        m.enable_page_tracking();
        m.write(layout::GLOBAL_BASE + 8, 8, 123).unwrap();
        m.write(layout::STACK_TOP - 8, 8, 456).unwrap();
        m.reset_tracked();
        assert_eq!(m.read(layout::GLOBAL_BASE + 8, 8).unwrap(), 77);
        assert_eq!(m.read(layout::STACK_TOP - 8, 8).unwrap(), 0);
        assert!(
            m.take_dirty_pages().is_empty(),
            "reset clears the dirty set"
        );
    }

    #[test]
    fn apply_pages_replays_a_snapshot_and_reset_undoes_it() {
        let mut a = Memory::new(2 * PAGE_SIZE, &[]);
        a.enable_page_tracking();
        a.write(layout::GLOBAL_BASE + 100, 8, 0xDEAD).unwrap();
        a.write(layout::STACK_TOP - 64, 8, 0xBEEF).unwrap();
        let snap = a.take_dirty_pages();

        let mut b = Memory::new(2 * PAGE_SIZE, &[]);
        b.enable_page_tracking();
        b.apply_pages(&snap);
        assert_eq!(b.read(layout::GLOBAL_BASE + 100, 8).unwrap(), 0xDEAD);
        assert_eq!(b.read(layout::STACK_TOP - 64, 8).unwrap(), 0xBEEF);
        b.reset_tracked();
        assert_eq!(b.read(layout::GLOBAL_BASE + 100, 8).unwrap(), 0);
        assert_eq!(b.read(layout::STACK_TOP - 64, 8).unwrap(), 0);
    }

    #[test]
    fn restore_snapshots_equals_reset_then_replay() {
        let init = 5u64.to_le_bytes();
        let fresh = || {
            let mut m = Memory::new(3 * PAGE_SIZE, &[(layout::GLOBAL_BASE + 16, &init)]);
            m.enable_page_tracking();
            m
        };
        let g = |page: u64| layout::GLOBAL_BASE + page * PAGE_SIZE + 16;
        // Three deltas: page 0 twice, page 1 once, one stack page.
        let mut src = fresh();
        src.write(g(0), 8, 1).unwrap();
        src.write(layout::STACK_TOP - 8, 8, 2).unwrap();
        let s0 = src.take_dirty_pages();
        src.write(g(1), 8, 3).unwrap();
        let s1 = src.take_dirty_pages();
        src.write(g(0), 8, 4).unwrap();
        let s2 = src.take_dirty_pages();
        let snaps = [s0, s1, s2];
        for n in 0..=snaps.len() {
            // Dirty pages both inside and outside the prefix beforehand.
            let (mut a, mut b) = (fresh(), fresh());
            for m in [&mut a, &mut b] {
                m.write(g(2), 8, 9).unwrap();
                m.write(g(0), 8, 9).unwrap();
                m.write(layout::STACK_TOP - PAGE_SIZE, 8, 9).unwrap();
            }
            a.reset_tracked();
            for s in &snaps[..n] {
                a.apply_pages(s);
            }
            b.restore_snapshots(snaps[..n].iter().rev());
            // The restore's pages are remembered apart from the dirty set,
            // which restarts empty.
            assert_eq!(
                (&a.global, &a.stack, &a.dirty),
                (&b.global, &b.stack, &b.restored),
                "{n}"
            );
            assert!(b.dirty.iter().all(|&w| w == 0), "{n}");
        }
    }

    #[test]
    fn access_straddling_segment_end_faults() {
        let mut m = Memory::new(4096, &[]);
        assert!(m.write(layout::GLOBAL_BASE + 4095, 8, 1).is_err());
        assert!(m.write(layout::STACK_TOP - 4, 8, 1).is_err());
    }
}
