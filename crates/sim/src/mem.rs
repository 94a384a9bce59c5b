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
}

/// Byte-addressable data memory backing the global and stack segments.
///
/// With page tracking enabled (see [`Memory::enable_page_tracking`]) every
/// write marks its 4 KiB page dirty, which supports two operations needed
/// by checkpoint-and-replay fault injection: capturing the pages dirtied
/// since the last capture ([`Memory::take_dirty_pages`]) and rolling the
/// memory back to its pristine post-init state by undoing only the dirtied
/// pages ([`Memory::reset_tracked`]).
#[derive(Debug, Clone)]
pub struct Memory {
    global: Vec<u8>,
    stack: Vec<u8>,
    /// Pristine copy of the initialized global segment (tracking only).
    pristine_global: Option<Box<[u8]>>,
    /// Dirty-page bitmap over global pages then stack pages (tracking only).
    dirty: Vec<u64>,
    tracking: bool,
}

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

    fn page_slice_mut(&mut self, page: u32) -> &mut [u8] {
        let global_pages = self.global.len() / PAGE_SIZE as usize;
        let p = page as usize;
        if p < global_pages {
            &mut self.global[p * PAGE_SIZE as usize..(p + 1) * PAGE_SIZE as usize]
        } else {
            let off = (p - global_pages) * PAGE_SIZE as usize;
            &mut self.stack[off..off + PAGE_SIZE as usize]
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

    /// Rolls every dirty page back to its pristine post-init contents
    /// (global pages from the saved image, stack pages to zero) and clears
    /// the dirty set — an O(touched pages) full-memory reset.
    ///
    /// # Panics
    ///
    /// Panics unless [`Memory::enable_page_tracking`] was called.
    pub fn reset_tracked(&mut self) {
        assert!(self.tracking, "page tracking not enabled");
        for p in self.drain_dirty() {
            self.reset_page(p);
        }
    }

    /// Rolls page `p` back to its pristine post-init contents.
    fn reset_page(&mut self, p: u32) {
        let pu = p as usize;
        if pu < self.global.len() / PAGE_SIZE as usize {
            let range = pu * PAGE_SIZE as usize..(pu + 1) * PAGE_SIZE as usize;
            let pristine = self.pristine_global.as_ref().expect("tracking");
            self.global[range.clone()].copy_from_slice(&pristine[range]);
        } else {
            self.page_slice_mut(p).fill(0);
        }
    }

    /// [`Memory::reset_tracked`] followed by [`Memory::apply_pages`] of a
    /// snapshot sequence, given **newest first**, with each page written
    /// once: a page takes its newest snapshot image, a dirty page no
    /// snapshot holds goes back to pristine, and the dirty set ends as the
    /// union of the snapshots' pages. Memory and dirty set come out
    /// bit-identical to the reset-then-replay sequence.
    ///
    /// # Panics
    ///
    /// Panics unless [`Memory::enable_page_tracking`] was called.
    pub fn restore_snapshots<'s>(
        &mut self,
        newest_first: impl IntoIterator<Item = &'s PageSnapshot>,
    ) {
        assert!(self.tracking, "page tracking not enabled");
        // `dirty` restarts empty and doubles as the seen set, so older
        // images of a page are skipped.
        let fresh = vec![0; self.dirty.len()];
        let stale = std::mem::replace(&mut self.dirty, fresh);
        for snap in newest_first {
            for (p, bytes) in &snap.pages {
                let (w, bit) = (*p as usize / 64, 1u64 << (p % 64));
                if self.dirty[w] & bit == 0 {
                    self.dirty[w] |= bit;
                    self.page_slice_mut(*p).copy_from_slice(bytes);
                }
            }
        }
        for (w, old) in stale.into_iter().enumerate() {
            let mut bits = old & !self.dirty[w];
            while bits != 0 {
                self.reset_page((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
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
            assert_eq!(
                (&a.global, &a.stack, &a.dirty),
                (&b.global, &b.stack, &b.dirty),
                "{n}"
            );
        }
    }

    #[test]
    fn access_straddling_segment_end_faults() {
        let mut m = Memory::new(4096, &[]);
        assert!(m.write(layout::GLOBAL_BASE + 4095, 8, 1).is_err());
        assert!(m.write(layout::STACK_TOP - 4, 8, 1).is_err());
    }
}
