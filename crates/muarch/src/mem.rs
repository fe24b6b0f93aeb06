//! Backing physical memory and the machine's memory map.
//!
//! The machine exposes a single flat physical memory with three regions:
//!
//! | region | base | purpose |
//! |--------|------|---------|
//! | code   | [`CODE_BASE`]   | instructions; execute/read-only |
//! | data   | [`DATA_BASE`]   | heap + stack (stack grows down from [`STACK_TOP`]) |
//! | output | [`OUTPUT_BASE`] | the program's *output file*: after the run, caches are written back and this range is what an I/O device (DMA) would read |
//!
//! Virtual addresses are identity-mapped; the TLBs exist so translation
//! *state* is fault-injectable (a corrupted TLB entry redirects an access to
//! the wrong physical page, exactly like the paper's TLB experiments).
//!
//! Storage is a paged copy-on-write store: memory is a table of
//! [`PAGE_BYTES`]-sized pages behind `Arc`s. Cloning a `Memory` (and
//! therefore a checkpointed `Sim`) only clones the page table — every clean
//! page stays shared with the source image — and the first write to a shared
//! page splits off a private copy. Per-injection run setup is thus O(pages
//! the faulty run actually dirties), not O([`MEM_SIZE`]), which is what
//! makes checkpoint-based campaigns cheap (the ZOFI-style fork trick, done
//! in-process).

use std::sync::{Arc, OnceLock};

/// Base address of the code region.
pub const CODE_BASE: u32 = 0x0000_0000;
/// Base address of the data region.
pub const DATA_BASE: u32 = 0x0004_0000;
/// Stack top (stack grows downward inside the data region).
pub const STACK_TOP: u32 = 0x0008_0000;
/// Base address of the output region (the program's "output file").
pub const OUTPUT_BASE: u32 = 0x0008_0000;
/// Total physical memory size in bytes.
pub const MEM_SIZE: u32 = 0x000C_0000; // 768 KiB
/// Page size used by the TLBs and by the copy-on-write page store.
pub const PAGE_BYTES: u32 = 4096;

/// Page size as a usize (copy-on-write granularity).
pub const PAGE_SIZE: usize = PAGE_BYTES as usize;
const NUM_PAGES: usize = (MEM_SIZE as usize) / PAGE_SIZE;
const DIRTY_WORDS: usize = NUM_PAGES.div_ceil(64);

type Page = [u8; PAGE_SIZE];

/// The process-wide all-zero page every fresh `Memory` starts from, so
/// constructing a memory image allocates nothing but the page table.
fn zero_page() -> Arc<Page> {
    static ZERO: OnceLock<Arc<Page>> = OnceLock::new();
    Arc::clone(ZERO.get_or_init(|| Arc::new([0u8; PAGE_SIZE])))
}

/// Why a memory access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemFault {
    /// Physical address outside [`MEM_SIZE`].
    OutOfRange(u32),
    /// Store targeting the read-only code region.
    WriteToCode(u32),
    /// Access crossing its natural alignment.
    Misaligned(u32),
    /// Instruction fetch outside the code region.
    ExecuteFault(u32),
}

impl core::fmt::Display for MemFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemFault::OutOfRange(a) => write!(f, "physical address {a:#010x} out of range"),
            MemFault::WriteToCode(a) => write!(f, "store to code region at {a:#010x}"),
            MemFault::Misaligned(a) => write!(f, "misaligned access at {a:#010x}"),
            MemFault::ExecuteFault(a) => write!(f, "instruction fetch outside code at {a:#010x}"),
        }
    }
}

impl std::error::Error for MemFault {}

/// Paged copy-on-write backing memory with region protection.
///
/// This is the *physical* memory behind the cache hierarchy; the caches
/// read/write whole lines through [`Memory::read_line`]/[`Memory::write_line`].
/// Cloning shares every page with the source; the first write to a shared
/// page copies it (write triggers page split).
#[derive(Debug, Clone)]
pub struct Memory {
    pages: Vec<Arc<Page>>,
    code_limit: u32,
    /// Bitset of pages this image has written since the last
    /// [`Memory::clear_tracking`] / restore. A restore against the image the
    /// tracking epoch started from ([`Memory::restore_from_dirty`]) only has
    /// to look at these pages instead of `ptr_eq`-scanning all of them.
    dirty: [u64; DIRTY_WORDS],
    /// Pages examined by restore calls — instrumentation for the dirty-path
    /// regression tests.
    restore_pages_scanned: u64,
}

impl Memory {
    /// Creates zeroed memory with the code region spanning
    /// `CODE_BASE..code_limit`. All pages start shared with the process-wide
    /// zero page, so this allocates only the page table.
    pub fn new(code_limit: u32) -> Self {
        assert!(code_limit <= DATA_BASE, "code region overflows into data");
        Memory {
            pages: (0..NUM_PAGES).map(|_| zero_page()).collect(),
            code_limit,
            dirty: [0; DIRTY_WORDS],
            restore_pages_scanned: 0,
        }
    }

    #[inline]
    fn mark_dirty(&mut self, page: usize) {
        self.dirty[page >> 6] |= 1u64 << (page & 63);
    }

    /// End of the code region (exclusive).
    pub fn code_limit(&self) -> u32 {
        self.code_limit
    }

    /// Checks that a data access of `size` bytes at `addr` is allowed.
    pub fn check_data_access(&self, addr: u32, size: u32, is_store: bool) -> Result<(), MemFault> {
        if !addr.is_multiple_of(size) {
            return Err(MemFault::Misaligned(addr));
        }
        if u64::from(addr) + u64::from(size) > u64::from(MEM_SIZE) {
            return Err(MemFault::OutOfRange(addr));
        }
        if is_store && addr < DATA_BASE {
            return Err(MemFault::WriteToCode(addr));
        }
        Ok(())
    }

    /// Checks that an instruction fetch at `addr` is allowed.
    pub fn check_fetch(&self, addr: u32) -> Result<(), MemFault> {
        if !addr.is_multiple_of(4) {
            return Err(MemFault::Misaligned(addr));
        }
        if addr >= self.code_limit {
            return Err(MemFault::ExecuteFault(addr));
        }
        Ok(())
    }

    /// Copies `buf.len()` bytes starting at `addr` out of memory, spanning
    /// pages as needed.
    fn read_bytes(&self, addr: u32, mut buf: &mut [u8]) {
        let mut a = addr as usize;
        while !buf.is_empty() {
            let (pi, off) = (a / PAGE_SIZE, a % PAGE_SIZE);
            let n = buf.len().min(PAGE_SIZE - off);
            let (head, rest) = buf.split_at_mut(n);
            head.copy_from_slice(&self.pages[pi][off..off + n]);
            buf = rest;
            a += n;
        }
    }

    /// Copies `src` into memory at `addr`, splitting every shared page it
    /// touches.
    fn write_bytes(&mut self, addr: u32, mut src: &[u8]) {
        let mut a = addr as usize;
        while !src.is_empty() {
            let (pi, off) = (a / PAGE_SIZE, a % PAGE_SIZE);
            let n = src.len().min(PAGE_SIZE - off);
            self.mark_dirty(pi);
            Arc::make_mut(&mut self.pages[pi])[off..off + n].copy_from_slice(&src[..n]);
            src = &src[n..];
            a += n;
        }
    }

    /// Reads one cache line (`buf.len()` bytes) starting at `addr`
    /// (line-aligned).
    pub fn read_line(&self, addr: u32, buf: &mut [u8]) {
        self.read_bytes(addr, buf);
    }

    /// Writes one cache line starting at `addr` (line-aligned).
    ///
    /// Writebacks with corrupted tags may target any address; writes that
    /// fall outside physical memory are dropped (the bus ignores them),
    /// which mirrors a writeback to an unpopulated physical address.
    pub fn write_line(&mut self, addr: u32, buf: &[u8]) {
        if addr as usize + buf.len() <= MEM_SIZE as usize {
            self.write_bytes(addr, buf);
        }
    }

    /// Raw byte read (no protection check); used for loading images and for
    /// reading results after the caches are flushed.
    pub fn read_u8(&self, addr: u32) -> u8 {
        let a = addr as usize;
        self.pages[a / PAGE_SIZE][a % PAGE_SIZE]
    }

    /// Little-endian 32-bit read (no protection check).
    pub fn read_u32(&self, addr: u32) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Raw byte write (no protection check); used when loading images.
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        let a = addr as usize;
        self.mark_dirty(a / PAGE_SIZE);
        Arc::make_mut(&mut self.pages[a / PAGE_SIZE])[a % PAGE_SIZE] = v;
    }

    /// Little-endian 32-bit write (no protection check).
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Copies `src` into memory at `addr` (no protection check).
    pub fn load_image(&mut self, addr: u32, src: &[u8]) {
        self.write_bytes(addr, src);
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    pub fn read_range(&self, addr: u32, len: u32) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        self.read_bytes(addr, &mut out);
        out
    }

    /// Makes this memory bit-identical to `src` without copying page
    /// contents: pages already shared with `src` are left untouched; any
    /// page this image split off (dirtied) is dropped and re-pointed at
    /// `src`'s page. Cost is O(pages) pointer compares plus O(dirty) `Arc`
    /// swaps. After the restore this image shares every page with `src`, so
    /// the dirty tracking restarts from a clean epoch.
    pub fn restore_from(&mut self, src: &Memory) {
        #[rustfmt::skip] // tracking and instrumentation are each image's own
        let Memory { pages, code_limit, dirty: _, restore_pages_scanned: _ } = src;
        debug_assert_eq!(self.pages.len(), pages.len());
        self.code_limit = *code_limit;
        self.restore_pages_scanned += self.pages.len() as u64;
        for (d, s) in self.pages.iter_mut().zip(pages) {
            if !Arc::ptr_eq(d, s) {
                *d = Arc::clone(s);
            }
        }
        self.dirty = [0; DIRTY_WORDS];
    }

    /// Like [`Memory::restore_from`], but trusting the dirty-page bitset:
    /// only pages written since the tracking epoch started are examined,
    /// making restore O(dirtied pages) instead of O(all pages).
    ///
    /// Sound only when this image was bit-identical to `src` (and all-shared
    /// with it) when the current tracking epoch began — i.e. `src` is the
    /// same immutable snapshot image this one was spawned from or last
    /// restored to. The caller owns that gating (the `Sim` uses its
    /// snapshot-id check); when in doubt use the full-scan
    /// [`Memory::restore_from`].
    pub fn restore_from_dirty(&mut self, src: &Memory) {
        #[rustfmt::skip]
        let Memory { pages, code_limit, dirty: _, restore_pages_scanned: _ } = src;
        debug_assert_eq!(self.pages.len(), pages.len());
        self.code_limit = *code_limit;
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let pi = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.restore_pages_scanned += 1;
                if !Arc::ptr_eq(&self.pages[pi], &pages[pi]) {
                    self.pages[pi] = Arc::clone(&pages[pi]);
                }
            }
            *word = 0;
        }
        #[cfg(debug_assertions)]
        for (pi, (d, s)) in self.pages.iter().zip(pages).enumerate() {
            debug_assert!(
                Arc::ptr_eq(d, s),
                "page {pi} diverged from the restore source without being marked dirty"
            );
        }
    }

    /// Memory's share of
    /// [`Sim::converged_with`](crate::pipeline::Sim::converged_with): the
    /// same bytes everywhere. A page the two images still share is equal
    /// without being read.
    pub fn converged_with(&self, snap: &Memory) -> bool {
        #[rustfmt::skip]
        let Memory { pages, code_limit, dirty: _, restore_pages_scanned: _ } = self;
        *code_limit == snap.code_limit
            && (pages.iter().zip(&snap.pages)).all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }

    /// Starts a fresh dirty-tracking epoch: this image is (or is about to
    /// be made) bit-identical to some base image, and subsequent writes are
    /// what [`Memory::restore_from_dirty`] will undo.
    pub fn clear_tracking(&mut self) {
        self.dirty = [0; DIRTY_WORDS];
    }

    /// Number of pages this image has written since the tracking epoch
    /// started.
    pub fn dirty_page_count(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Cumulative count of pages examined by restore calls
    /// ([`Memory::restore_from`] counts every page; `restore_from_dirty`
    /// counts only the dirtied ones) — the regression-test observable for
    /// the dirty-path optimisation.
    pub fn restore_pages_scanned(&self) -> u64 {
        self.restore_pages_scanned
    }

    /// Number of pages physically shared (same backing allocation) between
    /// two images — instrumentation for CoW tests and benchmarks.
    pub fn shared_pages_with(&self, other: &Memory) -> usize {
        self.pages
            .iter()
            .zip(&other.pages)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Total number of pages in the physical address space.
    pub fn page_count(&self) -> usize {
        NUM_PAGES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        const { assert!(CODE_BASE < DATA_BASE) };
        const { assert!(DATA_BASE < OUTPUT_BASE) };
        const { assert!(OUTPUT_BASE < MEM_SIZE) };
        assert_eq!(STACK_TOP, OUTPUT_BASE);
        const { assert!((MEM_SIZE as usize).is_multiple_of(PAGE_SIZE)) };
    }

    #[test]
    fn data_access_checks() {
        let m = Memory::new(0x1000);
        assert!(m.check_data_access(DATA_BASE, 4, true).is_ok());
        assert_eq!(
            m.check_data_access(DATA_BASE + 2, 4, false),
            Err(MemFault::Misaligned(DATA_BASE + 2))
        );
        assert_eq!(
            m.check_data_access(0x100, 4, true),
            Err(MemFault::WriteToCode(0x100))
        );
        assert!(
            m.check_data_access(0x100, 4, false).is_ok(),
            "loads from code allowed"
        );
        assert_eq!(
            m.check_data_access(MEM_SIZE, 4, false),
            Err(MemFault::OutOfRange(MEM_SIZE))
        );
        assert_eq!(
            m.check_data_access(MEM_SIZE + 4, 4, false),
            Err(MemFault::OutOfRange(MEM_SIZE + 4))
        );
    }

    #[test]
    fn fetch_checks() {
        let m = Memory::new(0x1000);
        assert!(m.check_fetch(0).is_ok());
        assert!(m.check_fetch(0xFFC).is_ok());
        assert_eq!(m.check_fetch(0x1000), Err(MemFault::ExecuteFault(0x1000)));
        assert_eq!(m.check_fetch(2), Err(MemFault::Misaligned(2)));
    }

    #[test]
    fn rw_roundtrip() {
        let mut m = Memory::new(0x1000);
        m.write_u32(DATA_BASE, 0xDEAD_BEEF);
        assert_eq!(m.read_u32(DATA_BASE), 0xDEAD_BEEF);
        assert_eq!(m.read_u8(DATA_BASE), 0xEF); // little endian
        let mut line = [0u8; 64];
        m.read_line(DATA_BASE, &mut line);
        assert_eq!(line[0], 0xEF);
    }

    #[test]
    fn out_of_range_writeback_dropped() {
        let mut m = Memory::new(0x1000);
        m.write_line(MEM_SIZE - 32, &[1u8; 64]); // would overflow: dropped
        assert_eq!(m.read_u8(MEM_SIZE - 32), 0);
    }

    #[test]
    fn page_spanning_accesses() {
        let mut m = Memory::new(0x1000);
        let base = DATA_BASE + PAGE_BYTES - 2; // straddles a page boundary
        m.load_image(base, &[1, 2, 3, 4]);
        assert_eq!(m.read_range(base, 4), vec![1, 2, 3, 4]);
        m.write_u32(base, 0xA1B2_C3D4);
        assert_eq!(m.read_u32(base), 0xA1B2_C3D4);
    }

    #[test]
    fn fresh_memories_share_every_page() {
        let a = Memory::new(0x1000);
        let b = Memory::new(0x1000);
        assert_eq!(a.shared_pages_with(&b), a.page_count());
    }

    #[test]
    fn clone_shares_until_write_splits_one_page() {
        let mut a = Memory::new(0x1000);
        a.write_u32(DATA_BASE, 7); // private page in the source
        let mut b = a.clone();
        assert_eq!(
            b.shared_pages_with(&a),
            a.page_count(),
            "clone is all-shared"
        );
        b.write_u8(DATA_BASE + 1, 0xCC);
        assert_eq!(
            b.shared_pages_with(&a),
            a.page_count() - 1,
            "one write splits exactly one page"
        );
        // The write is visible in the clone and invisible in the source.
        assert_eq!(b.read_u8(DATA_BASE + 1), 0xCC);
        assert_eq!(a.read_u32(DATA_BASE), 7);
        assert_eq!(a.read_u8(DATA_BASE + 1), 0);
    }

    #[test]
    fn dirty_restore_touches_only_dirtied_pages() {
        let mut base = Memory::new(0x1000);
        base.load_image(DATA_BASE, &[7u8; 64]);
        let mut scratch = base.clone();
        scratch.clear_tracking(); // epoch starts: scratch ≡ base, all shared
        scratch.write_u8(DATA_BASE, 1);
        scratch.write_u8(DATA_BASE + PAGE_BYTES, 2);
        scratch.write_u32(OUTPUT_BASE, 3);
        assert_eq!(scratch.dirty_page_count(), 3);
        let before = scratch.restore_pages_scanned();
        scratch.restore_from_dirty(&base);
        assert_eq!(
            scratch.restore_pages_scanned() - before,
            3,
            "dirty restore must scan exactly the dirtied pages, not all {}",
            base.page_count()
        );
        assert_eq!(scratch.shared_pages_with(&base), base.page_count());
        assert_eq!(scratch.read_u8(DATA_BASE), 7);
        assert_eq!(scratch.read_u32(OUTPUT_BASE), 0);
        // The epoch reset: a second dirty restore scans nothing.
        let before = scratch.restore_pages_scanned();
        scratch.restore_from_dirty(&base);
        assert_eq!(scratch.restore_pages_scanned() - before, 0);
    }

    #[test]
    fn full_restore_resets_the_tracking_epoch() {
        let base = Memory::new(0x1000);
        let mut scratch = base.clone();
        scratch.write_u8(DATA_BASE, 9);
        scratch.restore_from(&base); // full scan, then tracking restarts
        assert_eq!(scratch.dirty_page_count(), 0);
        scratch.write_u8(DATA_BASE, 5);
        let before = scratch.restore_pages_scanned();
        scratch.restore_from_dirty(&base);
        assert_eq!(scratch.restore_pages_scanned() - before, 1);
        assert_eq!(scratch.read_u8(DATA_BASE), 0);
    }

    #[test]
    fn restore_reattaches_dirty_pages() {
        let mut base = Memory::new(0x1000);
        base.load_image(DATA_BASE, &[9u8; 128]);
        let mut scratch = base.clone();
        scratch.write_u8(DATA_BASE, 1);
        scratch.write_u8(OUTPUT_BASE, 2);
        assert_eq!(scratch.shared_pages_with(&base), base.page_count() - 2);
        scratch.restore_from(&base);
        assert_eq!(
            scratch.shared_pages_with(&base),
            base.page_count(),
            "restore re-shares every page"
        );
        assert_eq!(scratch.read_u8(DATA_BASE), 9);
        assert_eq!(scratch.read_u8(OUTPUT_BASE), 0);
        assert_eq!(scratch.code_limit(), base.code_limit());
    }
}
