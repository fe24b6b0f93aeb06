//! The memory hierarchy as one part of the machine: both TLBs, both L1s,
//! the unified L2 and backing memory, with the one path an access takes
//! through them — translate (walking on a TLB miss), look up in the L1,
//! fill from L2 (from memory) on a miss, write back what the fill evicted.
//!
//! Miss counts go to the [`ExecStats`] the caller passes in; they are not
//! state of the hierarchy.

use crate::cache::{Cache, Eviction, MAX_LINE_BYTES};
use crate::config::{Latencies, MuarchConfig};
use crate::mem::{Memory, MEM_SIZE};
use crate::run::ExecStats;
use crate::tlb::Tlb;

/// Which side of the split first level an access goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Instruction fetch: ITLB, L1I.
    I,
    /// Loads and stores: DTLB, L1D.
    D,
}

/// TLBs, caches and memory of one core.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    pub(crate) l1i: Cache,
    pub(crate) l1d: Cache,
    pub(crate) l2: Cache,
    pub(crate) itlb: Tlb,
    pub(crate) dtlb: Tlb,
    pub(crate) mem: Memory,
    /// The configuration's share this part runs by, as `Cache` holds its
    /// geometry.
    lat: Latencies,
    prefetch_next_line: bool,
}

impl Hierarchy {
    /// Empty caches and TLBs over `mem`.
    pub fn new(cfg: &MuarchConfig, mem: Memory) -> Self {
        Hierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            itlb: Tlb::new(cfg.itlb_entries),
            dtlb: Tlb::new(cfg.dtlb_entries),
            mem,
            lat: cfg.lat,
            prefetch_next_line: cfg.prefetch_next_line,
        }
    }

    /// Translates `vaddr` through `side`'s TLB, walking the (identity) page
    /// table on a miss; returns the physical address and whether it walked.
    /// A corrupted entry shadowing the refilled slot leaves the address
    /// untranslated.
    #[inline]
    pub fn translate(&mut self, side: Side, stats: &mut ExecStats, vaddr: u32) -> (u32, bool) {
        let (tlb, misses) = match side {
            Side::I => (&mut self.itlb, &mut stats.itlb_misses),
            Side::D => (&mut self.dtlb, &mut stats.dtlb_misses),
        };
        match tlb.translate(vaddr) {
            Some(paddr) => (paddr, false),
            None => {
                *misses += 1;
                tlb.refill(vaddr);
                (tlb.translate(vaddr).unwrap_or(vaddr), true)
            }
        }
    }

    /// Gets a line from L2 (filling from memory on miss); returns the line
    /// bytes in an inline stack buffer (first `line_bytes` valid) and the
    /// added latency beyond L1.
    fn l2_get_line(
        &mut self,
        stats: &mut ExecStats,
        line_addr: u32,
    ) -> ([u8; MAX_LINE_BYTES], u64) {
        let lb = self.l2.geometry().line_bytes as usize;
        let in_memory = |line: u32| u64::from(line) + lb as u64 <= u64::from(MEM_SIZE);
        let mut buf = [0u8; MAX_LINE_BYTES];
        if let Some(li) = self.l2.lookup(line_addr) {
            self.l2.read_resident(li, line_addr, &mut buf[..lb]);
            return (buf, self.lat.l2);
        }
        stats.l2_misses += 1;
        if in_memory(line_addr) {
            self.mem.read_line(line_addr, &mut buf[..lb]);
        }
        self.fill_l2(line_addr, &buf[..lb]);
        if self.prefetch_next_line {
            let next = line_addr.wrapping_add(lb as u32);
            if in_memory(next) && self.l2.lookup(next).is_none() {
                let mut pbuf = [0u8; MAX_LINE_BYTES];
                self.mem.read_line(next, &mut pbuf[..lb]);
                self.fill_l2(next, &pbuf[..lb]);
            }
        }
        (buf, self.lat.l2 + self.lat.mem)
    }

    /// Installs a line in L2, writing what it evicts back to memory.
    fn fill_l2(&mut self, line_addr: u32, line: &[u8]) -> usize {
        let (evicted, li) = self.l2.fill(line_addr, line);
        if let Some(ev) = evicted {
            self.mem.write_line(ev.addr, ev.data());
        }
        li
    }

    fn writeback_to_l2(&mut self, ev: Eviction) {
        let line_addr = ev.addr & !(self.l2.geometry().line_bytes - 1);
        if let Some(li) = self.l2.lookup(line_addr) {
            self.l2.write_resident(li, line_addr, ev.data());
        } else {
            let li = self.fill_l2(line_addr, ev.data());
            self.l2.mark_dirty(li);
        }
    }

    #[inline]
    fn l1(&mut self, side: Side) -> &mut Cache {
        match side {
            Side::I => &mut self.l1i,
            Side::D => &mut self.l1d,
        }
    }

    /// The one L1 access: the resident line holding `paddr` in `side`'s L1
    /// and the access latency.
    #[inline]
    fn l1_line(&mut self, side: Side, stats: &mut ExecStats, paddr: u32) -> (usize, u64) {
        match self.l1(side).lookup(paddr) {
            Some(li) => (li, self.lat.l1),
            None => self.l1_miss(side, stats, paddr),
        }
    }

    /// The one L1 miss path: fill the line from L2 (from memory), write
    /// back what the fill evicted.
    fn l1_miss(&mut self, side: Side, stats: &mut ExecStats, paddr: u32) -> (usize, u64) {
        match side {
            Side::I => stats.l1i_misses += 1,
            Side::D => stats.l1d_misses += 1,
        }
        let line_addr = paddr & !(self.l2.geometry().line_bytes - 1);
        let (line, extra) = self.l2_get_line(stats, line_addr);
        let l1 = self.l1(side);
        let (evicted, li) = l1.fill(line_addr, &line[..l1.geometry().line_bytes as usize]);
        // An I-line is never written: a dirty bit there is a fault's, and
        // the line is dropped, not written back.
        if let (Some(ev), Side::D) = (evicted, side) {
            self.writeback_to_l2(ev);
        }
        (li, self.lat.l1 + extra)
    }

    /// Reads `size` bytes at `paddr` through `side`'s L1; returns (value
    /// bytes as little-endian u32, latency).
    #[inline]
    pub fn read(&mut self, side: Side, stats: &mut ExecStats, paddr: u32, size: u32) -> (u32, u64) {
        let (li, lat) = self.l1_line(side, stats, paddr);
        let mut buf = [0u8; 4];
        self.l1(side)
            .read_resident(li, paddr, &mut buf[..size as usize]);
        (u32::from_le_bytes(buf), lat)
    }

    /// Writes `size` low bytes of `data` at `paddr` through L1D
    /// (write-allocate, write-back).
    #[inline]
    pub fn write(&mut self, stats: &mut ExecStats, paddr: u32, size: u32, data: u32) {
        let (li, _) = self.l1_line(Side::D, stats, paddr);
        self.l1d
            .write_resident(li, paddr, &data.to_le_bytes()[..size as usize]);
    }

    /// Writes every dirty line back to memory: the end-of-run flush that
    /// lets an I/O device read the program's output from memory.
    pub fn flush(&mut self) {
        for ev in self.l1d.drain_dirty() {
            self.writeback_to_l2(ev);
        }
        for ev in self.l2.drain_dirty() {
            self.mem.write_line(ev.addr, ev.data());
        }
    }

    /// Overwrites this hierarchy with `src`'s state, reusing every
    /// allocation: each part by its own restore.
    pub fn restore_from(&mut self, src: &Hierarchy) {
        #[rustfmt::skip]
        let Hierarchy { l1i, l1d, l2, itlb, dtlb, mem, lat, prefetch_next_line } = src;
        debug_assert_eq!(
            (self.lat, self.prefetch_next_line),
            (*lat, *prefetch_next_line)
        );
        self.l1i.restore_from(l1i);
        self.l1d.restore_from(l1d);
        self.l2.restore_from(l2);
        self.mem.restore_from(mem);
        self.itlb.restore_from(itlb);
        self.dtlb.restore_from(dtlb);
    }

    /// The hierarchy's share of
    /// [`Sim::converged_with`](crate::pipeline::Sim::converged_with): each
    /// part by its own comparison, the likeliest to differ first.
    pub fn converged_with(&self, snap: &Hierarchy) -> bool {
        #[rustfmt::skip]
        let Hierarchy { l1i, l1d, l2, itlb, dtlb, mem, lat, prefetch_next_line } = self;
        (lat, prefetch_next_line) == (&snap.lat, &snap.prefetch_next_line)
            && itlb.converged_with(&snap.itlb)
            && dtlb.converged_with(&snap.dtlb)
            && l1d.converged_with(&snap.l1d)
            && l1i.converged_with(&snap.l1i)
            && l2.converged_with(&snap.l2)
            && mem.converged_with(&snap.mem)
    }
}
