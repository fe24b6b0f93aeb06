//! Set-associative, write-back cache with fault-injectable tag and data
//! arrays.
//!
//! Both arrays are *authoritative* storage: a flipped data bit is what a
//! subsequent read returns, and a flipped tag/valid/dirty bit changes
//! hit/miss behaviour, can silently drop a dirty line, or can write a line
//! back to the wrong physical address — all fault behaviours the paper's
//! cache experiments exercise.
//!
//! Storage is a single flat backing buffer per cache (no per-line heap
//! objects) and evicted lines travel in inline fixed-size buffers
//! ([`Eviction`]), so a restore ([`Cache::restore_from`]) is three slice
//! copies into buffers the cache already owns.

use crate::config::CacheGeometry;

/// Largest supported cache line, in bytes. Line buffers are inline arrays of
/// this size so the per-cycle miss/eviction path never touches the heap.
pub const MAX_LINE_BYTES: usize = 64;

/// A line evicted during a fill; must be written to the next level if dirty.
///
/// The payload lives in an inline fixed-size buffer (no allocation); use
/// [`Eviction::data`] to get the line's actual bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction {
    /// Writeback address reconstructed from the (possibly corrupted) stored
    /// tag and the set index.
    pub addr: u32,
    len: u8,
    data: [u8; MAX_LINE_BYTES],
}

impl Eviction {
    fn new(addr: u32, line: &[u8]) -> Self {
        let mut data = [0u8; MAX_LINE_BYTES];
        data[..line.len()].copy_from_slice(line);
        Eviction {
            addr,
            len: line.len() as u8,
            data,
        }
    }

    /// The line's data.
    pub fn data(&self) -> &[u8] {
        &self.data[..self.len as usize]
    }
}

/// The two fault-addressable arrays of a cache level; a cell of either is
/// one line's worth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Array {
    /// Per line: tag, valid bit, dirty bit.
    Tag,
    /// Per line: its `line_bytes` bytes.
    Data,
}

/// One set-associative cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeometry,
    /// Packed per-line metadata: bits `[0..tag_bits)` tag, bit `tag_bits`
    /// valid, bit `tag_bits+1` dirty.
    tags: Vec<u32>,
    /// Flat data array: `lines * line_bytes`.
    data: Vec<u8>,
    /// LRU age per line (not fault-injectable; control logic, not storage).
    lru: Vec<u32>,
    tick: u32,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(geom: CacheGeometry) -> Self {
        assert!(
            geom.line_bytes as usize <= MAX_LINE_BYTES,
            "line size exceeds MAX_LINE_BYTES"
        );
        let lines = geom.lines() as usize;
        Cache {
            geom,
            tags: vec![0; lines],
            data: vec![0; lines * geom.line_bytes as usize],
            lru: vec![0; lines],
            tick: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    fn tag_of(&self, addr: u32) -> u32 {
        addr >> (self.geom.offset_bits() + self.geom.index_bits())
    }

    fn set_of(&self, addr: u32) -> u32 {
        (addr >> self.geom.offset_bits()) & (self.geom.sets - 1)
    }

    fn line_index(&self, set: u32, way: u32) -> usize {
        (set * self.geom.ways + way) as usize
    }

    fn meta_tag(&self, li: usize) -> u32 {
        self.tags[li] & ((1u32 << self.geom.tag_bits()) - 1)
    }

    fn meta_valid(&self, li: usize) -> bool {
        self.tags[li] >> self.geom.tag_bits() & 1 == 1
    }

    fn meta_dirty(&self, li: usize) -> bool {
        self.tags[li] >> (self.geom.tag_bits() + 1) & 1 == 1
    }

    fn set_meta(&mut self, li: usize, tag: u32, valid: bool, dirty: bool) {
        self.tags[li] = tag
            | (u32::from(valid) << self.geom.tag_bits())
            | (u32::from(dirty) << (self.geom.tag_bits() + 1));
    }

    fn line_addr(&self, li: usize) -> u32 {
        let set = (li as u32) / self.geom.ways;
        (self.meta_tag(li) << (self.geom.offset_bits() + self.geom.index_bits()))
            | (set << self.geom.offset_bits())
    }

    fn touch(&mut self, li: usize) {
        self.tick = self.tick.wrapping_add(1);
        self.lru[li] = self.tick;
    }

    /// Looks up `addr`. On a hit, returns the flat line index and refreshes
    /// LRU state.
    pub fn lookup(&mut self, addr: u32) -> Option<usize> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for way in 0..self.geom.ways {
            let li = self.line_index(set, way);
            if self.meta_valid(li) && self.meta_tag(li) == tag {
                self.touch(li);
                return Some(li);
            }
        }
        None
    }

    /// Reads `buf.len()` bytes at `addr` from a resident line found by
    /// [`Cache::lookup`]. The access must not cross a line boundary.
    pub fn read_resident(&self, li: usize, addr: u32, buf: &mut [u8]) {
        let off = (addr & (self.geom.line_bytes - 1)) as usize;
        let base = li * self.geom.line_bytes as usize + off;
        buf.copy_from_slice(&self.data[base..base + buf.len()]);
    }

    /// Writes bytes into a resident line and marks it dirty.
    pub fn write_resident(&mut self, li: usize, addr: u32, bytes: &[u8]) {
        let off = (addr & (self.geom.line_bytes - 1)) as usize;
        let base = li * self.geom.line_bytes as usize + off;
        self.data[base..base + bytes.len()].copy_from_slice(bytes);
        let tag = self.meta_tag(li);
        let valid = self.meta_valid(li);
        self.set_meta(li, tag, valid, true);
    }

    /// Installs the line containing `addr`, returning the evicted dirty line
    /// (if any) and the new line's flat index.
    pub fn fill(&mut self, addr: u32, line: &[u8]) -> (Option<Eviction>, usize) {
        debug_assert_eq!(line.len(), self.geom.line_bytes as usize);
        let set = self.set_of(addr);
        // Victim: first invalid way, else LRU-oldest.
        let mut victim = self.line_index(set, 0);
        let mut found_invalid = false;
        for way in 0..self.geom.ways {
            let li = self.line_index(set, way);
            if !self.meta_valid(li) {
                victim = li;
                found_invalid = true;
                break;
            }
            if self.lru[li] < self.lru[victim] {
                victim = li;
            }
        }
        let evicted = if !found_invalid && self.meta_dirty(victim) {
            Some(Eviction::new(
                self.line_addr(victim),
                self.line_data(victim),
            ))
        } else {
            None
        };
        let base = victim * self.geom.line_bytes as usize;
        self.data[base..base + line.len()].copy_from_slice(line);
        self.set_meta(victim, self.tag_of(addr), true, false);
        self.touch(victim);
        (evicted, victim)
    }

    /// Marks a resident line dirty without modifying its data (used when a
    /// whole line arrives via writeback-allocate).
    pub fn mark_dirty(&mut self, li: usize) {
        let tag = self.meta_tag(li);
        let valid = self.meta_valid(li);
        self.set_meta(li, tag, valid, true);
    }

    fn line_data(&self, li: usize) -> &[u8] {
        let base = li * self.geom.line_bytes as usize;
        &self.data[base..base + self.geom.line_bytes as usize]
    }

    /// Removes and returns every valid dirty line (used for the end-of-run
    /// flush that models DMA reading the program output from memory).
    pub fn drain_dirty(&mut self) -> Vec<Eviction> {
        let mut out = Vec::new();
        for li in 0..self.tags.len() {
            if self.meta_valid(li) && self.meta_dirty(li) {
                out.push(Eviction::new(self.line_addr(li), self.line_data(li)));
                let tag = self.meta_tag(li);
                self.set_meta(li, tag, true, false);
            }
        }
        out
    }

    /// Flips bit `bit` of line `li`'s word in `array`: of its tag-array
    /// word (tag, valid, dirty), or of its data.
    ///
    /// # Panics
    ///
    /// Panics if `li` is out of range.
    pub fn flip(&mut self, array: Array, li: usize, bit: u32) {
        match array {
            Array::Tag => self.tags[li] ^= 1 << bit,
            Array::Data => {
                self.data[li * self.geom.line_bytes as usize + (bit / 8) as usize] ^= 1 << (bit % 8)
            }
        }
    }

    /// Overwrites this cache with `snap`'s state, reusing every
    /// allocation.
    pub fn restore_from(&mut self, snap: &Cache) {
        #[rustfmt::skip]
        let Cache { geom, tags, data, lru, tick } = snap;
        debug_assert_eq!(self.geom, *geom);
        self.tags.copy_from_slice(tags);
        self.data.copy_from_slice(data);
        self.lru.copy_from_slice(lru);
        self.tick = *tick;
    }

    /// Dead storage: the data of a line whose valid bit is clear. `lookup`,
    /// `fill`'s eviction and `drain_dirty` test `meta_valid` before anything
    /// reads the line, `read_resident`/`write_resident`/`mark_dirty` are
    /// reached only through a hit or a fill, and `fill` overwrites the whole
    /// line before it sets the bit.
    pub fn data_is_dead(&self, li: usize) -> bool {
        !self.meta_valid(li)
    }

    /// Dead storage, as a mask over line `li`'s tag-array word: the tag and
    /// dirty bits — never the valid bit — of a line whose
    /// [`data_is_dead`](Cache::data_is_dead), by its argument: every reader
    /// tests the valid bit first, `fill`'s `set_meta` rewrites the word.
    pub fn dead_tag_bits(&self, li: usize) -> u32 {
        let tag_bits = self.geom.tag_bits();
        u32::from(self.data_is_dead(li)) * (((1 << tag_bits) - 1) | (1 << (tag_bits + 1)))
    }

    /// Whether bit `bit` of line `li`'s word in `array` is dead storage, by
    /// the two predicates above.
    pub fn is_dead(&self, array: Array, li: usize, bit: u32) -> bool {
        match array {
            Array::Tag => self.dead_tag_bits(li) >> bit & 1 == 1,
            Array::Data => self.data_is_dead(li),
        }
    }

    /// A cache's share of
    /// [`Sim::converged_with`](crate::pipeline::Sim::converged_with): valid
    /// bits, LRU stamps and `tick` exactly — so the two predicates above
    /// name the same lines in both machines — tags and data where live.
    pub fn converged_with(&self, snap: &Cache) -> bool {
        #[rustfmt::skip]
        let Cache { geom, tags, data, lru, tick } = self;
        let lb = geom.line_bytes as usize;
        let lines = data.chunks_exact(lb).zip(snap.data.chunks_exact(lb));
        (geom, tick, lru) == (&snap.geom, &snap.tick, &snap.lru)
            && (tags.iter().zip(&snap.tags).enumerate())
                .all(|(li, (a, b))| a == b || (a ^ b) & !self.dead_tag_bits(li) == 0)
            && (*data == snap.data
                || (lines.enumerate()).all(|(li, (a, b))| a == b || self.data_is_dead(li)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        Cache::new(CacheGeometry {
            sets: 4,
            ways: 2,
            line_bytes: 64,
        })
    }

    fn line_of(byte: u8) -> [u8; 64] {
        [byte; 64]
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        assert!(c.lookup(0x1000).is_none());
        let (ev, li) = c.fill(0x1000, &line_of(0xAB));
        assert!(ev.is_none());
        assert_eq!(c.lookup(0x1000), Some(li));
        let mut b = [0u8; 4];
        c.read_resident(li, 0x1004, &mut b);
        assert_eq!(b, [0xAB; 4]);
    }

    #[test]
    fn write_marks_dirty_and_eviction_returns_data() {
        let mut c = small_cache();
        let (_, li) = c.fill(0x0000, &line_of(0));
        c.write_resident(li, 0x0008, &[1, 2, 3, 4]);
        // Fill two more lines mapping to set 0 to force eviction.
        // set = (addr >> 6) & 3; addresses with bits[7:6]=0 map to set 0.
        let (e1, _) = c.fill(0x0100, &line_of(9));
        assert!(e1.is_none(), "second way free");
        let (e2, _) = c.fill(0x0200, &line_of(7));
        let ev = e2.expect("dirty line evicted");
        assert_eq!(ev.addr, 0x0000);
        assert_eq!(ev.data().len(), 64);
        assert_eq!(&ev.data()[8..12], &[1, 2, 3, 4]);
    }

    #[test]
    fn lru_prefers_oldest() {
        let mut c = small_cache();
        c.fill(0x0000, &line_of(1));
        c.fill(0x0100, &line_of(2));
        c.lookup(0x0000); // refresh line 0
        c.fill(0x0200, &line_of(3)); // evicts 0x0100 (clean: no writeback)
        assert!(c.lookup(0x0000).is_some());
        assert!(c.lookup(0x0100).is_none());
        assert!(c.lookup(0x0200).is_some());
    }

    #[test]
    fn tag_bit_flip_causes_false_miss() {
        let mut c = small_cache();
        c.fill(0x1000, &line_of(5));
        assert!(c.lookup(0x1000).is_some());
        // Find the line and flip its lowest tag bit.
        // 0x1000: set = (0x1000 >> 6) & 3 = 0, tag = 0x1000 >> 8 = 0x10.
        // Line 0 (set 0, way 0) starts at tag-array bit 0.
        c.flip(Array::Tag, 0, 0); // tag bit 0 of line 0
        assert!(
            c.lookup(0x1000).is_none(),
            "corrupted tag no longer matches"
        );
    }

    #[test]
    fn valid_bit_flip_invalidates() {
        let mut c = small_cache();
        c.fill(0x1000, &line_of(5));
        let tagbits = c.geom.tag_bits();
        c.flip(Array::Tag, 0, tagbits); // valid bit of line 0
        assert!(c.lookup(0x1000).is_none());
    }

    #[test]
    fn data_bit_flip_corrupts_read() {
        let mut c = small_cache();
        let (_, li) = c.fill(0x0000, &line_of(0));
        c.flip(Array::Data, li, 3); // bit 3 of line's first byte
        let mut b = [0u8; 1];
        c.read_resident(li, 0x0000, &mut b);
        assert_eq!(b[0], 8);
    }

    #[test]
    fn drain_dirty_returns_modified_lines_once() {
        let mut c = small_cache();
        let (_, li) = c.fill(0x0000, &line_of(0));
        c.write_resident(li, 0, &[0xFF]);
        let d1 = c.drain_dirty();
        assert_eq!(d1.len(), 1);
        assert_eq!(d1[0].addr, 0);
        let d2 = c.drain_dirty();
        assert!(d2.is_empty(), "drain clears dirty bits");
    }

    #[test]
    fn dirty_flip_can_silently_drop_writeback() {
        let mut c = small_cache();
        let (_, li) = c.fill(0x0000, &line_of(0));
        c.write_resident(li, 0, &[0xEE]);
        let tagbits = c.geom.tag_bits();
        c.flip(Array::Tag, 0, tagbits + 1); // dirty bit of line 0
        assert!(
            c.drain_dirty().is_empty(),
            "dirty bit cleared by fault: writeback lost"
        );
    }

    /// Exercises every mutation kind against the restore: a scratch cache
    /// diverged through each of them must, after `restore_from`, be
    /// observationally identical to the snapshot.
    #[test]
    fn restore_undoes_every_mutation_kind() {
        let mut base = small_cache();
        base.fill(0x0000, &line_of(1));
        let (_, li) = base.fill(0x1000, &line_of(2));
        base.write_resident(li, 0x1000, &[0x55]);

        let mut scratch = base.clone();
        scratch.lookup(0x0000); // LRU touch
        scratch.fill(0x0200, &line_of(9)); // fill + possible eviction
        let (_, li2) = scratch.fill(0x2000, &line_of(4));
        scratch.write_resident(li2, 0x2004, &[7, 7]);
        scratch.mark_dirty(li2);
        scratch.flip(Array::Tag, 0, 3);
        scratch.flip(Array::Data, 1, 5);
        scratch.drain_dirty();
        assert!(!scratch.converged_with(&base), "the scratch diverged");

        scratch.restore_from(&base);

        // Bit-identical observables: same hits, same data, same dirty set.
        assert!(scratch.converged_with(&base));
        for addr in [0x0000u32, 0x1000, 0x0200, 0x2000] {
            assert_eq!(
                scratch.lookup(addr).is_some(),
                base.lookup(addr).is_some(),
                "hit/miss diverged at {addr:#x}"
            );
        }
        let d_s = scratch.drain_dirty();
        let d_b = base.drain_dirty();
        assert_eq!(d_s, d_b, "dirty lines diverged after restore");
    }
}

#[cfg(test)]
#[path = "../tests/whitebox/cache_converged_with.rs"]
mod converged_with_tests;
