//! Fully associative translation lookaside buffers.
//!
//! The machine identity-maps virtual to physical addresses, so in a
//! fault-free run the TLB only adds (deterministic) miss latency. Its
//! *storage* is fault-injectable though: a flipped `vpn` bit makes an entry
//! unreachable (timing-only effect), while a flipped `pfn` bit silently
//! redirects every access through that entry to the wrong physical page —
//! the mechanism behind the paper's I/D-TLB fault effects.

use crate::mem::PAGE_BYTES;

/// Injectable bits per TLB entry: 20-bit VPN + 20-bit PFN + valid.
pub const TLB_ENTRY_BITS: u32 = 41;

const VPN_MASK: u64 = 0xF_FFFF;
const PFN_SHIFT: u32 = 20;
const VALID_BIT: u32 = 40;

/// A fully associative TLB with round-robin replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Packed entries: bits `[0..20)` vpn, `[20..40)` pfn, bit 40 valid.
    entries: Vec<u64>,
    next: usize,
}

impl Tlb {
    /// Creates an empty TLB with `n` entries.
    pub fn new(n: u32) -> Self {
        Tlb {
            entries: vec![0; n as usize],
            next: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB has no entries (never true for real configs).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Translates `vaddr`; `Some(paddr)` on a hit.
    pub fn translate(&self, vaddr: u32) -> Option<u32> {
        let vpn = u64::from(vaddr / PAGE_BYTES);
        for &e in &self.entries {
            if e >> VALID_BIT & 1 == 1 && e & VPN_MASK == vpn {
                let pfn = (e >> PFN_SHIFT & VPN_MASK) as u32;
                return Some(pfn * PAGE_BYTES + (vaddr & (PAGE_BYTES - 1)));
            }
        }
        None
    }

    /// Installs the identity mapping for `vaddr`'s page (the page-table walk
    /// result), evicting round-robin.
    pub fn refill(&mut self, vaddr: u32) {
        let vpn = u64::from(vaddr / PAGE_BYTES);
        self.entries[self.next] = vpn | vpn << PFN_SHIFT | 1 << VALID_BIT;
        self.next = (self.next + 1) % self.entries.len();
    }

    /// Flips bit `bit` of entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn flip(&mut self, i: usize, bit: u32) {
        self.entries[i] ^= 1 << bit;
    }

    /// Overwrites this TLB with `src`'s state without reallocating.
    pub fn restore_from(&mut self, src: &Tlb) {
        let Tlb { entries, next } = src;
        debug_assert_eq!(self.entries.len(), entries.len());
        self.entries.copy_from_slice(entries);
        self.next = *next;
    }

    /// Dead storage, as a mask over entry `i`: the vpn and pfn bits — never
    /// the valid bit — of an entry whose valid bit is clear. `translate`
    /// tests the valid bit before it reads either field, and `refill`
    /// rewrites the whole entry as it sets the bit.
    pub fn dead_bits(&self, i: usize) -> u64 {
        u64::from(self.entries[i] >> VALID_BIT & 1 == 0) * ((1 << VALID_BIT) - 1)
    }

    /// Whether bit `bit` of entry `i` is dead storage, by [`Tlb::dead_bits`].
    pub fn is_dead(&self, i: usize, bit: u32) -> bool {
        self.dead_bits(i) >> bit & 1 == 1
    }

    /// A TLB's share of
    /// [`Sim::converged_with`](crate::pipeline::Sim::converged_with): the
    /// replacement cursor and valid bits exactly, vpn and pfn where live.
    pub fn converged_with(&self, snap: &Tlb) -> bool {
        let Tlb { entries, next } = self;
        (*next, entries.len()) == (snap.next, snap.entries.len())
            && (entries.iter().zip(&snap.entries).enumerate())
                .all(|(i, (a, b))| (a ^ b) & !self.dead_bits(i) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_refill_then_hit() {
        let mut t = Tlb::new(4);
        assert_eq!(t.translate(0x5123), None);
        t.refill(0x5123);
        assert_eq!(t.translate(0x5123), Some(0x5123));
        assert_eq!(t.translate(0x5FFF), Some(0x5FFF), "same page hits");
        assert_eq!(t.translate(0x6000), None, "next page misses");
    }

    #[test]
    fn round_robin_eviction() {
        let mut t = Tlb::new(2);
        t.refill(0x0000);
        t.refill(0x1000);
        t.refill(0x2000); // evicts 0x0000's page
        assert_eq!(t.translate(0x0000), None);
        assert_eq!(t.translate(0x1000), Some(0x1000));
        assert_eq!(t.translate(0x2000), Some(0x2000));
    }

    #[test]
    fn pfn_flip_redirects_translation() {
        let mut t = Tlb::new(1);
        t.refill(0x3000);
        t.flip(0, PFN_SHIFT); // lowest pfn bit of entry 0
        assert_eq!(
            t.translate(0x3000),
            Some(0x2000),
            "page 3 now maps to page 2"
        );
    }

    #[test]
    fn vpn_flip_makes_entry_unreachable() {
        let mut t = Tlb::new(1);
        t.refill(0x3000);
        t.flip(0, 0); // lowest vpn bit
        assert_eq!(t.translate(0x3000), None);
        // ...but the corrupted entry now answers for a different page.
        assert_eq!(t.translate(0x2000), Some(0x3000));
    }

    #[test]
    fn valid_flip_invalidates() {
        let mut t = Tlb::new(1);
        t.refill(0x3000);
        t.flip(0, VALID_BIT);
        assert_eq!(t.translate(0x3000), None);
    }
}
