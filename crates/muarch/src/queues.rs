//! Fault-injectable entry arrays for the ROB, load queue, and store queue.
//!
//! These structures follow a *check-at-use* fault model: the pipeline keeps
//! authoritative shadow state (the real entries), writes a packed image of
//! each entry into the injectable array, and re-derives + compares the
//! image when the entry is consumed at commit. A mismatch aborts the
//! simulation with an integrity violation — the analogue of gem5's
//! dependence-graph check failures that make ROB/LQ/SQ faults manifest
//! 100 % as the paper's `PRE` class (§III.B). Faults in entries that are
//! free, squashed, or already committed are naturally benign.

/// Packed bits per ROB entry: pc(32) + seq(16) + dest_arch(5) + flags(4).
pub const ROB_ENTRY_BITS: u32 = 57;
/// Packed bits per LQ entry: addr(32) + seq(16) + valid(1).
pub const LQ_ENTRY_BITS: u32 = 49;
/// Packed bits per SQ entry: addr(32) + data(32) + seq(16) + valid(1).
pub const SQ_ENTRY_BITS: u32 = 81;

/// Packs a ROB entry image.
pub fn pack_rob(pc: u32, seq: u16, dest_arch: u8, flags: u8) -> u128 {
    u128::from(pc)
        | u128::from(seq) << 32
        | u128::from(dest_arch & 0x1F) << 48
        | u128::from(flags & 0xF) << 53
}

/// Packs an LQ entry image (valid bit set).
pub fn pack_lq(addr: u32, seq: u16) -> u128 {
    u128::from(addr) | u128::from(seq) << 32 | 1u128 << 48
}

/// Packs an SQ entry image (valid bit set).
pub fn pack_sq(addr: u32, data: u32, seq: u16) -> u128 {
    u128::from(addr) | u128::from(data) << 32 | u128::from(seq) << 64 | 1u128 << 80
}

/// A fixed-size array of packed queue entries with bit-flip support.
#[derive(Debug, Clone)]
pub struct QueueArray {
    entries: Vec<u128>,
    entry_bits: u32,
}

impl QueueArray {
    /// Creates a zeroed array of `n` entries of `entry_bits` bits each.
    pub fn new(n: u32, entry_bits: u32) -> Self {
        assert!(entry_bits <= 128);
        QueueArray {
            entries: vec![0; n as usize],
            entry_bits,
        }
    }

    /// Stores an entry image.
    pub fn write(&mut self, i: usize, v: u128) {
        self.entries[i] = v & self.mask();
    }

    /// Loads an entry image.
    pub fn read(&self, i: usize) -> u128 {
        self.entries[i]
    }

    /// Compares the stored image against a freshly packed expectation.
    pub fn matches(&self, i: usize, expected: u128) -> bool {
        self.entries[i] == expected & self.mask()
    }

    fn mask(&self) -> u128 {
        if self.entry_bits == 128 {
            u128::MAX
        } else {
            (1u128 << self.entry_bits) - 1
        }
    }

    /// Total injectable bits.
    pub fn bit_count(&self) -> u64 {
        self.entries.len() as u64 * u64::from(self.entry_bits)
    }

    /// Flips one bit (flat index `entry * entry_bits + bit`).
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn flip_bit(&mut self, bit: u64) {
        let e = (bit / u64::from(self.entry_bits)) as usize;
        assert!(e < self.entries.len(), "queue bit out of range");
        self.entries[e] ^= 1 << (bit % u64::from(self.entry_bits));
    }

    /// Overwrites this array with `src`'s contents without reallocating.
    pub fn restore_from(&mut self, src: &QueueArray) {
        #[rustfmt::skip]
        let QueueArray { entries, entry_bits } = src;
        debug_assert_eq!(self.entry_bits, *entry_bits);
        self.entries.copy_from_slice(entries);
    }

    /// An image's share of
    /// [`Sim::converged_with`](crate::pipeline::Sim::converged_with): every
    /// slot the pipeline — it owns the bounds and shadows — does not call `dead`.
    pub fn converged_with(&self, snap: &QueueArray, dead: impl Fn(usize) -> bool) -> bool {
        let QueueArray {
            entries,
            entry_bits,
        } = self;
        (*entry_bits, entries.len()) == (snap.entry_bits, snap.entries.len())
            && (entries.iter().zip(&snap.entries).enumerate()).all(|(i, (a, b))| a == b || dead(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_rob_fields_do_not_overlap() {
        let a = pack_rob(0xFFFF_FFFF, 0, 0, 0);
        let b = pack_rob(0, 0xFFFF, 0, 0);
        let c = pack_rob(0, 0, 0x1F, 0);
        let d = pack_rob(0, 0, 0, 0xF);
        assert_eq!(a & b, 0);
        assert_eq!(a & c, 0);
        assert_eq!(b & c, 0);
        assert_eq!(c & d, 0);
        assert!(a | b | c | d < 1u128 << ROB_ENTRY_BITS);
    }

    #[test]
    fn pack_widths_fit_declared_bits() {
        assert!(pack_lq(u32::MAX, u16::MAX) < 1u128 << LQ_ENTRY_BITS);
        assert!(pack_sq(u32::MAX, u32::MAX, u16::MAX) < 1u128 << SQ_ENTRY_BITS);
        assert!(pack_rob(u32::MAX, u16::MAX, 31, 15) < 1u128 << ROB_ENTRY_BITS);
    }

    #[test]
    fn write_then_match() {
        let mut q = QueueArray::new(4, SQ_ENTRY_BITS);
        let img = pack_sq(0x4_0000, 0xDEAD_BEEF, 7);
        q.write(2, img);
        assert!(q.matches(2, img));
        assert!(!q.matches(2, pack_sq(0x4_0000, 0xDEAD_BEEF, 8)));
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let mut base = QueueArray::new(1, ROB_ENTRY_BITS);
        let img = pack_rob(0x1234, 42, 7, 0b1010);
        base.write(0, img);
        for bit in 0..u64::from(ROB_ENTRY_BITS) {
            let mut q = base.clone();
            q.flip_bit(bit);
            assert!(!q.matches(0, img), "flip of bit {bit} went undetected");
        }
    }

    #[test]
    fn bit_count() {
        assert_eq!(QueueArray::new(16, LQ_ENTRY_BITS).bit_count(), 16 * 49);
    }
}
