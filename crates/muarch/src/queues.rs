//! Packed entry images of the ROB, load queue and store queue: the bits a
//! fault can flip, as [`Ring`](crate::ring::Ring) stores them.

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
}
