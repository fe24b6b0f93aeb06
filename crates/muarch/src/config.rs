//! Microarchitecture configurations.
//!
//! Two configurations mirror the paper's two CPU models: a "big"
//! out-of-order core standing in for the Arm Cortex-A72-like model of the
//! main evaluation (§II.D), and a "small" core standing in for the
//! Cortex-A15-like model of the case study (§VI). Structure capacities are
//! scaled down together with workload execution lengths (see `DESIGN.md`)
//! so the ratios the methodology depends on are preserved.

/// A set of ROB slots, one bit per slot: the pipeline's back-end scheduling
/// state (in the issue queue, operands ready, executing) and each physical
/// register's waiter list are values of this type, so wakeup and select are
/// word operations instead of per-entry polls.
pub type SlotSet = u64;

/// Most ROB entries a [`SlotSet`] can name.
pub const SLOT_SET_BITS: u32 = SlotSet::BITS;

/// A load/store's ring slot in its queue, as recorded in its ROB entry at
/// dispatch.
pub type LsqSlot = u8;

/// Most LQ (or SQ) entries an [`LsqSlot`] can name.
pub const MAX_LSQ_ENTRIES: u32 = 1 << LsqSlot::BITS;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets.
    pub sets: u32,
    /// Associativity (lines per set).
    pub ways: u32,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u32,
}

impl CacheGeometry {
    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u32 {
        self.sets * self.ways * self.line_bytes
    }

    /// Number of lines.
    pub fn lines(&self) -> u32 {
        self.sets * self.ways
    }

    /// log2(line size).
    pub fn offset_bits(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// log2(sets).
    pub fn index_bits(&self) -> u32 {
        self.sets.trailing_zeros()
    }

    /// Width of the stored tag in bits (32-bit physical addresses).
    pub fn tag_bits(&self) -> u32 {
        32 - self.offset_bits() - self.index_bits()
    }
}

/// Access latencies, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// L1 hit latency (both I and D).
    pub l1: u64,
    /// L2 hit latency.
    pub l2: u64,
    /// Main-memory access latency.
    pub mem: u64,
    /// TLB-miss page-walk penalty.
    pub tlb_walk: u64,
    /// Simple ALU operation.
    pub alu: u64,
    /// Multiply.
    pub mul: u64,
    /// Divide / remainder.
    pub div: u64,
    /// Front-end refill penalty after a control-flow redirect.
    pub redirect: u64,
}

/// A full microarchitecture configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuarchConfig {
    /// Human-readable name (appears in reports).
    pub name: &'static str,
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions renamed/dispatched per cycle.
    pub dispatch_width: u32,
    /// Instructions issued to execution per cycle.
    pub issue_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Reorder-buffer entries.
    pub rob_entries: u32,
    /// Issue-queue entries.
    pub iq_entries: u32,
    /// Load-queue entries.
    pub lq_entries: u32,
    /// Store-queue entries.
    pub sq_entries: u32,
    /// Physical registers (must exceed the 24 architectural registers).
    pub phys_regs: u32,
    /// L1 instruction cache geometry.
    pub l1i: CacheGeometry,
    /// L1 data cache geometry.
    pub l1d: CacheGeometry,
    /// Unified L2 geometry.
    pub l2: CacheGeometry,
    /// Instruction-TLB entries (fully associative).
    pub itlb_entries: u32,
    /// Data-TLB entries (fully associative).
    pub dtlb_entries: u32,
    /// Bimodal predictor entries (power of two).
    pub predictor_entries: u32,
    /// Branch-target-buffer entries (power of two).
    pub btb_entries: u32,
    /// Next-line prefetch into L2 on L2 misses (ablation knob; the paper
    /// notes prefetch traffic extends data-cache residency windows, §V.A).
    pub prefetch_next_line: bool,
    /// Latency table.
    pub lat: Latencies,
}

impl MuarchConfig {
    /// The "big" out-of-order core: the Cortex-A72-like model of the paper's
    /// main evaluation.
    pub fn big() -> Self {
        MuarchConfig {
            name: "avgi-big (Cortex-A72-like)",
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_entries: 64,
            iq_entries: 32,
            lq_entries: 16,
            sq_entries: 16,
            phys_regs: 96,
            l1i: CacheGeometry {
                sets: 64,
                ways: 2,
                line_bytes: 64,
            }, // 8 KiB
            l1d: CacheGeometry {
                sets: 32,
                ways: 4,
                line_bytes: 64,
            }, // 8 KiB
            l2: CacheGeometry {
                sets: 128,
                ways: 8,
                line_bytes: 64,
            }, // 64 KiB
            itlb_entries: 16,
            dtlb_entries: 16,
            predictor_entries: 512,
            btb_entries: 128,
            prefetch_next_line: false,
            lat: Latencies {
                l1: 2,
                l2: 12,
                mem: 60,
                tlb_walk: 20,
                alu: 1,
                mul: 3,
                div: 12,
                redirect: 8,
            },
        }
    }

    /// The "small" core: the Cortex-A15-like model of the paper's §VI case
    /// study on a second microarchitecture.
    pub fn small() -> Self {
        MuarchConfig {
            name: "avgi-small (Cortex-A15-like)",
            fetch_width: 2,
            dispatch_width: 2,
            issue_width: 2,
            commit_width: 2,
            rob_entries: 32,
            iq_entries: 16,
            lq_entries: 8,
            sq_entries: 8,
            phys_regs: 56,
            l1i: CacheGeometry {
                sets: 32,
                ways: 2,
                line_bytes: 64,
            }, // 4 KiB
            l1d: CacheGeometry {
                sets: 32,
                ways: 2,
                line_bytes: 64,
            }, // 4 KiB
            l2: CacheGeometry {
                sets: 64,
                ways: 8,
                line_bytes: 64,
            }, // 32 KiB
            itlb_entries: 8,
            dtlb_entries: 8,
            predictor_entries: 256,
            btb_entries: 64,
            prefetch_next_line: false,
            lat: Latencies {
                l1: 2,
                l2: 10,
                mem: 50,
                tlb_walk: 16,
                alu: 1,
                mul: 4,
                div: 16,
                redirect: 6,
            },
        }
    }

    /// Validates internal consistency (powers of two, capacities).
    ///
    /// # Panics
    ///
    /// Panics with a description when the configuration is inconsistent;
    /// used by constructors in debug builds and by tests.
    pub fn validate(&self) {
        for (label, g) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            assert!(
                g.sets.is_power_of_two(),
                "{label}.sets must be a power of two"
            );
            assert!(
                g.line_bytes.is_power_of_two(),
                "{label}.line_bytes must be a power of two"
            );
            assert!(g.ways >= 1, "{label}.ways must be >= 1");
            assert!(
                g.line_bytes as usize <= crate::cache::MAX_LINE_BYTES,
                "{label}.line_bytes exceeds MAX_LINE_BYTES"
            );
        }
        // The pipeline stages lines between levels in one inline buffer and
        // slices per level, which is only address-correct when all levels
        // agree on the line size.
        assert!(
            self.l1i.line_bytes == self.l2.line_bytes && self.l1d.line_bytes == self.l2.line_bytes,
            "all cache levels must share one line size"
        );
        assert!(
            self.phys_regs > u32::from(avgi_isa::NUM_ARCH_REGS),
            "need free physical regs"
        );
        assert!(self.predictor_entries.is_power_of_two());
        assert!(self.btb_entries.is_power_of_two());
        assert!(self.rob_entries >= self.commit_width);
        assert!(
            self.rob_entries <= SLOT_SET_BITS,
            "rob_entries exceeds the ROB slot-set width"
        );
        assert!(self.lq_entries >= 1 && self.sq_entries >= 1);
        // A ROB entry records its LQ/SQ ring slot in an `LsqSlot`; a larger
        // queue would truncate the slot number at dispatch.
        assert!(
            self.lq_entries <= MAX_LSQ_ENTRIES,
            "lq_entries exceeds the LQ slot type"
        );
        assert!(
            self.sq_entries <= MAX_LSQ_ENTRIES,
            "sq_entries exceeds the SQ slot type"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_configs_validate() {
        MuarchConfig::big().validate();
        MuarchConfig::small().validate();
    }

    #[test]
    fn bounds_are_inclusive() {
        let cfg = MuarchConfig {
            rob_entries: SLOT_SET_BITS,
            lq_entries: MAX_LSQ_ENTRIES,
            sq_entries: MAX_LSQ_ENTRIES,
            ..MuarchConfig::big()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "rob_entries exceeds the ROB slot-set width")]
    fn rob_wider_than_the_slot_set_is_rejected() {
        let cfg = MuarchConfig {
            rob_entries: SLOT_SET_BITS + 1,
            ..MuarchConfig::big()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "lq_entries exceeds the LQ slot type")]
    fn lq_larger_than_its_slot_type_is_rejected() {
        let cfg = MuarchConfig {
            lq_entries: MAX_LSQ_ENTRIES + 1,
            ..MuarchConfig::big()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "sq_entries exceeds the SQ slot type")]
    fn sq_larger_than_its_slot_type_is_rejected() {
        let cfg = MuarchConfig {
            sq_entries: MAX_LSQ_ENTRIES + 1,
            ..MuarchConfig::big()
        };
        cfg.validate();
    }

    #[test]
    fn geometry_math() {
        let g = MuarchConfig::big().l1i;
        assert_eq!(g.capacity_bytes(), 8 * 1024);
        assert_eq!(g.offset_bits(), 6);
        assert_eq!(g.index_bits(), 6);
        assert_eq!(g.tag_bits(), 20);
        assert_eq!(g.lines(), 128);
    }

    #[test]
    fn small_is_smaller_than_big() {
        let b = MuarchConfig::big();
        let s = MuarchConfig::small();
        assert!(s.rob_entries < b.rob_entries);
        assert!(s.phys_regs < b.phys_regs);
        assert!(s.l2.capacity_bytes() < b.l2.capacity_bytes());
        assert!(s.fetch_width < b.fetch_width);
    }
}
