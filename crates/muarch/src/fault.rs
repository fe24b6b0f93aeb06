//! Fault-injection targets: the 12 hardware structures of the paper.
//!
//! Every injectable structure exposes its storage as a flat, contiguous bit
//! array; a [`FaultSite`] names one bit within one structure, and a
//! [`Fault`] adds the injection cycle. Uniform statistical sampling (per
//! Leveugle et al., the paper's \[1\]) then amounts to drawing a uniform bit
//! index and a uniform cycle.

use crate::config::{CacheGeometry, MuarchConfig};
use core::fmt;

/// The twelve fault-injection targets of the paper's evaluation (§II.D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Structure {
    /// L1 instruction cache, tag array.
    L1ITag,
    /// L1 instruction cache, data array.
    L1IData,
    /// L1 data cache, tag array.
    L1DTag,
    /// L1 data cache, data array.
    L1DData,
    /// Unified L2, tag array.
    L2Tag,
    /// Unified L2, data array.
    L2Data,
    /// Physical register file.
    RegFile,
    /// Reorder buffer.
    Rob,
    /// Load queue.
    Lq,
    /// Store queue.
    Sq,
    /// Instruction TLB.
    Itlb,
    /// Data TLB.
    Dtlb,
}

impl Structure {
    /// All twelve structures, in a stable report order.
    pub fn all() -> &'static [Structure] {
        use Structure::*;
        &[
            RegFile, Dtlb, Itlb, L1IData, L1ITag, L1DTag, L1DData, L2Tag, L2Data, Rob, Lq, Sq,
        ]
    }

    /// Short label used in tables (matches the paper's Table II rows).
    pub fn label(self) -> &'static str {
        match self {
            Structure::L1ITag => "L1I (Tag)",
            Structure::L1IData => "L1I (Data)",
            Structure::L1DTag => "L1D (Tag)",
            Structure::L1DData => "L1D (Data)",
            Structure::L2Tag => "L2 (Tag)",
            Structure::L2Data => "L2 (Data)",
            Structure::RegFile => "RF",
            Structure::Rob => "ROB",
            Structure::Lq => "LQ",
            Structure::Sq => "SQ",
            Structure::Itlb => "ITLB",
            Structure::Dtlb => "DTLB",
        }
    }

    /// Stable machine-readable identifier (round-trips via
    /// [`Structure::from_ident`]); used by on-disk campaign journals, so
    /// these strings must never change.
    pub fn ident(self) -> &'static str {
        match self {
            Structure::L1ITag => "L1ITag",
            Structure::L1IData => "L1IData",
            Structure::L1DTag => "L1DTag",
            Structure::L1DData => "L1DData",
            Structure::L2Tag => "L2Tag",
            Structure::L2Data => "L2Data",
            Structure::RegFile => "RegFile",
            Structure::Rob => "Rob",
            Structure::Lq => "Lq",
            Structure::Sq => "Sq",
            Structure::Itlb => "Itlb",
            Structure::Dtlb => "Dtlb",
        }
    }

    /// Parses a [`Structure::ident`] string.
    pub fn from_ident(s: &str) -> Option<Structure> {
        Structure::all().iter().copied().find(|st| st.ident() == s)
    }

    /// Whether this structure is a cache *data* array (the arrays the
    /// paper's §IV.D names as holding output data).
    pub fn is_cache_data(self) -> bool {
        matches!(self, Structure::L1DData | Structure::L2Data)
    }

    /// Whether faults here can produce the `ESC` manifestation: the data
    /// arrays holding output data, plus the data-cache tag arrays (a
    /// corrupted dirty-line tag writes the line back to the wrong address
    /// without ever passing through the program trace — the paper's Fig. 7
    /// accordingly includes the L1D tag field).
    pub fn is_esc_eligible(self) -> bool {
        matches!(
            self,
            Structure::L1DData | Structure::L2Data | Structure::L1DTag | Structure::L2Tag
        )
    }

    /// Whether faults here are detected by commit-side integrity checks and
    /// therefore manifest as pre-software crashes (`PRE`), per the paper's
    /// observation for ROB/LQ/SQ.
    pub fn is_integrity_checked(self) -> bool {
        matches!(self, Structure::Rob | Structure::Lq | Structure::Sq)
    }

    /// This structure's storage under `cfg`, as `(cells, bits per cell)`: a
    /// cell is what one entry, register or cache line holds, and a flat
    /// [`FaultSite::bit`] counts through cell 0's bits, then cell 1's.
    pub fn cells(self, cfg: &MuarchConfig) -> (u64, u32) {
        use crate::queues::{LQ_ENTRY_BITS, ROB_ENTRY_BITS, SQ_ENTRY_BITS};
        use crate::tlb::TLB_ENTRY_BITS;
        let tags = |g: &CacheGeometry| (g.lines(), tag_entry_bits(g.tag_bits()));
        let data = |g: &CacheGeometry| (g.lines(), 8 * g.line_bytes);
        let (cells, bits) = match self {
            Structure::L1ITag => tags(&cfg.l1i),
            Structure::L1IData => data(&cfg.l1i),
            Structure::L1DTag => tags(&cfg.l1d),
            Structure::L1DData => data(&cfg.l1d),
            Structure::L2Tag => tags(&cfg.l2),
            Structure::L2Data => data(&cfg.l2),
            Structure::RegFile => (cfg.phys_regs, 32),
            Structure::Rob => (cfg.rob_entries, ROB_ENTRY_BITS),
            Structure::Lq => (cfg.lq_entries, LQ_ENTRY_BITS),
            Structure::Sq => (cfg.sq_entries, SQ_ENTRY_BITS),
            Structure::Itlb => (cfg.itlb_entries, TLB_ENTRY_BITS),
            Structure::Dtlb => (cfg.dtlb_entries, TLB_ENTRY_BITS),
        };
        (u64::from(cells), bits)
    }

    /// Number of injectable storage bits this structure holds under `cfg`.
    pub fn bit_count(self, cfg: &MuarchConfig) -> u64 {
        let (cells, bits) = self.cells(cfg);
        cells * u64::from(bits)
    }
}

/// Bits stored per cache line in a tag array: tag + valid + dirty.
pub(crate) fn tag_entry_bits(tag_bits: u32) -> u32 {
    tag_bits + 2
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One storage bit within one structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSite {
    /// The structure holding the bit.
    pub structure: Structure,
    /// Flat bit index within the structure's storage, in
    /// `0..structure.bit_count(cfg)`.
    pub bit: u64,
}

/// A transient single-bit fault: a bit to flip and the cycle to flip it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Where to flip.
    pub site: FaultSite,
    /// Simulation cycle at which the flip occurs.
    pub cycle: u64,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bit {} @ cycle {}",
            self.site.structure, self.site.bit, self.cycle
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_structures() {
        assert_eq!(Structure::all().len(), 12);
    }

    #[test]
    fn idents_round_trip() {
        for &s in Structure::all() {
            assert_eq!(Structure::from_ident(s.ident()), Some(s));
        }
        assert_eq!(Structure::from_ident("NotAStructure"), None);
    }

    #[test]
    fn bit_counts_positive_and_sized_sensibly() {
        let cfg = MuarchConfig::big();
        for &s in Structure::all() {
            assert!(s.bit_count(&cfg) > 0, "{s} has zero bits");
        }
        // Data arrays dominate; L2 data is the largest structure.
        let l2 = Structure::L2Data.bit_count(&cfg);
        for &s in Structure::all() {
            assert!(s.bit_count(&cfg) <= l2, "{s} larger than L2 data");
        }
        assert_eq!(Structure::RegFile.bit_count(&cfg), 96 * 32);
        assert_eq!(Structure::L1IData.bit_count(&cfg), 8 * 1024 * 8);
    }

    #[test]
    fn predicates() {
        assert!(Structure::L2Data.is_cache_data());
        assert!(!Structure::L2Tag.is_cache_data());
        assert!(Structure::L2Tag.is_esc_eligible());
        assert!(Structure::L1DTag.is_esc_eligible());
        assert!(
            !Structure::L1ITag.is_esc_eligible(),
            "I-side lines are never dirty"
        );
        assert!(!Structure::RegFile.is_esc_eligible());
        assert!(Structure::Rob.is_integrity_checked());
        assert!(!Structure::RegFile.is_integrity_checked());
    }
}
