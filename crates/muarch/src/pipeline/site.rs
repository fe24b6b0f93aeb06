//! The fault-site map: which part of the machine holds a [`FaultSite`], and
//! which cell and bit of it. [`Sim::flip`] and [`Sim::dead_on_arrival`] are
//! the two questions asked through it.

use super::Sim;
use crate::cache::Array;
use crate::fault::{FaultSite, Structure};

/// Calls `$op(.., cell, bit)` on the part array that stores `$structure` —
/// the one `Structure → part` map. A macro because [`Sim::flip`] needs the
/// part by `&mut` and [`Sim::dead_on_arrival`] by `&`, which the method
/// call's auto-ref picks and a function could not say once.
macro_rules! on_array {
    ($sim:ident, $structure:expr, $op:ident, $cell:expr, $bit:expr) => {
        match $structure {
            Structure::L1ITag => $sim.hier.l1i.$op(Array::Tag, $cell, $bit),
            Structure::L1IData => $sim.hier.l1i.$op(Array::Data, $cell, $bit),
            Structure::L1DTag => $sim.hier.l1d.$op(Array::Tag, $cell, $bit),
            Structure::L1DData => $sim.hier.l1d.$op(Array::Data, $cell, $bit),
            Structure::L2Tag => $sim.hier.l2.$op(Array::Tag, $cell, $bit),
            Structure::L2Data => $sim.hier.l2.$op(Array::Data, $cell, $bit),
            Structure::RegFile => $sim.rf.$op($cell, $bit),
            Structure::Rob => $sim.rob.$op($cell, $bit),
            Structure::Lq => $sim.lq.$op($cell, $bit),
            Structure::Sq => $sim.sq.$op($cell, $bit),
            Structure::Itlb => $sim.hier.itlb.$op($cell, $bit),
            Structure::Dtlb => $sim.hier.dtlb.$op($cell, $bit),
        }
    };
}

impl Sim {
    pub(super) fn apply_due_faults(&mut self) {
        while let Some(&f) = self.scratch.pending_faults.get(self.faults_next) {
            if f.cycle > self.cycle {
                break;
            }
            self.faults_next += 1;
            self.flip(f.site);
        }
    }

    /// The cell of its structure `site`'s flat bit lies in and the bit
    /// within the cell, by the structure's one sizing
    /// ([`Structure::cells`]); `None` for a bit out of range.
    fn locate(&self, site: FaultSite) -> Option<(usize, u32)> {
        let (cells, per) = site.structure.cells(&self.cfg);
        let cell = site.bit / u64::from(per);
        (cell < cells).then_some((cell as usize, (site.bit % u64::from(per)) as u32))
    }

    /// Flips the storage bit `site` names, now — what an armed
    /// [`Fault`](crate::fault::Fault) does at the beginning of its cycle.
    /// Panics if the bit is out of range.
    pub fn flip(&mut self, site: FaultSite) {
        let (cell, bit) = self.locate(site).expect("fault bit out of range");
        on_array!(self, site.structure, flip, cell, bit)
    }

    /// Whether this machine would still be [`Sim::converged_with`] itself
    /// after [`Sim::flip`]ping `site`: the bit lies in storage its part
    /// calls dead, so nothing will ever read it. Read-only and O(1); `false`
    /// for a bit out of range, which `flip` refuses.
    pub fn dead_on_arrival(&self, site: FaultSite) -> bool {
        self.locate(site)
            .is_some_and(|(cell, bit)| on_array!(self, site.structure, is_dead, cell, bit))
    }
}
