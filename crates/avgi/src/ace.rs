//! ACE (Architecturally Correct Execution) analysis for the register file —
//! the analytical baseline of the paper's Fig. 1.
//!
//! ACE analysis needs no fault injection: one instrumented fault-free run
//! measures, per physical register, the interval from each value's
//! writeback to its last read, and counts **every bit** of that interval as
//! vulnerable. That blanket assumption is ACE's pessimism — it cannot see
//! the logical masking SFI observes (sub-word uses, compares that do not
//! flip a branch, values whose corruption never reaches the output) — and
//! is why the paper's Fig. 1 shows ACE AVFs 1.2–3× above SFI ground truth.
//!
//! The estimator, [`ace_regfile`], reads the simulator's
//! per-physical-register ACE instrumentation
//! ([`avgi_muarch::run::ExecStats::rf_ace_cycles`]).

use avgi_muarch::config::MuarchConfig;
use avgi_muarch::trace::GoldenRun;

/// ACE-cycle accounting for one golden run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AceResult {
    /// Total register ACE cycles (writeback → last read, summed over
    /// values).
    pub ace_cycles: u64,
    /// Execution length in cycles.
    pub total_cycles: u64,
    /// Physical register count used for normalization.
    pub phys_regs: u32,
}

impl AceResult {
    /// The ACE-analysis AVF of the physical register file: vulnerable
    /// bit-cycles over total bit-cycles. (Bit width cancels.)
    pub fn avf(&self) -> f64 {
        if self.total_cycles == 0 || self.phys_regs == 0 {
            return 0.0;
        }
        self.ace_cycles as f64 / (self.total_cycles as f64 * f64::from(self.phys_regs))
    }
}

/// Microarchitectural ACE analysis of the physical register file, from the
/// golden run's instrumentation (the Fig. 1 baseline).
pub fn ace_regfile(golden: &GoldenRun, cfg: &MuarchConfig) -> AceResult {
    AceResult {
        ace_cycles: golden.stats.rf_ace_cycles,
        total_cycles: golden.cycles,
        phys_regs: cfg.phys_regs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avgi_faultsim::golden_for;

    #[test]
    fn ace_avf_is_positive_and_bounded() {
        let cfg = MuarchConfig::big();
        for w in avgi_workloads::all().iter().take(3) {
            let golden = golden_for(w, &cfg);
            let r = ace_regfile(&golden, &cfg);
            let avf = r.avf();
            assert!(avf > 0.0, "{}: zero ACE AVF", w.name);
            assert!(avf < 1.0, "{}: AVF {avf} out of range", w.name);
        }
    }

    #[test]
    fn long_lived_values_dominate_ace() {
        let cfg = MuarchConfig::big();
        let w = avgi_workloads::by_name("dijkstra").unwrap();
        let golden = golden_for(&w, &cfg);
        let r = ace_regfile(&golden, &cfg);
        // dijkstra keeps base pointers live across long scans: expect more
        // than one register-lifetime's worth of ACE cycles.
        assert!(
            r.ace_cycles > golden.cycles,
            "base registers live across the run"
        );
    }
}
