//! IMM weighting factors (§III.D, Fig. 5): per-structure, per-IMM final
//! fault-effect probabilities, averaged across workloads.
//!
//! The paper's central insight 2 is that these probabilities are a
//! property of the *hardware structure*, approximately invariant across
//! workloads — so weights learned on a training set transfer to unseen
//! programs. [`learn_weights`] supports leave-one-out exclusion so the
//! accuracy experiments (Figs. 10–12) are honest out-of-sample tests.

use crate::analysis::JointAnalysis;
use crate::imm::{FaultEffect, Imm, NUM_EFFECTS, NUM_IMMS};
use avgi_muarch::fault::Structure;

/// Per-IMM final-effect weights for one hardware structure.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightTable {
    /// The structure the weights were learned for.
    pub structure: Structure,
    /// `w[imm][effect]` = mean over training workloads of P(effect | imm);
    /// rows of never-observed IMMs are all-zero.
    pub w: [[f64; NUM_EFFECTS]; NUM_IMMS],
    /// Number of training workloads contributing to each IMM row.
    pub support: [u32; NUM_IMMS],
}

impl WeightTable {
    /// P(effect | imm) under this table.
    pub fn weight(&self, imm: Imm, effect: FaultEffect) -> f64 {
        self.w[imm.index()][effect.index()]
    }

    /// Whether an IMM was ever observed in training.
    pub fn observed(&self, imm: Imm) -> bool {
        self.support[imm.index()] > 0
    }
}

/// Learns a weight table as the arithmetic mean of per-workload
/// P(effect | imm), as the paper prescribes (§III.D). Workloads where an
/// IMM never occurred do not contribute to that IMM's row. `exclude` makes
/// the evaluation leave-one-out.
///
/// # Panics
///
/// Panics if `analyses` is empty or mixes structures.
pub fn learn_weights(analyses: &[JointAnalysis], exclude: Option<&str>) -> WeightTable {
    assert!(!analyses.is_empty(), "no training analyses");
    let structure = analyses[0].structure;
    assert!(
        analyses.iter().all(|a| a.structure == structure),
        "weight learning must not mix structures"
    );
    let mut sums = [[0.0; NUM_EFFECTS]; NUM_IMMS];
    let mut support = [0u32; NUM_IMMS];
    for a in analyses {
        if Some(a.workload.as_str()) == exclude {
            continue;
        }
        for imm in Imm::all() {
            if let Some(dist) = a.effect_given_imm(*imm) {
                for e in 0..NUM_EFFECTS {
                    sums[imm.index()][e] += dist[e];
                }
                support[imm.index()] += 1;
            }
        }
    }
    let mut w = [[0.0; NUM_EFFECTS]; NUM_IMMS];
    for i in 0..NUM_IMMS {
        if support[i] > 0 {
            for e in 0..NUM_EFFECTS {
                w[i][e] = sums[i][e] / f64::from(support[i]);
            }
        }
    }
    WeightTable {
        structure,
        w,
        support,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imm::NUM_IMMS as NI;

    fn synthetic(workload: &str, ifc_masked: u64, ifc_crash: u64) -> JointAnalysis {
        let mut counts = [[0u64; NUM_EFFECTS]; NI + 1];
        counts[Imm::Ifc.index()][FaultEffect::Masked.index()] = ifc_masked;
        counts[Imm::Ifc.index()][FaultEffect::Crash.index()] = ifc_crash;
        counts[NI][FaultEffect::Masked.index()] = 10;
        JointAnalysis {
            workload: workload.to_string(),
            structure: Structure::RegFile,
            counts,
            manifestation_latencies: Vec::new(),
            total: ifc_masked + ifc_crash + 10,
        }
    }

    #[test]
    fn weights_are_mean_of_per_workload_probabilities() {
        // Workload a: P(crash|IFC) = 1.0; workload b: P(crash|IFC) = 0.5.
        let analyses = vec![synthetic("a", 0, 8), synthetic("b", 4, 4)];
        let t = learn_weights(&analyses, None);
        assert!((t.weight(Imm::Ifc, FaultEffect::Crash) - 0.75).abs() < 1e-12);
        assert!((t.weight(Imm::Ifc, FaultEffect::Masked) - 0.25).abs() < 1e-12);
        assert_eq!(t.support[Imm::Ifc.index()], 2);
        assert!(!t.observed(Imm::Dcr));
        assert_eq!(t.weight(Imm::Dcr, FaultEffect::Sdc), 0.0);
    }

    #[test]
    fn exclude_removes_a_workload() {
        let analyses = vec![synthetic("a", 0, 8), synthetic("b", 4, 4)];
        let t = learn_weights(&analyses, Some("a"));
        assert!((t.weight(Imm::Ifc, FaultEffect::Crash) - 0.5).abs() < 1e-12);
        assert_eq!(t.support[Imm::Ifc.index()], 1);
    }

    #[test]
    #[should_panic(expected = "must not mix structures")]
    fn mixing_structures_panics() {
        let mut b = synthetic("b", 1, 1);
        b.structure = Structure::Rob;
        let _ = learn_weights(&[synthetic("a", 1, 1), b], None);
    }

    #[test]
    fn weight_rows_are_probability_distributions() {
        let analyses = vec![synthetic("a", 3, 5), synthetic("b", 2, 2)];
        let t = learn_weights(&analyses, None);
        let row: f64 = (0..NUM_EFFECTS).map(|e| t.w[Imm::Ifc.index()][e]).sum();
        assert!((row - 1.0).abs() < 1e-12);
    }
}
