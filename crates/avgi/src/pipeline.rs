//! The five-phase AVGI methodology (§IV) and the exhaustive-SFI baseline.
//!
//! | phase | what happens | where |
//! |-------|--------------|-------|
//! | 1 Configuration | program, fault list, target structure | [`AvgiOptions`] |
//! | 2 Microarchitecture-detailed simulation | run until the fault reaches commit, bounded by the ERT window | [`avgi_mode`] |
//! | 3 IMM classification | first deviation → one of the eight IMMs | [`crate::classify`] |
//! | 4 Effects classification | per-structure IMM weights + ESC estimation | [`crate::weights`], [`crate::esc`] |
//! | 5 Final cross-layer AVF | assemble the Masked/SDC/Crash report | [`AvgiAssessment`] |
//!
//! Phase 2 is the only one that simulates: it is one campaign, and whoever
//! runs it chooses how (observed, sharded, in-process). Phases 3–5 are a
//! pure fold over its results, [`AvgiAssessment::from_campaign`].
//! [`assess`] and [`exhaustive`] run the campaign with
//! [`avgi_faultsim::run_campaign`] and fold it.

use crate::analysis::JointAnalysis;
use crate::classify::classify_injection;
use crate::ert::default_ert_window;
use crate::esc::EscModel;
use crate::imm::{FaultEffect, Imm, ImmClass, NUM_IMMS};
use crate::report::EffectDistribution;
use crate::weights::WeightTable;
use avgi_faultsim::{run_campaign, CampaignConfig, CampaignResult, RunMode};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;
use avgi_muarch::trace::GoldenRun;
use avgi_workloads::Workload;
use std::sync::Arc;

/// Phase-1 configuration of an AVGI assessment.
#[derive(Debug, Clone)]
pub struct AvgiOptions {
    /// Number of injected faults (statistical sample size).
    pub faults: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for AvgiOptions {
    fn default() -> Self {
        AvgiOptions {
            faults: 2_000,
            seed: 0xA461_0001,
        }
    }
}

impl AvgiOptions {
    /// The campaign on `structure` in `mode` at this budget and seed.
    pub fn campaign(&self, structure: Structure, mode: RunMode) -> CampaignConfig {
        CampaignConfig::new(structure, self.faults, mode).with_seed(self.seed)
    }
}

/// The phase-2 run mode of the AVGI flow on `structure`: stop at the first
/// commit-trace deviation, or at the structure's [`default_ert_window`]
/// after injection, whichever comes first.
pub fn avgi_mode(structure: Structure, golden_cycles: u64) -> RunMode {
    RunMode::FirstDeviation {
        ert_window: Some(default_ert_window(structure, golden_cycles)),
    }
}

/// The phase-5 output: a predicted AVF report plus everything needed to
/// audit it.
#[derive(Debug, Clone)]
pub struct AvgiAssessment {
    /// Workload name.
    pub workload: String,
    /// Target structure.
    pub structure: Structure,
    /// Predicted Masked/SDC/Crash distribution.
    pub predicted: EffectDistribution,
    /// Observed IMM counts (phase 3).
    pub imm_counts: [u64; NUM_IMMS],
    /// Observed Benign count.
    pub benign: u64,
    /// Estimated escape count folded into SDC (phase 4).
    pub esc_estimate: f64,
    /// Total injections.
    pub total: u64,
    /// Post-injection simulated cycles spent — the cost metric compared in
    /// Table II.
    pub cost_cycles: u64,
}

impl AvgiAssessment {
    /// Phases 3–5 over a finished phase-2 campaign: classify every run into
    /// its IMM, weigh the IMM histogram with `weights`, fold in the ESC
    /// estimate for a program writing `output_bytes`, and assemble the
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if `weights` were learned for another structure than the
    /// campaign's.
    pub fn from_campaign(
        campaign: &CampaignResult,
        output_bytes: u32,
        weights: &WeightTable,
    ) -> Self {
        let structure = campaign.structure;
        assert_eq!(weights.structure, structure, "weights of another structure");
        // Phase 3: IMM classification.
        let mut imm_counts = [0u64; NUM_IMMS];
        let mut benign = 0u64;
        for r in &campaign.results {
            match classify_injection(r) {
                ImmClass::Benign => benign += 1,
                ImmClass::Manifested(i) => imm_counts[i.index()] += 1,
            }
        }
        let total = campaign.len() as u64;

        // Phase 4: weights + ESC estimation.
        let esc_estimate = if structure.is_esc_eligible() {
            EscModel::default().esc_count(output_bytes, total, benign)
        } else {
            0.0
        };
        let mut masked = benign as f64 - esc_estimate;
        let mut sdc = esc_estimate;
        let mut crash = 0.0;
        for imm in Imm::all() {
            let n = imm_counts[imm.index()] as f64;
            masked += n * weights.weight(*imm, FaultEffect::Masked);
            sdc += n * weights.weight(*imm, FaultEffect::Sdc);
            crash += n * weights.weight(*imm, FaultEffect::Crash);
        }
        // IMMs with no training support contribute nothing above; renormalize
        // over what was distributed so the report stays a distribution.
        let distributed = masked + sdc + crash;
        let predicted = if distributed > 0.0 {
            EffectDistribution {
                masked: masked / distributed,
                sdc: sdc / distributed,
                crash: crash / distributed,
            }
        } else {
            EffectDistribution {
                masked: 1.0,
                sdc: 0.0,
                crash: 0.0,
            }
        };

        // Phase 5: assemble.
        AvgiAssessment {
            workload: campaign.workload.clone(),
            structure,
            predicted,
            imm_counts,
            benign,
            esc_estimate,
            total,
            cost_cycles: campaign.total_post_inject_cycles(),
        }
    }
}

/// Runs the full AVGI methodology for one (workload, structure) pair: the
/// [`avgi_mode`] campaign on the weight table's structure, then
/// [`AvgiAssessment::from_campaign`].
///
/// `weights` must have been learned on *other* workloads (leave-one-out)
/// for an honest accuracy evaluation.
pub fn assess(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    weights: &WeightTable,
    opts: &AvgiOptions,
) -> AvgiAssessment {
    let structure = weights.structure;
    let ccfg = opts.campaign(structure, avgi_mode(structure, golden.cycles));
    let campaign = run_campaign(workload, cfg, golden, &ccfg);
    AvgiAssessment::from_campaign(&campaign, workload.output_bytes(), weights)
}

/// The exhaustive (traditional, accelerated) SFI baseline: end-to-end runs
/// with instrumentation, producing ground-truth AVF and the joint analysis
/// used for weight learning.
#[derive(Debug, Clone)]
pub struct ExhaustiveAssessment {
    /// Ground-truth Masked/SDC/Crash distribution.
    pub effect: EffectDistribution,
    /// The full joint (IMM × effect) analysis.
    pub analysis: JointAnalysis,
    /// Post-injection simulated cycles spent.
    pub cost_cycles: u64,
}

impl ExhaustiveAssessment {
    /// The baseline's fold over a finished [`RunMode::Instrumented`]
    /// campaign.
    pub fn from_campaign(campaign: &CampaignResult) -> Self {
        let analysis = JointAnalysis::from_campaign(campaign);
        ExhaustiveAssessment {
            effect: EffectDistribution::from_array(analysis.effect_distribution()),
            cost_cycles: campaign.total_post_inject_cycles(),
            analysis,
        }
    }
}

/// Runs the exhaustive baseline for one (workload, structure) pair.
pub fn exhaustive(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    structure: Structure,
    faults: usize,
    seed: u64,
) -> ExhaustiveAssessment {
    let ccfg = AvgiOptions { faults, seed }.campaign(structure, RunMode::Instrumented);
    ExhaustiveAssessment::from_campaign(&run_campaign(workload, cfg, golden, &ccfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::learn_weights;
    use avgi_faultsim::golden_for;

    #[test]
    fn avgi_assessment_is_normalized_and_cheaper() {
        let ws = avgi_workloads::all();
        let cfg = MuarchConfig::big();
        let structure = Structure::RegFile;
        // Train on two workloads, assess a third.
        let train: Vec<JointAnalysis> = ws[..2]
            .iter()
            .map(|w| {
                let golden = golden_for(w, &cfg);
                exhaustive(w, &cfg, &golden, structure, 60, 1).analysis
            })
            .collect();
        let weights = learn_weights(&train, None);
        let target = &ws[2];
        let golden = golden_for(target, &cfg);
        let opts = AvgiOptions {
            faults: 60,
            seed: 2,
        };
        let a = assess(target, &cfg, &golden, &weights, &opts);
        assert!(a.predicted.is_normalized(), "{:?}", a.predicted);
        assert_eq!(a.total, 60);
        assert_eq!(a.benign + a.imm_counts.iter().sum::<u64>(), 60);

        let e = exhaustive(target, &cfg, &golden, structure, 60, 2);
        assert!(
            a.cost_cycles <= e.cost_cycles,
            "AVGI ({}) must not cost more than exhaustive ({})",
            a.cost_cycles,
            e.cost_cycles
        );
    }

    #[test]
    fn esc_only_applied_to_cache_data_arrays() {
        let ws = avgi_workloads::by_name("blowfish").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&ws, &cfg);
        let train = exhaustive(&ws, &cfg, &golden, Structure::RegFile, 40, 3).analysis;
        let weights = learn_weights(&[train], None);
        let opts = AvgiOptions {
            faults: 40,
            seed: 4,
        };
        let a = assess(&ws, &cfg, &golden, &weights, &opts);
        assert_eq!(a.esc_estimate, 0.0, "RF is not a cache data array");
    }
}
