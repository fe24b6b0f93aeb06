//! Leave-one-out accuracy studies: the evaluation protocol behind the
//! paper's Figs. 10–12.
//!
//! For one structure, run the exhaustive instrumented baseline on every
//! workload; then, for each workload, learn IMM weights from the *other*
//! workloads and produce an AVGI assessment of the held-out one. Each
//! [`StudyRow`] pairs ground truth with prediction and carries both
//! campaigns' simulation costs.
//!
//! [`leave_one_out_with`] is the one place that knows which campaigns a
//! study needs; the caller's executor runs them.

use crate::pipeline::{avgi_mode, AvgiAssessment, AvgiOptions, ExhaustiveAssessment};
use crate::report::EffectDistribution;
use crate::weights::learn_weights;
use avgi_faultsim::{run_campaign, verified_golden, CampaignConfig, CampaignResult, RunMode};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;
use avgi_muarch::trace::GoldenRun;
use avgi_workloads::Workload;
use std::borrow::Borrow;
use std::sync::Arc;

/// One held-out workload's ground truth vs. AVGI prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyRow {
    /// Held-out workload name.
    pub workload: String,
    /// Ground-truth Masked/SDC/Crash from exhaustive SFI.
    pub real: EffectDistribution,
    /// AVGI prediction with weights learned on the other workloads.
    pub predicted: EffectDistribution,
    /// Post-injection cycles of the exhaustive campaign.
    pub real_cost: u64,
    /// Post-injection cycles of the AVGI campaign.
    pub avgi_cost: u64,
}

impl StudyRow {
    /// Worst per-class absolute difference (the Fig. 10 accuracy metric).
    pub fn max_abs_diff(&self) -> f64 {
        self.real.max_abs_diff(self.predicted)
    }
}

/// A finished leave-one-out study for one structure.
#[derive(Debug, Clone)]
pub struct Study {
    /// Target structure.
    pub structure: Structure,
    /// One row per workload, in input order.
    pub rows: Vec<StudyRow>,
}

impl Study {
    /// Worst per-class difference over all rows.
    pub fn worst_diff(&self) -> f64 {
        self.rows
            .iter()
            .map(StudyRow::max_abs_diff)
            .fold(0.0, f64::max)
    }

    /// Total exhaustive cost over AVGI cost: the study's speedup.
    pub fn speedup(&self) -> f64 {
        let real: u64 = self.rows.iter().map(|r| r.real_cost).sum();
        let avgi: u64 = self.rows.iter().map(|r| r.avgi_cost).sum();
        real as f64 / avgi.max(1) as f64
    }
}

/// Runs the full leave-one-out evaluation for one structure, every
/// campaign through [`run_campaign`].
///
/// # Panics
///
/// Panics if a workload's golden run fails verification.
pub fn leave_one_out(
    structure: Structure,
    workloads: &[Workload],
    cfg: &MuarchConfig,
    opts: &AvgiOptions,
) -> Study {
    leave_one_out_with(structure, workloads, cfg, opts, run_campaign)
}

/// [`leave_one_out`] with every campaign executed by `run`: per workload,
/// first the [`RunMode::Instrumented`] ground truth and training campaign,
/// then (once all of those are in) the [`avgi_mode`] assessment campaign,
/// both at `opts.faults` and `opts.seed`. The rest is a fold over their
/// results. Golden runs come from [`verified_golden`], so every study in a
/// process shares one verified capture per program. `run` may return the
/// result itself or anything that lends it, such as a stored campaign.
///
/// # Panics
///
/// Panics if a workload's golden run fails verification.
pub fn leave_one_out_with<R: Borrow<CampaignResult>>(
    structure: Structure,
    workloads: &[Workload],
    cfg: &MuarchConfig,
    opts: &AvgiOptions,
    mut run: impl FnMut(&Workload, &MuarchConfig, &Arc<GoldenRun>, &CampaignConfig) -> R,
) -> Study {
    let exhaustives: Vec<(ExhaustiveAssessment, Arc<GoldenRun>)> = workloads
        .iter()
        .map(|w| {
            let golden = verified_golden(w, cfg).unwrap_or_else(|e| panic!("{e}"));
            let ccfg = opts.campaign(structure, RunMode::Instrumented);
            let truth = ExhaustiveAssessment::from_campaign(run(w, cfg, &golden, &ccfg).borrow());
            (truth, golden)
        })
        .collect();
    let analyses: Vec<_> = exhaustives
        .iter()
        .map(|(e, _)| e.analysis.clone())
        .collect();
    let rows = workloads
        .iter()
        .zip(&exhaustives)
        .map(|(w, (ex, golden))| {
            let weights = learn_weights(&analyses, Some(w.name));
            let ccfg = opts.campaign(structure, avgi_mode(structure, golden.cycles));
            let campaign = run(w, cfg, golden, &ccfg);
            let a = AvgiAssessment::from_campaign(campaign.borrow(), w.output_bytes(), &weights);
            StudyRow {
                workload: w.name.to_string(),
                real: ex.effect,
                predicted: a.predicted,
                real_cost: ex.cost_cycles,
                avgi_cost: a.cost_cycles,
            }
        })
        .collect();
    Study { structure, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_on_three_workloads_is_complete_and_normalized() {
        let cfg = MuarchConfig::big();
        let workloads: Vec<Workload> = avgi_workloads::all().into_iter().take(3).collect();
        let opts = AvgiOptions {
            faults: 50,
            seed: 5,
        };
        let s = leave_one_out(Structure::Dtlb, &workloads, &cfg, &opts);
        assert_eq!(s.rows.len(), 3);
        for r in &s.rows {
            assert!(r.real.is_normalized());
            assert!(r.predicted.is_normalized());
            assert!(r.avgi_cost <= r.real_cost, "{}", r.workload);
        }
        assert!(s.speedup() >= 1.0);
        assert!(s.worst_diff() <= 1.0);
    }

    #[test]
    fn a_study_is_two_campaigns_per_workload_through_the_callers_executor() {
        let cfg = MuarchConfig::big();
        let workloads: Vec<Workload> = ["bitcount", "crc32"]
            .map(|n| avgi_workloads::by_name(n).expect("registered"))
            .to_vec();
        let opts = AvgiOptions {
            faults: 12,
            seed: 9,
        };
        let structure = Structure::RegFile;
        let mut seen = Vec::new();
        let study = leave_one_out_with(structure, &workloads, &cfg, &opts, |w, c, g, ccfg| {
            seen.push((w.name, g.cycles, ccfg.mode, ccfg.faults, ccfg.seed));
            run_campaign(w, c, g, ccfg)
        });
        let goldens: Vec<u64> = workloads
            .iter()
            .map(|w| verified_golden(w, &cfg).unwrap().cycles)
            .collect();
        let mut want: Vec<_> = workloads
            .iter()
            .zip(&goldens)
            .map(|(w, &g)| (w.name, g, RunMode::Instrumented, 12, 9))
            .collect();
        want.extend(
            workloads
                .iter()
                .zip(&goldens)
                .map(|(w, &g)| (w.name, g, avgi_mode(structure, g), 12, 9)),
        );
        assert_eq!(seen, want);
        assert_eq!(
            study.rows,
            leave_one_out(structure, &workloads, &cfg, &opts).rows
        );
    }
}
