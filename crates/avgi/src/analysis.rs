//! Joint HVF/AVF analysis of instrumented campaigns (§III of the paper):
//! per-(structure, workload) counts of (IMM class × final fault effect).

use crate::classify::classify_injection;
use crate::imm::{FaultEffect, Imm, ImmClass, NUM_EFFECTS, NUM_IMMS};
use avgi_faultsim::{CampaignResult, InjectionResult};
use avgi_muarch::fault::Structure;
use avgi_muarch::run::RunOutcome;

/// Why an injection has no final fault effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EffectError {
    /// The run completed but carries no output comparison — the campaign
    /// layer failed to record one (a bookkeeping bug, not a fault effect).
    MissingOutputComparison,
    /// The run was stopped early (first-deviation / ERT modes); early stops
    /// have no final effect — that is the whole point of the methodology.
    EarlyStopped,
}

impl core::fmt::Display for EffectError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EffectError::MissingOutputComparison => {
                f.write_str("completed run without output comparison")
            }
            EffectError::EarlyStopped => f.write_str("early-stopped run has no final effect"),
        }
    }
}

impl std::error::Error for EffectError {}

/// Final fault effect of one *end-to-end* injection (§II.B), or a typed
/// error when the run has none (early-stopped runs, malformed records).
///
/// Crash-family outcomes include the fault-tolerance outcomes: a run ended
/// by the wall-clock watchdog is a hang, and a run whose simulation
/// panicked (`SimAbort`) is counted as a crash — the simulated machine
/// reached a state the hardware model treats as fatal.
pub fn try_final_effect(r: &InjectionResult) -> Result<FaultEffect, EffectError> {
    match r.outcome {
        RunOutcome::Completed => match r.output_matches {
            Some(true) => Ok(FaultEffect::Masked),
            Some(false) => Ok(FaultEffect::Sdc),
            None => Err(EffectError::MissingOutputComparison),
        },
        RunOutcome::Trap(_)
        | RunOutcome::IntegrityViolation(_)
        | RunOutcome::Watchdog
        | RunOutcome::WallClockExpired
        | RunOutcome::SimAbort => Ok(FaultEffect::Crash),
        RunOutcome::StoppedAtDeviation | RunOutcome::ErtExpired => Err(EffectError::EarlyStopped),
    }
}

/// Joint (IMM class × final effect) counts for one instrumented campaign.
///
/// Row `NUM_IMMS` holds the Benign class (hardware-masked faults, which
/// are always `Masked`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointAnalysis {
    /// Workload name.
    pub workload: String,
    /// Target structure.
    pub structure: Structure,
    /// `counts[imm_or_benign][effect]`.
    pub counts: [[u64; NUM_EFFECTS]; NUM_IMMS + 1],
    /// Every observed manifestation latency (first-deviation cycle minus
    /// injection cycle), sorted ascending — the raw material of the
    /// effective-residency-time analysis (§V.A); the last is the maximum.
    pub manifestation_latencies: Vec<u64>,
    /// Total injections.
    pub total: u64,
}

impl JointAnalysis {
    /// Builds the analysis from an instrumented (end-to-end + deviation
    /// capture) campaign.
    pub fn from_campaign(c: &CampaignResult) -> Self {
        let mut counts = [[0u64; NUM_EFFECTS]; NUM_IMMS + 1];
        let mut lats = Vec::new();
        for r in &c.results {
            let class = classify_injection(r);
            let effect = try_final_effect(r)
                .expect("joint analysis requires an end-to-end (Instrumented) campaign");
            let row = match class {
                ImmClass::Benign => NUM_IMMS,
                ImmClass::Manifested(i) => i.index(),
            };
            counts[row][effect.index()] += 1;
            if let Some(d) = &r.deviation {
                lats.push(d.faulty.cycle.saturating_sub(r.fault.cycle));
            }
        }
        lats.sort_unstable();
        JointAnalysis {
            workload: c.workload.clone(),
            structure: c.structure,
            counts,
            manifestation_latencies: lats,
            total: c.results.len() as u64,
        }
    }

    /// Count of faults in one IMM class (any effect).
    pub fn imm_count(&self, imm: Imm) -> u64 {
        self.counts[imm.index()].iter().sum()
    }

    /// Count of Benign (hardware-masked) faults.
    pub fn benign_count(&self) -> u64 {
        self.counts[NUM_IMMS].iter().sum()
    }

    /// Count of corruptions (faults that reached the software): total minus
    /// Benign.
    pub fn corruption_count(&self) -> u64 {
        self.total - self.benign_count()
    }

    /// The IMM distribution over corruptions (Fig. 3): fractions summing to
    /// 1 when any corruption exists, all-zero otherwise.
    pub fn imm_distribution(&self) -> [f64; NUM_IMMS] {
        let total = self.corruption_count();
        let mut d = [0.0; NUM_IMMS];
        if total == 0 {
            return d;
        }
        for imm in Imm::all() {
            d[imm.index()] = self.imm_count(*imm) as f64 / total as f64;
        }
        d
    }

    /// The IMM distribution over *trace-visible* corruptions — ESC excluded
    /// — which is what the paper's Figs. 3 and 8 plot (escapes cannot be
    /// identified by commit-trace analysis; they are estimated separately
    /// in phase 4).
    pub fn visible_imm_distribution(&self) -> [f64; NUM_IMMS] {
        let esc = self.imm_count(Imm::Esc);
        let total = self.corruption_count().saturating_sub(esc);
        let mut d = [0.0; NUM_IMMS];
        if total == 0 {
            return d;
        }
        for imm in Imm::all() {
            if *imm != Imm::Esc {
                d[imm.index()] = self.imm_count(*imm) as f64 / total as f64;
            }
        }
        d
    }

    /// Ground-truth final-effect distribution over *all* faults (the AVF
    /// report of the exhaustive analysis: fractions of Masked/SDC/Crash).
    pub fn effect_distribution(&self) -> [f64; NUM_EFFECTS] {
        let mut d = [0.0; NUM_EFFECTS];
        if self.total == 0 {
            return d;
        }
        for row in &self.counts {
            for (e, &n) in row.iter().enumerate() {
                d[e] += n as f64;
            }
        }
        for v in &mut d {
            *v /= self.total as f64;
        }
        d
    }

    /// P(effect | imm) for one IMM (rows of Fig. 4), or `None` when the IMM
    /// was never observed.
    pub fn effect_given_imm(&self, imm: Imm) -> Option<[f64; NUM_EFFECTS]> {
        let n = self.imm_count(imm);
        if n == 0 {
            return None;
        }
        let mut d = [0.0; NUM_EFFECTS];
        for (e, &c) in self.counts[imm.index()].iter().enumerate() {
            d[e] = c as f64 / n as f64;
        }
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avgi_faultsim::{golden_for, run_campaign, CampaignConfig, RunMode};
    use avgi_muarch::MuarchConfig;

    #[test]
    fn joint_analysis_accounts_for_every_fault() {
        let w = avgi_workloads::by_name("sha").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let c = run_campaign(
            &w,
            &cfg,
            &golden,
            &CampaignConfig::new(Structure::RegFile, 50, RunMode::Instrumented),
        );
        let a = JointAnalysis::from_campaign(&c);
        assert_eq!(a.total, 50);
        let sum: u64 = a.counts.iter().flatten().sum();
        assert_eq!(sum, 50, "every fault in exactly one cell");
        assert_eq!(a.benign_count() + a.corruption_count(), 50);
        let dist = a.effect_distribution();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn visible_distribution_excludes_escapes() {
        let mut counts = [[0u64; NUM_EFFECTS]; NUM_IMMS + 1];
        counts[Imm::Dcr.index()][FaultEffect::Sdc.index()] = 3;
        counts[Imm::Esc.index()][FaultEffect::Sdc.index()] = 3;
        counts[NUM_IMMS][FaultEffect::Masked.index()] = 4;
        let a = JointAnalysis {
            workload: "w".into(),
            structure: Structure::L1DData,
            counts,
            manifestation_latencies: Vec::new(),
            total: 10,
        };
        let all = a.imm_distribution();
        assert!((all[Imm::Dcr.index()] - 0.5).abs() < 1e-12);
        assert!((all[Imm::Esc.index()] - 0.5).abs() < 1e-12);
        let vis = a.visible_imm_distribution();
        assert!((vis[Imm::Dcr.index()] - 1.0).abs() < 1e-12);
        assert_eq!(vis[Imm::Esc.index()], 0.0);
    }

    #[test]
    fn benign_faults_are_always_masked() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let c = run_campaign(
            &w,
            &cfg,
            &golden,
            &CampaignConfig::new(Structure::RegFile, 60, RunMode::Instrumented),
        );
        let a = JointAnalysis::from_campaign(&c);
        // Benign = no deviation + completed + matching output = Masked:
        // SDC/Crash cells of the Benign row must be empty.
        assert_eq!(a.counts[NUM_IMMS][FaultEffect::Sdc.index()], 0);
        assert_eq!(a.counts[NUM_IMMS][FaultEffect::Crash.index()], 0);
    }
}
