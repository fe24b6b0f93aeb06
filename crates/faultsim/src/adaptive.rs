//! Adaptive importance-sampled campaigns (ROADMAP item 3).
//!
//! Uniform Leveugle sampling spends most of a campaign's run budget on
//! Masked outcomes. This module steers later batches toward the
//! (bit-range × cycle-window) regions the posterior — a
//! [`SiteGrid`] folded over every result so far — says
//! are likely to produce SDC/Crash outcomes — the Bayesian fault-injection
//! idea — while keeping the AVF/SDC estimators *unbiased* via
//! Horvitz–Thompson reweighting:
//!
//! * The campaign runs in deterministic batches. Warmup batches draw
//!   uniformly (weight 1); every later batch builds a proposal
//!   distribution over the posterior grid's cells and draws from it.
//! * The proposal is a mixture: `q = explore · p + (1 − explore) · q*`,
//!   where `p` is each cell's share of the uniform fault population and
//!   `q* ∝ p · affected-rate` is the empirically optimal proposal for
//!   estimating a population proportion. The `explore` floor keeps every
//!   cell reachable (so weights are bounded by `1/explore`), and a
//!   posterior with *zero* observed affected mass — the all-Masked early
//!   phase — falls back to `q = p`, i.e. exactly uniform sampling.
//! * Each drawn fault carries the weight `w = p(cell) / q(cell)`. Since
//!   `E_q[w·f] = E_p[f]` for any outcome indicator `f`, the weighted
//!   estimators stay unbiased no matter how aggressively the proposal
//!   tilts ([`weighted_estimate`]).
//! * Per-campaign (hence per-structure) Wilson confidence intervals over
//!   the Kish effective sample size drive early stopping: once the AVF
//!   interval's half-width reaches [`AdaptiveConfig::ci_target`], the
//!   remaining budget is left unspent.
//!
//! Determinism contract: the batch schedule is a pure function of
//! `(seed, batch results so far)`. The driver owns the posterior and folds
//! each batch's returned results into it after the batch, so the drawn
//! faults — and therefore results, weights, and the early-stop point — are
//! identical across thread counts by construction.
//! `faultsim/tests/adaptive_stats.rs` asserts all of this empirically.

use crate::campaign::{CampaignConfig, CampaignResult, InjectionResult, ShardRunner};
use crate::error::CampaignError;
use crate::sampling::{wilson_interval, z_value, SamplingError};
use crate::telemetry::{outcome_class, OutcomeClass, SiteGrid};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::{Fault, FaultSite};
use avgi_muarch::trace::GoldenRun;
use avgi_rng::Rng;
use avgi_workloads::Workload;
use std::sync::Arc;

/// Parameters of an adaptive campaign.
///
/// `base.faults` is the *budget*: the maximum number of injections. An
/// early-stopping campaign usually spends far less (that is the point);
/// [`AdaptiveReport::runs_saved_pct`] reports the saving.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// The underlying campaign: structure, budget (`faults`), seed, mode,
    /// threads, checkpointing, batch size — all engine knobs apply per batch.
    pub base: CampaignConfig,
    /// Injections per adaptive batch (the granularity at which the
    /// proposal re-adapts and the stopping rule is evaluated).
    pub batch_runs: usize,
    /// Uniform (weight-1) batches before adaptation begins.
    pub warmup_batches: usize,
    /// Posterior bins over the structure's bit space.
    pub bit_bins: usize,
    /// Posterior bins over the golden run's cycles.
    pub cycle_bins: usize,
    /// Uniform mixing floor of the proposal, in (0, 1]: bounds every
    /// importance weight by `1/explore` and keeps unvisited cells
    /// reachable. `1.0` disables adaptation entirely.
    pub explore: f64,
    /// Confidence level of the Wilson stopping interval, in (0, 1).
    pub confidence: f64,
    /// Early-stop threshold: stop once the AVF interval's half-width is at
    /// or below this (`None` = always spend the full budget).
    pub ci_target: Option<f64>,
}

impl AdaptiveConfig {
    /// Adaptive defaults over `base`: 64-run batches, one uniform warmup
    /// batch, an 8×8 posterior grid, a 0.25 explore floor, and 95 %
    /// Wilson intervals with no early stop.
    pub fn new(base: CampaignConfig) -> Self {
        AdaptiveConfig {
            base,
            batch_runs: 64,
            warmup_batches: 1,
            bit_bins: 8,
            cycle_bins: 8,
            explore: 0.25,
            confidence: 0.95,
            ci_target: None,
        }
    }

    /// Sets the per-batch run count.
    pub fn with_batch_runs(mut self, runs: usize) -> Self {
        self.batch_runs = runs;
        self
    }

    /// Sets the uniform mixing floor.
    pub fn with_explore(mut self, explore: f64) -> Self {
        self.explore = explore;
        self
    }

    /// Sets the stopping confidence level.
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence;
        self
    }

    /// Enables CI-driven early stopping at the given half-width target.
    pub fn with_ci_target(mut self, target: f64) -> Self {
        self.ci_target = Some(target);
        self
    }
}

/// A proposal distribution over the posterior grid's cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Proposal {
    /// Per-cell draw probability (sums to 1).
    pub q: Vec<f64>,
    /// Per-cell Horvitz–Thompson weight `p(cell) / q(cell)`.
    pub weight: Vec<f64>,
    /// Whether the posterior actually tilted the proposal. `false` means
    /// the zero-affected-mass fallback fired and `q` is exactly the
    /// uniform population distribution (all weights 1).
    pub adapted: bool,
}

/// Builds the importance-sampling proposal for the next batch from a
/// posterior grid (see the module docs for the mixture rule).
///
/// `explore` must lie in (0, 1]. A posterior with no observed affected
/// outcome anywhere — including a completely empty grid — yields the
/// uniform proposal with unit weights, so degenerate early phases can
/// never produce unbounded or zero-probability draws.
pub fn build_proposal(grid: &SiteGrid, explore: f64) -> Proposal {
    assert!(
        explore > 0.0 && explore <= 1.0,
        "explore floor must lie in (0, 1], got {explore}"
    );
    let cells = grid.cells();
    let p: Vec<f64> = (0..cells).map(|c| grid.population_mass(c)).collect();
    let tilted: Vec<f64> = (0..cells)
        .map(|c| {
            let rate = if grid.runs[c] > 0 {
                grid.affected[c] as f64 / grid.runs[c] as f64
            } else {
                0.0
            };
            p[c] * rate
        })
        .collect();
    let mass: f64 = tilted.iter().sum();
    let has_signal = mass.is_finite() && mass > 0.0;
    if !has_signal || explore >= 1.0 {
        return Proposal {
            q: p.clone(),
            weight: vec![1.0; cells],
            adapted: false,
        };
    }
    let q: Vec<f64> = (0..cells)
        .map(|c| explore * p[c] + (1.0 - explore) * tilted[c] / mass)
        .collect();
    let weight: Vec<f64> = (0..cells).map(|c| p[c] / q[c]).collect();
    Proposal {
        q,
        weight,
        adapted: true,
    }
}

/// Horvitz–Thompson outcome estimates with their Wilson stopping interval.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedEstimate {
    /// Samples behind the estimate.
    pub runs: usize,
    /// HT estimate of the Masked fraction.
    pub masked: f64,
    /// HT estimate of the SDC fraction.
    pub sdc: f64,
    /// HT estimate of the Crash fraction.
    pub crash: f64,
    /// HT estimate of the AVF (SDC + Crash).
    pub avf: f64,
    /// Kish effective sample size `(Σw)² / Σw²` — equals `runs` under
    /// uniform weights, shrinks as weights disperse.
    pub n_eff: f64,
    /// Confidence level of the interval below.
    pub confidence: f64,
    /// Wilson interval on the AVF at `confidence` over `n_eff` samples.
    pub avf_interval: (f64, f64),
}

impl WeightedEstimate {
    /// Half the AVF interval's width — the quantity the stopping rule
    /// compares against [`AdaptiveConfig::ci_target`].
    pub fn half_width(&self) -> f64 {
        (self.avf_interval.1 - self.avf_interval.0) / 2.0
    }
}

/// Computes the Horvitz–Thompson estimates over `(results, weights)` pairs
/// at the given confidence level.
///
/// The estimator of each outcome fraction is `(1/n) Σ wᵢ·[class(rᵢ)]`,
/// which is unbiased for the uniform-population fraction whenever the
/// weights are true likelihood ratios (as [`build_proposal`] guarantees).
/// Estimates are *not* self-normalized — dividing by `Σw` instead of `n`
/// would trade a little variance for bias, and this PR's whole test
/// harness exists to prove the unbiased property.
pub fn weighted_estimate(
    results: &[InjectionResult],
    weights: &[f64],
    confidence: f64,
) -> Result<WeightedEstimate, SamplingError> {
    z_value(confidence)?; // validate before any arithmetic
    assert_eq!(
        results.len(),
        weights.len(),
        "every result needs its importance weight"
    );
    if results.is_empty() {
        return Err(SamplingError::ZeroSamples);
    }
    let n = results.len() as f64;
    let (mut masked, mut sdc, mut crash) = (0.0f64, 0.0f64, 0.0f64);
    let (mut sum_w, mut sum_w2) = (0.0f64, 0.0f64);
    for (r, &w) in results.iter().zip(weights) {
        sum_w += w;
        sum_w2 += w * w;
        match outcome_class(r) {
            OutcomeClass::Masked => masked += w,
            OutcomeClass::Sdc => sdc += w,
            OutcomeClass::Crash => crash += w,
        }
    }
    let n_eff = if sum_w2 > 0.0 {
        sum_w * sum_w / sum_w2
    } else {
        0.0
    };
    let avf = (sdc + crash) / n;
    let avf_interval = wilson_interval(avf, n_eff.max(1.0), confidence)?;
    Ok(WeightedEstimate {
        runs: results.len(),
        masked: masked / n,
        sdc: sdc / n,
        crash: crash / n,
        avf,
        n_eff,
        confidence,
        avf_interval,
    })
}

/// The outcome of an adaptive campaign.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// The executed runs, in schedule order (batch by batch), wrapped in
    /// the standard campaign result shape.
    pub campaign: CampaignResult,
    /// Per-run Horvitz–Thompson weights, parallel to `campaign.results`.
    pub weights: Vec<f64>,
    /// Batches executed.
    pub batches: usize,
    /// The configured run budget (`base.faults`).
    pub budget: usize,
    /// Whether the CI target stopped the campaign before the budget ran
    /// out.
    pub stopped_early: bool,
    /// Final estimates over everything executed.
    pub estimate: WeightedEstimate,
    /// Final posterior state: a [`SiteGrid`] folded over exactly
    /// `campaign.results`.
    pub grid: SiteGrid,
}

impl AdaptiveReport {
    /// Runs actually executed.
    pub fn runs_used(&self) -> usize {
        self.campaign.results.len()
    }

    /// Budget left unspent by early stopping, as a percentage.
    pub fn runs_saved_pct(&self) -> f64 {
        if self.budget == 0 {
            return 0.0;
        }
        100.0 * (self.budget - self.runs_used()) as f64 / self.budget as f64
    }
}

/// Derives batch `k`'s RNG seed from the campaign seed (SplitMix64-style
/// mixing), so batches draw independent deterministic streams and inserting
/// a batch never shifts another batch's draws.
fn batch_seed(seed: u64, batch: usize) -> u64 {
    let mut x = seed ^ (batch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Draws a cell index from the proposal's cumulative distribution.
fn draw_cell(q: &[f64], rng: &mut Rng) -> usize {
    let x = rng.gen_f64();
    let mut cum = 0.0;
    for (i, &qi) in q.iter().enumerate() {
        cum += qi;
        if x < cum {
            return i;
        }
    }
    q.len() - 1
}

/// Draws one batch of faults. Warmup batches sample the whole site space
/// uniformly (weight 1); adaptive batches sample cells from the proposal
/// and sites uniformly within the cell (weight `p/q` of the cell).
fn draw_batch(
    grid: &SiteGrid,
    proposal: Option<&Proposal>,
    structure: avgi_muarch::fault::Structure,
    n: usize,
    rng: &mut Rng,
) -> (Vec<Fault>, Vec<f64>) {
    let mut faults = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    for _ in 0..n {
        match proposal {
            None => {
                faults.push(Fault {
                    site: FaultSite {
                        structure,
                        bit: rng.gen_range_u64(grid.bits),
                    },
                    cycle: rng.gen_range_u64(grid.cycles),
                });
                weights.push(1.0);
            }
            Some(p) => {
                let cell = draw_cell(&p.q, rng);
                let (b_lo, b_hi) = grid.bit_range(cell);
                let (c_lo, c_hi) = grid.cycle_range(cell);
                faults.push(Fault {
                    site: FaultSite {
                        structure,
                        bit: b_lo + rng.gen_range_u64(b_hi - b_lo),
                    },
                    cycle: c_lo + rng.gen_range_u64(c_hi - c_lo),
                });
                weights.push(p.weight[cell]);
            }
        }
    }
    (faults, weights)
}

/// Runs an adaptive campaign (see the module docs).
///
/// Fails with [`CampaignError::Sampling`] when the configuration is
/// statistically meaningless: a confidence level outside (0, 1), an
/// explore floor outside (0, 1], a non-positive CI target, or a zero
/// budget — before any run executes.
pub fn run_adaptive(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    acfg: &AdaptiveConfig,
) -> Result<AdaptiveReport, CampaignError> {
    z_value(acfg.confidence)?;
    if !(acfg.explore > 0.0 && acfg.explore <= 1.0) {
        return Err(SamplingError::InvalidExplore.into());
    }
    if let Some(t) = acfg.ci_target {
        if !(t.is_finite() && t > 0.0) {
            return Err(SamplingError::InvalidMargin.into());
        }
    }
    let budget = acfg.base.faults;
    if budget == 0 {
        return Err(SamplingError::ZeroSamples.into());
    }
    let bits = acfg.base.structure.bit_count(cfg);
    if golden.cycles == 0 {
        return Err(SamplingError::EmptyGoldenRun.into());
    }

    // No fault list up front: the schedule draws one per batch.
    let runner = ShardRunner::with_faults(workload, cfg, golden, &acfg.base, Vec::new());
    let mut grid = SiteGrid::new(bits, golden.cycles, acfg.bit_bins, acfg.cycle_bins);

    let batch_runs = acfg.batch_runs.max(1);
    let mut results: Vec<InjectionResult> = Vec::with_capacity(budget);
    let mut weights: Vec<f64> = Vec::with_capacity(budget);
    let mut batches = 0usize;
    let mut stopped_early = false;
    let mut estimate: Option<WeightedEstimate> = None;

    while results.len() < budget {
        let m = (budget - results.len()).min(batch_runs);
        let mut rng = Rng::seed_from_u64(batch_seed(acfg.base.seed, batches));
        // The proposal reads a posterior that holds completed batches only,
        // which is what makes the schedule thread-count-invariant.
        let proposal =
            (batches >= acfg.warmup_batches).then(|| build_proposal(&grid, acfg.explore));
        let (faults, batch_weights) =
            draw_batch(&grid, proposal.as_ref(), acfg.base.structure, m, &mut rng);

        let batch_results = runner.execute(&faults, None, None)?;
        for r in &batch_results {
            grid.record(r);
        }
        results.extend(batch_results);
        weights.extend(batch_weights);
        batches += 1;

        let est = weighted_estimate(&results, &weights, acfg.confidence)?;
        let target_met = acfg
            .ci_target
            .is_some_and(|t| batches > acfg.warmup_batches && est.half_width() <= t);
        estimate = Some(est);
        if target_met {
            stopped_early = results.len() < budget;
            break;
        }
    }

    Ok(AdaptiveReport {
        campaign: runner.result(results),
        weights,
        batches,
        budget,
        stopped_early,
        estimate: estimate.expect("budget > 0 executes at least one batch"),
        grid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(bits: u64, cycles: u64, runs: &[u64], affected: &[u64]) -> SiteGrid {
        let mut g = SiteGrid::new(bits, cycles, 2, 2);
        g.runs = runs.to_vec();
        g.affected = affected.to_vec();
        g
    }

    #[test]
    fn zero_affected_mass_falls_back_to_uniform() {
        // All-Masked posterior (and the completely unexplored grid): the
        // proposal is exactly the population distribution, all weights 1.
        for runs in [[0u64, 0, 0, 0], [10, 10, 10, 10]] {
            let g = grid(100, 40, &runs, &[0, 0, 0, 0]);
            let p = build_proposal(&g, 0.25);
            assert!(!p.adapted);
            assert!(p.weight.iter().all(|&w| w == 1.0));
            for (c, &q) in p.q.iter().enumerate() {
                assert!((q - g.population_mass(c)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn adapted_proposal_is_a_distribution_with_bounded_true_weights() {
        let g = grid(100, 40, &[10, 10, 10, 10], &[8, 0, 1, 0]);
        let explore = 0.25;
        let p = build_proposal(&g, explore);
        assert!(p.adapted);
        let total: f64 = p.q.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "q sums to {total}");
        for (c, (&q, &w)) in p.q.iter().zip(&p.weight).enumerate() {
            assert!(q > 0.0, "cell {c} starved");
            assert!(
                w <= 1.0 / explore + 1e-12,
                "cell {c} weight {w} exceeds 1/explore"
            );
            // w is the true likelihood ratio.
            assert!((w - g.population_mass(c) / q).abs() < 1e-12);
        }
        // The hottest cell gets more than its population share.
        assert!(p.q[0] > g.population_mass(0));
    }

    #[test]
    fn unit_explore_floor_disables_adaptation() {
        let g = grid(100, 40, &[10, 10, 10, 10], &[9, 0, 0, 0]);
        let p = build_proposal(&g, 1.0);
        assert!(!p.adapted, "explore = 1 must mean pure uniform sampling");
    }

    #[test]
    fn importance_weights_preserve_expectations_exactly() {
        // Σ_cell q(cell)·w(cell)·f(cell) == Σ_cell p(cell)·f(cell) for any
        // per-cell f — the algebraic identity unbiasedness rests on.
        let g = grid(1000, 400, &[50, 3, 20, 1], &[40, 0, 2, 1]);
        let p = build_proposal(&g, 0.3);
        let f = [0.9, 0.1, 0.4, 0.7]; // arbitrary per-cell outcome rates
        let under_q: f64 = (0..4).map(|c| p.q[c] * p.weight[c] * f[c]).sum();
        let under_p: f64 = (0..4).map(|c| g.population_mass(c) * f[c]).sum();
        assert!((under_q - under_p).abs() < 1e-12, "{under_q} vs {under_p}");
    }

    #[test]
    fn batch_seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..64).map(|k| batch_seed(42, k)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "batch seed collision");
        assert_eq!(batch_seed(42, 7), batch_seed(42, 7));
        assert_ne!(batch_seed(42, 7), batch_seed(43, 7));
    }

    #[test]
    fn draw_cell_respects_the_distribution() {
        let q = [0.7, 0.1, 0.1, 0.1];
        let mut rng = Rng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[draw_cell(&q, &mut rng)] += 1;
        }
        assert!(
            (2600..3000).contains(&counts[0]),
            "cell 0 drawn {} times of 4000",
            counts[0]
        );
        assert!(counts[1] > 0 && counts[2] > 0 && counts[3] > 0);
    }
}
