//! Statistical-correctness harness for `faultsim::adaptive`.
//!
//! The adaptive driver is only worth having if three properties hold, and
//! each is proven empirically here rather than assumed:
//!
//! 1. **Unbiasedness** — the Horvitz–Thompson AVF/SDC estimates of a
//!    budget-capped adaptive campaign agree with a uniform campaign that
//!    spent 3× more runs (95 % Wilson intervals overlap, seed by seed, on
//!    three workloads), and the *mean* adaptive estimate over many seeds
//!    lands on a high-precision uniform ground truth.
//! 2. **Determinism** — the adaptive schedule (drawn faults, weights,
//!    estimates, posterior) is a pure function of the seed: invariant
//!    under thread count.
//! 3. **Degenerate-posterior safety** — all-Masked posteriors, budgets
//!    smaller than one batch, and unit explore floors degrade to exact
//!    uniform sampling with unit weights instead of diverging, and
//!    statistically meaningless configurations fail up front.
//!
//! Everything here is deterministic: the campaign engine is bit-exact for
//! a given seed, so the "statistical" assertions are reproducible checks
//! of fixed numbers, not flaky coin flips.

use avgi_faultsim::telemetry::MetricsCollector;
use avgi_faultsim::{
    golden_for, run_adaptive, run_campaign, weighted_estimate, wilson_interval, AdaptiveConfig,
    AdaptiveReport, CampaignConfig, CampaignError, RunMode, SamplingError, SiteGrid,
};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;
use avgi_muarch::trace::GoldenRun;
use avgi_workloads::Workload;
use std::sync::Arc;

/// Run-budget advantage the uniform baseline gets over the adaptive
/// campaign (the acceptance criterion's "≥3× fewer runs").
const BUDGET_RATIO: usize = 3;
/// Adaptive run budget for the head-to-head comparisons.
const ADAPTIVE_BUDGET: usize = 200;

fn setup(name: &str) -> (Workload, MuarchConfig, Arc<GoldenRun>) {
    let w = avgi_workloads::by_name(name).unwrap();
    let cfg = MuarchConfig::big();
    let golden = golden_for(&w, &cfg);
    (w, cfg, golden)
}

/// The adaptive configuration under test: 40-run batches (one uniform
/// warmup batch, then adaptation) with a 0.5 explore floor.
fn adaptive_cfg(structure: Structure, budget: usize, seed: u64) -> AdaptiveConfig {
    AdaptiveConfig::new(CampaignConfig::new(structure, budget, RunMode::EndToEnd).with_seed(seed))
        .with_batch_runs(40)
        .with_explore(0.5)
}

/// A point estimate with its Wilson confidence interval.
type PointEstimate = (f64, (f64, f64));

/// Uniform-campaign (AVF, SDC) point estimates with 95 % Wilson intervals.
fn uniform_estimates(
    w: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    structure: Structure,
    runs: usize,
    seed: u64,
) -> (PointEstimate, PointEstimate) {
    let ccfg = CampaignConfig::new(structure, runs, RunMode::EndToEnd).with_seed(seed);
    let result = run_campaign(w, cfg, golden, &ccfg);
    let weights = vec![1.0; result.results.len()];
    let est = weighted_estimate(&result.results, &weights, 0.95).unwrap();
    (
        (
            est.avf,
            wilson_interval(est.avf, runs as f64, 0.95).unwrap(),
        ),
        (
            est.sdc,
            wilson_interval(est.sdc, runs as f64, 0.95).unwrap(),
        ),
    )
}

fn overlaps(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.1 && b.0 <= a.1
}

/// The acceptance-criterion head-to-head: on three workloads, a 200-run
/// adaptive campaign must agree with a 600-run uniform campaign — the 95 %
/// AVF *and* SDC intervals overlap for every seed, at least one seed's AVF
/// point estimate falls inside the uniform interval outright, and the mean
/// over seeds stays within the (slightly widened) uniform interval.
#[test]
fn adaptive_matches_uniform_with_a_third_of_the_runs() {
    for name in ["bitcount", "crc32", "sha"] {
        let (w, cfg, golden) = setup(name);
        let uniform_runs = BUDGET_RATIO * ADAPTIVE_BUDGET;
        let ((u_avf, u_avf_ci), (u_sdc, u_sdc_ci)) =
            uniform_estimates(&w, &cfg, &golden, Structure::RegFile, uniform_runs, 1);

        let mut inside = 0usize;
        let mut avf_sum = 0.0;
        for seed in [1u64, 2, 3] {
            let rep = run_adaptive(
                &w,
                &cfg,
                &golden,
                &adaptive_cfg(Structure::RegFile, ADAPTIVE_BUDGET, seed),
            )
            .unwrap();
            assert_eq!(
                rep.runs_used() * BUDGET_RATIO,
                uniform_runs,
                "the comparison must honour the 3x budget gap"
            );
            let est = &rep.estimate;
            assert!(
                overlaps(est.avf_interval, u_avf_ci),
                "{name} seed {seed}: adaptive AVF {:.3} {:?} disagrees with \
                 uniform {u_avf:.3} {u_avf_ci:?}",
                est.avf,
                est.avf_interval,
            );
            let sdc_ci = wilson_interval(est.sdc, est.n_eff.max(1.0), 0.95).unwrap();
            assert!(
                overlaps(sdc_ci, u_sdc_ci),
                "{name} seed {seed}: adaptive SDC {:.3} {sdc_ci:?} disagrees \
                 with uniform {u_sdc:.3} {u_sdc_ci:?}",
                est.sdc,
            );
            // The reweighting must actually disperse the weights (the
            // campaign adapted) yet keep a usable effective sample size.
            assert!(est.n_eff < rep.runs_used() as f64);
            assert!(est.n_eff > rep.runs_used() as f64 / 4.0);
            if est.avf >= u_avf_ci.0 && est.avf <= u_avf_ci.1 {
                inside += 1;
            }
            avf_sum += est.avf;
        }
        assert!(
            inside >= 1,
            "{name}: no adaptive seed landed inside the uniform AVF interval"
        );
        let mean = avf_sum / 3.0;
        assert!(
            mean >= u_avf_ci.0 - 0.01 && mean <= u_avf_ci.1 + 0.01,
            "{name}: mean adaptive AVF {mean:.4} strays from uniform interval {u_avf_ci:?}"
        );
    }
}

/// The sharper unbiasedness claim: averaged over ten seeds, the adaptive
/// estimator reproduces a 2000-run uniform ground truth to about a run's
/// worth of resolution. A reweighting bug (wrong likelihood ratio, wrong
/// fallback, weight applied to the wrong draw) moves this mean by far more
/// than the tolerance.
#[test]
fn estimator_is_unbiased_in_expectation() {
    let (w, cfg, golden) = setup("bitcount");
    let ((truth, _), _) = uniform_estimates(&w, &cfg, &golden, Structure::RegFile, 2000, 99);
    let mut sum = 0.0;
    for seed in 0..10u64 {
        let rep = run_adaptive(
            &w,
            &cfg,
            &golden,
            &adaptive_cfg(Structure::RegFile, ADAPTIVE_BUDGET, seed),
        )
        .unwrap();
        sum += rep.estimate.avf;
    }
    let mean = sum / 10.0;
    assert!(
        (mean - truth).abs() <= 0.012,
        "mean adaptive AVF {mean:.4} vs uniform ground truth {truth:.4}"
    );
}

fn assert_reports_identical(a: &AdaptiveReport, b: &AdaptiveReport, what: &str) {
    assert_eq!(a.campaign.results, b.campaign.results, "{what}: results");
    assert_eq!(a.weights, b.weights, "{what}: weights");
    assert_eq!(a.batches, b.batches, "{what}: batches");
    assert_eq!(a.stopped_early, b.stopped_early, "{what}: stop point");
    assert_eq!(a.estimate, b.estimate, "{what}: estimate");
    assert_eq!(a.grid, b.grid, "{what}: posterior grid");
    assert_eq!(a.grid.to_json(), b.grid.to_json(), "{what}: posterior JSON");
}

/// The proposal for batch `k` reads the posterior only at the batch
/// boundary, and the posterior tallies are additive — so the entire
/// adaptive schedule must be byte-identical across worker counts.
#[test]
fn adaptive_schedule_is_thread_count_invariant() {
    let (w, cfg, golden) = setup("crc32");
    let mut reports = Vec::new();
    for threads in [1usize, 4] {
        let mut acfg = adaptive_cfg(Structure::RegFile, 120, 7);
        acfg.base.threads = threads;
        reports.push(run_adaptive(&w, &cfg, &golden, &acfg).unwrap());
    }
    assert_reports_identical(&reports[0], &reports[1], "1 vs 4 threads");
}

/// The posterior is a function of results and nothing else: however the
/// results came to be — one worker or four — the reported grid is a fresh
/// `SiteGrid` folded over exactly the reported results, and the drawn fault
/// list is the same.
#[test]
fn posterior_is_a_fold_over_results() {
    let (w, cfg, golden) = setup("crc32");
    let acfg = |threads: usize| {
        let mut acfg = adaptive_cfg(Structure::RegFile, 120, 33);
        acfg.base.threads = threads;
        acfg
    };
    let reports = [
        run_adaptive(&w, &cfg, &golden, &acfg(1)).unwrap(),
        run_adaptive(&w, &cfg, &golden, &acfg(4)).unwrap(),
    ];
    let drawn = |r: &AdaptiveReport| {
        r.campaign
            .results
            .iter()
            .map(|x| x.fault)
            .collect::<Vec<_>>()
    };
    for (report, what) in reports.iter().zip(["1 thread", "4 threads"]) {
        let g = &report.grid;
        let mut fold = SiteGrid::new(g.bits, g.cycles, g.bit_bins, g.cycle_bins);
        for r in &report.campaign.results {
            fold.record(r);
        }
        assert_eq!(*g, fold, "{what}: posterior is not the fold of its results");
        assert_eq!(g.total_runs(), 120, "{what}");
        assert_eq!(drawn(report), drawn(&reports[0]), "{what}: drawn faults");
    }
}

/// Degenerate posteriors must degrade to plain uniform sampling, never to
/// unbounded weights or starved cells:
/// * a structure whose faults all mask (L2 data on bitcount) keeps the
///   proposal uniform for the whole campaign — every weight stays 1;
/// * a budget smaller than one batch never leaves warmup;
/// * a unit explore floor disables adaptation even with a hot posterior.
#[test]
fn degenerate_posteriors_fall_back_to_uniform() {
    let (w, cfg, golden) = setup("bitcount");

    let all_masked =
        run_adaptive(&w, &cfg, &golden, &adaptive_cfg(Structure::L2Data, 120, 5)).unwrap();
    assert_eq!(all_masked.grid.total_affected(), 0, "premise: all Masked");
    assert!(all_masked.weights.iter().all(|&x| x == 1.0));
    assert_eq!(all_masked.estimate.n_eff, 120.0);
    assert_eq!(all_masked.estimate.avf, 0.0);
    assert_eq!(all_masked.batches, 3);

    let tiny = run_adaptive(&w, &cfg, &golden, &adaptive_cfg(Structure::RegFile, 10, 5)).unwrap();
    assert_eq!(tiny.runs_used(), 10);
    assert_eq!(tiny.batches, 1);
    assert!(tiny.weights.iter().all(|&x| x == 1.0), "warmup is uniform");

    let no_tilt = run_adaptive(
        &w,
        &cfg,
        &golden,
        &adaptive_cfg(Structure::RegFile, 120, 5).with_explore(1.0),
    )
    .unwrap();
    assert!(
        no_tilt.grid.total_affected() > 0,
        "premise: posterior is hot"
    );
    assert!(no_tilt.weights.iter().all(|&x| x == 1.0));
    assert_eq!(no_tilt.estimate.n_eff, 120.0);
}

/// CI-driven early stopping: the campaign stops at the first batch
/// boundary past warmup whose Wilson half-width meets the target, leaving
/// the rest of the budget unspent and reporting the saving. The stopped
/// campaign is the same on 1 and 4 threads, and its AVF interval still
/// overlaps the uniform one of three times its budget. Two budgets and
/// targets on crc32: 600 runs at 0.05, and 160 at 0.06 (stops at 120).
#[test]
fn early_stopping_respects_the_ci_target() {
    let (w, cfg, golden) = setup("crc32");
    for (budget, target) in [(600, 0.05), (160, 0.06)] {
        let what = format!("budget {budget}, target {target}");
        let run = |threads| {
            let mut acfg = adaptive_cfg(Structure::RegFile, budget, 1).with_ci_target(target);
            acfg.base.threads = threads;
            run_adaptive(&w, &cfg, &golden, &acfg).unwrap()
        };
        let rep = run(1);
        assert_reports_identical(&rep, &run(4), &what);
        assert!(rep.stopped_early, "{what}");
        assert!(
            rep.runs_used() < budget,
            "{what}: budget must not be exhausted"
        );
        assert!(
            rep.runs_used() > 40,
            "{what}: stopping before warmup ends is bogus"
        );
        assert!(rep.estimate.half_width() <= target, "{what}");
        assert!(rep.runs_saved_pct() > 0.0, "{what}");
        let expected = 100.0 * (budget - rep.runs_used()) as f64 / budget as f64;
        assert!((rep.runs_saved_pct() - expected).abs() < 1e-12, "{what}");
        // The stop is a batch boundary, not an arbitrary run index.
        assert_eq!(rep.runs_used() % 40, 0, "{what}");
        let uniform_runs = BUDGET_RATIO * budget;
        let ((u_avf, u_avf_ci), _) =
            uniform_estimates(&w, &cfg, &golden, Structure::RegFile, uniform_runs, 1);
        assert!(
            overlaps(rep.estimate.avf_interval, u_avf_ci),
            "{what}: adaptive AVF {:.3} {:?} disagrees with uniform {u_avf:.3} {u_avf_ci:?}",
            rep.estimate.avf,
            rep.estimate.avf_interval,
        );
    }
}

/// Statistically meaningless configurations fail before any run executes,
/// with the distinct error satellite 1 introduced — not a clamp, not a
/// panic deep in the estimator.
#[test]
fn invalid_statistical_configs_error_before_any_run() {
    let (w, cfg, golden) = setup("bitcount");
    let base = |budget| adaptive_cfg(Structure::RegFile, budget, 1);

    for bad in [0.0, 1.0, 1.5, -0.3, f64::NAN] {
        match run_adaptive(&w, &cfg, &golden, &base(40).with_confidence(bad)) {
            Err(CampaignError::Sampling(SamplingError::InvalidConfidence)) => {}
            other => panic!("confidence {bad} must be rejected, got {other:?}"),
        }
    }
    for bad in [0.0, -0.5, f64::NAN, f64::INFINITY] {
        match run_adaptive(&w, &cfg, &golden, &base(40).with_ci_target(bad)) {
            Err(CampaignError::Sampling(SamplingError::InvalidMargin)) => {}
            other => panic!("ci target {bad} must be rejected, got {other:?}"),
        }
    }
    match run_adaptive(&w, &cfg, &golden, &base(0)) {
        Err(CampaignError::Sampling(SamplingError::ZeroSamples)) => {}
        other => panic!("zero budget must be rejected, got {other:?}"),
    }
    // Two batches, so a bad floor would first be read after the uniform
    // warmup batch had been simulated.
    for bad in [0.0, -1.0, 1.5, f64::NAN] {
        let metrics = Arc::new(MetricsCollector::new());
        let mut acfg = base(80).with_explore(bad);
        acfg.base = acfg.base.with_observer(metrics.clone());
        match run_adaptive(&w, &cfg, &golden, &acfg) {
            Err(CampaignError::Sampling(SamplingError::InvalidExplore)) => {}
            other => panic!("explore {bad} must be rejected, got {other:?}"),
        }
        assert_eq!(
            metrics.snapshot().completed,
            0,
            "explore {bad}: runs executed"
        );
    }
}
