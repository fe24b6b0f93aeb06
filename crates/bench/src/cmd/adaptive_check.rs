//! CI smoke prover for the adaptive importance-sampled campaign driver.
//!
//! Two legs per workload, exiting non-zero on the first violation:
//!
//! 1. **Agreement** — a uniform campaign of `--faults` runs and an
//!    adaptive campaign budgeted at a third of that must produce AVF
//!    estimates whose 95 % Wilson intervals overlap. A reweighting bug
//!    (wrong likelihood ratio, weight on the wrong draw, broken fallback)
//!    separates the intervals immediately.
//! 2. **Determinism** — the same adaptive campaign on 1 and 4 worker
//!    threads must produce bit-identical results, weights, estimates and
//!    posterior grids: the schedule may adapt, but only on batch
//!    boundaries, so thread count must be invisible — and the posterior
//!    must equal a fresh grid folded over the reported results.
//!
//! The exhaustive statistical harness lives in
//! `faultsim/tests/adaptive_stats.rs`; this command is the seconds-cheap
//! gate that keeps every push honest (the `xtier_check` idiom).

use crate::args::{preset, workload_list, FromArg};
use crate::golden;
use avgi_faultsim::{
    run_adaptive, run_campaign, weighted_estimate, wilson_interval, AdaptiveConfig, AdaptiveReport,
    CampaignConfig, RunMode, SiteGrid,
};
use avgi_muarch::fault::Structure;
use std::process::ExitCode;

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

pub fn run(mut a: crate::Args) -> ExitCode {
    let workloads = a
        .value_with("--workloads A,B", workload_list)
        .unwrap_or_else(|| workload_list("crc32").expect("registered"));
    let at_least_30 = |s: &str| usize::from_arg(s).filter(|&n| n >= 30);
    let faults = a.value_with("--faults N>=30", at_least_30).unwrap_or(480);
    let positive = |s: &str| f64::from_arg(s).filter(|&h| h > 0.0);
    let ci_target = a.value_with("--ci-target H", positive);
    let seed = a.value("--seed S").unwrap_or(1u64);
    let cfg = preset(a.flag("--small")).config();
    a.finish();

    for w in &workloads {
        let name = w.name;
        let golden = golden(w, &cfg);

        // Uniform baseline at the full fault count.
        let ucfg =
            CampaignConfig::new(Structure::RegFile, faults, RunMode::EndToEnd).with_seed(seed);
        let uniform = run_campaign(w, &cfg, &golden, &ucfg);
        let uw = vec![1.0; uniform.results.len()];
        let uest = weighted_estimate(&uniform.results, &uw, 0.95).expect("uniform estimate");
        let uci = wilson_interval(uest.avf, faults as f64, 0.95).expect("uniform interval");

        // Adaptive campaign at a third of the budget, 1 vs 4 threads.
        let budget = faults / 3;
        let adaptive = |threads: usize| -> AdaptiveReport {
            let base = CampaignConfig {
                threads,
                ..CampaignConfig::new(Structure::RegFile, budget, RunMode::EndToEnd)
            }
            .with_seed(seed);
            let mut acfg = AdaptiveConfig::new(base)
                .with_batch_runs(40)
                .with_explore(0.5);
            acfg.ci_target = ci_target;
            run_adaptive(w, &cfg, &golden, &acfg)
                .unwrap_or_else(|e| fail(&format!("{name}: adaptive campaign failed: {e}")))
        };
        let a1 = adaptive(1);
        let a4 = adaptive(4);

        if a1.campaign.results != a4.campaign.results
            || a1.weights != a4.weights
            || a1.estimate != a4.estimate
            || a1.grid.to_json() != a4.grid.to_json()
            || a1.batches != a4.batches
        {
            fail(&format!(
                "{name}: adaptive schedule differs between 1 and 4 threads"
            ));
        }

        // The posterior is a function of results: refolding them rebuilds it.
        let g = &a1.grid;
        let mut fold = SiteGrid::new(g.bits, g.cycles, g.bit_bins, g.cycle_bins);
        a1.campaign.results.iter().for_each(|r| fold.record(r));
        if fold != *g {
            fail(&format!(
                "{name}: the posterior is not the fold of the campaign's results"
            ));
        }

        let est = &a1.estimate;
        let (alo, ahi) = est.avf_interval;
        if ahi < uci.0 || uci.1 < alo {
            fail(&format!(
                "{name}: adaptive AVF {:.4} [{alo:.4}, {ahi:.4}] ({} runs) disagrees with \
                 uniform AVF {:.4} [{:.4}, {:.4}] ({faults} runs)",
                est.avf, est.runs, uest.avf, uci.0, uci.1
            ));
        }
        if let Some(target) = ci_target {
            if a1.stopped_early && est.half_width() > target {
                fail(&format!(
                    "{name}: stopped early at half-width {:.4} above target {target}",
                    est.half_width()
                ));
            }
        }
        println!(
            "adaptive: {name}: avf {:.4} [{alo:.4}, {ahi:.4}] from {} of {budget} budgeted runs \
             (n_eff {:.0}, saved {:.0}%) vs uniform {:.4} [{:.4}, {:.4}] from {faults} runs; \
             1- and 4-thread schedules bit-identical",
            est.avf,
            est.runs,
            est.n_eff,
            a1.runs_saved_pct(),
            uest.avf,
            uci.0,
            uci.1
        );
    }
    println!(
        "adaptive: all {} workloads agree with their uniform baselines",
        workloads.len()
    );
    ExitCode::SUCCESS
}
