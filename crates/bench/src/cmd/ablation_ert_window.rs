//! Ablation: ERT window size vs. accuracy and cost.
//!
//! Insight 3 trades a stop window against manifestation coverage. For the
//! register file and the L1D data array, one unwindowed first-deviation
//! campaign per workload (insights 1&2 only, the reference) is folded
//! ([`CampaignResult::under`]) into each window of the fixed list
//! 200 … 30 000 cycles; per window the table reports the fraction of the
//! reference's manifestations still captured, and the campaign cost. This
//! quantifies *why* the default windows in
//! [`avgi_core::ert::default_ert_window`] sit where they do.

use crate::{golden, pct, print_header, Exp};
use avgi_core::classify::classify_injection;
use avgi_core::ImmClass;
use avgi_faultsim::{CampaignResult, RunMode};
use avgi_muarch::fault::Structure;
use std::process::ExitCode;

fn manifested(c: &CampaignResult) -> u64 {
    c.results
        .iter()
        .filter(|r| matches!(classify_injection(r), ImmClass::Manifested(_)))
        .count() as u64
}

pub fn run(a: crate::Args) -> ExitCode {
    let exp = Exp::parse(a, 250);
    let cfg = &exp.cfg;
    let workloads = avgi_workloads::all();
    println!(
        "Ablation — ERT window sweep ({}, {} faults x {} workloads)",
        cfg.name,
        exp.opts.faults,
        workloads.len()
    );

    for structure in [Structure::RegFile, Structure::L1DData] {
        let mode = RunMode::FirstDeviation { ert_window: None };
        let reference: Vec<CampaignResult> = (workloads.iter())
            .map(|w| exp.run(w, cfg, &golden(w, cfg), &exp.opts.campaign(structure, mode)))
            .collect();
        let reference_manifested: u64 = reference.iter().map(manifested).sum();

        println!(
            "\n--- {} (reference: {} manifestations) ---",
            structure.label(),
            reference_manifested
        );
        print_header(
            &["window", "captured", "coverage", "cost Mcyc"],
            &[10, 9, 9, 10],
        );
        for window in [200u64, 800, 2_000, 5_000, 12_000, 30_000] {
            let mode = RunMode::FirstDeviation {
                ert_window: Some(window),
            };
            let (mut captured, mut cost) = (0u64, 0u64);
            for c in reference.iter().map(|c| c.under(mode)) {
                captured += manifested(&c);
                cost += c.total_post_inject_cycles();
            }
            println!(
                "{window:>10} {captured:>9} {:>9} {:>10.1}",
                pct(captured as f64 / reference_manifested.max(1) as f64),
                cost as f64 / 1e6,
            );
        }
    }
    println!(
        "\nthe knee of coverage-vs-cost is where the default windows sit; the paper's \
         'pessimistic timeframes' (§V.A) correspond to the high-coverage end."
    );
    exp.finish();
    ExitCode::SUCCESS
}
