//! Fig. 1 — ACE analysis vs. SFI AVF for the physical register file.
//!
//! The paper's motivation figure: ACE analysis is fast (one run) but
//! reports AVFs consistently 1.2–3× above the SFI ground truth because it
//! cannot see logical masking. Reproduce the per-workload comparison and
//! the overestimation ratios.

use crate::{golden, pct, print_header, Matrix};
use avgi_core::ace::ace_regfile;
use avgi_core::pipeline::ExhaustiveAssessment;
use avgi_faultsim::RunMode;
use avgi_muarch::fault::Structure;

pub fn print(m: &Matrix) {
    let cfg = &m.cfg;
    println!(
        "Fig. 1 — register-file AVF: SFI vs. ACE analysis ({})",
        cfg.name
    );
    print_header(
        &["workload", "SFI AVF", "ACE AVF", "ratio"],
        &[14, 10, 10, 8],
    );

    let mut ratios = Vec::new();
    for w in avgi_workloads::all() {
        let golden = golden(&w, cfg);
        let truth = m.cell(&w, cfg, Structure::RegFile, RunMode::Instrumented);
        let sfi = ExhaustiveAssessment::from_campaign(&truth.result)
            .effect
            .avf();
        let ace = ace_regfile(&golden, cfg).avf();
        let ratio = if sfi > 0.0 { ace / sfi } else { f64::INFINITY };
        ratios.push(ratio);
        println!(
            "{:>14} {:>10} {:>10} {:>7.2}x",
            w.name,
            pct(sfi),
            pct(ace),
            ratio
        );
    }
    let finite: Vec<f64> = ratios.iter().copied().filter(|r| r.is_finite()).collect();
    let mean = finite.iter().sum::<f64>() / finite.len().max(1) as f64;
    println!(
        "\nACE/SFI overestimation: mean {:.2}x, min {:.2}x, max {:.2}x (paper: 1.2x-3x)",
        mean,
        finite.iter().copied().fold(f64::INFINITY, f64::min),
        finite.iter().copied().fold(0.0, f64::max),
    );
}
