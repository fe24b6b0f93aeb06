//! Fig. 10 — accuracy of AVGI vs. the exhaustive ("Real") AVF analysis.
//!
//! For every structure and workload: ground-truth Masked/SDC/Crash from
//! exhaustive SFI next to the AVGI prediction made with leave-one-out
//! weights (the held-out workload never contributes to its own weights).
//! The paper's claim: the distributions are virtually identical, SDC
//! included.

use crate::{pct, print_accuracy_tables, Exp};
use avgi_muarch::fault::Structure;
use std::process::ExitCode;

pub fn run(a: crate::Args) -> ExitCode {
    let exp = Exp::parse(a, 250);
    println!(
        "Fig. 10 — Real vs. AVGI fault-effect distributions ({}, {} faults/campaign)",
        exp.cfg.name, exp.opts.faults
    );
    let (worst, sdc_worst) = print_accuracy_tables(Structure::all(), &exp, "avgi");
    let margin =
        avgi_faultsim::error_margin(exp.opts.faults, avgi_faultsim::Confidence::C99).unwrap_or(1.0);
    println!(
        "\nworst per-class |real - AVGI| across all structures/workloads: {} \
         (SDC only: {}); statistical error margin at n={}: {}",
        pct(worst),
        pct(sdc_worst),
        exp.opts.faults,
        pct(margin),
    );
    exp.finish();
    ExitCode::SUCCESS
}
