//! Fig. 12 — case study on a second ISA/microarchitecture (§VI).
//!
//! The paper validates transfer by repeating the accuracy experiment on a
//! Cortex-A15-like model; here, the `small` configuration. As in the
//! paper, three major structures are shown: L1I data, L1D data, and the
//! register file ("Real" vs. "Predict").

use crate::{pct, print_accuracy_tables, Exp};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;
use std::process::ExitCode;

pub fn run(mut a: crate::Args) -> ExitCode {
    // The case-study microarchitecture is the subject, so `--small` is not a flag here.
    let exp = Exp::claim(&mut a, 250, Some(MuarchConfig::small()));
    a.finish();
    println!(
        "Fig. 12 — case study on the second microarchitecture ({}, {} faults/campaign)",
        exp.cfg.name, exp.opts.faults
    );
    let structures = [Structure::L1IData, Structure::L1DData, Structure::RegFile];
    let (worst, sdc_worst) = print_accuracy_tables(&structures, &exp, "pred");
    let margin =
        avgi_faultsim::error_margin(exp.opts.faults, avgi_faultsim::Confidence::C99).unwrap_or(1.0);
    println!(
        "\nworst per-class |real - predict| on the second microarchitecture: {} \
         (SDC only: {}); SFI error margin at n={}: {} \
         (paper: divergences mostly below the error margin; SDC virtually equal)",
        pct(worst),
        pct(sdc_worst),
        exp.opts.faults,
        pct(margin),
    );
    exp.finish();
    ExitCode::SUCCESS
}
