//! Fig. 12 — case study on a second ISA/microarchitecture (§VI).
//!
//! The paper validates transfer by repeating the accuracy experiment on a
//! Cortex-A15-like model; here, the `small` configuration. As in the
//! paper, three major structures are shown: L1I data, L1D data, and the
//! register file ("Real" vs. "Predict"). The figure is on that core
//! whichever core the other figures are on.

use crate::{pct, print_accuracy_tables, Matrix};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;

pub fn print(m: &Matrix) {
    let cfg = MuarchConfig::small();
    println!(
        "Fig. 12 — case study on the second microarchitecture ({}, {} faults/campaign)",
        cfg.name, m.opts.faults
    );
    let structures = [Structure::L1IData, Structure::L1DData, Structure::RegFile];
    let (worst, sdc_worst) = print_accuracy_tables(&structures, m, &cfg, "pred");
    let margin = avgi_faultsim::error_margin_at(m.opts.faults, 0.99).unwrap_or(1.0);
    println!(
        "\nworst per-class |real - predict| on the second microarchitecture: {} \
         (SDC only: {}); SFI error margin at n={}: {} \
         (paper: divergences mostly below the error margin; SDC virtually equal)",
        pct(worst),
        pct(sdc_worst),
        m.opts.faults,
        pct(margin),
    );
}
