//! Fig. 10 — accuracy of AVGI vs. the exhaustive ("Real") AVF analysis.
//!
//! For every structure and workload: ground-truth Masked/SDC/Crash from
//! exhaustive SFI next to the AVGI prediction made with leave-one-out
//! weights (the held-out workload never contributes to its own weights).
//! The paper's claim: the distributions are virtually identical, SDC
//! included.

use crate::{pct, print_accuracy_tables, Matrix};
use avgi_muarch::fault::Structure;

pub fn print(m: &Matrix) {
    println!(
        "Fig. 10 — Real vs. AVGI fault-effect distributions ({}, {} faults/campaign)",
        m.cfg.name, m.opts.faults
    );
    let (worst, sdc_worst) = print_accuracy_tables(Structure::all(), m, &m.cfg, "avgi");
    let margin = avgi_faultsim::error_margin_at(m.opts.faults, 0.99).unwrap_or(1.0);
    println!(
        "\nworst per-class |real - AVGI| across all structures/workloads: {} \
         (SDC only: {}); statistical error margin at n={}: {}",
        pct(worst),
        pct(sdc_worst),
        m.opts.faults,
        pct(margin),
    );
}
