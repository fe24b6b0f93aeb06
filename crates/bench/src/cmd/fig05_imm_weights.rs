//! Fig. 5 — the IMM weighting factors: mean P(Masked/SDC/Crash | IMM) per
//! hardware structure across all workloads.
//!
//! These are the phase-4 weights of the methodology. One panel per
//! structure; rows of IMMs never observed for a structure print as `-`
//! (e.g. IRP on the register file — the paper's "practically cannot
//! happen" entries).

use crate::{analysis_grid, pct, print_header, ExpArgs};
use avgi_core::imm::{FaultEffect, Imm};
use avgi_core::weights::learn_weights;
use avgi_muarch::fault::Structure;
use std::process::ExitCode;

pub fn run(a: crate::Args) -> ExitCode {
    let args = ExpArgs::parse(a, 300);
    let cfg = args.config();
    println!(
        "Fig. 5 — IMM weights per structure ({}, {} faults/cell)",
        cfg.name, args.faults
    );
    let telemetry = crate::ExpTelemetry::from_args(&args);
    for &s in Structure::all() {
        let analyses = analysis_grid(&[s], &args, &telemetry);
        let table = learn_weights(&analyses, None);
        println!("\n--- {} ---", s.label());
        print_header(
            &["IMM", "Masked", "SDC", "Crash", "support"],
            &[8, 10, 10, 10, 9],
        );
        for imm in Imm::all() {
            if table.observed(*imm) {
                println!(
                    "{:>8} {:>10} {:>10} {:>10} {:>9}",
                    imm.label(),
                    pct(table.weight(*imm, FaultEffect::Masked)),
                    pct(table.weight(*imm, FaultEffect::Sdc)),
                    pct(table.weight(*imm, FaultEffect::Crash)),
                    table.support[imm.index()],
                );
            } else {
                println!(
                    "{:>8} {:>10} {:>10} {:>10} {:>9}",
                    imm.label(),
                    "-",
                    "-",
                    "-",
                    0
                );
            }
        }
    }
    println!(
        "\npaper comparison: weights are structure-specific; unobserved IMMs (e.g. IRP/UNO/OFS \
         on the register file) match the paper's zero-probability entries."
    );
    telemetry.finish();
    ExitCode::SUCCESS
}
