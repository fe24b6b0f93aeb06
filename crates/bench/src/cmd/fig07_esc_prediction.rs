//! Fig. 7 — accuracy of predicted ESC faults.
//!
//! For the ESC-eligible arrays (L1D tag/data, L2 tag/data), compare the
//! *real* ESC count (no-deviation runs whose output differs, measured by
//! instrumented campaigns) against the §IV.D equation's prediction from
//! output size and Benign count alone. In the paper's scatter plots each
//! workload is one dot; here each row is one dot, with the ideal
//! `predicted == real` diagonal expressed as the error column.

use crate::{print_header, Matrix};
use avgi_core::esc::EscModel;
use avgi_core::imm::Imm;
use avgi_muarch::fault::Structure;

pub fn print(m: &Matrix) {
    let workloads = avgi_workloads::all();
    let model = EscModel::default();
    println!(
        "Fig. 7 — predicted vs. real ESC fault counts ({}, {} faults/cell, scale {})",
        m.cfg.name, m.opts.faults, model.scale
    );

    let structures = [
        Structure::L1DTag,
        Structure::L1DData,
        Structure::L2Tag,
        Structure::L2Data,
    ];
    let mut total_abs_err = 0.0;
    let mut rows = 0u32;
    for &s in &structures {
        println!("\n--- {} ---", s.label());
        print_header(
            &[
                "workload", "out KB", "benign", "real ESC", "pred ESC", "err",
            ],
            &[14, 8, 8, 9, 9, 7],
        );
        for (a, w) in m.analyses(s).iter().zip(&workloads) {
            let real = a.imm_count(Imm::Esc);
            let pred = model.esc_count(w.output_bytes(), a.total, a.benign_count());
            let err = pred - real as f64;
            total_abs_err += err.abs();
            rows += 1;
            println!(
                "{:>14} {:>8.1} {:>8} {:>9} {:>9.1} {:>+7.1}",
                a.workload,
                f64::from(w.output_bytes()) / 1024.0,
                a.benign_count(),
                real,
                pred,
                err
            );
        }
    }
    println!(
        "\nmean |predicted - real| = {:.2} faults per (structure, workload); \
         paper reports small divergences around the diagonal that do not move the final AVF.",
        total_abs_err / f64::from(rows.max(1))
    );
}
