//! Fig. 4 — final fault-effect probabilities per IMM for the L1
//! instruction cache, across workloads.
//!
//! The paper's insight 2: P(Masked/SDC/Crash | IMM) is approximately
//! workload-invariant — the standard deviation across workloads stays
//! within a few percent. Print the three probability panels and the
//! per-IMM standard deviations.

use crate::{analysis_grid, pct, print_header, Exp};
use avgi_core::imm::{FaultEffect, Imm, NUM_IMMS};
use avgi_muarch::fault::Structure;
use std::process::ExitCode;

pub fn run(a: crate::Args) -> ExitCode {
    let exp = Exp::parse(a, 400);
    println!(
        "Fig. 4 — P(final effect | IMM) for L1I data across workloads ({}, {} faults/cell)",
        exp.cfg.name, exp.opts.faults
    );
    let analyses = analysis_grid(&[Structure::L1IData], &exp);

    for effect in FaultEffect::all() {
        println!("\n--- P({effect} | IMM) ---");
        let mut cols = vec!["workload"];
        cols.extend(Imm::all().iter().map(|i| i.label()));
        print_header(&cols, &[14; NUM_IMMS + 1]);
        // Per-IMM collection for std-dev.
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); NUM_IMMS];
        for a in &analyses {
            let mut row = format!("{:>14}", a.workload);
            for imm in Imm::all() {
                match a.effect_given_imm(*imm) {
                    Some(d) => {
                        let p = d[effect.index()];
                        samples[imm.index()].push(p);
                        row.push_str(&format!(" {:>13}", pct(p)));
                    }
                    None => row.push_str(&format!(" {:>13}", "-")),
                }
            }
            println!("{row}");
        }
        let mut row = format!("{:>14}", "std-dev");
        for s in &samples {
            if s.len() > 1 {
                let mean = s.iter().sum::<f64>() / s.len() as f64;
                let sd =
                    (s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / s.len() as f64).sqrt();
                row.push_str(&format!(" {:>13}", pct(sd)));
            } else {
                row.push_str(&format!(" {:>13}", "-"));
            }
        }
        println!("{row}");
    }
    println!("\npaper comparison: per-IMM std-dev across workloads in the 0.1%-2.4% band.");
    exp.finish();
    ExitCode::SUCCESS
}
