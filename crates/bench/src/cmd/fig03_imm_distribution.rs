//! Fig. 3 — IMM breakdown per hardware structure across workloads.
//!
//! The paper's insight 1: for a given structure, the IMM distribution over
//! corruptions is approximately *workload-invariant*. Print the
//! per-workload breakdown plus the AVG column for the paper's four panels
//! (L1I data, L1D data, RF, ROB/LQ/SQ) and report the cross-workload
//! spread.

use crate::{pct, print_header, Matrix};
use avgi_core::imm::{Imm, NUM_IMMS};
use avgi_muarch::fault::Structure;

fn panel(m: &Matrix, structure: Structure) {
    println!("\n--- {} ---", structure.label());
    let mut cols = vec!["workload", "corrupt"];
    cols.extend(Imm::all().iter().map(|i| i.label()));
    print_header(&cols, &[14; NUM_IMMS + 2]);
    let group = m.analyses(structure);
    let mut avg = [0.0f64; NUM_IMMS];
    let mut per_workload: Vec<[f64; NUM_IMMS]> = Vec::new();
    for a in &group {
        // Trace-visible distribution: the paper's panels exclude ESC.
        let d = a.visible_imm_distribution();
        per_workload.push(d);
        let mut row = format!("{:>14} {:>14}", a.workload, a.corruption_count());
        for v in d {
            row.push_str(&format!(" {:>13}", pct(v)));
        }
        println!("{row}");
        for k in 0..NUM_IMMS {
            avg[k] += d[k] / group.len() as f64;
        }
    }
    let mut row = format!("{:>14} {:>14}", "AVG", "");
    for v in avg {
        row.push_str(&format!(" {:>13}", pct(v)));
    }
    println!("{row}");
    // Cross-workload spread per IMM (only workloads with corruptions).
    let active: Vec<&[f64; NUM_IMMS]> = per_workload
        .iter()
        .filter(|d| d.iter().sum::<f64>() > 0.0)
        .collect();
    if active.len() > 1 {
        let worst = (0..NUM_IMMS)
            .map(|k| {
                let mean = active.iter().map(|d| d[k]).sum::<f64>() / active.len() as f64;
                let var =
                    active.iter().map(|d| (d[k] - mean).powi(2)).sum::<f64>() / active.len() as f64;
                var.sqrt()
            })
            .fold(0.0, f64::max);
        println!("max per-IMM std-dev across workloads: {}", pct(worst));
    }
}

pub fn print(m: &Matrix) {
    println!(
        "Fig. 3 — IMM distribution per structure across workloads ({}, {} faults/cell)",
        m.cfg.name, m.opts.faults
    );
    let structures = [
        Structure::L1IData,
        Structure::L1DData,
        Structure::RegFile,
        Structure::Rob,
        Structure::Lq,
        Structure::Sq,
    ];
    for s in structures {
        panel(m, s);
    }
    println!(
        "\npaper comparison: distributions are structure-specific and roughly uniform \
         across workloads; ROB/LQ/SQ manifest only as PRE."
    );
}
