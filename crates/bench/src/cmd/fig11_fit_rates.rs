//! Fig. 11 — Failures-in-Time rates per structure and for the whole chip,
//! exhaustive ("Real") vs. AVGI.
//!
//! FIT = 9.39e-6 FIT/bit × structure bits × AVF, consolidated over all
//! workloads (mean AVF). The paper's accuracy claim: ≤1.45 % per
//! structure, 0.2 % for the whole chip.

use crate::{print_header, Matrix};
use avgi_core::fit::{structure_fit, RAW_FIT_PER_BIT};
use avgi_muarch::fault::Structure;

pub fn print(m: &Matrix) {
    let cfg = &m.cfg;
    println!(
        "Fig. 11 — FIT rates per structure and whole chip ({}, {} faults/campaign, raw {} FIT/bit)",
        cfg.name, m.opts.faults, RAW_FIT_PER_BIT
    );
    print_header(
        &[
            "structure",
            "bits",
            "real AVF",
            "avgi AVF",
            "real FIT",
            "avgi FIT",
            "diff%",
        ],
        &[11, 10, 9, 9, 10, 10, 7],
    );

    let mut chip_real = 0.0;
    let mut chip_avgi = 0.0;
    let mut worst = 0.0f64;
    for &s in Structure::all() {
        let rows = m.study(s, cfg).rows;
        let n = rows.len() as f64;
        let real_avf = rows.iter().map(|r| r.real.avf()).sum::<f64>() / n;
        let avgi_avf = rows.iter().map(|r| r.predicted.avf()).sum::<f64>() / n;
        let real_fit = structure_fit(s, cfg, real_avf);
        let avgi_fit = structure_fit(s, cfg, avgi_avf);
        chip_real += real_fit;
        chip_avgi += avgi_fit;
        let diff = if real_fit > 0.0 {
            (avgi_fit - real_fit).abs() / real_fit * 100.0
        } else {
            0.0
        };
        worst = worst.max(diff);
        println!(
            "{:>11} {:>10} {:>8.2}% {:>8.2}% {:>10.4} {:>10.4} {:>6.2}%",
            s.label(),
            s.bit_count(cfg),
            real_avf * 100.0,
            avgi_avf * 100.0,
            real_fit,
            avgi_fit,
            diff,
        );
    }
    let chip_diff = if chip_real > 0.0 {
        (chip_avgi - chip_real).abs() / chip_real * 100.0
    } else {
        0.0
    };
    println!(
        "\nCHIP: real {:.4} FIT vs AVGI {:.4} FIT -> {:.2}% difference \
         (paper: <=1.45% per structure, 0.2% chip); worst structure here {:.2}%",
        chip_real, chip_avgi, chip_diff, worst,
    );
}
