//! Exploration tool: per-structure IMM distributions, final effects, and
//! manifestation latencies across workloads. Not a paper figure — the
//! fast way to inspect the simulator's fault phenomenology and derive ERT
//! windows and ESC calibration.

use crate::{pct, print_header, Matrix};
use avgi_core::imm::{FaultEffect, Imm};
use avgi_muarch::fault::Structure;
use std::process::ExitCode;

pub fn run(a: crate::Args) -> ExitCode {
    let m = Matrix::parse(a, 200);

    println!("\n== IMM distribution over corruptions (mean across workloads) ==");
    let mut cols = vec!["structure", "benign%"];
    cols.extend(Imm::all().iter().map(|i| i.label()));
    cols.extend(["masked%", "sdc%", "crash%", "maxlat"]);
    let widths = vec![11usize; cols.len()];
    print_header(&cols, &widths);
    for &s in Structure::all() {
        let group = m.analyses(s);
        let n = group.len() as f64;
        let benign: f64 = group
            .iter()
            .map(|a| a.benign_count() as f64 / a.total as f64)
            .sum::<f64>()
            / n;
        let mut dist = [0.0f64; 8];
        for a in &group {
            let d = a.imm_distribution();
            for k in 0..8 {
                dist[k] += d[k] / n;
            }
        }
        let mut eff = [0.0f64; 3];
        for a in &group {
            let d = a.effect_distribution();
            for k in 0..3 {
                eff[k] += d[k] / n;
            }
        }
        let maxlat = group
            .iter()
            .filter_map(|a| a.manifestation_latencies.last().copied())
            .max()
            .unwrap_or(0);
        let mut row = format!("{:>11} {:>11}", s.label(), pct(benign));
        for &d in dist.iter().take(8) {
            row.push_str(&format!(" {:>10}", pct(d)));
        }
        row.push_str(&format!(
            " {:>10} {:>10} {:>10} {:>10}",
            pct(eff[FaultEffect::Masked.index()]),
            pct(eff[FaultEffect::Sdc.index()]),
            pct(eff[FaultEffect::Crash.index()]),
            maxlat
        ));
        println!("{row}");
    }

    println!("\n== per-workload ESC (no-deviation SDC) counts on cache data arrays ==");
    for &s in &[Structure::L1DData, Structure::L2Data] {
        for a in m.analyses(s) {
            let esc = a.imm_count(Imm::Esc);
            if esc > 0 {
                println!(
                    "{:>10} {:>14}: {} ESC of {} faults",
                    s.label(),
                    a.workload,
                    esc,
                    a.total
                );
            }
        }
    }
    m.finish();
    ExitCode::SUCCESS
}
