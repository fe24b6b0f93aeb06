//! Full AVF + FIT report for one workload across all twelve structures —
//! the end-user tool a reliability engineer would actually run.
//!
//! ```sh
//! cargo run --release -p avgi-bench --bin avgi -- avf_report --faults 300
//! ```

use crate::{golden, pct, print_header, Exp};
use avgi_core::fit::structure_fit;
use avgi_core::pipeline::ExhaustiveAssessment;
use avgi_faultsim::RunMode;
use avgi_muarch::fault::Structure;
use std::process::ExitCode;

pub fn run(mut a: crate::Args) -> ExitCode {
    let exp = Exp::claim(&mut a, 250, None);
    let w = a
        .value_with("--workload NAME", avgi_workloads::by_name)
        .unwrap_or_else(|| avgi_workloads::by_name("dijkstra").expect("registered"));
    a.finish();
    let cfg = &exp.cfg;
    {
        let golden = golden(&w, cfg);
        println!(
            "\n=== {} ({} cycles, {} B output, {}) ===",
            w.name,
            golden.cycles,
            w.output_bytes(),
            cfg.name
        );
        print_header(
            &["structure", "Masked", "SDC", "Crash", "AVF", "FIT"],
            &[11, 8, 8, 8, 8, 10],
        );
        let mut chip_fit = 0.0;
        for &s in Structure::all() {
            let c = exp.run(&w, cfg, &golden, &exp.opts.campaign(s, RunMode::Instrumented));
            let e = ExhaustiveAssessment::from_campaign(&c);
            let fit = structure_fit(s, cfg, e.effect.avf());
            chip_fit += fit;
            println!(
                "{:>11} {:>8} {:>8} {:>8} {:>8} {:>10.4}",
                s.label(),
                pct(e.effect.masked),
                pct(e.effect.sdc),
                pct(e.effect.crash),
                pct(e.effect.avf()),
                fit,
            );
        }
        println!("{:>11} {:>46.4}", "CHIP FIT", chip_fit);
    }
    exp.finish();
    ExitCode::SUCCESS
}
