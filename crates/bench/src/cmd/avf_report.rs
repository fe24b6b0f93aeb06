//! Full AVF + FIT report for one workload across all twelve structures —
//! the end-user tool a reliability engineer would actually run.
//!
//! ```sh
//! cargo run --release -p avgi-bench --bin avgi -- avf_report --faults 300
//! ```

use crate::{pct, print_header, ExpArgs, ExpTelemetry, golden};
use avgi_core::fit::structure_fit;
use avgi_core::pipeline::exhaustive_observed;
use avgi_muarch::fault::Structure;
use std::process::ExitCode;

pub fn run(a: crate::Args) -> ExitCode {
    let args = ExpArgs::parse(a, 250);
    let telemetry = ExpTelemetry::from_args(&args);
    let cfg = args.config();
    let w = args
        .workload
        .clone()
        .unwrap_or_else(|| avgi_workloads::by_name("dijkstra").expect("registered"));
    {
        let golden = golden(&w, &cfg);
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
            let e = exhaustive_observed(
                &w,
                &cfg,
                &golden,
                s,
                args.faults,
                args.seed,
                Some(telemetry.observer()),
            );
            let fit = structure_fit(s, &cfg, e.effect.avf());
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
    telemetry.finish();
    ExitCode::SUCCESS
}
