//! Ablation: next-line prefetching vs. cache-fault phenomenology.
//!
//! The paper attributes the long L1D/L2 residency windows partly to
//! prefetch traffic (§V.A). This ablation toggles the simulator's
//! next-line L2 prefetcher and compares, for the L2 data array: run time,
//! Benign fraction, and the escape (`ESC`) count on a streaming workload.

use crate::{golden, pct, print_header, Exp};
use avgi_core::{Imm, JointAnalysis};
use avgi_faultsim::RunMode;
use avgi_muarch::fault::Structure;
use std::process::ExitCode;

pub fn run(a: crate::Args) -> ExitCode {
    let exp = Exp::parse(a, 300);
    let workloads =
        ["blowfish", "rijndael", "nas_mg"].map(|n| avgi_workloads::by_name(n).expect("known"));
    println!("Ablation — next-line L2 prefetch ({} faults)", exp.opts.faults);
    print_header(
        &["workload", "prefetch", "cycles", "l2miss", "benign", "ESC"],
        &[12, 9, 9, 8, 8, 6],
    );
    for w in &workloads {
        for prefetch in [false, true] {
            let mut cfg = exp.cfg.clone();
            cfg.prefetch_next_line = prefetch;
            let golden = golden(w, &cfg);
            let ccfg = exp.opts.campaign(Structure::L2Data, RunMode::Instrumented);
            let c = exp.run(w, &cfg, &golden, &ccfg);
            let a = JointAnalysis::from_campaign(&c);
            println!(
                "{:>12} {:>9} {:>9} {:>8} {:>8} {:>6}",
                w.name,
                if prefetch { "on" } else { "off" },
                golden.cycles,
                golden.stats.l2_misses,
                pct(a.benign_count() as f64 / a.total as f64),
                a.imm_count(Imm::Esc),
            );
        }
    }
    println!(
        "\nprefetching shortens runs (fewer demand misses) and changes how long lines \
         sit in L2 — the residency mechanism the paper discusses."
    );
    exp.finish();
    ExitCode::SUCCESS
}
