//! CI smoke prover for the execution tiers and the checkpointed engine.
//!
//! Per workload, runs the three-leg [`avgi_faultsim::run_xtier`] cross-check
//! (reference substrate, interpreter identity, pipeline identity) and then
//! [`avgi_faultsim::run_xcheck`] (checkpointed vs. run to the end, fork
//! anatomy) on a register-file campaign, and exits non-zero
//! on the first divergence. That campaign is the production mode, whose ERT
//! window admits only the exit at the injection cycle, so `run_xcheck` runs once
//! more on the same faults as an end-to-end campaign, which also takes the
//! exits at later checkpoints. Each prints a `converge` line saying how many
//! runs took the golden's ending and were equal to their run to the end —
//! none taking it fails the gate like a mismatch does. The
//! exhaustive versions live in `cargo test` (`faultsim/src/xcheck.rs`,
//! `faultsim/tests/{batched_equivalence,convergence}.rs`); this command is
//! the seconds-cheap gate that keeps every push honest.

use crate::args::{positive, preset, workload_list};
use crate::golden;
use avgi_core::pipeline::avgi_mode;
use avgi_faultsim::{run_xcheck, run_xtier, CampaignConfig, RunMode};
use avgi_muarch::fault::Structure;
use std::process::ExitCode;

pub fn run(mut a: crate::Args) -> ExitCode {
    let workloads = a
        .value_with("--workloads A,B", workload_list)
        .unwrap_or_else(|| workload_list("bitcount,crc32").expect("registered"));
    let faults = a.value_with("--faults N>=1", positive).unwrap_or(24);
    let cfg = preset(a.flag("--small")).config();
    a.finish();

    for w in &workloads {
        let golden = golden(w, &cfg);
        let mode = avgi_mode(Structure::RegFile, golden.cycles);
        let ccfg = CampaignConfig::new(Structure::RegFile, faults, mode);
        let fail = |what: &str, e: String| {
            eprintln!("FAIL: {}: {what} cross-check failed:\n{e}", w.name);
            ExitCode::FAILURE
        };
        match run_xtier(w, &golden) {
            Ok(r) => println!("{r}"),
            Err(e) => return fail("execution-tier", e),
        }
        let end_to_end = CampaignConfig::new(Structure::RegFile, faults, RunMode::EndToEnd);
        for (mode, ccfg) in [("ERT-bounded", &ccfg), ("end-to-end", &end_to_end)] {
            match run_xcheck(w, &cfg, &golden, ccfg) {
                Ok(r) if r.converged == 0 => {
                    return fail("convergence", format!("no {mode} run took the exit"))
                }
                Ok(r) => println!(
                    "{r}\nconverge `{}` {mode}: {} runs, {} converged, {} cycles charged, {} \
                     simulated, mismatches 0",
                    w.name,
                    r.runs_compared,
                    r.converged,
                    r.cycles_charged,
                    r.cycles_charged - r.cycles_skipped
                ),
                Err(e) => return fail("checkpointed engine", e),
            }
        }
    }
    println!(
        "xtier: all {} workloads bit-identical across tiers and engines",
        workloads.len()
    );
    ExitCode::SUCCESS
}
