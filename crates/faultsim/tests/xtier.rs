//! Execution-tier identity across the whole workload suite.
//!
//! The fast pre-decoded interpreter is only usable for golden verification,
//! masked re-runs, and reference sides if it is *bit-identical* to both the
//! reference interpreter and the cycle-accurate pipeline — on every
//! workload, not just the friendly ones. This test walks all fourteen:
//!
//! * `avgi_refmodel::verify_fast_tier` steps the reference and fast models
//!   side by side (and re-runs the block-threaded batch path),
//! * `avgi_muarch::compare_backends` replays the fast tier against the
//!   pipeline's recorded commit stream, record for record, outputs included.
//!
//! A second test runs the full three-leg [`avgi_faultsim::run_xtier`]
//! prover (substrate, interpreter, pipeline) on two workloads — the same
//! pair the CI smoke step checks.

use avgi_faultsim::{run_xtier, watchdog_budget};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::{compare_backends, TraceBackend};
use avgi_refmodel::{verify_fast_tier, FastModel};

#[test]
fn fast_tier_matches_the_pipeline_on_every_workload() {
    let cfg = MuarchConfig::big();
    for w in avgi_workloads::all() {
        let steps = verify_fast_tier(&w.program, 0)
            .unwrap_or_else(|e| panic!("`{}`: fast tier diverges from reference: {e}", w.name));
        assert!(steps > 0, "`{}` retired no instructions", w.name);

        let golden = avgi_faultsim::golden_for(&w, &cfg);
        let mut pipeline = TraceBackend::new(&golden);
        let mut fast = FastModel::new(&w.program);
        let commits = compare_backends(&mut pipeline, &mut fast, watchdog_budget(golden.cycles))
            .unwrap_or_else(|e| panic!("`{}`: fast tier diverges from pipeline: {e}", w.name));
        assert_eq!(
            commits,
            golden.trace.len() as u64,
            "`{}`: fast tier must cover the whole golden stream",
            w.name
        );
    }
}

#[test]
fn full_xtier_prover_passes_on_smoke_workloads() {
    let cfg = MuarchConfig::big();
    for name in ["bitcount", "crc32"] {
        let w = avgi_workloads::by_name(name).unwrap();
        let golden = avgi_faultsim::golden_for(&w, &cfg);
        let report = run_xtier(&w, &golden).unwrap_or_else(|e| panic!("`{name}`: {e}"));
        assert_eq!(report.workload, name);
        assert!(report.interp_steps > 0);
        assert!(report.commits_compared > 0);
    }
}
