//! Execution-tier identity across the whole workload suite.
//!
//! The fast pre-decoded interpreter is only usable for golden verification
//! and reference sides if it is *bit-identical* to both the reference
//! interpreter and the cycle-accurate pipeline — on every workload, not just
//! the friendly ones. This test walks all fourteen:
//!
//! * `avgi_refmodel::verify_fast_tier` steps the reference and fast models
//!   side by side (and re-runs the block-threaded batch path),
//! * `avgi_refmodel::verify_golden_tier(.., ExecTier::Fast)` lockstep-checks
//!   the pipeline's recorded commit stream against the fast tier, record for
//!   record, outputs included, under both core presets — the check
//!   `verified_golden` makes in production.
//!
//! The same stream lockstep-checked on the reference tier, which anchors
//! the proof, is `avgi-refmodel`'s `workloads_lockstep` test.

use avgi_muarch::config::MuarchConfig;
use avgi_refmodel::{verify_fast_tier, verify_golden_tier, ExecTier};

#[test]
fn fast_tier_matches_the_pipeline_on_every_workload() {
    for w in avgi_workloads::all() {
        let steps = verify_fast_tier(&w.program, 0)
            .unwrap_or_else(|e| panic!("`{}`: fast tier diverges from reference: {e}", w.name));
        assert!(steps > 0, "`{}` retired no instructions", w.name);

        for cfg in [MuarchConfig::big(), MuarchConfig::small()] {
            let golden = avgi_faultsim::golden_for(&w, &cfg);
            let report =
                verify_golden_tier(&w.program, &golden, ExecTier::Fast).unwrap_or_else(|d| {
                    panic!(
                        "`{}` / {}: fast tier diverges from pipeline: {d}",
                        w.name, cfg.name
                    )
                });
            assert_eq!(
                report.committed,
                golden.trace.len() as u64,
                "`{}` / {}: fast tier must cover the whole golden stream",
                w.name,
                cfg.name
            );
        }
    }
}
