//! Effective-residency-time exploration: measure how quickly faults in
//! each structure manifest (first commit-trace deviation after injection)
//! and derive coverage-based ERT stop windows — the paper's §V.A analysis.
//!
//! ```sh
//! cargo run --release --example residency_time
//! ```

use avgi_repro::core::ert::{default_ert_window, ert_window_for_coverage};
use avgi_repro::core::JointAnalysis;
use avgi_repro::faultsim::{golden_for, run_campaign, CampaignConfig, RunMode};
use avgi_repro::muarch::{MuarchConfig, Structure};

fn main() {
    let cfg = MuarchConfig::big();
    let faults = 200;
    let structures = [
        Structure::RegFile,
        Structure::Dtlb,
        Structure::L1IData,
        Structure::L1DData,
    ];
    println!(
        "manifestation latency and ERT windows ({} faults x {} workloads per structure)\n",
        faults,
        avgi_repro::workloads::all().len()
    );
    println!(
        "{:>11} {:>8} {:>9} {:>9} {:>9} {:>12} {:>12}",
        "structure", "manif.", "p50", "p90", "max", "w@95%cov", "default"
    );
    for s in structures {
        let mut analyses: Vec<JointAnalysis> = Vec::new();
        let mut golden_cycles = 0;
        for w in avgi_repro::workloads::all() {
            let golden = golden_for(&w, &cfg);
            golden_cycles = golden.cycles;
            let c = run_campaign(
                &w,
                &cfg,
                &golden,
                &CampaignConfig::new(s, faults, RunMode::Instrumented),
            );
            if c.aborted_count() > 0 {
                eprintln!(
                    "[health] {} / {}: {} aborted ({:.2}%)",
                    s.label(),
                    w.name,
                    c.aborted_count(),
                    c.abort_rate() * 100.0
                );
            }
            analyses.push(JointAnalysis::from_campaign(&c));
        }
        let mut lats: Vec<u64> = analyses
            .iter()
            .flat_map(|a| a.manifestation_latencies.iter().copied())
            .collect();
        lats.sort_unstable();
        let q = |p: f64| {
            lats.get(((lats.len().max(1) - 1) as f64 * p) as usize)
                .copied()
                .unwrap_or(0)
        };
        println!(
            "{:>11} {:>8} {:>9} {:>9} {:>9} {:>12} {:>12}",
            s.label(),
            lats.len(),
            q(0.5),
            q(0.9),
            lats.last().copied().unwrap_or(0),
            ert_window_for_coverage(&analyses, 0.95, 10).unwrap_or(0),
            default_ert_window(s, golden_cycles),
        );
    }
    println!(
        "\nmost manifestations happen shortly after injection; the long tail comes from\n\
         values parked until a late program phase — the distribution behind insight 3."
    );
}
