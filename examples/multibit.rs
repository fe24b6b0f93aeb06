//! Multi-bit fault study (§VII.A): compare final-effect distributions of
//! single-bit faults against spatially adjacent 2- and 4-bit bursts in the
//! L1 data cache.
//!
//! ```sh
//! cargo run --release --example multibit
//! ```

use avgi_repro::core::{EffectDistribution, JointAnalysis};
use avgi_repro::faultsim::{golden_for, run_campaign, CampaignConfig, RunMode};
use avgi_repro::muarch::{MuarchConfig, Structure};

fn main() {
    let cfg = MuarchConfig::big();
    let w = avgi_repro::workloads::by_name("blowfish").expect("known workload");
    let golden = golden_for(&w, &cfg);
    let faults = 300;

    println!(
        "multi-bit bursts in {} on `{}` ({faults} injections each)\n",
        Structure::L1DData.label(),
        w.name
    );
    for width in [1u32, 2, 4] {
        let c = run_campaign(
            &w,
            &cfg,
            &golden,
            &CampaignConfig::new(Structure::L1DData, faults, RunMode::Instrumented)
                .with_burst(width),
        );
        if c.aborted_count() > 0 {
            eprintln!(
                "[health] burst width {width}: {} aborted ({:.2}%)",
                c.aborted_count(),
                c.abort_rate() * 100.0
            );
        }
        let a = JointAnalysis::from_campaign(&c);
        let eff = EffectDistribution::from_array(a.effect_distribution());
        println!(
            "burst width {width}: {eff}   (benign {:.1}%)",
            100.0 * a.benign_count() as f64 / a.total as f64
        );
    }
    println!(
        "\nwider bursts raise corruption probability but manifest through the same IMM\n\
         classes, so AVGI's classification applies unchanged (paper §VII.A)."
    );
}
