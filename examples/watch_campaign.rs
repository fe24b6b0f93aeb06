//! Watching a campaign: attach the telemetry layer to a fault-injection
//! campaign and get live progress lines, an IMM class tally, and latency
//! histograms — without touching the campaign engine itself.
//!
//! ```sh
//! cargo run --release --example watch_campaign
//! ```

use avgi_repro::core::{avgi_mode, imm_collector, TelemetrySummary};
use avgi_repro::faultsim::telemetry::ProgressObserver;
use avgi_repro::faultsim::{golden_for, CampaignConfig};
use avgi_repro::muarch::{MuarchConfig, Structure};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let cfg = MuarchConfig::big();
    let w = avgi_repro::workloads::by_name("qsort").unwrap();
    let golden = golden_for(&w, &cfg);

    // An IMM-classifying collector wrapped in a progress emitter. The
    // observer prints `[progress] ...` lines to stderr at most every 200 ms
    // (plus one forced line when the campaign ends), so short campaigns
    // still show at least one snapshot.
    let progress = Arc::new(ProgressObserver::stderr(
        Arc::new(imm_collector()),
        Duration::from_millis(200),
    ));

    let structure = Structure::RegFile;
    let ccfg = CampaignConfig::new(structure, 400, avgi_mode(structure, golden.cycles))
        .with_checkpoints(8)
        .with_observer(progress.clone());

    let result = avgi_repro::faultsim::run_campaign(&w, &cfg, &golden, &ccfg);

    // The collector's final snapshot is the machine-readable artifact; the
    // TelemetrySummary wrapper renders it for humans.
    let snap = progress.collector().snapshot();
    assert_eq!(snap.completed, result.len() as u64);
    print!("{}", TelemetrySummary(&snap));
    println!("\nmetrics.json payload:\n{}", snap.to_json());
}
