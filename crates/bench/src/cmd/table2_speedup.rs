//! Table II — AVF assessment cost: AVGI vs. traditional (accelerated)
//! SFI, per structure, summed over all workloads.
//!
//! The paper reports wall-clock days on two 192-core servers; the
//! host-independent analogue here is *post-injection simulated cycles*
//! (both flows skip pre-injection cycles via checkpointing, §IV.B). Three
//! campaigns per structure:
//!
//! * traditional — end-to-end runs (the baseline column). Every run is
//!   *charged* its cycles to the end of the program; a run whose machine
//!   state converged with the golden's at a checkpoint did not simulate all
//!   of them (DESIGN §13), so the last two columns give the cycles this
//!   baseline actually simulated and AVGI's speed-up against that — the
//!   faster, and therefore the honest, baseline to be measured against,
//! * insights 1&2 — stop at the first commit-trace deviation,
//! * insight 3 — additionally stop Benign runs at the ERT window
//!   (the full AVGI flow; the paper's "Maximum Sim Cycles" column is the
//!   window used).

use crate::{campaign, campaign_under, print_header, ExpArgs, GoldenCache};
use avgi_core::ert::default_ert_window;
use avgi_faultsim::{CampaignConfig, MetricsCollector, RunMode};
use avgi_muarch::fault::Structure;
use std::process::ExitCode;
use std::sync::Arc;

pub fn run(a: crate::Args) -> ExitCode {
    let args = ExpArgs::parse(a, 200);
    let cfg = args.config();
    let workloads = avgi_workloads::all();
    println!(
        "Table II — assessment cost per structure, {} faults x {} workloads ({})",
        args.faults,
        workloads.len(),
        cfg.name
    );
    print_header(
        &[
            "structure",
            "ERT window",
            "AVGI Mcyc",
            "trad Mcyc",
            "ins1&2",
            "ins3",
            "total",
            "conv Mcyc",
            "vs conv",
        ],
        &[11, 11, 11, 11, 8, 8, 8, 11, 8],
    );

    let mut cache = GoldenCache::new();
    let mut grand = [0u64; 3];
    let mut grand_simulated = 0;
    for &s in Structure::all() {
        let mut cost = [0u64; 3]; // [traditional, first-deviation, full AVGI]
        // What the traditional campaigns are charged but did not simulate.
        let skipped = Arc::new(MetricsCollector::new());
        let mut window_desc = String::new();
        for w in &workloads {
            eprintln!("[table2] {} / {}", s, w.name);
            let golden = cache.get(w, &cfg);
            let window = default_ert_window(s, golden.cycles);
            window_desc = match s {
                Structure::Rob | Structure::Lq | Structure::Sq => "3%".to_string(),
                _ => format!("{window}"),
            };
            let traditional = CampaignConfig::new(s, args.faults, RunMode::EndToEnd)
                .with_seed(args.seed)
                .with_observer(skipped.clone());
            cost[0] += campaign_under(w, &cfg, &golden, &traditional).total_post_inject_cycles();
            let avgi_modes = [
                RunMode::FirstDeviation { ert_window: None },
                RunMode::FirstDeviation {
                    ert_window: Some(window),
                },
            ];
            for (k, mode) in avgi_modes.into_iter().enumerate() {
                cost[k + 1] +=
                    campaign(w, &cfg, &golden, s, mode, &args).total_post_inject_cycles();
            }
        }
        for k in 0..3 {
            grand[k] += cost[k];
        }
        let simulated = cost[0] - skipped.snapshot().cycles_skipped;
        grand_simulated += simulated;
        let s12 = cost[0] as f64 / cost[1].max(1) as f64;
        let s3 = cost[0] as f64 / cost[2].max(1) as f64;
        println!(
            "{:>11} {:>11} {:>11.1} {:>11.1} {:>7.1}x {:>7.1}x {:>7.1}x {:>11.1} {:>7.1}x",
            s.label(),
            window_desc,
            cost[2] as f64 / 1e6,
            cost[0] as f64 / 1e6,
            s12,
            s3,
            s3,
            simulated as f64 / 1e6,
            simulated as f64 / cost[2].max(1) as f64,
        );
    }
    println!(
        "\nTOTAL: AVGI {:.1} Mcycles vs traditional {:.1} Mcycles -> full-CPU speedup {:.1}x \
         (paper: 18.9 days vs 414.5 days, 22x; per-structure 6x-337x)",
        grand[2] as f64 / 1e6,
        grand[0] as f64 / 1e6,
        grand[0] as f64 / grand[2].max(1) as f64,
    );
    println!(
        "insights 1&2 alone: {:.1} Mcycles -> {:.1}x",
        grand[1] as f64 / 1e6,
        grand[0] as f64 / grand[1].max(1) as f64,
    );
    println!(
        "converging SFI baseline: {:.1} of the traditional {:.1} Mcycles simulated -> \
         full-CPU speedup against it {:.1}x",
        grand_simulated as f64 / 1e6,
        grand[0] as f64 / 1e6,
        grand_simulated as f64 / grand[2].max(1) as f64,
    );
    ExitCode::SUCCESS
}
