//! Table II — AVF assessment cost: AVGI vs. traditional (accelerated)
//! SFI, per structure, summed over all workloads.
//!
//! The paper reports wall-clock days on two 192-core servers; the
//! host-independent analogue here is *post-injection simulated cycles*
//! (both flows skip pre-injection cycles via checkpointing, §IV.B). Two
//! campaigns per structure and workload, and a fold of the first:
//!
//! * traditional — end-to-end runs (the baseline column: the study's
//!   [`RunMode::Instrumented`] ground truth, the same run as
//!   [`RunMode::EndToEnd`] under its second label). Every run is
//!   *charged* its cycles to the end of the program or of its window — the
//!   paper's accounting, and the first seven columns; a run that provably
//!   had the golden's future (a flip into dead storage, a machine state
//!   equal to the golden's at a checkpoint) did not simulate all of them
//!   (DESIGN §13), in either flow. The last two columns are the other
//!   honest pair: the cycles this baseline actually simulated, and its
//!   ratio to the cycles the full AVGI flow actually simulated,
//! * insights 1&2 — stop at the first commit-trace deviation: the
//!   traditional campaign folded ([`avgi_faultsim::CampaignResult::under`]),
//! * insight 3 — additionally stop Benign runs at the ERT window
//!   (the full AVGI flow; the paper's "Maximum Sim Cycles" column is the
//!   window used).

use crate::{golden, print_header, Matrix};
use avgi_core::ert::default_ert_window;
use avgi_core::pipeline::avgi_mode;
use avgi_faultsim::RunMode;
use avgi_muarch::fault::Structure;

pub fn print(m: &Matrix) {
    let cfg = &m.cfg;
    let workloads = avgi_workloads::all();
    println!(
        "Table II — assessment cost per structure, {} faults x {} workloads ({})",
        m.opts.faults,
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
            "sim/sim",
        ],
        &[11, 11, 11, 11, 8, 8, 8, 11, 8],
    );

    let mut grand = [0u64; 3];
    let mut grand_simulated = [0u64; 2]; // [traditional, full AVGI]
    for &s in Structure::all() {
        let mut cost = [0u64; 3]; // [traditional, first-deviation, full AVGI]
        let mut skipped = [0u64; 2]; // charged, not simulated: [traditional, full AVGI]
        let mut window_desc = String::new();
        for w in &workloads {
            let golden = golden(w, cfg);
            window_desc = match s {
                Structure::Rob | Structure::Lq | Structure::Sq => "3%".to_string(),
                _ => format!("{}", default_ert_window(s, golden.cycles)),
            };
            let traditional = m.cell(w, cfg, s, RunMode::Instrumented);
            let avgi = m.cell(w, cfg, s, avgi_mode(s, golden.cycles));
            skipped[0] += traditional.cycles_skipped;
            skipped[1] += avgi.cycles_skipped;
            let first_deviation =
                (traditional.result).under(RunMode::FirstDeviation { ert_window: None });
            cost[0] += traditional.result.total_post_inject_cycles();
            cost[1] += first_deviation.total_post_inject_cycles();
            cost[2] += avgi.result.total_post_inject_cycles();
        }
        for k in 0..3 {
            grand[k] += cost[k];
        }
        let simulated = [cost[0] - skipped[0], cost[2] - skipped[1]];
        for k in 0..2 {
            grand_simulated[k] += simulated[k];
        }
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
            simulated[0] as f64 / 1e6,
            simulated[0] as f64 / simulated[1].max(1) as f64,
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
        "simulated, not charged: {:.1} of the traditional {:.1} Mcycles, {:.1} of AVGI's {:.1} \
         -> full-CPU speedup, simulated against simulated, {:.1}x",
        grand_simulated[0] as f64 / 1e6,
        grand[0] as f64 / 1e6,
        grand_simulated[1] as f64 / 1e6,
        grand[2] as f64 / 1e6,
        grand_simulated[0] as f64 / grand_simulated[1].max(1) as f64,
    );
}
