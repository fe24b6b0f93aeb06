//! Fig. 8 — IMM distribution: full execution ("inclusive") vs.
//! residency-window stop ("exclusive") for the L1 instruction cache.
//!
//! Insight 3's validation: stopping every simulation at the
//! effective-residency-time window loses (virtually) no manifestations,
//! so the IMM distribution is unchanged while the simulated cycles drop.
//! Only the inclusive campaign is simulated: the exclusive leg is it folded
//! into the AVGI mode ([`avgi_faultsim::CampaignResult::under`]).

use crate::{golden, pct, print_header, Matrix};
use avgi_core::classify::classify_injection;
use avgi_core::imm::{Imm, ImmClass, NUM_IMMS};
use avgi_core::pipeline::avgi_mode;
use avgi_faultsim::RunMode;
use avgi_muarch::fault::Structure;

pub fn print(m: &Matrix) {
    let cfg = &m.cfg;
    let structure = Structure::L1IData;
    println!(
        "Fig. 8 — IMM distribution inclusive vs. exclusive (ERT stop) for {} ({}, {} faults)",
        structure.label(),
        cfg.name,
        m.opts.faults
    );
    let mut cols = vec!["workload", "mode", "cost Mcyc"];
    cols.extend(Imm::all().iter().map(|i| i.label()));
    print_header(&cols, &[14; NUM_IMMS + 3]);

    let mut worst_diff = 0.0f64;
    let mut pooled_inc = [0u64; NUM_IMMS];
    let mut pooled_exc = [0u64; NUM_IMMS];
    for w in avgi_workloads::all() {
        let golden = golden(&w, cfg);
        // Inclusive: instrumented end-to-end.
        let inc_campaign = &m.cell(&w, cfg, structure, RunMode::Instrumented).result;
        let inc = avgi_core::JointAnalysis::from_campaign(inc_campaign);
        // Trace-visible distribution (ESC excluded), matching what the
        // exclusive (early-stopped) flow can observe.
        let inc_dist = inc.visible_imm_distribution();
        let inc_cost = inc_campaign.total_post_inject_cycles();
        // Exclusive: first-deviation + ERT window. Its runs stop at the
        // deviation or the window, so they have no final effect and
        // `JointAnalysis::from_campaign` (which needs one per run) refuses
        // them: the IMMs are tallied here.
        let exc_campaign = inc_campaign.under(avgi_mode(structure, golden.cycles));
        let exc_cost = exc_campaign.total_post_inject_cycles();
        let mut exc_counts = [0u64; NUM_IMMS];
        for r in &exc_campaign.results {
            if let ImmClass::Manifested(i) = classify_injection(r) {
                exc_counts[i.index()] += 1;
            }
        }
        let corruptions: u64 = exc_counts.iter().sum();
        let exc_dist = exc_counts.map(|c| c as f64 / corruptions.max(1) as f64);

        let mut row = format!(
            "{:>14} {:>14} {:>14.1}",
            w.name,
            "inclusive",
            inc_cost as f64 / 1e6
        );
        for v in inc_dist {
            row.push_str(&format!(" {:>13}", pct(v)));
        }
        println!("{row}");
        let mut row = format!(
            "{:>14} {:>14} {:>14.1}",
            "",
            "exclusive",
            exc_cost as f64 / 1e6
        );
        for (k, v) in exc_dist.iter().enumerate() {
            // Per-workload comparison only where the sample is meaningful;
            // single-corruption cells swing by construction.
            if inc.corruption_count() >= 10 && corruptions >= 10 {
                worst_diff = worst_diff.max((v - inc_dist[k]).abs());
            }
            row.push_str(&format!(" {:>13}", pct(*v)));
        }
        println!("{row}");
        for imm in Imm::all() {
            pooled_inc[imm.index()] += inc.imm_count(*imm);
            pooled_exc[imm.index()] += exc_counts[imm.index()];
        }
    }
    let tot_inc: u64 = pooled_inc.iter().sum();
    let tot_exc: u64 = pooled_exc.iter().sum();
    let pooled_diff = Imm::all()
        .iter()
        .map(|i| {
            let a = pooled_inc[i.index()] as f64 / tot_inc.max(1) as f64;
            let b = pooled_exc[i.index()] as f64 / tot_exc.max(1) as f64;
            (a - b).abs()
        })
        .fold(0.0, f64::max);
    println!(
        "\npooled over all workloads: {tot_inc} corruptions inclusive vs {tot_exc} exclusive; \
         max per-IMM distribution difference {} \
         (per-workload max, where >=10 corruptions: {}) \
         (paper: virtually identical distributions)",
        pct(pooled_diff),
        pct(worst_diff),
    );
}
