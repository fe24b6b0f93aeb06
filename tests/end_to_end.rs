//! Cross-crate integration: the full AVGI methodology exercised through
//! the public API of the umbrella crate.

use avgi_repro::core::pipeline::{assess, exhaustive, AvgiOptions};
use avgi_repro::core::weights::learn_weights;
use avgi_repro::core::{FaultEffect, Imm};
use avgi_repro::faultsim::{golden_for, run_campaign, CampaignConfig, RunMode};
use avgi_repro::muarch::{MuarchConfig, Structure};

const FAULTS: usize = 80;

#[test]
fn methodology_end_to_end_on_register_file() {
    let cfg = MuarchConfig::big();
    let workloads = avgi_repro::workloads::all();
    let train = &workloads[..3];
    let target = &workloads[3];

    let analyses: Vec<_> = train
        .iter()
        .map(|w| {
            let golden = golden_for(w, &cfg);
            exhaustive(w, &cfg, &golden, Structure::RegFile, FAULTS, 11).analysis
        })
        .collect();
    let weights = learn_weights(&analyses, None);

    let golden = golden_for(target, &cfg);
    let opts = AvgiOptions {
        faults: FAULTS,
        seed: 12,
    };
    let avgi = assess(target, &cfg, &golden, &weights, &opts);
    let real = exhaustive(target, &cfg, &golden, Structure::RegFile, FAULTS, 12);

    assert!(avgi.predicted.is_normalized());
    assert!(real.effect.is_normalized());
    assert!(
        avgi.cost_cycles < real.cost_cycles,
        "AVGI must be cheaper: {} vs {}",
        avgi.cost_cycles,
        real.cost_cycles
    );
    // Identical fault samples (same seed): Benign + manifested = total.
    assert_eq!(avgi.total, FAULTS as u64);
}

#[test]
fn rob_pipeline_yields_pure_pre_and_crash_weights() {
    // The ROB's check-at-use model must manifest exclusively as PRE, whose
    // learned weight is 100% Crash.
    let cfg = MuarchConfig::big();
    let workloads = avgi_repro::workloads::all();
    let analyses: Vec<_> = workloads[..3]
        .iter()
        .map(|w| {
            let golden = golden_for(w, &cfg);
            exhaustive(w, &cfg, &golden, Structure::Rob, FAULTS, 21).analysis
        })
        .collect();
    for a in &analyses {
        for imm in Imm::all() {
            if *imm != Imm::Pre {
                assert_eq!(
                    a.imm_count(*imm),
                    0,
                    "{}: unexpected {imm} in ROB",
                    a.workload
                );
            }
        }
    }
    let weights = learn_weights(&analyses, None);
    if weights.observed(Imm::Pre) {
        assert!((weights.weight(Imm::Pre, FaultEffect::Crash) - 1.0).abs() < 1e-9);
    }
}

#[test]
fn first_deviation_campaign_matches_instrumented_classification() {
    // The early-stopped campaign must classify manifested faults exactly
    // like the end-to-end instrumented campaign on the same fault sample
    // (insight 1&2 loses no information about corruptions).
    use avgi_repro::core::classify::classify_injection;
    use avgi_repro::core::ImmClass;

    let cfg = MuarchConfig::big();
    let w = avgi_repro::workloads::by_name("crc32").unwrap();
    let golden = golden_for(&w, &cfg);
    let base = CampaignConfig::new(Structure::RegFile, FAULTS, RunMode::Instrumented).with_seed(31);
    let instrumented = run_campaign(&w, &cfg, &golden, &base);
    let early = run_campaign(
        &w,
        &cfg,
        &golden,
        &CampaignConfig::new(
            Structure::RegFile,
            FAULTS,
            RunMode::FirstDeviation { ert_window: None },
        )
        .with_seed(31),
    );
    // The early-stopped campaign is the instrumented one, cut at each
    // deviation: a fold of it, field for field.
    let folded = instrumented.under(RunMode::FirstDeviation { ert_window: None });
    assert_eq!(folded.results, early.results);
    for (a, b) in instrumented.results.iter().zip(&early.results) {
        assert_eq!(a.fault, b.fault);
        let ca = classify_injection(a);
        let cb = classify_injection(b);
        match ca {
            ImmClass::Manifested(Imm::Esc) => {
                // ESC needs output comparison; the early run cannot see it.
                assert_eq!(cb, ImmClass::Benign);
            }
            ImmClass::Manifested(imm) => {
                assert_eq!(cb, ImmClass::Manifested(imm), "fault {:?}", a.fault);
            }
            ImmClass::Benign => assert_eq!(cb, ImmClass::Benign),
        }
    }
}

#[test]
fn small_config_runs_the_full_flow() {
    let cfg = MuarchConfig::small();
    let w = avgi_repro::workloads::by_name("sha").unwrap();
    let golden = golden_for(&w, &cfg);
    let ex = exhaustive(&w, &cfg, &golden, Structure::L1IData, FAULTS, 41);
    assert!(ex.effect.is_normalized());
}
