//! Proof that finishing a converged run from the golden's future is
//! *observationally invisible*: a campaign executed with a checkpoint set —
//! where a run whose live machine state equals the golden's at a checkpoint
//! stops there and is filled in from the golden run — produces the results,
//! field for field, of the same campaign executed with no checkpoints at
//! all, where every run is simulated from reset to its own end and nothing
//! can be compared with anything.
//!
//! The proof is not allowed to be vacuous. Every leg counts the runs that
//! took the exit (`MetricsSnapshot::converged_runs`); every structure with a
//! known converging share must have some, and a configuration under an ERT window — which is excluded
//! from the exit and must behave exactly as before — must have none. The
//! per-structure totals are printed (`--nocapture`).

use avgi_faultsim::{
    golden_for, run_campaign, run_campaign_journaled, CampaignConfig, InjectionResult,
    MetricsCollector, RunMode,
};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;
use avgi_muarch::trace::GoldenRun;
use avgi_workloads::Workload;
use std::sync::Arc;

const FAULTS: usize = 10;
const CHECKPOINTS: [u32; 2] = [8, 32];
const SHAPES: [(usize, usize); 4] = [(1, 1), (1, 32), (4, 1), (4, 32)]; // (threads, batch)
const MODES: [RunMode; 3] = [
    RunMode::EndToEnd,
    RunMode::Instrumented,
    RunMode::FirstDeviation { ert_window: None },
];

struct Fixture {
    w: Workload,
    cfg: MuarchConfig,
    golden: Arc<GoldenRun>,
}

fn fixture(workload: &str, cfg: MuarchConfig) -> Fixture {
    let w = avgi_workloads::by_name(workload).unwrap();
    let golden = golden_for(&w, &cfg);
    Fixture { w, cfg, golden }
}

/// Runs `ccfg` observed; returns its results, how many runs took the exit
/// and how many cycles they skipped.
fn observed(f: &Fixture, ccfg: CampaignConfig) -> (Vec<InjectionResult>, u64, u64) {
    let metrics = Arc::new(MetricsCollector::new());
    let c = run_campaign(
        &f.w,
        &f.cfg,
        &f.golden,
        &ccfg.with_observer(metrics.clone()),
    );
    let snap = metrics.snapshot();
    (c.results, snap.converged_runs, snap.cycles_skipped)
}

/// The run-to-the-end reference of `base`, then `base` under every
/// checkpoint count and execution shape: all equal, field for field.
/// Returns (runs compared, runs that exited early).
fn assert_invisible(f: &Fixture, base: &CampaignConfig) -> (u64, u64) {
    let what = format!(
        "{} / {:?} / {:?} / {}",
        f.w.name, base.structure, base.mode, f.cfg.name
    );
    let (reference, exited, _) = observed(f, base.clone().with_checkpoints(0));
    assert_eq!(
        exited, 0,
        "{what}: nothing to compare with, yet a run exited"
    );
    let (mut compared, mut early) = (0, 0);
    for checkpoints in CHECKPOINTS {
        let mut exits = None;
        for (threads, batch) in SHAPES {
            let ccfg = CampaignConfig {
                threads,
                ..base.clone()
            }
            .with_checkpoints(checkpoints)
            .with_batch(batch);
            let (results, exited, skipped) = observed(f, ccfg);
            assert_eq!(
                results, reference,
                "{what}: checkpoints={checkpoints} threads={threads} batch={batch}"
            );
            let charged: u64 = results.iter().map(|r| r.post_inject_cycles).sum();
            assert!(skipped <= charged, "{what}: skipped more than was charged");
            assert_eq!(exited == 0, skipped == 0, "{what}");
            // Which runs exit is a function of the checkpoint cycles alone:
            // the counts repeat exactly under any execution shape.
            assert_eq!(*exits.get_or_insert((exited, skipped)), (exited, skipped));
            compared += results.len() as u64;
            early += exited;
        }
    }
    (compared, early)
}

fn every_structure_and_mode(workload: &str, cfg: MuarchConfig) {
    let f = fixture(workload, cfg);
    for &structure in Structure::all() {
        let (mut compared, mut early) = (0, 0);
        for mode in MODES {
            let base = CampaignConfig::new(structure, FAULTS, mode).with_seed(0xC0_4E56);
            let (c, e) = assert_invisible(&f, &base);
            compared += c;
            early += e;
        }
        println!(
            "convergence {workload:>8} {:<28} {structure:?}: {compared} runs compared, \
             {early} exited early",
            f.cfg.name
        );
        if exits_expected(workload, structure) {
            assert!(
                early > 0,
                "{workload} / {structure:?}: no run took the exit — the proof is vacuous"
            );
        }
    }
}

/// Where a share of runs is known to converge, on either core — so the
/// equality above cannot hold by no run ever exiting. Elsewhere it may
/// well be zero: a flip in a tag, a TLB entry or a queue image of an
/// unoccupied entry stays different until the entry is next written, which
/// a program with few stores or pages may never do (those are compared
/// whole; only invalid lines' data and dead registers' values are not).
fn exits_expected(workload: &str, structure: Structure) -> bool {
    use Structure::*;
    matches!(structure, RegFile | L1DData | L1IData | L2Data | Lq)
        || (workload == "rijndael" && matches!(structure, L1DTag | Sq))
}

#[test]
fn exit_is_invisible_on_crc32_big() {
    every_structure_and_mode("crc32", MuarchConfig::big());
}

#[test]
fn exit_is_invisible_on_crc32_small() {
    every_structure_and_mode("crc32", MuarchConfig::small());
}

#[test]
fn exit_is_invisible_on_rijndael_big() {
    every_structure_and_mode("rijndael", MuarchConfig::big());
}

#[test]
fn exit_is_invisible_on_rijndael_small() {
    every_structure_and_mode("rijndael", MuarchConfig::small());
}

#[test]
fn exit_is_invisible_under_bursts_and_masked_verification() {
    let f = fixture("crc32", MuarchConfig::big());
    for structure in [Structure::RegFile, Structure::L1DData, Structure::Lq] {
        let base = CampaignConfig::new(structure, 16, RunMode::Instrumented).with_seed(0xB0457);
        for (leg, base) in [
            ("burst", base.clone().with_burst(4)),
            // The oracle is fed the golden output for a run that exited;
            // it panics after the campaign if that was not the reference's.
            ("verify", base.with_masked_verification()),
        ] {
            let (_, early) = assert_invisible(&f, &base);
            assert!(early > 0, "{leg} / {structure:?}: no run took the exit");
        }
    }
}

/// A run under an ERT window ends by its own history inside the window; it
/// is not compared, whatever the checkpoint count.
#[test]
fn ert_bounded_runs_never_exit() {
    for (workload, window) in [("crc32", 1_500), ("rijndael", 4_000)] {
        let f = fixture(workload, MuarchConfig::big());
        for &structure in Structure::all() {
            let mode = RunMode::FirstDeviation {
                ert_window: Some(window),
            };
            let base = CampaignConfig::new(structure, FAULTS, mode).with_seed(0xE27);
            let (reference, ..) = observed(&f, base.clone().with_checkpoints(0));
            for checkpoints in CHECKPOINTS {
                let (results, exited, skipped) =
                    observed(&f, base.clone().with_checkpoints(checkpoints));
                assert_eq!(results, reference, "{workload} / {structure:?}");
                assert_eq!((exited, skipped), (0, 0), "{workload} / {structure:?}");
            }
        }
    }
}

/// A journal written under one checkpoint count and cut in half resumes
/// under another — and under none — to the same campaign and the same
/// bytes: nothing on disk says how a result was produced.
#[test]
fn journal_resumes_bit_identically_under_another_checkpoint_count() {
    let f = fixture("crc32", MuarchConfig::big());
    let base = CampaignConfig {
        threads: 1, // one worker appends in a fixed order: whole files compare
        ..CampaignConfig::new(Structure::L1DData, 24, RunMode::EndToEnd).with_seed(0x10C)
    };
    let reference = run_campaign(&f.w, &f.cfg, &f.golden, &base.clone().with_checkpoints(0));
    let path = std::env::temp_dir().join(format!(
        "avgi-convergence-resume-{}.jsonl",
        std::process::id()
    ));
    let journaled = |ccfg: &CampaignConfig| {
        let metrics = Arc::new(MetricsCollector::new());
        let c = run_campaign_journaled(
            &f.w,
            &f.cfg,
            &f.golden,
            &ccfg.clone().with_observer(metrics.clone()),
            &path,
        )
        .unwrap();
        (c.results, metrics.snapshot())
    };

    let _ = std::fs::remove_file(&path);
    let (whole, snap) = journaled(&base.clone().with_checkpoints(8));
    assert_eq!(whole, reference.results);
    assert!(snap.converged_runs > 0, "no run exited: nothing is proven");
    let uninterrupted = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = uninterrupted.split_inclusive('\n').collect();
    assert_eq!(lines.len(), 1 + 24, "header plus one record per injection");

    for resume_with in [32, 0] {
        std::fs::write(&path, lines[..1 + 12].concat()).unwrap();
        let (resumed, snap) = journaled(&base.clone().with_checkpoints(resume_with));
        assert_eq!(resumed, reference.results, "resumed under {resume_with}");
        assert_eq!(snap.resumed, 12);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            uninterrupted,
            "journal bytes differ after resuming under {resume_with} checkpoints"
        );
    }
    let _ = std::fs::remove_file(&path);
}
