//! Proof that finishing a converged run from the golden's future is
//! *observationally invisible*: a campaign executed with a checkpoint set —
//! where a run whose flipped bit is dead at its injection cycle, or whose
//! live machine state equals the golden's at a later checkpoint, stops
//! there and is filled in from the golden run — produces the results, field
//! for field, of the same campaign executed with no checkpoints at all,
//! where every run is simulated from reset to its own end and nothing is
//! asked of, or compared with, anything.
//!
//! The exits at injection are two: a flip into storage dead at that cycle,
//! and a flip into a register the golden run frees before it reads it
//! again (`un_ace_register_exit_is_invisible`).
//!
//! The proof is not allowed to be vacuous. Every leg counts the runs that
//! took an exit (`MetricsSnapshot::converged_runs`); every structure with a
//! known dead or converging share must have some, with or without an ERT
//! window. The per-structure totals are printed (`--nocapture`).

use avgi_faultsim::{
    golden_for, run_campaign, run_campaign_journaled, run_campaign_with_faults, run_one,
    watchdog_budget, CampaignConfig, InjectionResult, MetricsCollector, RunMode,
};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::{Fault, FaultSite, Structure};
use avgi_muarch::pipeline::Sim;
use avgi_muarch::run::{RunControl, RunOutcome};
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

/// Where a share of faults is known to land in dead storage, on either
/// core — so the equality above cannot hold by no run ever exiting:
/// everywhere but the ROB of a program that keeps it full (sha .02,
/// rijndael .10 of uniformly sampled faults; every other pair ≥ .2).
fn exits_expected(workload: &str, structure: Structure) -> bool {
    structure != Structure::Rob || !matches!(workload, "sha" | "rijndael")
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
fn exit_is_invisible_under_bursts() {
    let f = fixture("crc32", MuarchConfig::big());
    let window = |w| RunMode::FirstDeviation {
        ert_window: Some(w),
    };
    for structure in [Structure::RegFile, Structure::L1DData, Structure::Lq] {
        for mode in [
            RunMode::Instrumented,
            window(1_200),
            window(f.golden.cycles),
        ] {
            let base = CampaignConfig::new(structure, 16, mode).with_seed(0xB0457);
            let (_, early) = assert_invisible(&f, &base.with_burst(4));
            assert!(early > 0, "{structure:?} / {mode:?}: no run took the exit");
        }
    }
}

/// The ERT boundary at the golden's halt, which `halt` commits in cycle
/// `golden.cycles`: a window that closes at the end of cycle
/// `golden.cycles - 1` (`e == golden.cycles`) expires first, with
/// `cycles == golden.cycles`; one that would close a cycle later is beaten
/// by the halt, and the run completes with the golden's output. Both sides
/// hold for a fault the carrier finds dead (the ending is derived) and one
/// it does not (the run is simulated), on every path.
#[test]
fn ert_window_closing_at_the_golden_halt_expires_and_one_later_completes() {
    const W: u64 = 16;
    let f = fixture("bitcount", MuarchConfig::big());
    let g = f.golden.cycles;
    let at = g - W;
    let structure = Structure::L1IData;
    // The fault-free machine at the injection cycle says which sites are dead.
    let mut fault_free = Sim::new(&f.w.program, f.cfg.clone());
    let ctl = RunControl {
        max_cycles: watchdog_budget(g),
        ..Default::default()
    };
    assert_eq!(fault_free.run_to_cycle(at, &ctl), None);
    let site = |dead: bool| {
        (0..structure.bit_count(&f.cfg))
            .map(|bit| FaultSite { structure, bit })
            .find(|&s| fault_free.dead_on_arrival(s) == dead)
            .map(|site| Fault { site, cycle: at })
            .unwrap_or_else(|| panic!("no site with dead == {dead} at cycle {at}"))
    };
    let faults = [site(true), site(false)];

    for (window, expired) in [(W, true), (W + 1, false)] {
        let mode = RunMode::FirstDeviation {
            ert_window: Some(window),
        };
        let reference: Vec<InjectionResult> = (faults.iter())
            .map(|&fault| run_one(&f.w, &f.cfg, &f.golden, fault, mode, 1))
            .collect();
        for r in &reference {
            let what = format!("window {window}, {:?}", r.fault);
            if expired {
                assert_eq!(r.outcome, RunOutcome::ErtExpired, "{what}");
                assert_eq!((r.cycles, r.output_matches), (g, None), "{what}");
            } else {
                assert_eq!(r.outcome, RunOutcome::Completed, "{what}");
                assert_eq!((r.cycles, r.output_matches), (g, Some(true)), "{what}");
            }
            assert_eq!(r.deviation, None, "{what}");
        }
        let base = CampaignConfig::new(structure, faults.len(), mode);
        for batch in [1, 32] {
            let metrics = Arc::new(MetricsCollector::new());
            let ccfg =
                (base.clone().with_checkpoints(8).with_batch(batch)).with_observer(metrics.clone());
            let c = run_campaign_with_faults(&f.w, &f.cfg, &f.golden, &ccfg, &faults);
            assert_eq!(c.results, reference, "window {window} batch {batch}");
            assert_eq!(
                metrics.snapshot().converged_runs,
                1,
                "only the dead site exits"
            );
        }
    }
}

/// A run under an ERT window takes the exit at its injection cycle (never
/// the later comparisons), with the ending its own control prescribes:
/// `ErtExpired` at the end of the window if the golden run is still going
/// then, the golden's `Completed` otherwise — both sides of that line, and
/// the degenerate windows 0 and 1, are in `windows`. Invisible as ever, and
/// as non-vacuous.
fn ert_bounded_exit_is_invisible(workload: &str, cfg: MuarchConfig) {
    let f = fixture(workload, cfg);
    let g = f.golden.cycles;
    for &structure in Structure::all() {
        let (mut compared, mut early) = (0, 0);
        for window in [0, 1, 7, 200, 1_200, 12_000, g, 2 * g] {
            let mode = RunMode::FirstDeviation {
                ert_window: Some(window),
            };
            let base = CampaignConfig::new(structure, FAULTS, mode).with_seed(0xE27);
            let (c, e) = assert_invisible(&f, &base);
            compared += c;
            early += e;
        }
        println!(
            "convergence {workload:>8} {:<28} {structure:?} under an ERT window: {compared} runs \
             compared, {early} exited at injection",
            f.cfg.name
        );
        assert!(
            early > 0 || !exits_expected(workload, structure),
            "{workload} / {structure:?}: no run took the exit — the proof is vacuous"
        );
    }
}

#[test]
fn ert_bounded_exit_is_invisible_on_crc32_big() {
    ert_bounded_exit_is_invisible("crc32", MuarchConfig::big());
}

#[test]
fn ert_bounded_exit_is_invisible_on_crc32_small() {
    ert_bounded_exit_is_invisible("crc32", MuarchConfig::small());
}

#[test]
fn ert_bounded_exit_is_invisible_on_sha_big() {
    ert_bounded_exit_is_invisible("sha", MuarchConfig::big());
}

#[test]
fn ert_bounded_exit_is_invisible_on_sha_small() {
    ert_bounded_exit_is_invisible("sha", MuarchConfig::small());
}

#[test]
fn ert_bounded_exit_is_invisible_on_rijndael_big() {
    ert_bounded_exit_is_invisible("rijndael", MuarchConfig::big());
}

#[test]
fn ert_bounded_exit_is_invisible_on_rijndael_small() {
    ert_bounded_exit_is_invisible("rijndael", MuarchConfig::small());
}

#[test]
fn ert_bounded_exit_is_invisible_on_qsort_big() {
    ert_bounded_exit_is_invisible("qsort", MuarchConfig::big());
}

#[test]
fn ert_bounded_exit_is_invisible_on_qsort_small() {
    ert_bounded_exit_is_invisible("qsort", MuarchConfig::small());
}

/// The third exit, across paths: a register-file campaign run with a
/// checkpoint set — where a flip the golden run frees before reading
/// (`GoldenRun::rf_un_ace`) takes the golden's ending unforked — returns
/// the results of the same campaign run fresh from reset, on both cores,
/// under the AVGI window and end to end. Every index hit is a run that
/// took an exit (`converged_runs` counts them with the dead-on-arrival and
/// later exits), and each leg has hits, or the exit is not exercised.
#[test]
fn un_ace_register_exit_is_invisible() {
    const N: usize = 60;
    for cfg in [MuarchConfig::big(), MuarchConfig::small()] {
        for workload in ["crc32", "sha", "bitcount", "qsort"] {
            let f = fixture(workload, cfg.clone());
            for mode in [
                RunMode::FirstDeviation {
                    ert_window: Some(1_200),
                },
                RunMode::EndToEnd,
            ] {
                let what = format!("{workload} / {} / {mode:?}", f.cfg.name);
                let base = CampaignConfig::new(Structure::RegFile, N, mode).with_seed(0x3E817);
                let (reference, ..) = observed(&f, base.clone().with_checkpoints(0));
                let (results, exited, _) = observed(&f, base.with_checkpoints(8));
                assert_eq!(results, reference, "{what}");
                let hits = (results.iter())
                    .filter(|r| f.golden.rf_un_ace.covers(r.fault.site, r.fault.cycle))
                    .count() as u64;
                assert!(hits > 0, "{what}: no fault hit the index");
                assert!(exited >= hits, "{what}: {exited} exits < {hits} index hits");
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
