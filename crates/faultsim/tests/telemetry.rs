//! Determinism contract of the telemetry layer: every counter outside the
//! wall-clock family is a pure function of (seed, fault list, mode) — the
//! thread count, any journal interruption/resume pattern and the checkpoint
//! count (how many runs finish from the golden's future) must not show up
//! in `deterministic_counters_json()`.

use avgi_faultsim::{
    golden_for, run_campaign, run_campaign_journaled, CampaignConfig, MetricsCollector,
    MetricsSnapshot, RunMode,
};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;
use std::sync::Arc;

/// Runs a fresh campaign with `threads` workers and an attached collector,
/// returning the final snapshot.
fn observed_run(threads: usize, seed: u64) -> MetricsSnapshot {
    let w = avgi_workloads::by_name("crc32").unwrap();
    let cfg = MuarchConfig::big();
    let golden = golden_for(&w, &cfg);
    let collector = Arc::new(MetricsCollector::new());
    let ccfg = CampaignConfig {
        threads,
        ..CampaignConfig::new(Structure::RegFile, 24, RunMode::Instrumented)
    }
    .with_seed(seed)
    .with_observer(collector.clone());
    let c = run_campaign(&w, &cfg, &golden, &ccfg);
    let snap = collector.snapshot();
    // The collector's totals are the campaign's own.
    assert_eq!(snap.completed, c.len() as u64);
    assert_eq!(snap.aborted(), c.aborted_count() as u64);
    snap
}

#[test]
fn metrics_are_thread_count_independent() {
    let a = observed_run(1, 11);
    let b = observed_run(4, 11);
    assert_eq!(
        a.deterministic_counters_json(),
        b.deterministic_counters_json(),
        "1-thread and 4-thread campaigns must produce identical counters"
    );
    // The histogram equality is part of the JSON above, but assert it
    // directly too so a serialization bug cannot mask a counting bug.
    assert_eq!(a.post_inject_cycles, b.post_inject_cycles);
    assert_eq!(a.completed, 24);
    // A different seed must be *visible* in the counters' input (planned
    // count aside) — guard against the JSON being constant by construction.
    let c = observed_run(4, 12);
    assert_eq!(c.completed, 24);
}

#[test]
fn resumed_campaign_metrics_match_uninterrupted_run() {
    let w = avgi_workloads::by_name("crc32").unwrap();
    let cfg = MuarchConfig::big();
    let golden = golden_for(&w, &cfg);

    let path = std::env::temp_dir().join(format!(
        "avgi-telemetry-resume-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let base = CampaignConfig::new(Structure::L1DData, 16, RunMode::Instrumented).with_seed(7);

    // Reference: one uninterrupted journaled run, fully observed.
    let full = Arc::new(MetricsCollector::new());
    run_campaign_journaled(
        &w,
        &cfg,
        &golden,
        &base.clone().with_observer(full.clone()),
        &path,
    )
    .unwrap();

    // Interrupt: keep the header plus half the records, plus a torn line.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    assert_eq!(lines.len(), 1 + 16, "header plus one record per injection");
    let mut truncated: String = lines[..1 + 8].concat();
    truncated.push_str("{\"i\":15,\"fault\":{\"structure\":\"L1D");
    std::fs::write(&path, &truncated).unwrap();

    // Resume: 8 results replay through `on_resumed`, 8 run fresh.
    let resumed = Arc::new(MetricsCollector::new());
    run_campaign_journaled(
        &w,
        &cfg,
        &golden,
        &base.with_observer(resumed.clone()),
        &path,
    )
    .unwrap();

    let full = full.snapshot();
    let resumed = resumed.snapshot();
    assert_eq!(
        full.deterministic_counters_json(),
        resumed.deterministic_counters_json(),
        "resume must not change any deterministic counter"
    );
    // Only the resume-bookkeeping counter may differ.
    assert_eq!(full.resumed, 0);
    assert_eq!(resumed.resumed, 8);
    assert_eq!(resumed.completed, 16);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn metrics_are_checkpoint_count_independent() {
    let w = avgi_workloads::by_name("crc32").unwrap();
    let cfg = MuarchConfig::big();
    let golden = golden_for(&w, &cfg);
    let observed = |checkpoints| {
        let collector = Arc::new(MetricsCollector::new());
        let ccfg = CampaignConfig::new(Structure::L1DData, 24, RunMode::EndToEnd)
            .with_seed(3)
            .with_checkpoints(checkpoints)
            .with_observer(collector.clone());
        run_campaign(&w, &cfg, &golden, &ccfg);
        collector.snapshot()
    };
    let (to_the_end, converging) = (observed(0), observed(8));
    assert_eq!(
        to_the_end.deterministic_counters_json(),
        converging.deterministic_counters_json(),
        "a run that took the golden's ending must count exactly as one that simulated it"
    );
    // The exit happened, and is visible only outside the deterministic
    // subset: in the counters, the dump and the progress line.
    assert_eq!(
        (to_the_end.converged_runs, to_the_end.cycles_skipped),
        (0, 0)
    );
    assert!(converging.converged_runs > 0 && converging.cycles_skipped > 0);
    let shown = format!("converged {} (", converging.converged_runs);
    assert!(converging.progress_line().contains(&shown));
    assert!(!to_the_end.progress_line().contains("converged"));
    assert!(converging.to_json().contains("\"converged_runs\":"));
    assert!(!converging
        .deterministic_counters_json()
        .contains("converged"));
    let mut merged = to_the_end.clone();
    merged.merge(&converging);
    assert_eq!(merged.converged_runs, converging.converged_runs);
    assert_eq!(merged.cycles_skipped, converging.cycles_skipped);
}
